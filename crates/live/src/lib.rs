//! A real-thread mini n-tier testbed.
//!
//! The simulator in `ntier-core` gives deterministic, paper-scale
//! experiments; this crate demonstrates the same CTQO mechanics with *actual
//! OS threads and wall-clock time*, laptop-scale:
//!
//! * a **sync tier** is a pool of worker threads behind a bounded std
//!   `sync_channel` (the accept backlog). A worker forwards downstream and
//!   **blocks** on the reply — RPC semantics, thread held end-to-end;
//! * an **async tier** is a large `sync_channel` (`LiteQDepth`) in front of
//!   a small worker pool; workers forward downstream with the *original*
//!   reply address and move on — continuation semantics, nothing held;
//! * a full channel rejects the `try_send` — the **drop** — and the sender
//!   retransmits after a fixed timeout (a scaled-down TCP RTO);
//! * a [`stall::StallGate`] freezes a tier's workers for a few hundred
//!   milliseconds — the **millibottleneck**.
//!
//! Kernel TCP is deliberately not used: SYN-queue overflow is not
//! controllable inside a container, and bounded channels preserve exactly
//! the queue-capacity arithmetic that produces CTQO (see DESIGN.md §2).
//!
//! Tiers are described by the *simulator's* [`ntier_core::TierSpec`] — one
//! spec type across DES engine and testbed — wrapped in a
//! [`chain::LiveTier`] that adds wall-clock service time and a stall gate.
//! The testbed runs one instance per tier: a spec with `replicas > 1` is
//! refused with [`LiveError::Replicated`].
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use ntier_live::chain::{ChainBuilder, LiveTier};
//! use ntier_live::harness::fire_burst;
//!
//! // Two async tiers absorb a burst without drops.
//! let chain = ChainBuilder::new(Duration::from_millis(100))
//!     .tier(LiveTier::asynchronous("web", 1_000, 2, Duration::from_micros(200)))
//!     .tier(LiveTier::asynchronous("app", 1_000, 2, Duration::from_micros(200)))
//!     .build()
//!     .expect("spawn chain");
//! let outcome = fire_burst(chain.front(), 32, Duration::from_secs(5)).expect("burst");
//! assert_eq!(outcome.completed, 32);
//! assert_eq!(chain.drops(), vec![0, 0]);
//! chain.shutdown().expect("clean shutdown");
//! ```
//!
//! The simulator's resilience, hedging, replication, control, gray-failure
//! health, metrics and tracing layers have no wall-clock counterpart here:
//! the testbed keeps only what a gated test or example drives (DESIGN.md
//! §16.5).

pub mod chain;
pub mod harness;
pub mod stall;
pub mod tier;

pub use chain::{Chain, ChainBuilder, LiveTier};
pub use harness::{fire_burst, fire_burst_with_rto, BurstOutcome};
pub use ntier_core::TierSpec;
pub use stall::StallGate;
pub use tier::{LiveReply, LiveRequest, Tier};

/// Errors surfaced by the live testbed instead of aborting the process: a
/// chain the testbed cannot run, a worker that cannot be spawned or a thread
/// that panicked mid-run becomes a value the caller can assert on.
#[derive(Debug)]
pub enum LiveError {
    /// The OS refused to spawn a worker thread.
    Spawn(std::io::Error),
    /// A client sender thread panicked before handing back its send time.
    ClientPanicked,
    /// A tier's spec asks for more than one replica; the testbed runs one
    /// instance per tier.
    Replicated {
        /// The tier's name.
        tier: String,
        /// The replica count its spec asks for.
        replicas: usize,
    },
    /// Worker threads panicked; detected when their tiers were joined at
    /// shutdown. Tier names, front first, deduplicated.
    WorkersPanicked(Vec<String>),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Spawn(e) => write!(f, "failed to spawn worker thread: {e}"),
            LiveError::ClientPanicked => write!(f, "a client sender thread panicked"),
            LiveError::Replicated { tier, replicas } => write!(
                f,
                "tier {tier} asks for {replicas} replicas; the live testbed runs one instance per tier"
            ),
            LiveError::WorkersPanicked(tiers) => {
                write!(f, "worker threads panicked in tiers: {}", tiers.join(", "))
            }
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Spawn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LiveError {
    fn from(e: std::io::Error) -> Self {
        LiveError::Spawn(e)
    }
}
