//! A real-thread mini n-tier testbed.
//!
//! The simulator in `ntier-core` gives deterministic, paper-scale
//! experiments; this crate demonstrates the same CTQO mechanics with *actual
//! OS threads and wall-clock time*, laptop-scale:
//!
//! * a **sync tier** is a pool of worker threads behind a bounded channel
//!   (the accept backlog). A worker forwards downstream and **blocks** on
//!   the reply — RPC semantics, thread held end-to-end;
//! * an **async tier** is a large bounded channel (`LiteQDepth`) in front of
//!   a small worker pool; workers forward downstream with the *original*
//!   reply address and move on — continuation semantics, nothing held;
//! * a full channel rejects the send — the **drop** — and the sender
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
//! [`chain::LiveTier`] that adds wall-clock service time and stall gates.
//! A spec with `replicas > 1` spawns that many independent instances behind
//! a [`tier::ReplicaSet`] running the spec's balancer policy.
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
//! Application-level resilience — attempt timeouts, bounded retries, retry
//! budgets, circuit breaking, hedged requests and cancellation propagation
//! — reuses the `ntier-resilience` policies on a wall clock (see
//! [`policy::WallClock`]) via [`harness::fire_burst_with_policy`], so
//! simulator and testbed exercise one implementation. In hedged mode the
//! first reply wins and losing attempts are chased down through their
//! [`tier::CancelToken`]s: tiers discard cancelled work at dequeue (or
//! abandon it in retransmission limbo) instead of servicing orphans, and
//! report the reclaimed work via [`chain::Chain::reaped`].
//!
//! The simulator's control, gray-failure health, metrics and tracing
//! planes have no wall-clock counterpart here: the testbed keeps a mirror
//! only while a gated test or example drives it (DESIGN.md §16.5).

pub mod chain;
pub mod harness;
pub mod policy;
pub mod stall;
pub mod tier;

pub use chain::{Chain, ChainBuilder, LiveTier};
pub use harness::{fire_burst, fire_burst_with_policy, BurstOutcome, PolicyOutcome};
pub use ntier_core::{Balancer, TierSpec};
pub use policy::WallClock;
pub use stall::StallGate;
pub use tier::{AsyncTier, CancelToken, LiveReply, LiveRequest, ReplicaSet, SyncTier, Tier};

/// Errors surfaced by the live testbed instead of aborting the process: a
/// worker that cannot be spawned or a thread that panicked mid-run becomes a
/// value the harness caller can assert on.
#[derive(Debug)]
pub enum LiveError {
    /// The OS refused to spawn a worker thread.
    Spawn(std::io::Error),
    /// A client sender thread panicked before handing back its send time.
    ClientPanicked,
    /// The pacing thread of [`harness::fire_sustained`] panicked.
    PacerPanicked,
    /// Worker threads panicked; detected when their tiers were joined at
    /// shutdown. Tier names, front first, deduplicated.
    WorkersPanicked(Vec<String>),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Spawn(e) => write!(f, "failed to spawn worker thread: {e}"),
            LiveError::ClientPanicked => write!(f, "a client sender thread panicked"),
            LiveError::PacerPanicked => write!(f, "the pacing thread panicked"),
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
