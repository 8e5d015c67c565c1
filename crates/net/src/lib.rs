//! TCP substrate model: the network-side half of `MaxSysQDepth`.
//!
//! The paper's drop mechanism is entirely queue-structural: a server can hold
//! `thread pool size + TCP accept backlog` requests; a SYN arriving beyond
//! that is silently dropped by the kernel and retransmitted by the client's
//! TCP stack 3 seconds later (RHEL 6.3 / kernel 2.6.32), again at 6 s and 9 s
//! on repeated drops. This crate models exactly those pieces:
//!
//! * [`backlog::Backlog`] — the bounded accept queue (default capacity 128,
//!   the Linux default the paper cites);
//! * [`retransmit::RetransmitPolicy`] — the retry schedule that turns a
//!   dropped packet into a 3/6/9-second response.
//!
//! Per-hop propagation delay is a single `SystemConfig::hop_delay` in
//! `ntier-core`, not a type here.
//!
//! Real sockets are deliberately absent: kernel SYN-drop behaviour is not
//! controllable in a container, and the phenomenon under study is fully
//! determined by these queue capacities (see DESIGN.md §2).

pub mod backlog;
pub mod retransmit;

pub use backlog::Backlog;
pub use retransmit::{RetransmitPolicy, RetransmitState, RetryDecision};

/// The Linux default TCP accept-backlog capacity the paper measured against.
pub const DEFAULT_TCP_BACKLOG: usize = 128;

/// Why a message was dropped. Used by telemetry and the CTQO analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropKind {
    /// The thread pool was exhausted and the TCP accept backlog was full
    /// (synchronous server overflow — the paper's dropped-packet case).
    BacklogOverflow,
    /// The asynchronous server's lightweight queue was full (only reachable
    /// with very small `LiteQDepth` configurations).
    LiteQueueOverflow,
    /// The retry budget was exhausted; the client gave up.
    RetriesExhausted,
}

impl std::fmt::Display for DropKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DropKind::BacklogOverflow => write!(f, "backlog overflow"),
            DropKind::LiteQueueOverflow => write!(f, "lightweight queue overflow"),
            DropKind::RetriesExhausted => write!(f, "retries exhausted"),
        }
    }
}
