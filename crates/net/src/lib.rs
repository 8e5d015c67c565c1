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
