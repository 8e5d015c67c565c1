//! TCP substrate model: the network-side half of `MaxSysQDepth`.
//!
//! The paper's drop mechanism is entirely queue-structural: a server can hold
//! `thread pool size + TCP accept backlog` requests; a SYN arriving beyond
//! that is silently dropped by the kernel and retransmitted by the client's
//! TCP stack 3 seconds later (RHEL 6.3 / kernel 2.6.32), again at 6 s and 9 s
//! on repeated drops. This module models exactly those pieces:
//!
//! * `Backlog` — the bounded accept queue (default capacity 128,
//!   the Linux default the paper cites);
//! * [`RetransmitPolicy`] — the retry schedule that turns a
//!   dropped packet into a 3/6/9-second response.
//!
//! Per-hop propagation delay is a single [`SystemConfig::hop_delay`], not a
//! type here.
//!
//! [`SystemConfig::hop_delay`]: crate::SystemConfig::hop_delay
//!
//! Real sockets are deliberately absent: kernel SYN-drop behaviour is not
//! controllable in a container, and the phenomenon under study is fully
//! determined by these queue capacities (see DESIGN.md §2).

mod backlog;
mod retransmit;

pub use retransmit::RetransmitPolicy;

pub(crate) use backlog::Backlog;
pub(crate) use retransmit::{RetransmitState, RetryDecision};
