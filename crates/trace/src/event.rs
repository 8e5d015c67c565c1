//! The span/event vocabulary the DES engine records and the analyzer reads.
//!
//! A trace is a flat, time-ordered list of [`TraceEvent`]s for one *logical*
//! request — all hedge attempts and client retries share the trace of the
//! logical request they serve, distinguished by their `attempt` ordinal.
//! Span-shaped views (service spans, RTO-wait spans) are reconstructed from
//! the flat list at export/analysis time; keeping the wire format flat keeps
//! the hot-path record a single fixed-size push.

use ntier_des::ids::{ReplicaId, TierId};
use ntier_des::time::{SimDuration, SimTime, VLRT_THRESHOLD};

/// One timestamped occurrence within a request's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time.
    pub at: SimTime,
    pub kind: TraceEventKind,
}

/// What happened. Call-graph coordinates are the `u8`-backed
/// [`TierId`]/[`ReplicaId`] newtypes (the paper's systems are 3–5 tiers; the
/// engine caps well below 256) so the event stays 2 words. Tier-site events
/// carry the *replica* chosen by the tier's load balancer, which is what lets
/// the analyzer attribute a VLRT to one hot replica behind a balanced front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A client (re)issued this logical request; `attempt` is 0 for the
    /// original send and increments per client retry.
    ClientSend { attempt: u32 },
    /// A hedge backup was launched as attempt `attempt`.
    HedgeFire { attempt: u32 },
    /// The message was admitted but parked in the replica's backlog
    /// (the accept queue); the wait ends at the next `ServiceStart`.
    Enqueue { tier: TierId, replica: ReplicaId },
    /// A worker picked the request up at `tier` for its `visit`-th visit.
    ServiceStart {
        tier: TierId,
        replica: ReplicaId,
        visit: u16,
    },
    /// The visit's CPU demand finished at `tier`.
    ServiceEnd {
        tier: TierId,
        replica: ReplicaId,
        visit: u16,
    },
    /// The connection attempt was dropped at `tier` (SYN queue overflow or
    /// injected fault). `retransmit_no` is the 0-based ordinal of the drop
    /// at this hop: drop #0 costs the 3 s RTO, #1 another 3 s (6 s total),
    /// #2 another (9 s) under the RHEL 6 SYN schedule. Kernel retransmits
    /// re-hit the same `replica` (L4 affinity), so a stalled replica shows a
    /// drop ladder with one replica id.
    SynDrop {
        tier: TierId,
        replica: ReplicaId,
        retransmit_no: u8,
    },
    /// An application-level hop retry was granted after a drop at `tier`.
    AppRetry { tier: TierId },
    /// The attempt's caller timeout fired; `attempt` names which one.
    AttemptTimeout { attempt: u32 },
    /// A cancellation chase reaped the attempt's work at `tier`.
    CancelReap { tier: TierId, replica: ReplicaId },
    /// The request was load-shed at `tier` (or by the client-side breaker
    /// when `tier` is the first hop and the send never entered the plant).
    Shed { tier: TierId, replica: ReplicaId },
}

/// How the logical request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalClass {
    Completed,
    Failed,
    Shed,
    Cancelled,
}

impl TerminalClass {
    pub fn as_str(self) -> &'static str {
        match self {
            TerminalClass::Completed => "completed",
            TerminalClass::Failed => "failed",
            TerminalClass::Shed => "shed",
            TerminalClass::Cancelled => "cancelled",
        }
    }
}

/// A finished, retained trace: the promotion buffer's unit of storage.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Stable per-run id, assigned in trace-start order.
    pub id: u64,
    /// Workload class label.
    pub class: &'static str,
    pub injected_at: SimTime,
    pub terminal_at: SimTime,
    pub outcome: TerminalClass,
    /// Terminal latency of the logical request.
    pub latency: SimDuration,
    /// True if this trace was probabilistically sampled at start (as opposed
    /// to promoted post hoc because it turned out slow or failed).
    pub sampled: bool,
    /// Time-ordered events (stable order for simultaneous events).
    pub events: Vec<TraceEvent>,
}

impl RequestTrace {
    /// True when the request completed but took at least
    /// [`VLRT_THRESHOLD`].
    pub fn is_vlrt(&self) -> bool {
        self.outcome == TerminalClass::Completed && self.latency >= VLRT_THRESHOLD
    }

    /// Iterates the SYN-drop events in time order as
    /// `(at, tier, replica, retransmit_no)`.
    pub fn syn_drops(&self) -> impl Iterator<Item = (SimTime, TierId, ReplicaId, u8)> + '_ {
        self.events.iter().filter_map(|e| match e.kind {
            TraceEventKind::SynDrop {
                tier,
                replica,
                retransmit_no,
            } => Some((e.at, tier, replica, retransmit_no)),
            _ => None,
        })
    }
}
