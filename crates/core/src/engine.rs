//! The n-tier simulation engine.
//!
//! Wires the substrates together: workload generators inject requests; each
//! request walks the call graph according to its [`Plan`]; tiers admit
//! messages through thread pools + backlogs (sync) or lightweight queues
//! (async); CPUs execute slices around stall intervals; overflowing a tier
//! drops the message and arms the TCP retransmission timer. Every mutation
//! records into the telemetry series that regenerate the paper's figures.
//!
//! # Semantics (see DESIGN.md §5)
//!
//! * A **sync** tier thread is held for the full downstream round trip; a
//!   tier with a configured connection pool additionally caps its
//!   outstanding downstream calls (the sync Tomcat→MySQL JDBC pool of 50).
//! * An **async** tier admits into its lightweight queue regardless of
//!   worker availability; downstream calls are continuations and no thread
//!   is held.
//! * A message arriving at a full sync tier (all threads busy *and* backlog
//!   full) is dropped; the sender retransmits per the configured policy
//!   (default: +3 s per attempt, the RHEL 6.3 behaviour).
//!
//! # Topologies (see DESIGN.md §12)
//!
//! The system is a *tree* of tiers described by [`crate::Topology`]. Beyond
//! the paper's linear chains:
//!
//! * A tier with `replicas > 1` is a **replica set**: each instance has its
//!   own thread pool / LiteQ, backlog, CPU (with per-replica stall
//!   overrides) and drop accounting. A fresh connection attempt picks a
//!   replica through the tier's deterministic [`Balancer`]; kernel SYN
//!   retransmits re-hit the *same* replica (an L4 balancer pins the
//!   5-tuple), which keeps the 3 s / 6 s / 9 s ladder attached to the
//!   replica that dropped.
//! * A node with several children is a **scatter-gather fan-out**: its
//!   single call point launches one *arm* sub-request per child, and the
//!   node resumes once the configured quorum of arms has replied. Arms that
//!   can no longer form a quorum fail the parent; late arms run to
//!   completion and their replies land on stale handles harmlessly.
//!
//! Chains of any depth ≥ 1 remain the common case: the paper's 3-tier
//! experiments use [`crate::presets`]; deeper chains (and per-request custom
//! plans) use [`crate::Topology::chain`] with [`Workload::open_plans`].
//!
//! # Example
//!
//! ```
//! use ntier_core::engine::{Engine, Workload};
//! use ntier_core::presets;
//! use ntier_des::prelude::*;
//! use ntier_workload::{ClosedLoopSpec, RequestMix, SampledRequest};
//!
//! let system = presets::sync_three_tier();
//! let workload = Workload::Closed {
//!     spec: ClosedLoopSpec::rubbos(200),
//!     mix: RequestMix::rubbos_browse(),
//! };
//! let report = Engine::new(system, workload, SimDuration::from_secs(10), 1).run();
//! assert!(report.is_conserved());
//! ```

use std::collections::HashMap;

use ntier_control::{Action, ControlLog, Controller, Directive, Observation, ReplicaObs, TierObs};
use ntier_des::prelude::*;
use ntier_net::{Backlog, RetransmitState, RetryDecision};
use ntier_resilience::{
    AimdLimiter, CircuitBreaker, Fault, HealthDetector, HealthVerdict, HedgeDelay, ResilienceStats,
    ShedPolicy, TokenBucket,
};
use ntier_server::conn_pool::Lease;
use ntier_server::{ConnectionPool, CpuModel, EventLoop, ProcessGroup, StallTimeline};
use ntier_telemetry::metrics::{MetricsSample, ReplicaSample, TierSample};
use ntier_telemetry::{
    CounterSeries, LatencyHistogram, MetricsRegistry, PeakSeries, QuantileSketch, UtilizationSeries,
};
use ntier_trace::{TerminalClass, TraceEventKind, TraceHandle, Tracer, TRACE_NONE};
use ntier_workload::source::ArrivalSource;
use ntier_workload::{ClosedLoopSpec, RequestMix, SampledRequest};

use crate::arrivals::SourcedRequest;
use crate::config::{SystemConfig, TierKind, TierSpec};
use crate::plan::Plan;
use crate::report::{ClassReport, EventCounts, ReplicaReport, RunReport, TierReport};
use crate::topology::Balancer;

/// The workload driving a run.
///
/// Construct workloads through the builders — [`Workload::closed`],
/// [`Workload::open`], [`Workload::open_plans`], [`Workload::from_source`] —
/// rather than naming variants directly. The materialized `Open`/`OpenPlans`
/// variants hold every arrival in memory up front and are deprecated as
/// construction targets; [`Workload::from_source`] streams arrivals on
/// demand, keeping memory proportional to the *active* request population.
pub enum Workload {
    /// Closed-loop clients (RUBBoS style): each completes, thinks, resends.
    /// Requires a 3-tier system (plans come from the request mix).
    Closed {
        /// Client population and think-time distribution.
        spec: ClosedLoopSpec,
        /// Request classes.
        mix: RequestMix,
    },
    /// Open-loop: requests injected at the given (pre-generated) times.
    /// Requires a 3-tier system.
    #[deprecated(
        since = "0.2.0",
        note = "construct via Workload::open(..), or stream with Workload::from_source(..)"
    )]
    Open {
        /// Sorted injection times.
        arrivals: Vec<SimTime>,
        /// Request classes.
        mix: RequestMix,
    },
    /// Open-loop with explicit per-request plans — supports chains of any
    /// depth (the plan depth must equal the system depth).
    #[deprecated(
        since = "0.2.0",
        note = "construct via Workload::open_plans(..), or stream with Workload::from_source(..)"
    )]
    OpenPlans {
        /// `(injection time, plan)` pairs.
        arrivals: Vec<(SimTime, Plan)>,
    },
    /// Streaming arrivals pulled lazily from an [`ArrivalSource`] (built
    /// with [`Workload::from_source`]): the engine holds at most one
    /// pending arrival, so memory is O(active requests) no matter how many
    /// arrivals the source ultimately emits.
    Source(WorkloadSource),
}

/// A boxed streaming arrival source (opaque in debug output).
///
/// All of the source's randomness — arrival gaps, mix samples, demand
/// multipliers — is drawn from the engine's dedicated `"arrival-source"`
/// rng fork at pull time, on the single thread driving the event loop, so
/// streamed runs stay bit-identical across runner thread counts.
pub struct WorkloadSource(Box<dyn ArrivalSource<Payload = SourcedRequest> + Send>);

impl std::fmt::Debug for WorkloadSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WorkloadSource(..)")
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        #[allow(deprecated)]
        match self {
            Workload::Closed { spec, mix } => f
                .debug_struct("Closed")
                .field("spec", spec)
                .field("mix", mix)
                .finish(),
            Workload::Open { arrivals, mix } => f
                .debug_struct("Open")
                .field("arrivals", arrivals)
                .field("mix", mix)
                .finish(),
            Workload::OpenPlans { arrivals } => f
                .debug_struct("OpenPlans")
                .field("arrivals", arrivals)
                .finish(),
            Workload::Source(s) => f.debug_tuple("Source").field(s).finish(),
        }
    }
}

impl Workload {
    /// A closed-loop population driving a 3-tier mix.
    pub fn closed(spec: ClosedLoopSpec, mix: RequestMix) -> Workload {
        Workload::Closed { spec, mix }
    }

    /// Open-loop arrivals at pre-generated `arrivals` times, each compiled
    /// from one `mix` sample. The times are materialized eagerly; prefer
    /// [`Workload::from_source`] for long runs.
    #[allow(deprecated)]
    pub fn open(arrivals: Vec<SimTime>, mix: RequestMix) -> Workload {
        Workload::Open { arrivals, mix }
    }

    /// Open-loop arrivals with explicit per-request plans (any chain
    /// depth). The table is materialized eagerly; prefer
    /// [`Workload::from_source`] for long runs.
    #[allow(deprecated)]
    pub fn open_plans(arrivals: Vec<(SimTime, Plan)>) -> Workload {
        Workload::OpenPlans { arrivals }
    }

    /// Streams arrivals lazily from `source`. The engine pulls one arrival
    /// at a time from its `"arrival-source"` rng fork; the source must
    /// emit non-decreasing times and stay exhausted after returning
    /// `None`. A source-reported fault (e.g. a trace parse error) ends the
    /// stream and is surfaced in
    /// [`RunReport::workload_fault`](crate::report::RunReport::workload_fault).
    pub fn from_source(
        source: impl ArrivalSource<Payload = SourcedRequest> + Send + 'static,
    ) -> Workload {
        Workload::Source(WorkloadSource(Box::new(source)))
    }
}

/// Typed rejection of a workload/system pairing — the workload analogue of
/// [`crate::TopologyError`], returned by [`Engine::try_new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// A mix-based workload (closed-loop, or open with a request mix) was
    /// paired with a system that is not a plain 3-tier chain, so its
    /// sampled requests cannot compile into plans.
    MixRequiresThreeTier {
        /// Tiers in the offending config.
        tiers: usize,
        /// Whether the config's shape was a linear chain.
        linear: bool,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::MixRequiresThreeTier { tiers, linear } => {
                let shape = if *linear { "linear" } else { "non-linear" };
                write!(
                    f,
                    "mix-based workloads compile 3-tier plans, but the system is a \
                     {shape} topology with {tiers} tiers; use Workload::open_plans or \
                     Workload::from_source for other shapes"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Generational handle into the request slab: `slot` indexes
/// `Engine::requests`, and the handle is *live* only while `gen` matches the
/// slot's current generation. Completed requests are recycled, so events
/// still in the queue for an earlier occupant (a pending `AttemptTimeout`,
/// a retransmit of a request that already gave up) resolve to a stale
/// handle and are ignored — exactly where the old engine checked `done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReqId {
    slot: u32,
    gen: u32,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    ClientSend {
        client: u32,
    },
    Inject {
        idx: u32,
    },
    Arrival {
        req: ReqId,
        tier: u8,
        visit: u16,
    },
    SliceDone {
        req: ReqId,
        tier: u8,
        visit: u16,
    },
    ReplyArrive {
        req: ReqId,
        tier: u8,
    },
    SpawnDone {
        tier: u8,
        replica: u8,
    },
    /// A scatter arm finished its subtree and replies to the parent request
    /// waiting at the fan-out node. The arm's slot is already recycled by
    /// the time this fires; only the parent handle matters (and it goes
    /// stale harmlessly if the parent failed first).
    ArmReply {
        parent: ReqId,
    },
    /// The client's per-attempt timer fired: orphan the attempt and consult
    /// the retry stack.
    AttemptTimeout {
        req: ReqId,
    },
    /// A granted client retry's backoff elapsed: launch the next attempt of
    /// the logical request described by `tickets[ticket]`. The ticket owns
    /// everything the relaunch needs, so the original attempt's slot may be
    /// recycled in the meantime.
    RetryFire {
        ticket: u32,
    },
    /// A fault window opens / closes (index into the fault plan).
    FaultBegin {
        idx: u16,
    },
    FaultEnd {
        idx: u16,
    },
    /// A hedged caller's backup timer fired: launch the next backup attempt
    /// of logical request `logical`, unless it already resolved (the `lgen`
    /// mismatch catches recycled logical slots).
    HedgeFire {
        logical: u32,
        lgen: u32,
    },
    /// The hedged caller's overall deadline passed: resolve the logical
    /// request as failed (or cancelled, when losing attempts are chased).
    LogicalDeadline {
        logical: u32,
        lgen: u32,
    },
    /// A cancel chasing attempt `req` reaches `tier`: reap the attempt if
    /// its front is here, forward the cancel if it is deeper, drop the
    /// chase if the reply already raced past upstream.
    CancelArrive {
        req: ReqId,
        tier: u8,
    },
    /// The control plane's step-synchronous tick. Scheduled only when the
    /// run has a control config, so uncontrolled event streams (and their
    /// golden fingerprints) stay byte-identical to the pre-control engine.
    ControllerTick,
    /// The gray-failure detector's scoring tick. Scheduled only when the
    /// run has a [`ntier_resilience::HealthPolicy`], so undetected event
    /// streams stay byte-identical to the pre-health engine.
    HealthTick,
    /// A provisioned replica's lag elapsed: it comes online at `tier` and
    /// starts receiving balancer picks on the next fresh connection.
    ReplicaReady {
        tier: u8,
    },
    /// The streaming metrics plane's snapshot tick. Scheduled only when the
    /// run has a [`ntier_telemetry::MetricsConfig`], so unmetered event
    /// streams stay byte-identical to the pre-metrics engine. The handler
    /// only *reads* engine state — it never touches an rng or schedules
    /// anything but its own successor — so even metered runs simulate the
    /// exact same system.
    MetricsTick,
}

impl Event {
    /// This event's index into [`EventCounts::KINDS`].
    fn kind(&self) -> usize {
        match self {
            Event::ClientSend { .. } => 0,
            Event::Inject { .. } => 1,
            Event::Arrival { .. } => 2,
            Event::SliceDone { .. } => 3,
            Event::ReplyArrive { .. } => 4,
            Event::SpawnDone { .. } => 5,
            Event::ArmReply { .. } => 6,
            Event::AttemptTimeout { .. } => 7,
            Event::RetryFire { .. } => 8,
            Event::FaultBegin { .. } => 9,
            Event::FaultEnd { .. } => 10,
            Event::HedgeFire { .. } => 11,
            Event::LogicalDeadline { .. } => 12,
            Event::CancelArrive { .. } => 13,
            Event::ControllerTick => 14,
            Event::HealthTick => 15,
            Event::ReplicaReady { .. } => 16,
            Event::MetricsTick => 17,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: ReqId,
    visit: u16,
}

/// Everything needed to launch the next client attempt of a logical
/// request, captured when the retry is *granted*: by the time the backoff
/// elapses, the previous attempt's slab slot may already belong to someone
/// else.
#[derive(Debug)]
struct RetryTicket {
    injected_at: SimTime,
    client: Option<u32>,
    class: &'static str,
    plan: Plan,
    /// 0-based attempt index of the attempt this ticket launches.
    attempt: u32,
    /// The logical request's trace; the ticket holds a reference across the
    /// backoff and hands it to the relaunched attempt.
    trace: TraceHandle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Occupancy {
    None,
    Thread,
    Admission,
}

/// Sentinel for "this attempt belongs to no hedged logical request".
const LOGICAL_NONE: u32 = u32::MAX;

/// Cap on events applied per same-timestamp batch drain in [`Engine::run`]
/// (bounds the reusable batch buffer; order is unaffected).
const EVENT_BATCH: usize = 64;

/// One *logical* request under a hedged caller: the primary attempt plus up
/// to K backups race down the chain; the first completion wins and the
/// losers are orphaned (and, with a [`ntier_resilience::CancelPolicy`],
/// chased down and reaped). Slots are recycled through
/// `Engine::free_logicals`; `gen` invalidates stale `HedgeFire` /
/// `LogicalDeadline` events exactly like [`ReqId::gen`] does for requests.
#[derive(Debug)]
struct LogicalState {
    gen: u32,
    /// A winner completed or the deadline passed; later attempt outcomes
    /// are orphan completions / silent reaps.
    resolved: bool,
    /// Live attempt handles (winner/losers are unlinked as they terminate).
    attempts: Vec<ReqId>,
    /// Backup attempts launched so far (excludes the primary).
    hedges_launched: u32,
    injected_at: SimTime,
    client: Option<u32>,
    class: &'static str,
    plan: Plan,
    /// The logical request's trace. The logical slot owns one reference;
    /// every attempt retains it, so hedge races append into one timeline.
    trace: TraceHandle,
}

#[derive(Debug, Clone, Copy, Default)]
struct ClassStats {
    completed: u64,
    vlrt: u64,
    drops: u64,
    shed: u64,
    latency_sum_us: u128,
}

/// Where and when a request first dropped: the site its VLRT, should it
/// end as one, is charged to. Later drops of the same request (kernel
/// retransmits, app-level hop retries) leave it as it is. A `tier` of
/// `u8::MAX`, one past the last index the 255-tier limit allows, marks a
/// request that has not dropped.
#[derive(Debug, Clone, Copy)]
struct FirstDrop {
    at: SimTime,
    tier: u8,
    replica: u8,
}

impl FirstDrop {
    /// The request has not dropped yet.
    const NONE: FirstDrop = FirstDrop {
        at: SimTime::ZERO,
        tier: u8::MAX,
        replica: 0,
    };

    fn is_none(self) -> bool {
        self.tier == u8::MAX
    }
}

/// One attempt's position and holdings at one tier.
#[derive(Debug, Clone, Copy)]
struct TierCursor {
    /// Index of the slice being (or about to be) executed.
    slice_idx: usize,
    /// The visit currently active here.
    active_visit: u16,
    /// The next visit here to consume when the caller calls down.
    next_visit: u16,
    occupying: Occupancy,
    /// Whether this attempt currently holds a pooled connection here.
    conn_held: bool,
    /// When the in-flight message was admitted here (backlog entry or
    /// visit start) — feeds the AIMD limiter's latency samples.
    arrived_at: SimTime,
    /// The replica the balancer chose here for the current in-flight
    /// message. Kernel SYN retransmits reuse this pin (L4 5-tuple
    /// affinity); fresh sends and app-level retries re-pick.
    replica: u8,
}

impl TierCursor {
    /// A fresh attempt's cursor: nothing held, nothing visited.
    const START: TierCursor = TierCursor {
        slice_idx: 0,
        active_visit: 0,
        next_visit: 0,
        occupying: Occupancy::None,
        conn_held: false,
        arrived_at: SimTime::ZERO,
        replica: 0,
    };
}

#[derive(Debug)]
struct RequestState {
    injected_at: SimTime,
    client: Option<u32>,
    class: &'static str,
    plan: Plan,
    /// Where this attempt stands at each tier, indexed by tier. Sized once
    /// when the slot is created and reset with one `fill` on reuse.
    cursors: Box<[TierCursor]>,
    retrans: RetransmitState,
    first_drop: FirstDrop,
    /// 0-based client attempt index (retries clone the plan with +1).
    attempt: u32,
    /// App-level retries of the current in-flight message (inner-hop caller
    /// policies); reset on successful admission like `retrans`.
    hop_attempts: u32,
    /// Index into `Engine::logicals` when this attempt belongs to a hedged
    /// logical request; [`LOGICAL_NONE`] otherwise.
    logical: u32,
    /// `Some(parent)` when this request is one *arm* of `parent`'s
    /// scatter-gather fan-out: it never counts in the run totals, and its
    /// terminal outcome feeds the parent's quorum instead of a client.
    arm_parent: Option<ReqId>,
    /// The child node this arm's subtree is rooted at (meaningful only
    /// with `arm_parent`); finishing its visit there replies to the parent.
    arm_root: u8,
    /// Arm replies still needed before this request's scatter completes
    /// (0 = no scatter outstanding / quorum already met).
    fan_awaiting: u32,
    /// Arms still able to reply; dropping below `fan_awaiting` makes the
    /// quorum unreachable and fails the request.
    fan_live: u32,
    /// The node this request's scatter was issued from.
    fan_node: u8,
    /// The attempt's trace handle ([`TRACE_NONE`] when tracing is off).
    /// Shared with the logical slot and retry ticket via refcounts.
    trace: TraceHandle,
}

// One slab slot per concurrently live attempt: the slab's high-water mark,
// not the report, sets a long replay's heap peak, so a slot stays within
// two cache lines.
const _: () = assert!(std::mem::size_of::<RequestState>() <= 128);

/// The per-slot request fields the dispatch hot path touches, split out of
/// [`RequestState`] structure-of-arrays style: the generation check in
/// [`Engine::live`] runs on nearly every event pop, and `head`/`orphan`
/// flip on the timeout/cancel/hedge paths. A [`RequestState`] is several
/// cache lines of mostly cold plan/telemetry data; packing the hot triple
/// into 8 bytes keeps ~8 slots' liveness state per cache line instead of
/// one.
#[derive(Debug, Clone, Copy)]
struct HotSlot {
    /// Slot generation; a [`ReqId`] is live iff its `gen` matches. Bumped
    /// when the slot is freed, which invalidates every outstanding handle.
    gen: u32,
    /// The deepest tier this attempt's front is currently at (queued,
    /// executing, in flight towards, or waiting out a retransmit at) — the
    /// coordinate a cancel chase homes in on. Updated on every send and
    /// every reply hop.
    head: u8,
    /// The client's attempt timer fired: this attempt keeps consuming
    /// resources but its terminal outcome no longer counts.
    orphan: bool,
}

#[derive(Debug)]
enum TierState {
    Sync(ProcessGroup),
    Async(EventLoop),
}

/// Lifecycle of one replica under the control plane. Every replica of an
/// uncontrolled run stays `Active` forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplicaLife {
    /// In the balancer's eligible set.
    Active,
    /// Removed from balancing but finishing its admitted work; kernel SYN
    /// retransmits still land here (the L4 5-tuple pin outlives the drain).
    Draining,
    /// Drained to idle. Never picked again; a pinned retransmit that races
    /// the retirement resolves to [`ReplicaGone`] and re-balances.
    Retired,
}

/// A kernel SYN retransmit targeted a replica the control plane retired
/// after the original drop (the L4 pin outlived the instance). The engine
/// recovers by re-balancing the connection; this type exists so the
/// condition is an inspectable error, never an invalid-index panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaGone {
    /// Tier whose replica set no longer serves the pin.
    pub tier: usize,
    /// The retired replica index the retransmit targeted.
    pub replica: usize,
}

impl std::fmt::Display for ReplicaGone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retransmit pinned to retired replica {} of tier {}",
            self.replica, self.tier
        )
    }
}

impl std::error::Error for ReplicaGone {}

/// One instance of a (possibly replicated) tier: its own admission state,
/// backlog, CPU, downstream connection pool and telemetry. An unreplicated
/// tier is a [`NodeRuntime`] with exactly one `Replica`.
#[derive(Debug)]
struct Replica {
    state: TierState,
    backlog: Backlog<Pending>,
    cpu: CpuModel,
    conn_pool: Option<ConnectionPool>,
    util: UtilizationSeries,
    queue_depth: PeakSeries,
    drops: CounterSeries,
    vlrt: CounterSeries,
    drops_total: u64,
    peak_queue: usize,
    life: ReplicaLife,
    /// Health-ejected: out of the balancer's eligible set on gray-failure
    /// evidence, but *not* draining — admitted work, backlog entries and
    /// kernel-pinned retransmits all still land here, and reinstatement
    /// flips the flag back without any replacement-capacity machinery.
    ejected: bool,
}

impl Replica {
    fn depth(&self) -> usize {
        match &self.state {
            TierState::Sync(pg) => pg.busy() + self.backlog.len(),
            TierState::Async(el) => el.in_flight(),
        }
    }

    /// The one eligibility predicate every balancer pick path shares:
    /// a replica takes fresh connections only while `Active` *and* not
    /// health-ejected. Drain, retire and ejection all flow through here,
    /// so a policy cannot disagree with its peers about who is pickable.
    #[inline]
    fn is_eligible(&self) -> bool {
        self.life == ReplicaLife::Active && !self.ejected
    }

    fn spawns(&self) -> u64 {
        match &self.state {
            TierState::Sync(pg) => pg.spawns_total(),
            TierState::Async(_) => 0,
        }
    }
}

/// Runtime state of one call-graph node: its replica set plus the per-hop
/// policy machinery (which belongs to the hop *into* the node, not to any
/// single replica).
#[derive(Debug)]
struct NodeRuntime {
    replicas: Vec<Replica>,
    /// Round-robin cursor for [`Balancer::RoundRobin`].
    rr_next: u32,
    /// Dedicated stream for balancer policies that draw ([`Balancer::P2c`]).
    /// Forked per node, consumed only when `replicas > 1` — single-instance
    /// nodes take no randomness, which keeps pre-topology runs bit-stable.
    rng: SimRng,
    /// Breaker guarding the hop *into* this tier (tier 0: the client's).
    hop_breaker: Option<CircuitBreaker>,
    /// Retry budget for the hop into this tier.
    hop_bucket: Option<TokenBucket>,
    /// Adaptive concurrency limiter when the tier sheds via
    /// [`ShedPolicy::Aimd`]; fed a latency sample per finished visit.
    aimd: Option<AimdLimiter>,
    /// Resilience counters for the hop into this tier.
    res: ResilienceStats,
}

/// Outcome of an admission attempt, computed while the tier is mutably
/// borrowed and acted on afterwards.
#[derive(Debug, Clone, Copy)]
enum Admit {
    /// A thread/worker slot was claimed; start the visit.
    Start(Occupancy),
    /// Parked in the accept backlog.
    Backlogged,
    /// The message was dropped.
    Dropped,
}

/// Everything the engine keeps per controlled run: the pure controller,
/// its dedicated rng fork, and the previous tick's counter snapshots (the
/// controller consumes per-window deltas, not run-to-date totals).
#[derive(Debug)]
struct ControlRuntime {
    ctl: Controller,
    /// The control plane's only randomness source (drain-victim
    /// tie-breaks), forked off the run seed as `"control"`.
    rng: SimRng,
    tick: SimDuration,
    /// The hedge tuner's quantile, when armed; read per tick from the
    /// recent-window sketch.
    hedge_q: Option<f64>,
    prev_injected: u64,
    prev_completed: u64,
    prev_retries: u64,
    prev_hedges: u64,
    /// Per-tier, per-replica `drops_total` at the previous tick.
    prev_drops: Vec<Vec<u64>>,
    prev_shed: Vec<u64>,
    /// Worst retransmit ordinal among this window's drops (1 = an original
    /// send dropped, climbing values mean the 3/6/9 s ladder).
    window_max_ordinal: u8,
    /// Completions since the previous tick, sketched: the controller's
    /// recent-latency quantiles come from here (cleared per tick), not
    /// from run-wide histogram deltas — O(1) state, ~0.4 % error.
    window: QuantileSketch,
}

/// Everything the engine keeps per health-monitored run: the pure detector,
/// its dedicated rng fork, and the decision log its verdicts land in. The
/// log is merged with the controller's (when both run) in `into_report`, so
/// `Ejected`/`Reinstated` ride the same CSV/`RootCause` joins as scale-ups
/// and brakes.
#[derive(Debug)]
struct HealthRuntime {
    det: HealthDetector,
    /// The detection plane's only randomness source (trickle-probe
    /// routing), forked off the run seed as `"health"`. Consumed only when
    /// a probation replica exists, so detection on a healthy run draws
    /// nothing.
    rng: SimRng,
    /// Copied out of the policy so the pick hot path reads them without
    /// reaching through the detector.
    tier: usize,
    tick: SimDuration,
    probe: f64,
    log: ControlLog,
}

/// The simulation engine for one run.
#[derive(Debug)]
pub struct Engine {
    cfg: SystemConfig,
    workload: Workload,
    horizon: SimDuration,
    queue: EventQueue<Event>,
    now: SimTime,
    tiers: Vec<NodeRuntime>,
    /// Cached `cfg.shape.has_fanout()`: fan-out runs pay the plan/shape
    /// cross-check at inject; linear chains skip it.
    has_fanout: bool,
    /// Request slab: slots are recycled through `free_slots` when a request
    /// reaches a terminal outcome, so steady-state memory tracks the peak
    /// in-flight population instead of the total injected count.
    requests: Vec<RequestState>,
    /// Hot fields of the slab, same indexing as `requests` (see [`HotSlot`]).
    hot: Vec<HotSlot>,
    free_slots: Vec<u32>,
    /// Granted-but-not-yet-fired client retries (see [`RetryTicket`]);
    /// a fired ticket's slot is emptied and recycled through
    /// `free_tickets`, so the table tracks pending retries, not the total.
    tickets: Vec<Option<RetryTicket>>,
    free_tickets: Vec<u32>,
    /// Hedged logical requests (see [`LogicalState`]); recycled like the
    /// request slab.
    logicals: Vec<LogicalState>,
    free_logicals: Vec<u32>,
    /// Caller-wide token bucket metering hedge launches.
    hedge_bucket: Option<TokenBucket>,
    events_handled: u64,
    events_by_kind: EventCounts,
    rng_mix: SimRng,
    /// The closed/open mixes' reused sample: drawing a request allocates
    /// nothing once its query buffer has grown to the mix's widest class.
    sample: SampledRequest,
    rng_clients: SimRng,
    latency: LatencyHistogram,
    vlrt_by_completion: CounterSeries,
    injected: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    /// Logical requests resolved by a deadline *with* cancellation: the
    /// caller gave up and revoked the outstanding work.
    cancelled: u64,
    drops_total: u64,
    vlrt_total: u64,
    next_token: u64,
    parked: HashMap<u64, (ReqId, usize, u16)>,
    class_stats: HashMap<&'static str, ClassStats>,
    rng_faults: SimRng,
    rng_jitter: SimRng,
    /// Per-tier fault state toggled by the plan's begin/end events.
    tier_down: Vec<bool>,
    drop_prob: Vec<f64>,
    extra_hop: Vec<SimDuration>,
    /// Workers actually wedged per stuck-worker fault (index = fault index).
    stuck_acquired: Vec<usize>,
    /// Per-request span recorder; every call is a no-op compare against
    /// [`TRACE_NONE`] when tracing is disabled.
    tracer: Tracer,
    /// Closed-loop control plane state; `None` for uncontrolled runs.
    control: Option<Box<ControlRuntime>>,
    /// Gray-failure detection state; `None` when no `HealthPolicy` is set.
    health: Option<Box<HealthRuntime>>,
    /// Per-tier, per-replica service-rate multiplier from gray-degradation
    /// windows (1.0 = nominal). A slice's effective demand is scaled by it,
    /// and the scale is skipped entirely at exactly 1.0 so fault-free runs
    /// keep exact demands.
    rate_mult: Vec<Vec<f64>>,
    /// Per-tier, per-replica message-loss probability from flaky-link
    /// windows (0.0 = clean). Checked after replica resolution; the rng is
    /// drawn only while a window is open.
    replica_drop: Vec<Vec<f64>>,
    /// Per-tier admission ceiling installed by the overload governor
    /// (`None` = unbraked).
    governor_limit: Vec<Option<usize>>,
    /// Controller-set hedge delay overriding the configured policy.
    hedge_override: Option<SimDuration>,
    /// Streaming metrics plane; `None` for unmetered runs.
    metrics: Option<Box<MetricsRegistry>>,
    /// Optional live JSONL sink: each frozen snapshot is written as one
    /// line *during* the run (attach via [`Engine::with_metrics_sink`]).
    metrics_sink: Option<MetricsSink>,
    /// The first write error of `metrics_sink`, which is dropped at that
    /// point; copied into the report.
    metrics_sink_fault: Option<String>,
    /// Dedicated rng fork feeding [`Workload::Source`] pulls, so streamed
    /// arrivals consume randomness independently of every other plane.
    rng_source: SimRng,
    /// The one arrival pulled ahead under [`Workload::Source`] (its
    /// `Inject` event is already queued).
    pending_arrival: Option<SourcedRequest>,
    /// Last streamed arrival time, for the monotonicity guard.
    last_arrival: SimTime,
    /// A fault reported by the arrival source (or the engine's own
    /// monotonicity guard); copied into the report.
    workload_fault: Option<String>,
}

/// A streaming destination for metrics snapshots (opaque in debug output).
struct MetricsSink(Box<dyn std::io::Write + Send>);

impl std::fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MetricsSink(..)")
    }
}

impl Engine {
    /// Creates an engine for `cfg` under `workload`, simulating `horizon`
    /// with the given seed.
    ///
    /// # Panics
    ///
    /// Panics where [`Engine::try_new`] would return an error, and if `cfg`
    /// has no tiers or a tier declares a downstream pool without exactly
    /// one downstream. (Configs built through [`crate::TopologyBuilder`]
    /// are already validated; these asserts catch hand-assembled configs.)
    pub fn new(cfg: SystemConfig, workload: Workload, horizon: SimDuration, seed: u64) -> Self {
        Self::try_new(cfg, workload, horizon, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Engine::new`] with typed workload validation: a mix-based workload
    /// paired with a system that cannot compile its plans returns a
    /// [`WorkloadError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::MixRequiresThreeTier`] when a closed-loop
    /// or open-mix workload is paired with anything but a plain 3-tier
    /// chain.
    ///
    /// # Panics
    ///
    /// Config-structure violations (empty tier list, dangling downstream
    /// pool, fault targets outside the chain) still panic, as in
    /// [`Engine::new`].
    #[allow(deprecated)]
    pub fn try_new(
        cfg: SystemConfig,
        workload: Workload,
        horizon: SimDuration,
        seed: u64,
    ) -> Result<Self, WorkloadError> {
        if matches!(workload, Workload::Closed { .. } | Workload::Open { .. })
            && !(cfg.tiers.len() == 3 && cfg.shape.is_linear())
        {
            return Err(WorkloadError::MixRequiresThreeTier {
                tiers: cfg.tiers.len(),
                linear: cfg.shape.is_linear(),
            });
        }
        assert!(!cfg.tiers.is_empty(), "a system needs at least one tier");
        assert_eq!(
            cfg.shape.len(),
            cfg.tiers.len(),
            "topology shape covers {} nodes but the config has {} tiers",
            cfg.shape.len(),
            cfg.tiers.len()
        );
        for (i, tc) in cfg.tiers.iter().enumerate() {
            assert!(
                tc.downstream_pool.is_none() || cfg.shape.children[i].len() == 1,
                "tier {}: a downstream connection pool requires exactly one downstream",
                tc.name
            );
        }
        if let Some(max) = cfg.faults.max_tier() {
            assert!(
                max < cfg.tiers.len(),
                "fault targets tier {max} outside the chain"
            );
        }
        for f in cfg.faults.faults() {
            if let Some(r) = f.replica() {
                let t = f.tier();
                let n = cfg.tiers[t].replicas.max(1);
                assert!(
                    r < n,
                    "gray fault targets replica {r} of tier {t}, which has {n} replicas"
                );
            }
        }
        let root = SimRng::seed_from(seed);
        let bal_root = root.fork("balancer");
        let tiers: Vec<NodeRuntime> = cfg
            .tiers
            .iter()
            .enumerate()
            .map(|(i, tc)| {
                let replicas = (0..tc.replicas.max(1))
                    .map(|r| Self::make_replica(tc, r, horizon))
                    .collect();
                NodeRuntime {
                    replicas,
                    rr_next: 0,
                    rng: bal_root.fork(&format!("node-{i}")),
                    hop_breaker: tc
                        .caller_policy
                        .as_ref()
                        .and_then(|p| p.breaker)
                        .map(CircuitBreaker::new),
                    hop_bucket: tc
                        .caller_policy
                        .as_ref()
                        .and_then(|p| p.budget)
                        .map(|b| TokenBucket::new(b, SimTime::ZERO)),
                    aimd: match tc.shed {
                        Some(ShedPolicy::Aimd(acfg)) => Some(AimdLimiter::new(acfg)),
                        _ => None,
                    },
                    res: ResilienceStats::default(),
                }
            })
            .collect();
        let n_tiers = cfg.tiers.len();
        let n_faults = cfg.faults.faults().len();
        let hedge_bucket = cfg.tiers[0]
            .caller_policy
            .as_ref()
            .and_then(|p| p.hedge)
            .and_then(|h| h.budget)
            .map(|b| TokenBucket::new(b, SimTime::ZERO));
        let trace_cfg = cfg.trace;
        let has_fanout = cfg.shape.has_fanout();
        let latency = LatencyHistogram::paper_default();
        let control = cfg.control.map(|c| {
            Box::new(ControlRuntime {
                rng: root.fork("control"),
                tick: c.tick,
                hedge_q: c.tuner.as_ref().and_then(|t| t.hedge.as_ref()).map(|h| h.q),
                prev_injected: 0,
                prev_completed: 0,
                prev_retries: 0,
                prev_hedges: 0,
                prev_drops: tiers.iter().map(|n| vec![0; n.replicas.len()]).collect(),
                prev_shed: vec![0; n_tiers],
                window_max_ordinal: 0,
                window: QuantileSketch::new(),
                ctl: Controller::new(c),
            })
        });
        let health = cfg.health.clone().map(|h| {
            assert!(
                h.tier < tiers.len(),
                "health detector targets tier {} of {}",
                h.tier,
                tiers.len()
            );
            let replicas = tiers[h.tier].replicas.len();
            Box::new(HealthRuntime {
                rng: root.fork("health"),
                tier: h.tier,
                tick: h.tick,
                probe: h.probe_fraction,
                log: ControlLog::default(),
                det: HealthDetector::new(h, replicas),
            })
        });
        let metrics = cfg.metrics.map(|m| Box::new(MetricsRegistry::new(&m)));
        let tiers_rate_mult: Vec<Vec<f64>> =
            tiers.iter().map(|n| vec![1.0; n.replicas.len()]).collect();
        let tiers_replica_drop: Vec<Vec<f64>> =
            tiers.iter().map(|n| vec![0.0; n.replicas.len()]).collect();
        Ok(Engine {
            cfg,
            workload,
            horizon,
            queue: EventQueue::with_capacity(1 << 16),
            now: SimTime::ZERO,
            tiers,
            has_fanout,
            requests: Vec::with_capacity(1024),
            hot: Vec::with_capacity(1024),
            free_slots: Vec::new(),
            tickets: Vec::new(),
            free_tickets: Vec::new(),
            logicals: Vec::new(),
            free_logicals: Vec::new(),
            hedge_bucket,
            events_handled: 0,
            events_by_kind: EventCounts::default(),
            rng_mix: root.fork("mix"),
            sample: SampledRequest::default(),
            rng_clients: root.fork("clients"),
            latency,
            vlrt_by_completion: CounterSeries::paper_default_for(horizon),
            injected: 0,
            completed: 0,
            failed: 0,
            shed: 0,
            cancelled: 0,
            drops_total: 0,
            vlrt_total: 0,
            next_token: 0,
            parked: HashMap::new(),
            class_stats: HashMap::new(),
            rng_faults: root.fork("faults"),
            rng_jitter: root.fork("retry-jitter"),
            tier_down: vec![false; n_tiers],
            drop_prob: vec![0.0; n_tiers],
            extra_hop: vec![SimDuration::ZERO; n_tiers],
            stuck_acquired: vec![0; n_faults],
            tracer: Tracer::new(trace_cfg, root.fork("trace-sample")),
            control,
            health,
            rate_mult: tiers_rate_mult,
            replica_drop: tiers_replica_drop,
            governor_limit: vec![None; n_tiers],
            hedge_override: None,
            metrics,
            metrics_sink: None,
            metrics_sink_fault: None,
            rng_source: root.fork("arrival-source"),
            pending_arrival: None,
            last_arrival: SimTime::ZERO,
            workload_fault: None,
        })
    }

    /// Attaches a streaming JSONL sink: every metrics snapshot is written
    /// as one line the moment it is frozen, so long runs can be observed
    /// (and tailed) while they execute. A no-op unless the config enables
    /// the metrics plane via [`SystemConfig::with_metrics`]. A failed
    /// write drops the sink and lands in
    /// [`RunReport::metrics_sink_fault`]; the run goes on.
    #[must_use]
    pub fn with_metrics_sink(mut self, sink: Box<dyn std::io::Write + Send>) -> Self {
        self.metrics_sink = Some(MetricsSink(sink));
        self
    }

    /// Builds one replica instance of `tc` (replica index `r` selects its
    /// stall schedule). Used for the initial set and for autoscaler
    /// provisioning mid-run.
    fn make_replica(tc: &TierSpec, r: usize, horizon: SimDuration) -> Replica {
        let stalls = StallTimeline::from_intervals(tc.stalls_for(r).intervals().iter().copied());
        let (state, backlog_cap) = match &tc.kind {
            TierKind::Sync {
                threads,
                backlog,
                max_processes,
                spawn_delay,
            } => (
                TierState::Sync(ProcessGroup::new(*threads, *max_processes, *spawn_delay)),
                *backlog,
            ),
            TierKind::Async {
                lite_q_depth,
                workers,
            } => (TierState::Async(EventLoop::new(*lite_q_depth, *workers)), 0),
        };
        Replica {
            state,
            backlog: Backlog::new(backlog_cap),
            cpu: CpuModel::new(tc.cores, stalls),
            conn_pool: tc.downstream_pool.map(ConnectionPool::new),
            util: UtilizationSeries::paper_default_for(tc.cores, horizon),
            queue_depth: PeakSeries::paper_default_for(horizon),
            drops: CounterSeries::paper_default_for(horizon),
            vlrt: CounterSeries::paper_default_for(horizon),
            drops_total: 0,
            peak_queue: 0,
            life: ReplicaLife::Active,
            ejected: false,
        }
    }

    /// Runs the simulation to the horizon and returns the report.
    ///
    /// The loop drains events in *runs* sharing one timestamp: the batch
    /// comes off the calendar's active ring in O(1) per event without
    /// re-touching the wheel, and events the handlers schedule take later
    /// sequence numbers, so batch application reproduces the one-pop-at-a-
    /// time order bit-for-bit.
    pub fn run(mut self) -> RunReport {
        self.drive();
        self.into_report()
    }

    /// The event loop of [`Engine::run`], up to the horizon.
    fn drive(&mut self) {
        self.schedule_workload();
        let end = SimTime::ZERO + self.horizon;
        let mut batch = Vec::with_capacity(EVENT_BATCH);
        while let Some((t, ev)) = self.queue.pop_run(&mut batch, EVENT_BATCH) {
            if t > end {
                break;
            }
            self.now = t;
            self.events_handled += 1;
            self.handle(ev);
            if !batch.is_empty() {
                // Anything the first handler scheduled at `t` carries a
                // later seq than the drained run, so applying the batch
                // before re-polling the queue is exactly the serial order.
                for ev in batch.drain(..) {
                    self.events_handled += 1;
                    self.handle(ev);
                }
            }
        }
    }

    #[allow(deprecated)]
    fn schedule_workload(&mut self) {
        for (i, fault) in self.cfg.faults.faults().iter().enumerate() {
            let (from, until) = fault.window();
            self.queue.push(from, Event::FaultBegin { idx: i as u16 });
            self.queue.push(until, Event::FaultEnd { idx: i as u16 });
        }
        match &self.workload {
            Workload::Closed { spec, .. } => {
                let clients = spec.clients();
                let offsets: Vec<SimDuration> = (0..clients)
                    .map(|_| spec.start_offset(&mut self.rng_clients))
                    .collect();
                for (c, offset) in offsets.into_iter().enumerate() {
                    self.queue.push(
                        SimTime::ZERO + offset,
                        Event::ClientSend { client: c as u32 },
                    );
                }
            }
            Workload::Open { arrivals, .. } => {
                for (i, t) in arrivals.iter().enumerate() {
                    self.queue.push(*t, Event::Inject { idx: i as u32 });
                }
            }
            Workload::OpenPlans { arrivals } => {
                for (i, (t, _)) in arrivals.iter().enumerate() {
                    self.queue.push(*t, Event::Inject { idx: i as u32 });
                }
            }
            Workload::Source(_) => self.pull_next_arrival(),
        }
        if let Some(cr) = &self.control {
            self.queue
                .push(SimTime::ZERO + cr.tick, Event::ControllerTick);
        }
        if let Some(hr) = &self.health {
            self.queue.push(SimTime::ZERO + hr.tick, Event::HealthTick);
        }
        if let Some(m) = &self.metrics {
            self.queue
                .push(SimTime::ZERO + m.interval(), Event::MetricsTick);
        }
    }

    fn handle(&mut self, ev: Event) {
        self.events_by_kind.add(ev.kind());
        match ev {
            Event::ClientSend { client } => self.inject(Some(client), 0),
            Event::Inject { idx } => self.inject(None, idx),
            Event::Arrival { req, tier, visit } => self.on_arrival(req, tier as usize, visit),
            Event::SliceDone { req, tier, visit } => self.on_slice_done(req, tier as usize, visit),
            Event::ReplyArrive { req, tier } => self.on_reply(req, tier as usize),
            Event::SpawnDone { tier, replica } => {
                self.on_spawn_done(tier as usize, replica as usize)
            }
            Event::ArmReply { parent } => self.on_arm_reply(parent),
            Event::AttemptTimeout { req } => self.on_attempt_timeout(req),
            Event::RetryFire { ticket } => self.on_retry_fire(ticket),
            Event::FaultBegin { idx } => self.on_fault_begin(idx as usize),
            Event::FaultEnd { idx } => self.on_fault_end(idx as usize),
            Event::HedgeFire { logical, lgen } => self.on_hedge_fire(logical, lgen),
            Event::LogicalDeadline { logical, lgen } => self.on_logical_deadline(logical, lgen),
            Event::CancelArrive { req, tier } => self.on_cancel_arrive(req, tier as usize),
            Event::ControllerTick => self.on_controller_tick(),
            Event::ReplicaReady { tier } => self.on_replica_ready(tier as usize),
            Event::HealthTick => self.on_health_tick(),
            Event::MetricsTick => self.on_metrics_tick(),
        }
    }

    /// The metrics plane's snapshot tick: read the engine's gauges into a
    /// [`MetricsSample`], freeze a snapshot in the registry, stream it to
    /// the sink if one is attached, and reschedule. Strictly read-only
    /// against the simulation — no rng draws, no state mutations outside
    /// the registry — so metered and unmetered runs simulate the exact
    /// same system (pinned by `tests/metrics.rs`).
    fn on_metrics_tick(&mut self) {
        let Some(mut reg) = self.metrics.take() else {
            return;
        };
        let elapsed = self.now.as_micros();
        let tiers = self
            .tiers
            .iter()
            .map(|node| TierSample {
                replicas: node
                    .replicas
                    .iter()
                    .map(|rep| ReplicaSample {
                        depth: rep.depth() as u64,
                        drops: rep.drops_total,
                        util_ppm: if elapsed == 0 {
                            0
                        } else {
                            rep.util.total_busy_micros() * 1_000_000
                                / (u64::from(rep.cpu.cores()) * elapsed)
                        },
                    })
                    .collect(),
            })
            .collect();
        let sample = MetricsSample {
            now: self.now,
            events_handled: self.events_handled,
            events_scheduled: self.queue.scheduled_total(),
            slab_live: (self.requests.len() - self.free_slots.len()) as u64,
            slab_slots: self.requests.len() as u64,
            injected: self.injected,
            completed: self.completed,
            failed: self.failed,
            shed: self.shed,
            drops_total: self.drops_total,
            retries: self.tiers.iter().map(|t| t.res.retries).sum(),
            hedges: self.tiers[0].res.hedges,
            tiers,
        };
        let snap = reg.tick(sample);
        if let Some(MetricsSink(w)) = &mut self.metrics_sink {
            use std::io::Write as _;
            if let Err(e) = writeln!(w, "{}", snap.jsonl()) {
                self.metrics_sink = None;
                self.metrics_sink_fault = Some(format!("metrics sink write at {}: {e}", self.now));
            }
        }
        self.push_within_horizon(reg.interval(), Event::MetricsTick);
        self.metrics = Some(reg);
    }

    /// The control plane's step-synchronous tick: build the per-window
    /// observation, run the pure controller, actuate its directives, and
    /// retire drained replicas that reached idle. All control-plane
    /// randomness comes from the dedicated `"control"` fork, so controlled
    /// runs stay bit-identical across worker-thread counts and uncontrolled
    /// runs never reach this path.
    fn on_controller_tick(&mut self) {
        let Some(mut cr) = self.control.take() else {
            return;
        };
        let retries_now: u64 = self.tiers.iter().map(|t| t.res.retries).sum();
        let hedges_now = self.tiers[0].res.hedges;
        let mut tiers_obs = Vec::with_capacity(self.tiers.len());
        for (t, node) in self.tiers.iter().enumerate() {
            let replicas = node
                .replicas
                .iter()
                .enumerate()
                .map(|(r, rep)| ReplicaObs {
                    depth: rep.depth(),
                    draining: rep.life == ReplicaLife::Draining,
                    retired: rep.life == ReplicaLife::Retired,
                    drops_delta: rep.drops_total - cr.prev_drops[t][r],
                })
                .collect();
            tiers_obs.push(TierObs {
                replicas,
                shed_delta: node.res.shed - cr.prev_shed[t],
            });
        }
        let obs = Observation {
            now: self.now,
            injected_delta: self.injected - cr.prev_injected,
            completed_delta: self.completed - cr.prev_completed,
            retries_delta: retries_now - cr.prev_retries,
            hedges_delta: hedges_now - cr.prev_hedges,
            max_retrans_ordinal: cr.window_max_ordinal,
            recent_p50: cr.window.quantile(0.50),
            recent_p99: cr.window.quantile(0.99),
            recent_hedge_q: cr.hedge_q.and_then(|q| cr.window.quantile(q)),
            tiers: tiers_obs,
        };
        let directives = cr.ctl.tick(&obs, &mut cr.rng);
        for d in directives {
            self.apply_directive(&mut cr, d);
        }
        // Drain-before-remove: a draining replica retires only once its
        // last in-flight visit and backlog entry have run to completion.
        for t in 0..self.tiers.len() {
            for r in 0..self.tiers[t].replicas.len() {
                let rep = &mut self.tiers[t].replicas[r];
                if rep.life == ReplicaLife::Draining && rep.depth() == 0 {
                    rep.life = ReplicaLife::Retired;
                    cr.ctl.note_replica_retired(self.now, t, r);
                }
            }
        }
        cr.prev_injected = self.injected;
        cr.prev_completed = self.completed;
        cr.prev_retries = retries_now;
        cr.prev_hedges = hedges_now;
        for (t, node) in self.tiers.iter().enumerate() {
            cr.prev_drops[t].clear();
            cr.prev_drops[t].extend(node.replicas.iter().map(|r| r.drops_total));
            cr.prev_shed[t] = node.res.shed;
        }
        cr.window_max_ordinal = 0;
        cr.window.clear();
        self.push_within_horizon(cr.tick, Event::ControllerTick);
        self.control = Some(cr);
    }

    /// Actuates one controller directive against the plant.
    fn apply_directive(&mut self, cr: &mut ControlRuntime, d: Directive) {
        match d {
            Directive::AddReplica { tier } => {
                let lag = cr
                    .ctl
                    .config()
                    .autoscaler
                    .as_ref()
                    .map(|a| a.provisioning_lag)
                    .unwrap_or(SimDuration::ZERO);
                self.queue
                    .push(self.now + lag, Event::ReplicaReady { tier: tier as u8 });
            }
            Directive::DrainReplica { tier, replica } => {
                let rep = &mut self.tiers[tier].replicas[replica];
                if rep.life == ReplicaLife::Active {
                    rep.life = ReplicaLife::Draining;
                }
            }
            Directive::SetHedgeDelay { delay } => self.hedge_override = Some(delay),
            Directive::SetAimdBounds { tier, min, max } => {
                if let Some(lim) = self.tiers[tier].aimd.as_mut() {
                    lim.set_bounds(min, max);
                }
            }
            Directive::SetBrake { tier, depth } => self.governor_limit[tier] = depth,
        }
    }

    /// A provisioned replica's lag elapsed: it joins the tier's replica set
    /// and becomes eligible on the next fresh connection. Replica ids are
    /// `u8`, so provisioning saturates at 255 instances per tier.
    fn on_replica_ready(&mut self, tier: usize) {
        let Some(mut cr) = self.control.take() else {
            return;
        };
        let r = self.tiers[tier].replicas.len();
        if r < u8::MAX as usize {
            let rep = Self::make_replica(&self.cfg.tiers[tier], r, self.horizon);
            self.tiers[tier].replicas.push(rep);
            cr.prev_drops[tier].push(0);
            self.rate_mult[tier].push(1.0);
            self.replica_drop[tier].push(0.0);
            if let Some(hr) = self.health.as_mut() {
                if hr.tier == tier {
                    hr.det.on_replica_added();
                }
            }
            cr.ctl.note_replica_online(self.now, tier, r);
        }
        self.control = Some(cr);
    }

    /// The gray-failure detector's scoring tick: run the pure detector over
    /// the monitored tier's passive signals and actuate its verdicts.
    /// Ejection only removes the replica from the shared eligibility mask —
    /// admitted work, backlog entries and kernel-pinned retransmits keep
    /// draining to it (ejected ≠ retired), so no in-flight state is ever
    /// invalidated. Undetected runs never reach this path.
    fn on_health_tick(&mut self) {
        let Some(mut hr) = self.health.take() else {
            return;
        };
        hr.log.ticks += 1;
        let tier = hr.tier;
        let active: Vec<bool> = self.tiers[tier]
            .replicas
            .iter()
            .map(|r| r.life == ReplicaLife::Active)
            .collect();
        for v in hr.det.tick(self.now, &active) {
            match v {
                HealthVerdict::Eject { replica, score, z } => {
                    let rep = &mut self.tiers[tier].replicas[replica];
                    // A re-eject of an already-benched replica is a failed
                    // probation (the detector restarted its clock); narrate
                    // it as such rather than as a fresh outlier call.
                    let reason = if rep.ejected {
                        format!("probation failed at score {score:.2}")
                    } else {
                        rep.ejected = true;
                        format!("health score {score:.2} with peer z {z:.2}")
                    };
                    hr.log
                        .push(self.now, Action::Ejected { tier, replica }, reason);
                }
                HealthVerdict::Reinstate { replica, score } => {
                    let rep = &mut self.tiers[tier].replicas[replica];
                    rep.ejected = false;
                    hr.log.push(
                        self.now,
                        Action::Reinstated { tier, replica },
                        format!("probation clean at score {score:.2}"),
                    );
                }
            }
        }
        self.push_within_horizon(hr.tick, Event::HealthTick);
        self.health = Some(hr);
    }

    /// Resolves a handle to its slab index, or `None` if the slot has been
    /// recycled since the handle was issued (the request reached a terminal
    /// outcome; the event referencing it is stale).
    #[inline]
    fn live(&self, id: ReqId) -> Option<usize> {
        let i = id.slot as usize;
        (self.hot[i].gen == id.gen).then_some(i)
    }

    /// [`Self::live`] for paths where a stale handle would mean a resource
    /// accounting bug (backlog entries, parked connection waiters, and
    /// terminal transitions all hold the request live by construction).
    #[inline]
    fn live_expect(&self, id: ReqId) -> usize {
        self.live(id)
            .expect("stale request handle on a resource-holding path")
    }

    /// Claims a slab slot (recycling a freed one when available) and
    /// initialises it for a fresh attempt.
    fn alloc_request(
        &mut self,
        injected_at: SimTime,
        client: Option<u32>,
        class: &'static str,
        plan: Plan,
        attempt: u32,
    ) -> ReqId {
        if let Some(slot) = self.free_slots.pop() {
            let r = &mut self.requests[slot as usize];
            r.injected_at = injected_at;
            r.client = client;
            r.class = class;
            r.plan = plan;
            r.cursors.fill(TierCursor::START);
            r.retrans = RetransmitState::new();
            r.first_drop = FirstDrop::NONE;
            r.attempt = attempt;
            r.hop_attempts = 0;
            r.logical = LOGICAL_NONE;
            r.arm_parent = None;
            r.arm_root = 0;
            r.fan_awaiting = 0;
            r.fan_live = 0;
            r.fan_node = 0;
            r.trace = TRACE_NONE;
            let h = &mut self.hot[slot as usize];
            h.head = 0;
            h.orphan = false;
            ReqId { slot, gen: h.gen }
        } else {
            let n = self.tiers.len();
            let slot = self.requests.len() as u32;
            self.requests.push(RequestState {
                injected_at,
                client,
                class,
                plan,
                cursors: vec![TierCursor::START; n].into_boxed_slice(),
                retrans: RetransmitState::new(),
                first_drop: FirstDrop::NONE,
                attempt,
                hop_attempts: 0,
                logical: LOGICAL_NONE,
                arm_parent: None,
                arm_root: 0,
                fan_awaiting: 0,
                fan_live: 0,
                fan_node: 0,
                trace: TRACE_NONE,
            });
            self.hot.push(HotSlot {
                gen: 0,
                head: 0,
                orphan: false,
            });
            ReqId { slot, gen: 0 }
        }
    }

    /// Claims a logical-request slot for a hedged injection.
    fn alloc_logical(
        &mut self,
        injected_at: SimTime,
        client: Option<u32>,
        class: &'static str,
        plan: Plan,
    ) -> u32 {
        if let Some(lid) = self.free_logicals.pop() {
            let l = &mut self.logicals[lid as usize];
            l.resolved = false;
            l.attempts.clear();
            l.hedges_launched = 0;
            l.injected_at = injected_at;
            l.client = client;
            l.class = class;
            l.plan = plan;
            l.trace = TRACE_NONE;
            lid
        } else {
            self.logicals.push(LogicalState {
                gen: 0,
                resolved: false,
                attempts: Vec::new(),
                hedges_launched: 0,
                injected_at,
                client,
                class,
                plan,
                trace: TRACE_NONE,
            });
            (self.logicals.len() - 1) as u32
        }
    }

    /// Recycles a logical slot once it has resolved *and* every attempt has
    /// reached its terminal path; outstanding `HedgeFire`/`LogicalDeadline`
    /// events go stale via the generation bump.
    fn maybe_free_logical(&mut self, lid: u32) {
        let l = &mut self.logicals[lid as usize];
        if l.resolved && l.attempts.is_empty() {
            l.gen = l.gen.wrapping_add(1);
            let h = l.trace;
            l.trace = TRACE_NONE;
            self.free_logicals.push(lid);
            self.tracer.release(h);
        }
    }

    /// Detaches `req` from its logical request (no-op for non-hedged
    /// attempts) and recycles the logical slot if this was the last link.
    fn unlink_from_logical(&mut self, req: ReqId) {
        let lid = self.requests[req.slot as usize].logical;
        if lid == LOGICAL_NONE {
            return;
        }
        let l = &mut self.logicals[lid as usize];
        if let Some(pos) = l.attempts.iter().position(|a| *a == req) {
            l.attempts.remove(pos);
        }
        self.maybe_free_logical(lid);
    }

    /// Returns slot `i` to the free list; every outstanding [`ReqId`] for it
    /// goes stale.
    fn free_request(&mut self, i: usize) {
        let h = self.requests[i].trace;
        self.requests[i].trace = TRACE_NONE;
        self.hot[i].gen = self.hot[i].gen.wrapping_add(1);
        self.free_slots.push(i as u32);
        // The slot's release is the attempt's single release point; the
        // trace survives while a logical slot or retry ticket still holds it.
        self.tracer.release(h);
    }

    /// Pulls one arrival from the streaming source, queues its `Inject`,
    /// and parks the payload in `pending_arrival`. On exhaustion the
    /// source's fault (if any) is recorded; a time regression trips the
    /// engine's own monotonicity guard and ends the stream the same way.
    fn pull_next_arrival(&mut self) {
        let Workload::Source(src) = &mut self.workload else {
            return;
        };
        if self.workload_fault.is_some() {
            return;
        }
        match src.0.next_arrival(&mut self.rng_source) {
            Some((t, req)) => {
                if t < self.last_arrival {
                    self.workload_fault = Some(format!(
                        "arrival source emitted {t} after {}: times must be non-decreasing",
                        self.last_arrival
                    ));
                    return;
                }
                self.last_arrival = t;
                self.pending_arrival = Some(req);
                self.queue.push(t, Event::Inject { idx: u32::MAX });
            }
            None => {
                self.workload_fault = src.0.fault().map(str::to_owned);
            }
        }
    }

    #[allow(deprecated)]
    fn inject(&mut self, client: Option<u32>, idx: u32) {
        let (class, plan) = if matches!(self.workload, Workload::Source(_)) {
            let Some(req) = self.pending_arrival.take() else {
                return;
            };
            // A plan that does not fit the system is a fault of the input,
            // not of the engine: end the stream here, before this arrival
            // counts as injected, so conservation still holds.
            if let Err(e) = self.check_plan(&req.plan) {
                self.workload_fault = Some(format!("arrival at {}: {e}", self.now));
                return;
            }
            // Pull the successor before processing this arrival: the next
            // Inject takes an earlier sequence number than anything this
            // request schedules at the same timestamp, matching the order
            // the eager paths produce by pushing all arrivals up front.
            self.pull_next_arrival();
            (req.class, req.plan)
        } else {
            if self.workload_fault.is_some() {
                return; // a misfit plan ended the eager stream
            }
            let (class, plan) = match &self.workload {
                Workload::Closed { mix, .. } | Workload::Open { mix, .. } => {
                    mix.sample_into(&mut self.rng_mix, &mut self.sample);
                    (self.sample.class, Plan::compile(&self.sample))
                }
                Workload::OpenPlans { arrivals } => ("custom", arrivals[idx as usize].1.share()),
                Workload::Source(_) => unreachable!("handled above"),
            };
            // The same input fault as a misfit streamed plan: end the
            // stream before this arrival counts as injected.
            if let Err(e) = self.check_plan(&plan) {
                self.workload_fault = Some(format!("arrival at {}: {e}", self.now));
                return;
            }
            (class, plan)
        };
        // Fast-fail at the client while its breaker refuses the hop (in
        // half-open this admits the request as the probe).
        if self.tiers[0].hop_breaker.is_some() {
            let now = self.now;
            let allowed = self.tiers[0]
                .hop_breaker
                .as_mut()
                .expect("checked above")
                .try_acquire(now);
            if !allowed {
                self.injected += 1;
                self.shed += 1;
                self.tiers[0].res.shed += 1;
                self.class_stats.entry(class).or_default().shed += 1;
                // No RequestState ever exists: open and close a mini-trace
                // so breaker sheds still show up in the log.
                let h = self.tracer.start(self.now, class);
                self.tracer.record(
                    h,
                    self.now,
                    TraceEventKind::Shed {
                        tier: TierId::ROOT,
                        replica: ReplicaId::FIRST,
                    },
                );
                self.tracer
                    .set_terminal(h, self.now, TerminalClass::Shed, SimDuration::ZERO);
                self.tracer.release(h);
                self.schedule_client_next(client);
                return;
            }
        }
        if self.cfg.tiers[0]
            .caller_policy
            .as_ref()
            .is_some_and(|p| p.hedge.is_some())
        {
            self.inject_hedged(client, class, plan);
            return;
        }
        let id = self.alloc_request(self.now, client, class, plan, 0);
        self.requests[id.slot as usize].trace = self.tracer.start(self.now, class);
        self.injected += 1;
        self.arm_attempt_timer(id);
        self.send(id, 0, 0);
    }

    /// Checks that `plan` fits the system: one entry per tier, no more
    /// visits at a tier than a visit index (`u16`) can count and, on
    /// fan-out topologies, the shape's call structure.
    fn check_plan(&self, plan: &Plan) -> Result<(), String> {
        if plan.depth() != self.tiers.len() {
            return Err(format!(
                "plan depth {} does not match the system's {} tiers",
                plan.depth(),
                self.tiers.len()
            ));
        }
        if let Some(t) = (0..plan.depth()).find(|&t| plan.visits(t) > usize::from(u16::MAX)) {
            return Err(format!(
                "plan makes {} visits at tier {t}; at most {} fit",
                plan.visits(t),
                u16::MAX
            ));
        }
        if self.has_fanout {
            plan.matches_shape(&self.cfg.shape)
        } else {
            Ok(())
        }
    }

    /// Injects under a hedged client policy: one logical request, a primary
    /// attempt now, backups on the hedge timer, and a single overall
    /// deadline instead of per-attempt timers (`retry` is ignored — hedging
    /// replaces sequential retry).
    fn inject_hedged(&mut self, client: Option<u32>, class: &'static str, plan: Plan) {
        let deadline = self.cfg.tiers[0]
            .caller_policy
            .as_ref()
            .expect("checked by caller")
            .attempt_timeout;
        let lid = self.alloc_logical(self.now, client, class, plan.share());
        self.injected += 1;
        // The logical slot owns the trace's start reference; the primary
        // attempt retains it so both must release before finalization.
        let h = self.tracer.start(self.now, class);
        self.logicals[lid as usize].trace = h;
        let id = self.alloc_request(self.now, client, class, plan, 0);
        self.tracer.retain(h);
        self.requests[id.slot as usize].trace = h;
        self.requests[id.slot as usize].logical = lid;
        self.logicals[lid as usize].attempts.push(id);
        let lgen = self.logicals[lid as usize].gen;
        self.queue.push(
            self.now + deadline,
            Event::LogicalDeadline { logical: lid, lgen },
        );
        self.schedule_next_hedge(lid);
        self.send(id, 0, 0);
    }

    /// Schedules the next `HedgeFire` for `lid`, if the per-request backup
    /// bound allows another. The delay is the policy's fixed value or the
    /// currently observed latency quantile (clamped), read from the run's
    /// completion histogram.
    fn schedule_next_hedge(&mut self, lid: u32) {
        let hedge = self.cfg.tiers[0]
            .caller_policy
            .as_ref()
            .and_then(|p| p.hedge)
            .expect("hedged path requires a hedge policy");
        let l = &self.logicals[lid as usize];
        if l.hedges_launched >= hedge.max_hedges {
            return;
        }
        // A controller-set delay overrides the configured policy (the
        // tuner already clamped it into the tuner's floor/cap band).
        let delay = match self.hedge_override {
            Some(d) => d,
            None => {
                let observed = match hedge.delay {
                    HedgeDelay::Quantile { q, .. } => self.latency.quantile(q),
                    HedgeDelay::Fixed(_) => None,
                };
                hedge.delay.resolve(observed)
            }
        };
        let lgen = l.gen;
        self.queue
            .push(self.now + delay, Event::HedgeFire { logical: lid, lgen });
    }

    /// A hedge timer fired: launch the next backup attempt unless the
    /// logical request already resolved or the hedge budget is empty (an
    /// empty budget also stops the hedge ladder for this request — budget
    /// pressure means the system is already saturated with duplicates).
    fn on_hedge_fire(&mut self, lid: u32, lgen: u32) {
        {
            let l = &self.logicals[lid as usize];
            if l.gen != lgen || l.resolved {
                return;
            }
        }
        let now = self.now;
        if let Some(bucket) = self.hedge_bucket.as_mut() {
            if !bucket.try_withdraw(now) {
                self.tiers[0].res.budget_exhausted += 1;
                return;
            }
        }
        let (injected_at, client, class, plan, attempt) = {
            let l = &mut self.logicals[lid as usize];
            l.hedges_launched += 1;
            (
                l.injected_at,
                l.client,
                l.class,
                l.plan.share(),
                l.hedges_launched,
            )
        };
        self.tiers[0].res.hedges += 1;
        let id = self.alloc_request(injected_at, client, class, plan, attempt);
        let h = self.logicals[lid as usize].trace;
        self.tracer.retain(h);
        self.tracer
            .record(h, self.now, TraceEventKind::HedgeFire { attempt });
        self.requests[id.slot as usize].trace = h;
        self.requests[id.slot as usize].logical = lid;
        self.logicals[lid as usize].attempts.push(id);
        self.send(id, 0, 0);
        self.schedule_next_hedge(lid);
    }

    /// The hedged caller's deadline passed with no winner: the logical
    /// request resolves as cancelled (cancel policy set — the caller
    /// revokes the outstanding work) or failed (no cancellation — the
    /// attempts run on as orphans).
    fn on_logical_deadline(&mut self, lid: u32, lgen: u32) {
        {
            let l = &self.logicals[lid as usize];
            if l.gen != lgen || l.resolved {
                return;
            }
        }
        self.logicals[lid as usize].resolved = true;
        self.tiers[0].res.timeouts += 1;
        let now = self.now;
        if let Some(br) = self.tiers[0].hop_breaker.as_mut() {
            br.on_failure(now);
        }
        let cancel = self.cfg.tiers[0]
            .caller_policy
            .as_ref()
            .and_then(|p| p.cancel);
        if cancel.is_some() {
            self.cancelled += 1;
        } else {
            self.failed += 1;
        }
        {
            let l = &self.logicals[lid as usize];
            let latency = self.now.saturating_since(l.injected_at);
            let class = if cancel.is_some() {
                TerminalClass::Cancelled
            } else {
                TerminalClass::Failed
            };
            let h = l.trace;
            self.tracer.set_terminal(h, self.now, class, latency);
        }
        // Orphaning and chasing leave `attempts` alone, so scan it in place.
        for k in 0..self.logicals[lid as usize].attempts.len() {
            let att = self.logicals[lid as usize].attempts[k];
            if let Some(i) = self.live(att) {
                self.hot[i].orphan = true;
                if cancel.is_some() {
                    self.start_cancel(att);
                }
            }
        }
        let client = self.logicals[lid as usize].client;
        self.schedule_client_next(client);
        self.maybe_free_logical(lid);
    }

    /// Launches a cancel chase after attempt `req`, starting at tier 0.
    fn start_cancel(&mut self, req: ReqId) {
        let hop = self.cfg.tiers[0]
            .caller_policy
            .as_ref()
            .and_then(|p| p.cancel)
            .expect("start_cancel requires a cancel policy")
            .hop_delay;
        self.queue
            .push(self.now + hop, Event::CancelArrive { req, tier: 0 });
    }

    /// A cancel reaches `tier`. Three races, all realistic:
    /// * the attempt's front is **deeper** — forward the cancel one hop;
    /// * the front is **here** — reap: pluck it from the backlog or the
    ///   connection-pool wait queue, free every held thread/slot, and
    ///   retire the attempt (counted as `wasted_work_saved`);
    /// * the front is already **upstream** — the reply outran the cancel;
    ///   the chase ends and the reply completes as an orphan.
    fn on_cancel_arrive(&mut self, req: ReqId, tier: usize) {
        let Some(i) = self.live(req) else {
            return; // the attempt terminated on its own before the cancel landed
        };
        self.tiers[tier].res.cancels_propagated += 1;
        let head = self.hot[i].head as usize;
        if head > tier {
            let hop = self.cfg.tiers[0]
                .caller_policy
                .as_ref()
                .and_then(|p| p.cancel)
                .expect("cancel event requires a cancel policy")
                .hop_delay;
            self.queue.push(
                self.now + hop,
                Event::CancelArrive {
                    req,
                    tier: (tier + 1) as u8,
                },
            );
            return;
        }
        if head < tier {
            return;
        }
        self.reap_attempt(req, tier);
    }

    /// Physically removes attempt `req` from the system at `tier`: backlog
    /// slot, pooled-connection wait, and all held threads/admission slots
    /// are reclaimed; pending events for the attempt go stale via the
    /// generation bump.
    fn reap_attempt(&mut self, req: ReqId, tier: usize) {
        let i = self.live_expect(req);
        let rep = self.requests[i].cursors[tier].replica as usize;
        self.tracer.record(
            self.requests[i].trace,
            self.now,
            TraceEventKind::CancelReap {
                tier: TierId::from(tier),
                replica: ReplicaId::from(rep),
            },
        );
        if self.tiers[tier].replicas[rep]
            .backlog
            .remove_where(|p| p.req == req)
            .is_some()
        {
            self.record_queue(tier, rep);
        }
        // At most one parked pool wait can reference the attempt, so the
        // unordered scan is deterministic.
        let parked_token = self
            .parked
            .iter()
            .find_map(|(tok, (r, _, _))| (*r == req).then_some(*tok));
        if let Some(tok) = parked_token {
            let (_, target, _) = self.parked.remove(&tok).expect("token just seen");
            let pool_tier = self.cfg.shape.parent[target].expect("pooled hop has a caller");
            let pool_rep = self.requests[i].cursors[pool_tier].replica as usize;
            let removed = self.tiers[pool_tier].replicas[pool_rep]
                .conn_pool
                .as_mut()
                .expect("parked wait implies a pool")
                .cancel_waiter(tok);
            debug_assert!(removed, "parked token missing from pool wait queue");
        }
        self.release_resources(req);
        self.tiers[tier].res.wasted_work_saved += 1;
        self.unlink_from_logical(req);
        self.free_request(i);
    }

    /// Arms the client's per-attempt timer, when a client policy is set.
    fn arm_attempt_timer(&mut self, req: ReqId) {
        if let Some(policy) = &self.cfg.tiers[0].caller_policy {
            self.queue.push(
                self.now + policy.attempt_timeout,
                Event::AttemptTimeout { req },
            );
        }
    }

    /// Schedules a message (SYN/query/forward) to arrive at `tier`.
    fn send(&mut self, req: ReqId, tier: usize, visit: u16) {
        // The attempt's front is now headed at `tier`; a cancel chasing it
        // must look there. During a retransmit wait the head *stays* at the
        // dropped tier, which is exactly what lets a cancel catch an attempt
        // stuck in RTO limbo.
        let i = self.live_expect(req);
        self.hot[i].head = tier as u8;
        let at = self.now + self.cfg.hop_delay + self.extra_hop[tier];
        self.queue.push(
            at,
            Event::Arrival {
                req,
                tier: tier as u8,
                visit,
            },
        );
    }

    /// Chooses the replica of `tier` a fresh connection attempt lands on,
    /// per the tier's [`Balancer`]. A single-instance tier short-circuits to
    /// replica 0 without consuming randomness, which keeps replica-count-1
    /// topologies bit-identical to the pre-replication engine.
    ///
    /// Ineligibility — drain, retirement, health ejection — is one shared
    /// predicate ([`Replica::is_eligible`]) checked the same way by every
    /// policy.
    fn pick_replica(&mut self, tier: usize) -> u8 {
        if self.tiers[tier].replicas.len() > 1 {
            // Trickle probes: a probation replica receives `probe_fraction`
            // of fresh picks so reinstatement evidence can accrue without
            // re-exposing real traffic to a still-sick instance. The draw
            // comes from the dedicated "health" fork and only happens while
            // somebody is on probation.
            if let Some(hr) = self.health.as_mut() {
                if hr.tier == tier {
                    if let Some(p) = hr.det.probe_candidate() {
                        if hr.rng.chance(hr.probe) {
                            return p as u8;
                        }
                    }
                }
            }
        }
        let node = &mut self.tiers[tier];
        let n = node.replicas.len();
        if n == 1 {
            return 0;
        }
        // Every policy works over the same eligible set, scanned in place in
        // index order; with every replica eligible that is plain `0..n`.
        // The detector never ejects the last healthy replica, but a
        // controller drain can race an ejection into an empty set. Fresh
        // work then has to go *somewhere*: an ejected-but-active replica is
        // the least-bad destination (a draining one is on its way out and
        // would strand the pin).
        let any_eligible = node.replicas.iter().any(Replica::is_eligible);
        let ok = move |rep: &Replica| {
            if any_eligible {
                rep.is_eligible()
            } else {
                rep.life == ReplicaLife::Active
            }
        };
        let reps = &node.replicas;
        let eligible = || {
            reps.iter()
                .enumerate()
                .filter(move |(_, rep)| ok(rep))
                .map(|(r, _)| r)
        };
        let first = eligible()
            .next()
            .expect("replica 0 is never drained, so at least one replica is active");
        let m = eligible().count();
        if m == 1 {
            return first as u8;
        }
        match self.cfg.tiers[tier].balancer {
            Balancer::RoundRobin => loop {
                let r = node.rr_next as usize % n;
                node.rr_next = node.rr_next.wrapping_add(1);
                if ok(&node.replicas[r]) {
                    return r as u8;
                }
            },
            // The min scans run branchless: arithmetic selects instead of a
            // compare-and-branch the predictor loses on balanced queue
            // depths. Strict `<` keeps ties on the lowest eligible index.
            Balancer::LeastOutstanding => {
                let mut best = first;
                let mut best_depth = reps[best].depth();
                for r in eligible().skip(1) {
                    let d = reps[r].depth();
                    let take = usize::from(d < best_depth);
                    best = take * r + (1 - take) * best;
                    best_depth = take * d + (1 - take) * best_depth;
                }
                best as u8
            }
            Balancer::Jsq => {
                let mut best = first;
                let mut best_len = reps[best].backlog.len();
                for r in eligible().skip(1) {
                    let l = reps[r].backlog.len();
                    let take = usize::from(l < best_len);
                    best = take * r + (1 - take) * best;
                    best_len = take * l + (1 - take) * best_len;
                }
                best as u8
            }
            Balancer::P2c => {
                let ai = node.rng.below(m as u64) as usize;
                let mut bi = node.rng.below(m as u64 - 1) as usize;
                bi += usize::from(bi >= ai);
                let pick = |k| eligible().nth(k).expect("k < eligible count");
                let (a, b) = (pick(ai), pick(bi));
                let take = usize::from(reps[b].depth() < reps[a].depth());
                (take * b + (1 - take) * a) as u8
            }
        }
    }

    /// Resolves the kernel-pinned replica for a SYN retransmit; fails with
    /// [`ReplicaGone`] when the pin outlived the instance.
    fn pinned_replica(&self, i: usize, tier: usize) -> Result<usize, ReplicaGone> {
        let rep = self.requests[i].cursors[tier].replica as usize;
        if self.tiers[tier].replicas[rep].life == ReplicaLife::Retired {
            Err(ReplicaGone { tier, replica: rep })
        } else {
            Ok(rep)
        }
    }

    fn on_arrival(&mut self, req: ReqId, tier: usize, visit: u16) {
        let Some(i) = self.live(req) else {
            return;
        };
        // Resolve the replica first: a kernel SYN retransmit re-hits its
        // pinned replica (L4 5-tuple affinity); everything else — fresh
        // sends and app-level hop retries — re-picks through the balancer.
        let rep = if self.requests[i].retrans.attempts() > 0 {
            match self.pinned_replica(i, tier) {
                Ok(r) => r,
                Err(_gone) => {
                    // The pinned instance retired mid-RTO: the SYN meets a
                    // closed endpoint and the connection re-balances with a
                    // fresh pin instead of indexing a dead replica.
                    let r = self.pick_replica(tier);
                    self.requests[i].cursors[tier].replica = r;
                    r as usize
                }
            }
        } else {
            let r = self.pick_replica(tier);
            self.requests[i].cursors[tier].replica = r;
            r as usize
        };
        // Injected faults act at the admission point: a crashed tier
        // behaves like a full backlog, a flaky link drops the message with
        // the configured probability. Both hit the whole replica set (the
        // fault models the tier's shared ingress, not one instance).
        if self.tier_down[tier] {
            self.drop_message(req, tier, rep, visit);
            return;
        }
        if self.drop_prob[tier] > 0.0 {
            let p = self.drop_prob[tier];
            if self.rng_faults.chance(p) {
                self.drop_message(req, tier, rep, visit);
                return;
            }
        }
        // A flaky-link burst targets one replica's ingress: checked after
        // replica resolution, and the rng is drawn only while a window is
        // open, so clean runs consume nothing from the fault stream.
        let rp = self.replica_drop[tier][rep];
        if rp > 0.0 && self.rng_faults.chance(rp) {
            self.drop_message(req, tier, rep, visit);
            return;
        }
        // Admission-time load shedding: reject fast instead of queueing
        // work that is already doomed. Depth is the chosen replica's.
        if let Some(sp) = self.cfg.tiers[tier].shed {
            let depth = self.tiers[tier].replicas[rep].depth();
            let age = self.now.saturating_since(self.requests[i].injected_at);
            if sp.should_shed(depth, age) {
                self.shed_request(req, tier, rep);
                return;
            }
        }
        // AIMD adaptive concurrency limit: reject once the replica's
        // in-system count reaches the current (latency-derived) limit.
        if let Some(lim) = self.tiers[tier].aimd.as_ref() {
            if self.tiers[tier].replicas[rep].depth() >= lim.limit() {
                self.shed_request(req, tier, rep);
                return;
            }
        }
        // The overload governor's brake: a hard admission ceiling installed
        // at retry-storm onset, shedding excess work to break the storm's
        // sustained-overload fixed point.
        if let Some(cap) = self.governor_limit[tier] {
            if self.tiers[tier].replicas[rep].depth() >= cap {
                self.shed_request(req, tier, rep);
                return;
            }
        }
        let mut spawn_at: Option<SimTime> = None;
        let admit = {
            let rt = &mut self.tiers[tier].replicas[rep];
            match &mut rt.state {
                TierState::Sync(pg) => {
                    if pg.try_acquire() {
                        Admit::Start(Occupancy::Thread)
                    } else {
                        if pg.wants_spawn() {
                            pg.begin_spawn();
                            spawn_at = Some(self.now + pg.spawn_delay());
                        }
                        match rt.backlog.offer(Pending { req, visit }) {
                            Ok(()) => Admit::Backlogged,
                            Err(_) => Admit::Dropped,
                        }
                    }
                }
                TierState::Async(el) => {
                    if el.try_admit() {
                        Admit::Start(Occupancy::Admission)
                    } else {
                        Admit::Dropped
                    }
                }
            }
        };
        if let Some(at) = spawn_at {
            self.queue.push(
                at,
                Event::SpawnDone {
                    tier: tier as u8,
                    replica: rep as u8,
                },
            );
        }
        match admit {
            Admit::Start(occ) => {
                self.requests[i].cursors[tier].occupying = occ;
                self.on_admitted(req, tier);
                self.record_queue(tier, rep);
                self.begin_visit(req, tier, visit);
            }
            Admit::Backlogged => {
                self.tracer.record(
                    self.requests[i].trace,
                    self.now,
                    TraceEventKind::Enqueue {
                        tier: TierId::from(tier),
                        replica: ReplicaId::from(rep),
                    },
                );
                self.on_admitted(req, tier);
                self.record_queue(tier, rep);
            }
            Admit::Dropped => self.drop_message(req, tier, rep, visit),
        }
    }

    /// A message was accepted at `tier`: reset the per-message retry state
    /// and let the hop's breaker see the success (inner hops only — tier
    /// 0's breaker is the client's, whose success is request completion).
    fn on_admitted(&mut self, req: ReqId, tier: usize) {
        let i = self.live_expect(req);
        self.requests[i].retrans = RetransmitState::new();
        self.requests[i].hop_attempts = 0;
        self.requests[i].cursors[tier].arrived_at = self.now;
        if tier > 0 {
            let now = self.now;
            if let Some(br) = self.tiers[tier].hop_breaker.as_mut() {
                br.on_success(now);
            }
        }
    }

    fn begin_visit(&mut self, req: ReqId, tier: usize, visit: u16) {
        let i = self.live_expect(req);
        self.tracer.record(
            self.requests[i].trace,
            self.now,
            TraceEventKind::ServiceStart {
                tier: TierId::from(tier),
                replica: ReplicaId::from(self.requests[i].cursors[tier].replica as usize),
                visit,
            },
        );
        let c = &mut self.requests[i].cursors[tier];
        c.slice_idx = 0;
        c.active_visit = visit;
        self.exec_slice(req, tier, visit, 0);
    }

    fn exec_slice(&mut self, req: ReqId, tier: usize, visit: u16, slice: usize) {
        let i = self.live_expect(req);
        let demand = self.requests[i].plan.slices_at(tier, visit as usize)[slice];
        let rep = self.requests[i].cursors[tier].replica as usize;
        let rt = &mut self.tiers[tier].replicas[rep];
        let active = match &rt.state {
            TierState::Sync(pg) => pg.busy(),
            TierState::Async(el) => el.workers() as usize,
        };
        let effective = self.cfg.tiers[tier]
            .overhead
            .effective_demand(demand, active);
        // Gray degradation stretches this replica's service time by the
        // window's rate multiplier. The scale is skipped entirely at the
        // nominal 1.0 so ungraded slices keep their exact demands.
        let m = self.rate_mult[tier][rep];
        let effective = if m == 1.0 {
            effective
        } else {
            SimDuration::from_micros((effective.as_micros() as f64 * m) as u64)
        };
        let rt = &mut self.tiers[tier].replicas[rep];
        // Busy segments stream straight into the utilization series; no
        // per-slice segment Vec is built.
        let util = &mut rt.util;
        let end = rt
            .cpu
            .run_with(self.now, effective, |s, e| util.record_busy(s, e));
        self.queue.push(
            end,
            Event::SliceDone {
                req,
                tier: tier as u8,
                visit,
            },
        );
    }

    fn on_slice_done(&mut self, req: ReqId, tier: usize, visit: u16) {
        let Some(i) = self.live(req) else {
            return;
        };
        let slice = self.requests[i].cursors[tier].slice_idx;
        let total = self.requests[i].plan.slices_at(tier, visit as usize).len();
        if slice + 1 == total {
            self.finish_visit(req, tier, visit);
        } else {
            self.issue_call(req, tier);
        }
    }

    /// Issues the next downstream call from `tier` (the request's thread,
    /// if sync, stays held). A single child is the RPC hop; several children
    /// scatter one arm per child.
    fn issue_call(&mut self, req: ReqId, tier: usize) {
        let i = self.live_expect(req);
        if self.cfg.shape.children[tier].len() > 1 {
            self.do_scatter(req, tier);
            return;
        }
        let target = self.cfg.shape.children[tier][0];
        let c = &mut self.requests[i].cursors[target];
        let target_visit = c.next_visit;
        c.next_visit += 1;
        let rep = self.requests[i].cursors[tier].replica as usize;
        if self.tiers[tier].replicas[rep].conn_pool.is_some() {
            let token = self.next_token;
            self.next_token += 1;
            let lease = self.tiers[tier].replicas[rep]
                .conn_pool
                .as_mut()
                .expect("pool checked above")
                .acquire(token);
            match lease {
                Lease::Granted => {
                    self.requests[i].cursors[tier].conn_held = true;
                    self.send(req, target, target_visit);
                }
                Lease::Queued => {
                    self.parked.insert(token, (req, target, target_visit));
                }
            }
        } else {
            self.send(req, target, target_visit);
        }
    }

    /// Scatters from `tier` to every child at once: one *arm* sub-request
    /// per child, each walking its own subtree. The parent parks (its
    /// thread, if sync, stays held — scatter-gather is an RPC construct)
    /// until `quorum[tier]` arms have replied.
    fn do_scatter(&mut self, req: ReqId, tier: usize) {
        let i = self.live_expect(req);
        let kids = self.cfg.shape.children[tier].clone();
        let quorum = self.cfg.shape.quorum[tier];
        debug_assert!(quorum >= 1 && quorum <= kids.len());
        self.requests[i].fan_awaiting = quorum as u32;
        self.requests[i].fan_live = kids.len() as u32;
        self.requests[i].fan_node = tier as u8;
        let (injected_at, class, plan, attempt, trace) = {
            let r = &self.requests[i];
            (r.injected_at, r.class, r.plan.share(), r.attempt, r.trace)
        };
        for c in kids {
            // Arms are slab requests of their own: alloc after capturing the
            // parent's ingredients (alloc may grow the slab and move it).
            let arm = self.alloc_request(injected_at, None, class, plan.share(), attempt);
            let j = arm.slot as usize;
            self.requests[j].arm_parent = Some(req);
            self.requests[j].arm_root = c as u8;
            if trace != TRACE_NONE {
                // Arms append into the parent's timeline; the arm's slot
                // holds its own reference like any attempt.
                self.tracer.retain(trace);
                self.requests[j].trace = trace;
            }
            self.send(arm, c, 0);
        }
    }

    /// A scatter arm's reply reached the parent waiting at its fan-out
    /// node: count it against the quorum and resume the parent's visit once
    /// the quorum is met. Late arms beyond the quorum land here harmlessly.
    fn on_arm_reply(&mut self, parent: ReqId) {
        let Some(i) = self.live(parent) else {
            return;
        };
        if self.requests[i].fan_awaiting == 0 {
            return; // quorum already met; this is a straggler's reply
        }
        self.requests[i].fan_live -= 1;
        self.requests[i].fan_awaiting -= 1;
        if self.requests[i].fan_awaiting > 0 {
            return;
        }
        let fan = self.requests[i].fan_node as usize;
        let c = &mut self.requests[i].cursors[fan];
        c.slice_idx += 1;
        let (next, visit) = (c.slice_idx, c.active_visit);
        self.exec_slice(parent, fan, visit, next);
    }

    /// A scatter arm died (drops exhausted, shed): if the surviving arms
    /// can no longer form the quorum, the parent fails.
    fn on_arm_failed(&mut self, parent: ReqId) {
        let Some(i) = self.live(parent) else {
            return;
        };
        if self.requests[i].fan_awaiting == 0 {
            return;
        }
        self.requests[i].fan_live -= 1;
        if self.requests[i].fan_live < self.requests[i].fan_awaiting {
            self.requests[i].fan_awaiting = 0;
            self.fail_request(parent);
        }
    }

    fn finish_visit(&mut self, req: ReqId, tier: usize, visit: u16) {
        let i = self.live_expect(req);
        let rep = self.requests[i].cursors[tier].replica as usize;
        let released_thread = {
            match &mut self.tiers[tier].replicas[rep].state {
                TierState::Sync(pg) => {
                    pg.release();
                    true
                }
                TierState::Async(el) => {
                    el.complete();
                    false
                }
            }
        };
        self.tracer.record(
            self.requests[i].trace,
            self.now,
            TraceEventKind::ServiceEnd {
                tier: TierId::from(tier),
                replica: ReplicaId::from(rep),
                visit,
            },
        );
        self.requests[i].cursors[tier].occupying = Occupancy::None;
        // A finished visit at the monitored tier is a passive reply signal:
        // residence time (admission → visit done) feeds the detector's
        // latency EWMA and its phi-accrual inter-reply clock.
        if let Some(hr) = self.health.as_mut() {
            if hr.tier == tier {
                let sample = self
                    .now
                    .saturating_since(self.requests[i].cursors[tier].arrived_at);
                hr.det.on_reply(rep, self.now, sample);
            }
        }
        // Feed the per-tier residence time (admission → visit done) to the
        // AIMD limiter: congestion shows up as inflated residence.
        if self.tiers[tier].aimd.is_some() {
            let sample = self
                .now
                .saturating_since(self.requests[i].cursors[tier].arrived_at);
            self.tiers[tier]
                .aimd
                .as_mut()
                .expect("checked above")
                .on_sample(sample);
        }
        if released_thread {
            self.drain_backlog(tier, rep);
        }
        self.record_queue(tier, rep);
        if self.requests[i].arm_parent.is_some() && tier == self.requests[i].arm_root as usize {
            // The arm's subtree is done: reply to the parent's fan-out node
            // and retire the arm now — the reply event carries only the
            // parent handle, so nothing keeps the slot alive.
            let parent = self.requests[i].arm_parent.expect("checked above");
            self.queue
                .push(self.now + self.cfg.hop_delay, Event::ArmReply { parent });
            self.free_request(i);
            return;
        }
        if tier == 0 {
            self.complete_request(req);
        } else {
            // The reply heads upstream: a cancel arriving at this tier or
            // deeper has been outrun.
            let up = self.cfg.shape.parent[tier].expect("non-root tier has a parent");
            self.hot[i].head = up as u8;
            self.queue.push(
                self.now + self.cfg.hop_delay,
                Event::ReplyArrive {
                    req,
                    tier: up as u8,
                },
            );
        }
    }

    fn on_reply(&mut self, req: ReqId, tier: usize) {
        let Some(i) = self.live(req) else {
            return;
        };
        // A reply from downstream frees the caller's pooled connection; a
        // parked call (its thread already held) inherits it and fires.
        let c = &mut self.requests[i].cursors[tier];
        if c.conn_held {
            c.conn_held = false;
            let rep = c.replica as usize;
            self.release_conn(tier, rep);
        }
        let c = &mut self.requests[i].cursors[tier];
        c.slice_idx += 1;
        let (next, visit) = (c.slice_idx, c.active_visit);
        self.exec_slice(req, tier, visit, next);
    }

    fn release_conn(&mut self, tier: usize, rep: usize) {
        let handover = self.tiers[tier].replicas[rep]
            .conn_pool
            .as_mut()
            .expect("release_conn on tier without pool")
            .release();
        if let Some(token) = handover {
            let (r2, target, visit) = self
                .parked
                .remove(&token)
                .expect("pool handed over an unknown token");
            // A parked waiter holds its upstream thread, which keeps the
            // request live until the connection arrives.
            let i = self.live_expect(r2);
            self.requests[i].cursors[tier].conn_held = true;
            self.send(r2, target, visit);
        }
    }

    fn drain_backlog(&mut self, tier: usize, rep: usize) {
        loop {
            let pending = {
                let rt = &mut self.tiers[tier].replicas[rep];
                match &mut rt.state {
                    TierState::Sync(pg) => {
                        if pg.is_exhausted() {
                            None
                        } else {
                            rt.backlog.pop().inspect(|_p| {
                                let ok = pg.try_acquire();
                                debug_assert!(ok, "idle thread disappeared");
                            })
                        }
                    }
                    TierState::Async(_) => None,
                }
            };
            let Some(p) = pending else { break };
            // A backlogged request can only leave the backlog through this
            // pop, so its handle is live by construction.
            let i = self.live_expect(p.req);
            self.requests[i].cursors[tier].occupying = Occupancy::Thread;
            self.begin_visit(p.req, tier, p.visit);
        }
    }

    fn on_spawn_done(&mut self, tier: usize, rep: usize) {
        match &mut self.tiers[tier].replicas[rep].state {
            TierState::Sync(pg) => pg.complete_spawn(),
            TierState::Async(_) => unreachable!("async tiers do not spawn"),
        }
        self.drain_backlog(tier, rep);
        self.record_queue(tier, rep);
    }

    fn drop_message(&mut self, req: ReqId, tier: usize, rep: usize, visit: u16) {
        let i = self.live_expect(req);
        // A drop at the monitored tier is a passive error signal: the
        // detector's error EWMA moves toward 1 for the dropping replica.
        if let Some(hr) = self.health.as_mut() {
            if hr.tier == tier {
                hr.det.on_drop(rep, self.now);
            }
        }
        self.drops_total += 1;
        self.tiers[tier].replicas[rep].drops_total += 1;
        self.tiers[tier].replicas[rep].drops.add(self.now, 1);
        self.class_stats
            .entry(self.requests[i].class)
            .or_default()
            .drops += 1;
        if self.requests[i].first_drop.is_none() {
            self.requests[i].first_drop = FirstDrop {
                at: self.now,
                tier: tier as u8,
                replica: rep as u8,
            };
        }
        // Record the drop with its retransmit ordinal *before* the retry
        // decision mutates the counter: ordinal 0 is the original send,
        // ordinal n the n-th retransmit of this message.
        let app_hop = tier > 0 && self.cfg.tiers[tier].caller_policy.is_some();
        let retransmit_no = if app_hop {
            self.requests[i].hop_attempts as u8
        } else {
            self.requests[i].retrans.attempts() as u8
        };
        self.tracer.record(
            self.requests[i].trace,
            self.now,
            TraceEventKind::SynDrop {
                tier: TierId::from(tier),
                replica: ReplicaId::from(rep),
                retransmit_no,
            },
        );
        // The governor watches the retransmit *ordinal* (1-based: 1 = an
        // original send dropped); a climbing window maximum is the 3/6/9 s
        // ladder being climbed by the same connections.
        if let Some(cr) = self.control.as_mut() {
            cr.window_max_ordinal = cr.window_max_ordinal.max(retransmit_no.saturating_add(1));
        }
        // A caller policy on an inner hop replaces the kernel retransmit
        // schedule with app-controlled backoff + budget + breaker.
        if app_hop {
            self.app_hop_drop(req, tier, rep, visit);
            return;
        }
        let decision = self.requests[i]
            .retrans
            .on_drop(&self.cfg.retransmit, self.now);
        match decision {
            RetryDecision::RetryAt(t) => {
                self.queue.push(
                    t,
                    Event::Arrival {
                        req,
                        tier: tier as u8,
                        visit,
                    },
                );
            }
            RetryDecision::GiveUp => self.fail_request(req),
        }
    }

    /// A message into `tier` was dropped and the hop has a caller policy:
    /// count the failure on the hop breaker, then either resend after
    /// app-level backoff (if retries, budget and breaker all allow) or give
    /// the request up.
    fn app_hop_drop(&mut self, req: ReqId, tier: usize, rep: usize, visit: u16) {
        let i = self.live_expect(req);
        let now = self.now;
        if let Some(br) = self.tiers[tier].hop_breaker.as_mut() {
            br.on_failure(now);
        }
        let attempt = self.requests[i].hop_attempts;
        // `RetryPolicy` is `Copy`: no composite `CallerPolicy` clone here.
        let retry = self.cfg.tiers[tier]
            .caller_policy
            .as_ref()
            .expect("checked by caller")
            .retry;
        let Some(retry) = retry.filter(|r| r.allows(attempt)) else {
            self.fail_request(req);
            return;
        };
        if let Some(bucket) = self.tiers[tier].hop_bucket.as_mut() {
            if !bucket.try_withdraw(now) {
                self.tiers[tier].res.budget_exhausted += 1;
                self.fail_request(req);
                return;
            }
        }
        if let Some(br) = self.tiers[tier].hop_breaker.as_mut() {
            if !br.try_acquire(now) {
                self.shed_request(req, tier, rep);
                return;
            }
        }
        self.tiers[tier].res.retries += 1;
        self.tracer.record(
            self.requests[i].trace,
            self.now,
            TraceEventKind::AppRetry {
                tier: TierId::from(tier),
            },
        );
        self.requests[i].hop_attempts = attempt + 1;
        let backoff = retry.backoff_for(attempt, self.rng_jitter.next_f64());
        self.queue.push(
            now + backoff,
            Event::Arrival {
                req,
                tier: tier as u8,
                visit,
            },
        );
    }

    /// The client's per-attempt timer fired: the attempt becomes an orphan
    /// (it keeps consuming resources downstream — the retry-storm
    /// amplifier) and the retry stack decides whether a fresh attempt goes
    /// out.
    fn on_attempt_timeout(&mut self, req: ReqId) {
        let Some(i) = self.live(req) else {
            return;
        };
        if self.hot[i].orphan {
            return;
        }
        self.hot[i].orphan = true;
        self.tiers[0].res.timeouts += 1;
        let h = self.requests[i].trace;
        let attempt = self.requests[i].attempt;
        self.tracer
            .record(h, self.now, TraceEventKind::AttemptTimeout { attempt });
        let now = self.now;
        if let Some(br) = self.tiers[0].hop_breaker.as_mut() {
            br.on_failure(now);
        }
        if !self.try_client_retry(req) {
            self.failed += 1;
            let latency = self.now - self.requests[i].injected_at;
            self.tracer
                .set_terminal(h, self.now, TerminalClass::Failed, latency);
            self.client_next(req);
        }
        // With a cancel policy the abandoned attempt does not linger as an
        // orphan eating capacity until it finishes on its own (the classic
        // retry-storm leak): a cancel chases it down and reclaims the
        // threads and backlog slots it holds.
        if self.cfg.tiers[0]
            .caller_policy
            .as_ref()
            .is_some_and(|p| p.cancel.is_some())
        {
            self.start_cancel(req);
        }
    }

    /// Consults the client's retry policy, budget and breaker; on success
    /// schedules [`Event::RetryFire`] after the capped, jittered backoff.
    fn try_client_retry(&mut self, req: ReqId) -> bool {
        let i = self.live_expect(req);
        let Some(policy) = self.cfg.tiers[0].caller_policy.as_ref() else {
            return false;
        };
        let attempt = self.requests[i].attempt;
        let Some(retry) = policy.retry.filter(|r| r.allows(attempt)) else {
            return false;
        };
        let now = self.now;
        if let Some(bucket) = self.tiers[0].hop_bucket.as_mut() {
            if !bucket.try_withdraw(now) {
                self.tiers[0].res.budget_exhausted += 1;
                return false;
            }
        }
        if let Some(br) = self.tiers[0].hop_breaker.as_mut() {
            if !br.try_acquire(now) {
                return false;
            }
        }
        self.tiers[0].res.retries += 1;
        let backoff = retry.backoff_for(attempt, self.rng_jitter.next_f64());
        // Capture the relaunch ingredients now: the current attempt's slot
        // is freed on its terminal path, typically before the backoff ends.
        let r = &self.requests[i];
        let ticket = RetryTicket {
            injected_at: r.injected_at,
            client: r.client,
            class: r.class,
            plan: r.plan.share(),
            attempt: attempt + 1,
            trace: r.trace,
        };
        // The ticket keeps the trace alive across the backoff (the current
        // attempt's slot — and its reference — is freed before RetryFire).
        self.tracer.retain(ticket.trace);
        let tid = match self.free_tickets.pop() {
            Some(tid) => {
                self.tickets[tid as usize] = Some(ticket);
                tid
            }
            None => {
                self.tickets.push(Some(ticket));
                (self.tickets.len() - 1) as u32
            }
        };
        self.queue
            .push(now + backoff, Event::RetryFire { ticket: tid });
        true
    }

    /// Launches the next attempt of the logical request whose previous
    /// attempt was `orig`: a fresh [`RequestState`] inheriting the plan,
    /// class, client and — crucially — the original injection time, so
    /// end-to-end latency spans all attempts. `injected` is *not*
    /// incremented: a retry is the same logical request.
    fn on_retry_fire(&mut self, ticket: u32) {
        let RetryTicket {
            injected_at,
            client,
            class,
            plan,
            attempt,
            trace,
        } = self.tickets[ticket as usize]
            .take()
            .expect("a retry ticket fires exactly once");
        self.free_tickets.push(ticket);
        let id = self.alloc_request(injected_at, client, class, plan, attempt);
        // The ticket's reference transfers to the new attempt (a ticket
        // fires exactly once), so no retain/release pair is needed here.
        self.requests[id.slot as usize].trace = trace;
        self.tracer
            .record(trace, self.now, TraceEventKind::ClientSend { attempt });
        self.arm_attempt_timer(id);
        self.send(id, 0, 0);
    }

    /// Terminally rejects `req` at `tier`'s admission point (shed policy or
    /// open hop breaker): resources are freed and the request counts as
    /// shed, not failed — unless the attempt is already an orphan, in which
    /// case the logical outcome was decided at timeout time.
    fn shed_request(&mut self, req: ReqId, tier: usize, rep: usize) {
        let i = self.live_expect(req);
        self.tiers[tier].res.shed += 1;
        self.tracer.record(
            self.requests[i].trace,
            self.now,
            TraceEventKind::Shed {
                tier: TierId::from(tier),
                replica: ReplicaId::from(rep),
            },
        );
        self.release_resources(req);
        // A shed arm feeds the parent's quorum bookkeeping, not a client.
        if let Some(parent) = self.requests[i].arm_parent {
            self.free_request(i);
            self.on_arm_failed(parent);
            return;
        }
        // Like `fail_request`: shedding one hedged attempt does not decide
        // the logical request — the race continues (or the deadline does).
        if self.requests[i].logical != LOGICAL_NONE {
            self.unlink_from_logical(req);
            self.free_request(i);
            return;
        }
        if !self.hot[i].orphan {
            self.shed += 1;
            self.class_stats
                .entry(self.requests[i].class)
                .or_default()
                .shed += 1;
            let latency = self.now - self.requests[i].injected_at;
            self.tracer.set_terminal(
                self.requests[i].trace,
                self.now,
                TerminalClass::Shed,
                latency,
            );
            let now = self.now;
            if let Some(br) = self.tiers[0].hop_breaker.as_mut() {
                br.on_failure(now);
            }
            self.client_next(req);
        }
        self.free_request(i);
    }

    /// A fault window opens.
    fn on_fault_begin(&mut self, idx: usize) {
        match self.cfg.faults.faults()[idx] {
            Fault::Crash { tier, .. } => self.tier_down[tier] = true,
            Fault::DropMessages { tier, prob, .. } => self.drop_prob[tier] = prob,
            Fault::SlowHops { tier, extra, .. } => self.extra_hop[tier] += extra,
            // Gray windows are stepped piecewise-constant: each window
            // *sets* its level (no stacking), and the plan's push order
            // stamps an adjacent window's End before the next Begin at a
            // shared boundary, so ramps hand over cleanly.
            Fault::SlowReplica {
                tier,
                replica,
                factor,
                ..
            } => self.rate_mult[tier][replica] = factor,
            Fault::FlakyReplica {
                tier,
                replica,
                prob,
                ..
            } => self.replica_drop[tier][replica] = prob,
            Fault::StuckWorkers { tier, count, .. } => {
                // Wedge up to `count` workers by occupying their slots; the
                // tier may already be too busy to give up that many. On a
                // replica set the fault wedges replica 0 — a single sick
                // instance, the scenario the balancer sweep studies.
                let mut got = 0;
                match &mut self.tiers[tier].replicas[0].state {
                    TierState::Sync(pg) => {
                        while got < count && pg.try_acquire() {
                            got += 1;
                        }
                    }
                    TierState::Async(el) => {
                        while got < count && el.try_admit() {
                            got += 1;
                        }
                    }
                }
                self.stuck_acquired[idx] = got;
                self.record_queue(tier, 0);
            }
        }
    }

    /// A fault window closes.
    fn on_fault_end(&mut self, idx: usize) {
        match self.cfg.faults.faults()[idx] {
            Fault::Crash { tier, .. } => self.tier_down[tier] = false,
            Fault::DropMessages { tier, .. } => self.drop_prob[tier] = 0.0,
            Fault::SlowReplica { tier, replica, .. } => self.rate_mult[tier][replica] = 1.0,
            Fault::FlakyReplica { tier, replica, .. } => self.replica_drop[tier][replica] = 0.0,
            Fault::SlowHops { tier, extra, .. } => {
                self.extra_hop[tier] = self.extra_hop[tier].saturating_sub(extra);
            }
            Fault::StuckWorkers { tier, .. } => {
                let got = self.stuck_acquired[idx];
                self.stuck_acquired[idx] = 0;
                let released_thread = match &mut self.tiers[tier].replicas[0].state {
                    TierState::Sync(pg) => {
                        for _ in 0..got {
                            pg.release();
                        }
                        true
                    }
                    TierState::Async(el) => {
                        for _ in 0..got {
                            el.complete();
                        }
                        false
                    }
                };
                if released_thread {
                    self.drain_backlog(tier, 0);
                }
                self.record_queue(tier, 0);
            }
        }
    }

    fn fail_request(&mut self, req: ReqId) {
        let i = self.live_expect(req);
        self.release_resources(req);
        // A dead arm feeds the parent's quorum bookkeeping, not a client.
        if let Some(parent) = self.requests[i].arm_parent {
            self.free_request(i);
            self.on_arm_failed(parent);
            return;
        }
        // A hedged attempt dying (retransmits exhausted) is not a logical
        // failure: its siblings — or the hedge ladder — may still win, and
        // the logical deadline is the backstop. The attempt just drops out
        // of the race.
        if self.requests[i].logical != LOGICAL_NONE {
            self.unlink_from_logical(req);
            self.free_request(i);
            return;
        }
        if !self.hot[i].orphan {
            if self.cfg.tiers[0].caller_policy.is_some() {
                let now = self.now;
                if let Some(br) = self.tiers[0].hop_breaker.as_mut() {
                    br.on_failure(now);
                }
                if self.try_client_retry(req) {
                    self.free_request(i);
                    return;
                }
            }
            self.failed += 1;
            let latency = self.now - self.requests[i].injected_at;
            self.tracer.set_terminal(
                self.requests[i].trace,
                self.now,
                TerminalClass::Failed,
                latency,
            );
            self.client_next(req);
        }
        self.free_request(i);
    }

    /// Frees every thread, admission slot and pooled connection `req`
    /// holds, upstream-last so handed-over connections find their takers.
    fn release_resources(&mut self, req: ReqId) {
        let i = self.live_expect(req);
        // Node ids are preorder, so the reverse walk still releases
        // downstream holdings before their callers' pooled connections.
        for tier in (0..self.tiers.len()).rev() {
            let rep = self.requests[i].cursors[tier].replica as usize;
            if self.requests[i].cursors[tier].conn_held {
                self.requests[i].cursors[tier].conn_held = false;
                self.release_conn(tier, rep);
            }
            let occ = self.requests[i].cursors[tier].occupying;
            match occ {
                Occupancy::Thread => {
                    match &mut self.tiers[tier].replicas[rep].state {
                        TierState::Sync(pg) => pg.release(),
                        TierState::Async(_) => unreachable!("thread occupancy on async tier"),
                    }
                    self.requests[i].cursors[tier].occupying = Occupancy::None;
                    self.drain_backlog(tier, rep);
                    self.record_queue(tier, rep);
                }
                Occupancy::Admission => {
                    match &mut self.tiers[tier].replicas[rep].state {
                        TierState::Async(el) => el.complete(),
                        TierState::Sync(_) => unreachable!("admission occupancy on sync tier"),
                    }
                    self.requests[i].cursors[tier].occupying = Occupancy::None;
                    self.record_queue(tier, rep);
                }
                Occupancy::None => {}
            }
        }
    }

    fn complete_request(&mut self, req: ReqId) {
        let i = self.live_expect(req);
        if self.hot[i].orphan {
            // The reply nobody is waiting for: all that work was wasted.
            self.tiers[0].res.orphan_completions += 1;
            self.unlink_from_logical(req);
            self.free_request(i);
            return;
        }
        // A hedged attempt finishing first *wins* its logical request: the
        // logical resolves as completed exactly once, and every still-live
        // sibling becomes a loser — orphaned, and (with a cancel policy)
        // chased down so it stops eating capacity.
        let lid = self.requests[i].logical;
        if lid != LOGICAL_NONE {
            self.logicals[lid as usize].resolved = true;
            let cancel = self.cfg.tiers[0]
                .caller_policy
                .as_ref()
                .and_then(|p| p.cancel);
            // Orphaning and chasing leave `attempts` alone, so scan it in place.
            for k in 0..self.logicals[lid as usize].attempts.len() {
                let loser = self.logicals[lid as usize].attempts[k];
                if loser == req {
                    continue;
                }
                if let Some(j) = self.live(loser) {
                    self.hot[j].orphan = true;
                    if cancel.is_some() {
                        self.start_cancel(loser);
                    }
                }
            }
        }
        let now = self.now;
        if let Some(br) = self.tiers[0].hop_breaker.as_mut() {
            br.on_success(now);
        }
        self.completed += 1;
        let latency = self.now - self.requests[i].injected_at;
        self.tracer.set_terminal(
            self.requests[i].trace,
            self.now,
            TerminalClass::Completed,
            latency,
        );
        self.latency.record(latency);
        if let Some(cr) = self.control.as_mut() {
            cr.window.record(latency);
        }
        if let Some(reg) = self.metrics.as_mut() {
            reg.record_latency(self.now, latency);
        }
        let stats = self.class_stats.entry(self.requests[i].class).or_default();
        stats.completed += 1;
        stats.latency_sum_us += u128::from(latency.as_micros());
        if latency >= SimDuration::from_millis(ntier_telemetry::VLRT_THRESHOLD_MS) {
            stats.vlrt += 1;
            self.vlrt_total += 1;
            self.vlrt_by_completion.add(self.now, 1);
            let first = self.requests[i].first_drop;
            if !first.is_none() {
                self.tiers[usize::from(first.tier)].replicas[usize::from(first.replica)]
                    .vlrt
                    .add(first.at, 1);
            }
        }
        self.client_next(req);
        self.unlink_from_logical(req);
        self.free_request(i);
    }

    /// Closed-loop continuation: the owning client thinks, then sends again.
    fn client_next(&mut self, req: ReqId) {
        let client = self.requests[self.live_expect(req)].client;
        self.schedule_client_next(client);
    }

    /// [`Self::client_next`] for outcomes with no [`RequestState`] (a
    /// breaker shed at injection time).
    fn schedule_client_next(&mut self, client: Option<u32>) {
        let Some(client) = client else {
            return;
        };
        let Workload::Closed { spec, .. } = &self.workload else {
            return;
        };
        let think = spec.think_time(&mut self.rng_clients);
        self.push_within_horizon(think, Event::ClientSend { client });
    }

    /// Schedules `ev` at `now + after` unless that lands past the horizon.
    /// An event the run would never handle must not be queued: the metrics
    /// plane reports `queue.scheduled_total()` as `events_scheduled`.
    fn push_within_horizon(&mut self, after: SimDuration, ev: Event) {
        let at = self.now + after;
        if at <= SimTime::ZERO + self.horizon {
            self.queue.push(at, ev);
        }
    }

    /// Folds the health detector's decision log into the controller's: one
    /// time-ordered stream (controller first on ties), summed ticks. A run
    /// with either plane alone passes its log through untouched, and a run
    /// with neither yields `None` — existing reports unchanged.
    fn merge_logs(ctl: Option<ControlLog>, health: Option<ControlLog>) -> Option<ControlLog> {
        let (mut c, h) = match (ctl, health) {
            (Some(c), Some(h)) => (c, h),
            (c, h) => return c.or(h),
        };
        let mut merged = Vec::with_capacity(c.decisions.len() + h.decisions.len());
        let mut rest = h.decisions.into_iter().peekable();
        for d in c.decisions {
            while rest.peek().is_some_and(|x| x.at < d.at) {
                merged.push(rest.next().expect("peeked"));
            }
            merged.push(d);
        }
        merged.extend(rest);
        c.decisions = merged;
        c.ticks += h.ticks;
        Some(c)
    }

    fn record_queue(&mut self, tier: usize, rep: usize) {
        let r = &mut self.tiers[tier].replicas[rep];
        let depth = r.depth();
        if depth > r.peak_queue {
            r.peak_queue = depth;
        }
        r.queue_depth
            .record(self.now, u32::try_from(depth).unwrap_or(u32::MAX));
    }

    fn into_report(mut self) -> RunReport {
        // Nothing below reads the request slab, the event queue or the other
        // per-attempt stores: free them before the report's per-window
        // vectors are built, so the two never share the heap peak.
        drop((
            self.requests,
            self.hot,
            self.free_slots,
            self.queue,
            self.tickets,
            self.free_tickets,
            self.logicals,
            self.free_logicals,
            self.parked,
        ));
        let window = SimDuration::from_millis(ntier_telemetry::MONITOR_WINDOW_MS);
        let control = Self::merge_logs(
            self.control.take().map(|cr| cr.ctl.into_log()),
            self.health.take().map(|hr| hr.log),
        );
        // Harvest breaker transition counts into the per-hop counters, then
        // aggregate the whole-run view.
        for rt in &mut self.tiers {
            if let Some(br) = &rt.hop_breaker {
                rt.res.breaker_transitions = br.transitions();
            }
        }
        let resilience = self
            .tiers
            .iter()
            .fold(ResilienceStats::default(), |acc, rt| acc.merge(&rt.res));
        let horizon = self.horizon;
        let tiers = self
            .tiers
            .into_iter()
            .zip(self.cfg.tiers.iter())
            .enumerate()
            .map(|(idx, (node, tc))| {
                let reps: Vec<ReplicaReport> = node
                    .replicas
                    .into_iter()
                    .enumerate()
                    .map(|(r, rep)| ReplicaReport {
                        id: ReplicaId::from(r),
                        spawns: rep.spawns(),
                        queue_depth: rep.queue_depth,
                        drops: rep.drops,
                        vlrt: rep.vlrt,
                        util: rep.util,
                        interferer_util: tc.stalls_for(r).interferer_utilization(window, horizon),
                        drops_total: rep.drops_total,
                        peak_queue: rep.peak_queue,
                    })
                    .collect();
                let mut reps = reps;
                if reps.len() == 1 {
                    // Single instance: the tier-level fields *are* the
                    // instance's data — byte-stable with the pre-replication
                    // reports.
                    let only = reps.pop().expect("one replica");
                    TierReport {
                        id: TierId::from(idx),
                        name: tc.name.clone(),
                        arch: tc.kind.label(),
                        capacity: tc.admission_capacity(),
                        queue_depth: only.queue_depth,
                        drops: only.drops,
                        vlrt: only.vlrt,
                        util: only.util,
                        interferer_util: only.interferer_util,
                        drops_total: only.drops_total,
                        peak_queue: only.peak_queue,
                        spawns: only.spawns,
                        resilience: node.res,
                        replicas: Vec::new(),
                    }
                } else {
                    // Replica set: the tier-level view is the aggregate —
                    // pooled utilization, summed windows, max peak.
                    let mut queue_depth = reps[0].queue_depth.clone();
                    let mut drops = reps[0].drops.clone();
                    let mut vlrt = reps[0].vlrt.clone();
                    let mut util = reps[0].util.clone();
                    for rep in &reps[1..] {
                        queue_depth.absorb(&rep.queue_depth);
                        drops.absorb(&rep.drops);
                        vlrt.absorb(&rep.vlrt);
                        util.absorb(&rep.util);
                    }
                    let n = reps.len();
                    let windows = reps
                        .iter()
                        .map(|r| r.interferer_util.len())
                        .max()
                        .unwrap_or(0);
                    let interferer_util = (0..windows)
                        .map(|w| {
                            reps.iter()
                                .map(|r| r.interferer_util.get(w).copied().unwrap_or(0.0))
                                .sum::<f64>()
                                / n as f64
                        })
                        .collect();
                    TierReport {
                        id: TierId::from(idx),
                        name: tc.name.clone(),
                        arch: tc.kind.label(),
                        capacity: tc.admission_capacity() * n,
                        queue_depth,
                        drops,
                        vlrt,
                        util,
                        interferer_util,
                        drops_total: reps.iter().map(|r| r.drops_total).sum(),
                        peak_queue: reps.iter().map(|r| r.peak_queue).max().unwrap_or(0),
                        spawns: reps.iter().map(|r| r.spawns).sum(),
                        resilience: node.res,
                        replicas: reps,
                    }
                }
            })
            .collect();
        let mut classes: Vec<ClassReport> = self
            .class_stats
            .iter()
            .map(|(class, s)| ClassReport {
                class,
                completed: s.completed,
                vlrt: s.vlrt,
                drops: s.drops,
                shed: s.shed,
                mean_latency: if s.completed == 0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_micros((s.latency_sum_us / u128::from(s.completed)) as u64)
                },
            })
            .collect();
        classes.sort_by_key(|c| c.class);
        let throughput = self.completed as f64 / self.horizon.as_secs_f64();
        RunReport {
            horizon: self.horizon,
            events: self.events_handled,
            events_by_kind: self.events_by_kind,
            injected: self.injected,
            completed: self.completed,
            failed: self.failed,
            shed: self.shed,
            cancelled: self.cancelled,
            in_flight_end: self.injected
                - self.completed
                - self.failed
                - self.shed
                - self.cancelled,
            throughput,
            latency: self.latency,
            vlrt_total: self.vlrt_total,
            drops_total: self.drops_total,
            tiers,
            vlrt_by_completion: self.vlrt_by_completion,
            classes,
            resilience,
            trace: self.tracer.into_log(),
            control,
            metrics: self.metrics.map(|m| *m),
            workload_fault: self.workload_fault,
            metrics_sink_fault: self.metrics_sink_fault,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TierSpec;
    use crate::topology::Topology;
    use ntier_interference::StallSchedule;
    use ntier_workload::BurstSchedule;

    #[test]
    fn event_kinds_index_their_names() {
        let req = ReqId { slot: 0, gen: 0 };
        let every_kind = [
            Event::ClientSend { client: 0 },
            Event::Inject { idx: 0 },
            Event::Arrival {
                req,
                tier: 0,
                visit: 0,
            },
            Event::SliceDone {
                req,
                tier: 0,
                visit: 0,
            },
            Event::ReplyArrive { req, tier: 0 },
            Event::SpawnDone {
                tier: 0,
                replica: 0,
            },
            Event::ArmReply { parent: req },
            Event::AttemptTimeout { req },
            Event::RetryFire { ticket: 0 },
            Event::FaultBegin { idx: 0 },
            Event::FaultEnd { idx: 0 },
            Event::HedgeFire {
                logical: 0,
                lgen: 0,
            },
            Event::LogicalDeadline {
                logical: 0,
                lgen: 0,
            },
            Event::CancelArrive { req, tier: 0 },
            Event::ControllerTick,
            Event::HealthTick,
            Event::ReplicaReady { tier: 0 },
            Event::MetricsTick,
        ];
        assert_eq!(every_kind.len(), EventCounts::KINDS.len());
        for ev in every_kind {
            let debug = format!("{ev:?}");
            let variant = debug.split(' ').next().expect("non-empty");
            assert_eq!(EventCounts::KINDS[ev.kind()], variant);
        }
    }

    fn tiny_sync_system() -> SystemConfig {
        Topology::three_tier(
            TierSpec::sync("Web", 4, 2),
            TierSpec::sync("App", 4, 2).with_downstream_pool(2),
            TierSpec::sync("Db", 4, 2),
        )
    }

    fn open_workload(arrivals: Vec<SimTime>) -> Workload {
        Workload::open(arrivals, RequestMix::view_story())
    }

    #[test]
    fn single_request_completes_with_correct_latency() {
        let sys = tiny_sync_system().with_hop_delay(SimDuration::ZERO);
        let report = Engine::new(
            sys,
            open_workload(vec![SimTime::from_millis(1)]),
            SimDuration::from_secs(1),
            1,
        )
        .run();
        assert_eq!(report.completed, 1);
        assert_eq!(report.drops_total, 0);
        assert!(report.is_conserved());
        // view_story: 0.05ms web + 0.75ms app + 2×0.15ms db ≈ 1.1 ms
        let mean = report.latency.mean();
        assert!(
            mean >= SimDuration::from_micros(1_000) && mean <= SimDuration::from_micros(1_400),
            "mean latency {mean}"
        );
    }

    #[test]
    fn hop_delay_adds_to_latency() {
        let sys = tiny_sync_system().with_hop_delay(SimDuration::from_millis(1));
        let report = Engine::new(
            sys,
            open_workload(vec![SimTime::from_millis(1)]),
            SimDuration::from_secs(1),
            1,
        )
        .run();
        // hops: client->web, web->app, 2×(app->db, db->app), app->web(reply)
        // = 7 one-way hops of 1 ms on top of ~1.1 ms of CPU.
        let mean = report.latency.mean();
        assert!(
            mean >= SimDuration::from_millis(8) && mean < SimDuration::from_millis(9),
            "mean latency {mean}"
        );
    }

    #[test]
    fn overload_without_burst_queues_but_does_not_drop() {
        let arrivals: Vec<SimTime> = (0..50).map(|i| SimTime::from_millis(i * 10)).collect();
        let report = Engine::new(
            tiny_sync_system(),
            open_workload(arrivals),
            SimDuration::from_secs(2),
            1,
        )
        .run();
        assert_eq!(report.completed, 50);
        assert_eq!(report.drops_total, 0);
    }

    #[test]
    fn batch_beyond_capacity_drops_and_retransmits() {
        // Web capacity = 4 threads + 2 backlog = 6; a batch of 24 drops at
        // the web tier in waves of 6: retries at +3 s, +6 s, +9 s — the
        // paper's multi-modal signature.
        let burst = BurstSchedule::from_bursts([(SimTime::from_millis(10), 24)]);
        let report = Engine::new(
            tiny_sync_system(),
            open_workload(burst.arrivals()),
            SimDuration::from_secs(12),
            1,
        )
        .run();
        assert_eq!(report.completed, 24, "{}", report.summary());
        assert!(report.drops_total > 0, "{}", report.summary());
        assert_eq!(report.tiers[0].drops_total, report.drops_total);
        assert!(report.vlrt_total > 0);
        assert!(
            report.has_mode_near(3),
            "modes: {:?}",
            report.latency_modes()
        );
        assert!(
            report.has_mode_near(6),
            "modes: {:?}",
            report.latency_modes()
        );
        assert!(
            report.has_mode_near(9),
            "modes: {:?}",
            report.latency_modes()
        );
        assert!(report.is_conserved());
    }

    #[test]
    fn stalled_app_tier_backs_up_into_web_upstream_ctqo() {
        let stall =
            StallSchedule::at_marks([SimTime::from_millis(100)], SimDuration::from_millis(500));
        let mut sys = tiny_sync_system();
        sys.tiers[1] = sys.tiers[1].clone().with_stalls(stall);
        let arrivals: Vec<SimTime> = (0..200).map(|i| SimTime::from_millis(50 + i * 3)).collect();
        let report = Engine::new(sys, open_workload(arrivals), SimDuration::from_secs(10), 1).run();
        assert!(report.tiers[0].drops_total > 0, "{}", report.summary());
        assert!(report.is_conserved());
    }

    #[test]
    fn async_tiers_absorb_the_same_batch_without_drops() {
        let sys = Topology::three_tier(
            TierSpec::asynchronous("Web", 65_535, 4),
            TierSpec::asynchronous("App", 65_535, 8),
            TierSpec::asynchronous("Db", 2_000, 8),
        );
        let burst = BurstSchedule::from_bursts([(SimTime::from_millis(10), 200)]);
        let report = Engine::new(
            sys,
            open_workload(burst.arrivals()),
            SimDuration::from_secs(8),
            1,
        )
        .run();
        assert_eq!(report.completed, 200);
        assert_eq!(report.drops_total, 0, "{}", report.summary());
        assert_eq!(report.vlrt_total, 0);
    }

    #[test]
    fn retry_tickets_are_recycled_not_accumulated() {
        use ntier_resilience::{CallerPolicy, FaultPlan};
        // The app tier drops every message, so every attempt times out and
        // the clients retry over and over. A client has at most one retry
        // pending at a time, so the ticket table never needs more slots
        // than there are clients, however many retries the run grants.
        let clients = 20;
        let horizon = SimDuration::from_secs(60);
        let sys = tiny_sync_system()
            .with_client_policy(CallerPolicy::naive(SimDuration::from_millis(100), 3))
            .with_faults(FaultPlan::none().drop_messages(
                1,
                1.0,
                SimTime::ZERO,
                SimTime::ZERO + horizon,
            ));
        let workload = Workload::closed(ClosedLoopSpec::rubbos(clients), RequestMix::view_story());
        let mut engine = Engine::new(sys, workload, horizon, 7);
        engine.drive();
        let slots = engine.tickets.len();
        let report = engine.into_report();
        assert!(
            report.resilience.retries > 5 * u64::from(clients),
            "too few retries to show recycling: {}",
            report.resilience.retries
        );
        assert!(
            slots <= clients as usize,
            "{slots} ticket slots for {clients} clients"
        );
        assert!(report.is_conserved());
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let mk = || {
            Engine::new(
                tiny_sync_system(),
                Workload::closed(ClosedLoopSpec::rubbos(50), RequestMix::rubbos_browse()),
                SimDuration::from_secs(20),
                42,
            )
            .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.drops_total, b.drops_total);
        assert_eq!(a.latency.mean(), b.latency.mean());
        assert_eq!(a.tiers[1].peak_queue, b.tiers[1].peak_queue);
    }

    #[test]
    fn conn_pool_caps_outstanding_db_queries() {
        let sys = Topology::three_tier(
            TierSpec::sync("Web", 64, 64),
            TierSpec::sync("App", 64, 64).with_downstream_pool(2),
            TierSpec::sync("Db", 4, 2),
        );
        let burst = BurstSchedule::from_bursts([(SimTime::from_millis(10), 40)]);
        let report = Engine::new(
            sys,
            open_workload(burst.arrivals()),
            SimDuration::from_secs(5),
            1,
        )
        .run();
        assert!(report.tiers[2].peak_queue <= 2, "{}", report.summary());
        assert_eq!(report.tiers[2].drops_total, 0);
        assert_eq!(report.completed, 40);
    }

    #[test]
    fn give_up_after_retry_budget_counts_failed() {
        let mut sys = Topology::three_tier(
            TierSpec::sync("Web", 1, 0),
            TierSpec::sync("App", 1, 0),
            TierSpec::sync("Db", 1, 0),
        );
        sys.tiers[0] = sys.tiers[0].clone().with_stalls(StallSchedule::at_marks(
            [SimTime::ZERO],
            SimDuration::from_secs(30),
        ));
        let arrivals: Vec<SimTime> = (0..5).map(|i| SimTime::from_millis(1 + i)).collect();
        let report = Engine::new(sys, open_workload(arrivals), SimDuration::from_secs(30), 1).run();
        // First request takes the thread; the rest drop 4 times and give up.
        assert_eq!(report.failed, 4, "{}", report.summary());
        assert!(report.is_conserved());
    }

    #[test]
    fn five_tier_pipeline_round_trips() {
        let sys = Topology::chain(
            (0..5)
                .map(|i| TierSpec::sync(format!("T{i}"), 8, 4))
                .collect(),
        )
        .with_hop_delay(SimDuration::ZERO);
        let plan = || {
            Plan::pipeline(&[
                SimDuration::from_micros(100),
                SimDuration::from_micros(200),
                SimDuration::from_micros(300),
                SimDuration::from_micros(200),
                SimDuration::from_micros(100),
            ])
        };
        let arrivals: Vec<(SimTime, Plan)> = (0..30)
            .map(|i| (SimTime::from_millis(i * 5), plan()))
            .collect();
        let report = Engine::new(
            sys,
            Workload::open_plans(arrivals),
            SimDuration::from_secs(2),
            1,
        )
        .run();
        assert_eq!(report.completed, 30, "{}", report.summary());
        assert_eq!(report.drops_total, 0);
        assert_eq!(report.tiers.len(), 5);
        // one lone request's latency = sum of demands = 0.9 ms
        let first = report.latency.quantile(0.01).unwrap();
        assert!(first <= SimDuration::from_millis(50), "{first}");
    }

    #[test]
    fn deep_chain_upstream_ctqo_propagates_to_tier_zero() {
        // Stall the LAST tier of a 5-tier sync chain with small pools: the
        // overflow must surface at tier 0 — CTQO propagates any depth.
        let stall =
            StallSchedule::at_marks([SimTime::from_millis(500)], SimDuration::from_millis(800));
        let mut tiers: Vec<TierSpec> = (0..5)
            .map(|i| TierSpec::sync(format!("T{i}"), 4, 2))
            .collect();
        tiers[4] = tiers[4].clone().with_stalls(stall);
        let sys = Topology::chain(tiers);
        let plan = || Plan::pipeline(&[SimDuration::from_micros(50); 5]);
        let arrivals: Vec<(SimTime, Plan)> = (0..400)
            .map(|i| (SimTime::from_millis(300 + i * 2), plan()))
            .collect();
        let report = Engine::new(
            sys,
            Workload::open_plans(arrivals),
            SimDuration::from_secs(15),
            1,
        )
        .run();
        assert!(report.tiers[0].drops_total > 0, "{}", report.summary());
        assert_eq!(report.tiers[4].drops_total, 0, "{}", report.summary());
        assert!(report.is_conserved());
    }

    #[test]
    fn crash_fault_drops_arrivals_in_window() {
        use ntier_resilience::FaultPlan;
        let sys = tiny_sync_system().with_faults(FaultPlan::none().crash(
            0,
            SimTime::from_millis(100),
            SimTime::from_millis(400),
        ));
        // One request before the window completes clean; one inside hits the
        // crashed tier, retransmits at +3 s and completes after the restart.
        let report = Engine::new(
            sys,
            open_workload(vec![SimTime::from_millis(10), SimTime::from_millis(200)]),
            SimDuration::from_secs(10),
            1,
        )
        .run();
        assert_eq!(report.completed, 2, "{}", report.summary());
        assert_eq!(report.tiers[0].drops_total, 1);
        assert!(report.vlrt_total >= 1, "{}", report.summary());
        assert!(report.is_conserved());
    }

    #[test]
    fn drop_fault_with_prob_one_drops_every_message() {
        use ntier_resilience::FaultPlan;
        let sys = tiny_sync_system().with_faults(FaultPlan::none().drop_messages(
            1,
            1.0,
            SimTime::ZERO,
            SimTime::from_secs(30),
        ));
        let report = Engine::new(
            sys,
            open_workload(vec![SimTime::from_millis(10)]),
            SimDuration::from_secs(30),
            1,
        )
        .run();
        // Every attempt into the app tier dies: 1 initial + 3 retransmits.
        assert_eq!(report.failed, 1, "{}", report.summary());
        assert_eq!(report.tiers[1].drops_total, 4);
        assert!(report.is_conserved());
    }

    #[test]
    fn slow_hop_fault_adds_latency_inside_window_only() {
        use ntier_resilience::FaultPlan;
        let slow = |from_ms: u64| {
            tiny_sync_system()
                .with_hop_delay(SimDuration::ZERO)
                .with_faults(FaultPlan::none().slow_hops(
                    2,
                    SimDuration::from_millis(50),
                    SimTime::from_millis(from_ms),
                    SimTime::from_millis(from_ms + 500),
                ))
        };
        let inside = Engine::new(
            slow(0),
            open_workload(vec![SimTime::from_millis(1)]),
            SimDuration::from_secs(2),
            1,
        )
        .run();
        let outside = Engine::new(
            slow(1_000),
            open_workload(vec![SimTime::from_millis(1)]),
            SimDuration::from_secs(2),
            1,
        )
        .run();
        // view_story visits the db twice: 2 × 50 ms of extra one-way delay.
        let delta = inside.latency.mean() - outside.latency.mean();
        assert!(
            delta >= SimDuration::from_millis(99) && delta <= SimDuration::from_millis(101),
            "delta {delta}"
        );
    }

    #[test]
    fn stuck_workers_shrink_capacity_then_restore_it() {
        use ntier_resilience::FaultPlan;
        // All 4 web threads wedge; backlog holds 2; a 3-request batch inside
        // the window parks 2 and drops 1, then completes after the window.
        let sys = tiny_sync_system().with_faults(FaultPlan::none().stuck_workers(
            0,
            4,
            SimTime::from_millis(100),
            SimTime::from_millis(600),
        ));
        let arrivals = vec![
            SimTime::from_millis(200),
            SimTime::from_millis(210),
            SimTime::from_millis(220),
        ];
        let report = Engine::new(sys, open_workload(arrivals), SimDuration::from_secs(10), 1).run();
        assert_eq!(report.completed, 3, "{}", report.summary());
        assert_eq!(report.tiers[0].drops_total, 1);
        assert!(report.is_conserved());
    }

    #[test]
    fn client_timeout_retry_completes_logical_request_once() {
        use ntier_resilience::{CallerPolicy, FaultPlan, RetryPolicy};
        // The app tier eats every message for 1 s; a 200 ms attempt timeout
        // with generous retries rides through it. Retries do not inflate
        // `injected`, and the orphaned attempts' completions are discarded.
        let policy = CallerPolicy {
            attempt_timeout: SimDuration::from_millis(200),
            retry: Some(RetryPolicy::capped(
                10,
                SimDuration::from_millis(50),
                SimDuration::from_millis(200),
            )),
            budget: None,
            breaker: None,
            hedge: None,
            cancel: None,
        };
        let sys = tiny_sync_system().with_client_policy(policy).with_faults(
            FaultPlan::none().drop_messages(1, 1.0, SimTime::ZERO, SimTime::from_secs(1)),
        );
        let report = Engine::new(
            sys,
            open_workload(vec![SimTime::from_millis(10)]),
            SimDuration::from_secs(20),
            1,
        )
        .run();
        assert_eq!(report.injected, 1, "{}", report.summary());
        assert_eq!(report.completed, 1);
        assert!(report.resilience.timeouts >= 1);
        assert!(report.resilience.retries >= 1);
        assert!(report.is_conserved());
    }

    #[test]
    fn open_client_breaker_sheds_at_injection() {
        use ntier_resilience::{BreakerConfig, CallerPolicy, RetryPolicy};
        // No retries + a 1-failure breaker held open for a long time: the
        // first timeout trips it and every later injection is shed.
        let policy = CallerPolicy {
            attempt_timeout: SimDuration::from_millis(100),
            retry: Some(RetryPolicy::capped(
                0,
                SimDuration::from_millis(10),
                SimDuration::from_millis(10),
            )),
            budget: None,
            breaker: Some(BreakerConfig::new(1, SimDuration::from_secs(60))),
            hedge: None,
            cancel: None,
        };
        let mut sys = tiny_sync_system().with_client_policy(policy);
        sys.tiers[1] = sys.tiers[1].clone().with_stalls(StallSchedule::at_marks(
            [SimTime::ZERO],
            SimDuration::from_secs(30),
        ));
        let arrivals: Vec<SimTime> = (0..10)
            .map(|i| SimTime::from_millis(10 + i * 200))
            .collect();
        let report = Engine::new(sys, open_workload(arrivals), SimDuration::from_secs(30), 1).run();
        assert!(report.shed >= 8, "{}", report.summary());
        assert!(report.resilience.breaker_transitions >= 1);
        assert!(report.is_conserved());
    }

    #[test]
    fn depth_shed_policy_rejects_fast_and_counts_shed() {
        use ntier_resilience::ShedPolicy;
        let mut sys = tiny_sync_system();
        // Web admits everything (deep backlog); the app tier sheds at depth 2.
        sys.tiers[0] = TierSpec::sync("Web", 64, 64);
        sys.tiers[1] = sys.tiers[1]
            .clone()
            .with_shed_policy(ShedPolicy::on_depth(2));
        sys.tiers[1] = sys.tiers[1].clone().with_stalls(StallSchedule::at_marks(
            [SimTime::from_millis(50)],
            SimDuration::from_millis(500),
        ));
        let arrivals: Vec<SimTime> = (0..20).map(|i| SimTime::from_millis(100 + i)).collect();
        let report = Engine::new(sys, open_workload(arrivals), SimDuration::from_secs(5), 1).run();
        assert!(report.shed > 0, "{}", report.summary());
        assert_eq!(report.shed, report.tiers[1].resilience.shed);
        assert_eq!(report.injected, 20);
        assert!(report.is_conserved());
        // Shed requests are resolved instantly, far faster than the stall.
        assert!(report.completed + report.shed == 20 || report.failed > 0);
    }

    #[test]
    fn inner_hop_policy_replaces_kernel_rto() {
        use ntier_resilience::{CallerPolicy, FaultPlan, RetryPolicy};
        // Drops into the app tier for 300 ms. Kernel RTO would stall the
        // request 3 s; the app-level hop policy retries every ~40 ms and the
        // request completes well under a second.
        let mut sys = tiny_sync_system().with_hop_delay(SimDuration::ZERO);
        sys.tiers[1] = sys.tiers[1].clone().with_caller_policy(CallerPolicy {
            attempt_timeout: SimDuration::from_secs(60), // unused on inner hops
            retry: Some(RetryPolicy::capped(
                20,
                SimDuration::from_millis(40),
                SimDuration::from_millis(40),
            )),
            budget: None,
            breaker: None,
            hedge: None,
            cancel: None,
        });
        let sys = sys.with_faults(FaultPlan::none().drop_messages(
            1,
            1.0,
            SimTime::ZERO,
            SimTime::from_millis(300),
        ));
        let report = Engine::new(
            sys,
            open_workload(vec![SimTime::from_millis(10)]),
            SimDuration::from_secs(5),
            1,
        )
        .run();
        assert_eq!(report.completed, 1, "{}", report.summary());
        assert!(report.resilience.retries >= 1);
        let mean = report.latency.mean();
        assert!(mean < SimDuration::from_secs(1), "mean {mean}");
        assert!(report.is_conserved());
    }

    #[test]
    fn vlrt_is_charged_to_the_first_of_many_drops() {
        use ntier_resilience::{CallerPolicy, FaultPlan, RetryPolicy};
        // One request, six drops: the web tier (two replicas) drops the
        // original SYN at 1.23 s and its first kernel retransmit at 4.23 s;
        // the second retransmit gets in at 7.23 s, and the app tier then
        // drops four app-level hop retries, 40 ms apart, before admitting
        // the fifth. The ~6 s request is a VLRT, charged to the web replica
        // and the 50 ms window of the first drop only.
        let mut sys = tiny_sync_system().with_hop_delay(SimDuration::ZERO);
        sys.tiers[0] = sys.tiers[0].clone().replicas(2);
        sys.tiers[1] = sys.tiers[1].clone().with_caller_policy(CallerPolicy {
            attempt_timeout: SimDuration::from_secs(60), // unused on inner hops
            retry: Some(RetryPolicy::capped(
                20,
                SimDuration::from_millis(40),
                SimDuration::from_millis(40),
            )),
            budget: None,
            breaker: None,
            hedge: None,
            cancel: None,
        });
        let sys = sys.with_faults(
            FaultPlan::none()
                .drop_messages(0, 1.0, SimTime::ZERO, SimTime::from_secs(5))
                .drop_messages(1, 1.0, SimTime::ZERO, SimTime::from_millis(7_380)),
        );
        let report = Engine::new(
            sys,
            open_workload(vec![SimTime::from_millis(1_230)]),
            SimDuration::from_secs(12),
            1,
        )
        .run();
        assert_eq!(report.completed, 1, "{}", report.summary());
        assert_eq!(report.vlrt_total, 1);
        assert_eq!(report.tiers[0].drops_total, 2);
        assert_eq!(report.tiers[1].drops_total, 4);

        // Window 24 holds the first drop, at the replica the balancer picked.
        let first_window = 1_230 / 50;
        let web = &report.tiers[0].replicas;
        let first = web
            .iter()
            .position(|r| r.drops.count(first_window) == 1)
            .expect("the first drop lands in its 50 ms window");
        let mut charged = Vec::new();
        for (tier, rep, vlrt) in web
            .iter()
            .enumerate()
            .map(|(r, rep)| (0, r, &rep.vlrt))
            .chain([(1, 0, &report.tiers[1].vlrt), (2, 0, &report.tiers[2].vlrt)])
        {
            charged.extend(
                vlrt.iter()
                    .filter(|(_, n)| *n > 0)
                    .map(|(t, n)| (tier, rep, t, n)),
            );
        }
        assert_eq!(
            charged,
            vec![(0, first, SimTime::from_millis(1_200), 1)],
            "the VLRT is charged once, to the first drop's tier, replica and window"
        );
    }

    #[test]
    #[should_panic(expected = "fault targets tier 5 outside the chain")]
    fn fault_on_missing_tier_rejected() {
        use ntier_resilience::FaultPlan;
        let mut sys = tiny_sync_system();
        sys.faults = FaultPlan::none().crash(5, SimTime::ZERO, SimTime::from_secs(1));
        let _ = Engine::new(sys, open_workload(vec![]), SimDuration::from_secs(1), 1);
    }

    #[test]
    #[should_panic(expected = "mix-based workloads compile 3-tier plans")]
    fn mix_workload_rejects_non_three_tier_system() {
        let sys = Topology::chain(vec![TierSpec::sync("A", 2, 2), TierSpec::sync("B", 2, 2)]);
        let _ = Engine::new(
            sys,
            open_workload(vec![SimTime::from_millis(1)]),
            SimDuration::from_secs(1),
            1,
        );
    }

    #[test]
    #[should_panic(expected = "a downstream connection pool requires exactly one downstream")]
    fn last_tier_pool_rejected() {
        let sys = Topology::three_tier(
            TierSpec::sync("Web", 2, 2),
            TierSpec::sync("App", 2, 2),
            TierSpec::sync("Db", 2, 2).with_downstream_pool(5),
        );
        let _ = Engine::new(sys, open_workload(vec![]), SimDuration::from_secs(1), 1);
    }

    #[test]
    fn traced_run_retains_spans_for_dropped_requests() {
        use ntier_trace::{TraceConfig, TraceEventKind};
        let burst = BurstSchedule::from_bursts([(SimTime::from_millis(10), 24)]);
        let report = Engine::new(
            tiny_sync_system().with_trace(TraceConfig::sampled(0.0)),
            open_workload(burst.arrivals()),
            SimDuration::from_secs(12),
            1,
        )
        .run();
        let log = report.trace.as_ref().expect("tracing enabled");
        assert_eq!(log.started, 24);
        // With zero sampling, only the VLRT requests (the retransmitted
        // wave) are promoted, and each carries its syn_drop events.
        assert_eq!(log.traces.len() as u64, report.vlrt_total);
        assert!(report.vlrt_total > 0, "{}", report.summary());
        for t in log.vlrt_traces() {
            assert!(
                t.events
                    .iter()
                    .any(|e| matches!(e.kind, TraceEventKind::SynDrop { .. })),
                "VLRT trace {} has no syn_drop",
                t.id
            );
            // Drop count matches the latency step: one drop per +3 s.
            let drops = t.syn_drops().count() as u64;
            let steps = t.latency.as_millis() / 3_000;
            assert_eq!(drops, steps, "trace {}: {} vs {}", t.id, drops, t.latency);
        }
    }

    #[test]
    fn tracing_does_not_change_the_report() {
        use ntier_trace::TraceConfig;
        let burst = BurstSchedule::from_bursts([(SimTime::from_millis(10), 24)]);
        let run = |trace: TraceConfig| {
            let mut report = Engine::new(
                tiny_sync_system().with_trace(trace),
                open_workload(burst.arrivals()),
                SimDuration::from_secs(12),
                7,
            )
            .run();
            report.trace = None;
            report
        };
        let off = run(TraceConfig::disabled());
        let on = run(TraceConfig::always());
        assert_eq!(off.completed, on.completed);
        assert_eq!(off.events, on.events);
        assert_eq!(off.drops_total, on.drops_total);
        assert_eq!(off.latency.total(), on.latency.total());
        assert_eq!(
            off.latency.quantile(0.99),
            on.latency.quantile(0.99),
            "tracing must not perturb the simulation"
        );
    }

    #[test]
    fn retried_request_accumulates_one_trace_across_attempts() {
        use ntier_resilience::{CallerPolicy, RetryPolicy};
        use ntier_trace::{TraceConfig, TraceEventKind};
        // One request into a 30 s stall: the 1 s attempt timeout fires, the
        // retry relaunches, and both attempts land in one trace.
        let policy = CallerPolicy {
            attempt_timeout: SimDuration::from_secs(1),
            retry: Some(RetryPolicy::capped(
                1,
                SimDuration::from_millis(100),
                SimDuration::from_millis(100),
            )),
            budget: None,
            breaker: None,
            hedge: None,
            cancel: None,
        };
        let mut sys = tiny_sync_system()
            .with_client_policy(policy)
            .with_trace(TraceConfig::sampled(0.0));
        sys.tiers[1] = sys.tiers[1].clone().with_stalls(StallSchedule::at_marks(
            [SimTime::ZERO],
            SimDuration::from_secs(30),
        ));
        let report = Engine::new(
            sys,
            open_workload(vec![SimTime::from_millis(10)]),
            SimDuration::from_secs(40),
            1,
        )
        .run();
        let log = report.trace.as_ref().expect("tracing enabled");
        assert_eq!(log.started, 1);
        assert_eq!(log.traces.len(), 1, "failed request is always promoted");
        let t = &log.traces[0];
        let sends: Vec<u32> = t
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::ClientSend { attempt } => Some(attempt),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![0, 1], "both attempts in one timeline");
        assert!(t
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::AttemptTimeout { .. })));
    }
}
