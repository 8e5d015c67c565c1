//! The n-tier simulation engine.
//!
//! Wires the substrates together: workload generators inject requests;
//! each request walks the call graph according to its
//! [`Plan`](crate::Plan); tiers admit messages through thread pools +
//! backlogs (sync) or lightweight queues (async); CPUs execute slices
//! around stall intervals; overflowing a tier drops the message and arms
//! the TCP retransmission timer. Every mutation records into the telemetry
//! series that regenerate the paper's figures.
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
//!   replica through the tier's deterministic
//!   [`Balancer`](crate::Balancer); kernel SYN retransmits re-hit the
//!   *same* replica (an L4 balancer pins the 5-tuple), which keeps the
//!   3 s / 6 s / 9 s ladder attached to the replica that dropped.
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
//! use ntier_workload::{ClosedLoopSpec, RequestMix};
//!
//! let system = presets::sync_three_tier();
//! let workload = Workload::closed(ClosedLoopSpec::rubbos(200), RequestMix::rubbos_browse());
//! let report = Engine::new(system, workload, SimDuration::from_secs(10), 1).run();
//! assert!(report.is_conserved());
//! ```

use std::collections::HashMap;

use crate::resilience::TokenBucket;
use ntier_des::prelude::*;
use ntier_telemetry::{CounterSeries, LatencyHistogram};
use ntier_trace::Tracer;

use crate::config::SystemConfig;
use crate::report::{EventCounts, RunReport};
use client::{LogicalState, RetryTicket};
use planes::Planes;
use report::ClassStats;
use slab::{ReqId, Slab};
use tier::NodeRuntime;
use workload::Feed;
pub use workload::{Workload, WorkloadError, WorkloadSource};

mod client;
mod planes;
mod report;
mod slab;
#[cfg(test)]
mod tests;
mod tier;
mod workload;

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
    /// run has a [`crate::resilience::HealthPolicy`], so undetected event
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

/// Cap on events applied per same-timestamp batch drain in [`Engine::run`]
/// (bounds the reusable batch buffer; order is unaffected).
const EVENT_BATCH: usize = 64;

/// The simulation engine for one run.
#[derive(Debug)]
pub struct Engine {
    cfg: SystemConfig,
    /// The workload and the rng streams it draws from.
    feed: Feed,
    horizon: SimDuration,
    queue: EventQueue<Event>,
    now: SimTime,
    tiers: Vec<NodeRuntime>,
    /// Cached `cfg.shape.has_fanout()`: fan-out runs pay the plan/shape
    /// cross-check at inject; linear chains skip it.
    has_fanout: bool,
    /// One slot per live attempt (see [`Slab`]).
    slab: Slab,
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
    /// Controller-set hedge delay overriding the configured policy.
    hedge_override: Option<SimDuration>,
    events_handled: u64,
    events_by_kind: EventCounts,
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
    /// Workers actually wedged per stuck-worker fault (index = fault index).
    stuck_acquired: Vec<usize>,
    /// Per-request span recorder; every call is a no-op compare against
    /// [`ntier_trace::TRACE_NONE`] when tracing is disabled.
    tracer: Tracer,
    /// The control, health and metrics planes, each `None` when off.
    planes: Planes,
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
            .map(|(i, tc)| NodeRuntime::new(tc, bal_root.fork(&format!("node-{i}")), horizon))
            .collect();
        let hedge_bucket = cfg.tiers[0]
            .caller_policy
            .as_ref()
            .and_then(|p| p.hedge)
            .and_then(|h| h.budget)
            .map(|b| TokenBucket::new(b, SimTime::ZERO));
        // `cfg` moves last: the fields before it are built from it.
        Ok(Engine {
            feed: Feed::new(workload, &root),
            horizon,
            queue: EventQueue::with_capacity(1 << 16),
            now: SimTime::ZERO,
            has_fanout: cfg.shape.has_fanout(),
            slab: Slab::new(tiers.len()),
            planes: Planes::new(&cfg, &tiers, &root),
            tiers,
            tickets: Vec::new(),
            free_tickets: Vec::new(),
            logicals: Vec::new(),
            free_logicals: Vec::new(),
            hedge_bucket,
            hedge_override: None,
            events_handled: 0,
            events_by_kind: EventCounts::default(),
            latency: LatencyHistogram::paper_default(),
            vlrt_by_completion: CounterSeries::paper_default(),
            injected: 0,
            completed: 0,
            failed: 0,
            shed: 0,
            cancelled: 0,
            drops_total: 0,
            vlrt_total: 0,
            next_token: 0,
            parked: HashMap::new(),
            rng_faults: root.fork("faults"),
            rng_jitter: root.fork("retry-jitter"),
            stuck_acquired: vec![0; cfg.faults.faults().len()],
            tracer: Tracer::new(cfg.trace, root.fork("trace-sample")),
            // Pre-sized for the paper mixes' five classes, and built last:
            // a small block allocated after the large buffers above keeps
            // glibc from trimming the heap top each time an engine is
            // dropped, so the next engine need not grow the heap again
            // (DESIGN.md §9.1).
            class_stats: HashMap::with_capacity(7),
            cfg,
        })
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
        for (i, fault) in self.cfg.faults.faults().iter().enumerate() {
            let (from, until) = fault.window();
            self.queue.push(from, Event::FaultBegin { idx: i as u16 });
            self.queue.push(until, Event::FaultEnd { idx: i as u16 });
        }
        self.schedule_arrivals();
        self.planes.arm(&mut self.queue);
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

    /// Schedules `ev` at `now + after` unless that lands past the horizon.
    /// An event the run would never handle must not be queued: the metrics
    /// plane reports `queue.scheduled_total()` as `events_scheduled`.
    fn push_within_horizon(&mut self, after: SimDuration, ev: Event) {
        let at = self.now + after;
        if at <= SimTime::ZERO + self.horizon {
            self.queue.push(at, ev);
        }
    }
}
