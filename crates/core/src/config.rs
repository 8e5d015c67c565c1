//! System configuration: tiers, their server architecture, and capacities.
//!
//! A [`SystemConfig`] describes a call-graph of tiers (the classic case
//! being the 3-tier web → app → db chain). Each tier is either
//! *synchronous* (RPC: thread-per-request, bounded accept backlog,
//! optionally a growable process group) or *asynchronous* (event-driven:
//! large lightweight queue, continuation-based downstream calls), and may
//! be a replica set fronted by a deterministic load balancer. The capacity
//! arithmetic of the paper — `MaxSysQDepth = threads + backlog` vs
//! `LiteQDepth` — is all derivable from this type, see
//! [`TierSpec::max_sys_q_depth`].
//!
//! [`TierSpec`] is the *one* tier description in the workspace: the live
//! testbed's `ChainBuilder` consumes the same type, so there is a single
//! definition of admission capacity across simulator and testbed.

use crate::interference::StallSchedule;
use crate::net::RetransmitPolicy;
use crate::resilience::{CallerPolicy, FaultPlan, ShedPolicy};
use crate::server::ThreadOverheadModel;
use crate::topology::{Balancer, TopologyShape};
use ntier_des::time::SimDuration;
use ntier_trace::TraceConfig;

/// The server architecture of one tier.
#[derive(Debug, Clone, PartialEq)]
pub enum TierKind {
    /// RPC-style synchronous server: thread-per-request plus TCP backlog.
    Sync {
        /// Worker threads per process.
        threads: usize,
        /// TCP accept-backlog capacity.
        backlog: usize,
        /// Maximum processes (Apache prefork grows to this; 1 = fixed pool).
        max_processes: usize,
        /// Delay to spawn an additional process.
        spawn_delay: SimDuration,
    },
    /// Event-driven asynchronous server: lightweight queue + small workers.
    Async {
        /// `LiteQDepth` — admission capacity (65535 for Nginx/XTomcat,
        /// 2000 for XMySQL).
        lite_q_depth: usize,
        /// Worker threads/processes (pace CPU, never admission).
        workers: u32,
    },
}

impl TierKind {
    /// `true` for RPC-style tiers.
    pub fn is_sync(&self) -> bool {
        matches!(self, TierKind::Sync { .. })
    }

    /// Short human-readable architecture label.
    pub fn label(&self) -> &'static str {
        match self {
            TierKind::Sync { .. } => "sync",
            TierKind::Async { .. } => "async",
        }
    }
}

/// Configuration of one tier (one node of the call graph). When
/// `replicas > 1` the tier is a replica set: `replicas` identical
/// instances, each with its *own* thread pool / LiteQ, accept backlog,
/// stall schedule and drop accounting, fronted by `balancer`.
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// Display name ("Apache", "XTomcat", ...).
    pub name: String,
    /// Sync or async architecture.
    pub kind: TierKind,
    /// CPU cores available to each instance's VM.
    pub cores: u32,
    /// Millibottleneck schedule for this tier's CPU. Applies to every
    /// replica unless overridden per replica via
    /// [`TierSpec::with_replica_stalls`].
    pub stalls: StallSchedule,
    /// Connection-pool size used by *this tier's* calls to its downstream
    /// neighbour (`Some(50)` for sync Tomcat's JDBC pool; `None` for async
    /// connectors, which multiplex without a cap, and for the last tier).
    pub downstream_pool: Option<usize>,
    /// Demand inflation at high thread counts (Fig. 12); defaults to none.
    pub overhead: ThreadOverheadModel,
    /// Resilience policy applied by *whoever calls this tier*: for tier 0
    /// that is the client (attempt timeouts + app-level retries); for inner
    /// tiers it replaces the kernel retransmit schedule on drops at this
    /// tier with app-controlled backoff, budget and breaker. `None` keeps
    /// the paper's raw TCP behaviour.
    pub caller_policy: Option<CallerPolicy>,
    /// Admission-time load shedding at this tier (fast reject instead of
    /// queueing); `None` admits per the paper's capacity rules only.
    pub shed: Option<ShedPolicy>,
    /// Number of identical instances behind the balancer (1 = the
    /// unreplicated tier every pre-topology config described).
    pub replicas: usize,
    /// How callers pick a replica for a fresh connection attempt.
    pub balancer: Balancer,
    /// Per-replica stall-schedule overrides as `(replica, schedule)` pairs;
    /// replicas without an entry use `stalls`. This is how one hot replica
    /// is modelled behind an otherwise healthy set.
    pub replica_stalls: Vec<(usize, StallSchedule)>,
}

impl TierSpec {
    /// A synchronous tier with a fixed pool (no process spawning).
    pub fn sync(name: impl Into<String>, threads: usize, backlog: usize) -> Self {
        TierSpec {
            name: name.into(),
            kind: TierKind::Sync {
                threads,
                backlog,
                max_processes: 1,
                spawn_delay: SimDuration::ZERO,
            },
            cores: 1,
            stalls: StallSchedule::none(),
            downstream_pool: None,
            overhead: ThreadOverheadModel::none(),
            caller_policy: None,
            shed: None,
            replicas: 1,
            balancer: Balancer::RoundRobin,
            replica_stalls: Vec::new(),
        }
    }

    /// An asynchronous tier.
    pub fn asynchronous(name: impl Into<String>, lite_q_depth: usize, workers: u32) -> Self {
        TierSpec {
            name: name.into(),
            kind: TierKind::Async {
                lite_q_depth,
                workers,
            },
            cores: 1,
            stalls: StallSchedule::none(),
            downstream_pool: None,
            overhead: ThreadOverheadModel::none(),
            caller_policy: None,
            shed: None,
            replicas: 1,
            balancer: Balancer::RoundRobin,
            replica_stalls: Vec::new(),
        }
    }

    /// Enables process spawning (Apache prefork): up to `max_processes`
    /// processes, each with the configured thread count.
    ///
    /// # Panics
    ///
    /// Panics if the tier is asynchronous.
    pub fn with_process_spawning(mut self, max_processes: usize, spawn_delay: SimDuration) -> Self {
        match &mut self.kind {
            TierKind::Sync {
                max_processes: mp,
                spawn_delay: sd,
                ..
            } => {
                *mp = max_processes;
                *sd = spawn_delay;
            }
            TierKind::Async { .. } => panic!("process spawning applies to sync tiers only"),
        }
        self
    }

    /// Sets the CPU core count.
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the millibottleneck schedule (all replicas).
    pub fn with_stalls(mut self, stalls: StallSchedule) -> Self {
        self.stalls = stalls;
        self
    }

    /// Sets the downstream connection-pool size.
    pub fn with_downstream_pool(mut self, size: usize) -> Self {
        self.downstream_pool = Some(size);
        self
    }

    /// Sets the thread-overhead model.
    pub fn with_overhead(mut self, overhead: ThreadOverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Sets the caller-side resilience policy on the hop into this tier.
    pub fn with_caller_policy(mut self, policy: CallerPolicy) -> Self {
        self.caller_policy = Some(policy);
        self
    }

    /// Sets the admission-time shed policy.
    pub fn with_shed_policy(mut self, shed: ShedPolicy) -> Self {
        self.shed = Some(shed);
        self
    }

    /// Makes the tier a replica set of `n` identical instances.
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Sets the load-balancing policy callers use to pick a replica.
    pub fn balancer(mut self, balancer: Balancer) -> Self {
        self.balancer = balancer;
        self
    }

    /// Overrides the stall schedule of one replica (others keep `stalls`).
    pub fn with_replica_stalls(mut self, replica: usize, stalls: StallSchedule) -> Self {
        self.replica_stalls.retain(|(r, _)| *r != replica);
        self.replica_stalls.push((replica, stalls));
        self
    }

    /// The stall schedule replica `replica` runs under.
    pub fn stalls_for(&self, replica: usize) -> &StallSchedule {
        self.replica_stalls
            .iter()
            .find(|(r, _)| *r == replica)
            .map(|(_, s)| s)
            .unwrap_or(&self.stalls)
    }

    /// `MaxSysQDepth` for a sync tier at its *initial* process count:
    /// `threads + backlog` (278 for Apache, 293 for the NX=1 Tomcat, 228 for
    /// MySQL). Returns `None` for async tiers. Per instance: a replica set
    /// has this much admission capacity per replica.
    pub fn max_sys_q_depth(&self) -> Option<usize> {
        match &self.kind {
            TierKind::Sync {
                threads, backlog, ..
            } => Some(threads + backlog),
            TierKind::Async { .. } => None,
        }
    }

    /// `MaxSysQDepth` with every allowed process spawned (428 for Apache).
    pub fn max_sys_q_depth_full(&self) -> Option<usize> {
        match &self.kind {
            TierKind::Sync {
                threads,
                backlog,
                max_processes,
                ..
            } => Some(threads * max_processes + backlog),
            TierKind::Async { .. } => None,
        }
    }

    /// Admission capacity regardless of architecture: `MaxSysQDepth` or
    /// `LiteQDepth`. Per instance.
    pub fn admission_capacity(&self) -> usize {
        match &self.kind {
            TierKind::Sync {
                threads, backlog, ..
            } => threads + backlog,
            TierKind::Async { lite_q_depth, .. } => *lite_q_depth,
        }
    }
}

/// The whole system: per-node tier specs plus the call-graph shape.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Tier specs in preorder node-id order (a chain reads tier 0 = web,
    /// tier 1 = app, tier 2 = db).
    pub tiers: Vec<TierSpec>,
    /// Who calls whom; [`TopologyShape::linear`] for chains.
    pub shape: TopologyShape,
    /// Client/inter-tier TCP retransmission schedule.
    pub retransmit: RetransmitPolicy,
    /// One-way per-hop message delay.
    pub hop_delay: SimDuration,
    /// Scheduled fault injection; empty by default.
    pub faults: FaultPlan,
    /// Per-request tracing; disabled by default (and strictly free on the
    /// engine hot path while disabled).
    pub trace: TraceConfig,
    /// Closed-loop control plane (autoscaling, policy auto-tuning, overload
    /// governor); `None` by default. Uncontrolled runs take exactly the
    /// pre-control code paths, so their event streams stay bit-identical.
    pub control: Option<crate::control::ControlConfig>,
    /// Gray-failure detection (passive health scoring + outlier ejection)
    /// on one replicated tier; `None` by default. Undetected runs take
    /// exactly the pre-health code paths — no `HealthTick` events, no rng
    /// fork consumption — so their event streams stay bit-identical.
    pub health: Option<crate::resilience::HealthPolicy>,
    /// Streaming metrics plane (periodic [`MetricsSnapshot`] emission plus
    /// run-wide latency sketch and bounded ring series); `None` by default.
    /// Unmetered runs take exactly the pre-metrics code paths — no
    /// `MetricsTick` events — so their event streams stay bit-identical,
    /// and the tick itself only *reads* engine state, so enabling it never
    /// perturbs the simulation.
    ///
    /// [`MetricsSnapshot`]: ntier_telemetry::MetricsSnapshot
    pub metrics: Option<ntier_telemetry::MetricsConfig>,
}

impl SystemConfig {
    /// Assembles a config from validated parts — the [`crate::Topology`]
    /// builder's output path. Prefer `Topology::client()...build()?` or
    /// [`Topology::chain`](crate::Topology::chain) over calling this directly.
    pub fn from_parts(tiers: Vec<TierSpec>, shape: TopologyShape) -> Self {
        debug_assert_eq!(tiers.len(), shape.len());
        SystemConfig {
            tiers,
            shape,
            retransmit: RetransmitPolicy::default(),
            hop_delay: SimDuration::from_micros(50),
            faults: FaultPlan::none(),
            trace: TraceConfig::disabled(),
            control: None,
            health: None,
            metrics: None,
        }
    }

    /// Overrides the retransmission policy.
    pub fn with_retransmit(mut self, policy: RetransmitPolicy) -> Self {
        self.retransmit = policy;
        self
    }

    /// Overrides the per-hop delay.
    pub fn with_hop_delay(mut self, delay: SimDuration) -> Self {
        self.hop_delay = delay;
        self
    }

    /// Installs a fault-injection plan.
    ///
    /// # Panics
    ///
    /// Panics if any fault targets a tier outside the chain.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        if let Some(max) = faults.max_tier() {
            assert!(
                max < self.tiers.len(),
                "fault targets tier {max} outside the chain"
            );
        }
        self.faults = faults;
        self
    }

    /// Installs a client-side policy (an alias for setting tier 0's caller
    /// policy — the hop into tier 0 is the client's).
    pub fn with_client_policy(mut self, policy: CallerPolicy) -> Self {
        self.tiers[0].caller_policy = Some(policy);
        self
    }

    /// Enables per-request tracing with the given config.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Installs a closed-loop control plane (see [`crate::control`]).
    ///
    /// # Panics
    ///
    /// Panics if the autoscaler, AIMD tuner, or governor targets a tier
    /// outside the chain.
    pub fn with_control(mut self, control: crate::control::ControlConfig) -> Self {
        let n = self.tiers.len();
        if let Some(a) = &control.autoscaler {
            assert!(a.tier < n, "autoscaler targets tier {} of {n}", a.tier);
        }
        if let Some(t) = &control.tuner {
            if let Some(a) = &t.aimd {
                assert!(a.tier < n, "AIMD tuner targets tier {} of {n}", a.tier);
            }
        }
        if let Some(g) = &control.governor {
            assert!(
                g.brake_tier < n,
                "governor brakes tier {} of {n}",
                g.brake_tier
            );
        }
        self.control = Some(control);
        self
    }

    /// Installs gray-failure detection on the policy's tier (see
    /// [`crate::resilience`]).
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid or targets a tier outside the chain.
    pub fn with_health(mut self, health: crate::resilience::HealthPolicy) -> Self {
        health.validate();
        let n = self.tiers.len();
        assert!(
            health.tier < n,
            "health detector targets tier {} of {n}",
            health.tier
        );
        self.health = Some(health);
        self
    }

    /// Enables the streaming metrics plane (see
    /// [`ntier_telemetry::metrics`]): periodic snapshots at the config's
    /// interval, collected into the run report and optionally streamed to
    /// a JSONL sink attached via `Engine::with_metrics_sink`.
    pub fn with_metrics(mut self, metrics: ntier_telemetry::MetricsConfig) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Number of asynchronous tiers (the paper's `NX`).
    pub fn nx(&self) -> usize {
        self.tiers.iter().filter(|t| !t.kind.is_sync()).count()
    }

    /// `true` when every tier is asynchronous (NX=3 — CTQO-free).
    pub fn is_fully_async(&self) -> bool {
        self.nx() == self.tiers.len()
    }

    /// The tier index whose stall schedule is non-empty, if exactly one tier
    /// stalls (the common experimental setup). Replica-level overrides count
    /// as that tier stalling.
    pub fn stalled_tier(&self) -> Option<usize> {
        let stalled: Vec<usize> = self
            .tiers
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !t.stalls.is_empty() || t.replica_stalls.iter().any(|(_, s)| !s.is_empty())
            })
            .map(|(i, _)| i)
            .collect();
        match stalled.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use ntier_des::time::SimTime;

    #[test]
    fn max_sys_q_depth_matches_paper_values() {
        let apache =
            TierSpec::sync("Apache", 150, 128).with_process_spawning(2, SimDuration::from_secs(1));
        assert_eq!(apache.max_sys_q_depth(), Some(278));
        assert_eq!(apache.max_sys_q_depth_full(), Some(428));

        let tomcat_nx1 = TierSpec::sync("Tomcat", 165, 128);
        assert_eq!(tomcat_nx1.max_sys_q_depth(), Some(293));

        let mysql = TierSpec::sync("MySQL", 100, 128);
        assert_eq!(mysql.max_sys_q_depth(), Some(228));

        let nginx = TierSpec::asynchronous("Nginx", 65_535, 4);
        assert_eq!(nginx.max_sys_q_depth(), None);
        assert_eq!(nginx.admission_capacity(), 65_535);
    }

    #[test]
    fn nx_counts_async_tiers() {
        let sys = Topology::three_tier(
            TierSpec::asynchronous("Nginx", 65_535, 4),
            TierSpec::sync("Tomcat", 165, 128),
            TierSpec::sync("MySQL", 100, 128),
        );
        assert_eq!(sys.nx(), 1);
        assert!(!sys.is_fully_async());
    }

    #[test]
    fn stalled_tier_requires_exactly_one() {
        let stall = StallSchedule::at_marks([SimTime::from_secs(1)], SimDuration::from_millis(300));
        let mut sys = Topology::three_tier(
            TierSpec::sync("A", 10, 10),
            TierSpec::sync("B", 10, 10).with_stalls(stall.clone()),
            TierSpec::sync("C", 10, 10),
        );
        assert_eq!(sys.stalled_tier(), Some(1));
        sys.tiers[2].stalls = stall;
        assert_eq!(sys.stalled_tier(), None);
    }

    #[test]
    fn replica_stall_overrides_resolve_per_replica() {
        let train = StallSchedule::at_marks([SimTime::from_secs(1)], SimDuration::from_millis(300));
        let spec = TierSpec::sync("Tomcat", 50, 42)
            .replicas(3)
            .with_replica_stalls(1, train.clone());
        assert!(spec.stalls_for(0).is_empty());
        assert_eq!(spec.stalls_for(1), &train);
        assert!(spec.stalls_for(2).is_empty());
        let sys = Topology::chain(vec![TierSpec::sync("web", 10, 10), spec]);
        assert_eq!(sys.stalled_tier(), Some(1));
    }

    #[test]
    #[should_panic(expected = "sync tiers only")]
    fn spawning_on_async_tier_rejected() {
        let _ = TierSpec::asynchronous("Nginx", 100, 1).with_process_spawning(2, SimDuration::ZERO);
    }
}
