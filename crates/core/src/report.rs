//! Run reports: everything the paper's figures plot, in one structure.

use crate::control::ControlLog;
use crate::resilience::ResilienceStats;
use ntier_des::ids::{ReplicaId, TierId};
use ntier_des::time::SimDuration;
use ntier_telemetry::histogram::Mode;
use ntier_telemetry::{
    CounterSeries, LatencyHistogram, MetricsRegistry, PeakSeries, UtilizationSeries,
};
use ntier_trace::{ControlAction, TierData, TraceLog};

/// Per-replica measurements for one instance of a replica set. Only
/// populated on [`TierReport::replicas`] when the tier runs more than one
/// replica; the tier-level fields then hold the aggregate view.
#[derive(Debug, Clone)]
pub struct ReplicaReport {
    /// Which replica (0-based).
    pub id: ReplicaId,
    /// Peak queued requests at this replica per 50 ms window, sampled on
    /// every change.
    pub queue_depth: PeakSeries,
    /// Dropped messages at this replica per 50 ms window.
    pub drops: CounterSeries,
    /// VLRT requests attributed to drops at this replica.
    pub vlrt: CounterSeries,
    /// This replica's own CPU busy time per 50 ms window.
    pub util: UtilizationSeries,
    /// Per-window utilization of interference co-located with this replica:
    /// one value per window of the horizon when the replica has a stall
    /// schedule, empty when nothing is co-located. Windows past its end
    /// read 0.
    pub interferer_util: Vec<f64>,
    /// Total drops at this replica.
    pub drops_total: u64,
    /// Highest observed queue depth at this replica.
    pub peak_queue: usize,
    /// Completed process spawns at this replica.
    pub spawns: u64,
}

/// Per-tier measurements from one run.
#[derive(Debug, Clone)]
pub struct TierReport {
    /// Node id in the call graph (preorder; chains read 0 = web, 1 = app…).
    pub id: TierId,
    /// Tier display name.
    pub name: String,
    /// `"sync"` or `"async"`.
    pub arch: &'static str,
    /// Admission capacity at start (`MaxSysQDepth` or `LiteQDepth`).
    pub capacity: usize,
    /// Peak queued requests (threads busy + backlog, or async in-flight)
    /// per 50 ms window, sampled on every change.
    pub queue_depth: PeakSeries,
    /// Dropped messages per 50 ms window.
    pub drops: CounterSeries,
    /// VLRT requests attributed to drops at this tier, per 50 ms window
    /// (recorded at first-drop time, the way the paper's (c) panels count).
    pub vlrt: CounterSeries,
    /// This tier's own CPU busy time per 50 ms window.
    pub util: UtilizationSeries,
    /// Per-window utilization of co-located interference (the hog VM /
    /// flushing kernel); add to `util` for the physical-core view (see
    /// [`TierReport::combined_util`]). One value per window of the horizon
    /// when any replica has a stall schedule (a replica set averages its
    /// replicas), empty when nothing is co-located. Windows past its end
    /// read 0.
    pub interferer_util: Vec<f64>,
    /// Total drops at this tier.
    pub drops_total: u64,
    /// Highest observed queue depth.
    pub peak_queue: usize,
    /// Completed process spawns (Apache second process).
    pub spawns: u64,
    /// Resilience counters for the hop into this tier (tier 0 carries the
    /// client hop: timeouts, app retries, breaker transitions, sheds).
    pub resilience: ResilienceStats,
    /// Per-replica breakdown when the tier is a replica set (`replicas > 1`
    /// in its [`crate::TierSpec`]); empty for single-instance tiers, whose
    /// tier-level fields *are* the instance's data.
    pub replicas: Vec<ReplicaReport>,
}

/// The number of 50 ms windows in `horizon`, at least one: the floor on
/// the length of every per-window reading of a report, since a series
/// stops at its last touched window and a stall-free interferer series
/// holds none.
pub(crate) fn horizon_windows(horizon: SimDuration) -> usize {
    let window = SimDuration::from_millis(ntier_telemetry::MONITOR_WINDOW_MS);
    (horizon.as_micros() / window.as_micros()).max(1) as usize
}

impl TierReport {
    /// Mean own-CPU utilization through `horizon`.
    pub fn mean_util(&self, horizon: SimDuration) -> f64 {
        self.util.mean_utilization(horizon_windows(horizon) - 1)
    }

    /// Physical-core utilization per window: own + interferer, capped at 1.
    /// One value per window of `horizon` (the run's
    /// [`RunReport::horizon`]), or more if the tier touched a window past
    /// it.
    pub fn combined_util(&self, horizon: SimDuration) -> Vec<f64> {
        let own = self.util.utilizations();
        let n = own
            .len()
            .max(self.interferer_util.len())
            .max(horizon_windows(horizon));
        (0..n)
            .map(|i| {
                let a = own.get(i).copied().unwrap_or(0.0);
                let b = self.interferer_util.get(i).copied().unwrap_or(0.0);
                (a + b).min(1.0)
            })
            .collect()
    }
}

/// Engine events handled within the horizon, by event kind: the
/// deterministic cost counter behind events-per-request figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    counts: [u64; EventCounts::KINDS.len()],
}

impl EventCounts {
    /// The engine's event kinds, in the order [`EventCounts::iter`] lists
    /// them.
    pub const KINDS: [&'static str; 18] = [
        "ClientSend",
        "Inject",
        "Arrival",
        "SliceDone",
        "ReplyArrive",
        "SpawnDone",
        "ArmReply",
        "AttemptTimeout",
        "RetryFire",
        "FaultBegin",
        "FaultEnd",
        "HedgeFire",
        "LogicalDeadline",
        "CancelArrive",
        "ControllerTick",
        "HealthTick",
        "ReplicaReady",
        "MetricsTick",
    ];

    /// Counts one event of kind `KINDS[kind]`.
    #[inline]
    pub(crate) fn add(&mut self, kind: usize) {
        self.counts[kind] += 1;
    }

    /// Events of the named kind, or `None` for a name not in
    /// [`EventCounts::KINDS`].
    pub fn get(&self, kind: &str) -> Option<u64> {
        let k = Self::KINDS.iter().position(|n| *n == kind)?;
        Some(self.counts[k])
    }

    /// Every kind with its count, in [`EventCounts::KINDS`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Self::KINDS.iter().copied().zip(self.counts.iter().copied())
    }

    /// Events of all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// The result of one experiment run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Discrete events the engine handled within the horizon — the
    /// denominator-independent work measure behind events-per-second
    /// throughput benchmarks.
    pub events: u64,
    /// The same events split by engine event kind; always counted, and
    /// summing to [`events`](Self::events).
    pub events_by_kind: EventCounts,
    /// Requests injected (client sends, not counting TCP retransmissions).
    pub injected: u64,
    /// Requests completed within the horizon.
    pub completed: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub failed: u64,
    /// Requests rejected fast by a breaker or shed policy before (or at)
    /// admission — a terminal outcome distinct from `failed`.
    pub shed: u64,
    /// Hedged logical requests whose caller deadline passed with
    /// cancellation enabled: the caller gave up *and revoked* the
    /// outstanding attempts instead of letting them run on as orphans.
    pub cancelled: u64,
    /// Requests still in flight when the horizon ended.
    pub in_flight_end: u64,
    /// Completed requests per second.
    pub throughput: f64,
    /// End-to-end response-time histogram (completed requests).
    pub latency: LatencyHistogram,
    /// Completed requests slower than 3 s.
    pub vlrt_total: u64,
    /// Messages dropped anywhere in the system.
    pub drops_total: u64,
    /// Per-tier measurements (0 = web, 1 = app, 2 = db).
    pub tiers: Vec<TierReport>,
    /// VLRT completions per 50 ms window (at completion time).
    pub vlrt_by_completion: CounterSeries,
    /// Per-request-class statistics, sorted by class name.
    pub classes: Vec<ClassReport>,
    /// Whole-run resilience counters (sum of the per-tier hop counters).
    pub resilience: ResilienceStats,
    /// Retained per-request traces, when the run had tracing enabled
    /// (`None` for untraced runs — the common case).
    pub trace: Option<TraceLog>,
    /// The control plane's decision log, when the run had a controller
    /// (`None` for uncontrolled runs).
    pub control: Option<ControlLog>,
    /// The streaming metrics registry — periodic snapshots, the run-level
    /// quantile sketch and the bounded-memory ring series — when the run
    /// had the metrics plane enabled (`None` for unmetered runs).
    pub metrics: Option<MetricsRegistry>,
    /// A fault that truncated the arrival stream: a streaming source's
    /// report (e.g. a trace parse error), a non-monotone arrival time, or
    /// a plan — streamed or from [`Workload::open_plans`](crate::Workload::open_plans)
    /// — that does not fit the system. `None` for clean runs.
    pub workload_fault: Option<String>,
    /// The first write error of the JSONL sink attached with
    /// [`Engine::with_metrics_sink`](crate::Engine::with_metrics_sink).
    /// The sink is dropped at that error; the run and the in-memory
    /// [`metrics`](Self::metrics) registry carry on unchanged. `None` when
    /// no sink was attached or every write succeeded.
    pub metrics_sink_fault: Option<String>,
}

impl RunReport {
    /// The highest per-tier mean CPU utilization — the paper's "highest
    /// average CPU util." caption number in Fig. 1.
    pub fn highest_mean_util(&self) -> f64 {
        self.tiers
            .iter()
            .map(|t| t.mean_util(self.horizon))
            .fold(0.0, f64::max)
    }

    /// Latency modes (clusters), for multi-modality assertions; uses the
    /// paper-standard 500 ms gap and a minimum cluster mass of 3.
    pub fn latency_modes(&self) -> Vec<Mode> {
        self.latency.modes(SimDuration::from_millis(500), 3)
    }

    /// `true` if any mode sits within ±0.5 s of `peak_secs`.
    pub fn has_mode_near(&self, peak_secs: u64) -> bool {
        let lo = SimDuration::from_millis((peak_secs * 1_000).saturating_sub(500));
        let hi = SimDuration::from_millis(peak_secs * 1_000 + 500);
        self.latency_modes()
            .iter()
            .any(|m| m.peak >= lo && m.peak <= hi)
    }

    /// Fraction of completed requests that are VLRT.
    pub fn vlrt_fraction(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.vlrt_total as f64 / self.completed as f64
        }
    }

    /// A compact human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "horizon {}  injected {}  completed {}  failed {}  shed {}  cancelled {}  in-flight {}\n",
            self.horizon,
            self.injected,
            self.completed,
            self.failed,
            self.shed,
            self.cancelled,
            self.in_flight_end
        ));
        s.push_str(&format!(
            "throughput {:.1} req/s  drops {}  VLRT {} ({:.3}%)  highest mean CPU {:.0}%\n",
            self.throughput,
            self.drops_total,
            self.vlrt_total,
            self.vlrt_fraction() * 100.0,
            self.highest_mean_util() * 100.0
        ));
        if !self.resilience.is_quiet() {
            s.push_str(&format!(
                "resilience: timeouts {}  app retries {}  budget-exhausted {}  shed {}  breaker transitions {}  orphan completions {}\n",
                self.resilience.timeouts,
                self.resilience.retries,
                self.resilience.budget_exhausted,
                self.resilience.shed,
                self.resilience.breaker_transitions,
                self.resilience.orphan_completions
            ));
            if self.resilience.hedges > 0 || self.resilience.cancels_propagated > 0 {
                s.push_str(&format!(
                    "hedging: hedges {}  cancels propagated {}  wasted work saved {}\n",
                    self.resilience.hedges,
                    self.resilience.cancels_propagated,
                    self.resilience.wasted_work_saved
                ));
            }
        }
        if let Some(c) = &self.control {
            s.push_str(&format!("control: {}\n", c.summary()));
        }
        for t in &self.tiers {
            s.push_str(&format!(
                "  {:<8} [{}] cap {:>5}  peak queue {:>5}  drops {:>5}  mean CPU {:>5.1}%  spawns {}\n",
                t.name,
                t.arch,
                t.capacity,
                t.peak_queue,
                t.drops_total,
                t.mean_util(self.horizon) * 100.0,
                t.spawns
            ));
            for r in &t.replicas {
                s.push_str(&format!(
                    "    {:<8} #{}            peak queue {:>5}  drops {:>5}\n",
                    t.name, r.id, r.peak_queue, r.drops_total
                ));
            }
        }
        s
    }

    /// Conservation check: injected == completed + failed + shed +
    /// cancelled + in-flight. Used by tests; always true for a correct
    /// engine.
    pub fn is_conserved(&self) -> bool {
        self.injected
            == self.completed + self.failed + self.shed + self.cancelled + self.in_flight_end
    }

    /// The per-class report for `class`, if any requests of it completed
    /// or dropped.
    pub fn class(&self, class: &str) -> Option<&ClassReport> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// The per-tier telemetry in the shape the trace analyzer joins
    /// against: own utilization, interferer utilization, and drop counts
    /// per 50 ms window, for each tier in chain order.
    pub fn trace_tier_data(&self) -> Vec<TierData> {
        self.tiers
            .iter()
            .map(|t| TierData {
                name: t.name.clone(),
                util: t.util.utilizations(),
                interferer_util: t.interferer_util.clone(),
                drops: t.drops.iter().map(|(_, n)| n).collect(),
                replicas: t
                    .replicas
                    .iter()
                    .map(|r| TierData {
                        name: t.name.clone(),
                        util: r.util.utilizations(),
                        interferer_util: r.interferer_util.clone(),
                        drops: r.drops.iter().map(|(_, n)| n).collect(),
                        replicas: Vec::new(),
                    })
                    .collect(),
            })
            .collect()
    }

    /// The controller's decisions in the shape the trace analyzer joins
    /// against ([`ntier_trace::RootCause::analyze_with_actions`]); empty
    /// for uncontrolled runs.
    pub fn control_actions(&self) -> Vec<ControlAction> {
        self.control
            .as_ref()
            .map(|log| {
                log.decisions
                    .iter()
                    .map(|d| ControlAction {
                        at: d.at,
                        tier: d.action.tier(),
                        label: d.action.label(),
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Per-request-class statistics (the paper's Fig. 4 narrative: during
/// upstream CTQO even *static* requests — which never touch the app tier —
/// queue and drop at the web tier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReport {
    /// Request class name ("static", "view_story", ...).
    pub class: &'static str,
    /// Completed requests of this class.
    pub completed: u64,
    /// Completed requests of this class slower than 3 s.
    pub vlrt: u64,
    /// Messages of this class dropped anywhere in the chain.
    pub drops: u64,
    /// Requests of this class shed by a breaker or shed policy.
    pub shed: u64,
    /// Mean end-to-end latency of completed requests.
    pub mean_latency: SimDuration,
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, Workload};
    use crate::presets;
    use ntier_des::time::SimDuration;
    use ntier_workload::{ClosedLoopSpec, RequestMix};

    #[test]
    fn sub_second_completions_form_a_mode_near_zero() {
        let report = Engine::new(
            presets::sync_three_tier(),
            Workload::closed(ClosedLoopSpec::rubbos(100), RequestMix::rubbos_browse()),
            SimDuration::from_secs(10),
            7,
        )
        .run();
        assert!(report.completed > 0 && report.vlrt_total == 0);
        assert!(
            report.has_mode_near(0),
            "modes {:?}",
            report.latency_modes()
        );
        assert!(!report.has_mode_near(3));
    }
}
