//! The four workloads. Each is a fixed list of experiment specs run back
//! to back through the simulator's public entry points; one repetition
//! ("rep") runs the whole list once and times each stage from outside.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ntier_core::analysis;
use ntier_core::engine::{Engine, Workload as EngineWorkload};
use ntier_core::experiment::{self, ExperimentSpec, TraceReplayArm, TRACE_REPLAY_FIXTURE};
use ntier_core::{RunReport, TraceDemandModel, TracePlans};
use ntier_des::time::SimDuration;
use ntier_telemetry::MetricsConfig;
use ntier_trace::RootCause;
use ntier_workload::cluster_trace::{ClusterTraceReader, TraceArrivals, TraceDialect};

use crate::alloc;
use crate::probe::{CountingSink, Probe, TimedSource};

/// Fig. 1's headline operating point.
const FIG1_CLIENTS: u32 = 7_000;
/// One long horizon, so a rep is a second or so of host time.
const FIG1_HORIZON: SimDuration = SimDuration::from_secs(600);
/// `planes` and `fig12_sweep` run their grids for seeds `seed..seed + SWEEP_SEEDS`.
const SWEEP_SEEDS: u64 = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `experiment::fig1(7000, 600 s, seed)`: the synchronous closed loop.
    Fig1Closed,
    /// Both arms of `experiment::trace_replay` over the bundled hour.
    TraceReplay,
    /// Control and detection frontier sweeps with metrics, tracing and
    /// root-cause export.
    Planes,
    /// `fig12_grid` over several seeds through the parallel runner.
    Fig12Sweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig1Closed,
        Workload::TraceReplay,
        Workload::Planes,
        Workload::Fig12Sweep,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1Closed => "fig1_closed",
            Workload::TraceReplay => "trace_replay",
            Workload::Planes => "planes",
            Workload::Fig12Sweep => "fig12_sweep",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The specs one rep runs, in order. With `probes`, trace sources are
    /// wrapped in a [`TimedSource`] and every spec turns the metrics plane
    /// on, so the calendar and slab gauges can be read from its snapshots.
    pub fn specs(self, seed: u64, probes: Option<&Probes>) -> Vec<ExperimentSpec> {
        let seeds = (0..SWEEP_SEEDS).map(|k| seed.wrapping_add(k));
        let mut specs: Vec<ExperimentSpec> = match self {
            Workload::Fig1Closed => vec![experiment::fig1(FIG1_CLIENTS, FIG1_HORIZON, seed)],
            Workload::TraceReplay => [TraceReplayArm::Baseline, TraceReplayArm::Hardened]
                .into_iter()
                .map(|arm| {
                    trace_replay_spec(TRACE_REPLAY_FIXTURE, arm, seed, probes.map(|p| &p.source))
                })
                .collect(),
            Workload::Planes => seeds
                .flat_map(|s| {
                    let mut sweep = experiment::control_frontier_sweep(s);
                    sweep.extend(experiment::detection_frontier_sweep(s));
                    sweep
                })
                .collect(),
            Workload::Fig12Sweep => seeds.flat_map(experiment::fig12_grid).collect(),
        };
        if self == Workload::Planes || probes.is_some() {
            for spec in &mut specs {
                spec.system.metrics = Some(MetricsConfig::paper_default());
            }
        }
        specs
    }

    /// Whether the workload runs through `ntier_runner` rather than one
    /// engine after another.
    pub fn uses_runner(self) -> bool {
        self == Workload::Fig12Sweep
    }
}

/// `experiment::trace_replay_csv`, with the trace source optionally
/// rebuilt inside a [`TimedSource`]. The rebuilt source is the one the
/// experiment constructs, which the probe tests pin by fingerprint.
pub fn trace_replay_spec(
    csv: &'static str,
    arm: TraceReplayArm,
    seed: u64,
    probe: Option<&Arc<Probe>>,
) -> ExperimentSpec {
    let mut spec = experiment::trace_replay_csv(csv, arm, seed);
    if let Some(probe) = probe {
        let source = TracePlans::new(
            TraceArrivals::new(trace_reader(csv)),
            TraceDemandModel::paper_default(),
        );
        spec.workload = EngineWorkload::from_source(TimedSource::new(source, probe.clone()));
    }
    spec
}

fn trace_reader(csv: &'static str) -> ClusterTraceReader<Cursor<&'static str>> {
    ClusterTraceReader::new(Cursor::new(csv), TraceDialect::Alibaba)
}

/// The adapters of a traced rep.
#[derive(Debug, Default)]
pub struct Probes {
    /// Around the trace-replay arrival source.
    pub source: Arc<Probe>,
    /// Around the `planes` metrics sink.
    pub sink: Arc<Probe>,
}

/// What one run left behind, reduced to what the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Hash of the whole report's `Debug` form.
    pub fingerprint: u64,
    /// Conserved and free of workload faults.
    pub sound: bool,
    pub events: u64,
    pub injected: u64,
    pub horizon_s: f64,
    pub completed: u64,
    pub vlrt: u64,
    pub drops: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub shed: u64,
    pub hedges: u64,
    pub cancels: u64,
    pub trace_started: u64,
    pub trace_retained: u64,
    pub trace_evicted: u64,
    pub decisions: u64,
    pub snapshots: u64,
    pub peak_occupancy: u64,
    pub peak_slab_live: u64,
    pub occupancy_sum: u64,
}

impl RunSummary {
    fn of(report: &RunReport) -> Self {
        let snaps = report.metrics.as_ref().map_or(&[][..], |m| m.snapshots());
        let trace = report.trace.as_ref();
        RunSummary {
            fingerprint: fingerprint(report),
            sound: report.is_conserved() && report.workload_fault.is_none(),
            events: report.events,
            injected: report.injected,
            horizon_s: report.horizon.as_secs_f64(),
            completed: report.completed,
            vlrt: report.vlrt_total,
            drops: report.drops_total,
            retries: report.resilience.retries,
            timeouts: report.resilience.timeouts,
            shed: report.resilience.shed,
            hedges: report.resilience.hedges,
            cancels: report.resilience.cancels_propagated,
            trace_started: trace.map_or(0, |t| t.started),
            trace_retained: trace.map_or(0, |t| t.traces.len() as u64),
            trace_evicted: trace.map_or(0, |t| t.evicted),
            decisions: report
                .control
                .as_ref()
                .map_or(0, |c| c.decisions.len() as u64),
            snapshots: snaps.len() as u64,
            peak_occupancy: snaps
                .iter()
                .map(|s| s.calendar_occupancy)
                .max()
                .unwrap_or(0),
            peak_slab_live: snaps.iter().map(|s| s.slab_live).max().unwrap_or(0),
            occupancy_sum: snaps.iter().map(|s| s.calendar_occupancy).sum(),
        }
    }

    /// The simulated statistics a traced or repeated run must reproduce.
    pub fn sim_stats(&self) -> (u64, u64, u64) {
        (self.injected, self.completed, self.vlrt)
    }
}

/// A deterministic hash of the report's `Debug` form, streamed so the
/// text is never held in memory.
pub fn fingerprint(report: &RunReport) -> u64 {
    struct HashWriter(DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut h = HashWriter(DefaultHasher::new());
    write!(h, "{report:?}").expect("hashing into memory cannot fail");
    h.0.finish()
}

/// One repetition of a workload, timed stage by stage.
#[derive(Debug, Default)]
pub struct Rep {
    /// Building specs and engines.
    pub setup_s: f64,
    /// `Engine::run` (or `try_run_all`).
    pub sim_s: f64,
    /// Setup, simulation and post-run analysis/export together.
    pub wall_s: f64,
    /// Peak live heap bytes while simulating: the mean of each run's peak
    /// for serial workloads (a seed's largest run would otherwise set it
    /// alone), the whole parallel phase's peak for the runner.
    pub peak_heap: f64,
    /// `analysis::detect`.
    pub detect_s: f64,
    /// CTQO episodes `detect` found.
    pub episodes: u64,
    /// `csv::write_csv_bundle`.
    pub csv_s: f64,
    /// `RootCause::analyze_with_actions`.
    pub analyze_s: f64,
    /// `chrome_trace_json`.
    pub export_s: f64,
    /// Causal chains and VLRT traces the root-cause pass saw.
    pub chains: u64,
    pub vlrt_traces: u64,
    /// A runner worker panicked, so no run of this rep has a report.
    pub panicked: bool,
    /// Runs whose post-run export failed.
    pub export_failures: usize,
    /// One summary per spec, in spec order.
    pub runs: Vec<RunSummary>,
}

impl Rep {
    /// Requests injected across the rep.
    pub fn injected(&self) -> u64 {
        self.runs.iter().map(|r| r.injected).sum()
    }
}

fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs one rep of `w`. `out` receives the CSV bundles of the workloads
/// that export them; `threads` sizes the runner.
pub fn run_rep(w: Workload, seed: u64, probes: Option<&Probes>, out: &Path, threads: usize) -> Rep {
    let mut rep = Rep::default();
    let start = Instant::now();
    let specs = w.specs(seed, probes);
    rep.setup_s = secs_since(start);
    if w.uses_runner() {
        alloc::reset_peak();
        let start = Instant::now();
        let result = ntier_runner::try_run_all(specs, threads);
        rep.sim_s = secs_since(start);
        rep.peak_heap = alloc::peak() as f64;
        match result {
            Ok(reports) => rep.runs = reports.iter().map(RunSummary::of).collect(),
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                rep.panicked = true;
            }
        }
    } else {
        let n = specs.len();
        for (i, spec) in specs.into_iter().enumerate() {
            let system = spec.system.clone();
            let start = Instant::now();
            let mut engine = Engine::new(spec.system, spec.workload, spec.horizon, spec.seed);
            if w == Workload::Planes {
                let sink: Box<dyn std::io::Write + Send> = match probes {
                    Some(p) => Box::new(CountingSink::new(std::io::sink(), p.sink.clone())),
                    None => Box::new(std::io::sink()),
                };
                engine = engine.with_metrics_sink(sink);
            }
            rep.setup_s += secs_since(start);
            alloc::reset_peak();
            let start = Instant::now();
            let report = engine.run();
            rep.sim_s += secs_since(start);
            rep.peak_heap += alloc::peak() as f64 / n as f64;
            post_run(w, &report, &system, &out.join(i.to_string()), &mut rep);
            rep.runs.push(RunSummary::of(&report));
        }
    }
    rep.wall_s = rep.setup_s + rep.sim_s + rep.detect_s + rep.csv_s + rep.analyze_s + rep.export_s;
    rep
}

/// The post-run analysis and export each workload's user would run.
fn post_run(
    w: Workload,
    report: &RunReport,
    system: &ntier_core::SystemConfig,
    dir: &Path,
    rep: &mut Rep,
) {
    match w {
        Workload::Fig1Closed | Workload::TraceReplay => {
            let start = Instant::now();
            let episodes = analysis::detect(report, system, SimDuration::from_secs(1));
            rep.detect_s += secs_since(start);
            rep.episodes += episodes.len() as u64;
            let start = Instant::now();
            let written = ntier_core::csv::write_csv_bundle(report, dir);
            rep.csv_s += secs_since(start);
            if let Err(e) = written {
                eprintln!("{}: csv bundle to {}: {e}", w.name(), dir.display());
                rep.export_failures += 1;
            }
        }
        Workload::Planes => {
            let Some(log) = &report.trace else {
                rep.export_failures += 1;
                return;
            };
            let start = Instant::now();
            let analysis = RootCause::default().analyze_with_actions(
                log,
                &report.trace_tier_data(),
                &report.control_actions(),
            );
            rep.analyze_s += secs_since(start);
            rep.chains += analysis.chains.len() as u64;
            rep.vlrt_traces += analysis.vlrt_total as u64;
            let names: Vec<String> = report.tiers.iter().map(|t| t.name.clone()).collect();
            let start = Instant::now();
            let json = ntier_trace::chrome_trace_json(log, &names);
            rep.export_s += secs_since(start);
            std::hint::black_box(json);
        }
        Workload::Fig12Sweep => {}
    }
}

/// Host seconds to build the workload's specs and one `Engine` per spec,
/// one engine at a time as a rep builds them (dropping each is not
/// timed). The runner workload builds its engines inside the runner; they
/// are built here all the same, so `setup_s` means the same on every
/// workload.
pub fn setup_once(w: Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let specs = w.specs(seed, None);
    let mut total = secs_since(start);
    for s in specs {
        let start = Instant::now();
        let engine = Engine::new(s.system, s.workload, s.horizon, s.seed);
        total += secs_since(start);
        drop(std::hint::black_box(engine));
    }
    total
}

/// Host seconds per spec when the runner's specs run one after another:
/// the serial sum and the longest single spec.
pub fn serial_spec_times(w: Workload, seed: u64) -> (f64, f64) {
    let mut sum = 0.0;
    let mut longest: f64 = 0.0;
    for spec in w.specs(seed, None) {
        let start = Instant::now();
        std::hint::black_box(spec.run());
        let s = secs_since(start);
        sum += s;
        longest = longest.max(s);
    }
    (sum, longest)
}

/// Host seconds to parse the bundled trace and expand it into instance
/// arrivals, with no engine attached.
pub fn trace_parse_s(seed: u64) -> f64 {
    use ntier_workload::ArrivalSource;
    let mut rng = ntier_des::rng::SimRng::seed_from(seed).fork("arrival-source");
    let start = Instant::now();
    let mut arrivals = TraceArrivals::new(trace_reader(TRACE_REPLAY_FIXTURE));
    let mut n = 0u64;
    while arrivals.next_arrival(&mut rng).is_some() {
        n += 1;
    }
    std::hint::black_box(n);
    secs_since(start)
}

/// Nanoseconds per `EventQueue` push+pop pair in the classic hold model:
/// the queue is held at `occupancy` entries, and each popped event is
/// pushed back an exponential `mean_hold_s` later. With `mean_hold_s` =
/// occupancy × the workload's simulated seconds per event, the queue sees
/// the workload's event density as well as its size.
pub fn queue_ns_per_op(occupancy: usize, mean_hold_s: f64, seed: u64) -> f64 {
    use ntier_des::dist::{Distribution, Exponential};
    use ntier_des::prelude::{EventQueue, SimRng, SimTime};
    const OPS: usize = 1 << 21;
    let gap = Exponential::with_mean(mean_hold_s.max(1e-6));
    let mut rng = SimRng::seed_from(seed).fork("queue-hold");
    let gaps: Vec<SimDuration> = (0..1 << 16).map(|_| gap.sample(&mut rng)).collect();
    let mut q: EventQueue<u64> = EventQueue::with_capacity(occupancy.max(1));
    for i in 0..occupancy.max(1) {
        q.push(SimTime::ZERO + gaps[i % gaps.len()], i as u64);
    }
    let start = Instant::now();
    for i in 0..OPS {
        let (t, ev) = q.pop().expect("the hold model keeps the queue non-empty");
        q.push(t + gaps[i % gaps.len()], std::hint::black_box(ev));
    }
    start.elapsed().as_nanos() as f64 / OPS as f64
}

/// The planes the workload's specs enable, sorted and deduplicated.
pub fn planes(specs: &[ExperimentSpec]) -> Vec<&'static str> {
    let mut planes = Vec::new();
    for s in specs {
        let sys = &s.system;
        let tiers = &sys.tiers;
        for (on, name) in [
            (sys.trace.enabled, "trace"),
            (sys.control.is_some(), "control"),
            (sys.health.is_some(), "health"),
            (sys.metrics.is_some(), "metrics"),
            (!sys.faults.is_empty(), "faults"),
            (
                tiers.iter().any(|t| t.caller_policy.is_some()),
                "caller_policy",
            ),
            (tiers.iter().any(|t| t.shed.is_some()), "shed"),
            (tiers.iter().any(|t| t.replicas > 1), "replica_sets"),
            (
                matches!(s.workload, EngineWorkload::Source(_)),
                "streamed_source",
            ),
        ] {
            if on {
                planes.push(name);
            }
        }
    }
    planes.sort_unstable();
    planes.dedup();
    planes
}

/// A hash of every spec's `Debug` form, in order.
pub fn config_fingerprint(specs: &[ExperimentSpec]) -> u64 {
    let mut h = DefaultHasher::new();
    for s in specs {
        h.write(format!("{s:?}").as_bytes());
    }
    h.finish()
}
