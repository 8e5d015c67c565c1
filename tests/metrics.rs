//! Contracts of the streaming observability plane.
//!
//! Two hard guarantees, mirroring the tracing and health planes:
//!
//! * **Off ⇒ invisible.** With `SystemConfig::metrics` unset nothing in
//!   the engine's behavior changes — the golden presets in
//!   `determinism.rs` pin that baseline. With it *set*, the plane must
//!   still be a pure observer: every report field outside `metrics` stays
//!   bit-identical to the unmetered run, because the tick handler only
//!   reads simulation state and reschedules itself.
//! * **On ⇒ deterministic.** The snapshot stream is part of the replayed
//!   event order, so it must be bit-identical across runner thread counts
//!   and across repeated runs of the same seed.

#![deny(deprecated)]

use ntier_core::engine::{Engine, Workload};
use ntier_core::{experiment, ExperimentSpec, TierSpec, Topology};
use ntier_des::prelude::*;
use ntier_telemetry::MetricsConfig;
use ntier_workload::{ClosedLoopSpec, RequestMix};

fn metered(mut spec: ExperimentSpec) -> ExperimentSpec {
    spec.system = spec.system.with_metrics(MetricsConfig::paper_default());
    spec
}

fn closed_50_spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        name: "closed_50",
        system: Topology::three_tier(
            TierSpec::sync("Web", 4, 2),
            TierSpec::sync("App", 4, 2).with_downstream_pool(2),
            TierSpec::sync("Db", 4, 2),
        ),
        workload: Workload::Closed {
            spec: ClosedLoopSpec::rubbos(50),
            mix: RequestMix::rubbos_browse(),
        },
        horizon: SimDuration::from_secs(20),
        seed,
    }
}

/// Everything observable about a run *except* the metrics registry and the
/// raw event count, flattened for equality comparison. The metered run
/// additionally carries `report.metrics`, and — like the health plane's
/// `HealthTick` — each `MetricsTick` is itself one engine event, so
/// `report.events` grows by exactly one per snapshot (asserted separately);
/// nothing else may differ.
fn fingerprint(r: &ntier_core::RunReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let q = |p: f64| {
        r.latency
            .quantile(p)
            .map_or(0, ntier_des::time::SimDuration::as_micros)
    };
    write!(
        s,
        "inj={} comp={} fail={} shed={} canc={} infl={} vlrt={} drops={} mean={} \
         q50={} q99={} q9999={} classes={:?} res={:?} vlrt_windows={:?} control={:?}",
        r.injected,
        r.completed,
        r.failed,
        r.shed,
        r.cancelled,
        r.in_flight_end,
        r.vlrt_total,
        r.drops_total,
        r.latency.mean().as_micros(),
        q(0.50),
        q(0.99),
        q(0.9999),
        r.classes,
        r.resilience,
        r.vlrt_by_completion.sums(),
        r.control
            .as_ref()
            .map(ntier_repro::control::ControlLog::summary),
    )
    .unwrap();
    for t in &r.tiers {
        write!(
            s,
            " | {} peak={} drops={} res={:?} qmax={:?} dsum={:?} util={:?}",
            t.name,
            t.peak_queue,
            t.drops_total,
            t.resilience,
            t.queue_depth.maxima(),
            t.drops.sums(),
            t.util.utilizations(),
        )
        .unwrap();
    }
    s
}

/// A named preset whose closure yields a fresh unmetered spec.
type Preset = (&'static str, fn() -> ExperimentSpec);

/// Presets used for the determinism matrix below.
fn presets() -> Vec<Preset> {
    vec![
        ("closed_50", || closed_50_spec(7)),
        ("fig3", || experiment::fig3(3)),
        ("retry_storm", || {
            experiment::retry_storm(experiment::RetryStormVariant::Naive, 7)
        }),
        ("chain_depth", || experiment::chain_depth(5, false, 3)),
        ("fig1", || {
            experiment::fig1(3_000, SimDuration::from_secs(10), 1)
        }),
    ]
}

/// The metrics plane is a pure observer: enabling it changes `report.metrics`
/// from `None` to `Some` and nothing else, on every golden preset.
#[test]
fn metrics_plane_never_perturbs_golden_presets() {
    for (name, make) in presets() {
        let plain = make().run();
        let observed = metered(make()).run();
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&observed),
            "{name}: enabling metrics perturbed the run"
        );
        assert!(
            plain.metrics.is_none(),
            "{name}: unmetered run grew metrics"
        );
        let reg = observed
            .metrics
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: metered run lost its registry"));
        assert!(
            !reg.snapshots().is_empty(),
            "{name}: metered run never snapshotted"
        );
        assert_eq!(
            observed.events,
            plain.events + reg.snapshots().len() as u64,
            "{name}: the only extra events are the ticks themselves"
        );
        assert_eq!(
            reg.sketch().total(),
            observed.completed,
            "{name}: every completion feeds the run-wide sketch"
        );
        assert_eq!(
            reg.ring().total_count(),
            observed.completed,
            "{name}: every completion folds into the ring"
        );
    }
}

/// The snapshot stream is bit-identical across runner worker-pool sizes,
/// and across repeated runs of the same seed.
#[test]
fn metrics_stream_is_thread_count_and_rerun_invariant() {
    let specs = || {
        presets()
            .into_iter()
            .map(|(_, make)| metered(make()))
            .collect::<Vec<_>>()
    };
    let jsonls = |reports: Vec<ntier_core::RunReport>| {
        reports
            .into_iter()
            .map(|r| r.metrics.expect("metered").jsonl())
            .collect::<Vec<_>>()
    };
    let serial = jsonls(ntier_runner::run_all(specs(), 1));
    let parallel = jsonls(ntier_runner::run_all(specs(), 8));
    assert_eq!(serial, parallel, "metrics stream depends on thread count");
    let rerun = jsonls(ntier_runner::run_all(specs(), 8));
    assert_eq!(serial, rerun, "metrics stream is not reproducible");
}

/// A `Write` sink shared with the test so the streamed bytes can be read
/// back after the engine consumed the boxed writer.
#[derive(Clone)]
struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The sink sees exactly the registry's snapshot stream, written line by
/// line as the simulation progresses — not a differently-rendered copy.
#[test]
fn sink_streams_exactly_the_snapshot_lines() {
    let sink = SharedSink(std::sync::Arc::default());
    let spec = metered(closed_50_spec(7));
    let report = Engine::new(spec.system, spec.workload, spec.horizon, spec.seed)
        .with_metrics_sink(Box::new(sink.clone()))
        .run();
    let streamed = String::from_utf8(sink.0.lock().expect("sink lock").clone()).expect("utf8");
    assert_eq!(streamed, report.metrics.expect("metered").jsonl());
    assert!(
        streamed.lines().count() >= 19,
        "a 20 s run at 1 s ticks should stream ~20 snapshots"
    );
    assert!(
        streamed.lines().all(|l| l.starts_with("{\"t_us\":")),
        "every line is one JSON snapshot"
    );
}

/// A `Write` sink that accepts `budget` bytes and then fails every write,
/// like a full disk or a closed pipe.
struct FailingSink {
    budget: usize,
}

impl std::io::Write for FailingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.budget == 0 {
            return Err(std::io::Error::other("sink full"));
        }
        let n = buf.len().min(self.budget);
        self.budget -= n;
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A failing sink ends the stream, not the run: the fault is reported, the
/// registry still holds every snapshot, and the simulation is the one the
/// unsinked run produced.
#[test]
fn failed_sink_write_is_reported_not_fatal() {
    let spec = metered(closed_50_spec(7));
    let failing = Engine::new(spec.system, spec.workload, spec.horizon, spec.seed)
        .with_metrics_sink(Box::new(FailingSink { budget: 1_000 }))
        .run();
    let unsinked = metered(closed_50_spec(7)).run();
    let fault = failing
        .metrics_sink_fault
        .as_deref()
        .expect("fault surfaced");
    assert!(fault.contains("sink full"), "{fault}");
    assert!(unsinked.metrics_sink_fault.is_none());
    assert_eq!(fingerprint(&failing), fingerprint(&unsinked));
    assert_eq!(failing.events, unsinked.events);
    let reg = failing.metrics.as_ref().expect("metered");
    assert!(reg.snapshots().len() >= 19, "one snapshot per 1 s tick");
    assert_eq!(
        reg.jsonl(),
        unsinked.metrics.as_ref().expect("metered").jsonl(),
        "the registry keeps every snapshot after the sink is dropped"
    );
}

/// Snapshot internal consistency on a real run: monotone time, delta
/// telescoping, and occupancy arithmetic against the final report.
#[test]
fn snapshot_stream_is_internally_consistent() {
    let report = metered(closed_50_spec(42)).run();
    let reg = report.metrics.as_ref().expect("metered");
    let snaps = reg.snapshots();
    let mut prev_t = 0;
    let mut events_sum = 0;
    let mut completed_sum = 0;
    for s in snaps {
        assert!(s.t_us > prev_t, "tick times strictly increase");
        prev_t = s.t_us;
        events_sum += s.events_delta;
        completed_sum += s.completed_delta;
        assert!(s.slab_live <= s.slab_slots);
        assert!(s.completed <= s.injected);
        for tier in &s.tiers {
            for rep in &tier.replicas {
                assert!(rep.util_ppm <= 1_000_000, "utilization is a fraction");
            }
        }
    }
    let last = snaps.last().expect("non-empty");
    assert_eq!(events_sum, last.events_handled, "events deltas telescope");
    assert_eq!(completed_sum, last.completed, "completed deltas telescope");
    // The last tick fires at or before the horizon, so its totals are a
    // prefix of the final report's.
    assert!(last.events_handled <= report.events);
    assert!(last.completed <= report.completed);
}
