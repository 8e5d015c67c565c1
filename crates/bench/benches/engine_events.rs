//! Engine throughput micro-benchmark: events per second on the two
//! heaviest presets (Fig. 1 at WL 7000 and the full Fig. 12 concurrency
//! grid), plus the parallel runner's wall-clock scaling across worker
//! counts. Results are written to `BENCH_engine.json` at the repository
//! root so the numbers ride along with the code that produced them.
//! Every scaling row records `host_cores` alongside its wall-clock: the
//! core count is the binding resource, and a speedup column without it
//! is not an honest measurement.
//!
//! The `baseline_*` constants are the same workloads measured on this
//! machine immediately before the calendar event queue, the request slab,
//! and the hot-path allocation removals landed — same specs, same seeds,
//! and (asserted below) the same completion counts, so wall-clock ratios
//! compare identical work.
//!
//! `ENGINE_BENCH_QUICK=1` shortens reps for CI smoke runs; quick results
//! carry `"mode": "quick"` and skip the baseline comparison, which is only
//! meaningful at full length.

use ntier_core::experiment::{self as exp, ExperimentSpec};
use ntier_core::RunReport;
use ntier_des::prelude::*;
use ntier_trace::TraceConfig;
use std::fmt::Write as _;
use std::time::Instant;

/// Best observed wall-clock for `exp::fig1(7_000, 120 s, 1)` on the
/// pre-overhaul engine (completed = 117 919).
const BASELINE_FIG1_WALL_S: f64 = 0.386;
const BASELINE_FIG1_COMPLETED: u64 = 117_919;
/// Best observed serial wall-clock for the 30-spec Fig. 12 sweep
/// (5 concurrencies × {sync, async} × seeds 1-3) on the pre-overhaul
/// engine (completed = 677 783).
const BASELINE_FIG12_WALL_S: f64 = 1.632;
const BASELINE_FIG12_COMPLETED: u64 = 677_783;

fn quick() -> bool {
    std::env::var_os("ENGINE_BENCH_QUICK").is_some()
}

/// `ENGINE_BENCH_REBASELINE=1` skips the throughput gate for the one full
/// run that intentionally moves the committed baseline (e.g. after a
/// deliberate hot-path change); the regenerated JSON then becomes the new
/// floor for every subsequent run.
fn rebaseline() -> bool {
    std::env::var_os("ENGINE_BENCH_REBASELINE").is_some()
}

const BENCH_JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");

/// The fig1 `events_per_sec` recorded in the committed `BENCH_engine.json`,
/// if present — the regression floor for the disabled-tracing hot path.
fn committed_events_per_sec() -> Option<f64> {
    let json = std::fs::read_to_string(BENCH_JSON_PATH).ok()?;
    let tail = &json[json.find("\"events_per_sec\"")? + "\"events_per_sec\"".len()..];
    tail.trim_start_matches([':', ' '])
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .next()?
        .parse()
        .ok()
}

/// The metered `events_per_sec` recorded in the committed `metrics`
/// section, if present — the regression floor for the metrics-enabled
/// hot path (per-completion sketch/ring records plus one tick per second).
fn committed_metrics_events_per_sec() -> Option<f64> {
    let json = std::fs::read_to_string(BENCH_JSON_PATH).ok()?;
    let section = &json[json.find("\"metrics\"")?..];
    let tail = &section[section.find("\"events_per_sec\"")? + "\"events_per_sec\"".len()..];
    tail.trim_start_matches([':', ' '])
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .next()?
        .parse()
        .ok()
}

fn fig12_sweep_specs() -> Vec<ExperimentSpec> {
    [1u64, 2, 3].into_iter().flat_map(exp::fig12_grid).collect()
}

/// Times `make().run()` `reps` times; returns (best wall seconds, report).
fn best_of(reps: usize, make: impl Fn() -> ExperimentSpec) -> (f64, RunReport) {
    let mut best = f64::INFINITY;
    let mut kept = None;
    for _ in 0..reps {
        let spec = make();
        let t = Instant::now();
        let r = spec.run();
        best = best.min(t.elapsed().as_secs_f64());
        kept = Some(r);
    }
    (best, kept.expect("reps >= 1"))
}

fn main() {
    let quick = quick();
    let reps = if quick { 1 } else { 3 };
    // Wall-clock gates ride on the fig1 measurements, so take more samples
    // there: best-of-8 converges on the true floor even on a noisy host.
    let fig1_reps = if quick { 1 } else { 8 };
    let cores = ntier_runner::default_threads();
    let fig1_horizon = SimDuration::from_secs(if quick { 12 } else { 120 });

    // --- Fig. 1: single-run engine throughput --------------------------
    let (mut fig1_wall, fig1_report) = best_of(fig1_reps, || exp::fig1(7_000, fig1_horizon, 1));
    // Throughput gate (full mode): the disabled-tracing hot path must stay
    // within 3% of the committed floor. Noise only ever inflates wall
    // clock, so a shortfall earns extra samples before it counts as a real
    // regression — a genuine slowdown can never reach the old floor no
    // matter how many reps it gets.
    let baseline_eps = (!quick && !rebaseline())
        .then(committed_events_per_sec)
        .flatten();
    if let Some(baseline) = baseline_eps {
        let mut extra = 0;
        while fig1_report.events as f64 / fig1_wall < baseline * 0.97 && extra < 24 {
            let (w, _) = best_of(1, || exp::fig1(7_000, fig1_horizon, 1));
            fig1_wall = fig1_wall.min(w);
            extra += 1;
        }
    }
    let fig1_eps = fig1_report.events as f64 / fig1_wall;
    if let Some(baseline) = baseline_eps {
        assert!(
            fig1_eps >= baseline * 0.97,
            "disabled-tracing fig1 throughput {fig1_eps:.0} ev/s fell more than 3% \
             below the committed BENCH_engine.json baseline {baseline:.0} ev/s \
             (rerun with ENGINE_BENCH_REBASELINE=1 only for an intentional change)"
        );
    }
    println!(
        "engine_events fig1: wall {fig1_wall:.3}s  events {}  completed {}  {:.2}M events/s",
        fig1_report.events,
        fig1_report.completed,
        fig1_eps / 1e6
    );

    // --- Tracing overhead: disabled must stay free, sampled must be cheap
    // The disabled-tracing run above IS the shipping hot path (one Option
    // check per record site); gate it against the committed baseline so
    // instrumentation creep shows up as a bench failure, not a silent tax.
    let (traced_wall, traced_report) = best_of(fig1_reps, || {
        let mut spec = exp::fig1(7_000, fig1_horizon, 1);
        spec.system = spec
            .system
            .with_trace(TraceConfig::sampled(0.01).with_ring_capacity(32_768));
        spec
    });
    assert_eq!(
        traced_report.completed, fig1_report.completed,
        "tracing changed the simulation"
    );
    let tracing_overhead = traced_wall / fig1_wall - 1.0;
    println!(
        "engine_events tracing: sampled-1% wall {traced_wall:.3}s  overhead {:+.1}% vs disabled",
        tracing_overhead * 100.0
    );
    if quick {
        // CI smoke: coarse sanity only — short horizons are too noisy for a
        // tight wall-clock gate, but a 1% sample must never cost 50%.
        assert!(
            traced_wall <= fig1_wall * 1.5,
            "sampled tracing overhead {traced_wall:.3}s vs {fig1_wall:.3}s"
        );
    }

    // --- Metrics overhead: the streaming plane must observe, not tax ---
    // Per completion the plane records into the run sketch, the tick-window
    // sketch and the ring; per simulated second one MetricsTick freezes a
    // snapshot. Everything else about the run must be untouched — each tick
    // is itself one engine event, so the event count grows by exactly one
    // per snapshot and nothing else moves.
    let (mut metered_wall, metered_report) = best_of(fig1_reps, || {
        let mut spec = exp::fig1(7_000, fig1_horizon, 1);
        spec.system = spec
            .system
            .with_metrics(ntier_telemetry::MetricsConfig::paper_default());
        spec
    });
    assert_eq!(
        metered_report.completed, fig1_report.completed,
        "metrics changed the simulation"
    );
    let snapshots = metered_report
        .metrics
        .as_ref()
        .expect("metered run keeps its registry")
        .snapshots()
        .len() as u64;
    assert_eq!(
        metered_report.events,
        fig1_report.events + snapshots,
        "the only extra events are the ticks themselves"
    );
    // Throughput gate (full mode): metered events/s must stay within 5% of
    // its committed floor, same extra-sample policy as the fig1 gate;
    // `ENGINE_BENCH_REBASELINE=1` exempts an intentional rebaseline.
    let metrics_baseline = (!quick && !rebaseline())
        .then(committed_metrics_events_per_sec)
        .flatten();
    if let Some(baseline) = metrics_baseline {
        let mut extra = 0;
        while metered_report.events as f64 / metered_wall < baseline * 0.95 && extra < 12 {
            let (w, _) = best_of(1, || {
                let mut spec = exp::fig1(7_000, fig1_horizon, 1);
                spec.system = spec
                    .system
                    .with_metrics(ntier_telemetry::MetricsConfig::paper_default());
                spec
            });
            metered_wall = metered_wall.min(w);
            extra += 1;
        }
        let eps = metered_report.events as f64 / metered_wall;
        assert!(
            eps >= baseline * 0.95,
            "metered fig1 throughput {eps:.0} ev/s fell more than 5% below the committed \
             metrics baseline {baseline:.0} ev/s \
             (rerun with ENGINE_BENCH_REBASELINE=1 only for an intentional change)"
        );
    }
    let metrics_eps = metered_report.events as f64 / metered_wall;
    let metrics_overhead = metered_wall / fig1_wall - 1.0;
    println!(
        "engine_events metrics: 1s-tick wall {metered_wall:.3}s  {} snapshots  \
         overhead {:+.1}% vs disabled",
        snapshots,
        metrics_overhead * 100.0
    );
    if quick {
        // CI smoke: coarse sanity only, as for tracing — a once-a-second
        // tick plus O(1) per-completion records must never cost 50%.
        assert!(
            metered_wall <= fig1_wall * 1.5,
            "metrics overhead {metered_wall:.3}s vs {fig1_wall:.3}s"
        );
    }

    // --- Fig. 12 sweep: serial engine throughput -----------------------
    let mut sweep_wall = f64::INFINITY;
    let mut sweep_events = 0u64;
    let mut sweep_completed = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        let reports = ntier_runner::run_all(fig12_sweep_specs(), 1);
        sweep_wall = sweep_wall.min(t.elapsed().as_secs_f64());
        sweep_events = reports.iter().map(|r| r.events).sum();
        sweep_completed = reports.iter().map(|r| r.completed).sum();
    }
    println!(
        "engine_events fig12 sweep: serial wall {sweep_wall:.3}s  events {sweep_events}  completed {sweep_completed}"
    );

    // --- Runner scaling: same sweep across worker counts ---------------
    let mut scaling = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let mut wall = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let reports = ntier_runner::run_all(fig12_sweep_specs(), threads);
            wall = wall.min(t.elapsed().as_secs_f64());
            let completed: u64 = reports.iter().map(|r| r.completed).sum();
            assert_eq!(completed, sweep_completed, "thread count changed results");
        }
        println!(
            "engine_events runner: {threads} thread(s)  wall {wall:.3}s  speedup {:.2}x",
            sweep_wall / wall
        );
        scaling.push((threads, wall));
    }

    // --- Emit BENCH_engine.json ----------------------------------------
    if !quick {
        assert_eq!(fig1_report.completed, BASELINE_FIG1_COMPLETED);
        assert_eq!(sweep_completed, BASELINE_FIG12_COMPLETED);
    }
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"fig1\": {{");
    let _ = writeln!(json, "    \"clients\": 7000,");
    let _ = writeln!(
        json,
        "    \"horizon_s\": {},",
        fig1_horizon.as_micros() / 1_000_000
    );
    let _ = writeln!(json, "    \"wall_s_best\": {fig1_wall:.4},");
    let _ = writeln!(json, "    \"events\": {},", fig1_report.events);
    let _ = writeln!(json, "    \"completed\": {},", fig1_report.completed);
    let _ = writeln!(json, "    \"events_per_sec\": {:.0},", fig1_eps);
    if !quick {
        let _ = writeln!(
            json,
            "    \"baseline_wall_s_best\": {BASELINE_FIG1_WALL_S},"
        );
        let _ = writeln!(
            json,
            "    \"baseline_completed\": {BASELINE_FIG1_COMPLETED},"
        );
        let _ = writeln!(
            json,
            "    \"speedup_vs_baseline\": {:.2},",
            BASELINE_FIG1_WALL_S / fig1_wall
        );
    }
    json.truncate(json.trim_end_matches([',', '\n']).len());
    json.push_str("\n  },\n");
    let _ = writeln!(json, "  \"tracing\": {{");
    let _ = writeln!(json, "    \"sampled_rate\": 0.01,");
    let _ = writeln!(json, "    \"sampled_wall_s_best\": {traced_wall:.4},");
    let _ = writeln!(
        json,
        "    \"overhead_vs_disabled\": {:.4}",
        tracing_overhead
    );
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"metrics\": {{");
    let _ = writeln!(json, "    \"interval_s\": 1,");
    let _ = writeln!(json, "    \"wall_s_best\": {metered_wall:.4},");
    let _ = writeln!(json, "    \"events\": {},", metered_report.events);
    let _ = writeln!(json, "    \"snapshots\": {snapshots},");
    let _ = writeln!(json, "    \"events_per_sec\": {metrics_eps:.0},");
    let _ = writeln!(
        json,
        "    \"overhead_vs_disabled\": {:.4}",
        metrics_overhead
    );
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"fig12_sweep\": {{");
    let _ = writeln!(json, "    \"specs\": 30,");
    let _ = writeln!(json, "    \"serial_wall_s_best\": {sweep_wall:.4},");
    let _ = writeln!(json, "    \"events\": {sweep_events},");
    let _ = writeln!(json, "    \"completed\": {sweep_completed},");
    if !quick {
        let _ = writeln!(
            json,
            "    \"baseline_serial_wall_s_best\": {BASELINE_FIG12_WALL_S},"
        );
        let _ = writeln!(
            json,
            "    \"baseline_completed\": {BASELINE_FIG12_COMPLETED},"
        );
        let _ = writeln!(
            json,
            "    \"serial_speedup_vs_baseline\": {:.2},",
            BASELINE_FIG12_WALL_S / sweep_wall
        );
    }
    let _ = writeln!(json, "    \"runner\": [");
    for (i, (threads, wall)) in scaling.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{ \"threads\": {threads}, \"host_cores\": {cores}, \"wall_s_best\": {wall:.4}, \"speedup_vs_serial\": {:.2} }}{}",
            sweep_wall / wall,
            if i + 1 == scaling.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "    ]");
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"note\": \"Runner speedups are hardware-bounded by host_cores; on a single-core host all thread counts serialize. Baselines were measured on the same host against the pre-overhaul engine running identical specs (equal completion counts asserted). The fig1 run doubles as the tracing-overhead gate: full-mode runs assert its (tracing-disabled) events_per_sec stays within 3% of the committed value here.\""
    );
    json.push('}');
    match std::fs::write(BENCH_JSON_PATH, &json) {
        Ok(()) => println!("(results written to BENCH_engine.json)"),
        Err(e) => eprintln!("(could not write {BENCH_JSON_PATH}: {e})"),
    }
}
