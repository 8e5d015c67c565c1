//! Streaming observability smoke: an hour of simulated bursty traffic with
//! the metrics plane on, snapshots streamed to `metrics.jsonl`, and the
//! snapshot-count and accuracy contracts checked at the end.
//!
//! The run demonstrates the two pieces working together:
//!
//! * the engine's `MetricsTick` freezes one [`MetricsSnapshot`] per
//!   simulated second and streams it as a JSONL line through the sink —
//!   3 600 lines for the hour, written as the run progresses, not at the
//!   end;
//! * the run-wide [`QuantileSketch`] must agree with the full
//!   [`LatencyHistogram`] reference within the combined error bound
//!   (histogram bucket width + sketch relative error) at p50/p99/p999.
//!
//! Run with: `cargo run --release --example metrics_stream [seed] [outdir]`
//!
//! [`MetricsSnapshot`]: ntier_telemetry::MetricsSnapshot
//! [`QuantileSketch`]: ntier_telemetry::QuantileSketch
//! [`LatencyHistogram`]: ntier_telemetry::LatencyHistogram

use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

use ntier_core::engine::{Engine, Workload};
use ntier_core::{TierSpec, Topology};
use ntier_des::prelude::*;
use ntier_des::rng::SimRng;
use ntier_telemetry::{LatencyHistogram, MetricsConfig, QuantileSketch};
use ntier_workload::{Mmpp2, RequestMix};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map_or(7, |s| s.parse().expect("seed: u64"));
    let outdir: PathBuf = args
        .next()
        .map_or_else(|| PathBuf::from("target/metrics-stream"), PathBuf::from);
    std::fs::create_dir_all(&outdir).expect("create output directory");

    // An hour of MMPP(2) traffic: calm 20 req/s baseline with 100 req/s
    // bursts every ~30 s — bursty enough to move the quantiles, light
    // enough that the hour simulates in seconds.
    let horizon = SimDuration::from_secs(3_600);
    let mut mmpp = Mmpp2::new(20.0, 100.0, 30.0, 0.4);
    let mut rng = SimRng::seed_from(seed).fork("metrics-stream-arrivals");
    let arrivals = mmpp.arrivals(horizon, &mut rng);
    println!(
        "workload: {} arrivals over {horizon} (mean rate {:.1}/s, seed {seed})",
        arrivals.len(),
        mmpp.mean_rate()
    );

    let sys = Topology::three_tier(
        TierSpec::sync("Web", 60, 8),
        TierSpec::sync("App", 40, 6),
        TierSpec::sync("Db", 40, 6),
    )
    .with_metrics(MetricsConfig::paper_default());

    let sink = BufWriter::new(File::create(outdir.join("metrics.jsonl")).expect("create sink"));
    let report = Engine::new(
        sys,
        Workload::open(arrivals, RequestMix::view_story()),
        horizon,
        seed,
    )
    .with_metrics_sink(Box::new(sink))
    .run();

    println!(
        "run: injected {} completed {} drops {} vlrt {}",
        report.injected, report.completed, report.drops_total, report.vlrt_total
    );

    let reg = report.metrics.as_ref().expect("metrics plane was enabled");
    println!(
        "stream: {} snapshots -> {}",
        reg.snapshots().len(),
        outdir.join("metrics.jsonl").display()
    );
    assert!(
        reg.snapshots().len() >= 3_500,
        "an hour at 1 s ticks must snapshot ~3600 times, got {}",
        reg.snapshots().len()
    );

    // Accuracy: sketch quantiles vs the full-histogram reference. The
    // histogram resolves to 50 ms bucket upper edges, the sketch to
    // 1/256 relative error, so the two may differ by at most one bucket
    // plus the relative-error envelope.
    let sketch = reg.sketch();
    assert_eq!(sketch.total(), report.completed);
    let bucket = LatencyHistogram::BUCKET_WIDTH.as_micros() as f64;
    for q in [0.50, 0.99, 0.999] {
        let s = sketch.quantile(q).expect("non-empty run").as_micros() as f64;
        let h = report
            .latency
            .quantile(q)
            .expect("non-empty run")
            .as_micros() as f64;
        let tolerance = bucket + s.max(h) * QuantileSketch::RELATIVE_ERROR;
        println!("q{q}: sketch {s:.0} us vs histogram {h:.0} us (tolerance {tolerance:.0} us)");
        assert!(
            (s - h).abs() <= tolerance,
            "q{q}: sketch {s} vs histogram {h} exceeds tolerance {tolerance}"
        );
    }
    println!("ok: snapshot stream + quantile agreement within error bound");
}
