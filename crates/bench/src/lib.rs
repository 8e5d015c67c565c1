//! Shared helpers for the figure-regeneration harness.
//!
//! Each Criterion bench target in `benches/` (and several examples)
//! reproduces one table or figure from the paper. The experiments themselves
//! live in `ntier_core::experiment`; this crate hosts the presentation glue:
//! per-second aggregation of the 50 ms telemetry windows, timeline
//! rendering, and paper-vs-measured comparison rows.

use ntier_core::experiment::{ExperimentSpec, WARMUP};
use ntier_core::report::RunReport;
use ntier_des::time::SimDuration;
use ntier_telemetry::{render, MONITOR_WINDOW_MS};
use ntier_telemetry::{CounterSeries, PeakSeries};

/// Runs a figure's spec list on the deterministic parallel runner, one
/// worker per available core; reports come back in submission order, so
/// callers can zip them against the labels they built the specs from.
pub fn run_specs(specs: Vec<ExperimentSpec>) -> Vec<RunReport> {
    ntier_runner::run_all(specs, ntier_runner::default_threads())
}

/// Number of 50 ms windows in the warm-up period.
pub fn warmup_windows() -> usize {
    (WARMUP.as_millis() / MONITOR_WINDOW_MS) as usize
}

/// Windows per second of figure time.
pub const WINDOWS_PER_SECOND: usize = (1_000 / MONITOR_WINDOW_MS) as usize;

/// Figure-time seconds covered by a report (horizon minus warm-up).
pub fn figure_seconds(report: &RunReport) -> usize {
    (report.horizon.saturating_sub(WARMUP).as_millis() / 1_000) as usize
}

/// Per-second peaks of a per-window value vector, skipping the warm-up.
pub fn second_peaks(values: &[f64], seconds: usize) -> Vec<f64> {
    aggregate(values, seconds, f64::max)
}

/// Per-second sums of a per-window value vector, skipping the warm-up.
pub fn second_sums(values: &[f64], seconds: usize) -> Vec<f64> {
    aggregate(values, seconds, |a, b| a + b)
}

/// Folds each figure second's windows with `f`, starting from zero (the
/// reading of an untouched window).
fn aggregate<T: Copy + Default>(values: &[T], seconds: usize, f: impl Fn(T, T) -> T) -> Vec<T> {
    let w0 = warmup_windows();
    (0..seconds)
        .map(|s| {
            let base = w0 + s * WINDOWS_PER_SECOND;
            (0..WINDOWS_PER_SECOND)
                .map(|i| values.get(base + i).copied().unwrap_or_default())
                .fold(T::default(), &f)
        })
        .collect()
}

/// Per-second peak of a gauge series' per-window peaks.
pub fn series_second_peaks(series: &PeakSeries, seconds: usize) -> Vec<f64> {
    let peaks = aggregate(series.peaks(), seconds, u32::max);
    peaks.into_iter().map(f64::from).collect()
}

/// Per-second sum of a counter series' per-window counts.
pub fn series_second_sums(series: &CounterSeries, seconds: usize) -> Vec<f64> {
    let sums = aggregate(series.counts(), seconds, |a, b| a + b);
    sums.into_iter().map(f64::from).collect()
}

/// Prints the three panels of a timeline figure (CPU / queues / VLRT) the
/// way the paper's (a)(b)(c) subfigures arrange them.
pub fn print_timeline(report: &RunReport, title: &str) {
    let seconds = figure_seconds(report);
    println!("=== {title} ===");
    println!("(a) CPU utilization, peak per second (own work + co-located interference):");
    for tier in &report.tiers {
        let combined = second_peaks(&tier.combined_util(), seconds);
        println!("    {:<8} {}", tier.name, render::sparkline(&combined));
    }
    println!("(b) queued requests, peak per second:");
    for tier in &report.tiers {
        let depths = series_second_peaks(&tier.queue_depth, seconds);
        println!(
            "    {:<8} cap {:>5}  peak {:>5}  {}",
            tier.name,
            tier.capacity,
            tier.peak_queue,
            render::sparkline(&depths)
        );
    }
    println!("(c) VLRT requests per second (at drop time):");
    for tier in &report.tiers {
        let v = series_second_sums(&tier.vlrt, seconds);
        let total: f64 = v.iter().sum();
        if total > 0.0 {
            println!(
                "    {:<8} total {:>5}  {}",
                tier.name,
                total,
                render::sparkline(&v)
            );
        }
    }
    if report.vlrt_total == 0 {
        println!("    (none — no VLRT requests in this run)");
    }
    println!("summary: {}", report.summary().replace('\n', "\n         "));
}

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// What is being compared.
    pub metric: String,
    /// The paper's reported value (free text: "572 req/s").
    pub paper: String,
    /// Our measured value.
    pub measured: String,
}

impl Row {
    /// Builds a row.
    pub fn new(
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
    ) -> Self {
        Row {
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
        }
    }
}

/// Prints a paper-vs-measured table.
pub fn print_comparison(figure: &str, rows: &[Row]) {
    println!("--- {figure}: paper vs. measured ---");
    let w = rows
        .iter()
        .map(|r| r.metric.len())
        .max()
        .unwrap_or(6)
        .max(6);
    println!("{:<w$}  {:>18}  {:>18}", "metric", "paper", "measured");
    for r in rows {
        println!("{:<w$}  {:>18}  {:>18}", r.metric, r.paper, r.measured);
    }
}

/// Seconds → `SimDuration` shorthand used by several bench targets.
pub fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// Saves the report's CSV bundle under `target/figures/<figure>/` (best
/// effort: failures are printed, not fatal — bench runs should not die on a
/// read-only filesystem).
pub fn save_bundle(report: &RunReport, figure: &str) {
    let dir = std::path::Path::new("target").join("figures").join(figure);
    match ntier_core::csv::write_csv_bundle(report, &dir) {
        Ok(()) => println!("(CSV bundle written to {})", dir.display()),
        Err(e) => eprintln!("(could not write CSV bundle to {}: {e})", dir.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntier_core::engine::{Engine, Workload};
    use ntier_core::{presets, SystemConfig, TierSpec, Topology};
    use ntier_workload::RequestMix;

    fn tiny_report() -> RunReport {
        let sys: SystemConfig = Topology::three_tier(
            TierSpec::sync("Web", 4, 4),
            TierSpec::sync("App", 4, 4),
            TierSpec::sync("Db", 4, 4),
        );
        Engine::new(
            sys,
            Workload::open(
                (0..100)
                    .map(|i| ntier_des::time::SimTime::from_millis(10_000 + i * 20))
                    .collect(),
                RequestMix::view_story(),
            ),
            SimDuration::from_secs(13),
            1,
        )
        .run()
    }

    #[test]
    fn aggregation_respects_warmup_offset() {
        let r = tiny_report();
        assert_eq!(figure_seconds(&r), 3);
        // all arrivals happen after WARMUP; the queue series should show
        // activity in figure-second 0..2
        let peaks = series_second_peaks(&r.tiers[0].queue_depth, figure_seconds(&r));
        assert!(peaks.iter().any(|p| *p > 0.0));
    }

    #[test]
    fn second_sums_and_peaks_behave() {
        let v: Vec<f64> = (0..warmup_windows())
            .map(|_| 99.0)
            .chain((0..40).map(|i| f64::from(i % 4)))
            .collect();
        let sums = second_sums(&v, 2);
        let peaks = second_peaks(&v, 2);
        assert_eq!(sums, vec![30.0, 30.0]);
        assert_eq!(peaks, vec![3.0, 3.0]);
    }

    #[test]
    fn timelines_and_comparisons_print() {
        let r = tiny_report();
        print_timeline(&r, "smoke");
        print_comparison(
            "smoke",
            &[Row::new(
                "throughput",
                "990 req/s",
                format!("{:.0} req/s", r.throughput),
            )],
        );
        let _ = presets::sync_three_tier();
    }
}
