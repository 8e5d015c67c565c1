//! Figure-timeline rendering shared by the `vm_consolidation` and
//! `log_flushing` examples: per-second aggregation of the 50 ms telemetry
//! windows and the paper's three-panel (CPU / queues / VLRT) layout. The
//! experiments themselves live in `ntier_core::experiment`.

use ntier_core::experiment::WARMUP;
use ntier_core::report::RunReport;
use ntier_telemetry::{render, MONITOR_WINDOW_MS};
use ntier_telemetry::{CounterSeries, PeakSeries};

/// Windows per second of figure time.
const WINDOWS_PER_SECOND: usize = (1_000 / MONITOR_WINDOW_MS) as usize;

/// Number of 50 ms windows in the warm-up period.
fn warmup_windows() -> usize {
    (WARMUP.as_millis() / MONITOR_WINDOW_MS) as usize
}

/// Figure-time seconds covered by a report (horizon minus warm-up).
pub fn figure_seconds(report: &RunReport) -> usize {
    (report.horizon.saturating_sub(WARMUP).as_millis() / 1_000) as usize
}

/// Per-second peaks of a per-window value vector, skipping the warm-up.
fn second_peaks(values: &[f64], seconds: usize) -> Vec<f64> {
    aggregate(values, seconds, f64::max)
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
fn series_second_peaks(series: &PeakSeries, seconds: usize) -> Vec<f64> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ntier_core::engine::{Engine, Workload};
    use ntier_core::{SystemConfig, TierSpec, Topology};
    use ntier_des::time::SimDuration;
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
    fn second_peaks_skip_the_warmup() {
        let v: Vec<f64> = (0..warmup_windows())
            .map(|_| 99.0)
            .chain((0..40).map(|i| f64::from(i % 4)))
            .collect();
        assert_eq!(second_peaks(&v, 2), vec![3.0, 3.0]);
    }

    #[test]
    fn timelines_print() {
        print_timeline(&tiny_report(), "smoke");
    }
}
