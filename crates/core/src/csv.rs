//! CSV export of run reports.
//!
//! Every figure-bearing series of a [`RunReport`] serializes to a small CSV
//! bundle so results can be re-plotted outside this crate (gnuplot,
//! matplotlib, a spreadsheet). The bundle is produced as in-memory strings
//! ([`csv_bundle`]) — pure and testable — with a thin filesystem wrapper
//! ([`write_csv_bundle`]).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use ntier_telemetry::render::to_csv;
use ntier_telemetry::{CounterSeries, PeakSeries, UtilizationSeries};

use crate::control::Action;
use crate::report::{horizon_windows, RunReport};

/// Serializes a report into `(file name, CSV content)` pairs:
///
/// * `summary.csv` — headline metrics (including the resilience totals);
/// * `latency_histogram.csv` — bucket start (ms) and count, plus overflow;
/// * `resilience.csv` — per-hop timeout/retry/budget/shed/breaker counters;
/// * `tier_<i>_<name>.csv` — per-50 ms-window queue peak, drops, VLRT,
///   own CPU utilization and interferer utilization.
///
/// Replicated tiers (`replicas > 1` in their spec) additionally emit one
/// `tier_<i>_r<r>_<name>.csv` per replica with the same columns — the
/// per-instance view behind the tier-level aggregate. Unreplicated runs
/// produce exactly the pre-replica file list, byte for byte.
///
/// Traced runs (`report.trace` is `Some`) append two more files:
///
/// * `trace_events.csv` — one row per retained span event;
/// * `trace_chains.csv` — the root-cause analysis: one row per attributed
///   3 s step of every VLRT/failed trace, with the culprit window.
///
/// Controlled runs (`report.control` is `Some`) append
/// `control_decisions.csv` — one row per controller decision with its
/// timestamp, tier scope, action label and the evidence that justified it.
/// Gray-failure detector verdicts ride in the same log, so `eject`/
/// `reinstate` decisions land there too, and `summary.csv` gains a
/// `health_decisions` row when (and only when) at least one was made.
///
/// Metered runs (`report.metrics` is `Some`) append `metrics.csv` — one row
/// per [`ntier_telemetry::MetricsSnapshot`] in tick order. Unmetered
/// bundles are unchanged, byte for byte.
pub fn csv_bundle(report: &RunReport) -> Vec<(String, String)> {
    let mut files = Vec::with_capacity(report.tiers.len() + 3);

    let mut summary_rows = vec![
        vec![
            "horizon_secs".into(),
            format!("{:.3}", report.horizon.as_secs_f64()),
        ],
        vec!["injected".into(), report.injected.to_string()],
        vec!["completed".into(), report.completed.to_string()],
        vec!["failed".into(), report.failed.to_string()],
        vec!["shed".into(), report.shed.to_string()],
        vec!["cancelled".into(), report.cancelled.to_string()],
        vec!["in_flight_end".into(), report.in_flight_end.to_string()],
        vec!["throughput_rps".into(), format!("{:.3}", report.throughput)],
        vec!["drops_total".into(), report.drops_total.to_string()],
        vec!["vlrt_total".into(), report.vlrt_total.to_string()],
        vec![
            "highest_mean_util".into(),
            format!("{:.4}", report.highest_mean_util()),
        ],
        vec!["timeouts".into(), report.resilience.timeouts.to_string()],
        vec!["app_retries".into(), report.resilience.retries.to_string()],
        vec![
            "budget_exhausted".into(),
            report.resilience.budget_exhausted.to_string(),
        ],
        vec![
            "breaker_transitions".into(),
            report.resilience.breaker_transitions.to_string(),
        ],
        vec![
            "orphan_completions".into(),
            report.resilience.orphan_completions.to_string(),
        ],
        vec!["hedges".into(), report.resilience.hedges.to_string()],
        vec![
            "cancels_propagated".into(),
            report.resilience.cancels_propagated.to_string(),
        ],
        vec![
            "wasted_work_saved".into(),
            report.resilience.wasted_work_saved.to_string(),
        ],
    ];
    // Gray-failure detection tally, appended only when the run actually
    // ejected or reinstated a replica so undetected bundles stay byte
    // for byte what they were.
    let health_decisions = report.control.as_ref().map_or(0, |log| {
        log.count(|a| matches!(a, Action::Ejected { .. } | Action::Reinstated { .. }))
    });
    if health_decisions > 0 {
        summary_rows.push(vec![
            "health_decisions".into(),
            health_decisions.to_string(),
        ]);
    }
    files.push((
        "summary.csv".to_string(),
        to_csv(&["metric", "value"], &summary_rows),
    ));

    let mut hist_rows: Vec<Vec<String>> = report
        .latency
        .iter()
        .map(|(start, count)| vec![start.as_millis().to_string(), count.to_string()])
        .collect();
    hist_rows.push(vec![
        "overflow".into(),
        report.latency.overflow().to_string(),
    ]);
    files.push((
        "latency_histogram.csv".to_string(),
        to_csv(&["bucket_start_ms", "count"], &hist_rows),
    ));

    let res_rows: Vec<Vec<String>> = report
        .tiers
        .iter()
        .enumerate()
        .map(|(i, tier)| {
            vec![
                i.to_string(),
                tier.name.clone(),
                tier.resilience.timeouts.to_string(),
                tier.resilience.retries.to_string(),
                tier.resilience.budget_exhausted.to_string(),
                tier.resilience.shed.to_string(),
                tier.resilience.breaker_transitions.to_string(),
                tier.resilience.orphan_completions.to_string(),
                tier.resilience.hedges.to_string(),
                tier.resilience.cancels_propagated.to_string(),
                tier.resilience.wasted_work_saved.to_string(),
            ]
        })
        .collect();
    files.push((
        "resilience.csv".to_string(),
        to_csv(
            &[
                "tier",
                "name",
                "timeouts",
                "retries",
                "budget_exhausted",
                "shed",
                "breaker_transitions",
                "orphan_completions",
                "hedges",
                "cancels_propagated",
                "wasted_work_saved",
            ],
            &res_rows,
        ),
    ));

    let windows = horizon_windows(report.horizon);
    for (i, tier) in report.tiers.iter().enumerate() {
        files.push((
            format!("tier_{i}_{}.csv", sanitize(&tier.name)),
            window_series_csv(
                windows,
                &tier.queue_depth,
                &tier.drops,
                &tier.vlrt,
                &tier.util,
                &tier.interferer_util,
            ),
        ));
        for r in &tier.replicas {
            files.push((
                format!("tier_{i}_r{}_{}.csv", r.id, sanitize(&tier.name)),
                window_series_csv(
                    windows,
                    &r.queue_depth,
                    &r.drops,
                    &r.vlrt,
                    &r.util,
                    &r.interferer_util,
                ),
            ));
        }
    }

    if let Some(log) = &report.trace {
        let tier_data = report.trace_tier_data();
        let analysis = ntier_trace::RootCause.analyze(log, &tier_data);
        files.push(("trace_events.csv".to_string(), ntier_trace::events_csv(log)));
        files.push((
            "trace_chains.csv".to_string(),
            ntier_trace::chains_csv(&analysis, &tier_data),
        ));
    }

    if let Some(log) = &report.control {
        let rows: Vec<Vec<String>> = log
            .decisions
            .iter()
            .map(|d| {
                vec![
                    (d.at.as_micros() as f64 / 1_000.0).to_string(),
                    d.action.tier().map_or(String::new(), |t| t.to_string()),
                    d.action.label(),
                    d.reason.clone(),
                ]
            })
            .collect();
        files.push((
            "control_decisions.csv".to_string(),
            to_csv(&["at_ms", "tier", "action", "reason"], &rows),
        ));
    }

    if let Some(reg) = &report.metrics {
        files.push(("metrics.csv".to_string(), reg.csv()));
    }
    files
}

/// Writes the bundle under `dir` (created if missing).
///
/// A bundle written over an earlier one replaces it: files with a name the
/// bundle format can produce but this report does not (an earlier run's
/// trace, control or metrics file, or a larger topology's tier files) are
/// removed first. Files of any other name are left alone.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation, listing, removal
/// or file writes.
pub fn write_csv_bundle(report: &RunReport, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let bundle = csv_bundle(report);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let stale = entry
            .file_name()
            .to_str()
            .is_some_and(|name| is_bundle_name(name) && bundle.iter().all(|(n, _)| n != name));
        if stale && entry.file_type()?.is_file() {
            std::fs::remove_file(entry.path())?;
        }
    }
    for (name, content) in bundle {
        std::fs::write(dir.join(name), content)?;
    }
    Ok(())
}

/// `true` for every file name [`csv_bundle`] can produce.
fn is_bundle_name(name: &str) -> bool {
    let tier_file = name
        .strip_prefix("tier_")
        .and_then(|rest| rest.split_once('_'))
        .is_some_and(|(i, _)| !i.is_empty() && i.bytes().all(|b| b.is_ascii_digit()))
        && name.ends_with(".csv");
    tier_file
        || matches!(
            name,
            "summary.csv"
                | "latency_histogram.csv"
                | "resilience.csv"
                | "trace_events.csv"
                | "trace_chains.csv"
                | "control_decisions.csv"
                | "metrics.csv"
        )
}

/// One 50 ms window per row: queue peak, drops, VLRT, own CPU and
/// interferer utilization — used for tier-level files and per-replica files
/// alike, so the two are column-compatible. At least `min_windows` rows
/// (the horizon's windows; each series stops at its last touched window,
/// and untouched windows read 0), more if a series touched a window past
/// the horizon. Rows are written straight into one pre-sized string: these
/// files run to 72 000 rows for a simulated hour.
fn window_series_csv(
    min_windows: usize,
    queue_depth: &PeakSeries,
    drops: &CounterSeries,
    vlrt: &CounterSeries,
    util: &UtilizationSeries,
    interferer_util: &[f64],
) -> String {
    const HEADER: &str = "window_start_ms,queue_peak,drops,vlrt,cpu_util,interferer_util\n";
    let windows = min_windows
        .max(queue_depth.len())
        .max(drops.len())
        .max(vlrt.len())
        .max(util.len())
        .max(interferer_util.len());
    // "3599950,278,12,3,1.0000,0.0000\n" is 31 bytes; most rows are shorter.
    let mut out = String::with_capacity(HEADER.len() + windows * 32);
    out.push_str(HEADER);
    // The sparse counters are walked in window order alongside the rows,
    // not looked up per row.
    fn counts(s: &CounterSeries) -> impl Iterator<Item = u32> + '_ {
        s.iter().map(|(_, n)| n).chain(std::iter::repeat(0))
    }
    for ((w, dropped), late) in (0..windows).zip(counts(drops)).zip(counts(vlrt)) {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.4},{:.4}",
            w as u64 * ntier_des::time::MONITOR_WINDOW.as_millis(),
            queue_depth.peak(w),
            dropped,
            late,
            util.utilization(w),
            interferer_util.get(w).copied().unwrap_or(0.0),
        );
    }
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Workload};
    use crate::{TierSpec, Topology};
    use ntier_des::prelude::*;
    use ntier_workload::RequestMix;

    fn small_report() -> RunReport {
        Engine::new(
            Topology::three_tier(
                TierSpec::sync("Web", 4, 2),
                TierSpec::sync("App", 4, 2),
                TierSpec::sync("Db", 4, 2),
            ),
            Workload::open(
                (0..20).map(|i| SimTime::from_millis(i * 10)).collect(),
                RequestMix::view_story(),
            ),
            SimDuration::from_secs(2),
            1,
        )
        .run()
    }

    #[test]
    fn bundle_has_summary_histogram_and_tier_files() {
        let bundle = csv_bundle(&small_report());
        let names: Vec<&str> = bundle.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "summary.csv",
                "latency_histogram.csv",
                "resilience.csv",
                "tier_0_web.csv",
                "tier_1_app.csv",
                "tier_2_db.csv"
            ]
        );
    }

    #[test]
    fn replicated_tier_appends_per_replica_files() {
        let report = Engine::new(
            Topology::three_tier(
                TierSpec::sync("Web", 4, 2),
                TierSpec::sync("App", 2, 2).replicas(2),
                TierSpec::sync("Db", 4, 2),
            ),
            Workload::open(
                (0..20).map(|i| SimTime::from_millis(i * 10)).collect(),
                RequestMix::view_story(),
            ),
            SimDuration::from_secs(2),
            1,
        )
        .run();
        let names: Vec<String> = csv_bundle(&report).into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec![
                "summary.csv",
                "latency_histogram.csv",
                "resilience.csv",
                "tier_0_web.csv",
                "tier_1_app.csv",
                "tier_1_r0_app.csv",
                "tier_1_r1_app.csv",
                "tier_2_db.csv"
            ]
        );
    }

    #[test]
    fn summary_contains_headline_numbers() {
        let report = small_report();
        let bundle = csv_bundle(&report);
        let summary = &bundle[0].1;
        assert!(summary.contains("completed,20"), "{summary}");
        assert!(summary.contains("drops_total,0"));
    }

    #[test]
    fn histogram_rows_sum_to_completed() {
        let report = small_report();
        let bundle = csv_bundle(&report);
        let hist = &bundle[1].1;
        let total: u64 = hist
            .lines()
            .skip(1)
            .filter(|l| !l.starts_with("overflow"))
            .map(|l| l.split(',').nth(1).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, report.completed);
    }

    #[test]
    fn resilience_file_is_quiet_without_policies() {
        let bundle = csv_bundle(&small_report());
        let res = &bundle[2].1;
        for line in res.lines().skip(1) {
            let counters: Vec<&str> = line.split(',').skip(2).collect();
            assert!(counters.iter().all(|c| *c == "0"), "{line}");
        }
    }

    #[test]
    fn tier_files_have_consistent_columns() {
        let bundle = csv_bundle(&small_report());
        for (name, content) in bundle.iter().skip(3) {
            let mut lines = content.lines();
            let header = lines.next().unwrap();
            assert_eq!(header.split(',').count(), 6, "{name}");
            for line in lines {
                assert_eq!(line.split(',').count(), 6, "{name}: {line}");
            }
        }
    }

    #[test]
    fn stall_free_tiers_read_to_the_horizon() {
        // Load stops at 200 ms of a 2 s horizon and no tier stalls: every
        // series stops well short of the horizon, yet each tier file and
        // each combined utilization series still has one entry per 50 ms
        // window of it.
        let report = small_report();
        for tier in &report.tiers {
            assert!(tier.interferer_util.is_empty(), "{}", tier.name);
            assert!(tier.util.len() < 40, "{}: {}", tier.name, tier.util.len());
            let combined = tier.combined_util(report.horizon);
            assert_eq!(combined.len(), 40, "{}", tier.name);
            assert_eq!(combined[39], 0.0, "{}", tier.name);
        }
        for (name, content) in csv_bundle(&report).iter().skip(3) {
            let rows: Vec<&str> = content.lines().skip(1).collect();
            assert_eq!(rows.len(), 40, "{name}");
            assert_eq!(rows[39], "1950,0,0,0,0.0000,0.0000", "{name}");
        }
    }

    #[test]
    fn traced_run_appends_trace_files() {
        let report = Engine::new(
            Topology::three_tier(
                TierSpec::sync("Web", 4, 2),
                TierSpec::sync("App", 4, 2),
                TierSpec::sync("Db", 4, 2),
            )
            .with_trace(ntier_trace::TraceConfig::always()),
            Workload::open(
                (0..20).map(|i| SimTime::from_millis(i * 10)).collect(),
                RequestMix::view_story(),
            ),
            SimDuration::from_secs(2),
            1,
        )
        .run();
        let bundle = csv_bundle(&report);
        let names: Vec<&str> = bundle.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            &names[names.len() - 2..],
            ["trace_events.csv", "trace_chains.csv"]
        );
        let events = &bundle[names.len() - 2].1;
        // Every completed request retains a trace under TraceConfig::always.
        assert_eq!(
            events
                .lines()
                .filter(|l| l.contains(",client_send,"))
                .count() as u64,
            report.completed
        );
    }

    #[test]
    fn controlled_run_appends_decision_file() {
        use crate::experiment::{control_frontier, ControlVariant};
        let report = control_frontier(ControlVariant::Damped, 7).run();
        let bundle = csv_bundle(&report);
        let (name, content) = bundle.last().expect("non-empty bundle");
        assert_eq!(name, "control_decisions.csv");
        assert_eq!(
            content.lines().count(),
            report.control.as_ref().unwrap().decisions.len() + 1,
            "one row per decision plus the header"
        );
        assert!(content.contains("scale-up"), "{content}");
        // Uncontrolled runs must not grow the bundle.
        let base = csv_bundle(&control_frontier(ControlVariant::Uncontrolled, 7).run());
        assert!(base.iter().all(|(n, _)| n != "control_decisions.csv"));
    }

    #[test]
    fn health_run_adds_summary_row_and_decision_file() {
        use crate::experiment::{detection_frontier, DetectionVariant};
        let report = detection_frontier(DetectionVariant::Tuned, 7).run();
        let bundle = csv_bundle(&report);
        let summary = &bundle
            .iter()
            .find(|(n, _)| n == "summary.csv")
            .expect("summary always present")
            .1;
        let ejections = report
            .control
            .as_ref()
            .expect("health runs carry a decision log")
            .decisions
            .len();
        assert!(ejections > 0, "the tuned arm must actually eject");
        assert!(
            summary.contains(&format!("health_decisions,{ejections}")),
            "{summary}"
        );
        let (name, content) = bundle.last().expect("non-empty bundle");
        assert_eq!(name, "control_decisions.csv");
        assert!(content.contains("eject(t1#0)"), "{content}");
        // Undetected runs keep the historical summary rows, byte for byte.
        let base = csv_bundle(&detection_frontier(DetectionVariant::Undetected, 7).run());
        let base_summary = &base
            .iter()
            .find(|(n, _)| n == "summary.csv")
            .expect("summary always present")
            .1;
        assert!(!base_summary.contains("health_decisions"), "{base_summary}");
        assert!(base.iter().all(|(n, _)| n != "control_decisions.csv"));
    }

    #[test]
    fn metered_run_appends_metrics_file() {
        let report = Engine::new(
            Topology::three_tier(
                TierSpec::sync("Web", 4, 2),
                TierSpec::sync("App", 4, 2),
                TierSpec::sync("Db", 4, 2),
            )
            .with_metrics(ntier_telemetry::MetricsConfig::every(
                SimDuration::from_millis(500),
            )),
            Workload::open(
                (0..20).map(|i| SimTime::from_millis(i * 10)).collect(),
                RequestMix::view_story(),
            ),
            SimDuration::from_secs(2),
            1,
        )
        .run();
        let bundle = csv_bundle(&report);
        let (name, content) = bundle.last().expect("non-empty bundle");
        assert_eq!(name, "metrics.csv");
        let ticks = report.metrics.as_ref().unwrap().snapshots().len();
        assert!(ticks > 0, "a 2 s run at 500 ms ticks must snapshot");
        assert_eq!(
            content.lines().count(),
            ticks + 1,
            "one row per snapshot plus the header"
        );
        // Unmetered runs must not grow the bundle.
        let base = csv_bundle(&small_report());
        assert!(base.iter().all(|(n, _)| n != "metrics.csv"));
    }

    #[test]
    fn rewriting_a_bundle_removes_stale_files_only() {
        let dir = std::env::temp_dir().join(format!("ntier-csv-stale-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let listing = |dir: &Path| {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        // A metered, traced run over a replicated tier writes every kind of
        // optional file, including per-replica tier files.
        let full = Engine::new(
            Topology::three_tier(
                TierSpec::sync("Web", 4, 2),
                TierSpec::sync("App", 2, 2).replicas(2),
                TierSpec::sync("Db", 4, 2),
            )
            .with_trace(ntier_trace::TraceConfig::always())
            .with_metrics(ntier_telemetry::MetricsConfig::every(
                SimDuration::from_millis(500),
            )),
            Workload::open(
                (0..20).map(|i| SimTime::from_millis(i * 10)).collect(),
                RequestMix::view_story(),
            ),
            SimDuration::from_secs(2),
            1,
        )
        .run();
        write_csv_bundle(&full, &dir).expect("write full bundle");
        assert!(dir.join("metrics.csv").exists());
        assert!(dir.join("trace_chains.csv").exists());
        assert!(dir.join("tier_1_r1_app.csv").exists());
        std::fs::write(dir.join("notes.txt"), "kept").unwrap();

        let plain = small_report();
        let mut expected: Vec<String> = csv_bundle(&plain).into_iter().map(|(n, _)| n).collect();
        expected.push("notes.txt".to_string());
        expected.sort();
        for _ in 0..2 {
            write_csv_bundle(&plain, &dir).expect("write plain bundle");
            assert_eq!(listing(&dir), expected);
        }
        assert_eq!(
            std::fs::read_to_string(dir.join("notes.txt")).unwrap(),
            "kept"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_bundle_creates_files() {
        let dir = std::env::temp_dir().join(format!("ntier-csv-test-{}", std::process::id()));
        write_csv_bundle(&small_report(), &dir).expect("write bundle");
        assert!(dir.join("summary.csv").exists());
        assert!(dir.join("tier_0_web.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
