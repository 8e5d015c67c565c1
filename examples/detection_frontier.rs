//! The detection frontier: gray-failure ejection suppressing the VLRT
//! tail, and the same detector with a hair-trigger threshold
//! manufacturing it.
//!
//! All four arms share a 2-replica round-robin app tier behind a
//! shallow-backlog web tier with the PR-1 naive retry client, driven by
//! the RUBBoS-like browse mix:
//!
//! * **undetected** — App#0 turns gray at t=2 s (10× service time, 6 s
//!   plateau), no detector: round-robin keeps feeding the wedged replica,
//!   its deep backlog overflows, and the 3/6/9 s SYN ladder mints VLRT.
//! * **tuned** — the same plant with `HealthPolicy::monitor(1)` defaults:
//!   the sick replica's residence/drop EWMAs push its score past 1.0 with
//!   peer agreement, ejection reroutes fresh picks to the healthy peer,
//!   and trickle probes reinstate it after the envelope recovers.
//! * **clean-hot** — ~1 430 req/s, *no* fault, no detector: the clean
//!   baseline the hair-trigger arm is measured against.
//! * **hair-trigger** — the same clean hot plant, but the detector runs a
//!   0.3 threshold against a 3 ms latency reference: ordinary queueing
//!   residence reads as sickness, a healthy replica is falsely ejected,
//!   and the oversubscribed survivor drops, ladders and feeds the retry
//!   client — detection manufactures the storm it exists to prevent.
//!
//! The final section runs [`RootCause`] with the health decision log
//! joined in: each VLRT chain narrates the `eject`/`reinstate` actions
//! inside its causal window, so "the false ejection caused this 8 s
//! request" is machine-checkable.
//!
//! Run with: `cargo run --release --example detection_frontier [seed] [csv-dir]`
//! — the optional second argument writes the tuned arm's CSV bundle
//! (with its `health_decisions` summary row and `control_decisions.csv`)
//! to that directory, which is what CI's figures smoke greps.
//!
//! [`RootCause`]: ntier_trace::RootCause

use ntier_core::experiment::{self, DetectionVariant};
use ntier_core::RunReport;
use ntier_trace::RootCause;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let specs = experiment::detection_frontier_sweep(seed);
    println!(
        "detection frontier (seed {seed}): 2-replica app tier, gray 10x envelope on App#0 \
         at t=2s (moderate arms) vs clean hot load (~1430 req/s), {} arms",
        specs.len()
    );
    let reports = ntier_runner::run_all(specs, 8);

    println!(
        "\n{:<13} {:>9} {:>6} {:>9} {:>6} {:>6} {:>8} {:>9}",
        "arm", "completed", "shed", "cancelled", "drops", "vlrt", "p50(ms)", "p99(ms)",
    );
    for (v, report) in DetectionVariant::ALL.iter().zip(&reports) {
        let q = |p: f64| {
            report
                .latency
                .quantile(p)
                .map_or(0, |d| d.as_micros() / 1_000)
        };
        println!(
            "{:<13} {:>9} {:>6} {:>9} {:>6} {:>6} {:>8} {:>9}",
            v.label(),
            report.completed,
            report.shed,
            report.cancelled,
            report.drops_total,
            report.vlrt_total,
            q(0.50),
            q(0.99),
        );
    }

    println!("\nhealth decision logs:");
    for (v, report) in DetectionVariant::ALL.iter().zip(&reports) {
        match &report.control {
            Some(log) => {
                println!("  {:<13} {}", v.label(), log.summary());
                for d in &log.decisions {
                    println!(
                        "    {:>7.3}s {:<16} {}",
                        d.at.as_micros() as f64 / 1e6,
                        d.action.label(),
                        d.reason
                    );
                }
            }
            None => println!("  {:<13} (no detector)", v.label()),
        }
    }

    let undetected = reports[0].vlrt_total;
    let tuned = reports[1].vlrt_total;
    let clean = reports[2].vlrt_total;
    let hair = reports[3].vlrt_total;
    println!(
        "\nfrontier: tuned {tuned} VLRT < {undetected} undetected, while hair-trigger \
         {hair} VLRT > {clean} clean-hot — same detector, opposite regimes"
    );

    // Root-cause the two detector arms with the health log joined in: the
    // tuned arm's chains show the ejection bounding the damage window, the
    // hair-trigger arm's show the false ejection that set the storm off.
    for (idx, label) in [(1usize, "tuned"), (3usize, "hair-trigger")] {
        root_cause(label, &reports[idx]);
    }

    if let Some(dir) = std::env::args().nth(2) {
        let dir = std::path::PathBuf::from(dir);
        ntier_core::csv::write_csv_bundle(&reports[1], &dir).expect("write tuned CSV bundle");
        println!("\ntuned arm CSV bundle written to {}", dir.display());
    }
}

fn root_cause(label: &str, report: &RunReport) {
    let log = report.trace.as_ref().expect("frontier runs traced");
    let tier_data = report.trace_tier_data();
    let actions = report.control_actions();
    let analysis = RootCause.analyze_with_actions(log, &tier_data, &actions);
    println!(
        "\n{label}: {}/{} VLRT traces attributed ({:.1}%), {} health actions in log",
        analysis.chains.len(),
        analysis.vlrt_total,
        analysis.attribution_rate() * 100.0,
        actions.len()
    );
    println!(
        "drop sites (tier[#replica] -> causal steps): {:?}",
        analysis.drop_site_histogram()
    );
    if let Some(chain) = analysis.top_chains(1).first() {
        println!("slowest causal chain:\n{}", chain.narrate(&tier_data));
    }
}
