//! The control frontier: one closed-loop controller damping CTQO, and the
//! same actuators with the wrong set-points manufacturing a retry storm.
//!
//! All four arms share hedging-frontier's moderate plant (~571 req/s, the
//! Fig. 1 ~43% operating point) with the app tier split into a 2-replica
//! round-robin set and both 1.8 s millibottlenecks pinned to replica 0:
//!
//! * **uncontrolled** — naive retry client, no controller: the stalls drop
//!   SYNs at the shallow web backlog and the 3/6/9 s ladder mints VLRT.
//! * **damped** — fast autoscaler (150 ms lag) + overload governor: fresh
//!   capacity dilutes the sick replica's share within a tick or two, the
//!   brake converts RTO victims into fast sheds, VLRT falls strictly below
//!   the baseline.
//! * **amplified** — scale-down-happy autoscaler with a 2.5 s provisioning
//!   lag: it drains the healthy replica during the pre-stall calm, the
//!   naive retries re-drop against the lone sick survivor and climb the
//!   retransmit ladder, and relief arrives into the flood — VLRT *above*
//!   the baseline, manufactured by the controller.
//! * **tuned** — hedged/cancelling client with closed-loop policy tuning:
//!   the hedge delay follows the recent p95 and the web AIMD bounds tighten
//!   under congestion; no hand-tuned delay, near-zero tail.
//!
//! The final section runs [`RootCause`] with the controller's decision log
//! joined in: each VLRT chain narrates the actuations inside its causal
//! window, so "the drain caused this 6 s request" is machine-checkable.
//!
//! Run with: `cargo run --release --example control_frontier [seed]`
//!
//! [`RootCause`]: ntier_trace::RootCause

use ntier_core::experiment::{self, ControlVariant};
use ntier_core::RunReport;
use ntier_trace::RootCause;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let specs = experiment::control_frontier_sweep(seed);
    println!(
        "control frontier (seed {seed}): ~571 req/s open loop, 2-replica app tier, \
         1.8 s stalls on App#0 at t=2s and t=5.5s, {} arms",
        specs.len()
    );
    let reports = ntier_runner::run_all(specs, 8);

    println!(
        "\n{:<13} {:>9} {:>6} {:>9} {:>6} {:>6} {:>8} {:>9}",
        "arm", "completed", "shed", "cancelled", "drops", "vlrt", "p50(ms)", "p99(ms)",
    );
    for (v, report) in ControlVariant::ALL.iter().zip(&reports) {
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

    println!("\ncontroller decision logs:");
    for (v, report) in ControlVariant::ALL.iter().zip(&reports) {
        match &report.control {
            Some(log) => println!("  {:<13} {}", v.label(), log.summary()),
            None => println!("  {:<13} (no controller)", v.label()),
        }
    }

    let baseline = reports[0].vlrt_total;
    let damped = reports[1].vlrt_total;
    let amplified = reports[2].vlrt_total;
    println!(
        "\nfrontier: damped {damped} VLRT < {baseline} baseline < {amplified} amplified — \
         same actuators, opposite regimes"
    );

    // Root-cause the two controlled regimes with the decision log joined
    // in: the damped arm's chains show relief landing mid-window, the
    // amplified arm's show the drain that set the trap.
    for (idx, label) in [(1usize, "damped"), (2usize, "amplified")] {
        root_cause(label, &reports[idx]);
    }
}

fn root_cause(label: &str, report: &RunReport) {
    let log = report.trace.as_ref().expect("frontier runs traced");
    let tier_data = report.trace_tier_data();
    let actions = report.control_actions();
    let analysis = RootCause.analyze_with_actions(log, &tier_data, &actions);
    println!(
        "\n{label}: {}/{} VLRT traces attributed ({:.1}%), {} controller actions in log",
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
