//! The replication ladder: replica count × balancer policy at Fig. 1's
//! WL 4000 operating point.
//!
//! Splits the Tomcat tier into 1 / 2 / 5 identical instances (total
//! capacity held constant) and puts the Fig. 1 millibottleneck train on
//! replica 0 only — one sick instance behind an otherwise healthy set.
//! Each rung runs under all four balancer policies. The table shows the
//! paper's mechanism surviving replication verbatim under round-robin (the
//! balancer keeps feeding the stalled instance, so the 3/6/9 s VLRT ladder
//! reappears) and collapsing under queue-aware policies (least-outstanding,
//! P2C, JSQ route around the backlog before it overflows).
//!
//! The final section runs [`RootCause`] over the round-robin rung's traces:
//! every causal chain pins its drops on Tomcat replica 0, the per-replica
//! attribution the aggregate tier series would dilute.
//!
//! Run with: `cargo run --release --example replication_ladder [seed]`
//!
//! [`RootCause`]: ntier_trace::RootCause

use ntier_core::experiment::{self, ExperimentSpec};
use ntier_core::{Balancer, RunReport};
use ntier_trace::RootCause;

const REPLICAS: [usize; 3] = [1, 2, 5];
const BALANCERS: [Balancer; 4] = [
    Balancer::RoundRobin,
    Balancer::LeastOutstanding,
    Balancer::P2c,
    Balancer::Jsq,
];

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let specs: Vec<ExperimentSpec> = REPLICAS
        .iter()
        .flat_map(|&n| {
            BALANCERS
                .iter()
                .map(move |&b| experiment::replication_ladder(n, b, seed))
        })
        .collect();
    println!(
        "replication ladder (seed {seed}): Fig. 1 WL 4000, 60 s, stall train on Tomcat#0, \
         {} runs",
        specs.len()
    );
    let reports = ntier_runner::run_all(specs, 8);

    println!(
        "\n{:<9} {:<18} {:>9} {:>6} {:>6} {:>8} {:>9}  per-replica drops",
        "replicas", "balancer", "completed", "drops", "vlrt", "p50(ms)", "p99(ms)",
    );
    for (i, report) in reports.iter().enumerate() {
        let n = REPLICAS[i / BALANCERS.len()];
        let b = BALANCERS[i % BALANCERS.len()];
        let q = |p: f64| {
            report
                .latency
                .quantile(p)
                .map_or(0, |d| d.as_micros() / 1_000)
        };
        let per_replica: Vec<u64> = report.tiers[1]
            .replicas
            .iter()
            .map(|r| r.drops_total)
            .collect();
        println!(
            "{:<9} {:<18} {:>9} {:>6} {:>6} {:>8} {:>9}  {:?}",
            n,
            b.label(),
            report.completed,
            report.drops_total,
            report.vlrt_total,
            q(0.50),
            q(0.99),
            per_replica
        );
    }

    // Latency modes per rung at 2 replicas: the 3/6/9 s ladder is the
    // paper's multi-modal signature; queue-aware policies flatten it.
    println!("\nVLRT modes at 2 replicas (requests that paid 1 / 2 / 3+ RTOs):");
    for (i, b) in BALANCERS.iter().enumerate() {
        let report = &reports[BALANCERS.len() + i];
        let log = report.trace.as_ref().expect("ladder runs traced");
        let mode = |k: usize| {
            log.vlrt_traces()
                .filter(|t| t.syn_drops().count() == k)
                .count()
        };
        let deep = log
            .vlrt_traces()
            .filter(|t| t.syn_drops().count() >= 3)
            .count();
        println!(
            "  {:<18} 3s: {:>3}  6s: {:>3}  9s+: {:>3}",
            b.label(),
            mode(1),
            mode(2),
            deep
        );
    }

    // Root-cause the round-robin rung: the analyzer should name Tomcat
    // replica 0 — the instance carrying the stall train — at every step.
    let rr = &reports[BALANCERS.len()]; // 2 replicas, round-robin
    root_cause(rr);
}

fn root_cause(report: &RunReport) {
    let log = report.trace.as_ref().expect("ladder runs traced");
    let tier_data = report.trace_tier_data();
    let analysis = RootCause.analyze(log, &tier_data);
    println!(
        "\nround-robin @ 2 replicas, root-cause: {}/{} VLRT traces attributed ({:.1}%)",
        analysis.chains.len(),
        analysis.vlrt_total,
        analysis.attribution_rate() * 100.0
    );
    println!(
        "drop sites (tier[#replica] -> causal steps): {:?}",
        analysis.drop_site_histogram()
    );
    if let Some(chain) = analysis.top_chains(1).first() {
        println!("\nslowest causal chain:\n{}", chain.narrate(&tier_data));
    }
}
