//! Per-request causal tracing at the paper's 43% operating point.
//!
//! Runs Fig. 1's WL 4000 configuration (recurring Tomcat millibottlenecks)
//! with tracing enabled, prints the top-5 VLRT root-cause chains the
//! [`RootCause`] analyzer reconstructs — each 3 s step pinned to the
//! (tier, drop-window, retransmit-count) that caused it and joined against
//! the utilization series to name the millibottleneck — and writes the
//! retained span trees as `trace.json`, loadable in Perfetto / Chrome's
//! `about:tracing` (one track per request; `rto-wait` spans are the 3 s
//! stalls).
//!
//! Run with: `cargo run --release --example trace_vlrt [seed]`
//!
//! [`RootCause`]: ntier_trace::RootCause

use ntier_core::experiment;
use ntier_trace::{chrome_trace_json, RootCause};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let spec = experiment::trace_vlrt(seed);
    println!(
        "running {} (seed {seed}): Fig. 1 WL 4000, 60 s, tracing on",
        spec.name
    );
    let report = spec.run();
    print!("{}", report.summary());

    let log = report.trace.as_ref().expect("trace_vlrt enables tracing");
    println!(
        "\ntraces: {} started, {} retained ({} sampled-fast, {} evicted, {} unterminated)",
        log.started,
        log.traces.len(),
        log.traces.iter().filter(|t| t.sampled).count(),
        log.evicted,
        log.unterminated,
    );

    let tier_data = report.trace_tier_data();
    let analysis = RootCause.analyze(log, &tier_data);
    println!(
        "root-cause analysis: {}/{} VLRT traces attributed ({:.1}%)",
        analysis.chains.len(),
        analysis.vlrt_total,
        analysis.attribution_rate() * 100.0
    );

    println!("\ntop-5 VLRT causal chains:");
    for chain in analysis.top_chains(5) {
        println!("{}\n", chain.narrate(&tier_data));
    }

    let tier_names: Vec<String> = report.tiers.iter().map(|t| t.name.clone()).collect();
    let json = chrome_trace_json(log, &tier_names);
    let path = "trace.json";
    std::fs::write(path, &json).expect("write trace.json");
    println!(
        "wrote {path} ({} KiB, {} request tracks) — load it in Perfetto or chrome://tracing",
        json.len() / 1024,
        log.traces.len()
    );
}
