//! The paper's §V evaluation arc: replacing tiers one-by-one (NX = 0..3).
//!
//! Runs the *same* workload with millibottlenecks injected into each tier
//! in turn, across all four ladder rungs, and prints the drop site — the
//! paper's core result as one table:
//!
//! * NX=0: drops upstream of the stall (Apache) — upstream CTQO;
//! * NX=1: web tier immune, drops move to Tomcat — downstream/upstream
//!   CTQO at the app tier;
//! * NX=2: web+app immune, drops move to MySQL — downstream CTQO;
//! * NX=3: no drops anywhere, at the same utilization.
//!
//! Run with: `cargo run --release --example async_migration`

#![deny(deprecated)]

use ntier_core::engine::{Engine, Workload};
use ntier_core::{analysis, presets};
use ntier_des::prelude::*;
use ntier_repro::interference::StallSchedule;
use ntier_workload::{ClosedLoopSpec, RequestMix};

fn run_ladder(stall_tier: usize) {
    let stall = StallSchedule::at_marks(
        [15u64, 25, 35, 45].map(SimTime::from_secs),
        SimDuration::from_millis(400),
    );
    println!(
        "millibottleneck in tier {} ({}):",
        stall_tier,
        ["web", "app", "db"][stall_tier]
    );
    println!(
        "  {:<4} {:<28} {:>7} {:>9} {:>9}  drop site",
        "NX", "system", "drops", "VLRT", "top CPU"
    );
    for nx in 0..=3usize {
        let mut system = presets::with_nx(nx);
        system.tiers[stall_tier] = system.tiers[stall_tier].clone().with_stalls(stall.clone());
        let names: Vec<String> = system.tiers.iter().map(|t| t.name.clone()).collect();
        let report = Engine::new(
            system.clone(),
            Workload::Closed {
                spec: ClosedLoopSpec::rubbos(7_000),
                mix: RequestMix::rubbos_browse(),
            },
            SimDuration::from_secs(55),
            42,
        )
        .run();
        let episodes = analysis::detect(&report, &system, SimDuration::from_secs(1));
        let mut sites: Vec<String> = episodes
            .iter()
            .map(|e| format!("{} ({})", report.tiers[e.drop_tier].name, e.class))
            .collect();
        sites.sort();
        sites.dedup();
        println!(
            "  {:<4} {:<28} {:>7} {:>9} {:>8.0}%  {}",
            nx,
            names.join("-"),
            report.drops_total,
            report.vlrt_total,
            report.highest_mean_util() * 100.0,
            if sites.is_empty() {
                "none".to_string()
            } else {
                sites.join(", ")
            }
        );
    }
    println!();
}

fn main() {
    println!("== The NX ladder: same workload, same millibottlenecks ==\n");
    run_ladder(1); // CPU millibottleneck in the app tier (Figs. 3, 7, 9, 10)
    run_ladder(2); // millibottleneck in the db tier (Figs. 5, 8, 11)
    println!(
        "CTQO disappears completely if (and only if) all the servers are\n\
         asynchronous — the paper's headline conclusion."
    );
}
