//! Quickstart: one millibottleneck, two architectures.
//!
//! Builds the paper's synchronous baseline (Apache–Tomcat–MySQL) and the
//! fully asynchronous ladder end (Nginx–XTomcat–XMySQL), hits both with the
//! *same* workload and the *same* 400 ms CPU millibottleneck in the app
//! tier, and prints what happens: the sync stack drops packets and grows a
//! 3/6/9-second latency tail; the async stack absorbs everything.
//!
//! Run with: `cargo run --release --example quickstart`

use ntier_core::engine::{Engine, Workload};
use ntier_core::{analysis, presets};
use ntier_des::prelude::*;
use ntier_repro::interference::StallSchedule;
use ntier_telemetry::render;
use ntier_workload::{ClosedLoopSpec, RequestMix};

fn main() {
    let stall = StallSchedule::at_marks(
        [12u64, 15, 19, 25].map(SimTime::from_secs),
        SimDuration::from_millis(400),
    );
    let horizon = SimDuration::from_secs(30);

    for nx in [0usize, 3] {
        let mut system = presets::with_nx(nx);
        system.tiers[1] = system.tiers[1].clone().with_stalls(stall.clone());
        let label = if nx == 0 {
            "SYNCHRONOUS  (Apache–Tomcat–MySQL)"
        } else {
            "ASYNCHRONOUS (Nginx–XTomcat–XMySQL)"
        };
        let report = Engine::new(
            system.clone(),
            Workload::Closed {
                spec: ClosedLoopSpec::rubbos(7_000),
                mix: RequestMix::rubbos_browse(),
            },
            horizon,
            42,
        )
        .run();

        println!("=== {label} ===");
        print!("{}", report.summary());
        let episodes = analysis::detect(&report, &system, SimDuration::from_secs(1));
        for ep in &episodes {
            println!(
                "  {} at {} ({}–{}): {} packets dropped",
                ep.class, report.tiers[ep.drop_tier].name, ep.start, ep.end, ep.drops
            );
        }
        if episodes.is_empty() {
            println!("  no CTQO episodes — every request admitted");
        }
        println!("\nResponse-time distribution (semi-log, like the paper's Fig. 1):");
        println!("{}", render::semilog_histogram(&report.latency, 10, 48));
    }
    println!(
        "The sync run shows the CTQO signature: drops at a tier *other* than\n\
         the stalled one, plus latency clusters near 3/6/9 s from TCP\n\
         retransmission. The async run absorbs the same millibottlenecks in\n\
         its lightweight queues: no drops, single-cluster latency."
    );
}
