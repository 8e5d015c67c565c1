//! CTQO with real OS threads — the `ntier-live` testbed.
//!
//! Builds two real 3-tier chains (thread-pool RPC vs. event-loop async),
//! injects a genuine 300 ms stall into the app tier of each while 32 client
//! threads fire a burst, and prints where the drops landed and what the
//! latency distribution looks like. Wall-clock time, real threads, real
//! blocking — a scaled-down (milliseconds instead of seconds) live rendition
//! of the paper's experiment.
//!
//! Run with: `cargo run --release --example live_testbed`

use std::time::Duration;

use ntier_live::chain::{ChainBuilder, LiveTier};
use ntier_live::harness::fire_burst_with_rto;
use ntier_live::stall::StallGate;

const SERVICE: Duration = Duration::from_micros(500);
const RTO: Duration = Duration::from_millis(300);
const STALL: Duration = Duration::from_millis(300);

fn run(label: &str, sync: bool) {
    let gate = StallGate::new();
    let builder = ChainBuilder::new(RTO);
    let chain = if sync {
        builder
            .tier(LiveTier::sync("web", 2, 2, SERVICE))
            .tier(LiveTier::sync("app", 2, 2, SERVICE).with_gate(gate.clone()))
            .tier(LiveTier::sync("db", 2, 2, SERVICE))
            .build()
            .expect("spawn chain")
    } else {
        builder
            .tier(LiveTier::asynchronous("web", 4_096, 2, SERVICE))
            .tier(LiveTier::asynchronous("app", 4_096, 2, SERVICE).with_gate(gate.clone()))
            .tier(LiveTier::asynchronous("db", 4_096, 2, SERVICE))
            .build()
            .expect("spawn chain")
    };

    // Raise the millibottleneck, fire the burst into it, lower it.
    gate.begin();
    let front = chain.front();
    let burst =
        std::thread::spawn(move || fire_burst_with_rto(front, 32, Duration::from_secs(15), RTO));
    std::thread::sleep(STALL);
    gate.end();
    let outcome = burst.join().expect("burst thread").expect("burst");

    println!("== {label} ==");
    println!(
        "  completed {}/{}  client retransmits {}",
        outcome.completed,
        outcome.completed + outcome.timed_out,
        outcome.client_retransmits
    );
    for (name, drops) in chain.names().iter().zip(chain.drops()) {
        println!("  {name:<4} drops {drops}");
    }
    let fast = outcome.latencies.iter().filter(|l| **l < RTO).count();
    println!(
        "  latency: {} fast (<{RTO:?}), {} delayed by retransmission, max {:?}",
        fast,
        outcome.latencies.len() - fast,
        outcome.max_latency()
    );
    chain.shutdown().expect("clean shutdown");
    println!();
}

fn main() {
    println!(
        "32 simultaneous clients, 300 ms millibottleneck in the app tier,\n\
         retransmission timeout {RTO:?} (a scaled-down TCP RTO).\n"
    );
    run("synchronous chain (2 threads + 2 backlog per tier)", true);
    run(
        "asynchronous chain (LiteQDepth 4096, 2 workers per tier)",
        false,
    );
    println!(
        "The sync chain drops at the *web* tier (its threads are held by the\n\
         stalled app tier — upstream CTQO) and the retransmitted requests\n\
         form a slow latency cluster. The async chain parks the same burst\n\
         in its lightweight queues and drops nothing."
    );
}
