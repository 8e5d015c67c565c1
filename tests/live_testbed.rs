//! Cross-crate test: the simulator's conclusions hold on real threads.
//!
//! Runs the live (wall-clock, OS-thread) chains and checks that the drop
//! site moves exactly as the simulator — and the paper — say it should.

use std::time::Duration;

use ntier_repro::live::chain::{ChainBuilder, LiveTier};
use ntier_repro::live::harness::fire_burst_with_rto;
use ntier_repro::live::stall::StallGate;

const SERVICE: Duration = Duration::from_micros(300);
const RTO: Duration = Duration::from_millis(250);

fn stall_and_burst(
    chain: &ntier_repro::live::chain::Chain,
    gate: &StallGate,
    n: usize,
) -> ntier_repro::live::harness::BurstOutcome {
    gate.begin();
    let front = chain.front();
    let burst =
        std::thread::spawn(move || fire_burst_with_rto(front, n, Duration::from_secs(15), RTO));
    std::thread::sleep(Duration::from_millis(300));
    gate.end();
    burst.join().expect("burst thread").expect("burst")
}

#[test]
fn live_sync_chain_exhibits_upstream_ctqo() {
    let gate = StallGate::new();
    let chain = ChainBuilder::new(RTO)
        .tier(LiveTier::sync("web", 2, 2, SERVICE))
        .tier(LiveTier::sync("app", 2, 2, SERVICE).with_gate(gate.clone()))
        .tier(LiveTier::sync("db", 2, 2, SERVICE))
        .build()
        .expect("spawn chain");
    let outcome = stall_and_burst(&chain, &gate, 20);
    let drops = chain.drops();
    assert!(drops[0] > 0, "upstream drops expected: {drops:?}");
    assert_eq!(outcome.completed, 20);
    assert!(
        outcome.count_slower_than(Duration::from_millis(240)) > 0,
        "retransmitted requests must form a slow cluster"
    );
    chain.shutdown().expect("clean shutdown");
}

#[test]
fn live_async_chain_absorbs_the_same_stall() {
    let gate = StallGate::new();
    let chain = ChainBuilder::new(RTO)
        .tier(LiveTier::asynchronous("web", 4_096, 2, SERVICE))
        .tier(LiveTier::asynchronous("app", 4_096, 2, SERVICE).with_gate(gate.clone()))
        .tier(LiveTier::asynchronous("db", 4_096, 2, SERVICE))
        .build()
        .expect("spawn chain");
    let outcome = stall_and_burst(&chain, &gate, 20);
    assert_eq!(chain.drops(), vec![0, 0, 0]);
    assert_eq!(outcome.completed, 20);
    assert_eq!(outcome.client_retransmits, 0);
    chain.shutdown().expect("clean shutdown");
}

#[test]
fn live_nx1_pushes_drops_downstream() {
    // Async front + sync middle: the front admits the burst and floods the
    // stalled sync tier — the paper's NX=1 result on real threads.
    let gate = StallGate::new();
    let chain = ChainBuilder::new(RTO)
        .tier(LiveTier::asynchronous(
            "web",
            4_096,
            4,
            Duration::from_micros(50),
        ))
        .tier(LiveTier::sync("app", 1, 2, Duration::from_millis(1)).with_gate(gate.clone()))
        .tier(LiveTier::sync("db", 2, 4, SERVICE))
        .build()
        .expect("spawn chain");
    let outcome = stall_and_burst(&chain, &gate, 24);
    let drops = chain.drops();
    assert_eq!(drops[0], 0, "{drops:?}");
    assert!(drops[1] > 0, "{drops:?}");
    assert_eq!(outcome.completed, 24);
    chain.shutdown().expect("clean shutdown");
}
