//! Assertion-backed versions of the ablation sweeps: the CTQO mechanism
//! responds to each design knob exactly as the theory says.

use ntier_repro::core::engine::{Engine, Workload};
use ntier_repro::core::{RunReport, SystemConfig, TierSpec, Topology};
use ntier_repro::des::prelude::*;
use ntier_repro::interference::StallSchedule;
use ntier_repro::net::RetransmitPolicy;
use ntier_repro::workload::RequestMix;

fn system(stall_ms: u64, web_threads: usize, backlog: usize) -> SystemConfig {
    let stalls = if stall_ms == 0 {
        StallSchedule::none()
    } else {
        StallSchedule::at_marks([SimTime::from_secs(5)], SimDuration::from_millis(stall_ms))
    };
    Topology::three_tier(
        TierSpec::sync("Web", web_threads, backlog).with_stalls(stalls),
        TierSpec::sync("App", 4_000, 4_000).with_downstream_pool(4_000),
        TierSpec::sync("Db", 4_000, 4_000),
    )
}

fn run(system: SystemConfig, policy: RetransmitPolicy) -> RunReport {
    // Deterministic 1000 req/s for sharp thresholds.
    let arrivals: Vec<SimTime> = (0..10_000).map(SimTime::from_millis).collect();
    Engine::new(
        system.with_retransmit(policy),
        Workload::open(arrivals, RequestMix::view_story()),
        SimDuration::from_secs(25),
        7,
    )
    .run()
}

#[test]
fn bigger_backlog_raises_the_threshold_but_does_not_remove_it() {
    // 400 ms stall = 400 arrivals. 150+128=278 drops; 150+512=662 doesn't.
    let small = run(system(400, 150, 128), RetransmitPolicy::default());
    let large = run(system(400, 150, 512), RetransmitPolicy::default());
    assert!(small.drops_total > 0);
    assert_eq!(large.drops_total, 0);
    // ...but a long enough stall beats any fixed backlog.
    let longer = run(system(800, 150, 512), RetransmitPolicy::default());
    assert!(longer.drops_total > 0, "{}", longer.summary());
}

#[test]
fn bigger_thread_pool_raises_the_threshold_symmetrically() {
    let small = run(system(400, 150, 128), RetransmitPolicy::default());
    let large = run(system(400, 600, 128), RetransmitPolicy::default());
    assert!(small.drops_total > 0);
    assert_eq!(large.drops_total, 0);
}

#[test]
fn capacity_sets_the_threshold_but_the_split_shapes_the_drain() {
    // threads+backlog is the quantity in the paper's overflow arithmetic:
    // both splits of 400 slots drop under a 500 ms stall and neither drops
    // under 300 ms. The drop *counts* differ, though: a thread-heavy split
    // releases a bigger simultaneous batch into the app tier after the
    // stall (FIFO convoy), lengthening the overflow window.
    let thread_heavy = run(system(500, 350, 50), RetransmitPolicy::default());
    let backlog_heavy = run(system(500, 50, 350), RetransmitPolicy::default());
    assert_eq!(
        thread_heavy.tiers[0].capacity,
        backlog_heavy.tiers[0].capacity
    );
    assert!(thread_heavy.drops_total > 0 && backlog_heavy.drops_total > 0);
    assert!(
        thread_heavy.drops_total > backlog_heavy.drops_total,
        "convoy asymmetry: {} vs {}",
        thread_heavy.drops_total,
        backlog_heavy.drops_total
    );
    // below the threshold both are clean regardless of split
    assert_eq!(
        run(system(300, 350, 50), RetransmitPolicy::default()).drops_total,
        0
    );
    assert_eq!(
        run(system(300, 50, 350), RetransmitPolicy::default()).drops_total,
        0
    );
}

#[test]
fn latency_tail_follows_the_retransmission_schedule() {
    // With the flat 3 s schedule every dropped packet costs >= 3 s (a VLRT
    // request). With 1 s initial backoff the first retry usually lands
    // while the queue is merely draining, so it completes in ~1-2 s — below
    // the VLRT threshold. The tail is a TCP artifact, not service time.
    let flat = run(system(700, 150, 128), RetransmitPolicy::rhel6_syn(3));
    assert!(flat.has_mode_near(3), "{:?}", flat.latency_modes());
    assert!(flat.vlrt_total > 100, "{}", flat.summary());

    let exp = run(
        system(700, 150, 128),
        RetransmitPolicy::exponential(SimDuration::from_secs(1), 4),
    );
    // same drops, far fewer VLRT requests
    assert!(exp.drops_total > 0);
    assert!(
        exp.vlrt_total * 4 < flat.vlrt_total,
        "exp {} vs flat {}",
        exp.vlrt_total,
        flat.vlrt_total
    );
    // what VLRT remains sits at 1+2=3 s (double drops), never at 6 s
    assert!(!exp.has_mode_near(6), "{:?}", exp.latency_modes());

    // No retransmit at all: every drop fails its request at once, so the
    // 3 s tail vanishes entirely.
    let none = run(system(700, 150, 128), RetransmitPolicy::rhel6_syn(0));
    assert!(none.drops_total > 0, "{}", none.summary());
    assert_eq!(none.failed, none.drops_total, "{}", none.summary());
    assert_eq!(none.vlrt_total, 0, "{}", none.summary());
    assert!(none.is_conserved(), "{}", none.summary());
}

#[test]
fn dvfs_slowdown_is_a_millibottleneck_too() {
    // A 60% frequency drop for 700 ms behaves like a (shorter) full stall:
    // the paper's claim that CTQO is independent of the stall's cause.
    use ntier_repro::interference::DvfsSlowdown;
    // The dip must hit the *bottleneck* tier: the web tier's demand is tiny
    // (~0.035 ms), so even at 10% speed it keeps up; the app tier at 10%
    // serves ~130 req/s against 1000 req/s arriving, and the backed-up web
    // threads overflow MaxSysQDepth(Web) = 278 — upstream CTQO again.
    let dip = DvfsSlowdown::new(0.1, SimDuration::from_millis(1))
        .over(SimTime::from_secs(5), SimDuration::from_millis(700));
    let mut sys = system(0, 150, 128);
    sys.tiers[0] = TierSpec::sync("Web", 150, 128);
    sys.tiers[1] = sys.tiers[1].clone().with_stalls(dip);
    let r = run(sys, RetransmitPolicy::default());
    assert!(r.drops_total > 0, "{}", r.summary());
    assert!(r.has_mode_near(3));
}

#[test]
fn async_front_is_immune_to_any_of_these_knobs() {
    // Whatever the stall, an async web tier with default LiteQDepth admits
    // everything that a 1000 req/s burst can throw at it.
    for stall_ms in [400u64, 800, 1_600] {
        let stalls =
            StallSchedule::at_marks([SimTime::from_secs(5)], SimDuration::from_millis(stall_ms));
        let sys = Topology::three_tier(
            TierSpec::asynchronous("Web", 65_535, 4).with_stalls(stalls),
            TierSpec::sync("App", 4_000, 4_000).with_downstream_pool(4_000),
            TierSpec::sync("Db", 4_000, 4_000),
        );
        let r = run(sys, RetransmitPolicy::default());
        assert_eq!(
            r.tiers[0].drops_total,
            0,
            "stall {stall_ms} ms: {}",
            r.summary()
        );
    }
}

#[test]
fn bounded_lightweight_queues_drop_too() {
    // "Async" is not magic: an event-driven tier with a *small* lightweight
    // queue (a SEDA-style bounded stage) drops once the stall backlog
    // exceeds it — LiteQDepth must actually cover λ·d. 1000 req/s × 0.8 s
    // = 800 > 300.
    let stalls = StallSchedule::at_marks([SimTime::from_secs(5)], SimDuration::from_millis(800));
    let bounded = Topology::three_tier(
        TierSpec::asynchronous("Web", 300, 4).with_stalls(stalls.clone()),
        TierSpec::sync("App", 4_000, 4_000).with_downstream_pool(4_000),
        TierSpec::sync("Db", 4_000, 4_000),
    );
    let r = run(bounded, RetransmitPolicy::default());
    assert!(r.tiers[0].drops_total > 0, "{}", r.summary());
    // the paper-sized queue absorbs the same stall
    let roomy = Topology::three_tier(
        TierSpec::asynchronous("Web", 65_535, 4).with_stalls(stalls),
        TierSpec::sync("App", 4_000, 4_000).with_downstream_pool(4_000),
        TierSpec::sync("Db", 4_000, 4_000),
    );
    let r = run(roomy, RetransmitPolicy::default());
    assert_eq!(r.tiers[0].drops_total, 0, "{}", r.summary());
}

#[test]
fn gc_pauses_are_millibottlenecks_with_the_same_signature() {
    // The paper's [32] traced VLRT requests to JVM full GCs. A major-GC
    // pause schedule on the app tier reproduces the CTQO signature with no
    // other interference: web-tier drops and a 3 s latency mode.
    use ntier_repro::interference::GcModel;
    let mut rng = SimRng::seed_from(13);
    let schedule = GcModel::throughput_collector().schedule(SimDuration::from_secs(120), &mut rng);
    let mut sys = system(0, 150, 128);
    sys.tiers[1] = sys.tiers[1].clone().with_stalls(schedule);
    let arrivals: Vec<SimTime> = (0..110_000).map(SimTime::from_millis).collect();
    let report = Engine::new(
        sys.with_retransmit(RetransmitPolicy::default()),
        Workload::open(arrivals, RequestMix::view_story()),
        SimDuration::from_secs(120),
        13,
    )
    .run();
    // minor GCs (~30 ms) are harmless; only major pauses (~400 ms) drop
    assert!(report.drops_total > 0, "{}", report.summary());
    assert_eq!(report.tiers[0].drops_total, report.drops_total);
    assert!(report.has_mode_near(3), "{:?}", report.latency_modes());
}
