//! §III's dynamic-condition arithmetic, validated end-to-end.
//!
//! The paper's worked example: at 1000 req/s, a 0.4 s millibottleneck sees
//! 400 arrivals while the tier can queue `MaxSysQDepth = 150 + 128 = 278`;
//! the excess (~122) drops. These tests drive the engine with exactly that
//! configuration and check the simulation agrees with the closed form —
//! including the no-drop side of the threshold.

use ntier_repro::core::conditions::DynamicConditions;
use ntier_repro::core::engine::{Engine, Workload};
use ntier_repro::core::{SystemConfig, TierSpec, Topology};
use ntier_repro::des::prelude::*;
use ntier_repro::interference::StallSchedule;
use ntier_repro::workload::{PoissonProcess, RequestMix};

/// A single sync tier under test (app/db generously sized so only the web
/// tier's capacity matters).
fn system_with_web_stall(stall: SimDuration) -> SystemConfig {
    let stalls = StallSchedule::at_marks([SimTime::from_secs(5)], stall);
    Topology::three_tier(
        TierSpec::sync("Web", 150, 128).with_stalls(stalls),
        TierSpec::sync("App", 4_000, 4_000).with_downstream_pool(4_000),
        TierSpec::sync("Db", 4_000, 4_000),
    )
}

fn run(stall: SimDuration, seed: u64) -> ntier_repro::core::RunReport {
    let mut rng = SimRng::seed_from(seed);
    let arrivals = PoissonProcess::new(1_000.0).arrivals(SimDuration::from_secs(10), &mut rng);
    Engine::new(
        system_with_web_stall(stall),
        Workload::open(arrivals, RequestMix::view_story()),
        SimDuration::from_secs(20),
        seed,
    )
    .run()
}

#[test]
fn paper_example_400ms_stall_drops_close_to_expected_excess() {
    let conditions = DynamicConditions::paper_example();
    assert!(conditions.drops_expected());
    let report = run(SimDuration::from_millis(400), 7);
    // λ·d − capacity = 122; steady-state in-flight plus Poisson variance
    // move the realized count a bit, but the order must match.
    let drops = report.tiers[0].drops_total as f64;
    let expect = conditions.expected_excess();
    assert!(
        (expect * 0.5..expect * 1.8).contains(&drops),
        "drops {drops} vs expected excess {expect}\n{}",
        report.summary()
    );
    assert!(report.is_conserved());
}

#[test]
fn stall_below_critical_never_drops() {
    let conditions = DynamicConditions::new(1_000.0, SimDuration::from_millis(200), 278);
    assert!(!conditions.drops_expected());
    let report = run(SimDuration::from_millis(200), 7);
    assert_eq!(report.drops_total, 0, "{}", report.summary());
    assert_eq!(report.vlrt_total, 0);
}

#[test]
fn drops_scale_with_stall_duration() {
    let d400 = run(SimDuration::from_millis(400), 11).drops_total;
    let d600 = run(SimDuration::from_millis(600), 11).drops_total;
    let d800 = run(SimDuration::from_millis(800), 11).drops_total;
    assert!(d400 < d600 && d600 < d800, "{d400} {d600} {d800}");
}

#[test]
fn critical_stall_matches_simulated_threshold() {
    // The closed form says the break-even stall is capacity/rate = 278 ms —
    // but it ignores the *drain convoy*: right after the stall, the app tier
    // chews through the released batch FIFO, so web completions lag ~50 ms
    // while arrivals continue, adding ~25 to the peak. With deterministic
    // 1000 req/s arrivals, 210 ms (210 + convoy < 278) stays clean while
    // 320 ms (> 278 before any drain effect) must drop.
    let uniform: Vec<SimTime> = (0..10_000).map(SimTime::from_millis).collect();
    let run_uniform = |stall_ms: u64| {
        Engine::new(
            system_with_web_stall(SimDuration::from_millis(stall_ms)),
            Workload::open(uniform.clone(), RequestMix::view_story()),
            SimDuration::from_secs(20),
            13,
        )
        .run()
    };
    let just_below = run_uniform(210);
    assert_eq!(just_below.drops_total, 0, "{}", just_below.summary());
    let above = run_uniform(320);
    assert!(above.drops_total > 0, "{}", above.summary());
}

#[test]
fn dropped_requests_return_as_vlrt_with_3s_modes() {
    let report = run(SimDuration::from_millis(500), 17);
    assert!(report.vlrt_total > 0);
    assert!(
        report.has_mode_near(3),
        "modes: {:?}",
        report.latency_modes()
    );
    // every VLRT here is drop-induced, so counts agree within retry effects
    assert!(report.vlrt_total <= report.drops_total);
}
