//! Tests of the millibottleneck detector and causal-chain reconstruction —
//! the measurement methodology the paper's analysis rests on.

use ntier_repro::core::analysis::{
    causal_chains, detect_millibottlenecks_default, mean_util_at_granularity, CtqoClass,
};
use ntier_repro::core::experiment as exp;
use ntier_repro::des::prelude::*;

#[test]
fn detector_finds_the_injected_stalls_at_the_right_marks() {
    let r = exp::fig3(42).run();
    let found = detect_millibottlenecks_default(&r);
    // fig3 injects four ~400 ms stalls in Tomcat at 12/15/19/25 s (sim time)
    let tomcat: Vec<_> = found.iter().filter(|m| m.tier == 1).collect();
    assert!(tomcat.len() >= 4, "found {found:?}");
    for expect_secs in [12u64, 15, 19, 25] {
        let mark = SimTime::from_secs(expect_secs);
        assert!(
            tomcat
                .iter()
                .any(|m| m.start <= mark + SimDuration::from_millis(100)
                    && m.end >= mark + SimDuration::from_millis(200)),
            "no bottleneck covering the {expect_secs}s mark: {tomcat:?}"
        );
    }
    for m in &tomcat {
        assert!(
            m.duration() <= SimDuration::from_secs(2),
            "sub-second: {m:?}"
        );
        assert!(m.mean_util >= 0.95);
    }
}

#[test]
fn millibottlenecks_are_invisible_to_coarse_monitoring() {
    // The same run whose 50 ms windows hit 100 % shows nothing alarming at
    // 5-second granularity — the paper's motivation for fine-grained
    // monitoring.
    let r = exp::fig3(42).run();
    let fine = r.tiers[1].combined_util(r.horizon);
    assert!(
        fine.iter().any(|u| *u >= 0.99),
        "50 ms windows must saturate"
    );
    let coarse = mean_util_at_granularity(&r, 1, SimDuration::from_secs(5));
    assert!(
        coarse.iter().all(|u| *u < 0.90),
        "5 s means must stay moderate: {coarse:?}"
    );
}

#[test]
fn causal_chains_link_stall_to_upstream_drops() {
    let spec = exp::fig3(42);
    let system = spec.system.clone();
    let r = spec.run();
    let chains = causal_chains(&r, &system, SimDuration::from_secs(1));
    // at least one chain: Tomcat bottleneck -> Apache queue saturation ->
    // upstream drop episode
    let with_drops: Vec<_> = chains.iter().filter(|c| c.drops() > 0).collect();
    assert!(!with_drops.is_empty(), "{chains:?}");
    for c in &with_drops {
        assert_eq!(c.bottleneck.tier, 1, "stall site is Tomcat");
        assert!(
            c.saturated_queues.contains(&0),
            "Apache queue must saturate: {c:?}"
        );
        assert!(c
            .episodes
            .iter()
            .all(|e| e.class == CtqoClass::Upstream || e.class == CtqoClass::Downstream));
    }
}

#[test]
fn nx3_chains_have_bottlenecks_but_no_drops() {
    let spec = exp::fig10(42);
    let system = spec.system.clone();
    let r = spec.run();
    let chains = causal_chains(&r, &system, SimDuration::from_secs(1));
    assert!(!chains.is_empty(), "the stalls are still there");
    for c in &chains {
        assert_eq!(c.drops(), 0, "{c:?}");
    }
}

#[test]
fn no_bottlenecks_detected_in_a_calm_run() {
    // A moderate-rate run with no injected stalls: nothing to find.
    use ntier_repro::core::engine::{Engine, Workload};
    use ntier_repro::core::presets;
    use ntier_repro::workload::{ClosedLoopSpec, RequestMix};
    let r = Engine::new(
        presets::sync_three_tier(),
        Workload::Closed {
            spec: ClosedLoopSpec::rubbos(2_000),
            mix: RequestMix::rubbos_browse(),
        },
        SimDuration::from_secs(20),
        9,
    )
    .run();
    assert!(detect_millibottlenecks_default(&r).is_empty());
}
