//! Gray-failure detection: the seed-7 detection frontier, controller/health
//! decision-log merging, and bit-identical determinism for detected runs.

#![deny(deprecated)]

use ntier_core::engine::{Engine, Workload};
use ntier_core::{experiment, Balancer, TierSpec, Topology};
use ntier_des::prelude::*;
use ntier_repro::control::{Action, ControlConfig};
use ntier_repro::resilience::{CallerPolicy, FaultPlan, GrayEnvelope, HealthPolicy};
use ntier_workload::RequestMix;

/// The seed-7 acceptance frontier: a tuned detector lands VLRT strictly
/// below the undetected gray baseline, while the hair-trigger detector on
/// a *faultless* plant lands strictly above its clean baseline — the same
/// scoring path, opposite regimes.
#[test]
fn detection_frontier_suppresses_and_amplifies_on_seed_7() {
    let reports = ntier_runner::run_all(experiment::detection_frontier_sweep(7), 8);
    let vlrt: Vec<u64> = reports.iter().map(|r| r.vlrt_total).collect();
    let (undetected, tuned, clean, hair) = (vlrt[0], vlrt[1], vlrt[2], vlrt[3]);
    assert!(
        undetected > 0,
        "the gray baseline must exhibit the VLRT tail"
    );
    assert!(
        tuned < undetected,
        "tuned ({tuned}) must sit strictly below undetected ({undetected})"
    );
    assert!(
        hair > clean,
        "hair-trigger ({hair}) must sit strictly above clean-hot ({clean})"
    );
    for r in &reports {
        assert!(r.is_conserved());
    }
    // Undetected arms carry no decision log; both detector arms ejected.
    assert!(reports[0].control.is_none());
    assert!(reports[2].control.is_none());
    let tuned_log = reports[1].control.as_ref().expect("tuned is detected");
    assert!(
        tuned_log.count(|a| matches!(
            a,
            Action::Ejected {
                tier: 1,
                replica: 0
            }
        )) >= 1,
        "{}",
        tuned_log.summary()
    );
    assert!(
        tuned_log.count(|a| matches!(a, Action::Reinstated { .. })) >= 1,
        "the envelope recovers in-run, probation must reinstate: {}",
        tuned_log.summary()
    );
    let hair_log = reports[3]
        .control
        .as_ref()
        .expect("hair-trigger is detected");
    assert!(
        hair_log.count(|a| matches!(a, Action::Ejected { .. })) >= 1,
        "{}",
        hair_log.summary()
    );
    // The hair-trigger's defining move: it ejects with no fault present,
    // before any gray window could even have opened.
    let first = hair_log
        .decisions
        .iter()
        .find(|d| matches!(d.action, Action::Ejected { .. }))
        .expect("hair-trigger ejects");
    assert!(
        first.at < SimTime::from_secs(2),
        "false ejection at {} needs no fault to fire",
        first.at
    );
}

/// The gray plant the merge/determinism tests share: 2-replica round-robin
/// app tier with App#0 degraded 10x from t=2 s, naive retry client.
fn gray_system() -> ntier_core::SystemConfig {
    let plan = FaultPlan::none()
        .gray_degradation(
            1,
            0,
            SimTime::from_secs(2),
            GrayEnvelope::new(
                SimDuration::from_millis(500),
                SimDuration::from_secs(4),
                SimDuration::from_millis(500),
                10.0,
            ),
        )
        .expect("valid envelope");
    Topology::three_tier(
        TierSpec::sync("Web", 64, 16)
            .with_caller_policy(CallerPolicy::naive(SimDuration::from_secs(2), 4)),
        TierSpec::sync("App", 32, 128)
            .replicas(2)
            .balancer(Balancer::RoundRobin),
        TierSpec::sync("Db", 64, 64),
    )
    .with_faults(plan)
}

fn gray_workload() -> Workload {
    Workload::open(
        (0..5_000)
            .map(|i| SimTime::from_micros(i * 1_750))
            .collect(),
        RequestMix::rubbos_browse(),
    )
}

/// A run with both a controller and a health detector merges the two
/// decision logs into one time-ordered history, ticks summed.
#[test]
fn controller_and_health_logs_merge_in_time_order() {
    // The controller has no subsystems armed: it ticks (every 200 ms) and
    // decides nothing, so every decision in the merged log is the
    // detector's — the merge path itself is what is under test.
    let system = gray_system()
        .with_control(ControlConfig::every(SimDuration::from_millis(200)))
        .with_health(HealthPolicy::monitor(1));
    let report = Engine::new(system, gray_workload(), SimDuration::from_secs(15), 7).run();
    assert!(report.is_conserved());
    let log = report.control.expect("both planes log");
    // 15 s of controller ticks at 200 ms plus detector ticks at 100 ms,
    // the last of each landing exactly on the horizon: neither plane drops
    // or doubles a tick, and the merged log counts each one once.
    let kind = |k| report.events_by_kind.get(k).expect("a known event kind");
    let (controller, health) = (kind("ControllerTick"), kind("HealthTick"));
    assert_eq!(controller, 15_000 / 200);
    assert_eq!(health, 15_000 / 100);
    assert_eq!(log.ticks, controller + health);
    assert!(
        log.count(|a| matches!(a, Action::Ejected { .. })) >= 1,
        "{}",
        log.summary()
    );
    assert!(
        log.decisions.windows(2).all(|w| w[0].at <= w[1].at),
        "merged decisions must be time-ordered"
    );
}

/// Equal seeds give byte-equal decision logs and headline numbers for
/// detected runs — ejection actuations ride the same deterministic streams
/// as everything else.
#[test]
fn detected_runs_are_deterministic() {
    let mk = || {
        Engine::new(
            gray_system().with_health(HealthPolicy::monitor(1)),
            gray_workload(),
            SimDuration::from_secs(15),
            7,
        )
        .run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.drops_total, b.drops_total);
    assert_eq!(a.vlrt_total, b.vlrt_total);
    assert_eq!(a.latency.mean(), b.latency.mean());
    let (la, lb) = (a.control.expect("detected"), b.control.expect("detected"));
    assert_eq!(la.decisions, lb.decisions);
    assert!(
        la.count(|x| matches!(x, Action::Ejected { .. })) >= 1,
        "the plant must actually trigger ejection: {}",
        la.summary()
    );
}
