//! Closed-loop control plane: conservation under autoscaling, bit-identical
//! determinism for controlled runs, and the seed-7 damp/amplify frontier.

mod common;

use ntier_core::engine::{Engine, Workload};
use ntier_core::{experiment, Balancer, TierSpec, Topology};
use ntier_des::prelude::*;
use ntier_repro::control::{Action, AutoscalerConfig, ControlConfig, GovernorConfig};
use ntier_repro::interference::StallSchedule;
use ntier_repro::resilience::CallerPolicy;
use ntier_workload::{ClosedLoopSpec, RequestMix};
use proptest::prelude::*;

use experiment::ControlVariant;

/// The seed-7 acceptance frontier: the damping configuration lands VLRT
/// strictly below the uncontrolled baseline, the amplifying configuration
/// strictly above it — same actuators, opposite regimes.
#[test]
fn frontier_damps_below_and_amplifies_above_baseline_on_seed_7() {
    let reports = ntier_runner::run_all(experiment::control_frontier_sweep(7), 8);
    let vlrt: Vec<u64> = reports.iter().map(|r| r.vlrt_total).collect();
    let (uncontrolled, damped, amplified, tuned) = (vlrt[0], vlrt[1], vlrt[2], vlrt[3]);
    assert!(uncontrolled > 0, "the baseline must exhibit the VLRT tail");
    assert!(
        damped < uncontrolled,
        "damped ({damped}) must sit strictly below uncontrolled ({uncontrolled})"
    );
    assert!(
        amplified > uncontrolled,
        "amplified ({amplified}) must sit strictly above uncontrolled ({uncontrolled})"
    );
    assert!(
        tuned < uncontrolled,
        "tuned ({tuned}) must sit strictly below uncontrolled ({uncontrolled})"
    );
    for r in &reports {
        assert!(r.is_conserved());
    }
    // The uncontrolled arm carries no decision log; every controlled arm
    // exercised its actuators.
    assert!(reports[0].control.is_none());
    let damped_log = reports[1].control.as_ref().expect("damped is controlled");
    assert!(
        damped_log.count(|a| matches!(a, Action::ScaleUp { .. })) >= 1,
        "{}",
        damped_log.summary()
    );
    assert!(
        damped_log.count(|a| matches!(a, Action::Brake { .. })) >= 1,
        "{}",
        damped_log.summary()
    );
    let amp_log = reports[2]
        .control
        .as_ref()
        .expect("amplified is controlled");
    assert!(
        amp_log.count(|a| matches!(a, Action::Drain { .. })) >= 1,
        "{}",
        amp_log.summary()
    );
    // The amplifier's defining move: it drains the healthy replica during
    // the pre-stall calm (before the first stall at t = 2 s).
    let first_drain = amp_log
        .decisions
        .iter()
        .find(|d| matches!(d.action, Action::Drain { .. }))
        .expect("amplifier drains");
    assert!(
        first_drain.at < SimTime::from_secs(2),
        "drain at {} should precede the first stall",
        first_drain.at
    );
    let tuned_log = reports[3].control.as_ref().expect("tuned is controlled");
    assert!(
        tuned_log.count(|a| matches!(a, Action::SetHedgeDelay { .. })) >= 1,
        "{}",
        tuned_log.summary()
    );
    assert!(
        tuned_log.count(|a| matches!(a, Action::SetAimdBounds { .. })) >= 1,
        "{}",
        tuned_log.summary()
    );
}

/// Controller actions land on VLRT causal chains: every controlled arm's
/// analysis joins its decision log, and chains overlapping actuations
/// narrate them.
#[test]
fn root_cause_attributes_controller_actions_on_seed_7() {
    use ntier_trace::RootCause;
    let reports = ntier_runner::run_all(
        vec![
            experiment::control_frontier(ControlVariant::Damped, 7),
            experiment::control_frontier(ControlVariant::Amplified, 7),
        ],
        2,
    );
    for report in &reports {
        let log = report.trace.as_ref().expect("frontier runs traced");
        let actions = report.control_actions();
        assert!(!actions.is_empty());
        let tier_data = report.trace_tier_data();
        let analysis = RootCause.analyze_with_actions(log, &tier_data, &actions);
        assert!(
            !analysis.chains.is_empty(),
            "VLRT chains must survive attribution"
        );
        let narrated: usize = analysis
            .chains
            .iter()
            .filter(|c| !c.control.is_empty())
            .count();
        assert!(
            narrated > 0,
            "at least one chain overlaps a controller actuation window"
        );
        let with_actions = analysis
            .chains
            .iter()
            .find(|c| !c.control.is_empty())
            .expect("checked above");
        let text = with_actions.narrate(&tier_data);
        assert!(text.contains("controller:"), "{text}");
    }
}

/// A drained-then-retired replica holding pinned retransmits must not
/// panic the engine: a retransmit pinned to the retired replica
/// re-balances over the survivors and the request is still accounted for.
/// The amplified arm drains and retires replicas while the naive client's
/// drops sit in RTO limbo — exactly the race.
#[test]
fn retirement_during_rto_limbo_conserves_requests() {
    let report = experiment::control_frontier(ControlVariant::Amplified, 7).run();
    let log = report.control.as_ref().expect("controlled");
    assert!(
        log.count(|a| matches!(a, Action::Retire { .. })) >= 1,
        "the race needs at least one retirement: {}",
        log.summary()
    );
    assert!(report.is_conserved());
    assert_eq!(
        report.injected,
        report.completed + report.failed + report.shed
    );
}

/// Replica ids are `u8`, so the engine provisions at most 255 replicas per
/// tier, retired ones included. An autoscaler that flaps between one and
/// two replicas for 30 s burns through those ids; once they run out it
/// must stop deciding scale-ups the engine cannot honour, or its log shows
/// phantom `ScaleUp`s and its pending count never drains again.
#[test]
fn autoscaler_stops_at_the_replica_id_cap() {
    let app = TierSpec::sync("App", 4, 8)
        .replicas(2)
        .balancer(Balancer::RoundRobin);
    let control =
        ControlConfig::every(SimDuration::from_millis(10)).with_autoscaler(AutoscalerConfig {
            tier: 1,
            min_replicas: 1,
            max_replicas: 2,
            up_depth: 1.0,
            down_depth: 0.5,
            provisioning_lag: SimDuration::from_millis(1),
            cooldown: SimDuration::from_millis(10),
        });
    let system = Topology::three_tier(
        TierSpec::sync("Web", 150, 128),
        app,
        TierSpec::sync("Db", 100, 128),
    )
    .with_control(control);
    let report = Engine::new(
        system,
        Workload::closed(ClosedLoopSpec::rubbos(3_000), RequestMix::rubbos_browse()),
        SimDuration::from_secs(30),
        7,
    )
    .run();
    let log = report.control.as_ref().expect("controlled run");
    let ups = log.count(|a| matches!(a, Action::ScaleUp { .. }));
    let online = log.count(|a| matches!(a, Action::ReplicaOnline { .. }));
    assert!(
        online >= 200,
        "the run must approach the cap: {}",
        log.summary()
    );
    assert_eq!(ups, online, "{}", log.summary());
    assert!(report.is_conserved());
}

fn control_fingerprint(r: &ntier_core::RunReport) -> String {
    use std::fmt::Write;
    let mut s = format!(
        "inj={} comp={} fail={} shed={} canc={} infl={} vlrt={} drops={} mean={} p99={}",
        r.injected,
        r.completed,
        r.failed,
        r.shed,
        r.cancelled,
        r.in_flight_end,
        r.vlrt_total,
        r.drops_total,
        r.latency.mean().as_micros(),
        r.latency
            .quantile(0.99)
            .map_or(0, ntier_des::time::SimDuration::as_micros),
    );
    if let Some(log) = &r.control {
        write!(s, " | {}", log.summary()).unwrap();
        for d in &log.decisions {
            write!(s, " | {}@{}:{}", d.action.label(), d.at, d.reason).unwrap();
        }
    }
    for t in &r.tiers {
        write!(
            s,
            " | {} peak={} drops={} qmax={:?} dsum={:?}",
            t.name,
            t.peak_queue,
            t.drops_total,
            t.queue_depth.maxima(),
            t.drops.sums(),
        )
        .unwrap();
        for rep in &t.replicas {
            write!(
                s,
                " r{}:peak={} drops={}",
                rep.id, rep.peak_queue, rep.drops_total
            )
            .unwrap();
        }
    }
    s
}

/// The ISSUE's determinism rule for controlled runs: every decision, every
/// per-replica counter and the full decision log are byte-identical
/// between a 1-thread and an 8-thread pass — the controller's only
/// randomness is its dedicated rng fork, so worker scheduling is invisible.
#[test]
fn controlled_runs_are_thread_count_invariant() {
    let specs = || {
        let mut v = experiment::control_frontier_sweep(7);
        v.extend(experiment::control_frontier_sweep(11));
        v
    };
    let serial: Vec<String> = ntier_runner::run_all(specs(), 1)
        .iter()
        .map(control_fingerprint)
        .collect();
    let parallel: Vec<String> = ntier_runner::run_all(specs(), 8)
        .iter()
        .map(control_fingerprint)
        .collect();
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            a, b,
            "controlled spec #{i} diverged between 1 and 8 threads"
        );
    }
}

/// An arbitrary (possibly pathological) autoscaler + governor over a
/// replicated app tier.
fn arb_control() -> impl Strategy<Value = ControlConfig> {
    (
        (
            20u64..200,   // tick ms
            1usize..3,    // min replicas
            2usize..8,    // max - min headroom
            1u32..40,     // up_depth
            10u64..2_000, // provisioning lag ms
            50u64..1_000, // cooldown ms
        ),
        (
            any::<bool>(), // governor armed?
            2u64..60,      // min offered
            1usize..64,    // brake depth
        ),
    )
        .prop_map(
            |((tick, min_r, headroom, up, lag, cool), (gov, min_off, brake))| {
                let up_depth = up as f64;
                let mut cfg = ControlConfig::every(SimDuration::from_millis(tick)).with_autoscaler(
                    AutoscalerConfig {
                        tier: 1,
                        min_replicas: min_r,
                        max_replicas: min_r + headroom,
                        up_depth,
                        down_depth: up_depth / 4.0,
                        provisioning_lag: SimDuration::from_millis(lag),
                        cooldown: SimDuration::from_millis(cool),
                    },
                );
                if gov {
                    cfg = cfg.with_governor(GovernorConfig {
                        min_offered: min_off,
                        goodput_ratio: 0.5,
                        ordinal_floor: 2,
                        arm_after: 2,
                        brake_tier: 0,
                        brake_depth: brake,
                        hold: SimDuration::from_millis(500),
                        release_ratio: 0.8,
                    });
                }
                cfg
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(32)))]

    /// Conservation survives any autoscaling trajectory: replicas coming
    /// online mid-run, draining mid-burst, retiring with retransmits
    /// pinned at them, and the governor shedding at admission — injected
    /// always equals completed + failed + shed + cancelled + in-flight.
    #[test]
    fn conservation_under_autoscaling(
        control in arb_control(),
        replicas in 2usize..4,
        stall_at in 5u64..40,
        stall_ms in 200u64..2_000,
        gap_us in 900u64..4_000,
        naive_client in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let stall = StallSchedule::at_marks(
            [SimTime::from_millis(stall_at * 100)],
            SimDuration::from_millis(stall_ms),
        );
        let mut web = TierSpec::sync("Web", 32, 8);
        if naive_client {
            web = web.with_caller_policy(CallerPolicy::naive(SimDuration::from_secs(2), 3));
        }
        let app = TierSpec::sync("App", 16, 16)
            .replicas(replicas)
            .balancer(Balancer::RoundRobin)
            .with_replica_stalls(0, stall);
        let db = TierSpec::sync("Db", 32, 32);
        let system = Topology::three_tier(web, app, db).with_control(control);
        let arrivals: Vec<SimTime> = (0..4_000_000 / gap_us)
            .map(|i| SimTime::from_micros(i * gap_us))
            .collect();
        let report = Engine::new(
            system,
            Workload::open(arrivals, RequestMix::view_story()),
            SimDuration::from_secs(12),
            seed,
        )
        .run();
        prop_assert!(report.is_conserved(),
            "inj {} != comp {} + fail {} + shed {} + canc {} + infl {}",
            report.injected, report.completed, report.failed,
            report.shed, report.cancelled, report.in_flight_end);
        let log = report.control.as_ref().expect("controlled run");
        // Decision-log sanity: nothing comes online that was not scaled
        // up, nothing retires that was not drained.
        let online = log.count(|a| matches!(a, Action::ReplicaOnline { .. }));
        prop_assert!(online <= log.count(|a| matches!(a, Action::ScaleUp { .. })));
        prop_assert!(
            log.count(|a| matches!(a, Action::Retire { .. }))
                <= log.count(|a| matches!(a, Action::Drain { .. }))
        );
        // Replica accounting: every tier report still covers all
        // provisioned instances (retired replicas stay listed).
        let app_replicas = report.tiers[1].replicas.len();
        prop_assert!(app_replicas >= replicas);
        prop_assert_eq!(
            app_replicas,
            replicas + online,
            "replica vec must grow exactly by the onlined count"
        );
    }
}
