//! Determinism guarantees across the engine's performance work.
//!
//! The golden constants below were captured from the engine **before** the
//! calendar event queue, the request slab, and the allocation removals
//! landed. Seeded runs must keep reproducing them bit-for-bit: the hot-path
//! work is pure mechanics, not a model change.

use ntier_core::engine::{Engine, Workload};
use ntier_core::{experiment, TierSpec, Topology};
use ntier_des::prelude::*;
use ntier_workload::{ClosedLoopSpec, RequestMix};

/// The handful of report fields the goldens pin down.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    injected: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    drops: u64,
    vlrt: u64,
    mean_us: u64,
    p99_us: u64,
    peaks: Vec<usize>,
    tier_drops: Vec<u64>,
    retries: u64,
    timeouts: u64,
}

fn fingerprint(r: &ntier_core::RunReport) -> Golden {
    Golden {
        injected: r.injected,
        completed: r.completed,
        failed: r.failed,
        shed: r.shed,
        drops: r.drops_total,
        vlrt: r.vlrt_total,
        mean_us: r.latency.mean().as_micros(),
        p99_us: r.latency.quantile(0.99).expect("completions").as_micros(),
        peaks: r.tiers.iter().map(|t| t.peak_queue).collect(),
        tier_drops: r.tiers.iter().map(|t| t.drops_total).collect(),
        retries: r.resilience.retries,
        timeouts: r.resilience.timeouts,
    }
}

fn closed_50(seed: u64) -> ntier_core::RunReport {
    let system = Topology::three_tier(
        TierSpec::sync("Web", 4, 2),
        TierSpec::sync("App", 4, 2).with_downstream_pool(2),
        TierSpec::sync("Db", 4, 2),
    );
    let workload = Workload::Closed {
        spec: ClosedLoopSpec::rubbos(50),
        mix: RequestMix::rubbos_browse(),
    };
    Engine::new(system, workload, SimDuration::from_secs(20), seed).run()
}

#[test]
fn golden_closed_loop_seed_1() {
    assert_eq!(
        fingerprint(&closed_50(1)),
        Golden {
            injected: 154,
            completed: 154,
            failed: 0,
            shed: 0,
            drops: 0,
            vlrt: 0,
            mean_us: 1399,
            p99_us: 50000,
            peaks: vec![2, 2, 2],
            tier_drops: vec![0, 0, 0],
            retries: 0,
            timeouts: 0,
        }
    );
}

#[test]
fn golden_closed_loop_seed_7() {
    assert_eq!(
        fingerprint(&closed_50(7)),
        Golden {
            injected: 140,
            completed: 140,
            failed: 0,
            shed: 0,
            drops: 0,
            vlrt: 0,
            mean_us: 1450,
            p99_us: 50000,
            peaks: vec![1, 1, 1],
            tier_drops: vec![0, 0, 0],
            retries: 0,
            timeouts: 0,
        }
    );
}

#[test]
fn golden_closed_loop_seed_42() {
    assert_eq!(
        fingerprint(&closed_50(42)),
        Golden {
            injected: 160,
            completed: 160,
            failed: 0,
            shed: 0,
            drops: 0,
            vlrt: 0,
            mean_us: 1459,
            p99_us: 50000,
            peaks: vec![2, 2, 2],
            tier_drops: vec![0, 0, 0],
            retries: 0,
            timeouts: 0,
        }
    );
}

/// Fig. 3 exercises bursty millibottlenecks, drops, retransmits and CTQO —
/// the full hot path at WL 7000.
#[test]
fn golden_fig3_seed_3() {
    assert_eq!(
        fingerprint(&experiment::fig3(3).run()),
        Golden {
            injected: 29625,
            completed: 29615,
            failed: 0,
            shed: 0,
            drops: 265,
            vlrt: 222,
            mean_us: 61402,
            p99_us: 500000,
            peaks: vec![428, 278, 50],
            tier_drops: vec![199, 66, 0],
            retries: 0,
            timeouts: 0,
        }
    );
}

/// The retry-storm arm covers attempt timeouts, orphans, retry tickets and
/// the jitter RNG — the paths the request slab must not perturb.
#[test]
fn golden_retry_storm_naive_seed_7() {
    let spec = experiment::retry_storm(experiment::RetryStormVariant::Naive, 7);
    assert_eq!(
        fingerprint(&spec.run()),
        Golden {
            injected: 8000,
            completed: 8000,
            failed: 0,
            shed: 0,
            drops: 0,
            vlrt: 726,
            mean_us: 1256986,
            p99_us: 4000000,
            peaks: vec![2696, 64, 49],
            tier_drops: vec![0, 0, 0],
            retries: 800,
            timeouts: 800,
        }
    );
}

/// Passive gray-failure monitoring must never perturb the simulation: a
/// detector whose threshold is unreachable observes every reply and drop,
/// ticks on schedule, and the run stays byte-identical to one with no
/// detector at all — the "byte-identical when disabled" contract extended
/// to "byte-identical while silent".
#[test]
fn silent_health_monitoring_never_perturbs_the_run() {
    use ntier_repro::resilience::{FaultPlan, GrayEnvelope, HealthPolicy};
    let mk = |monitored: bool| {
        let plan = FaultPlan::none()
            .gray_degradation(
                1,
                0,
                SimTime::from_secs(2),
                GrayEnvelope::new(
                    SimDuration::from_millis(400),
                    SimDuration::from_secs(3),
                    SimDuration::from_millis(400),
                    6.0,
                ),
            )
            .expect("valid envelope");
        let mut system = Topology::three_tier(
            TierSpec::sync("Web", 8, 8),
            TierSpec::sync("App", 8, 8).replicas(2),
            TierSpec::sync("Db", 8, 8),
        )
        .with_faults(plan);
        if monitored {
            // Scores are capped at 3.0 by construction, so 1e9 never fires.
            system = system.with_health(HealthPolicy::monitor(1).with_eject_score(1e9));
        }
        Engine::new(
            system,
            Workload::open(
                (0..2_000)
                    .map(|i| SimTime::from_millis(500 + i * 4))
                    .collect(),
                RequestMix::rubbos_browse(),
            ),
            SimDuration::from_secs(15),
            7,
        )
        .run()
    };
    let plain = mk(false);
    let silent = mk(true);
    assert_eq!(fingerprint(&plain), fingerprint(&silent));
    // The degradation must actually bite for this to mean anything.
    assert!(
        plain.vlrt_total > 0 || plain.drops_total > 0 || plain.latency.mean().as_micros() > 2_000
    );
    // The monitored run still carries its (empty) decision log.
    let log = silent.control.expect("monitored run logs ticks");
    assert!(log.decisions.is_empty());
    assert!(log.ticks > 0);
    assert!(plain.control.is_none());
}

/// Deep chains exercise OpenPlans workloads and multi-epoch event queues
/// (the +3 s retransmit tail crosses calendar epochs).
#[test]
fn golden_chain_depth_5_seed_3() {
    let spec = experiment::chain_depth(5, false, 3);
    assert_eq!(
        fingerprint(&spec.run()),
        Golden {
            injected: 1000,
            completed: 1000,
            failed: 0,
            shed: 0,
            drops: 78,
            vlrt: 78,
            mean_us: 270503,
            p99_us: 3050000,
            peaks: vec![32, 24, 24, 24, 24],
            tier_drops: vec![78, 0, 0, 0, 0],
            retries: 0,
            timeouts: 0,
        }
    );
}

/// Same seed ⇒ identical event count, not just identical aggregates.
#[test]
fn event_counts_are_reproducible() {
    let a = closed_50(5);
    let b = closed_50(5);
    assert!(a.events > 0);
    assert_eq!(a.events, b.events);
}

/// The per-kind event counts partition `events`, on a closed loop, a
/// stall, a retry storm and a hedged run; each shows the kinds it drives.
#[test]
fn event_kinds_sum_to_events() {
    let closed = closed_50(5);
    let runs = [
        ("closed", &closed),
        ("fig3", &experiment::fig3(3).run()),
        (
            "retry_storm",
            &experiment::retry_storm(experiment::RetryStormVariant::Naive, 7).run(),
        ),
        (
            "hedged",
            &experiment::hedging_frontier(
                experiment::HedgingVariant::HedgedCancelling,
                experiment::HedgingLoad::Moderate,
                7,
            )
            .run(),
        ),
    ];
    for (name, r) in runs {
        let kinds = r.events_by_kind;
        assert_eq!(kinds.total(), r.events, "{name}: {kinds:?}");
        for kind in ["Arrival", "SliceDone", "ReplyArrive"] {
            assert!(kinds.get(kind) > Some(0), "{name}: no {kind} in {kinds:?}");
        }
    }
    assert_eq!(
        closed.events_by_kind.get("ClientSend"),
        Some(closed.injected)
    );
    assert!(runs[2].1.events_by_kind.get("RetryFire") > Some(0));
    assert!(runs[3].1.events_by_kind.get("HedgeFire") > Some(0));
    assert_eq!(closed.events_by_kind.get("NoSuchKind"), None);
}

/// Everything observable about a run, flattened for equality comparison.
/// Latency histograms are pinned down by a quantile ladder plus the mean;
/// every series is compared window-for-window.
fn deep_fingerprint(r: &ntier_core::RunReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let q = |p: f64| {
        r.latency
            .quantile(p)
            .map_or(0, ntier_des::time::SimDuration::as_micros)
    };
    write!(
        s,
        "ev={} kinds={:?} inj={} comp={} fail={} shed={} canc={} infl={} tput={:.6} vlrt={} drops={} \
         mean={} q50={} q90={} q99={} q999={} q9999={} classes={:?} res={:?} \
         vlrt_windows={:?}",
        r.events,
        r.events_by_kind,
        r.injected,
        r.completed,
        r.failed,
        r.shed,
        r.cancelled,
        r.in_flight_end,
        r.throughput,
        r.vlrt_total,
        r.drops_total,
        r.latency.mean().as_micros(),
        q(0.50),
        q(0.90),
        q(0.99),
        q(0.999),
        q(0.9999),
        r.classes,
        r.resilience,
        r.vlrt_by_completion.sums(),
    )
    .unwrap();
    // The merged decision log: controller directives and health verdicts.
    if let Some(log) = &r.control {
        write!(s, " | {}", log.summary()).unwrap();
        for d in &log.decisions {
            write!(s, " | {}@{}:{}", d.action.label(), d.at, d.reason).unwrap();
        }
    }
    for t in &r.tiers {
        write!(
            s,
            " | {} arch={} cap={} peak={} drops={} spawns={} res={:?} \
             qmax={:?} dsum={:?} vsum={:?} util={:?}",
            t.name,
            t.arch,
            t.capacity,
            t.peak_queue,
            t.drops_total,
            t.spawns,
            t.resilience,
            t.queue_depth.maxima(),
            t.drops.sums(),
            t.vlrt.sums(),
            t.util.utilizations(),
        )
        .unwrap();
    }
    s
}

/// Every plane at once: the tuned detection-frontier arm (gray fault on
/// App#0, health detector, sampled tracing, naive retrying client) plus an
/// autoscaler and governor on the same run and the metrics plane.
fn all_planes_spec() -> experiment::ExperimentSpec {
    use ntier_repro::control::{AutoscalerConfig, ControlConfig, GovernorConfig};
    let mut spec = experiment::detection_frontier(experiment::DetectionVariant::Tuned, 7);
    let control = ControlConfig::every(SimDuration::from_millis(100))
        .with_autoscaler(AutoscalerConfig {
            tier: 1,
            min_replicas: 1,
            max_replicas: 4,
            up_depth: 8.0,
            down_depth: 1.0,
            provisioning_lag: SimDuration::from_millis(300),
            cooldown: SimDuration::from_millis(500),
        })
        .with_governor(GovernorConfig {
            min_offered: 20,
            goodput_ratio: 0.5,
            ordinal_floor: 2,
            arm_after: 2,
            brake_tier: 0,
            brake_depth: 32,
            hold: SimDuration::from_millis(500),
            release_ratio: 0.8,
        });
    spec.system = spec
        .system
        .with_control(control)
        .with_metrics(ntier_telemetry::MetricsConfig::paper_default());
    spec
}

fn invariance_specs() -> Vec<experiment::ExperimentSpec> {
    let mut specs = vec![
        experiment::fig1(3_000, SimDuration::from_secs(10), 1),
        experiment::fig1(7_000, SimDuration::from_secs(10), 2),
        experiment::fig3(3),
        experiment::retry_storm(experiment::RetryStormVariant::Naive, 7),
        experiment::chain_depth(4, true, 9),
        experiment::hedging_frontier(
            experiment::HedgingVariant::HedgedCancelling,
            experiment::HedgingLoad::Moderate,
            7,
        ),
        experiment::hedging_frontier(
            experiment::HedgingVariant::HedgedNoCancel,
            experiment::HedgingLoad::High,
            7,
        ),
    ];
    specs.push(all_planes_spec());
    for c in experiment::FIG12_CONCURRENCIES {
        specs.push(experiment::fig12_sync(c, 11));
        specs.push(experiment::fig12_async(c, 11));
    }
    specs
}

/// The tentpole guarantee of the parallel runner: the worker-pool size is
/// invisible in the output. Every report field — counters, quantile ladder,
/// per-window series, per-tier resilience — must match between a serial
/// pass and an 8-thread pass over the same submission list.
#[test]
fn runner_results_are_thread_count_invariant() {
    let serial: Vec<String> = ntier_runner::run_all(invariance_specs(), 1)
        .iter()
        .map(deep_fingerprint)
        .collect();
    let parallel: Vec<String> = ntier_runner::run_all(invariance_specs(), 8)
        .iter()
        .map(deep_fingerprint)
        .collect();
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "spec #{i} diverged between 1 and 8 threads");
    }
}
