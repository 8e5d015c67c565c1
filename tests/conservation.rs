//! Property tests on whole-engine invariants: whatever the configuration,
//! workload, burstiness or stall layout, requests are conserved and the
//! accounting stays coherent.

mod common;

use ntier_repro::control::{AutoscalerConfig, ControlConfig};
use ntier_repro::core::engine::{Engine, Workload};
use ntier_repro::core::{Balancer, Plan, SourcedRequest, SystemConfig, TierSpec, Topology};
use ntier_repro::des::prelude::*;
use ntier_repro::interference::StallSchedule;
use ntier_repro::resilience::{
    AimdConfig, BreakerConfig, CallerPolicy, CancelPolicy, FaultPlan, GrayEnvelope, HealthPolicy,
    HedgePolicy, RetryBudget, RetryPolicy, ShedPolicy,
};
use ntier_repro::telemetry::MetricsConfig;
use ntier_repro::trace::TraceConfig;
use ntier_repro::workload::{BurstSchedule, ClosedLoopSpec, RequestMix, VecSource};
use proptest::prelude::*;

fn arb_tier(name: &'static str) -> impl Strategy<Value = TierSpec> {
    (any::<bool>(), 1usize..12, 0usize..8, 1usize..40).prop_map(
        move |(is_async, threads, backlog, lite_q)| {
            if is_async {
                TierSpec::asynchronous(name, lite_q * 8, 2)
            } else {
                TierSpec::sync(name, threads, backlog)
            }
        },
    )
}

fn arb_system() -> impl Strategy<Value = SystemConfig> {
    (
        arb_tier("Web"),
        arb_tier("App"),
        arb_tier("Db"),
        proptest::option::of(1usize..6),
        proptest::collection::vec((5u64..25, 100u64..1_500), 0..3),
    )
        .prop_map(|(web, mut app, db, pool, stalls)| {
            if let Some(p) = pool {
                if app.kind.is_sync() {
                    app = app.with_downstream_pool(p);
                }
            }
            let schedule = StallSchedule::from_intervals(stalls.iter().map(|(s, d)| {
                (
                    SimTime::from_millis(s * 100),
                    SimTime::from_millis(s * 100 + d),
                )
            }));
            let mut sys = Topology::three_tier(web, app.with_stalls(schedule), db);
            sys.tiers[0] = sys.tiers[0].clone();
            sys
        })
}

/// An arbitrary fault plan over a 3-tier chain: any mix of crashes,
/// probabilistic drops, stuck workers and slow hops, with windows inside
/// the first ~6 s of the run.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec(
        (
            0usize..4,
            0usize..3,
            1u64..60,
            1u64..30,
            0.05f64..1.0,
            1usize..6,
        ),
        0..4,
    )
    .prop_map(|faults| {
        let mut plan = FaultPlan::none();
        for (kind, tier, start, len, prob, count) in faults {
            let from = SimTime::from_millis(start * 100);
            let until = from + SimDuration::from_millis(len * 100);
            plan = match kind {
                0 => plan.crash(tier, from, until),
                1 => plan.drop_messages(tier, prob, from, until),
                2 => plan.stuck_workers(tier, count, from, until),
                _ => plan.slow_hops(
                    tier,
                    SimDuration::from_millis(count as u64 * 3),
                    from,
                    until,
                ),
            };
        }
        plan
    })
}

/// An arbitrary client-side caller policy (possibly absent).
fn arb_client_policy() -> impl Strategy<Value = Option<CallerPolicy>> {
    proptest::option::of(
        (
            200u64..3_000,
            0u32..5,
            any::<bool>(),
            any::<bool>(),
            1u32..6,
        )
            .prop_map(
                |(timeout_ms, retries, metered, broken, threshold)| CallerPolicy {
                    attempt_timeout: SimDuration::from_millis(timeout_ms),
                    retry: Some(
                        RetryPolicy::capped(
                            retries,
                            SimDuration::from_millis(20),
                            SimDuration::from_millis(500),
                        )
                        .with_jitter(0.3),
                    ),
                    budget: metered.then(|| RetryBudget::new(8.0, 2.0)),
                    breaker: broken
                        .then(|| BreakerConfig::new(threshold, SimDuration::from_millis(700))),
                    hedge: None,
                    cancel: None,
                },
            ),
    )
}

/// An arbitrary hedged client policy: fixed or quantile hedge delay, K up
/// to 3, optionally budgeted, optionally cancelling, under an overall
/// deadline — the full cross-product the hedging subsystem must conserve
/// through.
fn arb_hedged_policy() -> impl Strategy<Value = CallerPolicy> {
    (
        (300u64..4_000, 10u64..1_500, 1u32..4),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        proptest::option::of(10u64..300),
    )
        .prop_map(
            |(
                (deadline_ms, delay_ms, max_hedges),
                quantile,
                metered,
                cancelling,
                cancel_hop_us,
            )| {
                let hedge = if quantile {
                    HedgePolicy::at_quantile(
                        0.95,
                        SimDuration::from_millis(delay_ms),
                        SimDuration::from_secs(2),
                        max_hedges,
                    )
                } else {
                    HedgePolicy::fixed(SimDuration::from_millis(delay_ms), max_hedges)
                };
                let hedge = if metered {
                    hedge.with_budget(RetryBudget::new(10.0, 3.0))
                } else {
                    hedge
                };
                let mut p = CallerPolicy::hedged(SimDuration::from_millis(deadline_ms), hedge);
                if cancelling {
                    p = p.with_cancel(CancelPolicy::new(SimDuration::from_micros(
                        cancel_hop_us.unwrap_or(50),
                    )));
                }
                p
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(48)))]

    /// injected == completed + failed + shed + in-flight for every
    /// fault-plan scenario, with or without client retry policies and
    /// admission shedding.
    #[test]
    fn conservation_under_faults(
        system in arb_system(),
        plan in arb_fault_plan(),
        policy in arb_client_policy(),
        shed_depth in proptest::option::of(1usize..20),
        batch in 1u32..80,
        seed in any::<u64>(),
    ) {
        let mut system = system.with_faults(plan);
        if let Some(p) = policy {
            system = system.with_client_policy(p);
        }
        if let Some(d) = shed_depth {
            system.tiers[1] = system.tiers[1].clone().with_shed_policy(
                ShedPolicy::on_depth(d).with_deadline(SimDuration::from_secs(8)),
            );
        }
        let burst = BurstSchedule::from_bursts([
            (SimTime::from_millis(200), batch),
            (SimTime::from_millis(2_500), batch / 2 + 1),
        ]);
        let report = Engine::new(
            system,
            Workload::open(burst.arrivals(), RequestMix::rubbos_browse()),
            SimDuration::from_secs(15),
            seed,
        )
        .run();
        prop_assert!(report.is_conserved(), "{}", report.summary());
        prop_assert_eq!(report.injected, u64::from(batch + batch / 2 + 1));
        // The terminal-outcome classes are mutually exclusive, so each is
        // bounded by the injection count.
        prop_assert!(report.completed <= report.injected);
        prop_assert!(report.failed + report.shed <= report.injected);
        // Per-tier resilience counters aggregate to the whole-run view.
        let shed_sum: u64 = report.tiers.iter().map(|t| t.resilience.shed).sum();
        prop_assert_eq!(shed_sum, report.resilience.shed);
    }

    /// injected == completed + failed + shed + cancelled + in-flight under
    /// random hedge/cancel schedules: arbitrary hedge delays (fixed and
    /// quantile-tracking), K, budgets, cancellation on/off, AIMD admission
    /// on the app tier, and fault plans — the hedging subsystem must never
    /// lose or double-count a logical request.
    #[test]
    fn conservation_under_hedging(
        system in arb_system(),
        plan in arb_fault_plan(),
        policy in arb_hedged_policy(),
        aimd in proptest::option::of(2f64..40.0),
        batch in 1u32..80,
        seed in any::<u64>(),
    ) {
        let mut system = system.with_faults(plan).with_client_policy(policy);
        if let Some(init) = aimd {
            system.tiers[1] = system.tiers[1].clone().with_shed_policy(
                ShedPolicy::adaptive(AimdConfig::new(init, 1.0, 256.0)),
            );
        }
        let burst = BurstSchedule::from_bursts([
            (SimTime::from_millis(200), batch),
            (SimTime::from_millis(2_500), batch / 2 + 1),
        ]);
        let report = Engine::new(
            system,
            Workload::open(burst.arrivals(), RequestMix::rubbos_browse()),
            SimDuration::from_secs(15),
            seed,
        )
        .run();
        prop_assert!(report.is_conserved(), "{}", report.summary());
        prop_assert_eq!(report.injected, u64::from(batch + batch / 2 + 1));
        prop_assert!(report.completed + report.failed + report.shed + report.cancelled
            <= report.injected);
        // Cancels only reap work that actually existed: every reap was
        // first a propagated cancel, and hedges stay within K per request.
        prop_assert!(report.resilience.wasted_work_saved <= report.resilience.cancels_propagated);
        prop_assert!(report.resilience.hedges <= report.injected * 3);
    }

    /// injected == completed + failed + in-flight for arbitrary systems
    /// under open bursts.
    #[test]
    fn open_loop_conservation(system in arb_system(), batch in 1u32..80, seed in any::<u64>()) {
        let burst = BurstSchedule::from_bursts([
            (SimTime::from_millis(500), batch),
            (SimTime::from_millis(1_500), batch / 2 + 1),
        ]);
        let report = Engine::new(
            system,
            Workload::open(burst.arrivals(), RequestMix::rubbos_browse()),
            SimDuration::from_secs(15),
            seed,
        )
        .run();
        prop_assert!(report.is_conserved(), "{}", report.summary());
        prop_assert_eq!(report.injected, u64::from(batch + batch / 2 + 1));
        // drop accounting: per-tier totals sum to the global total
        let tier_drops: u64 = report.tiers.iter().map(|t| t.drops_total).sum();
        prop_assert_eq!(tier_drops, report.drops_total);
        // histogram holds exactly the completed requests
        prop_assert_eq!(report.latency.total(), report.completed);
    }

    /// Same, closed-loop; also: throughput never exceeds the interactive
    /// bound N/Z.
    #[test]
    fn closed_loop_conservation(system in arb_system(), clients in 1u32..60, seed in any::<u64>()) {
        let report = Engine::new(
            system,
            Workload::Closed {
                spec: ClosedLoopSpec::rubbos(clients),
                mix: RequestMix::rubbos_browse(),
            },
            SimDuration::from_secs(20),
            seed,
        )
        .run();
        prop_assert!(report.is_conserved(), "{}", report.summary());
        // N/(Z+R) is an expectation; small populations over a short run have
        // large relative variance, hence the multiplicative and additive slack.
        let bound = f64::from(clients) / 7.0 * 1.8 + 1.0;
        prop_assert!(report.throughput <= bound, "tput {} bound {}", report.throughput, bound);
    }

    /// Chaos conservation under gray failure: random gray-degradation /
    /// zone / flaky-link plans against random topologies with a replicated
    /// app tier under every balancer, detector on or off — requests are
    /// conserved, the terminal classes stay mutually exclusive, and the
    /// decision log stays coherent (reinstatements never outnumber
    /// ejections, decisions in time order).
    #[test]
    fn conservation_under_gray_failure(
        system in arb_system(),
        replicas in 2usize..4,
        balancer_idx in 0usize..4,
        grays in proptest::collection::vec(
            (0usize..3, 0usize..4, 1u64..45, 1u64..15, 2f64..12.0, 0.05f64..0.9),
            0..3,
        ),
        health in proptest::option::of((0.3f64..2.0, 200u64..3_000)),
        batch in 1u32..80,
        seed in any::<u64>(),
    ) {
        let mut system = system;
        let balancer = [
            Balancer::RoundRobin,
            Balancer::LeastOutstanding,
            Balancer::P2c,
            Balancer::Jsq,
        ][balancer_idx];
        system.tiers[1] = system.tiers[1].clone().replicas(replicas).balancer(balancer);
        let mut plan = FaultPlan::none();
        for (kind, rep, start, len, factor, prob) in grays {
            let rep = rep % replicas;
            let from = SimTime::from_millis(start * 100);
            let env = GrayEnvelope::new(
                SimDuration::from_millis(50 + len * 10),
                SimDuration::from_millis(len * 150),
                SimDuration::from_millis(50 + len * 10),
                factor,
            );
            // Random plans may collide with themselves (overlapping
            // windows, bad envelopes); an invalid addition is skipped, the
            // engine must digest whatever survives.
            plan = match kind {
                0 => plan.clone().gray_degradation(1, rep, from, env).unwrap_or(plan),
                1 => plan.clone().zone_gray(1, &[0, rep], from, env).unwrap_or(plan),
                _ => plan
                    .clone()
                    .flaky_link(1, rep, prob, &[from], SimDuration::from_millis(len * 100))
                    .unwrap_or(plan),
            };
        }
        let mut system = system.with_faults(plan);
        if let Some((score, probation_ms)) = health {
            let policy = HealthPolicy::monitor(1)
                .with_eject_score(score)
                .with_probation(SimDuration::from_millis(probation_ms));
            system = system.with_health(policy);
        }
        let health_on = system.health.is_some();
        let burst = BurstSchedule::from_bursts([
            (SimTime::from_millis(200), batch),
            (SimTime::from_millis(2_500), batch / 2 + 1),
        ]);
        let report = Engine::new(
            system,
            Workload::open(burst.arrivals(), RequestMix::rubbos_browse()),
            SimDuration::from_secs(15),
            seed,
        )
        .run();
        prop_assert!(report.is_conserved(), "{}", report.summary());
        prop_assert_eq!(report.injected, u64::from(batch + batch / 2 + 1));
        prop_assert!(report.completed + report.failed + report.shed <= report.injected);
        prop_assert_eq!(report.control.is_some(), health_on);
        if let Some(log) = &report.control {
            let ejects = log.count(|a| matches!(a, ntier_repro::control::Action::Ejected { .. }));
            let reinstates =
                log.count(|a| matches!(a, ntier_repro::control::Action::Reinstated { .. }));
            prop_assert!(reinstates <= ejects, "{} reinstates vs {} ejects", reinstates, ejects);
            prop_assert!(log.decisions.windows(2).all(|w| w[0].at <= w[1].at));
        }
    }

    /// Determinism: equal seeds give byte-equal headline numbers; and a
    /// different seed (almost surely) gives a different trace.
    #[test]
    fn seeded_determinism(seed in any::<u64>()) {
        let mk = |s| {
            Engine::new(
                Topology::three_tier(
                    TierSpec::sync("Web", 3, 2),
                    TierSpec::sync("App", 3, 2).with_downstream_pool(2),
                    TierSpec::sync("Db", 3, 2),
                ),
                Workload::Closed {
                    spec: ClosedLoopSpec::rubbos(30),
                    mix: RequestMix::rubbos_browse(),
                },
                SimDuration::from_secs(15),
                s,
            )
            .run()
        };
        let a = mk(seed);
        let b = mk(seed);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.drops_total, b.drops_total);
        prop_assert_eq!(a.latency.mean(), b.latency.mean());
        prop_assert_eq!(a.tiers[0].peak_queue, b.tiers[0].peak_queue);
    }
}

/// A replica autoscaler on the app tier, ticking every 50–300 ms.
fn arb_autoscaler() -> impl Strategy<Value = ControlConfig> {
    (
        50u64..300,
        1usize..3,
        1usize..5,
        1u32..20,
        10u64..1_500,
        50u64..800,
    )
        .prop_map(|(tick, min_r, headroom, up, lag, cool)| {
            let up_depth = f64::from(up);
            ControlConfig::every(SimDuration::from_millis(tick)).with_autoscaler(AutoscalerConfig {
                tier: 1,
                min_replicas: min_r,
                max_replicas: min_r + headroom,
                up_depth,
                down_depth: up_depth / 4.0,
                provisioning_lag: SimDuration::from_millis(lag),
                cooldown: SimDuration::from_millis(cool),
            })
        })
}

/// Every plane at once: a replicated app tier under a random balancer, a
/// random fault plan plus a gray fault on one app replica, a retrying or
/// hedged client, the autoscaler, the health detector, the metrics plane
/// and sampled tracing.
fn arb_all_planes() -> impl Strategy<Value = SystemConfig> {
    (
        (
            arb_system(),
            2usize..4,
            0usize..4,
            arb_fault_plan(),
            (0usize..4, 1u64..45, 1u64..15, 2f64..12.0),
            any::<bool>(),
        ),
        (
            arb_client_policy(),
            arb_hedged_policy(),
            arb_autoscaler(),
            0.3f64..2.0,
            50u64..1_000,
            0.01f64..0.5,
        ),
    )
        .prop_map(
            |(
                (mut system, replicas, balancer_idx, plan, gray, hedged),
                (retrying, hedging, control, eject_score, metrics_ms, sample),
            )| {
                let balancer = [
                    Balancer::RoundRobin,
                    Balancer::LeastOutstanding,
                    Balancer::P2c,
                    Balancer::Jsq,
                ][balancer_idx];
                system.tiers[1] = system.tiers[1]
                    .clone()
                    .replicas(replicas)
                    .balancer(balancer);
                let (rep, start, len, factor) = gray;
                let env = GrayEnvelope::new(
                    SimDuration::from_millis(50 + len * 10),
                    SimDuration::from_millis(len * 150),
                    SimDuration::from_millis(50 + len * 10),
                    factor,
                );
                let plan = plan
                    .gray_degradation(1, rep % replicas, SimTime::from_millis(start * 100), env)
                    .expect("a gray envelope with factor > 1 is valid");
                let mut system = system
                    .with_faults(plan)
                    .with_control(control)
                    .with_health(HealthPolicy::monitor(1).with_eject_score(eject_score))
                    .with_metrics(MetricsConfig::every(SimDuration::from_millis(metrics_ms)))
                    .with_trace(TraceConfig::sampled(sample));
                let policy = if hedged { Some(hedging) } else { retrying };
                if let Some(p) = policy {
                    system = system.with_client_policy(p);
                }
                system
            },
        )
}

/// Open-loop arrivals every `gap_us` through 4 s plus a burst of `batch`
/// at 2.5 s, sorted.
fn steady_plus_burst(gap_us: u64, batch: u32) -> Vec<SimTime> {
    let mut arrivals: Vec<SimTime> = (0..4_000_000 / gap_us)
        .map(|i| SimTime::from_micros(i * gap_us))
        .collect();
    arrivals.extend(std::iter::repeat_n(
        SimTime::from_millis(2_500),
        batch as usize,
    ));
    arrivals.sort();
    arrivals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(24)))]

    /// Every plane at once under eager open-loop arrivals. Requests are
    /// conserved, nothing panics, and one seed gives one report.
    #[test]
    fn conservation_with_all_planes(
        system in arb_all_planes(),
        gap_us in 2_000u64..6_000,
        batch in 1u32..80,
        seed in any::<u64>(),
    ) {
        let arrivals = steady_plus_burst(gap_us, batch);
        let injected = arrivals.len() as u64;
        let run = || {
            Engine::new(
                system.clone(),
                Workload::open(arrivals.clone(), RequestMix::rubbos_browse()),
                SimDuration::from_secs(12),
                seed,
            )
            .run()
        };
        let report = run();
        prop_assert!(report.is_conserved(),
            "inj {} != comp {} + fail {} + shed {} + canc {} + infl {}",
            report.injected, report.completed, report.failed,
            report.shed, report.cancelled, report.in_flight_end);
        prop_assert_eq!(report.injected, injected);
        prop_assert!(report.control.is_some());
        prop_assert!(report.metrics.is_some());
        prop_assert_eq!(format!("{report:?}"), format!("{:?}", run()));
    }

    /// Every plane at once under a streamed source whose arrivals carry
    /// sampled 3-tier plans, one of them a misfit 2-tier plan. The misfit
    /// ends the stream as a `workload_fault` naming it, nothing after it is
    /// injected, and requests are conserved with every plane on.
    #[test]
    fn streamed_misfit_plan_with_all_planes(
        system in arb_all_planes(),
        gap_us in 2_000u64..6_000,
        batch in 1u32..80,
        misfit_at in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let arrivals = steady_plus_burst(gap_us, batch);
        let misfit = (misfit_at * arrivals.len() as f64) as usize;
        let mix = RequestMix::rubbos_browse();
        let mut rng = SimRng::seed_from(seed).fork("plans");
        let mut pairs: Vec<(SimTime, SourcedRequest)> = arrivals
            .iter()
            .map(|&t| {
                let sample = mix.sample(&mut rng);
                (t, SourcedRequest { class: sample.class, plan: Plan::compile(&sample) })
            })
            .collect();
        let short = Plan::pipeline(&[SimDuration::from_micros(80); 2]);
        pairs.insert(misfit, (arrivals[misfit], SourcedRequest { class: "misfit", plan: short }));
        let run = || {
            let pairs = pairs.iter().map(|(t, r)| {
                (*t, SourcedRequest { class: r.class, plan: r.plan.share() })
            });
            Engine::new(
                system.clone(),
                Workload::from_source(VecSource::new(pairs.collect())),
                SimDuration::from_secs(12),
                seed,
            )
            .run()
        };
        let report = run();
        let fault = report.workload_fault.as_deref().unwrap_or("");
        prop_assert_eq!(
            fault,
            format!(
                "arrival at {}: plan depth 2 does not match the system's 3 tiers",
                arrivals[misfit]
            )
        );
        prop_assert!(report.is_conserved(),
            "inj {} != comp {} + fail {} + shed {} + canc {} + infl {}",
            report.injected, report.completed, report.failed,
            report.shed, report.cancelled, report.in_flight_end);
        prop_assert_eq!(report.injected, misfit as u64);
        prop_assert!(report.control.is_some());
        prop_assert!(report.metrics.is_some());
        prop_assert_eq!(format!("{report:?}"), format!("{:?}", run()));
    }
}

/// The case `closed_loop_conservation` once shrank to: three sync tiers of
/// one thread and no backlog, driven by a single client.
#[test]
fn closed_loop_conserves_through_single_thread_tiers_without_backlog() {
    let tier = |name| TierSpec::sync(name, 1, 0);
    let report = Engine::new(
        Topology::three_tier(tier("Web"), tier("App"), tier("Db")),
        Workload::Closed {
            spec: ClosedLoopSpec::rubbos(1),
            mix: RequestMix::rubbos_browse(),
        },
        SimDuration::from_secs(20),
        12_655_556_483_907_216_389,
    )
    .run();
    assert!(report.injected > 0);
    assert!(report.is_conserved(), "{}", report.summary());
}

#[test]
fn vlrt_counts_are_consistent() {
    // vlrt_total == histogram count above 3 s == windowed completion sum
    let stall = StallSchedule::at_marks([SimTime::from_secs(2)], SimDuration::from_millis(800));
    let report = Engine::new(
        Topology::three_tier(
            TierSpec::sync("Web", 6, 4),
            TierSpec::sync("App", 6, 4)
                .with_downstream_pool(4)
                .with_stalls(stall),
            TierSpec::sync("Db", 6, 4),
        ),
        Workload::open(
            (0..600)
                .map(|i| SimTime::from_millis(1_000 + i * 5))
                .collect(),
            RequestMix::view_story(),
        ),
        SimDuration::from_secs(20),
        3,
    )
    .run();
    assert!(report.vlrt_total > 0);
    assert_eq!(
        report.vlrt_total,
        report.latency.count_above(SimDuration::from_secs(3))
    );
    assert_eq!(report.vlrt_total, report.vlrt_by_completion.total());
}
