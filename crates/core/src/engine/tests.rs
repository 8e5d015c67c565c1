use super::*;
use crate::config::TierSpec;
use crate::interference::StallSchedule;
use crate::plan::Plan;
use crate::topology::Topology;
use ntier_workload::{BurstSchedule, ClosedLoopSpec, RequestMix};

#[test]
fn event_kinds_index_their_names() {
    let req = ReqId { slot: 0, gen: 0 };
    let every_kind = [
        Event::ClientSend { client: 0 },
        Event::Inject { idx: 0 },
        Event::Arrival {
            req,
            tier: 0,
            visit: 0,
        },
        Event::SliceDone {
            req,
            tier: 0,
            visit: 0,
        },
        Event::ReplyArrive { req, tier: 0 },
        Event::SpawnDone {
            tier: 0,
            replica: 0,
        },
        Event::ArmReply { parent: req },
        Event::AttemptTimeout { req },
        Event::RetryFire { ticket: 0 },
        Event::FaultBegin { idx: 0 },
        Event::FaultEnd { idx: 0 },
        Event::HedgeFire {
            logical: 0,
            lgen: 0,
        },
        Event::LogicalDeadline {
            logical: 0,
            lgen: 0,
        },
        Event::CancelArrive { req, tier: 0 },
        Event::ControllerTick,
        Event::HealthTick,
        Event::ReplicaReady { tier: 0 },
        Event::MetricsTick,
    ];
    assert_eq!(every_kind.len(), EventCounts::KINDS.len());
    for ev in every_kind {
        let debug = format!("{ev:?}");
        let variant = debug.split(' ').next().expect("non-empty");
        assert_eq!(EventCounts::KINDS[ev.kind()], variant);
    }
}

fn tiny_sync_system() -> SystemConfig {
    Topology::three_tier(
        TierSpec::sync("Web", 4, 2),
        TierSpec::sync("App", 4, 2).with_downstream_pool(2),
        TierSpec::sync("Db", 4, 2),
    )
}

fn open_workload(arrivals: Vec<SimTime>) -> Workload {
    Workload::open(arrivals, RequestMix::view_story())
}

#[test]
fn single_request_completes_with_correct_latency() {
    let sys = tiny_sync_system().with_hop_delay(SimDuration::ZERO);
    let report = Engine::new(
        sys,
        open_workload(vec![SimTime::from_millis(1)]),
        SimDuration::from_secs(1),
        1,
    )
    .run();
    assert_eq!(report.completed, 1);
    assert_eq!(report.drops_total, 0);
    assert!(report.is_conserved());
    // view_story: 0.05ms web + 0.75ms app + 2×0.15ms db ≈ 1.1 ms
    let mean = report.latency.mean();
    assert!(
        mean >= SimDuration::from_micros(1_000) && mean <= SimDuration::from_micros(1_400),
        "mean latency {mean}"
    );
}

#[test]
fn hop_delay_adds_to_latency() {
    let sys = tiny_sync_system().with_hop_delay(SimDuration::from_millis(1));
    let report = Engine::new(
        sys,
        open_workload(vec![SimTime::from_millis(1)]),
        SimDuration::from_secs(1),
        1,
    )
    .run();
    // hops: client->web, web->app, 2×(app->db, db->app), app->web(reply)
    // = 7 one-way hops of 1 ms on top of ~1.1 ms of CPU.
    let mean = report.latency.mean();
    assert!(
        mean >= SimDuration::from_millis(8) && mean < SimDuration::from_millis(9),
        "mean latency {mean}"
    );
}

#[test]
fn overload_without_burst_queues_but_does_not_drop() {
    let arrivals: Vec<SimTime> = (0..50).map(|i| SimTime::from_millis(i * 10)).collect();
    let report = Engine::new(
        tiny_sync_system(),
        open_workload(arrivals),
        SimDuration::from_secs(2),
        1,
    )
    .run();
    assert_eq!(report.completed, 50);
    assert_eq!(report.drops_total, 0);
}

#[test]
fn batch_beyond_capacity_drops_and_retransmits() {
    // Web capacity = 4 threads + 2 backlog = 6; a batch of 24 drops at
    // the web tier in waves of 6: retries at +3 s, +6 s, +9 s — the
    // paper's multi-modal signature.
    let burst = BurstSchedule::from_bursts([(SimTime::from_millis(10), 24)]);
    let report = Engine::new(
        tiny_sync_system(),
        open_workload(burst.arrivals()),
        SimDuration::from_secs(12),
        1,
    )
    .run();
    assert_eq!(report.completed, 24, "{}", report.summary());
    assert!(report.drops_total > 0, "{}", report.summary());
    assert_eq!(report.tiers[0].drops_total, report.drops_total);
    assert!(report.vlrt_total > 0);
    assert!(
        report.has_mode_near(3),
        "modes: {:?}",
        report.latency_modes()
    );
    assert!(
        report.has_mode_near(6),
        "modes: {:?}",
        report.latency_modes()
    );
    assert!(
        report.has_mode_near(9),
        "modes: {:?}",
        report.latency_modes()
    );
    assert!(report.is_conserved());
}

#[test]
fn stalled_app_tier_backs_up_into_web_upstream_ctqo() {
    let stall = StallSchedule::at_marks([SimTime::from_millis(100)], SimDuration::from_millis(500));
    let mut sys = tiny_sync_system();
    sys.tiers[1] = sys.tiers[1].clone().with_stalls(stall);
    let arrivals: Vec<SimTime> = (0..200).map(|i| SimTime::from_millis(50 + i * 3)).collect();
    let report = Engine::new(sys, open_workload(arrivals), SimDuration::from_secs(10), 1).run();
    assert!(report.tiers[0].drops_total > 0, "{}", report.summary());
    assert!(report.is_conserved());
}

#[test]
fn async_tiers_absorb_the_same_batch_without_drops() {
    let sys = Topology::three_tier(
        TierSpec::asynchronous("Web", 65_535, 4),
        TierSpec::asynchronous("App", 65_535, 8),
        TierSpec::asynchronous("Db", 2_000, 8),
    );
    let burst = BurstSchedule::from_bursts([(SimTime::from_millis(10), 200)]);
    let report = Engine::new(
        sys,
        open_workload(burst.arrivals()),
        SimDuration::from_secs(8),
        1,
    )
    .run();
    assert_eq!(report.completed, 200);
    assert_eq!(report.drops_total, 0, "{}", report.summary());
    assert_eq!(report.vlrt_total, 0);
}

#[test]
fn retry_tickets_are_recycled_not_accumulated() {
    use crate::resilience::{CallerPolicy, FaultPlan};
    // The app tier drops every message, so every attempt times out and
    // the clients retry over and over. A client has at most one retry
    // pending at a time, so the ticket table never needs more slots
    // than there are clients, however many retries the run grants.
    let clients = 20;
    let horizon = SimDuration::from_secs(60);
    let sys = tiny_sync_system()
        .with_client_policy(CallerPolicy::naive(SimDuration::from_millis(100), 3))
        .with_faults(FaultPlan::none().drop_messages(
            1,
            1.0,
            SimTime::ZERO,
            SimTime::ZERO + horizon,
        ));
    let workload = Workload::closed(ClosedLoopSpec::rubbos(clients), RequestMix::view_story());
    let mut engine = Engine::new(sys, workload, horizon, 7);
    engine.drive();
    let slots = engine.tickets.len();
    let report = engine.into_report();
    assert!(
        report.resilience.retries > 5 * u64::from(clients),
        "too few retries to show recycling: {}",
        report.resilience.retries
    );
    assert!(
        slots <= clients as usize,
        "{slots} ticket slots for {clients} clients"
    );
    assert!(report.is_conserved());
}

#[test]
fn determinism_same_seed_same_report() {
    let mk = || {
        Engine::new(
            tiny_sync_system(),
            Workload::closed(ClosedLoopSpec::rubbos(50), RequestMix::rubbos_browse()),
            SimDuration::from_secs(20),
            42,
        )
        .run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.drops_total, b.drops_total);
    assert_eq!(a.latency.mean(), b.latency.mean());
    assert_eq!(a.tiers[1].peak_queue, b.tiers[1].peak_queue);
}

#[test]
fn conn_pool_caps_outstanding_db_queries() {
    let sys = Topology::three_tier(
        TierSpec::sync("Web", 64, 64),
        TierSpec::sync("App", 64, 64).with_downstream_pool(2),
        TierSpec::sync("Db", 4, 2),
    );
    let burst = BurstSchedule::from_bursts([(SimTime::from_millis(10), 40)]);
    let report = Engine::new(
        sys,
        open_workload(burst.arrivals()),
        SimDuration::from_secs(5),
        1,
    )
    .run();
    assert!(report.tiers[2].peak_queue <= 2, "{}", report.summary());
    assert_eq!(report.tiers[2].drops_total, 0);
    assert_eq!(report.completed, 40);
}

#[test]
fn give_up_after_retry_budget_counts_failed() {
    let mut sys = Topology::three_tier(
        TierSpec::sync("Web", 1, 0),
        TierSpec::sync("App", 1, 0),
        TierSpec::sync("Db", 1, 0),
    );
    sys.tiers[0] = sys.tiers[0].clone().with_stalls(StallSchedule::at_marks(
        [SimTime::ZERO],
        SimDuration::from_secs(30),
    ));
    let arrivals: Vec<SimTime> = (0..5).map(|i| SimTime::from_millis(1 + i)).collect();
    let report = Engine::new(sys, open_workload(arrivals), SimDuration::from_secs(30), 1).run();
    // First request takes the thread; the rest drop 4 times and give up.
    assert_eq!(report.failed, 4, "{}", report.summary());
    assert!(report.is_conserved());
}

#[test]
fn five_tier_pipeline_round_trips() {
    let sys = Topology::chain(
        (0..5)
            .map(|i| TierSpec::sync(format!("T{i}"), 8, 4))
            .collect(),
    )
    .with_hop_delay(SimDuration::ZERO);
    let plan = || {
        Plan::pipeline(&[
            SimDuration::from_micros(100),
            SimDuration::from_micros(200),
            SimDuration::from_micros(300),
            SimDuration::from_micros(200),
            SimDuration::from_micros(100),
        ])
    };
    let arrivals: Vec<(SimTime, Plan)> = (0..30)
        .map(|i| (SimTime::from_millis(i * 5), plan()))
        .collect();
    let report = Engine::new(
        sys,
        Workload::open_plans(arrivals),
        SimDuration::from_secs(2),
        1,
    )
    .run();
    assert_eq!(report.completed, 30, "{}", report.summary());
    assert_eq!(report.drops_total, 0);
    assert_eq!(report.tiers.len(), 5);
    // one lone request's latency = sum of demands = 0.9 ms
    let first = report.latency.quantile(0.01).unwrap();
    assert!(first <= SimDuration::from_millis(50), "{first}");
}

#[test]
fn deep_chain_upstream_ctqo_propagates_to_tier_zero() {
    // Stall the LAST tier of a 5-tier sync chain with small pools: the
    // overflow must surface at tier 0 — CTQO propagates any depth.
    let stall = StallSchedule::at_marks([SimTime::from_millis(500)], SimDuration::from_millis(800));
    let mut tiers: Vec<TierSpec> = (0..5)
        .map(|i| TierSpec::sync(format!("T{i}"), 4, 2))
        .collect();
    tiers[4] = tiers[4].clone().with_stalls(stall);
    let sys = Topology::chain(tiers);
    let plan = || Plan::pipeline(&[SimDuration::from_micros(50); 5]);
    let arrivals: Vec<(SimTime, Plan)> = (0..400)
        .map(|i| (SimTime::from_millis(300 + i * 2), plan()))
        .collect();
    let report = Engine::new(
        sys,
        Workload::open_plans(arrivals),
        SimDuration::from_secs(15),
        1,
    )
    .run();
    assert!(report.tiers[0].drops_total > 0, "{}", report.summary());
    assert_eq!(report.tiers[4].drops_total, 0, "{}", report.summary());
    assert!(report.is_conserved());
}

#[test]
fn crash_fault_drops_arrivals_in_window() {
    use crate::resilience::FaultPlan;
    let sys = tiny_sync_system().with_faults(FaultPlan::none().crash(
        0,
        SimTime::from_millis(100),
        SimTime::from_millis(400),
    ));
    // One request before the window completes clean; one inside hits the
    // crashed tier, retransmits at +3 s and completes after the restart.
    let report = Engine::new(
        sys,
        open_workload(vec![SimTime::from_millis(10), SimTime::from_millis(200)]),
        SimDuration::from_secs(10),
        1,
    )
    .run();
    assert_eq!(report.completed, 2, "{}", report.summary());
    assert_eq!(report.tiers[0].drops_total, 1);
    assert!(report.vlrt_total >= 1, "{}", report.summary());
    assert!(report.is_conserved());
}

#[test]
fn drop_fault_with_prob_one_drops_every_message() {
    use crate::resilience::FaultPlan;
    let sys = tiny_sync_system().with_faults(FaultPlan::none().drop_messages(
        1,
        1.0,
        SimTime::ZERO,
        SimTime::from_secs(30),
    ));
    let report = Engine::new(
        sys,
        open_workload(vec![SimTime::from_millis(10)]),
        SimDuration::from_secs(30),
        1,
    )
    .run();
    // Every attempt into the app tier dies: 1 initial + 3 retransmits.
    assert_eq!(report.failed, 1, "{}", report.summary());
    assert_eq!(report.tiers[1].drops_total, 4);
    assert!(report.is_conserved());
}

#[test]
fn slow_hop_fault_adds_latency_inside_window_only() {
    use crate::resilience::FaultPlan;
    let slow = |from_ms: u64| {
        tiny_sync_system()
            .with_hop_delay(SimDuration::ZERO)
            .with_faults(FaultPlan::none().slow_hops(
                2,
                SimDuration::from_millis(50),
                SimTime::from_millis(from_ms),
                SimTime::from_millis(from_ms + 500),
            ))
    };
    let inside = Engine::new(
        slow(0),
        open_workload(vec![SimTime::from_millis(1)]),
        SimDuration::from_secs(2),
        1,
    )
    .run();
    let outside = Engine::new(
        slow(1_000),
        open_workload(vec![SimTime::from_millis(1)]),
        SimDuration::from_secs(2),
        1,
    )
    .run();
    // view_story visits the db twice: 2 × 50 ms of extra one-way delay.
    let delta = inside.latency.mean() - outside.latency.mean();
    assert!(
        delta >= SimDuration::from_millis(99) && delta <= SimDuration::from_millis(101),
        "delta {delta}"
    );
}

#[test]
fn stuck_workers_shrink_capacity_then_restore_it() {
    use crate::resilience::FaultPlan;
    // All 4 web threads wedge; backlog holds 2; a 3-request batch inside
    // the window parks 2 and drops 1, then completes after the window.
    let sys = tiny_sync_system().with_faults(FaultPlan::none().stuck_workers(
        0,
        4,
        SimTime::from_millis(100),
        SimTime::from_millis(600),
    ));
    let arrivals = vec![
        SimTime::from_millis(200),
        SimTime::from_millis(210),
        SimTime::from_millis(220),
    ];
    let report = Engine::new(sys, open_workload(arrivals), SimDuration::from_secs(10), 1).run();
    assert_eq!(report.completed, 3, "{}", report.summary());
    assert_eq!(report.tiers[0].drops_total, 1);
    assert!(report.is_conserved());
}

#[test]
fn client_timeout_retry_completes_logical_request_once() {
    use crate::resilience::{CallerPolicy, FaultPlan, RetryPolicy};
    // The app tier eats every message for 1 s; a 200 ms attempt timeout
    // with generous retries rides through it. Retries do not inflate
    // `injected`, and the orphaned attempts' completions are discarded.
    let policy = CallerPolicy {
        attempt_timeout: SimDuration::from_millis(200),
        retry: Some(RetryPolicy::capped(
            10,
            SimDuration::from_millis(50),
            SimDuration::from_millis(200),
        )),
        budget: None,
        breaker: None,
        hedge: None,
        cancel: None,
    };
    let sys = tiny_sync_system()
        .with_client_policy(policy)
        .with_faults(FaultPlan::none().drop_messages(1, 1.0, SimTime::ZERO, SimTime::from_secs(1)));
    let report = Engine::new(
        sys,
        open_workload(vec![SimTime::from_millis(10)]),
        SimDuration::from_secs(20),
        1,
    )
    .run();
    assert_eq!(report.injected, 1, "{}", report.summary());
    assert_eq!(report.completed, 1);
    assert!(report.resilience.timeouts >= 1);
    assert!(report.resilience.retries >= 1);
    assert!(report.is_conserved());
}

#[test]
fn open_client_breaker_sheds_at_injection() {
    use crate::resilience::{BreakerConfig, CallerPolicy, RetryPolicy};
    // No retries + a 1-failure breaker held open for a long time: the
    // first timeout trips it and every later injection is shed.
    let policy = CallerPolicy {
        attempt_timeout: SimDuration::from_millis(100),
        retry: Some(RetryPolicy::capped(
            0,
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
        )),
        budget: None,
        breaker: Some(BreakerConfig::new(1, SimDuration::from_secs(60))),
        hedge: None,
        cancel: None,
    };
    let mut sys = tiny_sync_system().with_client_policy(policy);
    sys.tiers[1] = sys.tiers[1].clone().with_stalls(StallSchedule::at_marks(
        [SimTime::ZERO],
        SimDuration::from_secs(30),
    ));
    let arrivals: Vec<SimTime> = (0..10)
        .map(|i| SimTime::from_millis(10 + i * 200))
        .collect();
    let report = Engine::new(sys, open_workload(arrivals), SimDuration::from_secs(30), 1).run();
    assert!(report.shed >= 8, "{}", report.summary());
    assert!(report.resilience.breaker_transitions >= 1);
    assert!(report.is_conserved());
}

#[test]
fn depth_shed_policy_rejects_fast_and_counts_shed() {
    use crate::resilience::ShedPolicy;
    let mut sys = tiny_sync_system();
    // Web admits everything (deep backlog); the app tier sheds at depth 2.
    sys.tiers[0] = TierSpec::sync("Web", 64, 64);
    sys.tiers[1] = sys.tiers[1]
        .clone()
        .with_shed_policy(ShedPolicy::on_depth(2));
    sys.tiers[1] = sys.tiers[1].clone().with_stalls(StallSchedule::at_marks(
        [SimTime::from_millis(50)],
        SimDuration::from_millis(500),
    ));
    let arrivals: Vec<SimTime> = (0..20).map(|i| SimTime::from_millis(100 + i)).collect();
    let report = Engine::new(sys, open_workload(arrivals), SimDuration::from_secs(5), 1).run();
    assert!(report.shed > 0, "{}", report.summary());
    assert_eq!(report.shed, report.tiers[1].resilience.shed);
    assert_eq!(report.injected, 20);
    assert!(report.is_conserved());
    // Shed requests are resolved instantly, far faster than the stall.
    assert!(report.completed + report.shed == 20 || report.failed > 0);
}

#[test]
fn inner_hop_policy_replaces_kernel_rto() {
    use crate::resilience::{CallerPolicy, FaultPlan, RetryPolicy};
    // Drops into the app tier for 300 ms. Kernel RTO would stall the
    // request 3 s; the app-level hop policy retries every ~40 ms and the
    // request completes well under a second.
    let mut sys = tiny_sync_system().with_hop_delay(SimDuration::ZERO);
    sys.tiers[1] = sys.tiers[1].clone().with_caller_policy(CallerPolicy {
        attempt_timeout: SimDuration::from_secs(60), // unused on inner hops
        retry: Some(RetryPolicy::capped(
            20,
            SimDuration::from_millis(40),
            SimDuration::from_millis(40),
        )),
        budget: None,
        breaker: None,
        hedge: None,
        cancel: None,
    });
    let sys = sys.with_faults(FaultPlan::none().drop_messages(
        1,
        1.0,
        SimTime::ZERO,
        SimTime::from_millis(300),
    ));
    let report = Engine::new(
        sys,
        open_workload(vec![SimTime::from_millis(10)]),
        SimDuration::from_secs(5),
        1,
    )
    .run();
    assert_eq!(report.completed, 1, "{}", report.summary());
    assert!(report.resilience.retries >= 1);
    let mean = report.latency.mean();
    assert!(mean < SimDuration::from_secs(1), "mean {mean}");
    assert!(report.is_conserved());
}

#[test]
fn vlrt_is_charged_to_the_first_of_many_drops() {
    use crate::resilience::{CallerPolicy, FaultPlan, RetryPolicy};
    // One request, six drops: the web tier (two replicas) drops the
    // original SYN at 1.23 s and its first kernel retransmit at 4.23 s;
    // the second retransmit gets in at 7.23 s, and the app tier then
    // drops four app-level hop retries, 40 ms apart, before admitting
    // the fifth. The ~6 s request is a VLRT, charged to the web replica
    // and the 50 ms window of the first drop only.
    let mut sys = tiny_sync_system().with_hop_delay(SimDuration::ZERO);
    sys.tiers[0] = sys.tiers[0].clone().replicas(2);
    sys.tiers[1] = sys.tiers[1].clone().with_caller_policy(CallerPolicy {
        attempt_timeout: SimDuration::from_secs(60), // unused on inner hops
        retry: Some(RetryPolicy::capped(
            20,
            SimDuration::from_millis(40),
            SimDuration::from_millis(40),
        )),
        budget: None,
        breaker: None,
        hedge: None,
        cancel: None,
    });
    let sys = sys.with_faults(
        FaultPlan::none()
            .drop_messages(0, 1.0, SimTime::ZERO, SimTime::from_secs(5))
            .drop_messages(1, 1.0, SimTime::ZERO, SimTime::from_millis(7_380)),
    );
    let report = Engine::new(
        sys,
        open_workload(vec![SimTime::from_millis(1_230)]),
        SimDuration::from_secs(12),
        1,
    )
    .run();
    assert_eq!(report.completed, 1, "{}", report.summary());
    assert_eq!(report.vlrt_total, 1);
    assert_eq!(report.tiers[0].drops_total, 2);
    assert_eq!(report.tiers[1].drops_total, 4);

    // Window 24 holds the first drop, at the replica the balancer picked.
    let first_window = 1_230 / 50;
    let web = &report.tiers[0].replicas;
    let first = web
        .iter()
        .position(|r| r.drops.count(first_window) == 1)
        .expect("the first drop lands in its 50 ms window");
    let mut charged = Vec::new();
    for (tier, rep, vlrt) in web
        .iter()
        .enumerate()
        .map(|(r, rep)| (0, r, &rep.vlrt))
        .chain([(1, 0, &report.tiers[1].vlrt), (2, 0, &report.tiers[2].vlrt)])
    {
        charged.extend(
            vlrt.iter()
                .filter(|(_, n)| *n > 0)
                .map(|(t, n)| (tier, rep, t, n)),
        );
    }
    assert_eq!(
        charged,
        vec![(0, first, SimTime::from_millis(1_200), 1)],
        "the VLRT is charged once, to the first drop's tier, replica and window"
    );
}

#[test]
#[should_panic(expected = "fault targets tier 5 outside the chain")]
fn fault_on_missing_tier_rejected() {
    use crate::resilience::FaultPlan;
    let mut sys = tiny_sync_system();
    sys.faults = FaultPlan::none().crash(5, SimTime::ZERO, SimTime::from_secs(1));
    let _ = Engine::new(sys, open_workload(vec![]), SimDuration::from_secs(1), 1);
}

#[test]
#[should_panic(expected = "mix-based workloads compile 3-tier plans")]
fn mix_workload_rejects_non_three_tier_system() {
    let sys = Topology::chain(vec![TierSpec::sync("A", 2, 2), TierSpec::sync("B", 2, 2)]);
    let _ = Engine::new(
        sys,
        open_workload(vec![SimTime::from_millis(1)]),
        SimDuration::from_secs(1),
        1,
    );
}

#[test]
#[should_panic(expected = "a downstream connection pool requires exactly one downstream")]
fn last_tier_pool_rejected() {
    let sys = Topology::three_tier(
        TierSpec::sync("Web", 2, 2),
        TierSpec::sync("App", 2, 2),
        TierSpec::sync("Db", 2, 2).with_downstream_pool(5),
    );
    let _ = Engine::new(sys, open_workload(vec![]), SimDuration::from_secs(1), 1);
}

#[test]
fn traced_run_retains_spans_for_dropped_requests() {
    use ntier_trace::{TraceConfig, TraceEventKind};
    let burst = BurstSchedule::from_bursts([(SimTime::from_millis(10), 24)]);
    let report = Engine::new(
        tiny_sync_system().with_trace(TraceConfig::sampled(0.0)),
        open_workload(burst.arrivals()),
        SimDuration::from_secs(12),
        1,
    )
    .run();
    let log = report.trace.as_ref().expect("tracing enabled");
    assert_eq!(log.started, 24);
    // With zero sampling, only the VLRT requests (the retransmitted
    // wave) are promoted, and each carries its syn_drop events.
    assert_eq!(log.traces.len() as u64, report.vlrt_total);
    assert!(report.vlrt_total > 0, "{}", report.summary());
    for t in log.vlrt_traces() {
        assert!(
            t.events
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::SynDrop { .. })),
            "VLRT trace {} has no syn_drop",
            t.id
        );
        // Drop count matches the latency step: one drop per +3 s.
        let drops = t.syn_drops().count() as u64;
        let steps = t.latency.as_millis() / 3_000;
        assert_eq!(drops, steps, "trace {}: {} vs {}", t.id, drops, t.latency);
    }
}

#[test]
fn tracing_does_not_change_the_report() {
    use ntier_trace::TraceConfig;
    let burst = BurstSchedule::from_bursts([(SimTime::from_millis(10), 24)]);
    let run = |trace: TraceConfig| {
        let mut report = Engine::new(
            tiny_sync_system().with_trace(trace),
            open_workload(burst.arrivals()),
            SimDuration::from_secs(12),
            7,
        )
        .run();
        report.trace = None;
        report
    };
    let off = run(TraceConfig::disabled());
    let on = run(TraceConfig::always());
    assert_eq!(off.completed, on.completed);
    assert_eq!(off.events, on.events);
    assert_eq!(off.drops_total, on.drops_total);
    assert_eq!(off.latency.total(), on.latency.total());
    assert_eq!(
        off.latency.quantile(0.99),
        on.latency.quantile(0.99),
        "tracing must not perturb the simulation"
    );
}

#[test]
fn retried_request_accumulates_one_trace_across_attempts() {
    use crate::resilience::{CallerPolicy, RetryPolicy};
    use ntier_trace::{TraceConfig, TraceEventKind};
    // One request into a 30 s stall: the 1 s attempt timeout fires, the
    // retry relaunches, and both attempts land in one trace.
    let policy = CallerPolicy {
        attempt_timeout: SimDuration::from_secs(1),
        retry: Some(RetryPolicy::capped(
            1,
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
        )),
        budget: None,
        breaker: None,
        hedge: None,
        cancel: None,
    };
    let mut sys = tiny_sync_system()
        .with_client_policy(policy)
        .with_trace(TraceConfig::sampled(0.0));
    sys.tiers[1] = sys.tiers[1].clone().with_stalls(StallSchedule::at_marks(
        [SimTime::ZERO],
        SimDuration::from_secs(30),
    ));
    let report = Engine::new(
        sys,
        open_workload(vec![SimTime::from_millis(10)]),
        SimDuration::from_secs(40),
        1,
    )
    .run();
    let log = report.trace.as_ref().expect("tracing enabled");
    assert_eq!(log.started, 1);
    assert_eq!(log.traces.len(), 1, "failed request is always promoted");
    let t = &log.traces[0];
    let sends: Vec<u32> = t
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::ClientSend { attempt } => Some(attempt),
            _ => None,
        })
        .collect();
    assert_eq!(sends, vec![0, 1], "both attempts in one timeline");
    assert!(t
        .events
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::AttemptTimeout { .. })));
}
