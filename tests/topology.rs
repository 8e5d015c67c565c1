//! Integration tests for call-graph topologies: replica sets behind
//! pluggable balancers and scatter-gather fan-out.
//!
//! Four guarantees are pinned here, across the crate boundary (builder →
//! engine → report → analyzer):
//!
//! 1. **Conservation generalizes**: whatever random tree the builder
//!    produces — replicated tiers, nested fan-outs, mixed sync/async arms —
//!    requests are conserved and the per-replica accounting sums to the
//!    tier aggregates (property-tested).
//! 2. **Quorum semantics**: a scatter's completion latency is governed by
//!    the Q-th fastest arm — quorum 1 tracks the fastest shard, quorum K
//!    the slowest — and a stalled arm inside the quorum slack is absorbed.
//! 3. **Balancers matter**: at the Fig. 1 operating point with one hot
//!    replica, round-robin keeps feeding the stalled instance and produces
//!    the multi-modal VLRT ladder, while queue-aware policies suppress it;
//!    `RootCause` names the hot replica from the traces.
//! 4. **Replica-count-1 is the chain**: `replication_ladder(1, ..)`
//!    reproduces the pre-topology chain report field-for-field, for both
//!    rng-free and rng-consuming balancer policies.

#![deny(deprecated)]

use ntier_repro::core::engine::{Engine, Workload};
use ntier_repro::core::experiment as exp;
use ntier_repro::core::{Balancer, Branch, Plan, RunReport, SystemConfig, TierSpec, Topology};
use ntier_repro::des::ids::ReplicaId;
use ntier_repro::des::prelude::*;
use ntier_repro::trace::{CulpritKind, RootCause, TraceLog};

use proptest::prelude::*;

// ---------------------------------------------------------------------------
// 1. Conservation over random trees
// ---------------------------------------------------------------------------

fn arb_spec(name: &'static str) -> impl Strategy<Value = TierSpec> {
    (any::<bool>(), 2usize..8, 1usize..6, 1usize..4, 0usize..4).prop_map(
        move |(is_async, threads, backlog, replicas, bal)| {
            let spec = if is_async {
                TierSpec::asynchronous(name, backlog * 16, 2)
            } else {
                TierSpec::sync(name, threads, backlog)
            };
            let balancer = match bal {
                0 => Balancer::RoundRobin,
                1 => Balancer::LeastOutstanding,
                2 => Balancer::P2c,
                _ => Balancer::Jsq,
            };
            spec.replicas(replicas).balancer(balancer)
        },
    )
}

/// A random topology: a 1–2 tier spine, optionally ending in a fan-out of
/// 2–3 branches (each 1–2 tiers deep) at a random feasible quorum, with
/// every node a random sync/async spec running 1–3 replicas behind a
/// random balancer.
fn arb_topology() -> impl Strategy<Value = SystemConfig> {
    (
        arb_spec("root"),
        proptest::option::of(arb_spec("mid")),
        proptest::option::of((
            proptest::collection::vec(
                (arb_spec("arm"), proptest::option::of(arb_spec("leaf"))),
                2..4,
            ),
            1usize..4,
        )),
    )
        .prop_map(|(root, mid, fan)| {
            let mut b = Topology::client().tier(root);
            if let Some(mid) = mid {
                b = b.tier(mid);
            }
            if let Some((arms, quorum)) = fan {
                let quorum = quorum.min(arms.len());
                let branches = arms
                    .into_iter()
                    .map(|(arm, leaf)| {
                        let b = Branch::tier(arm);
                        match leaf {
                            Some(leaf) => b.then(leaf),
                            None => b,
                        }
                    })
                    .collect();
                b = b.fanout(quorum, branches);
            }
            b.build().expect("randomly built topologies are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// injected == completed + failed + shed + in-flight over arbitrary
    /// replicated trees, and the per-replica ledgers sum to the tier view.
    #[test]
    fn conservation_over_random_trees(
        system in arb_topology(),
        batch in 1u64..40,
        demand_us in 100u64..2_000,
        seed in any::<u64>(),
    ) {
        let demands = vec![SimDuration::from_micros(demand_us); system.shape.len()];
        let plan = Plan::tree_pipeline(&system.shape, &demands);
        let arrivals: Vec<(SimTime, Plan)> = (0..batch)
            .map(|i| (SimTime::from_millis(200 + i * 20), plan.share()))
            .collect();
        let report = Engine::new(
            system,
            Workload::open_plans(arrivals),
            SimDuration::from_secs(15),
            seed,
        )
        .run();
        prop_assert!(report.is_conserved(), "{}", report.summary());
        prop_assert_eq!(report.injected, batch);
        prop_assert_eq!(report.latency.total(), report.completed);
        let tier_drops: u64 = report.tiers.iter().map(|t| t.drops_total).sum();
        prop_assert_eq!(tier_drops, report.drops_total);
        for tier in &report.tiers {
            if tier.replicas.is_empty() {
                continue;
            }
            let replica_drops: u64 = tier.replicas.iter().map(|r| r.drops_total).sum();
            prop_assert_eq!(replica_drops, tier.drops_total, "tier {}", tier.name);
            let max_peak = tier.replicas.iter().map(|r| r.peak_queue).max().unwrap();
            prop_assert!(tier.peak_queue >= max_peak, "tier {}", tier.name);
            let replica_spawns: u64 = tier.replicas.iter().map(|r| r.spawns).sum();
            prop_assert_eq!(replica_spawns, tier.spawns, "tier {}", tier.name);
        }
    }
}

/// A random replicated root scattering to 2–6 single-tier shard arms at a
/// random feasible quorum — wider fan-outs than `arb_topology`'s 2–3.
fn arb_scatter() -> impl Strategy<Value = SystemConfig> {
    (
        arb_spec("root"),
        proptest::collection::vec(arb_spec("shard"), 2..7),
        1usize..7,
    )
        .prop_map(|(root, arms, quorum)| {
            let quorum = quorum.min(arms.len());
            Topology::client()
                .tier(root)
                .fanout(quorum, arms.into_iter().map(Branch::tier).collect())
                .build()
                .expect("randomly built scatters are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scattering a replicated root across 2–6 random shard arms, at any
    /// quorum, neither loses nor invents requests.
    #[test]
    fn conservation_over_random_trees_and_shard_counts(
        system in arb_scatter(),
        batch in 1u64..40,
        demand_us in 100u64..2_000,
        seed in any::<u64>(),
    ) {
        let shards = system.shape.len() - 1;
        prop_assert!((2..7).contains(&shards), "{} shards", shards);
        let demands = vec![SimDuration::from_micros(demand_us); system.shape.len()];
        let plan = Plan::tree_pipeline(&system.shape, &demands);
        let arrivals: Vec<(SimTime, Plan)> = (0..batch)
            .map(|i| (SimTime::from_millis(200 + i * 20), plan.share()))
            .collect();
        let report = Engine::new(
            system,
            Workload::open_plans(arrivals),
            SimDuration::from_secs(15),
            seed,
        )
        .run();
        prop_assert!(report.is_conserved(), "{}", report.summary());
        prop_assert_eq!(report.injected, batch);
    }
}

// ---------------------------------------------------------------------------
// 2. Quorum semantics
// ---------------------------------------------------------------------------

/// Front scatters to three shards whose service demands differ by 10×
/// each; `quorum` picks how many replies the gather waits for.
fn quorum_run(quorum: usize) -> RunReport {
    let system = Topology::client()
        .tier(TierSpec::sync("front", 8, 8))
        .fanout(
            quorum,
            vec![
                Branch::tier(TierSpec::sync("fast", 4, 4)),
                Branch::tier(TierSpec::sync("mid", 4, 4)),
                Branch::tier(TierSpec::sync("slow", 4, 4)),
            ],
        )
        .build()
        .unwrap();
    let demands = [
        SimDuration::from_millis(1),   // front
        SimDuration::from_millis(1),   // fast
        SimDuration::from_millis(20),  // mid
        SimDuration::from_millis(200), // slow
    ];
    let plan = Plan::tree_pipeline(&system.shape, &demands);
    let arrivals: Vec<(SimTime, Plan)> = (0..50u64)
        .map(|i| (SimTime::from_millis(100 + i * 500), plan.share()))
        .collect();
    Engine::new(
        system,
        Workload::open_plans(arrivals),
        SimDuration::from_secs(30),
        9,
    )
    .run()
}

/// Completion latency tracks the Q-th fastest arm: the fastest shard at
/// quorum 1, the 20 ms shard at quorum 2, the 200 ms shard at quorum 3.
#[test]
fn quorum_selects_which_arm_governs_latency() {
    let q1 = quorum_run(1);
    let q2 = quorum_run(2);
    let q3 = quorum_run(3);
    for r in [&q1, &q2, &q3] {
        assert!(r.is_conserved(), "{}", r.summary());
        assert_eq!(r.completed, 50);
    }
    let mean = |r: &RunReport| r.latency.mean();
    assert!(
        mean(&q1) < SimDuration::from_millis(10),
        "quorum 1 ≈ fastest arm, got {:?}",
        mean(&q1)
    );
    assert!(
        mean(&q2) >= SimDuration::from_millis(20) && mean(&q2) < SimDuration::from_millis(60),
        "quorum 2 ≈ second arm, got {:?}",
        mean(&q2)
    );
    assert!(
        mean(&q3) >= SimDuration::from_millis(200),
        "quorum 3 ≈ slowest arm, got {:?}",
        mean(&q3)
    );
    assert!(mean(&q1) < mean(&q2) && mean(&q2) < mean(&q3));
}

/// The fan-out analogue of the paper's NX conversion: under quorum 2 the
/// stalled shard's 3 s retransmission ladders never reach the client (the
/// two healthy arms answer first), while quorum 3 re-exposes every one.
#[test]
fn quorum_slack_absorbs_a_stalled_arm() {
    let run = |quorum: usize| {
        let mut spec = exp::replicated_fanout(7);
        spec.system.shape.quorum[0] = quorum;
        spec.run()
    };
    let absorbed = run(2);
    let exposed = run(3);
    assert!(absorbed.is_conserved(), "{}", absorbed.summary());
    assert!(exposed.is_conserved(), "{}", exposed.summary());
    // The stalled shard drops either way — the quorum only decides whether
    // the client waits out the retransmission.
    assert!(exposed.drops_total > 0, "stall must overflow the shard");
    assert_eq!(absorbed.vlrt_total, 0, "quorum slack hides the 3 s ladder");
    assert!(
        exposed.vlrt_total > 0,
        "full quorum re-exposes the retransmissions"
    );
}

// ---------------------------------------------------------------------------
// 3. Hot replica vs. balancer policy, with trace attribution
// ---------------------------------------------------------------------------

/// One stalled instance behind a 2-replica Tomcat set at the Fig. 1
/// operating point: round-robin keeps sending half the connections into
/// the stall and yields the multi-modal VLRT ladder; least-outstanding
/// sees the backlog and routes around it.
#[test]
fn queue_aware_balancing_suppresses_the_hot_replica_vlrt() {
    let rr = exp::replication_ladder(2, Balancer::RoundRobin, 7).run();
    let lo = exp::replication_ladder(2, Balancer::LeastOutstanding, 7).run();
    assert!(rr.is_conserved(), "{}", rr.summary());
    assert!(lo.is_conserved(), "{}", lo.summary());

    assert!(rr.vlrt_total > 0, "round-robin must expose the hot replica");
    assert!(
        lo.vlrt_total * 4 <= rr.vlrt_total,
        "least-outstanding must suppress ≥ 4× (rr {} vs lo {})",
        rr.vlrt_total,
        lo.vlrt_total
    );

    // The drop ledger localizes the damage: replica 0 (the stalled one)
    // carries the overwhelming share of the set's drops under round-robin.
    let app = &rr.tiers[1];
    assert_eq!(app.replicas.len(), 2);
    assert_eq!(
        app.replicas[0].drops_total + app.replicas[1].drops_total,
        app.drops_total
    );
    assert!(
        app.replicas[0].drops_total > 4 * app.replicas[1].drops_total.max(1),
        "hot replica carries the drops: {:?}",
        app.replicas
            .iter()
            .map(|r| r.drops_total)
            .collect::<Vec<_>>()
    );

    // Multi-modal: the retained traces include both the 3 s and ≥ 6 s modes.
    let log = rr.trace.as_ref().expect("ladder runs traced");
    assert!(log.vlrt_traces().any(|t| t.syn_drops().count() == 1));
    assert!(log.vlrt_traces().any(|t| t.syn_drops().count() >= 2));

    // RootCause names the hot replica: every causal step dropped at tier 1
    // replica 0 (replica 0 renders bare — `site_label` keeps pre-replica
    // output byte-compatible — so the histogram shows one site, "1"), and
    // the millibottleneck culprits carry the replica id rather than the
    // diluted tier aggregate.
    let analysis = RootCause::default().analyze(log, &rr.trace_tier_data());
    assert!(analysis.attribution_rate() >= 0.95);
    for chain in &analysis.chains {
        for step in &chain.steps {
            assert_eq!(step.tier, 1, "drop at Tomcat");
            assert_eq!(step.replica, ReplicaId(0), "drop pinned to the hot replica");
        }
    }
    let hist = analysis.drop_site_histogram();
    assert_eq!(hist.len(), 1, "a single drop site: {hist:?}");
    assert_eq!(hist[0].0, "1");
    let culprits: Vec<_> = analysis
        .chains
        .iter()
        .flat_map(|c| c.steps.iter().filter_map(|s| s.culprit.as_ref()))
        .collect();
    assert!(!culprits.is_empty());
    assert!(culprits
        .iter()
        .any(|c| c.kind == CulpritKind::Millibottleneck
            && c.tier == 1
            && c.replica == Some(ReplicaId(0))));
}

// ---------------------------------------------------------------------------
// 4. Replica-count-1 goldens and thread-count invariance
// ---------------------------------------------------------------------------

/// Everything observable about a run, flattened for equality comparison
/// (mirrors the determinism suite's deep fingerprint, plus the per-replica
/// ledgers).
fn deep_fingerprint(r: &RunReport) -> String {
    use std::fmt::Write;
    let q = |p: f64| r.latency.quantile(p).map_or(0, SimDuration::as_micros);
    let mut s = format!(
        "ev={} inj={} comp={} fail={} shed={} canc={} infl={} vlrt={} drops={} \
         mean={} q50={} q99={} q9999={} res={:?}",
        r.events,
        r.injected,
        r.completed,
        r.failed,
        r.shed,
        r.cancelled,
        r.in_flight_end,
        r.vlrt_total,
        r.drops_total,
        r.latency.mean().as_micros(),
        q(0.50),
        q(0.99),
        q(0.9999),
        r.resilience,
    );
    for t in &r.tiers {
        write!(
            s,
            " | {} peak={} drops={} spawns={} qmax={:?} dsum={:?} util={:?}",
            t.name,
            t.peak_queue,
            t.drops_total,
            t.spawns,
            t.queue_depth.maxima(),
            t.drops.sums(),
            t.util.utilizations(),
        )
        .unwrap();
        for rep in &t.replicas {
            write!(
                s,
                " r{} peak={} drops={} qmax={:?} dsum={:?} util={:?}",
                rep.id,
                rep.peak_queue,
                rep.drops_total,
                rep.queue_depth.maxima(),
                rep.drops.sums(),
                rep.util.utilizations(),
            )
            .unwrap();
        }
    }
    s
}

/// Flattens a trace log: counters plus every retained trace's identity and
/// full event stream (replica-qualified).
fn trace_fingerprint(log: &TraceLog) -> String {
    use std::fmt::Write;
    let mut s = format!(
        "started={} promoted={} evicted={} unterminated={}",
        log.started, log.promoted, log.evicted, log.unterminated
    );
    for t in &log.traces {
        write!(
            s,
            " | #{} {} {} {:?} events={:?}",
            t.id,
            t.class,
            t.outcome.as_str(),
            t.latency,
            t.events
        )
        .unwrap();
    }
    s
}

/// A 1-instance "replica set" is byte-for-byte the chain: the ladder at
/// replica count 1 reproduces the pre-topology `trace_vlrt` report —
/// counters, series, latencies, and the trace event streams — for both an
/// rng-free policy (round-robin) and the rng-consuming one (P2C, whose
/// dedicated fork must stay untouched when there is nothing to choose).
#[test]
fn single_replica_ladder_reproduces_the_chain_report() {
    let chain = exp::trace_vlrt(7).run();
    for balancer in [Balancer::RoundRobin, Balancer::P2c] {
        let ladder = exp::replication_ladder(1, balancer, 7).run();
        assert_eq!(
            deep_fingerprint(&ladder),
            deep_fingerprint(&chain),
            "{} diverged from the chain",
            balancer.label()
        );
        assert!(ladder.tiers.iter().all(|t| t.replicas.is_empty()));
        assert_eq!(
            trace_fingerprint(ladder.trace.as_ref().unwrap()),
            trace_fingerprint(chain.trace.as_ref().unwrap()),
            "{} trace log diverged from the chain",
            balancer.label()
        );
    }
}

/// Replicated and scatter-gather specs honor the runner's determinism
/// contract: 1 thread and 8 threads produce bit-identical reports and
/// trace logs.
#[test]
fn replicated_specs_are_thread_count_invariant() {
    let specs = || {
        vec![
            exp::replicated_fanout(3),
            exp::replicated_fanout(11),
            exp::replication_ladder(2, Balancer::P2c, 7),
            exp::replication_ladder(5, Balancer::Jsq, 11),
        ]
    };
    let one = ntier_repro::runner::run_all(specs(), 1);
    let eight = ntier_repro::runner::run_all(specs(), 8);
    assert_eq!(one.len(), eight.len());
    for (i, (a, b)) in one.iter().zip(&eight).enumerate() {
        assert_eq!(
            deep_fingerprint(a),
            deep_fingerprint(b),
            "spec #{i} diverged between 1 and 8 threads"
        );
        match (&a.trace, &b.trace) {
            (Some(la), Some(lb)) => {
                assert_eq!(
                    trace_fingerprint(la),
                    trace_fingerprint(lb),
                    "spec #{i} traces"
                )
            }
            (None, None) => {}
            _ => panic!("spec #{i}: trace presence diverged"),
        }
    }
}
