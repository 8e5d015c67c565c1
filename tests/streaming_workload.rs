//! The streaming workload path: `Workload::from_source` must be a
//! faithful, bounded-memory replacement for materialized arrival tables.
//!
//! Pinned properties:
//!
//! * a streamed run and a run over the same arrivals materialized into a
//!   `VecSource` produce **field-for-field identical** reports (including
//!   trace logs) — proptest over seeds/rates;
//! * streamed runs are bit-identical across runner thread counts (1/8),
//!   because source pulls consume the `"mix"` rng fork, which nothing else
//!   draws from in a streamed run, on the single driving thread;
//! * a closed mix on the wrong system is a typed [`WorkloadError`], while
//!   trace parse failures, unsorted or non-monotone arrivals and streamed
//!   plans that do not fit the system (an open mix included) surface as
//!   `RunReport::workload_fault`, never panics.

mod common;

use ntier_core::arrivals::{MixPlans, PlanStamped, SourcedRequest, TraceDemandModel, TracePlans};
use ntier_core::engine::{Engine, Workload, WorkloadError};
use ntier_core::{ExperimentSpec, Plan, TierSpec, Topology};
use ntier_des::prelude::*;
use ntier_workload::source::{ArrivalSource, MmppSource, PoissonSource, VecSource};
use ntier_workload::{
    ClosedLoopSpec, ClusterTraceReader, Mmpp2, PoissonProcess, RequestKind, RequestMix,
    SampledRequest, TraceArrivals, TraceDialect,
};
use proptest::prelude::*;

fn small_system() -> ntier_core::SystemConfig {
    Topology::three_tier(
        TierSpec::sync("Web", 4, 2),
        TierSpec::sync("App", 4, 2).with_downstream_pool(2),
        TierSpec::sync("Db", 4, 2),
    )
}

fn traced_system() -> ntier_core::SystemConfig {
    small_system().with_trace(ntier_trace::TraceConfig::always())
}

/// Pull every arrival out of a source exactly the way the engine would:
/// with the run's `"mix"` fork of the seed.
fn materialize_as_engine(
    mut src: impl ArrivalSource<Payload = SourcedRequest>,
    seed: u64,
) -> Vec<(SimTime, SourcedRequest)> {
    let mut rng = SimRng::seed_from(seed).fork("mix");
    let mut out = Vec::new();
    while let Some(pair) = src.next_arrival(&mut rng) {
        out.push(pair);
    }
    out
}

fn poisson_mix_source(rate: f64, secs: u64) -> MixPlans<PoissonSource> {
    MixPlans::new(
        PoissonSource::new(PoissonProcess::new(rate), SimDuration::from_secs(secs)),
        RequestMix::rubbos_browse(),
    )
}

fn mmpp_mix_source(secs: u64) -> MixPlans<MmppSource> {
    MixPlans::new(
        MmppSource::new(
            Mmpp2::new(300.0, 2_500.0, 2.0, 0.25),
            SimDuration::from_secs(secs),
        ),
        RequestMix::rubbos_browse(),
    )
}

#[test]
fn streamed_and_materialized_runs_are_field_for_field_identical() {
    let seed = 42;
    let horizon = SimDuration::from_secs(8);
    let streamed = Engine::new(
        traced_system(),
        Workload::from_source(poisson_mix_source(400.0, 8)),
        horizon,
        seed,
    )
    .run();
    let pairs = materialize_as_engine(poisson_mix_source(400.0, 8), seed);
    let materialized = Engine::new(
        traced_system(),
        Workload::from_source(VecSource::new(pairs)),
        horizon,
        seed,
    )
    .run();
    assert!(streamed.completed > 0, "{}", streamed.summary());
    assert_eq!(
        format!("{streamed:?}"),
        format!("{materialized:?}"),
        "streamed vs materialized reports diverge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(8)))]

    /// The equivalence holds across seeds and load levels, trace log
    /// included (the reports' Debug forms carry every field).
    #[test]
    fn prop_streamed_equals_materialized(seed in 1u64..500, rate in 100.0f64..900.0) {
        let horizon = SimDuration::from_secs(4);
        let streamed = Engine::new(
            traced_system(),
            Workload::from_source(poisson_mix_source(rate, 4)),
            horizon,
            seed,
        )
        .run();
        let pairs = materialize_as_engine(poisson_mix_source(rate, 4), seed);
        let materialized = Engine::new(
            traced_system(),
            Workload::from_source(VecSource::new(pairs)),
            horizon,
            seed,
        )
        .run();
        prop_assert_eq!(format!("{streamed:?}"), format!("{materialized:?}"));
    }
}

#[test]
fn streamed_runs_are_runner_thread_count_invariant() {
    let specs = || -> Vec<ExperimentSpec> {
        (0..4)
            .map(|i| ExperimentSpec {
                name: "streamed-mmpp",
                system: small_system(),
                workload: Workload::from_source(mmpp_mix_source(6)),
                horizon: SimDuration::from_secs(6),
                seed: 11 + i,
            })
            .collect()
    };
    let serial = ntier_runner::run_all(specs(), 1);
    let parallel = ntier_runner::run_all(specs(), 8);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

#[test]
fn mix_on_wrong_depth_is_a_typed_error() {
    let sys = || Topology::chain(vec![TierSpec::sync("A", 2, 2), TierSpec::sync("B", 2, 2)]);
    let err = Engine::try_new(
        sys(),
        Workload::closed(ClosedLoopSpec::rubbos(10), RequestMix::view_story()),
        SimDuration::from_secs(1),
        1,
    )
    .expect_err("2-tier system cannot take a closed mix workload");
    assert_eq!(
        err,
        WorkloadError::MixRequiresThreeTier {
            tiers: 2,
            linear: true
        }
    );
    let msg = err.to_string();
    assert!(msg.contains("3-tier"), "{msg}");
    assert!(msg.contains("from_source"), "{msg}");

    // An open mix streams 3-tier plans like `from_source(MixPlans)`: the
    // first arrival ends the run before it counts as injected.
    let report = Engine::new(
        sys(),
        Workload::open(vec![SimTime::from_millis(1)], RequestMix::view_story()),
        SimDuration::from_secs(1),
        1,
    )
    .run();
    let fault = report.workload_fault.as_deref().expect("plan misfit");
    assert!(fault.contains("plan depth 3"), "{fault}");
    assert!(fault.contains("2 tiers"), "{fault}");
    assert_eq!(report.injected, 0, "{}", report.summary());
    assert!(report.is_conserved(), "{}", report.summary());
}

#[test]
fn unsorted_open_times_trip_the_engine_guard() {
    let times = [100, 200, 150, 300].map(SimTime::from_millis).to_vec();
    let report = Engine::new(
        small_system(),
        Workload::open(times, RequestMix::view_story()),
        SimDuration::from_secs(2),
        1,
    )
    .run();
    let fault = report.workload_fault.as_deref().expect("guard tripped");
    assert!(fault.contains("non-decreasing"), "{fault}");
    assert_eq!(report.injected, 2, "{}", report.summary());
    assert!(report.is_conserved(), "{}", report.summary());
}

/// CTQO is decided at single instants, so the same-instant order is part
/// of the model: every arrival of an instant runs ahead of the events
/// scheduled earlier for that instant — here the metrics plane's 1 s tick,
/// queued before the source had emitted either 1 s arrival.
#[test]
fn arrivals_open_their_instant() {
    let sys = small_system().with_metrics(ntier_telemetry::MetricsConfig::paper_default());
    let times = [500, 1_000, 1_000].map(SimTime::from_millis).to_vec();
    let workload = Workload::open(times, RequestMix::view_story());
    let report = Engine::new(sys, workload, SimDuration::from_secs(2), 1).run();
    let metrics = report.metrics.as_ref().expect("metrics plane on");
    let first = &metrics.snapshots()[0];
    assert_eq!(first.t_us, 1_000_000);
    assert_eq!(first.injected, 3, "the 1 s tick ran before a 1 s arrival");
}

#[test]
fn trace_parse_fault_truncates_the_run_instead_of_panicking() {
    let csv = "t1,40,j,A,S,0,2,100,0\nt2,oops,j,A,S,1,2,100,0\n";
    let src = TracePlans::new(
        TraceArrivals::new(ClusterTraceReader::new(
            std::io::Cursor::new(csv),
            TraceDialect::Alibaba,
        )),
        TraceDemandModel::paper_default(),
    );
    let report = Engine::new(
        small_system(),
        Workload::from_source(src),
        SimDuration::from_secs(5),
        1,
    )
    .run();
    let fault = report.workload_fault.as_deref().expect("fault surfaced");
    assert!(fault.contains("line 2"), "{fault}");
    assert!(report.injected <= 1, "{}", report.summary());
    assert!(report.is_conserved());
}

#[test]
fn clean_streams_report_no_fault() {
    let report = Engine::new(
        small_system(),
        Workload::from_source(poisson_mix_source(200.0, 3)),
        SimDuration::from_secs(3),
        5,
    )
    .run();
    assert!(report.workload_fault.is_none());
    assert!(report.is_conserved());
}

#[test]
fn non_monotone_sources_trip_the_engine_guard() {
    #[derive(Debug)]
    struct Backwards {
        emitted: u32,
        plan: Plan,
    }
    impl ArrivalSource for Backwards {
        type Payload = SourcedRequest;
        fn next_arrival(&mut self, _rng: &mut SimRng) -> Option<(SimTime, SourcedRequest)> {
            self.emitted += 1;
            let t = match self.emitted {
                1 => SimTime::from_millis(100),
                2 => SimTime::from_millis(50), // regression
                _ => return None,
            };
            Some((
                t,
                SourcedRequest {
                    class: "x",
                    plan: self.plan.share(),
                },
            ))
        }
    }
    let plan = Plan::compile(&RequestMix::view_story().sample(&mut SimRng::seed_from(1)));
    let report = Engine::new(
        small_system(),
        Workload::from_source(Backwards { emitted: 0, plan }),
        SimDuration::from_secs(2),
        1,
    )
    .run();
    let fault = report.workload_fault.as_deref().expect("guard tripped");
    assert!(fault.contains("non-decreasing"), "{fault}");
    assert_eq!(report.injected, 1, "{}", report.summary());
}

#[test]
fn mismatched_plan_depth_ends_the_stream_as_a_fault() {
    // Four well-formed 3-tier arrivals, then one 2-tier plan, then more
    // well-formed ones the engine must never reach.
    let good = Plan::compile(&RequestMix::view_story().sample(&mut SimRng::seed_from(1)));
    let short = Plan::pipeline(&[SimDuration::from_micros(80); 2]);
    let arrival = |ms: u64, plan: &Plan| {
        (
            SimTime::from_millis(ms),
            SourcedRequest {
                class: "x",
                plan: plan.share(),
            },
        )
    };
    let mut pairs: Vec<_> = (1..=4).map(|i| arrival(i * 10, &good)).collect();
    pairs.push(arrival(50, &short));
    pairs.extend((6..=9).map(|i| arrival(i * 10, &good)));
    let eager: Vec<_> = pairs.iter().map(|(t, r)| (*t, r.plan.share())).collect();
    let report = Engine::new(
        small_system(),
        Workload::from_source(VecSource::new(pairs)),
        SimDuration::from_secs(2),
        1,
    )
    .run();
    let fault = report.workload_fault.as_deref().expect("mismatch surfaced");
    assert!(fault.contains("plan depth 2"), "{fault}");
    assert!(fault.contains("3 tiers"), "{fault}");
    assert_eq!(report.injected, 4, "{}", report.summary());
    assert_eq!(report.completed, 4, "{}", report.summary());
    assert!(report.is_conserved(), "{}", report.summary());

    // The eager plan table reports the same misfit the same way instead of
    // panicking mid-run, and injects none of the later arrivals.
    let eager = Engine::new(
        small_system(),
        Workload::open_plans(eager),
        SimDuration::from_secs(2),
        1,
    )
    .run();
    assert_eq!(eager.workload_fault.as_deref(), Some(fault));
    assert_eq!(eager.injected, 4, "{}", eager.summary());
    assert_eq!(eager.completed, 4, "{}", eager.summary());
    assert!(eager.is_conserved(), "{}", eager.summary());
}

#[test]
fn oversized_visit_count_ends_the_stream_as_a_fault() {
    // A visit index is a u16: a tier can take at most 65 535 visits. One
    // request with that many DB queries runs; one more query is an input
    // fault, reported before the arrival counts as injected on both paths.
    let with_queries = |n: usize| {
        Plan::compile(&SampledRequest {
            class: "x",
            kind: RequestKind::Dynamic,
            web_demand: SimDuration::from_micros(10),
            app_demand: SimDuration::from_micros(10),
            db_demands: vec![SimDuration::from_micros(1); n],
        })
    };
    let widest = with_queries(usize::from(u16::MAX));
    let oversized = with_queries(usize::from(u16::MAX) + 1);
    let arrival = |ms: u64, plan: &Plan| {
        (
            SimTime::from_millis(ms),
            SourcedRequest {
                class: "x",
                plan: plan.share(),
            },
        )
    };
    let pairs = vec![
        arrival(10, &widest),
        arrival(20, &oversized),
        arrival(30, &widest),
    ];
    let eager: Vec<_> = pairs.iter().map(|(t, r)| (*t, r.plan.share())).collect();
    let report = Engine::new(
        small_system(),
        Workload::from_source(VecSource::new(pairs)),
        SimDuration::from_secs(120),
        1,
    )
    .run();
    let fault = report.workload_fault.as_deref().expect("oversize surfaced");
    assert!(fault.contains("65536 visits at tier 2"), "{fault}");
    assert_eq!(report.injected, 1, "{}", report.summary());
    assert_eq!(report.completed, 1, "{}", report.summary());
    assert!(report.is_conserved(), "{}", report.summary());

    let eager = Engine::new(
        small_system(),
        Workload::open_plans(eager),
        SimDuration::from_secs(120),
        1,
    )
    .run();
    assert_eq!(eager.workload_fault.as_deref(), Some(fault));
    assert_eq!(eager.injected, 1, "{}", eager.summary());
    assert_eq!(eager.completed, 1, "{}", eager.summary());
    assert!(eager.is_conserved(), "{}", eager.summary());
}

#[test]
fn google_dialect_fixture_replays_through_the_engine() {
    let csv = include_str!("../fixtures/google_sample.csv");
    let src = TracePlans::new(
        TraceArrivals::new(ClusterTraceReader::new(
            std::io::Cursor::new(csv),
            TraceDialect::Google,
        )),
        TraceDemandModel::paper_default(),
    );
    let report = Engine::new(
        small_system(),
        Workload::from_source(src),
        SimDuration::from_secs(60),
        1,
    )
    .run();
    assert!(report.workload_fault.is_none());
    assert!(report.injected >= 10, "{}", report.summary());
    assert_eq!(report.classes.len(), 1);
    assert_eq!(report.classes[0].class, "trace");
    assert!(report.is_conserved());
}

#[test]
fn alibaba_fixture_head_parses_in_both_readers() {
    // The first rows of the bundled 1-hour fixture must stay valid for the
    // cheap (debug-build) test tier; the full-fixture replay runs in the
    // release-built trace_replay example.
    let csv: String = include_str!("../fixtures/alibaba_1h.csv")
        .lines()
        .take(40)
        .collect::<Vec<_>>()
        .join("\n");
    let tasks = ClusterTraceReader::new(std::io::Cursor::new(csv.as_str()), TraceDialect::Alibaba)
        .read_all()
        .expect("fixture head parses");
    assert!(!tasks.is_empty());
    assert!(tasks.windows(2).all(|w| w[0].at <= w[1].at));
}

#[test]
fn plan_stamped_streams_custom_depth_chains() {
    let sys = Topology::chain(vec![
        TierSpec::sync("A", 4, 2),
        TierSpec::sync("B", 4, 2),
        TierSpec::sync("C", 4, 2),
        TierSpec::sync("D", 4, 2),
    ]);
    let plan = Plan::pipeline(&[SimDuration::from_micros(80); 4]);
    let src = PlanStamped::new(
        PoissonSource::new(PoissonProcess::new(300.0), SimDuration::from_secs(3)),
        "deep",
        plan,
    );
    let report = Engine::new(
        sys,
        Workload::from_source(src),
        SimDuration::from_secs(3),
        9,
    )
    .run();
    assert!(report.completed > 0, "{}", report.summary());
    assert_eq!(report.classes[0].class, "deep");
    assert!(report.is_conserved());
}
