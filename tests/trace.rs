//! Integration tests for per-request causal tracing and root-cause analysis.
//!
//! Three guarantees are pinned here, across the crate boundary (engine →
//! report → analyzer → exporter):
//!
//! 1. **Attribution is evidence-backed**: every 3 s step the [`RootCause`]
//!    analyzer reports corresponds one-to-one to a `syn_drop` event actually
//!    recorded in that request's trace (property-tested over seeds).
//! 2. **Golden seed**: at the paper's 43% operating point (seed 7) the
//!    analyzer attributes ≥ 95% of VLRT requests, and one known 9 s
//!    request's full causal chain — drop times, windows, retransmit
//!    ordinals, millibottleneck culprits — is pinned exactly.
//! 3. **Tracing is free of observer effects**: the report with tracing on
//!    is identical to the report with tracing off, and traced runs are
//!    bit-identical whether the runner uses 1 thread or 8.

mod common;

use ntier_repro::core::engine::{Engine, Workload};
use ntier_repro::core::experiment as exp;
use ntier_repro::core::{RunReport, TierSpec, Topology};
use ntier_repro::des::prelude::*;
use ntier_repro::des::time::MONITOR_WINDOW;
use ntier_repro::trace::{
    chrome_trace_json, CulpritKind, RootCause, TerminalClass, TraceConfig, TraceLog,
};
use ntier_repro::workload::{BurstSchedule, RequestMix};

use proptest::prelude::*;

/// The cheap CTQO scenario from the engine's unit tests: a 24-request burst
/// into a tiny sync chain overflows the Web backlog, so the retransmitted
/// wave lands 3 s (or 6/9 s) late — a handful of VLRT requests per run.
fn traced_burst(seed: u64, trace: TraceConfig) -> RunReport {
    let system = Topology::three_tier(
        TierSpec::sync("Web", 4, 2),
        TierSpec::sync("App", 4, 2).with_downstream_pool(2),
        TierSpec::sync("Db", 4, 2),
    )
    .with_trace(trace);
    let burst = BurstSchedule::from_bursts([(SimTime::from_millis(10), 24)]);
    Engine::new(
        system,
        Workload::open(burst.arrivals(), RequestMix::view_story()),
        SimDuration::from_secs(12),
        seed,
    )
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(8)))]

    /// Every attributed causal step is backed by a recorded syn_drop event:
    /// same instant, same tier, same retransmit ordinal, and exactly as
    /// many steps as the trace has drops. Conversely, a VLRT trace left
    /// unattributed must contain no drop to pin its latency on.
    #[test]
    fn attributed_steps_match_recorded_syn_drops(seed in 0u64..500) {
        let report = traced_burst(seed, TraceConfig::always());
        let log = report.trace.as_ref().expect("tracing enabled");
        let tier_data = report.trace_tier_data();
        let analysis = RootCause.analyze(log, &tier_data);
        prop_assert_eq!(analysis.vlrt_total as u64, report.vlrt_total);

        for chain in &analysis.chains {
            let trace = log.get(chain.trace_id).expect("chain has a trace");
            let drops: Vec<_> = trace.syn_drops().collect();
            prop_assert_eq!(chain.steps.len(), drops.len());
            for (step, &(at, tier, replica, ordinal)) in chain.steps.iter().zip(&drops) {
                prop_assert_eq!(step.drop_at, at);
                prop_assert_eq!(step.tier, tier.index());
                prop_assert_eq!(step.replica, replica);
                prop_assert_eq!(step.retransmit_no, ordinal);
                prop_assert_eq!(step.window, at.window_index(MONITOR_WINDOW));
            }
        }
        for &id in &analysis.unattributed {
            let trace = log.get(id).expect("unattributed id has a trace");
            prop_assert_eq!(trace.syn_drops().count(), 0);
        }
    }
}

/// The acceptance run: seed 7 at the paper's Fig. 1 WL 4000 operating
/// point. Pins the attribution rate, one full 9 s causal chain, the
/// presence of all three latency modes among the retained traces, and the
/// Chrome-trace export of the 3 s stalls.
#[test]
fn golden_seed_attributes_the_vlrt_population() {
    let report = exp::trace_vlrt(7).run();
    let log = report.trace.as_ref().expect("trace_vlrt enables tracing");
    assert_eq!(log.evicted, 0, "ring must be sized for the full run");
    assert_eq!(log.unterminated, 0);

    let tier_data = report.trace_tier_data();
    let analysis = RootCause.analyze(log, &tier_data);
    assert_eq!(analysis.vlrt_total as u64, report.vlrt_total);
    assert!(
        analysis.attribution_rate() >= 0.95,
        "attributed {}/{} VLRT traces",
        analysis.chains.len(),
        analysis.vlrt_total
    );

    // All three SYN-retransmission latency modes are retained: requests
    // that paid one, two, and three 3 s RTOs.
    for drops in 1..=3usize {
        assert!(
            log.vlrt_traces().any(|t| t.syn_drops().count() == drops),
            "no retained VLRT trace with {drops} drop(s)"
        );
    }

    // Golden chain: request #25675 pays the full 3-drop (9 s) ladder at
    // Tomcat, each drop attributed to a millibottleneck (interferer burst)
    // at Tomcat a few windows earlier.
    let chain = analysis
        .chains
        .iter()
        .find(|c| c.trace_id == 25_675)
        .expect("known 9 s request attributed");
    assert_eq!(chain.class, "view_story");
    assert_eq!(chain.outcome, TerminalClass::Completed);
    assert!(chain.latency >= SimDuration::from_secs(9));
    assert_eq!(chain.steps.len(), 3);
    let windows: Vec<u64> = chain.steps.iter().map(|s| s.window).collect();
    assert_eq!(windows, vec![898, 958, 1018], "50 ms drop windows");
    for (i, step) in chain.steps.iter().enumerate() {
        assert_eq!(step.tier, 1, "all three drops at Tomcat");
        assert_eq!(step.retransmit_no as usize, i);
        assert_eq!(step.stalled_for, SimDuration::from_secs(3));
        let culprit = step.culprit.as_ref().expect("culprit named");
        assert_eq!(culprit.kind, CulpritKind::Millibottleneck);
        assert_eq!(culprit.tier, 1, "the Tomcat stall train");
        assert!(culprit.window <= step.window);
        assert!(
            step.window - culprit.window <= RootCause::LOOKBACK,
            "culprit within the lookback"
        );
    }

    // The exporter renders the 3 s stalls as explicit rto-wait spans and
    // the drops as instants, so the chain is visible in Perfetto.
    let tier_names: Vec<String> = report.tiers.iter().map(|t| t.name.clone()).collect();
    let json = chrome_trace_json(log, &tier_names);
    assert!(json.contains("\"rto wait Tomcat #0\""), "3 s stall span");
    assert!(
        json.contains("\"rto wait Tomcat #2\""),
        "9 s request's third RTO"
    );
    assert!(json.contains("\"syn_drop Tomcat #0\""));
    assert!(json.contains("\"thread_name\""), "per-request tracks named");
}

/// Flattens a trace log into a comparison string: header counters plus
/// every retained trace's identity, terminal, and full event stream.
fn trace_fingerprint(log: &TraceLog) -> String {
    use std::fmt::Write;
    let mut s = format!(
        "started={} promoted={} evicted={} unterminated={}",
        log.started, log.promoted, log.evicted, log.unterminated
    );
    for t in &log.traces {
        write!(
            s,
            " | #{} {} {} {:?} sampled={} events={:?}",
            t.id,
            t.class,
            t.outcome.as_str(),
            t.latency,
            t.sampled,
            t.events
        )
        .unwrap();
    }
    s
}

fn traced_fig1_specs() -> Vec<ntier_repro::core::experiment::ExperimentSpec> {
    [3u64, 7, 11]
        .into_iter()
        .map(|seed| {
            let mut spec = exp::fig1(2_000, SimDuration::from_secs(10), seed);
            spec.system = spec.system.with_trace(TraceConfig::sampled(0.05));
            spec
        })
        .collect()
}

/// Trace event streams are part of the runner's determinism contract:
/// running the same traced specs on 1 thread and on 8 threads yields
/// bit-identical trace logs, not just identical reports.
#[test]
fn traced_runner_is_thread_count_invariant() {
    let one = ntier_repro::runner::run_all(traced_fig1_specs(), 1);
    let eight = ntier_repro::runner::run_all(traced_fig1_specs(), 8);
    assert_eq!(one.len(), eight.len());
    for (a, b) in one.iter().zip(&eight) {
        let la = a.trace.as_ref().expect("traced spec");
        let lb = b.trace.as_ref().expect("traced spec");
        assert_eq!(trace_fingerprint(la), trace_fingerprint(lb));
    }
}

/// A coarse but wide report fingerprint for the observer-effect check.
fn report_fingerprint(r: &RunReport) -> String {
    use std::fmt::Write;
    let q = |p: f64| r.latency.quantile(p).map_or(0, SimDuration::as_micros);
    let mut s = format!(
        "ev={} inj={} comp={} fail={} shed={} canc={} vlrt={} drops={} \
         mean={} q50={} q99={} q9999={}",
        r.events,
        r.injected,
        r.completed,
        r.failed,
        r.shed,
        r.cancelled,
        r.vlrt_total,
        r.drops_total,
        r.latency.mean().as_micros(),
        q(0.50),
        q(0.99),
        q(0.9999),
    );
    for t in &r.tiers {
        write!(
            s,
            " | {} drops={} peak={} dsum={:?} util={:?}",
            t.name,
            t.drops_total,
            t.peak_queue,
            t.drops.sums(),
            t.util.utilizations(),
        )
        .unwrap();
    }
    s
}

/// Tracing must not perturb the simulation: the full Fig. 1 report is
/// identical with tracing disabled, sampled, or recording everything.
#[test]
fn tracing_choice_leaves_the_report_unchanged() {
    let run = |trace: TraceConfig| {
        let mut spec = exp::fig1(2_000, SimDuration::from_secs(10), 7);
        spec.system = spec.system.with_trace(trace);
        spec.run()
    };
    let off = report_fingerprint(&run(TraceConfig::disabled()));
    let sampled = report_fingerprint(&run(TraceConfig::sampled(0.01)));
    let on = report_fingerprint(&run(TraceConfig::always()));
    assert_eq!(off, sampled, "sampling must be invisible to the report");
    assert_eq!(off, on, "full tracing must be invisible to the report");
}
