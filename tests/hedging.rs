//! Acceptance tests for hedged requests, cancellation propagation, and
//! adaptive admission: the two regimes of the hedging frontier, plus the
//! bit-identical-across-threads guarantee for hedged runs.

#![deny(deprecated)]

use ntier_core::experiment::{
    hedging_frontier, hedging_frontier_sweep, HedgingLoad, HedgingVariant,
};
use ntier_core::RunReport;
use ntier_des::time::SimDuration;

fn p99(r: &RunReport) -> SimDuration {
    r.latency.quantile(0.99).expect("completions")
}

/// At the Fig. 1 operating point (~43% utilization, seed-pinned), budgeted
/// hedging with cancellation propagation beats the PR-1 hardened
/// sequential-retry stack on VLRT fraction — while completing *all*
/// traffic (the hardened arm fails/sheds a chunk of it) and reclaiming the
/// losing attempts it abandons.
#[test]
fn hedged_cancelling_beats_hardened_at_fig1_operating_point() {
    let baseline = hedging_frontier(HedgingVariant::Baseline, HedgingLoad::Moderate, 7).run();
    let hardened = hedging_frontier(HedgingVariant::Hardened, HedgingLoad::Moderate, 7).run();
    let hedged = hedging_frontier(HedgingVariant::HedgedCancelling, HedgingLoad::Moderate, 7).run();
    for r in [&baseline, &hardened, &hedged] {
        assert!(r.is_conserved(), "{}", r.summary());
    }

    // The plant reproduces the paper's mechanism without any policy: drops
    // ride the kernel RTO into 3 s and 6 s latency modes.
    assert!(
        baseline.has_mode_near(3) && baseline.has_mode_near(6),
        "baseline modes: {:?}",
        baseline.latency_modes()
    );
    assert!(
        baseline.vlrt_fraction() > 0.30,
        "baseline VLRT {:.3}",
        baseline.vlrt_fraction()
    );

    // The headline acceptance: hedging + cancellation < hardened < baseline.
    assert!(
        hedged.vlrt_fraction() < hardened.vlrt_fraction(),
        "hedged {:.4} vs hardened {:.4}",
        hedged.vlrt_fraction(),
        hardened.vlrt_fraction()
    );
    assert!(
        hedged.vlrt_fraction() < baseline.vlrt_fraction() / 4.0,
        "hedged {:.4} vs baseline {:.4}",
        hedged.vlrt_fraction(),
        baseline.vlrt_fraction()
    );

    // Hedging completes everything — no failed, shed, or deadline-cancelled
    // logical requests — where the hardened arm converts its tail into
    // explicit failures and breaker sheds.
    assert_eq!(hedged.completed, hedged.injected, "{}", hedged.summary());
    assert!(
        hardened.failed + hardened.shed > 0,
        "{}",
        hardened.summary()
    );

    // Cancellation did real work: losing attempts were chased down and
    // reaped (freeing their RTO-limbo slots) rather than left as orphans.
    assert!(hedged.resilience.hedges > 0);
    assert!(
        hedged.resilience.wasted_work_saved > 0,
        "{}",
        hedged.summary()
    );
    assert!(hedged.resilience.cancels_propagated >= hedged.resilience.wasted_work_saved);
    // The hardened arm cancels nothing — its abandoned attempts all leak.
    assert_eq!(hardened.resilience.wasted_work_saved, 0);
}

/// The hedging-frontier arms of `examples/hedging_frontier.rs` on seed 42,
/// at the smoke level: the baseline plant shows the RTO modes, hedging with
/// cancellation erases most of that tail at the moderate point and reclaims
/// the work of the attempts it revokes.
#[test]
fn hedging_frontier_smoke_both_regimes() {
    let base = hedging_frontier(HedgingVariant::Baseline, HedgingLoad::Moderate, 42).run();
    let hedged =
        hedging_frontier(HedgingVariant::HedgedCancelling, HedgingLoad::Moderate, 42).run();
    assert!(base.has_mode_near(3), "modes {:?}", base.latency_modes());
    assert!(
        hedged.vlrt_fraction() < base.vlrt_fraction() / 4.0,
        "hedged {:.4} vs base {:.4}",
        hedged.vlrt_fraction(),
        base.vlrt_fraction()
    );
    assert!(
        hedged.resilience.wasted_work_saved > 0,
        "{}",
        hedged.summary()
    );
    for r in [&base, &hedged] {
        assert!(r.is_conserved());
    }
}

/// The Poloczek & Ciucu flip, seed-pinned at ~88% load: un-budgeted
/// hedging without cancellation multiplies effective load and *raises* p99
/// above the no-hedge baseline, while the budgeted + cancelling caller on
/// the same plant keeps p99 below it.
#[test]
fn unbudgeted_no_cancel_hedging_flips_into_overload_at_high_load() {
    let baseline = hedging_frontier(HedgingVariant::Baseline, HedgingLoad::High, 7).run();
    let naive = hedging_frontier(HedgingVariant::HedgedNoCancel, HedgingLoad::High, 7).run();
    let disciplined =
        hedging_frontier(HedgingVariant::HedgedCancelling, HedgingLoad::High, 7).run();
    for r in [&baseline, &naive, &disciplined] {
        assert!(r.is_conserved(), "{}", r.summary());
    }

    // Replication that was supposed to dodge the tail now *is* the tail.
    assert!(
        p99(&naive) > p99(&baseline),
        "naive p99 {} must exceed baseline p99 {}",
        p99(&naive),
        p99(&baseline)
    );
    // Budget + cancellation tame the same hedging impulse below baseline.
    assert!(
        p99(&disciplined) < p99(&baseline),
        "disciplined p99 {} vs baseline p99 {}",
        p99(&disciplined),
        p99(&baseline)
    );
    // The mechanism: the naive arm fires far more backups (no token
    // bucket), reclaims none of them, and starts missing its deadline.
    assert!(naive.resilience.hedges > 2 * disciplined.resilience.hedges);
    assert_eq!(naive.resilience.wasted_work_saved, 0);
    assert!(naive.failed > 0, "{}", naive.summary());
    assert_eq!(disciplined.failed, 0, "{}", disciplined.summary());
}

/// The AIMD admission limiter turns sustained overload into fast sheds:
/// what still completes is fast (tiny VLRT fraction), and the excess is
/// cancelled at the caller deadline instead of queueing for seconds.
#[test]
fn aimd_admission_degrades_gracefully_under_overload() {
    let aimd = hedging_frontier(HedgingVariant::HedgedCancellingAimd, HedgingLoad::High, 7).run();
    let baseline = hedging_frontier(HedgingVariant::Baseline, HedgingLoad::High, 7).run();
    assert!(aimd.is_conserved(), "{}", aimd.summary());

    assert!(
        aimd.vlrt_fraction() < 0.05,
        "AIMD VLRT {:.4}",
        aimd.vlrt_fraction()
    );
    assert!(aimd.cancelled > 0, "{}", aimd.summary());
    assert!(
        p99(&aimd) < p99(&baseline) / 2,
        "AIMD p99 {} vs baseline {}",
        p99(&aimd),
        p99(&baseline)
    );
}

/// Every observable counter of a hedged run, flattened for exact equality.
fn fingerprint(r: &RunReport) -> String {
    let q = |p: f64| {
        r.latency
            .quantile(p)
            .map_or(0, ntier_des::time::SimDuration::as_micros)
    };
    format!(
        "ev={} inj={} comp={} fail={} shed={} canc={} infl={} vlrt={} drops={} \
         mean={} q50={} q99={} q999={} res={:?} tiers={:?}",
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
        q(0.999),
        r.resilience,
        r.tiers
            .iter()
            .map(|t| (t.peak_queue, t.drops_total, format!("{:?}", t.resilience)))
            .collect::<Vec<_>>(),
    )
}

/// The full delay × K × load sweep — quantile-adaptive hedge delays, token
/// buckets, cancellation chases and all — produces bit-identical reports
/// whether the runner uses 1 worker thread or 8.
#[test]
fn hedged_sweep_is_bit_identical_across_runner_thread_counts() {
    let serial: Vec<String> = ntier_runner::run_all(hedging_frontier_sweep(7), 1)
        .iter()
        .map(fingerprint)
        .collect();
    let parallel: Vec<String> = ntier_runner::run_all(hedging_frontier_sweep(7), 8)
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(serial.len(), 12, "delay(3) x K(2) x load(2)");
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "sweep point #{i} diverged between 1 and 8 threads");
    }
}
