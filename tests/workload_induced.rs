//! Millibottlenecks from the workload itself — no injected stall.
//!
//! §III: "millibottlenecks may happen due to several possible reasons
//! including a workload burst." A bursty arrival process whose burst rate
//! exceeds the app tier's capacity saturates its CPU for the burst duration
//! — a genuine, workload-induced millibottleneck — and the whole CTQO
//! machinery follows: upstream queue fill, drops at the web tier, VLRT
//! requests. The detector finds the saturation without being told where
//! the stall is.

use ntier_repro::core::analysis::detect_millibottlenecks_default;
use ntier_repro::core::engine::{Engine, Workload};
use ntier_repro::core::{presets, RunReport};
use ntier_repro::des::prelude::*;
use ntier_repro::workload::{BurstSchedule, Mmpp2, PoissonProcess, RequestMix};

fn run_with_arrivals(arrivals: Vec<SimTime>, seed: u64) -> RunReport {
    Engine::new(
        presets::sync_three_tier(),
        Workload::open(arrivals, RequestMix::view_story()),
        SimDuration::from_secs(30),
        seed,
    )
    .run()
}

#[test]
fn scheduled_burst_creates_a_millibottleneck_and_ctqo() {
    // Steady 800 req/s plus a batch of 700 at t=10 s: the app tier
    // (≈1333 req/s capacity) saturates while chewing the batch; the web
    // tier overflows 278 and drops.
    let mut rng = SimRng::seed_from(3);
    let mut arrivals = PoissonProcess::new(800.0).arrivals(SimDuration::from_secs(25), &mut rng);
    arrivals.extend(
        BurstSchedule::from_bursts([(SimTime::from_secs(10), 700)])
            .with_spread(SimDuration::from_millis(50))
            .arrivals(),
    );
    arrivals.sort();
    let report = run_with_arrivals(arrivals, 3);
    assert!(report.tiers[0].drops_total > 0, "{}", report.summary());
    assert!(report.vlrt_total > 0);
    // the detector sees an app-tier millibottleneck with nothing injected
    let found = detect_millibottlenecks_default(&report);
    assert!(
        found.iter().any(|m| m.tier == 1),
        "app-tier saturation not detected: {found:?}"
    );
    assert!(report.has_mode_near(3), "{:?}", report.latency_modes());
}

#[test]
fn mmpp_burstiness_alone_can_trigger_drops() {
    // Same mean rate, two burstiness levels: the bursty process drops, the
    // Poisson process at the same mean does not.
    let horizon = SimDuration::from_secs(25);
    let mut rng = SimRng::seed_from(11);
    let poisson = PoissonProcess::new(900.0).arrivals(horizon, &mut rng);
    let calm = run_with_arrivals(poisson, 11);
    assert_eq!(calm.drops_total, 0, "{}", calm.summary());

    // bursts at 4x the app tier's capacity for ~0.5 s every ~8 s
    let mut rng = SimRng::seed_from(11);
    let mut bursty_proc = Mmpp2::new(650.0, 5_500.0, 8.0, 0.5);
    let bursty_arrivals = bursty_proc.arrivals(horizon, &mut rng);
    let bursty = run_with_arrivals(bursty_arrivals, 11);
    assert!(bursty.drops_total > 0, "{}", bursty.summary());
    assert!(bursty.vlrt_total > 0);
}

#[test]
fn async_chain_absorbs_workload_bursts_too() {
    let mut rng = SimRng::seed_from(5);
    let mut arrivals = PoissonProcess::new(800.0).arrivals(SimDuration::from_secs(25), &mut rng);
    arrivals.extend(
        BurstSchedule::from_bursts([(SimTime::from_secs(10), 700)])
            .with_spread(SimDuration::from_millis(50))
            .arrivals(),
    );
    arrivals.sort();
    let report = Engine::new(
        presets::nx3(),
        Workload::open(arrivals, RequestMix::view_story()),
        SimDuration::from_secs(30),
        5,
    )
    .run();
    assert_eq!(report.drops_total, 0, "{}", report.summary());
    assert_eq!(report.vlrt_total, 0);
}
