//! Ready-made experiment specifications for every figure in the paper.
//!
//! Each `figN_*` function returns an [`ExperimentSpec`] wired exactly like
//! the corresponding experiment: the same server ladder (NX=0..3), the same
//! millibottleneck source and timing marks, and a workload calibrated to the
//! paper's throughput/utilization operating points (see DESIGN.md §6).
//! [`claims`] pairs each figure's claims with the preset that backs them;
//! the claims test asserts them and EXPERIMENTS.md embeds their table.

use crate::interference::{Colocation, LogFlush, StallSchedule};
use crate::server::ThreadOverheadModel;
use ntier_des::prelude::*;
use ntier_workload::{ClosedLoopSpec, RequestMix};

use crate::config::{SystemConfig, TierSpec};
use crate::engine::{Engine, Workload};
use crate::presets;
use crate::report::RunReport;
use crate::topology::{Balancer, Branch, Topology};

mod claims;
pub use claims::{claims, Band, Claim, Measured, Preset, Source, Unit};

/// Warm-up offset applied to every millibottleneck mark: closed-loop
/// clients ramp in over one think time (~7 s), so stalls are scheduled
/// `WARMUP` after t=0 and figure timelines subtract it when rendering.
pub const WARMUP: SimDuration = SimDuration::from_secs(10);

fn rubbos_workload(clients: u32) -> Workload {
    // Ramp = mean think time: the ramp arrival rate N/Z equals the steady
    // rate, so there is no startup overload transient.
    Workload::closed(ClosedLoopSpec::rubbos(clients), RequestMix::rubbos_browse())
}

/// A fully specified, runnable experiment.
#[derive(Debug)]
pub struct ExperimentSpec {
    /// Experiment identifier ("fig1a", "fig3", ...).
    pub name: &'static str,
    /// The system under test.
    pub system: SystemConfig,
    /// The workload.
    pub workload: Workload,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Seed (same seed ⇒ identical report).
    pub seed: u64,
}

impl ExperimentSpec {
    /// Runs the experiment.
    pub fn run(self) -> RunReport {
        Engine::new(self.system, self.workload, self.horizon, self.seed).run()
    }
}

/// Millibottleneck trains for the Fig. 1 endurance runs: clusters of 2–3
/// bursts spaced ~3 s apart (the spacing Fig. 3's own marks show — bursts at
/// 2 and 5 s), each stalling the app tier for 600 ms, with clusters arriving
/// every ~30 s. The ~3 s spacing is what aligns retry windows with later
/// bursts and produces the 6 s and 9 s latency modes.
fn fig1_stall_train(horizon: SimDuration, seed: u64) -> StallSchedule {
    let mut rng = SimRng::seed_from(seed).fork("fig1-stalls");
    let mut marks = Vec::new();
    let mut t = SimTime::ZERO + WARMUP + SimDuration::from_secs(5);
    let end = SimTime::ZERO + horizon;
    while t < end {
        let bursts = 2 + rng.below(2); // 2..=3 bursts per cluster
        for b in 0..bursts {
            marks.push(t + SimDuration::from_secs(3) * b);
        }
        // next cluster 25–40 s later
        t += SimDuration::from_millis(25_000 + rng.below(15_000));
    }
    StallSchedule::at_marks(marks, SimDuration::from_millis(600))
}

/// Fig. 1(a–c): the fully synchronous system at WL 4000 / 7000 / 8000 with
/// recurring CPU millibottlenecks in Tomcat. `clients` selects the panel.
pub fn fig1(clients: u32, horizon: SimDuration, seed: u64) -> ExperimentSpec {
    let mut system = presets::sync_three_tier();
    system.tiers[1] = system.tiers[1]
        .clone()
        .with_stalls(fig1_stall_train(horizon, seed));
    ExperimentSpec {
        name: "fig1",
        system,
        workload: Workload::Closed {
            spec: ClosedLoopSpec::rubbos(clients),
            mix: RequestMix::rubbos_browse(),
        },
        horizon,
        seed,
    }
}

/// The tracing showcase: Fig. 1's WL 4000 operating point (~43% app-tier
/// utilization, recurring Tomcat millibottlenecks) with per-request causal
/// tracing enabled. Every VLRT/failed/shed request's span tree is retained
/// (plus 1% of fast ones for context), ready for [`ntier_trace::RootCause`]
/// attribution and Chrome-trace export — the micro-level evidence behind
/// the paper's Fig. 2 timestamp analysis, reproduced per request.
pub fn trace_vlrt(seed: u64) -> ExperimentSpec {
    use ntier_trace::TraceConfig;
    let horizon = SimDuration::from_secs(60);
    let mut spec = fig1(4_000, horizon, seed);
    spec.name = "trace-vlrt";
    spec.system = spec
        .system
        .with_trace(TraceConfig::sampled(0.01).with_ring_capacity(32_768));
    spec
}

/// Fig. 3: upstream CTQO from VM-consolidation CPU millibottlenecks in
/// Tomcat, burst marks at 2/5/9/15 s (SysBursty batches of ~530 requests ≈
/// 400 ms of stolen CPU), WL 7000, 20 s timeline.
pub fn fig3(seed: u64) -> ExperimentSpec {
    let hog = Colocation::new(530, SimDuration::from_micros(755)); // ≈400 ms
    let stalls = hog.at_marks([12u64, 15, 19, 25].map(SimTime::from_secs)); // 2/5/9/15 + WARMUP
    let mut system = presets::sync_three_tier();
    system.tiers[1] = system.tiers[1].clone().with_stalls(stalls);
    ExperimentSpec {
        name: "fig3",
        system,
        workload: rubbos_workload(7_000),
        horizon: SimDuration::from_secs(30),
        seed,
    }
}

/// Fig. 5: upstream CTQO from I/O (log-flush) millibottlenecks in MySQL
/// every 30 s; Tomcat scaled to 4 cores; 80 s timeline.
pub fn fig5(seed: u64) -> ExperimentSpec {
    let mut system = presets::sync_three_tier();
    system.tiers[1] = system.tiers[1].clone().with_cores(4);
    system.tiers[2] = system.tiers[2].clone().with_stalls(
        LogFlush::new(
            SimTime::ZERO + WARMUP + SimDuration::from_secs(10),
            SimDuration::from_secs(30),
            SimDuration::from_millis(350),
        )
        .schedule(SimDuration::from_secs(90)),
    );
    ExperimentSpec {
        name: "fig5",
        system,
        workload: rubbos_workload(7_000),
        horizon: SimDuration::from_secs(90),
        seed,
    }
}

/// Fig. 7: NX=1 (Nginx–Tomcat–MySQL) with CPU millibottlenecks in Tomcat at
/// 7/26/42/57 s — downstream CTQO at Tomcat itself.
pub fn fig7(seed: u64) -> ExperimentSpec {
    let stalls = StallSchedule::at_marks(
        [17u64, 36, 52, 67].map(SimTime::from_secs), // 7/26/42/57 + WARMUP
        SimDuration::from_millis(400),
    );
    let mut system = presets::nx1();
    system.tiers[1] = system.tiers[1].clone().with_stalls(stalls);
    ExperimentSpec {
        name: "fig7",
        system,
        workload: rubbos_workload(7_000),
        horizon: SimDuration::from_secs(70),
        seed,
    }
}

/// §V-B's second case: NX=1 with millibottlenecks in MySQL — upstream CTQO
/// at Tomcat (pool-mediated), Tomcat drops. The paper describes this case in
/// text (graphs omitted for space).
pub fn nx1_mysql_stall(seed: u64) -> ExperimentSpec {
    let stalls = StallSchedule::at_marks(
        [18u64, 33, 48, 63].map(SimTime::from_secs),
        SimDuration::from_millis(450),
    );
    let mut system = presets::nx1();
    system.tiers[2] = system.tiers[2].clone().with_stalls(stalls);
    ExperimentSpec {
        name: "nx1-mysql-stall",
        system,
        workload: rubbos_workload(7_000),
        horizon: SimDuration::from_secs(70),
        seed,
    }
}

/// Fig. 8: NX=2 (Nginx–XTomcat–MySQL) with millibottlenecks in MySQL at
/// 6/21/39/57 s — downstream CTQO at MySQL.
pub fn fig8(seed: u64) -> ExperimentSpec {
    let stalls = StallSchedule::at_marks(
        [16u64, 31, 49, 67].map(SimTime::from_secs), // 6/21/39/57 + WARMUP
        SimDuration::from_millis(400),
    );
    let mut system = presets::nx2();
    system.tiers[2] = system.tiers[2].clone().with_stalls(stalls);
    ExperimentSpec {
        name: "fig8",
        system,
        workload: rubbos_workload(7_000),
        horizon: SimDuration::from_secs(70),
        seed,
    }
}

/// Fig. 9: NX=2 with millibottlenecks in XTomcat at 8/24/39 s — the
/// post-stall batch floods MySQL: downstream CTQO at MySQL.
pub fn fig9(seed: u64) -> ExperimentSpec {
    let stalls = StallSchedule::at_marks(
        [18u64, 34, 49].map(SimTime::from_secs), // 8/24/39 + WARMUP
        SimDuration::from_millis(400),
    );
    let mut system = presets::nx2();
    system.tiers[1] = system.tiers[1].clone().with_stalls(stalls);
    ExperimentSpec {
        name: "fig9",
        system,
        workload: rubbos_workload(7_000),
        horizon: SimDuration::from_secs(60),
        seed,
    }
}

/// Fig. 10: NX=3 (Nginx–XTomcat–XMySQL) with CPU millibottlenecks in
/// XTomcat at 4/13/35 s — no CTQO, no drops.
pub fn fig10(seed: u64) -> ExperimentSpec {
    let stalls = StallSchedule::at_marks(
        [14u64, 23, 45].map(SimTime::from_secs), // 4/13/35 + WARMUP
        SimDuration::from_millis(400),
    );
    let mut system = presets::nx3();
    system.tiers[1] = system.tiers[1].clone().with_stalls(stalls);
    ExperimentSpec {
        name: "fig10",
        system,
        workload: rubbos_workload(7_000),
        horizon: SimDuration::from_secs(60),
        seed,
    }
}

/// Fig. 11: NX=3 with I/O (log-flush) millibottlenecks in XMySQL every 30 s
/// — all tiers buffer in lightweight queues, no drops.
pub fn fig11(seed: u64) -> ExperimentSpec {
    let mut system = presets::nx3();
    system.tiers[2] = system.tiers[2].clone().with_stalls(
        LogFlush::new(
            SimTime::ZERO + WARMUP + SimDuration::from_secs(13),
            SimDuration::from_secs(30),
            SimDuration::from_millis(350),
        )
        .schedule(SimDuration::from_secs(90)),
    );
    ExperimentSpec {
        name: "fig11",
        system,
        workload: rubbos_workload(7_000),
        horizon: SimDuration::from_secs(90),
        seed,
    }
}

/// §V's evaluation arc as one grid: rung `nx` of the NX=0..3 ladder
/// ([`presets::with_nx`]) with two 1.6 s millibottlenecks at tier
/// `stall_tier` (1 = app, 2 = db), 32 s at WL 2000. Scaled down from the
/// figures' WL 7000 so a debug build runs it fast, with stalls long enough
/// to cross every `MaxSysQDepth`: 286 req/s × 1.6 s ≈ 457 arrivals > 428 ≥
/// 293 ≥ 278 ≥ 228.
pub fn nx_ladder(nx: usize, stall_tier: usize, seed: u64) -> ExperimentSpec {
    let stall = StallSchedule::at_marks(
        [12u64, 24].map(SimTime::from_secs),
        SimDuration::from_millis(1_600),
    );
    let mut system = presets::with_nx(nx);
    system.tiers[stall_tier] = system.tiers[stall_tier].clone().with_stalls(stall);
    ExperimentSpec {
        name: "nx-ladder",
        system,
        workload: rubbos_workload(2_000),
        horizon: SimDuration::from_secs(32),
        seed,
    }
}

/// Fig. 12, synchronous arm: the "RPC purist" fix — 2000-thread pools — at
/// the given workload concurrency. Thread-management overhead (context
/// switching + GC) is applied at the app tier.
pub fn fig12_sync(concurrency: u32, seed: u64) -> ExperimentSpec {
    let system = Topology::three_tier(
        TierSpec::sync("Apache-2000", 2_000, 128),
        TierSpec::sync("Tomcat-2000", 2_000, 128)
            .with_downstream_pool(2_000)
            .with_overhead(ThreadOverheadModel::java_server_2000_threads()),
        TierSpec::sync("MySQL-2000", 2_000, 128),
    );
    ExperimentSpec {
        name: "fig12-sync",
        system,
        workload: fig12_workload(concurrency),
        horizon: SimDuration::from_secs(20),
        seed,
    }
}

/// Fig. 12, asynchronous arm: NX=3 at the given workload concurrency.
pub fn fig12_async(concurrency: u32, seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        name: "fig12-async",
        system: presets::nx3(),
        workload: fig12_workload(concurrency),
        horizon: SimDuration::from_secs(20),
        seed,
    }
}

fn fig12_workload(concurrency: u32) -> Workload {
    // Closed loop with negligible think time: the number of clients *is*
    // the workload concurrency.
    Workload::Closed {
        spec: ClosedLoopSpec::new(concurrency, Box::new(Point::new(0.0001)))
            .with_ramp(SimDuration::from_millis(100)),
        mix: RequestMix::view_story(),
    }
}

/// The Fig. 12 sweep points from the paper.
pub const FIG12_CONCURRENCIES: [u32; 5] = [100, 200, 400, 800, 1_600];

/// The full Fig. 12 grid — sync and async arms interleaved per concurrency
/// level — as one submission list for the parallel runner. Index `2i` is
/// the sync arm and `2i + 1` the async arm of `FIG12_CONCURRENCIES[i]`.
pub fn fig12_grid(seed: u64) -> Vec<ExperimentSpec> {
    FIG12_CONCURRENCIES
        .into_iter()
        .flat_map(|c| [fig12_sync(c, seed), fig12_async(c, seed)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_stall_train_is_deterministic_and_clustered() {
        let h = SimDuration::from_secs(120);
        let a = fig1_stall_train(h, 9);
        let b = fig1_stall_train(h, 9);
        assert_eq!(a, b);
        assert!(a.intervals().len() >= 8, "{} stalls", a.intervals().len());
        // consecutive bursts inside a cluster are 3 s apart
        let starts: Vec<SimTime> = a.intervals().iter().map(|(s, _)| *s).collect();
        let has_3s_gap = starts
            .windows(2)
            .any(|w| w[1] - w[0] == SimDuration::from_secs(3));
        assert!(has_3s_gap);
    }

    #[test]
    fn specs_build_with_expected_shapes() {
        assert_eq!(fig3(1).system.stalled_tier(), Some(1));
        assert_eq!(fig5(1).system.stalled_tier(), Some(2));
        assert_eq!(fig5(1).system.tiers[1].cores, 4);
        assert_eq!(fig7(1).system.nx(), 1);
        assert_eq!(fig8(1).system.nx(), 2);
        assert_eq!(fig9(1).system.stalled_tier(), Some(1));
        assert_eq!(fig10(1).system.nx(), 3);
        assert_eq!(fig11(1).system.nx(), 3);
        assert_eq!(fig12_sync(100, 1).system.nx(), 0);
        assert!(fig12_async(100, 1).system.is_fully_async());
    }
}

/// Which caller-policy arm of the [`retry_storm`] experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryStormVariant {
    /// No client policy: drops ride the kernel retransmit schedule only.
    Baseline,
    /// Aggressive attempt timeout with eager, unmetered retries and no
    /// breaker — the anti-pattern that amplifies CTQO.
    Naive,
    /// The same timeout and retry bound, but metered by a token-bucket
    /// retry budget, protected by a circuit breaker, and with deadline
    /// shedding at the web tier.
    Hardened,
}

/// **Extension (not in the paper):** retry storms vs. retry budgets under
/// millibottlenecks.
///
/// A synchronous 3-tier chain with a *deep* web backlog takes two 1.5 s
/// millibottlenecks at the app tier under an open-loop load at ~75% of
/// capacity. The deep backlog means congestion shows up as queueing delay
/// rather than drops — and queueing delay is exactly what duplicate
/// attempts inflate. The three arms differ only in the client's caller
/// policy:
///
/// * [`RetryStormVariant::Baseline`] — no client policy. The queue from
///   each stall drains before latency reaches the 3 s VLRT threshold:
///   **zero VLRT**.
/// * [`RetryStormVariant::Naive`] — a 2 s attempt timeout with 4 eager,
///   unmetered retries and no breaker. With no [`CancelPolicy`] configured
///   (none of these arms sets one), timed-out attempts are *orphaned*: they
///   keep consuming capacity while their replacements re-enter the queue,
///   so the same stalls now push completions past 3 s — the VLRT tail is
///   entirely self-inflicted retry amplification. Setting a `CancelPolicy`
///   routes each timeout through the cancellation path instead, reaping
///   the abandoned attempt wherever it sits; [`hedging_frontier`] measures
///   that difference.
///
/// [`CancelPolicy`]: crate::resilience::CancelPolicy
/// * [`RetryStormVariant::Hardened`] — the same timeout and retry bound,
///   but retries spend from a token-bucket budget, a breaker trips after
///   consecutive failures (failing fast instead of amplifying), and the
///   web tier sheds requests that outlived a 10 s deadline. The VLRT
///   fraction falls back to (near) the baseline's, at the cost of
///   explicitly failed/shed requests.
pub fn retry_storm(variant: RetryStormVariant, seed: u64) -> ExperimentSpec {
    use crate::resilience::{BreakerConfig, CallerPolicy, RetryBudget, RetryPolicy, ShedPolicy};
    let stall = StallSchedule::at_marks(
        [SimTime::from_secs(2), SimTime::from_secs(6)],
        SimDuration::from_millis(1_500),
    );
    // A deep web backlog keeps the congestion in the queue (no drops, no
    // kernel RTO): latency tracks queue length, which is exactly what
    // orphaned attempts and duplicate retries inflate.
    let web = TierSpec::sync("Web", 64, 16_384);
    let app = TierSpec::sync("App", 64, 64).with_stalls(stall);
    let db = TierSpec::sync("Db", 64, 64);
    let web = match variant {
        RetryStormVariant::Baseline => web,
        RetryStormVariant::Naive => {
            web.with_caller_policy(CallerPolicy::naive(SimDuration::from_secs(2), 4))
        }
        RetryStormVariant::Hardened => web
            .with_caller_policy(CallerPolicy::hardened(
                SimDuration::from_secs(2),
                RetryPolicy::capped(4, SimDuration::from_millis(100), SimDuration::from_secs(1))
                    .with_jitter(0.2),
                RetryBudget::new(10.0, 1.0),
                BreakerConfig::new(8, SimDuration::from_secs(1)),
            ))
            .with_shed_policy(ShedPolicy::on_deadline(SimDuration::from_secs(10))),
    };
    let system = Topology::three_tier(web, app, db);
    // 1000 req/s open-loop for 8 s — ~75% of the app tier's ~1.3k req/s
    // capacity, so the extra load from orphaned attempts and eager retries
    // is what tips the system into sustained overload. The horizon leaves
    // room for the +3/6/9 s retransmit tail to complete.
    let arrivals: Vec<SimTime> = (0..8_000u64)
        .map(|i| SimTime::from_micros(i * 1_000))
        .collect();
    ExperimentSpec {
        name: "ext-retry-storm",
        system,
        workload: Workload::open(arrivals, RequestMix::view_story()),
        horizon: SimDuration::from_secs(25),
        seed,
    }
}

/// Which caller-policy arm of the [`hedging_frontier`] experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HedgingVariant {
    /// No client policy: drops ride the kernel 3 s retransmit schedule, so
    /// every stall mints 3 s (and, when a retransmit lands inside the next
    /// stall, 6 s) latency modes.
    Baseline,
    /// The PR-1 hardened *sequential* stack: 2 s attempt timeout, budgeted
    /// capped retries, circuit breaker, 10 s deadline shedding. Abandoned
    /// attempts are orphaned (no cancellation).
    Hardened,
    /// Budgeted hedging with cancellation propagation: a backup attempt
    /// fires 1.1 s into each unresolved logical request (at most 2, each
    /// spending from a caller-wide token bucket), and the moment one
    /// attempt wins — or the 12 s deadline passes — a cancel chases every
    /// losing attempt down the chain and reaps it.
    HedgedCancelling,
    /// [`HedgingVariant::HedgedCancelling`] plus an AIMD adaptive
    /// concurrency limit on web admission: instead of a fixed backlog
    /// bound, the admission threshold follows observed residence time, so
    /// overload turns into fast sheds rather than deep queues.
    HedgedCancellingAimd,
    /// The replication anti-pattern: eager 400 ms hedges, K = 3, no budget,
    /// no cancellation. Fine at low utilization; at high load the duplicate
    /// attempts multiply effective arrival rate and the orphaned losers
    /// never give their capacity back (Poloczek & Ciucu's flip).
    HedgedNoCancel,
}

/// Operating point for [`hedging_frontier`]: which open-loop arrival rate
/// drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HedgingLoad {
    /// ~571 req/s — the Fig. 1 WL 4000 operating point (~43% app-tier
    /// utilization), where stalls cause drops but the system has headroom.
    Moderate,
    /// ~1149 req/s — ~88% of app-tier capacity, where duplicate attempts
    /// are enough to tip the system into sustained overload.
    High,
}

impl HedgingLoad {
    /// Open-loop inter-arrival gap.
    fn interarrival_us(self) -> u64 {
        match self {
            HedgingLoad::Moderate => 1_750,
            HedgingLoad::High => 870,
        }
    }
}

/// Shared plant for the hedging-frontier arms: a *shallow* web backlog
/// (64 threads + 16 slots) so each 1.8 s app stall overflows into drops,
/// and dropped attempts ride the kernel 3 s RTO — the raw material of the
/// paper's 3/6/9 s modes.
fn hedging_spec(web: TierSpec, load: HedgingLoad, seed: u64) -> ExperimentSpec {
    // Two 1.8 s stalls, 3.5 s apart: a 2 s sequential attempt timeout from
    // late in stall 1 retries straight into stall 2, while a hedge fired in
    // the inter-stall gap completes immediately — and the gap is just wide
    // enough for the gap-landing hedge burst to drain before stall 2.
    let stall = StallSchedule::at_marks(
        [SimTime::from_secs(2), SimTime::from_millis(5_500)],
        SimDuration::from_millis(1_800),
    );
    let app = TierSpec::sync("App", 64, 64).with_stalls(stall);
    let db = TierSpec::sync("Db", 64, 64);
    let system = Topology::three_tier(web, app, db);
    let step = load.interarrival_us();
    let arrivals: Vec<SimTime> = (0..8_000_000 / step)
        .map(|i| SimTime::from_micros(i * step))
        .collect();
    ExperimentSpec {
        name: "ext-hedging-frontier",
        system,
        workload: Workload::open(arrivals, RequestMix::view_story()),
        horizon: SimDuration::from_secs(25),
        seed,
    }
}

/// **Extension (not in the paper):** the hedging frontier — where backup
/// requests erase the VLRT modes, and where they recreate the overload they
/// were meant to route around.
///
/// Unlike [`retry_storm`]'s deep backlog, this plant gives the web tier
/// only 16 backlog slots, so each 2.5 s app stall overflows admission and
/// arrivals *drop*. The paper's mechanism then takes over: dropped attempts
/// sit in kernel RTO limbo and return 3 s (or 6 s, across two stalls)
/// later — the VLRT modes of Fig. 1.
///
/// * At [`HedgingLoad::Moderate`] (the Fig. 1 ~43% operating point) a
///   hedged caller short-circuits the RTO wait: the 1.1 s backup lands
///   after the stall has cleared and completes in milliseconds, so the
///   logical request finishes in ~1–3 s instead of 3–6 s and the VLRT modes
///   vanish. Cancellation then reaps the RTO-limbo loser *before* its
///   retransmit fires — `wasted_work_saved` counts exactly those reclaimed
///   attempts — so the post-stall convoy is not inflated by zombie
///   retransmissions the way [`HedgingVariant::Hardened`]'s orphans
///   inflate it.
/// * At [`HedgingLoad::High`] (~88%) the same trick flips:
///   [`HedgingVariant::HedgedNoCancel`] multiplies the effective arrival
///   rate by up to 1 + K with nothing reclaiming the losers, pushing the
///   system into sustained overload — p99 *rises* well above the
///   budgeted + cancelling arm at the same load (Poloczek & Ciucu's
///   replication flip). The hedge budget bounds the duplicate rate and
///   cancellation returns loser capacity, which is what keeps
///   [`HedgingVariant::HedgedCancelling`] stable there.
pub fn hedging_frontier(variant: HedgingVariant, load: HedgingLoad, seed: u64) -> ExperimentSpec {
    use crate::resilience::{
        AimdConfig, BreakerConfig, CallerPolicy, CancelPolicy, HedgePolicy, RetryBudget,
        RetryPolicy, ShedPolicy,
    };
    let deadline = SimDuration::from_secs(12);
    let cancel = CancelPolicy::new(SimDuration::from_micros(50));
    // Caller-wide hedge budget: deep enough for the ~2k backups a stall
    // burst wants at the moderate point, while the 500/s refill caps the
    // *sustained* hedge rate under overload.
    let budget = RetryBudget::new(4_000.0, 500.0);
    let hedged = CallerPolicy::hedged(
        deadline,
        HedgePolicy::fixed(SimDuration::from_millis(1_100), 2).with_budget(budget),
    )
    .with_cancel(cancel);
    let web = TierSpec::sync("Web", 64, 16);
    let web = match variant {
        HedgingVariant::Baseline => web,
        // The same CallerPolicy::hardened stack PR 1's retry-storm arm
        // uses, with the budget and breaker scaled to this plant's drop
        // bursts (hundreds of simultaneous timeouts per stall) so retries
        // actually run instead of starving — the strongest sequential
        // opponent the hedged arms can be compared against.
        HedgingVariant::Hardened => web
            .with_caller_policy(CallerPolicy::hardened(
                SimDuration::from_secs(2),
                RetryPolicy::capped(4, SimDuration::from_millis(100), SimDuration::from_secs(1))
                    .with_jitter(0.2),
                RetryBudget::new(2_048.0, 256.0),
                BreakerConfig::new(64, SimDuration::from_secs(1)),
            ))
            .with_shed_policy(ShedPolicy::on_deadline(SimDuration::from_secs(10))),
        HedgingVariant::HedgedCancelling => web.with_caller_policy(hedged),
        HedgingVariant::HedgedCancellingAimd => web
            .with_caller_policy(hedged)
            .with_shed_policy(ShedPolicy::adaptive(AimdConfig::new(64.0, 8.0, 512.0))),
        HedgingVariant::HedgedNoCancel => web.with_caller_policy(CallerPolicy::hedged(
            deadline,
            HedgePolicy::fixed(SimDuration::from_millis(400), 3),
        )),
    };
    hedging_spec(web, load, seed)
}

/// One point of the hedge-delay × K × load frontier: budgeted, cancelling
/// hedging with the given backup `delay` and per-request bound
/// `max_hedges`, on the same plant as [`hedging_frontier`].
fn hedging_frontier_point(
    delay: crate::resilience::HedgeDelay,
    max_hedges: u32,
    load: HedgingLoad,
    seed: u64,
) -> ExperimentSpec {
    use crate::resilience::{CallerPolicy, CancelPolicy, HedgePolicy, RetryBudget};
    let hedge = HedgePolicy {
        delay,
        max_hedges,
        budget: Some(RetryBudget::new(4_000.0, 500.0)),
    };
    let web = TierSpec::sync("Web", 64, 16).with_caller_policy(
        CallerPolicy::hedged(SimDuration::from_secs(12), hedge)
            .with_cancel(CancelPolicy::new(SimDuration::from_micros(50))),
    );
    hedging_spec(web, load, seed)
}

/// The sweep grid behind the frontier table in EXPERIMENTS.md: three hedge
/// delays (eager fixed, patient fixed, p95-adaptive) × K ∈ {1, 2} × both
/// load points — 12 specs, shaped for `ntier_runner::run_all`.
pub fn hedging_frontier_sweep(seed: u64) -> Vec<ExperimentSpec> {
    use crate::resilience::HedgeDelay;
    let delays = [
        HedgeDelay::Fixed(SimDuration::from_millis(300)),
        HedgeDelay::Fixed(SimDuration::from_millis(1_100)),
        HedgeDelay::Quantile {
            q: 0.95,
            floor: SimDuration::from_millis(300),
            cap: SimDuration::from_secs(2),
        },
    ];
    let mut specs = Vec::with_capacity(delays.len() * 2 * 2);
    for delay in delays {
        for max_hedges in [1u32, 2] {
            for load in [HedgingLoad::Moderate, HedgingLoad::High] {
                specs.push(hedging_frontier_point(delay, max_hedges, load, seed));
            }
        }
    }
    specs
}

/// **Extension (not in the paper):** CTQO at arbitrary chain depth.
///
/// Builds a depth-`n` synchronous chain of identical small tiers
/// (`threads + backlog` = 24 + 8), stalls the *last* tier, and drives it
/// with an open-loop pipeline workload. The paper studies n = 3; this
/// experiment shows the push-back propagating through any number of RPC
/// hops: the drop site is always tier 0. Setting `async_front` converts
/// tier 0 into an event-driven server, which absorbs the same backlog.
///
/// # Panics
///
/// Panics if `depth < 2`.
pub fn chain_depth(depth: usize, async_front: bool, seed: u64) -> ExperimentSpec {
    use crate::plan::Plan;
    assert!(depth >= 2, "a chain experiment needs at least two tiers");
    let stall = StallSchedule::at_marks(
        [SimTime::from_secs(2), SimTime::from_secs(6)],
        SimDuration::from_millis(700),
    );
    let mut tiers: Vec<TierSpec> = (0..depth)
        .map(|i| TierSpec::sync(format!("T{i}"), 24, 8))
        .collect();
    if async_front {
        tiers[0] = TierSpec::asynchronous("T0", 65_535, 4);
    }
    let last = depth - 1;
    tiers[last] = tiers[last].clone().with_stalls(stall);
    let system = Topology::chain(tiers);
    // 100 req/s of depth-n pipeline requests with 0.2 ms per tier.
    let plan = Plan::pipeline(&vec![SimDuration::from_micros(200); depth]);
    let arrivals: Vec<(SimTime, Plan)> = (0..1_000u64)
        .map(|i| (SimTime::from_millis(i * 10), plan.clone()))
        .collect();
    ExperimentSpec {
        name: "ext-chain-depth",
        system,
        workload: Workload::open_plans(arrivals),
        horizon: SimDuration::from_secs(15),
        seed,
    }
}

/// **Extension (not in the paper):** the replication ladder — Fig. 1's
/// WL 4000 operating point with the app tier split into `replicas`
/// identical Tomcat instances behind `balancer`.
///
/// Total capacity is held at the Fig. 1 operating point: each instance gets
/// `150/replicas` threads, `128/replicas` backlog slots and `50/replicas`
/// JDBC connections (rounded down, floored at 1), so the *set* has the same
/// `MaxSysQDepth` as the unreplicated Tomcat up to integer-division
/// remainders. Replica 0 alone carries the Fig. 1 millibottleneck
/// train — one sick instance behind an otherwise healthy set. Per-request
/// tracing is sampled like [`trace_vlrt`], so [`ntier_trace::RootCause`]
/// can name the hot replica in the VLRT chains.
///
/// With `replicas = 1` this is exactly Fig. 1 (replica-0 stall override ≡
/// tier stall schedule; a 1-instance set consumes no balancer randomness),
/// which the golden-seed determinism tests pin.
///
/// # Panics
///
/// Panics if `replicas` is 0 or exceeds Tomcat's 150 threads (an instance
/// needs at least one worker).
pub fn replication_ladder(replicas: usize, balancer: Balancer, seed: u64) -> ExperimentSpec {
    use ntier_trace::TraceConfig;
    assert!(
        (1..=150).contains(&replicas),
        "replica count {replicas} must leave every Tomcat instance at least one of its 150 threads"
    );
    let horizon = SimDuration::from_secs(60);
    let mut system = presets::sync_three_tier();
    system.tiers[1] = TierSpec::sync("Tomcat", 150 / replicas, (128 / replicas).max(1))
        .with_downstream_pool((50 / replicas).max(1))
        .replicas(replicas)
        .balancer(balancer)
        .with_replica_stalls(0, fig1_stall_train(horizon, seed));
    ExperimentSpec {
        name: "replication-ladder",
        system: system.with_trace(TraceConfig::sampled(0.01).with_ring_capacity(32_768)),
        workload: rubbos_workload(4_000),
        horizon,
        seed,
    }
}

/// Which control-plane arm of the [`control_frontier`] experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlVariant {
    /// No controller: the naive retry client's amplification of each stall's
    /// drop burst goes unchecked — the open-loop baseline every other arm is
    /// measured against.
    Uncontrolled,
    /// The damping controller: a fast autoscaler (150 ms provisioning lag)
    /// dilutes the sick replica's round-robin share while the overload
    /// governor brakes web admission the moment goodput collapses or the
    /// retransmit ladder starts climbing.
    Damped,
    /// The harmful controller: scale-down-happy thresholds drain the healthy
    /// replica during the pre-stall calm, and a 2.5 s provisioning lag means
    /// the panic scale-up arrives *into* the retry flood its own drain
    /// caused — the metastable retry-storm regime.
    Amplified,
    /// Policy auto-tuning on a hedged, cancelling caller: the hedge delay
    /// follows the recent p95 and the web AIMD bounds tighten when recent
    /// p99 crosses 2 s — closed-loop versions of the PR-4 static policies.
    Tuned,
}

impl ControlVariant {
    /// Stable label for tables and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            ControlVariant::Uncontrolled => "uncontrolled",
            ControlVariant::Damped => "damped",
            ControlVariant::Amplified => "amplified",
            ControlVariant::Tuned => "tuned",
        }
    }

    /// All four arms, in table order.
    pub const ALL: [ControlVariant; 4] = [
        ControlVariant::Uncontrolled,
        ControlVariant::Damped,
        ControlVariant::Amplified,
        ControlVariant::Tuned,
    ];
}

/// **Extension (not in the paper):** the control frontier — where a
/// closed-loop controller damps CTQO below the uncontrolled baseline, and
/// where the *same actuators* with the wrong set-points manufacture the
/// metastable failure they exist to prevent.
///
/// The plant is [`hedging_frontier`]'s moderate operating point (~571 req/s,
/// the Fig. 1 ~43% utilization) with the app tier split into a 2-replica
/// round-robin set (2 × 32 threads + 32 backlog ≡ the unreplicated 64 + 64)
/// and the two 1.8 s millibottlenecks pinned to replica 0 — one sick
/// instance behind a healthy peer. The web tier keeps the shallow 16-slot
/// backlog, so congestion overflows into SYN drops and the kernel 3/6/9 s
/// ladder, and (except [`ControlVariant::Tuned`]) the client runs the
/// PR-1 naive retry policy — the storm fuel. Tracing is sampled like
/// [`trace_vlrt`], and controller decisions land in the same log, so
/// [`ntier_trace::RootCause::analyze_with_actions`] can place scale-ups,
/// drains and brakes on each VLRT request's causal chain.
///
/// * [`ControlVariant::Damped`] must put VLRT *strictly below* the
///   uncontrolled baseline: scale-ups dilute the sick replica's share of
///   fresh arrivals within ~200 ms of the stall, and the governor's
///   admission brake converts would-be 3 s RTO victims into fast sheds.
/// * [`ControlVariant::Amplified`] shows the flip: by the time the stall
///   hits, its drain has concentrated *all* traffic on the sick replica, the
///   naive retries re-drop and climb the retransmit ladder, and replacement
///   capacity is still in its 2.5 s provisioning pipe.
pub fn control_frontier(variant: ControlVariant, seed: u64) -> ExperimentSpec {
    use crate::control::{
        AimdTuner, AutoscalerConfig, ControlConfig, GovernorConfig, HedgeTuner, TunerConfig,
    };
    use crate::resilience::{
        AimdConfig, CallerPolicy, CancelPolicy, HedgePolicy, RetryBudget, ShedPolicy,
    };
    use ntier_trace::TraceConfig;
    let stall = StallSchedule::at_marks(
        [SimTime::from_secs(2), SimTime::from_millis(5_500)],
        SimDuration::from_millis(1_800),
    );
    let web = TierSpec::sync("Web", 64, 16);
    let web = match variant {
        // The tuner needs knobs to turn: a budgeted cancelling hedger (its
        // fire delay is the hedge tuner's actuator) and an AIMD admission
        // limit (its bounds are the aimd tuner's actuator).
        ControlVariant::Tuned => web
            .with_caller_policy(
                CallerPolicy::hedged(
                    SimDuration::from_secs(12),
                    HedgePolicy::fixed(SimDuration::from_millis(1_100), 2)
                        .with_budget(RetryBudget::new(4_000.0, 500.0)),
                )
                .with_cancel(CancelPolicy::new(SimDuration::from_micros(50))),
            )
            .with_shed_policy(ShedPolicy::adaptive(AimdConfig::new(64.0, 8.0, 512.0))),
        _ => web.with_caller_policy(CallerPolicy::naive(SimDuration::from_secs(2), 4)),
    };
    let app = TierSpec::sync("App", 32, 32)
        .replicas(2)
        .balancer(Balancer::RoundRobin)
        .with_replica_stalls(0, stall);
    let db = TierSpec::sync("Db", 64, 64);
    let system = Topology::three_tier(web, app, db)
        .with_trace(TraceConfig::sampled(0.01).with_ring_capacity(32_768));
    let system = match variant {
        ControlVariant::Uncontrolled => system,
        ControlVariant::Damped => system.with_control(
            ControlConfig::every(SimDuration::from_millis(50))
                .with_autoscaler(AutoscalerConfig {
                    tier: 1,
                    min_replicas: 2,
                    max_replicas: 4,
                    up_depth: 8.0,
                    down_depth: 0.5,
                    provisioning_lag: SimDuration::from_millis(150),
                    cooldown: SimDuration::from_millis(250),
                })
                .with_governor(GovernorConfig {
                    min_offered: 40,
                    goodput_ratio: 0.5,
                    ordinal_floor: 2,
                    arm_after: 2,
                    brake_tier: 0,
                    brake_depth: 48,
                    hold: SimDuration::from_secs(1),
                    release_ratio: 0.7,
                }),
        ),
        // down_depth 4.0 sits *above* the calm-traffic depth, so the drain
        // fires in the first cooldown-free window; up_depth 48 only trips
        // once the lone survivor is already wedged, and by then the new
        // capacity is 2.5 s away.
        ControlVariant::Amplified => system.with_control(
            ControlConfig::every(SimDuration::from_millis(50)).with_autoscaler(AutoscalerConfig {
                tier: 1,
                min_replicas: 1,
                max_replicas: 4,
                up_depth: 48.0,
                down_depth: 4.0,
                provisioning_lag: SimDuration::from_millis(2_500),
                cooldown: SimDuration::from_millis(200),
            }),
        ),
        ControlVariant::Tuned => system.with_control(
            ControlConfig::every(SimDuration::from_millis(50)).with_tuner(TunerConfig {
                // Floor at 1 s, not lower: recent quantiles are survivor-
                // biased during a stall (the stuck requests aren't
                // completing, so p95 stays low), and an eager floor would
                // hedge straight into the storm.
                hedge: Some(HedgeTuner {
                    q: 0.95,
                    floor: SimDuration::from_secs(1),
                    cap: SimDuration::from_secs(2),
                }),
                aimd: Some(AimdTuner {
                    tier: 0,
                    low: SimDuration::from_millis(500),
                    high: SimDuration::from_secs(3),
                    tight: (16.0, 96.0),
                    wide: (8.0, 512.0),
                }),
            }),
        ),
    };
    // ~571 req/s open-loop for 8 s (the Fig. 1 WL 4000 point); the horizon
    // leaves room for the 3/6/9 s retransmit tail and the naive retries.
    let arrivals: Vec<SimTime> = (0..8_000_000 / 1_750u64)
        .map(|i| SimTime::from_micros(i * 1_750))
        .collect();
    ExperimentSpec {
        name: "ext-control-frontier",
        system,
        workload: Workload::open(arrivals, RequestMix::view_story()),
        horizon: SimDuration::from_secs(25),
        seed,
    }
}

/// All four control-frontier arms for one seed, shaped for
/// `ntier_runner::run_all` and the EXPERIMENTS.md frontier table.
pub fn control_frontier_sweep(seed: u64) -> Vec<ExperimentSpec> {
    ControlVariant::ALL
        .into_iter()
        .map(|v| control_frontier(v, seed))
        .collect()
}

/// Which arm of the [`detection_frontier`] experiment to run. The four arms
/// span the sweep's axes — ejection threshold (none / 1.0 / none / 0.3),
/// probation (— / 2 s / — / 4 s) and load (~571 vs ~870 req/s) — and pair
/// into the two regimes the frontier demonstrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionVariant {
    /// Gray-degraded replica at moderate load, no detector: the balancer
    /// keeps feeding the slow instance, its backlog overflows, and the
    /// 3/6/9 s ladder mints VLRT — the baseline the tuned arm must beat.
    Undetected,
    /// The same gray plant with [`crate::resilience::HealthPolicy::monitor`]
    /// defaults: the
    /// sick replica's latency/error score crosses 1.0 with peer agreement,
    /// ejection reroutes fresh picks to the healthy peer, and probation
    /// reinstates the replica once its envelope recovers.
    Tuned,
    /// High load, *no* fault, no detector: the clean baseline the
    /// hair-trigger arm is measured against.
    CleanHot,
    /// High load, *no* fault, hair-trigger policy (threshold 0.3 against a
    /// 3 ms latency reference, 4 s probation): ordinary ~2 ms queueing
    /// residence reads as sickness, log-normal variance between two
    /// equally loaded replicas clears the weak peer gate, a healthy
    /// replica is falsely ejected, and the survivor — now oversubscribed —
    /// drops, ladders and feeds the naive retry client. Detection
    /// manufactures the storm it exists to prevent.
    HairTrigger,
}

impl DetectionVariant {
    /// Stable label for tables and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            DetectionVariant::Undetected => "undetected",
            DetectionVariant::Tuned => "tuned",
            DetectionVariant::CleanHot => "clean-hot",
            DetectionVariant::HairTrigger => "hair-trigger",
        }
    }

    /// All four arms, in table order.
    pub const ALL: [DetectionVariant; 4] = [
        DetectionVariant::Undetected,
        DetectionVariant::Tuned,
        DetectionVariant::CleanHot,
        DetectionVariant::HairTrigger,
    ];
}

/// **Extension (not in the paper):** the detection frontier — where
/// gray-failure ejection suppresses the very-long-response-time tail, and
/// where the *same detector* with a hair-trigger threshold under load
/// manufactures the tail by falsely ejecting healthy capacity.
///
/// The plant is [`control_frontier`]'s 2-replica round-robin app tier
/// behind the shallow-backlog web tier and the PR-1 naive retry client,
/// driven by the multi-class [`RequestMix::rubbos_browse`] browse mix
/// (log-normal demands give passive health scoring real replica-to-replica
/// spread to measure — and to mis-measure). The app backlog is deepened to
/// 128 so a wedged replica's residence climbs past the detector's 1 s
/// latency reference *before* overflow drops begin — latent, then loud.
/// The sick instance is *gray*, not stalled: a
/// [`crate::resilience::FaultPlan::gray_degradation`] envelope ramps
/// App#0's service time to 10× nominal over 0.5 s, holds the plateau for
/// 6 s and recovers — the replica keeps answering, just slowly (capacity
/// ≈ 110 req/s against ~240 offered), so nothing but passive
/// latency/error/phi evidence distinguishes it from its peer. Tracing is
/// sampled and health verdicts land in the control log, so
/// [`ntier_trace::RootCause::analyze_with_actions`] places each
/// `eject(t1#0)`/`reinstate(t1#0)` on the causal chain of every VLRT
/// request it bounded (or caused).
///
/// * [`DetectionVariant::Tuned`] must put VLRT *strictly below*
///   [`DetectionVariant::Undetected`]: the wedged replica's residence and
///   drop EWMAs push its score past the default 1.0 threshold within a few
///   ticks of the plateau, fresh picks drain to the healthy peer (~43 %
///   utilized), and trickle probes reinstate the replica after its
///   envelope recovers.
/// * [`DetectionVariant::HairTrigger`] must put VLRT *above*
///   [`DetectionVariant::CleanHot`]: with no fault present at all, the
///   0.3 threshold against a 3 ms reference reads ordinary ~2 ms queueing
///   residence as sickness, log-normal variance clears the weak peer
///   gate, and dropping one of two replicas at ~54 % utilization leaves
///   the survivor ~107 % subscribed — the retry-storm recipe of
///   `retry_storm` all over again, i.e. false-ejection amplification.
pub fn detection_frontier(variant: DetectionVariant, seed: u64) -> ExperimentSpec {
    use crate::resilience::{CallerPolicy, FaultPlan, GrayEnvelope, HealthPolicy};
    use ntier_trace::TraceConfig;
    let web = TierSpec::sync("Web", 64, 16)
        .with_caller_policy(CallerPolicy::naive(SimDuration::from_secs(2), 4));
    let app = TierSpec::sync("App", 32, 128)
        .replicas(2)
        .balancer(Balancer::RoundRobin);
    let db = TierSpec::sync("Db", 64, 64);
    let horizon = SimDuration::from_secs(25);
    let system = Topology::three_tier(web, app, db)
        .with_trace(TraceConfig::sampled(0.01).with_ring_capacity(32_768));
    let system = match variant {
        DetectionVariant::Undetected | DetectionVariant::Tuned => {
            // App#0 turns gray at t=2 s: ramp to 10× service time over
            // 0.5 s, 6 s plateau, 0.5 s recovery.
            let plan = FaultPlan::none()
                .gray_degradation(
                    1,
                    0,
                    SimTime::from_secs(2),
                    GrayEnvelope::new(
                        SimDuration::from_millis(500),
                        SimDuration::from_secs(6),
                        SimDuration::from_millis(500),
                        10.0,
                    ),
                )
                .expect("a single gray envelope is a valid plan");
            plan.validate(horizon).expect("envelope fits the horizon");
            system.with_faults(plan)
        }
        DetectionVariant::CleanHot | DetectionVariant::HairTrigger => system,
    };
    let system = match variant {
        DetectionVariant::Undetected | DetectionVariant::CleanHot => system,
        DetectionVariant::Tuned => system.with_health(HealthPolicy::monitor(1)),
        DetectionVariant::HairTrigger => {
            let mut hair = HealthPolicy::monitor(1)
                .with_eject_score(0.3)
                .with_probation(SimDuration::from_secs(4));
            // A 3 ms latency reference barely above the plant's ~2 ms
            // queueing residence reads health as near-sickness
            // everywhere, and the weak peer-agreement gate lets
            // log-normal service variance between two equally loaded
            // replicas clear the z-score.
            hair.lat_ref = SimDuration::from_millis(3);
            hair.eject_z = 0.2;
            hair.warmup_replies = 4;
            system.with_health(hair)
        }
    };
    // Moderate arms run the control-frontier operating point (~571 req/s,
    // ~21 % per-replica app utilization — but ~2.2× the sick replica's
    // plateau capacity); the hot arms push ~1 430 req/s (~54 %), where
    // losing a replica leaves the survivor oversubscribed. 12 s of
    // arrivals leave post-recovery traffic for the probation probes, and
    // the horizon leaves room for the 3/6/9 s retransmit tail.
    let gap_us = match variant {
        DetectionVariant::Undetected | DetectionVariant::Tuned => 1_750u64,
        DetectionVariant::CleanHot | DetectionVariant::HairTrigger => 700,
    };
    let arrivals: Vec<SimTime> = (0..12_000_000 / gap_us)
        .map(|i| SimTime::from_micros(i * gap_us))
        .collect();
    ExperimentSpec {
        name: "ext-detection-frontier",
        system,
        workload: Workload::open(arrivals, RequestMix::rubbos_browse()),
        horizon,
        seed,
    }
}

/// All four detection-frontier arms for one seed, shaped for
/// `ntier_runner::run_all` and the EXPERIMENTS.md frontier table.
pub fn detection_frontier_sweep(seed: u64) -> Vec<ExperimentSpec> {
    DetectionVariant::ALL
        .into_iter()
        .map(|v| detection_frontier(v, seed))
        .collect()
}

/// **Extension (not in the paper):** scatter-gather fan-out. A synchronous
/// front tier scatters every request to three shard subtrees and replies
/// once a 2-of-3 quorum answers; shard 0 is additionally a 2-replica set
/// behind least-outstanding, and shard 1 runs a recurring millibottleneck.
/// Under quorum 2 the stalled shard's 3 s retransmit ladders are absorbed
/// by the two healthy arms — the fan-out analogue of the paper's NX
/// conversion — while quorum 3 (set `system.shape.quorum[0] = 3`) re-exposes
/// them.
pub fn replicated_fanout(seed: u64) -> ExperimentSpec {
    use crate::plan::Plan;
    let stall = StallSchedule::at_marks(
        [SimTime::from_secs(2), SimTime::from_secs(6)],
        SimDuration::from_millis(700),
    );
    let system = Topology::client()
        .tier(TierSpec::sync("Front", 64, 32))
        .fanout(
            2,
            vec![
                Branch::tier(
                    TierSpec::sync("Shard0", 12, 4)
                        .replicas(2)
                        .balancer(Balancer::LeastOutstanding),
                ),
                Branch::tier(TierSpec::sync("Shard1", 24, 8).with_stalls(stall)),
                Branch::tier(TierSpec::sync("Shard2", 24, 8)),
            ],
        )
        .build()
        .expect("static fan-out topology is valid");
    // 100 req/s of tree-pipeline requests, 0.2 ms per node.
    let plan = Plan::tree_pipeline(&system.shape, &[SimDuration::from_micros(200); 4]);
    let arrivals: Vec<(SimTime, Plan)> = (0..1_000u64)
        .map(|i| (SimTime::from_millis(i * 10), plan.share()))
        .collect();
    ExperimentSpec {
        name: "ext-replicated-fanout",
        system,
        workload: Workload::open_plans(arrivals),
        horizon: SimDuration::from_secs(15),
        seed,
    }
}

/// Which caller-policy arm of the [`trace_replay`] experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceReplayArm {
    /// No client policy: the trace's submission surges overflow the app
    /// tier's `MaxSysQDepth`, drops ride the kernel 3/6/9 s retransmit
    /// ladder, and CTQO episodes appear even though average utilization
    /// over the hour is modest.
    Baseline,
    /// The hardened caller stack from [`retry_storm`]: a 2 s attempt
    /// timeout with budgeted capped retries, a circuit breaker that fails
    /// fast while the surge drains, and a 10 s deadline shed. Requests
    /// caught in a surge fail quickly instead of minting multi-second
    /// retransmit latencies.
    Hardened,
}

impl TraceReplayArm {
    /// Stable label used in report names and CI output.
    pub fn label(self) -> &'static str {
        match self {
            TraceReplayArm::Baseline => "baseline",
            TraceReplayArm::Hardened => "hardened",
        }
    }
}

/// The bundled one-hour Alibaba-dialect cluster-trace fixture:
/// `fixtures/alibaba_1h.csv`, ~720 batch tasks plus three submission
/// surges, expanding to just over one million task instances.
pub const TRACE_REPLAY_FIXTURE: &str = include_str!("../../../fixtures/alibaba_1h.csv");

/// Replays the bundled one-hour cluster trace ([`TRACE_REPLAY_FIXTURE`])
/// through the synchronous three-tier system, streaming arrivals from the
/// CSV so memory stays proportional to the number of *active* requests
/// rather than the trace length.
///
/// Each task instance becomes one request:
/// [`TraceDemandModel::paper_default`](crate::arrivals::TraceDemandModel::paper_default)
/// scales the paper's 3-tier demand vector by the task's normalized CPU
/// request. The trace averages ~290 instances/s — about 25% of the app
/// tier's capacity — but carries three 2 s submission surges at roughly
/// 4 000 instances/s each. Under [`TraceReplayArm::Baseline`] those surges
/// overflow the app tier's queue (threads + backlog = 128), dropped packets
/// retransmit on the 3/6/9 s ladder, and the CTQO detector flags episodes;
/// [`TraceReplayArm::Hardened`] converts them into fast failures.
pub fn trace_replay(arm: TraceReplayArm, seed: u64) -> ExperimentSpec {
    trace_replay_csv(TRACE_REPLAY_FIXTURE, arm, seed)
}

/// [`trace_replay`] over a caller-supplied Alibaba-dialect CSV. The rows
/// must be sorted by start time; a malformed row truncates the run and
/// surfaces in [`RunReport::workload_fault`] instead of panicking.
pub fn trace_replay_csv(csv: &'static str, arm: TraceReplayArm, seed: u64) -> ExperimentSpec {
    use crate::arrivals::{TraceDemandModel, TracePlans};
    use crate::resilience::{BreakerConfig, CallerPolicy, RetryBudget, RetryPolicy, ShedPolicy};
    use ntier_workload::cluster_trace::{ClusterTraceReader, TraceArrivals, TraceDialect};

    let reader = ClusterTraceReader::new(std::io::Cursor::new(csv), TraceDialect::Alibaba);
    let source = TracePlans::new(
        TraceArrivals::new(reader),
        TraceDemandModel::paper_default(),
    );

    let web = TierSpec::sync("Web", 64, 128);
    let web = match arm {
        TraceReplayArm::Baseline => web,
        TraceReplayArm::Hardened => web
            .with_caller_policy(CallerPolicy::hardened(
                SimDuration::from_secs(2),
                RetryPolicy::capped(4, SimDuration::from_millis(100), SimDuration::from_secs(1))
                    .with_jitter(0.2),
                RetryBudget::new(10.0, 1.0),
                BreakerConfig::new(8, SimDuration::from_secs(1)),
            ))
            .with_shed_policy(ShedPolicy::on_deadline(SimDuration::from_secs(10))),
    };
    let app = TierSpec::sync("App", 64, 64);
    let db = TierSpec::sync("Db", 64, 64);
    let system = Topology::three_tier(web, app, db);
    let name = match arm {
        TraceReplayArm::Baseline => "ext-trace-replay-baseline",
        TraceReplayArm::Hardened => "ext-trace-replay-hardened",
    };
    ExperimentSpec {
        name,
        // One hour of trace time plus room for the retransmit tail of the
        // final surge to complete.
        horizon: SimDuration::from_secs(3_640),
        system,
        workload: Workload::from_source(source),
        seed,
    }
}
