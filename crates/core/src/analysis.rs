//! CTQO detection and classification.
//!
//! The paper names two propagation directions (§VI):
//!
//! * **upstream CTQO** — an *upstream* server drops packets because a
//!   *downstream* server is suffering a millibottleneck (Figs. 3, 5: Tomcat
//!   or MySQL stalls, Apache drops);
//! * **downstream CTQO** — a *downstream* server drops packets because an
//!   upstream (or interacting) server's millibottleneck redirects or batches
//!   load onto it (Figs. 7–9: the stalled tier itself, flooded by an async
//!   upstream, or the database flooded by a post-stall batch).
//!
//! [`detect`] recovers the episodes from a [`RunReport`]: contiguous windows
//! of drops at one tier, classified against the location of the stall.

use ntier_des::time::{SimDuration, SimTime, MONITOR_WINDOW};

use crate::config::SystemConfig;
use crate::report::RunReport;

/// The propagation direction of a CTQO episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtqoClass {
    /// Drops upstream of the stalled tier (push-back through RPC).
    Upstream,
    /// Drops at or downstream of the stalled tier (flood-through).
    Downstream,
    /// Drops with no single stalled tier to attribute to (e.g. plain
    /// overload bursts).
    Unattributed,
}

impl std::fmt::Display for CtqoClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtqoClass::Upstream => write!(f, "upstream CTQO"),
            CtqoClass::Downstream => write!(f, "downstream CTQO"),
            CtqoClass::Unattributed => write!(f, "unattributed drops"),
        }
    }
}

/// One contiguous run of drop windows at a single tier.
#[derive(Debug, Clone, PartialEq)]
pub struct CtqoEpisode {
    /// Tier where the packets dropped.
    pub drop_tier: usize,
    /// Tier whose millibottleneck the episode is attributed to, if any.
    pub stall_tier: Option<usize>,
    /// Start of the first drop window.
    pub start: SimTime,
    /// End of the last drop window.
    pub end: SimTime,
    /// Total packets dropped in the episode.
    pub drops: u64,
    /// Classification.
    pub class: CtqoClass,
}

/// Detects CTQO episodes in a run.
///
/// Drops at tier `d` are grouped into episodes (windows of drops separated
/// by less than `merge_gap`); each episode is classified against the
/// system's stalled tier: `d <` stalled tier ⇒ upstream CTQO, otherwise
/// downstream. Episodes in systems with zero or multiple stalled tiers are
/// `Unattributed`.
pub fn detect(
    report: &RunReport,
    system: &SystemConfig,
    merge_gap: SimDuration,
) -> Vec<CtqoEpisode> {
    let stall_tier = system.stalled_tier();
    let gap_windows = (merge_gap.as_micros() / MONITOR_WINDOW.as_micros()).max(1);
    let mut episodes = Vec::new();
    for (tier_idx, tier) in report.tiers.iter().enumerate() {
        let mut current: Option<CtqoEpisode> = None;
        let mut empty_run = 0u64;
        for (t, n) in tier.drops.iter() {
            if n > 0 {
                empty_run = 0;
                match &mut current {
                    Some(ep) => {
                        ep.end = t + MONITOR_WINDOW;
                        ep.drops += u64::from(n);
                    }
                    None => {
                        current = Some(CtqoEpisode {
                            drop_tier: tier_idx,
                            stall_tier,
                            start: t,
                            end: t + MONITOR_WINDOW,
                            drops: u64::from(n),
                            class: classify(tier_idx, stall_tier),
                        });
                    }
                }
            } else {
                empty_run += 1;
                if empty_run >= gap_windows {
                    if let Some(ep) = current.take() {
                        episodes.push(ep);
                    }
                }
            }
        }
        if let Some(ep) = current.take() {
            episodes.push(ep);
        }
    }
    episodes.sort_by_key(|e| e.start);
    episodes
}

fn classify(drop_tier: usize, stall_tier: Option<usize>) -> CtqoClass {
    match stall_tier {
        Some(s) if drop_tier < s => CtqoClass::Upstream,
        Some(_) => CtqoClass::Downstream,
        None => CtqoClass::Unattributed,
    }
}

/// Convenience: the total drops per class.
pub fn drops_by_class(episodes: &[CtqoEpisode]) -> (u64, u64, u64) {
    let mut up = 0;
    let mut down = 0;
    let mut other = 0;
    for e in episodes {
        match e.class {
            CtqoClass::Upstream => up += e.drops,
            CtqoClass::Downstream => down += e.drops,
            CtqoClass::Unattributed => other += e.drops,
        }
    }
    (up, down, other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TierSpec;
    use crate::engine::{Engine, Workload};
    use crate::interference::StallSchedule;
    use crate::topology::Topology;
    use ntier_workload::{BurstSchedule, RequestMix};

    fn run_with_stall(stall_tier: usize) -> (RunReport, SystemConfig) {
        let stall =
            StallSchedule::at_marks([SimTime::from_millis(200)], SimDuration::from_millis(600));
        let mut sys = Topology::three_tier(
            TierSpec::sync("Web", 4, 2),
            TierSpec::sync("App", 4, 2).with_downstream_pool(2),
            TierSpec::sync("Db", 4, 2),
        );
        sys.tiers[stall_tier] = sys.tiers[stall_tier].clone().with_stalls(stall);
        let arrivals: Vec<SimTime> = (0..300)
            .map(|i| SimTime::from_millis(100 + i * 2))
            .collect();
        let report = Engine::new(
            sys.clone(),
            Workload::open(arrivals, RequestMix::view_story()),
            SimDuration::from_secs(10),
            1,
        )
        .run();
        (report, sys)
    }

    #[test]
    fn app_stall_in_sync_system_classifies_upstream() {
        let (report, sys) = run_with_stall(1);
        let episodes = detect(&report, &sys, SimDuration::from_secs(1));
        assert!(!episodes.is_empty(), "{}", report.summary());
        let (up, down, other) = drops_by_class(&episodes);
        assert!(
            up > 0,
            "expected upstream drops: up={up} down={down} other={other}"
        );
        // all drops in the tiny sync system land at the web tier
        assert!(episodes.iter().all(|e| e.drop_tier == 0));
        assert!(episodes.iter().all(|e| e.class == CtqoClass::Upstream));
    }

    #[test]
    fn no_stall_classifies_unattributed() {
        let sys = Topology::three_tier(
            TierSpec::sync("Web", 2, 1),
            TierSpec::sync("App", 8, 8),
            TierSpec::sync("Db", 8, 8),
        );
        let burst = BurstSchedule::from_bursts([(SimTime::from_millis(10), 30)]);
        let report = Engine::new(
            sys.clone(),
            Workload::open(burst.arrivals(), RequestMix::view_story()),
            SimDuration::from_secs(8),
            1,
        )
        .run();
        let episodes = detect(&report, &sys, SimDuration::from_secs(1));
        assert!(!episodes.is_empty());
        assert!(episodes.iter().all(|e| e.class == CtqoClass::Unattributed));
    }

    #[test]
    fn episodes_merge_within_gap_and_split_beyond() {
        // Two stall marks 3 s apart should create separate episodes when
        // the merge gap is shorter than the quiet period.
        let stall = StallSchedule::at_marks(
            [SimTime::from_millis(200), SimTime::from_millis(3_200)],
            SimDuration::from_millis(600),
        );
        let mut sys = Topology::three_tier(
            TierSpec::sync("Web", 4, 2),
            TierSpec::sync("App", 4, 2).with_downstream_pool(2),
            TierSpec::sync("Db", 4, 2),
        );
        sys.tiers[1] = sys.tiers[1].clone().with_stalls(stall);
        let arrivals: Vec<SimTime> = (0..1900)
            .map(|i| SimTime::from_millis(100 + i * 2))
            .collect();
        let report = Engine::new(
            sys.clone(),
            Workload::open(arrivals, RequestMix::view_story()),
            SimDuration::from_secs(12),
            1,
        )
        .run();
        let split = detect(&report, &sys, SimDuration::from_millis(500));
        let merged = detect(&report, &sys, SimDuration::from_secs(30));
        assert!(split.len() >= 2, "{}", report.summary());
        assert_eq!(merged.len(), 1);
        let total_split: u64 = split.iter().map(|e| e.drops).sum();
        assert_eq!(total_split, merged[0].drops);
        assert_eq!(total_split, report.drops_total);
    }
}

/// A detected millibottleneck: a sub-second run of near-saturated windows
/// on one tier's (physical) CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct Millibottleneck {
    /// Tier whose CPU saturated.
    pub tier: usize,
    /// First saturated window.
    pub start: SimTime,
    /// End of the last saturated window.
    pub end: SimTime,
    /// Mean combined utilization across the episode.
    pub mean_util: f64,
}

impl Millibottleneck {
    /// Episode length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Detects millibottlenecks from the 50 ms utilization series: maximal runs
/// of windows with combined (own + interferer) utilization ≥ `min_util`
/// whose total length lies in `[min_duration, max_duration]` — sub-second
/// saturations, not persistent bottlenecks.
///
/// This is the detection side of the paper's micro-level event analysis
/// (and of the millibottleneck papers it builds on): visible at 50 ms
/// granularity, invisible to coarse monitoring (see
/// [`mean_util_at_granularity`]).
fn detect_millibottlenecks(
    report: &RunReport,
    min_util: f64,
    min_duration: SimDuration,
    max_duration: SimDuration,
) -> Vec<Millibottleneck> {
    let mut out = Vec::new();
    for (tier_idx, tier) in report.tiers.iter().enumerate() {
        let combined = tier.combined_util(report.horizon);
        let mut run_start: Option<usize> = None;
        let mut run_sum = 0.0;
        let flush = |out: &mut Vec<Millibottleneck>, start: usize, end: usize, sum: f64| {
            let dur = MONITOR_WINDOW * (end - start) as u64;
            if dur >= min_duration && dur <= max_duration {
                out.push(Millibottleneck {
                    tier: tier_idx,
                    start: SimTime::from_micros(start as u64 * MONITOR_WINDOW.as_micros()),
                    end: SimTime::from_micros(end as u64 * MONITOR_WINDOW.as_micros()),
                    mean_util: sum / (end - start) as f64,
                });
            }
        };
        for (w, u) in combined.iter().enumerate() {
            if *u >= min_util {
                if run_start.is_none() {
                    run_start = Some(w);
                    run_sum = 0.0;
                }
                run_sum += u;
            } else if let Some(s) = run_start.take() {
                flush(&mut out, s, w, run_sum);
            }
        }
        if let Some(s) = run_start.take() {
            flush(&mut out, s, combined.len(), run_sum);
        }
    }
    out.sort_by_key(|m| m.start);
    out
}

/// Paper-standard millibottleneck detection: ≥ 95 % utilization for
/// 100 ms – 2 s.
pub fn detect_millibottlenecks_default(report: &RunReport) -> Vec<Millibottleneck> {
    detect_millibottlenecks(
        report,
        0.95,
        SimDuration::from_millis(100),
        SimDuration::from_secs(2),
    )
}

/// Mean utilization of `tier` re-aggregated at a coarser monitoring
/// granularity — demonstrates why millibottlenecks evade ordinary
/// (second-level or coarser) monitoring: the per-interval means stay
/// moderate even while 50 ms windows saturate.
///
/// Returns the per-interval means.
///
/// # Panics
///
/// Panics if `granularity` is smaller than the 50 ms base window.
pub fn mean_util_at_granularity(
    report: &RunReport,
    tier: usize,
    granularity: SimDuration,
) -> Vec<f64> {
    assert!(
        granularity >= MONITOR_WINDOW,
        "granularity must be at least the base window"
    );
    let per = (granularity.as_micros() / MONITOR_WINDOW.as_micros()) as usize;
    let combined = report.tiers[tier].combined_util(report.horizon);
    combined
        .chunks(per)
        .map(|c| c.iter().sum::<f64>() / per as f64)
        .collect()
}

/// One full causal chain of the paper's §I sequence: a millibottleneck,
/// the tiers whose queues filled during it, and the drop episodes it
/// triggered.
#[derive(Debug, Clone)]
pub struct CausalChain {
    /// The originating millibottleneck.
    pub bottleneck: Millibottleneck,
    /// Tiers whose queue peaked at ≥ 90 % of capacity during the episode.
    pub saturated_queues: Vec<usize>,
    /// Drop episodes starting within the bottleneck (+ `slack`).
    pub episodes: Vec<CtqoEpisode>,
}

impl CausalChain {
    /// Total packets dropped along the chain.
    pub fn drops(&self) -> u64 {
        self.episodes.iter().map(|e| e.drops).sum()
    }
}

/// Reconstructs the causal chains of a run: for every detected
/// millibottleneck, the queue saturations and drop episodes within
/// `[start, end + slack]`.
pub fn causal_chains(
    report: &RunReport,
    system: &SystemConfig,
    slack: SimDuration,
) -> Vec<CausalChain> {
    let bottlenecks = detect_millibottlenecks_default(report);
    let episodes = detect(report, system, SimDuration::from_millis(500));
    bottlenecks
        .into_iter()
        .map(|b| {
            let lo = b.start;
            let hi = b.end + slack;
            let linked: Vec<CtqoEpisode> = episodes
                .iter()
                .filter(|e| e.start >= lo && e.start <= hi)
                .cloned()
                .collect();
            let w_lo = lo.window_index(MONITOR_WINDOW) as usize;
            let w_hi = hi.window_index(MONITOR_WINDOW) as usize;
            let saturated_queues = report
                .tiers
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    let cap = t.capacity as f64;
                    (w_lo..=w_hi).any(|w| f64::from(t.queue_depth.peak(w)) >= cap * 0.9)
                })
                .map(|(i, _)| i)
                .collect();
            CausalChain {
                bottleneck: b,
                saturated_queues,
                episodes: linked,
            }
        })
        .collect()
}
