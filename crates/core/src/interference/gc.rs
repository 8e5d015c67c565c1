//! JVM garbage-collection pauses as millibottlenecks.
//!
//! The millibottleneck study the paper builds on ("Lightning in the
//! cloud", TRIOS'14 — the paper's \[32\]) traced a large share of VLRT
//! requests to Java GC: minor collections pause the JVM for tens of
//! milliseconds at a high rate, and major (full) collections pause it for
//! hundreds of milliseconds at a low rate — exactly millibottleneck-shaped.
//! [`GcModel`] generates that pause schedule for an app-server tier.

use ntier_des::dist::Distribution;
use ntier_des::rng::SimRng;
use ntier_des::time::{SimDuration, SimTime};

use crate::interference::stall::StallSchedule;

/// A two-generation GC pause model.
#[derive(Debug)]
pub struct GcModel {
    minor_gap: Box<dyn Distribution>,
    minor_pause: Box<dyn Distribution>,
    major_gap: Box<dyn Distribution>,
    major_pause: Box<dyn Distribution>,
}

impl GcModel {
    /// Builds a model from gap/pause distributions for minor and major
    /// collections (all in seconds).
    pub(crate) fn new(
        minor_gap: Box<dyn Distribution>,
        minor_pause: Box<dyn Distribution>,
        major_gap: Box<dyn Distribution>,
        major_pause: Box<dyn Distribution>,
    ) -> Self {
        GcModel {
            minor_gap,
            minor_pause,
            major_gap,
            major_pause,
        }
    }

    /// A throughput-collector profile in the spirit of \[32\]'s measurements:
    /// minor GCs every ~4 s pausing ~30 ms, full GCs every ~120 s pausing
    /// ~400 ms (the CTQO trigger).
    pub fn throughput_collector() -> Self {
        use ntier_des::dist::{Exponential, LogNormal};
        GcModel::new(
            Box::new(Exponential::with_mean(4.0)),
            Box::new(LogNormal::with_mean(0.030, 0.3)),
            Box::new(Exponential::with_mean(120.0)),
            Box::new(LogNormal::with_mean(0.400, 0.2)),
        )
    }

    /// Generates the pause schedule over `[0, horizon)`.
    pub fn schedule(&self, horizon: SimDuration, rng: &mut SimRng) -> StallSchedule {
        let mut intervals = Vec::new();
        for (gap, pause) in [
            (&self.minor_gap, &self.minor_pause),
            (&self.major_gap, &self.major_pause),
        ] {
            let mut t = SimTime::ZERO;
            let end = SimTime::ZERO + horizon;
            loop {
                t += gap.sample(rng);
                if t >= end {
                    break;
                }
                let p = pause.sample(rng);
                intervals.push((t, t + p));
                t += p;
            }
        }
        StallSchedule::from_intervals(intervals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_collector_produces_minor_and_major_pauses() {
        let gc = GcModel::throughput_collector();
        let mut rng = SimRng::seed_from(41);
        let schedule = gc.schedule(SimDuration::from_secs(1_800), &mut rng);
        let pauses: Vec<SimDuration> = schedule.intervals().iter().map(|(s, e)| *e - *s).collect();
        // ~450 minor + ~15 major over 30 minutes
        assert!(pauses.len() > 300, "{} pauses", pauses.len());
        let majors = pauses
            .iter()
            .filter(|p| **p >= SimDuration::from_millis(250))
            .count();
        assert!((5..=30).contains(&majors), "{majors} major pauses");
        let minors = pauses
            .iter()
            .filter(|p| **p < SimDuration::from_millis(100))
            .count();
        assert!(minors > 300, "{minors} minor pauses");
    }

    #[test]
    fn schedule_is_seed_deterministic() {
        let gc = GcModel::throughput_collector();
        let a = gc.schedule(SimDuration::from_secs(100), &mut SimRng::seed_from(1));
        let b = gc.schedule(SimDuration::from_secs(100), &mut SimRng::seed_from(1));
        assert_eq!(a, b);
    }

    #[test]
    fn pause_time_fraction_is_small() {
        // A healthy collector spends a few percent of wall time paused.
        let gc = GcModel::throughput_collector();
        let mut rng = SimRng::seed_from(9);
        let schedule = gc.schedule(SimDuration::from_secs(600), &mut rng);
        let frac = schedule.total_stall().as_secs_f64() / 600.0;
        assert!((0.002..0.05).contains(&frac), "GC fraction {frac}");
    }
}
