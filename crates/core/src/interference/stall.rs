//! Explicit stall schedules — the common interchange format.

use ntier_des::time::{SimDuration, SimTime, MONITOR_WINDOW};

/// A list of CPU stall intervals, the common currency between interference
/// generators and the server model's `StallTimeline`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StallSchedule {
    intervals: Vec<(SimTime, SimTime)>,
}

impl StallSchedule {
    /// No stalls.
    pub fn none() -> Self {
        StallSchedule::default()
    }

    /// Builds from explicit `(start, end)` intervals (sorted internally;
    /// empty intervals discarded).
    pub fn from_intervals(intervals: impl IntoIterator<Item = (SimTime, SimTime)>) -> Self {
        let mut intervals: Vec<(SimTime, SimTime)> =
            intervals.into_iter().filter(|(s, e)| e > s).collect();
        intervals.sort();
        StallSchedule { intervals }
    }

    /// Equal-length stalls starting at each mark.
    pub fn at_marks(marks: impl IntoIterator<Item = SimTime>, duration: SimDuration) -> Self {
        StallSchedule::from_intervals(marks.into_iter().map(|t| (t, t + duration)))
    }

    /// Periodic stalls: `duration` every `period` starting at `first`,
    /// through `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub(crate) fn periodic(
        first: SimTime,
        period: SimDuration,
        duration: SimDuration,
        horizon: SimDuration,
    ) -> Self {
        assert!(!period.is_zero(), "period must be non-zero");
        let mut marks = Vec::new();
        let mut t = first;
        let end = SimTime::ZERO + horizon;
        while t < end {
            marks.push(t);
            t += period;
        }
        StallSchedule::at_marks(marks, duration)
    }

    /// Merges two schedules (union of stall time).
    #[cfg(test)]
    fn merge(&self, other: &StallSchedule) -> StallSchedule {
        StallSchedule::from_intervals(self.intervals.iter().chain(other.intervals.iter()).copied())
    }

    /// The stall intervals, sorted by start.
    pub(crate) fn intervals(&self) -> &[(SimTime, SimTime)] {
        &self.intervals
    }

    /// Total stalled time (overlaps counted once is *not* guaranteed here;
    /// merging happens in `StallTimeline` — this is the raw sum).
    #[cfg(test)]
    pub(crate) fn total_stall(&self) -> SimDuration {
        self.intervals
            .iter()
            .fold(SimDuration::ZERO, |acc, (s, e)| acc + (*e - *s))
    }

    /// `true` when there are no stalls.
    pub(crate) fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The per-[`MONITOR_WINDOW`] CPU utilization an observer would
    /// attribute to the *interfering* work (100 % during stalls) — the
    /// pink/black hog lines in Figs. 3(a), 7(a), 8(a).
    ///
    /// A non-empty schedule yields one value per window of `horizon` (at
    /// least one); an empty schedule yields no windows at all, since every
    /// one of them would read 0.
    pub(crate) fn interferer_utilization(&self, horizon: SimDuration) -> Vec<f64> {
        if self.is_empty() {
            return Vec::new();
        }
        let window = MONITOR_WINDOW;
        let n = (horizon.as_micros() / window.as_micros()) as usize;
        // Busy µs per window, summed straight into the output vector: every
        // partial sum is an integer below 2^53, so the f64 sums are exact and
        // the scaled result matches an integer accumulator bit for bit.
        let mut util = vec![0.0f64; n.max(1)];
        for (s, e) in &self.intervals {
            let mut cursor = s.as_micros();
            let end = e.as_micros().min(horizon.as_micros());
            while cursor < end {
                let idx = (cursor / window.as_micros()) as usize;
                if idx >= util.len() {
                    break;
                }
                let wend = (idx as u64 + 1) * window.as_micros();
                let slice = wend.min(end) - cursor;
                util[idx] += slice as f64;
                cursor = wend.min(end);
            }
        }
        let window_us = window.as_micros() as f64;
        for u in &mut util {
            *u /= window_us;
        }
        util
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fig3_marks_give_four_stalls() {
        // Fig. 3's millibottleneck marks: ~400 ms stalls at 2, 5, 9, 15 s.
        let s = StallSchedule::at_marks(
            [2, 5, 9, 15].map(SimTime::from_secs),
            SimDuration::from_millis(400),
        );
        assert_eq!(s.intervals().len(), 4);
    }

    fn s(v: u64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn periodic_covers_horizon() {
        let sch = StallSchedule::periodic(
            s(10),
            SimDuration::from_secs(30),
            SimDuration::from_millis(350),
            SimDuration::from_secs(80),
        );
        let starts: Vec<u64> = sch
            .intervals()
            .iter()
            .map(|(a, _)| a.as_millis() / 1_000)
            .collect();
        assert_eq!(starts, vec![10, 40, 70]);
        assert_eq!(sch.total_stall(), SimDuration::from_millis(1_050));
    }

    #[test]
    fn merge_unions_schedules() {
        let a = StallSchedule::at_marks([s(1)], SimDuration::from_millis(100));
        let b = StallSchedule::at_marks([s(2)], SimDuration::from_millis(100));
        let m = a.merge(&b);
        assert_eq!(m.intervals().len(), 2);
        assert!(m.intervals()[0].0 < m.intervals()[1].0);
    }

    #[test]
    fn interferer_utilization_is_one_during_stall() {
        let sch =
            StallSchedule::at_marks([SimTime::from_millis(100)], SimDuration::from_millis(100));
        let util = sch.interferer_utilization(SimDuration::from_millis(300));
        assert_eq!(util.len(), 6);
        assert_eq!(util[0], 0.0);
        assert_eq!(util[2], 1.0);
        assert_eq!(util[3], 1.0);
        assert_eq!(util[4], 0.0);
    }

    #[test]
    fn empty_schedule_yields_no_windows() {
        let util = StallSchedule::none().interferer_utilization(SimDuration::from_secs(60));
        assert!(util.is_empty());
        assert_eq!(util.capacity(), 0);
    }

    #[test]
    fn empty_intervals_are_discarded() {
        let sch = StallSchedule::from_intervals([(s(1), s(1))]);
        assert!(sch.is_empty());
        assert_eq!(StallSchedule::none().total_stall(), SimDuration::ZERO);
    }

    proptest! {
        /// Interferer utilization integrates back to total stall time when
        /// stalls are disjoint and inside the horizon.
        #[test]
        fn utilization_integrates_to_stall_time(starts in proptest::collection::vec(0u64..50, 1..8)) {
            let mut marks: Vec<u64> = starts.clone();
            marks.sort_unstable();
            marks.dedup();
            // space marks 200ms apart to guarantee disjoint 100ms stalls
            let sch = StallSchedule::at_marks(
                marks.iter().map(|m| SimTime::from_millis(m * 200)),
                SimDuration::from_millis(100),
            );
            let horizon = SimDuration::from_secs(20);
            let util = sch.interferer_utilization(horizon);
            prop_assert_eq!(util.len(), 400);
            let total: f64 = util.iter().map(|u| u * 0.05).sum();
            prop_assert!((total - sch.total_stall().as_secs_f64()).abs() < 1e-9);
        }
    }
}
