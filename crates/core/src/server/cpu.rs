//! CPU model: FIFO cores with a stall timeline.
//!
//! Service demands in the reproduction are sub-millisecond, far below the
//! 50 ms observation window, so non-preemptive FIFO per core is
//! indistinguishable from processor sharing at the granularity the paper
//! measures. Millibottlenecks enter as *stall intervals* during which no
//! tier work progresses (the co-located VM or the flushing kernel owns the
//! core); the stall schedule is precomputed by the `interference` module, which
//! keeps the simulation deterministic and the model trivially testable.

use ntier_des::time::{SimDuration, SimTime};

/// A merged, sorted set of intervals during which the CPU is unavailable.
#[derive(Debug, Clone, Default)]
pub(crate) struct StallTimeline {
    /// Sorted, non-overlapping `(start_us, end_us)` pairs.
    intervals: Vec<(u64, u64)>,
}

impl StallTimeline {
    /// An empty timeline: the CPU is always available.
    #[cfg(test)]
    fn none() -> Self {
        StallTimeline::default()
    }

    /// Builds a timeline from arbitrary intervals (they are sorted and
    /// merged; empty intervals are discarded).
    pub(crate) fn from_intervals(intervals: impl IntoIterator<Item = (SimTime, SimTime)>) -> Self {
        let mut raw: Vec<(u64, u64)> = intervals
            .into_iter()
            .map(|(s, e)| (s.as_micros(), e.as_micros()))
            .filter(|(s, e)| e > s)
            .collect();
        raw.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(raw.len());
        for (s, e) in raw {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        StallTimeline { intervals: merged }
    }

    /// The stall intervals, as `SimTime` pairs.
    #[cfg(test)]
    fn intervals(&self) -> impl Iterator<Item = (SimTime, SimTime)> + '_ {
        self.intervals
            .iter()
            .map(|(s, e)| (SimTime::from_micros(*s), SimTime::from_micros(*e)))
    }

    /// Executes `demand` of work starting no earlier than `start`, skipping
    /// stalled intervals: invokes `segment` for each actual execution
    /// interval (in time order) and returns the completion time. The
    /// engine feeds the segments straight into utilization accounting.
    fn execute_with(
        &self,
        start: SimTime,
        demand: SimDuration,
        mut segment: impl FnMut(SimTime, SimTime),
    ) -> SimTime {
        let mut remaining = demand.as_micros();
        let mut cursor = start.as_micros();
        // Index of the first stall that could affect us.
        let mut i = self.intervals.partition_point(|(_, e)| *e <= cursor);
        if remaining == 0 {
            // Zero demand still cannot "complete" inside a stall.
            if let Some(&(s, e)) = self.intervals.get(i) {
                if cursor >= s {
                    cursor = e;
                }
            }
            return SimTime::from_micros(cursor);
        }
        while remaining > 0 {
            // If inside a stall, jump to its end.
            if let Some(&(s, e)) = self.intervals.get(i) {
                if cursor >= s {
                    cursor = e;
                    i += 1;
                    continue;
                }
                // Run until the stall starts or demand is exhausted.
                let run = remaining.min(s - cursor);
                if run > 0 {
                    segment(
                        SimTime::from_micros(cursor),
                        SimTime::from_micros(cursor + run),
                    );
                    cursor += run;
                    remaining -= run;
                }
                if remaining > 0 {
                    cursor = e;
                    i += 1;
                }
            } else {
                segment(
                    SimTime::from_micros(cursor),
                    SimTime::from_micros(cursor + remaining),
                );
                cursor += remaining;
                remaining = 0;
            }
        }
        SimTime::from_micros(cursor)
    }
}

/// A set of FIFO cores sharing one stall timeline.
#[derive(Debug, Clone)]
pub(crate) struct CpuModel {
    stalls: StallTimeline,
    core_free: Vec<SimTime>,
}

impl CpuModel {
    /// Creates a CPU with `cores` cores and the given stall timeline.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub(crate) fn new(cores: u32, stalls: StallTimeline) -> Self {
        assert!(cores > 0, "a CPU needs at least one core");
        CpuModel {
            stalls,
            core_free: vec![SimTime::ZERO; cores as usize],
        }
    }

    /// Number of cores.
    pub(crate) fn cores(&self) -> u32 {
        self.core_free.len() as u32
    }

    /// Submits one work item at `now` with the given demand: schedules it
    /// FIFO behind earlier submissions on the least-loaded core, reports
    /// each busy segment through `segment`, and returns the completion time.
    pub(crate) fn run_with(
        &mut self,
        now: SimTime,
        demand: SimDuration,
        segment: impl FnMut(SimTime, SimTime),
    ) -> SimTime {
        let core = self
            .core_free
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("at least one core");
        let start = self.core_free[core].max(now);
        let end = self.stalls.execute_with(start, demand, segment);
        self.core_free[core] = end;
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn one_core_runs_work_fifo() {
        let mut cpu = CpuModel::new(1, StallTimeline::none());
        let mut busy = SimDuration::ZERO;
        let a = cpu.run_with(SimTime::ZERO, SimDuration::from_millis(2), |s, e| {
            busy += e - s
        });
        let b = cpu.run_with(SimTime::ZERO, SimDuration::from_millis(2), |s, e| {
            busy += e - s
        });
        assert_eq!(a, SimTime::from_millis(2));
        assert_eq!(b, SimTime::from_millis(4)); // FIFO behind `a`
        assert_eq!(busy, SimDuration::from_millis(4));
    }

    /// The allocating reference the tests hold [`CpuModel::run_with`] to: one
    /// work item's execution, its busy segments collected into a `Vec`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Execution {
        /// When the item was handed to the core (may precede the first segment
        /// if the core was stalled).
        start: SimTime,
        /// Completion time.
        end: SimTime,
        /// Actual execution segments.
        segments: Vec<(SimTime, SimTime)>,
    }

    impl Execution {
        /// Total executed time across segments.
        fn busy_time(&self) -> SimDuration {
            self.segments
                .iter()
                .fold(SimDuration::ZERO, |acc, (s, e)| acc + (*e - *s))
        }
    }

    impl StallTimeline {
        /// [`StallTimeline::execute_with`] with the segments collected.
        fn execute(&self, start: SimTime, demand: SimDuration) -> Execution {
            let mut segments = Vec::new();
            let end = self.execute_with(start, demand, |s, e| segments.push((s, e)));
            Execution {
                start,
                end,
                segments,
            }
        }
    }

    impl CpuModel {
        /// [`CpuModel::run_with`] with the segments collected.
        fn run(&mut self, now: SimTime, demand: SimDuration) -> Execution {
            let core = self
                .core_free
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| **t)
                .map(|(i, _)| i)
                .expect("at least one core");
            let start = self.core_free[core].max(now);
            let exec = self.stalls.execute(start, demand);
            self.core_free[core] = exec.end;
            exec
        }
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn timeline_merges_overlaps() {
        let t = StallTimeline::from_intervals(vec![
            (ms(10), ms(20)),
            (ms(15), ms(30)),
            (ms(40), ms(50)),
            (ms(45), ms(45)), // empty, discarded
        ]);
        let iv: Vec<_> = t.intervals().collect();
        assert_eq!(iv, vec![(ms(10), ms(30)), (ms(40), ms(50))]);
    }

    #[test]
    fn execute_without_stalls_is_contiguous() {
        let t = StallTimeline::none();
        let e = t.execute(ms(5), dms(3));
        assert_eq!(e.end, ms(8));
        assert_eq!(e.segments, vec![(ms(5), ms(8))]);
        assert_eq!(e.busy_time(), dms(3));
    }

    #[test]
    fn execute_splits_around_stall() {
        let t = StallTimeline::from_intervals(vec![(ms(10), ms(400))]);
        // 4 ms of demand starting at 8 ms: runs 8-10, stalls 10-400, runs 400-402
        let e = t.execute(ms(8), dms(4));
        assert_eq!(e.end, ms(402));
        assert_eq!(e.segments, vec![(ms(8), ms(10)), (ms(400), ms(402))]);
        assert_eq!(e.busy_time(), dms(4));
    }

    #[test]
    fn execute_starting_inside_stall_waits() {
        let t = StallTimeline::from_intervals(vec![(ms(100), ms(500))]);
        let e = t.execute(ms(250), dms(1));
        assert_eq!(e.segments, vec![(ms(500), ms(501))]);
        assert_eq!(e.end, ms(501));
    }

    #[test]
    fn zero_demand_completes_after_stall() {
        let t = StallTimeline::from_intervals(vec![(ms(100), ms(200))]);
        let e = t.execute(ms(150), SimDuration::ZERO);
        assert_eq!(e.end, ms(200));
        assert!(e.segments.is_empty());
        let e2 = t.execute(ms(50), SimDuration::ZERO);
        assert_eq!(e2.end, ms(50));
    }

    #[test]
    fn execute_with_matches_execute() {
        let t = StallTimeline::from_intervals(vec![(ms(10), ms(400)), (ms(500), ms(600))]);
        for (start, demand) in [(0u64, 0u64), (8, 4), (150, 1), (0, 700), (650, 3)] {
            let e = t.execute(ms(start), dms(demand));
            let mut segs = Vec::new();
            let end = t.execute_with(ms(start), dms(demand), |s, en| segs.push((s, en)));
            assert_eq!(end, e.end, "start={start} demand={demand}");
            assert_eq!(segs, e.segments, "start={start} demand={demand}");
        }
    }

    #[test]
    fn run_with_matches_run() {
        let stalls = StallTimeline::from_intervals(vec![(ms(5), ms(9))]);
        let mut a = CpuModel::new(2, stalls.clone());
        let mut b = CpuModel::new(2, stalls);
        for (now, demand) in [(0u64, 2u64), (0, 3), (1, 4), (6, 1)] {
            let e = a.run(ms(now), dms(demand));
            let mut segs = Vec::new();
            let end = b.run_with(ms(now), dms(demand), |s, en| segs.push((s, en)));
            assert_eq!(end, e.end);
            assert_eq!(segs, e.segments);
        }
    }

    #[test]
    fn cpu_fifo_on_single_core() {
        let mut cpu = CpuModel::new(1, StallTimeline::none());
        let a = cpu.run(ms(0), dms(2));
        let b = cpu.run(ms(0), dms(2));
        let c = cpu.run(ms(1), dms(2));
        assert_eq!(a.end, ms(2));
        assert_eq!(b.end, ms(4));
        assert_eq!(c.end, ms(6));
    }

    #[test]
    fn cpu_parallel_on_multiple_cores() {
        let mut cpu = CpuModel::new(2, StallTimeline::none());
        let a = cpu.run(ms(0), dms(2));
        let b = cpu.run(ms(0), dms(2));
        let c = cpu.run(ms(0), dms(2));
        assert_eq!(a.end, ms(2));
        assert_eq!(b.end, ms(2));
        assert_eq!(c.end, ms(4));
        assert_eq!(cpu.cores(), 2);
    }

    #[test]
    fn cpu_idle_gap_then_work() {
        let mut cpu = CpuModel::new(1, StallTimeline::none());
        let _ = cpu.run(ms(0), dms(1));
        let b = cpu.run(ms(10), dms(1));
        assert_eq!(b.segments, vec![(ms(10), ms(11))]);
    }

    #[test]
    fn millibottleneck_delays_all_queued_work() {
        // A 400 ms stall at t=100ms with 1000 req/s * 0.4s = sub-ms demands:
        // work submitted during the stall completes only after it ends.
        let stall = StallTimeline::from_intervals(vec![(ms(100), ms(500))]);
        let mut cpu = CpuModel::new(1, StallTimeline::from_intervals(stall.intervals()));
        let during = cpu.run(ms(200), SimDuration::from_micros(750));
        assert!(during.end >= ms(500));
    }

    proptest! {
        /// busy_time == demand for any stall layout (work is conserved).
        #[test]
        fn work_is_conserved(
            stalls in proptest::collection::vec((0u64..10_000, 1u64..2_000), 0..10),
            start in 0u64..12_000,
            demand in 0u64..5_000,
        ) {
            let t = StallTimeline::from_intervals(
                stalls.iter().map(|(s, d)| (SimTime::from_micros(*s), SimTime::from_micros(s + d))),
            );
            let e = t.execute(SimTime::from_micros(start), SimDuration::from_micros(demand));
            prop_assert_eq!(e.busy_time(), SimDuration::from_micros(demand));
            prop_assert!(e.end >= e.start);
            // No segment overlaps a stall.
            for (s, en) in &e.segments {
                for (ss, se) in t.intervals() {
                    prop_assert!(*en <= ss || *s >= se, "segment {s}-{en} overlaps stall {ss}-{se}");
                }
            }
        }

        /// FIFO: completion times are non-decreasing in submission order for
        /// a single core with same-time submissions.
        #[test]
        fn fifo_completions_are_monotone(demands in proptest::collection::vec(1u64..2_000, 1..50)) {
            let mut cpu = CpuModel::new(1, StallTimeline::none());
            let mut last = SimTime::ZERO;
            for d in demands {
                let e = cpu.run(SimTime::ZERO, SimDuration::from_micros(d));
                prop_assert!(e.end >= last);
                last = e.end;
            }
        }

        /// With c cores, total busy time across cores equals total demand.
        #[test]
        fn multicore_conservation(cores in 1u32..5, demands in proptest::collection::vec(1u64..1_000, 1..60)) {
            let mut cpu = CpuModel::new(cores, StallTimeline::none());
            let mut busy = SimDuration::ZERO;
            let total: u64 = demands.iter().sum();
            for d in demands {
                busy += cpu.run(SimTime::ZERO, SimDuration::from_micros(d)).busy_time();
            }
            prop_assert_eq!(busy, SimDuration::from_micros(total));
        }
    }
}
