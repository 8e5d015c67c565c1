//! Response-time histograms with multi-modal cluster detection.
//!
//! Figure 1 of the paper plots request frequency by response time on a
//! semi-log scale; the CTQO signature is a cluster of mass near 0 ms plus
//! satellite clusters at ~3, ~6 and ~9 s (TCP retransmissions).
//! [`LatencyHistogram`] regenerates that plot and [`LatencyHistogram::modes`]
//! recovers the cluster positions programmatically so tests can assert on
//! multi-modality instead of eyeballing charts.

use ntier_des::time::SimDuration;

/// A fixed-bucket histogram of request latencies.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
/// use ntier_telemetry::LatencyHistogram;
///
/// let mut h = LatencyHistogram::paper_default();
/// h.record(SimDuration::from_millis(2));
/// h.record(SimDuration::from_millis(3_004)); // a VLRT request
/// assert_eq!(h.total(), 2);
/// assert_eq!(h.count_above(SimDuration::from_secs(3)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum_micros: u128,
    max: SimDuration,
}

impl LatencyHistogram {
    /// Width of each bucket: the 50 ms resolution Fig. 1 plots at.
    pub const BUCKET_WIDTH: SimDuration = SimDuration::from_millis(50);

    /// Regular buckets: 240 × 50 ms covers 0–12 s; samples beyond go to an
    /// overflow bucket.
    pub const BUCKETS: usize = 240;

    /// An empty histogram in the configuration used for Fig. 1.
    pub fn paper_default() -> Self {
        LatencyHistogram {
            counts: vec![0; Self::BUCKETS],
            overflow: 0,
            total: 0,
            sum_micros: 0,
            max: SimDuration::ZERO,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        let idx = (latency.as_micros() / Self::BUCKET_WIDTH.as_micros()) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum_micros += u128::from(latency.as_micros());
        if latency > self.max {
            self.max = latency;
        }
    }

    /// Total number of samples (including overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples that landed beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The largest recorded sample.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Mean latency over all samples; zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros((self.sum_micros / u128::from(self.total)) as u64)
        }
    }

    /// Iterates `(bucket_start, count)` over all regular buckets.
    pub fn iter(&self) -> impl Iterator<Item = (SimDuration, u64)> + '_ {
        let w = Self::BUCKET_WIDTH.as_micros();
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, c)| (SimDuration::from_micros(i as u64 * w), *c))
    }

    /// Number of samples at or above `threshold` (the VLRT count when called
    /// with 3 s).
    pub fn count_above(&self, threshold: SimDuration) -> u64 {
        let first = threshold
            .as_micros()
            .div_ceil(Self::BUCKET_WIDTH.as_micros());
        let in_buckets: u64 = self.counts.iter().skip(first as usize).sum();
        in_buckets + self.overflow
    }

    /// An approximate quantile (bucket upper edge), `q` in `[0, 1]`.
    ///
    /// Returns `None` when the histogram is empty. Overflow samples resolve
    /// to [`LatencyHistogram::max`].
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(SimDuration::from_micros(
                    (i as u64 + 1) * Self::BUCKET_WIDTH.as_micros(),
                ));
            }
        }
        Some(self.max)
    }

    /// Detects latency *modes*: contiguous runs of non-empty buckets
    /// separated by at least `min_gap` of empty time, each holding at least
    /// `min_count` samples. Returns the peak-bucket start time and the run's
    /// total count, in time order.
    ///
    /// For a CTQO run this returns clusters near 0 ms, ~3 s, ~6 s, ~9 s; for
    /// a healthy async run it returns the single service-time cluster.
    pub fn modes(&self, min_gap: SimDuration, min_count: u64) -> Vec<Mode> {
        let gap_buckets = (min_gap.as_micros() / Self::BUCKET_WIDTH.as_micros()).max(1) as usize;
        let mut modes = Vec::new();
        let mut run: Option<RunState> = None;
        let mut empties = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                let r = run.get_or_insert(RunState {
                    peak_bucket: i,
                    peak_count: c,
                    total: 0,
                });
                r.total += c;
                if c > r.peak_count {
                    r.peak_count = c;
                    r.peak_bucket = i;
                }
                empties = 0;
            } else {
                empties += 1;
                if empties >= gap_buckets {
                    if let Some(r) = run.take() {
                        if r.total >= min_count {
                            modes.push(self.mode_from_run(r));
                        }
                    }
                }
            }
        }
        if let Some(r) = run.take() {
            if r.total >= min_count {
                modes.push(self.mode_from_run(r));
            }
        }
        modes
    }

    fn mode_from_run(&self, r: RunState) -> Mode {
        Mode {
            peak: SimDuration::from_micros(r.peak_bucket as u64 * Self::BUCKET_WIDTH.as_micros()),
            count: r.total,
        }
    }
}

#[derive(Debug)]
struct RunState {
    peak_bucket: usize,
    peak_count: u64,
    total: u64,
}

/// One detected latency cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Start of the run's peak bucket.
    pub peak: SimDuration,
    /// Total samples in the cluster.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn records_into_correct_buckets() {
        let mut h = LatencyHistogram::paper_default();
        h.record(ms(0));
        h.record(ms(49));
        h.record(ms(50));
        h.record(ms(11_999));
        let counts: Vec<u64> = h.iter().map(|(_, c)| c).collect();
        assert_eq!(counts.len(), LatencyHistogram::BUCKETS);
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[239], 1);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn overflow_is_tracked_separately() {
        let mut h = LatencyHistogram::paper_default();
        h.record(ms(12_000));
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 1);
        assert_eq!(h.count_above(ms(11_950)), 1);
    }

    #[test]
    fn mean_and_max() {
        let mut h = LatencyHistogram::paper_default();
        h.record(ms(2));
        h.record(ms(4));
        assert_eq!(h.mean(), ms(3));
        assert_eq!(h.max(), ms(4));
    }

    #[test]
    fn vlrt_count_above_3s() {
        let mut h = LatencyHistogram::paper_default();
        for _ in 0..100 {
            h.record(ms(2));
        }
        h.record(ms(3_050));
        h.record(ms(6_100));
        h.record(ms(9_020));
        assert_eq!(h.count_above(SimDuration::from_secs(3)), 3);
    }

    #[test]
    fn quantile_tracks_distribution() {
        let mut h = LatencyHistogram::paper_default();
        for _ in 0..99 {
            h.record(ms(10));
        }
        h.record(ms(3_010));
        assert_eq!(h.quantile(0.5).unwrap(), ms(50)); // first bucket upper edge
        assert!(h.quantile(0.999).unwrap() >= SimDuration::from_secs(3));
        assert_eq!(LatencyHistogram::paper_default().quantile(0.5), None);
    }

    #[test]
    fn multimodal_detection_finds_retransmission_clusters() {
        let mut h = LatencyHistogram::paper_default();
        // bulk of fast requests
        for i in 0..10_000u64 {
            h.record(SimDuration::from_micros(500 + (i % 30) * 100));
        }
        // retransmission clusters at ~3s, ~6s, ~9s
        for i in 0..40u64 {
            h.record(ms(3_000 + i % 40));
            h.record(ms(6_010 + i % 30));
        }
        for i in 0..10u64 {
            h.record(ms(9_005 + i));
        }
        let modes = h.modes(SimDuration::from_millis(500), 5);
        assert_eq!(modes.len(), 4, "modes: {modes:?}");
        assert_eq!(modes[0].peak, ms(0));
        assert_eq!(modes[1].peak, ms(3_000));
        assert_eq!(modes[2].peak, ms(6_000));
        assert_eq!(modes[3].peak, ms(9_000));
    }

    #[test]
    fn unimodal_when_no_drops() {
        let mut h = LatencyHistogram::paper_default();
        for i in 0..5_000u64 {
            h.record(SimDuration::from_micros(400 + (i % 100) * 30));
        }
        let modes = h.modes(SimDuration::from_millis(500), 5);
        assert_eq!(modes.len(), 1);
        assert_eq!(modes[0].count, 5_000);
    }

    #[test]
    fn small_clusters_below_min_count_are_ignored() {
        let mut h = LatencyHistogram::paper_default();
        for _ in 0..100 {
            h.record(ms(5));
        }
        h.record(ms(6_000)); // a single outlier, not a mode
        let modes = h.modes(SimDuration::from_millis(500), 5);
        assert_eq!(modes.len(), 1);
    }

    proptest! {
        /// total == sum of buckets + overflow, for arbitrary sample sets.
        #[test]
        fn totals_are_conserved(samples in proptest::collection::vec(0u64..20_000, 0..500)) {
            let mut h = LatencyHistogram::paper_default();
            for s in &samples {
                h.record(SimDuration::from_millis(*s));
            }
            let bucket_sum: u64 = h.iter().map(|(_, c)| c).sum();
            prop_assert_eq!(bucket_sum + h.overflow(), h.total());
            prop_assert_eq!(h.total(), samples.len() as u64);
        }

        /// count_above(0) counts everything; quantile is monotone in q.
        #[test]
        fn count_above_and_quantile_sanity(samples in proptest::collection::vec(0u64..12_000, 1..300)) {
            let mut h = LatencyHistogram::paper_default();
            for s in &samples {
                h.record(SimDuration::from_millis(*s));
            }
            prop_assert_eq!(h.count_above(SimDuration::ZERO), h.total());
            let q50 = h.quantile(0.5).unwrap();
            let q99 = h.quantile(0.99).unwrap();
            prop_assert!(q99 >= q50);
        }

        /// Modes partition all samples when min_count = 0... every sample
        /// belongs to exactly one run.
        #[test]
        fn modes_conserve_mass(samples in proptest::collection::vec(0u64..11_000, 1..300)) {
            let mut h = LatencyHistogram::paper_default();
            for s in &samples {
                h.record(SimDuration::from_millis(*s));
            }
            let modes = h.modes(SimDuration::from_millis(50), 0);
            let mode_mass: u64 = modes.iter().map(|m| m.count).sum();
            prop_assert_eq!(mode_mass + h.overflow(), h.total());
        }
    }
}
