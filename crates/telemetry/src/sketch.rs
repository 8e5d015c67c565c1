//! A deterministic, mergeable quantile sketch for latency streams.
//!
//! The paper's monitoring method needs latency quantiles continuously —
//! per control tick and per metrics snapshot — and the full
//! [`crate::LatencyHistogram`] answers that only at its 50 ms bucket
//! resolution while costing O(range) storage. [`QuantileSketch`] is the
//! streaming replacement: DDSketch-style log-linear buckets over integer
//! microseconds, a guaranteed relative-error bound, and a `merge` that is
//! plain counter addition — associative and commutative, so pooled
//! sketches come out bit-identical whatever order they are merged in.
//!
//! # Bucketing
//!
//! Values are `u64` microseconds. Small values are exact: `v < 128` maps to
//! bucket key `v`. Larger values use log-linear keys: with
//! `e = 63 - v.leading_zeros()` (the octave) and 128 sub-buckets per octave,
//!
//! ```text
//! key(v) = (e << 7) | ((v >> (e - 7)) & 127)        for v >= 128
//! ```
//!
//! Each bucket spans `w = 2^(e-7)` consecutive integers starting at
//! `lower = (128 + sub) << (e - 7)`; the reported representative is the
//! midpoint `lower + w/2`. Since `lower >= 128·w`, the error is at most
//! `w/2 / (128·w) = 1/256` of the true value — the documented ≤ 0.4 %
//! relative-error bound ([`QuantileSketch::RELATIVE_ERROR`]). Keys are
//! monotone in value, so a cumulative scan in key order walks samples in
//! nondecreasing order, exactly like a sorted array.
//!
//! All arithmetic is integer-only: no floating-point accumulation, no
//! platform-dependent rounding, hence bit-identical snapshots everywhere.

use ntier_des::time::SimDuration;

/// Sub-bucket bits per octave: 2^7 = 128 log-linear sub-buckets.
const SUB_BITS: u32 = 7;
/// Values below this are stored exactly (one key per integer microsecond).
const EXACT_LIMIT: u64 = 1 << SUB_BITS;
/// Largest possible key: octave 63, sub-bucket 127.
const MAX_KEY: usize = (63 << SUB_BITS) | (EXACT_LIMIT as usize - 1);

/// A mergeable log-linear quantile sketch over latency samples.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
/// use ntier_telemetry::QuantileSketch;
///
/// let mut s = QuantileSketch::new();
/// for ms in [2u64, 2, 2, 3_004] {
///     s.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(s.total(), 4);
/// let p50 = s.quantile(0.5).unwrap();
/// assert!((p50.as_micros() as f64 - 2_000.0).abs() <= 2_000.0 / 256.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Dense per-key counts, grown on demand up to `MAX_KEY + 1`.
    counts: Vec<u64>,
    total: u64,
    sum_micros: u128,
}

impl QuantileSketch {
    /// Guaranteed bound on `|reported - true| / true` for any quantile:
    /// half a sub-bucket over the bucket's lower edge, `1/256 ≈ 0.4 %`.
    pub const RELATIVE_ERROR: f64 = 1.0 / 256.0;

    /// Creates an empty sketch.
    pub fn new() -> Self {
        QuantileSketch::default()
    }

    fn key(v: u64) -> usize {
        if v < EXACT_LIMIT {
            v as usize
        } else {
            let e = 63 - v.leading_zeros();
            ((e << SUB_BITS) | ((v >> (e - SUB_BITS)) as u32 & (EXACT_LIMIT as u32 - 1))) as usize
        }
    }

    /// Midpoint representative of bucket `key` (exact for `key < 128`).
    fn representative(key: usize) -> u64 {
        if key < EXACT_LIMIT as usize {
            key as u64
        } else {
            let e = (key >> SUB_BITS) as u32;
            let sub = (key as u64) & (EXACT_LIMIT - 1);
            let width = 1u64 << (e - SUB_BITS);
            ((EXACT_LIMIT + sub) << (e - SUB_BITS)) + width / 2
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        let micros = latency.as_micros();
        let k = Self::key(micros);
        if k >= self.counts.len() {
            self.counts.resize((k + 1).min(MAX_KEY + 1), 0);
        }
        self.counts[k] += 1;
        self.total += 1;
        self.sum_micros += u128::from(micros);
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` if nothing was recorded (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of all samples; zero when empty. Exact (the sum is kept aside).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros((self.sum_micros / u128::from(self.total)) as u64)
        }
    }

    /// Number of samples in buckets wholly at or above `threshold` — the
    /// VLRT count when called with 3 s. Buckets are ≤ 0.8 % wide, so only
    /// samples within one bucket of the threshold can be misattributed.
    pub fn count_above(&self, threshold: SimDuration) -> u64 {
        let first = Self::key(threshold.as_micros());
        self.counts.iter().skip(first).sum()
    }

    /// The quantile `q` in `[0, 1]` via the same nearest-rank rule as
    /// [`crate::LatencyHistogram::quantile`]: the representative of the
    /// bucket holding the `ceil(q·total)`-th smallest sample, within
    /// [`QuantileSketch::RELATIVE_ERROR`] of the exact order statistic.
    ///
    /// Returns `None` when the sketch is empty: an unpopulated window has
    /// no quantile, and callers adapting policies (hedge delay, AIMD
    /// bounds) must hold rather than act on garbage.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(SimDuration::from_micros(Self::representative(k)));
            }
        }
        unreachable!("cumulative count reaches total")
    }

    /// Folds `other` into `self` by bucket-wise counter addition. Merging
    /// is associative and commutative, so pooling partial sketches gives
    /// the same bytes in any order (pinned by the merge-order proptest
    /// below).
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.total += other.total;
        self.sum_micros += other.sum_micros;
    }

    /// Resets the sketch to empty, keeping its allocation — the per-tick
    /// recent-window reset on the control path.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum_micros = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..128u64 {
            s.record(us(v));
        }
        assert_eq!(s.quantile(0.0).unwrap(), us(0));
        // rank rule: ceil(0.5 * 128) = 64 → the 64th smallest = 63
        assert_eq!(s.quantile(0.5).unwrap(), us(63));
        assert_eq!(s.quantile(1.0).unwrap(), us(127));
    }

    #[test]
    fn empty_sketch_has_no_quantile() {
        let s = QuantileSketch::new();
        assert_eq!(s.quantile(0.5), None);
        assert!(s.is_empty());
        assert_eq!(s.mean(), SimDuration::ZERO);
    }

    #[test]
    fn mean_is_exact() {
        let mut s = QuantileSketch::new();
        s.record(us(1_000));
        s.record(us(3_000));
        assert_eq!(s.mean(), us(2_000));
    }

    #[test]
    fn count_above_vlrt_threshold() {
        let mut s = QuantileSketch::new();
        for _ in 0..100 {
            s.record(SimDuration::from_millis(2));
        }
        s.record(SimDuration::from_millis(3_050));
        s.record(SimDuration::from_millis(6_100));
        assert_eq!(s.count_above(SimDuration::from_secs(3)), 2);
    }

    #[test]
    fn clear_resets_but_keeps_allocation() {
        let mut s = QuantileSketch::new();
        s.record(SimDuration::from_secs(9));
        let cap = s.counts.len();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.counts.len(), cap);
        assert_eq!(s.quantile(0.99), None);
    }

    #[test]
    fn extreme_values_do_not_overflow_keys() {
        let mut s = QuantileSketch::new();
        s.record(us(u64::MAX));
        s.record(us(0));
        assert_eq!(s.total(), 2);
        assert!(s.counts.len() <= MAX_KEY + 1);
        let top = s.quantile(1.0).unwrap().as_micros();
        let rel = (top as f64 - u64::MAX as f64).abs() / u64::MAX as f64;
        assert!(rel <= QuantileSketch::RELATIVE_ERROR, "rel {rel}");
    }

    /// The exact nearest-rank reference the sketch approximates.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let target = ((q * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
        sorted[target - 1]
    }

    proptest! {
        /// Sketch quantiles stay within the documented relative-error
        /// bound of the exact order statistic, for arbitrary sample sets
        /// spanning microseconds to minutes.
        #[test]
        fn quantiles_within_relative_error(
            samples in proptest::collection::vec(0u64..120_000_000, 1..400),
            qs in proptest::collection::vec(0.0f64..=1.0, 1..8),
        ) {
            let mut sketch = QuantileSketch::new();
            for &v in &samples {
                sketch.record(us(v));
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for &q in &qs {
                let exact = exact_quantile(&sorted, q) as f64;
                let got = sketch.quantile(q).unwrap().as_micros() as f64;
                let tolerance = exact * QuantileSketch::RELATIVE_ERROR + 1e-9;
                prop_assert!(
                    (got - exact).abs() <= tolerance,
                    "q={q} exact={exact} got={got}"
                );
            }
        }

        /// Merge is associative and commutative: any split of a stream
        /// into parts, merged in any order, equals the whole-stream sketch
        /// byte-for-byte.
        #[test]
        fn merge_is_order_stable(
            samples in proptest::collection::vec(0u64..60_000_000, 1..300),
            split in 1usize..6,
        ) {
            let mut whole = QuantileSketch::new();
            let mut parts: Vec<QuantileSketch> =
                (0..split).map(|_| QuantileSketch::new()).collect();
            for (i, &v) in samples.iter().enumerate() {
                whole.record(us(v));
                parts[i % split].record(us(v));
            }
            // forward merge order
            let mut fwd = QuantileSketch::new();
            for p in &parts {
                fwd.merge(p);
            }
            // reverse merge order
            let mut rev = QuantileSketch::new();
            for p in parts.iter().rev() {
                rev.merge(p);
            }
            // right-associated merge: p0 + (p1 + (p2 + ...))
            let mut assoc = QuantileSketch::new();
            for p in parts.iter().rev() {
                let mut acc = p.clone();
                acc.merge(&assoc);
                assoc = acc;
            }
            prop_assert_eq!(&fwd, &whole);
            prop_assert_eq!(&rev, &whole);
            prop_assert_eq!(&assoc, &whole);
        }

        /// Quantile is monotone in q and total is conserved.
        #[test]
        fn quantile_monotone_and_total_conserved(
            samples in proptest::collection::vec(0u64..10_000_000, 1..200),
        ) {
            let mut s = QuantileSketch::new();
            for &v in &samples {
                s.record(us(v));
            }
            prop_assert_eq!(s.total(), samples.len() as u64);
            let bucket_sum: u64 = s.counts.iter().sum();
            prop_assert_eq!(bucket_sum, s.total());
            let mut prev = SimDuration::ZERO;
            for i in 0..=10 {
                let q = f64::from(i) / 10.0;
                let v = s.quantile(q).unwrap();
                prop_assert!(v >= prev);
                prev = v;
            }
        }
    }
}
