//! Bounded-memory windowed series: a ring of recent fine windows backed by
//! tiered downsampling.
//!
//! The per-window series in [`crate::series`] keep every window they ever
//! touched — O(horizon) storage. [`RingSeries`] is the streaming
//! alternative: the most recent windows are retained at full 50 ms
//! resolution, windows evicted from that ring collapse 10:1 into a coarse
//! ring, and windows evicted from the coarse ring fold into a single
//! "ancient" aggregate. Memory is O(retained windows), independent of the
//! horizon, and nothing is lost — counts and sums are conserved across the
//! three tiers.
//!
//! Downsampling is pure aggregate arithmetic on window indices, so a ring
//! fed the same samples in the same order is bit-identical regardless of
//! horizon or wall-clock timing.

use ntier_des::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Aggregates accumulated within one window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowAgg {
    /// Sum of recorded values (for counters: the windowed total).
    pub sum: f64,
    /// Number of recordings.
    pub count: u64,
    /// Maximum recorded value (0 when the window is empty).
    pub max: f64,
    /// Last recorded value (0 when the window is empty).
    pub last: f64,
}

impl WindowAgg {
    /// Mean of recorded values, or 0 for an empty window.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The aggregate of a single recording.
    pub(crate) fn sample(value: f64) -> Self {
        WindowAgg {
            sum: value,
            count: 1,
            max: value,
            last: value,
        }
    }

    /// Folds `w` in: sums and counts add, maxima take the larger value, and
    /// `last` follows `w` when it saw any recording.
    pub(crate) fn absorb(&mut self, w: &WindowAgg) {
        self.sum += w.sum;
        self.count += w.count;
        if w.max > self.max {
            self.max = w.max;
        }
        if w.count > 0 {
            self.last = w.last;
        }
    }
}

/// A fixed-capacity ring of consecutive windows, evicting the oldest.
#[derive(Debug, Clone, Default, PartialEq)]
struct Ring {
    /// Index of the first retained window (`aggs[0]`).
    start: u64,
    aggs: VecDeque<WindowAgg>,
}

impl Ring {
    /// Slides the ring forward so window `idx` is retained, returning
    /// evicted `(index, agg)` pairs oldest-first via `evict`.
    fn ensure(&mut self, idx: u64, cap: usize, mut evict: impl FnMut(u64, WindowAgg)) {
        if self.aggs.is_empty() {
            self.start = idx;
            self.aggs.push_back(WindowAgg::default());
            return;
        }
        let newest = self.start + self.aggs.len() as u64 - 1;
        for _ in newest..idx {
            self.aggs.push_back(WindowAgg::default());
            while self.aggs.len() > cap {
                let old = self.aggs.pop_front().expect("ring is non-empty");
                evict(self.start, old);
                self.start += 1;
            }
        }
    }

    fn get_mut(&mut self, idx: u64) -> Option<&mut WindowAgg> {
        idx.checked_sub(self.start)
            .and_then(|off| self.aggs.get_mut(off as usize))
    }

    #[cfg(test)]
    fn get(&self, idx: u64) -> Option<&WindowAgg> {
        idx.checked_sub(self.start)
            .and_then(|off| self.aggs.get(off as usize))
    }
}

/// A windowed series with bounded retention: recent windows at full
/// resolution, older windows tiered down 10:1, the rest in one aggregate.
///
/// Samples must arrive in nondecreasing window order (the engine records at
/// event-handle time, which is monotone); a sample older than the fine
/// ring's retention folds straight into the coarse tier or the ancient
/// aggregate instead of resurrecting an evicted window.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
/// use ntier_telemetry::RingSeries;
///
/// let mut r = RingSeries::paper_default();
/// for s in 0..3_600u64 {
///     r.add(SimTime::from_secs(s), 1.0);
/// }
/// // an hour of 1 s samples, yet storage stays at the retention caps
/// assert!(r.retained_windows() <= RingSeries::FINE_CAP + RingSeries::COARSE_CAP);
/// assert_eq!(r.total_count(), 3_600);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RingSeries {
    window: SimDuration,
    fine_cap: usize,
    coarse_factor: u64,
    coarse_cap: usize,
    fine: Ring,
    coarse: Ring,
    ancient: WindowAgg,
}

impl RingSeries {
    /// Default fine retention: 256 windows (12.8 s at 50 ms).
    pub const FINE_CAP: usize = 256;
    /// Default coarse retention: 256 windows of 10× width (~2 min more).
    pub const COARSE_CAP: usize = 256;
    /// Default downsampling factor between the tiers.
    pub const COARSE_FACTOR: u64 = 10;

    /// Creates a ring with explicit retention parameters.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero, either cap is zero, or
    /// `coarse_factor < 2`.
    pub fn new(
        window: SimDuration,
        fine_cap: usize,
        coarse_factor: u64,
        coarse_cap: usize,
    ) -> Self {
        assert!(!window.is_zero(), "window must be non-zero");
        assert!(fine_cap > 0 && coarse_cap > 0, "caps must be non-zero");
        assert!(coarse_factor >= 2, "downsampling must actually downsample");
        RingSeries {
            window,
            fine_cap,
            coarse_factor,
            coarse_cap,
            fine: Ring::default(),
            coarse: Ring::default(),
            ancient: WindowAgg::default(),
        }
    }

    /// The paper configuration: 50 ms fine windows, 10:1 downsampling,
    /// 256 windows retained per tier.
    pub fn paper_default() -> Self {
        RingSeries::new(
            SimDuration::from_millis(crate::MONITOR_WINDOW_MS),
            Self::FINE_CAP,
            Self::COARSE_FACTOR,
            Self::COARSE_CAP,
        )
    }

    /// Adds `value` to the window containing `t`, downsampling as needed.
    pub fn add(&mut self, t: SimTime, value: f64) {
        let idx = t.window_index(self.window);
        self.fold_window(idx, &WindowAgg::sample(value));
    }

    /// Folds one fine-window aggregate into the tiers.
    fn fold_window(&mut self, idx: u64, agg: &WindowAgg) {
        // Slide the fine ring forward; evictions cascade into the coarse
        // tier, whose own evictions cascade into the ancient aggregate.
        let (factor, coarse_cap) = (self.coarse_factor, self.coarse_cap);
        let coarse = &mut self.coarse;
        let ancient = &mut self.ancient;
        self.fine.ensure(idx, self.fine_cap, |fine_idx, old| {
            let cidx = fine_idx / factor;
            coarse.ensure(cidx, coarse_cap, |_, cold| ancient.absorb(&cold));
            if let Some(c) = coarse.get_mut(cidx) {
                c.absorb(&old);
            } else {
                // Already evicted from the coarse tier too: straight to
                // the ancient aggregate.
                ancient.absorb(&old);
            }
        });
        if let Some(w) = self.fine.get_mut(idx) {
            w.absorb(agg);
        } else if let Some(c) = self.coarse.get_mut(idx / self.coarse_factor) {
            c.absorb(agg);
        } else {
            self.ancient.absorb(agg);
        }
    }

    /// The fine-resolution aggregate for window `idx`, if still retained.
    #[cfg(test)]
    fn fine_window(&self, idx: u64) -> Option<WindowAgg> {
        self.fine.get(idx).copied()
    }

    /// Index of the oldest fine window still retained (`None` when empty).
    #[cfg(test)]
    fn fine_start(&self) -> Option<u64> {
        (!self.fine.aggs.is_empty()).then_some(self.fine.start)
    }

    /// Index one past the newest fine window.
    #[cfg(test)]
    fn fine_end(&self) -> Option<u64> {
        (!self.fine.aggs.is_empty()).then_some(self.fine.start + self.fine.aggs.len() as u64)
    }

    /// Everything older than the coarse tier, folded into one aggregate.
    #[cfg(test)]
    fn ancient(&self) -> WindowAgg {
        self.ancient
    }

    /// Total retained window slots across both rings — the quantity that
    /// stays bounded no matter the horizon.
    pub fn retained_windows(&self) -> usize {
        self.fine.aggs.len() + self.coarse.aggs.len()
    }

    /// Upper bound on `retained_windows` for this configuration.
    pub fn retention_cap(&self) -> usize {
        self.fine_cap + self.coarse_cap
    }

    /// Total sample count across all three tiers (conservation invariant:
    /// equals the number of `add` calls).
    pub fn total_count(&self) -> u64 {
        let fine: u64 = self.fine.aggs.iter().map(|w| w.count).sum();
        let coarse: u64 = self.coarse.aggs.iter().map(|w| w.count).sum();
        fine + coarse + self.ancient.count
    }

    /// Total of all recorded values across all three tiers.
    #[cfg(test)]
    fn total_sum(&self) -> f64 {
        let fine: f64 = self.fine.aggs.iter().map(|w| w.sum).sum();
        let coarse: f64 = self.coarse.aggs.iter().map(|w| w.sum).sum();
        fine + coarse + self.ancient.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// The unbounded reference: every 50 ms window ever touched, each an
    /// f64 aggregate of its recordings.
    #[derive(Default)]
    struct FullSeries(Vec<WindowAgg>);

    impl FullSeries {
        fn add(&mut self, t: SimTime, value: f64) {
            let idx = t.window_index(SimDuration::from_millis(50)) as usize;
            if idx >= self.0.len() {
                self.0.resize(idx + 1, WindowAgg::default());
            }
            self.0[idx].absorb(&WindowAgg::sample(value));
        }

        fn window(&self, idx: usize) -> WindowAgg {
            self.0.get(idx).copied().unwrap_or_default()
        }

        fn total(&self) -> f64 {
            self.0.iter().map(|w| w.sum).sum()
        }
    }

    #[test]
    fn short_run_matches_full_series_exactly() {
        let mut ring = RingSeries::paper_default();
        let mut full = FullSeries::default();
        for t in [5u64, 60, 110, 140, 260, 300, 999] {
            ring.add(ms(t), t as f64);
            full.add(ms(t), t as f64);
        }
        for idx in 0..full.0.len() as u64 {
            assert_eq!(
                ring.fine_window(idx).unwrap_or_default(),
                full.window(idx as usize),
                "window {idx}"
            );
        }
    }

    #[test]
    fn long_run_stays_bounded_and_conserves_mass() {
        let mut ring = RingSeries::paper_default();
        let n = 200_000u64; // 10_000 s of 50 ms windows, 1 sample each
        for i in 0..n {
            ring.add(ms(i * 50), 1.0);
        }
        assert!(ring.retained_windows() <= ring.retention_cap());
        assert_eq!(ring.total_count(), n);
        assert_eq!(ring.total_sum(), n as f64);
        assert!(
            ring.ancient().count > 0,
            "old windows reached the ancient tier"
        );
    }

    #[test]
    fn evicted_fine_windows_collapse_ten_to_one() {
        let mut ring = RingSeries::new(SimDuration::from_millis(50), 4, 10, 8);
        for i in 0..40u64 {
            ring.add(ms(i * 50), 1.0);
        }
        // fine keeps the last 4 windows; 36 older ones collapsed coarse-ward
        assert_eq!(ring.fine.aggs.len(), 4);
        let coarse_count: u64 = ring.coarse.aggs.iter().map(|w| w.count).sum();
        assert_eq!(coarse_count + ring.ancient.count, 36);
        // a full coarse window aggregates exactly 10 fine windows
        assert!(ring.coarse.aggs.iter().any(|w| w.count == 10));
        assert_eq!(ring.total_count(), 40);
    }

    #[test]
    fn stale_sample_lands_in_coarse_or_ancient() {
        let mut ring = RingSeries::new(SimDuration::from_millis(50), 4, 10, 4);
        for i in 0..200u64 {
            ring.add(ms(i * 50), 1.0);
        }
        let before = ring.total_count();
        // Window 0 left even the coarse tier long ago.
        ring.add(ms(0), 7.0);
        assert_eq!(ring.total_count(), before + 1);
    }

    proptest! {
        /// On the retained fine range the ring is byte-identical to the
        /// unbounded series, for arbitrary monotone sample streams.
        #[test]
        fn ring_equals_full_series_on_retained_range(
            gaps in proptest::collection::vec(0u64..400, 1..300),
            values in proptest::collection::vec(0.0f64..100.0, 1..300),
        ) {
            let mut ring = RingSeries::paper_default();
            let mut full = FullSeries::default();
            let mut t = 0u64;
            for (g, v) in gaps.iter().zip(values.iter().cycle()) {
                t += g;
                ring.add(ms(t), *v);
                full.add(ms(t), *v);
            }
            prop_assert!(ring.retained_windows() <= ring.retention_cap());
            if let (Some(start), Some(end)) = (ring.fine_start(), ring.fine_end()) {
                for idx in start..end {
                    prop_assert_eq!(
                        ring.fine_window(idx).unwrap_or_default(),
                        full.window(idx as usize),
                        "window {}", idx
                    );
                }
            }
            // Mass conservation across the tiers.
            prop_assert_eq!(ring.total_count(), gaps.len() as u64);
            prop_assert!((ring.total_sum() - full.total()).abs() < 1e-6);
        }
    }
}
