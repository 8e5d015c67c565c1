//! Thread-management overhead at high concurrency.
//!
//! Section V-E of the paper tests the "RPC purist" fix — just make the
//! thread pools huge (2000 threads) — and finds that throughput *collapses*
//! as concurrency rises (Fig. 12: 1159 req/s at 100 concurrent requests down
//! to 374 req/s at 1600), because thread management costs grow with the
//! number of live threads: last-level-cache misses and context switches grow
//! roughly linearly, and JVM garbage-collection time grows super-linearly
//! with thread memory. [`ThreadOverheadModel`] captures both terms as a
//! per-request demand inflation:
//!
//! ```text
//! effective = base * (1 + ctx_coeff * active) + gc_coeff * active^2
//! ```
//!
//! Event-driven servers keep `active` at the worker count (a handful), so
//! their effective demand is flat — which is exactly the asymmetry Fig. 12
//! shows.

use ntier_des::time::SimDuration;

/// Per-request CPU-demand inflation as a function of active threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadOverheadModel {
    /// Fractional demand growth per active thread (context switches, cache
    /// pollution). `0.0005` means +0.05 % of base demand per thread.
    pub ctx_coeff: f64,
    /// Quadratic term in seconds per (active thread)^2 — the GC share.
    pub gc_coeff: f64,
    /// Threads at or below this count are free (a small pool fits in cache
    /// and produces negligible switching).
    pub free_threads: usize,
}

impl ThreadOverheadModel {
    /// No overhead regardless of thread count (the default for the
    /// millibottleneck experiments, which run 150-thread pools well below
    /// the regime Fig. 12 explores).
    pub(crate) fn none() -> Self {
        ThreadOverheadModel {
            ctx_coeff: 0.0,
            gc_coeff: 0.0,
            free_threads: usize::MAX,
        }
    }

    /// The calibration used for Fig. 12's synchronous 2000-thread stack.
    ///
    /// Chosen so that a 0.75 ms base demand yields ≈1100+ req/s at 100
    /// concurrent requests and ≈350–400 req/s at 1600, matching the paper's
    /// reported endpoints (see EXPERIMENTS.md).
    pub(crate) fn java_server_2000_threads() -> Self {
        ThreadOverheadModel {
            ctx_coeff: 0.0005,
            gc_coeff: 2.0e-10,
            free_threads: 64,
        }
    }

    /// The effective demand for one request when `active` threads are live.
    pub(crate) fn effective_demand(&self, base: SimDuration, active: usize) -> SimDuration {
        let billable = active.saturating_sub(self.free_threads) as f64;
        let base_s = base.as_secs_f64();
        let inflated =
            base_s * (1.0 + self.ctx_coeff * billable) + self.gc_coeff * billable * billable;
        SimDuration::from_secs_f64(inflated)
    }

    /// `true` if this model adds no overhead.
    #[cfg(test)]
    fn is_none(&self) -> bool {
        self.ctx_coeff == 0.0 && self.gc_coeff == 0.0
    }
}

impl Default for ThreadOverheadModel {
    fn default() -> Self {
        ThreadOverheadModel::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn base() -> SimDuration {
        SimDuration::from_micros(750)
    }

    #[test]
    fn none_is_identity() {
        let m = ThreadOverheadModel::none();
        assert!(m.is_none());
        assert_eq!(m.effective_demand(base(), 100_000), base());
    }

    #[test]
    fn overhead_grows_monotonically_with_threads() {
        let m = ThreadOverheadModel::java_server_2000_threads();
        let d100 = m.effective_demand(base(), 100);
        let d800 = m.effective_demand(base(), 800);
        let d1600 = m.effective_demand(base(), 1600);
        assert!(d100 < d800);
        assert!(d800 < d1600);
    }

    #[test]
    fn calibration_hits_paper_endpoints_roughly() {
        // Fig. 12: 1159 req/s at 100 concurrent; 374 req/s at 1600.
        // Throughput on a saturated single core ~= 1 / effective_demand.
        let m = ThreadOverheadModel::java_server_2000_threads();
        let tput_100 = 1.0 / m.effective_demand(base(), 100).as_secs_f64();
        let tput_1600 = 1.0 / m.effective_demand(base(), 1600).as_secs_f64();
        assert!(
            (1_000.0..1_400.0).contains(&tput_100),
            "tput@100 = {tput_100:.0}"
        );
        assert!(
            (400.0..650.0).contains(&tput_1600),
            "tput@1600 = {tput_1600:.0}"
        );
        // The collapse factor: paper shows ~3.1x.
        let factor = tput_100 / tput_1600;
        assert!((1.8..4.0).contains(&factor), "collapse factor {factor:.2}");
    }

    #[test]
    fn free_threads_are_exempt() {
        let m = ThreadOverheadModel {
            ctx_coeff: 0.001,
            gc_coeff: 0.0,
            free_threads: 64,
        };
        assert_eq!(m.effective_demand(base(), 64), base());
        assert!(m.effective_demand(base(), 65) > base());
    }

    proptest! {
        /// Effective demand is monotone non-decreasing in active threads and
        /// never below base.
        #[test]
        fn monotone_and_bounded_below(active_a in 0usize..5_000, active_b in 0usize..5_000) {
            let m = ThreadOverheadModel::java_server_2000_threads();
            let (lo, hi) = if active_a <= active_b { (active_a, active_b) } else { (active_b, active_a) };
            let dl = m.effective_demand(base(), lo);
            let dh = m.effective_demand(base(), hi);
            prop_assert!(dl <= dh);
            prop_assert!(dl >= base());
        }
    }
}
