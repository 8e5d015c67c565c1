//! Small summary-statistics helpers shared by reports and tests.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation; 0 for slices shorter than 2.
pub fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// The `q`-quantile (nearest-rank) of `values`; `None` when empty.
///
/// `q` is clamped to `[0, 1]`. The input need not be sorted.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not contain NaN"));
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Maximum of a slice; `None` when empty.
pub fn max(values: &[f64]) -> Option<f64> {
    values
        .iter()
        .copied()
        .max_by(|a, b| a.partial_cmp(b).expect("values must not contain NaN"))
}

/// An exponentially weighted moving average with smoothing factor `alpha`.
///
/// The first observation seeds the average directly (no zero bias). Plain
/// data, like everything in this crate: callers decide what an observation
/// means and when to sample the value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// A new average with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA smoothing factor must be in (0, 1]"
        );
        Ewma { alpha, value: None }
    }

    /// Folds one observation in.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// The current average, or `default` before any observation.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// `true` once at least one observation has been folded in.
    #[cfg(test)]
    fn is_seeded(&self) -> bool {
        self.value.is_some()
    }
}

/// Upper tail `P(X > x)` of a normal distribution with the given `mean` and
/// standard deviation, via a rational complementary-error-function
/// approximation (fractional error everywhere below ~1.2e-7).
///
/// `std` is floored at a tiny positive value, so a degenerate distribution
/// yields a step function rather than NaN. This is the tail the phi-accrual
/// failure detector turns into a suspicion level: `phi = -log10(P(gap > t))`.
pub fn normal_tail(x: f64, mean: f64, std: f64) -> f64 {
    let std = std.max(1e-9);
    let z = (x - mean) / (std * std::f64::consts::SQRT_2);
    0.5 * erfc(z)
}

/// Complementary error function (Chebyshev-fitted rational approximation).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        poly
    } else {
        2.0 - poly
    }
}

/// Index of dispersion of counts (variance / mean) — the burstiness measure
/// behind the paper's "burst index" knob ([Mi et al., ICAC'09]).
///
/// Returns 0 when the series is empty or has zero mean.
pub fn index_of_dispersion(counts: &[f64]) -> f64 {
    let m = mean(counts);
    if m == 0.0 {
        return 0.0;
    }
    let var = counts.iter().map(|c| (c - m) * (c - m)).sum::<f64>() / counts.len().max(1) as f64;
    var / m
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn stddev_basics() {
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_does_not_require_sorted_input() {
        let v = [5.0, 1.0, 3.0];
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.34), Some(3.0));
    }

    #[test]
    fn dispersion_of_poisson_like_counts_is_near_one() {
        // counts with variance == mean
        let v = [2.0, 4.0, 2.0, 4.0];
        // mean 3, var 1 => IoD = 1/3; just check the formula
        assert!((index_of_dispersion(&v) - (1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(index_of_dispersion(&[]), 0.0);
        assert_eq!(index_of_dispersion(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn ewma_seeds_on_first_observation_and_tracks() {
        let mut e = Ewma::new(0.5);
        assert!(!e.is_seeded());
        assert_eq!(e.value_or(7.0), 7.0);
        e.observe(10.0);
        assert_eq!(e.value_or(0.0), 10.0);
        e.observe(20.0);
        assert_eq!(e.value_or(0.0), 15.0);
        assert!(e.is_seeded());
    }

    #[test]
    #[should_panic(expected = "smoothing factor must be in (0, 1]")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn normal_tail_matches_known_points() {
        // P(X > mean) = 0.5; one-sigma upper tail ≈ 0.1587.
        assert!((normal_tail(0.0, 0.0, 1.0) - 0.5).abs() < 1e-6);
        assert!((normal_tail(1.0, 0.0, 1.0) - 0.158_655).abs() < 1e-4);
        assert!((normal_tail(-1.0, 0.0, 1.0) - 0.841_345).abs() < 1e-4);
        // Degenerate std behaves like a step, not NaN.
        assert!(normal_tail(1.0, 0.0, 0.0) < 1e-12);
        assert!(normal_tail(-1.0, 0.0, 0.0) > 1.0 - 1e-12);
    }

    #[test]
    fn normal_tail_is_monotone_decreasing() {
        let mut prev = 1.0;
        for i in -40..=40 {
            let t = normal_tail(i as f64 / 10.0, 0.0, 1.0);
            assert!(t <= prev + 1e-12, "tail not monotone at {i}");
            prev = t;
        }
    }

    #[test]
    fn dispersion_grows_with_burstiness() {
        let steady = [10.0; 20];
        let mut bursty = [0.0; 20];
        bursty[0] = 200.0;
        assert!(index_of_dispersion(&bursty) > index_of_dispersion(&steady));
    }

    proptest! {
        #[test]
        fn quantile_is_monotone(values in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let a = quantile(&values, 0.25).unwrap();
            let b = quantile(&values, 0.75).unwrap();
            prop_assert!(b >= a);
        }

        #[test]
        fn quantile_bounds(values in proptest::collection::vec(-1e6f64..1e6, 1..100), q in 0.0f64..=1.0) {
            let v = quantile(&values, q).unwrap();
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo && v <= hi);
        }
    }
}
