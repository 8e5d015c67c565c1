//! Sampling distributions for service demands, think times and burst sizes.
//!
//! `rand_distr` is not part of the approved dependency set, so the handful of
//! distributions the reproduction needs are implemented here via standard
//! inverse-transform / Box–Muller methods. Each returns a [`SimDuration`];
//! dimensionless sampling is available through [`Distribution::sample_f64`].

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A sampling distribution over non-negative durations.
///
/// Implementors must return finite, non-negative values from
/// [`sample_f64`](Self::sample_f64) (seconds).
pub trait Distribution: std::fmt::Debug + Send + Sync {
    /// Draws one value in **seconds**.
    fn sample_f64(&self, rng: &mut SimRng) -> f64;

    /// Draws one value as a [`SimDuration`] (rounded to microseconds).
    fn sample(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(self.sample_f64(rng).max(0.0))
    }

    /// The distribution mean in seconds, used by analytic sanity checks.
    fn mean_f64(&self) -> f64;
}

/// A degenerate distribution: always the same value.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
///
/// let d = Point::from_duration(SimDuration::from_millis(3));
/// let mut rng = SimRng::seed_from(1);
/// assert_eq!(d.sample(&mut rng), SimDuration::from_millis(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    value_secs: f64,
}

impl Point {
    /// A point mass at `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn new(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "point mass must be finite and non-negative"
        );
        Point { value_secs: secs }
    }

    /// A point mass at the given duration.
    pub fn from_duration(d: SimDuration) -> Self {
        Point::new(d.as_secs_f64())
    }
}

impl Distribution for Point {
    fn sample_f64(&self, _rng: &mut SimRng) -> f64 {
        self.value_secs
    }

    fn mean_f64(&self) -> f64 {
        self.value_secs
    }
}

/// Exponential distribution with the given mean — the classic model for
/// think times and Poisson inter-arrival gaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean_secs: f64,
}

impl Exponential {
    /// An exponential with mean `mean_secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `mean_secs` is not strictly positive and finite.
    pub fn with_mean(mean_secs: f64) -> Self {
        assert!(
            mean_secs.is_finite() && mean_secs > 0.0,
            "exponential mean must be positive"
        );
        Exponential { mean_secs }
    }
}

impl Distribution for Exponential {
    fn sample_f64(&self, rng: &mut SimRng) -> f64 {
        -self.mean_secs * rng.next_f64_open().ln()
    }

    fn mean_f64(&self) -> f64 {
        self.mean_secs
    }
}

/// Log-normal distribution, parameterized by the *target* mean and the sigma
/// of the underlying normal. Used for service demands with mild right skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// A log-normal whose mean is `mean_secs` with shape `sigma` (the
    /// standard deviation of the underlying normal).
    ///
    /// # Panics
    ///
    /// Panics if `mean_secs <= 0`, `sigma < 0`, or either is not finite.
    pub fn with_mean(mean_secs: f64, sigma: f64) -> Self {
        assert!(
            mean_secs.is_finite() && mean_secs > 0.0,
            "log-normal mean must be positive"
        );
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "log-normal sigma must be non-negative"
        );
        // E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2
        LogNormal {
            mu: mean_secs.ln() - sigma * sigma / 2.0,
            sigma,
        }
    }
}

impl Distribution for LogNormal {
    fn sample_f64(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * rng.next_standard_normal()).exp()
    }

    fn mean_f64(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn empirical_mean<D: Distribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from(seed);
        (0..n).map(|_| d.sample_f64(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn point_is_constant() {
        let d = Point::new(0.003);
        let mut rng = SimRng::seed_from(9);
        for _ in 0..10 {
            assert_eq!(d.sample_f64(&mut rng), 0.003);
        }
        assert_eq!(d.mean_f64(), 0.003);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(7.0);
        let m = empirical_mean(&d, 50_000, 11);
        assert!((m - 7.0).abs() / 7.0 < 0.03, "mean = {m}");
    }

    #[test]
    fn lognormal_mean_converges() {
        let d = LogNormal::with_mean(0.00075, 0.5);
        let m = empirical_mean(&d, 100_000, 13);
        assert!((m - 0.00075).abs() / 0.00075 < 0.05, "mean = {m}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        let _ = Exponential::with_mean(0.0);
    }

    proptest! {
        #[test]
        fn samples_are_non_negative_and_finite(seed in any::<u64>()) {
            let mut rng = SimRng::seed_from(seed);
            let dists: Vec<Box<dyn Distribution>> = vec![
                Box::new(Point::new(0.01)),
                Box::new(Exponential::with_mean(1.0)),
                Box::new(LogNormal::with_mean(0.5, 1.0)),
            ];
            for d in &dists {
                for _ in 0..20 {
                    let x = d.sample_f64(&mut rng);
                    prop_assert!(x.is_finite() && x >= 0.0);
                }
            }
        }

        #[test]
        fn sample_duration_matches_f64_rounding(seed in any::<u64>()) {
            let d = Exponential::with_mean(0.002);
            let mut a = SimRng::seed_from(seed);
            let mut b = SimRng::seed_from(seed);
            let secs = d.sample_f64(&mut a);
            let dur = d.sample(&mut b);
            prop_assert_eq!(dur, SimDuration::from_secs_f64(secs));
        }
    }
}
