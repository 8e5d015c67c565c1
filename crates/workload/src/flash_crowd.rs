//! Flash crowds — the "Slashdot effect" the paper cites as the canonical
//! web-facing burst source.
//!
//! A flash crowd is not a square-wave burst: traffic jumps when the link
//! lands and decays roughly exponentially as the crowd loses interest.
//! [`FlashCrowd`] models the arrival intensity as
//!
//! ```text
//! λ(t) = base + peak · exp(−(t − t0) / decay)     for t ≥ t0
//! ```
//!
//! and generates arrivals by thinning a dominating Poisson process, which
//! is exact for any bounded intensity function.

use ntier_des::rng::SimRng;
use ntier_des::time::{SimDuration, SimTime};

/// A flash-crowd arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    base_rate: f64,
    peak_extra: f64,
    onset: SimTime,
    decay_secs: f64,
}

impl FlashCrowd {
    /// Background `base_rate` req/s; at `onset` the rate jumps by
    /// `peak_extra` req/s and decays with time constant `decay_secs`.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative/non-finite, both rates are zero, or
    /// `decay_secs` is not strictly positive.
    pub fn new(base_rate: f64, peak_extra: f64, onset: SimTime, decay_secs: f64) -> Self {
        assert!(
            base_rate.is_finite() && base_rate >= 0.0,
            "base rate must be non-negative"
        );
        assert!(
            peak_extra.is_finite() && peak_extra >= 0.0,
            "peak must be non-negative"
        );
        assert!(base_rate + peak_extra > 0.0, "some traffic is required");
        assert!(
            decay_secs.is_finite() && decay_secs > 0.0,
            "decay must be positive"
        );
        FlashCrowd {
            base_rate,
            peak_extra,
            onset,
            decay_secs,
        }
    }

    /// The instantaneous arrival rate at `t`.
    fn rate_at(&self, t: SimTime) -> f64 {
        if t < self.onset {
            self.base_rate
        } else {
            let dt = (t - self.onset).as_secs_f64();
            self.base_rate + self.peak_extra * (-dt / self.decay_secs).exp()
        }
    }

    /// The peak rate (at onset).
    fn peak_rate(&self) -> f64 {
        self.base_rate + self.peak_extra
    }

    /// Generates all arrivals in `[0, horizon)` by thinning the dominating
    /// Poisson process at the peak rate.
    pub fn arrivals(&self, horizon: SimDuration, rng: &mut SimRng) -> Vec<SimTime> {
        let lambda_max = self.peak_rate();
        let end = SimTime::ZERO + horizon;
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            t += SimDuration::from_secs_f64(-rng.next_f64_open().ln() / lambda_max);
            if t >= end {
                return out;
            }
            if rng.next_f64() < self.rate_at(t) / lambda_max {
                out.push(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crowd() -> FlashCrowd {
        FlashCrowd::new(200.0, 1_800.0, SimTime::from_secs(10), 5.0)
    }

    #[test]
    fn rate_profile_jumps_then_decays() {
        let c = crowd();
        assert_eq!(c.rate_at(SimTime::from_secs(5)), 200.0);
        assert_eq!(c.rate_at(SimTime::from_secs(10)), 2_000.0);
        let r15 = c.rate_at(SimTime::from_secs(15));
        assert!((r15 - (200.0 + 1_800.0 / std::f64::consts::E)).abs() < 1e-9);
        assert!(c.rate_at(SimTime::from_secs(60)) < 210.0);
    }

    #[test]
    fn empirical_rates_track_the_profile() {
        let c = crowd();
        let mut rng = SimRng::seed_from(23);
        let arrivals = c.arrivals(SimDuration::from_secs(40), &mut rng);
        let count_in = |lo: u64, hi: u64| {
            arrivals
                .iter()
                .filter(|t| **t >= SimTime::from_secs(lo) && **t < SimTime::from_secs(hi))
                .count() as f64
        };
        let before = count_in(0, 10) / 10.0;
        let peak = count_in(10, 12) / 2.0;
        let late = count_in(35, 40) / 5.0;
        assert!((before - 200.0).abs() < 40.0, "before {before}");
        assert!(peak > 1_200.0, "peak {peak}");
        assert!(late < 350.0, "late {late}");
    }

    #[test]
    fn arrivals_are_sorted_and_deterministic() {
        let c = crowd();
        let a = c.arrivals(SimDuration::from_secs(20), &mut SimRng::seed_from(1));
        let b = c.arrivals(SimDuration::from_secs(20), &mut SimRng::seed_from(1));
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "decay must be positive")]
    fn zero_decay_rejected() {
        let _ = FlashCrowd::new(100.0, 100.0, SimTime::ZERO, 0.0);
    }
}
