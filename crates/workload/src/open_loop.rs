//! Open-loop arrival processes: Poisson and bursty MMPP-2.
//!
//! The dynamic condition for CTQO (§III) is stated in open-loop terms —
//! "1000 requests/sec for 0.4 s fills 400 slots" — so the capacity
//! arithmetic tests and several benches drive tiers with open arrivals.
//! Burstiness (the paper's burst index, after [Mi et al., ICAC'09]) is
//! modelled as a two-state Markov-modulated Poisson process: a *normal*
//! state with the base rate and a *burst* state with an elevated rate.

use ntier_des::rng::SimRng;
use ntier_des::time::{SimDuration, SimTime};

/// A homogeneous Poisson arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonProcess {
    rate: f64,
}

impl PoissonProcess {
    /// A process with `rate` arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        PoissonProcess { rate }
    }

    /// Mean arrivals per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Draws the gap to the next arrival.
    pub fn next_gap(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(-rng.next_f64_open().ln() / self.rate)
    }

    /// Generates all arrival times in `[0, horizon)`.
    pub fn arrivals(&self, horizon: SimDuration, rng: &mut SimRng) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO + self.next_gap(rng);
        let end = SimTime::ZERO + horizon;
        while t < end {
            out.push(t);
            t += self.next_gap(rng);
        }
        out
    }
}

/// Which state an [`Mmpp2`] is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Normal,
    Burst,
}

/// A two-state Markov-modulated Poisson process.
///
/// In the *normal* state arrivals follow `base_rate`; sojourns in the
/// *burst* state (entered with exponentially distributed inter-burst gaps)
/// use `burst_rate`. Raising `burst_rate` or burst sojourn time raises the
/// index of dispersion of windowed arrival counts — the burst index.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
/// use ntier_workload::Mmpp2;
///
/// let mut bursty = Mmpp2::new(100.0, 2_000.0, 15.0, 0.3);
/// let mut rng = SimRng::seed_from(1);
/// let arrivals = bursty.arrivals(SimDuration::from_secs(60), &mut rng);
/// assert!(!arrivals.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Mmpp2 {
    base_rate: f64,
    burst_rate: f64,
    mean_normal_sojourn_secs: f64,
    mean_burst_sojourn_secs: f64,
    phase: Phase,
    phase_ends: SimTime,
}

impl Mmpp2 {
    /// Creates a bursty process.
    ///
    /// * `base_rate` / `burst_rate` — arrivals per second in each state;
    /// * `mean_normal_sojourn_secs` — mean time between bursts;
    /// * `mean_burst_sojourn_secs` — mean burst duration (sub-second values
    ///   produce millibottleneck-scale bursts).
    ///
    /// # Panics
    ///
    /// Panics if any rate or sojourn is not strictly positive/finite.
    pub fn new(
        base_rate: f64,
        burst_rate: f64,
        mean_normal_sojourn_secs: f64,
        mean_burst_sojourn_secs: f64,
    ) -> Self {
        assert!(
            base_rate.is_finite() && base_rate > 0.0,
            "base rate must be positive"
        );
        assert!(
            burst_rate.is_finite() && burst_rate > 0.0,
            "burst rate must be positive"
        );
        assert!(
            mean_normal_sojourn_secs.is_finite() && mean_normal_sojourn_secs > 0.0,
            "normal sojourn must be positive"
        );
        assert!(
            mean_burst_sojourn_secs.is_finite() && mean_burst_sojourn_secs > 0.0,
            "burst sojourn must be positive"
        );
        Mmpp2 {
            base_rate,
            burst_rate,
            mean_normal_sojourn_secs,
            mean_burst_sojourn_secs,
            phase: Phase::Normal,
            phase_ends: SimTime::ZERO,
        }
    }

    /// The long-run mean arrival rate.
    pub fn mean_rate(&self) -> f64 {
        let n = self.mean_normal_sojourn_secs;
        let b = self.mean_burst_sojourn_secs;
        (self.base_rate * n + self.burst_rate * b) / (n + b)
    }

    fn current_rate(&self) -> f64 {
        match self.phase {
            Phase::Normal => self.base_rate,
            Phase::Burst => self.burst_rate,
        }
    }

    fn advance_phase(&mut self, now: SimTime, rng: &mut SimRng) {
        while now >= self.phase_ends {
            let (next, sojourn) = match self.phase {
                Phase::Normal => (Phase::Burst, self.mean_burst_sojourn_secs),
                Phase::Burst => (Phase::Normal, self.mean_normal_sojourn_secs),
            };
            // On first call, initialize with a normal-phase sojourn instead
            // of flipping straight into a burst at t=0.
            if self.phase_ends == SimTime::ZERO
                && self.phase == Phase::Normal
                && now == SimTime::ZERO
            {
                let s = -self.mean_normal_sojourn_secs * rng.next_f64_open().ln();
                self.phase_ends = now + SimDuration::from_secs_f64(s);
                continue;
            }
            self.phase = next;
            let s = -sojourn * rng.next_f64_open().ln();
            self.phase_ends += SimDuration::from_secs_f64(s);
        }
    }

    /// The next arrival strictly after `t` and before `end`, or `None` once
    /// the walk crosses `end` — the incremental form behind both
    /// [`Self::arrivals`] and the streaming
    /// [`crate::source::MmppSource`]. The rng draw sequence (phase
    /// sojourns interleaved with gap draws) is identical either way, so
    /// the streamed and materialized arrival lists agree exactly.
    pub fn next_before(
        &mut self,
        mut t: SimTime,
        end: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimTime> {
        loop {
            self.advance_phase(t, rng);
            let gap = SimDuration::from_secs_f64(-rng.next_f64_open().ln() / self.current_rate());
            // If the gap crosses a phase boundary, restart the draw at the
            // boundary (memorylessness makes this exact).
            let candidate = t + gap;
            if candidate >= self.phase_ends {
                t = self.phase_ends;
                if t >= end {
                    return None;
                }
                continue;
            }
            if candidate >= end {
                return None;
            }
            return Some(candidate);
        }
    }

    /// Generates all arrival times in `[0, horizon)`.
    pub fn arrivals(&mut self, horizon: SimDuration, rng: &mut SimRng) -> Vec<SimTime> {
        let mut out = Vec::new();
        let end = SimTime::ZERO + horizon;
        let mut t = SimTime::ZERO;
        while let Some(next) = self.next_before(t, end, rng) {
            out.push(next);
            t = next;
        }
        out
    }
}

/// Bins arrival times into fixed windows and returns per-window counts —
/// feed the result to `ntier_telemetry::stats::index_of_dispersion` to
/// measure burstiness.
#[cfg(test)]
fn windowed_counts(arrivals: &[SimTime], window: SimDuration, horizon: SimDuration) -> Vec<f64> {
    assert!(!window.is_zero(), "window must be non-zero");
    let n = (horizon.as_micros() / window.as_micros()) as usize;
    let mut counts = vec![0.0; n.max(1)];
    for t in arrivals {
        let idx = t.window_index(window) as usize;
        if idx < counts.len() {
            counts[idx] += 1.0;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn poisson_rate_converges() {
        let p = PoissonProcess::new(1_000.0);
        let mut rng = SimRng::seed_from(7);
        let arrivals = p.arrivals(SimDuration::from_secs(20), &mut rng);
        let rate = arrivals.len() as f64 / 20.0;
        assert!((rate - 1_000.0).abs() < 50.0, "rate = {rate}");
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_in_horizon() {
        let p = PoissonProcess::new(200.0);
        let mut rng = SimRng::seed_from(8);
        let horizon = SimDuration::from_secs(5);
        let arrivals = p.arrivals(horizon, &mut rng);
        for w in arrivals.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(arrivals.iter().all(|t| *t < SimTime::ZERO + horizon));
    }

    #[test]
    fn mmpp_mean_rate_formula() {
        let m = Mmpp2::new(100.0, 1_000.0, 9.0, 1.0);
        assert!((m.mean_rate() - 190.0).abs() < 1e-9);
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        let window = SimDuration::from_millis(100);
        let horizon = SimDuration::from_secs(120);
        let mut rng = SimRng::seed_from(9);
        let poisson = PoissonProcess::new(500.0).arrivals(horizon, &mut rng);
        let mut m = Mmpp2::new(300.0, 4_000.0, 10.0, 0.4);
        let bursty = m.arrivals(horizon, &mut rng);
        let iod_p = ntier_telemetry_stats_iod(&windowed_counts(&poisson, window, horizon));
        let iod_b = ntier_telemetry_stats_iod(&windowed_counts(&bursty, window, horizon));
        assert!(
            iod_b > iod_p * 3.0,
            "burst IoD {iod_b:.1} should dwarf Poisson IoD {iod_p:.1}"
        );
    }

    // Local copy of index-of-dispersion to avoid a dev-dependency cycle with
    // ntier-telemetry (which depends on nothing here, but keeps layering
    // clean: workload is telemetry-free).
    fn ntier_telemetry_stats_iod(counts: &[f64]) -> f64 {
        let mean = counts.iter().sum::<f64>() / counts.len().max(1) as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>()
            / counts.len().max(1) as f64;
        var / mean
    }

    #[test]
    fn mmpp_rate_converges_to_mean_rate() {
        // Burst cycles are ~5.5 s, so a single 300 s run has high variance;
        // average the empirical rate across seeds.
        let expect = Mmpp2::new(200.0, 2_000.0, 5.0, 0.5).mean_rate();
        let horizon = SimDuration::from_secs(300);
        let mut total = 0usize;
        let seeds = [10u64, 11, 12, 13, 14, 15];
        for seed in seeds {
            let mut m = Mmpp2::new(200.0, 2_000.0, 5.0, 0.5);
            let mut rng = SimRng::seed_from(seed);
            total += m.arrivals(horizon, &mut rng).len();
        }
        let rate = total as f64 / (300.0 * seeds.len() as f64);
        assert!(
            (rate - expect).abs() / expect < 0.12,
            "rate {rate}, expect {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn poisson_rejects_zero_rate() {
        let _ = PoissonProcess::new(0.0);
    }

    proptest! {
        #[test]
        fn windowed_counts_conserve_arrivals(times in proptest::collection::vec(0u64..10_000, 0..200)) {
            let arrivals: Vec<SimTime> = times.iter().map(|t| SimTime::from_millis(*t)).collect();
            let horizon = SimDuration::from_secs(10);
            let counts = windowed_counts(&arrivals, SimDuration::from_millis(50), horizon);
            let total: f64 = counts.iter().sum();
            let expect = arrivals.iter().filter(|t| **t < SimTime::ZERO + horizon).count();
            prop_assert_eq!(total as usize, expect);
        }

        #[test]
        fn mmpp_arrivals_sorted(seed in any::<u64>()) {
            let mut m = Mmpp2::new(100.0, 1_000.0, 2.0, 0.2);
            let mut rng = SimRng::seed_from(seed);
            let arrivals = m.arrivals(SimDuration::from_secs(10), &mut rng);
            for w in arrivals.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }
}
