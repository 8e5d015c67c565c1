//! Closed-loop client populations (the RUBBoS model).
//!
//! A closed system with `N` clients and mean think time `Z` obeys the
//! interactive response-time law: `throughput ≈ N / (Z + R)`. The paper's
//! workloads WL 4000/7000/8000 with throughputs 572/990/1103 req/s pin the
//! effective think time at ≈7 s, which is this module's default.

use ntier_des::dist::{Distribution, Exponential};
use ntier_des::rng::SimRng;
use ntier_des::time::SimDuration;

/// How clients issue their *first* request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Start {
    /// Uniformly spread over a fixed window.
    Uniform(SimDuration),
    /// Each client first thinks once — the population starts in (approximate)
    /// steady state, with no ramp-end overload transient.
    Stationary,
}

/// Configuration of a closed-loop client population.
#[derive(Debug)]
pub struct ClosedLoopSpec {
    clients: u32,
    think: Box<dyn Distribution>,
    start: Start,
}

impl ClosedLoopSpec {
    /// `clients` emulated browsers with the given think-time distribution.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero.
    pub fn new(clients: u32, think: Box<dyn Distribution>) -> Self {
        assert!(clients > 0, "a closed loop needs at least one client");
        ClosedLoopSpec {
            clients,
            think,
            start: Start::Stationary,
        }
    }

    /// The paper's calibration: exponential think time with a 7 s mean.
    pub fn rubbos(clients: u32) -> Self {
        ClosedLoopSpec::new(clients, Box::new(Exponential::with_mean(7.0)))
    }

    /// Spreads first requests uniformly over `ramp` instead of the default
    /// stationary start (a zero ramp makes all clients fire at t=0 — useful
    /// for deliberate synchronized bursts).
    pub fn with_ramp(mut self, ramp: SimDuration) -> Self {
        self.start = Start::Uniform(ramp);
        self
    }

    /// Number of clients.
    pub fn clients(&self) -> u32 {
        self.clients
    }

    /// Draws one think-time gap.
    pub fn think_time(&self, rng: &mut SimRng) -> SimDuration {
        self.think.sample(rng)
    }

    /// Mean think time in seconds.
    #[cfg(test)]
    fn mean_think_secs(&self) -> f64 {
        self.think.mean_f64()
    }

    /// Draws one client's start offset: a think-time sample (stationary
    /// start, the default) or a uniform draw over the ramp window.
    pub fn start_offset(&self, rng: &mut SimRng) -> SimDuration {
        match self.start {
            Start::Stationary => self.think.sample(rng),
            Start::Uniform(ramp) if ramp.is_zero() => SimDuration::ZERO,
            Start::Uniform(ramp) => SimDuration::from_micros(rng.below(ramp.as_micros())),
        }
    }

    /// The throughput predicted by the interactive response-time law for a
    /// given mean response time (seconds): `N / (Z + R)`.
    #[cfg(test)]
    fn predicted_throughput(&self, mean_response_secs: f64) -> f64 {
        f64::from(self.clients) / (self.mean_think_secs() + mean_response_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rubbos_defaults_reproduce_fig1_ratios() {
        // WL 7000 @ R ~ a few ms => ~1000 req/s, matching Fig. 1(b)'s 990.
        let spec = ClosedLoopSpec::rubbos(7_000);
        let tput = spec.predicted_throughput(0.005);
        assert!((950.0..1_050.0).contains(&tput), "tput = {tput}");
        // WL 4000 => ~571 req/s, matching Fig. 1(a)'s 572.
        let tput = ClosedLoopSpec::rubbos(4_000).predicted_throughput(0.005);
        assert!((540.0..600.0).contains(&tput), "tput = {tput}");
    }

    #[test]
    fn think_times_have_the_configured_mean() {
        let spec = ClosedLoopSpec::rubbos(10);
        let mut rng = SimRng::seed_from(3);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| spec.think_time(&mut rng).as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 7.0).abs() < 0.2, "mean think {mean}");
    }

    #[test]
    fn ramp_spreads_start_offsets() {
        let spec = ClosedLoopSpec::rubbos(10).with_ramp(SimDuration::from_secs(2));
        let mut rng = SimRng::seed_from(4);
        for _ in 0..100 {
            assert!(spec.start_offset(&mut rng) < SimDuration::from_secs(2));
        }
    }

    #[test]
    fn stationary_start_matches_think_distribution() {
        let spec = ClosedLoopSpec::rubbos(10);
        let mut rng = SimRng::seed_from(6);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| spec.start_offset(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 7.0).abs() < 0.2, "mean start offset {mean}");
    }

    #[test]
    fn zero_ramp_means_simultaneous_start() {
        let spec = ClosedLoopSpec::rubbos(10).with_ramp(SimDuration::ZERO);
        let mut rng = SimRng::seed_from(5);
        assert_eq!(spec.start_offset(&mut rng), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let _ = ClosedLoopSpec::rubbos(0);
    }
}
