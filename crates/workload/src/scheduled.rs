//! Scheduled request bursts.
//!
//! Section V-B: *"we modified SysBursty to generate specific bursts of
//! requests at specified times. For example, a batch of 400 ViewStory
//! requests arriving every 15 seconds will create reproducible CPU
//! millibottlenecks that last for approximately 300 ms."* A
//! [`BurstSchedule`] is that controlled generator: explicit `(time, size)`
//! batches, optionally spread over a short dispatch window instead of a
//! single instant.

use ntier_des::time::{SimDuration, SimTime};

/// One scheduled batch of requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// When the batch starts arriving.
    pub at: SimTime,
    /// Number of requests in the batch.
    pub size: u32,
}

/// A deterministic schedule of request batches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BurstSchedule {
    bursts: Vec<Burst>,
    spread: SimDuration,
}

impl BurstSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        BurstSchedule::default()
    }

    /// Builds a schedule from explicit `(time, size)` pairs (sorted
    /// internally).
    pub fn from_bursts(bursts: impl IntoIterator<Item = (SimTime, u32)>) -> Self {
        let mut bursts: Vec<Burst> = bursts
            .into_iter()
            .map(|(at, size)| Burst { at, size })
            .collect();
        bursts.sort_by_key(|b| b.at);
        BurstSchedule {
            bursts,
            spread: SimDuration::ZERO,
        }
    }

    /// A periodic schedule: batches of `size` every `period`, starting at
    /// `first`, through `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn periodic(first: SimTime, period: SimDuration, size: u32, horizon: SimDuration) -> Self {
        assert!(!period.is_zero(), "period must be non-zero");
        let mut bursts = Vec::new();
        let mut t = first;
        let end = SimTime::ZERO + horizon;
        while t < end {
            bursts.push(Burst { at: t, size });
            t += period;
        }
        BurstSchedule {
            bursts,
            spread: SimDuration::ZERO,
        }
    }

    /// The §V-B controlled experiment: 400 requests every 15 s.
    pub fn paper_vm_consolidation(horizon: SimDuration) -> Self {
        BurstSchedule::periodic(
            SimTime::from_secs(7),
            SimDuration::from_secs(15),
            400,
            horizon,
        )
    }

    /// The irregular burst marks of Fig. 3 (2, 5, 9, 15 s).
    pub fn paper_fig3(size: u32) -> Self {
        BurstSchedule::from_bursts(
            [2u64, 5, 9, 15]
                .into_iter()
                .map(|s| (SimTime::from_secs(s), size)),
        )
    }

    /// Spreads each batch uniformly over `spread` instead of one instant
    /// (a batch of 400 over 50 ms ≈ an 8000 req/s spike).
    pub fn with_spread(mut self, spread: SimDuration) -> Self {
        self.spread = spread;
        self
    }

    /// The scheduled batches.
    pub fn bursts(&self) -> &[Burst] {
        &self.bursts
    }

    /// Expands the schedule into individual request arrival times (sorted).
    pub fn arrivals(&self) -> Vec<SimTime> {
        let mut out = Vec::new();
        for b in &self.bursts {
            for i in 0..b.size {
                let offset = if self.spread.is_zero() || b.size <= 1 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_micros(
                        self.spread.as_micros() * u64::from(i) / u64::from(b.size - 1),
                    )
                };
                out.push(b.at + offset);
            }
        }
        out.sort();
        out
    }

    /// Total requests across all batches.
    pub fn total_requests(&self) -> u64 {
        self.bursts.iter().map(|b| u64::from(b.size)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_generates_batches_through_horizon() {
        let s = BurstSchedule::periodic(
            SimTime::from_secs(7),
            SimDuration::from_secs(15),
            400,
            SimDuration::from_secs(60),
        );
        let at: Vec<u64> = s
            .bursts()
            .iter()
            .map(|b| b.at.as_millis() / 1_000)
            .collect();
        assert_eq!(at, vec![7, 22, 37, 52]);
        assert_eq!(s.total_requests(), 1_600);
    }

    #[test]
    fn fig3_marks() {
        let s = BurstSchedule::paper_fig3(400);
        let at: Vec<u64> = s
            .bursts()
            .iter()
            .map(|b| b.at.as_millis() / 1_000)
            .collect();
        assert_eq!(at, vec![2, 5, 9, 15]);
    }

    #[test]
    fn arrivals_expand_and_sort() {
        let s =
            BurstSchedule::from_bursts([(SimTime::from_secs(5), 3), (SimTime::from_secs(1), 2)]);
        let a = s.arrivals();
        assert_eq!(a.len(), 5);
        assert_eq!(a[0], SimTime::from_secs(1));
        assert_eq!(a[4], SimTime::from_secs(5));
    }

    #[test]
    fn spread_distributes_batch_over_window() {
        let s = BurstSchedule::from_bursts([(SimTime::from_secs(1), 5)])
            .with_spread(SimDuration::from_millis(40));
        let a = s.arrivals();
        assert_eq!(a[0], SimTime::from_secs(1));
        assert_eq!(
            *a.last().unwrap(),
            SimTime::from_secs(1) + SimDuration::from_millis(40)
        );
        // strictly increasing offsets
        for w in a.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn singleton_batch_ignores_spread() {
        let s = BurstSchedule::from_bursts([(SimTime::from_secs(1), 1)])
            .with_spread(SimDuration::from_millis(40));
        assert_eq!(s.arrivals(), vec![SimTime::from_secs(1)]);
    }

    #[test]
    fn empty_schedule() {
        let s = BurstSchedule::new();
        assert!(s.arrivals().is_empty());
        assert_eq!(s.total_requests(), 0);
    }
}
