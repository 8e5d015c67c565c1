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

    /// Spreads each batch uniformly over `spread` instead of one instant
    /// (a batch of 400 over 50 ms ≈ an 8000 req/s spike).
    pub fn with_spread(mut self, spread: SimDuration) -> Self {
        self.spread = spread;
        self
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
