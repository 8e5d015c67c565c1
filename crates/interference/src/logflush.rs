//! Log-flush I/O millibottlenecks (§IV-B).
//!
//! The `collectl` monitor buffers fine-grained measurements in memory and
//! flushes to disk every 30 seconds; on the paper's testbed each flush drove
//! the database VM to 100 % I/O wait for hundreds of milliseconds, stalling
//! query processing — an I/O millibottleneck with a perfectly regular
//! period, which is why Fig. 5's VLRT spikes land at 10/40/70 s.

use ntier_des::time::{SimDuration, SimTime};

use crate::stall::StallSchedule;

/// A periodic I/O stall from monitoring-log flushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFlush {
    period: SimDuration,
    flush_duration: SimDuration,
    first: SimTime,
}

impl LogFlush {
    /// Flushes every `period`, each stalling the server for
    /// `flush_duration`, starting at `first`.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `flush_duration` is zero.
    pub fn new(first: SimTime, period: SimDuration, flush_duration: SimDuration) -> Self {
        assert!(!period.is_zero(), "period must be non-zero");
        assert!(!flush_duration.is_zero(), "flush duration must be non-zero");
        LogFlush {
            period,
            flush_duration,
            first,
        }
    }

    /// The stall schedule over `horizon`.
    pub fn schedule(&self, horizon: SimDuration) -> StallSchedule {
        StallSchedule::periodic(self.first, self.period, self.flush_duration, horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custom_period() {
        let lf = LogFlush::new(
            SimTime::from_secs(5),
            SimDuration::from_secs(10),
            SimDuration::from_millis(200),
        );
        let s = lf.schedule(SimDuration::from_secs(30));
        assert_eq!(s.intervals().len(), 3);
    }

    #[test]
    #[should_panic(expected = "period must be non-zero")]
    fn zero_period_rejected() {
        let _ = LogFlush::new(
            SimTime::ZERO,
            SimDuration::ZERO,
            SimDuration::from_millis(1),
        );
    }
}
