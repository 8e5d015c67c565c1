//! VM-consolidation interference (§IV-A).
//!
//! SysBursty's MySQL VM shares a physical core with SysSteady's Tomcat VM.
//! SysBursty idles most of the time (negligible CPU) but its workload has a
//! burst index of 100: every burst dumps a batch of queries whose combined
//! demand saturates the shared core for `batch_size × per_request_demand`
//! seconds, starving the steady tier — a CPU millibottleneck.
//!
//! [`Colocation`] converts a burst description into the steady tier's stall
//! schedule, in the paper's controlled form: batches at fixed times (§V-B).

use ntier_des::time::{SimDuration, SimTime};

use crate::stall::StallSchedule;

/// A co-located bursty VM stealing the shared core.
#[derive(Debug, Clone, PartialEq)]
pub struct Colocation {
    batch_size: u32,
    per_request_demand: SimDuration,
}

impl Colocation {
    /// A hog whose bursts contain `batch_size` requests of
    /// `per_request_demand` CPU each.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero or the demand is zero.
    pub fn new(batch_size: u32, per_request_demand: SimDuration) -> Self {
        assert!(batch_size > 0, "a burst needs at least one request");
        assert!(
            !per_request_demand.is_zero(),
            "per-request demand must be non-zero"
        );
        Colocation {
            batch_size,
            per_request_demand,
        }
    }

    /// The stall each burst inflicts on the steady tier.
    fn stall_duration(&self) -> SimDuration {
        self.per_request_demand * u64::from(self.batch_size)
    }

    /// Stalls at explicit burst times (the §V-B controlled experiment).
    pub fn at_marks(&self, marks: impl IntoIterator<Item = SimTime>) -> StallSchedule {
        StallSchedule::at_marks(marks, self.stall_duration())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_arithmetic_of_section_3() {
        // §III: 1000 req/s × 0.4 s burst = 400 arrivals vs 278 capacity.
        // A 0.4 s stall needs e.g. 400 requests of 1 ms.
        let c = Colocation::new(400, SimDuration::from_millis(1));
        assert_eq!(c.stall_duration(), SimDuration::from_millis(400));
    }

    #[test]
    fn at_marks_places_stalls() {
        // The §V-B hog: 400 ViewStory requests of 0.75 ms, 300 ms per burst.
        let c = Colocation::new(400, SimDuration::from_micros(750));
        let s = c.at_marks([2, 5, 9, 15].map(SimTime::from_secs));
        assert_eq!(s.intervals().len(), 4);
        let (start, end) = s.intervals()[0];
        assert_eq!(start, SimTime::from_secs(2));
        assert_eq!(end, SimTime::from_secs(2) + SimDuration::from_millis(300));
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_batch_rejected() {
        let _ = Colocation::new(0, SimDuration::from_millis(1));
    }
}
