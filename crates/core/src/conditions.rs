//! The paper's §III dynamic conditions for millibottlenecks to produce VLRT
//! requests: the capacity arithmetic of one millibottleneck. At arrival
//! rate λ and stall duration `d`, `λ·d` requests arrive while the tier can
//! absorb `MaxSysQDepth`; the excess drops. The paper's illustrative
//! example — 1000 req/s × 0.4 s = 400 > 278 = 150 + 128 — is
//! [`DynamicConditions::paper_example`].

use ntier_des::time::SimDuration;

/// The dynamic (per-millibottleneck) conditions of §III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConditions {
    /// Arrival rate at the overflowing tier, requests per second.
    pub arrival_rate: f64,
    /// Millibottleneck duration.
    pub stall: SimDuration,
    /// Queueable capacity of the overflowing tier (`MaxSysQDepth`).
    pub capacity: usize,
}

impl DynamicConditions {
    /// Creates the condition set.
    ///
    /// # Panics
    ///
    /// Panics if `arrival_rate` is not positive/finite.
    pub fn new(arrival_rate: f64, stall: SimDuration, capacity: usize) -> Self {
        assert!(
            arrival_rate.is_finite() && arrival_rate > 0.0,
            "arrival rate must be positive"
        );
        DynamicConditions {
            arrival_rate,
            stall,
            capacity,
        }
    }

    /// The paper's worked example: 1000 req/s, 0.4 s stall, 150 + 128 slots.
    pub fn paper_example() -> Self {
        DynamicConditions::new(1_000.0, SimDuration::from_millis(400), 278)
    }

    /// Requests arriving during the stall: `λ·d`.
    fn arrivals_during_stall(&self) -> f64 {
        self.arrival_rate * self.stall.as_secs_f64()
    }

    /// Expected requests beyond capacity (`max(0, λ·d − MaxSysQDepth)`).
    pub fn expected_excess(&self) -> f64 {
        (self.arrivals_during_stall() - self.capacity as f64).max(0.0)
    }

    /// `true` when drops are expected.
    pub fn drops_expected(&self) -> bool {
        self.arrivals_during_stall() > self.capacity as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_overflows_by_122() {
        let d = DynamicConditions::paper_example();
        assert_eq!(d.arrivals_during_stall(), 400.0);
        assert!(d.drops_expected());
        assert_eq!(d.expected_excess(), 122.0);
    }

    #[test]
    fn critical_stall_is_the_break_even_point() {
        let below = DynamicConditions::new(1_000.0, SimDuration::from_millis(278), 278);
        assert!(!below.drops_expected());
        let above = DynamicConditions::new(1_000.0, SimDuration::from_millis(279), 278);
        assert!(above.drops_expected());
    }
}
