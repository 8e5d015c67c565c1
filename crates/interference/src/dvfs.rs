//! DVFS-induced slowdowns (extension).
//!
//! The paper cites earlier work (\[31\], ICDCS'13) identifying CPU
//! frequency-scaling transients as another millibottleneck source: the
//! governor drops the clock under a transient lull, and the next burst runs
//! at a fraction of full speed until the governor catches up. A slowdown is
//! not a full stall; [`DvfsSlowdown`] approximates running at fraction `f`
//! of full speed over a window by interleaving fine-grained duty-cycle
//! stalls — exact in aggregate at any observation scale coarser than the
//! quantum, and directly consumable by `StallTimeline`.

use ntier_des::time::{SimDuration, SimTime};

use crate::stall::StallSchedule;

/// A frequency-drop interval rendered as duty-cycle stalls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsSlowdown {
    speed_fraction: f64,
    quantum: SimDuration,
}

impl DvfsSlowdown {
    /// Runs at `speed_fraction` of full speed (in `(0, 1]`) with the given
    /// duty-cycle quantum (e.g. 1 ms).
    ///
    /// # Panics
    ///
    /// Panics if `speed_fraction` is not in `(0, 1]` or `quantum` is zero.
    pub fn new(speed_fraction: f64, quantum: SimDuration) -> Self {
        assert!(
            speed_fraction > 0.0 && speed_fraction <= 1.0,
            "speed fraction must be in (0, 1]"
        );
        assert!(!quantum.is_zero(), "quantum must be non-zero");
        DvfsSlowdown {
            speed_fraction,
            quantum,
        }
    }

    /// Renders the slowdown over `[start, start + duration)` as a stall
    /// schedule: within each quantum, the CPU is stalled for
    /// `(1 - speed_fraction)` of the quantum.
    pub fn over(&self, start: SimTime, duration: SimDuration) -> StallSchedule {
        let q = self.quantum.as_micros();
        let stall_per_q = ((1.0 - self.speed_fraction) * q as f64).round() as u64;
        if stall_per_q == 0 {
            return StallSchedule::none();
        }
        let mut intervals = Vec::new();
        let mut cursor = start.as_micros();
        let end = (start + duration).as_micros();
        while cursor < end {
            let stall_end = (cursor + stall_per_q).min(end);
            intervals.push((
                SimTime::from_micros(cursor),
                SimTime::from_micros(stall_end),
            ));
            cursor += q;
        }
        StallSchedule::from_intervals(intervals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_speed_stalls_half_the_time() {
        let d = DvfsSlowdown::new(0.5, SimDuration::from_millis(1));
        let s = d.over(SimTime::ZERO, SimDuration::from_millis(100));
        let total = s.total_stall();
        assert_eq!(total, SimDuration::from_millis(50));
    }

    #[test]
    fn full_speed_produces_no_stalls() {
        let d = DvfsSlowdown::new(1.0, SimDuration::from_millis(1));
        assert!(d.over(SimTime::ZERO, SimDuration::from_secs(1)).is_empty());
    }

    #[test]
    fn governor_dip_extends_effective_demand() {
        use ntier_server::cpu::{CpuModel, StallTimeline};
        // A governor dip to 40 % speed with a 1 ms quantum.
        let d = DvfsSlowdown::new(0.4, SimDuration::from_millis(1));
        let s = d.over(SimTime::from_millis(100), SimDuration::from_millis(200));
        let mut cpu = CpuModel::new(
            1,
            StallTimeline::from_intervals(s.intervals().iter().copied()),
        );
        // 10 ms of demand submitted at the dip start takes ~10/0.4 = 25 ms.
        let end = cpu.run_with(
            SimTime::from_millis(100),
            SimDuration::from_millis(10),
            |_, _| {},
        );
        let elapsed = end - SimTime::from_millis(100);
        let expect_ms = 10.0 / 0.4;
        assert!(
            (elapsed.as_secs_f64() * 1e3 - expect_ms).abs() < 2.0,
            "elapsed {elapsed}, expected ~{expect_ms} ms"
        );
    }

    #[test]
    #[should_panic(expected = "speed fraction")]
    fn zero_speed_rejected() {
        let _ = DvfsSlowdown::new(0.0, SimDuration::from_millis(1));
    }
}
