//! Simulated time: instants and durations with microsecond resolution.
//!
//! [`SimTime`] is an absolute instant on the simulated clock and
//! [`SimDuration`] is a span between instants. Both are newtypes over a
//! microsecond tick count ([C-NEWTYPE]): using raw `u64`s for both instants
//! and spans is exactly the class of bug this rules out.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in microseconds since the
/// start of the simulation.
///
/// # Example
///
/// ```
/// use ntier_des::time::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(3);
/// assert_eq!(t.as_millis(), 3000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Example
///
/// ```
/// use ntier_des::time::SimDuration;
///
/// let retransmit = SimDuration::from_secs(3);
/// assert_eq!(retransmit * 3, SimDuration::from_secs(9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// The paper's monitoring window: every per-window series, the root-cause
/// lookback and the episode detectors aggregate over 50 ms.
pub const MONITOR_WINDOW: SimDuration = SimDuration::from_millis(50);

/// The paper's VLRT bound: a response of 3 s or more is a "very long
/// response time" request. The engine's VLRT count, the tracer's promotion
/// rule and the root-cause analyzer all read this one value.
pub const VLRT_THRESHOLD: SimDuration = SimDuration::from_secs(3);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `micros` microseconds after the simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since the simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is after `self`, mirroring
    /// `std::time::Instant::saturating_duration_since`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The index of the fixed-size window containing this instant.
    ///
    /// Telemetry uses [`MONITOR_WINDOW`] throughout the reproduction,
    /// matching the paper's monitoring granularity.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn window_index(self, window: SimDuration) -> u64 {
        assert!(window.0 > 0, "window must be non-zero");
        self.0 / window.0
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((secs * 1e6).round() as u64)
    }

    /// The span in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; returns [`SimDuration::ZERO`] on underflow.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(5), SimTime::from_micros(5_000));
        assert_eq!(
            SimDuration::from_secs(1),
            SimDuration::from_micros(1_000_000)
        );
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_millis(40);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_is_zero_for_reversed_order() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(20);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(10));
    }

    #[test]
    fn window_index_uses_50ms_windows() {
        let w = MONITOR_WINDOW;
        assert_eq!(SimTime::from_millis(0).window_index(w), 0);
        assert_eq!(SimTime::from_millis(49).window_index(w), 0);
        assert_eq!(SimTime::from_millis(50).window_index(w), 1);
        assert_eq!(SimTime::from_millis(1_049).window_index(w), 20);
    }

    #[test]
    #[should_panic(expected = "window must be non-zero")]
    fn window_index_rejects_zero_window() {
        let _ = SimTime::from_millis(1).window_index(SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_rounds_to_micros() {
        assert_eq!(
            SimDuration::from_secs_f64(0.0000015),
            SimDuration::from_micros(2)
        );
        assert_eq!(SimDuration::from_secs_f64(3.0), SimDuration::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_secs_f64_rejects_nan() {
        let _ = SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    fn display_picks_readable_units() {
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
        assert_eq!(SimDuration::from_micros(7_500).to_string(), "7.500ms");
        assert_eq!(SimDuration::from_millis(3_000).to_string(), "3.000s");
        assert_eq!(SimTime::from_millis(1_500).to_string(), "1.500s");
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(3);
        assert_eq!(d * 3, SimDuration::from_millis(9));
        assert_eq!(d / 3, SimDuration::from_millis(1));
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
