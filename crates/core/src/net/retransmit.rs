//! TCP retransmission schedules.
//!
//! A dropped SYN produces no signal to the client; recovery happens only when
//! the client's retransmission timer fires. On the paper's RHEL 6.3 testbed
//! the observed effect was a retry every ~3 seconds, producing response-time
//! clusters at 3 s, 6 s and 9 s (Fig. 1). [`RetransmitPolicy::rhel6_syn`]
//! encodes that schedule; [`RetransmitPolicy::exponential`] provides the
//! textbook doubling backoff for ablations.

use ntier_des::time::{SimDuration, SimTime};

/// A retransmission schedule: how long to wait before attempt `n + 1`.
/// Retry `i` (0-based) waits `delays[i]`; past the table's end the sender
/// gives up, so an empty table gives up on the first drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetransmitPolicy {
    delays: Vec<SimDuration>,
}

impl RetransmitPolicy {
    /// The schedule observed by the paper: a retry every 3 s, up to
    /// `retries` attempts (clusters at 3/6/9 s need `retries >= 3`).
    /// `retries = 0` means no retransmit: the first drop fails the request.
    pub fn rhel6_syn(retries: usize) -> Self {
        RetransmitPolicy {
            delays: vec![SimDuration::from_secs(3); retries],
        }
    }

    /// The ceiling applied by [`RetransmitPolicy::exponential`]: Linux's
    /// `TCP_RTO_MAX` of 120 s.
    pub(crate) const DEFAULT_MAX_DELAY: SimDuration = SimDuration::from_secs(120);

    /// Exponential backoff: `initial, 2*initial, 4*initial, ...` for
    /// `retries` attempts (modern kernel behaviour; ablation only), clamped
    /// at `RetransmitPolicy::DEFAULT_MAX_DELAY` (120 s) like a real kernel's
    /// `TCP_RTO_MAX`. `retries = 0` means no retransmit, as for
    /// [`RetransmitPolicy::rhel6_syn`].
    pub fn exponential(initial: SimDuration, retries: usize) -> Self {
        RetransmitPolicy::exponential_capped(initial, retries, Self::DEFAULT_MAX_DELAY)
    }

    /// Exponential backoff with a configurable ceiling: delays double until
    /// they reach `max_delay` and stay there. The doubling saturates instead
    /// of overflowing, so arbitrarily long schedules are safe.
    ///
    /// # Panics
    ///
    /// Panics if `max_delay < initial` — the cap would silently rewrite the
    /// first delay.
    fn exponential_capped(initial: SimDuration, retries: usize, max_delay: SimDuration) -> Self {
        assert!(
            max_delay >= initial,
            "max_delay {max_delay} is below the initial delay {initial}"
        );
        let mut delays = Vec::with_capacity(retries);
        let mut d = initial;
        for _ in 0..retries {
            delays.push(d);
            d = SimDuration::from_micros(d.as_micros().saturating_mul(2)).min(max_delay);
        }
        RetransmitPolicy { delays }
    }

    /// The delay before retry `attempt` (0-based), or `None` when the retry
    /// budget is exhausted.
    fn delay_for(&self, attempt: u32) -> Option<SimDuration> {
        self.delays.get(attempt as usize).copied()
    }

    /// Maximum number of retries.
    #[cfg(test)]
    fn max_retries(&self) -> u32 {
        self.delays.len() as u32
    }

    /// Total added latency if every attempt through `attempt` (inclusive,
    /// 0-based) was dropped.
    #[cfg(test)]
    fn cumulative_delay(&self, attempt: u32) -> SimDuration {
        self.delays
            .iter()
            .take(attempt as usize + 1)
            .copied()
            .fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl Default for RetransmitPolicy {
    /// The paper's schedule with 3 retries (3/6/9 s clusters).
    fn default() -> Self {
        RetransmitPolicy::rhel6_syn(3)
    }
}

/// Per-message retransmission state machine.
#[derive(Debug, Clone, Default)]
pub(crate) struct RetransmitState {
    attempts: u32,
}

/// Outcome of a drop: when to retry, or give up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RetryDecision {
    /// Schedule the retransmitted attempt at this absolute time.
    RetryAt(SimTime),
    /// The retry budget is exhausted.
    GiveUp,
}

impl RetransmitState {
    /// Fresh state: no drops seen yet.
    pub(crate) fn new() -> Self {
        RetransmitState::default()
    }

    /// Registers a drop observed at `now` and decides the next step.
    pub(crate) fn on_drop(&mut self, policy: &RetransmitPolicy, now: SimTime) -> RetryDecision {
        match policy.delay_for(self.attempts) {
            Some(d) => {
                self.attempts += 1;
                RetryDecision::RetryAt(now + d)
            }
            None => RetryDecision::GiveUp,
        }
    }

    /// Number of retransmissions performed so far.
    pub(crate) fn attempts(&self) -> u32 {
        self.attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_drop_retries_at_three_seconds() {
        let policy = RetransmitPolicy::default();
        let mut state = RetransmitState::new();
        // first drop at t=0: retry fires at 3 s
        match state.on_drop(&policy, SimTime::ZERO) {
            RetryDecision::RetryAt(t) => assert_eq!(t, SimTime::from_secs(3)),
            RetryDecision::GiveUp => unreachable!(),
        }
        assert_eq!(state.attempts(), 1);
    }

    #[test]
    fn zero_retries_give_up_on_the_first_drop() {
        for policy in [
            RetransmitPolicy::rhel6_syn(0),
            RetransmitPolicy::exponential(SimDuration::from_secs(1), 0),
        ] {
            assert_eq!(policy.max_retries(), 0);
            let mut state = RetransmitState::new();
            assert_eq!(state.on_drop(&policy, SimTime::ZERO), RetryDecision::GiveUp);
            assert_eq!(state.attempts(), 0);
        }
    }

    #[test]
    fn rhel6_schedule_produces_3_6_9_clusters() {
        let p = RetransmitPolicy::default();
        assert_eq!(p.cumulative_delay(0), SimDuration::from_secs(3));
        assert_eq!(p.cumulative_delay(1), SimDuration::from_secs(6));
        assert_eq!(p.cumulative_delay(2), SimDuration::from_secs(9));
        assert_eq!(p.delay_for(3), None);
    }

    #[test]
    fn exponential_doubles() {
        let p = RetransmitPolicy::exponential(SimDuration::from_secs(1), 4);
        assert_eq!(p.delay_for(0), Some(SimDuration::from_secs(1)));
        assert_eq!(p.delay_for(1), Some(SimDuration::from_secs(2)));
        assert_eq!(p.delay_for(2), Some(SimDuration::from_secs(4)));
        assert_eq!(p.delay_for(3), Some(SimDuration::from_secs(8)));
        assert_eq!(p.max_retries(), 4);
    }

    #[test]
    fn exponential_clamps_at_configured_max() {
        let p = RetransmitPolicy::exponential_capped(
            SimDuration::from_secs(1),
            6,
            SimDuration::from_secs(5),
        );
        assert_eq!(p.delay_for(0), Some(SimDuration::from_secs(1)));
        assert_eq!(p.delay_for(1), Some(SimDuration::from_secs(2)));
        assert_eq!(p.delay_for(2), Some(SimDuration::from_secs(4)));
        // 8 s would exceed the cap; the schedule flattens at 5 s.
        assert_eq!(p.delay_for(3), Some(SimDuration::from_secs(5)));
        assert_eq!(p.delay_for(4), Some(SimDuration::from_secs(5)));
        assert_eq!(p.delay_for(5), Some(SimDuration::from_secs(5)));
    }

    #[test]
    fn exponential_never_overflows_even_for_huge_schedules() {
        // 100 doublings of 1 s would overflow u64 microseconds without the
        // saturating clamp; every delay must sit at the default 120 s cap.
        let p = RetransmitPolicy::exponential(SimDuration::from_secs(1), 100);
        assert_eq!(p.max_retries(), 100);
        for a in 0..100 {
            let d = p.delay_for(a).unwrap();
            assert!(d <= RetransmitPolicy::DEFAULT_MAX_DELAY, "attempt {a}: {d}");
        }
        assert_eq!(p.delay_for(99), Some(RetransmitPolicy::DEFAULT_MAX_DELAY));
    }

    #[test]
    #[should_panic(expected = "below the initial delay")]
    fn cap_below_initial_rejected() {
        let _ = RetransmitPolicy::exponential_capped(
            SimDuration::from_secs(2),
            3,
            SimDuration::from_secs(1),
        );
    }

    #[test]
    fn state_machine_walks_schedule_then_gives_up() {
        let p = RetransmitPolicy::rhel6_syn(2);
        let mut s = RetransmitState::new();
        let t0 = SimTime::from_secs(10);
        assert_eq!(
            s.on_drop(&p, t0),
            RetryDecision::RetryAt(SimTime::from_secs(13))
        );
        assert_eq!(
            s.on_drop(&p, SimTime::from_secs(13)),
            RetryDecision::RetryAt(SimTime::from_secs(16))
        );
        assert_eq!(s.on_drop(&p, SimTime::from_secs(16)), RetryDecision::GiveUp);
        assert_eq!(s.attempts(), 2);
    }

    proptest! {
        /// Cumulative delay is strictly increasing along the schedule.
        #[test]
        fn cumulative_delay_is_increasing(retries in 1usize..10, ms in 1u64..10_000) {
            let p = RetransmitPolicy::exponential(SimDuration::from_millis(ms), retries);
            let mut last = SimDuration::ZERO;
            for a in 0..p.max_retries() {
                let c = p.cumulative_delay(a);
                prop_assert!(c > last);
                last = c;
            }
        }

        /// The state machine never exceeds the retry budget.
        #[test]
        fn attempts_bounded_by_budget(retries in 1usize..8) {
            let p = RetransmitPolicy::rhel6_syn(retries);
            let mut s = RetransmitState::new();
            let mut now = SimTime::ZERO;
            let mut gave_up = false;
            for _ in 0..20 {
                match s.on_drop(&p, now) {
                    RetryDecision::RetryAt(t) => now = t,
                    RetryDecision::GiveUp => { gave_up = true; break; }
                }
            }
            prop_assert!(gave_up);
            prop_assert_eq!(s.attempts(), retries as u32);
        }
    }
}
