//! Resilience telemetry counters.

/// Counters for one hop (or one tier's admission point). The DES engine
/// keeps one per tier plus one for the client hop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Attempts abandoned by the caller's attempt timeout.
    pub timeouts: u64,
    /// Application-level retries actually sent.
    pub retries: u64,
    /// Retries suppressed by an exhausted token-bucket budget (or hedges
    /// suppressed by an exhausted hedge budget).
    pub budget_exhausted: u64,
    /// Requests rejected fast by an open breaker or a shed policy.
    pub shed: u64,
    /// Circuit-breaker state transitions.
    pub breaker_transitions: u64,
    /// Orphaned attempts (abandoned by timeout, or hedge losers with no
    /// cancellation) that still ran to completion downstream — pure wasted
    /// work.
    pub orphan_completions: u64,
    /// Backup (hedge) attempts actually launched.
    pub hedges: u64,
    /// Cancel events delivered to a tier (whether or not they caught the
    /// attempt there).
    pub cancels_propagated: u64,
    /// Attempts a cancel actually reaped — work reclaimed from a queue or
    /// an in-flight set before it finished.
    pub wasted_work_saved: u64,
}

impl ResilienceStats {
    /// Element-wise sum, for whole-run aggregation.
    pub(crate) fn merge(&self, other: &ResilienceStats) -> ResilienceStats {
        ResilienceStats {
            timeouts: self.timeouts + other.timeouts,
            retries: self.retries + other.retries,
            budget_exhausted: self.budget_exhausted + other.budget_exhausted,
            shed: self.shed + other.shed,
            breaker_transitions: self.breaker_transitions + other.breaker_transitions,
            orphan_completions: self.orphan_completions + other.orphan_completions,
            hedges: self.hedges + other.hedges,
            cancels_propagated: self.cancels_propagated + other.cancels_propagated,
            wasted_work_saved: self.wasted_work_saved + other.wasted_work_saved,
        }
    }

    /// `true` when every counter is zero (no resilience activity).
    pub(crate) fn is_quiet(&self) -> bool {
        *self == ResilienceStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let a = ResilienceStats {
            timeouts: 1,
            retries: 2,
            budget_exhausted: 3,
            shed: 4,
            breaker_transitions: 5,
            orphan_completions: 6,
            hedges: 7,
            cancels_propagated: 8,
            wasted_work_saved: 9,
        };
        let b = a.merge(&a);
        assert_eq!(b.timeouts, 2);
        assert_eq!(b.orphan_completions, 12);
        assert_eq!(b.hedges, 14);
        assert_eq!(b.cancels_propagated, 16);
        assert_eq!(b.wasted_work_saved, 18);
        assert!(!b.is_quiet());
        assert!(ResilienceStats::default().is_quiet());
    }
}
