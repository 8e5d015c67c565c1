//! What the controller sees each tick: a windowed, per-replica snapshot.
//!
//! All counters are **deltas since the previous tick** — the controller
//! reacts to what happened in the last window, not run-to-date aggregates
//! that dilute millibottlenecks. Quantiles are likewise computed over
//! recent completions only (histogram delta reads) and are `None` when the
//! window is unpopulated, so actuators hold rather than chase garbage.

use ntier_des::time::{SimDuration, SimTime};

/// One replica as seen at a tick boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReplicaObs {
    /// Instantaneous queue depth (busy + backlogged for sync tiers,
    /// in-flight for async ones).
    pub depth: usize,
    /// Replica is draining: out of the balancer's eligible set but still
    /// finishing admitted work.
    pub draining: bool,
    /// Replica is retired: drained to idle and no longer routable.
    pub retired: bool,
    /// Connection drops at this replica since the previous tick.
    pub drops_delta: u64,
}

/// One tier as seen at a tick boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TierObs {
    /// Every replica ever provisioned at this tier, in id order (retired
    /// replicas stay listed so ids remain stable).
    pub replicas: Vec<ReplicaObs>,
    /// Requests shed at this tier's admission since the previous tick.
    pub shed_delta: u64,
}

impl TierObs {
    /// Replicas currently in the balancer's eligible set.
    pub(crate) fn active(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| !r.draining && !r.retired)
            .count()
    }

    /// Mean queue depth across active replicas; zero when none are active.
    pub(crate) fn mean_active_depth(&self) -> f64 {
        let (mut n, mut sum) = (0usize, 0usize);
        for r in &self.replicas {
            if !r.draining && !r.retired {
                n += 1;
                sum += r.depth;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

/// The full controller input for one tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Observation {
    /// Tick timestamp.
    pub now: SimTime,
    /// Fresh client sends since the previous tick.
    pub injected_delta: u64,
    /// Completions (goodput) since the previous tick.
    pub completed_delta: u64,
    /// Application-level retries fired since the previous tick.
    pub retries_delta: u64,
    /// Hedge attempts fired since the previous tick.
    pub hedges_delta: u64,
    /// Worst drop retransmit ordinal observed in the window (0 = no drops;
    /// 1 = first SYN drop; climbing values mean the 3/6/9 s ladder).
    pub max_retrans_ordinal: u8,
    /// Recent median latency; `None` if no completions landed this window.
    pub recent_p50: Option<SimDuration>,
    /// Recent p99 latency; `None` if no completions landed this window.
    pub recent_p99: Option<SimDuration>,
    /// Recent latency at the hedge tuner's configured quantile; computed
    /// only when a [`crate::control::HedgeTuner`] is armed.
    pub recent_hedge_q: Option<SimDuration>,
    /// Per-tier snapshots in preorder node-id order.
    pub tiers: Vec<TierObs>,
}

impl Observation {
    /// Offered work this window: everything that arrived at the system,
    /// whether a fresh send or an amplification product. The governor's
    /// metastability test compares goodput against this.
    pub(crate) fn offered_delta(&self) -> u64 {
        self.injected_delta + self.retries_delta + self.hedges_delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_depth_ignores_inactive_replicas() {
        let t = TierObs {
            replicas: vec![
                ReplicaObs {
                    depth: 10,
                    ..Default::default()
                },
                ReplicaObs {
                    depth: 100,
                    draining: true,
                    ..Default::default()
                },
                ReplicaObs {
                    depth: 100,
                    retired: true,
                    ..Default::default()
                },
                ReplicaObs {
                    depth: 20,
                    ..Default::default()
                },
            ],
            shed_delta: 0,
        };
        assert_eq!(t.active(), 2);
        assert!((t.mean_active_depth() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn offered_sums_all_arrival_kinds() {
        let obs = Observation {
            injected_delta: 10,
            retries_delta: 5,
            hedges_delta: 2,
            ..Default::default()
        };
        assert_eq!(obs.offered_delta(), 17);
    }
}
