//! The controller decision log: every action, timestamped and explained.
//!
//! The log is the control plane's trace — it rides into `RunReport` and
//! joins the causal analyzer so a VLRT chain can say "scale-up arrived
//! 400 ms after the millibottleneck". Entries carry a human-readable
//! `reason` (the evidence at decision time), which keeps the amplifying
//! configurations honest: when a controller makes things worse, the log
//! shows exactly which rule fired on which observation.

use ntier_des::time::{SimDuration, SimTime};
use std::fmt;

/// One actuation the controller performed (or scheduled).
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Decided to add a replica; it comes online after the provisioning
    /// lag. `target` is the active+pending count after this decision.
    ScaleUp { tier: usize, target: usize },
    /// A provisioned replica came online.
    ReplicaOnline { tier: usize, replica: usize },
    /// Began draining a replica (out of the eligible set, finishing work).
    Drain { tier: usize, replica: usize },
    /// A drained replica went idle and was retired.
    Retire { tier: usize, replica: usize },
    /// Re-targeted the hedge fire delay.
    SetHedgeDelay { delay: SimDuration },
    /// Re-clamped a tier's AIMD admission bounds.
    SetAimdBounds { tier: usize, min: f64, max: f64 },
    /// Engaged the overload brake at a tier.
    Brake { tier: usize, depth: usize },
    /// Released the overload brake.
    Release { tier: usize },
    /// Ejected a replica from balancer eligibility on gray-failure
    /// evidence; in-flight and RTO-limbo work still drains to it.
    Ejected { tier: usize, replica: usize },
    /// Reinstated an ejected replica after a clean probation.
    Reinstated { tier: usize, replica: usize },
}

impl Action {
    /// The tier this action touches, when it is tier-scoped.
    pub(crate) fn tier(&self) -> Option<usize> {
        match *self {
            Action::ScaleUp { tier, .. }
            | Action::ReplicaOnline { tier, .. }
            | Action::Drain { tier, .. }
            | Action::Retire { tier, .. }
            | Action::SetAimdBounds { tier, .. }
            | Action::Brake { tier, .. }
            | Action::Release { tier }
            | Action::Ejected { tier, .. }
            | Action::Reinstated { tier, .. } => Some(tier),
            Action::SetHedgeDelay { .. } => None,
        }
    }

    /// Compact label for tables and causal-chain narration.
    pub fn label(&self) -> String {
        match *self {
            Action::ScaleUp { tier, target } => format!("scale-up(t{tier} -> {target})"),
            Action::ReplicaOnline { tier, replica } => format!("online(t{tier}#{replica})"),
            Action::Drain { tier, replica } => format!("drain(t{tier}#{replica})"),
            Action::Retire { tier, replica } => format!("retire(t{tier}#{replica})"),
            Action::SetHedgeDelay { delay } => {
                format!("hedge-delay({}ms)", delay.as_micros() / 1_000)
            }
            Action::SetAimdBounds { tier, min, max } => {
                format!("aimd-bounds(t{tier} [{min:.0},{max:.0}])")
            }
            Action::Brake { tier, depth } => format!("brake(t{tier} depth<={depth})"),
            Action::Release { tier } => format!("release(t{tier})"),
            Action::Ejected { tier, replica } => format!("eject(t{tier}#{replica})"),
            Action::Reinstated { tier, replica } => format!("reinstate(t{tier}#{replica})"),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A timestamped action plus the evidence that triggered it.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// When the controller acted.
    pub at: SimTime,
    /// What it did.
    pub action: Action,
    /// The observation that justified it, rendered at decision time.
    pub reason: String,
}

/// The full decision history of one controlled run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControlLog {
    /// Decisions in actuation order.
    pub decisions: Vec<Decision>,
    /// Controller ticks executed (decisions or not).
    pub ticks: u64,
}

impl ControlLog {
    /// Records a decision.
    pub(crate) fn push(&mut self, at: SimTime, action: Action, reason: String) {
        self.decisions.push(Decision { at, action, reason });
    }

    /// Decisions matching a predicate on the action.
    pub fn count(&self, f: impl Fn(&Action) -> bool) -> usize {
        self.decisions.iter().filter(|d| f(&d.action)).count()
    }

    /// One-line per-kind tally, e.g. `ticks=400 up=2 online=2 drain=1
    /// retire=1 brake=1 release=1 hedge=3 aimd=2`. Health tallies
    /// (`eject=… reinstate=…`) are appended only when at least one health
    /// decision was logged, so runs without a health detector keep the
    /// historical format byte for byte.
    pub fn summary(&self) -> String {
        let k = |f: fn(&Action) -> bool| self.count(f);
        let mut s = format!(
            "ticks={} up={} online={} drain={} retire={} brake={} release={} hedge={} aimd={}",
            self.ticks,
            k(|a| matches!(a, Action::ScaleUp { .. })),
            k(|a| matches!(a, Action::ReplicaOnline { .. })),
            k(|a| matches!(a, Action::Drain { .. })),
            k(|a| matches!(a, Action::Retire { .. })),
            k(|a| matches!(a, Action::Brake { .. })),
            k(|a| matches!(a, Action::Release { .. })),
            k(|a| matches!(a, Action::SetHedgeDelay { .. })),
            k(|a| matches!(a, Action::SetAimdBounds { .. })),
        );
        let eject = k(|a| matches!(a, Action::Ejected { .. }));
        let reinstate = k(|a| matches!(a, Action::Reinstated { .. }));
        if eject + reinstate > 0 {
            s.push_str(&format!(" eject={eject} reinstate={reinstate}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_compact_and_tier_scoped() {
        let a = Action::ScaleUp { tier: 1, target: 3 };
        assert_eq!(a.label(), "scale-up(t1 -> 3)");
        assert_eq!(a.tier(), Some(1));
        let h = Action::SetHedgeDelay {
            delay: SimDuration::from_millis(750),
        };
        assert_eq!(h.label(), "hedge-delay(750ms)");
        assert_eq!(h.tier(), None);
    }

    #[test]
    fn summary_tallies_by_kind() {
        let mut log = ControlLog {
            ticks: 10,
            ..Default::default()
        };
        log.push(
            SimTime::ZERO,
            Action::Brake { tier: 0, depth: 4 },
            "storm".into(),
        );
        log.push(
            SimTime::ZERO,
            Action::Release { tier: 0 },
            "recovered".into(),
        );
        assert_eq!(
            log.summary(),
            "ticks=10 up=0 online=0 drain=0 retire=0 brake=1 release=1 hedge=0 aimd=0"
        );
    }

    #[test]
    fn health_actions_are_labelled_and_only_then_tallied() {
        let e = Action::Ejected {
            tier: 1,
            replica: 2,
        };
        assert_eq!(e.label(), "eject(t1#2)");
        assert_eq!(e.tier(), Some(1));
        let r = Action::Reinstated {
            tier: 1,
            replica: 2,
        };
        assert_eq!(r.label(), "reinstate(t1#2)");
        let mut log = ControlLog {
            ticks: 5,
            ..Default::default()
        };
        log.push(SimTime::ZERO, e, "score 1.8 z 2.1".into());
        log.push(SimTime::from_secs(4), r, "probation clean".into());
        assert_eq!(
            log.summary(),
            "ticks=5 up=0 online=0 drain=0 retire=0 brake=0 release=0 hedge=0 aimd=0 \
             eject=1 reinstate=1"
        );
    }
}
