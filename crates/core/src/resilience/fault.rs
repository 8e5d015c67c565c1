//! Scheduled fault injection.
//!
//! A [`FaultPlan`] declares faults as absolute `[from, until)` windows, the
//! same way `StallTimeline` declares millibottlenecks: the engine turns each
//! window into a begin/end event pair and flips tier state in between. All
//! randomness (the per-message drop roll) is drawn from the engine's seeded
//! RNG, so a plan replays identically for a given seed.

use ntier_des::time::{SimDuration, SimTime};

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Fault {
    /// The tier refuses every admission in the window (process crash and
    /// restart): arrivals behave exactly like backlog-overflow drops.
    Crash {
        /// Target tier index.
        tier: usize,
        /// Window start.
        from: SimTime,
        /// Window end (restart completes).
        until: SimTime,
    },
    /// Each message arriving at the tier is independently dropped with
    /// probability `prob` (flaky NIC / connection resets).
    DropMessages {
        /// Target tier index.
        tier: usize,
        /// Per-message drop probability in `[0, 1]`.
        prob: f64,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// `count` of the tier's workers wedge (e.g. blocked on a dead
    /// dependency) for the window: sync tiers lose threads, async tiers
    /// lose admission slots.
    StuckWorkers {
        /// Target tier index.
        tier: usize,
        /// Workers wedged.
        count: usize,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// Messages *to* the tier take `extra` additional one-way latency
    /// (degraded network path).
    SlowHops {
        /// Target tier index.
        tier: usize,
        /// Added one-way delay.
        extra: SimDuration,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// **Gray failure:** one replica of the tier serves every CPU slice
    /// `factor`× slower in the window. The replica keeps accepting and
    /// answering — just degraded — which is exactly what binary faults
    /// cannot express and health detectors must catch from passive signals.
    SlowReplica {
        /// Target tier index.
        tier: usize,
        /// Replica index within the tier.
        replica: usize,
        /// Service-time multiplier, strictly above 1.
        factor: f64,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// **Gray failure:** messages routed to one replica of the tier are
    /// independently dropped with probability `prob` (a flaky link to that
    /// instance; the rest of the set is unaffected).
    FlakyReplica {
        /// Target tier index.
        tier: usize,
        /// Replica index within the tier.
        replica: usize,
        /// Per-message drop probability in `[0, 1]`.
        prob: f64,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
}

impl Fault {
    /// The tier the fault applies to.
    pub(crate) fn tier(&self) -> usize {
        match self {
            Fault::Crash { tier, .. }
            | Fault::DropMessages { tier, .. }
            | Fault::StuckWorkers { tier, .. }
            | Fault::SlowHops { tier, .. }
            | Fault::SlowReplica { tier, .. }
            | Fault::FlakyReplica { tier, .. } => *tier,
        }
    }

    /// The replica the fault is scoped to, for replica-scoped (gray)
    /// faults; `None` for whole-tier faults.
    pub(crate) fn replica(&self) -> Option<usize> {
        match self {
            Fault::SlowReplica { replica, .. } | Fault::FlakyReplica { replica, .. } => {
                Some(*replica)
            }
            _ => None,
        }
    }

    /// The `[from, until)` window.
    pub(crate) fn window(&self) -> (SimTime, SimTime) {
        match self {
            Fault::Crash { from, until, .. }
            | Fault::DropMessages { from, until, .. }
            | Fault::StuckWorkers { from, until, .. }
            | Fault::SlowHops { from, until, .. }
            | Fault::SlowReplica { from, until, .. }
            | Fault::FlakyReplica { from, until, .. } => (*from, *until),
        }
    }

    /// Discriminant used by overlap validation: two faults can only
    /// conflict when they are the same kind aimed at the same target.
    fn conflict_key(&self) -> (u8, usize, usize) {
        let kind = match self {
            Fault::Crash { .. } => 0,
            Fault::DropMessages { .. } => 1,
            Fault::StuckWorkers { .. } => 2,
            Fault::SlowHops { .. } => 3,
            Fault::SlowReplica { .. } => 4,
            Fault::FlakyReplica { .. } => 5,
        };
        (kind, self.tier(), self.replica().unwrap_or(usize::MAX))
    }
}

/// A structural problem in a [`FaultPlan`], reported by
/// `FaultPlan::validate` and the gray-failure builders instead of being
/// silently accepted (two same-kind windows overlapping on one target used
/// to just flip state twice and un-flip early).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// Fault `index` has `until <= from`.
    EmptyWindow {
        /// Index into the plan's faults, in declaration order.
        index: usize,
    },
    /// A gray-degradation envelope whose ramp + plateau + recover spans are
    /// all zero: there is no window to schedule.
    EmptyEnvelope,
    /// A degradation factor at or below 1 — that is a speed-up or a no-op,
    /// not a degradation.
    BadFactor {
        /// The offending multiplier.
        factor: f64,
    },
    /// A drop probability outside `[0, 1]`.
    BadProbability {
        /// The offending probability.
        prob: f64,
    },
    /// Faults `first` and `second` are the same kind, target the same
    /// tier/replica, and their windows overlap — the end of one would
    /// clear the state the other still needs.
    Overlap {
        /// Index of the earlier fault.
        first: usize,
        /// Index of the later, conflicting fault.
        second: usize,
    },
    /// Fault `index` extends past the run horizon: its tail can never
    /// execute, which almost always means a mis-specified plan.
    OutOfHorizon {
        /// Index into the plan's faults, in declaration order.
        index: usize,
        /// End of the offending window.
        until: SimTime,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::EmptyWindow { index } => {
                write!(f, "fault {index} has an empty [from, until) window")
            }
            FaultPlanError::EmptyEnvelope => {
                write!(f, "gray-degradation envelope has zero total duration")
            }
            FaultPlanError::BadFactor { factor } => {
                write!(f, "degradation factor {factor} must be above 1")
            }
            FaultPlanError::BadProbability { prob } => {
                write!(f, "drop probability {prob} must be in [0, 1]")
            }
            FaultPlanError::Overlap { first, second } => {
                write!(f, "faults {first} and {second} overlap on the same target")
            }
            FaultPlanError::OutOfHorizon { index, until } => {
                write!(f, "fault {index} ends at {until:?}, past the run horizon")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The time profile of one gray degradation: service times ramp up to
/// `peak_factor`× over `ramp`, hold there for `plateau`, and ramp back down
/// over `recover`. The ramps are expanded into `steps` piecewise-constant
/// sub-windows (midpoint-sampled), so the whole envelope schedules as
/// ordinary begin/end fault events and stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayEnvelope {
    /// Ramp-up span (may be zero for a step onset).
    pub ramp: SimDuration,
    /// Full-degradation span.
    pub plateau: SimDuration,
    /// Ramp-down span (may be zero for a step recovery).
    pub recover: SimDuration,
    /// Service-time multiplier at the plateau, strictly above 1.
    pub peak_factor: f64,
    /// Piecewise-constant steps per ramp (at least 1).
    pub steps: usize,
}

impl GrayEnvelope {
    /// An envelope with 4 ramp steps.
    pub fn new(
        ramp: SimDuration,
        plateau: SimDuration,
        recover: SimDuration,
        peak_factor: f64,
    ) -> Self {
        GrayEnvelope {
            ramp,
            plateau,
            recover,
            peak_factor,
            steps: 4,
        }
    }

    fn check(&self) -> Result<(), FaultPlanError> {
        if self.ramp.is_zero() && self.plateau.is_zero() && self.recover.is_zero() {
            return Err(FaultPlanError::EmptyEnvelope);
        }
        if self.peak_factor <= 1.0 {
            return Err(FaultPlanError::BadFactor {
                factor: self.peak_factor,
            });
        }
        Ok(())
    }
}

/// An ordered collection of faults for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a crash window.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from` (all builder methods validate windows).
    pub fn crash(mut self, tier: usize, from: SimTime, until: SimTime) -> Self {
        assert!(until > from, "fault window must be non-empty");
        self.faults.push(Fault::Crash { tier, from, until });
        self
    }

    /// Adds a probabilistic message-drop window.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or `prob` is outside `[0, 1]`.
    pub fn drop_messages(mut self, tier: usize, prob: f64, from: SimTime, until: SimTime) -> Self {
        assert!(until > from, "fault window must be non-empty");
        assert!(
            (0.0..=1.0).contains(&prob),
            "drop probability must be in [0, 1]"
        );
        self.faults.push(Fault::DropMessages {
            tier,
            prob,
            from,
            until,
        });
        self
    }

    /// Adds a stuck-workers window.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or `count` is zero.
    pub fn stuck_workers(
        mut self,
        tier: usize,
        count: usize,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(until > from, "fault window must be non-empty");
        assert!(count > 0, "stuck-worker fault needs at least one worker");
        self.faults.push(Fault::StuckWorkers {
            tier,
            count,
            from,
            until,
        });
        self
    }

    /// Adds an added-latency window.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or `extra` is zero.
    pub fn slow_hops(
        mut self,
        tier: usize,
        extra: SimDuration,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(until > from, "fault window must be non-empty");
        assert!(!extra.is_zero(), "slow-hop fault needs a non-zero delay");
        self.faults.push(Fault::SlowHops {
            tier,
            extra,
            from,
            until,
        });
        self
    }

    /// Adds a gray degradation of one replica: service times follow
    /// `envelope` starting at `start` (ramp → plateau → recover), expanded
    /// into adjacent piecewise-constant `Fault::SlowReplica` windows.
    ///
    /// Returns [`FaultPlanError::EmptyEnvelope`] when the envelope has zero
    /// total duration and [`FaultPlanError::BadFactor`] when the peak is not
    /// an actual slowdown.
    pub fn gray_degradation(
        mut self,
        tier: usize,
        replica: usize,
        start: SimTime,
        envelope: GrayEnvelope,
    ) -> Result<Self, FaultPlanError> {
        envelope.check()?;
        self.push_envelope(tier, replica, start, envelope);
        Ok(self)
    }

    /// Adds the same gray-degradation envelope to several replicas of one
    /// tier at once — the zone-correlated case (a rack/zone-level cause
    /// degrading every instance placed there), which is exactly the case
    /// peer-relative outlier detection must *not* react to.
    ///
    /// Replica indices must be distinct; duplicates surface as
    /// [`FaultPlanError::Overlap`] from `FaultPlan::validate`.
    pub fn zone_gray(
        mut self,
        tier: usize,
        replicas: &[usize],
        start: SimTime,
        envelope: GrayEnvelope,
    ) -> Result<Self, FaultPlanError> {
        envelope.check()?;
        for &replica in replicas {
            self.push_envelope(tier, replica, start, envelope);
        }
        Ok(self)
    }

    /// Adds a train of flaky-link loss bursts against one replica: at each
    /// mark in `marks`, messages to the replica drop with probability
    /// `prob` for `burst`.
    ///
    /// Returns [`FaultPlanError::BadProbability`] for a probability outside
    /// `[0, 1]` and [`FaultPlanError::EmptyWindow`] for a zero-length burst.
    /// Overlapping bursts (marks closer than `burst`) are caught by
    /// `FaultPlan::validate`.
    pub fn flaky_link(
        mut self,
        tier: usize,
        replica: usize,
        prob: f64,
        marks: &[SimTime],
        burst: SimDuration,
    ) -> Result<Self, FaultPlanError> {
        if !(0.0..=1.0).contains(&prob) {
            return Err(FaultPlanError::BadProbability { prob });
        }
        if burst.is_zero() {
            return Err(FaultPlanError::EmptyWindow {
                index: self.faults.len(),
            });
        }
        for &mark in marks {
            self.faults.push(Fault::FlakyReplica {
                tier,
                replica,
                prob,
                from: mark,
                until: mark + burst,
            });
        }
        Ok(self)
    }

    /// Expands one envelope into adjacent `SlowReplica` windows. Ramps are
    /// midpoint-sampled so no step sits exactly at 1× or exactly at peak.
    fn push_envelope(
        &mut self,
        tier: usize,
        replica: usize,
        start: SimTime,
        envelope: GrayEnvelope,
    ) {
        let steps = envelope.steps.max(1) as u64;
        let rise = envelope.peak_factor - 1.0;
        let mut t = start;
        if !envelope.ramp.is_zero() {
            let step = envelope.ramp / steps;
            for k in 0..steps {
                let factor = 1.0 + rise * (k as f64 + 0.5) / steps as f64;
                self.faults.push(Fault::SlowReplica {
                    tier,
                    replica,
                    factor,
                    from: t,
                    until: t + step,
                });
                t += step;
            }
            t = start + envelope.ramp; // absorb integer-division remainders
        }
        if !envelope.plateau.is_zero() {
            self.faults.push(Fault::SlowReplica {
                tier,
                replica,
                factor: envelope.peak_factor,
                from: t,
                until: t + envelope.plateau,
            });
            t += envelope.plateau;
        }
        if !envelope.recover.is_zero() {
            let step = envelope.recover / steps;
            for k in 0..steps {
                let factor = 1.0 + rise * (steps as f64 - k as f64 - 0.5) / steps as f64;
                self.faults.push(Fault::SlowReplica {
                    tier,
                    replica,
                    factor,
                    from: t,
                    until: t + step,
                });
                t += step;
            }
        }
    }

    /// Checks the whole plan for structural problems: empty windows,
    /// windows running past `horizon`, and overlapping same-kind windows on
    /// the same target (whose end events would clear shared state early).
    ///
    /// The panicking builders already reject empty windows and bad
    /// probabilities at construction; this catches what they cannot see —
    /// cross-fault conflicts and horizon mismatches.
    pub(crate) fn validate(&self, horizon: SimDuration) -> Result<(), FaultPlanError> {
        let end = SimTime::ZERO + horizon;
        for (index, fault) in self.faults.iter().enumerate() {
            let (from, until) = fault.window();
            if until <= from {
                return Err(FaultPlanError::EmptyWindow { index });
            }
            if until > end {
                return Err(FaultPlanError::OutOfHorizon { index, until });
            }
        }
        for (second, b) in self.faults.iter().enumerate() {
            for (first, a) in self.faults.iter().enumerate().take(second) {
                if a.conflict_key() != b.conflict_key() {
                    continue;
                }
                let (af, au) = a.window();
                let (bf, bu) = b.window();
                if af < bu && bf < au {
                    return Err(FaultPlanError::Overlap { first, second });
                }
            }
        }
        Ok(())
    }

    /// The declared faults, in insertion order.
    pub(crate) fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// `true` when no faults are declared.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The highest tier index any fault targets, if any.
    pub(crate) fn max_tier(&self) -> Option<usize> {
        self.faults.iter().map(Fault::tier).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_faults_in_order() {
        let plan = FaultPlan::none()
            .crash(0, SimTime::from_secs(1), SimTime::from_secs(2))
            .drop_messages(1, 0.25, SimTime::from_secs(3), SimTime::from_secs(4))
            .stuck_workers(2, 3, SimTime::from_secs(5), SimTime::from_secs(6))
            .slow_hops(
                1,
                SimDuration::from_millis(5),
                SimTime::ZERO,
                SimTime::from_secs(9),
            );
        assert_eq!(plan.faults().len(), 4);
        assert_eq!(plan.max_tier(), Some(2));
        assert_eq!(
            plan.faults()[0].window(),
            (SimTime::from_secs(1), SimTime::from_secs(2))
        );
        assert_eq!(plan.faults()[3].tier(), 1);
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn empty_window_rejected() {
        let _ = FaultPlan::none().crash(0, SimTime::from_secs(2), SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn bad_probability_rejected() {
        let _ = FaultPlan::none().drop_messages(0, 1.5, SimTime::ZERO, SimTime::from_secs(1));
    }

    #[test]
    fn gray_degradation_expands_to_adjacent_stepped_windows() {
        let env = GrayEnvelope::new(
            SimDuration::from_secs(2),
            SimDuration::from_secs(3),
            SimDuration::from_secs(2),
            4.0,
        );
        let plan = FaultPlan::none()
            .gray_degradation(1, 0, SimTime::from_secs(5), env)
            .unwrap();
        // 4 ramp steps + plateau + 4 recover steps.
        assert_eq!(plan.faults().len(), 9);
        let mut prev_until = SimTime::from_secs(5);
        let mut prev_factor = 1.0;
        for (i, f) in plan.faults().iter().enumerate() {
            let Fault::SlowReplica {
                tier,
                replica,
                factor,
                from,
                until,
            } = *f
            else {
                panic!("expected SlowReplica, got {f:?}");
            };
            assert_eq!((tier, replica), (1, 0));
            assert_eq!(from, prev_until, "window {i} not adjacent");
            assert!(factor > 1.0 && factor <= 4.0, "factor {factor}");
            if i <= 4 {
                assert!(factor >= prev_factor, "ramp must be non-decreasing");
            } else {
                assert!(factor < prev_factor, "recover must descend");
            }
            prev_until = until;
            prev_factor = factor;
        }
        assert_eq!(prev_until, SimTime::from_secs(12));
        assert_eq!(
            plan.faults()[4],
            Fault::SlowReplica {
                tier: 1,
                replica: 0,
                factor: 4.0,
                from: SimTime::from_secs(7),
                until: SimTime::from_secs(10),
            }
        );
        assert!(plan.validate(SimDuration::from_secs(20)).is_ok());
    }

    #[test]
    fn gray_envelope_errors_are_typed() {
        let zero = GrayEnvelope::new(SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO, 3.0);
        assert_eq!(
            FaultPlan::none()
                .gray_degradation(0, 0, SimTime::ZERO, zero)
                .unwrap_err(),
            FaultPlanError::EmptyEnvelope
        );
        let speedup = GrayEnvelope::new(
            SimDuration::ZERO,
            SimDuration::from_secs(1),
            SimDuration::ZERO,
            0.5,
        );
        assert_eq!(
            FaultPlan::none()
                .gray_degradation(0, 0, SimTime::ZERO, speedup)
                .unwrap_err(),
            FaultPlanError::BadFactor { factor: 0.5 }
        );
        assert_eq!(
            FaultPlan::none()
                .flaky_link(0, 1, 1.5, &[SimTime::ZERO], SimDuration::from_secs(1))
                .unwrap_err(),
            FaultPlanError::BadProbability { prob: 1.5 }
        );
        assert_eq!(
            FaultPlan::none()
                .flaky_link(0, 1, 0.5, &[SimTime::ZERO], SimDuration::ZERO)
                .unwrap_err(),
            FaultPlanError::EmptyWindow { index: 0 }
        );
    }

    #[test]
    fn zone_gray_applies_one_envelope_across_the_zone() {
        let env = GrayEnvelope::new(
            SimDuration::ZERO,
            SimDuration::from_secs(2),
            SimDuration::ZERO,
            3.0,
        );
        let plan = FaultPlan::none()
            .zone_gray(1, &[0, 2], SimTime::from_secs(1), env)
            .unwrap();
        assert_eq!(plan.faults().len(), 2);
        assert_eq!(plan.faults()[0].replica(), Some(0));
        assert_eq!(plan.faults()[1].replica(), Some(2));
        assert_eq!(plan.faults()[0].window(), plan.faults()[1].window());
        assert!(plan.validate(SimDuration::from_secs(5)).is_ok());
        // The same zone listed twice is a real conflict.
        let dup = FaultPlan::none()
            .zone_gray(1, &[0, 0], SimTime::from_secs(1), env)
            .unwrap();
        assert_eq!(
            dup.validate(SimDuration::from_secs(5)),
            Err(FaultPlanError::Overlap {
                first: 0,
                second: 1
            })
        );
    }

    #[test]
    fn validate_catches_overlap_and_horizon() {
        let plan = FaultPlan::none()
            .crash(0, SimTime::from_secs(1), SimTime::from_secs(3))
            .crash(0, SimTime::from_secs(2), SimTime::from_secs(4));
        assert_eq!(
            plan.validate(SimDuration::from_secs(10)),
            Err(FaultPlanError::Overlap {
                first: 0,
                second: 1
            })
        );
        // Same kind on different tiers: no conflict.
        let plan = FaultPlan::none()
            .crash(0, SimTime::from_secs(1), SimTime::from_secs(3))
            .crash(1, SimTime::from_secs(2), SimTime::from_secs(4));
        assert!(plan.validate(SimDuration::from_secs(10)).is_ok());
        // Different kinds on the same tier: no conflict either.
        let plan = FaultPlan::none()
            .crash(0, SimTime::from_secs(1), SimTime::from_secs(3))
            .drop_messages(0, 0.5, SimTime::from_secs(2), SimTime::from_secs(4));
        assert!(plan.validate(SimDuration::from_secs(10)).is_ok());
        assert_eq!(
            plan.validate(SimDuration::from_secs(3)),
            Err(FaultPlanError::OutOfHorizon {
                index: 1,
                until: SimTime::from_secs(4)
            })
        );
        // Flaky bursts spaced closer than the burst length conflict.
        let plan = FaultPlan::none()
            .flaky_link(
                1,
                0,
                0.5,
                &[SimTime::from_secs(1), SimTime::from_millis(1_200)],
                SimDuration::from_millis(500),
            )
            .unwrap();
        assert_eq!(
            plan.validate(SimDuration::from_secs(10)),
            Err(FaultPlanError::Overlap {
                first: 0,
                second: 1
            })
        );
        assert!(FaultPlan::none()
            .validate(SimDuration::from_secs(1))
            .is_ok());
    }
}
