//! Controller configuration: which actuators are armed and their set-points.

use ntier_des::time::SimDuration;

/// Top-level control-plane configuration. Every actuator is optional; the
/// tick period is shared because the controller observes and decides in one
/// step-synchronous pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// Observation/decision period. Millibottlenecks live at tens to
    /// hundreds of milliseconds, so the tick must be of that order for the
    /// loop to be reactive rather than merely archival.
    pub tick: SimDuration,
    /// Replica autoscaling, if armed.
    pub autoscaler: Option<AutoscalerConfig>,
    /// Policy auto-tuning (hedge delay, AIMD bounds), if armed.
    pub tuner: Option<TunerConfig>,
    /// Metastability detection and admission braking, if armed.
    pub governor: Option<GovernorConfig>,
}

impl ControlConfig {
    /// A controller that observes every `tick` but actuates nothing until
    /// an actuator is armed with the `with_*` builders.
    ///
    /// # Panics
    /// If `tick` is zero.
    pub fn every(tick: SimDuration) -> Self {
        assert!(tick > SimDuration::ZERO, "control tick must be positive");
        ControlConfig {
            tick,
            autoscaler: None,
            tuner: None,
            governor: None,
        }
    }

    /// Arms the replica autoscaler.
    pub fn with_autoscaler(mut self, a: AutoscalerConfig) -> Self {
        a.validate();
        self.autoscaler = Some(a);
        self
    }

    /// Arms the policy auto-tuner.
    pub(crate) fn with_tuner(mut self, t: TunerConfig) -> Self {
        t.validate();
        self.tuner = Some(t);
        self
    }

    /// Arms the overload governor.
    pub fn with_governor(mut self, g: GovernorConfig) -> Self {
        g.validate();
        self.governor = Some(g);
        self
    }
}

/// Replica autoscaling set-points for one tier.
///
/// Scale-up is decided when the mean queue depth per active replica crosses
/// `up_depth`; the new replica comes online only after `provisioning_lag`
/// (the knob that turns a helpful controller into a harmful one — capacity
/// that arrives after the millibottleneck has passed meets the retry flood
/// instead of the burst). Scale-down drains first: the victim leaves the
/// balancer's eligible set immediately, keeps serving its in-flight and
/// pinned-retransmit work, and is retired only once idle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Tier (preorder node id) this autoscaler manages.
    pub tier: usize,
    /// Never drain below this many active replicas.
    pub min_replicas: usize,
    /// Never provision above this many active + pending replicas.
    pub max_replicas: usize,
    /// Mean depth per active replica at or above which to add a replica.
    pub up_depth: f64,
    /// Mean depth per active replica at or below which to drain one.
    /// Must sit strictly below `up_depth` (hysteresis).
    pub down_depth: f64,
    /// Delay between the scale-up decision and the replica coming online.
    pub provisioning_lag: SimDuration,
    /// Minimum spacing between consecutive scaling decisions.
    pub cooldown: SimDuration,
}

impl AutoscalerConfig {
    fn validate(&self) {
        assert!(self.min_replicas >= 1, "min_replicas must be >= 1");
        assert!(
            self.min_replicas <= self.max_replicas,
            "min_replicas must not exceed max_replicas"
        );
        assert!(
            self.max_replicas <= u8::MAX as usize,
            "replica ids are u8; max_replicas must be <= 255"
        );
        assert!(
            self.down_depth < self.up_depth,
            "scale-down threshold must sit below scale-up (hysteresis)"
        );
        assert!(self.up_depth > 0.0, "up_depth must be positive");
    }
}

/// Policy auto-tuning: both knobs re-target caller-side resilience policies
/// from *recent* latency quantiles (delta reads over the run histogram). An
/// unpopulated window yields `None` quantiles and the tuner holds — it
/// never acts on garbage early in a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerConfig {
    /// Re-target the hedge fire delay, if armed.
    pub hedge: Option<HedgeTuner>,
    /// Re-clamp AIMD admission bounds, if armed.
    pub aimd: Option<AimdTuner>,
}

impl TunerConfig {
    fn validate(&self) {
        assert!(
            self.hedge.is_some() || self.aimd.is_some(),
            "tuner armed with neither hedge nor aimd knob"
        );
        if let Some(h) = self.hedge {
            assert!(h.q > 0.0 && h.q < 1.0, "hedge quantile must be in (0, 1)");
            assert!(h.floor <= h.cap, "hedge floor must not exceed cap");
        }
        if let Some(a) = self.aimd {
            assert!(a.low < a.high, "aimd low-water must sit below high-water");
            assert!(
                a.tight.0 >= 1.0 && a.tight.0 <= a.tight.1,
                "tight aimd bounds must satisfy 1 <= min <= max"
            );
            assert!(
                a.wide.0 >= 1.0 && a.wide.0 <= a.wide.1,
                "wide aimd bounds must satisfy 1 <= min <= max"
            );
        }
    }
}

/// Hedge-delay tuner: on each tick with a populated window, set the hedge
/// delay to the recent `q` quantile clamped into `[floor, cap]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeTuner {
    /// Quantile of recent completions to fire hedges at (e.g. 0.95).
    pub q: f64,
    /// Lower clamp — never hedge more eagerly than this.
    pub floor: SimDuration,
    /// Upper clamp — never hedge later than this.
    pub cap: SimDuration,
}

/// AIMD-bounds tuner for one tier: when the recent p99 crosses `high`,
/// clamp the limiter into the `tight` bounds (shed harder); when it falls
/// back under `low`, relax into the `wide` bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AimdTuner {
    /// Tier whose AIMD limiter is re-clamped.
    pub tier: usize,
    /// Recent p99 below this relaxes the limiter into `wide`.
    pub low: SimDuration,
    /// Recent p99 at or above this clamps the limiter into `tight`.
    pub high: SimDuration,
    /// (min_limit, max_limit) under congestion.
    pub tight: (f64, f64),
    /// (min_limit, max_limit) when healthy.
    pub wide: (f64, f64),
}

/// Overload governor: the metastability detector.
///
/// Classic retry-storm onset shows goodput falling while offered work
/// (fresh sends + retries + hedges) rises, with drop retransmit ordinals
/// climbing as the same connections fail repeatedly. The governor counts
/// consecutive evidence windows and, once armed, brakes admission at
/// `brake_tier` to a hard depth limit until the system has provably
/// recovered — the deliberate goodput sacrifice that breaks the
/// sustained-overload fixed point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Offered work per tick below this is idleness, not evidence.
    pub min_offered: u64,
    /// Goodput/offered at or below this ratio counts as storm evidence.
    pub goodput_ratio: f64,
    /// A window whose worst drop reached this retransmit ordinal counts as
    /// storm evidence on its own (the 3/6/9 s ladder climbing).
    pub ordinal_floor: u8,
    /// Consecutive evidence windows required before braking.
    pub arm_after: u32,
    /// Tier whose admission is braked.
    pub brake_tier: usize,
    /// Hard per-replica depth limit while braking.
    pub brake_depth: usize,
    /// Minimum brake duration before release is considered.
    pub hold: SimDuration,
    /// Goodput/offered must recover to at least this ratio to release.
    pub release_ratio: f64,
}

impl GovernorConfig {
    fn validate(&self) {
        assert!(self.arm_after >= 1, "arm_after must be >= 1");
        assert!(
            self.goodput_ratio < self.release_ratio,
            "release ratio must sit above the arming ratio (hysteresis)"
        );
        assert!(self.brake_depth >= 1, "brake_depth must be >= 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_tick_rejected() {
        ControlConfig::every(SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_autoscaler_thresholds_rejected() {
        ControlConfig::every(SimDuration::from_millis(50)).with_autoscaler(AutoscalerConfig {
            tier: 1,
            min_replicas: 1,
            max_replicas: 4,
            up_depth: 4.0,
            down_depth: 8.0,
            provisioning_lag: SimDuration::from_millis(200),
            cooldown: SimDuration::from_millis(500),
        });
    }

    #[test]
    #[should_panic(expected = "release ratio")]
    fn governor_without_hysteresis_rejected() {
        ControlConfig::every(SimDuration::from_millis(50)).with_governor(GovernorConfig {
            min_offered: 10,
            goodput_ratio: 0.9,
            ordinal_floor: 2,
            arm_after: 3,
            brake_tier: 0,
            brake_depth: 8,
            hold: SimDuration::from_millis(500),
            release_ratio: 0.5,
        });
    }
}
