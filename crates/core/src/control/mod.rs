//! Closed-loop control plane for the n-tier CTQO study.
//!
//! The paper's tails emerge from millibottleneck interactions no operator
//! sees in averages; the `RootCause` analyzer explains them post-hoc. This
//! module closes the loop: a deterministic controller observes per-replica
//! telemetry at millibottleneck timescales and actuates back through the
//! engine. Related work shows such loops are double-edged — reactive
//! control at the right timescale damps tails, while scaling that ignores
//! the load regime flips from helpful to harmful — so the same machinery
//! must be able to express both the damping and the amplifying side of
//! that frontier.
//!
//! Three actuators, all optional and independently configured:
//!
//! * [`AutoscalerConfig`] — replica autoscaling with a configurable
//!   provisioning lag (capacity decided now arrives later) and
//!   drain-before-remove semantics (a replica leaves the balancer's
//!   eligible set first and is retired only once idle).
//! * [`TunerConfig`] — policy auto-tuning: hedge delay re-targeted to a
//!   recent latency quantile, AIMD admission bounds tightened or widened
//!   as the observed p99 crosses thresholds.
//! * [`GovernorConfig`] — an overload governor that detects retry-storm /
//!   metastable onset (goodput falling while offered work rises, sustained
//!   retransmit-ordinal growth) and brakes admission to force recovery.
//!
//! The controller is **pure and clock-agnostic**: `Controller::tick` maps an
//! `Observation` to a list of `Directive`s and records a [`Decision`]
//! for every action taken. The DES engine drives it step-synchronously
//! from a `ControllerTick` event. Determinism rules: the
//! controller consumes randomness only from the `SimRng` fork handed to
//! `tick` (the engine forks it as `"control"`), so controlled runs stay
//! bit-identical across worker-pool sizes.

mod config;
mod controller;
mod decision;
mod observe;

pub use config::{
    AimdTuner, AutoscalerConfig, ControlConfig, GovernorConfig, HedgeTuner, TunerConfig,
};
pub use decision::{Action, ControlLog, Decision};

pub(crate) use controller::{Controller, Directive};
pub(crate) use observe::{Observation, ReplicaObs, TierObs};
