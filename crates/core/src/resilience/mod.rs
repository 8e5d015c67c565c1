//! Fault injection and caller-side resilience.
//!
//! The paper shows how a sub-second millibottleneck becomes a multi-second
//! outage through *cross-tier queue overflow* (CTQO). This module supplies
//! the machinery to study the other half of that story: what the **callers**
//! do about it, and how their reaction either amplifies or bounds the
//! long tail.
//!
//! Three parts:
//!
//! * Faults — a [`FaultPlan`]: scheduled tier crashes,
//!   probabilistic message drops, stuck workers, and added hop latency,
//!   declared as absolute windows the same way `StallTimeline` declares
//!   millibottlenecks — plus *gray* faults: per-replica service-rate
//!   degradation with ramp/plateau/recover envelopes
//!   ([`FaultPlan::gray_degradation`]),
//!   flaky-link loss bursts, and zone-correlated multi-replica windows,
//!   with structural validation returning a typed
//!   [`FaultPlanError`].
//! * Health — passive gray-failure detection: per-replica health
//!   scoring (latency/error EWMAs plus a phi-accrual failure detector over
//!   inter-reply gaps) feeding an outlier-ejection policy with peer
//!   z-score agreement, a max-ejected-fraction guard, and
//!   probation/trickle-probe reinstatement.
//! * Policies — per-hop caller policies: attempt timeouts, bounded
//!   retries with capped exponential backoff and deterministic jitter,
//!   token-bucket retry budgets, a closed/open/half-open circuit breaker,
//!   hedged requests (fixed or latency-quantile backup delay, budgeted),
//!   cancellation propagation for losing attempts, and load shedding —
//!   static queue-depth / deadline thresholds or an AIMD adaptive
//!   concurrency limit. All state machines are driven by simulation time
//!   passed in by the caller (the DES engine).
//!
//! The headline experiments (see [`retry_storm`] and
//! [`hedging_frontier`]): naive timeout-and-retry
//! clients *amplify* CTQO — every retry is a fresh message aimed at an
//! already-overflowing tier while the abandoned attempt keeps consuming
//! threads — whereas a retry budget plus circuit breaker bounds the
//! very-long-response-time fraction at the cost of shed load; hedged
//! requests with cancellation erase the 3/6/9 s retransmission modes at
//! moderate load, while un-budgeted hedging without cancellation recreates
//! the overload it was meant to dodge.
//!
//! [`retry_storm`]: crate::experiment::retry_storm
//! [`hedging_frontier`]: crate::experiment::hedging_frontier

mod fault;
mod health;
mod policy;
mod stats;

pub use fault::{FaultPlan, FaultPlanError, GrayEnvelope};
pub use health::HealthPolicy;
pub use policy::{
    AimdConfig, BreakerConfig, CallerPolicy, CancelPolicy, HedgeDelay, HedgePolicy, RetryBudget,
    RetryPolicy, ShedPolicy,
};
pub use stats::ResilienceStats;

pub(crate) use fault::Fault;
pub(crate) use health::{HealthDetector, HealthVerdict};
pub(crate) use policy::{AimdLimiter, CircuitBreaker, TokenBucket};
