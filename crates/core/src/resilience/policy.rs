//! Caller-side resilience policies and their runtime state machines.
//!
//! Everything here is clock-agnostic: state machines take `now: SimTime`
//! from the caller instead of reading a clock, so they are exactly as
//! deterministic as the simulation driving them, and the live testbed can
//! feed them wall-clock time converted to [`SimTime`].

use ntier_des::time::{SimDuration, SimTime};

/// Bounded retries with capped exponential backoff and deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retry attempts after the initial try (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Ceiling the doubling saturates at.
    pub max_backoff: SimDuration,
    /// Fraction of the backoff added as jitter (`0.0..=1.0`): the actual
    /// wait is `backoff * (1 + jitter_frac * u)` with `u` uniform in
    /// `[0, 1)` drawn from the caller's seeded RNG.
    pub jitter_frac: f64,
}

impl RetryPolicy {
    /// `max_retries` retries backing off from `base` up to `cap`, no jitter.
    pub fn capped(max_retries: u32, base: SimDuration, cap: SimDuration) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff: base,
            max_backoff: cap,
            jitter_frac: 0.0,
        }
    }

    /// Adds jitter as a fraction of the backoff.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not within `0.0..=1.0`.
    pub fn with_jitter(mut self, frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac),
            "jitter fraction must be in [0, 1]"
        );
        self.jitter_frac = frac;
        self
    }

    /// The backoff before retry `attempt` (0-based), saturating at
    /// `max_backoff`. `unit` is a uniform draw in `[0, 1)` supplying the
    /// jitter; pass 0.0 for the deterministic floor.
    pub(crate) fn backoff_for(&self, attempt: u32, unit: f64) -> SimDuration {
        let shift = attempt.min(62);
        let base = self.base_backoff.as_micros();
        let scaled = base.saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX));
        let capped = scaled.min(self.max_backoff.as_micros().max(base));
        let jitter = (capped as f64 * self.jitter_frac * unit) as u64;
        SimDuration::from_micros(capped.saturating_add(jitter))
    }

    /// Whether retry `attempt` (0-based) is still within the bound.
    pub(crate) fn allows(&self, attempt: u32) -> bool {
        attempt < self.max_retries
    }
}

/// Token-bucket retry budget configuration: retries spend a token; tokens
/// refill at a steady rate. An empty bucket means the retry is *not* sent —
/// the request fails fast instead of joining a retry storm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    /// Bucket capacity (also the initial fill).
    pub capacity: f64,
    /// Tokens regained per second.
    pub refill_per_sec: f64,
}

impl RetryBudget {
    /// A budget of `capacity` tokens refilling at `refill_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive or `refill_per_sec` is negative.
    pub fn new(capacity: f64, refill_per_sec: f64) -> Self {
        assert!(capacity > 0.0, "budget capacity must be positive");
        assert!(refill_per_sec >= 0.0, "refill rate must be non-negative");
        RetryBudget {
            capacity,
            refill_per_sec,
        }
    }
}

/// Runtime state of a [`RetryBudget`].
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    cfg: RetryBudget,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A full bucket as of `now`.
    pub(crate) fn new(cfg: RetryBudget, now: SimTime) -> Self {
        TokenBucket {
            tokens: cfg.capacity,
            cfg,
            last: now,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.cfg.refill_per_sec).min(self.cfg.capacity);
        self.last = now;
    }

    /// Spends one token if available; `false` means the budget is exhausted.
    pub(crate) fn try_withdraw(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens available at `now` (refilled view, no spend).
    #[cfg(test)]
    fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }
}

/// Circuit-breaker configuration. A half-open breaker admits one probe at a
/// time and closes on the first successful one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before probing.
    pub open_for: SimDuration,
}

impl BreakerConfig {
    /// Trip after `failure_threshold` failures (at least 1) and hold open
    /// for `open_for`; half-open, one probe at a time, and the first
    /// successful probe closes it.
    pub fn new(failure_threshold: u32, open_for: SimDuration) -> Self {
        BreakerConfig {
            failure_threshold: failure_threshold.max(1),
            open_for,
        }
    }
}

/// The classic three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Requests flow; failures are counted.
    Closed,
    /// Requests fail fast until the open window elapses.
    Open,
    /// One probe at a time tests the downstream.
    HalfOpen,
}

/// Runtime circuit breaker: closed → open on consecutive failures, open →
/// half-open after `open_for`, half-open → closed on a successful probe
/// (or back to open on a failed one).
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    /// A half-open probe is out and its outcome not yet reported.
    probe_in_flight: bool,
    opened_at: SimTime,
    transitions: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub(crate) fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_in_flight: false,
            opened_at: SimTime::ZERO,
            transitions: 0,
        }
    }

    /// Current state after any time-based transition due at `now`.
    pub(crate) fn state(&mut self, now: SimTime) -> BreakerState {
        if self.state == BreakerState::Open && now >= self.opened_at + self.cfg.open_for {
            self.transition(BreakerState::HalfOpen);
            self.probe_in_flight = false;
        }
        self.state
    }

    /// Whether a request may be sent at `now`. In half-open this *admits a
    /// probe* unless one is already out; the caller must report the probe's
    /// outcome via [`Self::on_success`] / [`Self::on_failure`].
    pub(crate) fn try_acquire(&mut self, now: SimTime) -> bool {
        match self.state(now) {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    false
                } else {
                    self.probe_in_flight = true;
                    true
                }
            }
        }
    }

    /// Records a successful call outcome.
    pub(crate) fn on_success(&mut self, now: SimTime) {
        match self.state(now) {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probe_in_flight = false;
                self.transition(BreakerState::Closed);
                self.consecutive_failures = 0;
            }
            // A success landing while open (a straggler reply) is stale
            // evidence; the open window stands.
            BreakerState::Open => {}
        }
    }

    /// Records a failed call outcome (timeout, give-up, or shed downstream).
    pub(crate) fn on_failure(&mut self, now: SimTime) {
        match self.state(now) {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.open_at(now);
                }
            }
            BreakerState::HalfOpen => {
                self.probe_in_flight = false;
                self.open_at(now);
            }
            BreakerState::Open => {}
        }
    }

    fn open_at(&mut self, now: SimTime) {
        self.transition(BreakerState::Open);
        self.opened_at = now;
    }

    fn transition(&mut self, to: BreakerState) {
        if self.state != to {
            self.state = to;
            self.transitions += 1;
        }
    }

    /// Total state transitions so far (closed→open, open→half-open, ...).
    pub(crate) fn transitions(&self) -> u64 {
        self.transitions
    }
}

/// When the caller launches a backup (hedge) attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HedgeDelay {
    /// Hedge after a fixed delay.
    Fixed(SimDuration),
    /// Hedge after the observed latency quantile `q` (e.g. p95), clamped to
    /// `[floor, cap]`. The caller resolves the quantile against whatever
    /// latency telemetry it keeps — the DES engine uses its run histogram —
    /// and falls back to `floor` before any completions exist.
    Quantile {
        /// The quantile to track, in `(0, 1)`.
        q: f64,
        /// Lower clamp (also the cold-start delay before any samples).
        floor: SimDuration,
        /// Upper clamp, so a long tail cannot push hedges out to never.
        cap: SimDuration,
    },
}

impl HedgeDelay {
    /// The delay to wait before the next hedge, given the currently
    /// `observed` value of the tracked quantile (if any).
    pub(crate) fn resolve(&self, observed: Option<SimDuration>) -> SimDuration {
        match *self {
            HedgeDelay::Fixed(d) => d,
            HedgeDelay::Quantile { floor, cap, .. } => match observed {
                Some(d) => d.max(floor).min(cap),
                None => floor,
            },
        }
    }
}

/// Hedged-request policy: after [`HedgeDelay`] with no reply, launch a
/// backup attempt; first completion wins. At most `max_hedges` backups are
/// launched per logical request, each spending a token from the shared
/// hedge `budget` (when configured) so hedges cannot snowball into a
/// replication storm under load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// When to fire each backup attempt.
    pub delay: HedgeDelay,
    /// Maximum backup attempts per logical request (K).
    pub max_hedges: u32,
    /// Caller-wide token bucket metering hedges; `None` = unmetered.
    pub budget: Option<RetryBudget>,
}

impl HedgePolicy {
    /// At most `max_hedges` backups, each after a fixed `delay`, unmetered.
    pub fn fixed(delay: SimDuration, max_hedges: u32) -> Self {
        HedgePolicy {
            delay: HedgeDelay::Fixed(delay),
            max_hedges,
            budget: None,
        }
    }

    /// At most `max_hedges` backups, each after the observed `q` quantile
    /// clamped to `[floor, cap]`, unmetered.
    ///
    /// # Panics
    ///
    /// Panics unless `q` is within `(0, 1)`.
    pub fn at_quantile(q: f64, floor: SimDuration, cap: SimDuration, max_hedges: u32) -> Self {
        assert!(q > 0.0 && q < 1.0, "hedge quantile must be in (0, 1)");
        HedgePolicy {
            delay: HedgeDelay::Quantile { q, floor, cap },
            max_hedges,
            budget: None,
        }
    }

    /// Meters hedges through a caller-wide token bucket.
    pub fn with_budget(mut self, budget: RetryBudget) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// Cancellation-propagation policy: when a logical request resolves (a
/// winner completes, or the caller deadline passes), a cancel chases each
/// losing attempt down the chain, hop by hop, reclaiming backlog slots and
/// in-flight work it catches up with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CancelPolicy {
    /// Propagation delay per hop the cancel traverses (its "network" cost).
    pub hop_delay: SimDuration,
}

impl CancelPolicy {
    /// Cancels propagating at `hop_delay` per hop.
    pub fn new(hop_delay: SimDuration) -> Self {
        CancelPolicy { hop_delay }
    }
}

/// AIMD (additive-increase / multiplicative-decrease) concurrency-limit
/// configuration, in the style of Netflix's adaptive concurrency limits:
/// the limit grows while observed latency stays near the best-seen RTT and
/// collapses multiplicatively when latency gradients indicate queueing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AimdConfig {
    /// Starting concurrency limit.
    pub initial_limit: f64,
    /// Floor the limit cannot decrease below.
    pub min_limit: f64,
    /// Ceiling the limit cannot grow above.
    pub max_limit: f64,
}

impl AimdConfig {
    /// Latency tolerance: a sample above `TOLERANCE * min_rtt` is treated
    /// as congestion and triggers multiplicative decrease.
    pub const TOLERANCE: f64 = 2.0;
    /// Multiplier applied on decrease.
    pub const BACKOFF_RATIO: f64 = 0.9;
    /// Additive growth per uncongested sample, scaled by `1 / limit` so
    /// growth slows as the limit rises (matching TCP-style probing).
    pub const INCREASE_BY: f64 = 1.0;

    /// A limiter starting at `initial_limit`, bounded to `[min, max]`, with
    /// the Netflix-flavoured [`TOLERANCE`](Self::TOLERANCE),
    /// [`BACKOFF_RATIO`](Self::BACKOFF_RATIO) and
    /// [`INCREASE_BY`](Self::INCREASE_BY).
    ///
    /// # Panics
    ///
    /// Panics if the bounds are inconsistent.
    pub fn new(initial_limit: f64, min_limit: f64, max_limit: f64) -> Self {
        assert!(
            min_limit >= 1.0,
            "min limit must admit at least one request"
        );
        assert!(
            min_limit <= initial_limit && initial_limit <= max_limit,
            "limits must satisfy min <= initial <= max"
        );
        AimdConfig {
            initial_limit,
            min_limit,
            max_limit,
        }
    }
}

/// Runtime state of an AIMD concurrency limiter for one hop.
#[derive(Debug, Clone)]
pub(crate) struct AimdLimiter {
    cfg: AimdConfig,
    limit: f64,
    min_rtt: Option<SimDuration>,
}

impl AimdLimiter {
    /// A limiter at its configured initial limit with no RTT samples yet.
    pub(crate) fn new(cfg: AimdConfig) -> Self {
        AimdLimiter {
            limit: cfg.initial_limit,
            cfg,
            min_rtt: None,
        }
    }

    /// Feeds one observed per-request latency sample (queueing + service at
    /// the guarded hop) and adjusts the limit.
    pub(crate) fn on_sample(&mut self, rtt: SimDuration) {
        let min_rtt = match self.min_rtt {
            Some(m) if m <= rtt => m,
            _ => {
                self.min_rtt = Some(rtt);
                rtt
            }
        };
        let congested =
            rtt.as_micros() as f64 > AimdConfig::TOLERANCE * (min_rtt.as_micros() as f64).max(1.0);
        if congested {
            self.limit = (self.limit * AimdConfig::BACKOFF_RATIO).max(self.cfg.min_limit);
        } else {
            self.limit =
                (self.limit + AimdConfig::INCREASE_BY / self.limit).min(self.cfg.max_limit);
        }
    }

    /// The current concurrency limit, floored to a whole admission count.
    pub(crate) fn limit(&self) -> usize {
        (self.limit.floor() as usize).max(1)
    }

    /// Best RTT observed so far.
    #[cfg(test)]
    fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt
    }

    /// Re-clamps the limiter's bounds in place — the control plane's
    /// auto-tuning actuation. The current limit is clamped into the new
    /// `[min, max]` immediately (tightening takes effect on the very next
    /// admission check; it does not wait for a congestion sample), while
    /// learned state (`min_rtt`) is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `min < 1` or `min > max`.
    pub(crate) fn set_bounds(&mut self, min: f64, max: f64) {
        assert!(min >= 1.0, "min limit must admit at least one request");
        assert!(min <= max, "limits must satisfy min <= max");
        self.cfg.min_limit = min;
        self.cfg.max_limit = max;
        self.limit = self.limit.clamp(min, max);
    }
}

/// Load-shedding policy for a tier's admission point: reject fast instead
/// of queueing work that is already doomed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedPolicy {
    /// Fixed thresholds on queue depth and/or request age.
    Static {
        /// Shed when the tier's queue depth is at or above this before
        /// admission.
        max_queue_depth: Option<usize>,
        /// Shed requests older than this (age measured from injection).
        deadline: Option<SimDuration>,
    },
    /// Adaptive concurrency limit: the admission threshold follows an
    /// `AimdLimiter` fed by the tier's observed per-request latency. The
    /// engine owns the limiter state; `ShedPolicy::should_shed` is not
    /// consulted for this variant.
    Aimd(AimdConfig),
}

impl Default for ShedPolicy {
    fn default() -> Self {
        ShedPolicy::Static {
            max_queue_depth: None,
            deadline: None,
        }
    }
}

impl ShedPolicy {
    /// Shed on queue depth only.
    pub fn on_depth(max_queue_depth: usize) -> Self {
        ShedPolicy::Static {
            max_queue_depth: Some(max_queue_depth),
            deadline: None,
        }
    }

    /// Shed on request age only.
    pub(crate) fn on_deadline(deadline: SimDuration) -> Self {
        ShedPolicy::Static {
            max_queue_depth: None,
            deadline: Some(deadline),
        }
    }

    /// Adaptive admission via an AIMD concurrency limiter.
    pub fn adaptive(cfg: AimdConfig) -> Self {
        ShedPolicy::Aimd(cfg)
    }

    /// Adds a deadline to a depth-based policy.
    ///
    /// # Panics
    ///
    /// Panics on the [`ShedPolicy::Aimd`] variant, which has no deadline.
    pub fn with_deadline(mut self, new_deadline: SimDuration) -> Self {
        match &mut self {
            ShedPolicy::Static { deadline, .. } => *deadline = Some(new_deadline),
            ShedPolicy::Aimd(_) => panic!("an AIMD shed policy has no deadline threshold"),
        }
        self
    }

    /// Whether a request of the given `age` arriving at a tier of the given
    /// queue `depth` should be shed. Always `false` for the adaptive
    /// variant — the engine consults its [`AimdLimiter`] instead.
    pub(crate) fn should_shed(&self, depth: usize, age: SimDuration) -> bool {
        match *self {
            ShedPolicy::Static {
                max_queue_depth,
                deadline,
            } => {
                if let Some(max) = max_queue_depth {
                    if depth >= max {
                        return true;
                    }
                }
                if let Some(deadline) = deadline {
                    if age > deadline {
                        return true;
                    }
                }
                false
            }
            ShedPolicy::Aimd(_) => false,
        }
    }
}

/// Everything a caller applies on one hop: an attempt timeout, and the
/// optional retry / budget / breaker stack governing what happens when the
/// attempt fails.
///
/// * On the **client → tier 0** hop the DES engine arms a timer per
///   attempt; a fired timer orphans the attempt (it keeps consuming
///   resources downstream — the retry-storm amplifier) and consults
///   `retry`, `budget` and `breaker` in that order for a follow-up attempt.
/// * On **inter-tier** hops the policy replaces the kernel retransmit
///   schedule for dropped messages: app-controlled capped backoff instead
///   of the fixed 3 s RTO, gated by the same budget and breaker.
///
/// When `hedge` is set on the client policy, the caller runs in *hedged
/// mode*: `attempt_timeout` becomes the deadline of the whole logical
/// request (all concurrent attempts), backups launch per the
/// [`HedgePolicy`], and `retry` is ignored — hedging replaces sequential
/// retry. `cancel` controls whether losing attempts are chased down and
/// reclaimed or left to run to completion as orphans.
#[derive(Debug, Clone, PartialEq)]
pub struct CallerPolicy {
    /// Time the caller waits for one attempt before abandoning it (in
    /// hedged mode: the deadline for the whole logical request).
    pub attempt_timeout: SimDuration,
    /// Retry schedule; `None` = fail on first timeout/drop.
    pub retry: Option<RetryPolicy>,
    /// Retry budget; `None` = unmetered retries.
    pub budget: Option<RetryBudget>,
    /// Circuit breaker; `None` = never fail fast.
    pub breaker: Option<BreakerConfig>,
    /// Hedged-request policy; `None` = sequential attempts only.
    pub hedge: Option<HedgePolicy>,
    /// Cancellation propagation for losing/abandoned attempts; `None` =
    /// orphans run to completion (the PR-1 capacity-leak behaviour).
    pub cancel: Option<CancelPolicy>,
}

impl CallerPolicy {
    /// The anti-pattern: aggressive timeout, eager unmetered retries, no
    /// breaker. This is the configuration that turns a millibottleneck into
    /// a retry storm.
    pub fn naive(attempt_timeout: SimDuration, retries: u32) -> Self {
        CallerPolicy {
            attempt_timeout,
            retry: Some(RetryPolicy::capped(
                retries,
                SimDuration::from_millis(10),
                SimDuration::from_millis(10),
            )),
            budget: None,
            breaker: None,
            hedge: None,
            cancel: None,
        }
    }

    /// The hardened stack: the same timeout and retry bound, but retries
    /// are metered by `budget` and the hop is protected by `breaker`.
    pub(crate) fn hardened(
        attempt_timeout: SimDuration,
        retry: RetryPolicy,
        budget: RetryBudget,
        breaker: BreakerConfig,
    ) -> Self {
        CallerPolicy {
            attempt_timeout,
            retry: Some(retry),
            budget: Some(budget),
            breaker: Some(breaker),
            hedge: None,
            cancel: None,
        }
    }

    /// Timeout only: one attempt, no retries, no breaker.
    #[cfg(test)]
    pub(crate) fn timeout_only(attempt_timeout: SimDuration) -> Self {
        CallerPolicy {
            attempt_timeout,
            retry: None,
            budget: None,
            breaker: None,
            hedge: None,
            cancel: None,
        }
    }

    /// A hedged caller: `deadline` bounds the whole logical request and
    /// `hedge` governs the backup attempts. No sequential retry (hedging
    /// replaces it), no budget or breaker.
    pub fn hedged(deadline: SimDuration, hedge: HedgePolicy) -> Self {
        CallerPolicy {
            attempt_timeout: deadline,
            retry: None,
            budget: None,
            breaker: None,
            hedge: Some(hedge),
            cancel: None,
        }
    }

    /// Adds (or replaces) cancellation propagation.
    pub fn with_cancel(mut self, cancel: CancelPolicy) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn backoff_doubles_then_saturates() {
        let p = RetryPolicy::capped(10, SimDuration::from_millis(100), SimDuration::from_secs(1));
        assert_eq!(p.backoff_for(0, 0.0), SimDuration::from_millis(100));
        assert_eq!(p.backoff_for(1, 0.0), SimDuration::from_millis(200));
        assert_eq!(p.backoff_for(2, 0.0), SimDuration::from_millis(400));
        assert_eq!(p.backoff_for(3, 0.0), SimDuration::from_millis(800));
        assert_eq!(p.backoff_for(4, 0.0), SimDuration::from_secs(1));
        assert_eq!(p.backoff_for(60, 0.0), SimDuration::from_secs(1));
    }

    #[test]
    fn jitter_adds_at_most_the_fraction() {
        let p = RetryPolicy::capped(4, SimDuration::from_millis(100), SimDuration::from_secs(2))
            .with_jitter(0.5);
        let floor = p.backoff_for(1, 0.0);
        let near_ceiling = p.backoff_for(1, 0.999);
        assert_eq!(floor, SimDuration::from_millis(200));
        assert!(near_ceiling < SimDuration::from_millis(300));
        assert!(near_ceiling > SimDuration::from_millis(290));
    }

    #[test]
    fn token_bucket_spends_and_refills() {
        let mut b = TokenBucket::new(RetryBudget::new(2.0, 1.0), SimTime::ZERO);
        assert!(b.try_withdraw(SimTime::ZERO));
        assert!(b.try_withdraw(SimTime::ZERO));
        assert!(!b.try_withdraw(SimTime::ZERO));
        // 1 token/s: after 1.5 s one full token is back.
        assert!(b.try_withdraw(SimTime::from_millis(1_500)));
        assert!(!b.try_withdraw(SimTime::from_millis(1_500)));
    }

    #[test]
    fn token_bucket_caps_at_capacity() {
        let mut b = TokenBucket::new(RetryBudget::new(3.0, 10.0), SimTime::ZERO);
        assert!((b.available(SimTime::from_secs(100)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let mut br = CircuitBreaker::new(BreakerConfig::new(2, SimDuration::from_secs(5)));
        let t0 = SimTime::ZERO;
        assert!(br.try_acquire(t0));
        br.on_failure(t0);
        assert_eq!(br.state(t0), BreakerState::Closed);
        br.on_failure(t0);
        assert_eq!(br.state(t0), BreakerState::Open);
        assert!(!br.try_acquire(SimTime::from_secs(4)));
        // Open window elapsed: half-open admits exactly one probe.
        let t = SimTime::from_secs(5);
        assert!(br.try_acquire(t));
        assert!(!br.try_acquire(t));
        br.on_success(t);
        assert_eq!(br.state(t), BreakerState::Closed);
        assert_eq!(br.transitions(), 3);
    }

    #[test]
    fn breaker_reopens_on_failed_probe() {
        let mut br = CircuitBreaker::new(BreakerConfig::new(1, SimDuration::from_secs(2)));
        br.on_failure(SimTime::ZERO);
        let t = SimTime::from_secs(2);
        assert!(br.try_acquire(t));
        br.on_failure(t);
        assert_eq!(br.state(t), BreakerState::Open);
        assert!(!br.try_acquire(SimTime::from_millis(3_900)));
        assert!(br.try_acquire(SimTime::from_secs(4)));
    }

    #[test]
    fn shed_policy_depth_and_deadline() {
        let p = ShedPolicy::on_depth(10).with_deadline(SimDuration::from_secs(1));
        assert!(!p.should_shed(9, SimDuration::from_millis(500)));
        assert!(p.should_shed(10, SimDuration::ZERO));
        assert!(p.should_shed(0, SimDuration::from_millis(1_001)));
        assert!(!ShedPolicy::default().should_shed(usize::MAX, SimDuration::from_secs(999)));
    }

    #[test]
    fn hedge_delay_resolves_fixed_and_quantile() {
        let fixed = HedgeDelay::Fixed(SimDuration::from_millis(120));
        assert_eq!(
            fixed.resolve(Some(SimDuration::from_secs(9))),
            SimDuration::from_millis(120)
        );
        let q = HedgeDelay::Quantile {
            q: 0.95,
            floor: SimDuration::from_millis(100),
            cap: SimDuration::from_secs(2),
        };
        // Cold start → floor; in-range → as observed; extremes → clamped.
        assert_eq!(q.resolve(None), SimDuration::from_millis(100));
        assert_eq!(
            q.resolve(Some(SimDuration::from_millis(700))),
            SimDuration::from_millis(700)
        );
        assert_eq!(
            q.resolve(Some(SimDuration::from_millis(10))),
            SimDuration::from_millis(100)
        );
        assert_eq!(
            q.resolve(Some(SimDuration::from_secs(60))),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn aimd_limiter_grows_additively_and_backs_off_multiplicatively() {
        let mut l = AimdLimiter::new(AimdConfig::new(10.0, 2.0, 100.0));
        // Fast samples establish min RTT and grow the limit.
        for _ in 0..50 {
            l.on_sample(SimDuration::from_millis(10));
        }
        let grown = l.limit();
        assert!(grown > 10, "limit should have grown, got {grown}");
        assert_eq!(l.min_rtt(), Some(SimDuration::from_millis(10)));
        // Congested samples (> tolerance × min RTT) collapse it quickly.
        for _ in 0..60 {
            l.on_sample(SimDuration::from_millis(100));
        }
        assert_eq!(l.limit(), 2, "limit should hit the floor");
    }

    #[test]
    fn aimd_set_bounds_clamps_current_limit_and_keeps_min_rtt() {
        let mut l = AimdLimiter::new(AimdConfig::new(40.0, 2.0, 100.0));
        l.on_sample(SimDuration::from_millis(10));
        // Tighten: the live limit snaps into the new ceiling immediately.
        l.set_bounds(4.0, 16.0);
        assert_eq!(l.limit(), 16);
        assert_eq!(l.min_rtt(), Some(SimDuration::from_millis(10)));
        // Widen again: the limit stays where it is but may now grow past 16.
        l.set_bounds(2.0, 100.0);
        assert_eq!(l.limit(), 16);
        for _ in 0..50 {
            l.on_sample(SimDuration::from_millis(10));
        }
        assert!(l.limit() > 16, "growth resumes under the wider ceiling");
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn aimd_set_bounds_rejects_inverted_bounds() {
        let mut l = AimdLimiter::new(AimdConfig::new(10.0, 2.0, 100.0));
        l.set_bounds(8.0, 4.0);
    }

    #[test]
    fn aimd_shed_variant_never_sheds_statically() {
        let p = ShedPolicy::adaptive(AimdConfig::new(4.0, 1.0, 64.0));
        assert!(!p.should_shed(usize::MAX, SimDuration::from_secs(999)));
    }

    #[test]
    fn hedged_policy_constructor_sets_deadline_semantics() {
        let h = HedgePolicy::at_quantile(
            0.95,
            SimDuration::from_millis(200),
            SimDuration::from_secs(1),
            2,
        )
        .with_budget(RetryBudget::new(20.0, 5.0));
        let p = CallerPolicy::hedged(SimDuration::from_secs(10), h)
            .with_cancel(CancelPolicy::new(SimDuration::from_micros(50)));
        assert_eq!(p.attempt_timeout, SimDuration::from_secs(10));
        assert!(p.retry.is_none(), "hedging replaces sequential retry");
        assert_eq!(p.hedge.unwrap().max_hedges, 2);
        assert_eq!(p.cancel.unwrap().hop_delay, SimDuration::from_micros(50));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Backoff is monotone in the attempt index and never exceeds
        /// cap * (1 + jitter).
        #[test]
        fn backoff_monotone_and_bounded(
            base_ms in 1u64..1_000,
            cap_ms in 1u64..100_000,
            frac in 0.0f64..=1.0,
            unit in 0.0f64..1.0,
        ) {
            let p = RetryPolicy::capped(
                64,
                SimDuration::from_millis(base_ms),
                SimDuration::from_millis(cap_ms),
            )
            .with_jitter(frac);
            let mut last = SimDuration::ZERO;
            for attempt in 0..66 {
                let b = p.backoff_for(attempt, 0.0);
                prop_assert!(b >= last);
                last = b;
            }
            let effective_cap = cap_ms.max(base_ms);
            let with_jitter = p.backoff_for(65, unit);
            let bound = SimDuration::from_micros(
                (effective_cap * 1_000) + ((effective_cap * 1_000) as f64 * frac) as u64 + 1,
            );
            prop_assert!(with_jitter <= bound, "{with_jitter} > {bound}");
        }

        /// The bucket never goes negative and never exceeds capacity.
        #[test]
        fn bucket_stays_within_bounds(
            cap in 1.0f64..20.0,
            rate in 0.0f64..10.0,
            steps in proptest::collection::vec((0u64..5_000, any::<bool>()), 1..50),
        ) {
            let mut bucket = TokenBucket::new(RetryBudget::new(cap, rate), SimTime::ZERO);
            let mut now = SimTime::ZERO;
            for (dt_ms, withdraw) in steps {
                now += SimDuration::from_millis(dt_ms);
                if withdraw {
                    let _ = bucket.try_withdraw(now);
                }
                let avail = bucket.available(now);
                prop_assert!(avail >= 0.0);
                prop_assert!(avail <= cap + 1e-9);
            }
        }
    }
}
