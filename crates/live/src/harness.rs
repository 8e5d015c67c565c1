//! Client-side load generation and measurement for live chains.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver};
use ntier_des::time::SimDuration;
use ntier_resilience::{CallerPolicy, CircuitBreaker, HedgeDelay, HedgePolicy, TokenBucket};
use parking_lot::Mutex;

use crate::policy::{wall, WallClock};
use crate::tier::{CancelToken, LiveReply, LiveRequest, Tier};
use crate::LiveError;

/// What a burst produced.
#[derive(Debug, Clone)]
pub struct BurstOutcome {
    /// Requests that completed within the deadline.
    pub completed: usize,
    /// Requests still unanswered at the deadline.
    pub timed_out: usize,
    /// End-to-end latencies of completed requests.
    pub latencies: Vec<Duration>,
    /// Client-side retransmissions (front-tier drops seen by clients).
    pub client_retransmits: u64,
}

impl BurstOutcome {
    /// The largest completed latency (zero when nothing completed).
    pub fn max_latency(&self) -> Duration {
        self.latencies
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Completed requests slower than `threshold`.
    pub fn count_slower_than(&self, threshold: Duration) -> usize {
        self.latencies.iter().filter(|l| **l >= threshold).count()
    }

    /// The latencies as a telemetry histogram (for mode detection and the
    /// same semi-log rendering the simulator reports use). Bucket width
    /// `bucket` — use ~50 ms for second-scale runs, ~10 ms for the
    /// millisecond-scale tests.
    pub fn histogram(&self, bucket: Duration) -> ntier_telemetry::LatencyHistogram {
        let bucket = ntier_des::time::SimDuration::from_secs_f64(bucket.as_secs_f64().max(1e-6));
        let mut h = ntier_telemetry::LatencyHistogram::new(bucket, 2_048);
        for l in &self.latencies {
            h.record(ntier_des::time::SimDuration::from_secs_f64(l.as_secs_f64()));
        }
        h
    }
}

/// Fires `n` simultaneous requests at `front` (one client thread each, like
/// `n` browsers clicking at once), retransmitting front-tier drops after the
/// chain's RTO is the *tier's* job — the client retries after `CLIENT_RTO`.
///
/// Returns once all requests completed or `deadline` elapsed. A client
/// whose next retransmission would fall past the deadline abandons its
/// request, which then counts as timed out.
///
/// # Errors
///
/// Returns [`LiveError::ClientPanicked`] if a sender thread died instead of
/// handing back its send time.
pub fn fire_burst(
    front: Arc<dyn Tier>,
    n: usize,
    deadline: Duration,
) -> Result<BurstOutcome, LiveError> {
    fire_burst_with_rto(front, n, deadline, Duration::from_millis(250))
}

/// [`fire_burst`] with an explicit client retransmission timeout.
///
/// # Errors
///
/// Returns [`LiveError::ClientPanicked`] if a sender thread died instead of
/// handing back its send time.
pub fn fire_burst_with_rto(
    front: Arc<dyn Tier>,
    n: usize,
    deadline: Duration,
    client_rto: Duration,
) -> Result<BurstOutcome, LiveError> {
    let (reply_tx, reply_rx) = unbounded();
    let retransmits = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let deadline_at = start + deadline;
    let mut senders = Vec::with_capacity(n);
    for id in 0..n as u64 {
        let front = front.clone();
        let reply_tx = reply_tx.clone();
        let retransmits = retransmits.clone();
        senders.push(std::thread::spawn(move || {
            let sent_at = Instant::now();
            let mut req = LiveRequest::new(id, sent_at, reply_tx);
            loop {
                match front.submit(req) {
                    Ok(()) => return Some(sent_at),
                    Err(back) => {
                        req = back;
                        retransmits.fetch_add(1, Ordering::Relaxed);
                        if Instant::now() + client_rto >= deadline_at {
                            return None; // abandoned: timed out
                        }
                        std::thread::sleep(client_rto);
                    }
                }
            }
        }));
    }
    let sent_ats: Vec<Option<Instant>> = senders
        .into_iter()
        .map(|h| h.join().map_err(|_| LiveError::ClientPanicked))
        .collect::<Result<_, _>>()?;
    drop(reply_tx);
    Ok(collect_replies(
        &reply_rx,
        &sent_ats,
        deadline_at,
        retransmits.load(Ordering::Relaxed),
    ))
}

/// Waits until `deadline_at` for one reply per sent request (`sent_ats`
/// holds `None` for requests abandoned before they were admitted).
fn collect_replies(
    reply_rx: &Receiver<LiveReply>,
    sent_ats: &[Option<Instant>],
    deadline_at: Instant,
    client_retransmits: u64,
) -> BurstOutcome {
    let n = sent_ats.len();
    let mut latencies = Vec::with_capacity(n);
    let mut completed = 0;
    while completed < n {
        let remaining = deadline_at.saturating_duration_since(Instant::now());
        match reply_rx.recv_timeout(remaining) {
            Ok(reply) => {
                completed += 1;
                // A reply whose send time was never recorded would mean a
                // duplicate or corrupted id; skip it rather than panic.
                if let Some(sent) = sent_ats.get(reply.id as usize).copied().flatten() {
                    latencies.push(reply.completed_at.duration_since(sent));
                }
            }
            Err(_) => break,
        }
    }
    BurstOutcome {
        completed,
        timed_out: n - completed,
        latencies,
        client_retransmits,
    }
}

/// What a policy-driven burst produced. Unlike [`BurstOutcome`], a request
/// can end three ways — completed, failed (timeout/retry exhaustion), or
/// shed (refused by the circuit breaker without being sent) — mirroring the
/// simulator's terminal classes.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Requests whose reply arrived within some attempt's timeout.
    pub completed: usize,
    /// Requests that exhausted their retries (or budget) and gave up.
    pub failed: usize,
    /// Requests refused by an open breaker.
    pub shed: usize,
    /// End-to-end latencies of completed requests, measured from the
    /// *first* attempt's send time — retries don't reset the clock.
    pub latencies: Vec<Duration>,
    /// Attempt timeouts observed across all requests.
    pub timeouts: u64,
    /// Retry attempts actually sent.
    pub retries: u64,
    /// Front-tier drops observed by clients (instant NACKs).
    pub front_drops: u64,
    /// Backup (hedge) attempts actually sent.
    pub hedges: u64,
    /// Losing attempts the clients cancelled (winner decided, or the
    /// logical deadline passed). The chain-side effect is visible in
    /// [`crate::Chain::reaped`].
    pub cancels: u64,
}

impl PolicyOutcome {
    /// Every request reached exactly one terminal class.
    pub fn is_conserved(&self, n: usize) -> bool {
        self.completed + self.failed + self.shed == n
    }

    /// The largest completed latency (zero when nothing completed).
    pub fn max_latency(&self) -> Duration {
        self.latencies
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Completed requests slower than `threshold`.
    pub fn count_slower_than(&self, threshold: Duration) -> usize {
        self.latencies.iter().filter(|l| **l >= threshold).count()
    }
}

/// How one attempt of a policy-driven request ended.
enum AttemptEnd {
    Completed(Duration),
    TimedOut,
    Dropped,
}

/// Per-client tally handed back from a sender thread.
struct ClientEnd {
    /// 0 = completed, 1 = failed, 2 = shed.
    class: u8,
    latency: Option<Duration>,
    timeouts: u64,
    retries: u64,
    front_drops: u64,
    hedges: u64,
    cancels: u64,
}

impl ClientEnd {
    /// A fresh tally, pessimistically classed as failed.
    fn failed() -> Self {
        ClientEnd {
            class: 1,
            latency: None,
            timeouts: 0,
            retries: 0,
            front_drops: 0,
            hedges: 0,
            cancels: 0,
        }
    }
}

/// Fires `n` simultaneous requests, each governed by the *same*
/// [`CallerPolicy`] the simulator's clients use — attempt timeout, bounded
/// retries with capped backoff + deterministic per-request jitter, a shared
/// token-bucket retry budget, and a shared circuit breaker — so the
/// real-thread testbed can cross-validate the DES engine's resilience
/// semantics. A front-tier drop is an instant NACK handled by the same
/// retry path (application-level recovery replaces the kernel RTO).
///
/// A timed-out attempt is orphaned, exactly as in the simulator: its reply
/// channel is dropped, the chain keeps processing it, and a late reply is
/// discarded.
///
/// When the policy carries a [`HedgePolicy`], the sequential retry loop is
/// replaced by the simulator's hedged semantics: `attempt_timeout` becomes
/// the *whole-logical* deadline, backup attempts launch after the hedge
/// delay (metered by the hedge budget when one is set), and the first reply
/// wins. With a `CancelPolicy` the losing attempts are cancelled through
/// their [`CancelToken`]s — tiers discard them at dequeue instead of
/// servicing orphans (`hop_delay` is not simulated; shared memory is the
/// wire). Retries are ignored in hedged mode, exactly as in the engine.
///
/// # Errors
///
/// Returns [`LiveError::ClientPanicked`] if a sender thread died.
pub fn fire_burst_with_policy(
    front: Arc<dyn Tier>,
    n: usize,
    policy: &CallerPolicy,
) -> Result<PolicyOutcome, LiveError> {
    let clock = WallClock::new();
    let breaker = policy
        .breaker
        .map(|cfg| Arc::new(Mutex::new(CircuitBreaker::new(cfg))));
    let attempt_timeout = wall(policy.attempt_timeout);

    if let Some(hedge) = policy.hedge {
        let shared = Arc::new(HedgeShared {
            front,
            hedge,
            cancel_losers: policy.cancel.is_some(),
            deadline: attempt_timeout,
            clock,
            breaker,
            bucket: hedge
                .budget
                .map(|b| Mutex::new(TokenBucket::new(b, clock.now()))),
            observed: Mutex::new(ntier_telemetry::LatencyHistogram::new(
                SimDuration::from_millis(10),
                2_048,
            )),
        });
        let clients: Vec<_> = (0..n as u64)
            .map(|id| {
                let shared = shared.clone();
                std::thread::spawn(move || hedged_client(&shared, id))
            })
            .collect();
        return collect_clients(clients, n);
    }

    let bucket = policy
        .budget
        .map(|b| Arc::new(Mutex::new(TokenBucket::new(b, clock.now()))));
    let mut clients = Vec::with_capacity(n);
    for id in 0..n as u64 {
        let front = front.clone();
        let retry = policy.retry;
        let breaker = breaker.clone();
        let bucket = bucket.clone();
        clients.push(std::thread::spawn(move || {
            let mut end = ClientEnd::failed();
            // Initial admission: an open breaker fast-fails the request.
            if let Some(br) = &breaker {
                if !br.lock().try_acquire(clock.now()) {
                    end.class = 2;
                    return end;
                }
            }
            let first_sent = Instant::now();
            let mut attempt: u32 = 0;
            loop {
                let (tx, rx) = bounded(1);
                let req = LiveRequest::new(id, first_sent, tx);
                let outcome = match front.submit(req) {
                    Err(_) => {
                        end.front_drops += 1;
                        AttemptEnd::Dropped
                    }
                    Ok(()) => match rx.recv_timeout(attempt_timeout) {
                        Ok(reply) => {
                            AttemptEnd::Completed(reply.completed_at.duration_since(first_sent))
                        }
                        Err(_) => AttemptEnd::TimedOut,
                    },
                };
                match outcome {
                    AttemptEnd::Completed(lat) => {
                        if let Some(br) = &breaker {
                            br.lock().on_success(clock.now());
                        }
                        end.class = 0;
                        end.latency = Some(lat);
                        return end;
                    }
                    AttemptEnd::TimedOut | AttemptEnd::Dropped => {
                        if matches!(outcome, AttemptEnd::TimedOut) {
                            end.timeouts += 1;
                        }
                        if let Some(br) = &breaker {
                            br.lock().on_failure(clock.now());
                        }
                        // Retry admission: bound, then budget, then breaker
                        // — the simulator's order.
                        let Some(r) = retry.as_ref().filter(|r| r.allows(attempt)) else {
                            return end; // failed
                        };
                        if let Some(b) = &bucket {
                            if !b.lock().try_withdraw(clock.now()) {
                                return end; // failed: budget exhausted
                            }
                        }
                        if let Some(br) = &breaker {
                            if !br.lock().try_acquire(clock.now()) {
                                end.class = 2;
                                return end; // shed: breaker open
                            }
                        }
                        end.retries += 1;
                        // Deterministic per-(request, attempt) jitter unit —
                        // no RNG needed off the simulated clock.
                        let unit = f64::from(
                            (id as u32)
                                .wrapping_mul(2_654_435_761)
                                .wrapping_add(attempt * 40_503)
                                % 1_000,
                        ) / 1_000.0;
                        std::thread::sleep(wall(r.backoff_for(attempt, unit)));
                        attempt += 1;
                    }
                }
            }
        }));
    }
    collect_clients(clients, n)
}

/// Joins the client threads into an aggregate [`PolicyOutcome`].
fn collect_clients(
    clients: Vec<std::thread::JoinHandle<ClientEnd>>,
    n: usize,
) -> Result<PolicyOutcome, LiveError> {
    let mut out = PolicyOutcome {
        completed: 0,
        failed: 0,
        shed: 0,
        latencies: Vec::with_capacity(n),
        timeouts: 0,
        retries: 0,
        front_drops: 0,
        hedges: 0,
        cancels: 0,
    };
    for h in clients {
        let end = h.join().map_err(|_| LiveError::ClientPanicked)?;
        match end.class {
            0 => out.completed += 1,
            2 => out.shed += 1,
            _ => out.failed += 1,
        }
        if let Some(l) = end.latency {
            out.latencies.push(l);
        }
        out.timeouts += end.timeouts;
        out.retries += end.retries;
        out.front_drops += end.front_drops;
        out.hedges += end.hedges;
        out.cancels += end.cancels;
    }
    Ok(out)
}

/// State shared by every client of a hedged burst.
struct HedgeShared {
    front: Arc<dyn Tier>,
    hedge: HedgePolicy,
    cancel_losers: bool,
    /// The whole-logical deadline (`CallerPolicy::attempt_timeout`).
    deadline: Duration,
    clock: WallClock,
    breaker: Option<Arc<Mutex<CircuitBreaker>>>,
    /// The hedge budget (`HedgePolicy::budget`), shared caller-wide.
    bucket: Option<Mutex<TokenBucket>>,
    /// Completed latencies, feeding [`HedgeDelay::Quantile`] resolution.
    observed: Mutex<ntier_telemetry::LatencyHistogram>,
}

impl HedgeShared {
    /// The wall-clock delay before the next hedge, resolving quantile
    /// tracking against the latencies this burst has completed so far.
    fn hedge_delay(&self) -> Duration {
        let observed = match self.hedge.delay {
            HedgeDelay::Quantile { q, .. } => self.observed.lock().quantile(q),
            HedgeDelay::Fixed(_) => None,
        };
        wall(self.hedge.delay.resolve(observed))
    }
}

/// One hedged logical request: fire the primary, launch backups on the
/// hedge timer, take the first reply, and (with cancellation enabled) chase
/// the losers down via their [`CancelToken`]s.
fn hedged_client(sh: &HedgeShared, id: u64) -> ClientEnd {
    let mut end = ClientEnd::failed();
    // Initial admission: an open breaker fast-fails the logical request.
    if let Some(br) = &sh.breaker {
        if !br.lock().try_acquire(sh.clock.now()) {
            end.class = 2;
            return end;
        }
    }
    let first_sent = Instant::now();
    let deadline_at = first_sent + sh.deadline;
    // Every attempt of this logical request answers on one channel; the
    // first reply wins. A front-dropped attempt is simply dead — hedged
    // mode replaces the retransmit ladder with the next hedge.
    let (tx, rx) = bounded(sh.hedge.max_hedges as usize + 1);
    let mut tokens: Vec<CancelToken> = Vec::new();
    let launch = |end: &mut ClientEnd, tokens: &mut Vec<CancelToken>| {
        let req = LiveRequest::new(id, first_sent, tx.clone());
        let token = req.cancel.clone();
        match sh.front.submit(req) {
            Ok(()) => tokens.push(token),
            Err(_) => end.front_drops += 1,
        }
    };
    launch(&mut end, &mut tokens);
    let mut hedges_fired: u32 = 0;
    let mut next_hedge_at = first_sent + sh.hedge_delay();
    loop {
        let now = Instant::now();
        if now >= deadline_at {
            break; // failed: the logical deadline passed
        }
        if tokens.is_empty() && hedges_fired >= sh.hedge.max_hedges {
            break; // every attempt was dropped and no hedges remain
        }
        let wake_at = if hedges_fired < sh.hedge.max_hedges {
            next_hedge_at.min(deadline_at)
        } else {
            deadline_at
        };
        match rx.recv_timeout(wake_at.saturating_duration_since(now)) {
            Ok(reply) => {
                if let Some(br) = &sh.breaker {
                    br.lock().on_success(sh.clock.now());
                }
                let lat = reply.completed_at.duration_since(first_sent);
                sh.observed
                    .lock()
                    .record(SimDuration::from_secs_f64(lat.as_secs_f64()));
                end.class = 0;
                end.latency = Some(lat);
                if sh.cancel_losers {
                    // Everything else still in flight is a loser. The
                    // winner's token is among these, but it already left
                    // the chain — cancelling it is a no-op.
                    end.cancels += (tokens.len() as u64).saturating_sub(1);
                    for t in &tokens {
                        t.cancel();
                    }
                }
                return end;
            }
            Err(_) => {
                // Woke for the hedge timer (or for the deadline, which the
                // loop top handles).
                if hedges_fired >= sh.hedge.max_hedges || Instant::now() < next_hedge_at {
                    continue;
                }
                hedges_fired += 1;
                if let Some(b) = &sh.bucket {
                    if !b.lock().try_withdraw(sh.clock.now()) {
                        // Budget exhausted: suppress this hedge and the
                        // rest; ride the surviving attempts to the wire.
                        hedges_fired = sh.hedge.max_hedges;
                        continue;
                    }
                }
                end.hedges += 1;
                launch(&mut end, &mut tokens);
                next_hedge_at = Instant::now() + sh.hedge_delay();
            }
        }
    }
    // Failed at the deadline: report it and chase down every attempt still
    // in the chain rather than leaving orphans.
    if let Some(br) = &sh.breaker {
        br.lock().on_failure(sh.clock.now());
    }
    if sh.cancel_losers {
        end.cancels += tokens.len() as u64;
        for t in &tokens {
            t.cancel();
        }
    }
    end
}

/// Drives `front` at a fixed request rate for `duration` from a single
/// pacing thread (plus a collector). Front-tier drops are retried after
/// `client_rto` from the same pacing loop, so no thread explosion occurs at
/// high drop rates.
///
/// Returns once every request completed or `deadline` elapsed. A drop whose
/// retransmission would fall past the deadline is abandoned and counts as
/// timed out.
///
/// # Errors
///
/// Returns [`LiveError::PacerPanicked`] if the pacing thread died.
pub fn fire_sustained(
    front: Arc<dyn Tier>,
    rate_per_sec: f64,
    duration: Duration,
    deadline: Duration,
    client_rto: Duration,
) -> Result<BurstOutcome, LiveError> {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    let gap = Duration::from_secs_f64(1.0 / rate_per_sec);
    let n = (duration.as_secs_f64() * rate_per_sec).round() as usize;
    let (reply_tx, reply_rx) = unbounded();
    let start = Instant::now();
    let deadline_at = start + deadline;
    let retransmits = Arc::new(AtomicU64::new(0));

    let pacer = {
        let front = front.clone();
        let retransmits = retransmits.clone();
        std::thread::spawn(move || {
            let mut sent_ats: Vec<Option<Instant>> = vec![None; n];
            // (due, request) retry queue, kept sorted by push order (all
            // retries share the same RTO so FIFO order == due order).
            let mut retries: VecDeque<(Instant, LiveRequest)> = VecDeque::new();
            let submit = |retries: &mut VecDeque<(Instant, LiveRequest)>, req| {
                if let Err(back) = front.submit(req) {
                    retransmits.fetch_add(1, Ordering::Relaxed);
                    let due = Instant::now() + client_rto;
                    if due < deadline_at {
                        retries.push_back((due, back));
                    }
                }
            };
            for id in 0..n as u64 {
                let fire_at = start + gap.mul_f64(id as f64);
                // service due retries while waiting for the next send slot
                loop {
                    let now = Instant::now();
                    if retries.front().is_some_and(|(due, _)| *due <= now) {
                        if let Some((_, req)) = retries.pop_front() {
                            submit(&mut retries, req);
                        }
                        continue;
                    }
                    if now >= fire_at {
                        break;
                    }
                    let next_due = retries.front().map(|(d, _)| *d).unwrap_or(fire_at);
                    std::thread::sleep(
                        next_due
                            .min(fire_at)
                            .saturating_duration_since(now)
                            .min(gap),
                    );
                }
                let sent_at = Instant::now();
                sent_ats[id as usize] = Some(sent_at);
                submit(
                    &mut retries,
                    LiveRequest::new(id, sent_at, reply_tx.clone()),
                );
            }
            // drain the retry queue
            while let Some((due, req)) = retries.pop_front() {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                submit(&mut retries, req);
            }
            drop(reply_tx);
            sent_ats
        })
    };
    let sent_ats = pacer.join().map_err(|_| LiveError::PacerPanicked)?;
    Ok(collect_replies(
        &reply_rx,
        &sent_ats,
        deadline_at,
        retransmits.load(Ordering::Relaxed),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainBuilder, LiveTier};
    use crate::stall::StallGate;

    const SERVICE: Duration = Duration::from_micros(200);

    #[test]
    fn burst_within_capacity_completes_fast() {
        let chain = ChainBuilder::new(Duration::from_millis(100))
            .tier(LiveTier::sync("web", 4, 8, SERVICE))
            .build()
            .expect("spawn chain");
        let outcome = fire_burst(chain.front(), 8, Duration::from_secs(3)).expect("burst");
        assert_eq!(outcome.completed, 8);
        assert_eq!(outcome.client_retransmits, 0);
        assert!(outcome.max_latency() < Duration::from_millis(200));
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn overflow_produces_retransmission_latency_modes() {
        // Capacity 2 workers + 2 backlog = 4; a burst of 12 forces
        // client-side retransmissions: the slow cluster sits >= one RTO.
        let rto = Duration::from_millis(300);
        let chain = ChainBuilder::new(rto)
            .tier(LiveTier::sync("web", 2, 2, Duration::from_millis(20)))
            .build()
            .expect("spawn chain");
        let outcome =
            fire_burst_with_rto(chain.front(), 12, Duration::from_secs(10), rto).expect("burst");
        assert_eq!(outcome.completed, 12);
        assert!(outcome.client_retransmits > 0);
        let slow = outcome.count_slower_than(Duration::from_millis(290));
        let fast = outcome.latencies.len() - slow;
        assert!(slow >= 2, "slow cluster too small: {:?}", outcome.latencies);
        assert!(fast >= 4, "fast cluster too small: {:?}", outcome.latencies);
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn upstream_ctqo_live_sync_chain_drops_at_front() {
        // Stall the app tier: web workers block on it (RPC), the web accept
        // queue fills, and the *web* tier drops — upstream CTQO, for real.
        let gate = StallGate::new();
        let chain = ChainBuilder::new(Duration::from_millis(200))
            .tier(LiveTier::sync("web", 2, 2, SERVICE))
            .tier(LiveTier::sync("app", 2, 2, SERVICE).with_gate(gate.clone()))
            .build()
            .expect("spawn chain");
        gate.begin();
        let front = chain.front();
        let burst = std::thread::spawn(move || {
            fire_burst_with_rto(
                front,
                16,
                Duration::from_secs(10),
                Duration::from_millis(300),
            )
        });
        std::thread::sleep(Duration::from_millis(400));
        gate.end();
        let outcome = burst.join().expect("burst thread").expect("burst");
        let drops = chain.drops();
        assert!(drops[0] > 0, "expected front-tier drops, got {drops:?}");
        assert_eq!(outcome.completed, 16);
        assert!(outcome.count_slower_than(Duration::from_millis(290)) > 0);
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn async_chain_absorbs_the_same_millibottleneck() {
        let gate = StallGate::new();
        let chain = ChainBuilder::new(Duration::from_millis(200))
            .tier(LiveTier::asynchronous("web", 1_000, 2, SERVICE))
            .tier(LiveTier::asynchronous("app", 1_000, 2, SERVICE).with_gate(gate.clone()))
            .build()
            .expect("spawn chain");
        gate.begin();
        let front = chain.front();
        let burst = std::thread::spawn(move || {
            fire_burst_with_rto(
                front,
                16,
                Duration::from_secs(10),
                Duration::from_millis(300),
            )
        });
        std::thread::sleep(Duration::from_millis(400));
        gate.end();
        let outcome = burst.join().expect("burst thread").expect("burst");
        assert_eq!(chain.drops(), vec![0, 0], "async tiers must not drop");
        assert_eq!(outcome.completed, 16);
        // worst latency ≈ the stall, not the stall + RTO ladder
        assert!(
            outcome.max_latency() < Duration::from_millis(700),
            "max latency {:?}",
            outcome.max_latency()
        );
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn histogram_of_an_overflowed_burst_is_multimodal() {
        let rto = Duration::from_millis(300);
        let chain = ChainBuilder::new(rto)
            .tier(LiveTier::sync("web", 2, 2, Duration::from_millis(5)))
            .build()
            .expect("spawn chain");
        let outcome =
            fire_burst_with_rto(chain.front(), 12, Duration::from_secs(10), rto).expect("burst");
        let h = outcome.histogram(Duration::from_millis(10));
        let modes = h.modes(ntier_des::time::SimDuration::from_millis(100), 2);
        assert!(
            modes.len() >= 2,
            "expected fast + retransmitted clusters: {modes:?}"
        );
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn sustained_load_completes_without_drops_at_moderate_rate() {
        let chain = ChainBuilder::new(Duration::from_millis(100))
            .tier(LiveTier::sync("web", 4, 8, Duration::from_micros(500)))
            .build()
            .expect("spawn chain");
        let outcome = fire_sustained(
            chain.front(),
            400.0,
            Duration::from_millis(500),
            Duration::from_secs(5),
            Duration::from_millis(100),
        )
        .expect("sustained");
        assert_eq!(outcome.timed_out, 0);
        assert_eq!(outcome.client_retransmits, 0);
        assert_eq!(chain.drops(), vec![0]);
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn sustained_load_through_a_stall_drops_then_recovers() {
        // λ·d = 400/s × 0.3 s = 120 >> 3 slots: the stall must drop, and
        // every dropped request must still complete via retransmission.
        let gate = StallGate::new();
        let chain = ChainBuilder::new(Duration::from_millis(150))
            .tier(LiveTier::sync("web", 1, 2, Duration::from_micros(200)).with_gate(gate.clone()))
            .build()
            .expect("spawn chain");
        gate.schedule_stall(Duration::from_millis(100), Duration::from_millis(300));
        let outcome = fire_sustained(
            chain.front(),
            400.0,
            Duration::from_millis(600),
            Duration::from_secs(20),
            Duration::from_millis(150),
        )
        .expect("sustained");
        assert!(outcome.client_retransmits > 0);
        assert!(chain.drops()[0] > 0);
        assert_eq!(outcome.timed_out, 0, "all requests eventually complete");
        assert!(outcome.count_slower_than(Duration::from_millis(140)) > 0);
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn downstream_ctqo_async_front_floods_sync_back() {
        // Async front admits everything and floods the tiny sync back tier:
        // drops move downstream — exactly the paper's NX=1 observation.
        let gate = StallGate::new();
        let chain = ChainBuilder::new(Duration::from_millis(200))
            .tier(LiveTier::asynchronous(
                "web",
                1_000,
                4,
                Duration::from_micros(50),
            ))
            .tier(LiveTier::sync("app", 1, 2, Duration::from_millis(1)).with_gate(gate.clone()))
            .build()
            .expect("spawn chain");
        gate.begin();
        let front = chain.front();
        let burst = std::thread::spawn(move || {
            fire_burst_with_rto(
                front,
                24,
                Duration::from_secs(10),
                Duration::from_millis(300),
            )
        });
        std::thread::sleep(Duration::from_millis(300));
        gate.end();
        let outcome = burst.join().expect("burst thread").expect("burst");
        let drops = chain.drops();
        assert_eq!(drops[0], 0, "async front must not drop: {drops:?}");
        assert!(drops[1] > 0, "expected downstream drops: {drops:?}");
        assert_eq!(outcome.completed, 24);
        chain.shutdown().expect("clean shutdown");
    }

    /// A 1-worker, 0-backlog sync tier frozen behind a gate that stays
    /// closed: it admits two requests and then refuses every send.
    fn wedged_front() -> (crate::Chain, StallGate) {
        let gate = StallGate::new();
        let chain = ChainBuilder::new(Duration::from_millis(50))
            .tier(LiveTier::sync("web", 1, 0, SERVICE).with_gate(gate.clone()))
            .build()
            .expect("spawn chain");
        gate.begin();
        (chain, gate)
    }

    /// Runs `drive` on its own thread and requires its outcome within 5 s.
    fn within_5s(
        drive: impl FnOnce() -> Result<BurstOutcome, LiveError> + Send + 'static,
    ) -> BurstOutcome {
        let (tx, rx) = bounded(1);
        let caller = std::thread::spawn(move || {
            let _ = tx.send(drive());
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the harness must return by its deadline");
        caller.join().expect("caller thread");
        outcome.expect("harness run")
    }

    #[test]
    fn burst_at_a_wedged_front_returns_by_the_deadline() {
        let (chain, gate) = wedged_front();
        let front = chain.front();
        let outcome = within_5s(move || fire_burst(front, 4, Duration::from_secs(1)));
        assert_eq!(outcome.completed, 0, "{outcome:?}");
        assert_eq!(outcome.timed_out, 4, "{outcome:?}");
        assert!(outcome.client_retransmits > 0, "{outcome:?}");
        gate.end();
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn burst_with_rto_at_a_wedged_front_returns_by_the_deadline() {
        let (chain, gate) = wedged_front();
        let front = chain.front();
        let outcome = within_5s(move || {
            fire_burst_with_rto(front, 4, Duration::from_secs(1), Duration::from_millis(100))
        });
        assert_eq!(outcome.completed, 0, "{outcome:?}");
        assert_eq!(outcome.timed_out, 4, "{outcome:?}");
        gate.end();
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn sustained_load_at_a_wedged_front_returns_by_the_deadline() {
        let (chain, gate) = wedged_front();
        let front = chain.front();
        let outcome = within_5s(move || {
            fire_sustained(
                front,
                50.0,
                Duration::from_millis(200),
                Duration::from_secs(1),
                Duration::from_millis(100),
            )
        });
        assert_eq!(outcome.completed, 0, "{outcome:?}");
        assert_eq!(outcome.timed_out, 10, "{outcome:?}");
        assert!(outcome.client_retransmits > 0, "{outcome:?}");
        gate.end();
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn policy_burst_within_capacity_completes_clean() {
        use ntier_des::time::SimDuration;
        use ntier_resilience::CallerPolicy;
        let chain = ChainBuilder::new(Duration::from_millis(100))
            .tier(LiveTier::sync("web", 4, 8, SERVICE))
            .build()
            .expect("spawn chain");
        let policy = CallerPolicy::naive(SimDuration::from_secs(2), 2);
        let outcome = fire_burst_with_policy(chain.front(), 8, &policy).expect("burst");
        assert!(outcome.is_conserved(8));
        assert_eq!(outcome.completed, 8);
        assert_eq!(outcome.failed + outcome.shed, 0);
        assert_eq!(outcome.timeouts, 0);
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn policy_burst_rides_through_a_stall_with_retries() {
        use ntier_des::time::SimDuration;
        use ntier_resilience::{CallerPolicy, RetryPolicy};
        // 300 ms stall vs a 100 ms attempt timeout: first attempts time out
        // and are orphaned; retries after the stall complete. Measured from
        // first send, completions include the stall in their latency.
        let gate = StallGate::new();
        let chain = ChainBuilder::new(Duration::from_millis(100))
            .tier(LiveTier::sync("web", 4, 32, SERVICE).with_gate(gate.clone()))
            .build()
            .expect("spawn chain");
        gate.schedule_stall(Duration::ZERO, Duration::from_millis(300));
        std::thread::sleep(Duration::from_millis(20));
        let policy = CallerPolicy {
            attempt_timeout: SimDuration::from_millis(100),
            retry: Some(RetryPolicy::capped(
                6,
                SimDuration::from_millis(50),
                SimDuration::from_millis(150),
            )),
            budget: None,
            breaker: None,
            hedge: None,
            cancel: None,
        };
        let outcome = fire_burst_with_policy(chain.front(), 4, &policy).expect("burst");
        assert!(outcome.is_conserved(4));
        assert_eq!(outcome.completed, 4, "{outcome:?}");
        assert!(outcome.timeouts >= 4, "{outcome:?}");
        assert!(outcome.retries >= 4, "{outcome:?}");
        assert!(
            outcome.max_latency() >= Duration::from_millis(200),
            "{outcome:?}"
        );
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn policy_burst_breaker_sheds_when_chain_is_wedged() {
        use ntier_des::time::SimDuration;
        use ntier_resilience::{BreakerConfig, CallerPolicy, RetryPolicy};
        // The tier stalls for far longer than any attempt: with a
        // 1-failure breaker held open for seconds, the first wave of
        // timeouts trips it and later attempts are shed, not queued.
        let gate = StallGate::new();
        let chain = ChainBuilder::new(Duration::from_millis(100))
            .tier(LiveTier::sync("web", 2, 32, SERVICE).with_gate(gate.clone()))
            .build()
            .expect("spawn chain");
        gate.begin();
        let policy = CallerPolicy {
            attempt_timeout: SimDuration::from_millis(80),
            retry: Some(RetryPolicy::capped(
                4,
                SimDuration::from_millis(40),
                SimDuration::from_millis(80),
            )),
            budget: None,
            breaker: Some(BreakerConfig::new(1, SimDuration::from_secs(10))),
            hedge: None,
            cancel: None,
        };
        let outcome = fire_burst_with_policy(chain.front(), 8, &policy).expect("burst");
        gate.end();
        assert!(outcome.is_conserved(8));
        assert_eq!(outcome.completed, 0, "{outcome:?}");
        assert!(outcome.shed > 0, "{outcome:?}");
        assert!(outcome.timeouts > 0, "{outcome:?}");
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn hedged_burst_cancels_losers_and_tiers_reap_them() {
        use ntier_des::time::SimDuration;
        use ntier_resilience::{CallerPolicy, CancelPolicy, HedgePolicy};
        // One worker behind a 200 ms stall. Every primary queues during the
        // stall; each client hedges at +60 ms, so the backups queue *behind*
        // all the primaries. As primaries complete, their clients cancel
        // the losing hedges — which the worker must then discard at dequeue
        // instead of servicing. The simulator's cancels_propagated /
        // wasted_work_saved arithmetic, on real threads.
        let gate = StallGate::new();
        let chain = ChainBuilder::new(Duration::from_millis(100))
            .tier(LiveTier::sync("web", 1, 32, Duration::from_millis(20)).with_gate(gate.clone()))
            .build()
            .expect("spawn chain");
        gate.schedule_stall(Duration::ZERO, Duration::from_millis(200));
        std::thread::sleep(Duration::from_millis(20));
        let policy = CallerPolicy::hedged(
            SimDuration::from_secs(10),
            HedgePolicy::fixed(SimDuration::from_millis(60), 1),
        )
        .with_cancel(CancelPolicy::new(SimDuration::from_micros(50)));
        let outcome = fire_burst_with_policy(chain.front(), 4, &policy).expect("burst");
        assert!(outcome.is_conserved(4));
        assert_eq!(outcome.completed, 4, "{outcome:?}");
        assert_eq!(outcome.hedges, 4, "{outcome:?}");
        assert_eq!(outcome.cancels, 4, "{outcome:?}");
        // The losers must be discarded by the worker, not serviced: give it
        // a beat to drain the queue, then check the reap counter.
        std::thread::sleep(Duration::from_millis(150));
        let reaped = chain.reaped();
        assert!(reaped[0] >= 3, "losers must be reaped, got {reaped:?}");
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn hedged_without_cancel_leaves_orphans_to_run() {
        use ntier_des::time::SimDuration;
        use ntier_resilience::{CallerPolicy, HedgePolicy};
        // The same plant without a CancelPolicy: the losing hedges are
        // orphans — the tier services every one of them for nothing.
        let gate = StallGate::new();
        let chain = ChainBuilder::new(Duration::from_millis(100))
            .tier(LiveTier::sync("web", 1, 32, Duration::from_millis(20)).with_gate(gate.clone()))
            .build()
            .expect("spawn chain");
        gate.schedule_stall(Duration::ZERO, Duration::from_millis(200));
        std::thread::sleep(Duration::from_millis(20));
        let policy = CallerPolicy::hedged(
            SimDuration::from_secs(10),
            HedgePolicy::fixed(SimDuration::from_millis(60), 1),
        );
        let outcome = fire_burst_with_policy(chain.front(), 4, &policy).expect("burst");
        assert!(outcome.is_conserved(4));
        assert_eq!(outcome.completed, 4, "{outcome:?}");
        assert_eq!(outcome.cancels, 0, "{outcome:?}");
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(chain.reaped(), vec![0], "orphans must not be reaped");
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn hedged_attempts_rescue_front_dropped_primaries() {
        use ntier_des::time::SimDuration;
        use ntier_resilience::{CallerPolicy, CancelPolicy, HedgePolicy};
        // Capacity 1 worker + 1 backlog = 2 during a 150 ms stall: most of
        // the 6 primaries are NACKed at the front door and die (hedged mode
        // has no retransmit ladder). The hedge timer is the recovery path:
        // backups at +200 ms and +400 ms land after the stall on a drained
        // queue. K = 2 covers two consecutive full-queue collisions.
        let gate = StallGate::new();
        let chain = ChainBuilder::new(Duration::from_millis(100))
            .tier(LiveTier::sync("web", 1, 1, Duration::from_millis(10)).with_gate(gate.clone()))
            .build()
            .expect("spawn chain");
        gate.schedule_stall(Duration::ZERO, Duration::from_millis(150));
        std::thread::sleep(Duration::from_millis(20));
        let policy = CallerPolicy::hedged(
            SimDuration::from_secs(10),
            HedgePolicy::fixed(SimDuration::from_millis(200), 2),
        )
        .with_cancel(CancelPolicy::new(SimDuration::from_micros(50)));
        let outcome = fire_burst_with_policy(chain.front(), 6, &policy).expect("burst");
        assert!(outcome.is_conserved(6));
        assert_eq!(outcome.completed, 6, "{outcome:?}");
        assert!(outcome.front_drops > 0, "{outcome:?}");
        assert!(outcome.hedges > 0, "{outcome:?}");
        chain.shutdown().expect("clean shutdown");
    }
}
