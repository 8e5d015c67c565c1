//! Client-side load generation and measurement for live chains.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::tier::{LiveRequest, Tier};
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
}

/// Fires `n` simultaneous requests at `front` (one client thread each, like
/// `n` browsers clicking at once). A client whose request the front drops
/// retransmits it after 250 ms; drops further down are retransmitted by the
/// calling tier after the chain's RTO.
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
    let (reply_tx, reply_rx) = mpsc::channel();
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
            let mut req = LiveRequest {
                id,
                sent_at,
                reply: reply_tx,
            };
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
    // Wait until the deadline for one reply per request; a request
    // abandoned before it was admitted (`None`) never replies.
    let mut latencies = Vec::with_capacity(n);
    let mut completed = 0;
    while completed < n {
        let remaining = deadline_at.saturating_duration_since(Instant::now());
        let Ok(reply) = reply_rx.recv_timeout(remaining) else {
            break;
        };
        completed += 1;
        // A reply whose send time was never recorded would mean a
        // duplicate or corrupted id; skip it rather than panic.
        if let Some(sent) = sent_ats.get(reply.id as usize).copied().flatten() {
            latencies.push(reply.completed_at.duration_since(sent));
        }
    }
    Ok(BurstOutcome {
        completed,
        timed_out: n - completed,
        latencies,
        client_retransmits: retransmits.load(Ordering::Relaxed),
    })
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
        let (tx, rx) = mpsc::channel();
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
}
