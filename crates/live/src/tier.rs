//! Live tiers: thread-pool RPC servers and event-loop async servers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use ntier_core::Balancer;

use crate::stall::StallGate;
use crate::LiveError;

/// A cooperative cancellation flag that travels with a request through the
/// chain. The client keeps a clone; raising it marks the attempt as a loser.
/// Live tiers cannot yank a request out of a bounded channel (any more than
/// a real server can un-receive a socket buffer), so cancellation is
/// observed at the next touch point: a worker dequeuing a cancelled request
/// discards it without spending service time, and a worker stuck in the
/// retransmit loop for one abandons the send. Both count as a reap — the
/// live analogue of the simulator's cancellation chase.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Marks the attempt as cancelled.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the attempt has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A request travelling down the chain.
#[derive(Debug)]
pub struct LiveRequest {
    /// Client-assigned id.
    pub id: u64,
    /// When the client first sent it (for end-to-end latency).
    pub sent_at: Instant,
    /// Where the handling tier should deliver the reply.
    pub reply: Sender<LiveReply>,
    /// Cancellation flag shared with the client (and, for sync forwards,
    /// with every hop the attempt visits).
    pub cancel: CancelToken,
}

impl LiveRequest {
    /// A request with a fresh cancellation token.
    pub fn new(id: u64, sent_at: Instant, reply: Sender<LiveReply>) -> Self {
        LiveRequest {
            id,
            sent_at,
            reply,
            cancel: CancelToken::new(),
        }
    }
}

/// The reply travelling back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveReply {
    /// Request id.
    pub id: u64,
    /// When the last tier finished the request (latency is measured here,
    /// not at client receive time, so slow clients don't skew it).
    pub completed_at: Instant,
}

/// Anything a message can be submitted to.
pub trait Tier: Send + Sync {
    /// Attempts to hand `req` to this tier.
    ///
    /// # Errors
    ///
    /// Returns `Err(req)` when the tier's accept queue is full — the live
    /// equivalent of a dropped SYN; the caller owns retransmission.
    fn submit(&self, req: LiveRequest) -> Result<(), LiveRequest>;

    /// Tier name (diagnostics).
    fn name(&self) -> &str;

    /// Messages rejected so far.
    fn drops(&self) -> u64;

    /// Cancelled attempts this tier discarded instead of servicing — the
    /// wasted work that cancellation propagation reclaimed here.
    fn reaped(&self) -> u64 {
        0
    }

    /// Requests currently parked in this tier's accept queue — the signal a
    /// least-outstanding balancer reads. The default (`0`) suits tiers that
    /// cannot observe their depth.
    fn depth(&self) -> usize {
        0
    }
}

fn submit_with_retransmit(
    target: &Arc<dyn Tier>,
    mut req: LiveRequest,
    rto: Duration,
    reaped: &AtomicU64,
) {
    loop {
        if req.cancel.is_cancelled() {
            // The attempt was abandoned while waiting out an RTO — the live
            // equivalent of reaping from retransmission limbo.
            reaped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match target.submit(req) {
            Ok(()) => return,
            Err(back) => {
                req = back;
                std::thread::sleep(rto);
            }
        }
    }
}

/// A synchronous (RPC) tier: `workers` threads behind a `backlog`-bounded
/// accept queue. Workers hold their thread across the downstream round trip.
#[derive(Debug)]
pub struct SyncTier {
    name: String,
    input: Sender<LiveRequest>,
    drops: AtomicU64,
    reaped: Arc<AtomicU64>,
    handles: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SyncTier {
    /// Spawns the tier.
    ///
    /// * the accept queue is bounded at `workers + backlog` — the tier's
    ///   `MaxSysQDepth`, matching the paper's capacity arithmetic;
    /// * `service` — per-request CPU time (simulated with `sleep`);
    /// * `downstream` — the next tier, or `None` for the last tier;
    /// * `rto` — retransmission timeout for this tier's downstream sends.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::Spawn`] when the OS refuses a worker thread;
    /// already-spawned workers wind down when the returned tier is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn spawn(
        name: impl Into<String>,
        workers: usize,
        backlog: usize,
        service: Duration,
        gate: StallGate,
        downstream: Option<Arc<dyn Tier>>,
        rto: Duration,
    ) -> Result<Arc<SyncTier>, LiveError> {
        assert!(workers > 0, "a sync tier needs at least one worker");
        let name = name.into();
        let (tx, rx): (Sender<LiveRequest>, Receiver<LiveRequest>) = bounded(workers + backlog);
        let reaped = Arc::new(AtomicU64::new(0));
        let tier = Arc::new(SyncTier {
            name: name.clone(),
            input: tx,
            drops: AtomicU64::new(0),
            reaped: reaped.clone(),
            handles: parking_lot::Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = rx.clone();
            let gate = gate.clone();
            let downstream = downstream.clone();
            let reaped = reaped.clone();
            let thread_name = format!("{name}-worker-{i}");
            handles.push(
                std::thread::Builder::new()
                    .name(thread_name)
                    .spawn(move || {
                        while let Ok(req) = rx.recv() {
                            gate.wait_if_stalled();
                            if req.cancel.is_cancelled() {
                                // A loser surfaced from the queue: discard
                                // it — no service time, no downstream work,
                                // no reply. Dropping its reply sender
                                // unwinds any upstream hop blocked on it.
                                reaped.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            std::thread::sleep(service);
                            match &downstream {
                                None => {
                                    let _ = req.reply.send(LiveReply {
                                        id: req.id,
                                        completed_at: Instant::now(),
                                    });
                                }
                                Some(d) => {
                                    // RPC: forward with a private reply
                                    // channel and BLOCK until it answers.
                                    let (tx, rx_reply) = bounded(1);
                                    let fwd = LiveRequest {
                                        id: req.id,
                                        sent_at: req.sent_at,
                                        reply: tx,
                                        cancel: req.cancel.clone(),
                                    };
                                    submit_with_retransmit(d, fwd, rto, &reaped);
                                    if let Ok(reply) = rx_reply.recv() {
                                        let _ = req.reply.send(reply);
                                    }
                                }
                            }
                        }
                    })?,
            );
        }
        *tier.handles.lock() = handles;
        Ok(tier)
    }

    /// Takes the worker handles for joining (used by `Chain::shutdown`).
    pub fn take_handles(&self) -> Vec<std::thread::JoinHandle<()>> {
        std::mem::take(&mut self.handles.lock())
    }
}

impl Tier for SyncTier {
    fn submit(&self, req: LiveRequest) -> Result<(), LiveRequest> {
        match self.input.try_send(req) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(r)) | Err(TrySendError::Disconnected(r)) => {
                self.drops.fetch_add(1, Ordering::Relaxed);
                Err(r)
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    fn reaped(&self) -> u64 {
        self.reaped.load(Ordering::Relaxed)
    }

    fn depth(&self) -> usize {
        self.input.len()
    }
}

/// An asynchronous (event-driven) tier: a large `LiteQDepth` accept queue in
/// front of a small worker pool; workers never hold across downstream calls
/// — they forward with the *original* reply address.
#[derive(Debug)]
pub struct AsyncTier {
    name: String,
    input: Sender<LiveRequest>,
    drops: AtomicU64,
    reaped: Arc<AtomicU64>,
    handles: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl AsyncTier {
    /// Spawns the tier with a `lite_q`-deep accept queue.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::Spawn`] when the OS refuses a worker thread.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `lite_q` is zero.
    pub fn spawn(
        name: impl Into<String>,
        lite_q: usize,
        workers: usize,
        service: Duration,
        gate: StallGate,
        downstream: Option<Arc<dyn Tier>>,
        rto: Duration,
    ) -> Result<Arc<AsyncTier>, LiveError> {
        assert!(workers > 0, "an async tier needs at least one worker");
        assert!(lite_q > 0, "LiteQDepth must be non-zero");
        let name = name.into();
        let (tx, rx): (Sender<LiveRequest>, Receiver<LiveRequest>) = bounded(lite_q);
        let reaped = Arc::new(AtomicU64::new(0));
        let tier = Arc::new(AsyncTier {
            name: name.clone(),
            input: tx,
            drops: AtomicU64::new(0),
            reaped: reaped.clone(),
            handles: parking_lot::Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = rx.clone();
            let gate = gate.clone();
            let downstream = downstream.clone();
            let reaped = reaped.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{name}-loop-{i}"))
                    .spawn(move || {
                        while let Ok(req) = rx.recv() {
                            gate.wait_if_stalled();
                            if req.cancel.is_cancelled() {
                                reaped.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            std::thread::sleep(service);
                            match &downstream {
                                None => {
                                    let _ = req.reply.send(LiveReply {
                                        id: req.id,
                                        completed_at: Instant::now(),
                                    });
                                }
                                Some(d) => {
                                    // Continuation: the reply bypasses this
                                    // tier; no worker is held.
                                    submit_with_retransmit(d, req, rto, &reaped);
                                }
                            }
                        }
                    })?,
            );
        }
        *tier.handles.lock() = handles;
        Ok(tier)
    }

    /// Takes the worker handles for joining.
    pub fn take_handles(&self) -> Vec<std::thread::JoinHandle<()>> {
        std::mem::take(&mut self.handles.lock())
    }
}

impl Tier for AsyncTier {
    fn submit(&self, req: LiveRequest) -> Result<(), LiveRequest> {
        match self.input.try_send(req) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(r)) | Err(TrySendError::Disconnected(r)) => {
                self.drops.fetch_add(1, Ordering::Relaxed);
                Err(r)
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    fn reaped(&self) -> u64 {
        self.reaped.load(Ordering::Relaxed)
    }

    fn depth(&self) -> usize {
        self.input.len()
    }
}

/// A set of identical tier instances behind one submit point — the live
/// mirror of the simulator's replicated tier. Each member is a full
/// [`SyncTier`] or [`AsyncTier`] with its own accept queue, workers and
/// stall gate; the set picks a member per connection attempt.
///
/// The live balancer maps the simulator's [`Balancer`] policies onto wall
/// clocks: `RoundRobin` rotates an atomic counter; every queue-aware policy
/// (`LeastOutstanding`, `Jsq`, `P2c`) becomes pick-least-depth, since real
/// threads racing on live queue lengths have no deterministic rng stream to
/// sample two candidates from — the *signal* (instantaneous depth) is what
/// the policies share, and it is what the testbed validates.
pub struct ReplicaSet {
    name: String,
    replicas: Vec<Arc<dyn Tier>>,
    balancer: Balancer,
    next: AtomicU64,
}

impl std::fmt::Debug for ReplicaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("name", &self.name)
            .field("replicas", &self.replicas.len())
            .field("balancer", &self.balancer)
            .finish()
    }
}

impl ReplicaSet {
    /// Fronts `replicas` with `balancer`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(name: impl Into<String>, replicas: Vec<Arc<dyn Tier>>, balancer: Balancer) -> Self {
        assert!(
            !replicas.is_empty(),
            "a replica set needs at least one member"
        );
        ReplicaSet {
            name: name.into(),
            replicas,
            balancer,
            next: AtomicU64::new(0),
        }
    }

    /// The member a fresh attempt would go to right now.
    fn pick(&self) -> &Arc<dyn Tier> {
        match self.balancer {
            Balancer::RoundRobin => {
                let n = self.next.fetch_add(1, Ordering::Relaxed) as usize;
                &self.replicas[n % self.replicas.len()]
            }
            // All queue-aware policies: least instantaneous depth,
            // first-wins on ties (matching the simulator's tie rule).
            _ => self
                .replicas
                .iter()
                .min_by_key(|r| r.depth())
                .expect("non-empty set"),
        }
    }

    /// The members, for per-replica counters.
    pub fn members(&self) -> &[Arc<dyn Tier>] {
        &self.replicas
    }

    /// Per-member drop counts.
    pub fn member_drops(&self) -> Vec<u64> {
        self.replicas.iter().map(|r| r.drops()).collect()
    }
}

impl Tier for ReplicaSet {
    fn submit(&self, req: LiveRequest) -> Result<(), LiveRequest> {
        self.pick().submit(req)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn drops(&self) -> u64 {
        self.replicas.iter().map(|r| r.drops()).sum()
    }

    fn reaped(&self) -> u64 {
        self.replicas.iter().map(|r| r.reaped()).sum()
    }

    fn depth(&self) -> usize {
        self.replicas.iter().map(|r| r.depth()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn req(id: u64, reply: &Sender<LiveReply>) -> LiveRequest {
        LiveRequest::new(id, Instant::now(), reply.clone())
    }

    #[test]
    fn sync_tier_serves_and_replies() {
        let tier = SyncTier::spawn(
            "t",
            2,
            2,
            Duration::from_micros(100),
            StallGate::new(),
            None,
            Duration::from_millis(50),
        )
        .expect("spawn tier");
        let (tx, rx) = unbounded();
        for i in 0..4 {
            tier.submit(req(i, &tx)).unwrap();
        }
        let mut got: Vec<u64> = (0..4).map(|_| rx.recv().unwrap().id).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(tier.drops(), 0);
    }

    #[test]
    fn sync_tier_drops_beyond_workers_plus_backlog() {
        // MaxSysQDepth = 1 worker + 1 backlog = 2 (+1 pulled by the
        // worker); later simultaneous submits must see a full queue.
        let tier = SyncTier::spawn(
            "t",
            1,
            1,
            Duration::from_millis(200),
            StallGate::new(),
            None,
            Duration::from_millis(50),
        )
        .expect("spawn tier");
        let (tx, _rx) = unbounded();
        let mut dropped = 0;
        for i in 0..6 {
            if tier.submit(req(i, &tx)).is_err() {
                dropped += 1;
            }
            // give the worker a moment to pull the first request
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        assert!(dropped >= 3, "dropped {dropped}");
        assert_eq!(tier.drops(), dropped);
    }

    #[test]
    fn async_tier_admits_far_beyond_workers() {
        let tier = AsyncTier::spawn(
            "a",
            1_000,
            1,
            Duration::from_micros(50),
            StallGate::new(),
            None,
            Duration::from_millis(50),
        )
        .expect("spawn tier");
        let (tx, rx) = unbounded();
        for i in 0..200 {
            tier.submit(req(i, &tx)).unwrap();
        }
        for _ in 0..200 {
            rx.recv_timeout(Duration::from_secs(2)).unwrap();
        }
        assert_eq!(tier.drops(), 0);
    }

    #[test]
    fn cancelled_request_is_reaped_without_service_or_reply() {
        // One worker busy on a slow request; a second, already-cancelled
        // request queued behind it must be discarded at dequeue: no reply,
        // reaped counter incremented.
        let tier = SyncTier::spawn(
            "t",
            1,
            4,
            Duration::from_millis(50),
            StallGate::new(),
            None,
            Duration::from_millis(50),
        )
        .expect("spawn tier");
        let (tx, rx) = unbounded();
        tier.submit(req(0, &tx)).unwrap();
        let doomed = req(1, &tx);
        let token = doomed.cancel.clone();
        token.cancel();
        tier.submit(doomed).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap().id, 0);
        // Give the worker a beat to dequeue and discard the loser.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(tier.reaped(), 1);
        assert!(
            rx.recv_timeout(Duration::from_millis(20)).is_err(),
            "cancelled request must not reply"
        );
    }

    #[test]
    fn round_robin_set_rotates_members() {
        let mut members: Vec<Arc<dyn Tier>> = Vec::new();
        for i in 0..2 {
            members.push(
                SyncTier::spawn(
                    format!("t#{i}"),
                    1,
                    8,
                    Duration::from_micros(100),
                    StallGate::new(),
                    None,
                    Duration::from_millis(50),
                )
                .expect("spawn member"),
            );
        }
        let set = ReplicaSet::new("t", members, Balancer::RoundRobin);
        let (tx, rx) = unbounded();
        for i in 0..8 {
            set.submit(req(i, &tx)).unwrap();
        }
        for _ in 0..8 {
            rx.recv_timeout(Duration::from_secs(2)).unwrap();
        }
        assert_eq!(set.drops(), 0);
        assert_eq!(set.member_drops(), vec![0, 0]);
    }

    #[test]
    fn least_outstanding_set_avoids_the_stalled_member() {
        // Member 0 is frozen behind a stall gate, so its queue holds
        // whatever lands there; least-depth steers everything else to
        // member 1, and the burst completes without drops despite member
        // 0's MaxSysQDepth of 3 being far below the burst size.
        let gate = StallGate::new();
        let sick = SyncTier::spawn(
            "t#0",
            1,
            2,
            Duration::from_micros(100),
            gate.clone(),
            None,
            Duration::from_millis(50),
        )
        .expect("spawn sick member");
        let healthy = SyncTier::spawn(
            "t#1",
            1,
            64,
            Duration::from_micros(100),
            StallGate::new(),
            None,
            Duration::from_millis(50),
        )
        .expect("spawn healthy member");
        gate.begin();
        let set = ReplicaSet::new(
            "t",
            vec![sick.clone() as Arc<dyn Tier>, healthy as Arc<dyn Tier>],
            Balancer::LeastOutstanding,
        );
        let (tx, rx) = unbounded();
        let mut submitted = 0;
        for i in 0..32 {
            if set.submit(req(i, &tx)).is_ok() {
                submitted += 1;
            }
            // Pace the submissions so queue depths are observable.
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.end();
        for _ in 0..submitted {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(set.drops(), 0, "least-depth must route around the stall");
        // The sick member absorbed at most its own capacity.
        assert!(sick.depth() <= 3);
    }

    #[test]
    fn stalled_sync_tier_delays_service() {
        let gate = StallGate::new();
        let tier = SyncTier::spawn(
            "t",
            1,
            4,
            Duration::from_micros(100),
            gate.clone(),
            None,
            Duration::from_millis(50),
        )
        .expect("spawn tier");
        gate.begin();
        let (tx, rx) = unbounded();
        let t0 = Instant::now();
        tier.submit(req(1, &tx)).unwrap();
        std::thread::sleep(Duration::from_millis(120));
        gate.end();
        rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(120));
    }
}
