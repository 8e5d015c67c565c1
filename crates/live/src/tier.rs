//! Live tiers: thread-pool RPC servers and event-loop async servers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ntier_core::TierKind;

use crate::stall::StallGate;
use crate::LiveError;

/// A request travelling down the chain.
#[derive(Debug)]
pub struct LiveRequest {
    /// Client-assigned id.
    pub id: u64,
    /// When the client first sent it (for end-to-end latency).
    pub sent_at: Instant,
    /// Where the handling tier should deliver the reply.
    pub reply: Sender<LiveReply>,
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
}

fn submit_with_retransmit(target: &Arc<dyn Tier>, mut req: LiveRequest, rto: Duration) {
    while let Err(back) = target.submit(req) {
        req = back;
        std::thread::sleep(rto);
    }
}

/// One running tier: a bounded accept queue (a `sync_channel` whose
/// receiver the workers share) in front of a worker pool. The tier's
/// [`TierKind`] sets the queue bound and what a worker does with a request
/// it has served:
///
/// * **sync (RPC)** — `threads` workers behind a `threads + backlog` queue,
///   the tier's `MaxSysQDepth`. A worker forwards downstream on a private
///   reply channel and **blocks** until it answers: the thread is held
///   end-to-end.
/// * **async** — `workers` loop threads behind a `lite_q_depth` queue. A
///   worker forwards with the *original* reply address and moves on: the
///   reply bypasses this tier and nothing is held.
#[derive(Debug)]
pub(crate) struct Server {
    name: String,
    input: SyncSender<LiveRequest>,
    drops: AtomicU64,
}

impl Server {
    /// Spawns the tier's workers and returns it with their join handles.
    ///
    /// * `service` — per-request CPU time (simulated with `sleep`);
    /// * `gate` — stalls every worker while raised (the millibottleneck);
    /// * `downstream` — the next tier, or `None` for the last tier;
    /// * `rto` — retransmission timeout for this tier's downstream sends.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::Spawn`] when the OS refuses a worker thread;
    /// already-spawned workers wind down when their queue's sender drops.
    ///
    /// # Panics
    ///
    /// Panics if the kind has no workers or a zero-capacity `LiteQDepth`.
    pub(crate) fn spawn(
        name: String,
        kind: &TierKind,
        service: Duration,
        gate: StallGate,
        downstream: Option<Arc<dyn Tier>>,
        rto: Duration,
    ) -> Result<(Arc<Server>, Vec<JoinHandle<()>>), LiveError> {
        let (workers, capacity, role) = match *kind {
            TierKind::Sync {
                threads, backlog, ..
            } => (threads, threads + backlog, "worker"),
            TierKind::Async {
                lite_q_depth,
                workers,
            } => {
                assert!(lite_q_depth > 0, "LiteQDepth must be non-zero");
                (workers as usize, lite_q_depth, "loop")
            }
        };
        assert!(workers > 0, "a live tier needs at least one worker");
        let holds_thread = kind.is_sync();
        let (tx, rx) = mpsc::sync_channel::<LiveRequest>(capacity);
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = rx.clone();
            let gate = gate.clone();
            let downstream = downstream.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("{name}-{role}-{i}"))
                    .spawn(move || {
                        // The guard lives in its own block: one taken in the
                        // `while let` scrutinee would be held through the
                        // body and serialise the workers.
                        while let Ok(req) = {
                            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
                            rx.recv()
                        } {
                            gate.wait_if_stalled();
                            std::thread::sleep(service);
                            match &downstream {
                                None => {
                                    let _ = req.reply.send(LiveReply {
                                        id: req.id,
                                        completed_at: Instant::now(),
                                    });
                                }
                                Some(d) if holds_thread => {
                                    // RPC: forward with a private reply
                                    // channel and BLOCK until it answers.
                                    let (tx, rx_reply) = mpsc::channel();
                                    let fwd = LiveRequest {
                                        id: req.id,
                                        sent_at: req.sent_at,
                                        reply: tx,
                                    };
                                    submit_with_retransmit(d, fwd, rto);
                                    if let Ok(reply) = rx_reply.recv() {
                                        let _ = req.reply.send(reply);
                                    }
                                }
                                // Continuation: the reply bypasses this
                                // tier; no worker is held.
                                Some(d) => submit_with_retransmit(d, req, rto),
                            }
                        }
                    })?,
            );
        }
        let server = Arc::new(Server {
            name,
            input: tx,
            drops: AtomicU64::new(0),
        });
        Ok((server, handles))
    }
}

impl Tier for Server {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntier_core::TierSpec;
    use std::sync::mpsc::channel;

    fn req(id: u64, reply: &Sender<LiveReply>) -> LiveRequest {
        LiveRequest {
            id,
            sent_at: Instant::now(),
            reply: reply.clone(),
        }
    }

    /// A last-in-chain tier of `spec`'s kind with a 50 ms RTO.
    fn spawn(spec: TierSpec, service: Duration, gate: StallGate) -> Arc<Server> {
        let (server, _workers) = Server::spawn(
            spec.name,
            &spec.kind,
            service,
            gate,
            None,
            Duration::from_millis(50),
        )
        .expect("spawn tier");
        server
    }

    #[test]
    fn sync_tier_serves_and_replies() {
        let tier = spawn(
            TierSpec::sync("t", 2, 2),
            Duration::from_micros(100),
            StallGate::new(),
        );
        let (tx, rx) = channel();
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
        let tier = spawn(
            TierSpec::sync("t", 1, 1),
            Duration::from_millis(200),
            StallGate::new(),
        );
        let (tx, _rx) = channel();
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
        let tier = spawn(
            TierSpec::asynchronous("a", 1_000, 1),
            Duration::from_micros(50),
            StallGate::new(),
        );
        let (tx, rx) = channel();
        for i in 0..200 {
            tier.submit(req(i, &tx)).unwrap();
        }
        for _ in 0..200 {
            rx.recv_timeout(Duration::from_secs(2)).unwrap();
        }
        assert_eq!(tier.drops(), 0);
    }

    #[test]
    fn stalled_sync_tier_delays_service() {
        let gate = StallGate::new();
        let tier = spawn(
            TierSpec::sync("t", 1, 4),
            Duration::from_micros(100),
            gate.clone(),
        );
        gate.begin();
        let (tx, rx) = channel();
        let t0 = Instant::now();
        tier.submit(req(1, &tx)).unwrap();
        std::thread::sleep(Duration::from_millis(120));
        gate.end();
        rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(120));
    }

    #[test]
    fn sync_workers_serve_one_tier_concurrently() {
        // Four workers, four 100 ms requests at once: served in parallel
        // they all reply after about 100 ms; a receiver lock held through
        // service would serialise them to 400 ms.
        let tier = spawn(
            TierSpec::sync("t", 4, 0),
            Duration::from_millis(100),
            StallGate::new(),
        );
        let (tx, rx) = channel();
        let t0 = Instant::now();
        for i in 0..4 {
            tier.submit(req(i, &tx)).unwrap();
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(1)).unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "4 requests on 4 workers took {elapsed:?}"
        );
        assert_eq!(tier.drops(), 0);
    }
}
