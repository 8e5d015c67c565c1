//! Chain construction: wiring tiers front-to-back.
//!
//! The builder consumes the *simulator's* tier description —
//! [`ntier_core::TierSpec`] — so the DES engine and the live testbed share
//! one definition of a tier: architecture (sync thread pool vs. async
//! LiteQ), admission capacity, replica count and balancer policy all come
//! from the same struct. [`LiveTier`] adds the two things only a wall-clock
//! testbed needs: a real service [`Duration`] and [`StallGate`]s to inject
//! millibottlenecks with.

use std::sync::Arc;
use std::time::Duration;

use ntier_core::{TierKind, TierSpec};

use crate::stall::StallGate;
use crate::tier::{AsyncTier, ReplicaSet, SyncTier, Tier};
use crate::LiveError;

/// One tier of a live chain: the shared [`TierSpec`] plus wall-clock
/// service time and stall gates.
///
/// When the spec says `replicas > 1` the builder spawns that many
/// independent instances — each with its own accept queue, workers and
/// stall gate — behind a [`ReplicaSet`] running the spec's
/// [`Balancer`](ntier_core::Balancer).
#[derive(Debug, Clone)]
pub struct LiveTier {
    spec: TierSpec,
    service: Duration,
    gate: StallGate,
    replica_gates: Vec<(usize, StallGate)>,
}

impl LiveTier {
    /// A live tier from the shared spec — the unified construction path.
    pub fn new(spec: TierSpec, service: Duration) -> Self {
        LiveTier {
            spec,
            service,
            gate: StallGate::new(),
            replica_gates: Vec::new(),
        }
    }

    /// Shorthand for a synchronous tier: `workers` threads + `backlog`
    /// accept slots.
    pub fn sync(
        name: impl Into<String>,
        workers: usize,
        backlog: usize,
        service: Duration,
    ) -> Self {
        LiveTier::new(TierSpec::sync(name, workers, backlog), service)
    }

    /// Shorthand for an asynchronous tier: `lite_q` accept slots +
    /// `workers` loop threads.
    pub fn asynchronous(
        name: impl Into<String>,
        lite_q: usize,
        workers: usize,
        service: Duration,
    ) -> Self {
        LiveTier::new(
            TierSpec::asynchronous(name, lite_q, workers as u32),
            service,
        )
    }

    /// Uses an external stall gate (so the test can inject
    /// millibottlenecks into this tier). Applies to every replica unless
    /// overridden per replica via [`LiveTier::with_replica_gate`].
    pub fn with_gate(mut self, gate: StallGate) -> Self {
        self.gate = gate;
        self
    }

    /// Gives one replica its own stall gate — the live mirror of the
    /// simulator's `TierSpec::with_replica_stalls`, for modelling a single
    /// sick instance behind an otherwise healthy set.
    pub fn with_replica_gate(mut self, replica: usize, gate: StallGate) -> Self {
        self.replica_gates.retain(|(r, _)| *r != replica);
        self.replica_gates.push((replica, gate));
        self
    }

    /// The shared spec this tier runs.
    pub fn spec(&self) -> &TierSpec {
        &self.spec
    }

    fn gate_for(&self, replica: usize) -> StallGate {
        self.replica_gates
            .iter()
            .find(|(r, _)| *r == replica)
            .map(|(_, g)| g.clone())
            .unwrap_or_else(|| self.gate.clone())
    }
}

enum Built {
    Sync(Arc<SyncTier>),
    Async(Arc<AsyncTier>),
    Set {
        set: Arc<ReplicaSet>,
        members: Vec<Built>,
    },
}

impl Built {
    fn as_tier(&self) -> Arc<dyn Tier> {
        match self {
            Built::Sync(t) => t.clone(),
            Built::Async(t) => t.clone(),
            Built::Set { set, .. } => set.clone(),
        }
    }

    fn drops(&self) -> u64 {
        match self {
            Built::Sync(t) => t.drops(),
            Built::Async(t) => t.drops(),
            Built::Set { members, .. } => members.iter().map(Built::drops).sum(),
        }
    }

    fn reaped(&self) -> u64 {
        match self {
            Built::Sync(t) => t.reaped(),
            Built::Async(t) => t.reaped(),
            Built::Set { members, .. } => members.iter().map(Built::reaped).sum(),
        }
    }

    fn take_handles(&self) -> Vec<std::thread::JoinHandle<()>> {
        match self {
            Built::Sync(t) => t.take_handles(),
            Built::Async(t) => t.take_handles(),
            Built::Set { members, .. } => members.iter().flat_map(Built::take_handles).collect(),
        }
    }
}

/// Builds a front-to-back chain of live tiers.
#[derive(Debug)]
pub struct ChainBuilder {
    tiers: Vec<LiveTier>,
    rto: Duration,
}

impl ChainBuilder {
    /// Starts a chain whose drops retransmit after `rto`.
    pub fn new(rto: Duration) -> Self {
        ChainBuilder {
            tiers: Vec::new(),
            rto,
        }
    }

    /// Appends a tier (front first).
    pub fn tier(mut self, tier: LiveTier) -> Self {
        self.tiers.push(tier);
        self
    }

    fn spawn_instance(
        &self,
        tier: &LiveTier,
        replica: usize,
        name: String,
        downstream: Option<Arc<dyn Tier>>,
    ) -> Result<Built, LiveError> {
        Ok(match &tier.spec.kind {
            TierKind::Sync {
                threads, backlog, ..
            } => Built::Sync(SyncTier::spawn(
                name,
                *threads,
                *backlog,
                tier.service,
                tier.gate_for(replica),
                downstream,
                self.rto,
            )?),
            TierKind::Async {
                lite_q_depth,
                workers,
            } => Built::Async(AsyncTier::spawn(
                name,
                *lite_q_depth,
                *workers as usize,
                tier.service,
                tier.gate_for(replica),
                downstream,
                self.rto,
            )?),
        })
    }

    /// Spawns every tier and wires them together.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::Spawn`] when a worker thread cannot be spawned;
    /// tiers already running wind down as their inputs are dropped.
    ///
    /// # Panics
    ///
    /// Panics if no tiers were added.
    pub fn build(self) -> Result<Chain, LiveError> {
        assert!(!self.tiers.is_empty(), "a chain needs at least one tier");
        let mut built: Vec<Built> = Vec::with_capacity(self.tiers.len());
        let mut downstream: Option<Arc<dyn Tier>> = None;
        for tier in self.tiers.iter().rev() {
            let n = tier.spec.replicas.max(1);
            let b = if n == 1 {
                self.spawn_instance(tier, 0, tier.spec.name.clone(), downstream.take())?
            } else {
                let shared_downstream = downstream.take();
                let mut members = Vec::with_capacity(n);
                for r in 0..n {
                    members.push(self.spawn_instance(
                        tier,
                        r,
                        format!("{}#{r}", tier.spec.name),
                        shared_downstream.clone(),
                    )?);
                }
                let set = Arc::new(ReplicaSet::new(
                    tier.spec.name.clone(),
                    members.iter().map(Built::as_tier).collect(),
                    tier.spec.balancer,
                ));
                Built::Set { set, members }
            };
            downstream = Some(b.as_tier());
            built.push(b);
        }
        built.reverse(); // front first
        Ok(Chain { tiers: built })
    }
}

/// A running chain of live tiers.
pub struct Chain {
    tiers: Vec<Built>,
}

impl std::fmt::Debug for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chain")
            .field("tiers", &self.tiers.len())
            .finish()
    }
}

impl Chain {
    /// The front (client-facing) tier.
    pub fn front(&self) -> Arc<dyn Tier> {
        self.tiers[0].as_tier()
    }

    /// Per-tier drop counts, front first (replica sets report the sum over
    /// their members; see [`Chain::replica_drops`] for the breakdown).
    pub fn drops(&self) -> Vec<u64> {
        self.tiers.iter().map(Built::drops).collect()
    }

    /// Per-replica drop counts of tier `idx`, or `None` when that tier is a
    /// single instance.
    pub fn replica_drops(&self, idx: usize) -> Option<Vec<u64>> {
        match &self.tiers[idx] {
            Built::Set { members, .. } => Some(members.iter().map(Built::drops).collect()),
            _ => None,
        }
    }

    /// Per-tier counts of cancelled attempts discarded at dequeue (or
    /// abandoned in retransmission limbo), front first — the live analogue
    /// of the simulator's `wasted_work_saved`.
    pub fn reaped(&self) -> Vec<u64> {
        self.tiers.iter().map(Built::reaped).collect()
    }

    /// Per-tier names, front first (a replica set reports its set name).
    pub fn names(&self) -> Vec<String> {
        self.tiers
            .iter()
            .map(|t| t.as_tier().name().to_string())
            .collect()
    }

    /// Tears the chain down: closes accept queues front-to-back and joins
    /// every worker. Call after all client traffic has completed.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::WorkersPanicked`] naming the tiers whose worker
    /// threads panicked mid-run; the chain is fully torn down either way.
    pub fn shutdown(self) -> Result<(), LiveError> {
        // Dropping a tier's `Built` releases the only Sender of its input
        // channel; its workers drain and exit, which in turn releases their
        // Arc on the next tier — teardown cascades front to back.
        let mut handle_sets = Vec::new();
        for t in &self.tiers {
            handle_sets.push((t.as_tier().name().to_string(), t.take_handles()));
        }
        drop(self.tiers);
        let mut panicked: Vec<String> = Vec::new();
        for (name, handles) in handle_sets {
            let mut bad = false;
            for h in handles {
                bad |= h.join().is_err();
            }
            if bad {
                panicked.push(name);
            }
        }
        if panicked.is_empty() {
            Ok(())
        } else {
            Err(LiveError::WorkersPanicked(panicked))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::fire_burst;
    use ntier_core::Balancer;

    #[test]
    fn two_tier_sync_chain_round_trips() {
        let chain = ChainBuilder::new(Duration::from_millis(100))
            .tier(LiveTier::sync("web", 2, 4, Duration::from_micros(200)))
            .tier(LiveTier::sync("app", 2, 4, Duration::from_micros(200)))
            .build()
            .expect("spawn chain");
        assert_eq!(chain.names(), vec!["web", "app"]);
        let outcome = fire_burst(chain.front(), 6, Duration::from_secs(5)).expect("burst");
        assert_eq!(outcome.completed, 6);
        assert_eq!(chain.drops(), vec![0, 0]);
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn shutdown_joins_cleanly_with_no_traffic() {
        let chain = ChainBuilder::new(Duration::from_millis(50))
            .tier(LiveTier::asynchronous(
                "a",
                16,
                1,
                Duration::from_micros(50),
            ))
            .tier(LiveTier::sync("b", 1, 1, Duration::from_micros(50)))
            .build()
            .expect("spawn chain");
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    fn replicated_tier_serves_through_the_set() {
        // App tier: 2 replicas behind round-robin, built from the same
        // TierSpec the simulator would consume.
        let chain = ChainBuilder::new(Duration::from_millis(100))
            .tier(LiveTier::sync("web", 2, 8, Duration::from_micros(100)))
            .tier(LiveTier::new(
                TierSpec::sync("app", 1, 4)
                    .replicas(2)
                    .balancer(Balancer::RoundRobin),
                Duration::from_micros(100),
            ))
            .build()
            .expect("spawn chain");
        assert_eq!(chain.names(), vec!["web", "app"]);
        let outcome = fire_burst(chain.front(), 8, Duration::from_secs(5)).expect("burst");
        assert_eq!(outcome.completed, 8);
        assert_eq!(chain.replica_drops(1), Some(vec![0, 0]));
        assert_eq!(chain.replica_drops(0), None);
        chain.shutdown().expect("clean shutdown");
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_chain_rejected() {
        let _ = ChainBuilder::new(Duration::from_millis(50)).build();
    }
}
