//! Chain construction: wiring tiers front-to-back.
//!
//! The builder consumes the *simulator's* tier description —
//! [`ntier_core::TierSpec`] — so the DES engine and the live testbed share
//! one definition of a tier: architecture (sync thread pool vs. async
//! LiteQ) and admission capacity come from the same struct. [`LiveTier`]
//! adds the two things only a wall-clock testbed needs: a real service
//! [`Duration`] and a [`StallGate`] to inject millibottlenecks with.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ntier_core::TierSpec;

use crate::stall::StallGate;
use crate::tier::{Server, Tier};
use crate::LiveError;

/// One tier of a live chain: the shared [`TierSpec`] plus wall-clock
/// service time and a stall gate. The testbed runs one instance per tier,
/// so [`ChainBuilder::build`] refuses a spec with `replicas > 1`.
#[derive(Debug, Clone)]
pub struct LiveTier {
    spec: TierSpec,
    service: Duration,
    gate: StallGate,
}

impl LiveTier {
    /// A live tier from the shared spec — the unified construction path.
    pub fn new(spec: TierSpec, service: Duration) -> Self {
        LiveTier {
            spec,
            service,
            gate: StallGate::new(),
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
    /// millibottlenecks into this tier).
    pub fn with_gate(mut self, gate: StallGate) -> Self {
        self.gate = gate;
        self
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

    /// Spawns every tier and wires them together.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::Replicated`] before spawning anything when a
    /// tier's spec asks for more than one replica, and [`LiveError::Spawn`]
    /// when a worker thread cannot be spawned; tiers already running wind
    /// down as their inputs are dropped.
    ///
    /// # Panics
    ///
    /// Panics if no tiers were added.
    pub fn build(self) -> Result<Chain, LiveError> {
        assert!(!self.tiers.is_empty(), "a chain needs at least one tier");
        if let Some(t) = self.tiers.iter().find(|t| t.spec.replicas > 1) {
            return Err(LiveError::Replicated {
                tier: t.spec.name.clone(),
                replicas: t.spec.replicas,
            });
        }
        let mut tiers = Vec::with_capacity(self.tiers.len());
        let mut workers = Vec::with_capacity(self.tiers.len());
        let mut downstream: Option<Arc<dyn Tier>> = None;
        for tier in self.tiers.iter().rev() {
            let (server, handles) = Server::spawn(
                tier.spec.name.clone(),
                &tier.spec.kind,
                tier.service,
                tier.gate.clone(),
                downstream.take(),
                self.rto,
            )?;
            downstream = Some(server.clone());
            tiers.push(server);
            workers.push(handles);
        }
        // front first
        tiers.reverse();
        workers.reverse();
        Ok(Chain { tiers, workers })
    }
}

/// A running chain of live tiers.
#[derive(Debug)]
pub struct Chain {
    tiers: Vec<Arc<Server>>,
    workers: Vec<Vec<JoinHandle<()>>>,
}

impl Chain {
    /// The front (client-facing) tier.
    pub fn front(&self) -> Arc<dyn Tier> {
        self.tiers[0].clone()
    }

    /// Per-tier drop counts, front first.
    pub fn drops(&self) -> Vec<u64> {
        self.tiers.iter().map(|t| t.drops()).collect()
    }

    /// Per-tier names, front first.
    pub fn names(&self) -> Vec<String> {
        self.tiers.iter().map(|t| t.name().to_string()).collect()
    }

    /// Tears the chain down: closes accept queues front-to-back and joins
    /// every worker. Call after all client traffic has completed.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::WorkersPanicked`] naming the tiers whose worker
    /// threads panicked mid-run; the chain is fully torn down either way.
    pub fn shutdown(self) -> Result<(), LiveError> {
        let names = self.names();
        // Dropping the chain's handle on a tier releases the only Sender of
        // its input channel; its workers drain and exit, which in turn
        // releases their Arc on the next tier — teardown cascades front to
        // back.
        drop(self.tiers);
        let panicked: Vec<String> = names
            .into_iter()
            .zip(self.workers)
            .filter_map(|(name, handles)| {
                // Join every handle, not just up to the first panic.
                let panics = handles
                    .into_iter()
                    .map(|h| h.join().is_err())
                    .filter(|&bad| bad)
                    .count();
                (panics > 0).then_some(name)
            })
            .collect();
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
    fn replicated_spec_is_refused() {
        let err = ChainBuilder::new(Duration::from_millis(50))
            .tier(LiveTier::sync("web", 2, 8, Duration::from_micros(100)))
            .tier(LiveTier::new(
                TierSpec::sync("app", 1, 4).replicas(2),
                Duration::from_micros(100),
            ))
            .build()
            .expect_err("a replicated tier must be refused");
        match err {
            LiveError::Replicated { tier, replicas } => {
                assert_eq!(tier, "app");
                assert_eq!(replicas, 2);
            }
            other => panic!("expected LiveError::Replicated, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_chain_rejected() {
        let _ = ChainBuilder::new(Duration::from_millis(50)).build();
    }
}
