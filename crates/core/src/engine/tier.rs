//! Tier handlers: replica sets and their balancers, admission, CPU slices,
//! downstream calls and scatter-gather, drops and the kernel retransmit
//! ladder, and the fault windows that act on tiers.

use crate::net::{Backlog, RetransmitState, RetryDecision};
use crate::resilience::{
    AimdLimiter, CircuitBreaker, Fault, ResilienceStats, ShedPolicy, TokenBucket,
};
use crate::server::{ConnectionPool, CpuModel, EventLoop, Lease, ProcessGroup, StallTimeline};
use ntier_des::prelude::*;
use ntier_telemetry::{CounterSeries, PeakSeries, UtilizationSeries};
use ntier_trace::{TraceEventKind, TRACE_NONE};

use super::slab::{FirstDrop, ReqId};
use super::{Engine, Event};
use crate::config::{TierKind, TierSpec};
use crate::topology::Balancer;

/// A message parked in a sync replica's accept backlog.
#[derive(Debug, Clone, Copy)]
pub(super) struct Pending {
    pub(super) req: ReqId,
    visit: u16,
}

#[derive(Debug)]
enum TierState {
    Sync(ProcessGroup),
    Async(EventLoop),
}

/// Lifecycle of one replica under the control plane. Every replica of an
/// uncontrolled run stays `Active` forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ReplicaLife {
    /// In the balancer's eligible set.
    Active,
    /// Removed from balancing but finishing its admitted work; kernel SYN
    /// retransmits still land here (the L4 5-tuple pin outlives the drain).
    Draining,
    /// Drained to idle. Never picked again; a pinned retransmit that races
    /// the retirement re-balances instead.
    Retired,
}

/// One instance of a (possibly replicated) tier: its own admission state,
/// backlog, CPU, downstream connection pool, fault levels and telemetry.
/// An unreplicated tier is a [`NodeRuntime`] with exactly one `Replica`.
#[derive(Debug)]
pub(super) struct Replica {
    state: TierState,
    pub(super) backlog: Backlog<Pending>,
    pub(super) cpu: CpuModel,
    pub(super) conn_pool: Option<ConnectionPool>,
    pub(super) util: UtilizationSeries,
    pub(super) queue_depth: PeakSeries,
    pub(super) drops: CounterSeries,
    pub(super) vlrt: CounterSeries,
    pub(super) drops_total: u64,
    pub(super) peak_queue: usize,
    pub(super) life: ReplicaLife,
    /// Health-ejected: out of the balancer's eligible set on gray-failure
    /// evidence, but *not* draining — admitted work, backlog entries and
    /// kernel-pinned retransmits all still land here, and reinstatement
    /// flips the flag back without any replacement-capacity machinery.
    pub(super) ejected: bool,
    /// Service-rate multiplier from gray-degradation windows (1.0 =
    /// nominal). A slice's effective demand is scaled by it, and the scale
    /// is skipped entirely at exactly 1.0 so fault-free runs keep exact
    /// demands.
    rate_mult: f64,
    /// Message-loss probability from flaky-link windows (0.0 = clean).
    /// Checked after replica resolution; the rng is drawn only while a
    /// window is open.
    drop_prob: f64,
}

impl Replica {
    /// Builds one replica instance of `tc` (replica index `r` selects its
    /// stall schedule). Used for the initial set and for autoscaler
    /// provisioning mid-run.
    pub(super) fn new(tc: &TierSpec, r: usize, horizon: SimDuration) -> Replica {
        let stalls = StallTimeline::from_intervals(tc.stalls_for(r).intervals().iter().copied());
        let (state, backlog_cap) = match &tc.kind {
            TierKind::Sync {
                threads,
                backlog,
                max_processes,
                spawn_delay,
            } => (
                TierState::Sync(ProcessGroup::new(*threads, *max_processes, *spawn_delay)),
                *backlog,
            ),
            TierKind::Async {
                lite_q_depth,
                workers,
            } => (TierState::Async(EventLoop::new(*lite_q_depth, *workers)), 0),
        };
        Replica {
            state,
            backlog: Backlog::new(backlog_cap),
            cpu: CpuModel::new(tc.cores, stalls),
            conn_pool: tc.downstream_pool.map(ConnectionPool::new),
            util: UtilizationSeries::paper_default_for(tc.cores, horizon),
            queue_depth: PeakSeries::paper_default_for(horizon),
            drops: CounterSeries::paper_default(),
            vlrt: CounterSeries::paper_default(),
            drops_total: 0,
            peak_queue: 0,
            life: ReplicaLife::Active,
            ejected: false,
            rate_mult: 1.0,
            drop_prob: 0.0,
        }
    }

    pub(super) fn depth(&self) -> usize {
        match &self.state {
            TierState::Sync(pg) => pg.busy() + self.backlog.len(),
            TierState::Async(el) => el.in_flight(),
        }
    }

    /// The one eligibility predicate every balancer pick path shares:
    /// a replica takes fresh connections only while `Active` *and* not
    /// health-ejected. Drain, retire and ejection all flow through here,
    /// so a policy cannot disagree with its peers about who is pickable.
    #[inline]
    fn is_eligible(&self) -> bool {
        self.life == ReplicaLife::Active && !self.ejected
    }

    pub(super) fn spawns(&self) -> u64 {
        match &self.state {
            TierState::Sync(pg) => pg.spawns_total(),
            TierState::Async(_) => 0,
        }
    }

    /// Gives back `n` threads (sync) or admission slots (async). A freed
    /// thread may admit backlog entries: the caller follows up with
    /// [`Engine::drain_backlog`], which is a no-op on an async replica.
    fn release(&mut self, n: usize) {
        match &mut self.state {
            TierState::Sync(pg) => (0..n).for_each(|_| pg.release()),
            TierState::Async(el) => (0..n).for_each(|_| el.complete()),
        }
    }
}

/// Runtime state of one call-graph node: its replica set, the per-hop
/// policy machinery (which belongs to the hop *into* the node, not to any
/// single replica), and the tier-wide fault and brake levels.
#[derive(Debug)]
pub(super) struct NodeRuntime {
    pub(super) replicas: Vec<Replica>,
    /// Round-robin cursor for [`Balancer::RoundRobin`].
    rr_next: u32,
    /// Dedicated stream for balancer policies that draw ([`Balancer::P2c`]).
    /// Forked per node, consumed only when `replicas > 1` — single-instance
    /// nodes take no randomness, which keeps pre-topology runs bit-stable.
    rng: SimRng,
    /// Breaker guarding the hop *into* this tier (tier 0: the client's).
    pub(super) hop_breaker: Option<CircuitBreaker>,
    /// Retry budget for the hop into this tier.
    pub(super) hop_bucket: Option<TokenBucket>,
    /// Adaptive concurrency limiter when the tier sheds via
    /// [`ShedPolicy::Aimd`]; fed a latency sample per finished visit.
    pub(super) aimd: Option<AimdLimiter>,
    /// Resilience counters for the hop into this tier.
    pub(super) res: ResilienceStats,
    /// A crash window is open: arrivals drop as at a full backlog.
    down: bool,
    /// Message-loss probability of an open drop-messages window.
    drop_prob: f64,
    /// Extra one-way delay of open slow-hop windows on sends into the tier.
    extra_hop: SimDuration,
    /// Admission ceiling installed by the overload governor (`None` =
    /// unbraked).
    pub(super) governor_limit: Option<usize>,
}

impl NodeRuntime {
    /// Builds node `tc` with its replica set; `rng` is the node's balancer
    /// stream.
    pub(super) fn new(tc: &TierSpec, rng: SimRng, horizon: SimDuration) -> NodeRuntime {
        let policy = tc.caller_policy.as_ref();
        NodeRuntime {
            replicas: (0..tc.replicas.max(1))
                .map(|r| Replica::new(tc, r, horizon))
                .collect(),
            rr_next: 0,
            rng,
            hop_breaker: policy.and_then(|p| p.breaker).map(CircuitBreaker::new),
            hop_bucket: policy
                .and_then(|p| p.budget)
                .map(|b| TokenBucket::new(b, SimTime::ZERO)),
            aimd: match tc.shed {
                Some(ShedPolicy::Aimd(acfg)) => Some(AimdLimiter::new(acfg)),
                _ => None,
            },
            res: ResilienceStats::default(),
            down: false,
            drop_prob: 0.0,
            extra_hop: SimDuration::ZERO,
            governor_limit: None,
        }
    }

    /// Lets the breaker guarding the hop into this tier, if any, see one
    /// success (`ok`) or failure.
    pub(super) fn hop_result(&mut self, now: SimTime, ok: bool) {
        match self.hop_breaker.as_mut() {
            Some(br) if ok => br.on_success(now),
            Some(br) => br.on_failure(now),
            None => {}
        }
    }
}

/// Outcome of an admission attempt, computed while the tier is mutably
/// borrowed and acted on afterwards.
#[derive(Debug, Clone, Copy)]
enum Admit {
    /// A thread/worker slot was claimed; start the visit.
    Start,
    /// Parked in the accept backlog.
    Backlogged,
    /// The message was dropped.
    Dropped,
}

impl Engine {
    /// Schedules a message (SYN/query/forward) to arrive at `tier`.
    pub(super) fn send(&mut self, req: ReqId, tier: usize, visit: u16) {
        // The attempt's front is now headed at `tier`; a cancel chasing it
        // must look there. During a retransmit wait the head *stays* at the
        // dropped tier, which is exactly what lets a cancel catch an attempt
        // stuck in RTO limbo.
        let i = self.slab.live_expect(req);
        self.slab.hot[i].head = tier as u8;
        let at = self.now + self.cfg.hop_delay + self.tiers[tier].extra_hop;
        self.arrive_at(at, req, tier, visit);
    }

    /// Queues `req`'s message to arrive at `tier` at `at`.
    pub(super) fn arrive_at(&mut self, at: SimTime, req: ReqId, tier: usize, visit: u16) {
        let tier = tier as u8;
        self.queue.push(at, Event::Arrival { req, tier, visit });
    }

    /// Chooses the replica of `tier` a fresh connection attempt lands on,
    /// per the tier's [`Balancer`]. A single-instance tier short-circuits to
    /// replica 0 without consuming randomness, which keeps replica-count-1
    /// topologies bit-identical to the pre-replication engine.
    ///
    /// Ineligibility — drain, retirement, health ejection — is one shared
    /// predicate ([`Replica::is_eligible`]) checked the same way by every
    /// policy.
    fn pick_replica(&mut self, tier: usize) -> u8 {
        if self.tiers[tier].replicas.len() > 1 {
            // Trickle probes: a probation replica receives `probe_fraction`
            // of fresh picks so reinstatement evidence can accrue without
            // re-exposing real traffic to a still-sick instance.
            if let Some(p) = self.planes.probe(tier) {
                return p;
            }
        }
        let node = &mut self.tiers[tier];
        let n = node.replicas.len();
        if n == 1 {
            return 0;
        }
        // Every policy works over the same eligible set, scanned in place in
        // index order; with every replica eligible that is plain `0..n`.
        // The detector never ejects the last healthy replica, but a
        // controller drain can race an ejection into an empty set. Fresh
        // work then has to go *somewhere*: an ejected-but-active replica is
        // the least-bad destination (a draining one is on its way out and
        // would strand the pin).
        let any_eligible = node.replicas.iter().any(Replica::is_eligible);
        let ok = move |rep: &Replica| {
            if any_eligible {
                rep.is_eligible()
            } else {
                rep.life == ReplicaLife::Active
            }
        };
        let reps = &node.replicas;
        let eligible = || {
            reps.iter()
                .enumerate()
                .filter(move |(_, rep)| ok(rep))
                .map(|(r, _)| r)
        };
        let first = eligible()
            .next()
            .expect("replica 0 is never drained, so at least one replica is active");
        let m = eligible().count();
        if m == 1 {
            return first as u8;
        }
        match self.cfg.tiers[tier].balancer {
            Balancer::RoundRobin => loop {
                let r = node.rr_next as usize % n;
                node.rr_next = node.rr_next.wrapping_add(1);
                if ok(&node.replicas[r]) {
                    return r as u8;
                }
            },
            // The min scans run branchless: arithmetic selects instead of a
            // compare-and-branch the predictor loses on balanced queue
            // depths. Strict `<` keeps ties on the lowest eligible index.
            Balancer::LeastOutstanding => {
                let mut best = first;
                let mut best_depth = reps[best].depth();
                for r in eligible().skip(1) {
                    let d = reps[r].depth();
                    let take = usize::from(d < best_depth);
                    best = take * r + (1 - take) * best;
                    best_depth = take * d + (1 - take) * best_depth;
                }
                best as u8
            }
            Balancer::Jsq => {
                let mut best = first;
                let mut best_len = reps[best].backlog.len();
                for r in eligible().skip(1) {
                    let l = reps[r].backlog.len();
                    let take = usize::from(l < best_len);
                    best = take * r + (1 - take) * best;
                    best_len = take * l + (1 - take) * best_len;
                }
                best as u8
            }
            Balancer::P2c => {
                let ai = node.rng.below(m as u64) as usize;
                let mut bi = node.rng.below(m as u64 - 1) as usize;
                bi += usize::from(bi >= ai);
                let pick = |k| eligible().nth(k).expect("k < eligible count");
                let (a, b) = (pick(ai), pick(bi));
                let take = usize::from(reps[b].depth() < reps[a].depth());
                (take * b + (1 - take) * a) as u8
            }
        }
    }

    /// The kernel-pinned replica a SYN retransmit re-hits, or `None` when
    /// the control plane retired it after the drop (the pin outlived the
    /// instance).
    fn pinned_replica(&self, i: usize, tier: usize) -> Option<usize> {
        let rep = self.slab[i].cursors[tier].replica as usize;
        (self.tiers[tier].replicas[rep].life != ReplicaLife::Retired).then_some(rep)
    }

    pub(super) fn on_arrival(&mut self, req: ReqId, tier: usize, visit: u16) {
        let Some(i) = self.slab.live(req) else {
            return;
        };
        // Resolve the replica first: a kernel SYN retransmit re-hits its
        // pinned replica (L4 5-tuple affinity); everything else — fresh
        // sends and app-level hop retries — re-picks through the balancer.
        // A pin whose instance retired mid-RTO meets a closed endpoint, and
        // the connection re-balances with a fresh pin instead of indexing a
        // dead replica.
        let pinned = if self.slab[i].retrans.attempts() > 0 {
            self.pinned_replica(i, tier)
        } else {
            None
        };
        let rep = match pinned {
            Some(r) => r,
            None => {
                let r = self.pick_replica(tier);
                self.slab[i].cursors[tier].replica = r;
                r as usize
            }
        };
        // Injected faults act at the admission point: a crashed tier
        // behaves like a full backlog, a flaky link drops the message with
        // the configured probability. Both hit the whole replica set (the
        // fault models the tier's shared ingress, not one instance). A
        // flaky-link burst targets one replica's ingress. The rng is drawn
        // only while a window is open, so clean runs consume nothing from
        // the fault stream.
        let node = &self.tiers[tier];
        let flaky = node.replicas[rep].drop_prob;
        if node.down
            || (node.drop_prob > 0.0 && self.rng_faults.chance(node.drop_prob))
            || (flaky > 0.0 && self.rng_faults.chance(flaky))
        {
            self.drop_message(req, tier, rep, visit);
            return;
        }
        // Admission-time load shedding rejects fast instead of queueing
        // work that is already doomed; the AIMD limiter rejects once the
        // replica's in-system count reaches its latency-derived limit; the
        // overload governor's brake is a hard ceiling installed at
        // retry-storm onset. Depth is the chosen replica's.
        let depth = node.replicas[rep].depth();
        let age = self.now.saturating_since(self.slab[i].injected_at);
        if self.cfg.tiers[tier]
            .shed
            .is_some_and(|sp| sp.should_shed(depth, age))
            || node.aimd.as_ref().is_some_and(|lim| depth >= lim.limit())
            || node.governor_limit.is_some_and(|cap| depth >= cap)
        {
            self.shed_request(req, tier, rep);
            return;
        }
        let mut spawn_at: Option<SimTime> = None;
        let admit = {
            let rt = &mut self.tiers[tier].replicas[rep];
            match &mut rt.state {
                TierState::Sync(pg) => {
                    if pg.try_acquire() {
                        Admit::Start
                    } else {
                        if pg.wants_spawn() {
                            pg.begin_spawn();
                            spawn_at = Some(self.now + pg.spawn_delay());
                        }
                        match rt.backlog.offer(Pending { req, visit }) {
                            Ok(()) => Admit::Backlogged,
                            Err(_) => Admit::Dropped,
                        }
                    }
                }
                TierState::Async(el) => {
                    if el.try_admit() {
                        Admit::Start
                    } else {
                        Admit::Dropped
                    }
                }
            }
        };
        if let Some(at) = spawn_at {
            self.queue.push(
                at,
                Event::SpawnDone {
                    tier: tier as u8,
                    replica: rep as u8,
                },
            );
        }
        match admit {
            Admit::Start => {
                self.slab[i].cursors[tier].occupying = true;
                self.on_admitted(req, tier);
                self.record_queue(tier, rep);
                self.begin_visit(req, tier, visit);
            }
            Admit::Backlogged => {
                self.tracer.record(
                    self.slab[i].trace,
                    self.now,
                    TraceEventKind::Enqueue {
                        tier: TierId::from(tier),
                        replica: ReplicaId::from(rep),
                    },
                );
                self.on_admitted(req, tier);
                self.record_queue(tier, rep);
            }
            Admit::Dropped => self.drop_message(req, tier, rep, visit),
        }
    }

    /// A message was accepted at `tier`: reset the per-message retry state
    /// and let the hop's breaker see the success (inner hops only — tier
    /// 0's breaker is the client's, whose success is request completion).
    fn on_admitted(&mut self, req: ReqId, tier: usize) {
        let i = self.slab.live_expect(req);
        self.slab[i].retrans = RetransmitState::new();
        self.slab[i].hop_attempts = 0;
        self.slab[i].cursors[tier].arrived_at = self.now;
        if tier > 0 {
            self.tiers[tier].hop_result(self.now, true);
        }
    }

    fn begin_visit(&mut self, req: ReqId, tier: usize, visit: u16) {
        let i = self.slab.live_expect(req);
        self.tracer.record(
            self.slab[i].trace,
            self.now,
            TraceEventKind::ServiceStart {
                tier: TierId::from(tier),
                replica: ReplicaId::from(self.slab[i].cursors[tier].replica as usize),
                visit,
            },
        );
        let c = &mut self.slab[i].cursors[tier];
        c.slice_idx = 0;
        c.active_visit = visit;
        self.exec_slice(req, tier, visit, 0);
    }

    fn exec_slice(&mut self, req: ReqId, tier: usize, visit: u16, slice: usize) {
        let i = self.slab.live_expect(req);
        let demand = self.slab[i].plan.slices_at(tier, visit as usize)[slice];
        let rep = self.slab[i].cursors[tier].replica as usize;
        let rt = &mut self.tiers[tier].replicas[rep];
        let active = match &rt.state {
            TierState::Sync(pg) => pg.busy(),
            TierState::Async(el) => el.workers() as usize,
        };
        let effective = self.cfg.tiers[tier]
            .overhead
            .effective_demand(demand, active);
        // Gray degradation stretches this replica's service time by the
        // window's rate multiplier. The scale is skipped entirely at the
        // nominal 1.0 so ungraded slices keep their exact demands.
        let effective = if rt.rate_mult == 1.0 {
            effective
        } else {
            SimDuration::from_micros((effective.as_micros() as f64 * rt.rate_mult) as u64)
        };
        // Busy segments stream straight into the utilization series; no
        // per-slice segment Vec is built.
        let util = &mut rt.util;
        let end = rt
            .cpu
            .run_with(self.now, effective, |s, e| util.record_busy(s, e));
        self.queue.push(
            end,
            Event::SliceDone {
                req,
                tier: tier as u8,
                visit,
            },
        );
    }

    pub(super) fn on_slice_done(&mut self, req: ReqId, tier: usize, visit: u16) {
        let Some(i) = self.slab.live(req) else {
            return;
        };
        let slice = self.slab[i].cursors[tier].slice_idx;
        let total = self.slab[i].plan.slices_at(tier, visit as usize).len();
        if slice + 1 == total {
            self.finish_visit(req, tier, visit);
        } else {
            self.issue_call(req, tier);
        }
    }

    /// Issues the next downstream call from `tier` (the request's thread,
    /// if sync, stays held). A single child is the RPC hop; several children
    /// scatter one arm per child.
    fn issue_call(&mut self, req: ReqId, tier: usize) {
        let i = self.slab.live_expect(req);
        if self.cfg.shape.children[tier].len() > 1 {
            self.do_scatter(req, tier);
            return;
        }
        let target = self.cfg.shape.children[tier][0];
        let c = &mut self.slab[i].cursors[target];
        let target_visit = c.next_visit;
        c.next_visit += 1;
        let rep = self.slab[i].cursors[tier].replica as usize;
        if let Some(pool) = self.tiers[tier].replicas[rep].conn_pool.as_mut() {
            let token = self.next_token;
            self.next_token += 1;
            match pool.acquire(token) {
                Lease::Granted => {
                    self.slab[i].cursors[tier].conn_held = true;
                    self.send(req, target, target_visit);
                }
                Lease::Queued => {
                    self.parked.insert(token, (req, target, target_visit));
                }
            }
        } else {
            self.send(req, target, target_visit);
        }
    }

    /// Scatters from `tier` to every child at once: one *arm* sub-request
    /// per child, each walking its own subtree. The parent parks (its
    /// thread, if sync, stays held — scatter-gather is an RPC construct)
    /// until `quorum[tier]` arms have replied.
    fn do_scatter(&mut self, req: ReqId, tier: usize) {
        let i = self.slab.live_expect(req);
        let kids = self.cfg.shape.children[tier].clone();
        let quorum = self.cfg.shape.quorum[tier];
        debug_assert!(quorum >= 1 && quorum <= kids.len());
        let r = &mut self.slab[i];
        r.fan_awaiting = quorum as u32;
        r.fan_live = kids.len() as u32;
        r.fan_node = tier as u8;
        let (injected_at, class, plan, attempt, trace) =
            (r.injected_at, r.class, r.plan.share(), r.attempt, r.trace);
        for c in kids {
            // Arms are slab requests of their own: alloc after capturing the
            // parent's ingredients (alloc may grow the slab and move it).
            let arm = self
                .slab
                .alloc(injected_at, None, class, plan.share(), attempt);
            let j = arm.slot as usize;
            self.slab[j].arm_parent = Some(req);
            self.slab[j].arm_root = c as u8;
            if trace != TRACE_NONE {
                // Arms append into the parent's timeline; the arm's slot
                // holds its own reference like any attempt.
                self.tracer.retain(trace);
                self.slab[j].trace = trace;
            }
            self.send(arm, c, 0);
        }
    }

    /// A scatter arm's reply reached the parent waiting at its fan-out
    /// node: count it against the quorum and resume the parent's visit once
    /// the quorum is met. Late arms beyond the quorum land here harmlessly.
    pub(super) fn on_arm_reply(&mut self, parent: ReqId) {
        let Some(i) = self.slab.live(parent) else {
            return;
        };
        let r = &mut self.slab[i];
        if r.fan_awaiting == 0 {
            return; // quorum already met; this is a straggler's reply
        }
        r.fan_live -= 1;
        r.fan_awaiting -= 1;
        if r.fan_awaiting > 0 {
            return;
        }
        let fan = r.fan_node as usize;
        let c = &mut r.cursors[fan];
        c.slice_idx += 1;
        let (next, visit) = (c.slice_idx, c.active_visit);
        self.exec_slice(parent, fan, visit, next);
    }

    /// A scatter arm died (drops exhausted, shed): if the surviving arms
    /// can no longer form the quorum, the parent fails.
    pub(super) fn on_arm_failed(&mut self, parent: ReqId) {
        let Some(i) = self.slab.live(parent) else {
            return;
        };
        let r = &mut self.slab[i];
        if r.fan_awaiting == 0 {
            return;
        }
        r.fan_live -= 1;
        if r.fan_live < r.fan_awaiting {
            r.fan_awaiting = 0;
            self.fail_request(parent);
        }
    }

    fn finish_visit(&mut self, req: ReqId, tier: usize, visit: u16) {
        let i = self.slab.live_expect(req);
        let cursor = self.slab[i].cursors[tier];
        let rep = cursor.replica as usize;
        self.tiers[tier].replicas[rep].release(1);
        self.tracer.record(
            self.slab[i].trace,
            self.now,
            TraceEventKind::ServiceEnd {
                tier: TierId::from(tier),
                replica: ReplicaId::from(rep),
                visit,
            },
        );
        self.slab[i].cursors[tier].occupying = false;
        // A finished visit at the monitored tier is a passive reply signal:
        // residence time (admission → visit done) feeds the detector's
        // latency EWMA and its phi-accrual inter-reply clock.
        self.planes.on_reply(tier, rep, self.now, cursor.arrived_at);
        // Feed the per-tier residence time (admission → visit done) to the
        // AIMD limiter: congestion shows up as inflated residence.
        if let Some(lim) = self.tiers[tier].aimd.as_mut() {
            lim.on_sample(self.now.saturating_since(cursor.arrived_at));
        }
        self.drain_backlog(tier, rep);
        self.record_queue(tier, rep);
        let r = &self.slab[i];
        if let Some(parent) = r.arm_parent.filter(|_| tier == usize::from(r.arm_root)) {
            // The arm's subtree is done: reply to the parent's fan-out node
            // and retire the arm now — the reply event carries only the
            // parent handle, so nothing keeps the slot alive.
            self.queue
                .push(self.now + self.cfg.hop_delay, Event::ArmReply { parent });
            self.free_request(i);
            return;
        }
        if tier == 0 {
            self.complete_request(req);
        } else {
            // The reply heads upstream: a cancel arriving at this tier or
            // deeper has been outrun.
            let up = self.cfg.shape.parent[tier].expect("non-root tier has a parent");
            self.slab.hot[i].head = up as u8;
            self.queue.push(
                self.now + self.cfg.hop_delay,
                Event::ReplyArrive {
                    req,
                    tier: up as u8,
                },
            );
        }
    }

    pub(super) fn on_reply(&mut self, req: ReqId, tier: usize) {
        let Some(i) = self.slab.live(req) else {
            return;
        };
        // A reply from downstream frees the caller's pooled connection; a
        // parked call (its thread already held) inherits it and fires.
        let c = &mut self.slab[i].cursors[tier];
        if c.conn_held {
            c.conn_held = false;
            let rep = c.replica as usize;
            self.release_conn(tier, rep);
        }
        let c = &mut self.slab[i].cursors[tier];
        c.slice_idx += 1;
        let (next, visit) = (c.slice_idx, c.active_visit);
        self.exec_slice(req, tier, visit, next);
    }

    fn release_conn(&mut self, tier: usize, rep: usize) {
        let handover = self.tiers[tier].replicas[rep]
            .conn_pool
            .as_mut()
            .expect("release_conn on tier without pool")
            .release();
        if let Some(token) = handover {
            let (r2, target, visit) = self
                .parked
                .remove(&token)
                .expect("pool handed over an unknown token");
            // A parked waiter holds its upstream thread, which keeps the
            // request live until the connection arrives.
            let i = self.slab.live_expect(r2);
            self.slab[i].cursors[tier].conn_held = true;
            self.send(r2, target, visit);
        }
    }

    /// Admits backlog entries into a sync replica's idle threads; a no-op
    /// on an async replica.
    fn drain_backlog(&mut self, tier: usize, rep: usize) {
        loop {
            let pending = {
                let rt = &mut self.tiers[tier].replicas[rep];
                match &mut rt.state {
                    TierState::Sync(pg) => {
                        if pg.is_exhausted() {
                            None
                        } else {
                            rt.backlog.pop().inspect(|_p| {
                                let ok = pg.try_acquire();
                                debug_assert!(ok, "idle thread disappeared");
                            })
                        }
                    }
                    TierState::Async(_) => None,
                }
            };
            let Some(p) = pending else { break };
            // A backlogged request can only leave the backlog through this
            // pop, so its handle is live by construction.
            let i = self.slab.live_expect(p.req);
            self.slab[i].cursors[tier].occupying = true;
            self.begin_visit(p.req, tier, p.visit);
        }
    }

    pub(super) fn on_spawn_done(&mut self, tier: usize, rep: usize) {
        match &mut self.tiers[tier].replicas[rep].state {
            TierState::Sync(pg) => pg.complete_spawn(),
            TierState::Async(_) => unreachable!("async tiers do not spawn"),
        }
        self.drain_backlog(tier, rep);
        self.record_queue(tier, rep);
    }

    fn drop_message(&mut self, req: ReqId, tier: usize, rep: usize, visit: u16) {
        let i = self.slab.live_expect(req);
        self.drops_total += 1;
        let r = &mut self.tiers[tier].replicas[rep];
        r.drops_total += 1;
        r.drops.add(self.now, 1);
        self.class_stats
            .entry(self.slab[i].class)
            .or_default()
            .drops += 1;
        if self.slab[i].first_drop.is_none() {
            self.slab[i].first_drop = FirstDrop {
                at: self.now,
                tier: tier as u8,
                replica: rep as u8,
            };
        }
        // Record the drop with its retransmit ordinal *before* the retry
        // decision mutates the counter: ordinal 0 is the original send,
        // ordinal n the n-th retransmit of this message.
        let app_hop = tier > 0 && self.cfg.tiers[tier].caller_policy.is_some();
        let retransmit_no = if app_hop {
            self.slab[i].hop_attempts as u8
        } else {
            self.slab[i].retrans.attempts() as u8
        };
        self.tracer.record(
            self.slab[i].trace,
            self.now,
            TraceEventKind::SynDrop {
                tier: TierId::from(tier),
                replica: ReplicaId::from(rep),
                retransmit_no,
            },
        );
        // A drop at the monitored tier is the detector's error signal; the
        // governor watches the 1-based retransmit ordinal (1 = an original
        // send dropped), whose climbing window maximum is the 3/6/9 s
        // ladder being climbed by the same connections.
        self.planes
            .on_drop(tier, rep, self.now, retransmit_no.saturating_add(1));
        // A caller policy on an inner hop replaces the kernel retransmit
        // schedule with app-controlled backoff + budget + breaker.
        if app_hop {
            self.app_hop_drop(req, tier, rep, visit);
            return;
        }
        match self.slab[i].retrans.on_drop(&self.cfg.retransmit, self.now) {
            RetryDecision::RetryAt(t) => self.arrive_at(t, req, tier, visit),
            RetryDecision::GiveUp => self.fail_request(req),
        }
    }

    /// A fault window opens.
    pub(super) fn on_fault_begin(&mut self, idx: usize) {
        match self.cfg.faults.faults()[idx] {
            Fault::Crash { tier, .. } => self.tiers[tier].down = true,
            Fault::DropMessages { tier, prob, .. } => self.tiers[tier].drop_prob = prob,
            Fault::SlowHops { tier, extra, .. } => self.tiers[tier].extra_hop += extra,
            // Gray windows are stepped piecewise-constant: each window
            // *sets* its level (no stacking), and the plan's push order
            // stamps an adjacent window's End before the next Begin at a
            // shared boundary, so ramps hand over cleanly.
            Fault::SlowReplica {
                tier,
                replica,
                factor,
                ..
            } => self.tiers[tier].replicas[replica].rate_mult = factor,
            Fault::FlakyReplica {
                tier,
                replica,
                prob,
                ..
            } => self.tiers[tier].replicas[replica].drop_prob = prob,
            Fault::StuckWorkers { tier, count, .. } => {
                // Wedge up to `count` workers by occupying their slots; the
                // tier may already be too busy to give up that many. On a
                // replica set the fault wedges replica 0 — a single sick
                // instance, the scenario the balancer sweep studies.
                let mut got = 0;
                match &mut self.tiers[tier].replicas[0].state {
                    TierState::Sync(pg) => {
                        while got < count && pg.try_acquire() {
                            got += 1;
                        }
                    }
                    TierState::Async(el) => {
                        while got < count && el.try_admit() {
                            got += 1;
                        }
                    }
                }
                self.stuck_acquired[idx] = got;
                self.record_queue(tier, 0);
            }
        }
    }

    /// A fault window closes.
    pub(super) fn on_fault_end(&mut self, idx: usize) {
        match self.cfg.faults.faults()[idx] {
            Fault::Crash { tier, .. } => self.tiers[tier].down = false,
            Fault::DropMessages { tier, .. } => self.tiers[tier].drop_prob = 0.0,
            Fault::SlowReplica { tier, replica, .. } => {
                self.tiers[tier].replicas[replica].rate_mult = 1.0;
            }
            Fault::FlakyReplica { tier, replica, .. } => {
                self.tiers[tier].replicas[replica].drop_prob = 0.0;
            }
            Fault::SlowHops { tier, extra, .. } => {
                let hop = &mut self.tiers[tier].extra_hop;
                *hop = hop.saturating_sub(extra);
            }
            Fault::StuckWorkers { tier, .. } => {
                let got = std::mem::take(&mut self.stuck_acquired[idx]);
                self.tiers[tier].replicas[0].release(got);
                self.drain_backlog(tier, 0);
                self.record_queue(tier, 0);
            }
        }
    }

    /// Frees every thread, admission slot and pooled connection `req`
    /// holds, upstream-last so handed-over connections find their takers.
    pub(super) fn release_resources(&mut self, req: ReqId) {
        let i = self.slab.live_expect(req);
        // Node ids are preorder, so the reverse walk still releases
        // downstream holdings before their callers' pooled connections.
        for tier in (0..self.tiers.len()).rev() {
            let rep = self.slab[i].cursors[tier].replica as usize;
            if self.slab[i].cursors[tier].conn_held {
                self.slab[i].cursors[tier].conn_held = false;
                self.release_conn(tier, rep);
            }
            if self.slab[i].cursors[tier].occupying {
                self.tiers[tier].replicas[rep].release(1);
                self.slab[i].cursors[tier].occupying = false;
                self.drain_backlog(tier, rep);
                self.record_queue(tier, rep);
            }
        }
    }

    pub(super) fn record_queue(&mut self, tier: usize, rep: usize) {
        let r = &mut self.tiers[tier].replicas[rep];
        let depth = r.depth();
        if depth > r.peak_queue {
            r.peak_queue = depth;
        }
        r.queue_depth
            .record(self.now, u32::try_from(depth).unwrap_or(u32::MAX));
    }
}
