//! The arrival side of a run: the [`Workload`] a caller builds, the
//! [`Feed`] that draws arrivals from it, and the injection path that turns
//! each arrival into a request.

use std::collections::VecDeque;

use ntier_des::prelude::*;
use ntier_trace::{TerminalClass, TraceEventKind};
use ntier_workload::source::{ArrivalSource, VecSource};
use ntier_workload::{ClosedLoopSpec, RequestMix, SampledRequest};

use super::slab::ReqId;
use super::{Engine, Event};
use crate::arrivals::{MixPlans, SourcedRequest};
use crate::plan::Plan;

/// The workload driving a run: a closed-loop population, or arrivals
/// streamed from an [`ArrivalSource`] of which the engine holds only the
/// next instant's, so memory stays proportional to the active requests.
/// Build it with [`Workload::closed`], [`Workload::open`],
/// [`Workload::open_plans`] or [`Workload::from_source`].
#[derive(Debug)]
pub enum Workload {
    /// Closed-loop clients (RUBBoS style): each completes, thinks, resends.
    /// Requires a 3-tier system (plans come from the request mix).
    Closed {
        /// Client population and think-time distribution.
        spec: ClosedLoopSpec,
        /// Request classes.
        mix: RequestMix,
    },
    /// Streaming arrivals pulled lazily from an [`ArrivalSource`] (built
    /// with [`Workload::from_source`] or the open-loop builders).
    Source(WorkloadSource),
}

/// A boxed streaming arrival source (opaque in debug output).
///
/// All of the source's randomness — arrival gaps, mix samples, demand
/// multipliers — is drawn from the engine's `"mix"` rng fork at pull time,
/// on the single thread driving the event loop, so streamed runs stay
/// bit-identical across runner thread counts.
pub struct WorkloadSource(Box<dyn ArrivalSource<Payload = SourcedRequest> + Send>);

impl std::fmt::Debug for WorkloadSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WorkloadSource(..)")
    }
}

impl Workload {
    /// A closed-loop population driving a 3-tier mix.
    pub fn closed(spec: ClosedLoopSpec, mix: RequestMix) -> Workload {
        Workload::Closed { spec, mix }
    }

    /// Open-loop arrivals at non-decreasing `arrivals` times, each compiled
    /// from one `mix` sample ([`MixPlans`] over a [`VecSource`]). The plans
    /// are 3-tier: on any other system the first arrival ends the run with
    /// a plan-depth `workload_fault`.
    pub fn open(arrivals: Vec<SimTime>, mix: RequestMix) -> Workload {
        Workload::from_source(MixPlans::new(VecSource::times(arrivals), mix))
    }

    /// Open-loop arrivals with explicit per-request plans (any chain
    /// depth), at non-decreasing times, all of class `"custom"`.
    pub fn open_plans(arrivals: Vec<(SimTime, Plan)>) -> Workload {
        Workload::from_source(CustomPlans(VecSource::new(arrivals)))
    }

    /// Streams arrivals lazily from `source`. The engine pulls from its
    /// `"mix"` rng fork; the source must emit non-decreasing times (an
    /// earlier time ends the stream as a fault) and stay exhausted after
    /// returning `None`. A source-reported fault (e.g. a trace parse
    /// error) ends the stream and is surfaced in
    /// [`RunReport::workload_fault`](crate::report::RunReport::workload_fault).
    pub fn from_source(
        source: impl ArrivalSource<Payload = SourcedRequest> + Send + 'static,
    ) -> Workload {
        Workload::Source(WorkloadSource(Box::new(source)))
    }
}

/// [`Workload::open_plans`]' table, each plan labelled `"custom"` as it is
/// pulled, so building the workload makes no pass over the table.
#[derive(Debug)]
struct CustomPlans(VecSource<Plan>);

impl ArrivalSource for CustomPlans {
    type Payload = SourcedRequest;

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, SourcedRequest)> {
        let (t, plan) = self.0.next_arrival(rng)?;
        let class = "custom";
        Some((t, SourcedRequest { class, plan }))
    }
}

/// Typed rejection of a workload/system pairing — the workload analogue of
/// [`crate::TopologyError`], returned by [`Engine::try_new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// A mix-based workload (closed-loop, or open with a request mix) was
    /// paired with a system that is not a plain 3-tier chain, so its
    /// sampled requests cannot compile into plans.
    MixRequiresThreeTier {
        /// Tiers in the offending config.
        tiers: usize,
        /// Whether the config's shape was a linear chain.
        linear: bool,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::MixRequiresThreeTier { tiers, linear } => {
                let shape = if *linear { "linear" } else { "non-linear" };
                write!(
                    f,
                    "mix-based workloads compile 3-tier plans, but the system is a \
                     {shape} topology with {tiers} tiers; use Workload::open_plans or \
                     Workload::from_source for other shapes"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// The arrival state of a run: the workload, the rng streams it draws
/// from, and the streamed arrivals pulled ahead.
#[derive(Debug)]
pub(super) struct Feed {
    pub(super) workload: Workload,
    /// The closed loop's mix samples, or every pull of a streamed source: a
    /// run is one or the other, so the two never share the stream.
    rng_mix: SimRng,
    /// The closed mix's reused sample: drawing a request allocates nothing
    /// once its query buffer has grown to the mix's widest class.
    sample: SampledRequest,
    rng_clients: SimRng,
    /// The streamed arrivals of the next instant, in arrival order, each
    /// with its `Inject` already queued.
    pending: VecDeque<SourcedRequest>,
    /// The first arrival after `pending`'s instant (pulling it is how the
    /// group ends), or `None` once the stream has ended.
    ahead: Option<(SimTime, SourcedRequest)>,
    /// A fault reported by the arrival source, the monotonicity guard or
    /// the plan check; it ends the stream and is copied into the report.
    pub(super) fault: Option<String>,
}

impl Feed {
    pub(super) fn new(workload: Workload, root: &SimRng) -> Feed {
        Feed {
            workload,
            rng_mix: root.fork("mix"),
            sample: SampledRequest::default(),
            rng_clients: root.fork("clients"),
            pending: VecDeque::new(),
            ahead: None,
            fault: None,
        }
    }

    /// Pulls one arrival from a streaming source, recording the source's
    /// fault (if any) when it is exhausted.
    fn pull(&mut self) -> Option<(SimTime, SourcedRequest)> {
        let Workload::Source(src) = &mut self.workload else {
            return None;
        };
        let next = src.0.next_arrival(&mut self.rng_mix);
        if next.is_none() {
            self.fault = src.0.fault().map(str::to_owned);
        }
        next
    }
}

impl Engine {
    /// Queues the workload's first arrivals: every closed-loop client's
    /// first send, or a streamed source's first instant.
    pub(super) fn schedule_arrivals(&mut self) {
        if let Workload::Closed { spec, .. } = &self.feed.workload {
            for client in 0..spec.clients() {
                let offset = spec.start_offset(&mut self.feed.rng_clients);
                self.queue
                    .push(SimTime::ZERO + offset, Event::ClientSend { client });
            }
        } else {
            self.queue_next_arrivals();
        }
    }

    /// Pulls every arrival of the streamed source's next instant into
    /// `pending` and queues an `Inject` for each with `push_first`, so they
    /// open their instant in arrival order, after only the fault-window
    /// edges `drive` queued first. The pull that ends the instant parks the
    /// next arrival in `ahead`, unless its time regresses: that trips the
    /// monotonicity guard, which ends the stream.
    fn queue_next_arrivals(&mut self) {
        let feed = &mut self.feed;
        let mut next = feed.ahead.take().or_else(|| feed.pull());
        let Some(&(t, _)) = next.as_ref() else {
            return;
        };
        // The first instant may be t = 0; every later one is pulled while
        // the previous instant drains and must lie strictly after it, so
        // these `push_first` entries never land on an instant that has
        // already started to drain.
        debug_assert!(self.events_handled == 0 || t > self.now);
        while let Some((at, req)) = next {
            if at > t {
                self.feed.ahead = Some((at, req));
                return;
            }
            if at < t {
                self.feed.fault = Some(format!(
                    "arrival source emitted {at} after {t}: times must be non-decreasing"
                ));
                return;
            }
            self.feed.pending.push_back(req);
            self.queue.push_first(t, Event::Inject);
            next = self.feed.pull();
        }
    }

    pub(super) fn inject(&mut self, client: Option<u32>) {
        let feed = &mut self.feed;
        let (class, plan) = match &feed.workload {
            Workload::Closed { mix, .. } => {
                mix.sample_into(&mut feed.rng_mix, &mut feed.sample);
                (feed.sample.class, Plan::compile(&feed.sample))
            }
            Workload::Source(_) => {
                let Some(req) = feed.pending.pop_front() else {
                    return; // the stream ended before this arrival
                };
                (req.class, req.plan)
            }
        };
        // A plan that does not fit the system is a fault of the input, not
        // of the engine: end the stream here, before this arrival counts as
        // injected, so conservation still holds.
        if let Err(e) = self.check_plan(&plan) {
            let feed = &mut self.feed;
            feed.fault = Some(format!("arrival at {}: {e}", self.now));
            feed.pending.clear();
            feed.ahead = None;
            return;
        }
        // The last arrival of its instant queues the next instant, if the
        // stream has one.
        if self.feed.pending.is_empty() && self.feed.ahead.is_some() {
            self.queue_next_arrivals();
        }
        // Fast-fail at the client while its breaker refuses the hop (in
        // half-open this admits the request as the probe).
        if let Some(br) = self.tiers[0].hop_breaker.as_mut() {
            if !br.try_acquire(self.now) {
                self.injected += 1;
                self.shed += 1;
                self.tiers[0].res.shed += 1;
                self.class_stats.entry(class).or_default().shed += 1;
                // No RequestState ever exists: open and close a mini-trace
                // so breaker sheds still show up in the log.
                let h = self.tracer.start(self.now, class);
                self.tracer.record(
                    h,
                    self.now,
                    TraceEventKind::Shed {
                        tier: TierId::ROOT,
                        replica: ReplicaId::FIRST,
                    },
                );
                self.tracer
                    .set_terminal(h, self.now, TerminalClass::Shed, SimDuration::ZERO);
                self.tracer.release(h);
                self.schedule_client_next(client);
                return;
            }
        }
        if self.hedge_policy().is_some() {
            self.inject_hedged(client, class, plan);
            return;
        }
        let id = self.slab.alloc(self.now, client, class, plan, 0);
        self.slab[id.slot as usize].trace = self.tracer.start(self.now, class);
        self.injected += 1;
        self.arm_attempt_timer(id);
        self.send(id, 0, 0);
    }

    /// Checks that `plan` fits the system: one entry per tier, no more
    /// visits at a tier than a visit index (`u16`) can count and, on
    /// fan-out topologies, the shape's call structure.
    fn check_plan(&self, plan: &Plan) -> Result<(), String> {
        if plan.depth() != self.tiers.len() {
            return Err(format!(
                "plan depth {} does not match the system's {} tiers",
                plan.depth(),
                self.tiers.len()
            ));
        }
        if let Some(t) = (0..plan.depth()).find(|&t| plan.visits(t) > usize::from(u16::MAX)) {
            return Err(format!(
                "plan makes {} visits at tier {t}; at most {} fit",
                plan.visits(t),
                u16::MAX
            ));
        }
        if self.has_fanout {
            plan.matches_shape(&self.cfg.shape)
        } else {
            Ok(())
        }
    }

    /// Closed-loop continuation: the owning client thinks, then sends again.
    pub(super) fn client_next(&mut self, req: ReqId) {
        let client = self.slab[self.slab.live_expect(req)].client;
        self.schedule_client_next(client);
    }

    /// [`Self::client_next`] for outcomes with no slab slot (a breaker shed
    /// at injection time, a hedged deadline).
    pub(super) fn schedule_client_next(&mut self, client: Option<u32>) {
        let (Some(client), Workload::Closed { spec, .. }) = (client, &self.feed.workload) else {
            return;
        };
        let think = spec.think_time(&mut self.feed.rng_clients);
        self.push_within_horizon(think, Event::ClientSend { client });
    }
}
