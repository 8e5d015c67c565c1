//! The arrival side of a run: the [`Workload`] a caller builds, the
//! [`Feed`] that draws arrivals from it, and the injection path that turns
//! each arrival into a request.

use ntier_des::prelude::*;
use ntier_trace::{TerminalClass, TraceEventKind};
use ntier_workload::source::ArrivalSource;
use ntier_workload::{ClosedLoopSpec, RequestMix, SampledRequest};

use super::slab::ReqId;
use super::{Engine, Event};
use crate::arrivals::SourcedRequest;
use crate::plan::Plan;

/// The workload driving a run.
///
/// Construct workloads through the builders — [`Workload::closed`],
/// [`Workload::open`], [`Workload::open_plans`], [`Workload::from_source`] —
/// rather than naming variants directly. The materialized `Open`/`OpenPlans`
/// variants hold every arrival in memory up front and are deprecated as
/// construction targets; [`Workload::from_source`] streams arrivals on
/// demand, keeping memory proportional to the *active* request population.
pub enum Workload {
    /// Closed-loop clients (RUBBoS style): each completes, thinks, resends.
    /// Requires a 3-tier system (plans come from the request mix).
    Closed {
        /// Client population and think-time distribution.
        spec: ClosedLoopSpec,
        /// Request classes.
        mix: RequestMix,
    },
    /// Open-loop: requests injected at the given (pre-generated) times.
    /// Requires a 3-tier system.
    #[deprecated(
        since = "0.2.0",
        note = "construct via Workload::open(..), or stream with Workload::from_source(..)"
    )]
    Open {
        /// Sorted injection times.
        arrivals: Vec<SimTime>,
        /// Request classes.
        mix: RequestMix,
    },
    /// Open-loop with explicit per-request plans — supports chains of any
    /// depth (the plan depth must equal the system depth).
    #[deprecated(
        since = "0.2.0",
        note = "construct via Workload::open_plans(..), or stream with Workload::from_source(..)"
    )]
    OpenPlans {
        /// `(injection time, plan)` pairs.
        arrivals: Vec<(SimTime, Plan)>,
    },
    /// Streaming arrivals pulled lazily from an [`ArrivalSource`] (built
    /// with [`Workload::from_source`]): the engine holds at most one
    /// pending arrival, so memory is O(active requests) no matter how many
    /// arrivals the source ultimately emits.
    Source(WorkloadSource),
}

/// A boxed streaming arrival source (opaque in debug output).
///
/// All of the source's randomness — arrival gaps, mix samples, demand
/// multipliers — is drawn from the engine's dedicated `"arrival-source"`
/// rng fork at pull time, on the single thread driving the event loop, so
/// streamed runs stay bit-identical across runner thread counts.
pub struct WorkloadSource(Box<dyn ArrivalSource<Payload = SourcedRequest> + Send>);

impl std::fmt::Debug for WorkloadSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WorkloadSource(..)")
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        #[allow(deprecated)]
        match self {
            Workload::Closed { spec, mix } => f
                .debug_struct("Closed")
                .field("spec", spec)
                .field("mix", mix)
                .finish(),
            Workload::Open { arrivals, mix } => f
                .debug_struct("Open")
                .field("arrivals", arrivals)
                .field("mix", mix)
                .finish(),
            Workload::OpenPlans { arrivals } => f
                .debug_struct("OpenPlans")
                .field("arrivals", arrivals)
                .finish(),
            Workload::Source(s) => f.debug_tuple("Source").field(s).finish(),
        }
    }
}

impl Workload {
    /// A closed-loop population driving a 3-tier mix.
    pub fn closed(spec: ClosedLoopSpec, mix: RequestMix) -> Workload {
        Workload::Closed { spec, mix }
    }

    /// Open-loop arrivals at pre-generated `arrivals` times, each compiled
    /// from one `mix` sample. The times are materialized eagerly; prefer
    /// [`Workload::from_source`] for long runs.
    #[allow(deprecated)]
    pub fn open(arrivals: Vec<SimTime>, mix: RequestMix) -> Workload {
        Workload::Open { arrivals, mix }
    }

    /// Open-loop arrivals with explicit per-request plans (any chain
    /// depth). The table is materialized eagerly; prefer
    /// [`Workload::from_source`] for long runs.
    #[allow(deprecated)]
    pub fn open_plans(arrivals: Vec<(SimTime, Plan)>) -> Workload {
        Workload::OpenPlans { arrivals }
    }

    /// Streams arrivals lazily from `source`. The engine pulls one arrival
    /// at a time from its `"arrival-source"` rng fork; the source must
    /// emit non-decreasing times and stay exhausted after returning
    /// `None`. A source-reported fault (e.g. a trace parse error) ends the
    /// stream and is surfaced in
    /// [`RunReport::workload_fault`](crate::report::RunReport::workload_fault).
    pub fn from_source(
        source: impl ArrivalSource<Payload = SourcedRequest> + Send + 'static,
    ) -> Workload {
        Workload::Source(WorkloadSource(Box::new(source)))
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
/// from, and the one arrival a streamed source has pulled ahead.
#[derive(Debug)]
pub(super) struct Feed {
    pub(super) workload: Workload,
    rng_mix: SimRng,
    /// The closed/open mixes' reused sample: drawing a request allocates
    /// nothing once its query buffer has grown to the mix's widest class.
    sample: SampledRequest,
    rng_clients: SimRng,
    /// Dedicated rng fork feeding [`Workload::Source`] pulls, so streamed
    /// arrivals consume randomness independently of every other plane.
    rng_source: SimRng,
    /// The one arrival pulled ahead under [`Workload::Source`] (its
    /// `Inject` event is already queued).
    pending: Option<SourcedRequest>,
    /// Last streamed arrival time, for the monotonicity guard.
    last: SimTime,
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
            rng_source: root.fork("arrival-source"),
            pending: None,
            last: SimTime::ZERO,
            fault: None,
        }
    }

    /// Pulls one arrival from a streaming source, parks its payload in
    /// `pending` and returns its time. On exhaustion the source's fault (if
    /// any) is recorded; a time regression trips the monotonicity guard
    /// and ends the stream the same way.
    fn pull(&mut self) -> Option<SimTime> {
        let Workload::Source(src) = &mut self.workload else {
            return None;
        };
        if self.fault.is_some() {
            return None;
        }
        match src.0.next_arrival(&mut self.rng_source) {
            Some((t, _)) if t < self.last => {
                self.fault = Some(format!(
                    "arrival source emitted {t} after {}: times must be non-decreasing",
                    self.last
                ));
                None
            }
            Some((t, req)) => {
                self.last = t;
                self.pending = Some(req);
                Some(t)
            }
            None => {
                self.fault = src.0.fault().map(str::to_owned);
                None
            }
        }
    }
}

impl Engine {
    /// Queues the workload's first arrivals: every closed-loop client's
    /// first send, every eager arrival, or a streamed source's first pull.
    #[allow(deprecated)]
    pub(super) fn schedule_arrivals(&mut self) {
        match &self.feed.workload {
            Workload::Closed { spec, .. } => {
                for client in 0..spec.clients() {
                    let offset = spec.start_offset(&mut self.feed.rng_clients);
                    self.queue
                        .push(SimTime::ZERO + offset, Event::ClientSend { client });
                }
            }
            Workload::Open { arrivals, .. } => {
                for (i, t) in arrivals.iter().enumerate() {
                    self.queue.push(*t, Event::Inject { idx: i as u32 });
                }
            }
            Workload::OpenPlans { arrivals } => {
                for (i, (t, _)) in arrivals.iter().enumerate() {
                    self.queue.push(*t, Event::Inject { idx: i as u32 });
                }
            }
            Workload::Source(_) => self.pull_next_arrival(),
        }
    }

    /// Pulls the streamed source's next arrival and queues its `Inject`.
    fn pull_next_arrival(&mut self) {
        if let Some(t) = self.feed.pull() {
            self.queue.push(t, Event::Inject { idx: u32::MAX });
        }
    }

    #[allow(deprecated)]
    pub(super) fn inject(&mut self, client: Option<u32>, idx: u32) {
        let feed = &mut self.feed;
        let (class, plan) = match &feed.workload {
            Workload::Source(_) => {
                let Some(req) = feed.pending.take() else {
                    return;
                };
                (req.class, req.plan)
            }
            _ if feed.fault.is_some() => return, // a misfit plan ended the eager stream
            Workload::Closed { mix, .. } | Workload::Open { mix, .. } => {
                mix.sample_into(&mut feed.rng_mix, &mut feed.sample);
                (feed.sample.class, Plan::compile(&feed.sample))
            }
            Workload::OpenPlans { arrivals } => ("custom", arrivals[idx as usize].1.share()),
        };
        // A plan that does not fit the system is a fault of the input, not
        // of the engine: end the stream here, before this arrival counts as
        // injected, so conservation still holds.
        if let Err(e) = self.check_plan(&plan) {
            self.feed.fault = Some(format!("arrival at {}: {e}", self.now));
            return;
        }
        // Pull a streamed successor before processing this arrival: the
        // next Inject takes an earlier sequence number than anything this
        // request schedules at the same timestamp, matching the order the
        // eager paths produce by pushing all arrivals up front.
        self.pull_next_arrival();
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
