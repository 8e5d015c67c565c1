//! The periodic planes — control, gray-failure health detection and
//! streaming metrics — behind one owner, [`Planes`]. Each plane has its own
//! tick event, re-armed after its work; health and control also hook the
//! pick, reply, drop and completion hot paths through `Planes` methods.

use crate::control::{Action, ControlLog, Controller, Directive, Observation, ReplicaObs, TierObs};
use crate::resilience::{HealthDetector, HealthPolicy, HealthVerdict};
use ntier_des::prelude::*;
use ntier_telemetry::metrics::{MetricsSample, ReplicaSample, TierSample};
use ntier_telemetry::{MetricsRegistry, QuantileSketch};

use super::tier::{NodeRuntime, Replica, ReplicaLife};
use super::{Engine, Event};
use crate::config::SystemConfig;

/// Everything the engine keeps per controlled run: the pure controller,
/// its dedicated rng fork, and the previous tick's counter snapshots (the
/// controller consumes per-window deltas, not run-to-date totals).
#[derive(Debug)]
struct ControlRuntime {
    ctl: Controller,
    /// The control plane's only randomness source (drain-victim
    /// tie-breaks), forked off the run seed as `"control"`.
    rng: SimRng,
    tick: SimDuration,
    /// The hedge tuner's quantile, when armed; read per tick from the
    /// recent-window sketch.
    hedge_q: Option<f64>,
    prev_injected: u64,
    prev_completed: u64,
    prev_retries: u64,
    prev_hedges: u64,
    /// Per-tier, per-replica `drops_total` at the previous tick.
    prev_drops: Vec<Vec<u64>>,
    prev_shed: Vec<u64>,
    /// Worst retransmit ordinal among this window's drops (1 = an original
    /// send dropped, climbing values mean the 3/6/9 s ladder).
    window_max_ordinal: u8,
    /// Completions since the previous tick, sketched: the controller's
    /// recent-latency quantiles come from here (cleared per tick), not
    /// from run-wide histogram deltas — O(1) state, ~0.4 % error.
    window: QuantileSketch,
}

/// Everything the engine keeps per health-monitored run: the pure detector,
/// its dedicated rng fork, and the decision log its verdicts land in. The
/// log is merged with the controller's (when both run) in `into_report`, so
/// `Ejected`/`Reinstated` ride the same CSV/`RootCause` joins as scale-ups
/// and brakes.
#[derive(Debug)]
struct HealthRuntime {
    det: HealthDetector,
    /// The detection plane's only randomness source (trickle-probe
    /// routing), forked off the run seed as `"health"`. Consumed only when
    /// a probation replica exists, so detection on a healthy run draws
    /// nothing.
    rng: SimRng,
    /// Copied out of the policy so the pick hot path reads it without
    /// reaching through the detector.
    tier: usize,
    log: ControlLog,
}

/// A streaming destination for metrics snapshots (opaque in debug output).
struct MetricsSink(Box<dyn std::io::Write + Send>);

impl std::fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MetricsSink(..)")
    }
}

/// The run's periodic planes, each `None` when its config is unset. An
/// unset plane schedules no tick, so its absence leaves the event stream
/// (and every golden fingerprint) exactly as it was before the plane
/// existed.
#[derive(Debug)]
pub(super) struct Planes {
    control: Option<Box<ControlRuntime>>,
    health: Option<Box<HealthRuntime>>,
    pub(super) metrics: Option<Box<MetricsRegistry>>,
    /// Optional live JSONL sink: each frozen snapshot is written as one
    /// line *during* the run (attach via [`Engine::with_metrics_sink`]).
    sink: Option<MetricsSink>,
    /// The first write error of `sink`, which is dropped at that point;
    /// copied into the report.
    pub(super) sink_fault: Option<String>,
}

impl Planes {
    pub(super) fn new(cfg: &SystemConfig, tiers: &[NodeRuntime], root: &SimRng) -> Planes {
        let control = cfg.control.map(|c| {
            Box::new(ControlRuntime {
                rng: root.fork("control"),
                tick: c.tick,
                hedge_q: c.tuner.as_ref().and_then(|t| t.hedge.as_ref()).map(|h| h.q),
                prev_injected: 0,
                prev_completed: 0,
                prev_retries: 0,
                prev_hedges: 0,
                prev_drops: tiers.iter().map(|n| vec![0; n.replicas.len()]).collect(),
                prev_shed: vec![0; tiers.len()],
                window_max_ordinal: 0,
                window: QuantileSketch::new(),
                ctl: Controller::new(c),
            })
        });
        let health = cfg.health.clone().map(|h| {
            let replicas = tiers[h.tier].replicas.len();
            Box::new(HealthRuntime {
                rng: root.fork("health"),
                tier: h.tier,
                log: ControlLog::default(),
                det: HealthDetector::new(h, replicas),
            })
        });
        Planes {
            control,
            health,
            metrics: cfg.metrics.map(|m| Box::new(MetricsRegistry::new(&m))),
            sink: None,
            sink_fault: None,
        }
    }

    /// Queues each enabled plane's first tick: control, health, metrics.
    pub(super) fn arm(&self, queue: &mut EventQueue<Event>) {
        if let Some(cr) = &self.control {
            queue.push(SimTime::ZERO + cr.tick, Event::ControllerTick);
        }
        if self.health.is_some() {
            queue.push(SimTime::ZERO + HealthPolicy::TICK, Event::HealthTick);
        }
        if let Some(m) = &self.metrics {
            queue.push(SimTime::ZERO + m.interval(), Event::MetricsTick);
        }
    }

    /// The health detector's trickle probe at `tier`: a probation replica
    /// receives [`HealthPolicy::PROBE_FRACTION`] of fresh picks, so
    /// reinstatement evidence can accrue without re-exposing real traffic
    /// to a still-sick instance. The draw comes from the dedicated "health" fork and only
    /// happens while somebody is on probation.
    pub(super) fn probe(&mut self, tier: usize) -> Option<u8> {
        let hr = self.health.as_mut().filter(|hr| hr.tier == tier)?;
        let p = hr.det.probe_candidate()?;
        hr.rng
            .chance(HealthPolicy::PROBE_FRACTION)
            .then_some(p as u8)
    }

    /// A visit admitted at `arrived_at` finished at replica `rep` of
    /// `tier`: at the monitored tier, its residence time feeds the
    /// detector.
    pub(super) fn on_reply(&mut self, tier: usize, rep: usize, now: SimTime, arrived_at: SimTime) {
        if let Some(hr) = self.health.as_mut().filter(|hr| hr.tier == tier) {
            hr.det.on_reply(rep, now, now.saturating_since(arrived_at));
        }
    }

    /// A message dropped at replica `rep` of `tier` with 1-based
    /// retransmit ordinal `ordinal`.
    pub(super) fn on_drop(&mut self, tier: usize, rep: usize, now: SimTime, ordinal: u8) {
        if let Some(hr) = self.health.as_mut().filter(|hr| hr.tier == tier) {
            hr.det.on_drop(rep, now);
        }
        if let Some(cr) = self.control.as_mut() {
            cr.window_max_ordinal = cr.window_max_ordinal.max(ordinal);
        }
    }

    /// A request completed with end-to-end `latency`.
    pub(super) fn on_complete(&mut self, latency: SimDuration) {
        if let Some(cr) = self.control.as_mut() {
            cr.window.record(latency);
        }
        if let Some(reg) = self.metrics.as_mut() {
            reg.record_latency(latency);
        }
    }

    /// Folds the health detector's decision log into the controller's: one
    /// time-ordered stream (controller first on ties), summed ticks. A run
    /// with either plane alone passes its log through untouched, and a run
    /// with neither yields `None` — existing reports unchanged.
    pub(super) fn take_log(&mut self) -> Option<ControlLog> {
        let ctl = self.control.take().map(|cr| cr.ctl.into_log());
        let (mut c, h) = match (ctl, self.health.take().map(|hr| hr.log)) {
            (Some(c), Some(h)) => (c, h),
            (c, h) => return c.or(h),
        };
        let mut merged = Vec::with_capacity(c.decisions.len() + h.decisions.len());
        let mut rest = h.decisions.into_iter().peekable();
        for d in c.decisions {
            while rest.peek().is_some_and(|x| x.at < d.at) {
                merged.push(rest.next().expect("peeked"));
            }
            merged.push(d);
        }
        merged.extend(rest);
        c.decisions = merged;
        c.ticks += h.ticks;
        Some(c)
    }
}

impl Engine {
    /// Attaches a streaming JSONL sink: every metrics snapshot is written
    /// as one line the moment it is frozen, so long runs can be observed
    /// (and tailed) while they execute. A no-op unless the config enables
    /// the metrics plane via [`SystemConfig::with_metrics`]. A failed
    /// write drops the sink and lands in
    /// [`RunReport::metrics_sink_fault`](crate::report::RunReport::metrics_sink_fault);
    /// the run goes on.
    #[must_use]
    pub fn with_metrics_sink(mut self, sink: Box<dyn std::io::Write + Send>) -> Self {
        self.planes.sink = Some(MetricsSink(sink));
        self
    }

    /// The metrics plane's snapshot tick: read the engine's gauges into a
    /// [`MetricsSample`], freeze a snapshot in the registry, stream it to
    /// the sink if one is attached, and reschedule. Strictly read-only
    /// against the simulation — no rng draws, no state mutations outside
    /// the registry — so metered and unmetered runs simulate the exact
    /// same system (pinned by `tests/metrics.rs`).
    pub(super) fn on_metrics_tick(&mut self) {
        let Some(reg) = self.planes.metrics.as_mut() else {
            return;
        };
        let elapsed = self.now.as_micros();
        let tiers = self
            .tiers
            .iter()
            .map(|node| TierSample {
                replicas: node
                    .replicas
                    .iter()
                    .map(|rep| ReplicaSample {
                        depth: rep.depth() as u64,
                        drops: rep.drops_total,
                        util_ppm: if elapsed == 0 {
                            0
                        } else {
                            rep.util.total_busy_micros() * 1_000_000
                                / (u64::from(rep.cpu.cores()) * elapsed)
                        },
                    })
                    .collect(),
            })
            .collect();
        let (slab_live, slab_slots) = self.slab.occupancy();
        let sample = MetricsSample {
            now: self.now,
            events_handled: self.events_handled,
            calendar_occupancy: self.queue.len() as u64,
            slab_live,
            slab_slots,
            injected: self.injected,
            completed: self.completed,
            failed: self.failed,
            shed: self.shed,
            drops_total: self.drops_total,
            retries: self.tiers.iter().map(|t| t.res.retries).sum(),
            hedges: self.tiers[0].res.hedges,
            tiers,
        };
        let interval = reg.interval();
        let snap = reg.tick(sample);
        if let Some(MetricsSink(w)) = &mut self.planes.sink {
            use std::io::Write as _;
            if let Err(e) = writeln!(w, "{}", snap.jsonl()) {
                self.planes.sink = None;
                self.planes.sink_fault = Some(format!("metrics sink write at {}: {e}", self.now));
            }
        }
        self.push_within_horizon(interval, Event::MetricsTick);
    }

    /// The control plane's step-synchronous tick: build the per-window
    /// observation, run the pure controller, actuate its directives, and
    /// retire drained replicas that reached idle. All control-plane
    /// randomness comes from the dedicated `"control"` fork, so controlled
    /// runs stay bit-identical across worker-thread counts and uncontrolled
    /// runs never reach this path.
    pub(super) fn on_controller_tick(&mut self) {
        let Some(mut cr) = self.planes.control.take() else {
            return;
        };
        let retries_now: u64 = self.tiers.iter().map(|t| t.res.retries).sum();
        let hedges_now = self.tiers[0].res.hedges;
        let mut tiers_obs = Vec::with_capacity(self.tiers.len());
        for (t, node) in self.tiers.iter().enumerate() {
            let replicas = node
                .replicas
                .iter()
                .enumerate()
                .map(|(r, rep)| ReplicaObs {
                    depth: rep.depth(),
                    draining: rep.life == ReplicaLife::Draining,
                    retired: rep.life == ReplicaLife::Retired,
                    drops_delta: rep.drops_total - cr.prev_drops[t][r],
                })
                .collect();
            tiers_obs.push(TierObs {
                replicas,
                shed_delta: node.res.shed - cr.prev_shed[t],
            });
        }
        let obs = Observation {
            now: self.now,
            injected_delta: self.injected - cr.prev_injected,
            completed_delta: self.completed - cr.prev_completed,
            retries_delta: retries_now - cr.prev_retries,
            hedges_delta: hedges_now - cr.prev_hedges,
            max_retrans_ordinal: cr.window_max_ordinal,
            recent_p50: cr.window.quantile(0.50),
            recent_p99: cr.window.quantile(0.99),
            recent_hedge_q: cr.hedge_q.and_then(|q| cr.window.quantile(q)),
            tiers: tiers_obs,
        };
        let directives = cr.ctl.tick(&obs, &mut cr.rng);
        for d in directives {
            self.apply_directive(&cr, d);
        }
        // Drain-before-remove: a draining replica retires only once its
        // last in-flight visit and backlog entry have run to completion.
        for (t, node) in self.tiers.iter_mut().enumerate() {
            for (r, rep) in node.replicas.iter_mut().enumerate() {
                if rep.life == ReplicaLife::Draining && rep.depth() == 0 {
                    rep.life = ReplicaLife::Retired;
                    cr.ctl.note_replica_retired(self.now, t, r);
                }
            }
        }
        cr.prev_injected = self.injected;
        cr.prev_completed = self.completed;
        cr.prev_retries = retries_now;
        cr.prev_hedges = hedges_now;
        for (t, node) in self.tiers.iter().enumerate() {
            cr.prev_drops[t].clear();
            cr.prev_drops[t].extend(node.replicas.iter().map(|r| r.drops_total));
            cr.prev_shed[t] = node.res.shed;
        }
        cr.window_max_ordinal = 0;
        cr.window.clear();
        self.push_within_horizon(cr.tick, Event::ControllerTick);
        self.planes.control = Some(cr);
    }

    /// Actuates one controller directive against the plant.
    fn apply_directive(&mut self, cr: &ControlRuntime, d: Directive) {
        match d {
            Directive::AddReplica { tier } => {
                let lag = cr
                    .ctl
                    .config()
                    .autoscaler
                    .as_ref()
                    .map(|a| a.provisioning_lag)
                    .unwrap_or(SimDuration::ZERO);
                self.queue
                    .push(self.now + lag, Event::ReplicaReady { tier: tier as u8 });
            }
            Directive::DrainReplica { tier, replica } => {
                let rep = &mut self.tiers[tier].replicas[replica];
                if rep.life == ReplicaLife::Active {
                    rep.life = ReplicaLife::Draining;
                }
            }
            Directive::SetHedgeDelay { delay } => self.hedge_override = Some(delay),
            Directive::SetAimdBounds { tier, min, max } => {
                if let Some(lim) = self.tiers[tier].aimd.as_mut() {
                    lim.set_bounds(min, max);
                }
            }
            Directive::SetBrake { tier, depth } => self.tiers[tier].governor_limit = depth,
        }
    }

    /// A provisioned replica's lag elapsed: it joins the tier's replica set
    /// and becomes eligible on the next fresh connection. Replica ids are
    /// `u8`, so provisioning saturates at 255 instances per tier.
    pub(super) fn on_replica_ready(&mut self, tier: usize) {
        let Some(cr) = self.planes.control.as_mut() else {
            return;
        };
        let r = self.tiers[tier].replicas.len();
        if r < u8::MAX as usize {
            let rep = Replica::new(&self.cfg.tiers[tier], r, self.horizon);
            self.tiers[tier].replicas.push(rep);
            cr.prev_drops[tier].push(0);
            if let Some(hr) = self.planes.health.as_mut().filter(|hr| hr.tier == tier) {
                hr.det.on_replica_added();
            }
            cr.ctl.note_replica_online(self.now, tier, r);
        }
    }

    /// The gray-failure detector's scoring tick: run the pure detector over
    /// the monitored tier's passive signals and actuate its verdicts.
    /// Ejection only removes the replica from the shared eligibility mask —
    /// admitted work, backlog entries and kernel-pinned retransmits keep
    /// draining to it (ejected ≠ retired), so no in-flight state is ever
    /// invalidated. Undetected runs never reach this path.
    pub(super) fn on_health_tick(&mut self) {
        let Some(hr) = self.planes.health.as_mut() else {
            return;
        };
        hr.log.ticks += 1;
        let tier = hr.tier;
        let active: Vec<bool> = self.tiers[tier]
            .replicas
            .iter()
            .map(|r| r.life == ReplicaLife::Active)
            .collect();
        for v in hr.det.tick(self.now, &active) {
            match v {
                HealthVerdict::Eject { replica, score, z } => {
                    let rep = &mut self.tiers[tier].replicas[replica];
                    // A re-eject of an already-benched replica is a failed
                    // probation (the detector restarted its clock); narrate
                    // it as such rather than as a fresh outlier call.
                    let reason = if rep.ejected {
                        format!("probation failed at score {score:.2}")
                    } else {
                        rep.ejected = true;
                        format!("health score {score:.2} with peer z {z:.2}")
                    };
                    hr.log
                        .push(self.now, Action::Ejected { tier, replica }, reason);
                }
                HealthVerdict::Reinstate { replica, score } => {
                    self.tiers[tier].replicas[replica].ejected = false;
                    hr.log.push(
                        self.now,
                        Action::Reinstated { tier, replica },
                        format!("probation clean at score {score:.2}"),
                    );
                }
            }
        }
        self.push_within_horizon(HealthPolicy::TICK, Event::HealthTick);
    }
}
