//! Report assembly: [`Engine::into_report`] folds a finished run's
//! per-replica series, counters and plane logs into a [`RunReport`].

use crate::resilience::ResilienceStats;
use ntier_des::prelude::*;

use super::Engine;
use crate::report::{ClassReport, ReplicaReport, RunReport, TierReport};

/// Per-class outcome counters, folded into [`ClassReport`]s.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct ClassStats {
    pub(super) completed: u64,
    pub(super) vlrt: u64,
    pub(super) drops: u64,
    pub(super) shed: u64,
    pub(super) latency_sum_us: u128,
}

impl Engine {
    pub(super) fn into_report(mut self) -> RunReport {
        // Nothing below reads the request slab, the event queue or the other
        // per-attempt stores: free them before the report's per-window
        // vectors are built, so the two never share the heap peak.
        drop((
            self.slab,
            self.queue,
            self.tickets,
            self.free_tickets,
            self.logicals,
            self.free_logicals,
            self.parked,
        ));
        let control = self.planes.take_log();
        // Harvest breaker transition counts into the per-hop counters, then
        // aggregate the whole-run view.
        for rt in &mut self.tiers {
            if let Some(br) = &rt.hop_breaker {
                rt.res.breaker_transitions = br.transitions();
            }
        }
        let resilience = self
            .tiers
            .iter()
            .fold(ResilienceStats::default(), |acc, rt| acc.merge(&rt.res));
        let horizon = self.horizon;
        let tiers = self
            .tiers
            .into_iter()
            .zip(self.cfg.tiers.iter())
            .enumerate()
            .map(|(idx, (node, tc))| {
                let reps: Vec<ReplicaReport> = node
                    .replicas
                    .into_iter()
                    .enumerate()
                    .map(|(r, mut rep)| {
                        // The report keeps the windows the run touched, not
                        // the horizon-sized reservations made at set-up.
                        rep.queue_depth.shrink_to_fit();
                        rep.drops.shrink_to_fit();
                        rep.vlrt.shrink_to_fit();
                        rep.util.shrink_to_fit();
                        ReplicaReport {
                            id: ReplicaId::from(r),
                            spawns: rep.spawns(),
                            queue_depth: rep.queue_depth,
                            drops: rep.drops,
                            vlrt: rep.vlrt,
                            util: rep.util,
                            interferer_util: tc.stalls_for(r).interferer_utilization(horizon),
                            drops_total: rep.drops_total,
                            peak_queue: rep.peak_queue,
                        }
                    })
                    .collect();
                let mut reps = reps;
                if reps.len() == 1 {
                    // Single instance: the tier-level fields *are* the
                    // instance's data — byte-stable with the pre-replication
                    // reports.
                    let only = reps.pop().expect("one replica");
                    TierReport {
                        id: TierId::from(idx),
                        name: tc.name.clone(),
                        arch: tc.kind.label(),
                        capacity: tc.admission_capacity(),
                        queue_depth: only.queue_depth,
                        drops: only.drops,
                        vlrt: only.vlrt,
                        util: only.util,
                        interferer_util: only.interferer_util,
                        drops_total: only.drops_total,
                        peak_queue: only.peak_queue,
                        spawns: only.spawns,
                        resilience: node.res,
                        replicas: Vec::new(),
                    }
                } else {
                    // Replica set: the tier-level view is the aggregate —
                    // pooled utilization, summed windows, max peak. The
                    // interferer aggregate is empty when every replica is
                    // stall-free.
                    let mut queue_depth = reps[0].queue_depth.clone();
                    let mut drops = reps[0].drops.clone();
                    let mut vlrt = reps[0].vlrt.clone();
                    let mut util = reps[0].util.clone();
                    for rep in &reps[1..] {
                        queue_depth.absorb(&rep.queue_depth);
                        drops.absorb(&rep.drops);
                        vlrt.absorb(&rep.vlrt);
                        util.absorb(&rep.util);
                    }
                    queue_depth.shrink_to_fit();
                    drops.shrink_to_fit();
                    vlrt.shrink_to_fit();
                    util.shrink_to_fit();
                    let n = reps.len();
                    let windows = reps
                        .iter()
                        .map(|r| r.interferer_util.len())
                        .max()
                        .unwrap_or(0);
                    let interferer_util = (0..windows)
                        .map(|w| {
                            reps.iter()
                                .map(|r| r.interferer_util.get(w).copied().unwrap_or(0.0))
                                .sum::<f64>()
                                / n as f64
                        })
                        .collect();
                    TierReport {
                        id: TierId::from(idx),
                        name: tc.name.clone(),
                        arch: tc.kind.label(),
                        capacity: tc.admission_capacity() * n,
                        queue_depth,
                        drops,
                        vlrt,
                        util,
                        interferer_util,
                        drops_total: reps.iter().map(|r| r.drops_total).sum(),
                        peak_queue: reps.iter().map(|r| r.peak_queue).max().unwrap_or(0),
                        spawns: reps.iter().map(|r| r.spawns).sum(),
                        resilience: node.res,
                        replicas: reps,
                    }
                }
            })
            .collect();
        let mut classes: Vec<ClassReport> = self
            .class_stats
            .iter()
            .map(|(class, s)| ClassReport {
                class,
                completed: s.completed,
                vlrt: s.vlrt,
                drops: s.drops,
                shed: s.shed,
                mean_latency: if s.completed == 0 {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_micros((s.latency_sum_us / u128::from(s.completed)) as u64)
                },
            })
            .collect();
        classes.sort_by_key(|c| c.class);
        let throughput = self.completed as f64 / self.horizon.as_secs_f64();
        self.vlrt_by_completion.shrink_to_fit();
        RunReport {
            horizon: self.horizon,
            events: self.events_handled,
            events_by_kind: self.events_by_kind,
            injected: self.injected,
            completed: self.completed,
            failed: self.failed,
            shed: self.shed,
            cancelled: self.cancelled,
            in_flight_end: self.injected
                - self.completed
                - self.failed
                - self.shed
                - self.cancelled,
            throughput,
            latency: self.latency,
            vlrt_total: self.vlrt_total,
            drops_total: self.drops_total,
            tiers,
            vlrt_by_completion: self.vlrt_by_completion,
            classes,
            resilience,
            trace: self.tracer.into_log(),
            control,
            metrics: self.planes.metrics.map(|m| *m),
            workload_fault: self.feed.fault,
            metrics_sink_fault: self.planes.sink_fault,
        }
    }
}
