//! The step-synchronous controller: observation in, directives out.

use crate::control::config::ControlConfig;
use crate::control::decision::{Action, ControlLog};
use crate::control::observe::Observation;
use ntier_des::rng::SimRng;
use ntier_des::time::SimTime;

/// What the host (the DES engine) must actuate after a tick.
///
/// Directives are pure data: the controller never touches the plant.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Directive {
    /// Provision a replica at `tier`; it must come online after the
    /// autoscaler's provisioning lag.
    AddReplica { tier: usize },
    /// Take `replica` out of the eligible set and let it drain.
    DrainReplica { tier: usize, replica: usize },
    /// Override the hedge fire delay with a fixed recent-quantile target.
    SetHedgeDelay { delay: ntier_des::time::SimDuration },
    /// Re-clamp `tier`'s AIMD admission limiter into `[min, max]`.
    SetAimdBounds { tier: usize, min: f64, max: f64 },
    /// Brake admission at `tier` to `depth` per replica (`None` releases).
    SetBrake { tier: usize, depth: Option<usize> },
}

/// Deterministic closed-loop controller.
///
/// Feed it one [`Observation`] per tick; it returns the [`Directive`]s to
/// actuate and appends to its [`ControlLog`]. All internal state is plain
/// data seeded only by the observations and the `SimRng` fork passed to
/// [`tick`](Controller::tick), so identical observation streams produce
/// identical decision streams.
#[derive(Debug, Clone)]
pub(crate) struct Controller {
    cfg: ControlConfig,
    log: ControlLog,
    /// Autoscaler: last decision time, for cooldown spacing.
    last_scale: Option<SimTime>,
    /// Scale-ups decided but not yet online (capacity in the pipe).
    pending_up: usize,
    /// Tuner: last hedge delay actuated, to suppress no-op churn.
    hedge_set: Option<ntier_des::time::SimDuration>,
    /// Tuner: last AIMD mode actuated (`true` = tight).
    aimd_tight: Option<bool>,
    /// Governor: consecutive evidence windows.
    evidence: u32,
    /// Governor: brake engaged.
    braking: bool,
    /// Governor: when the brake engaged.
    braked_at: SimTime,
}

impl Controller {
    pub(crate) fn new(cfg: ControlConfig) -> Self {
        Controller {
            cfg,
            log: ControlLog::default(),
            last_scale: None,
            pending_up: 0,
            hedge_set: None,
            aimd_tight: None,
            evidence: 0,
            braking: false,
            braked_at: SimTime::ZERO,
        }
    }

    pub(crate) fn config(&self) -> &ControlConfig {
        &self.cfg
    }

    /// The decision history so far.
    #[cfg(test)]
    fn log(&self) -> &ControlLog {
        &self.log
    }

    /// Consumes the controller, yielding its decision history.
    pub(crate) fn into_log(self) -> ControlLog {
        self.log
    }

    /// One observation/decision step. `rng` is the controller's dedicated
    /// fork — the only randomness the control plane may consume (used for
    /// drain-victim tie-breaks), which keeps controlled runs bit-identical
    /// regardless of how many worker threads execute them.
    pub(crate) fn tick(&mut self, obs: &Observation, rng: &mut SimRng) -> Vec<Directive> {
        self.log.ticks += 1;
        let mut out = Vec::new();
        if self.cfg.autoscaler.is_some() {
            self.autoscale(obs, rng, &mut out);
        }
        if self.cfg.tuner.is_some() {
            self.tune(obs, &mut out);
        }
        if self.cfg.governor.is_some() {
            self.govern(obs, &mut out);
        }
        out
    }

    /// Host callback: a provisioned replica came online.
    pub(crate) fn note_replica_online(&mut self, now: SimTime, tier: usize, replica: usize) {
        self.pending_up = self.pending_up.saturating_sub(1);
        self.log.push(
            now,
            Action::ReplicaOnline { tier, replica },
            "provisioning lag elapsed".into(),
        );
    }

    /// Host callback: a draining replica went idle and was retired.
    pub(crate) fn note_replica_retired(&mut self, now: SimTime, tier: usize, replica: usize) {
        self.log.push(
            now,
            Action::Retire { tier, replica },
            "drained to idle".into(),
        );
    }

    fn autoscale(&mut self, obs: &Observation, rng: &mut SimRng, out: &mut Vec<Directive>) {
        let a = self.cfg.autoscaler.expect("checked by caller");
        let Some(tier) = obs.tiers.get(a.tier) else {
            return;
        };
        let cooled = self
            .last_scale
            .is_none_or(|t| obs.now.saturating_since(t) >= a.cooldown);
        if !cooled {
            return;
        }
        let active = tier.active();
        let depth = tier.mean_active_depth();
        // Replica ids are u8: the engine provisions at most 255 per tier,
        // retired ones included, and ignores an AddReplica past that.
        let ids_left = tier.replicas.len() + self.pending_up < usize::from(u8::MAX);
        if depth >= a.up_depth && active + self.pending_up < a.max_replicas && ids_left {
            self.pending_up += 1;
            self.last_scale = Some(obs.now);
            self.log.push(
                obs.now,
                Action::ScaleUp {
                    tier: a.tier,
                    target: active + self.pending_up,
                },
                format!(
                    "mean depth {depth:.1} >= {:.1} across {active} active",
                    a.up_depth
                ),
            );
            out.push(Directive::AddReplica { tier: a.tier });
        } else if depth <= a.down_depth && active > a.min_replicas && self.pending_up == 0 {
            // Victim: the least-loaded active replica, excluding replica 0
            // (the engine's fault hooks pin structural faults to it, so it
            // is the tier's immovable incumbent). Ties break via the
            // controller's rng fork.
            let mut best: Vec<usize> = Vec::new();
            let mut best_depth = usize::MAX;
            for (i, r) in tier.replicas.iter().enumerate().skip(1) {
                if r.draining || r.retired {
                    continue;
                }
                if r.depth < best_depth {
                    best_depth = r.depth;
                    best.clear();
                }
                if r.depth == best_depth {
                    best.push(i);
                }
            }
            let Some(&victim) = best.first() else {
                return;
            };
            let victim = if best.len() > 1 {
                best[rng.below(best.len() as u64) as usize]
            } else {
                victim
            };
            self.last_scale = Some(obs.now);
            self.log.push(
                obs.now,
                Action::Drain {
                    tier: a.tier,
                    replica: victim,
                },
                format!(
                    "mean depth {depth:.1} <= {:.1} across {active} active",
                    a.down_depth
                ),
            );
            out.push(Directive::DrainReplica {
                tier: a.tier,
                replica: victim,
            });
        }
    }

    fn tune(&mut self, obs: &Observation, out: &mut Vec<Directive>) {
        let t = self.cfg.tuner.expect("checked by caller");
        if let Some(h) = t.hedge {
            // `recent_hedge_q` is None on unpopulated windows — hold, never
            // retune on garbage.
            if let Some(hq) = obs.recent_hedge_q {
                let delay = hq.max(h.floor).min(h.cap);
                if self.hedge_set != Some(delay) {
                    self.hedge_set = Some(delay);
                    self.log.push(
                        obs.now,
                        Action::SetHedgeDelay { delay },
                        format!("recent q{:.2} = {}us", h.q, hq.as_micros()),
                    );
                    out.push(Directive::SetHedgeDelay { delay });
                }
            }
        }
        if let Some(a) = t.aimd {
            let Some(p99) = obs.recent_p99 else {
                return; // unpopulated window: hold
            };
            let want_tight = if p99 >= a.high {
                Some(true)
            } else if p99 <= a.low {
                Some(false)
            } else {
                None // inside the deadband: hold
            };
            if let Some(tight) = want_tight {
                if self.aimd_tight != Some(tight) {
                    self.aimd_tight = Some(tight);
                    let (min, max) = if tight { a.tight } else { a.wide };
                    self.log.push(
                        obs.now,
                        Action::SetAimdBounds {
                            tier: a.tier,
                            min,
                            max,
                        },
                        format!("recent p99 = {}ms", p99.as_micros() / 1_000),
                    );
                    out.push(Directive::SetAimdBounds {
                        tier: a.tier,
                        min,
                        max,
                    });
                }
            }
        }
    }

    fn govern(&mut self, obs: &Observation, out: &mut Vec<Directive>) {
        let g = self.cfg.governor.expect("checked by caller");
        let offered = obs.offered_delta();
        let goodput = obs.completed_delta;
        let ratio = if offered == 0 {
            1.0
        } else {
            goodput as f64 / offered as f64
        };
        let collapse = offered >= g.min_offered && ratio <= g.goodput_ratio;
        let ladder = obs.max_retrans_ordinal >= g.ordinal_floor;
        if !self.braking {
            if collapse || ladder {
                self.evidence += 1;
            } else {
                self.evidence = 0;
            }
            if self.evidence >= g.arm_after {
                self.braking = true;
                self.braked_at = obs.now;
                self.evidence = 0;
                self.log.push(
                    obs.now,
                    Action::Brake {
                        tier: g.brake_tier,
                        depth: g.brake_depth,
                    },
                    format!(
                        "goodput {goodput}/{offered} (ratio {ratio:.2}), worst retransmit \
                         ordinal {}",
                        obs.max_retrans_ordinal
                    ),
                );
                out.push(Directive::SetBrake {
                    tier: g.brake_tier,
                    depth: Some(g.brake_depth),
                });
            }
        } else {
            let held = obs.now.saturating_since(self.braked_at) >= g.hold;
            let recovered = ratio >= g.release_ratio && !ladder;
            if held && recovered {
                self.braking = false;
                self.log.push(
                    obs.now,
                    Action::Release { tier: g.brake_tier },
                    format!("goodput {goodput}/{offered} (ratio {ratio:.2})"),
                );
                out.push(Directive::SetBrake {
                    tier: g.brake_tier,
                    depth: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::config::{AutoscalerConfig, GovernorConfig, HedgeTuner, TunerConfig};
    use crate::control::observe::{ReplicaObs, TierObs};
    use ntier_des::time::SimDuration;

    fn rng() -> SimRng {
        SimRng::seed_from(7).fork("control")
    }

    fn obs_with_depths(now: SimTime, depths: &[usize]) -> Observation {
        Observation {
            now,
            tiers: vec![TierObs {
                replicas: depths
                    .iter()
                    .map(|&d| ReplicaObs {
                        depth: d,
                        ..Default::default()
                    })
                    .collect(),
                shed_delta: 0,
            }],
            ..Default::default()
        }
    }

    fn scaler() -> ControlConfig {
        ControlConfig::every(SimDuration::from_millis(50)).with_autoscaler(AutoscalerConfig {
            tier: 0,
            min_replicas: 1,
            max_replicas: 4,
            up_depth: 8.0,
            down_depth: 1.0,
            provisioning_lag: SimDuration::from_millis(200),
            cooldown: SimDuration::from_millis(100),
        })
    }

    #[test]
    fn scale_up_respects_cooldown_and_max() {
        let mut c = Controller::new(scaler());
        let mut r = rng();
        let d1 = c.tick(
            &obs_with_depths(SimTime::from_millis(50), &[20, 20]),
            &mut r,
        );
        assert_eq!(d1, vec![Directive::AddReplica { tier: 0 }]);
        // Within cooldown: no second decision.
        let d2 = c.tick(
            &obs_with_depths(SimTime::from_millis(100), &[20, 20]),
            &mut r,
        );
        assert!(d2.is_empty());
        // Cooled down, still congested, one pending: with max_replicas = 4
        // and 2 active, exactly one more scale-up fits.
        let d3 = c.tick(
            &obs_with_depths(SimTime::from_millis(200), &[20, 20]),
            &mut r,
        );
        assert_eq!(d3, vec![Directive::AddReplica { tier: 0 }]);
        let d4 = c.tick(
            &obs_with_depths(SimTime::from_millis(400), &[20, 20]),
            &mut r,
        );
        assert!(d4.is_empty(), "active(2) + pending(2) reached max");
    }

    #[test]
    fn scale_down_never_picks_replica_zero() {
        let mut c = Controller::new(scaler());
        let mut r = rng();
        for step in 1..=50u64 {
            let dirs = c.tick(
                &obs_with_depths(SimTime::from_millis(200 * step), &[0, 0, 0]),
                &mut r,
            );
            for d in dirs {
                if let Directive::DrainReplica { replica, .. } = d {
                    assert_ne!(replica, 0, "replica 0 is the immovable incumbent");
                }
            }
        }
    }

    #[test]
    fn hedge_tuner_holds_on_unpopulated_window() {
        let cfg = ControlConfig::every(SimDuration::from_millis(50)).with_tuner(TunerConfig {
            hedge: Some(HedgeTuner {
                q: 0.95,
                floor: SimDuration::from_millis(100),
                cap: SimDuration::from_secs(2),
            }),
            aimd: None,
        });
        let mut c = Controller::new(cfg);
        let mut r = rng();
        let empty = Observation::default();
        assert!(c.tick(&empty, &mut r).is_empty(), "no quantile, no retune");
        let populated = Observation {
            recent_hedge_q: Some(SimDuration::from_millis(740)),
            ..Default::default()
        };
        assert_eq!(
            c.tick(&populated, &mut r),
            vec![Directive::SetHedgeDelay {
                delay: SimDuration::from_millis(740)
            }]
        );
        // Same quantile again: no churn.
        assert!(c.tick(&populated, &mut r).is_empty());
    }

    #[test]
    fn governor_arms_on_sustained_collapse_and_releases_after_hold() {
        let cfg =
            ControlConfig::every(SimDuration::from_millis(50)).with_governor(GovernorConfig {
                min_offered: 10,
                goodput_ratio: 0.5,
                ordinal_floor: 3,
                arm_after: 2,
                brake_tier: 0,
                brake_depth: 4,
                hold: SimDuration::from_millis(200),
                release_ratio: 0.9,
            });
        let mut c = Controller::new(cfg);
        let mut r = rng();
        let storm = |ms: u64| Observation {
            now: SimTime::from_millis(ms),
            injected_delta: 50,
            retries_delta: 50,
            completed_delta: 10,
            ..Default::default()
        };
        assert!(c.tick(&storm(50), &mut r).is_empty(), "one window is noise");
        assert_eq!(
            c.tick(&storm(100), &mut r),
            vec![Directive::SetBrake {
                tier: 0,
                depth: Some(4)
            }]
        );
        let healthy = |ms: u64| Observation {
            now: SimTime::from_millis(ms),
            injected_delta: 50,
            completed_delta: 50,
            ..Default::default()
        };
        assert!(
            c.tick(&healthy(150), &mut r).is_empty(),
            "recovered but hold not elapsed"
        );
        assert_eq!(
            c.tick(&healthy(350), &mut r),
            vec![Directive::SetBrake {
                tier: 0,
                depth: None
            }]
        );
        assert_eq!(
            c.log().summary(),
            "ticks=4 up=0 online=0 drain=0 retire=0 brake=1 release=1 hedge=0 aimd=0"
        );
    }

    #[test]
    fn governor_counts_retransmit_ladder_as_evidence() {
        let cfg =
            ControlConfig::every(SimDuration::from_millis(50)).with_governor(GovernorConfig {
                min_offered: 1_000_000, // goodput test unreachable
                goodput_ratio: 0.5,
                ordinal_floor: 2,
                arm_after: 3,
                brake_tier: 1,
                brake_depth: 8,
                hold: SimDuration::from_millis(200),
                release_ratio: 0.9,
            });
        let mut c = Controller::new(cfg);
        let mut r = rng();
        let ladder = |ms: u64, ord: u8| Observation {
            now: SimTime::from_millis(ms),
            max_retrans_ordinal: ord,
            ..Default::default()
        };
        assert!(c.tick(&ladder(50, 2), &mut r).is_empty());
        assert!(
            c.tick(&ladder(100, 1), &mut r).is_empty(),
            "evidence resets"
        );
        assert!(c.tick(&ladder(150, 2), &mut r).is_empty());
        assert!(c.tick(&ladder(200, 3), &mut r).is_empty());
        assert_eq!(
            c.tick(&ladder(250, 3), &mut r),
            vec![Directive::SetBrake {
                tier: 1,
                depth: Some(8)
            }]
        );
    }
}
