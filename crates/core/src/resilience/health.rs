//! Gray-failure detection: passive health scoring, a phi-accrual failure
//! detector, and peer-relative outlier ejection.
//!
//! The paper's very-long-response-time requests come from *transient*
//! degradation — millibottlenecks and the retransmission ladders they mint —
//! not clean crashes. A gray-failing replica keeps answering, just slowly,
//! so balancers keep picking it and retries keep hammering it. This module
//! is the detection half of the answer: a [`HealthDetector`] that scores
//! every replica of one tier from **passive** signals only (reply latency
//! EWMA, error/drop-rate EWMA, and a phi-accrual suspicion level over
//! inter-reply gaps) and drives an ejection state machine per replica:
//!
//! ```text
//!            score ≥ eject_score AND z ≥ eject_z AND guards hold
//!   Healthy ────────────────────────────────────────────────────▶ Ejected
//!      ▲                                                            │
//!      │ probe replies pull score under                             │ after
//!      │ eject_score × REINSTATE_HYSTERESIS                         │ probation_after
//!      │                                                            ▼
//!      └──────────────────────────────────────────────────────── Probation
//!                   (probes still sick ⇒ back to Ejected)
//! ```
//!
//! Everything is driven by simulation time passed in by the caller (the DES
//! engine, `ntier-core`). The detector draws no randomness of its own; the
//! host decides how to route trickle probes to a [`HealthDetector::probe_candidate`].
//!
//! Safety properties the ejection policy maintains (see DESIGN.md §15):
//!
//! * **peer agreement** — a replica is ejected only when its score is both
//!   above the absolute threshold *and* a `eject_z`-sigma outlier against
//!   its healthy peers (leave-one-out, spread floored at a quarter of the
//!   threshold), so a tier-wide slowdown (everyone slow ⇒ z ≈ 0) ejects
//!   nobody;
//! * **max-ejected-fraction guard** — at most
//!   [`MAX_EJECTED_FRACTION`](HealthPolicy::MAX_EJECTED_FRACTION) of the
//!   replica set may be out (ejected or on probation) at once, and at least
//!   one healthy replica always remains;
//! * **one ejection per tick** — scores are recomputed between ejections, so
//!   a single burst cannot cascade into mass ejection within one window;
//! * **hysteresis** — reinstatement requires the score to fall well *below*
//!   the ejection threshold
//!   ([`REINSTATE_HYSTERESIS`](HealthPolicy::REINSTATE_HYSTERESIS) `< 1`), so
//!   a replica hovering at the threshold does not flap.

use ntier_des::time::{SimDuration, SimTime};
use ntier_telemetry::stats::{mean, normal_tail, stddev, Ewma};

/// Configuration for gray-failure detection on one replicated tier.
///
/// Construct with [`HealthPolicy::monitor`] and override fields as needed;
/// the engine validates it when it is built. The tuning no run varies is
/// fixed by the associated constants.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthPolicy {
    /// The monitored tier index.
    pub tier: usize,
    /// Reply latency at which the latency term of the score saturates at 1.
    pub lat_ref: SimDuration,
    /// Combined-score ejection threshold (each of the three terms is in
    /// `[0, 1]`, so the score lives in `[0, 3]`).
    pub eject_score: f64,
    /// Peer-relative z-score that must *also* be exceeded to eject. A
    /// 2-replica set caps the population z at exactly 1.0, so keep this
    /// at or below 1 when sets are small.
    pub eject_z: f64,
    /// How long an ejected replica sits out before probation begins.
    pub probation_after: SimDuration,
    /// Replies a replica must have produced before it can be ejected —
    /// protects cold replicas whose statistics are still noise.
    pub warmup_replies: u64,
}

impl HealthPolicy {
    /// Scoring cadence: verdicts are computed every `TICK`.
    pub const TICK: SimDuration = SimDuration::from_millis(100);
    /// EWMA smoothing factor for the latency and error signals.
    pub const ALPHA: f64 = 0.3;
    /// Phi-accrual suspicion level at which the phi term saturates at 1
    /// (phi 8 ≈ the observed gap is a 1-in-10^8 event).
    pub const PHI_REF: f64 = 8.0;
    /// Upper bound on the fraction of the replica set that may be ejected
    /// or on probation at once.
    pub const MAX_EJECTED_FRACTION: f64 = 0.5;
    /// Fraction of picks the host trickles to a probation replica.
    pub const PROBE_FRACTION: f64 = 0.05;
    /// Reinstate when the score drops to `eject_score ×
    /// REINSTATE_HYSTERESIS` or below.
    pub const REINSTATE_HYSTERESIS: f64 = 0.5;
    /// Probe outcomes (replies or drops) required before a probation verdict.
    pub const MIN_PROBES: u32 = 3;

    /// A detector for `tier` with defaults tuned for the Fig.-1-style
    /// plants in `ntier_core::experiment`: 1 s latency reference, threshold
    /// 1.0 with 0.8-sigma peer agreement, 2 s probation and an 8-reply
    /// warmup, scored every [`TICK`](Self::TICK).
    pub fn monitor(tier: usize) -> Self {
        HealthPolicy {
            tier,
            lat_ref: SimDuration::from_secs(1),
            eject_score: 1.0,
            eject_z: 0.8,
            probation_after: SimDuration::from_secs(2),
            warmup_replies: 8,
        }
    }

    /// Overrides the ejection threshold.
    pub fn with_eject_score(mut self, score: f64) -> Self {
        self.eject_score = score;
        self
    }

    /// Overrides the probation delay.
    pub fn with_probation(mut self, after: SimDuration) -> Self {
        self.probation_after = after;
        self
    }

    /// Checks the configuration.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first invalid field.
    pub(crate) fn validate(&self) {
        assert!(
            !self.lat_ref.is_zero(),
            "health latency reference must be non-zero"
        );
        assert!(self.eject_score > 0.0, "ejection score must be positive");
    }
}

/// A detector verdict for one tick, ready to be logged and actuated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum HealthVerdict {
    /// Eject `replica`: exclude it from balancer picks (in-flight work
    /// still drains). `score` and `z` record the evidence.
    Eject {
        /// Replica index within the monitored tier.
        replica: usize,
        /// Combined health score at ejection time.
        score: f64,
        /// Peer-relative z-score at ejection time.
        z: f64,
    },
    /// Reinstate `replica` after a clean probation.
    Reinstate {
        /// Replica index within the monitored tier.
        replica: usize,
        /// Combined health score at reinstatement time.
        score: f64,
    },
}

/// Per-replica ejection phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Healthy,
    Ejected { since: SimTime },
    Probation { probes: u32 },
}

/// Passive signal accumulators for one replica.
#[derive(Debug, Clone)]
struct ReplicaSignals {
    /// Reply latency EWMA, milliseconds.
    lat_ms: Ewma,
    /// Error (drop) rate EWMA: replies push toward 0, drops toward 1.
    err: Ewma,
    /// Inter-reply gap EWMA, milliseconds (phi-accrual mean).
    gap_ms: Ewma,
    /// EWMA of squared gap deviations (phi-accrual variance).
    gap_var: Ewma,
    last_reply: Option<SimTime>,
    replies: u64,
}

impl ReplicaSignals {
    fn new() -> Self {
        let alpha = HealthPolicy::ALPHA;
        ReplicaSignals {
            lat_ms: Ewma::new(alpha),
            err: Ewma::new(alpha),
            gap_ms: Ewma::new(alpha),
            gap_var: Ewma::new(alpha),
            last_reply: None,
            replies: 0,
        }
    }
}

/// Passive gray-failure detector for one replicated tier.
///
/// Feed it signals ([`on_reply`](Self::on_reply) / [`on_drop`](Self::on_drop))
/// as they happen, call [`tick`](Self::tick) on the policy cadence, and
/// actuate the returned [`HealthVerdict`]s. [`ejected`](Self::ejected) is the
/// balancer-side eligibility answer; [`probe_candidate`](Self::probe_candidate)
/// is the replica (if any) that should receive a trickle of probe traffic.
#[derive(Debug, Clone)]
pub(crate) struct HealthDetector {
    policy: HealthPolicy,
    signals: Vec<ReplicaSignals>,
    phases: Vec<Phase>,
}

impl HealthDetector {
    /// A detector over `replicas` instances of the policy's tier.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (see [`HealthPolicy::validate`]) or
    /// `replicas` is zero.
    pub(crate) fn new(policy: HealthPolicy, replicas: usize) -> Self {
        policy.validate();
        assert!(replicas > 0, "a monitored tier needs at least one replica");
        HealthDetector {
            signals: (0..replicas).map(|_| ReplicaSignals::new()).collect(),
            phases: vec![Phase::Healthy; replicas],
            policy,
        }
    }

    /// Registers a replica added at runtime (autoscaling); it starts
    /// healthy with cold statistics, protected by the warmup guard.
    pub(crate) fn on_replica_added(&mut self) {
        self.signals.push(ReplicaSignals::new());
        self.phases.push(Phase::Healthy);
    }

    /// Folds in a reply from `replica` observed at `now` with the given
    /// request latency.
    pub(crate) fn on_reply(&mut self, replica: usize, now: SimTime, latency: SimDuration) {
        let s = &mut self.signals[replica];
        s.lat_ms.observe(latency.as_micros() as f64 / 1_000.0);
        s.err.observe(0.0);
        if let Some(last) = s.last_reply {
            let gap = (now - last).as_micros() as f64 / 1_000.0;
            let prev_mean = s.gap_ms.value_or(gap);
            s.gap_ms.observe(gap);
            let dev = gap - prev_mean;
            s.gap_var.observe(dev * dev);
        }
        s.last_reply = Some(now);
        s.replies += 1;
        if let Phase::Probation { probes } = &mut self.phases[replica] {
            *probes += 1;
        }
    }

    /// Folds in a drop (timeout, refused admission, lost message)
    /// attributed to `replica`.
    pub(crate) fn on_drop(&mut self, replica: usize, _now: SimTime) {
        self.signals[replica].err.observe(1.0);
        if let Phase::Probation { probes } = &mut self.phases[replica] {
            *probes += 1;
        }
    }

    /// `true` while `replica` must be excluded from normal balancer picks
    /// (ejected or on probation — probation replicas only see the trickle).
    #[cfg(test)]
    fn ejected(&self, replica: usize) -> bool {
        self.phases[replica] != Phase::Healthy
    }

    /// Count of replicas currently out (ejected or on probation).
    #[cfg(test)]
    fn ejected_count(&self) -> usize {
        self.phases.iter().filter(|p| **p != Phase::Healthy).count()
    }

    /// The replica that should receive trickle-probe traffic, if any is on
    /// probation (lowest index wins when several are).
    pub(crate) fn probe_candidate(&self) -> Option<usize> {
        self.phases
            .iter()
            .position(|p| matches!(p, Phase::Probation { .. }))
    }

    /// The phi-accrual suspicion level for `replica` at `now`:
    /// `-log10(P(gap > elapsed))` under a normal model of its inter-reply
    /// gaps. 0 until two replies have been seen.
    pub(crate) fn phi(&self, replica: usize, now: SimTime) -> f64 {
        let s = &self.signals[replica];
        let (Some(last), true) = (s.last_reply, s.replies >= 2) else {
            return 0.0;
        };
        let elapsed = (now - last).as_micros() as f64 / 1_000.0;
        let mean_gap = s.gap_ms.value_or(0.0);
        // Floor the spread at 10% of the mean gap (and 0.1 ms absolute) so
        // metronomic reply streams still yield a finite, sane phi curve.
        let std = s.gap_var.value_or(0.0).sqrt().max(mean_gap * 0.1).max(0.1);
        let tail = normal_tail(elapsed, mean_gap, std).max(1e-30);
        -tail.log10()
    }

    /// The combined health score for `replica` at `now`: latency term +
    /// error term + phi term, each saturating at 1, so the score is in
    /// `[0, 3]`. Replicas with no replies yet score only on errors.
    pub(crate) fn score(&self, replica: usize, now: SimTime) -> f64 {
        let s = &self.signals[replica];
        let lat_ref = self.policy.lat_ref.as_micros() as f64 / 1_000.0;
        let lat_term = (s.lat_ms.value_or(0.0) / lat_ref).min(1.0);
        let err_term = s.err.value_or(0.0);
        let phi_term = (self.phi(replica, now) / HealthPolicy::PHI_REF).min(1.0);
        lat_term + err_term + phi_term
    }

    /// Runs one detection round at `now`. `active[i]` tells the detector
    /// whether the host still considers replica `i` pickable at all (e.g.
    /// not draining toward retirement); inactive replicas neither eject nor
    /// count as healthy peers. Returns the verdicts to actuate, in order.
    ///
    /// # Panics
    ///
    /// Panics if `active` is shorter than the tracked replica count.
    pub(crate) fn tick(&mut self, now: SimTime, active: &[bool]) -> Vec<HealthVerdict> {
        assert!(
            active.len() >= self.signals.len(),
            "active mask must cover every tracked replica"
        );
        let n = self.signals.len();
        let mut verdicts = Vec::new();

        // Probation transitions first: a reinstated replica rejoins the
        // healthy peer pool before this round's outlier test runs.
        for i in 0..n {
            match self.phases[i] {
                Phase::Ejected { since } if now - since >= self.policy.probation_after => {
                    self.phases[i] = Phase::Probation { probes: 0 };
                }
                Phase::Probation { probes } if probes >= HealthPolicy::MIN_PROBES => {
                    let score = self.score(i, now);
                    if score <= self.policy.eject_score * HealthPolicy::REINSTATE_HYSTERESIS {
                        self.phases[i] = Phase::Healthy;
                        verdicts.push(HealthVerdict::Reinstate { replica: i, score });
                    } else if score >= self.policy.eject_score {
                        // Probes say it is still sick: back to the bench,
                        // probation clock restarted.
                        self.phases[i] = Phase::Ejected { since: now };
                        verdicts.push(HealthVerdict::Eject {
                            replica: i,
                            score,
                            z: 0.0,
                        });
                    }
                }
                _ => {}
            }
        }

        // Outlier ejection: at most one replica per tick, and only with
        // peer agreement and both safety guards holding.
        let healthy: Vec<usize> = (0..n)
            .filter(|&i| active[i] && self.phases[i] == Phase::Healthy)
            .collect();
        if healthy.len() < 2 {
            return verdicts; // never eject the last active replica
        }
        let active_count = (0..n).filter(|&i| active[i]).count();
        let out = (0..n)
            .filter(|&i| active[i] && self.phases[i] != Phase::Healthy)
            .count();
        let fraction_ok =
            (out + 1) as f64 <= HealthPolicy::MAX_EJECTED_FRACTION * active_count as f64;
        if !fraction_ok {
            return verdicts;
        }
        let scores: Vec<f64> = healthy.iter().map(|&i| self.score(i, now)).collect();
        let mut worst: Option<(usize, f64, f64)> = None;
        for (k, &i) in healthy.iter().enumerate() {
            if self.signals[i].replies < self.policy.warmup_replies {
                continue;
            }
            let score = scores[k];
            if score < self.policy.eject_score {
                continue;
            }
            // Leave-one-out z: the candidate is excluded from its own peer
            // baseline (else a sick majority dilutes the mean under itself),
            // and the spread is floored at a quarter of the threshold so a
            // pack of near-identical peers does not make every epsilon of
            // noise a formal outlier.
            let peers: Vec<f64> = scores
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != k)
                .map(|(_, s)| *s)
                .collect();
            let (m, sd) = (mean(&peers), stddev(&peers));
            let z = (score - m) / sd.max(0.25 * self.policy.eject_score);
            if z < self.policy.eject_z {
                continue;
            }
            if worst.map(|(_, s, _)| score > s).unwrap_or(true) {
                worst = Some((i, score, z));
            }
        }
        if let Some((i, score, z)) = worst {
            self.phases[i] = Phase::Ejected { since: now };
            verdicts.push(HealthVerdict::Eject {
                replica: i,
                score,
                z,
            });
        }
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::ZERO + ms(n)
    }

    /// Feeds `det` a steady healthy reply stream on `replica` from
    /// `start`, every 10 ms for `count` replies at 5 ms latency.
    fn feed_healthy(det: &mut HealthDetector, replica: usize, start: u64, count: u64) {
        for k in 0..count {
            det.on_reply(replica, at(start + 10 * k), ms(5));
        }
    }

    #[test]
    fn healthy_set_produces_no_verdicts() {
        let mut det = HealthDetector::new(HealthPolicy::monitor(1), 3);
        for r in 0..3 {
            feed_healthy(&mut det, r, 0, 20);
        }
        assert!(det.tick(at(250), &[true; 3]).is_empty());
        assert_eq!(det.ejected_count(), 0);
    }

    #[test]
    fn slow_outlier_is_ejected_and_peers_survive() {
        let mut det = HealthDetector::new(HealthPolicy::monitor(1), 3);
        for r in 0..2 {
            feed_healthy(&mut det, r, 0, 20);
        }
        // Replica 2 answers, just slowly: the gray-failure signature.
        for k in 0..20 {
            det.on_reply(2, at(10 * k), ms(2_000));
        }
        let verdicts = det.tick(at(250), &[true; 3]);
        assert_eq!(verdicts.len(), 1);
        match verdicts[0] {
            HealthVerdict::Eject { replica, score, z } => {
                assert_eq!(replica, 2);
                assert!(score >= 1.0, "score {score}");
                assert!(z >= 0.8, "z {z}");
            }
            other => panic!("expected ejection, got {other:?}"),
        }
        assert!(det.ejected(2));
        assert!(!det.ejected(0) && !det.ejected(1));
    }

    #[test]
    fn tier_wide_slowdown_ejects_nobody() {
        // Everyone equally slow: absolute scores cross the threshold but
        // no replica is a peer-relative outlier.
        let mut det = HealthDetector::new(HealthPolicy::monitor(1), 3);
        for r in 0..3 {
            for k in 0..20 {
                det.on_reply(r, at(10 * k), ms(2_000));
            }
        }
        assert!(det.tick(at(250), &[true; 3]).is_empty());
    }

    #[test]
    fn max_ejected_fraction_guard_holds() {
        // Two of three sick, fraction cap 0.5: only one may go.
        let mut det = HealthDetector::new(HealthPolicy::monitor(1), 3);
        feed_healthy(&mut det, 0, 0, 20);
        for r in 1..3 {
            for k in 0..20 {
                det.on_reply(r, at(10 * k), ms(2_500));
            }
        }
        let first = det.tick(at(250), &[true; 3]);
        assert_eq!(first.len(), 1);
        // Next round: ejecting the second sick replica would put 2/3 out.
        assert!(det.tick(at(350), &[true; 3]).is_empty());
        assert_eq!(det.ejected_count(), 1);
    }

    #[test]
    fn last_healthy_replica_is_never_ejected() {
        let mut det = HealthDetector::new(HealthPolicy::monitor(1), 2);
        feed_healthy(&mut det, 0, 0, 20);
        for k in 0..20 {
            det.on_reply(1, at(10 * k), ms(2_500));
        }
        let v = det.tick(at(250), &[true; 2]);
        assert_eq!(v.len(), 1, "replica 1 goes");
        // Now replica 0 degrades too — but it is the last one standing.
        for k in 0..20 {
            det.on_reply(0, at(300 + 10 * k), ms(2_500));
        }
        assert!(det.tick(at(550), &[true; 2]).is_empty());
        assert!(!det.ejected(0));
    }

    #[test]
    fn probation_and_reinstatement_round_trip() {
        let policy = HealthPolicy::monitor(1).with_probation(ms(500));
        let mut det = HealthDetector::new(policy, 2);
        feed_healthy(&mut det, 0, 0, 20);
        for k in 0..20 {
            det.on_reply(1, at(10 * k), ms(2_500));
        }
        assert_eq!(det.tick(at(250), &[true; 2]).len(), 1);
        assert!(det.probe_candidate().is_none());
        // Probation opens after 500 ms on the bench.
        assert!(det.tick(at(800), &[true; 2]).is_empty());
        assert_eq!(det.probe_candidate(), Some(1));
        // Probes come back fast: the EWMA forgets the bad spell. Replica 0
        // keeps serving in parallel (a silent peer would itself turn
        // suspicious through phi).
        for k in 0..12 {
            det.on_reply(1, at(900 + 20 * k), ms(5));
            det.on_reply(0, at(900 + 20 * k), ms(5));
        }
        let v = det.tick(at(1_200), &[true; 2]);
        assert!(
            matches!(v.as_slice(), [HealthVerdict::Reinstate { replica: 1, .. }]),
            "{v:?}"
        );
        assert!(!det.ejected(1));
    }

    #[test]
    fn failed_probation_goes_back_to_the_bench() {
        let policy = HealthPolicy::monitor(1).with_probation(ms(500));
        let mut det = HealthDetector::new(policy, 2);
        feed_healthy(&mut det, 0, 0, 20);
        for k in 0..20 {
            det.on_reply(1, at(10 * k), ms(2_500));
        }
        assert_eq!(det.tick(at(250), &[true; 2]).len(), 1);
        // Probation opens at 800 ms — and the probes still answer slowly.
        assert!(det.tick(at(800), &[true; 2]).is_empty());
        for k in 0..4 {
            det.on_reply(1, at(900 + 20 * k), ms(2_500));
        }
        let v = det.tick(at(1_000), &[true; 2]);
        assert!(
            matches!(v.as_slice(), [HealthVerdict::Eject { replica: 1, .. }]),
            "{v:?}"
        );
        assert!(det.ejected(1));
        assert!(det.probe_candidate().is_none());
    }

    #[test]
    fn phi_rises_when_replies_stop() {
        let mut det = HealthDetector::new(HealthPolicy::monitor(1), 2);
        feed_healthy(&mut det, 0, 0, 30); // 10 ms metronome, last reply at 290
        let quiet = det.phi(0, at(295));
        let silent = det.phi(0, at(800));
        assert!(quiet < 1.0, "phi mid-gap: {quiet}");
        assert!(silent > 8.0, "phi after 500 ms of silence: {silent}");
        // A replica that never replied has no gap model.
        assert_eq!(det.phi(1, at(800)), 0.0);
    }

    #[test]
    fn cold_replicas_are_protected_by_warmup() {
        let mut det = HealthDetector::new(HealthPolicy::monitor(1), 2);
        feed_healthy(&mut det, 0, 0, 20);
        // Replica 1 saw two awful replies — but only two.
        det.on_reply(1, at(0), ms(3_000));
        det.on_reply(1, at(100), ms(3_000));
        assert!(det.tick(at(250), &[true; 2]).is_empty());
    }

    #[test]
    fn drops_alone_can_eject() {
        let mut det = HealthDetector::new(HealthPolicy::monitor(1), 3);
        for r in 0..2 {
            feed_healthy(&mut det, r, 0, 20);
        }
        // Replica 2 replies fast when it replies — but drops half its
        // traffic (flaky link).
        for k in 0..20 {
            det.on_reply(2, at(10 * k), ms(5));
            det.on_drop(2, at(10 * k + 5));
        }
        let v = det.tick(at(250), &[true; 3]);
        assert!(
            matches!(v.as_slice(), [HealthVerdict::Eject { replica: 2, .. }]),
            "{v:?}"
        );
    }

    #[test]
    fn inactive_replicas_neither_eject_nor_anchor_the_peer_pool() {
        let mut det = HealthDetector::new(HealthPolicy::monitor(1), 3);
        feed_healthy(&mut det, 0, 0, 20);
        for k in 0..20 {
            det.on_reply(1, at(10 * k), ms(2_500));
        }
        feed_healthy(&mut det, 2, 0, 20);
        // Replica 1 is draining (host says inactive): no verdict against it.
        assert!(det.tick(at(250), &[true, false, true]).is_empty());
    }

    #[test]
    #[should_panic(expected = "ejection score must be positive")]
    fn invalid_policy_is_rejected() {
        let mut p = HealthPolicy::monitor(0);
        p.eject_score = 0.0;
        let _ = HealthDetector::new(p, 2);
    }
}
