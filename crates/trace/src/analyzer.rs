//! Automated root-cause analysis of VLRT traces.
//!
//! The paper's Fig. 6/7 argument is a manual causal chain: a VLRT request's
//! 3 s step is a SYN drop at tier *i* in window *w*; the drop happened
//! because tier *i*'s queue overflowed; the queue overflowed because some
//! tier saturated for ~100 ms (a millibottleneck, usually visible as a
//! burst of interferer CPU). [`RootCause`] mechanizes that walk over a
//! retained [`TraceLog`], joining each drop against per-tier utilization
//! and drop series to name the culprit. When a tier is a replica set the
//! series come per replica, and the verdict names the hot replica behind
//! the balanced front.

use crate::event::{TerminalClass, TraceEventKind};
use crate::tracer::TraceLog;
use ntier_des::ids::{site_label, ReplicaId, TierId};
use ntier_des::time::{SimDuration, SimTime, MONITOR_WINDOW};

/// Per-tier time series the analyzer joins traces against, indexed by the
/// same fixed windows the telemetry layer records (50 ms by default).
#[derive(Debug, Clone, Default)]
pub struct TierData {
    pub name: String,
    /// Own-work CPU utilization per window, in `[0, 1]`.
    pub util: Vec<f64>,
    /// Interferer (colocated-VM / stall) utilization per window.
    pub interferer_util: Vec<f64>,
    /// Connection drops per window.
    pub drops: Vec<u32>,
    /// Per-replica series for replicated tiers (empty for single-instance
    /// tiers). Index `r` is replica `r`; the top-level series stay the
    /// tier-wide aggregate so unreplicated analyses are unchanged.
    pub replicas: Vec<TierData>,
}

impl TierData {
    /// Renders the tier (or one of its replicas) the way narration labels
    /// sites: the bare name for replica 0 of an unreplicated tier,
    /// `name#r` for a specific replica of a replica set.
    fn site_name(&self, replica: Option<ReplicaId>) -> String {
        match replica {
            Some(r) if !self.replicas.is_empty() => format!("{}#{}", self.name, r),
            _ => self.name.clone(),
        }
    }
}

/// Why a queue overflowed, in decreasing order of diagnostic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CulpritKind {
    /// An interferer burst (CPU millibottleneck) was active at the named
    /// tier shortly before the drop.
    Millibottleneck,
    /// The named tier's own work pinned its CPU shortly before the drop.
    Saturation,
    /// No utilization spike found; the drop window itself recorded queue
    /// overflow drops at the tier (e.g. a pure burst-arrival overflow).
    QueueOverflow,
}

impl CulpritKind {
    pub fn as_str(self) -> &'static str {
        match self {
            CulpritKind::Millibottleneck => "millibottleneck",
            CulpritKind::Saturation => "saturation",
            CulpritKind::QueueOverflow => "queue-overflow",
        }
    }
}

/// The named cause behind one drop.
#[derive(Debug, Clone, PartialEq)]
pub struct Culprit {
    /// Tier whose condition explains the overflow (may differ from the
    /// dropping tier: an upstream CTQO drops at the web tier because the
    /// app tier stalled).
    pub tier: usize,
    /// The specific replica whose series carried the culprit condition,
    /// when the tier is a replica set and one replica stands out.
    pub replica: Option<ReplicaId>,
    /// Window index where the culprit condition peaked.
    pub window: u64,
    pub kind: CulpritKind,
    /// The peak utilization (or drop count) that triggered the verdict.
    pub score: f64,
}

/// One 3 s step of a VLRT request: a concrete (tier, drop-window,
/// retransmit-count) attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalStep {
    /// Tier whose SYN queue dropped the connection attempt.
    pub tier: usize,
    /// Replica that dropped it (replica 0 for unreplicated tiers).
    pub replica: ReplicaId,
    pub drop_at: SimTime,
    /// Monitoring window containing the drop.
    pub window: u64,
    /// 0-based retransmit ordinal at this hop (0 → +3 s, 1 → +6 s, …).
    pub retransmit_no: u8,
    /// How long the request stalled before its next recorded activity —
    /// the RTO wait this drop cost (≈3 s under the RHEL 6 SYN schedule).
    pub stalled_for: SimDuration,
    pub culprit: Option<Culprit>,
}

/// One control-plane actuation, as exported from a controller decision log
/// (the trace crate stays decoupled from the control crate's types: the
/// label carries the rendered action, e.g. `scale-up(t1 -> 3)`).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlAction {
    /// When the controller actuated.
    pub at: SimTime,
    /// Tier the action touched, when tier-scoped.
    pub tier: Option<usize>,
    /// Rendered action label.
    pub label: String,
}

/// The full causal chain for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalChain {
    pub trace_id: u64,
    pub class: &'static str,
    pub outcome: TerminalClass,
    pub latency: SimDuration,
    pub steps: Vec<CausalStep>,
    /// Controller actions that landed inside this request's causal window
    /// (from the lookback before its first drop to its terminal instant),
    /// in time order. Empty for uncontrolled runs or when analyzed without
    /// a decision log — see [`RootCause::analyze_with_actions`].
    pub control: Vec<ControlAction>,
}

impl CausalChain {
    /// Renders the chain as a one-request narrative, `tiers` naming the
    /// tier indices.
    pub fn narrate(&self, tiers: &[TierData]) -> String {
        use std::fmt::Write as _;
        let name = |i: usize, r: Option<ReplicaId>| {
            tiers
                .get(i)
                .map(|t| t.site_name(r))
                .unwrap_or_else(|| "?".to_string())
        };
        let mut out = format!(
            "req #{} [{}] {} in {:.2}s via {} drop(s):",
            self.trace_id,
            self.class,
            self.outcome.as_str(),
            self.latency.as_secs_f64(),
            self.steps.len()
        );
        for s in &self.steps {
            let drop_site = if s.replica == ReplicaId::FIRST {
                name(s.tier, None)
            } else {
                name(s.tier, Some(s.replica))
            };
            let _ = write!(
                out,
                "\n  t={:.3}s drop #{} at {} (window {}) stalled {:.2}s",
                s.drop_at.as_secs_f64(),
                s.retransmit_no,
                drop_site,
                s.window,
                s.stalled_for.as_secs_f64()
            );
            match &s.culprit {
                Some(c) => {
                    let _ = write!(
                        out,
                        " <- {} at {} (window {}, {:.0}%)",
                        c.kind.as_str(),
                        name(c.tier, c.replica),
                        c.window,
                        c.score * 100.0
                    );
                }
                None => {
                    let _ = write!(out, " <- unattributed");
                }
            }
        }
        if let Some(first_drop) = self.steps.first().map(|s| s.drop_at) {
            for a in &self.control {
                let _ = write!(
                    out,
                    "\n  controller: {} at t={:.3}s ",
                    a.label,
                    a.at.as_secs_f64()
                );
                if a.at >= first_drop {
                    let _ = write!(
                        out,
                        "(+{:.2}s after first drop)",
                        a.at.saturating_since(first_drop).as_secs_f64()
                    );
                } else {
                    let _ = write!(
                        out,
                        "({:.2}s before first drop)",
                        first_drop.saturating_since(a.at).as_secs_f64()
                    );
                }
            }
        }
        out
    }
}

/// The analyzer's verdict over a whole log.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// One chain per VLRT trace that has at least one attributed step,
    /// in trace-id order.
    pub chains: Vec<CausalChain>,
    /// VLRT trace ids with no recorded drop to pin the latency on.
    pub unattributed: Vec<u64>,
    /// Total VLRT traces examined.
    pub vlrt_total: usize,
}

impl Analysis {
    /// Fraction of VLRT traces attributed to a concrete chain (1.0 when
    /// there were none to attribute).
    pub fn attribution_rate(&self) -> f64 {
        if self.vlrt_total == 0 {
            1.0
        } else {
            self.chains.len() as f64 / self.vlrt_total as f64
        }
    }

    /// The `n` highest-latency chains.
    pub fn top_chains(&self, n: usize) -> Vec<&CausalChain> {
        let mut sorted: Vec<&CausalChain> = self.chains.iter().collect();
        sorted.sort_by(|a, b| b.latency.cmp(&a.latency).then(a.trace_id.cmp(&b.trace_id)));
        sorted.truncate(n);
        sorted
    }

    /// Tallies, per `(tier, replica)` drop site, how many causal steps
    /// landed there — the quickest way to see one hot replica absorbing
    /// the VLRT ladder behind a balanced front. Keys render via
    /// [`site_label`] ("1" or "1#2"), sorted.
    pub fn drop_site_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<(usize, u8), usize> =
            std::collections::BTreeMap::new();
        for chain in &self.chains {
            for step in &chain.steps {
                *counts.entry((step.tier, step.replica.0)).or_default() += 1;
            }
        }
        counts
            .into_iter()
            .map(|((t, r), n)| (site_label(TierId::from(t), ReplicaId(r)), n))
            .collect()
    }
}

/// Walks VLRT span trees and attributes each 3 s step to its cause.
///
/// The [`TierData`] series are read as [`MONITOR_WINDOW`] windows, and a
/// trace is VLRT under [`RequestTrace::is_vlrt`](crate::RequestTrace::is_vlrt).
#[derive(Debug, Clone, Copy, Default)]
pub struct RootCause;

impl RootCause {
    /// How many windows before the drop to search for the culprit
    /// condition. Millibottlenecks are ~100 ms and queues take a few
    /// windows to fill, so the analyzer looks back 12 windows (600 ms).
    pub const LOOKBACK: u64 = 12;

    /// Interferer utilization at or above which a window counts as a
    /// millibottleneck.
    pub const INTERFERER_FLOOR: f64 = 0.4;

    /// Own-work utilization at or above which a window counts as
    /// saturation.
    pub const SATURATION_FLOOR: f64 = 0.95;

    /// Analyzes every VLRT trace in the log against the tier series.
    pub fn analyze(&self, log: &TraceLog, tiers: &[TierData]) -> Analysis {
        self.analyze_with_actions(log, tiers, &[])
    }

    /// Like [`RootCause::analyze`], but joins a controller decision log:
    /// each causal chain picks up the [`ControlAction`]s that landed inside
    /// its causal window — from [`LOOKBACK`](Self::LOOKBACK) windows before
    /// its first drop to its terminal instant — so narration can state facts
    /// like "scale-up arrived 400 ms after the millibottleneck". `actions`
    /// must be in time order (decision logs are appended in actuation
    /// order, so they are).
    pub fn analyze_with_actions(
        &self,
        log: &TraceLog,
        tiers: &[TierData],
        actions: &[ControlAction],
    ) -> Analysis {
        let mut chains = Vec::new();
        let mut unattributed = Vec::new();
        let mut vlrt_total = 0;
        for trace in log.vlrt_traces() {
            vlrt_total += 1;
            let steps = self.steps_for(trace, tiers);
            if steps.is_empty() {
                unattributed.push(trace.id);
            } else {
                let control = self.actions_in_window(&steps, trace.terminal_at, actions);
                chains.push(CausalChain {
                    trace_id: trace.id,
                    class: trace.class,
                    outcome: trace.outcome,
                    latency: trace.latency,
                    steps,
                    control,
                });
            }
        }
        Analysis {
            chains,
            unattributed,
            vlrt_total,
        }
    }

    /// Actions inside a chain's causal window (lookback before the first
    /// drop through the terminal instant).
    fn actions_in_window(
        &self,
        steps: &[CausalStep],
        terminal_at: SimTime,
        actions: &[ControlAction],
    ) -> Vec<ControlAction> {
        let Some(first) = steps.first() else {
            return Vec::new();
        };
        let lo_window = first.window.saturating_sub(Self::LOOKBACK);
        actions
            .iter()
            .filter(|a| a.at.window_index(MONITOR_WINDOW) >= lo_window && a.at <= terminal_at)
            .cloned()
            .collect()
    }

    fn steps_for(&self, trace: &crate::event::RequestTrace, tiers: &[TierData]) -> Vec<CausalStep> {
        let mut steps = Vec::new();
        for (i, ev) in trace.events.iter().enumerate() {
            let TraceEventKind::SynDrop {
                tier,
                replica,
                retransmit_no,
            } = ev.kind
            else {
                continue;
            };
            // The RTO wait this drop cost: time until the request's next
            // recorded activity (or its terminal instant).
            let next = trace.events[i + 1..]
                .iter()
                .map(|e| e.at)
                .find(|&at| at > ev.at)
                .unwrap_or(trace.terminal_at);
            let window = ev.at.window_index(MONITOR_WINDOW);
            steps.push(CausalStep {
                tier: tier.index(),
                replica,
                drop_at: ev.at,
                window,
                retransmit_no,
                stalled_for: next.saturating_since(ev.at),
                culprit: self.culprit_for(tier.index(), replica, window, tiers),
            });
        }
        steps
    }

    /// Names the condition behind a drop at `drop_tier` in `window`:
    /// the strongest interferer burst in the lookback beats the strongest
    /// own-work saturation, which beats the bare queue-overflow evidence.
    /// For replicated tiers the per-replica series are scanned alongside
    /// the aggregate, and a replica-level peak that beats the aggregate
    /// names that replica — a stall confined to one instance of a
    /// balanced set is exactly the signal the aggregate dilutes.
    fn culprit_for(
        &self,
        drop_tier: usize,
        drop_replica: ReplicaId,
        window: u64,
        tiers: &[TierData],
    ) -> Option<Culprit> {
        let lo = window.saturating_sub(Self::LOOKBACK) as usize;
        let hi = window as usize;
        let mut best_interferer: Option<Culprit> = None;
        let mut best_saturation: Option<Culprit> = None;
        let consider = |series: &[f64],
                        floor: f64,
                        best: &mut Option<Culprit>,
                        tier: usize,
                        replica: Option<ReplicaId>,
                        kind: CulpritKind| {
            for w in lo..=hi {
                if let Some(&v) = series.get(w) {
                    if v >= floor && best.as_ref().is_none_or(|b| v > b.score) {
                        *best = Some(Culprit {
                            tier,
                            replica,
                            window: w as u64,
                            kind,
                            score: v,
                        });
                    }
                }
            }
        };
        for (ti, td) in tiers.iter().enumerate() {
            // Replica series first: `consider` keeps the first hit on a
            // tie (strict `>`), so a burst visible at full strength in one
            // replica and diluted in the aggregate is pinned on the
            // replica.
            for (ri, rd) in td.replicas.iter().enumerate() {
                let r = Some(ReplicaId::from(ri));
                consider(
                    &rd.interferer_util,
                    Self::INTERFERER_FLOOR,
                    &mut best_interferer,
                    ti,
                    r,
                    CulpritKind::Millibottleneck,
                );
                consider(
                    &rd.util,
                    Self::SATURATION_FLOOR,
                    &mut best_saturation,
                    ti,
                    r,
                    CulpritKind::Saturation,
                );
            }
            consider(
                &td.interferer_util,
                Self::INTERFERER_FLOOR,
                &mut best_interferer,
                ti,
                None,
                CulpritKind::Millibottleneck,
            );
            consider(
                &td.util,
                Self::SATURATION_FLOOR,
                &mut best_saturation,
                ti,
                None,
                CulpritKind::Saturation,
            );
        }
        if best_interferer.is_some() {
            return best_interferer;
        }
        if best_saturation.is_some() {
            return best_saturation;
        }
        let (drops, replica) = tiers.get(drop_tier).map(|td| {
            td.replicas
                .get(drop_replica.index())
                .map(|rd| (&rd.drops, Some(drop_replica)))
                .unwrap_or((&td.drops, None))
        })?;
        let drops_here = drops.get(window as usize).copied().unwrap_or(0);
        if drops_here > 0 {
            Some(Culprit {
                tier: drop_tier,
                replica,
                window,
                kind: CulpritKind::QueueOverflow,
                score: f64::from(drops_here),
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{RequestTrace, TraceEvent};
    use crate::tracer::TraceLog;

    fn vlrt_trace(id: u64, drop_ms: u64, tier: u8) -> RequestTrace {
        vlrt_trace_at(id, drop_ms, tier, 0)
    }

    fn vlrt_trace_at(id: u64, drop_ms: u64, tier: u8, replica: u8) -> RequestTrace {
        RequestTrace {
            id,
            class: "browse",
            injected_at: SimTime::from_millis(drop_ms - 5),
            terminal_at: SimTime::from_millis(drop_ms + 3_010),
            outcome: TerminalClass::Completed,
            latency: SimDuration::from_millis(3_015),
            sampled: false,
            events: vec![
                TraceEvent {
                    at: SimTime::from_millis(drop_ms - 5),
                    kind: TraceEventKind::ClientSend { attempt: 0 },
                },
                TraceEvent {
                    at: SimTime::from_millis(drop_ms),
                    kind: TraceEventKind::SynDrop {
                        tier: TierId(tier),
                        replica: ReplicaId(replica),
                        retransmit_no: 0,
                    },
                },
                TraceEvent {
                    at: SimTime::from_millis(drop_ms + 3_000),
                    kind: TraceEventKind::ServiceStart {
                        tier: TierId(tier),
                        replica: ReplicaId(replica),
                        visit: 0,
                    },
                },
            ],
        }
    }

    fn log_of(traces: Vec<RequestTrace>) -> TraceLog {
        TraceLog {
            started: traces.len() as u64,
            promoted: traces.len() as u64,
            evicted: 0,
            unterminated: 0,
            traces,
        }
    }

    fn tier(name: &str, windows: usize) -> TierData {
        TierData {
            name: name.into(),
            util: vec![0.3; windows],
            interferer_util: vec![0.0; windows],
            drops: vec![0; windows],
            replicas: Vec::new(),
        }
    }

    #[test]
    fn drop_step_names_the_interferer_burst() {
        // Drop at web (tier 0) in window 20; the app tier (1) had an
        // interferer burst in windows 18-19 — upstream CTQO.
        let mut web = tier("web", 64);
        let mut app = tier("app", 64);
        web.drops[20] = 1;
        app.interferer_util[18] = 0.9;
        app.interferer_util[19] = 0.8;
        let log = log_of(vec![vlrt_trace(0, 1_000, 0)]);
        let a = RootCause.analyze(&log, &[web, app]);
        assert_eq!(a.vlrt_total, 1);
        assert_eq!(a.attribution_rate(), 1.0);
        let step = &a.chains[0].steps[0];
        assert_eq!(step.tier, 0);
        assert_eq!(step.replica, ReplicaId::FIRST);
        assert_eq!(step.window, 20);
        assert_eq!(step.retransmit_no, 0);
        assert_eq!(step.stalled_for, SimDuration::from_secs(3));
        let c = step.culprit.as_ref().expect("culprit");
        assert_eq!(c.tier, 1);
        assert_eq!(c.replica, None);
        assert_eq!(c.window, 18);
        assert_eq!(c.kind, CulpritKind::Millibottleneck);
    }

    #[test]
    fn saturation_beats_bare_queue_overflow() {
        let mut web = tier("web", 64);
        web.drops[20] = 2;
        web.util[19] = 1.0;
        let log = log_of(vec![vlrt_trace(0, 1_000, 0)]);
        let a = RootCause.analyze(&log, &[web]);
        let c = a.chains[0].steps[0].culprit.as_ref().expect("culprit");
        assert_eq!(c.kind, CulpritKind::Saturation);
        assert_eq!(c.window, 19);
    }

    #[test]
    fn queue_overflow_is_the_fallback_and_none_without_evidence() {
        let mut web = tier("web", 64);
        web.drops[20] = 3;
        let log = log_of(vec![vlrt_trace(0, 1_000, 0), vlrt_trace(1, 2_000, 0)]);
        let a = RootCause.analyze(&log, &[web]);
        let c0 = a.chains[0].steps[0].culprit.as_ref().expect("culprit");
        assert_eq!(c0.kind, CulpritKind::QueueOverflow);
        assert_eq!(c0.score, 3.0);
        // Second trace drops in window 40 where nothing is recorded.
        assert!(a.chains[1].steps[0].culprit.is_none());
    }

    #[test]
    fn vlrt_without_drops_is_unattributed() {
        let mut t = vlrt_trace(3, 1_000, 0);
        t.events
            .retain(|e| !matches!(e.kind, TraceEventKind::SynDrop { .. }));
        let log = log_of(vec![t]);
        let a = RootCause.analyze(&log, &[tier("web", 64)]);
        assert_eq!(a.vlrt_total, 1);
        assert_eq!(a.chains.len(), 0);
        assert_eq!(a.unattributed, vec![3]);
        assert_eq!(a.attribution_rate(), 0.0);
    }

    #[test]
    fn top_chains_rank_by_latency() {
        let mut slow = vlrt_trace(0, 1_000, 0);
        slow.latency = SimDuration::from_millis(9_020);
        let fast = vlrt_trace(1, 2_000, 0);
        let log = log_of(vec![fast, slow]);
        // Ids sort ascending in the log, but top_chains ranks by latency.
        let mut log = log;
        log.traces.sort_by_key(|t| t.id);
        let a = RootCause.analyze(&log, &[tier("web", 64)]);
        let top = a.top_chains(1);
        assert_eq!(top[0].trace_id, 0);
        assert_eq!(a.top_chains(10).len(), 2);
    }

    #[test]
    fn narration_mentions_tier_names_and_cause() {
        let mut web = tier("web", 64);
        let mut app = tier("app", 64);
        web.drops[20] = 1;
        app.interferer_util[19] = 0.7;
        let log = log_of(vec![vlrt_trace(0, 1_000, 0)]);
        let a = RootCause.analyze(&log, &[web, app]);
        let text = a.chains[0].narrate(&[tier("web", 1), tier("app", 1)]);
        assert!(text.contains("drop #0 at web"), "{text}");
        assert!(text.contains("millibottleneck at app"), "{text}");
    }

    #[test]
    fn hot_replica_is_named_over_the_diluted_aggregate() {
        // App tier is a 3-replica set. Replica 1 carries a full-strength
        // interferer burst; the tier-wide aggregate shows the same burst
        // diluted by the two idle replicas (0.3 < floor).
        let mut web = tier("web", 64);
        web.drops[20] = 1;
        let mut app = tier("app", 64);
        app.interferer_util[19] = 0.3;
        app.replicas = vec![tier("app", 64), tier("app", 64), tier("app", 64)];
        app.replicas[1].interferer_util[19] = 0.9;
        let log = log_of(vec![vlrt_trace(0, 1_000, 0)]);
        let a = RootCause.analyze(&log, &[web, app.clone()]);
        let c = a.chains[0].steps[0].culprit.as_ref().expect("culprit");
        assert_eq!(c.tier, 1);
        assert_eq!(c.replica, Some(ReplicaId(1)));
        assert_eq!(c.kind, CulpritKind::Millibottleneck);
        let text = a.chains[0].narrate(&[tier("web", 1), app]);
        assert!(text.contains("millibottleneck at app#1"), "{text}");
    }

    #[test]
    fn control_actions_join_only_inside_the_causal_window() {
        // Drop at window 20 (t=1.0s), terminal at t≈4.0s, lookback 12
        // windows (600 ms): the window is [t=0.4s, t=4.01s].
        let mut web = tier("web", 64);
        web.drops[20] = 1;
        let log = log_of(vec![vlrt_trace(0, 1_000, 0)]);
        let act = |ms: u64, label: &str| ControlAction {
            at: SimTime::from_millis(ms),
            tier: Some(1),
            label: label.into(),
        };
        let actions = vec![
            act(100, "early"),      // before the lookback: excluded
            act(500, "pre-drop"),   // inside the lookback
            act(1_400, "late"),     // between drop and terminal
            act(9_000, "too-late"), // after terminal: excluded
        ];
        let a = RootCause.analyze_with_actions(&log, &[web], &actions);
        let chain = &a.chains[0];
        let labels: Vec<&str> = chain.control.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, vec!["pre-drop", "late"]);
        let text = chain.narrate(&[tier("web", 1)]);
        assert!(
            text.contains("controller: pre-drop at t=0.500s (0.50s before first drop)"),
            "{text}"
        );
        assert!(
            text.contains("controller: late at t=1.400s (+0.40s after first drop)"),
            "{text}"
        );
    }

    #[test]
    fn analyze_without_actions_leaves_chains_action_free() {
        let mut web = tier("web", 64);
        web.drops[20] = 1;
        let log = log_of(vec![vlrt_trace(0, 1_000, 0)]);
        let a = RootCause.analyze(&log, &[web]);
        assert!(a.chains[0].control.is_empty());
    }

    #[test]
    fn replica_qualified_drops_histogram() {
        let log = log_of(vec![
            vlrt_trace_at(0, 1_000, 1, 2),
            vlrt_trace_at(1, 2_000, 1, 2),
            vlrt_trace_at(2, 3_000, 0, 0),
        ]);
        let mut web = tier("web", 128);
        web.drops[20] = 1;
        web.drops[40] = 1;
        web.drops[60] = 1;
        let a = RootCause.analyze(&log, &[web, tier("app", 128)]);
        assert_eq!(
            a.drop_site_histogram(),
            vec![("0".to_string(), 1), ("1#2".to_string(), 2)]
        );
    }
}
