//! The hot-path recorder: scratch slab, refcounted handles, and the
//! post-hoc promotion ring.
//!
//! # Design
//!
//! Recording must not perturb the simulation (the golden determinism tests
//! pin exact report values) and must cost a single predictable branch when
//! tracing is off. Three decisions follow:
//!
//! * **Handles, not ownership.** The engine threads a plain `u32`
//!   [`TraceHandle`] through request state, retry tickets, and logical
//!   (hedged) requests. When tracing is disabled every handle is
//!   [`TRACE_NONE`] and every tracer call early-returns on that compare —
//!   no allocation, no rng draw, no branch on config in the recording path.
//! * **Refcounts, not lifetimes.** A logical request's trace is shared by
//!   its hedge attempts, its retry ticket, and orphaned attempts that
//!   outlive the client's interest. Each holder retains the handle; the
//!   trace is finalized when the last holder releases it, which is a
//!   deterministic point in simulated time.
//! * **Post-hoc promotion.** Whether a trace is worth keeping is only known
//!   at the end: VLRT, failed, shed, and cancelled requests are always
//!   retained, fast completions only when probabilistically sampled at
//!   start. Scratch buffers for unpromoted traces are recycled through a
//!   free list, so steady-state tracing does not allocate per request.
//!
//! The sampling draw comes from the tracer's own rng fork, so enabling or
//! disabling tracing cannot shift any other subsystem's random stream.

use crate::event::{RequestTrace, TerminalClass, TraceEvent, TraceEventKind};
use ntier_des::rng::SimRng;
use ntier_des::time::{SimDuration, SimTime};

/// Index of a scratch trace in the tracer's slab.
pub type TraceHandle = u32;

/// The null handle: recording calls against it are no-ops.
pub const TRACE_NONE: TraceHandle = u32::MAX;

/// Tracing configuration, carried on the system config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Master switch. When false the tracer never hands out handles.
    pub enabled: bool,
    /// Probability that a fast (non-VLRT, completed) request's trace is
    /// retained anyway. Slow/failed/shed/cancelled traces are always kept.
    pub sample_prob: f64,
    /// Capacity of the retained-trace ring; the oldest promoted trace is
    /// evicted when full.
    pub ring_capacity: usize,
    /// Completion latency at or above which a trace is always promoted.
    pub vlrt_threshold: SimDuration,
}

impl TraceConfig {
    /// Tracing off: the hot path reduces to handle-is-none checks.
    pub const fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            sample_prob: 0.0,
            ring_capacity: 0,
            vlrt_threshold: SimDuration::from_secs(3),
        }
    }

    /// Retain every trace (sampling probability 1).
    pub const fn always() -> Self {
        TraceConfig {
            enabled: true,
            sample_prob: 1.0,
            ring_capacity: 65_536,
            vlrt_threshold: SimDuration::from_secs(3),
        }
    }

    /// Retain slow/failed traces plus a `p` fraction of fast ones.
    pub fn sampled(p: f64) -> Self {
        TraceConfig {
            enabled: true,
            sample_prob: p.clamp(0.0, 1.0),
            ring_capacity: 16_384,
            vlrt_threshold: SimDuration::from_secs(3),
        }
    }

    /// Overrides the retained-ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// An in-flight trace buffer in the scratch slab.
#[derive(Debug)]
struct Scratch {
    id: u64,
    class: &'static str,
    injected_at: SimTime,
    sampled: bool,
    refs: u32,
    terminal: Option<(SimTime, TerminalClass, SimDuration)>,
    events: Vec<TraceEvent>,
}

/// The finished product of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Retained traces in trace-id order.
    pub traces: Vec<RequestTrace>,
    /// Total traces started (promoted or not).
    pub started: u64,
    /// Traces that met the promotion rule (including later-evicted ones).
    pub promoted: u64,
    /// Promoted traces evicted by ring overflow.
    pub evicted: u64,
    /// Traces finalized without a terminal record (in flight at horizon).
    pub unterminated: u64,
    /// The promotion threshold the run used.
    pub vlrt_threshold: SimDuration,
}

impl TraceLog {
    /// Retained traces that are VLRT under the run's threshold.
    pub fn vlrt_traces(&self) -> impl Iterator<Item = &RequestTrace> {
        self.traces
            .iter()
            .filter(|t| t.is_vlrt(self.vlrt_threshold))
    }

    /// Looks up a retained trace by id.
    pub fn get(&self, id: u64) -> Option<&RequestTrace> {
        self.traces
            .binary_search_by_key(&id, |t| t.id)
            .ok()
            .map(|i| &self.traces[i])
    }
}

/// The per-engine recorder. Not thread-safe by design: each DES engine owns
/// one, and the parallel runner keeps engines on separate threads.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    rng: SimRng,
    slots: Vec<Scratch>,
    free: Vec<u32>,
    next_id: u64,
    started: u64,
    promoted: u64,
    evicted: u64,
    unterminated: u64,
    /// Retained ring: `ring.len() < cap` while filling; once full,
    /// `ring_head` is the next eviction victim.
    ring: Vec<RequestTrace>,
    ring_head: usize,
}

impl Tracer {
    /// Builds a tracer from config and a dedicated rng fork. Pass a fork
    /// labeled for tracing only (e.g. `root.fork("trace-sample")`) so the
    /// sampling stream is independent of every simulation stream.
    pub fn new(cfg: TraceConfig, rng: SimRng) -> Self {
        Tracer {
            cfg,
            rng,
            slots: Vec::new(),
            free: Vec::new(),
            next_id: 0,
            started: 0,
            promoted: 0,
            evicted: 0,
            unterminated: 0,
            ring: Vec::with_capacity(if cfg.enabled {
                cfg.ring_capacity.min(4096)
            } else {
                0
            }),
            ring_head: 0,
        }
    }

    /// True when the tracer hands out live handles.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Opens a trace for a new logical request. Returns [`TRACE_NONE`]
    /// (and touches nothing, including the rng) when tracing is disabled.
    /// The caller holds one reference.
    ///
    /// The guard/body split here (and on the other recording calls) keeps
    /// the disabled path to a compare-and-branch *at the call site* without
    /// inlining the recording body into the engine's hot functions — the
    /// body landing inline is what shows up as a multi-percent events/sec
    /// regression in `engine_events`, not the branch itself.
    #[inline(always)]
    pub fn start(&mut self, injected_at: SimTime, class: &'static str) -> TraceHandle {
        if !self.cfg.enabled {
            return TRACE_NONE;
        }
        self.start_body(injected_at, class)
    }

    #[inline(never)]
    fn start_body(&mut self, injected_at: SimTime, class: &'static str) -> TraceHandle {
        let sampled = self.cfg.sample_prob >= 1.0 || self.rng.chance(self.cfg.sample_prob);
        let id = self.next_id;
        self.next_id += 1;
        self.started += 1;
        let h = match self.free.pop() {
            Some(h) => {
                let s = &mut self.slots[h as usize];
                s.id = id;
                s.class = class;
                s.injected_at = injected_at;
                s.sampled = sampled;
                s.refs = 1;
                s.terminal = None;
                s.events.clear();
                h
            }
            None => {
                self.slots.push(Scratch {
                    id,
                    class,
                    injected_at,
                    sampled,
                    refs: 1,
                    terminal: None,
                    events: Vec::with_capacity(16),
                });
                (self.slots.len() - 1) as TraceHandle
            }
        };
        self.record(h, injected_at, TraceEventKind::ClientSend { attempt: 0 });
        h
    }

    /// Appends an event. No-op on [`TRACE_NONE`].
    #[inline(always)]
    pub fn record(&mut self, h: TraceHandle, at: SimTime, kind: TraceEventKind) {
        if h == TRACE_NONE {
            return;
        }
        self.record_body(h, at, kind);
    }

    #[inline(never)]
    fn record_body(&mut self, h: TraceHandle, at: SimTime, kind: TraceEventKind) {
        self.slots[h as usize].events.push(TraceEvent { at, kind });
    }

    /// Adds a holder of the trace (hedge attempt, retry ticket, …).
    #[inline(always)]
    pub fn retain(&mut self, h: TraceHandle) {
        if h == TRACE_NONE {
            return;
        }
        self.slots[h as usize].refs += 1;
    }

    /// Records the logical request's outcome. First write wins; the engine
    /// guards this with its own `resolved`/`orphan` flags, so a double
    /// terminal record is tolerated rather than asserted.
    #[inline(always)]
    pub fn set_terminal(
        &mut self,
        h: TraceHandle,
        at: SimTime,
        class: TerminalClass,
        latency: SimDuration,
    ) {
        if h == TRACE_NONE {
            return;
        }
        self.set_terminal_body(h, at, class, latency);
    }

    #[inline(never)]
    fn set_terminal_body(
        &mut self,
        h: TraceHandle,
        at: SimTime,
        class: TerminalClass,
        latency: SimDuration,
    ) {
        let s = &mut self.slots[h as usize];
        if s.terminal.is_none() {
            s.terminal = Some((at, class, latency));
        }
    }

    /// Drops one holder. When the last holder releases, the trace is either
    /// promoted into the retained ring or its buffer is recycled.
    #[inline(always)]
    pub fn release(&mut self, h: TraceHandle) {
        if h == TRACE_NONE {
            return;
        }
        self.release_body(h);
    }

    #[inline(never)]
    fn release_body(&mut self, h: TraceHandle) {
        let s = &mut self.slots[h as usize];
        debug_assert!(s.refs > 0, "release of dead trace handle");
        s.refs -= 1;
        if s.refs == 0 {
            self.finalize(h);
        }
    }

    fn finalize(&mut self, h: TraceHandle) {
        let s = &mut self.slots[h as usize];
        let promote = match s.terminal {
            Some((_, class, latency)) => {
                s.sampled || class != TerminalClass::Completed || latency >= self.cfg.vlrt_threshold
            }
            None => {
                self.unterminated += 1;
                false
            }
        };
        if promote {
            let (terminal_at, outcome, latency) =
                s.terminal.expect("promotion requires a terminal record");
            let mut events = std::mem::take(&mut s.events);
            // Events from different attempts are appended at release time,
            // possibly out of order; stable sort restores the timeline while
            // keeping deterministic insertion order for simultaneous events.
            events.sort_by_key(|e| e.at);
            let trace = RequestTrace {
                id: s.id,
                class: s.class,
                injected_at: s.injected_at,
                terminal_at,
                outcome,
                latency,
                sampled: s.sampled,
                events,
            };
            self.promoted += 1;
            if self.ring.len() < self.cfg.ring_capacity {
                self.ring.push(trace);
            } else if self.cfg.ring_capacity > 0 {
                // Reclaim the victim's event buffer for the scratch slot so
                // eviction churn doesn't allocate either.
                let victim = std::mem::replace(&mut self.ring[self.ring_head], trace);
                self.ring_head = (self.ring_head + 1) % self.cfg.ring_capacity;
                self.evicted += 1;
                let mut buf = victim.events;
                buf.clear();
                self.slots[h as usize].events = buf;
            } else {
                self.evicted += 1;
            }
        }
        self.free.push(h);
    }

    /// Consumes the tracer into its retained log, or `None` when disabled.
    pub fn into_log(mut self) -> Option<TraceLog> {
        if !self.cfg.enabled {
            return None;
        }
        // Un-rotate the ring so traces come out oldest-first, then order by
        // id: promotion order is resolution order, ids are start order.
        self.ring.rotate_left(self.ring_head);
        self.ring.sort_by_key(|t| t.id);
        Some(TraceLog {
            traces: self.ring,
            started: self.started,
            promoted: self.promoted,
            evicted: self.evicted,
            unterminated: self.unterminated,
            vlrt_threshold: self.cfg.vlrt_threshold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntier_des::ids::{ReplicaId, TierId};

    fn rng() -> SimRng {
        SimRng::seed_from(7).fork("trace-sample")
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn disabled_tracer_hands_out_none_and_records_nothing() {
        let mut tr = Tracer::new(TraceConfig::disabled(), rng());
        let h = tr.start(t(0), "browse");
        assert_eq!(h, TRACE_NONE);
        tr.record(
            h,
            t(1),
            TraceEventKind::Enqueue {
                tier: TierId(0),
                replica: ReplicaId(0),
            },
        );
        tr.set_terminal(
            h,
            t(2),
            TerminalClass::Completed,
            SimDuration::from_millis(2),
        );
        tr.release(h);
        assert!(tr.into_log().is_none());
    }

    #[test]
    fn fast_unsampled_traces_are_recycled_not_promoted() {
        let mut tr = Tracer::new(TraceConfig::sampled(0.0), rng());
        for i in 0..10 {
            let h = tr.start(t(i), "browse");
            tr.set_terminal(
                h,
                t(i + 1),
                TerminalClass::Completed,
                SimDuration::from_millis(1),
            );
            tr.release(h);
        }
        // All scratch buffers recycled through one slot.
        assert_eq!(tr.slots.len(), 1);
        let log = tr.into_log().expect("enabled");
        assert_eq!(log.started, 10);
        assert_eq!(log.promoted, 0);
        assert!(log.traces.is_empty());
    }

    #[test]
    fn vlrt_and_failed_traces_promote_even_when_unsampled() {
        let mut tr = Tracer::new(TraceConfig::sampled(0.0), rng());
        let slow = tr.start(t(0), "browse");
        tr.record(
            slow,
            t(10),
            TraceEventKind::SynDrop {
                tier: TierId(1),
                replica: ReplicaId(0),
                retransmit_no: 0,
            },
        );
        tr.set_terminal(
            slow,
            t(3_200),
            TerminalClass::Completed,
            SimDuration::from_millis(3_200),
        );
        tr.release(slow);
        let failed = tr.start(t(5), "buy");
        tr.set_terminal(
            failed,
            t(50),
            TerminalClass::Failed,
            SimDuration::from_millis(45),
        );
        tr.release(failed);
        let log = tr.into_log().expect("enabled");
        assert_eq!(log.promoted, 2);
        assert_eq!(log.traces.len(), 2);
        assert!(log.traces[0].is_vlrt(SimDuration::from_secs(3)));
        assert_eq!(log.traces[1].outcome, TerminalClass::Failed);
        assert_eq!(log.vlrt_traces().count(), 1);
    }

    #[test]
    fn refcounts_defer_finalization_to_the_last_holder() {
        let mut tr = Tracer::new(TraceConfig::always(), rng());
        let h = tr.start(t(0), "browse");
        tr.retain(h); // hedge attempt
        tr.set_terminal(
            h,
            t(9),
            TerminalClass::Completed,
            SimDuration::from_millis(9),
        );
        tr.release(h);
        assert_eq!(tr.ring.len(), 0, "still one holder");
        tr.record(
            h,
            t(12),
            TraceEventKind::CancelReap {
                tier: TierId(2),
                replica: ReplicaId(0),
            },
        );
        tr.release(h);
        assert_eq!(tr.ring.len(), 1);
        let log = tr.into_log().expect("enabled");
        // Orphan event recorded after the terminal is kept and sorted last.
        assert_eq!(log.traces[0].events.last().map(|e| e.at), Some(t(12)));
    }

    #[test]
    fn events_are_time_sorted_with_stable_ties() {
        let mut tr = Tracer::new(TraceConfig::always(), rng());
        let h = tr.start(t(0), "browse");
        tr.record(
            h,
            t(20),
            TraceEventKind::ServiceStart {
                tier: TierId(1),
                replica: ReplicaId(0),
                visit: 0,
            },
        );
        tr.record(
            h,
            t(5),
            TraceEventKind::Enqueue {
                tier: TierId(0),
                replica: ReplicaId(0),
            },
        );
        tr.record(
            h,
            t(5),
            TraceEventKind::ServiceStart {
                tier: TierId(0),
                replica: ReplicaId(0),
                visit: 0,
            },
        );
        tr.set_terminal(
            h,
            t(30),
            TerminalClass::Completed,
            SimDuration::from_millis(30),
        );
        tr.release(h);
        let log = tr.into_log().expect("enabled");
        let ev = &log.traces[0].events;
        assert_eq!(ev[0].at, t(0));
        assert_eq!(
            ev[1].kind,
            TraceEventKind::Enqueue {
                tier: TierId(0),
                replica: ReplicaId(0),
            }
        );
        assert_eq!(
            ev[2].kind,
            TraceEventKind::ServiceStart {
                tier: TierId(0),
                replica: ReplicaId(0),
                visit: 0,
            }
        );
        assert_eq!(
            ev[3].kind,
            TraceEventKind::ServiceStart {
                tier: TierId(1),
                replica: ReplicaId(0),
                visit: 0,
            }
        );
    }

    #[test]
    fn ring_evicts_oldest_and_counts_it() {
        let mut tr = Tracer::new(TraceConfig::always().with_ring_capacity(2), rng());
        for i in 0..5u64 {
            let h = tr.start(t(i), "browse");
            tr.set_terminal(
                h,
                t(i + 1),
                TerminalClass::Completed,
                SimDuration::from_millis(1),
            );
            tr.release(h);
        }
        let log = tr.into_log().expect("enabled");
        assert_eq!(log.promoted, 5);
        assert_eq!(log.evicted, 3);
        let ids: Vec<u64> = log.traces.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![3, 4]);
        assert!(log.get(4).is_some());
        assert!(log.get(0).is_none());
    }

    #[test]
    fn unterminated_traces_are_counted_not_promoted() {
        let mut tr = Tracer::new(TraceConfig::always(), rng());
        let h = tr.start(t(0), "browse");
        tr.release(h);
        let log = tr.into_log().expect("enabled");
        assert_eq!(log.unterminated, 1);
        assert!(log.traces.is_empty());
    }

    #[test]
    fn sampling_stream_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut tr = Tracer::new(
                TraceConfig::sampled(0.5),
                SimRng::seed_from(seed).fork("trace-sample"),
            );
            let mut kept = Vec::new();
            for i in 0..64u64 {
                let h = tr.start(t(i), "browse");
                tr.set_terminal(h, t(i), TerminalClass::Completed, SimDuration::ZERO);
                tr.release(h);
            }
            let log = tr.into_log().expect("enabled");
            for tr in &log.traces {
                kept.push(tr.id);
            }
            kept
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should sample differently");
    }
}
