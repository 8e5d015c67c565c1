//! Pull-based arrival sources — the streaming workload layer.
//!
//! Every generator in this crate can materialize its arrivals into a
//! `Vec<SimTime>`, which is fine at Fig.-1 scale (~7k clients) and fatal at
//! trace scale (millions of logical users over hours): the vector alone
//! dwarfs the engine's O(active requests) state. An [`ArrivalSource`] is
//! the lazy form: the engine *pulls* one arrival at a time, so workload
//! memory is O(1) per generator (plus O(active) for sources that must
//! buffer, like the cluster-trace instance merge).
//!
//! # Determinism contract
//!
//! A source must be a pure function of (its construction parameters, the
//! sequence of `rng` states it is handed). The engine dedicates one named
//! rng fork (`"arrival-source"`) to workload pulls and consumes it nowhere
//! else, so the arrival stream depends only on the run seed — never on
//! thread count or interleaving with other engine draws.
//! Two further rules keep sources composable:
//!
//! * **Monotone times.** `next_arrival` results must be non-decreasing.
//! * **Sticky exhaustion.** After returning `None`, every later call must
//!   return `None` *without consuming rng draws* (compositors may poll a
//!   drained source again).

use ntier_des::rng::SimRng;
use ntier_des::time::{SimDuration, SimTime};

use crate::closed_loop::ClosedLoopSpec;
use crate::flash_crowd::FlashCrowd;
use crate::open_loop::{Mmpp2, PoissonProcess};
use crate::scheduled::BurstSchedule;

/// A lazily generated arrival process: each pull yields the next arrival
/// time plus a per-arrival payload (`()` for plain time processes; the
/// engine layers request plans on top).
pub trait ArrivalSource {
    /// What rides along with each arrival time.
    type Payload;

    /// The next arrival at or after the previous one, or `None` when the
    /// process is exhausted. See the module docs for the determinism
    /// contract (monotone times, sticky exhaustion).
    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, Self::Payload)>;

    /// Why the stream ended, if it ended abnormally (e.g. a trace parse
    /// error). Healthy sources return `None`; checked by consumers after
    /// exhaustion.
    fn fault(&self) -> Option<&str> {
        None
    }
}

impl<S: ArrivalSource + ?Sized> ArrivalSource for Box<S> {
    type Payload = S::Payload;

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, Self::Payload)> {
        (**self).next_arrival(rng)
    }

    fn fault(&self) -> Option<&str> {
        (**self).fault()
    }
}

/// A materialized arrival list as a source — the bridge between the eager
/// world (`Vec<(SimTime, P)>`) and the streaming one. Items must be sorted
/// by time; `new` asserts it.
#[derive(Debug)]
pub struct VecSource<P> {
    items: std::vec::IntoIter<(SimTime, P)>,
}

impl<P> VecSource<P> {
    /// Wraps a sorted `(time, payload)` list.
    ///
    /// # Panics
    ///
    /// Panics if the times are not non-decreasing.
    pub fn new(items: Vec<(SimTime, P)>) -> Self {
        assert!(
            items.windows(2).all(|w| w[0].0 <= w[1].0),
            "VecSource items must be sorted by time"
        );
        VecSource {
            items: items.into_iter(),
        }
    }
}

impl VecSource<()> {
    /// Wraps a sorted list of bare arrival times.
    pub fn times(times: Vec<SimTime>) -> Self {
        VecSource::new(times.into_iter().map(|t| (t, ())).collect())
    }
}

impl<P> ArrivalSource for VecSource<P> {
    type Payload = P;

    fn next_arrival(&mut self, _rng: &mut SimRng) -> Option<(SimTime, P)> {
        self.items.next()
    }
}

/// [`PoissonProcess`] as a streaming source over `[0, horizon)`. Draw
/// sequence is identical to [`PoissonProcess::arrivals`], so the streamed
/// and materialized forms agree arrival-for-arrival.
#[derive(Debug, Clone)]
pub struct PoissonSource {
    proc: PoissonProcess,
    t: SimTime,
    end: SimTime,
    done: bool,
}

impl PoissonSource {
    /// Streams `proc` through `horizon`.
    pub fn new(proc: PoissonProcess, horizon: SimDuration) -> Self {
        PoissonSource {
            proc,
            t: SimTime::ZERO,
            end: SimTime::ZERO + horizon,
            done: false,
        }
    }
}

impl ArrivalSource for PoissonSource {
    type Payload = ();

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, ())> {
        if self.done {
            return None;
        }
        let t = self.t + self.proc.next_gap(rng);
        if t >= self.end {
            self.done = true;
            return None;
        }
        self.t = t;
        Some((t, ()))
    }
}

/// [`Mmpp2`] as a streaming source over `[0, horizon)`; drawn via
/// [`Mmpp2::next_before`], so it consumes rng exactly like the
/// materializing form.
#[derive(Debug, Clone)]
pub struct MmppSource {
    mmpp: Mmpp2,
    t: SimTime,
    end: SimTime,
    done: bool,
}

impl MmppSource {
    /// Streams `mmpp` through `horizon`.
    pub fn new(mmpp: Mmpp2, horizon: SimDuration) -> Self {
        MmppSource {
            mmpp,
            t: SimTime::ZERO,
            end: SimTime::ZERO + horizon,
            done: false,
        }
    }
}

impl ArrivalSource for MmppSource {
    type Payload = ();

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, ())> {
        if self.done {
            return None;
        }
        match self.mmpp.next_before(self.t, self.end, rng) {
            Some(t) => {
                self.t = t;
                Some((t, ()))
            }
            None => {
                self.done = true;
                None
            }
        }
    }
}

/// [`FlashCrowd`] as a streaming source over `[0, horizon)`.
#[derive(Debug, Clone)]
pub struct FlashCrowdSource {
    crowd: FlashCrowd,
    t: SimTime,
    end: SimTime,
    done: bool,
}

impl FlashCrowdSource {
    /// Streams `crowd` through `horizon`.
    pub fn new(crowd: FlashCrowd, horizon: SimDuration) -> Self {
        FlashCrowdSource {
            crowd,
            t: SimTime::ZERO,
            end: SimTime::ZERO + horizon,
            done: false,
        }
    }
}

impl ArrivalSource for FlashCrowdSource {
    type Payload = ();

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, ())> {
        if self.done {
            return None;
        }
        match self.crowd.next_before(self.t, self.end, rng) {
            Some(t) => {
                self.t = t;
                Some((t, ()))
            }
            None => {
                self.done = true;
                None
            }
        }
    }
}

/// One in-progress burst of a [`BurstSource`]: emission cursor over the
/// batch's spread window (the next emission time lives in the heap).
#[derive(Debug, Clone, Copy)]
struct BurstCursor {
    at: SimTime,
    spread: SimDuration,
    emitted: u32,
    size: u32,
}

impl BurstCursor {
    fn offset(at: SimTime, spread: SimDuration, i: u32, size: u32) -> SimTime {
        if spread.is_zero() || size <= 1 {
            at
        } else {
            at + SimDuration::from_micros(spread.as_micros() * u64::from(i) / u64::from(size - 1))
        }
    }
}

/// [`BurstSchedule`] as a streaming source: batches are expanded lazily,
/// with overlapping spread windows merged in `(time, burst)` order —
/// byte-compatible with the sorted output of [`BurstSchedule::arrivals`].
#[derive(Debug)]
pub struct BurstSource {
    /// Remaining bursts, soonest first (reversed vec, popped from the end).
    pending: Vec<(SimTime, u32)>,
    spread: SimDuration,
    active: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
    cursors: Vec<BurstCursor>,
    admitted: usize,
}

impl BurstSource {
    /// Streams `schedule`'s batches.
    pub fn new(schedule: &BurstSchedule) -> Self {
        let mut pending: Vec<(SimTime, u32)> = schedule
            .bursts()
            .iter()
            .filter(|b| b.size > 0)
            .map(|b| (b.at, b.size))
            .collect();
        pending.reverse();
        BurstSource {
            pending,
            spread: schedule.spread(),
            active: std::collections::BinaryHeap::new(),
            cursors: Vec::new(),
            admitted: 0,
        }
    }

    fn admit_due(&mut self) {
        // Admit every burst that could precede the current frontier: the
        // next burst starts at its `at`, so anything with `at` ≤ the
        // earliest active emission must join the merge.
        while let Some(&(at, size)) = self.pending.last() {
            let frontier = self.active.peek().map(|r| r.0 .0);
            if frontier.is_some_and(|f| at > f) {
                break;
            }
            self.pending.pop();
            let seq = self.admitted;
            self.admitted += 1;
            let first = BurstCursor::offset(at, self.spread, 0, size);
            self.cursors.push(BurstCursor {
                at,
                spread: self.spread,
                emitted: 0,
                size,
            });
            self.active.push(std::cmp::Reverse((first, seq)));
        }
    }
}

impl ArrivalSource for BurstSource {
    type Payload = ();

    fn next_arrival(&mut self, _rng: &mut SimRng) -> Option<(SimTime, ())> {
        self.admit_due();
        let std::cmp::Reverse((t, seq)) = self.active.pop()?;
        let c = &mut self.cursors[seq];
        c.emitted += 1;
        if c.emitted < c.size {
            let next = BurstCursor::offset(c.at, c.spread, c.emitted, c.size);
            self.active.push(std::cmp::Reverse((next, seq)));
        }
        Some((t, ()))
    }
}

/// A closed-loop population's *initial* sends as a source: one arrival per
/// client, offsets drawn in client order at construction (the same order
/// the engine's eager path uses) and emitted sorted by `(time, client)`.
/// The payload is the client index. O(clients) memory is inherent — a
/// closed population *is* per-client state; the think-time feedback loop
/// stays engine-driven.
#[derive(Debug)]
pub struct ClosedLoopStarts {
    starts: Vec<(SimTime, u32)>,
    next: usize,
}

impl ClosedLoopStarts {
    /// Draws every client's start offset from `rng` (stationary or ramped,
    /// per the spec) and sorts.
    pub fn new(spec: &ClosedLoopSpec, rng: &mut SimRng) -> Self {
        let mut starts: Vec<(SimTime, u32)> = (0..spec.clients())
            .map(|c| (SimTime::ZERO + spec.start_offset(rng), c))
            .collect();
        starts.sort();
        ClosedLoopStarts { starts, next: 0 }
    }
}

impl ArrivalSource for ClosedLoopStarts {
    type Payload = u32;

    fn next_arrival(&mut self, _rng: &mut SimRng) -> Option<(SimTime, u32)> {
        let &(t, c) = self.starts.get(self.next)?;
        self.next += 1;
        Some((t, c))
    }
}

/// A time-varying rate multiplier in `[0, 1]`, applied to a source by
/// thinning (see [`Modulated`]). `1.0` keeps every arrival; `0.25` keeps a
/// quarter of them.
#[derive(Debug, Clone, PartialEq)]
pub enum RateEnvelope {
    /// A smooth diurnal curve: the fraction swings from `floor` (trough,
    /// at t = 0 and every full period) up to 1.0 (peak, at half-period)
    /// following a raised cosine.
    Diurnal {
        /// Length of one day (or one full cycle).
        period: SimDuration,
        /// Trough fraction in `[0, 1]`.
        floor: f64,
    },
    /// Piecewise-constant fractions: `(from, fraction)` steps sorted by
    /// time; the fraction before the first step is 1.0.
    Steps(Vec<(SimTime, f64)>),
}

impl RateEnvelope {
    /// The keep-fraction at `t`.
    ///
    /// # Panics
    ///
    /// Panics if the envelope is malformed (fraction outside `[0, 1]`,
    /// zero period, unsorted steps) — checked on first use.
    pub fn fraction_at(&self, t: SimTime) -> f64 {
        match self {
            RateEnvelope::Diurnal { period, floor } => {
                assert!(!period.is_zero(), "diurnal period must be non-zero");
                assert!(
                    (0.0..=1.0).contains(floor),
                    "diurnal floor must be in [0, 1]"
                );
                let phase = (t.as_micros() % period.as_micros()) as f64 / period.as_micros() as f64
                    * std::f64::consts::TAU;
                floor + (1.0 - floor) * 0.5 * (1.0 - phase.cos())
            }
            RateEnvelope::Steps(steps) => {
                let mut f = 1.0;
                let mut last = SimTime::ZERO;
                for &(from, frac) in steps {
                    assert!(
                        (0.0..=1.0).contains(&frac),
                        "step fraction must be in [0, 1]"
                    );
                    assert!(from >= last, "envelope steps must be sorted");
                    last = from;
                    if from <= t {
                        f = frac;
                    } else {
                        break;
                    }
                }
                f
            }
        }
    }
}

/// Thins an inner source by a [`RateEnvelope`]: each candidate arrival at
/// `t` is kept with probability `fraction_at(t)`. For a Poisson inner
/// process at peak rate this is the exact non-homogeneous Poisson process
/// with intensity `rate × fraction(t)`; for other processes it is
/// probabilistic thinning of the point pattern.
#[derive(Debug)]
pub struct Modulated<S> {
    inner: S,
    envelope: RateEnvelope,
}

impl<S> Modulated<S> {
    /// Applies `envelope` to `inner`.
    pub fn new(inner: S, envelope: RateEnvelope) -> Self {
        Modulated { inner, envelope }
    }
}

impl<S: ArrivalSource> ArrivalSource for Modulated<S> {
    type Payload = S::Payload;

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, S::Payload)> {
        loop {
            let (t, p) = self.inner.next_arrival(rng)?;
            if rng.next_f64() < self.envelope.fraction_at(t) {
                return Some((t, p));
            }
        }
    }

    fn fault(&self) -> Option<&str> {
        self.inner.fault()
    }
}

/// Amplifies an inner source ×`k`: each inner arrival at `tᵢ` is replayed
/// as `k` copies spread evenly over the gap to the next inner arrival
/// (`tᵢ + j·(tᵢ₊₁−tᵢ)/k`, j = 0..k), so burst structure is preserved while
/// the count scales — the lever that turns a small checked-in trace
/// fixture into millions of logical users without materializing any of
/// them. The final inner arrival reuses the preceding gap (a lone arrival
/// emits all copies at its own time). Deterministic: consumes no rng.
#[derive(Debug)]
pub struct Replicate<S: ArrivalSource> {
    inner: S,
    k: u32,
    cur: Option<(SimTime, S::Payload)>,
    next: Option<(SimTime, S::Payload)>,
    j: u32,
    prev_gap: SimDuration,
    primed: bool,
}

impl<S: ArrivalSource> Replicate<S> {
    /// Replays each inner arrival `k` times.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(inner: S, k: u32) -> Self {
        assert!(k > 0, "replication factor must be at least 1");
        Replicate {
            inner,
            k,
            cur: None,
            next: None,
            j: 0,
            prev_gap: SimDuration::ZERO,
            primed: false,
        }
    }
}

impl<S: ArrivalSource> ArrivalSource for Replicate<S>
where
    S::Payload: Clone,
{
    type Payload = S::Payload;

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, S::Payload)> {
        if !self.primed {
            self.cur = self.inner.next_arrival(rng);
            self.next = self.inner.next_arrival(rng);
            self.primed = true;
        }
        loop {
            let t0 = self.cur.as_ref()?.0;
            let gap = match &self.next {
                Some((t1, _)) => *t1 - t0,
                None => self.prev_gap,
            };
            if self.j < self.k {
                let at = t0
                    + SimDuration::from_micros(
                        gap.as_micros() * u64::from(self.j) / u64::from(self.k),
                    );
                self.j += 1;
                let p = self.cur.as_ref().expect("checked above").1.clone();
                return Some((at, p));
            }
            self.prev_gap = gap;
            self.cur = self.next.take();
            self.next = self.inner.next_arrival(rng);
            self.j = 0;
        }
    }

    fn fault(&self) -> Option<&str> {
        self.inner.fault()
    }
}

/// Superposition of several sources of the same type, merged in
/// deterministic `(time, source index)` order. Heads are pulled in index
/// order (fixing the rng consumption order), then the earliest is emitted.
/// For heterogeneous sources, box them: `Superpose<Box<dyn ArrivalSource<
/// Payload = P> + Send>>`.
#[derive(Debug)]
pub struct Superpose<S: ArrivalSource> {
    sources: Vec<S>,
    heads: Vec<Option<(SimTime, S::Payload)>>,
    primed: bool,
}

impl<S: ArrivalSource> Superpose<S> {
    /// Merges `sources`.
    pub fn new(sources: Vec<S>) -> Self {
        let heads = sources.iter().map(|_| None).collect();
        Superpose {
            sources,
            heads,
            primed: false,
        }
    }
}

impl<S: ArrivalSource> ArrivalSource for Superpose<S> {
    type Payload = S::Payload;

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, S::Payload)> {
        if !self.primed {
            for (i, s) in self.sources.iter_mut().enumerate() {
                self.heads[i] = s.next_arrival(rng);
            }
            self.primed = true;
        }
        let winner = self
            .heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.as_ref().map(|(t, _)| (*t, i)))
            .min()?
            .1;
        let out = self.heads[winner].take().expect("winner has a head");
        self.heads[winner] = self.sources[winner].next_arrival(rng);
        Some(out)
    }

    fn fault(&self) -> Option<&str> {
        self.sources.iter().find_map(|s| s.fault())
    }
}

/// Drains a source into a sorted `(time, payload)` vector — the
/// materializing bridge for tests and small runs.
pub fn materialize<S: ArrivalSource>(src: &mut S, rng: &mut SimRng) -> Vec<(SimTime, S::Payload)> {
    let mut out = Vec::new();
    while let Some(item) = src.next_arrival(rng) {
        out.push(item);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times<S: ArrivalSource>(src: &mut S, rng: &mut SimRng) -> Vec<SimTime> {
        materialize(src, rng).into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn poisson_source_matches_materialized_arrivals() {
        let p = PoissonProcess::new(500.0);
        let horizon = SimDuration::from_secs(10);
        let eager = p.arrivals(horizon, &mut SimRng::seed_from(3));
        let mut src = PoissonSource::new(p, horizon);
        let lazy = times(&mut src, &mut SimRng::seed_from(3));
        assert_eq!(eager, lazy);
    }

    #[test]
    fn mmpp_source_matches_materialized_arrivals() {
        let horizon = SimDuration::from_secs(30);
        let eager =
            Mmpp2::new(200.0, 3_000.0, 5.0, 0.3).arrivals(horizon, &mut SimRng::seed_from(11));
        let mut src = MmppSource::new(Mmpp2::new(200.0, 3_000.0, 5.0, 0.3), horizon);
        let lazy = times(&mut src, &mut SimRng::seed_from(11));
        assert_eq!(eager, lazy);
    }

    #[test]
    fn flash_crowd_source_matches_materialized_arrivals() {
        let c = FlashCrowd::new(100.0, 900.0, SimTime::from_secs(5), 4.0);
        let horizon = SimDuration::from_secs(20);
        let eager = c.arrivals(horizon, &mut SimRng::seed_from(23));
        let mut src = FlashCrowdSource::new(c, horizon);
        let lazy = times(&mut src, &mut SimRng::seed_from(23));
        assert_eq!(eager, lazy);
    }

    #[test]
    fn burst_source_matches_sorted_expansion() {
        // Overlapping spread windows force the internal merge.
        let s = BurstSchedule::from_bursts([
            (SimTime::from_millis(100), 5),
            (SimTime::from_millis(110), 4),
            (SimTime::from_millis(500), 3),
        ])
        .with_spread(SimDuration::from_millis(40));
        let eager = s.arrivals();
        let mut src = BurstSource::new(&s);
        let lazy = times(&mut src, &mut SimRng::seed_from(0));
        assert_eq!(eager, lazy);
    }

    #[test]
    fn closed_loop_starts_are_sorted_and_cover_all_clients() {
        let spec = ClosedLoopSpec::rubbos(50);
        let mut rng = SimRng::seed_from(4);
        let mut src = ClosedLoopStarts::new(&spec, &mut rng);
        let all = materialize(&mut src, &mut rng);
        assert_eq!(all.len(), 50);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut clients: Vec<u32> = all.iter().map(|(_, c)| *c).collect();
        clients.sort_unstable();
        assert_eq!(clients, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn vec_source_replays_exactly_and_rejects_unsorted() {
        let v = vec![
            (SimTime::from_millis(1), 'a'),
            (SimTime::from_millis(2), 'b'),
        ];
        let mut src = VecSource::new(v.clone());
        let mut rng = SimRng::seed_from(1);
        assert_eq!(materialize(&mut src, &mut rng), v);
        assert!(std::panic::catch_unwind(|| {
            VecSource::new(vec![
                (SimTime::from_millis(2), ()),
                (SimTime::from_millis(1), ()),
            ])
        })
        .is_err());
    }

    #[test]
    fn diurnal_envelope_swings_floor_to_peak() {
        let e = RateEnvelope::Diurnal {
            period: SimDuration::from_secs(100),
            floor: 0.2,
        };
        assert!((e.fraction_at(SimTime::ZERO) - 0.2).abs() < 1e-9);
        assert!((e.fraction_at(SimTime::from_secs(50)) - 1.0).abs() < 1e-9);
        let quarter = e.fraction_at(SimTime::from_secs(25));
        assert!((quarter - 0.6).abs() < 1e-9, "quarter {quarter}");
    }

    #[test]
    fn step_envelope_holds_last_value() {
        let e = RateEnvelope::Steps(vec![
            (SimTime::from_secs(10), 0.5),
            (SimTime::from_secs(20), 0.1),
        ]);
        assert_eq!(e.fraction_at(SimTime::from_secs(5)), 1.0);
        assert_eq!(e.fraction_at(SimTime::from_secs(10)), 0.5);
        assert_eq!(e.fraction_at(SimTime::from_secs(30)), 0.1);
    }

    #[test]
    fn modulated_poisson_tracks_the_envelope_rate() {
        // Poisson 1000/s thinned to 25% should land near 250/s.
        let horizon = SimDuration::from_secs(40);
        let mut src = Modulated::new(
            PoissonSource::new(PoissonProcess::new(1_000.0), horizon),
            RateEnvelope::Steps(vec![(SimTime::ZERO, 0.25)]),
        );
        let mut rng = SimRng::seed_from(7);
        let n = times(&mut src, &mut rng).len() as f64 / 40.0;
        assert!((n - 250.0).abs() < 30.0, "rate {n}");
    }

    #[test]
    fn replicate_scales_count_and_preserves_order() {
        let base = vec![
            SimTime::from_millis(100),
            SimTime::from_millis(200),
            SimTime::from_millis(1_000),
        ];
        let mut src = Replicate::new(VecSource::times(base), 10);
        let mut rng = SimRng::seed_from(1);
        let out = times(&mut src, &mut rng);
        assert_eq!(out.len(), 30);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        // First copy of each original sits at the original time.
        assert_eq!(out[0], SimTime::from_millis(100));
        assert_eq!(out[10], SimTime::from_millis(200));
        assert_eq!(out[20], SimTime::from_millis(1_000));
        // Copies of arrival i stay strictly before arrival i+1.
        assert!(out[9] < SimTime::from_millis(200));
        assert!(out[19] < SimTime::from_millis(1_000));
    }

    #[test]
    fn superpose_merges_in_time_then_index_order() {
        let a = VecSource::times(vec![SimTime::from_millis(1), SimTime::from_millis(5)]);
        let b = VecSource::times(vec![SimTime::from_millis(1), SimTime::from_millis(3)]);
        let mut src = Superpose::new(vec![a, b]);
        let mut rng = SimRng::seed_from(1);
        let out = times(&mut src, &mut rng);
        assert_eq!(
            out,
            vec![
                SimTime::from_millis(1), // source 0 wins the tie
                SimTime::from_millis(1),
                SimTime::from_millis(3),
                SimTime::from_millis(5),
            ]
        );
    }

    #[test]
    fn superposed_poissons_match_the_summed_rate() {
        let horizon = SimDuration::from_secs(30);
        let mut src = Superpose::new(vec![
            PoissonSource::new(PoissonProcess::new(100.0), horizon),
            PoissonSource::new(PoissonProcess::new(300.0), horizon),
        ]);
        let mut rng = SimRng::seed_from(5);
        let n = times(&mut src, &mut rng).len() as f64 / 30.0;
        assert!((n - 400.0).abs() < 40.0, "rate {n}");
    }

    #[test]
    fn exhausted_sources_stay_exhausted_without_consuming_rng() {
        // Two identical rngs: one serves a source that is polled past
        // exhaustion, the other counts the draws the live pulls made. If
        // sticky exhaustion leaked draws, the post-poll streams diverge.
        let mut rng_a = SimRng::seed_from(2);
        let mut rng_b = SimRng::seed_from(2);
        let mut src = PoissonSource::new(PoissonProcess::new(10.0), SimDuration::from_secs(1));
        let mut draws = 0;
        while src.next_arrival(&mut rng_a).is_some() {
            draws += 1;
        }
        draws += 1; // the exhausting pull itself drew one gap
        for _ in 0..draws {
            rng_b.next_f64_open();
        }
        for _ in 0..5 {
            assert!(src.next_arrival(&mut rng_a).is_none());
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }
}
