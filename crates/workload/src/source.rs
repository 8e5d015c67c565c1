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
//! sequence of `rng` states it is handed). The engine hands every pull its
//! `"mix"` rng fork, which nothing else draws from in a streamed run (only
//! a closed loop samples its mix there), so the arrival stream depends only
//! on the run seed — never on thread count or interleaving with other
//! engine draws. Sources that replay fixed data (a `VecSource`, a cluster
//! trace) draw nothing at all.
//! Two further rules hold for every source:
//!
//! * **Monotone times.** `next_arrival` results must be non-decreasing.
//! * **Sticky exhaustion.** After returning `None`, every later call must
//!   return `None` *without consuming rng draws* (a consumer may poll a
//!   drained source again).

use ntier_des::rng::SimRng;
use ntier_des::time::{SimDuration, SimTime};

use crate::open_loop::{Mmpp2, PoissonProcess};

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

/// A materialized arrival list as a source — the bridge between the eager
/// world (`Vec<(SimTime, P)>`) and the streaming one. Items must be sorted
/// by time; wrapping makes no pass to check it, and the engine's guard
/// turns an unsorted list into a `workload_fault` when it is replayed.
#[derive(Debug)]
pub struct VecSource<P> {
    items: std::vec::IntoIter<(SimTime, P)>,
}

impl<P> VecSource<P> {
    /// Wraps a sorted `(time, payload)` list.
    pub fn new(items: Vec<(SimTime, P)>) -> Self {
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
    fn vec_source_replays_exactly() {
        let v = vec![
            (SimTime::from_millis(1), 'a'),
            (SimTime::from_millis(2), 'b'),
        ];
        let mut src = VecSource::new(v.clone());
        let mut rng = SimRng::seed_from(1);
        assert_eq!(materialize(&mut src, &mut rng), v);
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
