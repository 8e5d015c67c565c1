//! Per-request execution plans.
//!
//! A [`Plan`] is the compiled form of a request: for every tier in the
//! chain, the *visits* the request makes there, and within each visit the
//! CPU slices interleaved with downstream calls. For a tier-`i` visit with
//! slices `[s0, s1, ..., sk]`, the request executes `s0`, issues a call to
//! tier `i+1` (consuming that tier's next visit), continues with `s1` when
//! the reply arrives, and so on; after the final slice it replies upstream.
//!
//! The 3-tier RUBBoS shape ([`Plan::compile`]) is:
//!
//! * web tier — static requests run one slice and reply; dynamic requests
//!   run a pre slice, call the app tier, then a post slice;
//! * app tier — `queries + 1` slices with one database query between
//!   consecutive slices (the Fig. 14 structure). The *first* slice is
//!   deliberately small (5 % of the app demand): real app servers parse and
//!   dispatch the first query almost immediately, which is what lets a
//!   post-stall batch flood the database (Fig. 9);
//! * db tier — each query is an independent visit with a single slice.
//!
//! Arbitrary-depth chains are built with [`Plan::pipeline`], call trees
//! with [`Plan::tree_pipeline`].
//!
//! # Buffer layout
//!
//! A plan is one immutable `[SimDuration]` buffer behind a single [`Arc`],
//! written front to back by one encoder, so building a plan is exactly one
//! heap allocation and sharing it is a reference-count bump. With `n`
//! tiers and `V` visits in all, the words are:
//!
//! | words | meaning |
//! |---|---|
//! | `0` | the depth `n` |
//! | `1 ..= n + 1` | visit table: tier `t` owns global visits `w[1 + t] .. w[2 + t]` |
//! | `n + 2 ..= n + 2 + V` | slice table: global visit `g` owns words `w[n + 2 + g] .. w[n + 3 + g]` |
//! | the rest | every visit's slices, tier by tier, visit by visit |
//!
//! Table words hold plain counts and indexes in the microsecond field, so
//! [`Plan::slices_at`] lends a slice straight out of the same buffer.
//! The encoding is canonical: two plans are equal exactly when their
//! tiers, visits and slices are.

use std::fmt;
use std::iter;
use std::sync::Arc;

use ntier_des::time::SimDuration;
use ntier_workload::{RequestKind, SampledRequest};

use crate::topology::TopologyShape;

/// Fraction of the app demand spent before the first query.
pub const APP_PRE_QUERY_FRACTION: f64 = 0.05;

/// Fraction of the web demand spent before forwarding a dynamic request.
pub const WEB_PRE_FORWARD_FRACTION: f64 = 0.7;

/// The compiled execution plan of one request across the whole chain.
///
/// One buffer behind an [`Arc`] (see the [module docs](self) for the
/// layout): cloning a plan (retries, open-plan arrival tables) is a
/// reference-count bump rather than a deep copy.
#[derive(Clone, PartialEq, Eq)]
pub struct Plan {
    buf: Arc<[SimDuration]>,
}

/// A table word: a count or buffer index stored in a slot's microseconds.
fn word(k: usize) -> SimDuration {
    SimDuration::from_micros(k as u64)
}

/// Splits `d` into two halves around a call point, the odd microsecond
/// going to the second half.
fn halves(d: SimDuration) -> [SimDuration; 2] {
    let half = SimDuration::from_micros(d.as_micros() / 2);
    [half, d - half]
}

/// Fills a freshly allocated plan buffer front to back; see
/// [`Plan::encode`].
struct Writer<'a> {
    buf: &'a mut [SimDuration],
    depth: usize,
    tiers: usize,
    visits: usize,
    next_slice: usize,
}

impl Writer<'_> {
    /// Starts the next tier; the visits that follow belong to it.
    fn tier(&mut self) {
        self.buf[1 + self.tiers] = word(self.visits);
        self.tiers += 1;
    }

    /// Starts the next visit of the current tier with `slices`.
    fn visit(&mut self, slices: impl IntoIterator<Item = SimDuration>) {
        self.buf[self.depth + 2 + self.visits] = word(self.next_slice);
        self.visits += 1;
        for s in slices {
            self.buf[self.next_slice] = s;
            self.next_slice += 1;
        }
    }
}

impl Plan {
    /// The one encoder behind every constructor: sizes the buffer for
    /// `depth` tiers, `visits` visits and `slices` slices, allocates it
    /// once, and lets `write` fill it tier by tier.
    ///
    /// # Panics
    ///
    /// Panics if `write` does not produce exactly the declared counts.
    fn encode(depth: usize, visits: usize, slices: usize, write: impl FnOnce(&mut Writer)) -> Plan {
        let header = depth + visits + 3;
        // `repeat_n` has an exact length, so the collect sizes the `Arc`
        // allocation up front instead of staging through a `Vec`.
        let mut buf: Arc<[SimDuration]> =
            iter::repeat_n(SimDuration::ZERO, header + slices).collect();
        let b = Arc::get_mut(&mut buf).expect("a fresh buffer is unshared");
        b[0] = word(depth);
        let mut w = Writer {
            buf: b,
            depth,
            tiers: 0,
            visits: 0,
            next_slice: header,
        };
        write(&mut w);
        assert!(
            w.tiers == depth && w.visits == visits && w.next_slice == header + slices,
            "plan encoder wrote {} tiers, {} visits, {} slices; declared {depth}, {visits}, {slices}",
            w.tiers,
            w.visits,
            w.next_slice - header
        );
        w.buf[1 + depth] = word(visits);
        w.buf[header - 1] = word(header + slices);
        Plan { buf }
    }

    /// Table word `k` as an index.
    #[inline]
    fn at(&self, k: usize) -> usize {
        self.buf[k].as_micros() as usize
    }

    /// Compiles a RUBBoS-style sampled request into a 3-tier plan.
    pub fn compile(req: &SampledRequest) -> Plan {
        match req.kind {
            RequestKind::Static => Plan::encode(3, 1, 1, |w| {
                w.tier();
                w.visit([req.web_demand]);
                w.tier();
                w.tier();
            }),
            RequestKind::Dynamic => {
                let web_us = req.web_demand.as_micros();
                let pre_web = (web_us as f64 * WEB_PRE_FORWARD_FRACTION).round() as u64;
                let web = [
                    SimDuration::from_micros(pre_web),
                    SimDuration::from_micros(web_us - pre_web),
                ];
                let queries = req.db_demands.len();
                let app_us = req.app_demand.as_micros();
                let app_slices = if queries == 0 { 1 } else { queries + 1 };
                Plan::encode(3, 2 + queries, 2 + app_slices + queries, |w| {
                    w.tier();
                    w.visit(web);
                    w.tier();
                    if queries == 0 {
                        w.visit([req.app_demand]);
                    } else {
                        let pre = (app_us as f64 * APP_PRE_QUERY_FRACTION).round() as u64;
                        let rest = app_us - pre;
                        let per = rest / queries as u64;
                        // give the remainder to the last slice
                        let last = rest - per * (queries as u64 - 1);
                        w.visit(
                            iter::once(pre)
                                .chain(iter::repeat_n(per, queries - 1))
                                .chain(iter::once(last))
                                .map(SimDuration::from_micros),
                        );
                    }
                    w.tier();
                    for d in &req.db_demands {
                        w.visit([*d]);
                    }
                })
            }
        }
    }

    /// A depth-`n` pipeline: one visit per tier, one call per tier (except
    /// the last), with the tier's demand split evenly around the call.
    ///
    /// # Panics
    ///
    /// Panics if `demands` is empty.
    pub fn pipeline(demands: &[SimDuration]) -> Plan {
        assert!(!demands.is_empty(), "a pipeline needs at least one tier");
        let n = demands.len();
        Plan::encode(n, n, 2 * n - 1, |w| {
            for (i, d) in demands.iter().enumerate() {
                w.tier();
                if i == n - 1 {
                    w.visit([*d]);
                } else {
                    w.visit(halves(*d));
                }
            }
        })
    }

    /// A plan spanning an arbitrary tree [`TopologyShape`]: every node runs
    /// one visit, splitting its demand evenly around its single downstream
    /// call point (fan-out nodes scatter to all children at that point);
    /// leaves run one uninterrupted slice. `demands[i]` is node `i`'s CPU
    /// demand in preorder id order — the tree analogue of
    /// [`Plan::pipeline`].
    ///
    /// # Panics
    ///
    /// Panics if `demands.len() != shape.len()` or the shape is empty.
    pub fn tree_pipeline(shape: &TopologyShape, demands: &[SimDuration]) -> Plan {
        assert!(!shape.is_empty(), "a plan needs at least one tier");
        assert_eq!(
            demands.len(),
            shape.len(),
            "one demand per topology node required"
        );
        let n = demands.len();
        let callers = shape.children.iter().filter(|c| !c.is_empty()).count();
        Plan::encode(n, n, n + callers, |w| {
            for (i, d) in demands.iter().enumerate() {
                w.tier();
                if shape.children[i].is_empty() {
                    w.visit([*d]);
                } else {
                    w.visit(halves(*d));
                }
            }
        })
    }

    /// Validates this plan against a call-graph shape: the root is visited
    /// once; a single-child node's calls equal its child's visit count; a
    /// fan-out node makes exactly one call (one scatter) and each of its
    /// children is visited exactly once (each arm owns its subtree's
    /// visits); leaves call no further. On a chain this is the invariant
    /// that tier `i`'s calls equal tier `i+1`'s visits.
    pub fn matches_shape(&self, shape: &TopologyShape) -> Result<(), String> {
        if self.depth() != shape.len() {
            return Err(format!(
                "plan depth {} does not match the topology's {} nodes",
                self.depth(),
                shape.len()
            ));
        }
        if self.visits(0) != 1 {
            return Err("the root node must be visited exactly once".into());
        }
        for i in 0..self.depth() {
            let kids = &shape.children[i];
            let calls = self.calls_from(i);
            match kids.len() {
                0 => {
                    if calls != 0 {
                        return Err(format!("leaf node {i} issues {calls} downstream calls"));
                    }
                }
                1 => {
                    let visits = self.visits(kids[0]);
                    if calls != visits {
                        return Err(format!(
                            "node {i} issues {calls} calls but its child {} has {visits} visits",
                            kids[0]
                        ));
                    }
                }
                _ => {
                    if calls != 1 {
                        return Err(format!(
                            "fan-out node {i} must make exactly one call (one scatter), got {calls}"
                        ));
                    }
                    for &c in kids {
                        let visits = self.visits(c);
                        if visits != 1 {
                            return Err(format!(
                                "scatter arm {c} must be visited exactly once, got {visits}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Shares the underlying buffer (`Arc` bump, no deep copy).
    /// Identical to [`Clone::clone`]; spelled out for hot-path call sites.
    #[inline]
    pub fn share(&self) -> Plan {
        Plan {
            buf: Arc::clone(&self.buf),
        }
    }

    /// Number of tiers in the chain.
    #[inline]
    pub fn depth(&self) -> usize {
        self.at(0)
    }

    /// Number of visits the request makes at `tier` (0 beyond the chain).
    #[inline]
    pub(crate) fn visits(&self, tier: usize) -> usize {
        if tier < self.depth() {
            self.at(2 + tier) - self.at(1 + tier)
        } else {
            0
        }
    }

    /// `true` if the request never leaves tier 0.
    #[cfg(test)]
    fn is_static(&self) -> bool {
        self.visits(1) == 0
    }

    /// Number of visits to the last tier of a 3-tier plan (database
    /// queries); general chains report the last tier's visit count.
    pub fn queries(&self) -> usize {
        self.visits(self.depth() - 1)
    }

    /// Total CPU demand across all tiers (compilation conserves the sampled
    /// demands).
    pub fn total_demand(&self) -> SimDuration {
        let first = self.at(self.depth() + 2);
        self.buf[first..]
            .iter()
            .fold(SimDuration::ZERO, |a, b| a + *b)
    }

    /// Slices of visit `visit` at `tier`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range tier or visit.
    #[inline]
    pub fn slices_at(&self, tier: usize, visit: usize) -> &[SimDuration] {
        assert!(
            visit < self.visits(tier),
            "no visit {visit} at tier {tier} of a depth-{} plan",
            self.depth()
        );
        let g = self.depth() + 2 + self.at(1 + tier) + visit;
        &self.buf[self.at(g)..self.at(g + 1)]
    }

    /// Number of downstream calls made from `tier` across all its visits.
    fn calls_from(&self, tier: usize) -> usize {
        let n = self.depth();
        if tier < n {
            // The tier's slices span its visits' slice-table entries.
            let slices = self.at(n + 2 + self.at(2 + tier)) - self.at(n + 2 + self.at(1 + tier));
            slices - self.visits(tier)
        } else {
            0
        }
    }
}

impl fmt::Debug for Plan {
    /// The nested view the buffer encodes: per tier, each visit's slices.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tiers: Vec<Vec<&[SimDuration]>> = (0..self.depth())
            .map(|t| (0..self.visits(t)).map(|v| self.slices_at(t, v)).collect())
            .collect();
        f.debug_struct("Plan").field("tiers", &tiers).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntier_des::prelude::*;
    use ntier_workload::RequestMix;
    use proptest::prelude::*;

    fn sample(seed: u64) -> SampledRequest {
        let mix = RequestMix::rubbos_browse();
        let mut rng = SimRng::seed_from(seed);
        mix.sample(&mut rng)
    }

    #[test]
    fn static_plan_has_one_web_slice() {
        let req = SampledRequest {
            class: "static",
            kind: RequestKind::Static,
            web_demand: SimDuration::from_micros(200),
            app_demand: SimDuration::ZERO,
            db_demands: vec![],
        };
        let p = Plan::compile(&req);
        assert!(p.is_static());
        assert_eq!(p.slices_at(0, 0), &[SimDuration::from_micros(200)]);
        assert_eq!(p.calls_from(0), 0);
        assert_eq!(p.calls_from(1), 0);
    }

    #[test]
    fn dynamic_plan_structure_matches_fig14() {
        let req = SampledRequest {
            class: "view_story",
            kind: RequestKind::Dynamic,
            web_demand: SimDuration::from_micros(100),
            app_demand: SimDuration::from_micros(1_000),
            db_demands: vec![SimDuration::from_micros(150), SimDuration::from_micros(200)],
        };
        let p = Plan::compile(&req);
        assert_eq!(p.slices_at(0, 0).len(), 2);
        assert_eq!(p.slices_at(1, 0).len(), 3); // pre, between, post
        assert_eq!(p.queries(), 2);
        assert_eq!(p.calls_from(0), 1);
        assert_eq!(p.calls_from(1), 2);
        // first app slice is the small dispatch slice
        assert_eq!(p.slices_at(1, 0)[0], SimDuration::from_micros(50));
        assert_eq!(p.slices_at(2, 1), &[SimDuration::from_micros(200)]);
    }

    #[test]
    fn compilation_conserves_demand() {
        for seed in 0..50 {
            let req = sample(seed);
            let p = Plan::compile(&req);
            let expect = req.web_demand
                + req.app_demand
                + req.db_demands.iter().fold(SimDuration::ZERO, |a, b| a + *b);
            assert_eq!(p.total_demand(), expect, "seed {seed}");
        }
    }

    #[test]
    fn zero_query_dynamic_request_runs_app_once() {
        let req = SampledRequest {
            class: "app_only",
            kind: RequestKind::Dynamic,
            web_demand: SimDuration::from_micros(100),
            app_demand: SimDuration::from_micros(500),
            db_demands: vec![],
        };
        let p = Plan::compile(&req);
        assert_eq!(p.slices_at(1, 0), &[SimDuration::from_micros(500)]);
        assert_eq!(p.calls_from(1), 0);
    }

    #[test]
    fn pipeline_builds_arbitrary_depths() {
        let p = Plan::pipeline(&[
            SimDuration::from_micros(100),
            SimDuration::from_micros(200),
            SimDuration::from_micros(301),
            SimDuration::from_micros(400),
        ]);
        assert_eq!(p.depth(), 4);
        for i in 0..3 {
            assert_eq!(p.calls_from(i), 1);
        }
        assert_eq!(p.calls_from(3), 0);
        assert_eq!(p.total_demand(), SimDuration::from_micros(1_001));
        // odd demand splits without losing a microsecond
        assert_eq!(
            p.slices_at(2, 0)[0] + p.slices_at(2, 0)[1],
            SimDuration::from_micros(301)
        );
    }

    #[test]
    fn tree_pipeline_matches_its_shape() {
        // web scatters to two shards; shard 0 has a store below it.
        let shape = TopologyShape {
            children: vec![vec![1, 3], vec![2], vec![], vec![]],
            parent: vec![None, Some(0), Some(1), Some(0)],
            quorum: vec![2, 1, 0, 0],
        };
        let d = |us| SimDuration::from_micros(us);
        let p = Plan::tree_pipeline(&shape, &[d(100), d(200), d(300), d(400)]);
        assert_eq!(p.depth(), 4);
        assert_eq!(p.calls_from(0), 1, "one scatter from the fan-out node");
        assert_eq!(p.calls_from(1), 1);
        assert_eq!(p.calls_from(2), 0);
        assert_eq!(p.total_demand(), d(1_000));
        p.matches_shape(&shape)
            .expect("tree pipeline fits its shape");
        // A linear pipeline also validates against the linear shape.
        let chain = Plan::pipeline(&[d(10), d(20), d(30)]);
        chain
            .matches_shape(&TopologyShape::linear(3))
            .expect("chain fits linear shape");
    }

    #[test]
    fn matches_shape_rejects_multi_call_scatter() {
        let shape = TopologyShape {
            children: vec![vec![1, 2], vec![], vec![]],
            parent: vec![None, Some(0), Some(0)],
            quorum: vec![2, 0, 0],
        };
        let d = |us| SimDuration::from_micros(us);
        // Root with 3 slices = 2 call points: illegal for a fan-out node.
        let p = encode_nested(&vec![
            vec![vec![d(1), d(2), d(3)]],
            vec![vec![d(4)], vec![d(5)]],
            vec![],
        ]);
        let err = p.matches_shape(&shape).unwrap_err();
        assert!(err.contains("exactly one call"), "{err}");
    }

    /// The nested form a plan buffer encodes: `r[t][v]` is the slice list
    /// of visit `v` at tier `t`.
    type Nested = Vec<Vec<Vec<SimDuration>>>;

    /// Encodes the nested form as-is, without checking the chain
    /// invariant, so malformed plans can be fed to `matches_shape`.
    fn encode_nested(r: &Nested) -> Plan {
        let visits = r.iter().map(Vec::len).sum();
        let slices = r.iter().flatten().map(Vec::len).sum();
        Plan::encode(r.len(), visits, slices, |w| {
            for t in r {
                w.tier();
                for v in t {
                    w.visit(v.iter().copied());
                }
            }
        })
    }

    fn us(v: &[u64]) -> Vec<SimDuration> {
        v.iter().map(|d| SimDuration::from_micros(*d)).collect()
    }

    /// Reference compile: the nested construction, written out directly.
    fn ref_compile(req: &SampledRequest) -> Nested {
        if req.kind == RequestKind::Static {
            return vec![vec![vec![req.web_demand]], vec![], vec![]];
        }
        let web = req.web_demand.as_micros();
        let pre_web = (web as f64 * WEB_PRE_FORWARD_FRACTION).round() as u64;
        let app = req.app_demand.as_micros();
        let q = req.db_demands.len() as u64;
        let mut app_slices = Vec::new();
        if q == 0 {
            app_slices.push(app);
        } else {
            let pre = (app as f64 * APP_PRE_QUERY_FRACTION).round() as u64;
            let rest = app - pre;
            app_slices.push(pre);
            for i in 0..q {
                app_slices.push(if i == q - 1 {
                    rest - rest / q * (q - 1)
                } else {
                    rest / q
                });
            }
        }
        vec![
            vec![us(&[pre_web, web - pre_web])],
            vec![us(&app_slices)],
            req.db_demands.iter().map(|d| vec![*d]).collect(),
        ]
    }

    /// Reference pipeline node: one visit, halved around a call if it calls.
    fn ref_node(d: u64, calls: bool) -> Vec<Vec<SimDuration>> {
        if calls {
            vec![us(&[d / 2, d - d / 2])]
        } else {
            vec![us(&[d])]
        }
    }

    /// A valid chain: tier 0 visited once, every visit above the last tier
    /// making `pool`'s next call count, slices drawn from `pool` in turn.
    fn ref_chain(depth: usize, pool: &[(usize, u64)]) -> Nested {
        let mut k = 0;
        let mut next = || {
            k += 1;
            pool[(k - 1) % pool.len()]
        };
        let mut visits = 1;
        (0..depth)
            .map(|t| {
                let tier: Vec<Vec<SimDuration>> = (0..visits)
                    .map(|_| {
                        let calls = if t + 1 == depth { 0 } else { next().0 };
                        (0..=calls)
                            .map(|_| SimDuration::from_micros(next().1))
                            .collect()
                    })
                    .collect();
                visits = tier.iter().map(|v| v.len() - 1).sum();
                tier
            })
            .collect()
    }

    /// A tree whose node `i + 1` hangs under `picks[i] % (i + 1)`.
    fn shape_from(picks: &[usize]) -> TopologyShape {
        let n = picks.len() + 1;
        let mut children = vec![Vec::new(); n];
        let mut parent = vec![None; n];
        for (i, p) in picks.iter().enumerate() {
            let p = p % (i + 1);
            children[p].push(i + 1);
            parent[i + 1] = Some(p);
        }
        let quorum = children.iter().map(Vec::len).collect();
        TopologyShape {
            children,
            parent,
            quorum,
        }
    }

    /// Reference [`Plan::matches_shape`] over the nested form.
    fn ref_fits(r: &Nested, shape: &TopologyShape) -> bool {
        let calls = |t: usize| r[t].iter().map(|v| v.len() - 1).sum::<usize>();
        r.len() == shape.len()
            && r[0].len() == 1
            && (0..r.len()).all(|i| match shape.children[i].as_slice() {
                [] => calls(i) == 0,
                [c] => calls(i) == r[*c].len(),
                kids => calls(i) == 1 && kids.iter().all(|c| r[*c].len() == 1),
            })
    }

    /// Every public accessor of `p` agrees with the reference `r`.
    fn check(p: &Plan, r: &Nested) {
        prop_assert_eq!(p.depth(), r.len());
        for t in 0..r.len() + 2 {
            let visits: &[Vec<SimDuration>] = r.get(t).map_or(&[], Vec::as_slice);
            let calls: usize = visits.iter().map(|s| s.len() - 1).sum();
            prop_assert_eq!(p.visits(t), visits.len(), "visits at tier {}", t);
            prop_assert_eq!(p.calls_from(t), calls, "calls from tier {}", t);
            for (v, slices) in visits.iter().enumerate() {
                prop_assert_eq!(p.slices_at(t, v), &slices[..]);
            }
        }
        prop_assert_eq!(p.queries(), r[r.len() - 1].len());
        prop_assert_eq!(p.is_static(), r.len() < 2 || r[1].is_empty());
        let total = r
            .iter()
            .flatten()
            .flatten()
            .fold(SimDuration::ZERO, |a, b| a + *b);
        prop_assert_eq!(p.total_demand(), total);
        prop_assert_eq!(p.share(), p.clone());
    }

    /// [`check`], plus: a chain plan equals the direct encoding of its
    /// nested form (the buffer is canonical), and `matches_shape` agrees
    /// with the reference on every given shape.
    fn check_chain(p: &Plan, r: &Nested, shapes: &[TopologyShape]) {
        check(p, r);
        prop_assert_eq!(&encode_nested(r), p);
        for s in shapes {
            prop_assert_eq!(p.matches_shape(s).is_ok(), ref_fits(r, s), "{:?}", s);
        }
    }

    proptest! {
        /// The flat buffer agrees with the nested reference on random
        /// compiled requests, static and dynamic.
        #[test]
        fn compile_matches_nested_reference(
            dynamic in any::<bool>(),
            web in 0u64..10_000,
            app in 0u64..10_000,
            dbs in proptest::collection::vec(0u64..5_000, 0..9),
        ) {
            let req = SampledRequest {
                class: "x",
                kind: if dynamic { RequestKind::Dynamic } else { RequestKind::Static },
                web_demand: SimDuration::from_micros(web),
                app_demand: if dynamic { SimDuration::from_micros(app) } else { SimDuration::ZERO },
                db_demands: if dynamic { us(&dbs) } else { Vec::new() },
            };
            let r = ref_compile(&req);
            let fan = shape_from(&[0, 0]);
            let shapes = [TopologyShape::linear(3), fan, TopologyShape::linear(2)];
            let p = Plan::compile(&req);
            check_chain(&p, &r, &shapes);
        }

        /// Pipelines and random tree pipelines agree with the reference,
        /// including `matches_shape` against their own and foreign shapes.
        #[test]
        fn pipelines_match_nested_reference(
            demands in proptest::collection::vec(0u64..10_000, 1..8),
            picks in proptest::collection::vec(0usize..8, 0..7),
            other in proptest::collection::vec(0usize..8, 0..7),
        ) {
            let n = demands.len();
            let chain: Nested = demands.iter().enumerate().map(|(i, d)| ref_node(*d, i + 1 < n)).collect();
            let p = Plan::pipeline(&us(&demands));
            let linear = [TopologyShape::linear(n), shape_from(&other)];
            check_chain(&p, &chain, &linear);

            let shape = shape_from(&picks);
            let tree_demands: Vec<u64> = (0..shape.len()).map(|i| demands[i % n]).collect();
            let tree: Nested = tree_demands
                .iter()
                .enumerate()
                .map(|(i, d)| ref_node(*d, !shape.children[i].is_empty()))
                .collect();
            let t = Plan::tree_pipeline(&shape, &us(&tree_demands));
            check(&t, &tree);
            let foreign = shape_from(&other);
            for s in [&shape, &TopologyShape::linear(shape.len()), &foreign] {
                prop_assert_eq!(t.matches_shape(s).is_ok(), ref_fits(&tree, s), "{:?}", s);
            }
            prop_assert!(t.matches_shape(&shape).is_ok());
        }

        /// Arbitrary valid chains, encoded directly, agree with the
        /// reference, including multi-visit tiers.
        #[test]
        fn chains_match_nested_reference(
            depth in 1usize..5,
            pool in proptest::collection::vec((0usize..3, 0u64..10_000), 1..12),
            picks in proptest::collection::vec(0usize..8, 0..4),
        ) {
            let r = ref_chain(depth, &pool);
            let p = encode_nested(&r);
            check_chain(&p, &r, &[TopologyShape::linear(depth), shape_from(&picks)]);
        }
    }

    proptest! {
        /// Demand conservation holds for arbitrary demands/query counts.
        #[test]
        fn conservation(web in 0u64..10_000, app in 0u64..10_000, dbs in proptest::collection::vec(1u64..5_000, 0..6)) {
            let req = SampledRequest {
                class: "x",
                kind: RequestKind::Dynamic,
                web_demand: SimDuration::from_micros(web),
                app_demand: SimDuration::from_micros(app),
                db_demands: dbs.iter().map(|d| SimDuration::from_micros(*d)).collect(),
            };
            let p = Plan::compile(&req);
            let expect = web + app + dbs.iter().sum::<u64>();
            prop_assert_eq!(p.total_demand(), SimDuration::from_micros(expect));
            prop_assert_eq!(p.slices_at(1, 0).len(), dbs.len() + 1);
        }

        /// Pipelines conserve demand at any depth.
        #[test]
        fn pipeline_conservation(demands in proptest::collection::vec(1u64..10_000, 1..8)) {
            let durations: Vec<SimDuration> = demands.iter().map(|d| SimDuration::from_micros(*d)).collect();
            let p = Plan::pipeline(&durations);
            prop_assert_eq!(p.total_demand(), SimDuration::from_micros(demands.iter().sum()));
            prop_assert_eq!(p.depth(), demands.len());
        }
    }
}
