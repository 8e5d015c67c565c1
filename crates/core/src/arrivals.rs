//! Adapters from raw arrival streams to per-request [`Plan`]s.
//!
//! The workload crate's [`ArrivalSource`]s emit times (plus
//! generator-specific payloads); the engine's streaming path consumes
//! `(time, SourcedRequest)` pairs. The adapters here bridge the two —
//! stamping a fixed plan, sampling a [`RequestMix`], applying heavy-tailed
//! per-request demand, or mapping cluster-trace instances through a demand
//! model — while preserving the source's determinism contract: every draw
//! comes from the rng handed to `next_arrival` (the engine's dedicated
//! `"arrival-source"` fork), and faults propagate unchanged.

use std::collections::HashMap;

use ntier_des::dist::{BoundedPareto, Distribution};
use ntier_des::rng::SimRng;
use ntier_des::time::{SimDuration, SimTime};
use ntier_workload::cluster_trace::TraceInstance;
use ntier_workload::source::ArrivalSource;
use ntier_workload::{RequestKind, RequestMix, SampledRequest};

use crate::plan::Plan;

/// One streamed arrival, ready for injection: the class label (for
/// per-class reporting) and the compiled execution plan.
#[derive(Debug, Clone)]
pub struct SourcedRequest {
    /// Class name, surfaced in [`crate::report::RunReport::classes`].
    pub class: &'static str,
    /// The request's execution plan.
    pub plan: Plan,
}

/// Stamps every arrival from `inner` with one fixed plan — the streaming
/// analogue of the plan tables behind `Workload::open_plans`.
#[derive(Debug)]
pub struct PlanStamped<S> {
    inner: S,
    class: &'static str,
    plan: Plan,
}

impl<S> PlanStamped<S> {
    /// Labels every arrival `class` and gives it (a share of) `plan`.
    pub fn new(inner: S, class: &'static str, plan: Plan) -> Self {
        PlanStamped { inner, class, plan }
    }
}

impl<S: ArrivalSource> ArrivalSource for PlanStamped<S> {
    type Payload = SourcedRequest;

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, SourcedRequest)> {
        let (t, _) = self.inner.next_arrival(rng)?;
        Some((
            t,
            SourcedRequest {
                class: self.class,
                plan: self.plan.share(),
            },
        ))
    }

    fn fault(&self) -> Option<&str> {
        self.inner.fault()
    }
}

/// Samples a [`RequestMix`] per arrival and compiles the 3-tier plan —
/// the streaming analogue of `Workload::open`. Mix draws consume the same
/// pull rng as the arrival times, so the stream stays deterministic
/// regardless of runner thread count.
#[derive(Debug)]
pub struct MixPlans<S> {
    inner: S,
    mix: RequestMix,
}

impl<S> MixPlans<S> {
    /// Compiles one `mix` sample per arrival of `inner`.
    pub fn new(inner: S, mix: RequestMix) -> Self {
        MixPlans { inner, mix }
    }
}

impl<S: ArrivalSource> ArrivalSource for MixPlans<S> {
    type Payload = SourcedRequest;

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, SourcedRequest)> {
        let (t, _) = self.inner.next_arrival(rng)?;
        let req = self.mix.sample(rng);
        Some((
            t,
            SourcedRequest {
                class: req.class,
                plan: Plan::compile(&req),
            },
        ))
    }

    fn fault(&self) -> Option<&str> {
        self.inner.fault()
    }
}

/// Heavy-tailed per-request demand: multiplies every slice of the inner
/// plan by a mean-normalized [`BoundedPareto`] draw, so the *average*
/// offered load is unchanged while individual requests can be up to
/// `hi/mean` times heavier — the "elephant request" ingredient of
/// workload-induced long-tail latency.
#[derive(Debug)]
pub struct ParetoDemand<S> {
    inner: S,
    dist: BoundedPareto,
    inv_mean: f64,
}

impl<S> ParetoDemand<S> {
    /// Scales `inner`'s plans by `BoundedPareto(lo, hi, alpha) / mean`.
    ///
    /// # Panics
    ///
    /// Panics on invalid bounds/shape (see [`BoundedPareto::new`]).
    pub fn new(inner: S, lo: f64, hi: f64, alpha: f64) -> Self {
        let dist = BoundedPareto::new(lo, hi, alpha);
        let inv_mean = 1.0 / dist.mean_f64();
        ParetoDemand {
            inner,
            dist,
            inv_mean,
        }
    }
}

impl<S: ArrivalSource<Payload = SourcedRequest>> ArrivalSource for ParetoDemand<S> {
    type Payload = SourcedRequest;

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, SourcedRequest)> {
        let (t, req) = self.inner.next_arrival(rng)?;
        let factor = self.dist.sample_f64(rng) * self.inv_mean;
        Some((
            t,
            SourcedRequest {
                class: req.class,
                plan: req.plan.scaled(factor),
            },
        ))
    }

    fn fault(&self) -> Option<&str> {
        self.inner.fault()
    }
}

/// Maps cluster-trace instances to 3-tier plans: a ViewStory-shaped
/// template whose app-tier demand scales with the instance's requested
/// CPU relative to `reference_cpu` (clamped to `[0.1, 10]` so a redacted
/// or outlier request cannot produce a degenerate plan). Distinct CPU
/// values are memoized, so replaying a trace whose rows reuse a few dozen
/// `plan_cpu` levels allocates a few dozen plans, not one per arrival.
#[derive(Debug)]
pub struct TraceDemandModel {
    template: SampledRequest,
    reference_cpu: f64,
    cache: HashMap<u64, Plan>,
}

/// Cache at most this many distinct CPU levels (real traces use few).
const TRACE_PLAN_CACHE_CAP: usize = 4_096;

impl TraceDemandModel {
    /// A model with explicit per-tier template demands.
    ///
    /// # Panics
    ///
    /// Panics if `reference_cpu` is not strictly positive and finite.
    pub fn new(
        web: SimDuration,
        app: SimDuration,
        db: SimDuration,
        queries: usize,
        reference_cpu: f64,
    ) -> Self {
        assert!(
            reference_cpu.is_finite() && reference_cpu > 0.0,
            "reference cpu must be positive"
        );
        TraceDemandModel {
            template: SampledRequest {
                class: "trace",
                kind: RequestKind::Dynamic,
                web_demand: web,
                app_demand: app,
                db_demands: vec![db; queries],
            },
            reference_cpu,
            cache: HashMap::new(),
        }
    }

    /// The §V-B ViewStory shape (50 µs web, 750 µs app, 2×150 µs db) with
    /// one requested core as the reference demand.
    pub fn paper_default() -> Self {
        TraceDemandModel::new(
            SimDuration::from_micros(50),
            SimDuration::from_micros(750),
            SimDuration::from_micros(150),
            2,
            1.0,
        )
    }

    /// The plan for one trace instance (memoized per CPU level).
    pub fn plan_for(&mut self, inst: &TraceInstance) -> Plan {
        let key = inst.cpu.to_bits();
        if let Some(p) = self.cache.get(&key) {
            return p.share();
        }
        let scale = (inst.cpu / self.reference_cpu).clamp(0.1, 10.0);
        let req = SampledRequest {
            app_demand: SimDuration::from_secs_f64(self.template.app_demand.as_secs_f64() * scale),
            db_demands: self.template.db_demands.clone(),
            ..self.template.clone()
        };
        let plan = Plan::compile(&req);
        if self.cache.len() < TRACE_PLAN_CACHE_CAP {
            self.cache.insert(key, plan.share());
        }
        plan
    }
}

/// Glues a trace-instance source (e.g.
/// [`ntier_workload::cluster_trace::TraceArrivals`]) to the engine via a
/// [`TraceDemandModel`].
#[derive(Debug)]
pub struct TracePlans<S> {
    inner: S,
    model: TraceDemandModel,
}

impl<S> TracePlans<S> {
    /// Maps `inner`'s instances through `model`.
    pub fn new(inner: S, model: TraceDemandModel) -> Self {
        TracePlans { inner, model }
    }
}

impl<S: ArrivalSource<Payload = TraceInstance>> ArrivalSource for TracePlans<S> {
    type Payload = SourcedRequest;

    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<(SimTime, SourcedRequest)> {
        let (t, inst) = self.inner.next_arrival(rng)?;
        let plan = self.model.plan_for(&inst);
        Some((
            t,
            SourcedRequest {
                class: "trace",
                plan,
            },
        ))
    }

    fn fault(&self) -> Option<&str> {
        self.inner.fault()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntier_workload::source::{materialize, PoissonSource, VecSource};
    use ntier_workload::{Mmpp2, PoissonProcess};

    fn times(n: u64) -> VecSource<()> {
        VecSource::times((1..=n).map(SimTime::from_secs).collect())
    }

    #[test]
    fn plan_stamped_shares_one_plan() {
        let plan = Plan::pipeline(&[SimDuration::from_micros(100), SimDuration::from_micros(200)]);
        let mut src = PlanStamped::new(times(3), "custom", plan.share());
        let mut rng = SimRng::seed_from(1);
        let out = materialize(&mut src, &mut rng);
        assert_eq!(out.len(), 3);
        for (_, req) in &out {
            assert_eq!(req.class, "custom");
            assert_eq!(req.plan, plan);
        }
    }

    #[test]
    fn mix_plans_draws_match_a_manual_replay() {
        let rate = PoissonProcess::new(500.0);
        let horizon = SimDuration::from_secs(4);
        let mut src = MixPlans::new(
            PoissonSource::new(rate, horizon),
            RequestMix::rubbos_browse(),
        );
        let mut rng = SimRng::seed_from(9);
        let out = materialize(&mut src, &mut rng);

        // Replay by hand: same rng, alternating gap draw / mix sample.
        let mix = RequestMix::rubbos_browse();
        let mut replay = SimRng::seed_from(9);
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + horizon;
        let mut expected = Vec::new();
        loop {
            t += rate.next_gap(&mut replay);
            if t >= end {
                break;
            }
            let req = mix.sample(&mut replay);
            expected.push((t, req.class, Plan::compile(&req)));
        }
        assert_eq!(out.len(), expected.len());
        for ((t, req), (et, class, plan)) in out.iter().zip(&expected) {
            assert_eq!(t, et);
            assert_eq!(req.class, *class);
            assert_eq!(&req.plan, plan);
        }
    }

    #[test]
    fn pareto_demand_preserves_mean_and_bounds_the_tail() {
        let plan = Plan::pipeline(&[SimDuration::from_micros(500), SimDuration::from_micros(500)]);
        let base = plan.total_demand().as_secs_f64();
        let mut src = ParetoDemand::new(PlanStamped::new(times(20_000), "x", plan), 1.0, 50.0, 1.5);
        let mut rng = SimRng::seed_from(5);
        let out = materialize(&mut src, &mut rng);
        let demands: Vec<f64> = out
            .iter()
            .map(|(_, r)| r.plan.total_demand().as_secs_f64())
            .collect();
        let mean = demands.iter().sum::<f64>() / demands.len() as f64;
        assert!(
            (mean - base).abs() / base < 0.05,
            "mean demand drifted: {mean} vs {base}"
        );
        let max = demands.iter().cloned().fold(0.0, f64::max);
        assert!(max > 3.0 * base, "tail too light: {max}");
        let dist = BoundedPareto::new(1.0, 50.0, 1.5);
        let cap = base * 50.0 / dist.mean_f64() * 1.001;
        assert!(max <= cap, "tail exceeds the bound: {max} > {cap}");
    }

    #[test]
    fn trace_model_scales_with_cpu_and_memoizes() {
        let mut model = TraceDemandModel::paper_default();
        let light = TraceInstance {
            cpu: 0.5,
            duration: SimDuration::from_secs(1),
        };
        let heavy = TraceInstance {
            cpu: 2.0,
            duration: SimDuration::from_secs(1),
        };
        let p_light = model.plan_for(&light);
        let p_heavy = model.plan_for(&heavy);
        assert!(p_heavy.total_demand() > p_light.total_demand());
        // identical cpu → identical shared storage (the memo hit)
        let again = model.plan_for(&light);
        assert_eq!(again, p_light);
        // clamping: absurd cpu stays within 10× of the reference app demand
        let huge = model.plan_for(&TraceInstance {
            cpu: 1e6,
            duration: SimDuration::ZERO,
        });
        assert_eq!(
            huge.total_demand(),
            model
                .plan_for(&TraceInstance {
                    cpu: 10.0,
                    duration: SimDuration::ZERO,
                })
                .total_demand()
        );
    }

    #[test]
    fn adapters_forward_the_inner_fault() {
        #[derive(Debug)]
        struct Faulty;
        impl ArrivalSource for Faulty {
            type Payload = ();
            fn next_arrival(&mut self, _rng: &mut SimRng) -> Option<(SimTime, ())> {
                None
            }
            fn fault(&self) -> Option<&str> {
                Some("bad row")
            }
        }
        let stamped = PlanStamped::new(Faulty, "x", Plan::pipeline(&[SimDuration::from_micros(1)]));
        assert_eq!(stamped.fault(), Some("bad row"));
        let mix = MixPlans::new(Faulty, RequestMix::view_story());
        assert_eq!(mix.fault(), Some("bad row"));
    }

    #[test]
    fn mmpp_through_mix_stays_deterministic() {
        let mk = || {
            MixPlans::new(
                ntier_workload::source::MmppSource::new(
                    Mmpp2::new(400.0, 2_000.0, 1.0, 0.3),
                    SimDuration::from_secs(3),
                ),
                RequestMix::rubbos_browse(),
            )
        };
        let mut a = mk();
        let mut b = mk();
        let out_a = materialize(&mut a, &mut SimRng::seed_from(77));
        let out_b = materialize(&mut b, &mut SimRng::seed_from(77));
        assert_eq!(out_a.len(), out_b.len());
        for ((ta, ra), (tb, rb)) in out_a.iter().zip(&out_b) {
            assert_eq!(ta, tb);
            assert_eq!(ra.class, rb.class);
            assert_eq!(ra.plan, rb.plan);
        }
    }
}
