//! Request mixes: classes of requests with per-tier service demands.
//!
//! RUBBoS is a bulletin-board benchmark; its browse mix is dominated by
//! short dynamic interactions (ViewStory, StoriesOfTheDay, ...) that cost the
//! app tier a fraction of a millisecond and issue one or more database
//! queries, plus purely static content served by the web tier alone (the
//! static class matters: Fig. 4 shows that during upstream CTQO even static
//! requests — which never touch Tomcat — queue and drop at Apache).
//!
//! Demands are calibrated so the app tier is the natural bottleneck at
//! ≈0.75 ms per request on one core, reproducing Fig. 1's utilization
//! ladder: 43 % at 572 req/s, 75 % at 990, 85 % at 1103.

use ntier_des::dist::{Distribution, LogNormal, Point};
use ntier_des::rng::SimRng;
use ntier_des::time::SimDuration;

/// Whether a request terminates at the web tier or goes down the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RequestKind {
    /// Served entirely by the web tier (images, CSS, ...).
    #[default]
    Static,
    /// Passes through the app tier and issues database queries.
    Dynamic,
}

/// One request class in a mix.
#[derive(Debug)]
pub struct RequestProfile {
    name: &'static str,
    weight: f64,
    kind: RequestKind,
    web: Box<dyn Distribution>,
    app: Box<dyn Distribution>,
    db: Box<dyn Distribution>,
    db_queries: u32,
}

impl RequestProfile {
    /// Creates a class. For [`RequestKind::Static`] the app/db demands are
    /// ignored and `db_queries` must be zero.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not positive/finite, or a static class declares
    /// database queries.
    pub fn new(
        name: &'static str,
        weight: f64,
        kind: RequestKind,
        web: Box<dyn Distribution>,
        app: Box<dyn Distribution>,
        db: Box<dyn Distribution>,
        db_queries: u32,
    ) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight must be positive"
        );
        if kind == RequestKind::Static {
            assert_eq!(db_queries, 0, "static requests issue no database queries");
        }
        RequestProfile {
            name,
            weight,
            kind,
            web,
            app,
            db,
            db_queries,
        }
    }

    /// Class name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Static or dynamic.
    pub fn kind(&self) -> RequestKind {
        self.kind
    }
}

/// A concrete sampled request: class plus drawn demands. The default is
/// an empty static request, the starting point for
/// [`RequestMix::sample_into`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SampledRequest {
    /// Class name (for per-class reporting).
    pub class: &'static str,
    /// Static or dynamic.
    pub kind: RequestKind,
    /// CPU demand at the web tier.
    pub web_demand: SimDuration,
    /// CPU demand at the app tier (zero for static requests).
    pub app_demand: SimDuration,
    /// CPU demand of each database query, in issue order.
    pub db_demands: Vec<SimDuration>,
}

/// A weighted set of request classes.
#[derive(Debug)]
pub struct RequestMix {
    profiles: Vec<RequestProfile>,
    total_weight: f64,
}

impl RequestMix {
    /// Builds a mix from profiles.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: Vec<RequestProfile>) -> Self {
        assert!(!profiles.is_empty(), "a mix needs at least one class");
        let total_weight = profiles.iter().map(|p| p.weight).sum();
        RequestMix {
            profiles,
            total_weight,
        }
    }

    /// The RUBBoS-like browse mix used throughout the reproduction
    /// (app-tier mean ≈ 0.75 ms/request; see module docs).
    pub fn rubbos_browse() -> Self {
        let d = |mean_ms: f64| -> Box<dyn Distribution> {
            Box::new(LogNormal::with_mean(mean_ms / 1e3, 0.3))
        };
        RequestMix::new(vec![
            RequestProfile::new(
                "static",
                0.15,
                RequestKind::Static,
                d(0.20),
                Box::new(Point::new(0.0)),
                Box::new(Point::new(0.0)),
                0,
            ),
            RequestProfile::new(
                "view_story",
                0.35,
                RequestKind::Dynamic,
                d(0.05),
                d(1.00),
                d(0.20),
                2,
            ),
            RequestProfile::new(
                "stories_of_the_day",
                0.25,
                RequestKind::Dynamic,
                d(0.05),
                d(0.80),
                d(0.15),
                2,
            ),
            RequestProfile::new(
                "view_comments",
                0.15,
                RequestKind::Dynamic,
                d(0.05),
                d(0.90),
                d(0.15),
                3,
            ),
            RequestProfile::new(
                "browse_categories",
                0.10,
                RequestKind::Dynamic,
                d(0.05),
                d(0.60),
                d(0.10),
                1,
            ),
        ])
    }

    /// A single-class deterministic mix — the controlled workloads of §V
    /// (e.g. the ViewStory burst batches).
    pub fn single(
        name: &'static str,
        web_ms: f64,
        app_ms: f64,
        db_ms: f64,
        db_queries: u32,
    ) -> Self {
        RequestMix::new(vec![RequestProfile::new(
            name,
            1.0,
            RequestKind::Dynamic,
            Box::new(Point::new(web_ms / 1e3)),
            Box::new(Point::new(app_ms / 1e3)),
            Box::new(Point::new(db_ms / 1e3)),
            db_queries,
        )])
    }

    /// The controlled ViewStory class from §V-B.
    pub fn view_story() -> Self {
        RequestMix::single("view_story", 0.05, 0.75, 0.15, 2)
    }

    /// Draws one request.
    pub fn sample(&self, rng: &mut SimRng) -> SampledRequest {
        let mut out = SampledRequest::default();
        self.sample_into(rng, &mut out);
        out
    }

    /// Draws one request into `out`, reusing its `db_demands` buffer: the
    /// allocation-free form of [`RequestMix::sample`] for per-arrival hot
    /// paths. Draws the class, then the web, app and each query's demand.
    pub fn sample_into(&self, rng: &mut SimRng, out: &mut SampledRequest) {
        let mut pick = rng.next_f64() * self.total_weight;
        let mut chosen = self.profiles.last().expect("non-empty");
        for p in &self.profiles {
            if pick < p.weight {
                chosen = p;
                break;
            }
            pick -= p.weight;
        }
        out.class = chosen.name;
        out.kind = chosen.kind;
        out.web_demand = chosen.web.sample(rng);
        out.db_demands.clear();
        out.app_demand = match chosen.kind {
            RequestKind::Static => SimDuration::ZERO,
            RequestKind::Dynamic => {
                let app = chosen.app.sample(rng);
                out.db_demands
                    .extend((0..chosen.db_queries).map(|_| chosen.db.sample(rng)));
                app
            }
        };
    }

    /// Mean app-tier demand per request (seconds), weight-averaged.
    pub fn mean_app_demand_secs(&self) -> f64 {
        self.profiles
            .iter()
            .map(|p| {
                let demand = match p.kind {
                    RequestKind::Static => 0.0,
                    RequestKind::Dynamic => p.app.mean_f64(),
                };
                p.weight * demand
            })
            .sum::<f64>()
            / self.total_weight
    }

    /// Mean total DB demand per request (seconds), weight-averaged.
    pub fn mean_db_demand_secs(&self) -> f64 {
        self.profiles
            .iter()
            .map(|p| {
                let demand = match p.kind {
                    RequestKind::Static => 0.0,
                    RequestKind::Dynamic => p.db.mean_f64() * f64::from(p.db_queries),
                };
                p.weight * demand
            })
            .sum::<f64>()
            / self.total_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rubbos_mix_app_demand_matches_fig1_calibration() {
        let mix = RequestMix::rubbos_browse();
        let mean_ms = mix.mean_app_demand_secs() * 1e3;
        // 0.75 ms/request at the app tier: 43% at 572 req/s (Fig. 1(a)).
        assert!(
            (0.65..0.85).contains(&mean_ms),
            "mean app demand {mean_ms} ms"
        );
        let util_at_572 = 572.0 * mix.mean_app_demand_secs();
        assert!((0.38..0.50).contains(&util_at_572), "util {util_at_572}");
        let util_at_1103 = 1_103.0 * mix.mean_app_demand_secs();
        assert!((0.75..0.95).contains(&util_at_1103), "util {util_at_1103}");
    }

    #[test]
    fn sampling_respects_class_structure() {
        let mix = RequestMix::rubbos_browse();
        let mut rng = SimRng::seed_from(21);
        let mut saw_static = false;
        let mut saw_dynamic = false;
        for _ in 0..500 {
            let r = mix.sample(&mut rng);
            match r.kind {
                RequestKind::Static => {
                    saw_static = true;
                    assert!(r.db_demands.is_empty());
                    assert_eq!(r.app_demand, SimDuration::ZERO);
                }
                RequestKind::Dynamic => {
                    saw_dynamic = true;
                    assert!(!r.db_demands.is_empty());
                    assert!(r.app_demand > SimDuration::ZERO);
                }
            }
        }
        assert!(saw_static && saw_dynamic);
    }

    #[test]
    fn class_frequencies_match_weights() {
        let mix = RequestMix::rubbos_browse();
        let mut rng = SimRng::seed_from(22);
        let n = 20_000;
        let mut statics = 0;
        for _ in 0..n {
            if mix.sample(&mut rng).kind == RequestKind::Static {
                statics += 1;
            }
        }
        let frac = statics as f64 / n as f64;
        assert!((frac - 0.15).abs() < 0.02, "static fraction {frac}");
    }

    #[test]
    fn single_mix_is_deterministic() {
        let mix = RequestMix::view_story();
        let mut rng = SimRng::seed_from(23);
        let r = mix.sample(&mut rng);
        assert_eq!(r.class, "view_story");
        assert_eq!(r.app_demand, SimDuration::from_micros(750));
        assert_eq!(r.db_demands.len(), 2);
        assert_eq!(r.db_demands[0], SimDuration::from_micros(150));
    }

    #[test]
    fn sample_into_reuses_the_buffer_and_matches_sample() {
        let mix = RequestMix::rubbos_browse();
        let (mut a, mut b) = (SimRng::seed_from(24), SimRng::seed_from(24));
        let mut out = SampledRequest::default();
        out.db_demands.reserve(3); // the most queries any class issues
        let buf = out.db_demands.as_ptr();
        for _ in 0..500 {
            mix.sample_into(&mut a, &mut out);
            assert_eq!(out, mix.sample(&mut b));
            assert_eq!(out.db_demands.as_ptr(), buf, "the buffer is reused");
        }
        assert_eq!(a.next_u64(), b.next_u64(), "both paths draw alike");
    }

    #[test]
    fn db_demand_means() {
        let mix = RequestMix::single("x", 0.1, 0.5, 0.2, 3);
        assert!((mix.mean_db_demand_secs() - 0.0006).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no database queries")]
    fn static_class_with_queries_rejected() {
        let _ = RequestProfile::new(
            "bad",
            1.0,
            RequestKind::Static,
            Box::new(Point::new(0.001)),
            Box::new(Point::new(0.0)),
            Box::new(Point::new(0.0)),
            2,
        );
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_mix_rejected() {
        let _ = RequestMix::new(vec![]);
    }
}
