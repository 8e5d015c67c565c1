//! Operational-law sanity checks.
//!
//! Queueing theory's operational laws hold for *any* measured system,
//! simulator included — so they make sharp cross-checks that the engine's
//! accounting is coherent:
//!
//! * **utilization law** — `U = X · S`: a tier's utilization equals system
//!   throughput times its per-request service demand;
//! * **interactive response-time law** — `X = N / (Z + R)`: a closed-loop
//!   population's throughput is pinned by think time and response time.
//!
//! These are also the laws the reproduction's calibration is built on
//! (DESIGN.md §6 derives think time and demands from them), so the checks
//! double as calibration regression tests.

use crate::report::RunReport;

/// One law evaluation: expected vs. observed with relative error.
#[derive(Debug, Clone, PartialEq)]
pub struct LawCheck {
    /// Which law.
    pub law: &'static str,
    /// The value the law predicts.
    pub expected: f64,
    /// The measured value.
    pub observed: f64,
}

impl LawCheck {
    /// |observed − expected| / expected (0 when expected is 0 and observed
    /// is 0, infinite when only expected is 0).
    pub fn relative_error(&self) -> f64 {
        if self.expected == 0.0 {
            if self.observed == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.observed - self.expected).abs() / self.expected.abs()
        }
    }

    /// `true` when the relative error is within `tolerance`.
    pub fn holds_within(&self, tolerance: f64) -> bool {
        self.relative_error() <= tolerance
    }
}

impl std::fmt::Display for LawCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: expected {:.4}, observed {:.4} ({:.2}% error)",
            self.law,
            self.expected,
            self.observed,
            self.relative_error() * 100.0
        )
    }
}

/// Utilization law for one tier: predicted `U = X · S / cores` vs. the
/// tier's measured mean utilization.
///
/// `service_secs` is the tier's mean CPU demand per *request* (summing all
/// visits), `cores` its core count.
pub fn utilization_law(report: &RunReport, tier: usize, service_secs: f64, cores: u32) -> LawCheck {
    LawCheck {
        law: "utilization law (U = X·S)",
        expected: report.throughput * service_secs / f64::from(cores),
        observed: report.tiers[tier].mean_util(report.horizon),
    }
}

/// Interactive response-time law: predicted `X = N / (Z + R)` vs. measured
/// throughput, using the run's own mean response time.
pub fn interactive_law(report: &RunReport, clients: u32, think_secs: f64) -> LawCheck {
    let r = report.latency.mean().as_secs_f64();
    LawCheck {
        law: "interactive law (X = N/(Z+R))",
        expected: f64::from(clients) / (think_secs + r),
        observed: report.throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Workload};
    use crate::{presets, TierSpec, Topology};
    use ntier_des::prelude::*;
    use ntier_workload::{ClosedLoopSpec, RequestMix};

    fn calm_run(clients: u32) -> RunReport {
        Engine::new(
            presets::sync_three_tier(),
            Workload::Closed {
                spec: ClosedLoopSpec::rubbos(clients),
                mix: RequestMix::rubbos_browse(),
            },
            SimDuration::from_secs(60),
            17,
        )
        .run()
    }

    #[test]
    fn utilization_law_holds_at_the_app_tier() {
        let report = calm_run(4_000);
        let mix = RequestMix::rubbos_browse();
        let check = utilization_law(&report, 1, mix.mean_app_demand_secs(), 1);
        assert!(check.holds_within(0.05), "{check}");
    }

    #[test]
    fn utilization_law_holds_at_the_db_tier() {
        let report = calm_run(4_000);
        let mix = RequestMix::rubbos_browse();
        let check = utilization_law(&report, 2, mix.mean_db_demand_secs(), 1);
        assert!(check.holds_within(0.05), "{check}");
    }

    #[test]
    fn interactive_law_holds_for_the_closed_loop() {
        // The paper's 3-tier baseline at 2 000 clients, and 70 clients on
        // 4-thread tiers with 2-slot backlogs and a 2-connection pool.
        let tiny = Topology::three_tier(
            TierSpec::sync("Web", 4, 2),
            TierSpec::sync("App", 4, 2).with_downstream_pool(2),
            TierSpec::sync("Db", 4, 2),
        );
        let tiny_report = Engine::new(
            tiny,
            Workload::closed(ClosedLoopSpec::rubbos(70), RequestMix::view_story()),
            SimDuration::from_secs(60),
            3,
        )
        .run();
        for (report, clients) in [(calm_run(2_000), 2_000), (tiny_report, 70)] {
            let check = interactive_law(&report, clients, 7.0);
            assert!(check.holds_within(0.05), "{clients} clients: {check}");
            assert!(report.is_conserved());
        }
    }

    #[test]
    fn relative_error_edge_cases() {
        let zero = LawCheck {
            law: "t",
            expected: 0.0,
            observed: 0.0,
        };
        assert_eq!(zero.relative_error(), 0.0);
        let inf = LawCheck {
            law: "t",
            expected: 0.0,
            observed: 1.0,
        };
        assert!(inf.relative_error().is_infinite());
        assert!(!inf.holds_within(0.5));
        let ten = LawCheck {
            law: "t",
            expected: 1.0,
            observed: 1.1,
        };
        assert!((ten.relative_error() - 0.1).abs() < 1e-12);
        assert!(ten.to_string().contains("10.00%"));
    }
}
