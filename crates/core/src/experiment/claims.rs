//! The paper's claims as one list. Each [`Claim`] names a figure, the
//! paper's value, the preset that reproduces it, how to read the measured
//! value off the run, and the band that value must land in. The claims
//! test asserts every band, `validate_figures` prints the table, and
//! EXPERIMENTS.md embeds the same table.

use ntier_des::time::{SimDuration, SimTime};
use ntier_telemetry::CounterSeries;

use super::{
    fig1, fig10, fig11, fig12_async, fig12_sync, fig3, fig5, fig7, fig8, fig9, nx1_mysql_stall,
    nx_ladder, ExperimentSpec,
};
use crate::analysis::{self, CtqoClass};
use crate::config::SystemConfig;
use crate::report::RunReport;

/// Seed of every figure preset a claim runs.
const FIGURE_SEED: u64 = 42;
/// Seed of the [`nx_ladder`] runs.
const LADDER_SEED: u64 = 5;

/// A run a claim reads: one of the `experiment` constructors with its
/// arguments fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// [`fig1`] with this many clients, over 120 s.
    Fig1(u32),
    /// [`fig3`].
    Fig3,
    /// [`fig5`].
    Fig5,
    /// [`fig7`].
    Fig7,
    /// [`nx1_mysql_stall`] (§V-B's text-only case).
    Nx1MysqlStall,
    /// [`fig8`].
    Fig8,
    /// [`fig9`].
    Fig9,
    /// [`fig10`].
    Fig10,
    /// [`fig11`].
    Fig11,
    /// [`fig12_sync`] at this concurrency.
    Fig12Sync(u32),
    /// [`fig12_async`] at this concurrency.
    Fig12Async(u32),
    /// [`nx_ladder`] at rung `nx` (0..=3) with the stall in `stall_tier`
    /// (1 = app, 2 = db): `Ladder(nx, stall_tier)`.
    Ladder(usize, usize),
}

impl Preset {
    fn spec(self) -> ExperimentSpec {
        let seed = FIGURE_SEED;
        match self {
            Preset::Fig1(clients) => fig1(clients, SimDuration::from_secs(120), seed),
            Preset::Fig3 => fig3(seed),
            Preset::Fig5 => fig5(seed),
            Preset::Fig7 => fig7(seed),
            Preset::Nx1MysqlStall => nx1_mysql_stall(seed),
            Preset::Fig8 => fig8(seed),
            Preset::Fig9 => fig9(seed),
            Preset::Fig10 => fig10(seed),
            Preset::Fig11 => fig11(seed),
            Preset::Fig12Sync(c) => fig12_sync(c, seed),
            Preset::Fig12Async(c) => fig12_async(c, seed),
            Preset::Ladder(nx, stall_tier) => nx_ladder(nx, stall_tier, LADDER_SEED),
        }
    }
}

/// Where a claim's value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// One run, read together with its system (for stall-site and CTQO
    /// classification claims).
    One(Preset, fn(&RunReport, &SystemConfig) -> f64),
    /// Several runs, handed over in the listed order.
    Many(&'static [Preset], fn(&[&RunReport]) -> f64),
}

impl Source {
    fn presets(&self) -> &[Preset] {
        match self {
            Source::One(p, _) => std::slice::from_ref(p),
            Source::Many(ps, _) => ps,
        }
    }
}

/// How a measured value and its band are printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A whole number.
    Count,
    /// Requests per second.
    PerSec,
    /// A fraction, printed as a percentage.
    Share,
    /// A ratio of two measurements.
    Ratio,
    /// A yes/no claim: 1 is yes, 0 is no.
    YesNo,
}

impl Unit {
    fn format(self, v: f64) -> String {
        match self {
            Unit::Count => format!("{v:.0}"),
            Unit::PerSec => format!("{v:.0} req/s"),
            Unit::Share => format!("{:.0} %", v * 100.0),
            Unit::Ratio => format!("{v:.2}×"),
            Unit::YesNo if v == 1.0 => "yes".into(),
            Unit::YesNo => "no".into(),
        }
    }
}

/// The closed interval `[lo, hi]` a measured value must land in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive; infinite for "at least").
    pub hi: f64,
}

impl Band {
    /// `true` if `v` lies in the band (never for NaN).
    fn holds(self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    fn format(self, unit: Unit) -> String {
        if self.lo == self.hi && unit == Unit::YesNo {
            unit.format(self.lo)
        } else if self.lo == self.hi {
            format!("= {}", unit.format(self.lo))
        } else if self.hi == f64::INFINITY {
            format!("≥ {}", unit.format(self.lo))
        } else if self.lo == 0.0 {
            format!("≤ {}", unit.format(self.hi))
        } else {
            format!("{} – {}", unit.format(self.lo), unit.format(self.hi))
        }
    }
}

/// One claim of the paper, checkable against a run.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// `<figure>.<metric>`, unique, e.g. `fig7.tomcat-drops`.
    pub id: &'static str,
    /// What is measured.
    pub metric: &'static str,
    /// The paper's value, as the paper states it.
    pub paper: &'static str,
    /// The run(s) and the extractor.
    pub source: Source,
    /// How the value prints.
    pub unit: Unit,
    /// The accepted values.
    pub band: Band,
}

/// Every claim measured, with the runs behind them.
#[derive(Debug)]
pub struct Measured {
    /// The claims, in [`claims`] order.
    pub claims: Vec<Claim>,
    /// `values[i]` is the measured value of `claims[i]`.
    pub values: Vec<f64>,
    /// Each preset the claims read, run once, in first-use order.
    pub runs: Vec<(Preset, RunReport)>,
}

impl Measured {
    /// Runs every preset that [`claims`] reads exactly once, through `run`
    /// (which must return one report per spec, in order — the parallel
    /// runner's `run_all` does), and reads each claim's value.
    pub fn run(run: impl FnOnce(Vec<ExperimentSpec>) -> Vec<RunReport>) -> Measured {
        Measured::of(claims(), run)
    }

    /// [`Measured::run`] restricted to the claims whose id starts with one
    /// of `selectors` (a figure prefix such as `"fig7."` or a whole id).
    /// Panics if a selector matches no claim.
    pub fn only(
        selectors: &[&str],
        run: impl FnOnce(Vec<ExperimentSpec>) -> Vec<RunReport>,
    ) -> Measured {
        let all = claims();
        for s in selectors {
            assert!(
                all.iter().any(|c| c.id.starts_with(s)),
                "no claim matches {s:?}"
            );
        }
        let picked = all
            .into_iter()
            .filter(|c| selectors.iter().any(|s| c.id.starts_with(s)))
            .collect();
        Measured::of(picked, run)
    }

    fn of(claims: Vec<Claim>, run: impl FnOnce(Vec<ExperimentSpec>) -> Vec<RunReport>) -> Measured {
        let mut presets: Vec<Preset> = Vec::new();
        for p in claims.iter().flat_map(|c| c.source.presets()) {
            if !presets.contains(p) {
                presets.push(*p);
            }
        }
        let specs: Vec<ExperimentSpec> = presets.iter().map(|p| p.spec()).collect();
        let systems: Vec<SystemConfig> = specs.iter().map(|s| s.system.clone()).collect();
        let reports = run(specs);
        assert_eq!(reports.len(), presets.len(), "one report per spec");
        let at = |p: &Preset| presets.iter().position(|q| q == p).expect("preset ran");
        let values = claims
            .iter()
            .map(|c| match c.source {
                Source::One(p, f) => f(&reports[at(&p)], &systems[at(&p)]),
                Source::Many(ps, f) => f(&ps.iter().map(|p| &reports[at(p)]).collect::<Vec<_>>()),
            })
            .collect();
        Measured {
            claims,
            values,
            runs: presets.into_iter().zip(reports).collect(),
        }
    }

    /// One line per claim whose value falls outside its band.
    pub fn failures(&self) -> Vec<String> {
        self.claims
            .iter()
            .zip(&self.values)
            .filter(|(c, v)| !c.band.holds(**v))
            .map(|(c, &v)| {
                format!(
                    "{}: measured {} outside {}",
                    c.id,
                    c.unit.format(v),
                    c.band.format(c.unit)
                )
            })
            .collect()
    }

    /// The claims as a Markdown table, one row per claim.
    pub fn table(&self) -> String {
        let mut s =
            String::from("| Claim | Metric | Paper | Measured | Band |\n|---|---|---|---|---|\n");
        for (c, &v) in self.claims.iter().zip(&self.values) {
            s.push_str(&format!(
                "| `{}` | {} | {} | {} | {} |\n",
                c.id,
                c.metric,
                c.paper,
                c.unit.format(v),
                c.band.format(c.unit)
            ));
        }
        s
    }
}

fn one(
    id: &'static str,
    metric: &'static str,
    paper: &'static str,
    preset: Preset,
    unit: Unit,
    band: Band,
    f: fn(&RunReport, &SystemConfig) -> f64,
) -> Claim {
    Claim {
        id,
        metric,
        paper,
        source: Source::One(preset, f),
        unit,
        band,
    }
}

fn many(
    id: &'static str,
    metric: &'static str,
    paper: &'static str,
    presets: &'static [Preset],
    unit: Unit,
    band: Band,
    f: fn(&[&RunReport]) -> f64,
) -> Claim {
    Claim {
        id,
        metric,
        paper,
        source: Source::Many(presets, f),
        unit,
        band,
    }
}

/// A yes/no claim: the band is `[1, 1]`.
fn flag(
    id: &'static str,
    metric: &'static str,
    paper: &'static str,
    preset: Preset,
    f: fn(&RunReport, &SystemConfig) -> f64,
) -> Claim {
    one(id, metric, paper, preset, Unit::YesNo, exactly(1.0), f)
}

fn exactly(v: f64) -> Band {
    Band { lo: v, hi: v }
}

fn at_least(lo: f64) -> Band {
    Band {
        lo,
        hi: f64::INFINITY,
    }
}

fn at_most(hi: f64) -> Band {
    Band { lo: 0.0, hi }
}

fn between(lo: f64, hi: f64) -> Band {
    Band { lo, hi }
}

fn yes(b: bool) -> f64 {
    f64::from(u8::from(b))
}

fn drops(r: &RunReport, tier: usize) -> f64 {
    r.tiers[tier].drops_total as f64
}

fn peak(r: &RunReport, tier: usize) -> f64 {
    r.tiers[tier].peak_queue as f64
}

/// The largest count any one window of `series` holds.
fn peak_count(series: &CounterSeries) -> u32 {
    series.iter().map(|(_, n)| n).max().unwrap_or(0)
}

/// `yes` if every detected CTQO episode has class `class`.
fn all_episodes(r: &RunReport, s: &SystemConfig, class: CtqoClass) -> f64 {
    let episodes = analysis::detect(r, s, SimDuration::from_secs(1));
    yes(episodes.iter().all(|e| e.class == class))
}

fn upstream_drops(r: &RunReport, s: &SystemConfig) -> f64 {
    let episodes = analysis::detect(r, s, SimDuration::from_secs(1));
    analysis::drops_by_class(&episodes).0 as f64
}

/// How many of the 0, 3, 6 and 9 s latency modes are present.
fn modes_0369(r: &RunReport) -> f64 {
    [0, 3, 6, 9]
        .into_iter()
        .filter(|&s| r.has_mode_near(s))
        .count() as f64
}

fn stalled_tier(s: &SystemConfig) -> f64 {
    s.stalled_tier().map_or(-1.0, |t| t as f64)
}

/// `yes` if exactly `tier` recorded VLRT requests at drop time.
fn vlrt_only_at(r: &RunReport, tier: usize) -> f64 {
    yes(r
        .tiers
        .iter()
        .enumerate()
        .all(|(i, t)| (t.vlrt.total() > 0) == (i == tier)))
}

/// Share of VLRT completions within 10 s of a stall start at `tier` — the
/// 3/6/9 s retransmission ladder behind each millibottleneck.
fn vlrt_share_after_stalls(r: &RunReport, s: &SystemConfig, tier: usize) -> f64 {
    let starts: Vec<SimTime> = s.tiers[tier]
        .stalls
        .intervals()
        .iter()
        .map(|(a, _)| *a)
        .collect();
    let mut near = 0u64;
    let mut total = 0u64;
    for (t, n) in r.vlrt_by_completion.iter() {
        total += u64::from(n);
        if starts
            .iter()
            .any(|&a| t >= a && t < a + SimDuration::from_secs(10))
        {
            near += u64::from(n);
        }
    }
    if total == 0 {
        0.0
    } else {
        near as f64 / total as f64
    }
}

/// Every claim of the paper this repository checks, in figure order.
///
/// Figure presets run at seed 42; the `ladder.*` claims run [`nx_ladder`]
/// at seed 5. Tier indices are chain positions:
/// 0 = web (Apache/Nginx), 1 = app (Tomcat/XTomcat), 2 = db (MySQL/XMySQL).
#[rustfmt::skip]
pub fn claims() -> Vec<Claim> {
    use Preset::*;
    use Unit::*;
    vec![
        // Fig. 1(a–c): CTQO already at 43 % CPU, modes on the 3 s retransmission ladder.
        one("fig1a.throughput", "WL 4000 throughput", "572 req/s",
            Fig1(4_000), PerSec, between(520.0, 619.0), |r, _| r.throughput),
        one("fig1a.util", "WL 4000 highest avg CPU util", "43 %",
            Fig1(4_000), Share, between(0.38, 0.49), |r, _| r.highest_mean_util()),
        one("fig1a.drops", "WL 4000 dropped packets", "present",
            Fig1(4_000), Count, at_least(1.0), |r, _| r.drops_total as f64),
        one("fig1a.vlrt", "WL 4000 VLRT requests", "present",
            Fig1(4_000), Count, at_least(1.0), |r, _| r.vlrt_total as f64),
        one("fig1a.modes", "WL 4000 modes found at 0, 3, 6, 9 s", "0, 3, 6, 9 s",
            Fig1(4_000), Count, exactly(4.0), |r, _| modes_0369(r)),
        one("fig1b.throughput", "WL 7000 throughput", "990 req/s",
            Fig1(7_000), PerSec, between(940.0, 1_040.0), |r, _| r.throughput),
        one("fig1b.util", "WL 7000 highest avg CPU util", "75 %",
            Fig1(7_000), Share, between(0.70, 0.80), |r, _| r.highest_mean_util()),
        one("fig1b.modes", "WL 7000 modes found at 0, 3, 6, 9 s", "0, 3, 6, 9 s",
            Fig1(7_000), Count, exactly(4.0), |r, _| modes_0369(r)),
        one("fig1c.throughput", "WL 8000 throughput", "1103 req/s",
            Fig1(8_000), PerSec, between(1_050.0, 1_160.0), |r, _| r.throughput),
        one("fig1c.util", "WL 8000 highest avg CPU util", "85 %",
            Fig1(8_000), Share, between(0.80, 0.90), |r, _| r.highest_mean_util()),
        one("fig1c.modes", "WL 8000 modes found at 0, 3, 6, 9 s", "0, 3, 6, 9 s",
            Fig1(8_000), Count, exactly(4.0), |r, _| modes_0369(r)),
        // Fig. 3: a Tomcat CPU millibottleneck, upstream CTQO at Apache.
        one("fig3.apache-drops", "Apache drops", "yes (upstream CTQO)",
            Fig3, Count, at_least(1.0), |r, _| drops(r, 0)),
        one("fig3.upstream-drops", "drops classified upstream", "all",
            Fig3, Count, at_least(1.0), upstream_drops),
        one("fig3.apache-peak", "Apache peak queue", "278 → 428 (2nd httpd process)",
            Fig3, Count, exactly(428.0), |r, _| peak(r, 0)),
        one("fig3.spawns", "httpd processes spawned", "1",
            Fig3, Count, exactly(1.0), |r, _| r.tiers[0].spawns as f64),
        one("fig3.mysql-drops", "MySQL drops", "0 (pool-capped at 50)",
            Fig3, Count, exactly(0.0), |r, _| drops(r, 2)),
        one("fig3.mysql-peak", "MySQL peak queue", "≤ 50 (JDBC pool)",
            Fig3, Count, at_most(50.0), |r, _| peak(r, 2)),
        one("fig3.vlrt-peak", "Apache VLRT per 50 ms, peak", "up to ~80",
            Fig3, Count, between(1.0, 80.0), |r, _| f64::from(peak_count(&r.tiers[0].vlrt))),
        // Fig. 4: during upstream CTQO even static requests drop; NX=3 has no VLRT in any class.
        one("fig4.static-completed", "static requests completed", "present",
            Fig3, Count, at_least(1.0), |r, _| r.class("static").map_or(0.0, |c| c.completed as f64)),
        one("fig4.static-vlrt", "static requests VLRT", "present",
            Fig3, Count, at_least(1.0), |r, _| r.class("static").map_or(0.0, |c| c.vlrt as f64)),
        one("fig4.static-drops", "static requests dropped", "present",
            Fig3, Count, at_least(1.0), |r, _| r.class("static").map_or(0.0, |c| c.drops as f64)),
        one("fig4.nx3-class-vlrt", "NX=3 (Fig. 10 run): VLRT in the worst class", "0",
            Fig10, Count, exactly(0.0), |r, _| r.classes.iter().map(|c| c.vlrt).max().unwrap_or(0) as f64),
        one("fig4.nx3-class-drops", "NX=3 (Fig. 10 run): drops in the worst class", "0",
            Fig10, Count, exactly(0.0), |r, _| r.classes.iter().map(|c| c.drops).max().unwrap_or(0) as f64),
        // Fig. 5: a MySQL log-flush millibottleneck cascades to Apache.
        one("fig5.stall-site", "stalled tier", "2 (MySQL, flush every 30 s)",
            Fig5, Count, exactly(2.0), |_, s| stalled_tier(s)),
        one("fig5.apache-drops", "Apache drops", "yes (upstream CTQO)",
            Fig5, Count, at_least(1.0), |r, _| drops(r, 0)),
        one("fig5.mysql-drops", "MySQL drops", "0",
            Fig5, Count, exactly(0.0), |r, _| drops(r, 2)),
        one("fig5.vlrt", "VLRT requests", "~20–60 per flush",
            Fig5, Count, at_least(1.0), |r, _| r.vlrt_total as f64),
        one("fig5.vlrt-after-flush", "VLRT completing ≤ 10 s after a flush", "at 10/40/70 s",
            Fig5, Share, exactly(1.0), |r, s| vlrt_share_after_stalls(r, s, 2)),
        flag("fig5.all-upstream", "every CTQO episode upstream", "yes",
            Fig5, |r, s| all_episodes(r, s, CtqoClass::Upstream)),
        // Fig. 7: NX=1, Tomcat stall — no upstream CTQO, downstream CTQO at Tomcat.
        one("fig7.nginx-drops", "Nginx drops", "0 (no upstream CTQO)",
            Fig7, Count, exactly(0.0), |r, _| drops(r, 0)),
        one("fig7.tomcat-drops", "Tomcat drops", "yes (downstream CTQO)",
            Fig7, Count, at_least(1.0), |r, _| drops(r, 1)),
        one("fig7.tomcat-peak", "Tomcat peak queue", "293 = 165 + 128",
            Fig7, Count, exactly(293.0), |r, _| peak(r, 1)),
        one("fig7.mysql-drops", "MySQL drops", "0",
            Fig7, Count, exactly(0.0), |r, _| drops(r, 2)),
        flag("fig7.vlrt-at-tomcat", "VLRT only at Tomcat", "yes",
            Fig7, |r, _| vlrt_only_at(r, 1)),
        // §V-B text: NX=1, MySQL stall — the pool pushes back, Tomcat drops.
        one("sec5b.nginx-drops", "Nginx drops", "0",
            Nx1MysqlStall, Count, exactly(0.0), |r, _| drops(r, 0)),
        one("sec5b.tomcat-drops", "Tomcat drops", "yes (upstream CTQO)",
            Nx1MysqlStall, Count, at_least(1.0), |r, _| drops(r, 1)),
        one("sec5b.mysql-drops", "MySQL drops", "0",
            Nx1MysqlStall, Count, exactly(0.0), |r, _| drops(r, 2)),
        one("sec5b.mysql-peak", "MySQL peak queue", "≈ 50 (JDBC pool)",
            Nx1MysqlStall, Count, at_most(50.0), |r, _| peak(r, 2)),
        flag("sec5b.all-upstream", "every CTQO episode upstream", "yes",
            Nx1MysqlStall, |r, s| all_episodes(r, s, CtqoClass::Upstream)),
        // Fig. 8: NX=2, MySQL stall — downstream CTQO at MySQL.
        one("fig8.front-drops", "Nginx + XTomcat drops", "0",
            Fig8, Count, exactly(0.0), |r, _| drops(r, 0) + drops(r, 1)),
        one("fig8.mysql-drops", "MySQL drops", "yes (downstream CTQO)",
            Fig8, Count, at_least(1.0), |r, _| drops(r, 2)),
        one("fig8.mysql-peak", "MySQL peak queue", "228 = 100 + 128",
            Fig8, Count, exactly(228.0), |r, _| peak(r, 2)),
        one("fig8.vlrt-peak", "MySQL VLRT per 50 ms, peak", "~30–40",
            Fig8, Count, between(20.0, 60.0), |r, _| f64::from(peak_count(&r.tiers[2].vlrt))),
        // Fig. 9: NX=2, XTomcat stall — the post-stall batch floods MySQL.
        one("fig9.stall-site", "stalled tier", "1 (XTomcat)",
            Fig9, Count, exactly(1.0), |_, s| stalled_tier(s)),
        one("fig9.xtomcat-drops", "XTomcat drops", "0 (buffers in LiteQDepth)",
            Fig9, Count, exactly(0.0), |r, _| drops(r, 1)),
        one("fig9.xtomcat-peak", "XTomcat peak queue", "grows past MySQL's 228",
            Fig9, Count, at_least(229.0), |r, _| peak(r, 1)),
        one("fig9.mysql-drops", "MySQL drops", "yes (batch flood)",
            Fig9, Count, at_least(1.0), |r, _| drops(r, 2)),
        flag("fig9.all-downstream", "every CTQO episode downstream", "yes",
            Fig9, |r, s| all_episodes(r, s, CtqoClass::Downstream)),
        // Fig. 10: NX=3, XTomcat CPU stall — absorbed, no CTQO.
        one("fig10.drops", "drops, all tiers", "0",
            Fig10, Count, exactly(0.0), |r, _| r.drops_total as f64),
        one("fig10.vlrt", "VLRT requests", "0",
            Fig10, Count, exactly(0.0), |r, _| r.vlrt_total as f64),
        one("fig10.xtomcat-peak", "XTomcat peak queue", "~600–750, absorbed",
            Fig10, Count, between(201.0, 65_535.0), |r, _| peak(r, 1)),
        one("fig10.queues-track", "Nginx / XTomcat peak queue", "track each other",
            Fig10, Ratio, between(0.9, 1.1), |r, _| peak(r, 0) / peak(r, 1)),
        // Fig. 11: NX=3, XMySQL log flush — every tier buffers, no drops.
        one("fig11.drops", "drops, all tiers", "0",
            Fig11, Count, exactly(0.0), |r, _| r.drops_total as f64),
        one("fig11.vlrt", "VLRT requests", "0",
            Fig11, Count, exactly(0.0), |r, _| r.vlrt_total as f64),
        one("fig11.xmysql-peak", "XMySQL peak queue", "within the 2000 wait queue",
            Fig11, Count, between(201.0, 2_000.0), |r, _| peak(r, 2)),
        // Fig. 12: 2000-thread sync collapses with concurrency, NX=3 stays flat.
        one("fig12.sync-100", "sync throughput @100", "1159 req/s",
            Fig12Sync(100), PerSec, between(1_000.0, 1_400.0), |r, _| r.throughput),
        one("fig12.sync-1600", "sync throughput @1600", "374 req/s",
            Fig12Sync(1_600), PerSec, between(300.0, 450.0), |r, _| r.throughput),
        many("fig12.sync-declines", "sync throughput falls at each step 100 → 1600", "yes",
            &[Fig12Sync(100), Fig12Sync(200), Fig12Sync(400), Fig12Sync(800), Fig12Sync(1_600)],
            YesNo, exactly(1.0), |rs| yes(rs.windows(2).all(|w| w[1].throughput < w[0].throughput))),
        many("fig12.collapse", "sync @100 / sync @1600", "3.1×",
            &[Fig12Sync(100), Fig12Sync(1_600)], Ratio, between(2.0, 5.9),
            |rs| rs[0].throughput / rs[1].throughput),
        many("fig12.async-flat", "async @1600 / async @100", "flat",
            &[Fig12Async(1_600), Fig12Async(100)], Ratio, at_least(0.95),
            |rs| rs[0].throughput / rs[1].throughput),
        many("fig12.async-wins", "async / sync @1600", "async stays high",
            &[Fig12Async(1_600), Fig12Sync(1_600)], Ratio, at_least(2.5),
            |rs| rs[0].throughput / rs[1].throughput),
        // §V ladder: the same two stalls at each rung NX=0..3, in the app or the db tier.
        one("ladder.nx0-app.web-drops", "NX=0, app stall: web drops", "yes (upstream)",
            Ladder(0, 1), Count, at_least(1.0), |r, _| drops(r, 0)),
        one("ladder.nx0-app.upstream-drops", "NX=0, app stall: drops classified upstream", "all",
            Ladder(0, 1), Count, at_least(1.0), upstream_drops),
        one("ladder.nx0-app.db-drops", "NX=0, app stall: db drops", "0 (pool-shielded)",
            Ladder(0, 1), Count, exactly(0.0), |r, _| drops(r, 2)),
        one("ladder.nx0-app.vlrt", "NX=0, app stall: VLRT requests", "present",
            Ladder(0, 1), Count, at_least(1.0), |r, _| r.vlrt_total as f64),
        one("ladder.nx0-app.modes", "NX=0, app stall: latency modes", "multi-modal",
            Ladder(0, 1), Count, at_least(2.0), |r, _| r.latency_modes().len() as f64),
        one("ladder.nx0-db.web-drops", "NX=0, db stall: web drops", "yes (2-hop cascade)",
            Ladder(0, 2), Count, at_least(1.0), |r, _| drops(r, 0)),
        flag("ladder.nx0-db.all-upstream", "NX=0, db stall: every episode upstream", "yes",
            Ladder(0, 2), |r, s| all_episodes(r, s, CtqoClass::Upstream)),
        one("ladder.nx1-app.web-drops", "NX=1, app stall: web drops", "0",
            Ladder(1, 1), Count, exactly(0.0), |r, _| drops(r, 0)),
        one("ladder.nx1-app.app-drops", "NX=1, app stall: app drops", "yes (downstream)",
            Ladder(1, 1), Count, at_least(1.0), |r, _| drops(r, 1)),
        one("ladder.nx1-app.db-drops", "NX=1, app stall: db drops", "0",
            Ladder(1, 1), Count, exactly(0.0), |r, _| drops(r, 2)),
        one("ladder.nx1-db.web-drops", "NX=1, db stall: web drops", "0",
            Ladder(1, 2), Count, exactly(0.0), |r, _| drops(r, 0)),
        one("ladder.nx1-db.app-drops", "NX=1, db stall: app drops", "yes (upstream of db)",
            Ladder(1, 2), Count, at_least(1.0), |r, _| drops(r, 1)),
        one("ladder.nx1-db.db-drops", "NX=1, db stall: db drops", "0 (pool caps inflow)",
            Ladder(1, 2), Count, exactly(0.0), |r, _| drops(r, 2)),
        flag("ladder.nx1-db.all-upstream", "NX=1, db stall: every episode upstream", "yes",
            Ladder(1, 2), |r, s| all_episodes(r, s, CtqoClass::Upstream)),
        one("ladder.nx2-app.front-drops", "NX=2, app stall: web + app drops", "0 (XTomcat buffers)",
            Ladder(2, 1), Count, exactly(0.0), |r, _| drops(r, 0) + drops(r, 1)),
        one("ladder.nx2-app.db-drops", "NX=2, app stall: db drops", "yes (batch flood)",
            Ladder(2, 1), Count, at_least(1.0), |r, _| drops(r, 2)),
        flag("ladder.nx2-app.all-downstream", "NX=2, app stall: every episode downstream", "yes",
            Ladder(2, 1), |r, s| all_episodes(r, s, CtqoClass::Downstream)),
        one("ladder.nx2-db.front-drops", "NX=2, db stall: web + app drops", "0",
            Ladder(2, 2), Count, exactly(0.0), |r, _| drops(r, 0) + drops(r, 1)),
        one("ladder.nx2-db.db-drops", "NX=2, db stall: db drops", "yes (downstream)",
            Ladder(2, 2), Count, at_least(1.0), |r, _| drops(r, 2)),
        one("ladder.nx2-db.db-peak", "NX=2, db stall: db peak queue", "228 (MaxSysQDepth)",
            Ladder(2, 2), Count, at_least(228.0), |r, _| peak(r, 2)),
        flag("ladder.nx2-db.all-downstream", "NX=2, db stall: every episode downstream", "yes",
            Ladder(2, 2), |r, s| all_episodes(r, s, CtqoClass::Downstream)),
        one("ladder.nx3-app.drops", "NX=3, app stall: drops", "0",
            Ladder(3, 1), Count, exactly(0.0), |r, _| r.drops_total as f64),
        one("ladder.nx3-app.vlrt", "NX=3, app stall: VLRT requests", "0",
            Ladder(3, 1), Count, exactly(0.0), |r, _| r.vlrt_total as f64),
        one("ladder.nx3-app.app-peak", "NX=3, app stall: app peak queue", "grows, absorbed",
            Ladder(3, 1), Count, at_least(101.0), |r, _| peak(r, 1)),
        one("ladder.nx3-app.modes", "NX=3, app stall: latency modes", "1",
            Ladder(3, 1), Count, exactly(1.0), |r, _| r.latency_modes().len() as f64),
        one("ladder.nx3-db.drops", "NX=3, db stall: drops", "0",
            Ladder(3, 2), Count, exactly(0.0), |r, _| r.drops_total as f64),
        one("ladder.nx3-db.vlrt", "NX=3, db stall: VLRT requests", "0",
            Ladder(3, 2), Count, exactly(0.0), |r, _| r.vlrt_total as f64),
        one("ladder.nx3-db.db-peak", "NX=3, db stall: db peak queue", "within the 2000 wait queue",
            Ladder(3, 2), Count, between(101.0, 2_000.0), |r, _| peak(r, 2)),
        many("ladder.throughput", "NX=0 / NX=3 throughput, app stall", "unchanged",
            &[Ladder(0, 1), Ladder(3, 1)], Ratio, between(0.91, 1.09),
            |rs| rs[0].throughput / rs[1].throughput),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_ids_are_unique_and_name_their_figure() {
        let claims = claims();
        let mut ids: Vec<&str> = claims.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), claims.len(), "duplicate claim id");
        for c in &claims {
            let (figure, metric) = c.id.split_once('.').expect("id is <figure>.<metric>");
            assert!(!figure.is_empty() && !metric.is_empty(), "{}", c.id);
            assert!(c.band.lo <= c.band.hi, "{}: empty band", c.id);
        }
    }

    #[test]
    fn bands_print_and_hold_inclusively() {
        assert_eq!(exactly(428.0).format(Unit::Count), "= 428");
        assert_eq!(exactly(1.0).format(Unit::YesNo), "yes");
        assert_eq!(at_least(1.0).format(Unit::Count), "≥ 1");
        assert_eq!(at_most(50.0).format(Unit::Count), "≤ 50");
        assert_eq!(between(0.38, 0.49).format(Unit::Share), "38 % – 49 %");
        assert_eq!(between(2.0, 5.9).format(Unit::Ratio), "2.00× – 5.90×");
        let band = between(2.0, 5.9);
        assert!(band.holds(2.0) && band.holds(5.9));
        assert!(!band.holds(1.99) && !band.holds(f64::NAN));
    }
}
