//! The repository benchmark: host wall time, simulated-request throughput
//! and peak heap of the deterministic simulator on four workloads, plus a
//! traced pass that splits the cost by layer from outside each crate.
//!
//! ```sh
//! cargo run -q --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig1_closed|trace_replay|planes|fig12_sweep|all> \
//!     [--seed 7] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Every metric is printed as a `metric <workload> <name> <value> <unit>`
//! line, preceded by a `provenance` line; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. See `perfbench/README.md` for what each metric means.

mod alloc;
mod pins;
mod probe;
mod workloads;

use std::path::Path;
use std::time::Instant;

use workloads::{run_rep, Probes, Rep, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Fewest untraced reps a run measures, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Set-ups timed for the `setup_s` median.
const SETUP_SAMPLES: usize = 51;
/// Where the post-run CSV bundles go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: pins::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads = vec![Workload::parse(&value).ok_or_else(|| bad("a workload"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// One printed metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The result of measuring one workload.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs reps until `seconds` have passed and at least `min` were made.
fn reps_for<T>(seconds: f64, min: usize, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min || start.elapsed().as_secs_f64() < seconds {
        reps.push(rep());
    }
    reps
}

/// The output check behind `failed`: a run fails when its report is not
/// conserved or carries a workload fault, when its export failed, when
/// its runner worker panicked, or when it disagrees with the reference
/// run of the same spec — by fingerprint for a repeat of the same
/// configuration, by simulated statistics for a traced run.
struct Check<'a> {
    reference: &'a Rep,
    specs: u64,
    attempted: u64,
    failed: u64,
}

impl<'a> Check<'a> {
    fn new(reference: &'a Rep, specs: usize) -> Self {
        let mut check = Check {
            reference,
            specs: specs as u64,
            attempted: 0,
            failed: 0,
        };
        check.rep(reference, |_, _| true);
        check
    }

    fn rep(&mut self, rep: &Rep, same: impl Fn(&workloads::RunSummary, usize) -> bool) {
        self.attempted += self.specs;
        if rep.panicked || rep.runs.len() as u64 != self.specs {
            self.failed += self.specs;
            return;
        }
        let bad = rep
            .runs
            .iter()
            .enumerate()
            .filter(|(i, r)| !r.sound || !same(r, *i))
            .count();
        self.failed += (bad + rep.export_failures).min(rep.runs.len()) as u64;
    }

    fn repeat(&mut self, rep: &Rep) {
        let reference = self.reference;
        self.rep(rep, |r, i| {
            reference
                .runs
                .get(i)
                .is_some_and(|x| x.fingerprint == r.fingerprint)
        });
    }

    fn traced(&mut self, rep: &Rep, first: &Rep) {
        let reference = self.reference;
        self.rep(rep, |r, i| {
            reference
                .runs
                .get(i)
                .is_some_and(|x| x.sim_stats() == r.sim_stats())
                && first
                    .runs
                    .get(i)
                    .is_some_and(|x| x.fingerprint == r.fingerprint)
        });
    }
}

fn measure(w: Workload, args: &Args, threads: usize) -> Outcome {
    let out = Path::new(OUT_DIR).join(w.name());
    let rep = |probes: Option<&Probes>| run_rep(w, args.seed, probes, &out, threads);
    let specs = w.specs(args.seed, None).len();
    // Set-up is timed first, while the heap is in the same state whatever
    // the seed: later, the allocator's reuse of freed blocks depends on
    // what the seed's runs allocated.
    let setup = median(
        (0..SETUP_SAMPLES)
            .map(|_| workloads::setup_once(w, args.seed))
            .collect(),
    );
    // The reference rep also warms caches and lazy set-up; it is checked
    // but not timed.
    let reference = rep(None);
    let plain_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = reps_for(plain_s, MIN_REPS, || rep(None));
    let mut check = Check::new(&reference, specs);
    for r in &plain {
        check.repeat(r);
    }
    let sum = |f: fn(&workloads::RunSummary) -> u64| -> u64 { reference.runs.iter().map(f).sum() };
    let completed = sum(|r| r.completed);
    let vlrt = sum(|r| r.vlrt);
    let pin = pins::pinned(w, args.seed);
    let pin_ok = pin.is_none_or(|p| p == (completed, vlrt));
    if !pin_ok {
        eprintln!(
            "{}: seed {} simulated (completed, vlrt) = ({completed}, {vlrt}), pinned {pin:?}",
            w.name(),
            args.seed
        );
    }
    let med = |reps: &[Rep], f: fn(&Rep) -> f64| median(reps.iter().map(f).collect());
    // Rep times are taken from the least-disturbed rep. On a shared host
    // the simulator alternates, seconds at a time, between its own speed
    // and a mode up to ~1.5x slower that CPU-only loops do not show; a
    // median of reps follows how much of the run fell in the slow mode,
    // while the fastest rep of a run repeats within a few percent.
    let fastest = |f: fn(&Rep) -> f64| plain.iter().map(f).fold(f64::INFINITY, f64::min);
    let wall = fastest(|r| r.wall_s);
    println!("metric {} reps {} count", w.name(), plain.len());
    println!(
        "metric {} wall_s_median {} s",
        w.name(),
        json_number(med(&plain, |r| r.wall_s))
    );

    let metrics = if !args.trace {
        vec![
            ("wall_s", wall, "s"),
            ("setup_s", setup, "s"),
            (
                "sim_requests_per_s",
                plain
                    .iter()
                    .map(|r| ratio(r.injected() as f64, r.sim_s))
                    .fold(0.0, f64::max),
                "req/s",
            ),
            (
                "peak_heap_mib",
                med(&plain, |r| r.peak_heap / (1u64 << 20) as f64),
                "MiB",
            ),
        ]
    } else {
        let traced_reps = reps_for(args.seconds / 2.0, 1, || {
            let probes = Probes::default();
            let r = rep(Some(&probes));
            (r, probes)
        });
        let first = &traced_reps[0].0;
        for (r, _) in &traced_reps {
            check.traced(r, first);
        }
        let (last, probes) = &traced_reps[traced_reps.len() - 1];
        let tsum = |f: fn(&workloads::RunSummary) -> u64| -> u64 { last.runs.iter().map(f).sum() };
        let tmax = |f: fn(&workloads::RunSummary) -> u64| -> u64 {
            last.runs.iter().map(f).max().unwrap_or(0)
        };
        let occupancy = ratio(
            tsum(|r| r.occupancy_sum) as f64,
            tsum(|r| r.snapshots) as f64,
        );
        let (spec_s_sum, longest) = if w.uses_runner() {
            workloads::serial_spec_times(w, args.seed)
        } else {
            (0.0, 0.0)
        };
        let makespan = if w.uses_runner() {
            med(&plain, |r| r.sim_s)
        } else {
            0.0
        };
        let run_s = if w.uses_runner() {
            spec_s_sum
        } else {
            med(&plain, |r| r.sim_s)
        };
        let events = sum(|r| r.events) as f64;
        let injected = sum(|r| r.injected) as f64;
        let source_busy = median(traced_reps.iter().map(|(_, p)| p.source.busy_s()).collect());
        let source_share = median(
            traced_reps
                .iter()
                .map(|(r, p)| ratio(p.source.busy_s(), r.sim_s))
                .collect(),
        );
        let traced_wall = traced_reps
            .iter()
            .map(|(r, _)| r.wall_s)
            .fold(f64::INFINITY, f64::min);
        let sim_s: f64 = reference.runs.iter().map(|r| r.horizon_s).sum();
        let hold_s = occupancy * ratio(sim_s, events);
        let queue_ns = median(
            (0..3)
                .map(|_| workloads::queue_ns_per_op(occupancy.round() as usize, hold_s, args.seed))
                .collect(),
        );
        let parse_s = if w == Workload::TraceReplay {
            workloads::trace_parse_s(args.seed)
        } else {
            0.0
        };
        let sims_agree = check.failed == 0;
        let matched = match pin {
            Some(_) => pin_ok,
            None => sims_agree,
        };
        vec![
            ("core.engine.run_s", run_s, "s"),
            ("core.engine.events", events, "count"),
            ("core.engine.events_per_s", ratio(events, run_s), "1/s"),
            (
                "core.engine.events_per_request",
                ratio(events, injected),
                "ratio",
            ),
            ("des.queue.ns_per_op", queue_ns, "ns"),
            (
                "des.calendar.peak_occupancy",
                tmax(|r| r.peak_occupancy) as f64,
                "count",
            ),
            (
                "core.slab.peak_live",
                tmax(|r| r.peak_slab_live) as f64,
                "count",
            ),
            (
                "workload.source.pulls",
                probes.source.calls() as f64,
                "count",
            ),
            ("workload.source.busy_s", source_busy, "s"),
            ("workload.source.busy_share", source_share, "ratio"),
            ("workload.cluster_trace.parse_s", parse_s, "s"),
            ("resilience.retries", sum(|r| r.retries) as f64, "count"),
            ("resilience.timeouts", sum(|r| r.timeouts) as f64, "count"),
            ("resilience.shed", sum(|r| r.shed) as f64, "count"),
            ("resilience.hedges", sum(|r| r.hedges) as f64, "count"),
            (
                "resilience.cancels_propagated",
                sum(|r| r.cancels) as f64,
                "count",
            ),
            ("net.drops", sum(|r| r.drops) as f64, "count"),
            (
                "telemetry.metrics.snapshots",
                tsum(|r| r.snapshots) as f64,
                "count",
            ),
            (
                "telemetry.metrics.sink_bytes",
                probes.sink.bytes() as f64,
                "B",
            ),
            (
                "telemetry.metrics.sink_busy_s",
                median(traced_reps.iter().map(|(_, p)| p.sink.busy_s()).collect()),
                "s",
            ),
            ("trace.started", sum(|r| r.trace_started) as f64, "count"),
            ("trace.retained", sum(|r| r.trace_retained) as f64, "count"),
            ("trace.evicted", sum(|r| r.trace_evicted) as f64, "count"),
            (
                "trace.attribution_ratio",
                ratio(reference.chains as f64, reference.vlrt_traces as f64),
                "ratio",
            ),
            ("trace.analyze_s", med(&plain, |r| r.analyze_s), "s"),
            ("trace.export_s", med(&plain, |r| r.export_s), "s"),
            ("control.decisions", sum(|r| r.decisions) as f64, "count"),
            ("core.analysis.detect_s", med(&plain, |r| r.detect_s), "s"),
            ("core.analysis.episodes", reference.episodes as f64, "count"),
            ("core.csv.bundle_s", med(&plain, |r| r.csv_s), "s"),
            ("runner.makespan_s", makespan, "s"),
            ("runner.spec_s_sum", spec_s_sum, "s"),
            ("runner.longest_spec_s", longest, "s"),
            (
                "runner.efficiency",
                ratio(spec_s_sum, threads as f64 * makespan),
                "ratio",
            ),
            ("sim.completed", completed as f64, "count"),
            ("sim.vlrt_total", vlrt as f64, "count"),
            ("sim.match", f64::from(u8::from(matched)), "bool"),
            (
                "bench.trace_overhead",
                ratio(traced_wall, wall) - 1.0,
                "ratio",
            ),
        ]
    };
    Outcome {
        correct: check.failed == 0 && pin_ok,
        attempted: check.attempted,
        failed: check.failed,
        metrics,
    }
}

/// The commit the working tree was checked out at, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let resolve = || {
        let head = read("HEAD")?;
        let head = head.trim();
        let Some(name) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Some(rev) = read(name) {
            return Some(rev.trim().to_string());
        }
        let packed = read("packed-refs")?;
        let line = packed.lines().find(|l| l.ends_with(name))?;
        Some(line.split(' ').next()?.to_string())
    };
    resolve().unwrap_or_else(|| "unknown".to_string())
}

fn provenance(w: Workload, args: &Args, threads: usize) -> String {
    let probes = Probes::default();
    let specs = w.specs(args.seed, args.trace.then_some(&probes));
    let planes: Vec<String> = workloads::planes(&specs)
        .iter()
        .map(|p| format!("\"{p}\""))
        .collect();
    format!(
        "{{\"git_rev\":\"{}\",\"nproc\":{},\"threads\":{},\"seed\":{},\"held_out_seed\":{},\
         \"pinned\":{},\"workload\":\"{}\",\"pass\":\"{}\",\"specs\":{},\
         \"config_fingerprint\":\"{:016x}\",\"planes\":[{}]}}",
        git_rev(),
        ntier_runner::default_threads(),
        threads,
        args.seed,
        pins::HELD_OUT_SEED,
        pins::pinned(w, args.seed).is_some(),
        w.name(),
        if args.trace { "traced" } else { "untraced" },
        specs.len(),
        workloads::config_fingerprint(&w.specs(args.seed, None)),
        planes.join(",")
    )
}

/// A finite number with all its digits, as JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let threads = ntier_runner::default_threads();
    let single = args.workloads.len() == 1;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut fields = Vec::new();
    for &w in &args.workloads {
        println!("provenance {}", provenance(w, &args, threads));
        let o = measure(w, &args, threads);
        println!(
            "metric {} failed_frac {} ratio",
            w.name(),
            json_number(ratio(o.failed as f64, o.attempted as f64))
        );
        for (name, value, unit) in &o.metrics {
            println!("metric {} {name} {} {unit}", w.name(), json_number(*value));
            let key = if single {
                (*name).to_string()
            } else {
                format!("{}.{name}", w.name())
            };
            fields.push(format!(
                "\"{key}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            ));
        }
        correct &= o.correct;
        attempted += o.attempted;
        failed += o.failed;
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
}
