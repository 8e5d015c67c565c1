//! Deterministic parallel experiment runner.
//!
//! The figures in the paper are sweeps: the same system simulated across a
//! workload ladder (Fig. 1's 20 workload steps, Fig. 12's concurrency grid),
//! or the same spec replicated across seeds for confidence bands. Each run
//! is an independent, seeded, single-threaded simulation, so the sweep is
//! embarrassingly parallel — *as long as parallelism cannot perturb
//! results*.
//!
//! Determinism argument: an [`ExperimentSpec`] owns every input of its
//! simulation (config, workload, horizon, seed) and `run()` touches no
//! global state; the engine draws randomness only from its own seeded RNG.
//! Workers take `(index, spec)` pairs from one shared queue — *which*
//! thread runs a spec is racy, but each report is a pure function of its
//! spec, and the reports are merged by submission index after every worker
//! has been joined. `run_all(specs, n)` therefore returns bit-identical
//! reports for every `n`, which `tests/` asserts field-for-field.

use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};

use ntier_core::experiment::ExperimentSpec;
use ntier_core::RunReport;

/// Errors surfaced by the runner as values instead of process aborts, so
/// sweep drivers can report *which* run died and keep the rest.
#[derive(Debug)]
pub enum RunnerError {
    /// A worker thread panicked while running an experiment.
    WorkerPanicked,
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::WorkerPanicked => write!(f, "an experiment worker thread panicked"),
        }
    }
}

impl std::error::Error for RunnerError {}

/// Worker-pool size to use when the caller has no opinion: one worker per
/// available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every spec and returns the reports **in submission order**,
/// spreading the work across `threads` scoped worker threads.
///
/// Results are bit-identical for every `threads` value (see the module
/// docs); the thread count only changes wall-clock time.
///
/// # Panics
///
/// Panics if `threads` is zero, or if any experiment panics (the panic is
/// propagated after all workers have been joined). Use [`try_run_all`] to
/// receive those failures as a [`RunnerError`] instead.
pub fn run_all(specs: Vec<ExperimentSpec>, threads: usize) -> Vec<RunReport> {
    try_run_all(specs, threads).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_all`], with worker failures returned as values: a panicking
/// experiment yields [`RunnerError::WorkerPanicked`] after every other
/// worker has been joined, rather than aborting the sweep driver.
///
/// # Errors
///
/// Returns [`RunnerError::WorkerPanicked`] when any worker thread panicked.
///
/// # Panics
///
/// Panics if `threads` is zero — a caller bug, not a runtime failure.
pub fn try_run_all(
    specs: Vec<ExperimentSpec>,
    threads: usize,
) -> Result<Vec<RunReport>, RunnerError> {
    assert!(threads > 0, "runner needs at least one worker thread");
    let n = specs.len();
    // The queue's lock is held only while a worker takes its next spec, so
    // no experiment can poison it; recovering the guard anyway keeps a
    // worker from dying where its panic message is least visible.
    let queue = Mutex::new(specs.into_iter().enumerate());
    let joined: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Its own statement, so the guard drops before the run.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((index, spec)) = next else {
                            return done;
                        };
                        // Boxed: a `RunReport` is almost a kilobyte inline,
                        // and a growing list of them would hold up to twice
                        // that per report.
                        done.push((index, Box::new(spec.run())));
                    }
                })
            })
            .collect();
        // Join every worker, not just up to the first panic: a handle left
        // unjoined makes `scope` itself panic instead of returning.
        workers.into_iter().map(|worker| worker.join()).collect()
    });
    let mut reports = Vec::with_capacity(n);
    for done in joined {
        reports.extend(done.map_err(|_| RunnerError::WorkerPanicked)?);
    }
    reports.sort_unstable_by_key(|&(index, _)| index);
    Ok(reports.into_iter().map(|(_, report)| *report).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntier_core::experiment;
    use ntier_des::time::SimDuration;

    fn tiny_specs() -> Vec<ExperimentSpec> {
        vec![
            experiment::fig1(1_000, SimDuration::from_secs(5), 1),
            experiment::fig1(2_000, SimDuration::from_secs(5), 2),
            experiment::fig1(3_000, SimDuration::from_secs(5), 3),
            experiment::fig12_sync(100, 7),
            experiment::fig12_async(100, 7),
        ]
    }

    fn fingerprint(r: &RunReport) -> (u64, u64, u64, u64, u64, u64) {
        (
            r.events,
            r.injected,
            r.completed,
            r.drops_total,
            r.vlrt_total,
            r.latency.quantile(0.999).map_or(0, |d| d.as_micros()),
        )
    }

    #[test]
    fn reports_come_back_in_submission_order() {
        // Horizons differ, so if merge order followed completion order the
        // long run would come back last regardless of submission position.
        let specs = vec![
            experiment::fig1(2_000, SimDuration::from_secs(10), 1),
            experiment::fig1(2_000, SimDuration::from_secs(1), 1),
        ];
        let reports = run_all(specs, 2);
        assert_eq!(reports[0].horizon, SimDuration::from_secs(10));
        assert_eq!(reports[1].horizon, SimDuration::from_secs(1));
        assert!(reports[0].injected > reports[1].injected);
    }

    #[test]
    fn thread_count_cannot_change_results() {
        let serial: Vec<_> = run_all(tiny_specs(), 1).iter().map(fingerprint).collect();
        for threads in [2, 4, 8] {
            let parallel: Vec<_> = run_all(tiny_specs(), threads)
                .iter()
                .map(fingerprint)
                .collect();
            assert_eq!(serial, parallel, "results diverged at {threads} threads");
        }
    }

    #[test]
    fn more_threads_than_specs_is_fine() {
        let reports = run_all(vec![experiment::fig12_sync(100, 1)], 16);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].completed > 0);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(run_all(Vec::new(), 4).is_empty());
    }

    #[test]
    fn try_run_all_returns_reports_as_values() {
        let reports = try_run_all(tiny_specs(), 2).expect("no worker failures");
        assert_eq!(reports.len(), 5);
        assert!(reports.iter().all(|r| r.completed > 0));
    }

    /// `tiny_specs` between two specs whose zero-replica tier makes
    /// `Engine::new` panic. At two threads both workers then panic,
    /// whichever takes the first spec, so a runner that stops joining at
    /// the first panic leaves a handle unjoined.
    fn specs_with_panicking_ends() -> Vec<ExperimentSpec> {
        let bad = || {
            let mut spec = experiment::fig12_sync(100, 7);
            spec.system.tiers[0] = spec.system.tiers[0].clone().replicas(0);
            spec
        };
        let mut specs = vec![bad()];
        specs.extend(tiny_specs());
        specs.push(bad());
        specs
    }

    #[test]
    fn a_panicking_spec_surfaces_as_worker_panicked() {
        for threads in [1, 2] {
            let result = try_run_all(specs_with_panicking_ends(), threads);
            assert!(
                matches!(result, Err(RunnerError::WorkerPanicked)),
                "{threads} threads: {result:?}"
            );
            let payload =
                std::panic::catch_unwind(|| run_all(specs_with_panicking_ends(), threads))
                    .expect_err("run_all must panic");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("an experiment worker thread panicked"),
                "{threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = run_all(tiny_specs(), 0);
    }
}
