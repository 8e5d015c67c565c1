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
//! Workers claim specs by atomically incrementing a shared index — *which*
//! thread runs a spec is racy, but each report is a pure function of its
//! spec, and reports are written into a slot keyed by submission index.
//! `run_all(specs, n)` therefore returns bit-identical reports for every
//! `n`, which `tests/` asserts field-for-field.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use ntier_core::experiment::ExperimentSpec;
use ntier_core::RunReport;

/// Errors surfaced by the runner as values instead of process aborts, so
/// sweep drivers can report *which* run died and keep the rest.
#[derive(Debug)]
pub enum RunnerError {
    /// A worker thread panicked while running an experiment.
    WorkerPanicked,
    /// A report slot was still empty after every worker exited — the spec
    /// at `index` was claimed but produced no report (a worker died between
    /// claiming and storing).
    MissingReport {
        /// Submission index of the spec whose report is missing.
        index: usize,
    },
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::WorkerPanicked => write!(f, "an experiment worker thread panicked"),
            RunnerError::MissingReport { index } => {
                write!(f, "no report was stored for spec #{index}")
            }
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
/// Returns [`RunnerError::WorkerPanicked`] when any worker thread panicked,
/// or [`RunnerError::MissingReport`] when a claimed spec never stored its
/// report.
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
    if n == 0 {
        return Ok(Vec::new());
    }

    // One slot per spec: workers take the spec out and put the report in.
    // Slots are claimed exclusively via `next`, so each mutex is touched by
    // exactly one worker; the locks exist to satisfy the borrow checker,
    // not to arbitrate contention. Poisoning is recovered rather than
    // unwrapped — a slot holds a whole `Option`, never a half-written one,
    // and the panic that poisoned it is reported via `WorkerPanicked`.
    let jobs: Vec<Mutex<Option<ExperimentSpec>>> =
        specs.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let slots: Vec<Mutex<Option<RunReport>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let workers = threads.min(n);
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let spec = jobs[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take();
                // An empty job slot is unreachable (each index is claimed
                // once); treat it as already-run rather than dying in a
                // worker, where the panic message is least visible.
                if let Some(spec) = spec {
                    let report = spec.run();
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(report);
                }
            });
        }
    })
    .map_err(|_| RunnerError::WorkerPanicked)?;

    slots
        .into_iter()
        .enumerate()
        .map(|(index, m)| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .ok_or(RunnerError::MissingReport { index })
        })
        .collect()
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

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = run_all(tiny_specs(), 0);
    }
}
