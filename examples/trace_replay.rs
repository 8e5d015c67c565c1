//! Replays the bundled one-hour Alibaba-dialect cluster trace
//! (`fixtures/alibaba_1h.csv`, >1M task instances) through the synchronous
//! three-tier system, streaming arrivals straight off the CSV so memory
//! stays proportional to the number of *active* requests.
//!
//! The probe prints a baseline-vs-hardened comparison (the trace's
//! submission surges mint CTQO episodes under the baseline; the hardened
//! caller stack converts them into fast failures), then pins three
//! properties the streaming redesign promises:
//!
//! * **determinism** — the report is bit-identical across reruns and
//!   across 1 vs. 8 runner threads;
//! * **bounded memory** — a counting allocator asserts that peak live heap
//!   stays far below what eagerly materializing one million
//!   `(SimTime, Plan)` arrivals would need;
//! * **scale** — ≥1M logical users over ≥1h of simulated time.
//!
//! ```sh
//! cargo run --release --example trace_replay [seed]
//! ```
//!
//! The final line `TRACE_REPLAY OK` is grepped by CI.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use ntier_core::analysis;
use ntier_core::experiment::{trace_replay, TraceReplayArm};
use ntier_core::report::RunReport;
use ntier_des::prelude::*;

/// Wraps the system allocator with live/peak byte counters so the run can
/// assert the O(active-requests) memory contract of streaming workloads.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = LIVE.fetch_add(grow, Relaxed) + grow;
                PEAK.fetch_max(live, Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak-live-heap ceiling, about 2.4 times the 6.6 MiB this probe peaks
/// at (both arms, then the 1- and 8-thread reruns with only fingerprints
/// kept). With one `u32` per drop or VLRT counter window it peaked at
/// 7.8–7.9 MiB, and with horizon-sized series reservations and zero
/// interferer vectors also kept in every report at 8.3 MiB. An eager `Vec<(SimTime, Plan)>` of the 1.03M-instance fixture
/// alone would add ~350 MiB. Building each report's whole `Debug` string
/// to fingerprint it, with both arms' reports held across the reruns,
/// peaked at 20.5 MiB.
const PEAK_HEAP_CEILING: usize = 16 * 1024 * 1024;

/// Hashes the report's `Debug` text as it is written, without building the
/// whole string: a replayed hour's report renders to megabytes. The bytes
/// and the closing `0xff` are what hashing the `String` would feed the
/// hasher, so the fingerprint is the same value.
fn fingerprint(report: &RunReport) -> u64 {
    struct HashWriter(DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut h = HashWriter(DefaultHasher::new());
    write!(h, "{report:?}").expect("hashing into memory cannot fail");
    h.0.write_u8(0xff);
    h.0.finish()
}

fn row(label: &str, r: &RunReport, episodes: usize) {
    println!(
        "{label:<9} {:>9} {:>9} {:>7} {:>6} {:>6} {:>6.2}% {:>6} {:>8} {:>9.1} {:>9.1}",
        r.injected,
        r.completed,
        r.failed,
        r.shed,
        r.vlrt_total,
        r.vlrt_fraction() * 100.0,
        r.drops_total,
        episodes,
        r.latency
            .quantile(0.999)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3),
        r.latency.max().as_secs_f64() * 1e3,
    );
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(7);

    println!(
        "{:<9} {:>9} {:>9} {:>7} {:>6} {:>6} {:>7} {:>6} {:>8} {:>9} {:>9}",
        "arm",
        "injected",
        "completed",
        "failed",
        "shed",
        "vlrt",
        "vlrt%",
        "drops",
        "episodes",
        "p999(ms)",
        "max(ms)"
    );

    let mut arm_reports = Vec::new();
    for arm in [TraceReplayArm::Baseline, TraceReplayArm::Hardened] {
        let spec = trace_replay(arm, seed);
        let system = spec.system.clone();
        let report = spec.run();
        assert!(
            report.is_conserved(),
            "{}: {}",
            arm.label(),
            report.summary()
        );
        assert!(
            report.workload_fault.is_none(),
            "{}: trace replay faulted: {:?}",
            arm.label(),
            report.workload_fault
        );
        let episodes = analysis::detect(&report, &system, SimDuration::from_secs(1));
        row(arm.label(), &report, episodes.len());
        arm_reports.push((arm, report, episodes.len()));
    }

    let (_, baseline, baseline_episodes) = {
        let (a, r, e) = &arm_reports[0];
        (*a, r, *e)
    };
    let (_, hardened, _) = {
        let (a, r, e) = &arm_reports[1];
        (*a, r, *e)
    };

    // Scale: the fixture expands to >1M logical users over a full hour.
    assert!(
        baseline.injected >= 1_000_000,
        "expected >=1M logical users, injected {}",
        baseline.injected
    );
    assert!(
        baseline.horizon >= SimDuration::from_secs(3_600),
        "expected >=1h simulated, got {:?}",
        baseline.horizon
    );

    // The surges must actually mint CTQO under the baseline, and the
    // hardened caller stack must suppress the multi-second retransmit tail.
    assert!(
        baseline_episodes > 0,
        "baseline replay produced no CTQO episodes"
    );
    assert!(
        baseline.vlrt_total > 0,
        "baseline replay produced no VLRT requests"
    );
    assert!(
        hardened.vlrt_fraction() < baseline.vlrt_fraction() / 2.0,
        "hardened arm did not suppress the VLRT tail: {:.4}% vs {:.4}%",
        hardened.vlrt_fraction() * 100.0,
        baseline.vlrt_fraction() * 100.0
    );

    // Determinism: bit-identical to the runs above and across runner
    // thread counts. Only the arms' fingerprints are kept, so the reruns do
    // not stack on top of two full reports.
    let direct: Vec<u64> = arm_reports.iter().map(|(_, r, _)| fingerprint(r)).collect();
    drop(arm_reports);
    let specs = || {
        vec![
            trace_replay(TraceReplayArm::Baseline, seed),
            trace_replay(TraceReplayArm::Hardened, seed),
        ]
    };
    let serial: Vec<u64> = ntier_runner::run_all(specs(), 1)
        .iter()
        .map(fingerprint)
        .collect();
    let threaded: Vec<u64> = ntier_runner::run_all(specs(), 8)
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(
        serial, direct,
        "runner replay diverged from the direct runs"
    );
    assert_eq!(serial, threaded, "8-thread runner diverged from serial");
    println!(
        "threads   1/8 bit-identical (fingerprint {:016x})",
        direct[0]
    );

    // Bounded memory: streaming keeps the whole replay far below what an
    // eagerly materialized arrival vector would need. The measured peak
    // goes to stderr: it moves by a few hundred KiB between runs, because
    // the runner reruns' threads interleave their allocations, and stdout
    // stays byte-stable.
    let peak = PEAK.load(Relaxed);
    eprintln!("peak heap {:.1} MiB", peak as f64 / (1024.0 * 1024.0));
    assert!(
        peak < PEAK_HEAP_CEILING,
        "peak live heap {peak} exceeded ceiling {PEAK_HEAP_CEILING}"
    );
    println!(
        "peak heap under {} MiB ceiling",
        PEAK_HEAP_CEILING / (1024 * 1024)
    );

    println!("TRACE_REPLAY OK");
}
