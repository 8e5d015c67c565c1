//! The request lifecycle's allocation budget: in steady state a
//! closed-loop request costs about one heap allocation, its plan buffer;
//! the heap a fig1 engine holds once built; the heap a fig1 run at WL 7000
//! and the trace replay's first surge hold at their peaks; and the heap
//! the Fig. 12 grid's finished reports keep.
//!
//! This binary holds a single test because it installs a counting global
//! allocator, and any other test running in the same process would add to
//! the counts. The allocation budget is marginal: the allocations of a
//! 60 s fig1 run minus those of a 30 s run, over the extra requests the
//! longer run injects, so set-up costs cancel out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use ntier_core::experiment::{self, ExperimentSpec, TraceReplayArm};
use ntier_core::Engine;
use ntier_des::time::SimDuration;

/// Forwards to the system allocator, counts every block it hands out and
/// tracks live and peak bytes.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe calls and sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` with this `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by, requests injected in, and the peak live heap
/// bytes of `run()` in one fig1 run at WL 7000.
fn fig1(secs: u64) -> (u64, u64, usize) {
    let before = ALLOCS.load(Relaxed);
    let spec = experiment::fig1(7000, SimDuration::from_secs(secs), 7);
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    let report = spec.run();
    let peak = PEAK.load(Relaxed) - live;
    (ALLOCS.load(Relaxed) - before, report.injected, peak)
}

/// Live heap bytes that `Engine::new` holds for `spec` before any event
/// runs.
fn engine_footprint(spec: ExperimentSpec) -> usize {
    let before = LIVE.load(Relaxed);
    let engine = Engine::new(spec.system, spec.workload, spec.horizon, spec.seed);
    let held = LIVE.load(Relaxed) - before;
    drop(std::hint::black_box(engine));
    held
}

/// The peak live heap of `run()` over the trace replay's first ten minutes
/// and first submission surge: the bundled hour's CSV up to and including
/// its `surge_0` row, under the baseline arm at seed 7. The horizon stays
/// the full hour, so the report's per-window vectors are full length.
fn trace_replay_prefix() -> usize {
    let csv = experiment::TRACE_REPLAY_FIXTURE;
    let surge = csv
        .find("\nsurge_0,")
        .expect("the fixture has a first surge")
        + 1;
    let end = surge + csv[surge..].find('\n').expect("the surge row ends") + 1;
    let spec = experiment::trace_replay_csv(&csv[..end], TraceReplayArm::Baseline, 7);
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    let report = spec.run();
    let peak = PEAK.load(Relaxed) - live;
    assert!(
        report.vlrt_total > 0,
        "the prefix must reach the first surge"
    );
    peak
}

/// Live heap bytes that the reports of one seed's Fig. 12 grid (10 specs of
/// 20 s) retain once their runs are done: live heap with every report
/// held, minus live heap before the specs were built.
fn fig12_reports_retained() -> usize {
    let before = LIVE.load(Relaxed);
    let reports: Vec<_> = experiment::fig12_grid(7)
        .into_iter()
        .map(|spec| spec.run())
        .collect();
    let retained = LIVE.load(Relaxed).saturating_sub(before);
    assert!(reports.iter().all(|r| r.completed > 0 && r.is_conserved()));
    retained
}

/// Bound on the live heap [`engine_footprint`] reads for the fig1 preset at
/// WL 7000 over 600 s and for every spec of `fig12_grid(7)` (192 KiB): with
/// the window series reserving their horizon-sized buffers on first touch
/// and the drop and VLRT counters stored sparsely, a built fig1 engine
/// holds 162 KiB (166 032 bytes) and the largest Fig. 12 engine, a sync
/// one, 161 KiB (165 264 bytes); reserving every series at construction, a
/// fig1 engine held 772 KiB (790 256 bytes). The footprint also sets what
/// dropping an engine frees at once: with sparse counters but reservations
/// still made at construction, glibc trimmed the heap top on 50 of 51 fig1 engine
/// drops, so each next construction grew the heap again and the
/// benchmark's `setup_s` nearly doubled (DESIGN.md §16.6).
const ENGINE_FOOTPRINT_BOUND: usize = 192 << 10;

/// Bound on the peak live heap of one 60 s fig1 run at WL 7000 (896 KiB,
/// 16 % over the 770 KiB, 788 816 bytes, measured with sparse counters;
/// 802 KiB before them). With a four-record drop log per slot it once
/// peaked at 0.90 MiB, and with a buffer kept per calendar-queue wheel
/// bucket at 2.19 MiB.
const PEAK_HEAP_BOUND: usize = 7 << 17;

/// Bound on the peak live heap of [`trace_replay_prefix`] (3 MiB, 18 %
/// over the 2.55 MiB, 2 669 857 bytes, measured with sparse counters; it
/// peaked at 3.00 MiB, 3 148 945 bytes, with one `u32` per counter window
/// reserved at set-up). With a four-record drop log per slot, the slab alive through
/// report assembly and a second, integer buffer per tier for the
/// interferer utilization, it peaked at 5.71 MiB.
const TRACE_PREFIX_PEAK_BOUND: usize = 3 << 20;

/// Bound on [`fig12_reports_retained`] (160 KiB, 16 % over the 138 KiB,
/// 140 858 bytes, measured). Each series is trimmed to the windows it
/// touched and a stall-free replica has no interferer vector. The sparse
/// counters hold 2 KiB more than one `u32` per window did (138 626 bytes):
/// a `(window, count)` pair takes 8 bytes, so a counter that fires in over
/// half its windows is larger stored sparsely. With the
/// series' horizon-sized reservations and 400 zero interferer windows per
/// tier the reports held 347 KiB; with the reservations alone 253 KiB,
/// with the zero windows alone 229 KiB.
const FIG12_REPORTS_BOUND: usize = 160 << 10;

#[test]
fn closed_loop_requests_allocate_about_once() {
    let footprint = engine_footprint(experiment::fig1(7000, SimDuration::from_secs(600), 7));
    assert!(
        footprint < ENGINE_FOOTPRINT_BOUND,
        "a fig1 engine holds {footprint} live heap bytes once built, over the \
         {ENGINE_FOOTPRINT_BOUND} bound"
    );
    let fig12 = experiment::fig12_grid(7)
        .into_iter()
        .map(engine_footprint)
        .max()
        .expect("the grid has specs");
    assert!(
        fig12 < ENGINE_FOOTPRINT_BOUND,
        "the largest Fig. 12 engine holds {fig12} live heap bytes once built, over the \
         {ENGINE_FOOTPRINT_BOUND} bound"
    );
    let (short_allocs, short_reqs, _) = fig1(30);
    let (long_allocs, long_reqs, peak) = fig1(60);
    let per_request = (long_allocs - short_allocs) as f64 / (long_reqs - short_reqs) as f64;
    assert!(
        per_request <= 1.1,
        "{per_request:.3} allocations per request at the margin: {short_allocs} for \
         {short_reqs} requests at 30 s, {long_allocs} for {long_reqs} at 60 s"
    );
    assert!(
        peak < PEAK_HEAP_BOUND,
        "a 60 s fig1 run peaked at {peak} live heap bytes, over the {PEAK_HEAP_BOUND} bound"
    );
    let retained = fig12_reports_retained();
    assert!(
        retained < FIG12_REPORTS_BOUND,
        "the Fig. 12 grid's 10 reports retain {retained} live heap bytes, over the \
         {FIG12_REPORTS_BOUND} bound"
    );
    let trace_peak = trace_replay_prefix();
    assert!(
        trace_peak < TRACE_PREFIX_PEAK_BOUND,
        "the trace replay's first surge peaked at {trace_peak} live heap bytes, over the \
         {TRACE_PREFIX_PEAK_BOUND} bound"
    );
}
