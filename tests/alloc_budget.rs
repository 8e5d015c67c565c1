//! The request lifecycle's allocation budget: in steady state a
//! closed-loop request costs about one heap allocation, its plan buffer.
//!
//! This binary holds a single test because it installs a counting global
//! allocator, and any other test running in the same process would add to
//! the count. The budget is marginal: the allocations of a 60 s fig1 run
//! minus those of a 30 s run, over the extra requests the longer run
//! injects, so set-up costs cancel out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ntier_core::experiment;
use ntier_des::time::SimDuration;

/// Forwards to the system allocator and counts every block it hands out.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` with this `layout`.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by, and requests injected in, one fig1 run at WL 7000.
fn fig1(secs: u64) -> (u64, u64) {
    let before = ALLOCS.load(Relaxed);
    let report = experiment::fig1(7000, SimDuration::from_secs(secs), 7).run();
    (ALLOCS.load(Relaxed) - before, report.injected)
}

#[test]
fn closed_loop_requests_allocate_about_once() {
    let (short_allocs, short_reqs) = fig1(30);
    let (long_allocs, long_reqs) = fig1(60);
    let per_request = (long_allocs - short_allocs) as f64 / (long_reqs - short_reqs) as f64;
    assert!(
        per_request <= 1.1,
        "{per_request:.3} allocations per request at the margin: {short_allocs} for \
         {short_reqs} requests at 30 s, {long_allocs} for {long_reqs} at 60 s"
    );
}
