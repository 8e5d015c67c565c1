//! Simulated statistics pinned per workload and seed. A change meant only
//! to make the simulator faster must leave these identical.

use crate::workloads::Workload;

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 7;

/// A second pinned seed, held out while tuning: a claimed gain must also
/// hold on it.
pub const HELD_OUT_SEED: u64 = 11;

/// `(completed, vlrt_total)` summed over the workload's runs, for the
/// pinned seeds; `None` for any other seed.
pub fn pinned(w: Workload, seed: u64) -> Option<(u64, u64)> {
    use Workload::*;
    match (w, seed) {
        (Fig1Closed, DEFAULT_SEED) => Some((591_209, 8_243)),
        (Fig1Closed, HELD_OUT_SEED) => Some((589_404, 9_114)),
        // The replay's outcome does not depend on the seed.
        (TraceReplay, DEFAULT_SEED | HELD_OUT_SEED) => Some((2_045_471, 18_761)),
        (Planes, DEFAULT_SEED) => Some((195_026, 11_300)),
        (Planes, HELD_OUT_SEED) => Some((195_216, 10_010)),
        (Fig12Sweep, DEFAULT_SEED) => Some((677_841, 17_900)),
        (Fig12Sweep, HELD_OUT_SEED) => Some((677_827, 17_890)),
        _ => None,
    }
}
