//! Millibottleneck injectors.
//!
//! A *millibottleneck* is a resource saturation lasting a fraction of a
//! second — long enough to fill queues sized in the hundreds at arrival
//! rates around 1000 req/s, short enough to vanish from coarse (second-level)
//! monitoring. The paper produces them two ways, both reproduced here as
//! generators of CPU *stall intervals* (consumed by the server model's
//! `StallTimeline`):
//!
//! * `Colocation` — VM consolidation (§IV-A): a co-located
//!   bursty VM saturates the shared physical core whenever its workload
//!   bursts, starving the steady tier for the burst duration;
//! * `LogFlush` — monitoring-log flushing (§IV-B): `collectl`
//!   flushes its buffer every 30 s, driving I/O wait to 100 % and stalling
//!   the database for hundreds of milliseconds;
//! * [`StallSchedule`] — the common currency: explicit or periodic
//!   stall lists;
//! * [`DvfsSlowdown`] — an extension (the paper cites DVFS-induced
//!   millibottlenecks \[31\]): a frequency drop modelled as fine-grained
//!   duty-cycle stalls;
//! * [`GcModel`] — JVM garbage-collection pauses (the paper's \[32\]
//!   traced VLRT requests to full GCs): minor + major pause schedules.

mod colocate;
mod dvfs;
mod gc;
mod logflush;
mod stall;

pub use dvfs::DvfsSlowdown;
pub use gc::GcModel;
pub use stall::StallSchedule;

pub(crate) use colocate::Colocation;
pub(crate) use logflush::LogFlush;
