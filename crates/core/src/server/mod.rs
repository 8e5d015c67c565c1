//! Tier-server building blocks.
//!
//! An n-tier server, for the purposes of the CTQO study, is a composition of
//! a few queue-structural pieces; this module models each one in isolation so
//! they can be unit-tested and property-tested independently of the engine
//! that wires them together:
//!
//! * `CpuModel` — FIFO cores with a precomputed stall timeline
//!   (millibottlenecks make a core unavailable for a sub-second interval);
//! * `ProcessGroup` — the worker threads of a synchronous
//!   server (Tomcat's 150, MySQL's 100) and Apache's prefork behaviour: when
//!   every thread of every process is busy, a new process with a fresh pool
//!   spawns after a delay (the paper's `MaxSysQDepth(Apache)` 278 → 428
//!   step);
//! * `EventLoop` — an asynchronous server front: admission is
//!   bounded only by the large lightweight queue (`LiteQDepth`), workers gate
//!   CPU work but never admission;
//! * `ConnectionPool` — the Tomcat→MySQL connection pool
//!   (size 50) that caps a sync app server's outstanding queries;
//! * [`ThreadOverheadModel`] — demand inflation at high thread
//!   counts (context switching + GC), the mechanism behind Fig. 12.

mod conn_pool;
mod cpu;
mod event_loop;
mod overhead;
mod process_group;

pub use overhead::ThreadOverheadModel;

pub(crate) use conn_pool::{ConnectionPool, Lease};
pub(crate) use cpu::{CpuModel, StallTimeline};
pub(crate) use event_loop::EventLoop;
pub(crate) use process_group::ProcessGroup;

/// The paper's `LiteQDepth` for Nginx/XTomcat: all available TCP ports.
pub(crate) const LITE_Q_DEPTH_DEFAULT: usize = 65_535;

/// The paper's `LiteQDepth` for XMySQL (InnoDB wait queue).
pub(crate) const LITE_Q_DEPTH_XMYSQL: usize = 2_000;
