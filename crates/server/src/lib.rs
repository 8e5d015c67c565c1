//! Tier-server building blocks.
//!
//! An n-tier server, for the purposes of the CTQO study, is a composition of
//! a few queue-structural pieces; this crate models each one in isolation so
//! they can be unit-tested and property-tested independently of the engine
//! that wires them together (`ntier-core`):
//!
//! * [`cpu::CpuModel`] — FIFO cores with a precomputed stall timeline
//!   (millibottlenecks make a core unavailable for a sub-second interval);
//! * [`process_group::ProcessGroup`] — the worker threads of a synchronous
//!   server (Tomcat's 150, MySQL's 100) and Apache's prefork behaviour: when
//!   every thread of every process is busy, a new process with a fresh pool
//!   spawns after a delay (the paper's `MaxSysQDepth(Apache)` 278 → 428
//!   step);
//! * [`event_loop::EventLoop`] — an asynchronous server front: admission is
//!   bounded only by the large lightweight queue (`LiteQDepth`), workers gate
//!   CPU work but never admission;
//! * [`conn_pool::ConnectionPool`] — the Tomcat→MySQL connection pool
//!   (size 50) that caps a sync app server's outstanding queries;
//! * [`overhead::ThreadOverheadModel`] — demand inflation at high thread
//!   counts (context switching + GC), the mechanism behind Fig. 12.

pub mod conn_pool;
pub mod cpu;
pub mod event_loop;
pub mod overhead;
pub mod process_group;

pub use conn_pool::ConnectionPool;
pub use cpu::{CpuModel, StallTimeline};
pub use event_loop::EventLoop;
pub use overhead::ThreadOverheadModel;
pub use process_group::ProcessGroup;

/// The paper's `LiteQDepth` for Nginx/XTomcat: all available TCP ports.
pub const LITE_Q_DEPTH_DEFAULT: usize = 65_535;

/// The paper's `LiteQDepth` for XMySQL (InnoDB wait queue).
pub const LITE_Q_DEPTH_XMYSQL: usize = 2_000;
