//! Deterministic discrete-event simulation (DES) kernel.
//!
//! This crate is the foundation substrate of the CTQO reproduction: every
//! other crate expresses behaviour in terms of the simulated clock and the
//! event queue defined here.
//!
//! Design goals:
//!
//! * **Determinism.** Two runs with the same seed produce byte-identical
//!   traces. The event queue breaks timestamp ties by insertion sequence
//!   number, and all randomness flows through [`rng::SimRng`], which is
//!   seeded explicitly.
//! * **Millisecond-scale fidelity.** The paper's phenomena (millibottlenecks,
//!   50 ms monitoring windows, sub-millisecond service demands) require a
//!   clock granularity well below 1 ms; [`time::SimTime`] ticks are
//!   microseconds.
//! * **No global state.** A simulation is an ordinary value; tests can run
//!   thousands of small simulations in parallel.
//!
//! # Example
//!
//! ```
//! use ntier_des::prelude::*;
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_millis(3), "retransmit");
//! queue.push(SimTime::ZERO + SimDuration::from_micros(750), "service-done");
//!
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!(ev, "service-done");
//! assert_eq!(t.as_micros(), 750);
//! ```

pub mod dist;
pub mod ids;
pub mod queue;
pub mod rng;
pub mod time;

/// Convenient re-exports of the items nearly every consumer needs.
pub mod prelude {
    pub use crate::dist::{Distribution, Exponential, LogNormal, Point};
    pub use crate::ids::{ReplicaId, TierId};
    pub use crate::queue::EventQueue;
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime};
}

pub use prelude::*;
