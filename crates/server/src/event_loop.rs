//! The asynchronous (event-driven) server front.
//!
//! The property that distinguishes Nginx/XTomcat/XMySQL in the paper is that
//! *admission is decoupled from workers*: an incoming request is parked in a
//! large lightweight queue (`LiteQDepth` — 65535 for Nginx/XTomcat, 2000 for
//! XMySQL's InnoDB wait queue) regardless of how many workers are busy, and
//! no thread is held across downstream calls (continuations fire when the
//! reply arrives). The small worker pool only paces *CPU work*.
//!
//! [`EventLoop`] models admission and in-flight accounting; CPU pacing is the
//! job of [`crate::cpu::CpuModel`] in the engine.

/// Admission state of an event-driven server.
///
/// # Example
///
/// ```
/// use ntier_server::EventLoop;
///
/// let mut nginx = EventLoop::new(65_535, 4);
/// assert!(nginx.try_admit());
/// nginx.complete();
/// assert_eq!(nginx.in_flight(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct EventLoop {
    lite_capacity: usize,
    workers: u32,
    in_flight: usize,
}

impl EventLoop {
    /// Creates an event loop with the given `LiteQDepth` and worker count.
    ///
    /// # Panics
    ///
    /// Panics if `lite_capacity` or `workers` is zero.
    pub fn new(lite_capacity: usize, workers: u32) -> Self {
        assert!(lite_capacity > 0, "LiteQDepth must be non-zero");
        assert!(workers > 0, "need at least one worker");
        EventLoop {
            lite_capacity,
            workers,
            in_flight: 0,
        }
    }

    /// Admits a request if the lightweight queue has room.
    pub fn try_admit(&mut self) -> bool {
        if self.in_flight < self.lite_capacity {
            self.in_flight += 1;
            true
        } else {
            false
        }
    }

    /// Marks one admitted request as fully completed (replied upstream).
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight.
    pub fn complete(&mut self) {
        assert!(self.in_flight > 0, "complete without admit");
        self.in_flight -= 1;
    }

    /// Requests admitted and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Worker count (paces CPU work, never admission).
    pub fn workers(&self) -> u32 {
        self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn admission_is_independent_of_workers() {
        let mut el = EventLoop::new(1_000, 1);
        // far more admitted than workers: no rejection
        for _ in 0..500 {
            assert!(el.try_admit());
        }
        assert_eq!(el.in_flight(), 500);
    }

    #[test]
    fn rejects_only_past_lite_capacity() {
        let mut el = EventLoop::new(2, 1);
        assert!(el.try_admit());
        assert!(el.try_admit());
        assert!(!el.try_admit());
        el.complete();
        assert!(el.try_admit());
    }

    #[test]
    #[should_panic(expected = "complete without admit")]
    fn unbalanced_complete_panics() {
        let mut el = EventLoop::new(10, 1);
        el.complete();
    }

    proptest! {
        /// in_flight = admitted - completed, bounded by capacity.
        #[test]
        fn accounting(cap in 1usize..64, ops in proptest::collection::vec(any::<bool>(), 0..300)) {
            let mut el = EventLoop::new(cap, 2);
            let (mut admitted, mut completed) = (0u64, 0u64);
            for admit in ops {
                if admit {
                    let had_room = el.in_flight() < cap;
                    let ok = el.try_admit();
                    prop_assert_eq!(ok, had_room);
                    admitted += u64::from(ok);
                } else if el.in_flight() > 0 {
                    el.complete();
                    completed += 1;
                }
                prop_assert!(el.in_flight() <= cap);
            }
            prop_assert_eq!(admitted - completed, el.in_flight() as u64);
        }
    }
}
