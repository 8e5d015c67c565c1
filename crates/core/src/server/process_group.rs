//! Apache-prefork process spawning.
//!
//! The paper observed a *second-level* queue overflow (Fig. 3(b)): when every
//! thread of the first Apache process was busy, Apache spawned a second
//! process with another 150-thread pool, raising `MaxSysQDepth(Apache)` from
//! 278 to 428 — and packets still dropped once the second pool filled.
//! [`ProcessGroup`] models that behaviour: a set of thread pools that grows
//! on exhaustion, after a spawn delay, up to a process limit.

use ntier_des::time::SimDuration;

/// A growable group of thread pools (Apache prefork MPM).
#[derive(Debug, Clone)]
pub(crate) struct ProcessGroup {
    threads_per_process: usize,
    max_processes: usize,
    processes: usize,
    busy: usize,
    spawning: bool,
    spawn_delay: SimDuration,
    spawns_total: u64,
}

impl ProcessGroup {
    /// Creates a group starting with one process of `threads_per_process`
    /// threads, growable to `max_processes` processes; each spawn takes
    /// `spawn_delay`.
    ///
    /// # Panics
    ///
    /// Panics if `threads_per_process` or `max_processes` is zero.
    pub(crate) fn new(
        threads_per_process: usize,
        max_processes: usize,
        spawn_delay: SimDuration,
    ) -> Self {
        assert!(
            threads_per_process > 0,
            "need at least one thread per process"
        );
        assert!(max_processes > 0, "need at least one process");
        ProcessGroup {
            threads_per_process,
            max_processes,
            processes: 1,
            busy: 0,
            spawning: false,
            spawn_delay,
            spawns_total: 0,
        }
    }

    /// A fixed-size group (never spawns) — degenerates to a plain pool.
    #[cfg(test)]
    fn fixed(threads: usize) -> Self {
        ProcessGroup::new(threads, 1, SimDuration::ZERO)
    }

    /// Claims a thread from any process; `false` when all are busy.
    pub(crate) fn try_acquire(&mut self) -> bool {
        if self.busy < self.capacity() {
            self.busy += 1;
            true
        } else {
            false
        }
    }

    /// Returns a thread.
    ///
    /// # Panics
    ///
    /// Panics if no thread is outstanding.
    pub(crate) fn release(&mut self) {
        assert!(self.busy > 0, "release without acquire");
        self.busy -= 1;
    }

    /// `true` when exhausted, below the process limit, and not already
    /// spawning — i.e. the engine should call [`begin_spawn`] and schedule
    /// [`complete_spawn`] after [`spawn_delay`].
    ///
    /// [`begin_spawn`]: ProcessGroup::begin_spawn
    /// [`complete_spawn`]: ProcessGroup::complete_spawn
    /// [`spawn_delay`]: ProcessGroup::spawn_delay
    pub(crate) fn wants_spawn(&self) -> bool {
        self.busy == self.capacity() && self.processes < self.max_processes && !self.spawning
    }

    /// Marks a spawn as in progress.
    ///
    /// # Panics
    ///
    /// Panics if a spawn is already in progress or the process limit is
    /// reached.
    pub(crate) fn begin_spawn(&mut self) {
        assert!(!self.spawning, "spawn already in progress");
        assert!(self.processes < self.max_processes, "process limit reached");
        self.spawning = true;
    }

    /// Completes an in-progress spawn, adding a fresh thread pool.
    ///
    /// # Panics
    ///
    /// Panics if no spawn was in progress.
    pub(crate) fn complete_spawn(&mut self) {
        assert!(self.spawning, "no spawn in progress");
        self.spawning = false;
        self.processes += 1;
        self.spawns_total += 1;
    }

    /// Current total thread capacity across spawned processes.
    pub(crate) fn capacity(&self) -> usize {
        self.processes * self.threads_per_process
    }

    /// Capacity if all allowed processes were spawned.
    #[cfg(test)]
    fn max_capacity(&self) -> usize {
        self.max_processes * self.threads_per_process
    }

    /// Threads currently held.
    pub(crate) fn busy(&self) -> usize {
        self.busy
    }

    /// `true` when every current thread is busy.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.busy == self.capacity()
    }

    /// Number of live processes.
    #[cfg(test)]
    fn processes(&self) -> usize {
        self.processes
    }

    /// The configured spawn delay.
    pub(crate) fn spawn_delay(&self) -> SimDuration {
        self.spawn_delay
    }

    /// Total completed spawns.
    pub(crate) fn spawns_total(&self) -> u64 {
        self.spawns_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exhausted_group_wants_a_spawn() {
        let mut apache = ProcessGroup::new(150, 2, SimDuration::from_millis(500));
        assert_eq!(apache.capacity(), 150);
        for _ in 0..150 {
            assert!(apache.try_acquire());
        }
        assert!(!apache.try_acquire());
        assert!(apache.wants_spawn()); // a second process would help
    }

    fn group() -> ProcessGroup {
        ProcessGroup::new(150, 2, SimDuration::from_millis(500))
    }

    #[test]
    fn spawn_raises_capacity_278_to_428_style() {
        let mut g = group();
        for _ in 0..150 {
            assert!(g.try_acquire());
        }
        assert!(!g.try_acquire());
        assert!(g.wants_spawn());
        g.begin_spawn();
        assert!(!g.wants_spawn(), "no double spawn");
        g.complete_spawn();
        assert_eq!(g.capacity(), 300);
        assert!(g.try_acquire());
        assert_eq!(g.processes(), 2);
        assert_eq!(g.spawns_total(), 1);
    }

    #[test]
    fn no_spawn_beyond_process_limit() {
        let mut g = group();
        for _ in 0..150 {
            g.try_acquire();
        }
        g.begin_spawn();
        g.complete_spawn();
        for _ in 0..150 {
            g.try_acquire();
        }
        assert!(g.is_exhausted());
        assert!(!g.wants_spawn(), "limit of 2 processes reached");
    }

    #[test]
    fn fixed_group_never_spawns() {
        let mut g = ProcessGroup::fixed(10);
        for _ in 0..10 {
            g.try_acquire();
        }
        assert!(!g.wants_spawn());
        assert_eq!(g.max_capacity(), 10);
    }

    #[test]
    #[should_panic(expected = "no spawn in progress")]
    fn complete_without_begin_panics() {
        let mut g = group();
        g.complete_spawn();
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn unbalanced_release_panics() {
        let mut g = group();
        g.release();
    }

    proptest! {
        /// busy <= capacity <= max_capacity under arbitrary op sequences.
        #[test]
        fn capacity_invariants(ops in proptest::collection::vec(0u8..4, 0..400)) {
            let mut g = ProcessGroup::new(5, 3, SimDuration::from_millis(1));
            for op in ops {
                match op {
                    0 => { let _ = g.try_acquire(); }
                    1 => if g.busy() > 0 { g.release(); },
                    2 => if g.wants_spawn() { g.begin_spawn(); },
                    _ => if g.wants_spawn() { g.begin_spawn(); g.complete_spawn(); },
                }
                prop_assert!(g.busy() <= g.capacity());
                prop_assert!(g.capacity() <= g.max_capacity());
            }
        }
    }
}
