//! Downstream connection pools.
//!
//! A synchronous Tomcat talks to MySQL through a JDBC connection pool of 50:
//! at most 50 queries can be outstanding, and threads needing a connection
//! block in FIFO order. The paper notes this pool is exactly why
//! `MaxSysQDepth(MySQL)` *as seen from a sync Tomcat* is ~50 — MySQL's own
//! 100+128 capacity is never reached, and overflow surfaces upstream
//! instead. Async connectors multiplex and have no such cap.

use std::collections::VecDeque;

/// Outcome of a connection request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lease {
    /// A connection was granted immediately.
    Granted,
    /// All connections are busy; the caller was queued FIFO.
    Queued,
}

/// A bounded FIFO connection pool with a wait queue of caller tokens.
#[derive(Debug, Clone)]
pub(crate) struct ConnectionPool {
    capacity: usize,
    in_use: usize,
    waiters: VecDeque<u64>,
}

impl ConnectionPool {
    /// Creates a pool of `capacity` connections.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "connection pool needs at least one connection"
        );
        ConnectionPool {
            capacity,
            in_use: 0,
            waiters: VecDeque::new(),
        }
    }

    /// Requests a connection for caller `token`.
    ///
    /// Either grants immediately or queues the token; a queued token is
    /// returned from a later [`release`](ConnectionPool::release).
    pub(crate) fn acquire(&mut self, token: u64) -> Lease {
        if self.in_use < self.capacity {
            self.in_use += 1;
            Lease::Granted
        } else {
            self.waiters.push_back(token);
            Lease::Queued
        }
    }

    /// Releases a connection. If a caller is waiting, the connection is
    /// handed over directly and that caller's token is returned.
    ///
    /// # Panics
    ///
    /// Panics if no connection is in use.
    pub(crate) fn release(&mut self) -> Option<u64> {
        assert!(self.in_use > 0, "release without acquire");
        if let Some(next) = self.waiters.pop_front() {
            // Connection moves straight to the waiter; in_use is unchanged.
            Some(next)
        } else {
            self.in_use -= 1;
            None
        }
    }

    /// Removes a queued caller from the wait queue — the cancellation hook:
    /// an attempt reaped while parked on the pool must not receive a
    /// connection later. Returns `false` when `token` was not waiting
    /// (already granted, or never queued).
    pub(crate) fn cancel_waiter(&mut self, token: u64) -> bool {
        if let Some(idx) = self.waiters.iter().position(|&t| t == token) {
            self.waiters.remove(idx);
            true
        } else {
            false
        }
    }

    /// Connections currently leased.
    #[cfg(test)]
    fn in_use(&self) -> usize {
        self.in_use
    }

    /// Callers waiting for a connection.
    #[cfg(test)]
    fn waiting(&self) -> usize {
        self.waiters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn release_hands_the_connection_to_the_waiter() {
        let mut pool = ConnectionPool::new(1);
        assert_eq!(pool.acquire(101), Lease::Granted);
        assert_eq!(pool.acquire(102), Lease::Queued);
        // releasing hands the connection to the queued waiter
        assert_eq!(pool.release(), Some(102));
        assert_eq!(pool.release(), None);
    }

    #[test]
    fn grants_up_to_capacity_then_queues_fifo() {
        let mut p = ConnectionPool::new(2);
        assert_eq!(p.acquire(1), Lease::Granted);
        assert_eq!(p.acquire(2), Lease::Granted);
        assert_eq!(p.acquire(3), Lease::Queued);
        assert_eq!(p.acquire(4), Lease::Queued);
        assert_eq!(p.waiting(), 2);
        assert_eq!(p.release(), Some(3));
        assert_eq!(p.release(), Some(4));
        assert_eq!(p.release(), None);
        assert_eq!(p.in_use(), 1);
    }

    #[test]
    fn cancel_waiter_removes_from_queue_without_disturbing_leases() {
        let mut p = ConnectionPool::new(1);
        assert_eq!(p.acquire(1), Lease::Granted);
        assert_eq!(p.acquire(2), Lease::Queued);
        assert_eq!(p.acquire(3), Lease::Queued);
        assert!(p.cancel_waiter(2));
        assert!(!p.cancel_waiter(2), "already removed");
        assert!(!p.cancel_waiter(1), "holder, not waiter");
        assert_eq!(p.waiting(), 1);
        // The handover skips the cancelled token.
        assert_eq!(p.release(), Some(3));
        assert_eq!(p.in_use(), 1);
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn unbalanced_release_panics() {
        let mut p = ConnectionPool::new(1);
        p.release();
    }

    proptest! {
        /// in_use <= capacity always; waiters drain in FIFO order.
        #[test]
        fn pool_invariants(cap in 1usize..8, ops in proptest::collection::vec(any::<bool>(), 0..200)) {
            let mut p = ConnectionPool::new(cap);
            let mut next_token = 0u64;
            let mut queued = std::collections::VecDeque::new();
            let mut leases = 0usize;
            for acquire in ops {
                if acquire {
                    next_token += 1;
                    match p.acquire(next_token) {
                        Lease::Granted => leases += 1,
                        Lease::Queued => queued.push_back(next_token),
                    }
                } else if leases > 0 {
                    match p.release() {
                        Some(tok) => {
                            prop_assert_eq!(Some(tok), queued.pop_front(), "FIFO handover");
                            // lease count unchanged: connection moved to waiter
                        }
                        None => leases -= 1,
                    }
                }
                prop_assert!(p.in_use() <= cap);
                prop_assert_eq!(p.waiting(), queued.len());
            }
        }
    }
}
