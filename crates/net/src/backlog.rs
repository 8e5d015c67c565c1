//! The bounded TCP accept queue.
//!
//! A connection attempt that cannot be handed to a worker immediately waits
//! here; when the queue is full the attempt is dropped (the kernel sends no
//! reply, so the client only notices via its retransmission timer).

use std::collections::VecDeque;

/// A bounded FIFO modelling a TCP accept backlog.
///
/// # Example
///
/// ```
/// use ntier_net::Backlog;
///
/// let mut b: Backlog<u32> = Backlog::new(2);
/// assert!(b.offer(1).is_ok());
/// assert!(b.offer(2).is_ok());
/// assert_eq!(b.offer(3), Err(3)); // full: the SYN is dropped
/// assert_eq!(b.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Backlog<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Backlog<T> {
    /// Creates a backlog holding at most `capacity` waiting items.
    ///
    /// A zero capacity is allowed and models a server with no accept queue
    /// (every attempt beyond the worker pool drops).
    pub fn new(capacity: usize) -> Self {
        Backlog {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    /// Attempts to enqueue `item`.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the queue is full — the caller decides what a
    /// drop means (schedule a retransmit, count a failure, ...).
    pub fn offer(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Dequeues the oldest waiting item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Removes and returns the first queued item matching `pred` — the
    /// cancellation hook: a cancel chasing a queued attempt plucks it out
    /// of the accept queue, freeing the slot without it ever being served.
    pub fn remove_where(&mut self, pred: impl Fn(&T) -> bool) -> Option<T> {
        let idx = self.items.iter().position(pred)?;
        self.items.remove(idx)
    }

    /// Current queue length.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` when the next `offer` would drop.
    fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_order() {
        let mut b = Backlog::new(3);
        b.offer('a').unwrap();
        b.offer('b').unwrap();
        assert_eq!(b.pop(), Some('a'));
        assert_eq!(b.pop(), Some('b'));
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn remove_where_plucks_first_match_only() {
        let mut b = Backlog::new(4);
        for x in [1, 2, 3, 2] {
            b.offer(x).unwrap();
        }
        assert_eq!(b.remove_where(|&x| x == 2), Some(2));
        assert_eq!(b.len(), 3);
        assert_eq!(b.remove_where(|&x| x == 9), None);
        // FIFO order of the survivors is preserved; the duplicate stays.
        assert_eq!(b.pop(), Some(1));
        assert_eq!(b.pop(), Some(3));
        assert_eq!(b.pop(), Some(2));
    }

    #[test]
    fn drops_when_full_and_counts() {
        let mut b = Backlog::new(1);
        assert!(b.offer(1).is_ok());
        assert_eq!(b.offer(2), Err(2));
        assert_eq!(b.offer(3), Err(3));
        assert!(b.is_full());
        b.pop();
        assert!(!b.is_full());
        assert!(b.offer(4).is_ok());
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut b: Backlog<u8> = Backlog::new(0);
        assert!(b.is_full());
        assert_eq!(b.offer(1), Err(1));
    }

    proptest! {
        /// accepted - popped == len, and drops happen iff offered beyond
        /// capacity while full.
        #[test]
        fn accounting_invariants(cap in 0usize..64, ops in proptest::collection::vec(any::<bool>(), 0..300)) {
            let mut b: Backlog<u32> = Backlog::new(cap);
            let (mut accepted, mut popped) = (0u64, 0u64);
            for (i, push) in ops.iter().enumerate() {
                if *push {
                    let was_full = b.is_full();
                    let r = b.offer(i as u32);
                    prop_assert_eq!(r.is_err(), was_full);
                    accepted += u64::from(r.is_ok());
                } else if b.pop().is_some() {
                    popped += 1;
                }
                prop_assert!(b.len() <= cap);
            }
            prop_assert_eq!(accepted - popped, b.len() as u64);
        }
    }
}
