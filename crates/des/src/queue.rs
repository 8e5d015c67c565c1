//! The simulation event queue.
//!
//! A two-level calendar queue (timing wheel + overflow heap) that orders
//! events by timestamp and breaks ties by insertion sequence number, so
//! simulations are deterministic regardless of internal layout.
//!
//! # Why not a flat `BinaryHeap`?
//!
//! The engine schedules almost everything within a few milliseconds of `now`
//! (hop delays, CPU slices, 50 ms monitoring windows) plus a thin stream of
//! far-future timers (+3 s TCP retransmits, attempt timeouts). A flat binary
//! heap pays `O(log n)` sift work per event on exactly the near-future
//! traffic that dominates. The calendar front turns that hot path into O(1)
//! bucket appends: the wheel covers ~4.2 s of simulated time in 1.024 ms
//! buckets, the cursor drains one bucket at a time (sorting each small
//! bucket once), and anything beyond the wheel horizon parks in an overflow
//! heap that is consulted only when an epoch is exhausted.
//!
//! The active bucket is a *descending* sorted `Vec`: the earliest entry
//! pops off the back in O(1), and in-window pushes binary-search their
//! slot. The bucket is small (1.024 ms of pending events), so the insert
//! memmove stays within a cache line or two — measured against a
//! `VecDeque` ring with an append fast path, the contiguous `Vec` wins on
//! the engine's real workloads.
//!
//! Pop order is identical to the old heap implementation: the earliest
//! `(time, seq)` pair always pops first, which is what the golden-report
//! determinism tests in `tests/determinism.rs` pin down.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the bucket width in microseconds (1.024 ms buckets).
const BUCKET_SHIFT: u32 = 10;
/// Number of wheel buckets (must be a power of two).
const NUM_BUCKETS: usize = 1 << 12;
/// Bucket width in microseconds.
const BUCKET_WIDTH: u64 = 1 << BUCKET_SHIFT;
/// Wheel span in microseconds (~4.19 s): near-future events land in a
/// bucket, anything later overflows to the heap.
const WHEEL_SPAN: u64 = BUCKET_WIDTH * NUM_BUCKETS as u64;
/// Capacity floor below which epoch-rollover decay leaves buffers alone:
/// small buffers are cheap to keep and avoid re-growth churn.
const DECAY_FLOOR: usize = 64;

/// A time-ordered queue of pending simulation events.
///
/// Events with equal timestamps are delivered in insertion order (FIFO),
/// which makes whole-simulation runs reproducible.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(5), 'b');
/// q.push(SimTime::from_millis(1), 'a');
/// q.push(SimTime::from_millis(5), 'c');
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The bucket currently being drained, sorted *descending* by
    /// `(time, seq)`: the earliest entry pops from the back in O(1). Also
    /// absorbs late pushes at or before the cursor ("past" events).
    active: Vec<Entry<E>>,
    /// Wheel buckets for the current epoch; buckets at or before `cursor`
    /// are empty, later ones hold unsorted entries.
    buckets: Vec<Vec<Entry<E>>>,
    /// Events beyond the wheel horizon, pulled in on epoch rebase.
    overflow: BinaryHeap<Entry<E>>,
    /// Start of the current epoch in microseconds (a multiple of the span).
    epoch_start: u64,
    /// Index of the bucket `active` was promoted from.
    cursor: usize,
    len: usize,
    next_seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops
        // first from the overflow heap.
        other.key().cmp(&self.key())
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            active: Vec::new(),
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            epoch_start: 0,
            cursor: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Creates an empty queue sized for roughly `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = EventQueue::new();
        q.active = Vec::with_capacity((capacity / NUM_BUCKETS).max(16));
        q
    }

    /// End of the active bucket's window: everything earlier belongs in
    /// (or behind) `active`.
    fn active_end(&self) -> u64 {
        self.epoch_start + (self.cursor as u64 + 1) * BUCKET_WIDTH
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Scheduling in the past is permitted (the event fires "immediately"
    /// relative to later events); the engine layer asserts monotonicity where
    /// it matters.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let entry = Entry { time, seq, event };
        let t = time.as_micros();
        if t < self.active_end() {
            // Hot path for same-bucket scheduling and the occasional past
            // event: keep `active` sorted descending so pop stays O(1).
            let pos = self.active.partition_point(|e| e.key() > entry.key());
            self.active.insert(pos, entry);
        } else if t < self.epoch_start + WHEEL_SPAN {
            let idx = ((t - self.epoch_start) >> BUCKET_SHIFT) as usize;
            self.buckets[idx].push(entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if self.active.is_empty() {
            self.refill_active();
        }
        let e = self.active.pop().expect("len > 0 guarantees a refill");
        self.len -= 1;
        Some((e.time, e.event))
    }

    /// Drains the maximal run of front events sharing the earliest pending
    /// timestamp (capped at `max`): the earliest event is returned
    /// directly with its timestamp, and the *rest* of the run is appended
    /// to `batch`. The run never re-touches the wheel: it comes off the
    /// active bucket in O(1) per event. Events the caller schedules while
    /// applying the batch take later sequence numbers, so they sort after
    /// the whole run — batch application preserves the serial pop order
    /// bit-for-bit.
    pub fn pop_run(&mut self, batch: &mut Vec<E>, max: usize) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if self.active.is_empty() {
            self.refill_active();
        }
        let first = self.active.pop().expect("len > 0 guarantees a refill");
        self.len -= 1;
        let t = first.time;
        // Runs of one — the common case — never touch `batch`: they cost
        // exactly one extra back-of-bucket compare over `pop`.
        while batch.len() + 1 < max && self.active.last().is_some_and(|e| e.time == t) {
            let e = self.active.pop().expect("peeked");
            self.len -= 1;
            batch.push(e.event);
        }
        Some((t, first.event))
    }

    /// Promotes the next non-empty bucket (or overflow epoch) into `active`.
    /// Requires `len > 0` with `active` empty; always succeeds under that
    /// precondition.
    fn refill_active(&mut self) {
        loop {
            if self.promote_from(self.cursor + 1) {
                return;
            }
            // Epoch exhausted: jump the wheel to the overflow's next epoch.
            // This is also the natural place to return peak-burst memory —
            // long-horizon runs (trace replay) must not hold a transient
            // spike's buffers forever, and rollover is off the hot path.
            self.decay_capacity();
            let head = self
                .overflow
                .peek()
                .expect("pending events must be in the wheel or the overflow");
            let t = head.time.as_micros();
            self.epoch_start = t - t % WHEEL_SPAN;
            let horizon = self.epoch_start + WHEEL_SPAN;
            while self
                .overflow
                .peek()
                .is_some_and(|e| e.time.as_micros() < horizon)
            {
                let e = self.overflow.pop().expect("peeked above");
                let idx = ((e.time.as_micros() - self.epoch_start) >> BUCKET_SHIFT) as usize;
                self.buckets[idx].push(e);
            }
            if self.promote_from(0) {
                return;
            }
        }
    }

    /// Shrinks buffers that ballooned during a burst and have since
    /// drained: any bucket (or the overflow heap / active bucket) holding
    /// more than 4× its live entries gives the excess back, down to a
    /// small floor that avoids re-growth churn. Runs on epoch rollover
    /// only (once per ~4.2 s of simulated time), never on the push/pop
    /// hot path.
    fn decay_capacity(&mut self) {
        for b in &mut self.buckets {
            if b.capacity() > DECAY_FLOOR && b.capacity() > 4 * b.len() {
                b.shrink_to((2 * b.len()).max(DECAY_FLOOR));
            }
        }
        if self.overflow.capacity() > DECAY_FLOOR
            && self.overflow.capacity() > 4 * self.overflow.len()
        {
            self.overflow
                .shrink_to((2 * self.overflow.len()).max(DECAY_FLOOR));
        }
        if self.active.capacity() > DECAY_FLOOR && self.active.capacity() > 4 * self.active.len() {
            self.active
                .shrink_to((2 * self.active.len()).max(DECAY_FLOOR));
        }
    }

    /// Heap capacity currently retained across the active bucket, wheel
    /// buckets, and overflow heap, in entries. Exposed so long-horizon
    /// callers (and the rollover-decay tests) can observe that peak-burst
    /// memory is actually returned.
    pub fn retained_capacity(&self) -> usize {
        self.active.capacity()
            + self.buckets.iter().map(Vec::capacity).sum::<usize>()
            + self.overflow.capacity()
    }

    /// Moves the first non-empty bucket at or after `start` into `active`
    /// (sorted descending) and advances the cursor to it. The drained
    /// bucket inherits `active`'s old buffer, so steady-state promotion
    /// allocates nothing.
    fn promote_from(&mut self, start: usize) -> bool {
        for i in start..NUM_BUCKETS {
            if !self.buckets[i].is_empty() {
                std::mem::swap(&mut self.active, &mut self.buckets[i]);
                // Unstable sort is safe: (time, seq) keys are unique.
                self.active
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                self.cursor = i;
                return true;
            }
        }
        false
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 3);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn earlier_push_overtakes_a_far_future_event() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(100), 'z');
        q.push(SimTime::from_secs(7), 'a');
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(7), 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_secs(100), 'z')));
        assert!(q.is_empty());
    }

    #[test]
    fn counts_total_scheduled() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn past_pushes_fire_before_pending_future_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "first");
        q.push(SimTime::from_secs(10), "late");
        // Drain into the 10 s bucket, then push something "in the past".
        assert_eq!(q.pop().unwrap().1, "first");
        q.push(SimTime::from_secs(5), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn spans_multiple_epochs_and_sparse_far_futures() {
        let mut q = EventQueue::new();
        // Events many epochs apart (the wheel spans ~4.2 s).
        for secs in [0u64, 3, 9, 27, 3_000] {
            q.push(SimTime::from_secs(secs), secs);
        }
        let mut got = Vec::new();
        while let Some((_, e)) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, vec![0, 3, 9, 27, 3_000]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_run_drains_equal_timestamps_in_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(3);
        for i in 0..10 {
            q.push(t, i);
        }
        q.push(SimTime::from_millis(4), 99);
        let mut batch = Vec::new();
        assert_eq!(q.pop_run(&mut batch, 8), Some((t, 0)));
        assert_eq!(batch, vec![1, 2, 3, 4, 5, 6, 7]);
        batch.clear();
        assert_eq!(q.pop_run(&mut batch, 8), Some((t, 8)));
        assert_eq!(batch, vec![9]);
        batch.clear();
        assert_eq!(
            q.pop_run(&mut batch, 8),
            Some((SimTime::from_millis(4), 99))
        );
        assert!(batch.is_empty());
        assert!(q.is_empty());
        assert_eq!(q.pop_run(&mut batch, 8), None);
    }

    #[test]
    fn epoch_rollover_returns_burst_memory() {
        let mut q = EventQueue::new();
        // A burst parks tens of thousands of entries in one bucket and in
        // the overflow heap.
        for i in 0..50_000u64 {
            q.push(SimTime::from_micros(i % 100), i);
            q.push(
                SimTime::from_secs(10) + SimDuration::from_micros(i % 100),
                i,
            );
        }
        while q.len() > 1 {
            q.pop();
        }
        let peak = q.retained_capacity();
        assert!(peak > 10_000, "burst should have grown buffers, got {peak}");
        // Crossing epochs (10 s and 20 s are in different ~4.2 s epochs)
        // triggers rollover decay.
        q.push(SimTime::from_secs(20), 0);
        while q.pop().is_some() {}
        let after = q.retained_capacity();
        assert!(
            after < peak / 4,
            "rollover should shed burst capacity: {after} vs peak {peak}"
        );
    }

    /// The retained reference implementation: the flat `(time, seq)` binary
    /// heap the engine used before the calendar queue. The equivalence
    /// proptest below pins the calendar queue to its exact pop order.
    struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, time: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }
    }

    proptest! {
        /// Popping yields a non-decreasing time sequence for arbitrary pushes.
        #[test]
        fn pop_order_is_monotone(times in proptest::collection::vec(0u64..10_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        /// Events sharing a timestamp preserve FIFO order even when
        /// interleaved with other timestamps.
        #[test]
        fn fifo_within_equal_timestamps(times in proptest::collection::vec(0u64..50, 1..300)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_millis(*t), i);
            }
            let mut last_seq_per_time = std::collections::HashMap::new();
            while let Some((t, seq)) = q.pop() {
                if let Some(prev) = last_seq_per_time.insert(t, seq) {
                    prop_assert!(seq > prev, "FIFO violated at {t}: {seq} after {prev}");
                }
            }
        }

        /// len decreases by exactly one per pop and the queue drains fully.
        #[test]
        fn conservation(count in 1usize..256) {
            let mut q = EventQueue::new();
            for i in 0..count {
                q.push(SimTime::ZERO + SimDuration::from_micros(i as u64 % 7), i);
            }
            let mut popped = 0;
            while q.pop().is_some() {
                popped += 1;
            }
            prop_assert_eq!(popped, count);
            prop_assert!(q.is_empty());
        }

        /// The calendar queue pops the exact sequence the old binary heap
        /// popped, under interleaved pushes and pops that straddle bucket
        /// boundaries, epochs, and the overflow horizon.
        #[test]
        fn matches_heap_reference(
            ops in proptest::collection::vec(
                // (op selector: 0..7 = push, 7..10 = pop; time µs reaching
                // past several epochs)
                (0u32..10, 0u64..20_000_000),
                1..400,
            )
        ) {
            let mut cal = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut i = 0usize;
            for (op, t) in ops {
                if op < 7 {
                    cal.push(SimTime::from_micros(t), i);
                    heap.push(SimTime::from_micros(t), i);
                    i += 1;
                } else {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
            }
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// `pop_run` batches are just pops: draining via runs yields the
        /// heap reference sequence too.
        #[test]
        fn pop_run_matches_heap_reference(
            times in proptest::collection::vec(0u64..5_000, 1..300),
            cap in 1usize..16,
        ) {
            let mut cal = EventQueue::new();
            let mut heap = HeapQueue::new();
            for (i, t) in times.iter().enumerate() {
                cal.push(SimTime::from_micros(*t), i);
                heap.push(SimTime::from_micros(*t), i);
            }
            let mut batch = Vec::new();
            while let Some((t, first)) = cal.pop_run(&mut batch, cap) {
                prop_assert_eq!(heap.pop(), Some((t, first)));
                for e in batch.drain(..) {
                    prop_assert_eq!(heap.pop(), Some((t, e)));
                }
            }
            prop_assert_eq!(heap.pop(), None);
        }
    }
}
