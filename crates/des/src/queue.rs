//! The simulation event queue.
//!
//! A two-level calendar queue (timing wheel + overflow heap) that orders
//! events by timestamp and breaks ties by class ([`EventQueue::push_first`]
//! first), then insertion sequence number, so simulations are deterministic
//! regardless of internal layout.
//!
//! # Why not a flat `BinaryHeap`?
//!
//! The engine schedules almost everything within a few milliseconds of `now`
//! (hop delays, CPU slices, 50 ms monitoring windows) plus a thin stream of
//! far-future timers (+3 s TCP retransmits, attempt timeouts). A flat binary
//! heap pays `O(log n)` sift work per event on exactly the near-future
//! traffic that dominates. The calendar front turns that hot path into O(1)
//! bucket inserts: the wheel covers ~4.2 s of simulated time in 1.024 ms
//! buckets, the cursor drains one bucket at a time (sorting each small
//! bucket once), and anything beyond the wheel horizon parks in an overflow
//! heap that is consulted only when an epoch is exhausted.
//!
//! # Pooled bucket chains
//!
//! A wheel bucket is not a buffer of its own: it is a singly linked chain
//! of nodes in one shared pool, and the wheel is just 4096 `u32` chain
//! heads. A push links a node in at its bucket's head (O(1), order within a
//! chain is irrelevant because `(time, seq)` keys are unique); promotion
//! walks the chain into `active` and returns the nodes to the pool's
//! intrusive free list. Pending events therefore cost one pool node each,
//! wherever they sit on the wheel — a per-bucket `Vec` would instead keep
//! a buffer alive in every bucket it ever touched. At epoch rollover every
//! wheel bucket is empty, so the whole pool resets at once before the
//! rebase relinks the overflow's next epoch into it.
//!
//! The active bucket is a *descending* sorted `Vec`: the earliest entry
//! pops off the back in O(1), and in-window pushes binary-search their
//! slot. The bucket is small (1.024 ms of pending events), so the insert
//! memmove stays within a cache line or two — measured against a
//! `VecDeque` ring with an append fast path, the contiguous `Vec` wins on
//! the engine's real workloads.
//!
//! Pop order is identical to a flat binary heap's: the earliest
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
/// End of a bucket chain or of the pool's free list.
const NIL: u32 = u32::MAX;
/// Sequence-number bit of every [`EventQueue::push`] entry: clear on
/// [`EventQueue::push_first`] entries, so those sort first at their time.
const ORDINARY: u64 = 1 << 63;

/// A time-ordered queue of pending simulation events.
///
/// Events with equal timestamps are delivered in insertion order (FIFO),
/// [`EventQueue::push_first`] entries first, which makes whole-simulation
/// runs reproducible.
///
/// # Example
///
/// ```
/// use ntier_des::prelude::*;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(5), 'c');
/// q.push(SimTime::from_millis(1), 'a');
/// q.push(SimTime::from_millis(5), 'd');
/// q.push_first(SimTime::from_millis(5), 'b');
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c', 'd']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The bucket currently being drained, sorted *descending* by
    /// `(time, seq)`: the earliest entry pops from the back in O(1). Also
    /// absorbs late pushes at or before the cursor ("past" events).
    active: Vec<Entry<E>>,
    /// First `pool` node of each wheel bucket's chain for the current
    /// epoch, or `NIL`; buckets at or before `cursor` are empty.
    heads: Box<[u32]>,
    /// Nodes of every wheel bucket's chain, plus free nodes.
    pool: Vec<Node<E>>,
    /// First free `pool` node, or `NIL`.
    free: u32,
    /// Events beyond the wheel horizon, pulled in on epoch rebase.
    overflow: BinaryHeap<Entry<E>>,
    /// Start of the current epoch in microseconds (a multiple of the span).
    epoch_start: u64,
    /// Index of the bucket `active` was promoted from.
    cursor: usize,
    len: usize,
    /// Pushes so far through [`Self::push`] and [`Self::push_first`]:
    /// the sequence numbers that order entries sharing a time.
    next_seq: u64,
    next_first: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// A pool slot: a pending wheel entry, or a free node.
#[derive(Debug)]
struct Node<E> {
    time: SimTime,
    seq: u64,
    /// `None` while the node is free.
    event: Option<E>,
    /// The next node in the same bucket chain, or in the free list.
    next: u32,
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
            heads: vec![NIL; NUM_BUCKETS].into_boxed_slice(),
            pool: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            epoch_start: 0,
            cursor: 0,
            len: 0,
            next_seq: 0,
            next_first: 0,
        }
    }

    /// Creates an empty queue whose active bucket is sized for its share
    /// of `capacity` pending events spread over the wheel. The node pool
    /// is not preallocated: it grows on first use.
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
        let seq = ORDINARY | self.next_seq;
        self.next_seq += 1;
        self.insert(Entry { time, seq, event });
    }

    /// Schedules `event` at `time` ahead of every [`Self::push`] entry for
    /// that time, whenever either was pushed; `push_first` entries keep
    /// their own FIFO order.
    pub fn push_first(&mut self, time: SimTime, event: E) {
        let seq = self.next_first;
        self.next_first += 1;
        self.insert(Entry { time, seq, event });
    }

    /// Files `entry` into the active bucket, the wheel or the overflow.
    fn insert(&mut self, entry: Entry<E>) {
        self.len += 1;
        let t = entry.time.as_micros();
        if t < self.active_end() {
            // Hot path for same-bucket scheduling and the occasional past
            // event: keep `active` sorted descending so pop stays O(1).
            let pos = self.active.partition_point(|e| e.key() > entry.key());
            self.active.insert(pos, entry);
        } else if t < self.epoch_start + WHEEL_SPAN {
            self.link(entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Links `entry` in at the head of its wheel bucket's chain, reusing a
    /// free pool node when there is one. `entry` must fall inside the
    /// current epoch's wheel.
    fn link(&mut self, entry: Entry<E>) {
        let bucket = ((entry.time.as_micros() - self.epoch_start) >> BUCKET_SHIFT) as usize;
        let node = Node {
            time: entry.time,
            seq: entry.seq,
            event: Some(entry.event),
            next: self.heads[bucket],
        };
        self.heads[bucket] = if self.free == NIL {
            let slot = u32::try_from(self.pool.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("calendar pool holds fewer than u32::MAX nodes");
            self.pool.push(node);
            slot
        } else {
            let slot = self.free;
            let free = &mut self.pool[slot as usize];
            self.free = free.next;
            *free = node;
            slot
        };
    }

    /// Removes and returns the earliest event, if any. Once the active
    /// bucket is filled this is a `Vec::pop` off its back.
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

    /// Promotes the next non-empty bucket (or overflow epoch) into `active`.
    /// Requires `len > 0` with `active` empty; always succeeds under that
    /// precondition.
    fn refill_active(&mut self) {
        loop {
            if self.promote_from(self.cursor + 1) {
                return;
            }
            // Epoch exhausted: every wheel bucket is empty, so every pool
            // node is free. Reset the pool and jump the wheel to the
            // overflow's next epoch.
            debug_assert!(self.heads.iter().all(|&h| h == NIL));
            self.pool.clear();
            self.free = NIL;
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
                self.link(e);
            }
            // Rollover is off the hot path, so it is the natural place to
            // return peak-burst memory: long-horizon runs (trace replay)
            // must not hold a transient spike's buffers forever.
            self.decay_capacity();
            if self.promote_from(0) {
                return;
            }
        }
    }

    /// Shrinks buffers that ballooned during a burst and have since
    /// drained: the node pool, the overflow heap or the active bucket,
    /// when holding more than 4× its live entries, gives the excess back,
    /// down to a small floor that avoids re-growth churn. Runs on epoch
    /// rollover only (once per ~4.2 s of simulated time), right after the
    /// rebase, so the pool's live entries are exactly what the new epoch
    /// starts with.
    fn decay_capacity(&mut self) {
        fn decay<T>(buf: &mut Vec<T>) {
            if buf.capacity() > DECAY_FLOOR && buf.capacity() > 4 * buf.len() {
                buf.shrink_to((2 * buf.len()).max(DECAY_FLOOR));
            }
        }
        decay(&mut self.pool);
        decay(&mut self.active);
        if self.overflow.capacity() > DECAY_FLOOR
            && self.overflow.capacity() > 4 * self.overflow.len()
        {
            self.overflow
                .shrink_to((2 * self.overflow.len()).max(DECAY_FLOOR));
        }
    }

    /// Heap capacity currently retained across the active bucket, the
    /// wheel's node pool, and the overflow heap, in entries, so the
    /// rollover-decay and hold-model tests can observe that peak-burst
    /// memory is actually returned.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        self.active.capacity() + self.pool.capacity() + self.overflow.capacity()
    }

    /// Moves the first non-empty bucket at or after `start` into `active`
    /// (sorted descending) and advances the cursor to it. The bucket's
    /// nodes go back on the free list, so steady-state promotion allocates
    /// nothing.
    fn promote_from(&mut self, start: usize) -> bool {
        let Some(i) = self.heads[start..].iter().position(|&h| h != NIL) else {
            return false;
        };
        let i = start + i;
        let mut n = std::mem::replace(&mut self.heads[i], NIL);
        while n != NIL {
            let node = &mut self.pool[n as usize];
            let event = node.event.take().expect("chained nodes hold an event");
            self.active.push(Entry {
                time: node.time,
                seq: node.seq,
                event,
            });
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = n;
            n = next;
        }
        // Unstable sort is safe: (time, seq) keys are unique.
        self.active
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        self.cursor = i;
        true
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    #[test]
    fn hold_model_retains_a_small_multiple_of_pending() {
        use crate::dist::{Distribution, Exponential};
        use crate::rng::SimRng;
        // Fig. 1's closed loop in miniature: 7 000 pending events, each
        // popped event rescheduled an exponential 7 s later, for ~2 000
        // simulated seconds (~480 epochs).
        const PENDING: usize = 7_000;
        let gap = Exponential::with_mean(7.0);
        let mut rng = SimRng::seed_from(7);
        let mut q = EventQueue::new();
        for i in 0..PENDING {
            q.push(SimTime::ZERO + gap.sample(&mut rng), i);
        }
        let mut peak = 0;
        for _ in 0..2_000_000 {
            let (t, e) = q.pop().expect("the hold model keeps the queue full");
            q.push(t + gap.sample(&mut rng), e);
            peak = peak.max(q.retained_capacity());
        }
        assert_eq!(q.len(), PENDING);
        assert!(
            peak <= 3 * PENDING,
            "retained up to {peak} entries for {PENDING} pending"
        );
    }

    /// The reference implementation: a flat binary heap keyed
    /// `(time, class, seq)`, where class `false` is
    /// [`EventQueue::push_first`]. The equivalence proptests below pin the
    /// calendar queue to its exact pop order.
    struct HeapQueue<E> {
        heap: BinaryHeap<std::cmp::Reverse<(SimTime, bool, u64, E)>>,
        next_seq: u64,
    }

    impl<E: Ord> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, time: SimTime, first: bool, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap
                .push(std::cmp::Reverse((time, !first, seq, event)));
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap
                .pop()
                .map(|std::cmp::Reverse((t, _, _, e))| (t, e))
        }
    }

    fn push<E>(q: &mut EventQueue<E>, time: SimTime, first: bool, event: E) {
        if first {
            q.push_first(time, event);
        } else {
            q.push(time, event);
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

        /// The calendar queue pops the exact sequence the reference heap
        /// pops, under interleaved pushes, first-class pushes and pops that
        /// straddle bucket boundaries, epochs, and the overflow horizon.
        #[test]
        fn matches_heap_reference(
            ops in proptest::collection::vec(
                // (op selector: 0..5 = push, 5..7 = push_first, 7..10 =
                // pop; time µs reaching past several epochs, drawn coarse
                // half the time so that classes collide at one instant)
                (0u32..10, 0u64..20_000_000, any::<bool>()),
                1..400,
            )
        ) {
            let mut cal = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut i = 0usize;
            for (op, t, coarse) in ops {
                let t = SimTime::from_micros(if coarse { t % 8 * 1_000_000 } else { t });
                if op < 7 {
                    push(&mut cal, t, op >= 5, i);
                    heap.push(t, op >= 5, i);
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
    }
}
