//! The request slab: one [`RequestState`] per live attempt, recycled
//! through a free list and addressed by generational [`ReqId`] handles.

use std::ops::{Index, IndexMut};

use ntier_des::prelude::*;
use ntier_net::RetransmitState;
use ntier_trace::{TraceHandle, TRACE_NONE};

use super::client::LOGICAL_NONE;
use super::Engine;
use crate::plan::Plan;

/// Generational handle into the request slab: `slot` indexes the
/// [`Slab`], and the handle is *live* only while `gen` matches the
/// slot's current generation. Completed requests are recycled, so events
/// still in the queue for an earlier occupant (a pending `AttemptTimeout`,
/// a retransmit of a request that already gave up) resolve to a stale
/// handle and are ignored — exactly where the old engine checked `done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ReqId {
    pub(super) slot: u32,
    pub(super) gen: u32,
}

/// Where and when a request first dropped: the site its VLRT, should it
/// end as one, is charged to. Later drops of the same request (kernel
/// retransmits, app-level hop retries) leave it as it is. A `tier` of
/// `u8::MAX`, one past the last index the 255-tier limit allows, marks a
/// request that has not dropped.
#[derive(Debug, Clone, Copy)]
pub(super) struct FirstDrop {
    pub(super) at: SimTime,
    pub(super) tier: u8,
    pub(super) replica: u8,
}

impl FirstDrop {
    /// The request has not dropped yet.
    const NONE: FirstDrop = FirstDrop {
        at: SimTime::ZERO,
        tier: u8::MAX,
        replica: 0,
    };

    pub(super) fn is_none(self) -> bool {
        self.tier == u8::MAX
    }
}

/// One attempt's position and holdings at one tier.
#[derive(Debug, Clone, Copy)]
pub(super) struct TierCursor {
    /// Index of the slice being (or about to be) executed.
    pub(super) slice_idx: usize,
    /// The visit currently active here.
    pub(super) active_visit: u16,
    /// The next visit here to consume when the caller calls down.
    pub(super) next_visit: u16,
    /// Whether this attempt holds a thread (sync) or an admission slot
    /// (async) here.
    pub(super) occupying: bool,
    /// Whether this attempt currently holds a pooled connection here.
    pub(super) conn_held: bool,
    /// When the in-flight message was admitted here (backlog entry or
    /// visit start) — feeds the AIMD limiter's latency samples.
    pub(super) arrived_at: SimTime,
    /// The replica the balancer chose here for the current in-flight
    /// message. Kernel SYN retransmits reuse this pin (L4 5-tuple
    /// affinity); fresh sends and app-level retries re-pick.
    pub(super) replica: u8,
}

impl TierCursor {
    /// A fresh attempt's cursor: nothing held, nothing visited.
    const START: TierCursor = TierCursor {
        slice_idx: 0,
        active_visit: 0,
        next_visit: 0,
        occupying: false,
        conn_held: false,
        arrived_at: SimTime::ZERO,
        replica: 0,
    };
}

#[derive(Debug)]
pub(super) struct RequestState {
    pub(super) injected_at: SimTime,
    pub(super) client: Option<u32>,
    pub(super) class: &'static str,
    pub(super) plan: Plan,
    /// Where this attempt stands at each tier, indexed by tier. Sized once
    /// when the slot is created and reset with one `fill` on reuse.
    pub(super) cursors: Box<[TierCursor]>,
    pub(super) retrans: RetransmitState,
    pub(super) first_drop: FirstDrop,
    /// 0-based client attempt index (retries clone the plan with +1).
    pub(super) attempt: u32,
    /// App-level retries of the current in-flight message (inner-hop caller
    /// policies); reset on successful admission like `retrans`.
    pub(super) hop_attempts: u32,
    /// Index into `Engine::logicals` when this attempt belongs to a hedged
    /// logical request; [`LOGICAL_NONE`] otherwise.
    pub(super) logical: u32,
    /// `Some(parent)` when this request is one *arm* of `parent`'s
    /// scatter-gather fan-out: it never counts in the run totals, and its
    /// terminal outcome feeds the parent's quorum instead of a client.
    pub(super) arm_parent: Option<ReqId>,
    /// The child node this arm's subtree is rooted at (meaningful only
    /// with `arm_parent`); finishing its visit there replies to the parent.
    pub(super) arm_root: u8,
    /// Arm replies still needed before this request's scatter completes
    /// (0 = no scatter outstanding / quorum already met).
    pub(super) fan_awaiting: u32,
    /// Arms still able to reply; dropping below `fan_awaiting` makes the
    /// quorum unreachable and fails the request.
    pub(super) fan_live: u32,
    /// The node this request's scatter was issued from.
    pub(super) fan_node: u8,
    /// The attempt's trace handle ([`TRACE_NONE`] when tracing is off).
    /// Shared with the logical slot and retry ticket via refcounts.
    pub(super) trace: TraceHandle,
}

// One slab slot per concurrently live attempt: the slab's high-water mark,
// not the report, sets a long replay's heap peak, so a slot stays within
// two cache lines.
const _: () = assert!(std::mem::size_of::<RequestState>() <= 128);

/// The per-slot request fields the dispatch hot path touches, split out of
/// [`RequestState`] structure-of-arrays style: the generation check in
/// [`Slab::live`] runs on nearly every event pop, and `head`/`orphan`
/// flip on the timeout/cancel/hedge paths. A [`RequestState`] is several
/// cache lines of mostly cold plan/telemetry data; packing the hot triple
/// into 8 bytes keeps ~8 slots' liveness state per cache line instead of
/// one.
#[derive(Debug, Clone, Copy)]
pub(super) struct HotSlot {
    /// Slot generation; a [`ReqId`] is live iff its `gen` matches. Bumped
    /// when the slot is freed, which invalidates every outstanding handle.
    gen: u32,
    /// The deepest tier this attempt's front is currently at (queued,
    /// executing, in flight towards, or waiting out a retransmit at) — the
    /// coordinate a cancel chase homes in on. Updated on every send and
    /// every reply hop.
    pub(super) head: u8,
    /// The client's attempt timer fired: this attempt keeps consuming
    /// resources but its terminal outcome no longer counts.
    pub(super) orphan: bool,
}

/// The request slab: slots are recycled through `free` when a request
/// reaches a terminal outcome, so steady-state memory tracks the peak
/// in-flight population instead of the total injected count. Indexing
/// yields a slot's [`RequestState`]; `hot` holds the same slots'
/// [`HotSlot`]s.
#[derive(Debug)]
pub(super) struct Slab {
    reqs: Vec<RequestState>,
    pub(super) hot: Vec<HotSlot>,
    free: Vec<u32>,
    /// Tiers in the system: the length of every slot's cursor slice.
    tiers: usize,
}

impl Slab {
    pub(super) fn new(tiers: usize) -> Slab {
        Slab {
            reqs: Vec::with_capacity(1024),
            hot: Vec::with_capacity(1024),
            free: Vec::new(),
            tiers,
        }
    }

    /// Resolves a handle to its slot index, or `None` if the slot has been
    /// recycled since the handle was issued (the request reached a terminal
    /// outcome; the event referencing it is stale).
    #[inline]
    pub(super) fn live(&self, id: ReqId) -> Option<usize> {
        let i = id.slot as usize;
        (self.hot[i].gen == id.gen).then_some(i)
    }

    /// [`Self::live`] for paths where a stale handle would mean a resource
    /// accounting bug (backlog entries, parked connection waiters, and
    /// terminal transitions all hold the request live by construction).
    #[inline]
    pub(super) fn live_expect(&self, id: ReqId) -> usize {
        self.live(id)
            .expect("stale request handle on a resource-holding path")
    }

    /// Claims a slot (recycling a freed one, cursor buffer included, when
    /// available) and initialises it for a fresh attempt.
    pub(super) fn alloc(
        &mut self,
        injected_at: SimTime,
        client: Option<u32>,
        class: &'static str,
        plan: Plan,
        attempt: u32,
    ) -> ReqId {
        let fresh = |cursors| RequestState {
            injected_at,
            client,
            class,
            plan,
            cursors,
            retrans: RetransmitState::new(),
            first_drop: FirstDrop::NONE,
            attempt,
            hop_attempts: 0,
            logical: LOGICAL_NONE,
            arm_parent: None,
            arm_root: 0,
            fan_awaiting: 0,
            fan_live: 0,
            fan_node: 0,
            trace: TRACE_NONE,
        };
        if let Some(slot) = self.free.pop() {
            let r = &mut self.reqs[slot as usize];
            let mut cursors = std::mem::take(&mut r.cursors);
            cursors.fill(TierCursor::START);
            *r = fresh(cursors);
            let h = &mut self.hot[slot as usize];
            h.head = 0;
            h.orphan = false;
            ReqId { slot, gen: h.gen }
        } else {
            let slot = self.reqs.len() as u32;
            self.reqs.push(fresh(
                vec![TierCursor::START; self.tiers].into_boxed_slice(),
            ));
            self.hot.push(HotSlot {
                gen: 0,
                head: 0,
                orphan: false,
            });
            ReqId { slot, gen: 0 }
        }
    }

    /// Returns slot `i` to the free list, so every outstanding [`ReqId`]
    /// for it goes stale, and hands back the trace handle the slot held.
    pub(super) fn free(&mut self, i: usize) -> TraceHandle {
        let h = std::mem::replace(&mut self.reqs[i].trace, TRACE_NONE);
        self.hot[i].gen = self.hot[i].gen.wrapping_add(1);
        self.free.push(i as u32);
        h
    }

    /// `(live slots, slots ever created)`.
    pub(super) fn occupancy(&self) -> (u64, u64) {
        let slots = self.reqs.len();
        ((slots - self.free.len()) as u64, slots as u64)
    }
}

impl Index<usize> for Slab {
    type Output = RequestState;

    #[inline]
    fn index(&self, i: usize) -> &RequestState {
        &self.reqs[i]
    }
}

impl IndexMut<usize> for Slab {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut RequestState {
        &mut self.reqs[i]
    }
}

impl Engine {
    /// Returns slot `i` to the slab. The slot's release is the attempt's
    /// single release point; the trace survives while a logical slot or
    /// retry ticket still holds it.
    pub(super) fn free_request(&mut self, i: usize) {
        let h = self.slab.free(i);
        self.tracer.release(h);
    }
}
