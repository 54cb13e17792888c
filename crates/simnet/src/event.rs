//! The indexed event core: a deterministic timing-wheel queue of pending
//! deliveries with O(1) push/pop, O(1) cancellation, and incremental
//! enabled-set tracking.
//!
//! Five structures cooperate:
//!
//! * a **slab** (`slots` + free list) owns the full [`Event`] payloads at
//!   stable indices, so scheduling never moves message bodies around;
//! * a **timing wheel** of `SPAN` per-tick buckets orders the near future.
//!   Latencies and service times are small relative to `SPAN`, so almost
//!   every event is bucketed in O(1) — a bucket append on push, a deque
//!   `pop_front` on pop — instead of the O(log n) sift a binary heap pays.
//!   Within a bucket (one tick), entries are kept in sequence order, which
//!   appends preserve for free because sequence numbers are allocated
//!   monotonically;
//! * an **overflow heap** holds the far future (`at ≥ base + SPAN`:
//!   long-delay timers, fault-plan controls). When the wheel runs dry the
//!   window re-anchors at the heap's earliest event and everything inside
//!   the new window migrates into buckets;
//! * a **backlog** per busy processor — the paper's queue manager (§1.1) —
//!   holds the events that found its node manager busy (see
//!   [`EventQueue::park`]). Only the lowest-seq one, the *representative*,
//!   is scheduled, at the busy horizon; the rest stay in the slab, off the
//!   wheel, in a seq-ordered heap, and move up one per started action
//!   ([`EventQueue::promote`]);
//! * a **seq index** (`by_seq`, built lazily — only schedule exploration
//!   needs it) maps sequence numbers to slots, giving the explorer O(1)
//!   `pop_seq` where the old queue paid a full heap rebuild per controlled
//!   step. The per-class FIFO heads (`classes`) are likewise lazy.
//!
//! The queue maintains a **front cache**: after every mutation, the
//! earliest scheduled event's `(at, seq, slot)` is known, so `next_at` and
//! `peek_plain_at` are O(1) `&self` peeks. Wheel entries are always live
//! (indexed removal deletes from the bucket directly); only the overflow
//! heap can hold stale entries, and it is compacted when they accumulate.
//!
//! Cancellation (crash invalidation, see [`EventQueue::cancel_for`]) does
//! not remove events at all: it converts them **in place** to
//! [`EventKind::Tombstone`], freeing the message payload immediately while
//! keeping the `(at, seq)` firing point, the accumulated queueing `wait`,
//! and the trace-visible identity of the victim. The tombstone fires at
//! the original time as a drop, which is what keeps traces and fault
//! statistics bit-identical to the older lazy epoch-check-at-pop scheme.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use crate::fx::FxHashMap;
use crate::schedule::{Choice, ChoiceKind};
use crate::{ProcId, SimTime};

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind<M> {
    /// Deliver `msg` from `from` to the owning processor. `span` is the
    /// operation the delivery is causally attributable to, resolved at send
    /// time (the payload's own span, else the sending action's).
    Deliver {
        from: ProcId,
        msg: M,
        span: Option<u64>,
    },
    /// Fire a timer with the given token.
    Timer { token: u64 },
    /// Fault-plan control: crash the owning processor.
    Crash,
    /// Fault-plan control: restart the owning processor.
    Restart,
    /// A delivery or timer invalidated by a crash of its target: the
    /// payload is already freed, but the event still fires at its original
    /// `(at, seq)` as a drop, carrying everything the trace and fault
    /// statistics need to describe the victim.
    Tombstone {
        from: ProcId,
        kind: &'static str,
        redelivery: bool,
        span: Option<u64>,
        is_timer: bool,
    },
}

#[derive(Debug)]
pub struct Event<M> {
    pub at: SimTime,
    /// Global sequence number: total tiebreaker so runs are deterministic.
    pub seq: u64,
    pub to: ProcId,
    /// Crash epoch of the target when this event was scheduled. A crash
    /// bumps the target's epoch and eagerly tombstones the in-flight
    /// events it invalidates, so a live event's epoch always matches its
    /// target's — the field survives as the backstop `debug_assert`
    /// checking exactly that, and as the discriminator for events sent
    /// *while* the target is down (current epoch, dropped by the liveness
    /// check, not by cancellation).
    pub epoch: u32,
    /// Ticks this event has spent waiting behind a busy node manager
    /// (accumulated by the service-time model; traced as queueing delay).
    pub wait: u64,
    pub kind: EventKind<M>,
}

/// A wheel-bucket entry: just enough to order firing within one tick,
/// pointing into the slab. Buckets are kept sorted by `seq`.
#[derive(Clone, Copy, Debug)]
struct WheelEntry {
    seq: u64,
    slot: u32,
}

/// An overflow-heap entry for events beyond the wheel window.
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The cached earliest pending event (the queue's "front").
#[derive(Clone, Copy, Debug)]
struct Front {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// A busy processor's node-manager backlog: the events that popped while
/// it was busy, all conceptually firing at its busy horizon.
#[derive(Debug, Default)]
struct Backlog {
    /// The lowest-seq waiting event. It is scheduled at the horizon, except
    /// between its pop and the caller's `park` or `promote` for it.
    rep: Option<Rep>,
    /// Every other waiting event as `(seq, slot)`, lowest seq on top. They
    /// stay in the slab but are in neither the wheel nor the heap.
    parked: BinaryHeap<Reverse<(u64, u32)>>,
}

/// A backlog's representative; `slot` is valid while it is scheduled.
#[derive(Clone, Copy, Debug)]
struct Rep {
    seq: u64,
    slot: u32,
}

/// Ordering class of an event: `(0, src, dst)` for deliveries (per-channel
/// FIFO), `(1, dst, dst)` for timers, `(2, dst, dst)` for crash/restart
/// controls. Tombstones keep their victim's class.
type ClassKey = (u8, ProcId, ProcId);

/// Wheel window width in ticks. Latencies and timer delays below this
/// bound are bucketed in O(1); anything further out takes the overflow
/// heap and migrates in when the window reaches it.
const SPAN: usize = 4096;

/// Compact the overflow heap when stale entries exceed this count and
/// outnumber the live ones.
const COMPACT_SLACK: usize = 64;

/// Deterministic indexed min-queue of events.
pub struct EventQueue<M> {
    /// Per-tick buckets covering `[base, base + SPAN)`; bucket `t % SPAN`
    /// holds the events firing at tick `t`, sorted by seq.
    wheel: Vec<VecDeque<WheelEntry>>,
    /// Occupancy bitmap over buckets (bit `b` set ⇔ `wheel[b]` non-empty),
    /// scanned to find the next firing tick without touching empty buckets.
    occ: Vec<u64>,
    /// Total entries across all buckets (wheel entries are always live).
    wheel_count: usize,
    /// Lower bound of the wheel window. Invariant: every pending event
    /// fires at `≥ base` (the simulator never schedules into the past),
    /// and every overflow-heap event fires at `≥ base + SPAN`.
    base: u64,
    /// Overflow heap for events beyond the window. May hold stale entries
    /// (left by `pop_seq`), counted in `stale_heap`.
    heap: BinaryHeap<HeapEntry>,
    stale_heap: usize,
    /// Slab of event payloads; `None` slots are on the free list.
    slots: Vec<Option<Event<M>>>,
    free: Vec<u32>,
    /// Number of pending events (tombstones and parked events included).
    live: usize,
    /// Cached earliest scheduled event; `None` iff nothing is scheduled
    /// (the queue is empty, or a backlog's representative is in hand).
    front: Option<Front>,
    /// Node-manager backlogs, indexed by target processor; grown on the
    /// first park, so a run without service time never allocates one.
    backlogs: Vec<Backlog>,
    next_seq: u64,
    /// Live events by sequence number, for the schedule explorer's
    /// `pop_seq`. Built lazily on first use, maintained incrementally
    /// afterwards — the plain simulation path never touches it.
    by_seq: Option<FxHashMap<u64, u32>>,
    /// Per-class FIFO heads for the schedule explorer, built lazily on the
    /// first `choices` call and maintained incrementally afterwards. Each
    /// class's `BTreeSet` yields its oldest pending seq in O(log n),
    /// replacing the old full-heap scan per explored step.
    classes: Option<FxHashMap<ClassKey, BTreeSet<u64>>>,
}

fn class_key<M>(e: &Event<M>) -> ClassKey {
    match &e.kind {
        EventKind::Deliver { from, .. } => (0, *from, e.to),
        EventKind::Timer { .. } => (1, e.to, e.to),
        EventKind::Crash | EventKind::Restart => (2, e.to, e.to),
        EventKind::Tombstone { from, is_timer, .. } => {
            if *is_timer {
                (1, e.to, e.to)
            } else {
                (0, *from, e.to)
            }
        }
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..SPAN).map(|_| VecDeque::new()).collect(),
            occ: vec![0; SPAN / 64],
            wheel_count: 0,
            base: 0,
            heap: BinaryHeap::new(),
            stale_heap: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            front: None,
            backlogs: Vec::new(),
            next_seq: 0,
            by_seq: None,
            classes: None,
        }
    }

    pub fn push(&mut self, at: SimTime, to: ProcId, kind: EventKind<M>) {
        self.push_epoch(at, to, 0, kind);
    }

    /// Push with an explicit crash-epoch stamp (see [`Event::epoch`]).
    pub fn push_epoch(&mut self, at: SimTime, to: ProcId, epoch: u32, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Event {
            at,
            seq,
            to,
            epoch,
            wait: 0,
            kind,
        });
    }

    /// Park a popped event whose target's node manager is busy until
    /// `horizon`. The event keeps its sequence number, so events sent after
    /// it cannot overtake it (per-channel FIFO), and is stamped to fire at
    /// `horizon`, its `wait` grown by the ticks it was pushed back.
    ///
    /// Only the lowest-seq waiting event of a processor — its
    /// representative — is scheduled; the others stay parked until
    /// [`EventQueue::promote`] moves them up one at a time. A popped
    /// representative comes back here as the representative again; an
    /// arrival with a lower seq than the representative (possible across
    /// channels of different latency) takes its place, and the displaced
    /// one is parked.
    ///
    /// This gives the order a queue that pushed every waiting event back
    /// to each new horizon would: all of them sit at the horizon, where
    /// the lowest seq among them and the fresh arrivals there runs, and
    /// the others would only be stamped again. A backlog of k events thus
    /// costs O(log k) per action instead of k re-insertions.
    pub fn park(&mut self, horizon: SimTime, mut event: Event<M>) {
        debug_assert!(horizon > event.at, "only a busy node manager parks");
        let to = event.to.index();
        if self.backlogs.len() <= to {
            self.backlogs.resize_with(to + 1, Backlog::default);
        }
        let seq = event.seq;
        event.wait += horizon.ticks() - event.at.ticks();
        event.at = horizon;
        let slot = self.alloc(event);
        let backlog = &mut self.backlogs[to];
        let displaced = match backlog.rep {
            Some(rep) if rep.seq < seq => {
                backlog.parked.push(Reverse((seq, slot)));
                return;
            }
            Some(rep) if rep.seq > seq => {
                backlog.parked.push(Reverse((rep.seq, rep.slot)));
                Some(rep)
            }
            _ => None,
        };
        backlog.rep = Some(Rep { seq, slot });
        if let Some(rep) = displaced {
            let at = self.slots[rep.slot as usize]
                .as_ref()
                .filter(|ev| ev.seq == rep.seq)
                .expect("the representative is scheduled")
                .at;
            if at.ticks() < self.base + SPAN as u64 {
                self.unwheel(at, rep.seq);
            } else {
                // Its slot still holds it, so a stale heap entry would
                // look live: cut it out (horizons this far out are rare).
                self.heap.retain(|e| e.seq != rep.seq);
            }
            if self.front.is_some_and(|f| f.seq == rep.seq) {
                self.scrub();
            }
        }
        self.schedule(horizon, seq, slot);
    }

    /// The node manager of `to` started the action of event `seq` and is
    /// busy until `horizon`. If that event was the representative of its
    /// backlog, the lowest-seq parked event becomes the representative,
    /// scheduled at `horizon`. Its `wait` grows by `horizon − at`: summed
    /// over promotions this telescopes to the ticks since it first parked.
    pub fn promote(&mut self, to: ProcId, seq: u64, horizon: SimTime) {
        let Some(backlog) = self.backlogs.get_mut(to.index()) else {
            return;
        };
        if backlog.rep.is_none_or(|rep| rep.seq != seq) {
            return;
        }
        let Some(Reverse((next, slot))) = backlog.parked.pop() else {
            backlog.rep = None;
            return;
        };
        backlog.rep = Some(Rep { seq: next, slot });
        let event = self.slots[slot as usize]
            .as_mut()
            .expect("parked events stay in the slab");
        event.wait += horizon.ticks() - event.at.ticks();
        event.at = horizon;
        self.schedule(horizon, next, slot);
    }

    fn insert(&mut self, event: Event<M>) {
        let (at, seq) = (event.at, event.seq);
        let slot = self.alloc(event);
        self.schedule(at, seq, slot);
    }

    /// Store `event` in the slab and the explorer's indexes: it is pending
    /// (counted by `len`) but not yet scheduled.
    fn alloc(&mut self, event: Event<M>) -> u32 {
        debug_assert!(
            event.at.ticks() >= self.base,
            "events are never scheduled into the past"
        );
        if let Some(classes) = &mut self.classes {
            classes
                .entry(class_key(&event))
                .or_default()
                .insert(event.seq);
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        if let Some(by_seq) = &mut self.by_seq {
            by_seq.insert(event.seq, slot);
        }
        self.slots[slot as usize] = Some(event);
        self.live += 1;
        slot
    }

    /// Schedule the pending event in `slot` on the wheel or the heap.
    fn schedule(&mut self, at: SimTime, seq: u64, slot: u32) {
        if at.ticks() < self.base + SPAN as u64 {
            self.wheel_insert(at, seq, slot);
        } else {
            self.heap.push(HeapEntry { at, seq, slot });
        }
        if self.front.is_none_or(|f| (at, seq) < (f.at, f.seq)) {
            self.front = Some(Front { at, seq, slot });
        }
    }

    /// Insert into the wheel bucket for `at`, keeping the bucket sorted by
    /// seq. Normal pushes append (seqs are allocated monotonically); a
    /// parked event scheduled behind fresher ones pays the sorted insert.
    fn wheel_insert(&mut self, at: SimTime, seq: u64, slot: u32) {
        let b = (at.ticks() % SPAN as u64) as usize;
        let bucket = &mut self.wheel[b];
        let entry = WheelEntry { seq, slot };
        match bucket.back() {
            Some(last) if last.seq > seq => {
                let i = bucket.partition_point(|e| e.seq < seq);
                bucket.insert(i, entry);
            }
            _ => bucket.push_back(entry),
        }
        self.occ[b / 64] |= 1 << (b % 64);
        self.wheel_count += 1;
    }

    /// First non-empty bucket at or after `base` (window order, wrapping).
    /// Caller guarantees `wheel_count > 0`.
    fn first_occupied(&self) -> usize {
        let start = (self.base % SPAN as u64) as usize;
        let (sw, sb) = (start / 64, start % 64);
        // Scan the start word masked below the start bit, then wrap through
        // the remaining words. The window is exactly SPAN wide, so the
        // first set bit in window order is the earliest firing tick.
        let words = self.occ.len();
        let masked = self.occ[sw] & (!0u64 << sb);
        if masked != 0 {
            return sw * 64 + masked.trailing_zeros() as usize;
        }
        for k in 1..=words {
            let w = (sw + k) % words;
            let bits = if w == sw {
                self.occ[w] & !(!0u64 << sb)
            } else {
                self.occ[w]
            };
            if bits != 0 {
                return w * 64 + bits.trailing_zeros() as usize;
            }
        }
        unreachable!("first_occupied called on an empty wheel");
    }

    /// Recompute the front cache after a removal. Wheel entries are always
    /// live, so the wheel's earliest bucket head wins outright (overflow
    /// events all fire later than the whole window); the overflow heap is
    /// scrubbed of stale entries when it supplies the front. Nothing may
    /// be scheduled even though events are pending: parked events wait
    /// while their representative is in hand between its pop and its park.
    fn scrub(&mut self) {
        if self.wheel_count > 0 {
            let b = self.first_occupied();
            let e = self.wheel[b].front().expect("occupancy bit set");
            let ev = self.slots[e.slot as usize]
                .as_ref()
                .expect("wheel entries are live");
            debug_assert_eq!(ev.seq, e.seq);
            self.front = Some(Front {
                at: ev.at,
                seq: ev.seq,
                slot: e.slot,
            });
            return;
        }
        while let Some(&top) = self.heap.peek() {
            if self.is_current(top) {
                self.front = Some(Front {
                    at: top.at,
                    seq: top.seq,
                    slot: top.slot,
                });
                return;
            }
            self.heap.pop();
            self.stale_heap -= 1;
        }
        self.front = None;
    }

    /// Does this overflow-heap entry still schedule its event? An entry
    /// goes stale when `pop_seq` takes its event; the slot may since hold
    /// another event, or the same one re-parked at a later time.
    fn is_current(&self, e: HeapEntry) -> bool {
        self.slots[e.slot as usize]
            .as_ref()
            .is_some_and(|ev| ev.seq == e.seq && ev.at == e.at)
    }

    /// Migrate every overflow event the current window has reached into
    /// the wheel, restoring the invariant that heap residents all fire at
    /// `≥ base + SPAN`. Heap pops come out in `(at, seq)` order, so bucket
    /// appends stay sorted. Called after every `base` advance; the common
    /// case is a single peek that finds nothing to move.
    fn migrate_window(&mut self) {
        let horizon = self.base + SPAN as u64;
        while let Some(top) = self.heap.peek() {
            if top.at.ticks() >= horizon {
                break;
            }
            let top = self.heap.pop().expect("just peeked");
            if self.is_current(top) {
                self.wheel_insert(top.at, top.seq, top.slot);
            } else {
                self.stale_heap -= 1;
            }
        }
    }

    /// Rebuild the overflow heap from live far slots once stale entries
    /// dominate, so an exploration-heavy run cannot hold the heap at its
    /// high-water mark. Parked events are in the slab but unscheduled, so
    /// they stay out.
    fn maybe_compact(&mut self) {
        if self.stale_heap > COMPACT_SLACK && self.stale_heap * 2 > self.heap.len() {
            let horizon = self.base + SPAN as u64;
            let mut parked = vec![false; self.slots.len()];
            for backlog in &self.backlogs {
                for &Reverse((_, slot)) in &backlog.parked {
                    parked[slot as usize] = true;
                }
            }
            self.heap = self
                .slots
                .iter()
                .enumerate()
                .filter(|&(i, _)| !parked[i])
                .filter_map(|(i, s)| {
                    s.as_ref()
                        .filter(|ev| ev.at.ticks() >= horizon)
                        .map(|ev| HeapEntry {
                            at: ev.at,
                            seq: ev.seq,
                            slot: i as u32,
                        })
                })
                .collect();
            self.stale_heap = 0;
        }
    }

    /// Detach the event in `slot` from every index and free the slot.
    fn take_slot(&mut self, slot: u32) -> Event<M> {
        let event = self.slots[slot as usize]
            .take()
            .expect("entry points at an occupied slot");
        self.free.push(slot);
        self.live -= 1;
        if let Some(by_seq) = &mut self.by_seq {
            by_seq.remove(&event.seq);
        }
        if let Some(classes) = &mut self.classes {
            let key = class_key(&event);
            let set = classes.get_mut(&key).expect("event was indexed");
            set.remove(&event.seq);
            if set.is_empty() {
                classes.remove(&key);
            }
        }
        event
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        let f = self.front.take()?;
        // The front is the global minimum, so every remaining event — and
        // every future push (the simulator's clock is now here) — fires at
        // or after it: the window anchors at its tick, and any overflow
        // events the window slid over migrate into buckets.
        self.base = f.at.ticks();
        self.migrate_window();
        let b = (f.at.ticks() % SPAN as u64) as usize;
        let e = self.wheel[b].pop_front().expect("front is bucketed");
        debug_assert_eq!(e.seq, f.seq, "front cache points at the bucket head");
        if self.wheel[b].is_empty() {
            self.occ[b / 64] &= !(1 << (b % 64));
        }
        self.wheel_count -= 1;
        let event = self.take_slot(e.slot);
        self.scrub();
        Some(event)
    }

    /// Time of the earliest pending event, if any.
    pub fn next_at(&self) -> Option<SimTime> {
        self.front.map(|f| f.at)
    }

    /// Batching probe: the target of the earliest pending event, provided
    /// it fires exactly at `at` and is an ordinary delivery or timer (not
    /// a control event or tombstone). `None` ends a same-tick burst.
    pub fn peek_plain_at(&self, at: SimTime) -> Option<ProcId> {
        let f = self.front?;
        if f.at != at {
            return None;
        }
        let event = self.slots[f.slot as usize]
            .as_ref()
            .expect("front cache is live");
        match event.kind {
            EventKind::Deliver { .. } | EventKind::Timer { .. } => Some(event.to),
            _ => None,
        }
    }

    /// Number of pending events (tombstones included until they fire,
    /// parked events included).
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no events (tombstones and parked ones included) are
    /// pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Convert every pending delivery and timer addressed to `to` into a
    /// tombstone: the paper's crash invalidation, applied *eagerly* at the
    /// crash instead of lazily at each victim's pop. Payloads are freed
    /// here; firing times, sequence numbers, accumulated waits, and the
    /// trace-visible identity of each victim are preserved, so the
    /// resulting run is bit-identical to the lazy scheme. Control events
    /// (the crash's own restart) are untouched, as are events that do not
    /// target `to`.
    ///
    /// A backlog of `to` dissolves first: every waiting event sits at the
    /// busy horizon, where its representative is scheduled, so each parked
    /// event is scheduled there too, its `wait` grown to it, and all of
    /// them drop at the horizon. (Crash controls are queued before any
    /// action runs, so no crash falls between two waiting events of one
    /// tick.) Call this with no representative in hand.
    pub fn cancel_for(&mut self, to: ProcId)
    where
        M: crate::Payload,
    {
        let rep = self
            .backlogs
            .get_mut(to.index())
            .and_then(|backlog| backlog.rep.take());
        if let Some(rep) = rep {
            let horizon = self.slots[rep.slot as usize]
                .as_ref()
                .filter(|ev| ev.seq == rep.seq)
                .expect("the representative is scheduled")
                .at;
            let parked = std::mem::take(&mut self.backlogs[to.index()].parked);
            for Reverse((seq, slot)) in parked.into_sorted_vec().into_iter().rev() {
                let event = self.slots[slot as usize]
                    .as_mut()
                    .expect("parked events stay in the slab");
                debug_assert!(event.at <= horizon, "parked events trail the horizon");
                event.wait += horizon.ticks() - event.at.ticks();
                event.at = horizon;
                self.schedule(horizon, seq, slot);
            }
        }
        for slot in &mut self.slots {
            let Some(event) = slot else { continue };
            if event.to != to {
                continue;
            }
            event.kind = match &event.kind {
                EventKind::Deliver { from, msg, span } => EventKind::Tombstone {
                    from: *from,
                    kind: msg.kind(),
                    redelivery: msg.redelivery(),
                    span: *span,
                    is_timer: false,
                },
                EventKind::Timer { .. } => EventKind::Tombstone {
                    from: event.to,
                    kind: "timer",
                    redelivery: false,
                    span: None,
                    is_timer: true,
                },
                // Controls survive (a crash must not eat its own restart);
                // an existing tombstone is already canceled.
                EventKind::Crash | EventKind::Restart | EventKind::Tombstone { .. } => continue,
            };
        }
    }

    /// Build the seq index on first explorer use.
    fn ensure_by_seq(&mut self) {
        if self.by_seq.is_none() {
            let mut by_seq = FxHashMap::default();
            for (i, s) in self.slots.iter().enumerate() {
                if let Some(ev) = s {
                    by_seq.insert(ev.seq, i as u32);
                }
            }
            self.by_seq = Some(by_seq);
        }
    }

    /// The *enabled* events a schedule controller may legally fire next:
    /// the lowest-sequence pending event of each ordering class. Classes
    /// are `(src, dst)` channels for deliveries (per-channel FIFO), the
    /// target processor for timers, and the target processor for
    /// crash/restart controls (a crash precedes its own restart). Sorted by
    /// sequence number so the listing is deterministic.
    ///
    /// The first call builds the per-class index; subsequent calls reuse
    /// it, maintained incrementally by push/pop, so a controlled run pays
    /// O(classes) per step instead of O(pending events).
    pub fn choices(&mut self) -> Vec<Choice>
    where
        M: crate::Payload,
    {
        self.ensure_by_seq();
        if self.classes.is_none() {
            let mut classes: FxHashMap<ClassKey, BTreeSet<u64>> = FxHashMap::default();
            for event in self.slots.iter().flatten() {
                classes
                    .entry(class_key(event))
                    .or_default()
                    .insert(event.seq);
            }
            self.classes = Some(classes);
        }
        let classes = self.classes.as_ref().unwrap();
        let by_seq = self.by_seq.as_ref().unwrap();
        let mut out: Vec<Choice> = classes
            .values()
            .filter_map(|set| set.iter().next())
            .map(|seq| {
                let slot = by_seq[seq];
                let event = self.slots[slot as usize].as_ref().expect("indexed event");
                Choice {
                    seq: event.seq,
                    at: event.at,
                    to: event.to,
                    from: match &event.kind {
                        EventKind::Deliver { from, .. } => Some(*from),
                        EventKind::Tombstone {
                            from,
                            is_timer: false,
                            ..
                        } => Some(*from),
                        _ => None,
                    },
                    kind: match &event.kind {
                        EventKind::Deliver { .. } => ChoiceKind::Deliver,
                        EventKind::Timer { .. } => ChoiceKind::Timer,
                        EventKind::Crash | EventKind::Restart => ChoiceKind::Control,
                        EventKind::Tombstone { is_timer, .. } => {
                            if *is_timer {
                                ChoiceKind::Timer
                            } else {
                                ChoiceKind::Deliver
                            }
                        }
                    },
                    label: match &event.kind {
                        EventKind::Deliver { msg, .. } => msg.kind(),
                        EventKind::Timer { .. } => "timer",
                        EventKind::Crash => "crash",
                        EventKind::Restart => "restart",
                        EventKind::Tombstone { kind, .. } => kind,
                    },
                }
            })
            .collect();
        out.sort_unstable_by_key(|c| c.seq);
        out
    }

    /// The next sequence number this queue will allocate. The simulator
    /// samples it around each controlled step to report which events the
    /// step created (see [`crate::Scheduler::fired`]).
    pub fn seq_watermark(&self) -> u64 {
        self.next_seq
    }

    /// Fold the *content* of every pending event into `h`, in channel
    /// order: for each ordering class (sorted), the queued payloads oldest
    /// first. Virtual times and sequence numbers are deliberately excluded
    /// — the model checker's state fingerprint must identify two states
    /// that differ only in when their events were minted. Payloads hash
    /// via their `Debug` rendering (every [`crate::Payload`] is `Debug`).
    pub fn pending_fingerprint(&self, h: &mut impl std::hash::Hasher)
    where
        M: std::fmt::Debug,
    {
        use std::hash::Hash;
        let mut pending: Vec<(ClassKey, u64, u32)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|ev| (class_key(ev), ev.seq, i as u32)))
            .collect();
        pending.sort_unstable_by_key(|&(key, seq, _)| (key, seq));
        for (key, _, slot) in pending {
            let event = self.slots[slot as usize].as_ref().expect("slot is live");
            (key.0, key.1 .0, key.2 .0).hash(h);
            match &event.kind {
                EventKind::Deliver { msg, .. } => format!("{msg:?}").hash(h),
                EventKind::Timer { token } => ("timer", token).hash(h),
                EventKind::Crash => "crash".hash(h),
                EventKind::Restart => "restart".hash(h),
                EventKind::Tombstone {
                    kind, redelivery, ..
                } => ("tomb", kind, redelivery).hash(h),
            }
        }
    }

    /// Remove and return the pending event with the given sequence number
    /// (the schedule explorer's controlled step). Wheel residents are
    /// deleted from their bucket directly; overflow residents leave a
    /// stale heap entry behind, swept when it surfaces or at compaction.
    /// A parked event leaves its backlog (O(backlog), explorer-only); a
    /// representative is then in hand exactly as after [`EventQueue::pop`].
    pub fn pop_seq(&mut self, seq: u64) -> Option<Event<M>> {
        self.ensure_by_seq();
        let slot = *self.by_seq.as_ref().unwrap().get(&seq)?;
        // Free the slot *before* the overflow bookkeeping: heap compaction
        // rebuilds from live slots, and the victim must not be one of them.
        let event = self.take_slot(slot);
        if let Some(backlog) = self.backlogs.get_mut(event.to.index()) {
            let before = backlog.parked.len();
            backlog.parked.retain(|&Reverse((s, _))| s != seq);
            if backlog.parked.len() < before {
                return Some(event);
            }
        }
        if event.at.ticks() < self.base + SPAN as u64 {
            self.unwheel(event.at, seq);
        } else {
            self.stale_heap += 1;
            self.maybe_compact();
        }
        if self.front.is_none_or(|f| f.seq == seq) {
            self.scrub();
        }
        Some(event)
    }

    /// Delete the wheel entry of the event `(at, seq)` from its bucket.
    fn unwheel(&mut self, at: SimTime, seq: u64) {
        let b = (at.ticks() % SPAN as u64) as usize;
        let bucket = &mut self.wheel[b];
        let i = bucket.partition_point(|e| e.seq < seq);
        debug_assert_eq!(bucket[i].seq, seq, "bucket is sorted by seq");
        bucket.remove(i);
        if bucket.is_empty() {
            self.occ[b / 64] &= !(1 << (b % 64));
        }
        self.wheel_count -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime(30), ProcId(0), EventKind::Timer { token: 3 });
        q.push(SimTime(10), ProcId(0), EventKind::Timer { token: 1 });
        q.push(SimTime(20), ProcId(0), EventKind::Timer { token: 2 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.ticks())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for token in 0..10 {
            q.push(SimTime(5), ProcId(0), EventKind::Timer { token });
        }
        let tokens: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn far_events_overflow_and_migrate_in_order() {
        // Events beyond the wheel window live in the overflow heap and
        // must come back in exact (at, seq) order when the window reaches
        // them — including same-tick seq ties split across the boundary.
        let mut q: EventQueue<u32> = EventQueue::new();
        let far = SPAN as u64 * 3 + 17;
        q.push(SimTime(far), ProcId(0), EventKind::Timer { token: 0 }); // seq 0
        q.push(SimTime(2), ProcId(0), EventKind::Timer { token: 1 }); // seq 1
        q.push(SimTime(far + 1), ProcId(0), EventKind::Timer { token: 2 }); // seq 2
        q.push(SimTime(far), ProcId(0), EventKind::Timer { token: 3 }); // seq 3
        assert_eq!(q.next_at(), Some(SimTime(2)));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.at.ticks(), e.seq))
            .collect();
        assert_eq!(order, vec![(2, 1), (far, 0), (far, 3), (far + 1, 2)]);
        // The window re-anchored; near pushes still work afterwards.
        q.push(SimTime(far + 2), ProcId(0), EventKind::Timer { token: 9 });
        assert_eq!(q.pop().unwrap().at, SimTime(far + 2));
        assert!(q.is_empty());
    }

    #[test]
    fn window_advance_catches_overflow_residents() {
        // An event can be pushed beyond the window (→ overflow heap) and
        // then have the window slide over it as nearer events pop. It must
        // migrate into the wheel when that happens, and still order
        // correctly against wheel residents pushed after it.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime(4000), ProcId(0), EventKind::Timer { token: 0 });
        // Beyond base(0) + SPAN → overflow heap.
        q.push(SimTime(5000), ProcId(0), EventKind::Timer { token: 1 });
        assert_eq!(q.pop().unwrap().at, SimTime(4000));
        // base is now 4000; 5000 sits inside the new window. A fresh wheel
        // push at 6000 must not overtake it.
        q.push(SimTime(6000), ProcId(0), EventKind::Timer { token: 2 });
        assert_eq!(q.next_at(), Some(SimTime(5000)));
        assert_eq!(q.pop().unwrap().at, SimTime(5000));
        assert_eq!(q.pop().unwrap().at, SimTime(6000));
        assert!(q.is_empty());
    }

    #[test]
    fn park_preserves_original_seq_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime(5), ProcId(0), EventKind::Timer { token: 0 }); // seq 0
        q.push(SimTime(5), ProcId(0), EventKind::Timer { token: 1 }); // seq 1
        q.push(SimTime(9), ProcId(0), EventKind::Timer { token: 2 }); // seq 2
        let first = q.pop().unwrap();
        assert_eq!(first.seq, 0);
        // Park the popped event behind a node manager busy until tick 9:
        // its old seq (0) must fire before seq 2 at the same tick,
        // exercising the sorted bucket insert, having waited 9 − 5 ticks.
        q.park(SimTime(9), first);
        let order: Vec<(u64, u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.seq, e.at.ticks(), e.wait))
            .collect();
        assert_eq!(order, vec![(1, 5, 0), (0, 9, 4), (2, 9, 0)]);
    }

    /// A minimal node manager over the queue, the way the simulator drives
    /// it: pop; park while the target is busy; otherwise start the action
    /// (busy for `svc(target)` ticks) and promote. With `pushback`, a busy
    /// target's event is instead re-inserted at the horizon under its seq,
    /// the reference the backlog must match. Returns each started action
    /// as `(seq, at, wait)`.
    fn drain(
        q: &mut EventQueue<u32>,
        svc: impl Fn(ProcId) -> u64,
        pushback: bool,
    ) -> Vec<(u64, u64, u64)> {
        let mut busy: FxHashMap<ProcId, SimTime> = FxHashMap::default();
        let mut ran = Vec::new();
        while let Some(e) = q.pop() {
            let b = busy.get(&e.to).copied().unwrap_or(SimTime::ZERO);
            if b > e.at && pushback {
                let wait = e.wait + b.ticks() - e.at.ticks();
                q.insert(Event { at: b, wait, ..e });
            } else if b > e.at {
                q.park(b, e);
            } else {
                let horizon = e.at + svc(e.to);
                busy.insert(e.to, horizon);
                q.promote(e.to, e.seq, horizon);
                ran.push((e.seq, e.at.ticks(), e.wait));
            }
        }
        ran
    }

    #[test]
    fn backlog_keeps_one_representative_scheduled() {
        // Four events for P0 at tick 1, service 10: the first runs, the
        // other three wait. Only the lowest-seq waiter is scheduled; the
        // others are parked yet still pending.
        let mut q: EventQueue<u32> = EventQueue::new();
        for token in 0..4 {
            q.push(SimTime(1), ProcId(0), EventKind::Timer { token });
        }
        let first = q.pop().unwrap();
        q.promote(ProcId(0), first.seq, SimTime(11));
        for _ in 0..3 {
            let e = q.pop().unwrap();
            q.park(SimTime(11), e);
        }
        assert_eq!(q.len(), 3, "parked events are pending");
        assert_eq!(q.wheel_count, 1, "only the representative is scheduled");
        assert_eq!(q.backlogs[0].parked.len(), 2);
        assert_eq!(q.next_at(), Some(SimTime(11)));
        // Each start promotes the next waiter to the new horizon; waits
        // are the ticks since arrival at tick 1.
        let ran = drain(&mut q, |_| 10, false);
        assert_eq!(ran, vec![(1, 11, 10), (2, 21, 20), (3, 31, 30)]);
        assert!(q.is_empty());
    }

    #[test]
    fn backlog_drains_in_the_order_of_per_horizon_pushback() {
        // The equivalence the backlog rests on: pushing every waiter back
        // to each new horizon (seq kept) and parking all but the lowest
        // give the same starts, times and waits. Mixed targets, arrivals
        // spread over time, and fresh arrivals landing exactly on a
        // horizon (which may outrank the waiters there).
        let build = || {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..120u64 {
                let at = 1 + (i * 37) % 41;
                q.push(
                    SimTime(at),
                    ProcId((i % 3) as u32),
                    EventKind::Timer { token: i },
                );
            }
            q
        };
        let svc = |p: ProcId| 3 + u64::from(p.0) * 4;
        let expected = drain(&mut build(), svc, true);
        let mut q = build();
        let ran = drain(&mut q, svc, false);
        assert_eq!(ran.len(), 120);
        assert_eq!(ran, expected);
        assert_eq!(q.next_seq, 120, "parking allocates no sequence numbers");
    }

    #[test]
    fn cancel_for_drops_parked_events_at_the_horizon() {
        // P0 busy until tick 30, with four waiting events (the
        // representative and three parked) that arrived at ticks 2, 3, 4
        // and 6, and a fifth event due after the horizon. A crash cancels the
        // lot: the four waiters fire as tombstones at the horizon, each
        // carrying the wait it accumulated to it, in seq order.
        let mut q: EventQueue<u32> = EventQueue::new();
        let deliver = |msg| EventKind::Deliver {
            from: ProcId(1),
            msg,
            span: None,
        };
        q.push(SimTime(1), ProcId(0), deliver(0)); // seq 0 — runs
        for (at, msg) in [(2, 1), (3, 2), (4, 3), (6, 4)] {
            q.push(SimTime(at), ProcId(0), deliver(msg)); // seqs 1..=4
        }
        q.push(SimTime(40), ProcId(0), deliver(5)); // seq 5 — after the horizon
        let e = q.pop().unwrap();
        q.promote(e.to, e.seq, SimTime(30));
        for _ in 0..4 {
            let e = q.pop().unwrap();
            q.park(SimTime(30), e);
        }
        assert_eq!((q.len(), q.wheel_count), (5, 2));
        q.cancel_for(ProcId(0));
        assert_eq!(q.len(), 5, "cancellation never removes events");
        assert!(q.backlogs[0].rep.is_none() && q.backlogs[0].parked.is_empty());
        let fired: Vec<(u64, u64, u64, bool)> = std::iter::from_fn(|| q.pop())
            .map(|e| {
                let tomb = matches!(
                    e.kind,
                    EventKind::Tombstone {
                        is_timer: false,
                        ..
                    }
                );
                (e.seq, e.at.ticks(), e.wait, tomb)
            })
            .collect();
        assert_eq!(
            fired,
            vec![
                (1, 30, 28, true),
                (2, 30, 27, true),
                (3, 30, 26, true),
                (4, 30, 24, true),
                (5, 40, 0, true),
            ]
        );
    }

    #[test]
    fn cancel_for_catches_a_displaced_representative_up_to_the_horizon() {
        // R (seq 3) waits for P0's horizon 10. At tick 10 the fresh X (seq
        // 1) runs first, moving the horizon to 20, and F (seq 2) displaces
        // R, which stays parked at tick 10. Cancellation must drop R at 20
        // with wait 5 + 10, as if it had been pushed back there, not at 10.
        let mut q: EventQueue<u32> = EventQueue::new();
        for (at, token) in [(1, 0), (10, 1), (10, 2), (5, 3)] {
            q.push(SimTime(at), ProcId(0), EventKind::Timer { token }); // seq = token
        }
        let ran = |q: &mut EventQueue<u32>, horizon| {
            let e = q.pop().unwrap();
            q.promote(e.to, e.seq, SimTime(horizon));
        };
        ran(&mut q, 10); // seq 0 at tick 1
        let r = q.pop().unwrap();
        q.park(SimTime(10), r);
        ran(&mut q, 20); // X at tick 10
        let f = q.pop().unwrap();
        q.park(SimTime(20), f);
        q.cancel_for(ProcId(0));
        let fired: Vec<(u64, u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.seq, e.at.ticks(), e.wait))
            .collect();
        assert_eq!(fired, vec![(2, 20, 10), (3, 20, 15)]);
    }

    #[test]
    fn explorer_reaches_parked_events() {
        // B and C wait behind a busy P0 (B is the representative, C is
        // parked). Both head their own channel, so both are choices, and
        // `pop_seq` can take the parked one; the backlog stays consistent.
        let mut q: EventQueue<u32> = EventQueue::new();
        let deliver = |from: u32, msg| EventKind::Deliver {
            from: ProcId(from),
            msg,
            span: None,
        };
        q.push(SimTime(5), ProcId(0), deliver(1, 0xA)); // seq 0
        q.push(SimTime(5), ProcId(0), deliver(2, 0xB)); // seq 1
        q.push(SimTime(5), ProcId(0), deliver(3, 0xC)); // seq 2
        q.push(SimTime(6), ProcId(0), deliver(3, 0xD)); // seq 3 — behind C
        let a = q.pop().unwrap();
        q.promote(a.to, a.seq, SimTime(15));
        for _ in 0..3 {
            let e = q.pop().unwrap();
            q.park(SimTime(15), e);
        }
        let choices = q.choices();
        let heads: Vec<(u64, u64, Option<ProcId>)> = choices
            .iter()
            .map(|c| (c.seq, c.at.ticks(), c.from))
            .collect();
        // D is masked by C on channel 3→0.
        assert_eq!(
            heads,
            vec![(1, 15, Some(ProcId(2))), (2, 15, Some(ProcId(3)))]
        );
        let c = q.pop_seq(2).expect("a parked event is reachable");
        assert_eq!((c.at.ticks(), c.wait, c.to), (15, 10, ProcId(0)));
        assert_eq!(q.len(), 2);
        // Popping C unmasks D (parked, at its horizon).
        let seqs: Vec<u64> = q.choices().iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![1, 3]);
        // The representative still runs first, then D is promoted.
        let b = q.pop().unwrap();
        assert_eq!((b.seq, b.at.ticks(), b.wait), (1, 15, 10));
        q.promote(b.to, b.seq, SimTime(25));
        let d = q.pop().unwrap();
        assert_eq!((d.seq, d.at.ticks(), d.wait), (3, 25, 19));
        q.promote(d.to, d.seq, SimTime(35));
        assert!(q.is_empty() && q.choices().is_empty());
        assert!(q.backlogs[0].rep.is_none());
    }

    #[test]
    fn pop_seq_of_the_representative_leaves_it_in_hand() {
        // Under a scheduler the representative can be taken by seq; until
        // it is parked again nothing is scheduled, yet the parked event
        // still counts, and re-parking restores the schedule.
        let mut q: EventQueue<u32> = EventQueue::new();
        for token in 0..3 {
            q.push(SimTime(1), ProcId(0), EventKind::Timer { token });
        }
        let first = q.pop().unwrap();
        q.promote(first.to, first.seq, SimTime(9));
        for _ in 0..2 {
            let e = q.pop().unwrap();
            q.park(SimTime(9), e);
        }
        let rep = q.pop_seq(1).unwrap();
        assert_eq!((q.len(), q.next_at()), (1, None));
        assert!(q.pop().is_none(), "nothing is scheduled while in hand");
        q.park(SimTime(12), rep);
        assert_eq!(q.next_at(), Some(SimTime(12)));
        let e = q.pop().unwrap();
        assert_eq!((e.seq, e.at.ticks(), e.wait), (1, 12, 11));
        q.promote(e.to, e.seq, SimTime(20));
        let e = q.pop().unwrap();
        assert_eq!((e.seq, e.at.ticks(), e.wait), (2, 20, 19));
        q.promote(e.to, e.seq, SimTime(28));
        assert!(q.is_empty());
    }

    #[test]
    fn far_horizon_backlog_survives_displacement_and_compaction() {
        // A horizon beyond the wheel window puts the representative in the
        // overflow heap. A lower-seq arrival displaces it there, and heap
        // compaction must leave the parked events out: each event fires
        // exactly once, in seq order, at its own horizon.
        let mut q: EventQueue<u32> = EventQueue::new();
        let far = SPAN as u64 * 2;
        q.push(SimTime(1), ProcId(0), EventKind::Timer { token: 0 }); // seq 0
        q.push(SimTime(3), ProcId(0), EventKind::Timer { token: 1 }); // seq 1
        q.push(SimTime(2), ProcId(0), EventKind::Timer { token: 2 }); // seq 2
        q.push(SimTime(2), ProcId(0), EventKind::Timer { token: 3 }); // seq 3
        let first = q.pop().unwrap();
        q.promote(first.to, first.seq, SimTime(far));
        for _ in 0..3 {
            // Seqs 2 and 3 at tick 2, then seq 1 displaces seq 2 at tick 3.
            let e = q.pop().unwrap();
            q.park(SimTime(far), e);
        }
        assert_eq!(q.heap.len(), 1, "only the representative is scheduled");
        // Stale entries from explorer-style removals force a compaction.
        for i in 0..(2 * COMPACT_SLACK as u64) {
            q.push(
                SimTime(far + 1 + i),
                ProcId(1),
                EventKind::Timer { token: i },
            );
        }
        for seq in 4..(4 + 2 * COMPACT_SLACK as u64) {
            q.pop_seq(seq).unwrap();
        }
        assert!(q.heap.len() <= COMPACT_SLACK, "the heap was compacted");
        assert!(
            q.heap.iter().all(|e| e.seq != 2 && e.seq != 3),
            "compaction must not schedule parked events"
        );
        let ran = drain(&mut q, |_| 10, false);
        assert_eq!(
            ran,
            vec![
                (1, far, far - 3),
                (2, far + 10, far + 8),
                (3, far + 20, far + 18),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn choices_expose_one_head_per_class() {
        let mut q: EventQueue<u32> = EventQueue::new();
        // Two messages on channel 1->0, one on 2->0, a timer on 0, and a
        // crash+restart pair on 1.
        let deliver = |from: u32, msg| EventKind::Deliver {
            from: ProcId(from),
            msg,
            span: None,
        };
        q.push(SimTime(10), ProcId(0), deliver(1, 7)); // seq 0
        q.push(SimTime(5), ProcId(0), deliver(1, 8)); // seq 1 — same channel
        q.push(SimTime(20), ProcId(0), deliver(2, 9)); // seq 2
        q.push(SimTime(1), ProcId(0), EventKind::Timer { token: 3 }); // seq 3
        q.push(SimTime(2), ProcId(1), EventKind::Crash); // seq 4
        q.push(SimTime(9), ProcId(1), EventKind::Restart); // seq 5 — masked
        let choices = q.choices();
        let seqs: Vec<u64> = choices.iter().map(|c| c.seq).collect();
        // Channel 1->0 exposes only seq 0 (its oldest), and the restart is
        // masked by the crash that precedes it.
        assert_eq!(seqs, vec![0, 2, 3, 4]);
        assert_eq!(choices[0].from, Some(ProcId(1)));
        assert_eq!(choices[2].kind, ChoiceKind::Timer);
        assert_eq!(choices[3].kind, ChoiceKind::Control);
        // Popping the crash unmasks the restart.
        assert!(q.pop_seq(4).is_some());
        assert!(q.choices().iter().any(|c| c.seq == 5));
        // pop_seq leaves the rest of the queue intact and ordered.
        assert!(q.pop_seq(99).is_none());
        assert_eq!(q.len(), 5);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![3, 1, 5, 0, 2]);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(1), ProcId(0), EventKind::Timer { token: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    impl crate::Payload for u32 {}

    #[test]
    fn cancel_tombstones_deliveries_and_timers_but_not_controls() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let deliver = |from: u32, msg| EventKind::Deliver {
            from: ProcId(from),
            msg,
            span: Some(41),
        };
        q.push(SimTime(10), ProcId(1), deliver(0, 7)); // seq 0 — victim
        q.push(SimTime(12), ProcId(1), EventKind::Timer { token: 9 }); // seq 1 — victim
        q.push(SimTime(15), ProcId(2), deliver(0, 8)); // seq 2 — other target
        q.push(SimTime(20), ProcId(1), EventKind::Restart); // seq 3 — control survives
        q.cancel_for(ProcId(1));
        assert_eq!(q.len(), 4, "cancellation never removes events");

        let e0 = q.pop().unwrap();
        assert_eq!((e0.at, e0.seq, e0.wait), (SimTime(10), 0, 0));
        match e0.kind {
            EventKind::Tombstone {
                from,
                kind,
                redelivery,
                span,
                is_timer,
            } => {
                assert_eq!(from, ProcId(0));
                assert_eq!(kind, "msg");
                assert!(!redelivery);
                assert_eq!(span, Some(41));
                assert!(!is_timer);
            }
            other => panic!("expected deliver tombstone, got {other:?}"),
        }
        let e1 = q.pop().unwrap();
        assert!(
            matches!(e1.kind, EventKind::Tombstone { is_timer: true, .. }),
            "timer becomes a timer tombstone"
        );
        assert!(
            matches!(q.pop().unwrap().kind, EventKind::Deliver { .. }),
            "other targets untouched"
        );
        assert!(
            matches!(q.pop().unwrap().kind, EventKind::Restart),
            "controls survive cancellation"
        );
    }

    #[test]
    fn tombstones_keep_their_class_for_the_explorer() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let deliver = |from: u32, msg| EventKind::Deliver {
            from: ProcId(from),
            msg,
            span: None,
        };
        q.push(SimTime(10), ProcId(1), deliver(0, 7)); // seq 0
        q.push(SimTime(11), ProcId(1), deliver(0, 8)); // seq 1 — same channel
                                                       // Build the incremental index before canceling, then verify the
                                                       // cancellation is class-invisible.
        let before: Vec<u64> = q.choices().iter().map(|c| c.seq).collect();
        q.cancel_for(ProcId(1));
        let after = q.choices();
        assert_eq!(before, vec![0]);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].seq, 0);
        assert_eq!(after[0].kind, ChoiceKind::Deliver);
        assert_eq!(after[0].from, Some(ProcId(0)));
    }

    #[test]
    fn pop_seq_is_indexed_and_structures_stay_compact() {
        let mut q: EventQueue<u32> = EventQueue::new();
        // Near events (wheel residents) are deleted from their bucket
        // outright by pop_seq.
        for i in 0..500u64 {
            q.push(SimTime(i), ProcId(0), EventKind::Timer { token: i });
        }
        for seq in 0..400u64 {
            assert!(q.pop_seq(seq).is_some());
        }
        assert_eq!(q.len(), 100);
        assert_eq!(q.wheel_count, 100, "wheel removals leave nothing stale");
        assert_eq!(q.next_at(), Some(SimTime(400)));

        // Far events (overflow residents) leave stale heap entries behind;
        // those must be compacted away, not accumulate.
        let far = SPAN as u64 * 10;
        for i in 0..500u64 {
            q.push(SimTime(far + i), ProcId(0), EventKind::Timer { token: i });
        }
        for seq in 500..900u64 {
            assert!(q.pop_seq(seq).is_some());
        }
        assert_eq!(q.len(), 200);
        assert!(
            q.heap.len() <= 100 + COMPACT_SLACK + 1,
            "stale heap entries must be compacted (heap holds {})",
            q.heap.len()
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        let expected: Vec<u64> = (400..500).chain(900..1000).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn slots_are_reused_after_pop() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                q.push(
                    SimTime(round * 1000 + i),
                    ProcId(0),
                    EventKind::Timer { token: i },
                );
            }
            for _ in 0..100 {
                q.pop().unwrap();
            }
        }
        assert!(q.is_empty());
        assert!(
            q.slots.len() <= 100,
            "slab must reuse freed slots (grew to {})",
            q.slots.len()
        );
    }
}
