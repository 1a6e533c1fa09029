//! A cancellable, deterministic event queue.
//!
//! Events at equal times pop in insertion order (a monotone sequence number
//! breaks ties), which makes whole-simulation runs bit-reproducible for a
//! given seed.
//!
//! ## Cancellation and compaction
//!
//! Cancellation is O(1): the entry's slot in an internal slab is marked
//! cancelled and the heap entry becomes a *tombstone*, skipped when it
//! reaches the head. Tombstones are physically removed either lazily (at
//! the head) or by a threshold-triggered compaction: when more than half
//! of the heap (beyond a small floor) is tombstones, the heap is rebuilt
//! from its live entries in O(n). Under a schedule/cancel/reschedule timer
//! churn loop — the MAC's ACK/CTS pattern, where almost every armed timer
//! is cancelled long before its distant fire time — the heap therefore
//! stays proportional to the *live* event count instead of growing with
//! the total number of cancellations.
//!
//! Compaction never reorders live events (ordering lives in the entries
//! themselves), so pop order — and with it simulation determinism — is
//! unaffected by when or whether it runs.
//!
//! ## Scripted events
//!
//! A stream already sorted by time — a trial's whole traffic script — can
//! be handed over in one [`EventQueue::schedule_sorted`] call instead of
//! one `schedule` per event. It is kept beside the heap as a plain `Vec`
//! rather than in it, so the heap holds only the events scheduled at run
//! time, and a scripted event takes no slab slot.
//!
//! The merge is exact. The call reserves the sequence numbers `schedule`
//! would have given the events at that point: consecutive, in stream
//! order, so the script's head is always its lowest `(time, seq)` key.
//! Every read of the queue's head compares that key with the heap top's
//! by the same `(time, seq)` order the heap uses, and sequence numbers
//! are unique, so the two never tie. A tombstone on top is harmless: a
//! script head before it is before every live entry too, and one after
//! it is compared again once the tombstone is gone. Pops therefore come out exactly as
//! if each scripted event had been scheduled one by one at the call.
//!
//! The one difference is cancellation: no token is handed out at the
//! call, and the token a popped scripted event carries cancels nothing.
//! Compaction counts heap tombstones only; the script has none.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::num::NonZeroU64;

use crate::time::SimTime;

/// Handle identifying a scheduled event, usable to cancel it.
///
/// Internally a `(slot, generation)` pair into the queue's slab: slots are
/// recycled once their heap entry is gone, and the generation is bumped on
/// every recycle, so a stale token held across a pop can never cancel an
/// unrelated later event.
///
/// The pair is stored bit-inverted in a `NonZeroU64`. Slot `u32::MAX` is
/// the free list's end marker and is never reached (that many pending
/// events would need over 100 GB of heap), so the packed pair is never all
/// ones and its complement never zero; building a token panics rather
/// than wrap if it ever were. The niche makes `Option<EventToken>` 8
/// bytes, which halves the harness's per-node table of armed MAC timers.
///
/// A popped scripted event (see [`EventQueue::schedule_sorted`]) carries
/// slot `u32::MAX`, generation 0: no slab slot answers to it, so
/// cancelling it returns `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(NonZeroU64);

const _: () = assert!(std::mem::size_of::<Option<EventToken>>() == 8);

impl EventToken {
    /// The token of every popped scripted event.
    const SCRIPTED: EventToken = EventToken::new(u32::MAX, 0);

    const fn new(slot: u32, gen: u32) -> Self {
        let packed = ((slot as u64) << 32) | gen as u64;
        match NonZeroU64::new(!packed) {
            Some(bits) => EventToken(bits),
            None => panic!("the free-list end marker is never a live slot"),
        }
    }

    fn packed(self) -> u64 {
        !self.0.get()
    }

    fn slot(self) -> u32 {
        (self.packed() >> 32) as u32
    }

    fn generation(self) -> u32 {
        self.packed() as u32
    }
}

/// An event popped from the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub time: SimTime,
    /// The token it was scheduled under.
    pub token: EventToken,
    /// The event payload.
    pub event: E,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    slot: u32,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // Reverse: BinaryHeap is a max-heap, we want earliest first and,
        // within a time, the lowest sequence number first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Slab slot state. A slot stays allocated for exactly as long as its heap
/// entry physically exists (pending *or* tombstoned); it is recycled when
/// the entry is popped, skimmed, or compacted away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Slot free; value is the next free slot (`u32::MAX` = none).
    Free(u32),
    /// Event scheduled and not cancelled.
    Pending,
    /// Event cancelled; its heap entry is a tombstone.
    Cancelled,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    gen: u32,
    state: SlotState,
}

/// Default tombstone count below which compaction never triggers; avoids
/// O(n) rebuilds of tiny heaps where lazy skimming is already cheap.
/// Tunable per queue via [`EventQueue::with_compact_floor`].
pub const DEFAULT_COMPACT_FLOOR: usize = 64;

/// A min-heap of timed events with stable FIFO tie-breaking, O(1)
/// cancellation, and tombstone compaction keeping memory proportional to
/// the live event count.
///
/// # Examples
///
/// ```
/// use slr_netsim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let _a = q.schedule(SimTime::from_secs(2), "late");
/// let b = q.schedule(SimTime::from_secs(1), "early");
/// let c = q.schedule(SimTime::from_secs(1), "early2");
/// q.cancel(c);
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// # let _ = b;
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// The unpopped rest of the [`EventQueue::schedule_sorted`] stream,
    /// latest first: its length is the cursor, and the head pops off the
    /// end.
    script: Vec<(SimTime, E)>,
    /// Sequence number one past the script's last event; the script head
    /// holds `script_end - script.len()`.
    script_end: u64,
    slots: Vec<Slot>,
    free_head: u32,
    /// Tombstoned (cancelled, not yet physically removed) heap entries.
    cancelled: usize,
    next_seq: u64,
    /// Tombstone count below which compaction never triggers.
    compact_floor: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the default compaction floor.
    pub fn new() -> Self {
        EventQueue::with_compact_floor(DEFAULT_COMPACT_FLOOR)
    }

    /// Creates an empty queue whose tombstone compaction only triggers
    /// once more than `floor` entries are tombstoned (and tombstones
    /// outnumber live entries). `floor = 0` compacts as aggressively as
    /// the ratio allows; `usize::MAX` disables compaction (lazy skimming
    /// only — the pre-compaction behavior, heap memory grows with the
    /// cancellation count under timer churn).
    pub fn with_compact_floor(floor: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            script: Vec::new(),
            script_end: 0,
            slots: Vec::new(),
            free_head: u32::MAX,
            cancelled: 0,
            next_seq: 0,
            compact_floor: floor,
        }
    }

    /// The configured compaction floor.
    pub fn compact_floor(&self) -> usize {
        self.compact_floor
    }

    /// Live heap bytes of the heap storage, the script and the slot table.
    pub fn mem_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Entry<E>>()
            + self.script.capacity() * std::mem::size_of::<(SimTime, E)>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    fn alloc_slot(&mut self) -> u32 {
        if self.free_head != u32::MAX {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            match s.state {
                SlotState::Free(next) => self.free_head = next,
                _ => unreachable!("free list points at a live slot"),
            }
            s.state = SlotState::Pending;
            slot
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                state: SlotState::Pending,
            });
            slot
        }
    }

    /// Recycles `slot` once its heap entry is physically gone. The
    /// generation bump invalidates every outstanding token for it.
    fn free_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.state = SlotState::Free(self.free_head);
        self.free_head = slot;
    }

    /// Schedules `event` at absolute `time`; returns a cancellation token.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventToken {
        let slot = self.alloc_slot();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            seq,
            slot,
            event,
        });
        EventToken::new(slot, self.slots[slot as usize].gen)
    }

    /// Schedules a stream of events whose times do not decrease, popping
    /// exactly as if each had been passed to [`EventQueue::schedule`] in
    /// turn at this call: the call reserves the sequence numbers those
    /// calls would have taken. The events are kept in one exactly sized
    /// `Vec` beside the heap (for a stream of known length) and take no
    /// slab slot. They cannot be cancelled: no token is returned, and
    /// the token a popped scripted event carries cancels nothing.
    ///
    /// # Panics
    ///
    /// Panics if a time is earlier than the one before it (checked once
    /// per call, over the whole stream), or if an earlier stream still
    /// has events pending.
    pub fn schedule_sorted(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        assert!(
            self.script.is_empty(),
            "schedule_sorted: the previous stream is still pending"
        );
        let mut script: Vec<(SimTime, E)> = events.into_iter().collect();
        assert!(
            script.windows(2).all(|w| w[0].0 <= w[1].0),
            "schedule_sorted: event times decrease"
        );
        script.reverse();
        self.next_seq += script.len() as u64;
        self.script_end = self.next_seq;
        self.script = script;
    }

    /// Whether the script's head comes before the heap's top entry, live
    /// or tombstoned. Sequence numbers are unique, so the `(time, seq)`
    /// keys never tie.
    fn script_leads(&self) -> bool {
        let Some(&(time, _)) = self.script.last() else {
            return false;
        };
        let seq = self.script_end - self.script.len() as u64;
        self.heap
            .peek()
            .map_or(true, |head| (time, seq) < (head.time, head.seq))
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending (not yet popped or cancelled). O(1); may trigger
    /// an amortized-O(1) tombstone compaction.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let slot = token.slot() as usize;
        match self.slots.get(slot) {
            Some(s) if s.gen == token.generation() && s.state == SlotState::Pending => {
                self.slots[slot].state = SlotState::Cancelled;
                self.cancelled += 1;
                if self.cancelled > self.compact_floor && self.cancelled * 2 > self.heap.len() {
                    self.compact();
                }
                true
            }
            _ => false,
        }
    }

    /// Rebuilds the heap from its live entries, recycling every tombstone.
    /// O(n); triggered when tombstones outnumber live entries.
    fn compact(&mut self) {
        let entries = std::mem::take(&mut self.heap).into_vec();
        let mut live = Vec::with_capacity(entries.len() - self.cancelled);
        for e in entries {
            match self.slots[e.slot as usize].state {
                SlotState::Pending => live.push(e),
                SlotState::Cancelled => {
                    self.cancelled -= 1;
                    self.free_slot(e.slot);
                }
                SlotState::Free(_) => unreachable!("heap entry with freed slot"),
            }
        }
        debug_assert_eq!(self.cancelled, 0);
        self.heap = BinaryHeap::from(live);
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        loop {
            // Checked again after each tombstone: the script head may lead
            // the next heap entry where it trailed the tombstone.
            if self.script_leads() {
                let (time, event) = self.script.pop().expect("the script leads");
                return Some(Scheduled {
                    time,
                    token: EventToken::SCRIPTED,
                    event,
                });
            }
            let entry = self.heap.pop()?;
            let slot = entry.slot;
            let state = self.slots[slot as usize].state;
            let generation = self.slots[slot as usize].gen;
            self.free_slot(slot);
            match state {
                SlotState::Cancelled => self.cancelled -= 1,
                SlotState::Pending => {
                    return Some(Scheduled {
                        time: entry.time,
                        token: EventToken::new(slot, generation),
                        event: entry.event,
                    });
                }
                SlotState::Free(_) => unreachable!("heap entry with freed slot"),
            }
        }
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_event().map(|(time, _)| time)
    }

    /// The earliest pending event, without popping it: `(time, &event)`.
    /// The basis of window-popping dispatchers (pop consecutive events
    /// sharing the head timestamp, but only after inspecting each head to
    /// decide it is safe to take into the window).
    pub fn peek_event(&mut self) -> Option<(SimTime, &E)> {
        self.skim_head();
        if self.script_leads() {
            return self.script.last().map(|(time, event)| (*time, event));
        }
        self.heap.peek().map(|e| (e.time, &e.event))
    }

    /// Physically removes tombstones sitting at the heap head; afterwards
    /// the head (if any) is a live entry.
    fn skim_head(&mut self) {
        while let Some(head) = self.heap.peek() {
            match self.slots[head.slot as usize].state {
                SlotState::Pending => return,
                SlotState::Cancelled => {
                    let e = self.heap.pop().expect("peeked above");
                    self.cancelled -= 1;
                    self.free_slot(e.slot);
                }
                SlotState::Free(_) => unreachable!("heap entry with freed slot"),
            }
        }
    }

    /// Number of pending (non-cancelled) events, scripted ones included.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled + self.script.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical heap entries, live *and* tombstoned; pending scripted
    /// events are not in the heap and not counted. The compaction
    /// contract keeps this within a constant factor of [`EventQueue::len`]
    /// (plus the compaction floor) no matter how many cancellations have
    /// occurred — the bound the timer-churn regression test asserts.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Slab slots ever allocated (free *and* in use). Compaction recycles
    /// the slots of every tombstone it removes, so this stays proportional
    /// to the peak *physical* heap size — the slab-reuse contract the
    /// compaction unit test asserts.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
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

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.pop().unwrap().event, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_token_is_false() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventToken::new(42, 0)));
    }

    #[test]
    fn cancel_after_pop_is_harmless() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert!(!q.cancel(a), "cancelling a popped event reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().event, 2);
    }

    #[test]
    fn stale_token_cannot_cancel_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 1);
        assert_eq!(q.pop().unwrap().event, 1);
        // The new event reuses slot 0; the stale token must not touch it.
        let b = q.schedule(SimTime::from_secs(2), 2);
        assert!(!q.cancel(a), "stale token must not cancel a reused slot");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(5), 2);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn compaction_preserves_fifo_and_time_order() {
        // Interleave live and cancelled events so several compactions run,
        // then verify pop order is exactly what an uncancelled queue with
        // the same live set would produce.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for round in 0..50u64 {
            for i in 0..20u64 {
                let t = SimTime::from_millis(1000 - round * 10);
                let id = round * 100 + i;
                let tok = q.schedule(t, id);
                if i % 3 == 0 {
                    expected.push((t, id));
                } else {
                    q.cancel(tok);
                }
            }
        }
        // Live events at equal times pop in schedule order.
        expected.sort_by_key(|&(t, id)| (t, id));
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push((e.time, e.event));
        }
        assert_eq!(got, expected);
    }

    /// Satellite regression (issue 4): a sim-realistic timer-churn loop —
    /// schedule a timeout well in the future, cancel it shortly after,
    /// re-arm, repeat (the MAC's ACK/CTS pattern under heavy traffic) —
    /// must not grow the heap with the cancellation count. Under the old
    /// lazy-only cancellation every cancelled entry sat in the heap until
    /// its distant fire time passed, so this loop grew the heap linearly
    /// (~100k tombstones below); with compaction the physical heap stays
    /// within a small constant factor of the live event count.
    #[test]
    fn timer_churn_keeps_heap_bounded() {
        let mut q = EventQueue::new();
        let timeout = SimDuration::from_secs(10); // re-armed far ahead
        let step = SimDuration::from_micros(300); // cancelled quickly
        let mut now = SimTime::ZERO;
        let mut max_heap = 0usize;
        // 100 concurrent logical timers (nodes), each re-armed 1000 times.
        let mut tokens: Vec<EventToken> = (0..100).map(|i| q.schedule(now + timeout, i)).collect();
        for _ in 0..1000 {
            now += step;
            for (i, tok) in tokens.iter_mut().enumerate() {
                assert!(q.cancel(*tok), "timer was still pending");
                *tok = q.schedule(now + timeout, i);
            }
            max_heap = max_heap.max(q.heap_len());
        }
        assert_eq!(q.len(), 100, "exactly the live timers remain");
        assert!(
            max_heap <= 4 * 100 + 2 * DEFAULT_COMPACT_FLOOR,
            "heap grew with cancellations: peak {max_heap} physical \
             entries for 100 live timers (100k cancellations)"
        );
        // Drain: every live timer pops exactly once, in FIFO order.
        let mut seen = Vec::new();
        while let Some(e) = q.pop() {
            seen.push(e.event);
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    /// Satellite (issue 5): the compaction threshold is a constructor
    /// parameter. A queue with a tiny floor compacts aggressively; one
    /// with `usize::MAX` never compacts (the pre-compaction lazy
    /// behavior); the default matches [`DEFAULT_COMPACT_FLOOR`].
    #[test]
    fn compact_floor_is_configurable() {
        assert_eq!(
            EventQueue::<u32>::new().compact_floor(),
            DEFAULT_COMPACT_FLOOR
        );
        let mut eager = EventQueue::with_compact_floor(0);
        let mut never = EventQueue::with_compact_floor(usize::MAX);
        let far = SimTime::from_secs(100);
        for q in [&mut eager, &mut never] {
            let toks: Vec<_> = (0..100).map(|i| q.schedule(far, i)).collect();
            for t in &toks[..99] {
                q.cancel(*t);
            }
        }
        assert!(
            eager.heap_len() <= 2,
            "floor 0 must compact tombstones away, heap_len {}",
            eager.heap_len()
        );
        assert_eq!(never.heap_len(), 100, "floor usize::MAX must never compact");
        // Both still pop exactly the one live event.
        assert_eq!(eager.pop().unwrap().event, 99);
        assert_eq!(never.pop().unwrap().event, 99);
    }

    /// Satellite (issue 5): compaction recycles the slab slot of every
    /// tombstone it removes — later schedules must *reuse* those slots
    /// instead of growing the slab, so slab memory tracks the live event
    /// count, not the cancellation count.
    #[test]
    fn compaction_recycles_slab_slots() {
        let mut q = EventQueue::with_compact_floor(0);
        let far = SimTime::from_secs(100);
        // 1000 schedule/cancel rounds over a single live event: without
        // slot recycling the slab would hold ~1000 slots afterwards.
        let mut tok = q.schedule(far, 0u32);
        for i in 1..1000 {
            assert!(q.cancel(tok));
            tok = q.schedule(far, i);
        }
        assert_eq!(q.len(), 1);
        let peak = q.slot_count();
        assert!(
            peak <= 4,
            "cancelled slots were not recycled: {peak} slab slots \
             for 1 live event after 999 cancellations"
        );
        // A burst of fresh events first drains the free list before
        // growing the slab: slot growth ≤ the net new live entries.
        for i in 0..50u32 {
            q.schedule(far, i);
        }
        assert!(
            q.slot_count() <= peak + 50,
            "slab grew past the live demand: {} slots",
            q.slot_count()
        );
    }

    #[test]
    fn peek_event_exposes_head_without_popping() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(1), "b");
        assert_eq!(q.peek_event(), Some((SimTime::from_secs(1), &"a")));
        assert_eq!(q.len(), 2, "peek must not consume");
        // Cancelling the head makes peek skim to the next live entry.
        q.cancel(a);
        assert_eq!(q.peek_event(), Some((SimTime::from_secs(1), &"b")));
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.peek_event(), None);
    }

    /// Differential twin: a queue handed one `schedule_sorted` stream at
    /// a random point must pop, peek and count exactly like a twin that
    /// schedules the same events one by one at that point, under seeded
    /// random schedule/cancel/pop/peek sequences with many equal times
    /// and compactions. A token popped off the stream cancels nothing.
    #[test]
    fn scripted_stream_matches_one_by_one_twin() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const OPS: usize = 300;
        for seed in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let floor = rng.gen_range(0..4usize);
            let mut q = EventQueue::with_compact_floor(floor);
            let mut twin = EventQueue::with_compact_floor(floor);
            // (token in `q`, token in `twin`) of every run-time schedule.
            let mut tokens: Vec<(EventToken, EventToken)> = Vec::new();
            let mut scripted: Option<EventToken> = None;
            let mut now = 0u64;
            let mut id = 0u32;
            let script_at = rng.gen_range(0..OPS);
            for op in 0..OPS {
                if op == script_at {
                    let mut t = now + rng.gen_range(0..3u64);
                    let stream: Vec<(SimTime, u32)> = (0..rng.gen_range(0..40u32))
                        .map(|_| {
                            t += rng.gen_range(0..2u64);
                            id += 1;
                            (SimTime::from_millis(t), id)
                        })
                        .collect();
                    q.schedule_sorted(stream.iter().copied());
                    for &(t, e) in &stream {
                        twin.schedule(t, e);
                    }
                }
                match rng.gen_range(0..6u32) {
                    0 | 1 => {
                        id += 1;
                        let t = SimTime::from_millis(now + rng.gen_range(0..4u64));
                        tokens.push((q.schedule(t, id), twin.schedule(t, id)));
                    }
                    2 if !tokens.is_empty() => {
                        let (a, b) = tokens[rng.gen_range(0..tokens.len())];
                        assert_eq!(q.cancel(a), twin.cancel(b), "seed {seed} op {op}");
                    }
                    2 => {}
                    3 => {
                        let (got, want) = (q.pop(), twin.pop());
                        assert_eq!(
                            got.as_ref().map(|e| (e.time, e.event)),
                            want.as_ref().map(|e| (e.time, e.event)),
                            "seed {seed} op {op}"
                        );
                        if let Some(e) = got {
                            now = e.time.as_nanos() / 1_000_000;
                            if e.token == EventToken::SCRIPTED {
                                scripted = Some(e.token);
                            }
                        }
                    }
                    4 => assert_eq!(q.peek_time(), twin.peek_time(), "seed {seed} op {op}"),
                    _ => assert_eq!(q.peek_event(), twin.peek_event(), "seed {seed} op {op}"),
                }
                if let Some(tok) = scripted {
                    assert!(!q.cancel(tok), "a scripted token cancelled something");
                }
                assert_eq!(q.len(), twin.len(), "seed {seed} op {op}");
            }
            loop {
                let (got, want) = (q.pop(), twin.pop());
                assert_eq!(
                    got.as_ref().map(|e| (e.time, e.event)),
                    want.map(|e| (e.time, e.event)),
                    "seed {seed} drain"
                );
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "event times decrease")]
    fn schedule_sorted_rejects_unsorted_input() {
        let mut q = EventQueue::new();
        q.schedule_sorted([(SimTime::from_secs(2), 0), (SimTime::from_secs(1), 1)]);
    }

    #[test]
    fn heap_len_reports_tombstones_below_compaction_floor() {
        let mut q = EventQueue::new();
        let toks: Vec<_> = (0..10)
            .map(|i| q.schedule(SimTime::from_secs(9), i))
            .collect();
        for t in &toks[..5] {
            q.cancel(*t);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.heap_len(), 10, "below the floor tombstones persist");
    }
}
