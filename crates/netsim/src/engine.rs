//! The simulation executor: a virtual clock driving an [`EventQueue`].
//!
//! The executor is deliberately minimal — it owns *when*, the caller owns
//! *what*. The harness crate holds all node state and interprets events in
//! a plain `while let` loop, which keeps every layer borrow-checker-friendly
//! and unit-testable without callbacks.

use crate::queue::{EventQueue, EventToken, Scheduled};
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulator for events of type `E`.
///
/// # Examples
///
/// ```
/// use slr_netsim::{SimDuration, SimTime, Simulator};
///
/// let mut sim: Simulator<&str> = Simulator::new();
/// sim.schedule_in(SimDuration::from_secs(1), "tick");
/// sim.schedule_in(SimDuration::from_secs(2), "tock");
/// let mut seen = Vec::new();
/// while let Some(ev) = sim.next_before(SimTime::from_secs(10)) {
///     seen.push(ev.event);
/// }
/// assert_eq!(seen, ["tick", "tock"]);
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// ```
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Simulator<E> {
    /// Creates a simulator at time zero with an empty queue.
    pub fn new() -> Self {
        Simulator {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Like [`Simulator::new`], with the queue's tombstone-compaction
    /// floor set to `floor` (see [`EventQueue::with_compact_floor`]).
    pub fn with_compact_floor(floor: usize) -> Self {
        Simulator {
            queue: EventQueue::with_compact_floor(floor),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Live heap bytes of the event queue (see [`EventQueue::mem_bytes`]).
    pub fn queue_mem_bytes(&self) -> usize {
        self.queue.mem_bytes()
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current virtual time —
    /// scheduling into the past is always a harness bug.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventToken {
        assert!(
            time >= self.now,
            "scheduling into the past: {time} < {}",
            self.now
        );
        self.queue.schedule(time, event)
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventToken {
        self.queue.schedule(self.now + delay, event)
    }

    /// Schedules a stream of events whose times do not decrease, exactly
    /// as if each were passed to [`Simulator::schedule_at`] in turn, but
    /// kept beside the heap and not cancellable (see
    /// [`EventQueue::schedule_sorted`]).
    ///
    /// # Panics
    ///
    /// Panics if a time decreases along the stream, or if the stream
    /// starts before the current virtual time.
    pub fn schedule_sorted(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        self.queue.schedule_sorted(events);
        // Every heap event is at or after `now`, so an earlier head can
        // only be the stream's first event.
        let head = self.queue.peek_time();
        assert!(
            head.map_or(true, |t| t >= self.now),
            "scheduling into the past: {head:?} < {}",
            self.now
        );
    }

    /// Cancels a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        self.queue.cancel(token)
    }

    /// Pops the next event, advancing the clock to its firing time.
    ///
    /// Deliberately named like `Iterator::next`; the simulator is not an
    /// iterator because popping mutates the virtual clock.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Scheduled<E>> {
        let ev = self.queue.pop()?;
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        self.now = ev.time;
        self.processed += 1;
        Some(ev)
    }

    /// Pops the next event if it fires strictly before `horizon`; otherwise
    /// leaves the queue untouched and returns `None`. The clock never
    /// advances past the last processed event.
    pub fn next_before(&mut self, horizon: SimTime) -> Option<Scheduled<E>> {
        match self.queue.peek_time() {
            Some(t) if t < horizon => self.next(),
            _ => None,
        }
    }

    /// The head event without popping it: `(time, &event)` of the next
    /// thing [`Simulator::next`] would return. Window-popping dispatchers
    /// peek to decide whether the head extends the current same-timestamp
    /// window before committing to the pop.
    pub fn peek_event(&mut self) -> Option<(SimTime, &E)> {
        self.queue.peek_event()
    }
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), 5);
        sim.schedule_at(SimTime::from_secs(3), 3);
        let e = sim.next().unwrap();
        assert_eq!(e.event, 3);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.next().unwrap().event, 5);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert!(sim.next().is_none());
        assert_eq!(sim.processed(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn cannot_schedule_into_past() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(2), 1);
        sim.next();
        sim.schedule_at(SimTime::from_secs(1), 2);
    }

    #[test]
    fn horizon_stops_processing() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(10), 2);
        assert!(sim.next_before(SimTime::from_secs(5)).is_some());
        assert!(sim.next_before(SimTime::from_secs(5)).is_none());
        assert_eq!(sim.pending(), 1);
        // Horizon is exclusive.
        assert!(sim.next_before(SimTime::from_secs(10)).is_none());
        assert!(sim.next_before(SimTime::from_millis(10_001)).is_some());
    }

    #[test]
    fn cancellation_through_simulator() {
        let mut sim: Simulator<u32> = Simulator::new();
        let t = sim.schedule_in(SimDuration::from_secs(1), 1);
        sim.schedule_in(SimDuration::from_secs(2), 2);
        assert!(sim.cancel(t));
        assert_eq!(sim.next().unwrap().event, 2);
    }

    #[test]
    fn scripted_events_count_as_processed_and_respect_the_horizon() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), 0);
        sim.schedule_sorted([(SimTime::from_secs(1), 1), (SimTime::from_secs(2), 2)]);
        assert_eq!(sim.pending(), 3);
        let horizon = SimTime::from_secs(2);
        assert_eq!(sim.next_before(horizon).map(|e| e.event), Some(0));
        assert_eq!(sim.next_before(horizon).map(|e| e.event), Some(1));
        assert!(sim.next_before(horizon).is_none(), "horizon is exclusive");
        assert_eq!((sim.pending(), sim.processed()), (1, 2));
        let last = sim.next().unwrap();
        assert_eq!((last.event, sim.now(), sim.processed()), (2, horizon, 3));
        assert!(!sim.cancel(last.token), "a scripted token cancels nothing");
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn cannot_script_into_past() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(2), 1);
        sim.next();
        sim.schedule_sorted([(SimTime::from_secs(1), 2)]);
    }

    #[test]
    fn events_scheduled_during_processing_fire_in_order() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), 1);
        let mut order = Vec::new();
        while let Some(e) = sim.next() {
            order.push(e.event);
            if e.event == 1 {
                sim.schedule_in(SimDuration::from_millis(1), 3);
                sim.schedule_in(SimDuration::ZERO, 2);
            }
        }
        assert_eq!(order, vec![1, 2, 3]);
    }
}
