//! The future event list: a binary heap ordered by `(time, insertion
//! order)`.
//!
//! Earliest timestamp first; equal timestamps dequeue in scheduling order.
//! Schedule and pop are O(log n). DESIGN.md §11.1 records why this heap,
//! and not a timing wheel, is the one engine.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event: ordered by time, then by insertion sequence so that
/// simultaneous events dequeue in a stable, deterministic order.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future event list for discrete-event simulation.
///
/// Events scheduled for the same instant are delivered in scheduling order.
/// The queue never reorders equal-time events, so a simulation driven from a
/// single seeded RNG replays identically.
///
/// # Example
///
/// ```
/// use sim_core::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(10), "late");
/// q.schedule(SimTime::from_millis(10), "later"); // same instant: FIFO
/// q.schedule(SimTime::from_millis(1), "early");
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["early", "late", "later"]);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated instant: the timestamp of the last popped event
    /// (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](Self::now); the simulator never
    /// travels backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Scheduled { at, event, .. } = self.heap.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, event))
    }

    /// Removes and returns the earliest pending event only if it is due at
    /// or before `t`, advancing the clock to its timestamp — the event-loop
    /// form of `peek_time() <= t` followed by [`pop`](Self::pop)
    /// (`while let Some((now, ev)) = q.pop_before(t)`).
    pub fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.at > t {
            return None;
        }
        self.pop()
    }

    /// The timestamp of the next pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), 5u32);
        q.schedule(SimTime::from_millis(1), 1u32);
        q.schedule(SimTime::from_millis(3), 3u32);
        let out: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(out, [1, 3, 5]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(SimTime::from_millis(7), i);
        }
        let out: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(2), 0);
        q.schedule(SimTime::from_millis(9), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(2));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(9));
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime::from_millis(9));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(5), ());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_millis(4), 0);
        q.schedule(SimTime::from_millis(2), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(2));
    }

    #[test]
    fn pop_before_only_releases_due_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(4), 40u32);
        q.schedule(SimTime::from_millis(2), 20u32);
        assert_eq!(q.pop_before(SimTime::from_millis(1)), None);
        assert_eq!(
            q.pop_before(SimTime::from_millis(2)),
            Some((SimTime::from_millis(2), 20))
        );
        // The undrained event is untouched and pops normally later.
        assert_eq!(q.pop_before(SimTime::from_millis(3)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_millis(4), 40)));
        assert_eq!(q.pop_before(SimTime::from_millis(100)), None);
    }

    /// Scheduling while popping: an event scheduled after a pop, just
    /// ahead of `now` and before everything pending, dequeues next.
    #[test]
    fn late_arrivals_stay_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), 1u32);
        q.schedule(SimTime::from_nanos(90_000), 4u32);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(SimTime::from_nanos(150), 2u32);
        q.schedule(SimTime::from_nanos(80_000), 3u32);
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, [2, 3, 4]);
    }

    /// Events days ahead pop in order, interleaved with near events
    /// scheduled later.
    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        let day = 86_400u64 * 1_000_000_000;
        q.schedule(SimTime::from_nanos(3 * day), 30u32);
        q.schedule(SimTime::from_nanos(day), 10u32);
        q.schedule(SimTime::from_nanos(5), 1u32);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(SimTime::from_nanos(day + 7), 11u32);
        q.schedule(SimTime::from_nanos(2 * day), 20u32);
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, [10, 11, 20, 30]);
    }

    /// Checks one pop against the clock and the `(time, insertion index)`
    /// order of every pop before it, then records it as the latest.
    fn check_pop(last: &mut Option<(SimTime, u64)>, popped: (SimTime, u64), now: SimTime) {
        assert_eq!(now, popped.0, "the clock is the last popped time");
        if let Some(prev) = *last {
            assert!(popped > prev, "{popped:?} popped after {prev:?}");
        }
        *last = Some(popped);
    }

    proptest! {
        /// Arbitrary interleavings of schedules (clustered, duplicate and
        /// far-future timestamps), pops and bounded pops. Every event
        /// carries its insertion index and none is scheduled before
        /// `now`, so `(time, FIFO)` order holds exactly when the popped
        /// `(time, index)` pairs strictly increase over the whole run and
        /// every event comes out. `pop_before(t)` releases an event if and
        /// only if `peek_time() <= t`.
        #[test]
        fn prop_pop_order(
            ops in proptest::collection::vec(
                (0u8..5, 0u64..200, 0u64..1_000_000_000),
                1..400,
            )
        ) {
            let mut q = EventQueue::new();
            let mut next_id = 0u64;
            let mut popped = 0u64;
            let mut last = None;
            for (op, coarse, fine) in ops {
                let base = q.now().as_nanos();
                let got = match op {
                    0..=2 => {
                        let at = match op {
                            // Spread-out times; coarse == 0 schedules at `now`.
                            0 => base + coarse * 997,
                            // Dense cluster with frequent exact duplicates.
                            1 => base + fine % 1024,
                            // Far future.
                            _ => base + (1 << 46) + fine % (1 << 20),
                        };
                        q.schedule(SimTime::from_nanos(at), next_id);
                        next_id += 1;
                        None
                    }
                    3 => {
                        let peeked = q.peek_time();
                        let got = q.pop();
                        prop_assert_eq!(got.map(|(t, _)| t), peeked);
                        got
                    }
                    _ => {
                        let bound = SimTime::from_nanos(base + fine % 4096);
                        let due = q.peek_time().is_some_and(|t| t <= bound);
                        let got = q.pop_before(bound);
                        prop_assert_eq!(got.is_some(), due, "pop_before({})", bound);
                        got
                    }
                };
                if let Some(p) = got {
                    check_pop(&mut last, p, q.now());
                    popped += 1;
                }
                prop_assert_eq!(q.len() as u64, next_id - popped);
            }
            while let Some(p) = q.pop() {
                check_pop(&mut last, p, q.now());
                popped += 1;
            }
            prop_assert_eq!(popped, next_id, "every scheduled event pops");
        }

        /// len() counts scheduled-minus-popped events.
        #[test]
        fn prop_len(n in 0usize..64) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime::from_nanos(i as u64), ());
            }
            prop_assert_eq!(q.len(), n);
            let mut remaining = n;
            while q.pop().is_some() {
                remaining -= 1;
                prop_assert_eq!(q.len(), remaining);
            }
            prop_assert!(q.is_empty());
        }
    }
}
