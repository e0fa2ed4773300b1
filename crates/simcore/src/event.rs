//! Deterministic event queue.
//!
//! A discrete-event simulation is only as reproducible as its event
//! ordering. [`EventQueue`] orders events primarily by timestamp and
//! secondarily by an insertion sequence number, so two events scheduled
//! for the same cycle always pop in the order they were pushed —
//! regardless of heap internals or payload contents.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event extracted from the queue: when it fires and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The simulated time at which the event fires.
    pub time: SimTime,
    /// Monotonically increasing insertion sequence (unique per queue).
    pub seq: u64,
    /// The caller-defined payload.
    pub payload: E,
}

struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A timestamped priority queue with deterministic FIFO tie-breaking.
///
/// ```
/// use rda_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_cycles(20), "late");
/// q.push(SimTime::from_cycles(10), "early");
/// q.push(SimTime::from_cycles(10), "early-second");
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "early-second");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    /// Timestamp of the most recently popped event; used to enforce the
    /// no-time-travel invariant in debug builds.
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `payload` to fire at `time`. Returns the sequence number
    /// assigned to the event (useful for logical cancellation).
    ///
    /// Scheduling into the past (before the last popped event) is a
    /// simulation bug; it is rejected with a panic in debug builds.
    pub fn push(&mut self, time: SimTime, payload: E) -> u64 {
        debug_assert!(
            time >= self.last_popped,
            "event scheduled into the past: {time} < {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, payload });
        seq
    }

    /// Remove and return the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let entry = self.heap.pop()?;
        self.last_popped = entry.time;
        Some(ScheduledEvent {
            time: entry.time,
            seq: entry.seq,
            payload: entry.payload,
        })
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events, keeping allocation and sequence counter.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(30), 3);
        q.push(SimTime::from_cycles(10), 1);
        q.push(SimTime::from_cycles(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_cycles(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(42), ());
        q.push(SimTime::from_cycles(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_cycles(7)));
        assert_eq!(q.pop().unwrap().time, SimTime::from_cycles(7));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    #[cfg(debug_assertions)]
    fn rejects_time_travel() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(100), ());
        q.pop();
        q.push(SimTime::from_cycles(50), ());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_cycles(10), "a");
        q.push(SimTime::from_cycles(30), "c");
        assert_eq!(q.pop().unwrap().payload, "a");
        q.push(SimTime::from_cycles(20), "b");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
    }
}
