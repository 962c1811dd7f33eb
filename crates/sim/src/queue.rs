//! A deterministic future-event queue.
//!
//! The world loop schedules future work — delayed job starts, monitor polls,
//! the kill-escalation timeout — as events with a due time, and pops
//! everything that has become due each tick. Ties are broken by insertion
//! order so runs are reproducible regardless of the heap's internal layout.

use crate::clock::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
struct Entry<E> {
    due: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
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
        // Reverse ordering: BinaryHeap is a max-heap, we want the earliest
        // due time (then the lowest sequence number) popped first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-ordered queue of future events with stable FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use m3_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(5), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop_due(SimTime::from_secs(2)), vec!["sooner"]);
/// assert_eq!(q.pop_due(SimTime::from_secs(10)), vec!["later"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to become due at `due`.
    pub fn schedule(&mut self, due: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { due, seq, event });
    }

    /// The due time of the earliest pending event, if any.
    pub fn next_due(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.due)
    }

    /// Pops every event with `due <= now`, in due order (FIFO within a tie).
    pub fn pop_due(&mut self, now: SimTime) -> Vec<E> {
        let mut out = Vec::new();
        while matches!(self.heap.peek(), Some(e) if e.due <= now) {
            out.push(self.heap.pop().expect("peeked entry must pop").event);
        }
        out
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_due_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        assert_eq!(q.pop_due(SimTime::from_secs(10)), vec!['a', 'b', 'c']);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        assert_eq!(q.pop_due(t), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn only_due_events_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "early");
        q.schedule(SimTime::from_secs(5), "late");
        assert_eq!(q.pop_due(SimTime::from_secs(1)), vec!["early"]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_due(), Some(SimTime::from_secs(5)));
        assert!(q.pop_due(SimTime::from_secs(4)).is_empty());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_due(), None);
        assert!(q.pop_due(SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn interleaved_scheduling_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 1);
        assert_eq!(q.pop_due(SimTime::from_secs(2)), vec![1]);
        q.schedule(SimTime::from_secs(1), 2); // in the past relative to pops
        q.schedule(SimTime::from_secs(3), 3);
        assert_eq!(q.pop_due(SimTime::from_secs(3)), vec![2, 3]);
    }
}
