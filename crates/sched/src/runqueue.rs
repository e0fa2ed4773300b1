//! Per-core runqueue ordered by virtual runtime.
//!
//! Linux's CFS keeps runnable tasks in a red-black tree keyed by
//! vruntime and always runs the leftmost. A per-core queue holds a
//! handful of tasks, so a vector kept sorted *descending* by
//! `(vruntime, id)` gives the same ordering guarantees more cheaply:
//! the leftmost task is the last element, so the per-interval peek and
//! the pick are O(1), and an insert or removal shifts a few entries.

use crate::task::TaskId;

/// One core's queue of runnable tasks, ordered by `(vruntime, TaskId)`.
#[derive(Debug, Clone, Default)]
pub struct RunQueue {
    /// Queued `(vruntime, id)` pairs, sorted descending: the leftmost
    /// (smallest) entry is `last()`.
    entries: Vec<(u64, TaskId)>,
    /// Monotone floor for entry vruntimes; newly woken tasks are placed
    /// at `max(own vruntime, min_vruntime)` so sleepers cannot starve
    /// the queue when they return (CFS's `min_vruntime` rule).
    min_vruntime: u64,
}

impl RunQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued (runnable, not running) tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no task is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The queue's vruntime floor.
    #[inline]
    pub fn min_vruntime(&self) -> u64 {
        self.min_vruntime
    }

    /// Clamp a vruntime for enqueueing on this queue: a woken task may
    /// not undercut the queue floor.
    #[inline]
    pub fn place_vruntime(&self, vruntime: u64) -> u64 {
        vruntime.max(self.min_vruntime)
    }

    /// Index of the first entry not greater than `entry` (where
    /// `entry` sits, or would be inserted, in descending order).
    fn position(&self, entry: (u64, TaskId)) -> usize {
        self.entries.partition_point(|&e| e > entry)
    }

    /// Insert a task with the given (already placed) vruntime.
    pub fn enqueue(&mut self, id: TaskId, vruntime: u64) {
        let entry = (vruntime, id);
        let i = self.position(entry);
        debug_assert!(
            self.entries.get(i) != Some(&entry),
            "task {id} double-enqueued"
        );
        self.entries.insert(i, entry);
    }

    /// Remove and return the leftmost (smallest vruntime) task.
    #[inline]
    pub fn pop_leftmost(&mut self) -> Option<(u64, TaskId)> {
        let entry = self.entries.pop()?;
        self.min_vruntime = self.min_vruntime.max(entry.0);
        Some(entry)
    }

    /// Leftmost entry without removing it.
    #[inline]
    pub fn peek_leftmost(&self) -> Option<(u64, TaskId)> {
        self.entries.last().copied()
    }

    /// Remove and return the *rightmost* (largest vruntime) task — load
    /// balancing steals from the far end so the victim queue's
    /// near-term schedule is undisturbed.
    pub fn pop_rightmost(&mut self) -> Option<(u64, TaskId)> {
        if self.entries.is_empty() {
            return None;
        }
        Some(self.entries.remove(0))
    }

    /// Remove a specific task (by its queued vruntime). Returns true if
    /// it was present.
    pub fn remove(&mut self, id: TaskId, vruntime: u64) -> bool {
        let entry = (vruntime, id);
        let i = self.position(entry);
        if self.entries.get(i) != Some(&entry) {
            return false;
        }
        self.entries.remove(i);
        true
    }

    /// Advance the vruntime floor to at least `v` (called when the
    /// running task's vruntime moves past queued ones).
    #[inline]
    pub fn advance_min_vruntime(&mut self, v: u64) {
        self.min_vruntime = self.min_vruntime.max(v);
    }

    /// Iterate over queued `(vruntime, TaskId)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, TaskId)> + '_ {
        self.entries.iter().rev().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leftmost_is_smallest_vruntime() {
        let mut q = RunQueue::new();
        q.enqueue(TaskId(1), 300);
        q.enqueue(TaskId(2), 100);
        q.enqueue(TaskId(3), 200);
        assert_eq!(q.pop_leftmost(), Some((100, TaskId(2))));
        assert_eq!(q.pop_leftmost(), Some((200, TaskId(3))));
        assert_eq!(q.pop_leftmost(), Some((300, TaskId(1))));
        assert_eq!(q.pop_leftmost(), None);
    }

    #[test]
    fn equal_vruntime_breaks_ties_by_id() {
        let mut q = RunQueue::new();
        q.enqueue(TaskId(9), 100);
        q.enqueue(TaskId(2), 100);
        assert_eq!(q.pop_leftmost(), Some((100, TaskId(2))));
    }

    #[test]
    fn min_vruntime_advances_monotonically() {
        let mut q = RunQueue::new();
        q.enqueue(TaskId(1), 500);
        q.pop_leftmost();
        assert_eq!(q.min_vruntime(), 500);
        q.enqueue(TaskId(2), 100); // a long sleeper returns
        assert_eq!(q.place_vruntime(100), 500, "sleeper clamped to floor");
        q.pop_leftmost();
        assert_eq!(q.min_vruntime(), 500, "floor never regresses");
    }

    #[test]
    fn rightmost_steal_takes_largest() {
        let mut q = RunQueue::new();
        q.enqueue(TaskId(1), 100);
        q.enqueue(TaskId(2), 900);
        assert_eq!(q.pop_rightmost(), Some((900, TaskId(2))));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn remove_specific_task() {
        let mut q = RunQueue::new();
        q.enqueue(TaskId(1), 100);
        q.enqueue(TaskId(2), 200);
        assert!(q.remove(TaskId(1), 100));
        assert!(!q.remove(TaskId(1), 100));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = RunQueue::new();
        q.enqueue(TaskId(1), 10);
        assert_eq!(q.peek_leftmost(), Some((10, TaskId(1))));
        assert_eq!(q.len(), 1);
    }
}
