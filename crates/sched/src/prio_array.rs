//! O(1) priority arrays, the core data structure of the Linux 2.6
//! scheduler.
//!
//! An array holds one FIFO queue per priority level plus a bitmap of
//! non-empty levels, so that enqueue, dequeue, and find-highest are all
//! constant time (the bitmap fits in one `u64` for our 40 levels).

use crate::task::TaskId;
use std::collections::VecDeque;

/// Number of priority levels (nice −20..19).
pub const N_PRIOS: usize = 40;

/// Ascending positions of the set bits of a word (descending from the
/// back); the occupancy walk behind the array iterators.
struct BitIndices(u64);

impl Iterator for BitIndices {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let p = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(p)
    }
}

impl DoubleEndedIterator for BitIndices {
    fn next_back(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let p = 63 - self.0.leading_zeros() as usize;
        self.0 &= !(1 << p);
        Some(p)
    }
}

/// An O(1) priority array.
#[derive(Clone, Debug, Default)]
pub struct PrioArray {
    queues: Vec<VecDeque<TaskId>>,
    bitmap: u64,
    len: usize,
}

impl PrioArray {
    /// Creates an empty array.
    pub fn new() -> Self {
        PrioArray {
            queues: (0..N_PRIOS).map(|_| VecDeque::new()).collect(),
            bitmap: 0,
            len: 0,
        }
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no task is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a task at priority `prio`.
    ///
    /// # Panics
    ///
    /// Panics if `prio` is out of range.
    pub fn enqueue(&mut self, prio: usize, task: TaskId) {
        assert!(prio < N_PRIOS, "priority {prio} out of range");
        self.queues[prio].push_back(task);
        self.bitmap |= 1 << prio;
        self.len += 1;
    }

    /// Removes a specific task from priority `prio`; returns whether it
    /// was present.
    ///
    /// # Panics
    ///
    /// Panics if `prio` is out of range.
    pub fn remove(&mut self, prio: usize, task: TaskId) -> bool {
        assert!(prio < N_PRIOS, "priority {prio} out of range");
        let q = &mut self.queues[prio];
        if let Some(pos) = q.iter().position(|&t| t == task) {
            q.remove(pos);
            if q.is_empty() {
                self.bitmap &= !(1 << prio);
            }
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// The highest-priority (lowest index) task, without removing it.
    pub fn peek(&self) -> Option<TaskId> {
        if self.bitmap == 0 {
            return None;
        }
        let prio = self.bitmap.trailing_zeros() as usize;
        self.queues[prio].front().copied()
    }

    /// Removes and returns the highest-priority task.
    pub fn pop(&mut self) -> Option<TaskId> {
        if self.bitmap == 0 {
            return None;
        }
        let prio = self.bitmap.trailing_zeros() as usize;
        let task = self.queues[prio].pop_front();
        if self.queues[prio].is_empty() {
            self.bitmap &= !(1 << prio);
        }
        if task.is_some() {
            self.len -= 1;
        }
        task
    }

    /// Iterates over all queued tasks, highest priority first, FIFO
    /// within a priority. Walks only the bitmap's occupied levels —
    /// the balancers scan every runqueue of a domain, so probing all
    /// 40 levels of (mostly empty) queues dominated large-machine
    /// balancing passes.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        BitIndices(self.bitmap).flat_map(move |p| self.queues[p].iter().copied())
    }

    /// Iterates in *reverse* queue order (lowest priority first, LIFO
    /// within a priority) — the order Linux scans when picking tasks to
    /// migrate away, preferring those that will not run soon anyway.
    pub fn iter_migration_order(&self) -> impl Iterator<Item = TaskId> + '_ {
        BitIndices(self.bitmap)
            .rev()
            .flat_map(move |p| self.queues[p].iter().rev().copied())
    }
}

impl ebs_store::Snapshot for PrioArray {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        // Queue contents only; the bitmap and length are derived and
        // recomputed exactly on restore.
        w.seq(&self.queues, |w, q| {
            w.usize(q.len());
            for id in q {
                w.u64(id.0);
            }
        });
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        // Each queue is length-prefixed like a `seq`, so reading it as
        // one bounds a corrupt length before anything is allocated.
        let queues = r.seq(|r| Ok(VecDeque::from(r.seq(|r| Ok(TaskId(r.u64()?)))?)))?;
        if queues.len() != N_PRIOS {
            return Err(ebs_store::StoreError::Invalid(format!(
                "priority array with {} queues, expected {N_PRIOS}",
                queues.len()
            )));
        }
        self.bitmap = 0;
        self.len = 0;
        for (prio, q) in queues.iter().enumerate() {
            if !q.is_empty() {
                self.bitmap |= 1 << prio;
            }
            self.len += q.len();
        }
        self.queues = queues;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let a = PrioArray::new();
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        assert_eq!(a.peek(), None);
    }

    #[test]
    fn pop_respects_priority_then_fifo() {
        let mut a = PrioArray::new();
        a.enqueue(20, TaskId(1));
        a.enqueue(20, TaskId(2));
        a.enqueue(5, TaskId(3));
        a.enqueue(39, TaskId(4));
        assert_eq!(a.len(), 4);
        assert_eq!(a.pop(), Some(TaskId(3))); // Highest priority first.
        assert_eq!(a.pop(), Some(TaskId(1))); // FIFO within level 20.
        assert_eq!(a.pop(), Some(TaskId(2)));
        assert_eq!(a.pop(), Some(TaskId(4)));
        assert_eq!(a.pop(), None);
        assert!(a.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut a = PrioArray::new();
        a.enqueue(10, TaskId(7));
        assert_eq!(a.peek(), Some(TaskId(7)));
        assert_eq!(a.len(), 1);
        assert_eq!(a.pop(), Some(TaskId(7)));
    }

    #[test]
    fn remove_specific_task() {
        let mut a = PrioArray::new();
        a.enqueue(20, TaskId(1));
        a.enqueue(20, TaskId(2));
        assert!(a.remove(20, TaskId(1)));
        assert!(!a.remove(20, TaskId(1)));
        assert_eq!(a.len(), 1);
        assert_eq!(a.pop(), Some(TaskId(2)));
        // Bitmap cleared once the level drains.
        assert_eq!(a.peek(), None);
    }

    #[test]
    fn iteration_orders() {
        let mut a = PrioArray::new();
        a.enqueue(20, TaskId(1));
        a.enqueue(20, TaskId(2));
        a.enqueue(5, TaskId(3));
        let fwd: Vec<_> = a.iter().collect();
        assert_eq!(fwd, vec![TaskId(3), TaskId(1), TaskId(2)]);
        let mig: Vec<_> = a.iter_migration_order().collect();
        assert_eq!(mig, vec![TaskId(2), TaskId(1), TaskId(3)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn enqueue_out_of_range_panics() {
        let mut a = PrioArray::new();
        a.enqueue(40, TaskId(1));
    }

    #[test]
    fn bitmap_tracks_multiple_levels() {
        let mut a = PrioArray::new();
        for prio in [0usize, 13, 39] {
            a.enqueue(prio, TaskId(prio as u64));
        }
        assert_eq!(a.pop(), Some(TaskId(0)));
        assert_eq!(a.pop(), Some(TaskId(13)));
        assert_eq!(a.pop(), Some(TaskId(39)));
    }

    /// A sealed image whose queue lengths are absurd (a corrupt or
    /// crafted file) restores to an error, without a capacity-overflow
    /// panic or an allocation abort.
    #[test]
    fn crafted_queue_lengths_are_rejected() {
        use ebs_store::Snapshot as _;
        for len in [1usize << 62, 1 << 40] {
            let mut w = ebs_store::StateWriter::new();
            w.usize(N_PRIOS);
            w.usize(len);
            let image = w.finish();
            let mut r = image.open().expect("sealed image opens");
            let mut a = PrioArray::new();
            assert!(matches!(
                a.restore(&mut r),
                Err(ebs_store::StoreError::Invalid(_))
            ));
        }
    }
}
