//! Task control blocks.
//!
//! A **task** is the schedulable unit (a thread); a **process** groups
//! tasks that share an address space — and therefore share progress
//! periods, since the paper's working-set demands are properties of a
//! process's data.

use std::fmt;

/// Identifier of a schedulable task (thread). Dense indices into the
/// scheduler's task table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

/// Identifier of a process (a group of tasks sharing working sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Scheduling state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// On a runqueue, waiting for a core.
    Runnable,
    /// Currently executing on the given core.
    Running(usize),
    /// Off the runqueues: not yet woken, or paused by the RDA
    /// waitlist.
    Blocked,
    /// Completed; never schedulable again.
    Finished,
}

impl TaskState {
    /// True for `Runnable` or `Running`.
    pub fn is_active(&self) -> bool {
        matches!(self, TaskState::Runnable | TaskState::Running(_))
    }
}

/// Scheduler-side bookkeeping for one task.
#[derive(Debug, Clone)]
pub struct Task {
    /// This task's id.
    pub id: TaskId,
    /// Owning process.
    pub process: ProcessId,
    /// Current scheduling state.
    pub state: TaskState,
    /// CFS virtual runtime: executed cycles, clamped up to the queue
    /// floor whenever the task is (re)queued.
    pub vruntime: u64,
    /// The core this task last ran on (wake-affinity hint).
    pub last_core: Option<usize>,
    /// Total cycles of CPU this task has actually executed.
    pub cpu_cycles: u64,
}

impl Task {
    /// A fresh task, blocked until its first wake.
    pub fn new(id: TaskId, process: ProcessId) -> Self {
        Task {
            id,
            process,
            state: TaskState::Blocked,
            vruntime: 0,
            last_core: None,
            cpu_cycles: 0,
        }
    }

    /// Account `cycles` of real execution. Every simulated task runs
    /// at the same (Linux NICE_0) weight, so its virtual runtime
    /// advances by exactly the executed cycles.
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.cpu_cycles += cycles;
        self.vruntime += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(TaskId(3).to_string(), "T3");
        assert_eq!(ProcessId(9).to_string(), "P9");
    }

    #[test]
    fn state_activity() {
        assert!(TaskState::Runnable.is_active());
        assert!(TaskState::Running(0).is_active());
        assert!(!TaskState::Blocked.is_active());
        assert!(!TaskState::Finished.is_active());
    }

    #[test]
    fn default_weight_charges_one_to_one() {
        let mut t = Task::new(TaskId(0), ProcessId(0));
        t.charge(1000);
        assert_eq!(t.vruntime, 1000);
        assert_eq!(t.cpu_cycles, 1000);
    }
}
