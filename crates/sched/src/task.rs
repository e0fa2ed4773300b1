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
    /// Off the runqueues (sleeping on a wait queue, or paused by the
    /// RDA waitlist).
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
    /// CFS virtual runtime, in weight-normalised cycles.
    pub vruntime: u64,
    /// CFS load weight (NICE_0 = 1024, as in Linux).
    pub weight: u32,
    /// The core this task last ran on (wake-affinity hint).
    pub last_core: Option<usize>,
    /// Total cycles of CPU this task has actually executed.
    pub cpu_cycles: u64,
}

/// The Linux NICE_0 load weight.
pub const NICE0_WEIGHT: u32 = 1024;

impl Task {
    /// A fresh runnable-when-woken task with default weight.
    pub fn new(id: TaskId, process: ProcessId) -> Self {
        Task {
            id,
            process,
            state: TaskState::Blocked,
            vruntime: 0,
            weight: NICE0_WEIGHT,
            last_core: None,
            cpu_cycles: 0,
        }
    }

    /// Advance virtual runtime for `cycles` of real execution, scaled
    /// by this task's weight exactly as CFS does:
    /// `delta_vruntime = cycles × NICE0 / weight`. At the default
    /// weight the quotient is `cycles` itself, so the 64-bit division,
    /// paid once per running thread per interval, is skipped.
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.cpu_cycles += cycles;
        self.vruntime += if self.weight == NICE0_WEIGHT {
            cycles
        } else {
            cycles * NICE0_WEIGHT as u64 / self.weight as u64
        };
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

    #[test]
    fn heavier_tasks_accrue_vruntime_slower() {
        let mut heavy = Task::new(TaskId(0), ProcessId(0));
        heavy.weight = 2 * NICE0_WEIGHT;
        let mut normal = Task::new(TaskId(1), ProcessId(0));
        heavy.charge(1000);
        normal.charge(1000);
        assert_eq!(heavy.vruntime, 500);
        assert_eq!(normal.vruntime, 1000);
    }
}
