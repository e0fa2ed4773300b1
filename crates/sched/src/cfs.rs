//! The CFS-like fair scheduler.
//!
//! This is the "Linux default scheduling policy" of the paper's
//! experiments: fair scheduling by virtual runtime with per-core
//! queues, `sched_latency`-derived timeslices, wake-time placement,
//! idle stealing and periodic load balancing. It is a passive state
//! machine — the discrete-event driver calls [`CfsScheduler::pick_next`]
//! when a core idles, [`CfsScheduler::charge`] as simulated execution
//! elapses, and [`CfsScheduler::yield_current`] when its own timeslice
//! clock expires.

use crate::runqueue::RunQueue;
use crate::task::{ProcessId, Task, TaskId, TaskState};
use rda_machine::MachineConfig;
use std::fmt;

/// Static scheduler parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedConfig {
    /// Number of cores (one runqueue each).
    pub cores: usize,
    /// Target latency: every runnable task should run within this span.
    pub sched_latency_cycles: u64,
    /// Minimum timeslice a task receives once scheduled.
    pub min_granularity_cycles: u64,
}

/// Typed reasons a [`SchedConfig`] is unusable.
///
/// Before this check existed, a zero-core config survived construction
/// and `select_core` later panicked deep inside wake-time placement
/// (`min().unwrap()` over an empty core range) — far from the bad
/// input. Validation moves the failure to the constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedConfigError {
    /// `cores == 0`: there is no queue to place a woken task on.
    NoCores,
    /// `sched_latency_cycles == 0`: the fairness target is degenerate.
    ZeroLatency,
    /// `min_granularity_cycles == 0`: timeslices could collapse to
    /// zero cycles.
    ZeroGranularity,
}

impl fmt::Display for SchedConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedConfigError::NoCores => write!(f, "cores must be > 0"),
            SchedConfigError::ZeroLatency => write!(f, "sched_latency_cycles must be > 0"),
            SchedConfigError::ZeroGranularity => {
                write!(f, "min_granularity_cycles must be > 0")
            }
        }
    }
}

impl std::error::Error for SchedConfigError {}

impl SchedConfig {
    /// Derive from a machine configuration.
    pub fn from_machine(m: &MachineConfig) -> Self {
        SchedConfig {
            cores: m.cores,
            sched_latency_cycles: m.sched_latency_cycles,
            min_granularity_cycles: m.min_granularity_cycles,
        }
    }

    /// Check the parameters are usable (see [`SchedConfigError`]).
    pub fn validate(&self) -> Result<(), SchedConfigError> {
        if self.cores == 0 {
            return Err(SchedConfigError::NoCores);
        }
        if self.sched_latency_cycles == 0 {
            return Err(SchedConfigError::ZeroLatency);
        }
        if self.min_granularity_cycles == 0 {
            return Err(SchedConfigError::ZeroGranularity);
        }
        Ok(())
    }
}

/// Counters describing scheduler activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// A core started running a task different from its previous one.
    pub context_switches: u64,
    /// A task started running on a different core than it last used.
    pub migrations: u64,
    /// Tasks moved by the load balancer.
    pub balance_moves: u64,
    /// Wake events processed.
    pub wakeups: u64,
    /// Idle-steal attempts whose chosen victim queue turned out empty
    /// at pop time. Diagnostic only — not part of run digests.
    pub steal_misses: u64,
}

/// The scheduler: task table + per-core queues + occupancy.
#[derive(Debug, Clone)]
pub struct CfsScheduler {
    cfg: SchedConfig,
    tasks: Vec<Task>,
    queued_core: Vec<Option<usize>>, // parallel to tasks
    queues: Vec<RunQueue>,
    running: Vec<Option<TaskId>>,
    prev_on_core: Vec<Option<TaskId>>,
    stats: SchedStats,
}

impl CfsScheduler {
    /// Create a scheduler with no tasks, validating the configuration
    /// first (see [`SchedConfigError`]).
    pub fn try_new(cfg: SchedConfig) -> Result<Self, SchedConfigError> {
        cfg.validate()?;
        Ok(CfsScheduler {
            queues: (0..cfg.cores).map(|_| RunQueue::new()).collect(),
            running: vec![None; cfg.cores],
            prev_on_core: vec![None; cfg.cores],
            cfg,
            tasks: Vec::new(),
            queued_core: Vec::new(),
            stats: SchedStats::default(),
        })
    }

    /// Create a scheduler with no tasks.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`SchedConfig::validate`];
    /// use [`Self::try_new`] to handle that as a typed error.
    pub fn new(cfg: SchedConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(s) => s,
            Err(e) => panic!("invalid scheduler config: {e}"),
        }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Activity counters so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Register a new task for `process`. The task starts `Blocked`;
    /// call [`Self::wake`] to make it runnable.
    pub fn add_task(&mut self, process: ProcessId) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task::new(id, process));
        self.queued_core.push(None);
        id
    }

    /// Immutable access to a task.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0 as usize]
    }

    /// The task currently running on `core`.
    #[inline]
    pub fn running_on(&self, core: usize) -> Option<TaskId> {
        self.running[core]
    }

    /// Iterator over `(core, TaskId)` for all busy cores.
    pub fn running_tasks(&self) -> impl Iterator<Item = (usize, TaskId)> + '_ {
        self.running
            .iter()
            .enumerate()
            .filter_map(|(c, t)| t.map(|t| (c, t)))
    }

    /// Tasks that are runnable or running (the set competing for the
    /// machine — what the LLC pressure model sums over).
    pub fn active_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks
            .iter()
            .filter(|t| t.state.is_active())
            .map(|t| t.id)
    }

    /// Pick a wake-up core for a task: an idle core if one exists
    /// (preferring the task's previous core), otherwise the
    /// least-loaded queue.
    fn select_core(&self, last: Option<usize>) -> usize {
        let idle = |c: usize| self.running[c].is_none() && self.queues[c].is_empty();
        if let Some(c) = last {
            if idle(c) {
                return c;
            }
        }
        if let Some(c) = (0..self.cfg.cores).find(|&c| idle(c)) {
            return c;
        }
        let load = |c: usize| self.queues[c].len() + usize::from(self.running[c].is_some());
        if let Some(c) = last {
            let best = (0..self.cfg.cores).map(load).min().unwrap();
            if load(c) == best {
                return c;
            }
        }
        (0..self.cfg.cores).min_by_key(|&c| load(c)).unwrap()
    }

    /// Wake a blocked task: place it on a core's queue. Returns the
    /// chosen core. Waking an already-active task is a no-op returning
    /// `None`.
    pub fn wake(&mut self, id: TaskId) -> Option<usize> {
        let t = &self.tasks[id.0 as usize];
        if t.state != TaskState::Blocked {
            return None;
        }
        let last = t.last_core;
        let core = self.select_core(last);
        self.stats.wakeups += 1;
        if let Some(l) = last {
            if l != core {
                self.stats.migrations += 1;
            }
        }
        let placed = self.queues[core].place_vruntime(t.vruntime);
        let t = &mut self.tasks[id.0 as usize];
        t.vruntime = placed;
        t.state = TaskState::Runnable;
        self.queued_core[id.0 as usize] = Some(core);
        self.queues[core].enqueue(id, placed);
        Some(core)
    }

    /// Remove a task from scheduling (sleep / RDA pause). Running tasks
    /// free their core; queued tasks leave their queue. Returns the
    /// core freed, if the task was running.
    pub fn block(&mut self, id: TaskId) -> Option<usize> {
        self.deactivate(id, TaskState::Blocked)
    }

    /// Mark a task finished; it can never be woken again.
    pub fn finish(&mut self, id: TaskId) -> Option<usize> {
        self.deactivate(id, TaskState::Finished)
    }

    fn deactivate(&mut self, id: TaskId, into: TaskState) -> Option<usize> {
        let idx = id.0 as usize;
        match self.tasks[idx].state {
            TaskState::Running(core) => {
                debug_assert_eq!(self.running[core], Some(id));
                self.running[core] = None;
                self.prev_on_core[core] = Some(id);
                self.tasks[idx].state = into;
                Some(core)
            }
            TaskState::Runnable => {
                let core = self.queued_core[idx].expect("runnable task must be queued");
                let removed = self.queues[core].remove(id, self.tasks[idx].vruntime);
                debug_assert!(removed, "queued task missing from queue");
                self.queued_core[idx] = None;
                self.tasks[idx].state = into;
                None
            }
            TaskState::Blocked => {
                self.tasks[idx].state = into;
                None
            }
            TaskState::Finished => None,
        }
    }

    /// Put the task running on `core` back on that core's queue
    /// (timeslice expiry). No-op if the core is idle.
    pub fn yield_current(&mut self, core: usize) {
        if let Some(id) = self.running[core].take() {
            self.prev_on_core[core] = Some(id);
            let idx = id.0 as usize;
            let placed = self.queues[core].place_vruntime(self.tasks[idx].vruntime);
            self.tasks[idx].vruntime = placed;
            self.tasks[idx].state = TaskState::Runnable;
            self.queued_core[idx] = Some(core);
            self.queues[core].enqueue(id, placed);
        }
    }

    /// Pick the next task for an idle `core` (leftmost by vruntime).
    /// Returns `None` when the queue is empty. Panics if the core is
    /// already occupied.
    pub fn pick_next(&mut self, core: usize) -> Option<TaskId> {
        assert!(self.running[core].is_none(), "core {core} already busy");
        let (_, id) = self.queues[core].pop_leftmost()?;
        let idx = id.0 as usize;
        self.queued_core[idx] = None;
        if self.prev_on_core[core] != Some(id) {
            self.stats.context_switches += 1;
        }
        if let Some(last) = self.tasks[idx].last_core {
            if last != core {
                self.stats.migrations += 1;
            }
        }
        self.tasks[idx].state = TaskState::Running(core);
        self.tasks[idx].last_core = Some(core);
        self.running[core] = Some(id);
        Some(id)
    }

    /// Charge `cycles` of execution to the task running on `core` and
    /// advance the queue's vruntime floor.
    #[inline]
    pub fn charge(&mut self, core: usize, cycles: u64) {
        let id = self.running[core].expect("charging an idle core");
        let idx = id.0 as usize;
        self.tasks[idx].charge(cycles);
        let cur_v = self.tasks[idx].vruntime;
        let floor = match self.queues[core].peek_leftmost() {
            Some((lv, _)) => lv.min(cur_v),
            None => cur_v,
        };
        self.queues[core].advance_min_vruntime(floor);
    }

    /// The timeslice the task running on `core` should receive:
    /// `sched_latency / nr_tasks`, floored at the minimum granularity.
    #[inline]
    pub fn timeslice(&self, core: usize) -> u64 {
        let n = self.queues[core].len() + usize::from(self.running[core].is_some());
        let n = n.max(1) as u64;
        (self.cfg.sched_latency_cycles / n).max(self.cfg.min_granularity_cycles)
    }

    /// Idle balancing: when `core`'s queue is empty, steal the
    /// rightmost task from the longest other queue onto this core's
    /// queue. Returns true if a task was moved. (CFS's idle_balance.)
    pub fn idle_steal(&mut self, core: usize) -> bool {
        if !self.queues[core].is_empty() {
            return false;
        }
        let Some((victim, len)) = (0..self.cfg.cores)
            .filter(|&c| c != core)
            .map(|c| (c, self.queues[c].len()))
            .max_by_key(|&(_, l)| l)
        else {
            return false;
        };
        if len == 0 {
            return false;
        }
        // The victim's length was read above, but pop defensively: a
        // miss is a counted no-op, never a panic mid-balance.
        let Some((_, id)) = self.queues[victim].pop_rightmost() else {
            self.stats.steal_misses += 1;
            return false;
        };
        let idx = id.0 as usize;
        let placed = self.queues[core].place_vruntime(self.tasks[idx].vruntime);
        self.tasks[idx].vruntime = placed;
        self.queued_core[idx] = Some(core);
        self.queues[core].enqueue(id, placed);
        self.stats.balance_moves += 1;
        true
    }

    /// Number of tasks queued (not running) on one core.
    #[inline]
    pub fn queue_len(&self, core: usize) -> usize {
        self.queues[core].len()
    }

    /// One load-balancing pass: repeatedly move a task from the busiest
    /// to the idlest queue while they differ by ≥ 2. Returns the number
    /// of tasks moved.
    pub fn rebalance(&mut self) -> usize {
        let mut moved = 0;
        loop {
            let load = |q: &RunQueue| q.len();
            let (busiest, bmax) = (0..self.cfg.cores)
                .map(|c| (c, load(&self.queues[c])))
                .max_by_key(|&(_, l)| l)
                .unwrap();
            let (idlest, imin) = (0..self.cfg.cores)
                .map(|c| {
                    (
                        c,
                        load(&self.queues[c]) + usize::from(self.running[c].is_some()),
                    )
                })
                .min_by_key(|&(_, l)| l)
                .unwrap();
            if busiest == idlest || bmax < imin + 2 {
                break;
            }
            let Some((_, id)) = self.queues[busiest].pop_rightmost() else {
                break;
            };
            let idx = id.0 as usize;
            let placed = self.queues[idlest].place_vruntime(self.tasks[idx].vruntime);
            self.tasks[idx].vruntime = placed;
            self.queued_core[idx] = Some(idlest);
            self.queues[idlest].enqueue(id, placed);
            self.stats.balance_moves += 1;
            moved += 1;
        }
        moved
    }

    /// Debug invariant check: every `Runnable` task is on exactly the
    /// queue `queued_core` claims; every `Running` task occupies its
    /// core; queue entries match task vruntimes.
    pub fn check_invariants(&self) -> Result<(), String> {
        for t in &self.tasks {
            let idx = t.id.0 as usize;
            match t.state {
                TaskState::Runnable => {
                    let core = self.queued_core[idx]
                        .ok_or_else(|| format!("{} runnable but not queued", t.id))?;
                    if !self.queues[core]
                        .iter()
                        .any(|(v, id)| id == t.id && v == t.vruntime)
                    {
                        return Err(format!("{} missing from queue {core}", t.id));
                    }
                }
                TaskState::Running(core) => {
                    if self.running[core] != Some(t.id) {
                        return Err(format!(
                            "{} claims core {core} but isn't running there",
                            t.id
                        ));
                    }
                }
                TaskState::Blocked | TaskState::Finished => {
                    if self.queued_core[idx].is_some() {
                        return Err(format!("{} inactive but queued", t.id));
                    }
                }
            }
        }
        for (core, &occ) in self.running.iter().enumerate() {
            if let Some(id) = occ {
                if self.tasks[id.0 as usize].state != TaskState::Running(core) {
                    return Err(format!("core {core} occupancy mismatch for {id}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(cores: usize) -> CfsScheduler {
        CfsScheduler::new(SchedConfig {
            cores,
            sched_latency_cycles: 12_000,
            min_granularity_cycles: 1_500,
        })
    }

    fn spawn_wake(s: &mut CfsScheduler, n: usize) -> Vec<TaskId> {
        let ids: Vec<TaskId> = (0..n).map(|i| s.add_task(ProcessId(i as u32))).collect();
        for &id in &ids {
            s.wake(id);
        }
        ids
    }

    #[test]
    fn wake_prefers_idle_cores() {
        let mut s = sched(4);
        let ids = spawn_wake(&mut s, 4);
        // Four tasks on four cores: each queue holds exactly one.
        let mut cores: Vec<usize> = ids
            .iter()
            .map(|&id| {
                s.pick_next_all();
                match s.task(id).state {
                    TaskState::Running(c) => c,
                    TaskState::Runnable => usize::MAX,
                    _ => panic!(),
                }
            })
            .collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), 4, "tasks should spread across all cores");
        s.check_invariants().unwrap();
    }

    impl CfsScheduler {
        fn pick_next_all(&mut self) {
            for c in 0..self.cfg.cores {
                if self.running[c].is_none() {
                    let _ = self.pick_next(c);
                }
            }
        }
    }

    #[test]
    fn fairness_two_tasks_one_core() {
        let mut s = sched(1);
        let ids = spawn_wake(&mut s, 2);
        // Round-robin by slices for a while; CPU time should even out.
        for _ in 0..100 {
            let t = s.pick_next(0).unwrap();
            let slice = s.timeslice(0);
            s.charge(0, slice);
            s.yield_current(0);
            let _ = t;
        }
        let c0 = s.task(ids[0]).cpu_cycles;
        let c1 = s.task(ids[1]).cpu_cycles;
        let imbalance = (c0 as f64 - c1 as f64).abs() / (c0 + c1) as f64;
        assert!(imbalance < 0.05, "cpu split {c0}/{c1}");
        s.check_invariants().unwrap();
    }

    #[test]
    fn timeslice_shrinks_with_load_but_floors() {
        let mut s = sched(1);
        spawn_wake(&mut s, 2);
        let _ = s.pick_next(0);
        assert_eq!(s.timeslice(0), 6_000); // latency / 2
        let mut s = sched(1);
        spawn_wake(&mut s, 100);
        let _ = s.pick_next(0);
        assert_eq!(s.timeslice(0), 1_500); // floored
    }

    #[test]
    fn block_running_task_frees_core() {
        let mut s = sched(1);
        let ids = spawn_wake(&mut s, 1);
        let t = s.pick_next(0).unwrap();
        assert_eq!(s.block(t), Some(0));
        assert_eq!(s.running_on(0), None);
        assert_eq!(s.task(ids[0]).state, TaskState::Blocked);
        assert_eq!(s.pick_next(0), None);
        s.check_invariants().unwrap();
    }

    #[test]
    fn block_queued_task_removes_from_queue() {
        let mut s = sched(1);
        let ids = spawn_wake(&mut s, 2);
        let running = s.pick_next(0).unwrap();
        let queued = if running == ids[0] { ids[1] } else { ids[0] };
        assert_eq!(s.block(queued), None);
        assert_eq!(s.queue_len(0), 0);
        s.check_invariants().unwrap();
    }

    #[test]
    fn finished_tasks_cannot_wake() {
        let mut s = sched(1);
        let ids = spawn_wake(&mut s, 1);
        let t = s.pick_next(0).unwrap();
        s.finish(t);
        assert_eq!(s.wake(ids[0]), None);
        assert_eq!(s.task(ids[0]).state, TaskState::Finished);
    }

    #[test]
    fn waking_active_task_is_noop() {
        let mut s = sched(1);
        let ids = spawn_wake(&mut s, 1);
        assert_eq!(s.wake(ids[0]), None, "already runnable");
        assert_eq!(s.queue_len(0), 1, "not double-enqueued");
    }

    #[test]
    fn sleeper_cannot_starve_queue() {
        let mut s = sched(1);
        let ids = spawn_wake(&mut s, 2);
        // Run task A long enough to build up vruntime; B sleeps.
        let _a = s.pick_next(0).unwrap();
        let b = if s.running_on(0) == Some(ids[0]) {
            ids[1]
        } else {
            ids[0]
        };
        s.block(b);
        for _ in 0..50 {
            s.charge(0, 10_000);
        }
        s.yield_current(0);
        // B returns with tiny vruntime but is clamped to the floor.
        s.wake(b);
        let vb = s.task(b).vruntime;
        assert!(vb > 0, "sleeper vruntime clamped to queue floor, got {vb}");
        s.check_invariants().unwrap();
    }

    #[test]
    fn rebalance_moves_tasks_to_idle_cores() {
        let mut s = sched(4);
        // Force everything onto core 0's queue by waking while other
        // cores are "busy" with running tasks.
        let ids = spawn_wake(&mut s, 8);
        // All 8 went to distinct idle cores first; pick them so cores
        // are busy, then wake more onto loaded queues.
        s.pick_next_all();
        let more = spawn_wake(&mut s, 8);
        let _ = (ids, more);
        // Manually empty 3 queues into queue 0 to create imbalance.
        // (simulate pathological placement)
        for c in 1..4 {
            while let Some((_, id)) = s.queues[c].pop_rightmost() {
                s.queued_core[id.0 as usize] = Some(0);
                let v = s.queues[0].place_vruntime(s.task(id).vruntime);
                s.tasks[id.0 as usize].vruntime = v;
                s.queues[0].enqueue(id, v);
            }
        }
        assert!(s.queues[0].len() >= 6);
        let moved = s.rebalance();
        assert!(moved > 0);
        let max_q = (0..4).map(|c| s.queues[c].len()).max().unwrap();
        let min_q = (0..4).map(|c| s.queues[c].len()).min().unwrap();
        // The balancer weighs running occupancy on the receiving side,
        // so queues converge to within 2 entries of each other.
        assert!(max_q - min_q <= 2, "still imbalanced: {max_q} vs {min_q}");
        s.check_invariants().unwrap();
    }

    #[test]
    fn context_switches_counted_on_occupant_change() {
        let mut s = sched(1);
        spawn_wake(&mut s, 2);
        let before = s.stats().context_switches;
        let _ = s.pick_next(0);
        s.charge(0, 5_000); // advance vruntime so the other task is leftmost
        s.yield_current(0);
        let _ = s.pick_next(0); // different task
        assert!(s.stats().context_switches >= before + 2);
    }

    #[test]
    fn resuming_same_task_is_not_a_switch() {
        let mut s = sched(1);
        spawn_wake(&mut s, 1);
        let _ = s.pick_next(0);
        s.yield_current(0);
        let switches_before = s.stats().context_switches;
        let _ = s.pick_next(0); // same task returns
        assert_eq!(s.stats().context_switches, switches_before);
    }

    #[test]
    fn active_tasks_tracks_runnable_and_running() {
        let mut s = sched(2);
        let ids = spawn_wake(&mut s, 3);
        assert_eq!(s.active_tasks().count(), 3);
        let t = s.pick_next(0).unwrap();
        assert_eq!(s.active_tasks().count(), 3);
        s.block(t);
        assert_eq!(s.active_tasks().count(), 2);
        let _ = ids;
    }

    #[test]
    fn zero_core_config_is_a_typed_error_not_a_panic() {
        // Regression: this config used to survive construction and
        // panic later inside `select_core` on the first wake.
        let cfg = SchedConfig {
            cores: 0,
            sched_latency_cycles: 12_000,
            min_granularity_cycles: 1_500,
        };
        assert_eq!(cfg.validate(), Err(SchedConfigError::NoCores));
        assert!(matches!(
            CfsScheduler::try_new(cfg),
            Err(SchedConfigError::NoCores)
        ));
    }

    #[test]
    fn degenerate_timing_configs_are_typed_errors() {
        let zero_latency = SchedConfig {
            cores: 2,
            sched_latency_cycles: 0,
            min_granularity_cycles: 1_500,
        };
        assert_eq!(
            CfsScheduler::try_new(zero_latency).unwrap_err(),
            SchedConfigError::ZeroLatency
        );
        let zero_gran = SchedConfig {
            cores: 2,
            sched_latency_cycles: 12_000,
            min_granularity_cycles: 0,
        };
        assert_eq!(
            CfsScheduler::try_new(zero_gran).unwrap_err(),
            SchedConfigError::ZeroGranularity
        );
        assert_eq!(SchedConfigError::NoCores.to_string(), "cores must be > 0");
    }

    #[test]
    #[should_panic(expected = "invalid scheduler config: cores must be > 0")]
    fn new_panics_with_the_typed_message_on_zero_cores() {
        let _ = sched(0);
    }

    #[test]
    fn idle_steal_on_an_empty_system_is_a_clean_false() {
        let mut s = sched(4);
        assert!(!s.idle_steal(0), "nothing to steal anywhere");
        assert_eq!(s.stats().steal_misses, 0, "empty victims are not misses");
        assert_eq!(s.stats().balance_moves, 0);
        // A real steal still works and is counted as a move, not a miss.
        spawn_wake(&mut s, 8);
        s.pick_next_all();
        let extra = spawn_wake(&mut s, 4);
        let _ = extra;
        // Queues now hold the 4 extra tasks; drain one core and steal.
        let moved = (0..4).any(|c| s.queues[c].is_empty() && s.idle_steal(c));
        assert!(moved || s.stats().balance_moves == 0);
        assert_eq!(s.stats().steal_misses, 0);
        s.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_pick_panics() {
        let mut s = sched(1);
        spawn_wake(&mut s, 2);
        let _ = s.pick_next(0);
        let _ = s.pick_next(0);
    }
}
