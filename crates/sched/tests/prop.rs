//! Property-based tests for the CFS substrate: scheduler invariants
//! hold through arbitrary interleavings of wake / block / pick /
//! charge / yield / rebalance operations, and the runqueue matches an
//! ordered-set reference call for call.

use proptest::prelude::*;
use rda_sched::runqueue::RunQueue;
use rda_sched::{CfsScheduler, ProcessId, SchedConfig, TaskId, TaskState};
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy)]
enum Op {
    Wake(u8),
    Block(u8),
    Finish(u8),
    PickNext(u8),
    ChargeYield(u8),
    Rebalance,
    IdleSteal(u8),
}

fn arb_op(tasks: u8, cores: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..tasks).prop_map(Op::Wake),
        2 => (0..tasks).prop_map(Op::Block),
        1 => (0..tasks).prop_map(Op::Finish),
        4 => (0..cores).prop_map(Op::PickNext),
        4 => (0..cores).prop_map(Op::ChargeYield),
        1 => Just(Op::Rebalance),
        1 => (0..cores).prop_map(Op::IdleSteal),
    ]
}

fn sched(cores: usize, tasks: u8) -> (CfsScheduler, Vec<TaskId>) {
    let mut s = CfsScheduler::new(SchedConfig {
        cores,
        sched_latency_cycles: 12_000,
        min_granularity_cycles: 1_500,
    });
    let ids = (0..tasks)
        .map(|i| s.add_task(ProcessId(i as u32 / 2)))
        .collect();
    (s, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// check_invariants() holds after every operation, no matter the
    /// interleaving.
    #[test]
    fn invariants_hold_through_arbitrary_interleavings(
        cores in 1usize..5,
        ops in prop::collection::vec(arb_op(12, 4), 1..200),
    ) {
        let (mut s, ids) = sched(cores, 12);
        for op in ops {
            match op {
                Op::Wake(t) => {
                    let _ = s.wake(ids[t as usize]);
                }
                Op::Block(t) => {
                    let _ = s.block(ids[t as usize]);
                }
                Op::Finish(t) => {
                    let _ = s.finish(ids[t as usize]);
                }
                Op::PickNext(c) => {
                    let c = c as usize % cores;
                    if s.running_on(c).is_none() {
                        let _ = s.pick_next(c);
                    }
                }
                Op::ChargeYield(c) => {
                    let c = c as usize % cores;
                    if s.running_on(c).is_some() {
                        s.charge(c, 2_000);
                        s.yield_current(c);
                    }
                }
                Op::Rebalance => {
                    let _ = s.rebalance();
                }
                Op::IdleSteal(c) => {
                    let _ = s.idle_steal(c as usize % cores);
                }
            }
            if let Err(e) = s.check_invariants() {
                prop_assert!(false, "invariant violated after {op:?}: {e}");
            }
        }
    }

    /// Finished tasks stay finished; their CPU time never changes.
    #[test]
    fn finished_is_terminal(
        ops in prop::collection::vec(arb_op(6, 2), 1..100),
    ) {
        let (mut s, ids) = sched(2, 6);
        // Run task 0 briefly, then finish it.
        s.wake(ids[0]);
        let _ = s.pick_next(0);
        s.charge(0, 5_000);
        s.finish(ids[0]);
        let frozen_cycles = s.task(ids[0]).cpu_cycles;
        for op in ops {
            match op {
                Op::Wake(t) => {
                    let _ = s.wake(ids[t as usize % 6]);
                }
                Op::PickNext(c) => {
                    let c = c as usize % 2;
                    if s.running_on(c).is_none() {
                        let _ = s.pick_next(c);
                    }
                }
                Op::ChargeYield(c) => {
                    let c = c as usize % 2;
                    if s.running_on(c).is_some() {
                        s.charge(c, 1_000);
                        s.yield_current(c);
                    }
                }
                _ => {}
            }
            prop_assert_eq!(s.task(ids[0]).state, TaskState::Finished);
            prop_assert_eq!(s.task(ids[0]).cpu_cycles, frozen_cycles);
        }
    }

    /// Long-run weighted fairness on one core: equal-weight runnable
    /// tasks end up within 20 % of each other's CPU time.
    #[test]
    fn long_run_fairness(n_tasks in 2u8..6) {
        let (mut s, ids) = sched(1, n_tasks);
        for &id in &ids {
            s.wake(id);
        }
        for _ in 0..600 {
            if s.running_on(0).is_none() {
                let _ = s.pick_next(0);
            }
            let slice = s.timeslice(0);
            s.charge(0, slice);
            s.yield_current(0);
        }
        let times: Vec<u64> = ids.iter().map(|&id| s.task(id).cpu_cycles).collect();
        let max = *times.iter().max().unwrap() as f64;
        let min = *times.iter().min().unwrap() as f64;
        prop_assert!(min > 0.0, "a task starved entirely: {times:?}");
        prop_assert!(max / min < 1.2, "unfair split {times:?}");
    }
}

/// One operation on a lone [`RunQueue`], mirrored on the reference.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    Enqueue(u8, u64),
    PopLeftmost,
    PopRightmost,
    /// Remove a task; `true` asks for a wrong vruntime (a miss).
    Remove(u8, bool),
    PeekLeftmost,
    AdvanceMinVruntime(u64),
}

fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
    // A narrow vruntime range makes equal-vruntime ties common, so the
    // `TaskId` tie-break is exercised, not just the vruntime order.
    prop_oneof![
        5 => (0u8..10, 0u64..24).prop_map(|(t, v)| QueueOp::Enqueue(t, v)),
        2 => Just(QueueOp::PopLeftmost),
        1 => Just(QueueOp::PopRightmost),
        2 => (0u8..10, any::<bool>()).prop_map(|(t, miss)| QueueOp::Remove(t, miss)),
        1 => Just(QueueOp::PeekLeftmost),
        1 => (0u64..30).prop_map(QueueOp::AdvanceMinVruntime),
    ]
}

/// A `RunQueue` as an ordered `BTreeSet`: the representation the
/// sorted vector replaced, kept here as the reference it must match.
#[derive(Default)]
struct SetQueue {
    tree: BTreeSet<(u64, TaskId)>,
    min_vruntime: u64,
}

impl SetQueue {
    fn pop_leftmost(&mut self) -> Option<(u64, TaskId)> {
        let entry = *self.tree.iter().next()?;
        self.tree.remove(&entry);
        self.min_vruntime = self.min_vruntime.max(entry.0);
        Some(entry)
    }

    fn pop_rightmost(&mut self) -> Option<(u64, TaskId)> {
        let entry = *self.tree.iter().next_back()?;
        self.tree.remove(&entry);
        Some(entry)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sorted-vector runqueue answers every call exactly as the
    /// ordered-set reference does, and holds the same entries in the
    /// same order after every step.
    #[test]
    fn runqueue_matches_the_ordered_set_reference(
        ops in prop::collection::vec(arb_queue_op(), 1..120),
    ) {
        let mut q = RunQueue::new();
        let mut reference = SetQueue::default();
        // Queued vruntime per task, so enqueues stay distinct and a
        // removal can name the entry exactly.
        let mut queued: [Option<u64>; 10] = [None; 10];
        for op in ops {
            match op {
                QueueOp::Enqueue(t, v) => {
                    if queued[t as usize].is_none() {
                        queued[t as usize] = Some(v);
                        q.enqueue(TaskId(t as u32), v);
                        reference.tree.insert((v, TaskId(t as u32)));
                    }
                }
                QueueOp::PopLeftmost => {
                    let got = q.pop_leftmost();
                    prop_assert_eq!(got, reference.pop_leftmost());
                    if let Some((_, id)) = got {
                        queued[id.0 as usize] = None;
                    }
                }
                QueueOp::PopRightmost => {
                    let got = q.pop_rightmost();
                    prop_assert_eq!(got, reference.pop_rightmost());
                    if let Some((_, id)) = got {
                        queued[id.0 as usize] = None;
                    }
                }
                QueueOp::Remove(t, miss) => {
                    let v = queued[t as usize].unwrap_or(7) + u64::from(miss);
                    let id = TaskId(t as u32);
                    let got = q.remove(id, v);
                    prop_assert_eq!(got, reference.tree.remove(&(v, id)));
                    if got {
                        queued[t as usize] = None;
                    }
                }
                QueueOp::PeekLeftmost => {
                    prop_assert_eq!(q.peek_leftmost(), reference.tree.iter().next().copied());
                }
                QueueOp::AdvanceMinVruntime(v) => {
                    q.advance_min_vruntime(v);
                    reference.min_vruntime = reference.min_vruntime.max(v);
                }
            }
            prop_assert_eq!(q.len(), reference.tree.len());
            prop_assert_eq!(q.is_empty(), reference.tree.is_empty());
            prop_assert_eq!(q.min_vruntime(), reference.min_vruntime);
            let order: Vec<(u64, TaskId)> = q.iter().collect();
            let want: Vec<(u64, TaskId)> = reference.tree.iter().copied().collect();
            prop_assert_eq!(order, want, "after {:?}", op);
        }
    }
}
