//! Kernels for the two layers `SystemSim::run` calls in its inner loop
//! without a replayable log: the co-run performance model
//! (`PerfModel`) and the CFS substrate (`CfsScheduler`). Inputs come
//! from the paper workloads, so the kernels see the shapes the grid
//! feeds them.

use crate::alloc;
use rda_machine::{AccessProfile, MachineConfig, PerfModel, SegmentRates};
use rda_sched::{CfsScheduler, ProcessId, SchedConfig, TaskId};
use rda_simcore::{Fnv1a64, SplitMix64};
use rda_workloads::WorkloadSpec;
use std::hint::black_box;
use std::time::Instant;

/// Running threads per co-run set: the machine's 12 cores.
const CORUN_ENTRIES: usize = 12;

/// Co-run solver inputs built from the paper workloads' phases.
pub struct PerfInputs {
    model: PerfModel,
    sets: Vec<Vec<(AccessProfile, u64)>>,
    /// `(working set, co-runners' total)` pairs for `llc_share`.
    shares: Vec<(u64, u64)>,
}

/// One measurement of the performance-model kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfTimes {
    /// Host ns per `solve_corun_into` call.
    pub solve_ns: f64,
    /// Allocations per `solve_corun_into` call into a warm buffer.
    pub solve_allocs: f64,
    /// Host ns per `llc_share` call.
    pub llc_share_ns: f64,
    /// Host ns per `switch_warmup_cycles` call.
    pub warmup_ns: f64,
    /// Digest of every solved rate: equal on every round.
    pub checksum: u64,
}

impl PerfInputs {
    /// For each workload and each phase position, a 12-entry set: the
    /// 12 cores filled thread by thread from consecutive processes, each
    /// entry given its proportional LLC share of the co-runners' total
    /// working set, as `SystemSim::run` builds them.
    pub fn build(specs: &[WorkloadSpec], machine: &MachineConfig) -> PerfInputs {
        let model = PerfModel::new(machine.clone());
        let mut sets = Vec::new();
        let mut shares = Vec::new();
        for spec in specs {
            let phases = spec
                .processes
                .iter()
                .map(|p| p.phases.len())
                .min()
                .unwrap_or(0);
            for k in 0..phases {
                let mut running: Vec<(usize, AccessProfile)> = Vec::new();
                'fill: for (p, proc) in spec.processes.iter().enumerate() {
                    for _ in 0..proc.threads {
                        if running.len() == CORUN_ENTRIES {
                            break 'fill;
                        }
                        running.push((p, proc.phases[k].profile));
                    }
                }
                let mut seen = Vec::new();
                let mut total_ws = 0;
                for (p, prof) in &running {
                    if !seen.contains(p) {
                        seen.push(*p);
                        total_ws += prof.ws_bytes;
                    }
                }
                let set = running
                    .iter()
                    .map(|(_, prof)| {
                        shares.push((prof.ws_bytes, total_ws));
                        (*prof, model.llc_share(prof.ws_bytes, total_ws))
                    })
                    .collect();
                sets.push(set);
            }
        }
        PerfInputs {
            model,
            sets,
            shares,
        }
    }

    /// Time each kernel over every input, `reps` times over.
    pub fn measure(&self, reps: usize) -> PerfTimes {
        let mut rates: Vec<SegmentRates> = Vec::with_capacity(CORUN_ENTRIES);
        self.model.solve_corun_into(&self.sets[0], &mut rates);
        let mut h = Fnv1a64::new();
        let a0 = alloc::count();
        let t0 = Instant::now();
        for _ in 0..reps {
            for set in &self.sets {
                self.model.solve_corun_into(black_box(set), &mut rates);
                h.write_f64(black_box(&rates)[0].cpi);
            }
        }
        let solve_s = t0.elapsed().as_secs_f64();
        let solve_allocs = alloc::count().since(a0).allocs;
        let solves = (reps * self.sets.len()) as f64;

        let share_reps = reps * 50;
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..share_reps {
            for &(ws, total) in &self.shares {
                acc = acc.wrapping_add(self.model.llc_share(black_box(ws), black_box(total)));
            }
        }
        let share_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..share_reps {
            for &(ws, _) in &self.shares {
                acc = acc.wrapping_add(self.model.switch_warmup_cycles(black_box(ws)));
            }
        }
        let warmup_s = t0.elapsed().as_secs_f64();
        h.write_u64(black_box(acc));
        let share_calls = (share_reps * self.shares.len()) as f64;
        PerfTimes {
            solve_ns: solve_s * 1e9 / solves,
            solve_allocs: solve_allocs as f64 / solves,
            llc_share_ns: share_s * 1e9 / share_calls,
            warmup_ns: warmup_s * 1e9 / share_calls,
            checksum: h.finish(),
        }
    }
}

/// The scheduler calls, in metric order.
pub const CFS_CALLS: [&str; 7] = [
    "pick_next",
    "charge",
    "wake",
    "block",
    "yield_current",
    "idle_steal",
    "rebalance",
];

/// One measurement of the scheduler call loop.
#[derive(Debug, Clone, Default)]
pub struct CfsTimes {
    /// Calls per kind.
    pub calls: [u64; 7],
    /// Summed host ns per kind, timer overhead included.
    pub ns: [f64; 7],
    /// Allocations over the whole drive, per call.
    pub allocs_per_call: f64,
    /// Digest of the schedulers' final counters: equal on every round.
    pub checksum: u64,
}

impl CfsTimes {
    /// Mean ns per call of `kind`, less the timer's own cost.
    pub fn ns_per_call(&self, kind: usize, timer_ns: f64) -> f64 {
        self.ns[kind] / self.calls[kind].max(1) as f64 - timer_ns
    }
}

/// Drive one `CfsScheduler` per paper workload (its thread count on the
/// machine's cores) through `SystemSim::run`'s call pattern for `steps`
/// intervals: fill idle cores (steal, then pick), charge every running
/// thread, rotate expired slices (yield, pick), barrier-block threads
/// that finish a phase and wake them a few intervals later, and
/// rebalance every 20 intervals. Every call is timed. The random choices
/// come from `seed`, so two drives with one seed issue the same calls.
pub fn drive_cfs(
    specs: &[WorkloadSpec],
    machine: &MachineConfig,
    steps: usize,
    seed: u64,
) -> CfsTimes {
    let mut out = CfsTimes::default();
    let mut h = Fnv1a64::new();
    let a0 = alloc::count();
    macro_rules! timed {
        ($kind:expr, $e:expr) => {{
            let started = Instant::now();
            let r = $e;
            out.ns[$kind] += started.elapsed().as_nanos() as f64;
            out.calls[$kind] += 1;
            r
        }};
    }
    for (w, spec) in specs.iter().enumerate() {
        let mut rng = SplitMix64::new(SplitMix64::derive_stream(seed, w as u64));
        let mut sched = CfsScheduler::new(SchedConfig::from_machine(machine));
        let cores = machine.cores;
        let mut tasks = Vec::new();
        for (p, proc) in spec.processes.iter().enumerate() {
            for _ in 0..proc.threads {
                tasks.push(sched.add_task(ProcessId(p as u32)));
            }
        }
        for &t in &tasks {
            timed!(2, sched.wake(t));
        }
        let mut blocked: Vec<(usize, TaskId)> = Vec::new();
        let mut slice_left = vec![0u32; cores];
        for step in 0..steps {
            for (core, left) in slice_left.iter_mut().enumerate() {
                if sched.running_on(core).is_some() {
                    continue;
                }
                if sched.queue_len(core) == 0 {
                    timed!(5, sched.idle_steal(core));
                }
                if timed!(0, sched.pick_next(core)).is_some() {
                    *left = 2 + (rng.next_u64() % 3) as u32;
                }
            }
            let dt = 200_000 + rng.next_u64() % 200_000;
            for core in 0..cores {
                if sched.running_on(core).is_some() {
                    timed!(1, sched.charge(core, dt));
                }
            }
            for (core, left) in slice_left.iter_mut().enumerate() {
                let Some(tid) = sched.running_on(core) else {
                    continue;
                };
                if rng.next_u64().is_multiple_of(16) {
                    timed!(3, sched.block(tid));
                    blocked.push((step + 3, tid));
                    continue;
                }
                *left = left.saturating_sub(1);
                if *left == 0 && sched.queue_len(core) > 0 {
                    timed!(4, sched.yield_current(core));
                    timed!(0, sched.pick_next(core));
                    *left = 2 + (rng.next_u64() % 3) as u32;
                }
            }
            let mut i = 0;
            while i < blocked.len() {
                if blocked[i].0 <= step {
                    let (_, tid) = blocked.swap_remove(i);
                    timed!(2, sched.wake(tid));
                } else {
                    i += 1;
                }
            }
            if step % 20 == 19 {
                timed!(6, sched.rebalance());
            }
        }
        let s = sched.stats();
        h.write_u64(s.context_switches)
            .write_u64(s.migrations)
            .write_u64(s.balance_moves)
            .write_u64(s.wakeups);
    }
    let calls: u64 = out.calls.iter().sum();
    out.allocs_per_call = alloc::count().since(a0).allocs as f64 / calls.max(1) as f64;
    out.checksum = h.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_workloads::spec::all_workloads;

    #[test]
    fn kernels_are_deterministic_and_cover_every_call() {
        let specs = all_workloads();
        let machine = MachineConfig::xeon_e5_2420();
        let perf = PerfInputs::build(&specs, &machine);
        assert!(perf.sets.iter().all(|s| s.len() == CORUN_ENTRIES));
        let a = perf.measure(1);
        assert_eq!(a.checksum, perf.measure(1).checksum);
        let c = drive_cfs(&specs, &machine, 60, 7);
        assert_eq!(c.checksum, drive_cfs(&specs, &machine, 60, 7).checksum);
        assert!(c.calls.iter().all(|&n| n > 0), "{:?}", c.calls);
    }
}
