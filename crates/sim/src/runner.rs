//! Parallel deterministic experiment engine.
//!
//! The paper's evaluation is a sweep: every workload × policy (×
//! replicate) cell is one independent [`SystemSim`] execution. This
//! module spreads that grid over a thread pool ([`run_pool`], shared
//! by every sweep in the workspace) while guaranteeing that **the
//! sweep's results are a pure function of (grid, root seed)** — never
//! of thread count, scheduling order, or completion order:
//!
//! * each cell's RNG stream is derived from the root seed and the
//!   cell's *grid index* via [`SplitMix64::derive_stream`] — no RNG
//!   state is shared between runs;
//! * results are written into per-cell slots and read back in grid
//!   order, so aggregation never observes completion order;
//! * a panicking or failing run becomes a structured [`RunError`] in
//!   its slot instead of poisoning the pool — the remaining cells
//!   still complete.
//!
//! [`SweepResult::digest`] folds every run's [`RunResult::digest`]
//! into one value; the test suite pins serial == 8-thread digests, so
//! determinism is a checked property, not an aspiration.

use crate::config::SimConfig;
use crate::experiment::PolicyRun;
use crate::system::{RunResult, SystemSim};
use rda_core::PolicyKind;
use rda_simcore::{Fnv1a64, SplitMix64};
use rda_workloads::WorkloadSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One cell of the sweep grid.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload to execute.
    pub workload: WorkloadSpec,
    /// The policy to execute it under.
    pub policy: PolicyKind,
    /// Replicate number (varies only the derived RNG stream).
    pub replicate: u64,
}

/// The full configuration grid, in the deterministic order that
/// defines every cell's RNG stream and its place in the aggregate.
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    cells: Vec<RunConfig>,
}

impl SweepGrid {
    /// Empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cross product `workloads × policies × replicates`, in
    /// workload-major order (matching the paper's figure layout).
    pub fn cross(workloads: &[WorkloadSpec], policies: &[PolicyKind], replicates: u64) -> Self {
        assert!(replicates > 0, "at least one replicate per cell");
        let mut cells = Vec::with_capacity(workloads.len() * policies.len());
        for workload in workloads {
            for &policy in policies {
                for replicate in 0..replicates {
                    cells.push(RunConfig {
                        workload: workload.clone(),
                        policy,
                        replicate,
                    });
                }
            }
        }
        SweepGrid { cells }
    }

    /// Append one cell.
    pub fn push(&mut self, cell: RunConfig) {
        self.cells.push(cell);
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells in grid order.
    pub fn cells(&self) -> &[RunConfig] {
        &self.cells
    }
}

/// A `1/count` slice of the grid for distributing a sweep across
/// processes or machines. Cell *global* indices are preserved, so the
/// union of all shards is bit-identical to one unsharded sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index in `0..count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parse `"i/m"` (e.g. `"0/4"`).
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (i, m) = s
            .split_once('/')
            .ok_or_else(|| format!("shard must be 'index/count', got '{s}'"))?;
        let index: usize = i.parse().map_err(|_| format!("bad shard index '{i}'"))?;
        let count: usize = m.parse().map_err(|_| format!("bad shard count '{m}'"))?;
        if count == 0 || index >= count {
            return Err(format!("shard index {index} out of range for count {count}"));
        }
        Ok(Shard { index, count })
    }

    fn covers(&self, global_index: usize) -> bool {
        global_index % self.count == self.index
    }
}

/// How to execute a sweep.
#[derive(Debug, Clone, Copy)]
pub struct RunnerOptions {
    /// Worker threads; `0` = all available cores.
    pub threads: usize,
    /// Root seed every cell's RNG stream is derived from.
    pub root_seed: u64,
    /// Execute only this slice of the grid (`None` = all of it).
    pub shard: Option<Shard>,
}

/// Root seed used when none is given on the command line.
pub const DEFAULT_ROOT_SEED: u64 = 0x52_44_41_2d_53_45_45_44; // "RDA-SEED"

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            threads: 0,
            root_seed: DEFAULT_ROOT_SEED,
            shard: None,
        }
    }
}

impl RunnerOptions {
    /// Serial execution (one worker) — the determinism reference.
    pub fn serial() -> Self {
        RunnerOptions {
            threads: 1,
            ..Self::default()
        }
    }
}

/// One successfully executed cell.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Global grid index (stable across shards and thread counts).
    pub index: usize,
    /// Workload name (figure category).
    pub workload: String,
    /// Policy (figure series).
    pub policy: PolicyKind,
    /// Replicate number.
    pub replicate: u64,
    /// The derived jitter-stream seed this run used.
    pub jitter_seed: u64,
    /// The simulation outcome.
    pub result: RunResult,
    /// `result.digest()`, precomputed on the worker.
    pub digest: u64,
}

/// A cell that panicked or returned a simulation error.
#[derive(Debug, Clone)]
pub struct RunError {
    /// Global grid index of the failed cell.
    pub index: usize,
    /// Workload name.
    pub workload: String,
    /// Policy.
    pub policy: PolicyKind,
    /// Replicate number.
    pub replicate: u64,
    /// The simulation error, or the panic payload for panics.
    pub message: String,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "run #{} ({} under {}, replicate {}): {}",
            self.index, self.workload, self.policy, self.replicate, self.message
        )
    }
}

impl std::error::Error for RunError {}

/// The aggregated sweep, in grid order regardless of completion order.
#[derive(Debug, Clone, Default)]
pub struct SweepResult {
    /// Successful runs, ordered by grid index.
    pub records: Vec<RunRecord>,
    /// Failed runs, ordered by grid index.
    pub errors: Vec<RunError>,
}

impl SweepResult {
    /// Digest of the entire sweep: folds every cell's index and run
    /// digest (or error message). Equal digests ⇔ behaviourally
    /// identical sweeps.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a64::new();
        let mut r = self.records.iter().peekable();
        let mut e = self.errors.iter().peekable();
        // Merge the two index-sorted streams so interleaving of
        // successes and failures does not depend on storage.
        loop {
            let take_record = match (r.peek(), e.peek()) {
                (Some(rec), Some(err)) => rec.index < err.index,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_record {
                let rec = r.next().unwrap();
                h.write_usize(rec.index).write_u64(rec.digest);
            } else {
                let err = e.next().unwrap();
                h.write_usize(err.index).write_str(&err.message);
            }
        }
        h.finish()
    }

    /// View the successful runs as [`PolicyRun`]s for the figure
    /// assembly helpers (`headline_figures` & friends).
    pub fn policy_runs(&self) -> Vec<PolicyRun> {
        self.records
            .iter()
            .map(|r| PolicyRun {
                workload: r.workload.clone(),
                policy: r.policy,
                result: r.result.clone(),
            })
            .collect()
    }
}

/// Execute the grid under the paper-default simulator configuration.
pub fn run_sweep(grid: &SweepGrid, opts: &RunnerOptions) -> SweepResult {
    run_sweep_configured(grid, opts, |cell| SimConfig::paper_default(cell.policy))
}

/// Execute the grid with a caller-built [`SimConfig`] per cell (the
/// runner still overrides `jitter_seed` with the derived stream).
pub fn run_sweep_configured<F>(grid: &SweepGrid, opts: &RunnerOptions, configure: F) -> SweepResult
where
    F: Fn(&RunConfig) -> SimConfig + Sync,
{
    // Global indices this invocation actually executes.
    let mine: Vec<usize> = (0..grid.len())
        .filter(|&i| opts.shard.is_none_or(|s| s.covers(i)))
        .collect();
    let outcomes = run_pool(mine.len(), opts.threads, |pos| {
        let global = mine[pos];
        let cell = &grid.cells()[global];
        let jitter_seed = SplitMix64::derive_stream(opts.root_seed, global as u64);
        let cfg = configure(cell).with_jitter_seed(jitter_seed);
        SystemSim::new(cfg, &cell.workload).run().map(|result| {
            let digest = result.digest();
            RunRecord {
                index: global,
                workload: cell.workload.name.clone(),
                policy: cell.policy,
                replicate: cell.replicate,
                jitter_seed,
                result,
                digest,
            }
        })
    });

    let mut result = SweepResult::default();
    for (&global, outcome) in mine.iter().zip(outcomes) {
        match outcome.and_then(|run| run) {
            Ok(rec) => result.records.push(rec),
            Err(message) => {
                let cell = &grid.cells()[global];
                result.errors.push(RunError {
                    index: global,
                    workload: cell.workload.name.clone(),
                    policy: cell.policy,
                    replicate: cell.replicate,
                    message,
                });
            }
        }
    }
    result
}

/// Run `job(i)` for every `i` in `0..n` on up to `threads` scoped
/// workers (`0` = all available cores) and return the results in index
/// order. Workers claim indices from a shared cursor and write each
/// result into that index's own slot, so the output never depends on
/// the worker count or on completion order. A job that panics yields
/// `Err` with the panic message; the other jobs still run.
pub fn run_pool<T, F>(n: usize, threads: usize, job: F) -> Vec<Result<T, String>>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = (if threads == 0 { auto } else { threads }).clamp(1, n.max(1));
    let slots: Vec<OnceLock<Result<T, String>>> = (0..n).map(|_| OnceLock::new()).collect();
    // The cursor only hands out distinct indices; results are published
    // by the slots and the scope's join, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else {
                    break;
                };
                let out = catch_unwind(AssertUnwindSafe(|| job(i)))
                    .map_err(|payload| panic_message(payload.as_ref()));
                // Index `i` was claimed by this worker alone, so the
                // slot is still empty.
                let _ = slot.set(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("the cursor hands every index to exactly one worker")
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{mb, SiteId};
    use rda_machine::ReuseLevel;
    use rda_workloads::{Phase, ProcessProgram};

    fn spec(name: &str, procs: usize, ws_mb: f64, instr: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            processes: (0..procs)
                .map(|_| ProcessProgram {
                    threads: 1,
                    phases: vec![Phase::tracked(
                        "k",
                        instr,
                        mb(ws_mb),
                        ReuseLevel::High,
                        SiteId(0),
                    )],
                })
                .collect(),
        }
    }

    fn small_grid() -> SweepGrid {
        SweepGrid::cross(
            &[spec("a", 3, 2.0, 4_000_000), spec("b", 2, 6.0, 3_000_000)],
            &[PolicyKind::DefaultOnly, PolicyKind::Strict],
            2,
        )
    }

    #[test]
    fn grid_order_is_workload_major() {
        let g = small_grid();
        assert_eq!(g.len(), 2 * 2 * 2);
        assert_eq!(g.cells()[0].workload.name, "a");
        assert_eq!(g.cells()[0].policy, PolicyKind::DefaultOnly);
        assert_eq!(g.cells()[0].replicate, 0);
        assert_eq!(g.cells()[1].replicate, 1);
        assert_eq!(g.cells()[2].policy, PolicyKind::Strict);
        assert_eq!(g.cells()[4].workload.name, "b");
    }

    #[test]
    fn serial_and_parallel_sweeps_are_bit_identical() {
        let g = small_grid();
        let serial = run_sweep(&g, &RunnerOptions::serial());
        let parallel = run_sweep(
            &g,
            &RunnerOptions {
                threads: 4,
                ..RunnerOptions::default()
            },
        );
        assert!(serial.errors.is_empty());
        assert_eq!(serial.records.len(), parallel.records.len());
        for (s, p) in serial.records.iter().zip(&parallel.records) {
            assert_eq!(s.index, p.index);
            assert_eq!(s.digest, p.digest, "cell #{} diverged", s.index);
        }
        assert_eq!(serial.digest(), parallel.digest());
    }

    #[test]
    fn replicates_observe_independent_streams() {
        let g = small_grid();
        let r = run_sweep(&g, &RunnerOptions::serial());
        // Replicates 0 and 1 of the same cell must differ in their
        // jitter stream (else replication would be pointless)…
        assert_ne!(r.records[0].jitter_seed, r.records[1].jitter_seed);
        // …but physics keeps the work identical.
        assert_eq!(
            r.records[0].result.measurement.counters.instructions,
            r.records[1].result.measurement.counters.instructions
        );
    }

    #[test]
    fn root_seed_changes_streams_deterministically() {
        let g = small_grid();
        let a = run_sweep(&g, &RunnerOptions::serial());
        let b = run_sweep(&g, &RunnerOptions::serial());
        assert_eq!(a.digest(), b.digest(), "same root seed must reproduce");
        let c = run_sweep(
            &g,
            &RunnerOptions {
                threads: 1,
                root_seed: 999,
                ..RunnerOptions::default()
            },
        );
        assert_ne!(
            a.records[0].jitter_seed, c.records[0].jitter_seed,
            "root seed must reach every cell's stream"
        );
    }

    #[test]
    fn shards_partition_and_compose() {
        let g = small_grid();
        let full = run_sweep(&g, &RunnerOptions::serial());
        let mut merged: Vec<RunRecord> = Vec::new();
        for index in 0..3 {
            let shard = run_sweep(
                &g,
                &RunnerOptions {
                    threads: 2,
                    shard: Some(Shard { index, count: 3 }),
                    ..RunnerOptions::default()
                },
            );
            merged.extend(shard.records);
        }
        merged.sort_by_key(|r| r.index);
        assert_eq!(merged.len(), full.records.len());
        for (m, f) in merged.iter().zip(&full.records) {
            assert_eq!(m.index, f.index);
            assert_eq!(m.digest, f.digest, "shard cell #{} diverged", m.index);
        }
    }

    #[test]
    fn shard_parsing() {
        assert_eq!(Shard::parse("0/4"), Ok(Shard { index: 0, count: 4 }));
        assert_eq!(Shard::parse("3/4"), Ok(Shard { index: 3, count: 4 }));
        assert!(Shard::parse("4/4").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
        assert!(Shard::parse("0/0").is_err());
    }

    #[test]
    fn panicking_cell_becomes_a_structured_error() {
        let mut g = small_grid();
        // A process with zero threads trips SystemSim::new's assert.
        let mut bad = spec("bad", 1, 1.0, 1_000_000);
        bad.processes[0].threads = 0;
        g.push(RunConfig {
            workload: bad,
            policy: PolicyKind::Strict,
            replicate: 0,
        });
        let r = run_sweep(&g, &RunnerOptions { threads: 3, ..RunnerOptions::default() });
        assert_eq!(r.errors.len(), 1, "exactly the bad cell fails");
        let err = &r.errors[0];
        assert_eq!(err.workload, "bad");
        assert_eq!(err.index, g.len() - 1);
        assert!(err.message.contains("panic"), "{}", err.message);
        // Every other cell still completed.
        assert_eq!(r.records.len(), g.len() - 1);
    }

    #[test]
    fn policy_runs_feed_figure_assembly() {
        let g = SweepGrid::cross(
            &[spec("w", 2, 1.0, 2_000_000)],
            &[PolicyKind::DefaultOnly, PolicyKind::Strict],
            1,
        );
        let r = run_sweep(&g, &RunnerOptions::default());
        let figs = crate::experiment::headline_figures(&r.policy_runs());
        assert_eq!(figs[0].series.len(), 2);
        assert_eq!(figs[0].categories(), vec!["w".to_string()]);
    }

    #[test]
    fn empty_grid_yields_empty_result() {
        let r = run_sweep(&SweepGrid::new(), &RunnerOptions::default());
        assert!(r.records.is_empty() && r.errors.is_empty());
        // Digest of emptiness is still stable.
        assert_eq!(r.digest(), SweepResult::default().digest());
    }
}
