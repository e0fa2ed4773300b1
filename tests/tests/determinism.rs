//! The tentpole guarantee of the sweep runner: results are a pure
//! function of (grid, root seed). Serial and multi-threaded executions
//! of the Figure 9 grid produce bit-identical digests.

use rda_bench::headline::headline_grid;
use rda_sim::runner::{run_sweep, RunnerOptions};

/// Serial vs 8-thread execution of the full headline (Figure 9) grid:
/// every per-run digest and the sweep digest must match bit-for-bit.
#[test]
fn figure9_grid_serial_vs_parallel_bit_identical() {
    let grid = headline_grid();
    let serial = run_sweep(&grid, &RunnerOptions::serial());
    let parallel = run_sweep(
        &grid,
        &RunnerOptions {
            threads: 8,
            ..RunnerOptions::default()
        },
    );
    assert!(serial.errors.is_empty(), "{:?}", serial.errors);
    assert!(parallel.errors.is_empty(), "{:?}", parallel.errors);
    assert_eq!(serial.records.len(), grid.len());
    for (s, p) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(s.index, p.index);
        assert_eq!(
            s.digest, p.digest,
            "cell #{} ({} under {}) diverged between serial and parallel",
            s.index, s.workload, s.policy
        );
    }
    assert_eq!(serial.digest(), parallel.digest());
}
