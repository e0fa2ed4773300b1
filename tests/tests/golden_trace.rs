//! Golden-trace regression harness.
//!
//! A checked-in digest pins the exact behaviour of the full stack —
//! workload generation, CFS substrate, RDA gating, the analytical
//! machine model, and energy integration. Any change to simulated
//! behaviour (however subtle) flips the digest and fails this test,
//! turning silent behavioural drift into an explicit diff.
//!
//! If you changed the simulator *on purpose*, update the constant:
//! the failure message prints the new value.

use rda_sim::experiment::paper_policies;
use rda_sim::runner::{run_sweep, RunnerOptions, SweepGrid};
use rda_workloads::spec::all_workloads;

/// Expected digest of the golden grid below under root seed 42.
/// FNV-1a over every run's `RunResult::digest()` in grid order.
///
/// Updated for PR 2: `RunResult::digest()` now also hashes the four
/// recovery counters (`reclaimed`, `clamped`, `aged_admissions`,
/// `rejected_ends`); they are all zero on this clean grid, but their
/// presence in the hash stream changes the value. Run behaviour
/// (counters, energy, wall-clock) is unchanged from the seed.
///
/// Updated for PR 7: the hash stream gained the four overload-control
/// counters (`shed`, `expired`, `retried`, `breaker_trips`) — again
/// all zero on this grid (no `OverloadConfig`), so only the stream
/// shape changed, not run behaviour.
const GOLDEN_SWEEP_DIGEST: u64 = 0x90c9_83d2_3898_845c;

#[test]
fn golden_sweep_digest_is_stable() {
    // The cheapest real workload under all three paper policies: small
    // enough for CI, deep enough to cover every layer.
    let specs = all_workloads();
    let grid = SweepGrid::cross(&specs[..1], &paper_policies(), 1);
    let sweep = run_sweep(
        &grid,
        &RunnerOptions {
            root_seed: 42,
            ..RunnerOptions::default()
        },
    );
    assert!(sweep.errors.is_empty(), "{:?}", sweep.errors);
    let digest = sweep.digest();
    assert_eq!(
        digest, GOLDEN_SWEEP_DIGEST,
        "golden sweep digest changed: got {digest:#018x}, expected \
         {GOLDEN_SWEEP_DIGEST:#018x}. If the simulator's behaviour was \
         changed intentionally, update GOLDEN_SWEEP_DIGEST."
    );
}

/// The digest must also be insensitive to thread count (the golden
/// value would otherwise depend on the CI machine).
#[test]
fn golden_digest_is_thread_count_invariant() {
    let specs = all_workloads();
    let grid = SweepGrid::cross(&specs[..1], &paper_policies(), 1);
    let opts = |threads| RunnerOptions {
        threads,
        root_seed: 42,
    };
    let one = run_sweep(&grid, &opts(1));
    let three = run_sweep(&grid, &opts(3));
    assert_eq!(one.digest(), three.digest());
}
