//! Table 2's BLAS workloads, as far as the profiler traces them.
//!
//! * [`level1`] — daxpy (vector-vector, low reuse)
//! * [`level3`] — dgemm (matrix-matrix, high reuse)
//!
//! All matrices are dense, row-major, `n × n`, `f64`. Each kernel comes
//! plain, the reference, and traced: [`level1::daxpy_traced`] and
//! [`level3::dgemm_traced`] replay it on instrumented buffers, emitting
//! the load/store/loop-branch trace the profiler consumes (§2.4); the
//! `model_vs_trace` integration test replays dgemm's through the
//! functional cache. The scheduler never runs these kernels:
//! [`crate::spec`] describes all three BLAS workloads of Table 2 (the
//! twelve kernels) by their progress periods.

pub mod level1;
pub mod level3;

/// Row-major index helper.
#[inline]
pub(crate) fn at(n: usize, i: usize, j: usize) -> usize {
    i * n + j
}

/// Deterministic pseudo-random matrix/vector fill for tests and traces.
pub fn fill_test_data(data: &mut [f64], seed: u64) {
    let mut rng = rda_simcore::SplitMix64::new(seed);
    for x in data.iter_mut() {
        *x = rng.next_f64() * 2.0 - 1.0;
    }
}
