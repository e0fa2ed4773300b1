//! The twelve BLAS kernels of Table 2, implemented for real.
//!
//! * [`level1`] — daxpy, dcopy, dscal, dswap (vector-vector, low reuse)
//! * [`level2`] — dgemv (N/T), dtrmv, dtrsv (matrix-vector, medium reuse)
//! * [`level3`] — dgemm, dsyrk, dtrmm(ru), dtrsm(ru) (matrix-matrix,
//!   high reuse; blocked variants keep the working set LLC-resident,
//!   exactly as the paper tunes its kernels)
//!
//! All matrices are dense, row-major, `n × n`, `f64`. The plain-slice
//! functions are the reference implementations; [`level1::daxpy_traced`]
//! and [`level3::dgemm_traced`] additionally replay daxpy and dgemm on
//! instrumented buffers, emitting the load/store/loop-branch trace the
//! profiler consumes (§2.4); the `model_vs_trace` integration test
//! replays dgemm's through the functional cache.

pub mod level1;
pub mod level2;
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
