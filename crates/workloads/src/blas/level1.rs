//! BLAS level 1: daxpy, a vector-vector operation with minimal reuse.
//!
//! Table 2's BLAS-1 workload (four vector-vector kernels) touches each
//! element O(1) times, so the cache sees a pure stream — the class of
//! code the paper's scheduler should leave to the default policy.
//! [`daxpy_traced`] records that stream for the profiler; [`daxpy`] is
//! its plain reference.

use crate::trace::{AddressSpace, TraceRecorder};

/// `y ← α·x + y`.
pub fn daxpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Traced daxpy on instrumented buffers: one loop (id 0), one load of
/// `x[i]`, one load + one store of `y[i]` per iteration.
pub fn daxpy_traced(n: usize, alpha: f64, rec: &TraceRecorder) -> f64 {
    let mut space = AddressSpace::new();
    let mut x = space.alloc(n, rec);
    let mut y = space.alloc(n, rec);
    for i in 0..n {
        x.init(i, i as f64 * 0.5);
        y.init(i, 1.0);
    }
    for i in 0..n {
        let v = y.get(i) + alpha * x.get(i);
        y.set(i, v);
        rec.loop_branch(0);
    }
    (0..n).map(|i| y.peek(i)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;

    #[test]
    fn daxpy_matches_definition() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        daxpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    fn traced_daxpy_result_matches_plain() {
        let rec = TraceRecorder::new();
        let n = 64;
        let traced_sum = daxpy_traced(n, 2.0, &rec);
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let mut y = vec![1.0; n];
        daxpy(2.0, &x, &mut y);
        let plain_sum: f64 = y.iter().sum();
        assert!((traced_sum - plain_sum).abs() < 1e-9);
    }

    #[test]
    fn traced_daxpy_emits_three_memops_per_element() {
        let rec = TraceRecorder::new();
        let n = 32;
        daxpy_traced(n, 1.0, &rec);
        let t = rec.take();
        assert_eq!(t.memory_ops(), 3 * n);
        let branches = t
            .records()
            .iter()
            .filter(|r| matches!(r, TraceRecord::LoopBranch(0)))
            .count();
        assert_eq!(branches, n);
    }
}
