//! BLAS level 3: dgemm, a matrix-matrix operation with high reuse.
//!
//! dgemm is one of the four kernels of Table 2's BLAS-3 workload.
//! [`dgemm_traced`] replays dgemm on instrumented buffers with loop
//! back-edge markers for the three nest levels — the input of the
//! profiler's loop mapping and of the `model_vs_trace` cross-check;
//! [`dgemm_naive`] is its plain reference.

use super::at;
use crate::trace::{AddressSpace, TraceRecorder};

/// `C ← α·A·B + β·C`, naive triple loop, row-major `n × n`.
pub fn dgemm_naive(n: usize, alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64]) {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    assert_eq!(c.len(), n * n);
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a[at(n, i, k)] * b[at(n, k, j)];
            }
            c[at(n, i, j)] = alpha * acc + beta * c[at(n, i, j)];
        }
    }
}

/// Traced naive dgemm: three nested loops with back-edge markers
/// (loop ids 0 = outer `i`, 1 = middle `j`, 2 = inner `k`), every
/// element access recorded. Returns a checksum of `C`.
pub fn dgemm_traced(n: usize, rec: &TraceRecorder) -> f64 {
    let mut space = AddressSpace::new();
    let mut a = space.alloc(n * n, rec);
    let mut b = space.alloc(n * n, rec);
    let mut c = space.alloc(n * n, rec);
    for i in 0..n * n {
        a.init(i, (i % 7) as f64 * 0.25);
        b.init(i, (i % 5) as f64 * 0.5);
        c.init(i, 0.0);
    }
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a.get(at(n, i, k)) * b.get(at(n, k, j));
                rec.loop_branch(2);
            }
            c.set(at(n, i, j), acc);
            rec.loop_branch(1);
        }
        rec.loop_branch(0);
    }
    (0..n * n).map(|i| c.peek(i)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::fill_test_data;

    fn rand_mat(n: usize, seed: u64) -> Vec<f64> {
        let mut m = vec![0.0; n * n];
        fill_test_data(&mut m, seed);
        m
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn dgemm_identity() {
        let n = 8;
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[at(n, i, i)] = 1.0;
        }
        let b = rand_mat(n, 1);
        let mut c = vec![0.0; n * n];
        dgemm_naive(n, 1.0, &eye, &b, 0.0, &mut c);
        assert_close(&c, &b, 1e-12);
    }

    #[test]
    fn traced_dgemm_matches_plain() {
        let n = 12;
        let rec = TraceRecorder::new();
        let sum = dgemm_traced(n, &rec);
        // Recompute plainly with the same init pattern.
        let mut a = vec![0.0; n * n];
        let mut b = vec![0.0; n * n];
        for i in 0..n * n {
            a[i] = (i % 7) as f64 * 0.25;
            b[i] = (i % 5) as f64 * 0.5;
        }
        let mut c = vec![0.0; n * n];
        dgemm_naive(n, 1.0, &a, &b, 0.0, &mut c);
        let expect: f64 = c.iter().sum();
        assert!((sum - expect).abs() < 1e-9);
    }

    #[test]
    fn traced_dgemm_record_counts() {
        let n = 6;
        let rec = TraceRecorder::new();
        dgemm_traced(n, &rec);
        let t = rec.take();
        // Per (i,j,k): 2 loads; per (i,j): 1 store.
        assert_eq!(t.memory_ops(), 2 * n * n * n + n * n);
        use crate::trace::TraceRecord;
        let count = |id: u32| {
            t.records()
                .iter()
                .filter(|r| matches!(r, TraceRecord::LoopBranch(x) if *x == id))
                .count()
        };
        assert_eq!(count(0), n);
        assert_eq!(count(1), n * n);
        assert_eq!(count(2), n * n * n);
    }
}
