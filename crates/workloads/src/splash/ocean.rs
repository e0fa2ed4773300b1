//! Ocean: red-black successive over-relaxation on a square grid.
//!
//! `ocean_cp` spends its time in multigrid relaxation sweeps over
//! several `n × n` fields. We implement the core relax/residual phases
//! on a single level: a red-black Gauss-Seidel (SOR) solver for
//! `∇²u = f` with Dirichlet boundaries. Phase structure per iteration:
//! `relax-red` → `relax-black` → `residual` — the `slave2`/`relax`
//! functions the paper's §6 discusses map onto exactly this kind of
//! phase sequence.

use crate::trace::{AddressSpace, TraceRecorder};

/// Solver parameters.
#[derive(Debug, Clone, Copy)]
pub struct OceanParams {
    /// Grid edge length (including boundary).
    pub n: usize,
    /// SOR over-relaxation factor (1.0 = Gauss-Seidel).
    pub omega: f64,
    /// Sweeps to run.
    pub iterations: usize,
}

impl OceanParams {
    /// A small, fast configuration for tests.
    pub fn test_small() -> Self {
        OceanParams {
            n: 34,
            omega: 1.5,
            iterations: 50,
        }
    }
}

/// The solver state: solution grid `u` and right-hand side `f`.
pub struct OceanSim {
    n: usize,
    omega: f64,
    u: Vec<f64>,
    f: Vec<f64>,
}

impl OceanSim {
    /// Initialise with zero interior, `sin`-bump RHS, and a hot west
    /// boundary (gives a non-trivial solution).
    pub fn new(p: &OceanParams) -> Self {
        let n = p.n;
        let mut u = vec![0.0; n * n];
        let mut f = vec![0.0; n * n];
        for i in 0..n {
            u[i * n] = 1.0; // west boundary
        }
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let x = i as f64 / n as f64;
                let y = j as f64 / n as f64;
                f[i * n + j] = (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin();
            }
        }
        OceanSim {
            n,
            omega: p.omega,
            u,
            f,
        }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.n + j
    }

    fn sweep_color(&mut self, color: usize) {
        let n = self.n;
        let h2 = 1.0 / ((n - 1) as f64 * (n - 1) as f64);
        for i in 1..n - 1 {
            let start = 1 + (i + color) % 2;
            let mut j = start;
            while j < n - 1 {
                let id = self.idx(i, j);
                let nb = self.u[self.idx(i - 1, j)]
                    + self.u[self.idx(i + 1, j)]
                    + self.u[self.idx(i, j - 1)]
                    + self.u[self.idx(i, j + 1)];
                let gs = 0.25 * (nb - h2 * self.f[id]);
                self.u[id] += self.omega * (gs - self.u[id]);
                j += 2;
            }
        }
    }

    /// L2 norm of the residual `∇²u − f` over the interior.
    pub fn residual(&self) -> f64 {
        let n = self.n;
        let inv_h2 = ((n - 1) as f64) * ((n - 1) as f64);
        let mut acc = 0.0;
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let lap = (self.u[self.idx(i - 1, j)]
                    + self.u[self.idx(i + 1, j)]
                    + self.u[self.idx(i, j - 1)]
                    + self.u[self.idx(i, j + 1)]
                    - 4.0 * self.u[self.idx(i, j)])
                    * inv_h2;
                let r = lap - self.f[self.idx(i, j)];
                acc += r * r;
            }
        }
        acc.sqrt()
    }

    /// Run the configured sweeps; returns the final residual norm.
    pub fn run(&mut self, iterations: usize) -> f64 {
        for _ in 0..iterations {
            self.sweep_color(0); // red
            self.sweep_color(1); // black
        }
        self.residual()
    }

    /// Working-set bytes of the solver (two `n × n` f64 grids).
    pub fn working_set_bytes(&self) -> u64 {
        (2 * self.n * self.n * 8) as u64
    }
}

/// Loop ids emitted by the traced run.
pub mod loops {
    /// Red sweep row loop.
    pub const RED: u32 = 20;
    /// Black sweep row loop.
    pub const BLACK: u32 = 21;
    /// Residual row loop.
    pub const RESIDUAL: u32 = 22;
}

/// One traced red-black sweep + residual over an `n × n` grid on
/// instrumented buffers; returns the residual norm.
pub fn run_traced(n: usize, omega: f64, rec: &TraceRecorder) -> f64 {
    let mut space = AddressSpace::new();
    let mut u = space.alloc(n * n, rec);
    let mut f = space.alloc(n * n, rec);
    for i in 0..n {
        u.init(i * n, 1.0);
    }
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            let x = i as f64 / n as f64;
            let y = j as f64 / n as f64;
            f.init(
                i * n + j,
                (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin(),
            );
        }
    }
    let h2 = 1.0 / ((n - 1) as f64 * (n - 1) as f64);
    for (color, loop_id) in [(0usize, loops::RED), (1usize, loops::BLACK)] {
        for i in 1..n - 1 {
            let mut j = 1 + (i + color) % 2;
            while j < n - 1 {
                let id = i * n + j;
                let nb = u.get(id - n) + u.get(id + n) + u.get(id - 1) + u.get(id + 1);
                let gs = 0.25 * (nb - h2 * f.get(id));
                let cur = u.get(id);
                u.set(id, cur + omega * (gs - cur));
                j += 2;
            }
            rec.loop_branch(loop_id);
        }
    }
    let inv_h2 = ((n - 1) as f64) * ((n - 1) as f64);
    let mut acc = 0.0;
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            let id = i * n + j;
            let lap = (u.get(id - n) + u.get(id + n) + u.get(id - 1) + u.get(id + 1)
                - 4.0 * u.get(id))
                * inv_h2;
            let r = lap - f.get(id);
            acc += r * r;
        }
        rec.loop_branch(loops::RESIDUAL);
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sor_reduces_the_residual() {
        let p = OceanParams::test_small();
        let mut sim = OceanSim::new(&p);
        let before = sim.residual();
        let after = sim.run(p.iterations);
        assert!(after < before * 0.2, "no convergence: {before} → {after}");
    }

    #[test]
    fn boundaries_are_preserved() {
        let p = OceanParams::test_small();
        let mut sim = OceanSim::new(&p);
        sim.run(10);
        for i in 0..p.n {
            assert_eq!(sim.u[i * p.n], 1.0, "west boundary row {i}");
            assert_eq!(sim.u[i * p.n + p.n - 1], 0.0, "east boundary row {i}");
        }
    }

    #[test]
    fn more_iterations_converge_further() {
        let p = OceanParams::test_small();
        let r10 = OceanSim::new(&p).run(10);
        let r100 = OceanSim::new(&p).run(100);
        assert!(r100 < r10);
    }

    #[test]
    fn working_set_matches_grid_size() {
        let p = OceanParams {
            n: 512,
            ..OceanParams::test_small()
        };
        let sim = OceanSim::new(&p);
        assert_eq!(sim.working_set_bytes(), 2 * 512 * 512 * 8);
    }

    #[test]
    fn traced_sweep_touches_both_grids() {
        let rec = TraceRecorder::new();
        let n = 18;
        run_traced(n, 1.5, &rec);
        let t = rec.take();
        let distinct: std::collections::HashSet<u64> =
            t.records().iter().filter_map(|r| r.address()).collect();
        // Interior of u (read+written) + f (read) + boundary reads.
        assert!(distinct.len() > (n - 2) * (n - 2));
        use crate::trace::TraceRecord;
        let reds = t
            .records()
            .iter()
            .filter(|r| matches!(r, TraceRecord::LoopBranch(x) if *x == loops::RED))
            .count();
        assert_eq!(reds, n - 2);
    }

    #[test]
    fn traced_and_plain_residuals_agree() {
        let n = 20;
        let rec = TraceRecorder::new();
        let traced = run_traced(n, 1.5, &rec);
        let mut sim = OceanSim::new(&OceanParams {
            n,
            omega: 1.5,
            iterations: 1,
        });
        let plain = sim.run(1);
        assert!((traced - plain).abs() < 1e-9, "{traced} vs {plain}");
    }
}
