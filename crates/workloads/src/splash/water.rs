//! Water: molecular dynamics on water-like point molecules, SPLASH-2's
//! n-squared variant.
//!
//! Every pair of molecules within a cutoff interacts (`O(N²)` scans).
//! Each molecule's state is re-read `N−1` times per timestep: *high*
//! temporal reuse, the paper's flagship beneficiary. (The cell-list
//! water-spatial variant, *low* reuse, exists only as its Table 2
//! progress periods in [`crate::spec::water_sp`].)
//!
//! The per-molecule state is 36 doubles (position/velocity/force and
//! two predictor-corrector derivative triples for three atoms' worth of
//! state — SPLASH water carries similar per-molecule arrays), i.e.
//! 288 bytes: 8 000 molecules ≈ 2.3 MB of hot data, in line with the
//! Table 2 working sets.
//!
//! Timestep phases (each a progress-period candidate): `predict` →
//! `interf` (forces) → `correct`. The run is traced only: it brackets
//! each phase with a distinct loop id so the profiler can find them.

#![allow(clippy::needless_range_loop)] // forces (i, j, d) loops that index several arrays at once

use crate::trace::{AddressSpace, TraceRecorder, TracedBuf};
use rda_simcore::Xoshiro256;

/// Doubles of state per molecule.
pub const DOUBLES_PER_MOL: usize = 36;

const DT: f64 = 1e-3;

/// Lennard-Jones-flavoured pair force within the cutoff. The magnitude
/// is capped symmetrically (same cap for both partners), which
/// preserves Newton's third law while keeping the integrator stable at
/// close approach.
fn pair_force(dr: &[f64; 3], r2: f64) -> [f64; 3] {
    let inv = 1.0 / (r2 + 1e-4);
    let inv3 = inv * inv * inv;
    let mag = (24.0 * inv3 * (2.0 * inv3 - 1.0) * inv).clamp(-1e3, 1e3);
    [dr[0] * mag, dr[1] * mag, dr[2] * mag]
}

/// Minimum-image separation along one axis of the unit periodic box.
fn min_image(a: f64, b: f64) -> f64 {
    let mut d = a - b;
    if d > 0.5 {
        d -= 1.0;
    } else if d < -0.5 {
        d += 1.0;
    }
    d
}

/// Loop ids emitted by the traced run (profiler anchors).
pub mod loops {
    /// Predict phase loop.
    pub const PREDICT: u32 = 10;
    /// Pairwise force phase outer loop.
    pub const INTERF: u32 = 11;
    /// Correct phase loop.
    pub const CORRECT: u32 = 12;
}

/// Traced n-squared water: one timestep over `molecules` molecules on
/// instrumented buffers (positions + velocities + forces + aux live in
/// one 36-doubles-per-molecule buffer). Returns a checksum.
///
/// The trace contains the three phase loops with distinct ids, so the
/// profiler's window detector plus loop mapper can recover the phase
/// structure (§2.4, Figure 12).
pub fn run_nsquared_traced(molecules: usize, cutoff: f64, rec: &TraceRecorder) -> f64 {
    let mut space = AddressSpace::new();
    let mut state = space.alloc(molecules * DOUBLES_PER_MOL, rec);
    // Layout per molecule: [0..3) pos, [3..6) vel, [6..9) force,
    // [9..36) aux.
    let mut rng = Xoshiro256::new(7);
    for i in 0..molecules {
        let b = i * DOUBLES_PER_MOL;
        for d in 0..3 {
            state.init(b + d, rng.next_f64());
            state.init(b + 3 + d, rng.next_gaussian(0.0, 0.05));
        }
    }
    let cutoff2 = cutoff * cutoff;

    // predict
    for i in 0..molecules {
        let b = i * DOUBLES_PER_MOL;
        for d in 0..3 {
            let p = state.get(b + d) + state.get(b + 3 + d) * DT;
            state.set(b + d, p - p.floor());
        }
        rec.loop_branch(loops::PREDICT);
    }
    // interf (n²)
    for i in 0..molecules {
        let bi = i * DOUBLES_PER_MOL;
        let pi = [state.get(bi), state.get(bi + 1), state.get(bi + 2)];
        for j in (i + 1)..molecules {
            let bj = j * DOUBLES_PER_MOL;
            let pj = [state.get(bj), state.get(bj + 1), state.get(bj + 2)];
            let dr = [
                min_image(pi[0], pj[0]),
                min_image(pi[1], pj[1]),
                min_image(pi[2], pj[2]),
            ];
            let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
            if r2 < cutoff2 {
                let f = pair_force(&dr, r2);
                for d in 0..3 {
                    let fi = state.get(bi + 6 + d) + f[d];
                    state.set(bi + 6 + d, fi);
                    let fj = state.get(bj + 6 + d) - f[d];
                    state.set(bj + 6 + d, fj);
                }
            }
        }
        rec.loop_branch(loops::INTERF);
    }
    // correct
    let mut checksum = 0.0;
    for i in 0..molecules {
        let b = i * DOUBLES_PER_MOL;
        for d in 0..3 {
            let v = (state.get(b + 3 + d) + state.get(b + 6 + d) * DT).clamp(-1.0, 1.0);
            state.set(b + 3 + d, v);
            checksum += 0.5 * v * v;
        }
        rec.loop_branch(loops::CORRECT);
    }
    let _ = TracedBuf::len(&state);
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forces_balance_by_newtons_third_law() {
        // The pair force is odd in the separation, so each pair adds
        // equal and opposite forces to its two molecules.
        let mut rng = Xoshiro256::new(1);
        for _ in 0..1_000 {
            let dr = [
                rng.next_range_f64(-0.5, 0.5),
                rng.next_range_f64(-0.5, 0.5),
                rng.next_range_f64(-0.5, 0.5),
            ];
            let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
            let f = pair_force(&dr, r2);
            let g = pair_force(&[-dr[0], -dr[1], -dr[2]], r2);
            assert_eq!(g, [-f[0], -f[1], -f[2]], "dr = {dr:?}");
        }
    }

    #[test]
    fn traced_run_emits_phase_loops_and_quadratic_interf() {
        let rec = TraceRecorder::new();
        let n = 24;
        run_nsquared_traced(n, 0.5, &rec);
        let t = rec.take();
        use crate::trace::TraceRecord;
        let count = |id: u32| {
            t.records()
                .iter()
                .filter(|r| matches!(r, TraceRecord::LoopBranch(x) if *x == id))
                .count()
        };
        assert_eq!(count(loops::PREDICT), n);
        assert_eq!(count(loops::INTERF), n);
        assert_eq!(count(loops::CORRECT), n);
        // The interf phase reads at least 3 position loads per pair.
        assert!(t.memory_ops() > 3 * n * (n - 1) / 2);
    }

    #[test]
    fn traced_footprint_scales_with_molecules() {
        // Distinct addresses touched should grow ~linearly in N — the
        // property Figure 12's WSS curves rest on.
        let distinct = |n: usize| {
            let rec = TraceRecorder::new();
            run_nsquared_traced(n, 0.5, &rec);
            let t = rec.take();
            let set: std::collections::HashSet<u64> = t
                .records()
                .iter()
                .filter_map(|r| r.address().map(|a| a / 64))
                .collect();
            set.len()
        };
        let d32 = distinct(32);
        let d64 = distinct(64);
        assert!(d64 > d32 + d32 / 2, "footprint didn't grow: {d32} → {d64}");
    }
}
