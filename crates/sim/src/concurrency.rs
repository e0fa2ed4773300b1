//! The Figure 13 interference study.
//!
//! The paper takes the largest progress period of water_nsquared and
//! runs 1, 6, or 12 concurrent instances at four input sizes (512,
//! 3375, 8000, 32768 molecules), measuring aggregate GFLOPS:
//!
//! * small inputs scale almost linearly to 12 instances;
//! * 8000 molecules scales to 6 (working sets just fit together) and
//!   then *drops* at 12 (LLC thrash);
//! * 32768 molecules is memory-bound by 6 instances and stays flat.
//!
//! Working sets follow the measured per-molecule state size
//! (36 doubles = 288 B — see `rda_workloads::splash::water`), and the
//! instruction count scales with the O(N²) force phase.

use crate::config::SimConfig;
use crate::system::SystemSim;
use rda_core::{PolicyKind, SiteId};
use rda_machine::ReuseLevel;
use rda_metrics::FigureData;
use rda_workloads::splash::water::DOUBLES_PER_MOL;
use rda_workloads::{Phase, ProcessProgram, WorkloadSpec};

/// The paper's input sizes (molecules).
pub const INPUTS: [usize; 4] = [512, 3375, 8000, 32768];
/// The paper's concurrency levels.
pub const INSTANCES: [usize; 3] = [1, 6, 12];

/// Working set of the largest water_nsquared progress period at a
/// given molecule count: the full per-molecule state.
pub fn working_set_bytes(molecules: usize) -> u64 {
    (molecules * DOUBLES_PER_MOL * 8) as u64
}

/// Instructions of one interf progress period: the O(N²) pair scan,
/// normalised so the 8000-molecule input does ~400 M instructions.
pub fn interf_instructions(molecules: usize) -> u64 {
    let pairs = molecules as f64 * molecules as f64 / 2.0;
    let scale = 400e6 / (8000.0 * 8000.0 / 2.0);
    (pairs * scale).max(1e6) as u64
}

fn spec(molecules: usize, instances: usize) -> WorkloadSpec {
    let ws = working_set_bytes(molecules);
    // Very large inputs stop being cache-resident: the pair scan's
    // reuse distance (one full pass over all molecules) exceeds any
    // achievable LLC share, so the phase behaves as a stream.
    let reuse = if ws > 8 * 1024 * 1024 {
        ReuseLevel::Low
    } else {
        ReuseLevel::High
    };
    WorkloadSpec {
        name: format!("wnsq-{molecules}x{instances}"),
        processes: (0..instances)
            .map(|_| ProcessProgram {
                threads: 1,
                phases: vec![Phase::tracked(
                    "interf",
                    interf_instructions(molecules),
                    ws,
                    reuse,
                    SiteId(0),
                )],
            })
            .collect(),
    }
}

/// One cell of the Figure 13 matrix.
#[derive(Debug, Clone)]
pub struct InterferencePoint {
    /// Molecule count.
    pub molecules: usize,
    /// Concurrent instances.
    pub instances: usize,
    /// Aggregate achieved GFLOPS.
    pub gflops: f64,
}

/// Run the interference matrix under the default (ungated) policy —
/// the paper studies raw co-run interference here, not the RDA fix.
pub fn interference_study() -> Vec<InterferencePoint> {
    interference_study_for(&INPUTS, &INSTANCES)
}

/// Parameterised variant for tests and sweeps.
pub fn interference_study_for(inputs: &[usize], instances: &[usize]) -> Vec<InterferencePoint> {
    let mut out = Vec::new();
    for &m in inputs {
        for &k in instances {
            let w = spec(m, k);
            let r = SystemSim::new(SimConfig::paper_default(PolicyKind::DefaultOnly), &w)
                .run()
                .expect("interference run must complete");
            out.push(InterferencePoint {
                molecules: m,
                instances: k,
                gflops: r.measurement.gflops(),
            });
        }
    }
    out
}

/// Figure 13 data: one series per instance count, categories = input
/// size.
pub fn figure13(points: &[InterferencePoint]) -> FigureData {
    let mut fig = FigureData::new(
        "Figure 13",
        "water_nsquared largest period: aggregate GFLOPS vs input size and concurrency",
        "GFLOPS",
    );
    for p in points {
        fig.add(
            &format!("{} instance(s)", p.instances),
            &p.molecules.to_string(),
            p.gflops,
        );
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gflops(points: &[InterferencePoint], m: usize, k: usize) -> f64 {
        points
            .iter()
            .find(|p| p.molecules == m && p.instances == k)
            .unwrap()
            .gflops
    }

    #[test]
    fn working_sets_match_molecule_state() {
        // 8000 molecules × 288 B ≈ 2.2 MB: six instances fit the 15 MB
        // LLC together, twelve do not — the Figure 13 knee.
        let ws = working_set_bytes(8000);
        assert_eq!(ws, 8000 * 288);
        assert!(6 * ws < 15_360 * 1024);
        assert!(12 * ws > 15_360 * 1024);
    }

    #[test]
    fn small_input_scales_to_twelve() {
        let pts = interference_study_for(&[512], &[1, 6, 12]);
        let g1 = gflops(&pts, 512, 1);
        let g12 = gflops(&pts, 512, 12);
        assert!(g12 > 8.0 * g1, "512 molecules must scale: {g1} → {g12}");
    }

    #[test]
    fn eight_thousand_drops_from_six_to_twelve() {
        let pts = interference_study_for(&[8000], &[6, 12]);
        let g6 = gflops(&pts, 8000, 6);
        let g12 = gflops(&pts, 8000, 12);
        assert!(
            g12 < g6,
            "the paper's knee: 12 instances thrash the LLC ({g6} → {g12})"
        );
    }

    #[test]
    fn largest_input_is_memory_bound_by_six() {
        let pts = interference_study_for(&[32768], &[6, 12]);
        let g6 = gflops(&pts, 32768, 6);
        let g12 = gflops(&pts, 32768, 12);
        assert!(
            g12 < g6 * 1.25,
            "32768 molecules must plateau: {g6} → {g12}"
        );
    }
}
