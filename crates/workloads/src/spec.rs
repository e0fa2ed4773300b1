//! The eight workloads of Table 2.
//!
//! | Workload   | #Proc | #Thr/Proc | Work-set sizes (MB)    | Reuse |
//! |------------|-------|-----------|------------------------|-------|
//! | BLAS-1     | 96    | 1         | 0.6                    | low   |
//! | BLAS-2     | 96    | 1         | 0.6                    | med   |
//! | BLAS-3     | 96    | 1         | 1.6, 2.4, 2.4, 3.2     | high  |
//! | Water_sp   | 12    | 2         | 1.6, 1.3, 1.3, 1.6     | low   |
//! | Water_nsq  | 12    | 2         | 3.6, 3.6, 3.7          | high  |
//! | Ocean_cp   | 48    | 2         | 2.1, 0.76, 1.5, 0.59   | high/med mix |
//! | Raytrace   | 48    | 4         | 5.1, 5.2               | high  |
//! | Volrend    | 48    | 4         | 1.8, 1.7               | high  |
//!
//! Instruction budgets are not in the paper; they are calibrated so each
//! workload runs for seconds of simulated time (hundreds of scheduler
//! timeslices), long enough for steady-state contention to dominate.
//! SPLASH workloads repeat their per-timestep phase sequence several
//! times with short untracked synchronisation phases in between
//! (progress periods must not contain blocking synchronisation, §3.4).

use crate::phases::{Phase, ProcessProgram, WorkloadSpec};
use rda_core::{mb, SiteId};
use rda_machine::ReuseLevel;
use rda_metrics::TextTable;

/// Instructions per BLAS level-1/2 kernel invocation.
const BLAS12_INSTR: u64 = 150_000_000;
/// Instructions per BLAS level-3 kernel invocation.
const BLAS3_INSTR: u64 = 500_000_000;
/// Instructions per SPLASH phase per thread.
const SPLASH_PHASE_INSTR: u64 = 120_000_000;
/// Instructions in an untracked synchronisation phase per thread.
const SYNC_INSTR: u64 = 2_000_000;
/// Timesteps a SPLASH process executes.
const SPLASH_TIMESTEPS: usize = 4;

fn blas_workload(
    name: &str,
    procs: usize,
    ws_mb: &[f64],
    reuse: ReuseLevel,
    instr: u64,
) -> WorkloadSpec {
    let processes = (0..procs)
        .map(|i| {
            let ws = mb(ws_mb[i % ws_mb.len()]);
            ProcessProgram {
                threads: 1,
                phases: vec![Phase::tracked(
                    format!("{name}-kernel{}", i % ws_mb.len()),
                    instr,
                    ws,
                    reuse,
                    SiteId((i % ws_mb.len()) as u32),
                )],
            }
        })
        .collect();
    WorkloadSpec {
        name: name.to_string(),
        processes,
    }
}

fn splash_workload(
    name: &str,
    procs: usize,
    threads: usize,
    phase_ws_mb: &[f64],
    phase_reuse: &[ReuseLevel],
    timesteps: usize,
) -> WorkloadSpec {
    assert_eq!(phase_ws_mb.len(), phase_reuse.len());
    let processes = (0..procs)
        .map(|_| {
            let mut phases = Vec::new();
            for ts in 0..timesteps {
                for (k, (&ws, &reuse)) in phase_ws_mb.iter().zip(phase_reuse).enumerate() {
                    phases.push(Phase::tracked(
                        format!("{name}-pp{k}-ts{ts}"),
                        SPLASH_PHASE_INSTR,
                        mb(ws),
                        reuse,
                        SiteId(k as u32),
                    ));
                }
                // Barrier / reduction phase between timesteps: contains
                // blocking synchronisation, so it is left untracked and
                // scheduled by the default policy (§3.4).
                phases.push(Phase::untracked(
                    format!("{name}-sync-ts{ts}"),
                    SYNC_INSTR,
                    mb(0.05),
                    ReuseLevel::Low,
                ));
            }
            ProcessProgram { threads, phases }
        })
        .collect();
    WorkloadSpec {
        name: name.to_string(),
        processes,
    }
}

/// BLAS-1: daxpy, dcopy, dscal, dswap (vector-vector, minimal reuse).
pub fn blas1() -> WorkloadSpec {
    blas_workload("BLAS-1", 96, &[0.6], ReuseLevel::Low, BLAS12_INSTR)
}

/// BLAS-2: dgemvN, dgemvT, dtrmv, dtrsv (matrix-vector, medium reuse).
pub fn blas2() -> WorkloadSpec {
    blas_workload("BLAS-2", 96, &[0.6], ReuseLevel::Medium, BLAS12_INSTR)
}

/// BLAS-3: dgemm, dsyrk, dtrmm(ru), dtrsm(ru) (matrix-matrix, high
/// reuse; the four kernels have working sets 1.6/2.4/2.4/3.2 MB).
pub fn blas3() -> WorkloadSpec {
    blas_workload(
        "BLAS-3",
        96,
        &[1.6, 2.4, 2.4, 3.2],
        ReuseLevel::High,
        BLAS3_INSTR,
    )
}

/// Water-spatial: 12 × 2 threads, low-reuse phases.
pub fn water_sp() -> WorkloadSpec {
    splash_workload(
        "Water_sp",
        12,
        2,
        &[1.6, 1.3, 1.3, 1.6],
        &[ReuseLevel::Low; 4],
        SPLASH_TIMESTEPS,
    )
}

/// Water-nsquared: 12 × 2 threads, high-reuse phases.
pub fn water_nsq() -> WorkloadSpec {
    splash_workload(
        "Water_nsq",
        12,
        2,
        &[3.6, 3.6, 3.7],
        &[ReuseLevel::High; 3],
        SPLASH_TIMESTEPS,
    )
}

/// Ocean-cp: 48 × 2 threads, mixed high/medium reuse phases.
pub fn ocean_cp() -> WorkloadSpec {
    splash_workload(
        "Ocean_cp",
        48,
        2,
        &[2.1, 0.76, 1.5, 0.59],
        &[
            ReuseLevel::High,
            ReuseLevel::Medium,
            ReuseLevel::High,
            ReuseLevel::Medium,
        ],
        SPLASH_TIMESTEPS,
    )
}

/// Raytrace: 48 × 4 threads, two large high-reuse phases.
pub fn raytrace() -> WorkloadSpec {
    splash_workload(
        "Raytrace",
        48,
        4,
        &[5.1, 5.2],
        &[ReuseLevel::High; 2],
        SPLASH_TIMESTEPS,
    )
}

/// Volrend: 48 × 4 threads, two smaller high-reuse phases.
pub fn volrend() -> WorkloadSpec {
    splash_workload(
        "Volrend",
        48,
        4,
        &[1.8, 1.7],
        &[ReuseLevel::High; 2],
        SPLASH_TIMESTEPS,
    )
}

/// All eight workloads in the order the figures present them.
pub fn all_workloads() -> Vec<WorkloadSpec> {
    vec![
        blas1(),
        blas2(),
        blas3(),
        water_sp(),
        water_nsq(),
        ocean_cp(),
        raytrace(),
        volrend(),
    ]
}

/// Render Table 2 from the actual specs.
pub fn table2() -> String {
    let mut t = rda_metrics_table();
    for w in all_workloads() {
        let procs = w.num_processes();
        let threads = w.processes[0].threads;
        let wss: Vec<String> = w
            .declared_working_sets()
            .iter()
            .map(|&b| format!("{:.2}", b as f64 / (1024.0 * 1024.0)))
            .collect();
        let reuse: Vec<String> = {
            let mut seen = Vec::new();
            for ph in &w.processes[0].phases {
                if let Some(pp) = &ph.pp {
                    let s = pp.demand.reuse.to_string();
                    if !seen.contains(&s) {
                        seen.push(s);
                    }
                }
            }
            seen
        };
        t.add_row(vec![
            w.name.clone(),
            procs.to_string(),
            threads.to_string(),
            wss.join(", "),
            reuse.join(", "),
        ]);
    }
    t.render()
}

fn rda_metrics_table() -> TextTable {
    TextTable::new(vec![
        "Workload".into(),
        "#Proc".into(),
        "#Threads/Proc".into(),
        "Work-set sizes (MB)".into(),
        "Data Reuses".into(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_process_and_thread_counts_match_paper() {
        let cases = [
            ("BLAS-1", 96, 1),
            ("BLAS-2", 96, 1),
            ("BLAS-3", 96, 1),
            ("Water_sp", 12, 2),
            ("Water_nsq", 12, 2),
            ("Ocean_cp", 48, 2),
            ("Raytrace", 48, 4),
            ("Volrend", 48, 4),
        ];
        let all = all_workloads();
        assert_eq!(all.len(), cases.len());
        for ((name, procs, threads), w) in cases.iter().zip(&all) {
            assert_eq!(&w.name, name);
            assert_eq!(w.num_processes(), *procs, "{name}");
            assert_eq!(w.processes[0].threads, *threads, "{name}");
        }
    }

    #[test]
    fn working_sets_match_table2() {
        assert_eq!(
            blas3().declared_working_sets(),
            vec![mb(1.6), mb(2.4), mb(3.2)]
        );
        assert_eq!(water_nsq().declared_working_sets(), vec![mb(3.6), mb(3.7)]);
        assert_eq!(raytrace().declared_working_sets(), vec![mb(5.1), mb(5.2)]);
    }

    #[test]
    fn splash_programs_interleave_sync_phases() {
        let w = water_nsq();
        let phases = &w.processes[0].phases;
        // 3 tracked + 1 untracked per timestep.
        assert_eq!(phases.len(), 4 * SPLASH_TIMESTEPS);
        assert!(phases[0].pp.is_some());
        assert!(phases[3].pp.is_none(), "sync phase must be untracked");
    }

    #[test]
    fn blas3_mixes_four_kernels() {
        let w = blas3();
        let sites: std::collections::HashSet<u32> = w
            .processes
            .iter()
            .map(|p| p.phases[0].pp.unwrap().site.0)
            .collect();
        assert_eq!(sites.len(), 4);
    }

    #[test]
    fn reuse_levels_match_table2() {
        assert_eq!(
            blas1().processes[0].phases[0].pp.unwrap().demand.reuse,
            ReuseLevel::Low
        );
        assert_eq!(
            blas2().processes[0].phases[0].pp.unwrap().demand.reuse,
            ReuseLevel::Medium
        );
        assert_eq!(
            volrend().processes[0].phases[0].pp.unwrap().demand.reuse,
            ReuseLevel::High
        );
    }

    #[test]
    fn table2_renders_all_rows() {
        let s = table2();
        for name in [
            "BLAS-1",
            "BLAS-2",
            "BLAS-3",
            "Water_sp",
            "Water_nsq",
            "Ocean_cp",
            "Raytrace",
            "Volrend",
        ] {
            assert!(s.contains(name), "missing {name}:\n{s}");
        }
        assert!(s.contains("5.10, 5.20"), "raytrace working sets:\n{s}");
    }
}
