//! The phase/program vocabulary the full-system simulator executes.
//!
//! A **process program** is a sequence of **phases**. Each phase gives
//! every thread of the process a quota of instructions with a common
//! access profile; phase boundaries are barriers (all threads finish a
//! phase before any enters the next — the SPLASH-2 timestep structure).
//! A phase may be bracketed by a **progress period**: the process calls
//! `pp_begin` with the phase's demand before the work and `pp_end`
//! after it. Untracked phases run directly on the default scheduler —
//! the paper's rule for regions with blocking synchronisation (§3.4).

use rda_core::{PpDemand, SiteId};
use rda_machine::{AccessProfile, ReuseLevel};

/// One phase of a process program.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Human-readable phase label (e.g. `"dgemm"`, `"intraf"`).
    pub name: String,
    /// Instructions each thread executes in this phase.
    pub instr_per_thread: u64,
    /// Memory behaviour of the phase.
    pub profile: AccessProfile,
    /// Progress-period declaration, if the phase is tracked.
    pub pp: Option<PpPhase>,
}

/// The progress-period declaration of a tracked phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpPhase {
    /// Static site id of the `pp_begin`/`pp_end` pair.
    pub site: SiteId,
    /// The declared demand.
    pub demand: PpDemand,
}

impl Phase {
    /// A tracked phase whose declared demand matches its true profile
    /// (the paper's instrumented benchmarks declare accurately).
    pub fn tracked(
        name: impl Into<String>,
        instr_per_thread: u64,
        ws_bytes: u64,
        reuse: ReuseLevel,
        site: SiteId,
    ) -> Self {
        Phase {
            name: name.into(),
            instr_per_thread,
            profile: AccessProfile::typical(ws_bytes, reuse),
            pp: Some(PpPhase {
                site,
                demand: PpDemand::llc(ws_bytes, reuse),
            }),
        }
    }

    /// An untracked phase (scheduled by the default policy only).
    pub fn untracked(
        name: impl Into<String>,
        instr_per_thread: u64,
        ws_bytes: u64,
        reuse: ReuseLevel,
    ) -> Self {
        Phase {
            name: name.into(),
            instr_per_thread,
            profile: AccessProfile::typical(ws_bytes, reuse),
            pp: None,
        }
    }

    /// FLOPs one thread retires in this phase.
    pub fn flops_per_thread(&self) -> u64 {
        (self.instr_per_thread as f64 * self.profile.flop_frac) as u64
    }
}

/// A process: its thread count and phase sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessProgram {
    /// Number of threads the process spawns.
    pub threads: usize,
    /// The phases, executed in order with barrier semantics.
    pub phases: Vec<Phase>,
}

impl ProcessProgram {
    /// Total instructions across all threads and phases.
    pub fn total_instructions(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.instr_per_thread * self.threads as u64)
            .sum()
    }

    /// Total FLOPs across all threads and phases.
    pub fn total_flops(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.flops_per_thread() * self.threads as u64)
            .sum()
    }
}

/// A complete workload: a named set of processes (one Table 2 row).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name as the figures label it (e.g. `"BLAS-3"`).
    pub name: String,
    /// The processes launched together.
    pub processes: Vec<ProcessProgram>,
}

impl WorkloadSpec {
    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.processes.len()
    }

    /// Total FLOPs the workload retires.
    pub fn total_flops(&self) -> u64 {
        self.processes.iter().map(ProcessProgram::total_flops).sum()
    }

    /// Distinct working-set sizes declared by tracked phases, in first
    /// appearance order (Table 2's "Work-set sizes" column).
    pub fn declared_working_sets(&self) -> Vec<u64> {
        let mut seen = Vec::new();
        for proc in &self.processes {
            for ph in &proc.phases {
                if let Some(pp) = &ph.pp {
                    if !seen.contains(&pp.demand.amount) {
                        seen.push(pp.demand.amount);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::mb;

    fn program() -> ProcessProgram {
        ProcessProgram {
            threads: 2,
            phases: vec![
                Phase::tracked("a", 1000, mb(1.0), ReuseLevel::High, SiteId(0)),
                Phase::untracked("sync", 10, mb(0.1), ReuseLevel::Low),
                Phase::tracked("b", 2000, mb(2.0), ReuseLevel::Medium, SiteId(1)),
            ],
        }
    }

    #[test]
    fn totals_account_threads_and_phases() {
        let p = program();
        assert_eq!(p.total_instructions(), 2 * (1000 + 10 + 2000));
        let expected_flops = 2 * (p.phases[0].flops_per_thread()
            + p.phases[1].flops_per_thread()
            + p.phases[2].flops_per_thread());
        assert_eq!(p.total_flops(), expected_flops);
    }

    #[test]
    fn tracked_phase_declares_its_profile() {
        let ph = Phase::tracked("x", 100, mb(3.0), ReuseLevel::High, SiteId(4));
        let pp = ph.pp.unwrap();
        assert_eq!(pp.demand.amount, mb(3.0));
        assert_eq!(pp.site, SiteId(4));
        assert_eq!(ph.profile.ws_bytes, mb(3.0));
    }

    #[test]
    fn untracked_phase_has_no_pp() {
        assert!(Phase::untracked("s", 1, 1, ReuseLevel::Low).pp.is_none());
    }

    #[test]
    fn workload_aggregates() {
        let w = WorkloadSpec {
            name: "test".into(),
            processes: vec![program(), program(), program()],
        };
        assert_eq!(w.num_processes(), 3);
        assert_eq!(w.declared_working_sets(), vec![mb(1.0), mb(2.0)]);
    }
}
