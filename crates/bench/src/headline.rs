//! Shared driver for the Figures 7–10 experiments.
//!
//! All four headline figures come from the same 8 workloads × 3
//! policies sweep; this module runs the grid through the parallel
//! sweep runner (`rda_sim::runner`) once and hands each `exp_fig*`
//! binary its slice. Results are a pure function of the root seed —
//! thread count and completion order cannot change them.

use crate::cli::SweepArgs;
use crate::traceout::TraceBundle;
use rda_metrics::FigureData;
use rda_sim::experiment::{headline_figures, paper_policies, PolicyRun};
use rda_sim::runner::{run_sweep_configured, RunError, RunnerOptions, SweepGrid, SweepResult};
use rda_sim::SimConfig;
use rda_workloads::spec::all_workloads;

/// The completed sweep.
pub struct HeadlineResults {
    /// Every (workload × policy) observation of the workloads whose
    /// three policies all ran, in grid order.
    pub runs: Vec<PolicyRun>,
    /// Figures 7, 8, 9, 10 in order, over `runs`.
    pub figures: [FigureData; 4],
    /// Digest of the underlying sweep, failed cells included (for
    /// determinism checks).
    pub digest: u64,
    /// The failed cells, in grid order (empty when every cell ran).
    pub errors: Vec<RunError>,
}

/// The headline configuration grid: 8 workloads × 3 policies, one
/// replicate per cell.
pub fn headline_grid() -> SweepGrid {
    SweepGrid::cross(&all_workloads(), &paper_policies(), 1)
}

/// Run the full sweep with explicit runner options.
pub fn headline_runs_with(opts: &RunnerOptions) -> HeadlineResults {
    headline_runs_cli(&SweepArgs {
        runner: *opts,
        trace_out: None,
    })
}

/// Run the full sweep as the shared `exp_*` CLI specifies: honours the
/// runner options, and when `--trace-out` was given, executes every
/// cell with tracing on (digest-neutral) and writes the merged Chrome
/// trace-event document before returning.
pub fn headline_runs_cli(args: &SweepArgs) -> HeadlineResults {
    let tracing = args.tracing();
    let sweep: SweepResult = run_sweep_configured(&headline_grid(), &args.runner, |cell| {
        let cfg = SimConfig::paper_default(cell.policy);
        if tracing {
            cfg.with_trace()
        } else {
            cfg
        }
    });
    if let Some(path) = &args.trace_out {
        let mut bundle = TraceBundle::new();
        bundle.add_records("", &sweep.records);
        bundle.write_or_die(path);
    }
    collect(sweep)
}

/// The figures over every workload whose three policies all ran, with
/// the failed cells beside them.
fn collect(sweep: SweepResult) -> HeadlineResults {
    let digest = sweep.digest();
    let runs: Vec<PolicyRun> = sweep
        .policy_runs()
        .into_iter()
        .filter(|run| sweep.errors.iter().all(|e| e.workload != run.workload))
        .collect();
    let figures = headline_figures(&runs);
    HeadlineResults {
        runs,
        figures,
        digest,
        errors: sweep.errors,
    }
}

/// Run the full sweep with default options (all cores, default root
/// seed).
pub fn headline_runs() -> HeadlineResults {
    headline_runs_with(&RunnerOptions::default())
}

impl HeadlineResults {
    /// Figure 7 (system energy).
    pub fn fig7(&self) -> &FigureData {
        &self.figures[0]
    }

    /// Figure 8 (DRAM energy).
    pub fn fig8(&self) -> &FigureData {
        &self.figures[1]
    }

    /// Figure 9 (GFLOPS).
    pub fn fig9(&self) -> &FigureData {
        &self.figures[2]
    }

    /// Figure 10 (GFLOPS/W).
    pub fn fig10(&self) -> &FigureData {
        &self.figures[3]
    }

    /// If a cell failed, print one `FAILED` line per failed cell and the
    /// `sweep digest:` line, then exit 1. The `exp_*` binaries call it
    /// after printing their figures.
    pub fn exit_on_failure(&self) {
        if let Some(report) = self.failure_report() {
            println!("{report}");
            std::process::exit(1);
        }
    }

    /// What [`Self::exit_on_failure`] prints, or `None` when every cell
    /// ran.
    fn failure_report(&self) -> Option<String> {
        if self.errors.is_empty() {
            return None;
        }
        let mut lines: Vec<String> = self.errors.iter().map(|e| format!("FAILED: {e}")).collect();
        lines.push(format!("sweep digest: {:#018x}", self.digest));
        Some(lines.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{mb, PolicyKind, SiteId};
    use rda_machine::ReuseLevel;
    use rda_workloads::{Phase, ProcessProgram, WorkloadSpec};

    #[test]
    fn sweep_covers_all_cells() {
        let r = headline_runs();
        assert_eq!(r.runs.len(), 8 * 3);
        for fig in &r.figures {
            assert_eq!(fig.categories().len(), 8, "{}", fig.id);
            assert_eq!(fig.series.len(), 3, "{}", fig.id);
        }
    }

    #[test]
    fn a_failed_cell_is_reported_beside_the_complete_workloads() {
        let spec = |name: &str| WorkloadSpec {
            name: name.into(),
            processes: vec![ProcessProgram {
                threads: 1,
                phases: vec![Phase::tracked(
                    "k",
                    2_000_000,
                    mb(1.0),
                    ReuseLevel::High,
                    SiteId(0),
                )],
            }],
        };
        let grid = SweepGrid::cross(&[spec("a"), spec("b")], &paper_policies(), 1);
        // One cell's machine has no cores, which `SystemSim::new`
        // refuses: grid index 4, workload b under Strict.
        let sweep = run_sweep_configured(&grid, &RunnerOptions::serial(), |cell| {
            let mut cfg = SimConfig::paper_default(cell.policy);
            if cell.workload.name == "b" && cell.policy == PolicyKind::Strict {
                cfg.machine.cores = 0;
            }
            cfg
        });
        let digest = sweep.digest();
        let r = collect(sweep);
        assert_eq!(r.digest, digest);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.runs.len(), 3);
        for fig in &r.figures {
            assert_eq!(fig.categories(), ["a"], "{}", fig.id);
            assert_eq!(fig.series.len(), 3, "{}", fig.id);
        }
        let report = r.failure_report().expect("a cell failed");
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 2, "{report}");
        assert!(
            lines[0].starts_with("FAILED: run #4 (b under RDA: Strict, replicate 0): panic: "),
            "{report}"
        );
        assert_eq!(lines[1], format!("sweep digest: {digest:#018x}"));
    }
}
