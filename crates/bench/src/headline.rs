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
use rda_sim::runner::{run_sweep_configured, RunnerOptions, SweepGrid, SweepResult};
use rda_sim::SimConfig;
use rda_workloads::spec::all_workloads;

/// The completed sweep.
pub struct HeadlineResults {
    /// Every (workload × policy) observation, in grid order.
    pub runs: Vec<PolicyRun>,
    /// Figures 7, 8, 9, 10 in order.
    pub figures: [FigureData; 4],
    /// Digest of the underlying sweep (for determinism checks).
    pub digest: u64,
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
    if let Some(err) = sweep.errors.first() {
        panic!("headline sweep failed: {err}");
    }
    if let Some(path) = &args.trace_out {
        let mut bundle = TraceBundle::new();
        bundle.add_records("", &sweep.records);
        bundle.write_or_die(path);
    }
    let digest = sweep.digest();
    let runs = sweep.policy_runs();
    let figures = headline_figures(&runs);
    HeadlineResults {
        runs,
        figures,
        digest,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_cells() {
        let r = headline_runs();
        assert_eq!(r.runs.len(), 8 * 3);
        for fig in &r.figures {
            assert_eq!(fig.categories().len(), 8, "{}", fig.id);
            assert_eq!(fig.series.len(), 3, "{}", fig.id);
        }
    }
}
