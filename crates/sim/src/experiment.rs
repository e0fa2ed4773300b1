//! Measurement loops for the headline experiments (Figures 7–10).
//!
//! The paper runs every workload under three policies — Linux default,
//! RDA:Strict, RDA:Compromise(×2) — and reports system energy, DRAM
//! energy, GFLOPS, and GFLOPS/W. [`run_workload`] produces one
//! [`PolicyRun`] per policy; [`headline_figures`] turns a set of runs
//! into the four figures' data.

use crate::config::SimConfig;
use crate::system::{RunResult, SystemSim};
use rda_core::PolicyKind;
use rda_metrics::FigureData;
use rda_workloads::WorkloadSpec;

/// The three policies of the evaluation, in legend order.
pub fn paper_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::DefaultOnly,
        PolicyKind::Strict,
        PolicyKind::compromise_default(),
    ]
}

/// One workload × one policy observation.
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// Workload name (figure category).
    pub workload: String,
    /// Policy (figure series).
    pub policy: PolicyKind,
    /// The simulation outcome.
    pub result: RunResult,
}

/// Run one workload under one policy.
pub fn run_policy(spec: &WorkloadSpec, policy: PolicyKind) -> PolicyRun {
    let cfg = SimConfig::paper_default(policy);
    let result = SystemSim::new(cfg, spec)
        .run()
        .unwrap_or_else(|e| panic!("{} under {policy}: {e}", spec.name));
    PolicyRun {
        workload: spec.name.clone(),
        policy,
        result,
    }
}

/// Run one workload under all three paper policies.
pub fn run_workload(spec: &WorkloadSpec) -> Vec<PolicyRun> {
    paper_policies()
        .into_iter()
        .map(|p| run_policy(spec, p))
        .collect()
}

/// Assemble Figures 7, 8, 9 and 10 from a set of policy runs.
pub fn headline_figures(runs: &[PolicyRun]) -> [FigureData; 4] {
    let mut fig7 = FigureData::new(
        "Figure 7",
        "System (CPU + cache + DRAM) energy by workload and policy",
        "J",
    );
    let mut fig8 = FigureData::new("Figure 8", "DRAM energy by workload and policy", "J");
    let mut fig9 = FigureData::new("Figure 9", "Performance by workload and policy", "GFLOPS");
    let mut fig10 = FigureData::new(
        "Figure 10",
        "System energy efficiency by workload and policy",
        "GFLOPS/W",
    );
    for run in runs {
        let series = run.policy.to_string();
        let m = &run.result.measurement;
        fig7.add(&series, &run.workload, m.system_joules());
        fig8.add(&series, &run.workload, m.dram_joules());
        fig9.add(&series, &run.workload, m.gflops());
        fig10.add(&series, &run.workload, m.gflops_per_watt());
    }
    [fig7, fig8, fig9, fig10]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::mb;
    use rda_machine::ReuseLevel;
    use rda_workloads::{Phase, ProcessProgram};

    fn quick_spec(name: &str, procs: usize, ws_mb: f64, reuse: ReuseLevel) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            processes: (0..procs)
                .map(|_| ProcessProgram {
                    threads: 1,
                    phases: vec![Phase::tracked(
                        "k",
                        20_000_000,
                        mb(ws_mb),
                        reuse,
                        rda_core::SiteId(0),
                    )],
                })
                .collect(),
        }
    }

    #[test]
    fn three_policies_per_workload() {
        let spec = quick_spec("w", 4, 2.0, ReuseLevel::High);
        let runs = run_workload(&spec);
        assert_eq!(runs.len(), 3);
        let names: Vec<String> = runs.iter().map(|r| r.policy.to_string()).collect();
        assert!(names[0].contains("Default"));
        assert!(names[1].contains("Strict"));
        assert!(names[2].contains("Compromise"));
    }

    #[test]
    fn figures_are_fully_populated() {
        let mut all = Vec::new();
        for spec in [
            quick_spec("alpha", 3, 1.0, ReuseLevel::Low),
            quick_spec("beta", 3, 5.0, ReuseLevel::High),
        ] {
            all.extend(run_workload(&spec));
        }
        let figs = headline_figures(&all);
        for fig in &figs {
            assert_eq!(fig.series.len(), 3, "{}", fig.id);
            assert_eq!(
                fig.categories(),
                vec!["alpha".to_string(), "beta".to_string()]
            );
            for s in &fig.series {
                assert_eq!(s.points.len(), 2);
                assert!(s.points.iter().all(|&(_, v)| v > 0.0), "{}", fig.id);
            }
        }
    }

    #[test]
    fn efficiency_figure_is_consistent_with_energy_and_perf() {
        let spec = quick_spec("w", 2, 1.0, ReuseLevel::Medium);
        let runs = run_workload(&spec);
        let figs = headline_figures(&runs);
        for run in &runs {
            let series = run.policy.to_string();
            let gflops = figs[2].get(&series, "w").unwrap();
            let joules = figs[0].get(&series, "w").unwrap();
            let eff = figs[3].get(&series, "w").unwrap();
            let flops = run.result.measurement.counters.flops as f64;
            assert!((eff - flops / joules / 1e9).abs() < 1e-9);
            assert!(gflops > 0.0);
        }
    }
}
