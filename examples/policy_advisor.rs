//! Policy advisor: the paper's conclusion, automated.
//!
//! §6: *"the traditional scheduling policy would be used for memory
//! bound applications to maximize concurrency; our resource demand
//! aware scheduling policies would be used for programs that have at
//! least a moderate level of data reuse."* This example inspects a
//! workload's declared demands, predicts which policy should win using
//! the machine model (no simulation), then validates the prediction by
//! simulating all three policies.
//!
//! ```bash
//! cargo run --release -p rda-examples --bin policy_advisor
//! ```

use rda_core::PolicyKind;
use rda_machine::{MachineConfig, PerfModel, ReuseLevel};
use rda_sim::experiment::{paper_policies, run_policy};
use rda_workloads::spec::all_workloads;
use rda_workloads::WorkloadSpec;

/// A model-only recommendation (no simulation): gate when the
/// workload's co-run pressure would thrash the LLC *and* its reuse is
/// at least medium.
fn recommend(spec: &WorkloadSpec, machine: &MachineConfig) -> PolicyKind {
    let model = PerfModel::new(machine.clone());
    // Estimate default-policy pressure: one process per core competes.
    let mut tracked = Vec::new();
    for proc in &spec.processes {
        for ph in &proc.phases {
            if let Some(pp) = &ph.pp {
                tracked.push((pp.demand.amount, pp.demand.reuse));
            }
        }
    }
    if tracked.is_empty() {
        return PolicyKind::DefaultOnly;
    }
    let mean_ws: u64 = tracked.iter().map(|&(w, _)| w).sum::<u64>() / tracked.len() as u64;
    let max_reuse = tracked.iter().map(|&(_, r)| r).max().unwrap();
    let distinct_corunners = spec.num_processes().min(machine.cores);
    let pressure = mean_ws * distinct_corunners as u64;

    if max_reuse == ReuseLevel::Low || pressure <= machine.llc_bytes {
        return PolicyKind::DefaultOnly;
    }
    // Gate. Strict when admitted processes still cover the cores
    // (threads ≥ cores); otherwise trade some cache for concurrency.
    let admitted_procs = (machine.llc_bytes / mean_ws.max(1)).max(1) as usize;
    let threads_per_proc = spec.processes[0].threads;
    let model_says_strict = admitted_procs * threads_per_proc >= machine.cores / 2;
    let _ = &model; // the share/rate API is available for finer advice
    if model_says_strict {
        PolicyKind::Strict
    } else {
        PolicyKind::compromise_default()
    }
}

fn main() {
    let machine = MachineConfig::xeon_e5_2420();
    println!(
        "{:<10} {:>22}   {:>22}   verdict",
        "workload", "recommended", "best simulated"
    );
    println!("{}", "-".repeat(78));
    let mut hits = 0;
    let mut total = 0;
    for spec in all_workloads() {
        let rec = recommend(&spec, &machine);
        // Validate by simulation: best = highest GFLOPS/W.
        let mut best: Option<(PolicyKind, f64)> = None;
        let mut default_eff = 0.0;
        for policy in paper_policies() {
            let run = run_policy(&spec, policy);
            let eff = run.result.measurement.gflops_per_watt();
            if policy == PolicyKind::DefaultOnly {
                default_eff = eff;
            }
            if best.is_none_or(|(_, b)| eff > b) {
                best = Some((policy, eff));
            }
        }
        let (best_policy, best_eff) = best.unwrap();
        // "Default" is the right answer whenever gating gains < 5 %.
        let effective_best = if best_eff < default_eff * 1.05 {
            PolicyKind::DefaultOnly
        } else {
            best_policy
        };
        let hit = std::mem::discriminant(&rec) == std::mem::discriminant(&effective_best);
        hits += hit as u32;
        total += 1;
        println!(
            "{:<10} {:>22}   {:>22}   {}",
            spec.name,
            rec.to_string(),
            effective_best.to_string(),
            if hit { "✓" } else { "✗" }
        );
    }
    println!("\nadvisor agreement with simulation: {hits}/{total}");
}
