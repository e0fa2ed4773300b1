//! Fault-injection sweep: graceful degradation under misbehaving
//! processes (PR 2 robustness experiment; no paper figure).
//!
//! Sweeps fault rate × policy over the paper's eight workloads with
//! the recovery machinery enabled (demand auditing, waitlist aging,
//! exit-time reclamation) and reports how much recovery work each cell
//! needed plus the throughput that survived. Every cell derives its
//! fault plan from its own seed stream, so the printed digest is
//! bit-identical for any `--threads` value — CI pins 1 vs 8. A failed
//! cell is reported on a `FAILED` line after its rate's rows and
//! folded into the digest; the binary then exits 1.
//!
//! ```bash
//! cargo run --release -p rda-bench --bin exp_faults -- --threads 8
//! ```

use rda_bench::{sweep_args_from_env, TraceBundle};
use rda_core::{DemandAudit, PolicyKind};
use rda_sim::runner::{run_sweep_configured, SweepGrid};
use rda_sim::{FaultConfig, SimConfig};
use rda_simcore::Fnv1a64;
use rda_workloads::spec::all_workloads;

const RATES: [f64; 4] = [0.0, 0.05, 0.15, 0.30];

fn main() {
    let args = sweep_args_from_env();
    let opts = args.runner;
    let tracing = args.tracing();
    let mut bundle = TraceBundle::new();
    let specs = all_workloads();
    let policies = [PolicyKind::Strict, PolicyKind::compromise_default()];
    let grid = SweepGrid::cross(&specs, &policies, 1);

    println!(
        "Fault-injection sweep — {} workloads × {} policies × {} fault rates",
        specs.len(),
        policies.len(),
        RATES.len()
    );
    println!();
    println!(
        "{:<8} {:<22} {:>9} {:>9} {:>8} {:>9} {:>9} {:>10} {:>9}",
        "rate", "policy", "reclaimed", "clamped", "aged", "rej.ends", "resumed", "GFLOPS", "joules"
    );

    let mut digest = Fnv1a64::new();
    let mut failed = false;
    for rate in RATES {
        let sweep = run_sweep_configured(&grid, &opts, |cell| {
            let cfg = SimConfig::paper_default(cell.policy)
                .with_demand_audit(DemandAudit::Clamp)
                .with_waitlist_timeout_ms(5.0)
                .with_faults(FaultConfig::uniform(rate));
            if tracing {
                cfg.with_trace()
            } else {
                cfg
            }
        });
        bundle.add_records(&format!("rate{rate:.2}:"), &sweep.records);
        digest.write_u64(rate.to_bits()).write_u64(sweep.digest());

        for policy in policies {
            let cells: Vec<_> = sweep
                .records
                .iter()
                .filter(|r| r.policy == policy)
                .collect();
            if cells.is_empty() {
                continue;
            }
            let sum = |f: &dyn Fn(&rda_core::RdaStats) -> u64| -> u64 {
                cells.iter().map(|r| f(&r.result.rda)).sum()
            };
            let gflops: f64 = cells
                .iter()
                .map(|r| r.result.measurement.gflops())
                .sum::<f64>()
                / cells.len() as f64;
            let joules: f64 = cells
                .iter()
                .map(|r| r.result.measurement.system_joules())
                .sum();
            println!(
                "{:<8} {:<22} {:>9} {:>9} {:>8} {:>9} {:>9} {:>10.2} {:>9.1}",
                format!("{rate:.2}"),
                policy.to_string(),
                sum(&|s| s.reclaimed),
                sum(&|s| s.clamped),
                sum(&|s| s.aged_admissions),
                sum(&|s| s.rejected_ends),
                sum(&|s| s.resumed),
                gflops,
                joules,
            );
        }
        for err in &sweep.errors {
            println!("{:<8} FAILED: {err}", format!("{rate:.2}"));
        }
        failed |= !sweep.errors.is_empty();
    }

    println!();
    println!("sweep digest: {:#018x}", digest.finish());
    if let Some(path) = &args.trace_out {
        bundle.write_or_die(path);
    }
    if failed {
        std::process::exit(1);
    }
}
