//! Schedule the BLAS workloads of Table 2 under all three policies.
//!
//! The level-1/2/3 groups span the paper's reuse spectrum: streaming
//! vector kernels (RDA should stay out of the way) up to blocked
//! matrix-matrix kernels (RDA should prevent LLC thrash).
//!
//! ```bash
//! cargo run --release -p rda-examples --bin schedule_blas
//! ```

use rda_metrics::TextTable;
use rda_sim::experiment::{paper_policies, run_policy};
use rda_workloads::spec;

fn main() {
    let mut table = TextTable::new(vec![
        "workload".into(),
        "policy".into(),
        "time (s)".into(),
        "energy (J)".into(),
        "DRAM (J)".into(),
        "GFLOPS".into(),
        "GFLOPS/W".into(),
        "paused".into(),
    ]);
    for spec in [spec::blas1(), spec::blas2(), spec::blas3()] {
        eprintln!(
            "scheduling {} ({} processes)…",
            spec.name,
            spec.num_processes()
        );
        for policy in paper_policies() {
            let run = run_policy(&spec, policy);
            let m = &run.result.measurement;
            table.add_row(vec![
                spec.name.clone(),
                policy.to_string(),
                format!("{:.3}", m.wall_secs),
                format!("{:.1}", m.system_joules()),
                format!("{:.2}", m.dram_joules()),
                format!("{:.2}", m.gflops()),
                format!("{:.4}", m.gflops_per_watt()),
                run.result.rda.paused.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    println!("reading guide: the default policy wins nothing on BLAS-1/2 (low/medium");
    println!("reuse, the LLC is not the bottleneck), while BLAS-3's working sets");
    println!("(1.6–3.2 MB × 96 processes) thrash the shared cache unless gated.");
}
