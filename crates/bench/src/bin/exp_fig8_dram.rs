//! Reproduce Figure 8: DRAM energy per workload × policy.
use rda_bench::{headline_runs_cli, sweep_args_from_env};

fn main() {
    let r = headline_runs_cli(&sweep_args_from_env());
    println!("{}", r.fig8().to_text_table());
    r.exit_on_failure();
}
