//! Reproduce Figure 9: GFLOPS per workload × policy.
use rda_bench::{headline_runs_cli, sweep_args_from_env};

fn main() {
    let r = headline_runs_cli(&sweep_args_from_env());
    println!("{}", r.fig9().to_text_table());
    r.exit_on_failure();
}
