//! Reproduce Figure 10: GFLOPS per Watt per workload × policy.
use rda_bench::{headline_runs_cli, sweep_args_from_env};

fn main() {
    let r = headline_runs_cli(&sweep_args_from_env());
    println!("{}", r.fig10().to_text_table());
    r.exit_on_failure();
}
