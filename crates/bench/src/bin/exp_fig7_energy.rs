//! Reproduce Figure 7: system energy per workload × policy.
use rda_bench::{headline_runs_cli, sweep_args_from_env};

fn main() {
    let r = headline_runs_cli(&sweep_args_from_env());
    println!("{}", r.fig7().to_text_table());
    r.exit_on_failure();
}
