//! # rda-bench
//!
//! The experiment harness: one runnable binary per table/figure of the
//! paper's evaluation section (`cargo run -p rda-bench --bin exp_…`)
//! and the hot-path and ablation kernels of `bench_report`
//! ([`hotbench`]).
//!
//! | Target | Reproduces |
//! |---|---|
//! | `exp_table1` | Table 1 — machine configuration |
//! | `exp_table2` | Table 2 — the eight workloads |
//! | `exp_fig7_energy` | Figure 7 — system energy per workload × policy |
//! | `exp_fig8_dram` | Figure 8 — DRAM energy |
//! | `exp_fig9_gflops` | Figure 9 — GFLOPS |
//! | `exp_fig10_efficiency` | Figure 10 — GFLOPS/W |
//! | `exp_fig11_overhead` | Figure 11 — tracking-granularity overhead |
//! | `exp_fig12_wss` | Figure 12 — WSS prediction across input scales |
//! | `exp_fig13_interference` | Figure 13 — concurrency interference |
//! | `exp_faults` | fault-injection sweep — graceful degradation (PR 2) |
//! | `exp_all` | everything above, plus a JSON dump |

#![warn(missing_docs)]

pub mod cli;
pub mod fig12;
pub mod headline;
pub mod hotbench;
pub mod summary;
pub mod traceout;

pub use cli::{sweep_args_from_env, SweepArgs};
pub use headline::{headline_runs, headline_runs_cli, headline_runs_with, HeadlineResults};
pub use traceout::{TraceBundle, TraceWriteError};
