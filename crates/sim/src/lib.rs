//! # rda-sim
//!
//! The full-system simulator: the piece that stands in for "a 12-core
//! Xeon E5-2420 running CentOS with a modified Linux 4.6 kernel".
//!
//! [`system::SystemSim`] executes a [`rda_workloads::WorkloadSpec`]
//! under one scheduling policy:
//!
//! * thread scheduling by the CFS substrate (`rda-sched`),
//! * progress-period gating by the RDA extension (`rda-core`),
//! * instruction rates from the analytical machine model
//!   (`rda-machine`), re-solved whenever the co-running set changes —
//!   including LLC capacity sharing and DRAM queueing,
//! * RAPL-style energy integration per simulated interval.
//!
//! [`experiment`] wraps it into the paper's measurement loops
//! (Figures 7–10), [`overhead`] reproduces the Figure 11 granularity
//! study, [`concurrency`] the Figure 13 interference study, and
//! [`runner`] spreads whole configuration grids over a deterministic
//! work-stealing thread pool.

#![warn(missing_docs)]

pub mod concurrency;
pub mod config;
pub mod experiment;
pub mod faults;
pub mod overhead;
pub mod runner;
pub mod system;
pub mod traffic;

pub use config::SimConfig;
pub use experiment::{run_workload, PolicyRun};
pub use faults::{FaultConfig, FaultPlan, PhaseFault};
pub use runner::{
    run_pool, run_sweep, run_sweep_configured, RunConfig, RunError, RunRecord, RunnerOptions,
    SweepGrid, SweepResult,
};
pub use system::SystemSim;
pub use traffic::{
    ArrivalPattern, TopoCall, TopoClass, TopoTrafficConfig, TopoTrafficResult, TopoTrafficSim,
    TrafficConfig, TrafficPlan, TrafficResult, TrafficSim, TRAFFIC_STREAM,
};
