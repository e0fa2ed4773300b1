//! # rda-machine
//!
//! The simulated hardware substrate of the RDA reproduction. The paper
//! runs on a 12-core Intel Xeon E5-2420 (Table 1); this crate models that
//! machine at the granularity the scheduler cares about:
//!
//! * [`MachineConfig`] — core count, frequency, cache hierarchy and
//!   latencies, DRAM bandwidth, defaulting to the paper's Table 1.
//! * [`profile`] — [`profile::AccessProfile`]: a compact description of a
//!   code region's memory behaviour (working-set size, reuse level,
//!   memory-op and FLOP fractions), the same vocabulary the progress
//!   period API uses.
//! * [`perf`] — the analytical performance model: per-level hit rates,
//!   LLC capacity sharing among co-runners, cycles-per-instruction, and
//!   DRAM bandwidth saturation.
//! * [`cache`] — a functional set-associative LRU cache hierarchy used to
//!   validate the analytical model against real address traces.
//! * [`energy`] — the RAPL-style energy model (PKG and DRAM domains).
//!
//! The analytical model is deliberately first-order: the paper's effects
//! are capacity effects in the shared last-level cache, and this model
//! reproduces exactly that mechanism (see DESIGN.md §4).

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod energy;
pub mod perf;
pub mod profile;

pub use config::MachineConfig;
pub use energy::EnergyModel;
pub use perf::{profile_bits_eq, PerfModel, SegmentRates};
pub use profile::{AccessProfile, ReuseLevel};
