//! # rda-metrics
//!
//! The measurement layer of the RDA reproduction. The paper evaluates its
//! scheduler with Linux `perf` (hardware counters) and Intel RAPL (energy
//! metering); this crate provides the equivalent abstractions for the
//! simulated machine:
//!
//! * [`PerfCounters`] — a `perf stat`-style counter block (instructions,
//!   cycles, FLOPs, per-level cache misses, context switches, …).
//! * [`EnergyBreakdown`] — RAPL-style PKG / DRAM energy domains.
//! * [`Measurement`] — one experiment observation combining counters,
//!   energy, and wall-clock, with the paper's derived metrics
//!   (GFLOPS, GFLOPS per Watt).
//! * [`DataSeries`] / [`FigureData`] — named series keyed by workload or
//!   parameter, i.e. the data behind each figure of the paper.
//! * [`TextTable`] — aligned text rendering for the experiment
//!   binaries.
//! * [`regress`] — least-squares linear and logarithmic regression used
//!   by the Fig 12 working-set-size predictor.

#![warn(missing_docs)]

pub mod counters;
pub mod energy;
pub mod json;
pub mod regress;
pub mod series;
pub mod summary;
pub mod table;

pub use counters::PerfCounters;
pub use energy::EnergyBreakdown;
pub use json::{Json, JsonError, MAX_DEPTH};
pub use series::{DataSeries, FigureData};
pub use summary::Measurement;
pub use table::TextTable;

/// Geometric mean of a non-empty slice of positive values.
///
/// Used to summarise per-workload speedups the way the paper reports
/// "average 1.16×". Returns `None` for empty input or any non-positive
/// value.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basic() {
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_empty_and_nonpositive() {
        assert!(geomean(&[]).is_none());
        assert!(geomean(&[1.0, 0.0]).is_none());
        assert!(geomean(&[1.0, -2.0]).is_none());
    }
}
