//! RAPL-style energy model.
//!
//! The paper measures energy through Intel RAPL, which itself *estimates*
//! energy from activity counters and static power curves. We implement
//! the same structure explicitly:
//!
//! * **PKG domain** = package idle power × wall time
//!   + per-busy-core active power × busy core-time
//!   + dynamic energy per instruction and per cache access.
//! * **DRAM domain** = background power × wall time
//!   + energy per 64-byte line transfer.
//!
//! The default coefficients, the ones the simulator runs, are
//! Sandy-Bridge-EN-class values (95 W TDP part). The absolute Joule
//! figures are model outputs; the experiments compare *policies under
//! the same model*, which is what the paper's relative results measure.

use crate::config::MachineConfig;
use rda_metrics::{EnergyBreakdown, PerfCounters};

/// Energy model coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Package power with all cores idle (uncore, fabric, leakage), W.
    pub pkg_idle_watts: f64,
    /// Additional power per busy core, W.
    pub core_active_watts: f64,
    /// Dynamic energy per retired instruction, J.
    pub joules_per_instr: f64,
    /// Dynamic energy per L1 access (every memory op), J.
    pub joules_per_l1: f64,
    /// Dynamic energy per L2 access (every L1 miss), J.
    pub joules_per_l2: f64,
    /// Dynamic energy per LLC access, J.
    pub joules_per_llc: f64,
    /// DRAM background power (refresh, PLL), W.
    pub dram_background_watts: f64,
    /// Energy per DRAM line (64 B) transfer, J.
    pub joules_per_dram_line: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            pkg_idle_watts: 18.0,
            core_active_watts: 4.5,
            joules_per_instr: 0.25e-9,
            joules_per_l1: 0.05e-9,
            joules_per_l2: 0.2e-9,
            joules_per_llc: 0.8e-9,
            dram_background_watts: 1.8,
            joules_per_dram_line: 35e-9,
        }
    }
}

impl EnergyModel {
    /// Energy for one simulation interval.
    ///
    /// * `wall_secs` — elapsed wall-clock seconds of the interval.
    /// * `busy_core_secs` — summed busy time over all cores (≤ cores ×
    ///   wall_secs).
    /// * `delta` — hardware events retired during the interval.
    pub fn interval_energy(
        &self,
        wall_secs: f64,
        busy_core_secs: f64,
        delta: &PerfCounters,
    ) -> EnergyBreakdown {
        debug_assert!(wall_secs >= 0.0 && busy_core_secs >= 0.0);
        let mut e = EnergyBreakdown::new();
        e.add_pkg(
            self.pkg_idle_watts * wall_secs
                + self.core_active_watts * busy_core_secs
                + self.joules_per_instr * delta.instructions as f64
                + self.joules_per_l1 * delta.mem_ops as f64
                + self.joules_per_l2 * delta.l1_misses as f64
                + self.joules_per_llc * delta.llc_accesses as f64,
        );
        e.add_dram(
            self.dram_background_watts * wall_secs
                + self.joules_per_dram_line * delta.llc_misses as f64,
        );
        e
    }

    /// Peak package power with every core busy (no dynamic events), W —
    /// a sanity bound used in tests.
    pub fn static_peak_watts(&self, cfg: &MachineConfig) -> f64 {
        self.pkg_idle_watts + self.core_active_watts * cfg.cores as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_interval_costs_only_background() {
        let m = EnergyModel::default();
        let e = m.interval_energy(2.0, 0.0, &PerfCounters::new());
        assert!((e.pkg_joules - 36.0).abs() < 1e-9);
        assert!((e.dram_joules - 3.6).abs() < 1e-9);
    }

    #[test]
    fn busy_cores_add_linear_power() {
        let m = EnergyModel::default();
        let idle = m.interval_energy(1.0, 0.0, &PerfCounters::new());
        let busy = m.interval_energy(1.0, 12.0, &PerfCounters::new());
        assert!((busy.pkg_joules - idle.pkg_joules - 54.0).abs() < 1e-9);
    }

    #[test]
    fn dram_energy_scales_with_misses() {
        let m = EnergyModel::default();
        let mut delta = PerfCounters::new();
        delta.llc_misses = 1_000_000;
        let e = m.interval_energy(0.0, 0.0, &delta);
        assert!((e.dram_joules - 0.035).abs() < 1e-9);
        assert_eq!(e.pkg_joules, 0.0);
    }

    #[test]
    fn instruction_energy_goes_to_pkg() {
        let m = EnergyModel::default();
        let mut delta = PerfCounters::new();
        delta.instructions = 4_000_000_000;
        let e = m.interval_energy(0.0, 0.0, &delta);
        assert!((e.pkg_joules - 1.0).abs() < 1e-9);
        assert_eq!(e.dram_joules, 0.0);
    }

    #[test]
    fn static_peak_is_plausible_for_a_95w_part() {
        let m = EnergyModel::default();
        let w = m.static_peak_watts(&MachineConfig::xeon_e5_2420());
        assert!(w > 50.0 && w < 95.0, "peak static {w} W");
    }

    #[test]
    fn energy_is_additive_over_intervals() {
        let m = EnergyModel::default();
        let mut d1 = PerfCounters::new();
        d1.instructions = 100;
        d1.llc_misses = 10;
        let mut d2 = PerfCounters::new();
        d2.instructions = 300;
        d2.llc_misses = 5;
        let split = m.interval_energy(1.0, 3.0, &d1) + m.interval_energy(2.0, 1.0, &d2);
        let mut combined_delta = d1;
        combined_delta += d2;
        let combined = m.interval_energy(3.0, 4.0, &combined_delta);
        assert!((split.pkg_joules - combined.pkg_joules).abs() < 1e-12);
        assert!((split.dram_joules - combined.dram_joules).abs() < 1e-12);
    }
}
