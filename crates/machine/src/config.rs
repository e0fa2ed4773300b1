//! Machine configuration (the paper's Table 1).

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * 1024;
/// One gibibyte.
pub const GIB: u64 = 1024 * 1024 * 1024;

/// Static description of the simulated machine.
///
/// [`MachineConfig::xeon_e5_2420`] reproduces Table 1 of the paper:
/// a 12-core Intel Xeon E5-2420 at 1.9 GHz with 32 KB L1-D, 256 KB
/// private L2, a 15 360 KB shared L3, and 16 GiB of DRAM. Latency,
/// bandwidth and associativity values are not in the paper; they are
/// taken from Intel documentation for Sandy-Bridge-EN class parts and
/// recorded here so experiments are reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of physical cores (the paper disables nothing; 12).
    pub cores: usize,
    /// Core clock frequency in Hz.
    pub freq_hz: f64,
    /// L1 data cache capacity per core, bytes.
    pub l1_bytes: u64,
    /// L2 private cache capacity per core, bytes.
    pub l2_bytes: u64,
    /// Shared last-level cache capacity, bytes.
    pub llc_bytes: u64,
    /// Cache line size, bytes (all levels).
    pub line_bytes: u64,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// LLC associativity.
    pub llc_assoc: usize,
    /// Additional cycles for an L2 hit.
    pub l2_hit_cycles: u64,
    /// Additional cycles for an LLC hit.
    pub llc_hit_cycles: u64,
    /// Additional cycles for a DRAM access (row-buffer mix average).
    pub dram_cycles: u64,
    /// Peak DRAM bandwidth, bytes per second.
    pub dram_peak_bw: f64,
    /// Memory-level parallelism: how many DRAM misses overlap, diluting
    /// the exposed stall per miss.
    pub mlp: f64,
    /// DRAM capacity, bytes (16 GiB; only checked, never exhausted by
    /// the paper's workloads).
    pub dram_bytes: u64,
    /// Direct cost of a context switch, cycles (kernel path only; cache
    /// refill is modelled separately by the scheduler).
    pub context_switch_cycles: u64,
    /// Scheduling tick / timeslice target of the default scheduler, in
    /// cycles (CFS `sched_latency`-style knob).
    pub sched_latency_cycles: u64,
    /// Minimum timeslice granularity, cycles.
    pub min_granularity_cycles: u64,
}

impl MachineConfig {
    /// The paper's evaluation machine (Table 1).
    pub fn xeon_e5_2420() -> Self {
        let freq_hz = 1.9e9;
        MachineConfig {
            cores: 12,
            freq_hz,
            l1_bytes: 32 * KIB,
            l2_bytes: 256 * KIB,
            llc_bytes: 15_360 * KIB,
            line_bytes: 64,
            l1_assoc: 8,
            l2_assoc: 8,
            llc_assoc: 20,
            l2_hit_cycles: 12,
            llc_hit_cycles: 40,
            dram_cycles: 220,
            // 3 DDR3-1333 channels: ~32 GB/s theoretical; sustained
            // random-access (cache-line granularity, mixed read/write,
            // row misses) is far lower.
            dram_peak_bw: 10.0e9,
            mlp: 1.0,
            dram_bytes: 16 * GIB,
            // ~3 us direct switch cost.
            context_switch_cycles: (3e-6 * freq_hz) as u64,
            // CFS sched_latency default 24 ms scaled: use 12 ms.
            sched_latency_cycles: (12e-3 * freq_hz) as u64,
            // 1.5 ms minimum granularity.
            min_granularity_cycles: (1.5e-3 * freq_hz) as u64,
        }
    }

    /// A small 4-core configuration for fast unit tests.
    pub fn small_test() -> Self {
        MachineConfig {
            cores: 4,
            llc_bytes: 4 * MIB,
            llc_assoc: 16,
            ..Self::xeon_e5_2420()
        }
    }

    /// DRAM peak bandwidth expressed in bytes per core-clock cycle.
    pub fn dram_bw_bytes_per_cycle(&self) -> f64 {
        self.dram_peak_bw / self.freq_hz
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores must be positive".into());
        }
        if self.freq_hz <= 0.0 {
            return Err("frequency must be positive".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        for (name, bytes, assoc) in [
            ("L1", self.l1_bytes, self.l1_assoc),
            ("L2", self.l2_bytes, self.l2_assoc),
            ("LLC", self.llc_bytes, self.llc_assoc),
        ] {
            if bytes == 0 || assoc == 0 {
                return Err(format!("{name} capacity/associativity must be positive"));
            }
            let lines = bytes / self.line_bytes;
            if lines == 0 || !lines.is_multiple_of(assoc as u64) {
                return Err(format!(
                    "{name} capacity not divisible into {assoc}-way sets"
                ));
            }
        }
        if !(self.l1_bytes <= self.l2_bytes && self.l2_bytes <= self.llc_bytes) {
            return Err("cache capacities must be monotone".into());
        }
        if self.mlp < 1.0 {
            return Err("MLP must be >= 1".into());
        }
        if self.dram_peak_bw <= 0.0 {
            return Err("DRAM bandwidth must be positive".into());
        }
        Ok(())
    }

    /// Render the configuration as the paper's Table 1.
    pub fn to_table(&self) -> String {
        let mut t = rda_metrics::TextTable::new(vec!["component".into(), "value".into()]);
        t.add_row(vec![
            "CPU".into(),
            format!(
                "{} cores @ {:.2} GHz (modelled Xeon E5-2420 class)",
                self.cores,
                self.freq_hz / 1e9
            ),
        ]);
        t.add_row(vec![
            "L1-Data".into(),
            format!("{} KBytes", self.l1_bytes / KIB),
        ]);
        t.add_row(vec![
            "L2-Private".into(),
            format!("{} KBytes", self.l2_bytes / KIB),
        ]);
        t.add_row(vec![
            "L3-Shared".into(),
            format!("{} KBytes", self.llc_bytes / KIB),
        ]);
        t.add_row(vec![
            "Main Memory".into(),
            format!("{} GiB", self.dram_bytes / GIB),
        ]);
        t.add_row(vec![
            "DRAM peak bandwidth".into(),
            format!("{:.1} GB/s", self.dram_peak_bw / 1e9),
        ]);
        t.render()
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::xeon_e5_2420()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        let m = MachineConfig::xeon_e5_2420();
        assert_eq!(m.cores, 12);
        assert!((m.freq_hz - 1.9e9).abs() < 1.0);
        assert_eq!(m.l1_bytes, 32 * KIB);
        assert_eq!(m.l2_bytes, 256 * KIB);
        assert_eq!(m.llc_bytes, 15_360 * KIB);
        assert_eq!(m.dram_bytes, 16 * GIB);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn small_test_config_is_valid() {
        assert!(MachineConfig::small_test().validate().is_ok());
    }

    #[test]
    fn validation_catches_broken_configs() {
        let mut m = MachineConfig::xeon_e5_2420();
        m.cores = 0;
        assert!(m.validate().is_err());

        let mut m = MachineConfig::xeon_e5_2420();
        m.line_bytes = 48;
        assert!(m.validate().is_err());

        let mut m = MachineConfig::xeon_e5_2420();
        m.l1_bytes = 3 * m.l2_bytes;
        assert!(m.validate().is_err());

        let mut m = MachineConfig::xeon_e5_2420();
        m.mlp = 0.5;
        assert!(m.validate().is_err());
    }

    #[test]
    fn bandwidth_per_cycle() {
        let m = MachineConfig::xeon_e5_2420();
        let bpc = m.dram_bw_bytes_per_cycle();
        assert!((bpc - 10.0e9 / 1.9e9).abs() < 1e-9);
    }

    #[test]
    fn table_contains_the_paper_numbers() {
        let s = MachineConfig::xeon_e5_2420().to_table();
        for needle in [
            "12 cores",
            "1.90 GHz",
            "32 KBytes",
            "256 KBytes",
            "15360 KBytes",
            "16 GiB",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }
}
