//! `perf stat`-style hardware counters.
//!
//! The paper measures its workloads with Linux `perf` hardware counters
//! (instructions, FLOPs, cache events). [`PerfCounters`] is the simulated
//! equivalent: every component of the machine model increments these
//! counters, and the experiment harness reads them out per run.

use std::ops::{Add, AddAssign};

/// A block of hardware event counts for one measurement interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Retired instructions.
    pub instructions: u64,
    /// Elapsed core cycles (summed over cores that executed work).
    pub cycles: u64,
    /// Retired floating-point operations.
    pub flops: u64,
    /// Memory operations issued (loads + stores).
    pub mem_ops: u64,
    /// L1 data cache misses.
    pub l1_misses: u64,
    /// L2 cache misses.
    pub l2_misses: u64,
    /// Last-level cache misses (each becomes a DRAM transfer).
    pub llc_misses: u64,
    /// LLC accesses (L2 misses arriving at the LLC).
    pub llc_accesses: u64,
    /// Context switches performed by the scheduler.
    pub context_switches: u64,
    /// Thread migrations between cores.
    pub migrations: u64,
    /// `pp_begin` API calls observed.
    pub pp_begins: u64,
    /// `pp_end` API calls observed.
    pub pp_ends: u64,
    /// Progress-period scheduling decisions served by the memoised fast
    /// path (see `rda-core::fastpath`).
    pub fastpath_hits: u64,
    /// Threads paused by the scheduling predicate (placed on the
    /// resource waitlist).
    pub waitlisted: u64,
}

impl PerfCounters {
    /// All-zero counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Instructions per cycle; 0 when no cycles elapsed.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Merge another counter block into this one.
    pub fn absorb(&mut self, other: &PerfCounters) {
        *self += *other;
    }
}

impl Add for PerfCounters {
    type Output = PerfCounters;
    fn add(mut self, rhs: PerfCounters) -> PerfCounters {
        self += rhs;
        self
    }
}

impl AddAssign for PerfCounters {
    fn add_assign(&mut self, rhs: PerfCounters) {
        self.instructions += rhs.instructions;
        self.cycles += rhs.cycles;
        self.flops += rhs.flops;
        self.mem_ops += rhs.mem_ops;
        self.l1_misses += rhs.l1_misses;
        self.l2_misses += rhs.l2_misses;
        self.llc_misses += rhs.llc_misses;
        self.llc_accesses += rhs.llc_accesses;
        self.context_switches += rhs.context_switches;
        self.migrations += rhs.migrations;
        self.pp_begins += rhs.pp_begins;
        self.pp_ends += rhs.pp_ends;
        self.fastpath_hits += rhs.fastpath_hits;
        self.waitlisted += rhs.waitlisted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfCounters {
        PerfCounters {
            instructions: 1000,
            cycles: 2000,
            flops: 500,
            mem_ops: 300,
            l1_misses: 30,
            l2_misses: 20,
            llc_misses: 5,
            llc_accesses: 20,
            context_switches: 2,
            migrations: 1,
            pp_begins: 3,
            pp_ends: 3,
            fastpath_hits: 1,
            waitlisted: 1,
        }
    }

    #[test]
    fn derived_metrics() {
        let c = sample();
        assert!((c.ipc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn derived_metrics_degenerate() {
        let c = PerfCounters::new();
        assert_eq!(c.ipc(), 0.0);
    }

    #[test]
    fn addition_is_fieldwise() {
        let c = sample() + sample();
        assert_eq!(c.instructions, 2000);
        assert_eq!(c.llc_misses, 10);
        assert_eq!(c.waitlisted, 2);
    }

    #[test]
    fn absorb_matches_add() {
        let mut a = sample();
        a.absorb(&sample());
        assert_eq!(a, sample() + sample());
    }
}
