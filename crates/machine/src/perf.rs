//! Analytical performance model.
//!
//! The scheduler experiments need, for every co-running set of code
//! regions, each region's instruction rate and memory traffic. This
//! module derives them from first-order cache behaviour:
//!
//! 1. Per-level hit rates as a function of the region's
//!    [`ReuseLevel`] and whether its working set fits the level.
//! 2. **LLC capacity sharing**: co-running regions with working sets
//!    `ws_i` compete for the shared LLC; each obtains an effective share
//!    proportional to its demand (an LRU-competition approximation, cf.
//!    the cache-partitioning literature the paper cites). A region whose
//!    share is below its working set sees its LLC hit rate degrade
//!    polynomially in `share / ws` — high-reuse regions lose the most,
//!    which is precisely the interference the RDA scheduler avoids.
//! 3. CPI composition: `cpi_base + mem_frac × stall-per-memory-op`.
//! 4. **DRAM bandwidth saturation**: when the co-runners' aggregate miss
//!    traffic exceeds peak bandwidth, all instruction rates are scaled
//!    down by the overload factor (Figure 13's memory-bound plateau).
//!
//! All coefficients live in [`PerfParams`]; its defaults, the only
//! values the simulator runs, are calibrated against the functional LRU
//! hierarchy in [`crate::cache`] (see the `rda-integration` test
//! `model_vs_trace`).

use crate::config::MachineConfig;
use crate::profile::{AccessProfile, ReuseLevel};

/// Tunable coefficients of the analytical model.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfParams {
    /// L1 hit rate per reuse level (spatial locality keeps even
    /// streaming code mostly L1-resident on 64-byte lines).
    pub l1_hit: [f64; 3],
    /// Of L1 misses, the fraction that hit L2 when the working set fits
    /// in L2.
    pub l2_hit_fit: f64,
    /// Of L1 misses, the fraction that hit L2 when the working set does
    /// not fit, per reuse level.
    pub l2_hit_nofit: [f64; 3],
    /// Of L2 misses, the fraction that hit the LLC when the region's
    /// working set fits within its effective share, per reuse level.
    pub llc_hit_fit: [f64; 3],
    /// Exponent of the LLC degradation curve `hit × (share/ws)^gamma`.
    pub llc_degrade_gamma: f64,
    /// Effective memory-level parallelism dividing the exposed DRAM
    /// stall (1 = fully serialised misses).
    pub mlp: f64,
    /// Fraction of beyond-L2 stall hidden by the hardware prefetchers,
    /// per reuse level. Streaming (low-reuse) code prefetches almost
    /// perfectly; blocked high-reuse code hardly at all.
    pub prefetch_cover: [f64; 3],
    /// DRAM queueing: utilisation is capped here to keep the
    /// latency-inflation factor finite.
    pub max_dram_utilization: f64,
}

impl Default for PerfParams {
    fn default() -> Self {
        PerfParams {
            l1_hit: [0.88, 0.93, 0.95],
            l2_hit_fit: 0.85,
            l2_hit_nofit: [0.10, 0.35, 0.55],
            llc_hit_fit: [0.30, 0.85, 0.97],
            llc_degrade_gamma: 2.5,
            mlp: 1.0,
            prefetch_cover: [0.85, 0.50, 0.10],
            max_dram_utilization: 0.95,
        }
    }
}

/// Bitwise profile equality — the sharing test of the co-run solver's
/// dedup pass and the simulation's interval-to-interval rate memo.
/// Deliberately *stricter* than `PartialEq`: `0.0` and `-0.0` compare
/// equal yet are distinct bit patterns, and reusing a solved rate must
/// be indistinguishable from recomputing it.
pub fn profile_bits_eq(a: &AccessProfile, b: &AccessProfile) -> bool {
    a.ws_bytes == b.ws_bytes
        && a.reuse == b.reuse
        && a.mem_frac.to_bits() == b.mem_frac.to_bits()
        && a.flop_frac.to_bits() == b.flop_frac.to_bits()
        && a.cpi_base.to_bits() == b.cpi_base.to_bits()
}

fn idx(reuse: ReuseLevel) -> usize {
    match reuse {
        ReuseLevel::Low => 0,
        ReuseLevel::Medium => 1,
        ReuseLevel::High => 2,
    }
}

/// Derived per-instruction rates for one region under a given LLC share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentRates {
    /// Cycles per instruction (before bandwidth scaling).
    pub cpi: f64,
    /// L1 misses per instruction.
    pub l1_mpi: f64,
    /// LLC accesses per instruction (= L2 misses per instruction).
    pub llc_api: f64,
    /// LLC misses per instruction (each is one DRAM line transfer).
    pub llc_mpi: f64,
    /// DRAM traffic in bytes per instruction.
    pub dram_bpi: f64,
}

impl SegmentRates {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        1.0 / self.cpi
    }
}

/// The analytical performance model bound to a machine configuration.
#[derive(Debug, Clone)]
pub struct PerfModel {
    cfg: MachineConfig,
    params: PerfParams,
}

/// The DRAM-latency-invariant intermediates of one
/// [`PerfModel::rates_with_dram`] evaluation (see
/// [`PerfModel::rates_prelude`]).
#[derive(Debug, Clone, Copy)]
struct RatesPrelude {
    h2: f64,
    h3: f64,
    m1: f64,
    cover: f64,
    cpi_base: f64,
    mem_frac: f64,
    l1_mpi: f64,
    llc_api: f64,
    llc_mpi: f64,
    dram_bpi: f64,
}

impl PerfModel {
    /// Model with default calibration.
    pub fn new(cfg: MachineConfig) -> Self {
        PerfModel {
            cfg,
            params: PerfParams::default(),
        }
    }

    /// The machine configuration this model is bound to.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The model coefficients.
    pub fn params(&self) -> &PerfParams {
        &self.params
    }

    /// Effective LLC share for a region with working set `ws` when the
    /// co-running regions' working sets total `total_ws` bytes.
    ///
    /// If everything fits, each region keeps its full working set;
    /// otherwise capacity is split proportionally to demand.
    pub fn llc_share(&self, ws: u64, total_ws: u64) -> u64 {
        let llc = self.cfg.llc_bytes;
        if total_ws <= llc || total_ws == 0 {
            ws
        } else {
            ((ws as u128 * llc as u128) / total_ws as u128) as u64
        }
    }

    /// LLC hit rate (over LLC accesses) for a region given its effective
    /// share of the cache.
    pub fn llc_hit_rate(&self, prof: &AccessProfile, share_bytes: u64) -> f64 {
        let fit = self.params.llc_hit_fit[idx(prof.reuse)];
        if prof.ws_bytes == 0 || share_bytes >= prof.ws_bytes {
            fit
        } else {
            let ratio = share_bytes as f64 / prof.ws_bytes as f64;
            fit * ratio.powf(self.params.llc_degrade_gamma)
        }
    }

    /// Full per-instruction rates for a region under `share_bytes` of
    /// effective LLC capacity, with an un-contended DRAM.
    pub fn rates(&self, prof: &AccessProfile, share_bytes: u64) -> SegmentRates {
        self.rates_with_dram(prof, share_bytes, self.cfg.dram_cycles as f64)
    }

    /// Per-instruction rates with an explicit effective DRAM latency
    /// (used by the co-run solver to feed back queueing delay).
    pub fn rates_with_dram(
        &self,
        prof: &AccessProfile,
        share_bytes: u64,
        dram_cycles: f64,
    ) -> SegmentRates {
        self.rates_eval(&self.rates_prelude(prof, share_bytes), dram_cycles)
    }

    /// The DRAM-latency-*invariant* part of [`Self::rates_with_dram`]:
    /// every quantity that depends only on the profile and its LLC
    /// share. The co-run solver computes this once per distinct entry
    /// and re-evaluates only [`Self::rates_eval`] per fixed-point
    /// iteration — hoisting, not reformulation, so every produced bit
    /// is identical to the single-call path (`rates_with_dram` itself
    /// is defined as prelude + eval).
    fn rates_prelude(&self, prof: &AccessProfile, share_bytes: u64) -> RatesPrelude {
        let p = &self.params;
        let h1 = if prof.ws_bytes <= self.cfg.l1_bytes {
            // Fully L1-resident regions barely miss at all.
            0.995
        } else {
            p.l1_hit[idx(prof.reuse)]
        };
        let h2 = if prof.ws_bytes <= self.cfg.l2_bytes {
            p.l2_hit_fit
        } else {
            p.l2_hit_nofit[idx(prof.reuse)]
        };
        let h3 = self.llc_hit_rate(prof, share_bytes);

        let m1 = 1.0 - h1; // L1 misses per memory op
        let llc_access_per_memop = m1 * (1.0 - h2);
        let llc_miss_per_memop = llc_access_per_memop * (1.0 - h3);

        let cover = p.prefetch_cover[idx(prof.reuse)];
        let llc_mpi = prof.mem_frac * llc_miss_per_memop;
        RatesPrelude {
            h2,
            h3,
            m1,
            cover,
            cpi_base: prof.cpi_base,
            mem_frac: prof.mem_frac,
            l1_mpi: prof.mem_frac * m1,
            llc_api: prof.mem_frac * llc_access_per_memop,
            llc_mpi,
            dram_bpi: llc_mpi * self.cfg.line_bytes as f64,
        }
    }

    /// The DRAM-latency-*dependent* tail of [`Self::rates_with_dram`]
    /// (see [`Self::rates_prelude`]).
    fn rates_eval(&self, pre: &RatesPrelude, dram_cycles: f64) -> SegmentRates {
        let dram_stall = dram_cycles / self.params.mlp;
        let beyond_l2 = (pre.h3 * self.cfg.llc_hit_cycles as f64 + (1.0 - pre.h3) * dram_stall)
            * (1.0 - pre.cover);
        let stall_per_memop =
            pre.m1 * (pre.h2 * self.cfg.l2_hit_cycles as f64 + (1.0 - pre.h2) * beyond_l2);
        let cpi = pre.cpi_base + pre.mem_frac * stall_per_memop;
        SegmentRates {
            cpi,
            l1_mpi: pre.l1_mpi,
            llc_api: pre.llc_api,
            llc_mpi: pre.llc_mpi,
            dram_bpi: pre.dram_bpi,
        }
    }

    /// DRAM latency inflation under load: a gentle quadratic queueing
    /// factor `1 + 2ρ²` at utilisation `ρ` (capped at the configured
    /// maximum). Latency grows with load but stays bounded; the hard
    /// saturation behaviour comes from the throughput cap applied by
    /// [`Self::solve_corun`] — together they produce the memory-bound
    /// plateau of the paper's Figure 13.
    pub fn dram_latency_factor(&self, utilization: f64) -> f64 {
        let rho = utilization.clamp(0.0, self.params.max_dram_utilization);
        1.0 + 2.0 * rho * rho
    }

    /// Solve steady-state rates for a co-running set.
    ///
    /// Each entry is a region with its effective LLC share. Two DRAM
    /// effects couple the rates: queueing delay (latency rises with
    /// utilisation — a damped fixed point) and the hard bandwidth
    /// ceiling (aggregate traffic cannot exceed peak — a final uniform
    /// rate scale, folded into each region's effective CPI).
    pub fn solve_corun(&self, entries: &[(AccessProfile, u64)]) -> Vec<SegmentRates> {
        let mut rates = Vec::new();
        self.solve_corun_into(entries, &mut rates);
        rates
    }

    /// [`Self::solve_corun`] into a caller-owned buffer — the
    /// simulation's per-interval path, which must not allocate.
    ///
    /// Threads of the same process in the same phase present identical
    /// `(profile, share)` entries, and [`Self::rates_with_dram`] is a
    /// pure function of its inputs — so each *bit-identical* entry is
    /// solved once per fixed-point iteration and its result replicated.
    /// The accumulation over the replicated per-entry vector is
    /// unchanged, keeping every output bit-for-bit equal to the naive
    /// per-entry evaluation.
    pub fn solve_corun_into(
        &self,
        entries: &[(AccessProfile, u64)],
        rates: &mut Vec<SegmentRates>,
    ) {
        rates.clear();
        if entries.is_empty() {
            return;
        }
        // Map each entry to the index of its first bit-identical
        // occurrence. Inline buffers: co-run sets are at most a few
        // dozen threads; fall back to no sharing beyond the buffer.
        const MAX_DEDUP: usize = 64;
        let mut rep = [0u16; MAX_DEDUP];
        for (i, e) in entries.iter().enumerate().take(MAX_DEDUP) {
            let mut found = i;
            for (j, d) in entries.iter().enumerate().take(i) {
                if rep[j] as usize == j && profile_bits_eq(&d.0, &e.0) && d.1 == e.1 {
                    found = j;
                    break;
                }
            }
            rep[i] = found as u16;
        }
        // The DRAM-invariant prelude of each representative entry,
        // computed once (on the stack — this path must not allocate);
        // the fixed-point loop re-evaluates only the latency-dependent
        // tail. Reusing a prelude across iterations is hoisting of a
        // pure function, so every bit matches the per-iteration path.
        let mut pre = [None::<RatesPrelude>; MAX_DEDUP];
        for (i, (prof, share)) in entries.iter().enumerate().take(MAX_DEDUP) {
            if rep[i] as usize == i {
                pre[i] = Some(self.rates_prelude(prof, *share));
            }
        }
        let peak_bpc = self.cfg.dram_bw_bytes_per_cycle();
        let mut dram_eff = self.cfg.dram_cycles as f64;
        for _ in 0..12 {
            rates.clear();
            for (i, (prof, share)) in entries.iter().enumerate() {
                let r = if i < MAX_DEDUP {
                    match &pre[i] {
                        Some(p) => self.rates_eval(p, dram_eff),
                        None => rates[rep[i] as usize],
                    }
                } else {
                    self.rates_with_dram(prof, *share, dram_eff)
                };
                rates.push(r);
            }
            let demand_bpc: f64 = rates.iter().map(|r| r.dram_bpi / r.cpi).sum();
            let rho = demand_bpc / peak_bpc;
            let target = self.cfg.dram_cycles as f64 * self.dram_latency_factor(rho);
            // Damping stabilises the alternation between high-traffic /
            // low-latency and low-traffic / high-latency solutions.
            dram_eff = 0.5 * dram_eff + 0.5 * target;
        }
        // Hard bandwidth ceiling: scale every region's rate uniformly
        // so aggregate traffic fits the bus.
        let demand_bpc: f64 = rates.iter().map(|r| r.dram_bpi / r.cpi).sum();
        if demand_bpc > peak_bpc {
            let stretch = demand_bpc / peak_bpc;
            for r in rates {
                r.cpi *= stretch;
            }
        }
    }

    /// Cycles to rebuild the private-cache footprint after a context
    /// switch displaced it (Figure 1's "reload data from cache" cost):
    /// one LLC-hit-latency per line of the L2-bounded footprint.
    pub fn switch_warmup_cycles(&self, ws_bytes: u64) -> u64 {
        let lines = ws_bytes.min(self.cfg.l2_bytes) / self.cfg.line_bytes;
        lines * self.cfg.llc_hit_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MIB;

    fn model() -> PerfModel {
        PerfModel::new(MachineConfig::xeon_e5_2420())
    }

    fn prof(ws_mb: f64, reuse: ReuseLevel) -> AccessProfile {
        AccessProfile::typical((ws_mb * MIB as f64) as u64, reuse)
    }

    #[test]
    fn share_is_full_ws_when_everything_fits() {
        let m = model();
        let ws = 2 * MIB;
        assert_eq!(m.llc_share(ws, 10 * MIB), ws);
    }

    #[test]
    fn share_is_proportional_under_pressure() {
        let m = model();
        let llc = m.config().llc_bytes;
        // Two equal regions at 2× capacity each get half the cache.
        let ws = llc; // each region wants the whole cache
        let share = m.llc_share(ws, 2 * llc);
        assert_eq!(share, llc / 2);
    }

    #[test]
    fn shares_sum_to_capacity_under_pressure() {
        let m = model();
        let llc = m.config().llc_bytes;
        let wss = [3 * MIB, 5 * MIB, 9 * MIB, 7 * MIB];
        let total: u64 = wss.iter().sum();
        assert!(total > llc);
        let sum: u64 = wss.iter().map(|&w| m.llc_share(w, total)).sum();
        // Integer division may lose a few bytes but never exceeds capacity.
        assert!(sum <= llc);
        assert!(llc - sum < wss.len() as u64);
    }

    #[test]
    fn fitting_region_keeps_full_hit_rate() {
        let m = model();
        let p = prof(2.0, ReuseLevel::High);
        let h = m.llc_hit_rate(&p, p.ws_bytes);
        assert!((h - m.params().llc_hit_fit[2]).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_degrades_monotonically_with_share() {
        let m = model();
        let p = prof(8.0, ReuseLevel::High);
        let mut last = f64::INFINITY;
        for frac in [1.0, 0.8, 0.6, 0.4, 0.2, 0.1] {
            let share = (p.ws_bytes as f64 * frac) as u64;
            let h = m.llc_hit_rate(&p, share);
            assert!(h <= last + 1e-12, "not monotone at {frac}");
            last = h;
        }
    }

    #[test]
    fn high_reuse_suffers_more_from_thrashing_than_low() {
        let m = model();
        let high = prof(8.0, ReuseLevel::High);
        let low = prof(8.0, ReuseLevel::Low);
        let share = 2 * MIB;
        let slowdown = |p: &AccessProfile| {
            let fit = m.rates(p, p.ws_bytes).cpi;
            let thrash = m.rates(p, share).cpi;
            thrash / fit
        };
        assert!(
            slowdown(&high) > slowdown(&low),
            "high {} low {}",
            slowdown(&high),
            slowdown(&low)
        );
    }

    #[test]
    fn thrashing_slowdown_is_substantial_for_high_reuse() {
        // The paper's raytrace case: 48 × 5.1 MB working sets over a
        // 15 MB LLC ruin each process's hit rate; per-instruction
        // slowdown should be well above 1.4× for the 1.88× end-to-end
        // speedup (which also includes bandwidth effects) to emerge.
        let m = model();
        let p = prof(5.1, ReuseLevel::High);
        let total = 48 * p.ws_bytes;
        let share = m.llc_share(p.ws_bytes, total);
        let fit = m.rates(&p, p.ws_bytes);
        let thrash = m.rates(&p, share);
        assert!(
            thrash.cpi / fit.cpi > 1.4,
            "slowdown {}",
            thrash.cpi / fit.cpi
        );
    }

    #[test]
    fn l1_resident_region_barely_stalls() {
        let m = model();
        let p = AccessProfile::typical(16 * 1024, ReuseLevel::Low);
        let r = m.rates(&p, p.ws_bytes);
        assert!(r.cpi < p.cpi_base * 1.2, "cpi {}", r.cpi);
        assert!(r.llc_mpi < 1e-3);
    }

    #[test]
    fn rates_are_internally_consistent() {
        let m = model();
        let p = prof(6.0, ReuseLevel::Medium);
        let r = m.rates(&p, 3 * MIB);
        assert!(r.cpi > 0.0);
        assert!(r.l1_mpi >= r.llc_api, "miss funnel must narrow");
        assert!(r.llc_api >= r.llc_mpi);
        assert!((r.dram_bpi - r.llc_mpi * 64.0).abs() < 1e-12);
        assert!((r.ipc() * r.cpi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dram_latency_inflates_under_load() {
        let m = model();
        assert!((m.dram_latency_factor(0.0) - 1.0).abs() < 1e-12);
        let mid = m.dram_latency_factor(0.5);
        let high = m.dram_latency_factor(0.9);
        assert!(mid > 1.0 && high > mid, "mid {mid} high {high}");
        // Capped: utilisation beyond the cap doesn't blow up.
        let capped = m.dram_latency_factor(10.0);
        assert_eq!(capped, m.dram_latency_factor(0.95));
        assert!(capped.is_finite());
    }

    #[test]
    fn solver_converges_and_orders_by_contention() {
        let m = model();
        let p = prof(5.1, ReuseLevel::High);
        // Solo, fitting: nominal rates.
        let solo = m.solve_corun(&[(p, p.ws_bytes)]);
        assert_eq!(solo.len(), 1);
        let solo_cpi = solo[0].cpi;
        // Twelve co-runners squeezed into proportional shares: much
        // slower per instruction.
        let total = 12 * p.ws_bytes;
        let share = m.llc_share(p.ws_bytes, total);
        let crowd: Vec<_> = (0..12).map(|_| (p, share)).collect();
        let crowded = m.solve_corun(&crowd);
        assert_eq!(crowded.len(), 12);
        assert!(
            crowded[0].cpi > solo_cpi * 1.5,
            "crowded {} solo {}",
            crowded[0].cpi,
            solo_cpi
        );
        // All identical entries get identical rates.
        for r in &crowded {
            assert!((r.cpi - crowded[0].cpi).abs() < 1e-9);
        }
    }

    #[test]
    fn solver_handles_empty_and_single_stream() {
        let m = model();
        assert!(m.solve_corun(&[]).is_empty());
        // A dozen pure streams saturate DRAM: per-stream CPI grows well
        // beyond the uncontended value.
        let s = prof(8.0, ReuseLevel::Low);
        let alone = m.solve_corun(&[(s, MIB)])[0].cpi;
        let crowd: Vec<_> = (0..12).map(|_| (s, MIB)).collect();
        let each = m.solve_corun(&crowd)[0].cpi;
        assert!(each > alone, "streams must contend: {each} vs {alone}");
    }

    /// The pre-dedup solver, verbatim: one `rates_with_dram` per entry
    /// per fixed-point iteration. The optimised path must match it to
    /// the last bit.
    fn solve_corun_naive(m: &PerfModel, entries: &[(AccessProfile, u64)]) -> Vec<SegmentRates> {
        if entries.is_empty() {
            return Vec::new();
        }
        let peak_bpc = m.config().dram_bw_bytes_per_cycle();
        let mut dram_eff = m.config().dram_cycles as f64;
        let mut rates: Vec<SegmentRates> = Vec::new();
        for _ in 0..12 {
            rates = entries
                .iter()
                .map(|(prof, share)| m.rates_with_dram(prof, *share, dram_eff))
                .collect();
            let demand_bpc: f64 = rates.iter().map(|r| r.dram_bpi / r.cpi).sum();
            let rho = demand_bpc / peak_bpc;
            let target = m.config().dram_cycles as f64 * m.dram_latency_factor(rho);
            dram_eff = 0.5 * dram_eff + 0.5 * target;
        }
        let demand_bpc: f64 = rates.iter().map(|r| r.dram_bpi / r.cpi).sum();
        if demand_bpc > peak_bpc {
            let stretch = demand_bpc / peak_bpc;
            for r in &mut rates {
                r.cpi *= stretch;
            }
        }
        rates
    }

    #[test]
    fn corun_dedup_is_bit_identical_to_naive_evaluation() {
        let m = model();
        let a = prof(5.1, ReuseLevel::High);
        let b = prof(8.0, ReuseLevel::Low);
        let c = prof(2.0, ReuseLevel::Medium);
        let cases: Vec<Vec<(AccessProfile, u64)>> = vec![
            vec![(a, MIB)],
            vec![(a, MIB); 12],
            vec![
                (a, MIB),
                (b, 2 * MIB),
                (a, MIB),
                (c, MIB),
                (b, 2 * MIB),
                (a, 3 * MIB),
            ],
            (0..48)
                .map(|i| ([a, b, c][i % 3], MIB * (1 + (i % 4) as u64)))
                .collect(),
            (0..80).map(|_| (a, MIB)).collect(), // beyond the dedup buffer
        ];
        for entries in cases {
            let fast = m.solve_corun(&entries);
            let naive = solve_corun_naive(&m, &entries);
            assert_eq!(fast.len(), naive.len());
            for (f, n) in fast.iter().zip(&naive) {
                assert_eq!(f.cpi.to_bits(), n.cpi.to_bits());
                assert_eq!(f.l1_mpi.to_bits(), n.l1_mpi.to_bits());
                assert_eq!(f.llc_api.to_bits(), n.llc_api.to_bits());
                assert_eq!(f.llc_mpi.to_bits(), n.llc_mpi.to_bits());
                assert_eq!(f.dram_bpi.to_bits(), n.dram_bpi.to_bits());
            }
        }
    }

    #[test]
    fn switch_warmup_bounded_by_l2() {
        let m = model();
        let l2 = m.config().l2_bytes;
        let small = m.switch_warmup_cycles(l2 / 2);
        let big = m.switch_warmup_cycles(100 * MIB);
        assert_eq!(big, m.switch_warmup_cycles(l2));
        assert!(small < big);
        assert_eq!(big, l2 / 64 * m.config().llc_hit_cycles);
    }
}
