//! Functional set-associative LRU cache hierarchy.
//!
//! The analytical model in [`crate::perf`] is the workhorse of the
//! scheduling experiments, but its coefficients need grounding. This
//! module provides an exact (functional, not timed) simulation of the
//! machine's three-level cache hierarchy that can replay the address
//! traces produced by the instrumented workloads in `rda-workloads`. The
//! trace-versus-model tests compare the two.
//!
//! The hierarchy models private L1/L2 per "core slot" and a shared LLC,
//! all with true-LRU replacement and inclusive allocation on miss (the
//! E5-2420's L3 is inclusive).

use crate::config::MachineConfig;

/// Miss/hit outcome of a single access at one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Hit,
    Miss,
}

/// A single set-associative LRU cache.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: Vec<Vec<u64>>, // each set holds line tags, MRU at the back
    assoc: usize,
    line_shift: u32,
    num_sets: u64,
    stats: CacheStats,
}

/// Access statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses presented to this level.
    pub accesses: u64,
    /// Accesses that missed at this level.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio; 0 when the cache was never accessed.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit ratio; 1 when the cache was never accessed.
    pub fn hit_ratio(&self) -> f64 {
        1.0 - self.miss_ratio()
    }
}

impl SetAssocCache {
    /// Build a cache of `capacity_bytes` with `assoc`-way sets and
    /// `line_bytes` lines. Capacity must divide evenly into sets.
    pub fn new(capacity_bytes: u64, assoc: usize, line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(assoc > 0);
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= assoc as u64 && lines.is_multiple_of(assoc as u64),
            "capacity/assoc mismatch"
        );
        // Modulo set indexing: real LLCs (e.g. the E5-2420's 20-way,
        // 12288-set L3) do not have power-of-two set counts.
        let num_sets = lines / assoc as u64;
        SetAssocCache {
            sets: vec![Vec::with_capacity(assoc); num_sets as usize],
            assoc,
            line_shift: line_bytes.trailing_zeros(),
            num_sets,
            stats: CacheStats::default(),
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line % self.num_sets) as usize, line)
    }

    fn access(&mut self, addr: u64) -> Outcome {
        let (set_idx, tag) = self.locate(addr);
        let set = &mut self.sets[set_idx];
        self.stats.accesses += 1;
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = set.remove(pos);
            set.push(t);
            Outcome::Hit
        } else {
            self.stats.misses += 1;
            if set.len() == self.assoc {
                set.remove(0); // evict LRU
            }
            set.push(tag);
            Outcome::Miss
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Drop all contents and statistics.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.stats = CacheStats::default();
    }
}

/// Per-level statistics of a hierarchy replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 data cache statistics.
    pub l1: CacheStats,
    /// L2 statistics (accesses = L1 misses).
    pub l2: CacheStats,
    /// LLC statistics (accesses = L2 misses).
    pub llc: CacheStats,
}

/// A multi-core cache hierarchy: private L1/L2 per slot, one shared LLC.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: SetAssocCache,
    line_bytes: u64,
}

impl CacheHierarchy {
    /// Build the hierarchy for `cfg`, with one private L1/L2 pair per
    /// core.
    pub fn new(cfg: &MachineConfig) -> Self {
        CacheHierarchy {
            l1: (0..cfg.cores)
                .map(|_| SetAssocCache::new(cfg.l1_bytes, cfg.l1_assoc, cfg.line_bytes))
                .collect(),
            l2: (0..cfg.cores)
                .map(|_| SetAssocCache::new(cfg.l2_bytes, cfg.l2_assoc, cfg.line_bytes))
                .collect(),
            llc: SetAssocCache::new(cfg.llc_bytes, cfg.llc_assoc, cfg.line_bytes),
            line_bytes: cfg.line_bytes,
        }
    }

    /// Cache line size.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of core slots.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Present one memory access from `core` at byte address `addr`.
    /// The access walks L1 → L2 → LLC, allocating on miss at each level.
    pub fn access(&mut self, core: usize, addr: u64) {
        if self.l1[core].access(addr) == Outcome::Miss
            && self.l2[core].access(addr) == Outcome::Miss
        {
            // LLC is shared; misses there go to DRAM (counted in stats).
            let _ = self.llc.access(addr);
        }
    }

    /// Combined statistics over all cores.
    pub fn stats(&self) -> HierarchyStats {
        let mut l1 = CacheStats::default();
        let mut l2 = CacheStats::default();
        for c in &self.l1 {
            l1.accesses += c.stats().accesses;
            l1.misses += c.stats().misses;
        }
        for c in &self.l2 {
            l2.accesses += c.stats().accesses;
            l2.misses += c.stats().misses;
        }
        HierarchyStats {
            l1,
            l2,
            llc: self.llc.stats(),
        }
    }

    /// Clear contents and statistics at every level.
    pub fn reset(&mut self) {
        for c in &mut self.l1 {
            c.reset();
        }
        for c in &mut self.l2 {
            c.reset();
        }
        self.llc.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KIB;

    fn tiny() -> SetAssocCache {
        // 4 KiB, 4-way, 64 B lines → 16 sets.
        SetAssocCache::new(4 * KIB, 4, 64)
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000), Outcome::Miss);
        assert_eq!(c.access(0x1000), Outcome::Hit);
        assert_eq!(c.access(0x1008), Outcome::Hit, "same line");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(); // 16 sets → set stride = 16*64 = 1024
                            // Five distinct tags mapping to set 0 in a 4-way set.
        let addrs: Vec<u64> = (0..5).map(|i| i * 1024).collect();
        for &a in &addrs[..4] {
            assert_eq!(c.access(a), Outcome::Miss);
        }
        // Touch addr 0 to make it MRU; then insert the 5th tag.
        assert_eq!(c.access(addrs[0]), Outcome::Hit);
        assert_eq!(c.access(addrs[4]), Outcome::Miss);
        // addr 1 was LRU → evicted; addr 0 survived.
        assert_eq!(c.access(addrs[0]), Outcome::Hit);
        assert_eq!(c.access(addrs[1]), Outcome::Miss);
    }

    #[test]
    fn working_set_that_fits_has_zero_steady_state_misses() {
        let mut c = tiny();
        let lines: Vec<u64> = (0..64).map(|i| i * 64).collect(); // 4 KiB exactly
        for &a in &lines {
            c.access(a);
        }
        let cold_misses = c.stats().misses;
        assert_eq!(cold_misses, 64);
        for _ in 0..10 {
            for &a in &lines {
                c.access(a);
            }
        }
        assert_eq!(c.stats().misses, cold_misses, "no steady-state misses");
    }

    #[test]
    fn working_set_twice_capacity_thrashes_under_lru() {
        let mut c = tiny();
        // 128 lines cycling through a 64-line cache with LRU: every
        // access misses after warmup.
        let lines: Vec<u64> = (0..128).map(|i| i * 64).collect();
        for _ in 0..5 {
            for &a in &lines {
                c.access(a);
            }
        }
        let s = c.stats();
        assert!(s.miss_ratio() > 0.95, "miss ratio {}", s.miss_ratio());
    }

    #[test]
    fn resident_lines_bounded_by_capacity() {
        let mut c = tiny();
        for i in 0..10_000u64 {
            c.access(i * 64);
        }
        assert!(c.resident_lines() <= 64);
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.access(0), Outcome::Miss);
    }

    #[test]
    fn hierarchy_filters_misses_downward() {
        let cfg = MachineConfig::small_test();
        let mut h = CacheHierarchy::new(&cfg);
        // Stream far beyond LLC from core 0.
        for i in 0..200_000u64 {
            h.access(0, i * 64);
        }
        let s = h.stats();
        assert_eq!(s.l1.accesses, 200_000);
        assert_eq!(s.l2.accesses, s.l1.misses);
        assert_eq!(s.llc.accesses, s.l2.misses);
        assert!(s.llc.misses > 0, "the stream reaches DRAM");
    }

    #[test]
    fn private_caches_do_not_interfere_but_llc_is_shared() {
        let cfg = MachineConfig::small_test();
        let mut h = CacheHierarchy::new(&cfg);
        // Core 0 warms a small set.
        let ws: Vec<u64> = (0..256).map(|i| i * 64).collect();
        for _ in 0..4 {
            for &a in &ws {
                h.access(0, a);
            }
        }
        let before = h.stats().l1;
        // Core 1 streams a huge disjoint region; core 0's L1 is private
        // so a re-walk of its set still hits L1.
        for i in 0..100_000u64 {
            h.access(1, (1 << 30) + i * 64);
        }
        for &a in &ws {
            h.access(0, a);
        }
        let after = h.stats().l1;
        let new_accesses = after.accesses - before.accesses - 100_000;
        let new_misses_core0 = after.misses - before.misses - (h.l1[1].stats().misses); // core1's stream missed everywhere
        assert_eq!(new_accesses, 256);
        assert_eq!(new_misses_core0, 0, "core 0's private L1 was disturbed");
    }

    #[test]
    fn shared_llc_contention_is_visible() {
        let cfg = MachineConfig::small_test(); // 4 MiB LLC
                                               // Solo: one core loops over 3 MiB (fits LLC).
        let ws_lines = (3 * 1024 * 1024) / 64;
        let walk = |h: &mut CacheHierarchy, core: usize, base: u64| {
            for i in 0..ws_lines {
                h.access(core, base + i * 64);
            }
        };
        let mut solo = CacheHierarchy::new(&cfg);
        for _ in 0..4 {
            walk(&mut solo, 0, 0);
        }
        let solo_miss = solo.stats().llc.miss_ratio();

        // Duo: two cores loop over disjoint 3 MiB regions (6 MiB > 4 MiB).
        let mut duo = CacheHierarchy::new(&cfg);
        for _ in 0..4 {
            walk(&mut duo, 0, 0);
            walk(&mut duo, 1, 1 << 30);
        }
        let duo_miss = duo.stats().llc.miss_ratio();
        assert!(
            duo_miss > solo_miss + 0.2,
            "expected heavy contention: solo {solo_miss} duo {duo_miss}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity/assoc")]
    fn rejects_inconsistent_geometry() {
        // 1024 bytes / 64 B = 16 lines; not divisible into 3-way sets.
        SetAssocCache::new(1024, 3, 64);
    }
}
