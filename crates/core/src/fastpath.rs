//! Decision memoisation — the fast path for fine-grained periods.
//!
//! Figure 11 of the paper shows that tracking 262 144 inner-loop
//! periods costs far less *per period* than tracking 512 middle-loop
//! periods: the measured overhead grows sub-linearly in period count.
//! That behaviour implies the prototype does not pay the full
//! syscall + predicate + waitlist cost on every boundary. This module
//! implements the mechanism explicitly:
//!
//! Each *(process, site)* pair caches the demand amount of its last
//! full predicate evaluation and when that evaluation (or a refresh)
//! happened. The admission test for policies Strict/Compromise/
//! Partitioned is `usage + accounted ≤ limit` (with `limit` the policy's
//! [`crate::policy::PolicyKind::usage_limit`]), so a repeat entry of the
//! same site with the same amount is admitted with one comparison of
//! the resource monitor's usage word (a shared-page read in a real
//! kernel — no syscall, no locks) against the **usage threshold**
//! `limit − accounted`. The entry does not store that threshold: a hit
//! needs the same amount, and the policy and capacity are fixed when
//! the engine is built, so the caller recomputes it from the call it is
//! deciding and passes it in. The cached decision expires after the
//! cache's horizon (`min_eval_interval`) without a fresh full
//! evaluation, so coarse-grained periods always take the slow path and
//! the system periodically re-validates.
//!
//! Entries are keyed by *(process, site)* in one flat map, so a lookup
//! is one probe. The cache also lists every site it has ever stored.
//! A [`crate::api::SiteId`] is a static program location, so that list
//! is bounded by the program text (three sites in the overload
//! workload, at most four in the paper grid), while the map holds one
//! entry per process that ever ran a site — in an open system, one per
//! completed request. Process exit therefore removes `(process, site)`
//! for each listed site, one probe each, and never visits another
//! process's entries.
//!
//! The fast path is *sound*: it hits only when Algorithm 1
//! ([`crate::rules::fits`]) admits. It may miss where Algorithm 1
//! admits unconditionally — a zero-byte or oversized period on a busy
//! cache — and those calls take the slow path. A hit decides nothing:
//! the engine admits through Algorithm 1's one admission block either
//! way, and the hit only marks the call fast (its cost and the
//! `fast_begins` counter). It is also
//! conservative: it is only used when the waitlist is empty (so
//! admission cannot jump ahead of a waiting period) and only ever
//! caches `Run` verdicts (a denied period must always take the slow
//! path so it can be waitlisted and later resumed).

use crate::api::SiteId;
use rda_sched::ProcessId;
use rda_simcore::{Fnv1a64, SimTime};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct CachedRun {
    /// The audited demand the full evaluation admitted.
    demand_amount: u64,
    /// Time of the last full evaluation (or refresh).
    refreshed_at: SimTime,
}

/// Per-(process, site) cache of admission decisions.
#[derive(Debug, Clone)]
pub struct FastPathCache {
    entries: HashMap<(ProcessId, SiteId), CachedRun>,
    /// Every site ever stored, in first-store order. Never shrinks:
    /// a listed site without an entry costs an exit one missed probe.
    sites: Vec<SiteId>,
    /// A decision is fresh for this many cycles after its last full
    /// evaluation or refresh.
    max_age_cycles: u64,
}

impl FastPathCache {
    /// Empty cache whose decisions stay fresh for `max_age_cycles`.
    pub fn new(max_age_cycles: u64) -> Self {
        FastPathCache {
            entries: HashMap::new(),
            sites: Vec::new(),
            max_age_cycles,
        }
    }

    /// Record a successful full evaluation: the site was admitted with
    /// the given demand.
    pub fn store_run(
        &mut self,
        process: ProcessId,
        site: SiteId,
        demand_amount: u64,
        now: SimTime,
    ) {
        let run = CachedRun {
            demand_amount,
            refreshed_at: now,
        };
        // A replaced entry's site is listed already.
        if self.entries.insert((process, site), run).is_none() && !self.sites.contains(&site) {
            self.sites.push(site);
        }
    }

    /// Attempt a fast-path admission for a repeat entry of `site`.
    ///
    /// Hits when a cached `Run` exists for the same demand, it is still
    /// fresh, and `current_usage` is at most `usage_threshold` (the
    /// caller's `limit − accounted` for this demand). On a hit the
    /// entry is refreshed.
    pub fn try_admit(
        &mut self,
        process: ProcessId,
        site: SiteId,
        demand_amount: u64,
        current_usage: u64,
        usage_threshold: u64,
        now: SimTime,
    ) -> bool {
        let Some(entry) = self.entries.get_mut(&(process, site)) else {
            return false;
        };
        let fresh = now.since(entry.refreshed_at).cycles() < self.max_age_cycles;
        let matches = entry.demand_amount == demand_amount;
        let admissible = current_usage <= usage_threshold;
        if fresh && matches && admissible {
            entry.refreshed_at = now;
            true
        } else {
            if !matches {
                // The site's demand changed (e.g. input-dependent
                // working set); the stale entry is useless.
                self.entries.remove(&(process, site));
            }
            false
        }
    }

    /// Read-only freshness check: was this (process, site) fully
    /// evaluated (or fast-refreshed) within the horizon? Used by
    /// `pp_end` to decide whether the completion can skip the kernel's
    /// slow path too.
    pub fn is_fresh(&self, process: ProcessId, site: SiteId, now: SimTime) -> bool {
        self.entries
            .get(&(process, site))
            .is_some_and(|e| now.since(e.refreshed_at).cycles() < self.max_age_cycles)
    }

    /// Invalidate every cached decision of one process (process exit):
    /// one probe per listed site.
    pub fn invalidate_process(&mut self, process: ProcessId) {
        for &site in &self.sites {
            self.entries.remove(&(process, site));
        }
    }

    /// Order-independent digest of the cache contents (entries XORed,
    /// so the backing `HashMap`'s iteration order cannot leak in), each
    /// entry hashed with the usage threshold `threshold` maps its
    /// amount to. The cache is deliberately absent from
    /// [`crate::snapshot::Snapshot`] — it is an accelerator, not
    /// scheduling state — but it *does* steer future admissions, so the
    /// differential oracle and the bounded explorer in `rda-check` use
    /// this digest to tell apart states whose observable books agree
    /// while their memoised decisions do not.
    pub fn digest(&self, threshold: impl Fn(u64) -> u64) -> u64 {
        let mut acc = 0u64;
        for (&(process, site), e) in &self.entries {
            let mut h = Fnv1a64::new();
            h.write_u64(process.0 as u64)
                .write_u64(site.0 as u64)
                .write_u64(e.demand_amount)
                .write_u64(threshold(e.demand_amount))
                .write_u64(e.refreshed_at.cycles());
            acc ^= h.finish();
        }
        acc ^ self.entries.len() as u64
    }

    /// Number of cached decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const AGE: u64 = 1000;

    fn cache_with_entry() -> FastPathCache {
        let mut c = FastPathCache::new(AGE);
        c.store_run(ProcessId(1), SiteId(7), 100, SimTime::from_cycles(0));
        c
    }

    #[test]
    fn hit_within_age_and_threshold() {
        let mut c = cache_with_entry();
        assert!(c.try_admit(
            ProcessId(1),
            SiteId(7),
            100,
            900,
            900,
            SimTime::from_cycles(500)
        ));
    }

    #[test]
    fn miss_when_expired() {
        let mut c = cache_with_entry();
        assert!(!c.try_admit(
            ProcessId(1),
            SiteId(7),
            100,
            0,
            900,
            SimTime::from_cycles(1000)
        ));
    }

    #[test]
    fn hit_refreshes_age() {
        let mut c = cache_with_entry();
        // Chain of hits each 600 cycles apart stays alive indefinitely.
        for k in 1..10u64 {
            assert!(
                c.try_admit(
                    ProcessId(1),
                    SiteId(7),
                    100,
                    0,
                    900,
                    SimTime::from_cycles(k * 600)
                ),
                "hit {k} failed"
            );
        }
    }

    #[test]
    fn miss_when_usage_exceeds_threshold() {
        let mut c = cache_with_entry();
        assert!(!c.try_admit(
            ProcessId(1),
            SiteId(7),
            100,
            901,
            900,
            SimTime::from_cycles(1)
        ));
    }

    #[test]
    fn demand_change_invalidates_entry() {
        let mut c = cache_with_entry();
        assert!(!c.try_admit(
            ProcessId(1),
            SiteId(7),
            200, // different demand
            0,
            800,
            SimTime::from_cycles(1)
        ));
        assert!(c.is_empty(), "stale entry should be dropped");
    }

    #[test]
    fn other_process_or_site_misses() {
        let mut c = cache_with_entry();
        assert!(!c.try_admit(
            ProcessId(2),
            SiteId(7),
            100,
            0,
            900,
            SimTime::from_cycles(1)
        ));
        assert!(!c.try_admit(
            ProcessId(1),
            SiteId(8),
            100,
            0,
            900,
            SimTime::from_cycles(1)
        ));
    }

    #[test]
    fn invalidate_process_clears_its_entries() {
        let mut c = cache_with_entry();
        c.store_run(ProcessId(2), SiteId(1), 50, SimTime::from_cycles(0));
        c.invalidate_process(ProcessId(1));
        assert_eq!(c.len(), 1);
        assert!(!c.try_admit(
            ProcessId(1),
            SiteId(7),
            100,
            0,
            900,
            SimTime::from_cycles(1)
        ));
    }

    #[test]
    fn invalidate_process_keeps_other_processes_sites() {
        let t0 = SimTime::from_cycles(0);
        let mut c = FastPathCache::new(AGE);
        // Sites are listed in first-store order: 7, 9, 8.
        c.store_run(ProcessId(1), SiteId(7), 100, t0);
        c.store_run(ProcessId(2), SiteId(7), 100, t0);
        c.store_run(ProcessId(2), SiteId(9), 100, t0);
        c.store_run(ProcessId(1), SiteId(8), 100, t0);
        c.invalidate_process(ProcessId(1));
        assert_eq!(c.len(), 2);
        let t1 = SimTime::from_cycles(1);
        assert!(!c.is_fresh(ProcessId(1), SiteId(7), t1));
        assert!(!c.is_fresh(ProcessId(1), SiteId(8), t1));
        assert!(c.is_fresh(ProcessId(2), SiteId(7), t1));
        assert!(c.is_fresh(ProcessId(2), SiteId(9), t1));
        // Site 8 stays listed after the process that stored it is
        // gone, so a later process's entry there is found on its exit.
        c.store_run(ProcessId(3), SiteId(8), 100, t1);
        c.invalidate_process(ProcessId(3));
        assert!(!c.is_fresh(ProcessId(3), SiteId(8), t1));
        assert_eq!(c.len(), 2);
    }

    /// The limit the property's thresholds are derived from.
    const LIMIT: u64 = 1000;

    /// The usage threshold an engine with limit [`LIMIT`] passes for
    /// `amount` (Strict's accounting: the whole amount).
    fn threshold(amount: u64) -> u64 {
        LIMIT.saturating_sub(amount)
    }

    /// The cache before it listed its sites: one flat map whose entries
    /// carry their threshold, and an exit that scans every entry. Kept
    /// here as the reference the cache must match.
    #[derive(Default)]
    struct FlatCache {
        entries: HashMap<(ProcessId, SiteId), (u64, u64, SimTime)>,
    }

    impl FlatCache {
        fn store_run(&mut self, key: (ProcessId, SiteId), amount: u64, now: SimTime) {
            self.entries.insert(key, (amount, threshold(amount), now));
        }

        fn try_admit(
            &mut self,
            key: (ProcessId, SiteId),
            amount: u64,
            usage: u64,
            now: SimTime,
        ) -> bool {
            let Some(e) = self.entries.get_mut(&key) else {
                return false;
            };
            let fresh = now.since(e.2).cycles() < AGE;
            if fresh && e.0 == amount && usage <= e.1 {
                e.2 = now;
                true
            } else {
                if e.0 != amount {
                    self.entries.remove(&key);
                }
                false
            }
        }

        fn is_fresh(&self, key: (ProcessId, SiteId), now: SimTime) -> bool {
            self.entries
                .get(&key)
                .is_some_and(|e| now.since(e.2).cycles() < AGE)
        }

        fn invalidate_process(&mut self, process: ProcessId) {
            self.entries.retain(|&(p, _), _| p != process);
        }

        fn digest(&self) -> u64 {
            let mut acc = 0u64;
            for (&(process, site), &(amount, threshold, refreshed_at)) in &self.entries {
                let mut h = Fnv1a64::new();
                h.write_u64(process.0 as u64)
                    .write_u64(site.0 as u64)
                    .write_u64(amount)
                    .write_u64(threshold)
                    .write_u64(refreshed_at.cycles());
                acc ^= h.finish();
            }
            acc ^ self.entries.len() as u64
        }
    }

    /// One cache call (drawn with the clock step taken before it).
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Store(u32, u32, u64),
        Admit(u32, u32, u64, u64),
        Fresh(u32, u32),
        Invalidate(u32),
    }

    /// Amounts from a short list, so a site's amount sometimes changes;
    /// the last one is above [`LIMIT`] (threshold 0).
    const AMOUNTS: [u64; 4] = [50, 400, 900, 1500];

    /// An index below `n`, 0 in more than half the draws: process 0 at
    /// site 0 takes about a third of the calls, so hits, refreshes and
    /// ages of exactly one horizon are common, while the other calls
    /// still spread over five processes and six sites.
    fn skewed(n: u32) -> impl Strategy<Value = u32> {
        prop_oneof![1 => Just(0u32), 1 => 0..n]
    }

    fn arb_amount() -> impl Strategy<Value = u64> {
        (0u32..4).prop_map(|a| AMOUNTS[a as usize])
    }

    fn arb_op() -> impl Strategy<Value = (u64, Op)> {
        // Usage one below, at or one above an amount's threshold.
        let usage = (arb_amount(), 0u64..3).prop_map(|(a, d)| (threshold(a) + d).saturating_sub(1));
        let op = prop_oneof![
            3 => (skewed(5), skewed(6), arb_amount())
                .prop_map(|(p, s, a)| Op::Store(p, s, a)),
            4 => (skewed(5), skewed(6), arb_amount(), usage)
                .prop_map(|(p, s, a, u)| Op::Admit(p, s, a, u)),
            2 => (skewed(5), skewed(6)).prop_map(|(p, s)| Op::Fresh(p, s)),
            1 => skewed(5).prop_map(Op::Invalidate),
        ];
        // Steps of up to 0.7 horizons, in 50-cycle units so an age of
        // exactly one horizon is common: entries expire after two or
        // three calls unless a hit refreshes them.
        ((0u64..15).prop_map(|k| k * 50), op)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cache answers every call as the flat map with a
        /// scanning exit does, and holds the same entries (length and
        /// digest) after every step.
        #[test]
        fn cache_matches_the_flat_map_reference(
            ops in prop::collection::vec(arb_op(), 1..150),
        ) {
            let mut cache = FastPathCache::new(AGE);
            let mut flat = FlatCache::default();
            let mut clock = 0u64;
            for (step, op) in ops {
                clock += step;
                let now = SimTime::from_cycles(clock);
                match op {
                    Op::Store(p, s, amount) => {
                        cache.store_run(ProcessId(p), SiteId(s), amount, now);
                        flat.store_run((ProcessId(p), SiteId(s)), amount, now);
                    }
                    Op::Admit(p, s, amount, usage) => {
                        let (process, site) = (ProcessId(p), SiteId(s));
                        let got =
                            cache.try_admit(process, site, amount, usage, threshold(amount), now);
                        let want = flat.try_admit((process, site), amount, usage, now);
                        prop_assert_eq!(got, want, "{:?} at {}", op, clock);
                    }
                    Op::Fresh(p, s) => {
                        let key = (ProcessId(p), SiteId(s));
                        let got = cache.is_fresh(key.0, key.1, now);
                        prop_assert_eq!(got, flat.is_fresh(key, now), "{:?} at {}", op, clock);
                    }
                    Op::Invalidate(p) => {
                        cache.invalidate_process(ProcessId(p));
                        flat.invalidate_process(ProcessId(p));
                    }
                }
                prop_assert_eq!(cache.len(), flat.entries.len(), "{:?} at {}", op, clock);
                prop_assert_eq!(cache.digest(threshold), flat.digest(), "{:?} at {}", op, clock);
            }
        }
    }
}
