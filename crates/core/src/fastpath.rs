//! Decision memoisation — the fast path for fine-grained periods.
//!
//! Figure 11 of the paper shows that tracking 262 144 inner-loop
//! periods costs far less *per period* than tracking 512 middle-loop
//! periods: the measured overhead grows sub-linearly in period count.
//! That behaviour implies the prototype does not pay the full
//! syscall + predicate + waitlist cost on every boundary. This module
//! implements the mechanism explicitly:
//!
//! Each *(process, site)* pair caches the outcome of its last full
//! predicate evaluation together with a **usage threshold**: the
//! admission test for policies Strict/Compromise/Partitioned is
//! `usage + accounted ≤ limit` (with `limit` the policy's
//! [`crate::policy::PolicyKind::usage_limit`]), so a cached `threshold =
//! limit − accounted` lets a repeat entry of the same site be admitted with one
//! comparison against the resource monitor's usage word (a shared-page
//! read in a real kernel — no syscall, no locks). The cached decision
//! expires after `min_eval_interval` without a fresh full evaluation, so
//! coarse-grained periods always take the slow path and the system
//! periodically re-validates.
//!
//! The fast path is *sound*: it admits only when Algorithm 1
//! ([`crate::rules::fits`]) would. It may miss where Algorithm 1
//! admits unconditionally — a zero-byte or oversized period on a busy
//! cache — and those calls take the slow path. It is also
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
    demand_amount: u64,
    /// Admit while `usage ≤ threshold`.
    usage_threshold: u64,
    /// Time of the last full evaluation (or refresh).
    refreshed_at: SimTime,
}

/// Per-(process, site) cache of admission decisions.
#[derive(Debug, Clone, Default)]
pub struct FastPathCache {
    entries: HashMap<(ProcessId, SiteId), CachedRun>,
}

impl FastPathCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a successful full evaluation: the site was admitted with
    /// the given demand, and repeats are valid while usage stays at or
    /// below `usage_threshold`.
    pub fn store_run(
        &mut self,
        process: ProcessId,
        site: SiteId,
        demand_amount: u64,
        usage_threshold: u64,
        now: SimTime,
    ) {
        self.entries.insert(
            (process, site),
            CachedRun {
                demand_amount,
                usage_threshold,
                refreshed_at: now,
            },
        );
    }

    /// Attempt a fast-path admission for a repeat entry of `site`.
    ///
    /// Hits when a cached `Run` exists for the same demand, it was
    /// refreshed within `max_age` cycles, and the current usage still
    /// satisfies the threshold. On a hit the entry is refreshed.
    pub fn try_admit(
        &mut self,
        process: ProcessId,
        site: SiteId,
        demand_amount: u64,
        current_usage: u64,
        now: SimTime,
        max_age_cycles: u64,
    ) -> bool {
        let Some(entry) = self.entries.get_mut(&(process, site)) else {
            return false;
        };
        let fresh = now.since(entry.refreshed_at).cycles() < max_age_cycles;
        let matches = entry.demand_amount == demand_amount;
        let admissible = current_usage <= entry.usage_threshold;
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
    /// evaluated (or fast-refreshed) within `max_age` cycles? Used by
    /// `pp_end` to decide whether the completion can skip the kernel's
    /// slow path too.
    pub fn is_fresh(
        &self,
        process: ProcessId,
        site: SiteId,
        now: SimTime,
        max_age_cycles: u64,
    ) -> bool {
        self.entries
            .get(&(process, site))
            .is_some_and(|e| now.since(e.refreshed_at).cycles() < max_age_cycles)
    }

    /// Invalidate every cached decision of one process (process exit).
    pub fn invalidate_process(&mut self, process: ProcessId) {
        self.entries.retain(|&(p, _), _| p != process);
    }

    /// Order-independent digest of the cache contents (entries XORed,
    /// so the backing `HashMap`'s iteration order cannot leak in). The
    /// cache is deliberately absent from
    /// [`crate::snapshot::Snapshot`] — it is an accelerator, not
    /// scheduling state — but it *does* steer future admissions, so the
    /// differential oracle and the bounded explorer in `rda-check` use
    /// this digest to tell apart states whose observable books agree
    /// while their memoised decisions do not.
    pub fn digest(&self) -> u64 {
        let mut acc = 0u64;
        for (&(process, site), e) in &self.entries {
            let mut h = Fnv1a64::new();
            h.write_u64(process.0 as u64)
                .write_u64(site.0 as u64)
                .write_u64(e.demand_amount)
                .write_u64(e.usage_threshold)
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

    const AGE: u64 = 1000;

    fn cache_with_entry() -> FastPathCache {
        let mut c = FastPathCache::new();
        c.store_run(ProcessId(1), SiteId(7), 100, 900, SimTime::from_cycles(0));
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
            SimTime::from_cycles(500),
            AGE
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
            SimTime::from_cycles(1000),
            AGE
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
                    SimTime::from_cycles(k * 600),
                    AGE
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
            SimTime::from_cycles(1),
            AGE
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
            SimTime::from_cycles(1),
            AGE
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
            SimTime::from_cycles(1),
            AGE
        ));
        assert!(!c.try_admit(
            ProcessId(1),
            SiteId(8),
            100,
            0,
            SimTime::from_cycles(1),
            AGE
        ));
    }

    #[test]
    fn invalidate_process_clears_its_entries() {
        let mut c = cache_with_entry();
        c.store_run(ProcessId(2), SiteId(1), 50, 950, SimTime::from_cycles(0));
        c.invalidate_process(ProcessId(1));
        assert_eq!(c.len(), 1);
        assert!(!c.try_admit(
            ProcessId(1),
            SiteId(7),
            100,
            0,
            SimTime::from_cycles(1),
            AGE
        ));
    }
}
