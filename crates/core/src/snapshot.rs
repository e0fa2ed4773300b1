//! A cheap, fully comparable snapshot of the extension's observable
//! state.
//!
//! The differential oracle in `rda-check` replays event traces through
//! both [`crate::extension::RdaExtension`] and an independent reference
//! model of Algorithm 1, and asserts *observable-state equivalence*
//! after every event. [`Snapshot`] defines exactly what "observable"
//! means: the two LLC accounting buckets, the waitlist contents in
//! queue order (including enqueue times, which drive
//! aging), every live period record, the activity counters, and the id
//! allocator position. Anything not captured here — the fast-path
//! cache's internals, call-cost tunables — is implementation detail
//! whose divergence must eventually surface through these fields or
//! through a per-call result.
//!
//! Snapshots also hash ([`Snapshot::digest`], FNV-1a via
//! `rda_simcore::Fnv1a64`), which is what the bounded model checker
//! uses for state-space pruning.

use crate::api::{PpId, SiteId};
use crate::extension::RdaStats;
use rda_sched::ProcessId;
use rda_simcore::Fnv1a64;

/// One live period, as observable from outside the extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PpSnap {
    /// The period id.
    pub id: PpId,
    /// Owning process.
    pub process: ProcessId,
    /// Static site.
    pub site: SiteId,
    /// Declared (post-audit) demand amount.
    pub declared: u64,
    /// Amount actually accounted in the monitor.
    pub accounted: u64,
    /// Running (`true`) or waitlisted (`false`).
    pub admitted: bool,
    /// Accounted in the degraded overflow bucket (aged admission).
    pub overflow: bool,
}

/// One waitlist entry, as observable from outside the extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitSnap {
    /// The waiting period.
    pub pp: PpId,
    /// Its accounted demand.
    pub accounted: u64,
    /// Enqueue time in cycles (drives aging).
    pub enqueued_cycles: u64,
}

/// The complete observable state of an [`crate::extension::RdaExtension`].
///
/// Two extensions (or an extension and the reference model) are
/// behaviourally equivalent at a point in time iff their snapshots are
/// equal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Nominal LLC usage.
    pub usage: u64,
    /// Overflow-bucket LLC usage.
    pub overflow: u64,
    /// Waitlist contents front-to-back.
    pub waitlist: Vec<WaitSnap>,
    /// Every live period, in id order.
    pub periods: Vec<PpSnap>,
    /// Activity counters.
    pub stats: RdaStats,
    /// Number of period ids ever allocated (the next id to be handed
    /// out) — distinguishes "unknown id" from "completed id".
    pub allocated: u64,
}

impl Snapshot {
    /// Platform-stable FNV-1a digest over every field, for state-space
    /// pruning in the bounded model checker.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a64::new();
        h.write_u64(self.usage).write_u64(self.overflow);
        h.write_usize(self.waitlist.len());
        for w in &self.waitlist {
            h.write_u64(w.pp.0)
                .write_u64(w.accounted)
                .write_u64(w.enqueued_cycles);
        }
        h.write_usize(self.periods.len());
        for p in &self.periods {
            h.write_u64(p.id.0)
                .write_u64(p.process.0 as u64)
                .write_u64(p.site.0 as u64)
                .write_u64(p.declared)
                .write_u64(p.accounted)
                .write_u64(p.admitted as u64)
                .write_u64(p.overflow as u64);
        }
        let s = &self.stats;
        for v in [
            s.begins,
            s.ends,
            s.admitted,
            s.paused,
            s.resumed,
            s.fast_begins,
            s.fast_ends,
            s.max_waitlist,
            s.oversized_admits,
            s.reclaimed,
            s.clamped,
            s.aged_admissions,
            s.rejected_ends,
            s.shed,
            s.expired,
            s.retried,
            s.breaker_trips,
            // `s.desyncs` is deliberately excluded: it was added after
            // the golden digests were pinned and is zero in any healthy
            // run, so hashing it would invalidate every pinned digest
            // without adding discrimination.
        ] {
            h.write_u64(v);
        }
        h.write_u64(self.allocated);
        h.finish()
    }

    /// This snapshot with its activity counters zeroed — for asserting
    /// that a rejected call left everything *except* the rejection
    /// counters untouched.
    pub fn without_stats(&self) -> Snapshot {
        Snapshot {
            stats: RdaStats::default(),
            ..self.clone()
        }
    }

    /// True when no demand is accounted anywhere, nothing waits, and no
    /// period is live — the drained-to-idle end state every recovery
    /// property expects.
    pub fn is_idle(&self) -> bool {
        self.usage == 0 && self.overflow == 0 && self.waitlist.is_empty() && self.periods.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_idle_and_stable() {
        let s = Snapshot::default();
        assert!(s.is_idle());
        assert_eq!(s.digest(), Snapshot::default().digest());
    }

    #[test]
    fn digest_is_sensitive_to_every_bucket() {
        let base = Snapshot::default();
        let mut usage = base.clone();
        usage.usage = 1;
        let mut overflow = base.clone();
        overflow.overflow = 1;
        let mut wait = base.clone();
        wait.waitlist.push(WaitSnap {
            pp: PpId(0),
            accounted: 5,
            enqueued_cycles: 9,
        });
        let mut alloc = base.clone();
        alloc.allocated = 3;
        let digests = [
            base.digest(),
            usage.digest(),
            overflow.digest(),
            wait.digest(),
            alloc.digest(),
        ];
        for (i, a) in digests.iter().enumerate() {
            for (j, b) in digests.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "snapshots {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn without_stats_zeroes_only_counters() {
        let mut s = Snapshot::default();
        s.stats.begins = 7;
        s.usage = 42;
        let bare = s.without_stats();
        assert_eq!(bare.stats, RdaStats::default());
        assert_eq!(bare.usage, 42);
    }
}
