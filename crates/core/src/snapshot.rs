//! A cheap, fully comparable snapshot of an engine's observable state.
//!
//! The differential oracles in `rda-check` replay event traces through
//! an engine and an independent reference model, and assert
//! *observable-state equivalence* after every event. [`Snapshot`]
//! defines exactly what "observable" means, for both engines: per node,
//! the nominal and overflow books per resource kind and the waitlist in
//! queue order (including enqueue times, which drive aging, and each
//! waiter's accounted demand, read from its record as the drain reads
//! it); every live period's [`PpRecord`] with its layer, node and
//! demand vectors; the activity counters; and the id allocator
//! position. The topology engine
//! ([`crate::topo::TopoExtension`]) fills every field; the scalar
//! engine ([`crate::extension::RdaExtension`]) reports one node, layer
//! 0 and LLC-only vectors, which is exactly what the topology engine
//! reports on [`crate::topo::TopoConfig::compat`]. Anything not captured
//! here — the fast-path cache's internals, breaker streaks, call-cost
//! tunables — is implementation detail whose divergence must eventually
//! surface through these fields or through a per-call result.
//!
//! Snapshots also hash ([`Snapshot::digest`], FNV-1a via
//! `rda_simcore::Fnv1a64`), which is what the bounded model checker
//! uses for state-space pruning and what a topology traffic run pins as
//! its final state.

use crate::api::PpId;
use crate::extension::RdaStats;
use crate::registry::PpRecord;
use crate::topology::{Demand, KIND_COUNT};
use rda_simcore::Fnv1a64;

/// One waitlist entry, as observable from outside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitSnap {
    /// The waiting period.
    pub pp: PpId,
    /// Its accounted demand vector, from its record.
    pub accounted: Demand,
    /// Enqueue time in cycles (drives aging).
    pub enqueued_cycles: u64,
}

/// The complete observable state of an engine.
///
/// Two engines (or an engine and its reference model) are behaviourally
/// equivalent at a point in time iff their snapshots are equal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Nominal usage per node per kind.
    pub usage: Vec<[u64; KIND_COUNT]>,
    /// Overflow-bucket usage per node per kind.
    pub overflow: Vec<[u64; KIND_COUNT]>,
    /// Waitlist contents front-to-back per node.
    pub waitlists: Vec<Vec<WaitSnap>>,
    /// Every live period's record, in id order.
    pub periods: Vec<PpRecord>,
    /// Activity counters (the fast-path counters stay zero in the
    /// topology engine).
    pub stats: RdaStats,
    /// Number of period ids ever allocated (the next id to be handed
    /// out) — distinguishes "unknown id" from "completed id".
    pub allocated: u64,
}

impl Snapshot {
    /// Platform-stable FNV-1a digest over every field, for state-space
    /// pruning in the bounded model checker and the topology traffic
    /// engine's final-state pin.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a64::new();
        h.write_usize(self.usage.len());
        let books = self.usage.iter().zip(&self.overflow);
        for ((usage, overflow), queue) in books.zip(&self.waitlists) {
            for (&u, &o) in usage.iter().zip(overflow) {
                h.write_u64(u).write_u64(o);
            }
            h.write_usize(queue.len());
            for w in queue {
                h.write_u64(w.pp.0).write_u64(w.enqueued_cycles);
                for a in w.accounted.amounts {
                    h.write_u64(a);
                }
            }
        }
        h.write_usize(self.periods.len());
        for p in &self.periods {
            h.write_u64(p.id.0)
                .write_u64(p.process.0 as u64)
                .write_u64(p.site.0 as u64)
                .write_u64(p.layer.0 as u64)
                .write_u64(p.node.0 as u64)
                .write_u64(p.admitted as u64)
                .write_u64(p.overflow as u64);
            for a in p.declared.amounts {
                h.write_u64(a);
            }
            for a in p.accounted.amounts {
                h.write_u64(a);
            }
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

    /// True when every book on every node is zero, nothing waits, and
    /// no period is live — the drained-to-idle end state every recovery
    /// property expects.
    pub fn is_idle(&self) -> bool {
        self.usage.iter().all(|u| u.iter().all(|&a| a == 0))
            && self.overflow.iter().all(|u| u.iter().all(|&a| a == 0))
            && self.waitlists.iter().all(|w| w.is_empty())
            && self.periods.is_empty()
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
        let base = Snapshot {
            usage: vec![[0; KIND_COUNT]],
            overflow: vec![[0; KIND_COUNT]],
            waitlists: vec![Vec::new()],
            ..Snapshot::default()
        };
        let mut usage = base.clone();
        usage.usage[0][1] = 1;
        let mut overflow = base.clone();
        overflow.overflow[0][1] = 1;
        let mut wait = base.clone();
        wait.waitlists[0].push(WaitSnap {
            pp: PpId(0),
            accounted: Demand::llc(5),
            enqueued_cycles: 9,
        });
        let mut alloc = base.clone();
        alloc.allocated = 3;
        let digests = [
            Snapshot::default().digest(),
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
        s.usage = vec![[42, 0, 0]];
        let bare = s.without_stats();
        assert_eq!(bare.stats, RdaStats::default());
        assert_eq!(bare.usage, vec![[42, 0, 0]]);
    }
}
