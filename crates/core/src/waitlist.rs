//! The resource waitlist (§3.1, Figures 5/6).
//!
//! Processes whose progress periods are denied are *"placed on a
//! resource waitlist so they may be rescheduled later when another
//! progress period completes and releases sufficient resources"*. The
//! waitlist is FIFO: the longest-waiting period is re-evaluated first,
//! which bounds waiting time and keeps admission order deterministic.
//!
//! Both admission engines queue on this one type: their progress
//! monitor keeps one waitlist per node, the scalar
//! [`crate::extension::RdaExtension`]'s one node and each NUMA node of
//! the topology [`crate::topo::TopoExtension`]. An entry holds only the
//! period id and its enqueue time; the period's demand stays in its
//! [`PpRecord`], and the drain fits each waiter by its record's
//! accounted demand.
//!
//! Two robustness mechanisms live here beyond the paper:
//!
//! * [`Waitlist::push`] rejects a period that is already enqueued with
//!   a typed [`RdaError::DoubleWaitlist`] instead of enqueueing it
//!   twice, which would double-release its demand on admission;
//! * every entry records *when* it was enqueued, so
//!   [`Waitlist::pop_expired`] can implement **aging** and deadlines:
//!   entries older than a timeout leave strictly oldest-first by
//!   enqueue time, whatever their queue position.
//!
//! How waiters leave the queue is one protocol for both engines, run by
//! the engines' shared progress monitor: the drain with its aging, and
//! the deadline pass. An engine takes part in it only through
//! [`Drain`], the monitor's one view of its books: the fit test, the
//! admit, age and release accounting of a waiter's record, and the
//! reads the breakers, the invariant audit and the snapshot make.
//!
//! # Representation
//!
//! A `VecDeque` plus the cached minimum enqueue time of its entries,
//! making [`Waitlist::oldest`] (polled on every aging check and by the
//! simulator's aging-deadline computation every interval) O(1); the
//! cache is refreshed by an O(n) rescan only when the entry holding the
//! minimum is removed.

use crate::api::PpId;
use crate::error::RdaError;
use crate::registry::PpRecord;
use crate::topology::KIND_COUNT;
use rda_simcore::SimTime;
use std::collections::VecDeque;

/// One waitlisted period; its demand is in its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEntry {
    /// The denied period.
    pub pp: PpId,
    /// When the period was enqueued (for aging).
    pub enqueued_at: SimTime,
}

/// A FIFO of denied periods with a cached oldest enqueue time.
#[derive(Debug, Clone, Default)]
pub struct Waitlist {
    fifo: VecDeque<WaitEntry>,
    /// `min(entry.enqueued_at)` over the queue, `None` when empty.
    /// Maintained incrementally; recomputed by scan only when the
    /// minimal entry leaves the queue.
    oldest: Option<SimTime>,
}

impl Waitlist {
    /// Empty waitlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a denied period. Rejects a period that is already
    /// enqueued — admitting the duplicate would double-release its
    /// demand later.
    pub fn push(&mut self, entry: WaitEntry) -> Result<(), RdaError> {
        if self.fifo.iter().any(|e| e.pp == entry.pp) {
            return Err(RdaError::DoubleWaitlist(entry.pp));
        }
        self.oldest = Some(match self.oldest {
            Some(t) => t.min(entry.enqueued_at),
            None => entry.enqueued_at,
        });
        self.fifo.push_back(entry);
        Ok(())
    }

    /// The longest-queued period, without removing it.
    pub fn front(&self) -> Option<WaitEntry> {
        self.fifo.front().copied()
    }

    /// Remove and return the longest-queued period.
    pub fn pop(&mut self) -> Option<WaitEntry> {
        self.remove(0)
    }

    fn remove(&mut self, pos: usize) -> Option<WaitEntry> {
        let entry = self.fifo.remove(pos)?;
        if Some(entry.enqueued_at) == self.oldest {
            self.oldest = self.fifo.iter().map(|e| e.enqueued_at).min();
        }
        Some(entry)
    }

    /// True when a timeout is set and some entry has waited `timeout`
    /// cycles or longer by `now`. O(1) via the cached minimum: the
    /// oldest entry expires first, so an unexpired minimum proves the
    /// whole queue unexpired.
    pub fn has_expired(&self, now: SimTime, timeout: Option<u64>) -> bool {
        timeout.is_some_and(|timeout| {
            self.oldest
                .is_some_and(|oldest| now.since(oldest).cycles() >= timeout)
        })
    }

    /// Remove and return the *oldest* expired period: the entry with
    /// the earliest enqueue time among those that have waited `timeout`
    /// cycles or longer by `now` (the first in queue order among equal
    /// stamps). Repeated calls therefore leave strictly oldest-first —
    /// even when a caller enqueued with non-monotonic timestamps (trace
    /// replay, direct API use) and queue position no longer matches
    /// wait time. O(1) when nothing has expired (the common case).
    pub fn pop_expired(&mut self, now: SimTime, timeout: u64) -> Option<WaitEntry> {
        if !self.has_expired(now, Some(timeout)) {
            return None;
        }
        let oldest = self.oldest?;
        let pos = self.fifo.iter().position(|e| e.enqueued_at == oldest)?;
        self.remove(pos)
    }

    /// Enqueue time of the longest-waiting period (the next to expire).
    /// O(1) via the cached minimum, which tracks true wait time rather
    /// than queue position.
    pub fn oldest(&self) -> Option<SimTime> {
        self.oldest
    }

    /// Remove a specific period (e.g. its process was killed).
    pub fn cancel(&mut self, pp: PpId) -> bool {
        match self.fifo.iter().position(|e| e.pp == pp) {
            Some(pos) => self.remove(pos).is_some(),
            None => false,
        }
    }

    /// Number of waiting periods.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// True when nothing waits.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Iterate the waiters front-to-back, by reference — the
    /// per-admission paths (snapshotting, invariant checks) must not
    /// copy the queue to walk it.
    pub fn iter(&self) -> impl Iterator<Item = &WaitEntry> {
        self.fifo.iter()
    }
}

/// An engine's books as the progress monitor sees them, node `n` by
/// node: the monitor decides which waiter to try, looks up its record
/// and does the registry, counter and trace bookkeeping; the books
/// answer the fit test, account an admission or a release, and report
/// their contents to the breakers, the invariant audit and the
/// snapshot. Books of one node and one layer (the scalar engine's)
/// report node 0 and layer 0.
pub trait Drain {
    /// Whether the waiter `rec`, queued on node `n`, fits the nominal
    /// books now (Algorithm 1).
    fn fits(&self, n: usize, rec: &PpRecord) -> bool;
    /// Account a fitting waiter `rec` nominally on node `n`; `false`
    /// (nothing accounted) leaves it parked because a book would wrap.
    fn admit(&mut self, n: usize, rec: &PpRecord, now: SimTime) -> bool;
    /// Account an aged waiter `rec` into node `n`'s overflow bucket;
    /// `false` (nothing accounted) when the bucket would wrap.
    fn age(&mut self, n: usize, rec: &PpRecord) -> bool;
    /// Release a completed or reclaimed admitted record's demand from
    /// the books of its node it was accounted in.
    fn release(&mut self, rec: &PpRecord);
    /// Node `n`'s nominal book (what Algorithm 1 reads) and overflow
    /// bucket, per kind.
    fn held(&self, n: usize) -> [[u64; KIND_COUNT]; 2];
    /// Layer `l`'s ledger on node `n` — its share of the nominal book —
    /// per kind; `None` past the last layer.
    fn ledger(&self, l: usize, n: usize) -> Option<[u64; KIND_COUNT]>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u64) -> WaitEntry {
        e_at(id, 0)
    }

    fn e_at(id: u64, cycles: u64) -> WaitEntry {
        WaitEntry {
            pp: PpId(id),
            enqueued_at: SimTime::from_cycles(cycles),
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn record_and_entry_sizes_are_pinned() {
        // Each fact about a period is kept once: the entry holds only
        // what the queue orders by, the record its demand.
        assert_eq!(std::mem::size_of::<PpRecord>(), 80);
        assert_eq!(std::mem::size_of::<WaitEntry>(), 16);
    }

    #[test]
    fn fifo_order_per_resource() {
        // An engine holds one queue per gated resource (or per node);
        // each keeps its own FIFO order.
        let mut llc = Waitlist::new();
        let mut other = Waitlist::new();
        llc.push(e(1)).unwrap();
        llc.push(e(2)).unwrap();
        other.push(e(3)).unwrap();
        assert_eq!(llc.pop().unwrap().pp, PpId(1));
        assert_eq!(llc.pop().unwrap().pp, PpId(2));
        assert_eq!(llc.pop(), None);
        assert_eq!(other.pop().unwrap().pp, PpId(3));
    }

    #[test]
    fn emptiness_spans_resources() {
        // An entry makes the queue non-empty whatever resources its
        // record demands: the queue holds no demand.
        let mut w = Waitlist::new();
        assert!(w.is_empty());
        w.push(e(9)).unwrap();
        assert!(!w.is_empty());
        w.pop();
        assert!(w.is_empty());
    }

    #[test]
    fn double_push_is_a_typed_error() {
        let mut w = Waitlist::new();
        w.push(e(1)).unwrap();
        assert_eq!(w.push(e(1)), Err(RdaError::DoubleWaitlist(PpId(1))));
        // The rejected duplicate must not have been enqueued.
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn front_does_not_remove() {
        let mut w = Waitlist::new();
        w.push(e(1)).unwrap();
        assert_eq!(w.front().unwrap().pp, PpId(1));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn cancel_mid_queue() {
        let mut w = Waitlist::new();
        w.push(e(1)).unwrap();
        w.push(e(2)).unwrap();
        w.push(e(3)).unwrap();
        assert!(w.cancel(PpId(2)));
        assert!(!w.cancel(PpId(2)));
        let order: Vec<PpId> = w.iter().map(|x| x.pp).collect();
        assert_eq!(order, vec![PpId(1), PpId(3)]);
    }

    #[test]
    fn expired_entry_leaves_unchanged() {
        // An entry is its period id and enqueue stamp, whichever engine
        // queued it; it leaves the queue as it entered.
        let mut w = Waitlist::new();
        let entry = e_at(4, 5);
        w.push(entry).unwrap();
        assert_eq!(w.pop_expired(SimTime::from_cycles(9), 4), Some(entry));
        assert!(w.is_empty());
    }

    #[test]
    fn expiry_drains_only_the_aged_prefix() {
        let mut w = Waitlist::new();
        w.push(e_at(1, 0)).unwrap();
        w.push(e_at(2, 500)).unwrap();
        w.push(e_at(3, 900)).unwrap();
        let now = SimTime::from_cycles(1000);
        // Timeout 400: entries enqueued at 0 and 500 have expired.
        assert!(w.has_expired(now, Some(400)));
        assert_eq!(w.pop_expired(now, 400).unwrap().pp, PpId(1));
        assert_eq!(w.pop_expired(now, 400).unwrap().pp, PpId(2));
        assert_eq!(w.pop_expired(now, 400), None);
        assert!(!w.has_expired(now, Some(400)));
        assert!(!w.has_expired(now, None), "no timeout, nothing expires");
        assert_eq!(w.len(), 1);
        assert_eq!(w.oldest(), Some(SimTime::from_cycles(900)));
    }

    #[test]
    fn expiry_pops_oldest_first_even_when_enqueued_out_of_order() {
        // A caller with a non-monotonic clock enqueues a later-stamped
        // entry before an earlier-stamped one. Aging must still
        // force-admit strictly oldest-first (by enqueue time, i.e.
        // longest wait), not queue-position-first.
        let mut w = Waitlist::new();
        w.push(e_at(1, 500)).unwrap();
        w.push(e_at(2, 100)).unwrap();
        let now = SimTime::from_cycles(1_200);
        // Timeout 1000: only the entry enqueued at 100 (waited 1100)
        // has expired; the queue head (enqueued 500, waited 700) has
        // not — it must NOT block the expired one behind it.
        assert_eq!(w.pop_expired(now, 1000).unwrap().pp, PpId(2));
        assert_eq!(w.pop_expired(now, 1000), None);
        // Once both have expired, the remaining (older-positioned but
        // younger-stamped) entry drains too.
        let later = SimTime::from_cycles(1_600);
        assert_eq!(w.pop_expired(later, 1000).unwrap().pp, PpId(1));
    }

    #[test]
    fn oldest_reports_minimum_enqueue_time_not_queue_head() {
        let mut w = Waitlist::new();
        w.push(e_at(1, 500)).unwrap();
        w.push(e_at(2, 100)).unwrap();
        assert_eq!(w.oldest(), Some(SimTime::from_cycles(100)));
    }

    #[test]
    fn oldest_cache_survives_removal_of_the_minimum() {
        let mut w = Waitlist::new();
        w.push(e_at(1, 300)).unwrap();
        w.push(e_at(2, 100)).unwrap();
        w.push(e_at(3, 200)).unwrap();
        assert_eq!(w.oldest(), Some(SimTime::from_cycles(100)));
        // Removing the minimal entry forces a rescan: 200 is next.
        assert!(w.cancel(PpId(2)));
        assert_eq!(w.oldest(), Some(SimTime::from_cycles(200)));
        // Removing a non-minimal entry leaves the cache untouched.
        assert!(w.cancel(PpId(1)));
        assert_eq!(w.oldest(), Some(SimTime::from_cycles(200)));
        w.pop();
        assert_eq!(w.oldest(), None);
    }

    #[test]
    fn ties_on_the_minimum_stamp_pop_in_queue_order() {
        let mut w = Waitlist::new();
        w.push(e_at(1, 100)).unwrap();
        w.push(e_at(2, 100)).unwrap();
        w.push(e_at(3, 100)).unwrap();
        let now = SimTime::from_cycles(500);
        assert_eq!(w.pop_expired(now, 100).unwrap().pp, PpId(1));
        assert_eq!(w.pop_expired(now, 100).unwrap().pp, PpId(2));
        assert_eq!(w.pop_expired(now, 100).unwrap().pp, PpId(3));
    }

    #[test]
    fn expiry_boundary_is_inclusive() {
        let mut w = Waitlist::new();
        w.push(e_at(1, 100)).unwrap();
        // Exactly `timeout` cycles of waiting counts as expired.
        assert!(w.pop_expired(SimTime::from_cycles(300), 200).is_some());
    }

    #[test]
    fn long_queue_keeps_order_through_cancel_and_drain() {
        let mut w = Waitlist::new();
        let n = 25u64;
        for i in 0..n {
            w.push(e_at(i, i)).unwrap();
        }
        assert_eq!(w.len(), n as usize);
        assert_eq!(w.oldest(), Some(SimTime::from_cycles(0)));
        // Duplicate detection holds anywhere in a long queue.
        assert!(w.push(e_at(3, 1)).is_err());
        // Mid-queue cancellation keeps the relative order of the rest.
        assert!(w.cancel(PpId(16)));
        let order: Vec<u64> = w.iter().map(|x| x.pp.0).collect();
        let expected: Vec<u64> = (0..n).filter(|&i| i != 16).collect();
        assert_eq!(order, expected);
        // Drain fully in FIFO order.
        for &i in &expected {
            assert_eq!(w.pop().unwrap().pp, PpId(i));
        }
        assert!(w.is_empty());
    }
}
