//! The resource waitlist (§3.1, Figures 5/6).
//!
//! Processes whose progress periods are denied are *"placed on a
//! resource waitlist so they may be rescheduled later when another
//! progress period completes and releases sufficient resources"*. The
//! waitlist is FIFO per resource: the longest-waiting period is
//! re-evaluated first, which bounds waiting time and keeps admission
//! order deterministic.
//!
//! Two robustness mechanisms live here beyond the paper:
//!
//! * [`Waitlist::push`] rejects a period that is already enqueued with
//!   a typed [`RdaError::DoubleWaitlist`] instead of a `debug_assert!`
//!   — in release builds the old path silently enqueued the period
//!   twice, and its demand was double-released on admission;
//! * every entry records *when* it was enqueued, so
//!   [`Waitlist::pop_expired`] can implement **aging**: entries older
//!   than a configurable timeout are force-admitted by the extension
//!   under a degraded overflow accounting bucket, making starvation
//!   impossible by construction.
//!
//! # Representation
//!
//! Each per-resource queue is a `VecDeque` plus the cached minimum
//! enqueue time of its entries, making [`Waitlist::oldest`] (polled by
//! the simulator's aging-deadline computation every interval) O(1); the
//! cache is refreshed by an O(n) rescan only when the entry holding the
//! minimum is removed.

use crate::api::{PpId, Resource};
use crate::error::RdaError;
use rda_simcore::SimTime;
use std::collections::VecDeque;

/// One waitlisted period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEntry {
    /// The denied period.
    pub pp: PpId,
    /// Its accounted demand (for quick re-evaluation).
    pub accounted: u64,
    /// When the period was enqueued (for aging).
    pub enqueued_at: SimTime,
}

/// One resource's queue plus its cached minimum enqueue time.
#[derive(Debug, Clone, Default)]
struct Queue {
    fifo: VecDeque<WaitEntry>,
    /// `min(entry.enqueued_at)` over the queue, `None` when empty.
    /// Maintained incrementally; recomputed by scan only when the
    /// minimal entry leaves the queue.
    oldest: Option<SimTime>,
}

impl Queue {
    fn push(&mut self, entry: WaitEntry) {
        self.oldest = Some(match self.oldest {
            Some(t) => t.min(entry.enqueued_at),
            None => entry.enqueued_at,
        });
        self.fifo.push_back(entry);
    }

    fn note_removed(&mut self, removed: &WaitEntry) {
        if Some(removed.enqueued_at) == self.oldest {
            self.oldest = self.fifo.iter().map(|e| e.enqueued_at).min();
        }
    }

    fn remove(&mut self, pos: usize) -> Option<WaitEntry> {
        let entry = self.fifo.remove(pos)?;
        self.note_removed(&entry);
        Some(entry)
    }
}

/// FIFO waitlists, one per resource.
#[derive(Debug, Clone, Default)]
pub struct Waitlist {
    llc: Queue,
    membw: Queue,
}

impl Waitlist {
    /// Empty waitlist.
    pub fn new() -> Self {
        Self::default()
    }

    fn queue(&self, r: Resource) -> &Queue {
        match r {
            Resource::Llc => &self.llc,
            Resource::MemBandwidth => &self.membw,
        }
    }

    fn queue_mut(&mut self, r: Resource) -> &mut Queue {
        match r {
            Resource::Llc => &mut self.llc,
            Resource::MemBandwidth => &mut self.membw,
        }
    }

    /// Append a denied period. Rejects a period that is already
    /// enqueued — admitting the duplicate would double-release its
    /// demand later.
    pub fn push(&mut self, r: Resource, entry: WaitEntry) -> Result<(), RdaError> {
        if self.queue(r).fifo.iter().any(|e| e.pp == entry.pp) {
            return Err(RdaError::DoubleWaitlist(entry.pp));
        }
        self.queue_mut(r).push(entry);
        Ok(())
    }

    /// The longest-waiting period, without removing it.
    pub fn front(&self, r: Resource) -> Option<WaitEntry> {
        self.queue(r).fifo.front().copied()
    }

    /// Remove and return the longest-waiting period.
    pub fn pop(&mut self, r: Resource) -> Option<WaitEntry> {
        self.queue_mut(r).remove(0)
    }

    /// Remove and return the *oldest* expired period: the entry with
    /// the earliest enqueue time among those that have waited `timeout`
    /// cycles or longer by `now`. Repeated calls therefore force-admit
    /// strictly oldest-first per resource — even when a caller enqueued
    /// with non-monotonic timestamps (trace replay, direct API use) and
    /// queue position no longer matches wait time.
    ///
    /// O(1) when nothing has expired (the common case, via the cached
    /// minimum): the oldest entry expires first, so an unexpired
    /// minimum proves the whole queue is unexpired.
    pub fn pop_expired(&mut self, r: Resource, now: SimTime, timeout: u64) -> Option<WaitEntry> {
        let q = self.queue_mut(r);
        let oldest = q.oldest?;
        if now.since(oldest).cycles() < timeout {
            return None;
        }
        // The cached minimum is expired; it is by definition the oldest
        // expired entry. `min_by_key` kept the *first* of equals, so
        // match that: take the first entry holding the minimal stamp.
        let pos = q.fifo.iter().position(|e| e.enqueued_at == oldest)?;
        q.remove(pos)
    }

    /// Enqueue time of the longest-waiting period (the next to expire).
    /// O(1) via the cached per-queue minimum, which tracks true wait
    /// time rather than queue position (callers may enqueue with
    /// non-monotonic timestamps — trace replay, direct API use).
    pub fn oldest(&self, r: Resource) -> Option<SimTime> {
        self.queue(r).oldest
    }

    /// Remove a specific period (e.g. its process was killed).
    pub fn cancel(&mut self, r: Resource, pp: PpId) -> bool {
        let q = self.queue_mut(r);
        if let Some(pos) = q.fifo.iter().position(|e| e.pp == pp) {
            q.remove(pos);
            true
        } else {
            false
        }
    }

    /// Number of periods waiting on a resource.
    pub fn len(&self, r: Resource) -> usize {
        self.queue(r).fifo.len()
    }

    /// True when nothing waits on any resource.
    pub fn is_empty(&self) -> bool {
        self.llc.fifo.is_empty() && self.membw.fifo.is_empty()
    }

    /// Iterate a resource's waiters front-to-back, by reference — the
    /// per-admission paths (snapshotting, invariant checks) must not
    /// copy the queue to walk it.
    pub fn iter(&self, r: Resource) -> impl Iterator<Item = &WaitEntry> {
        self.queue(r).fifo.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u64, demand: u64) -> WaitEntry {
        e_at(id, demand, 0)
    }

    fn e_at(id: u64, demand: u64, cycles: u64) -> WaitEntry {
        WaitEntry {
            pp: PpId(id),
            accounted: demand,
            enqueued_at: SimTime::from_cycles(cycles),
        }
    }

    #[test]
    fn fifo_order_per_resource() {
        let mut w = Waitlist::new();
        w.push(Resource::Llc, e(1, 10)).unwrap();
        w.push(Resource::Llc, e(2, 20)).unwrap();
        w.push(Resource::MemBandwidth, e(3, 30)).unwrap();
        assert_eq!(w.pop(Resource::Llc).unwrap().pp, PpId(1));
        assert_eq!(w.pop(Resource::Llc).unwrap().pp, PpId(2));
        assert_eq!(w.pop(Resource::Llc), None);
        assert_eq!(w.pop(Resource::MemBandwidth).unwrap().pp, PpId(3));
    }

    #[test]
    fn double_push_is_a_typed_error() {
        let mut w = Waitlist::new();
        w.push(Resource::Llc, e(1, 10)).unwrap();
        assert_eq!(
            w.push(Resource::Llc, e(1, 10)),
            Err(RdaError::DoubleWaitlist(PpId(1)))
        );
        // The rejected duplicate must not have been enqueued.
        assert_eq!(w.len(Resource::Llc), 1);
        // The same id on the *other* resource is a distinct queue.
        w.push(Resource::MemBandwidth, e(1, 10)).unwrap();
    }

    #[test]
    fn front_does_not_remove() {
        let mut w = Waitlist::new();
        w.push(Resource::Llc, e(1, 10)).unwrap();
        assert_eq!(w.front(Resource::Llc).unwrap().pp, PpId(1));
        assert_eq!(w.len(Resource::Llc), 1);
    }

    #[test]
    fn cancel_mid_queue() {
        let mut w = Waitlist::new();
        w.push(Resource::Llc, e(1, 10)).unwrap();
        w.push(Resource::Llc, e(2, 20)).unwrap();
        w.push(Resource::Llc, e(3, 30)).unwrap();
        assert!(w.cancel(Resource::Llc, PpId(2)));
        assert!(!w.cancel(Resource::Llc, PpId(2)));
        let order: Vec<PpId> = w.iter(Resource::Llc).map(|x| x.pp).collect();
        assert_eq!(order, vec![PpId(1), PpId(3)]);
    }

    #[test]
    fn emptiness_spans_resources() {
        let mut w = Waitlist::new();
        assert!(w.is_empty());
        w.push(Resource::MemBandwidth, e(9, 1)).unwrap();
        assert!(!w.is_empty());
        w.pop(Resource::MemBandwidth);
        assert!(w.is_empty());
    }

    #[test]
    fn expiry_drains_only_the_aged_prefix() {
        let mut w = Waitlist::new();
        w.push(Resource::Llc, e_at(1, 10, 0)).unwrap();
        w.push(Resource::Llc, e_at(2, 10, 500)).unwrap();
        w.push(Resource::Llc, e_at(3, 10, 900)).unwrap();
        let now = SimTime::from_cycles(1000);
        // Timeout 400: entries enqueued at 0 and 500 have expired.
        assert_eq!(w.pop_expired(Resource::Llc, now, 400).unwrap().pp, PpId(1));
        assert_eq!(w.pop_expired(Resource::Llc, now, 400).unwrap().pp, PpId(2));
        assert_eq!(w.pop_expired(Resource::Llc, now, 400), None);
        assert_eq!(w.len(Resource::Llc), 1);
        assert_eq!(w.oldest(Resource::Llc), Some(SimTime::from_cycles(900)));
    }

    #[test]
    fn expiry_pops_oldest_first_even_when_enqueued_out_of_order() {
        // A caller with a non-monotonic clock enqueues a later-stamped
        // entry before an earlier-stamped one. Aging must still
        // force-admit strictly oldest-first (by enqueue time, i.e.
        // longest wait), not queue-position-first.
        let mut w = Waitlist::new();
        w.push(Resource::Llc, e_at(1, 10, 500)).unwrap();
        w.push(Resource::Llc, e_at(2, 10, 100)).unwrap();
        let now = SimTime::from_cycles(1_200);
        // Timeout 1000: only the entry enqueued at 100 (waited 1100)
        // has expired; the queue head (enqueued 500, waited 700) has
        // not — it must NOT block the expired one behind it.
        assert_eq!(
            w.pop_expired(Resource::Llc, now, 1000).unwrap().pp,
            PpId(2)
        );
        assert_eq!(w.pop_expired(Resource::Llc, now, 1000), None);
        // Once both have expired, the remaining (older-positioned but
        // younger-stamped) entry drains too.
        let later = SimTime::from_cycles(1_600);
        assert_eq!(
            w.pop_expired(Resource::Llc, later, 1000).unwrap().pp,
            PpId(1)
        );
    }

    #[test]
    fn oldest_reports_minimum_enqueue_time_not_queue_head() {
        let mut w = Waitlist::new();
        w.push(Resource::Llc, e_at(1, 10, 500)).unwrap();
        w.push(Resource::Llc, e_at(2, 10, 100)).unwrap();
        assert_eq!(w.oldest(Resource::Llc), Some(SimTime::from_cycles(100)));
    }

    #[test]
    fn oldest_cache_survives_removal_of_the_minimum() {
        let mut w = Waitlist::new();
        w.push(Resource::Llc, e_at(1, 10, 300)).unwrap();
        w.push(Resource::Llc, e_at(2, 10, 100)).unwrap();
        w.push(Resource::Llc, e_at(3, 10, 200)).unwrap();
        assert_eq!(w.oldest(Resource::Llc), Some(SimTime::from_cycles(100)));
        // Removing the minimal entry forces a rescan: 200 is next.
        assert!(w.cancel(Resource::Llc, PpId(2)));
        assert_eq!(w.oldest(Resource::Llc), Some(SimTime::from_cycles(200)));
        // Removing a non-minimal entry leaves the cache untouched.
        assert!(w.cancel(Resource::Llc, PpId(1)));
        assert_eq!(w.oldest(Resource::Llc), Some(SimTime::from_cycles(200)));
        w.pop(Resource::Llc);
        assert_eq!(w.oldest(Resource::Llc), None);
    }

    #[test]
    fn ties_on_the_minimum_stamp_pop_in_queue_order() {
        let mut w = Waitlist::new();
        w.push(Resource::Llc, e_at(1, 10, 100)).unwrap();
        w.push(Resource::Llc, e_at(2, 10, 100)).unwrap();
        w.push(Resource::Llc, e_at(3, 10, 100)).unwrap();
        let now = SimTime::from_cycles(500);
        assert_eq!(w.pop_expired(Resource::Llc, now, 100).unwrap().pp, PpId(1));
        assert_eq!(w.pop_expired(Resource::Llc, now, 100).unwrap().pp, PpId(2));
        assert_eq!(w.pop_expired(Resource::Llc, now, 100).unwrap().pp, PpId(3));
    }

    #[test]
    fn expiry_boundary_is_inclusive() {
        let mut w = Waitlist::new();
        w.push(Resource::Llc, e_at(1, 10, 100)).unwrap();
        // Exactly `timeout` cycles of waiting counts as expired.
        assert!(w
            .pop_expired(Resource::Llc, SimTime::from_cycles(300), 200)
            .is_some());
    }

    #[test]
    fn long_queue_keeps_order_through_cancel_and_drain() {
        let mut w = Waitlist::new();
        let n = 25u64;
        for i in 0..n {
            w.push(Resource::Llc, e_at(i, 10 + i, i)).unwrap();
        }
        assert_eq!(w.len(Resource::Llc), n as usize);
        assert_eq!(w.oldest(Resource::Llc), Some(SimTime::from_cycles(0)));
        // Duplicate detection holds anywhere in a long queue.
        assert!(w.push(Resource::Llc, e_at(3, 1, 1)).is_err());
        // Mid-queue cancellation keeps the relative order of the rest.
        assert!(w.cancel(Resource::Llc, PpId(16)));
        let order: Vec<u64> = w.iter(Resource::Llc).map(|x| x.pp.0).collect();
        let expected: Vec<u64> = (0..n).filter(|&i| i != 16).collect();
        assert_eq!(order, expected);
        // Drain fully in FIFO order.
        for &i in &expected {
            assert_eq!(w.pop(Resource::Llc).unwrap().pp, PpId(i));
        }
        assert!(w.is_empty());
    }
}
