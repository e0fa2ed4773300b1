//! The resource waitlist (§3.1, Figures 5/6).
//!
//! Processes whose progress periods are denied are *"placed on a
//! resource waitlist so they may be rescheduled later when another
//! progress period completes and releases sufficient resources"*. The
//! waitlist is FIFO: the longest-waiting period is re-evaluated first,
//! which bounds waiting time and keeps admission order deterministic.
//!
//! Both admission engines queue on this one type. It is generic over
//! the accounted demand an entry stores: the scalar
//! [`crate::extension::RdaExtension`] holds one `Waitlist<u64>` (LLC
//! bytes), the topology [`crate::topo::TopoExtension`] one
//! `Waitlist<Demand>` per NUMA node.
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
//! How waiters leave the queue is one protocol for both engines, the
//! provided methods of [`Drain`]: the drain with its aging, and the
//! deadline pass.
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
use rda_sched::ProcessId;
use rda_simcore::SimTime;
use std::collections::VecDeque;

/// One waitlisted period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEntry<A = u64> {
    /// The denied period.
    pub pp: PpId,
    /// Its accounted demand (for quick re-evaluation).
    pub accounted: A,
    /// When the period was enqueued (for aging).
    pub enqueued_at: SimTime,
}

/// A FIFO of denied periods with a cached oldest enqueue time.
#[derive(Debug, Clone)]
pub struct Waitlist<A = u64> {
    fifo: VecDeque<WaitEntry<A>>,
    /// `min(entry.enqueued_at)` over the queue, `None` when empty.
    /// Maintained incrementally; recomputed by scan only when the
    /// minimal entry leaves the queue.
    oldest: Option<SimTime>,
}

impl<A> Default for Waitlist<A> {
    fn default() -> Self {
        Waitlist {
            fifo: VecDeque::new(),
            oldest: None,
        }
    }
}

impl<A: Copy> Waitlist<A> {
    /// Empty waitlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a denied period. Rejects a period that is already
    /// enqueued — admitting the duplicate would double-release its
    /// demand later.
    pub fn push(&mut self, entry: WaitEntry<A>) -> Result<(), RdaError> {
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
    pub fn front(&self) -> Option<WaitEntry<A>> {
        self.fifo.front().copied()
    }

    /// Remove and return the longest-queued period.
    pub fn pop(&mut self) -> Option<WaitEntry<A>> {
        self.remove(0)
    }

    fn remove(&mut self, pos: usize) -> Option<WaitEntry<A>> {
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
    pub fn pop_expired(&mut self, now: SimTime, timeout: u64) -> Option<WaitEntry<A>> {
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
    pub fn iter(&self) -> impl Iterator<Item = &WaitEntry<A>> {
        self.fifo.iter()
    }
}

/// The drain protocol, one queue at a time. The provided methods are
/// the protocol; an engine implements only the actions, on a private
/// handle over its books.
pub trait Drain<A: Copy> {
    /// The engine's record of a queued period.
    type Rec: Copy;

    /// The queue being drained.
    fn queue(&mut self) -> &mut Waitlist<A>;
    /// The live record of a queued period; `None` marks an orphaned
    /// entry (the books have desynchronized).
    fn record(&self, pp: PpId) -> Option<Self::Rec>;
    /// Whether `entry` fits the nominal books now (Algorithm 1).
    fn fits(&self, entry: &WaitEntry<A>, rec: &Self::Rec) -> bool;
    /// Admit a fitting `entry` nominally, returning its process; `None`
    /// (nothing accounted) leaves it parked because a book would wrap.
    fn admit(&mut self, entry: &WaitEntry<A>, rec: Self::Rec, now: SimTime) -> Option<ProcessId>;
    /// Force-admit an aged `entry` into the overflow bucket, returning
    /// its process; `None` (nothing accounted) when the bucket would wrap.
    fn age(&mut self, entry: &WaitEntry<A>, rec: Self::Rec, now: SimTime) -> Option<ProcessId>;
    /// Complete, as shed, an aged `entry` the overflow bucket cannot take.
    fn shed(&mut self, entry: &WaitEntry<A>, rec: Self::Rec, now: SimTime);
    /// Complete `entry` past its deadline, returning its process.
    fn expire(&mut self, entry: &WaitEntry<A>, rec: Self::Rec, now: SimTime) -> ProcessId;
    /// Count one desync: an orphaned entry was dropped.
    fn desync(&mut self);

    /// Admit from the head while the head fits (Figure 6: "attempt to
    /// schedule any waiting threads previously blocked due to resource
    /// constraints"). When it blocks, force-admit the oldest waiter past
    /// `timeout` (if aging is on) into the overflow bucket — or shed it
    /// when that bucket would wrap — and walk again: removing a blocker
    /// can let the periods behind it fit. Returns the admitted periods.
    fn drain(&mut self, timeout: Option<u64>, now: SimTime) -> Vec<(PpId, ProcessId)> {
        let mut resumed = Vec::new();
        // Force-admissions within one drain go strictly oldest-first.
        let mut last_aged: Option<SimTime> = None;
        loop {
            while let Some(head) = self.queue().front() {
                let Some(rec) = self.record(head.pp) else {
                    self.queue().pop();
                    self.desync();
                    continue;
                };
                if !self.fits(&head, &rec) {
                    break;
                }
                let Some(process) = self.admit(&head, rec, now) else {
                    break;
                };
                self.queue().pop();
                resumed.push((head.pp, process));
            }
            let Some(aged) = timeout.and_then(|t| self.queue().pop_expired(now, t)) else {
                break;
            };
            debug_assert!(
                last_aged.is_none_or(|t| t <= aged.enqueued_at),
                "aging force-admitted out of oldest-first order"
            );
            last_aged = Some(aged.enqueued_at);
            let Some(rec) = self.record(aged.pp) else {
                self.desync();
                continue;
            };
            match self.age(&aged, rec, now) {
                Some(process) => resumed.push((aged.pp, process)),
                None => self.shed(&aged, rec, now),
            }
        }
        resumed
    }

    /// The deadline pass: expire, oldest-first by enqueue time, every
    /// waiter that has waited `deadline` cycles or longer by `now`,
    /// appending each to `expired`.
    fn expire_past(&mut self, deadline: u64, now: SimTime, expired: &mut Vec<(PpId, ProcessId)>) {
        while let Some(entry) = self.queue().pop_expired(now, deadline) {
            match self.record(entry.pp) {
                Some(rec) => expired.push((entry.pp, self.expire(&entry, rec, now))),
                None => self.desync(),
            }
        }
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
        // An engine holds one queue per gated resource (or per node);
        // each keeps its own FIFO order.
        let mut llc = Waitlist::new();
        let mut other = Waitlist::new();
        llc.push(e(1, 10)).unwrap();
        llc.push(e(2, 20)).unwrap();
        other.push(e(3, 30)).unwrap();
        assert_eq!(llc.pop().unwrap().pp, PpId(1));
        assert_eq!(llc.pop().unwrap().pp, PpId(2));
        assert_eq!(llc.pop(), None);
        assert_eq!(other.pop().unwrap().pp, PpId(3));
    }

    #[test]
    fn emptiness_spans_resources() {
        // An entry whose demand lies on any resource of the vector
        // makes the queue non-empty.
        let mut w: Waitlist<[u64; 3]> = Waitlist::new();
        assert!(w.is_empty());
        w.push(WaitEntry {
            pp: PpId(9),
            accounted: [0, 1, 0],
            enqueued_at: SimTime::from_cycles(0),
        })
        .unwrap();
        assert!(!w.is_empty());
        w.pop();
        assert!(w.is_empty());
    }

    #[test]
    fn double_push_is_a_typed_error() {
        let mut w = Waitlist::new();
        w.push(e(1, 10)).unwrap();
        assert_eq!(w.push(e(1, 10)), Err(RdaError::DoubleWaitlist(PpId(1))));
        // The rejected duplicate must not have been enqueued.
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn front_does_not_remove() {
        let mut w = Waitlist::new();
        w.push(e(1, 10)).unwrap();
        assert_eq!(w.front().unwrap().pp, PpId(1));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn cancel_mid_queue() {
        let mut w = Waitlist::new();
        w.push(e(1, 10)).unwrap();
        w.push(e(2, 20)).unwrap();
        w.push(e(3, 30)).unwrap();
        assert!(w.cancel(PpId(2)));
        assert!(!w.cancel(PpId(2)));
        let order: Vec<PpId> = w.iter().map(|x| x.pp).collect();
        assert_eq!(order, vec![PpId(1), PpId(3)]);
    }

    #[test]
    fn entries_carry_any_accounted_demand() {
        // The topology engine queues demand vectors on the same type.
        let mut w: Waitlist<[u64; 3]> = Waitlist::new();
        let entry = WaitEntry {
            pp: PpId(4),
            accounted: [1, 2, 3],
            enqueued_at: SimTime::from_cycles(5),
        };
        w.push(entry).unwrap();
        assert_eq!(w.pop_expired(SimTime::from_cycles(9), 4), Some(entry));
        assert!(w.is_empty());
    }

    #[test]
    fn expiry_drains_only_the_aged_prefix() {
        let mut w = Waitlist::new();
        w.push(e_at(1, 10, 0)).unwrap();
        w.push(e_at(2, 10, 500)).unwrap();
        w.push(e_at(3, 10, 900)).unwrap();
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
        w.push(e_at(1, 10, 500)).unwrap();
        w.push(e_at(2, 10, 100)).unwrap();
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
        w.push(e_at(1, 10, 500)).unwrap();
        w.push(e_at(2, 10, 100)).unwrap();
        assert_eq!(w.oldest(), Some(SimTime::from_cycles(100)));
    }

    #[test]
    fn oldest_cache_survives_removal_of_the_minimum() {
        let mut w = Waitlist::new();
        w.push(e_at(1, 10, 300)).unwrap();
        w.push(e_at(2, 10, 100)).unwrap();
        w.push(e_at(3, 10, 200)).unwrap();
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
        w.push(e_at(1, 10, 100)).unwrap();
        w.push(e_at(2, 10, 100)).unwrap();
        w.push(e_at(3, 10, 100)).unwrap();
        let now = SimTime::from_cycles(500);
        assert_eq!(w.pop_expired(now, 100).unwrap().pp, PpId(1));
        assert_eq!(w.pop_expired(now, 100).unwrap().pp, PpId(2));
        assert_eq!(w.pop_expired(now, 100).unwrap().pp, PpId(3));
    }

    #[test]
    fn expiry_boundary_is_inclusive() {
        let mut w = Waitlist::new();
        w.push(e_at(1, 10, 100)).unwrap();
        // Exactly `timeout` cycles of waiting counts as expired.
        assert!(w.pop_expired(SimTime::from_cycles(300), 200).is_some());
    }

    #[test]
    fn long_queue_keeps_order_through_cancel_and_drain() {
        let mut w = Waitlist::new();
        let n = 25u64;
        for i in 0..n {
            w.push(e_at(i, 10 + i, i)).unwrap();
        }
        assert_eq!(w.len(), n as usize);
        assert_eq!(w.oldest(), Some(SimTime::from_cycles(0)));
        // Duplicate detection holds anywhere in a long queue.
        assert!(w.push(e_at(3, 1, 1)).is_err());
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
