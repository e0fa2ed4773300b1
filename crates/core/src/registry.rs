//! The progress-period registry (§3.1).
//!
//! *"The progress monitor stores all active progress period information
//! in a registry, so the resource usage footprint of each progress
//! period can be removed from our environment after the period
//! completes."* The registry maps live [`PpId`]s to their demand,
//! owning process, and static site, and allocates fresh ids.
//!
//! # Representation
//!
//! [`PpRegistry`] is a slab arena: records live in a dense `Vec` of
//! slots recycled through a free list, an id→slot index gives O(1)
//! lookup without hashing or tree walks (ids are sequential `u64`s),
//! and a separate sorted list of live ids preserves the deterministic
//! **id-order iteration** that waitlist re-admission, process
//! cancellation, and the snapshot/digest machinery all rely on. Because
//! ids are allocated monotonically, keeping that list sorted is a plain
//! `push`; only completion pays a binary-search removal.
//!
//! [`reference::BTreeRegistry`] preserves the previous
//! `BTreeMap`-backed implementation verbatim as a differential-testing
//! oracle: `tests/tests/differential.rs` drives both through arbitrary
//! schedules and demands identical observable state at every step.

use crate::api::{PpDemand, PpId, SiteId};
use rda_sched::ProcessId;
use rda_simcore::SimTime;

/// A live progress period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpRecord {
    /// The dynamic instance id.
    pub id: PpId,
    /// Owning process.
    pub process: ProcessId,
    /// Static code site this instance came from.
    pub site: SiteId,
    /// The declared demand.
    pub demand: PpDemand,
    /// When the period was registered.
    pub begun_at: SimTime,
    /// Demand amount actually accounted in the resource monitor (may be
    /// clamped by the Partitioned policy or the demand auditor).
    pub accounted: u64,
    /// Whether the period is admitted (running) or waitlisted.
    pub admitted: bool,
    /// Whether the period was force-admitted by waitlist aging and is
    /// accounted in the monitor's degraded overflow bucket rather than
    /// the nominal load table.
    pub overflow: bool,
}

/// Sentinel in the id→slot index for ids whose period has completed.
const GONE: u32 = u32::MAX;

/// Allocator + table of active progress periods.
#[derive(Debug, Clone, Default)]
pub struct PpRegistry {
    next_id: u64,
    /// Slot arena; a slot's contents are meaningful only while its
    /// index is referenced from `slot_of`.
    slots: Vec<PpRecord>,
    /// Recycled slot indices (LIFO).
    free: Vec<u32>,
    /// `slot_of[id]` = arena slot of a live id, or [`GONE`] once the
    /// period completed. Indexed by the sequential id value itself.
    slot_of: Vec<u32>,
    /// Live ids in ascending (creation) order. Monotone id allocation
    /// makes insertion a `push`; completion removes by binary search.
    live_ids: Vec<PpId>,
}

impl PpRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new period and return its unique id.
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        process: ProcessId,
        site: SiteId,
        demand: PpDemand,
        accounted: u64,
        admitted: bool,
        now: SimTime,
    ) -> PpId {
        let id = PpId(self.next_id);
        self.next_id += 1;
        let record = PpRecord {
            id,
            process,
            site,
            demand,
            begun_at: now,
            accounted,
            admitted,
            overflow: false,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = record;
                s
            }
            None => {
                self.slots.push(record);
                (self.slots.len() - 1) as u32
            }
        };
        debug_assert_eq!(self.slot_of.len() as u64, id.0);
        self.slot_of.push(slot);
        self.live_ids.push(id);
        id
    }

    /// Whether `id` was ever allocated by [`Self::register`] — used to
    /// tell a double end (allocated, since completed) from an end of an
    /// id that never existed.
    pub fn was_allocated(&self, id: PpId) -> bool {
        id.0 < self.next_id
    }

    /// Number of ids ever allocated (the next id to be handed out).
    pub fn allocated(&self) -> u64 {
        self.next_id
    }

    fn slot(&self, id: PpId) -> Option<usize> {
        match self.slot_of.get(id.0 as usize) {
            Some(&s) if s != GONE => Some(s as usize),
            _ => None,
        }
    }

    /// Look up a live period.
    pub fn get(&self, id: PpId) -> Option<&PpRecord> {
        self.slot(id).map(|s| &self.slots[s])
    }

    /// Mutable access to a live period (admission flips, clamping).
    pub fn get_mut(&mut self, id: PpId) -> Option<&mut PpRecord> {
        self.slot(id).map(|s| &mut self.slots[s])
    }

    /// Remove a completed period, returning its record.
    pub fn complete(&mut self, id: PpId) -> Option<PpRecord> {
        let slot = self.slot(id)?;
        self.slot_of[id.0 as usize] = GONE;
        self.free.push(slot as u32);
        let pos = self
            .live_ids
            .binary_search(&id)
            .expect("live slot implies a live-id entry");
        self.live_ids.remove(pos);
        Some(self.slots[slot])
    }

    /// Number of live periods (admitted + waitlisted).
    pub fn len(&self) -> usize {
        self.live_ids.len()
    }

    /// True when no periods are live.
    pub fn is_empty(&self) -> bool {
        self.live_ids.is_empty()
    }

    /// Iterate over live periods in id (creation) order.
    pub fn iter(&self) -> impl Iterator<Item = &PpRecord> {
        self.live_ids
            .iter()
            .map(move |id| &self.slots[self.slot_of[id.0 as usize] as usize])
    }

    /// The three audit aggregates — nominal accounted sum,
    /// overflow-bucket sum, and waiting count — computed in one pass
    /// over the live records. The extension's invariant check compares
    /// them with the resource monitor and the waitlist; the per-step
    /// paranoid sweep runs on this.
    pub fn audit_sums(&self) -> AuditSums {
        let mut sums = AuditSums::default();
        for r in self.iter() {
            if !r.admitted {
                sums.waiting += 1;
            } else if r.overflow {
                sums.overflow += r.accounted;
            } else {
                sums.accounted += r.accounted;
            }
        }
        sums
    }
}

/// Registry aggregates from [`PpRegistry::audit_sums`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditSums {
    /// Sum of accounted demand over admitted, non-overflow periods —
    /// must equal the resource monitor's usage.
    pub accounted: u64,
    /// Sum of accounted demand over aged (overflow-admitted) periods —
    /// must equal the resource monitor's overflow bucket.
    pub overflow: u64,
    /// Count of live periods not admitted — must equal the waitlist
    /// length.
    pub waiting: u64,
}

/// The previous `BTreeMap`-backed registry, kept verbatim as the
/// reference model for differential testing of the slab arena. Not used
/// on any production path.
pub mod reference {
    use super::{PpDemand, PpId, PpRecord, ProcessId, SimTime, SiteId};
    use std::collections::BTreeMap;

    /// Allocator + table of active progress periods, backed by a
    /// `BTreeMap` whose key order *is* id order.
    #[derive(Debug, Clone, Default)]
    pub struct BTreeRegistry {
        next_id: u64,
        active: BTreeMap<PpId, PpRecord>,
    }

    impl BTreeRegistry {
        /// Empty registry.
        pub fn new() -> Self {
            Self::default()
        }

        /// Register a new period and return its unique id.
        #[allow(clippy::too_many_arguments)]
        pub fn register(
            &mut self,
            process: ProcessId,
            site: SiteId,
            demand: PpDemand,
            accounted: u64,
            admitted: bool,
            now: SimTime,
        ) -> PpId {
            let id = PpId(self.next_id);
            self.next_id += 1;
            self.active.insert(
                id,
                PpRecord {
                    id,
                    process,
                    site,
                    demand,
                    begun_at: now,
                    accounted,
                    admitted,
                    overflow: false,
                },
            );
            id
        }

        /// Whether `id` was ever allocated.
        pub fn was_allocated(&self, id: PpId) -> bool {
            id.0 < self.next_id
        }

        /// Number of ids ever allocated.
        pub fn allocated(&self) -> u64 {
            self.next_id
        }

        /// Look up a live period.
        pub fn get(&self, id: PpId) -> Option<&PpRecord> {
            self.active.get(&id)
        }

        /// Mutable access to a live period.
        pub fn get_mut(&mut self, id: PpId) -> Option<&mut PpRecord> {
            self.active.get_mut(&id)
        }

        /// Remove a completed period, returning its record.
        pub fn complete(&mut self, id: PpId) -> Option<PpRecord> {
            self.active.remove(&id)
        }

        /// Number of live periods.
        pub fn len(&self) -> usize {
            self.active.len()
        }

        /// True when no periods are live.
        pub fn is_empty(&self) -> bool {
            self.active.is_empty()
        }

        /// Iterate over live periods in id (creation) order.
        pub fn iter(&self) -> impl Iterator<Item = &PpRecord> {
            self.active.values()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::mb;
    use rda_machine::ReuseLevel;

    fn demand() -> PpDemand {
        PpDemand::llc(mb(1.0), ReuseLevel::High)
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut r = PpRegistry::new();
        let a = r.register(ProcessId(0), SiteId(0), demand(), mb(1.0), true, SimTime::ZERO);
        let b = r.register(ProcessId(0), SiteId(0), demand(), mb(1.0), true, SimTime::ZERO);
        assert!(a < b);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn complete_removes_and_returns() {
        let mut r = PpRegistry::new();
        let id = r.register(ProcessId(3), SiteId(1), demand(), mb(1.0), true, SimTime::ZERO);
        let rec = r.complete(id).unwrap();
        assert_eq!(rec.process, ProcessId(3));
        assert!(r.complete(id).is_none(), "double-complete returns None");
        assert!(r.is_empty());
    }

    #[test]
    fn total_accounted_counts_only_admitted() {
        let mut r = PpRegistry::new();
        r.register(ProcessId(1), SiteId(0), demand(), 100, true, SimTime::ZERO);
        r.register(ProcessId(2), SiteId(0), demand(), 200, false, SimTime::ZERO);
        r.register(ProcessId(3), SiteId(0), demand(), 300, true, SimTime::ZERO);
        let sums = r.audit_sums();
        assert_eq!(sums.accounted, 400);
        assert_eq!(sums.overflow, 0);
        assert_eq!(sums.waiting, 1);
    }

    #[test]
    fn overflow_records_are_booked_separately() {
        let mut r = PpRegistry::new();
        let a = r.register(ProcessId(1), SiteId(0), demand(), 100, true, SimTime::ZERO);
        r.register(ProcessId(2), SiteId(0), demand(), 200, true, SimTime::ZERO);
        r.get_mut(a).unwrap().overflow = true;
        let sums = r.audit_sums();
        assert_eq!(sums.accounted, 200);
        assert_eq!(sums.overflow, 100);
    }

    #[test]
    fn allocation_history_distinguishes_unknown_from_completed() {
        let mut r = PpRegistry::new();
        let id = r.register(ProcessId(0), SiteId(0), demand(), 1, true, SimTime::ZERO);
        assert!(r.was_allocated(id));
        assert!(!r.was_allocated(PpId(id.0 + 1)));
        r.complete(id);
        // Completed ids stay "allocated" — a second end is a DoubleEnd,
        // not an UnknownPp.
        assert!(r.was_allocated(id));
    }

    #[test]
    fn slots_are_recycled_but_iteration_stays_in_id_order() {
        let mut r = PpRegistry::new();
        let ids: Vec<PpId> = (0..6)
            .map(|p| r.register(ProcessId(p), SiteId(0), demand(), 10, true, SimTime::ZERO))
            .collect();
        // Complete out of creation order, punching holes in the arena.
        r.complete(ids[3]).unwrap();
        r.complete(ids[0]).unwrap();
        r.complete(ids[4]).unwrap();
        // New registrations reuse freed slots…
        let g = r.register(ProcessId(9), SiteId(1), demand(), 10, false, SimTime::ZERO);
        let h = r.register(ProcessId(8), SiteId(2), demand(), 10, true, SimTime::ZERO);
        assert!(g > ids[5] && h > g, "ids stay monotone across recycling");
        // …yet iteration remains strictly ascending by id.
        let order: Vec<u64> = r.iter().map(|rec| rec.id.0).collect();
        assert_eq!(order, vec![1, 2, 5, g.0, h.0]);
        assert_eq!(r.len(), 5);
        // Lookups route through the recycled slots correctly.
        assert_eq!(r.get(g).unwrap().process, ProcessId(9));
        assert_eq!(r.get(h).unwrap().site, SiteId(2));
        assert!(r.get(ids[3]).is_none());
    }
}
