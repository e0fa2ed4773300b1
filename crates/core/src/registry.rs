//! The progress-period registry (§3.1).
//!
//! *"The progress monitor stores all active progress period information
//! in a registry, so the resource usage footprint of each progress
//! period can be removed from our environment after the period
//! completes."* The registry maps live [`PpId`]s to their records and
//! allocates fresh ids. Both engines keep their periods here as one
//! record type, [`PpRecord`]: the topology
//! [`crate::topo::TopoExtension`] fills in the layer, node and demand
//! vectors, the scalar [`crate::extension::RdaExtension`] layer 0,
//! node 0 and LLC-only vectors. A record is the one copy of its
//! period's facts: the waitlist drain fits each waiter by its record's
//! accounted demand, and the [`crate::snapshot::Snapshot`] reports the
//! records themselves.
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
//! `push`; only completion pays a binary-search removal, and
//! [`PpRegistry::reclaim`] removes a dying process's periods in one
//! pass.
//!
//! [`reference::BTreeRegistry`] is a `BTreeMap`-backed implementation
//! kept as the differential-testing reference:
//! `tests/tests/differential.rs` drives both through arbitrary
//! schedules and demands identical observable state at every step.

use crate::api::{PpId, SiteId};
use crate::layer::LayerId;
use crate::topology::{Demand, NodeId};
use rda_sched::ProcessId;

/// A live period of either engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PpRecord {
    /// The period id.
    pub id: PpId,
    /// Owning process.
    pub process: ProcessId,
    /// Static code site this instance came from.
    pub site: SiteId,
    /// The layer the owning process belongs to.
    pub layer: LayerId,
    /// The node the period was placed on (waiters: pinned target).
    pub node: NodeId,
    /// Declared (post-audit) demand vector.
    pub declared: Demand,
    /// Vector actually accounted on the node (may be clamped by the
    /// Partitioned policy or the demand auditor).
    pub accounted: Demand,
    /// Running (`true`) or waitlisted (`false`).
    pub admitted: bool,
    /// Force-admitted by waitlist aging (or degraded at the gate) and
    /// accounted in the node's overflow bucket rather than the nominal
    /// books.
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

    /// Allocate the next id and store the record `make` builds for it.
    #[inline]
    pub fn insert(&mut self, make: impl FnOnce(PpId) -> PpRecord) -> PpId {
        let id = PpId(self.next_id);
        self.next_id += 1;
        let record = make(id);
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

    /// Whether `id` was ever allocated by [`Self::insert`] — used to
    /// tell a double end (allocated, since completed) from an end of an
    /// id that never existed.
    #[inline]
    pub fn was_allocated(&self, id: PpId) -> bool {
        id.0 < self.next_id
    }

    /// Number of ids ever allocated (the next id to be handed out).
    #[inline]
    pub fn allocated(&self) -> u64 {
        self.next_id
    }

    #[inline]
    fn slot(&self, id: PpId) -> Option<usize> {
        match self.slot_of.get(id.0 as usize) {
            Some(&s) if s != GONE => Some(s as usize),
            _ => None,
        }
    }

    /// Look up a live period.
    #[inline]
    pub fn get(&self, id: PpId) -> Option<&PpRecord> {
        self.slot(id).map(|s| &self.slots[s])
    }

    /// Mutable access to a live period (admission flips, clamping).
    #[inline]
    pub fn get_mut(&mut self, id: PpId) -> Option<&mut PpRecord> {
        self.slot(id).map(|s| &mut self.slots[s])
    }

    /// Remove a completed period, returning its record; `None` when
    /// `id` is not live. The id→slot index decides liveness: a live id
    /// missing from the live-id list is still freed and returned.
    #[inline]
    pub fn complete(&mut self, id: PpId) -> Option<PpRecord> {
        let slot = self.slot(id)?;
        if let Ok(pos) = self.live_ids.binary_search(&id) {
            self.live_ids.remove(pos);
        }
        self.slot_of[id.0 as usize] = GONE;
        self.free.push(slot as u32);
        Some(self.slots[slot])
    }

    /// Remove every live period whose record `dying` selects — a dying
    /// process's periods — in one pass, appending the records to `out`
    /// in id order. `out` is the caller's reusable buffer.
    pub fn reclaim(&mut self, mut dying: impl FnMut(&PpRecord) -> bool, out: &mut Vec<PpRecord>) {
        let (slots, slot_of, free) = (&self.slots, &mut self.slot_of, &mut self.free);
        self.live_ids.retain(|id| {
            let slot = slot_of[id.0 as usize];
            let record = slots[slot as usize];
            if !dying(&record) {
                return true;
            }
            out.push(record);
            slot_of[id.0 as usize] = GONE;
            free.push(slot);
            false
        });
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
}

/// A `BTreeMap`-backed registry, kept as the reference model for
/// differential testing of the slab arena. Not used on any production
/// path.
pub mod reference {
    use super::{PpId, PpRecord};
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

        /// Allocate the next id and store the record `make` builds.
        pub fn insert(&mut self, make: impl FnOnce(PpId) -> PpRecord) -> PpId {
            let id = PpId(self.next_id);
            self.next_id += 1;
            self.active.insert(id, make(id));
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

    /// A scalar-engine record of `accounted` LLC bytes.
    fn rec(
        process: u32,
        site: u32,
        accounted: u64,
        admitted: bool,
    ) -> impl FnOnce(PpId) -> PpRecord {
        move |id| PpRecord {
            id,
            process: ProcessId(process),
            site: SiteId(site),
            layer: LayerId(0),
            node: NodeId(0),
            declared: Demand::llc(mb(1.0)),
            accounted: Demand::llc(accounted),
            admitted,
            overflow: false,
        }
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut r = PpRegistry::new();
        let a = r.insert(rec(0, 0, mb(1.0), true));
        let b = r.insert(rec(0, 0, mb(1.0), true));
        assert!(a < b);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn complete_removes_and_returns() {
        let mut r = PpRegistry::new();
        let id = r.insert(rec(3, 1, mb(1.0), true));
        let rec = r.complete(id).unwrap();
        assert_eq!(rec.process, ProcessId(3));
        assert!(r.complete(id).is_none(), "double-complete returns None");
        assert!(r.is_empty());
    }

    #[test]
    fn complete_frees_a_live_slot_missing_from_the_live_list() {
        let mut r = PpRegistry::new();
        let a = r.insert(rec(1, 0, 10, true));
        let b = r.insert(rec(2, 0, 10, true));
        // Desynchronise the two indexes: `a` keeps its slot but leaves
        // the live-id list.
        r.live_ids.retain(|&id| id != a);
        assert_eq!(r.complete(a).map(|rec| rec.process), Some(ProcessId(1)));
        assert!(r.get(a).is_none());
        assert_eq!(r.free.len(), 1, "the slot is recycled");
        assert_eq!(r.iter().map(|rec| rec.id).collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn allocation_history_distinguishes_unknown_from_completed() {
        let mut r = PpRegistry::new();
        let id = r.insert(rec(0, 0, 1, true));
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
        let ids: Vec<PpId> = (0..6).map(|p| r.insert(rec(p, 0, 10, true))).collect();
        // Complete out of creation order, punching holes in the arena.
        r.complete(ids[3]).unwrap();
        r.complete(ids[0]).unwrap();
        r.complete(ids[4]).unwrap();
        // New registrations reuse freed slots…
        let g = r.insert(rec(9, 1, 10, false));
        let h = r.insert(rec(8, 2, 10, true));
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
