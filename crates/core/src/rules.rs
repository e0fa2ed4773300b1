//! The admission rulebook: each rule both engines apply, stated once.
//!
//! [`crate::RdaExtension`] and [`crate::TopoExtension`] keep only what
//! differs — their books, placement and layers (topology engine), the
//! fast path (scalar engine) — and check every `pp_begin` in one order:
//! gating, [`audit`], the [`Breaker`], the 64-bit wrap guard, the fast
//! path (scalar engine only), [`fits`], then the bounded [`gate`]. The
//! drain that re-admits waiters is [`crate::waitlist::Drain`].

use crate::config::{BreakerConfig, DemandAudit, OverloadConfig, ShedPolicy};
use crate::waitlist::{WaitEntry, Waitlist};
use rda_trace::EventKind;

/// Algorithm 1 for one accounted component `a`: whether it fits a book
/// holding `usage` under the policy's usage `limit` on that resource
/// ([`crate::policy::PolicyKind::usage_limit`]), with `reserved` bytes
/// held back for other layers' guarantees (0 in the scalar engine).
///
/// Departures from the paper's `outcome = (capacity − usage) − a`: a
/// zero component is unconstrained and always fits, even on an
/// oversubscribed resource; a component above the limit could never
/// fit, so the deadlock guard admits it at once; otherwise
/// `usage + a ≤ limit − reserved` must hold, with a checked add.
pub fn fits(limit: u64, reserved: u64, usage: u64, a: u64) -> bool {
    a == 0
        || a > limit
        || usage
            .checked_add(a)
            .is_some_and(|sum| sum <= limit.saturating_sub(reserved))
}

/// The demand audit of one component against one capacity: the amount
/// to account, or `None` when the audit rejects the period. Callers
/// count `clamped` once per begin that lost any amount to it.
pub fn audit(mode: DemandAudit, declared: u64, capacity: u64) -> Option<u64> {
    match mode {
        _ if declared <= capacity => Some(declared),
        DemandAudit::Trust => Some(declared),
        DemandAudit::Clamp => Some(capacity),
        DemandAudit::Reject => None,
    }
}

/// One saturation breaker's hysteresis state (see [`BreakerConfig`]):
/// the open flag and the two consecutive-tick streaks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breaker {
    open: bool,
    above: u32,
    below: u32,
}

impl Breaker {
    /// Whether the breaker is open.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Whether the breaker sheds an arrival of `audited` bytes.
    pub fn sheds(&self, cfg: &BreakerConfig, audited: u64) -> bool {
        self.open && audited >= cfg.shed_min_demand
    }

    /// Advance one aging tick at `occupancy` (nominal + overflow): trip
    /// after `trip_after` consecutive ticks at or above the high-water
    /// mark, reset after `recover_after` consecutive ticks below the
    /// low-water mark; an off-streak tick restarts the streak. An idle
    /// resource (occupancy 0) never counts toward tripping, even under
    /// a high-water mark of 0. Returns the edge crossed
    /// ([`EventKind::BreakerTrip`] or [`EventKind::BreakerReset`]) for
    /// the engine to count and emit.
    pub fn tick(&mut self, cfg: &BreakerConfig, occupancy: u64) -> Option<EventKind> {
        // An open breaker counts low ticks toward recovery, a closed
        // one high ticks toward tripping.
        let (streak, goal, on_streak) = if self.open {
            (
                &mut self.below,
                cfg.recover_after,
                occupancy < cfg.low_water,
            )
        } else {
            // At least 1 byte: an idle resource never counts.
            let high = occupancy >= cfg.high_water.max(1);
            (&mut self.above, cfg.trip_after, high)
        };
        *streak = if on_streak { *streak + 1 } else { 0 };
        if !on_streak || *streak < goal {
            return None;
        }
        *streak = 0;
        self.open = !self.open;
        Some(if self.open {
            EventKind::BreakerTrip
        } else {
            EventKind::BreakerReset
        })
    }
}

/// What the bounded admission gate does with an arrival that does not
/// fit (see [`ShedPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate<A> {
    /// Below the cap, or no overload control: queue the arrival.
    Queue,
    /// Head drop: this longest-queued waiter was popped; complete it
    /// as shed, then queue the arrival.
    Evict(WaitEntry<A>),
    /// Admit the arrival straight into the degraded overflow bucket.
    Degrade,
    /// Tail drop: shed the arrival without allocating an id.
    Drop,
}

/// The bounded admission gate on `queue` under `overload`. RejectOldest
/// with nothing to evict (a zero cap) is a tail drop.
pub fn gate<A: Copy>(overload: Option<OverloadConfig>, queue: &mut Waitlist<A>) -> Gate<A> {
    match overload {
        Some(ov) if queue.len() >= ov.waitlist_cap => match ov.shed_policy {
            ShedPolicy::RejectNewest => Gate::Drop,
            ShedPolicy::RejectOldest => queue.pop().map_or(Gate::Drop, Gate::Evict),
            ShedPolicy::DegradeToOverflow => Gate::Degrade,
        },
        _ => Gate::Queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::mb;
    use crate::policy::PolicyKind;

    /// The decision table of Algorithm 1 on a resource of `capacity`
    /// holding `usage`, for an accounted component `a`.
    fn run(policy: PolicyKind, capacity: u64, usage: u64, a: u64) -> bool {
        fits(policy.usage_limit(capacity), 0, usage, a)
    }

    #[test]
    fn strict_admits_until_capacity() {
        let p = PolicyKind::Strict;
        assert!(run(p, mb(15.0), mb(12.0), mb(3.0)));
        assert!(!run(p, mb(15.0), mb(12.0), mb(3.1)));
    }

    #[test]
    fn compromise_admits_to_twice_capacity() {
        // Already oversubscribed: 20 MB held in a 15 MB cache.
        let p = PolicyKind::compromise_default();
        assert!(run(p, mb(15.0), mb(20.0), mb(10.0)));
        assert!(!run(p, mb(15.0), mb(20.0), mb(10.1)));
    }

    #[test]
    fn default_only_never_pauses() {
        assert!(run(
            PolicyKind::DefaultOnly,
            mb(15.0),
            mb(1000.0),
            mb(500.0)
        ));
    }

    #[test]
    fn oversized_demand_is_admitted_not_deadlocked() {
        // A 20 MB streaming working set on a 15 MB LLC can never pass
        // the strict test; it must run anyway.
        assert!(run(PolicyKind::Strict, mb(15.0), 0, mb(20.0)));
        // But a fitting demand arriving when the cache is *full* still
        // pauses (it can be admitted later).
        assert!(!run(PolicyKind::Strict, mb(15.0), mb(15.0), mb(1.0)));
    }

    #[test]
    fn partitioned_clamps_then_admits() {
        // Quota 25% of 15 MB = 3.75 MB accounted for a 20 MB demand.
        let p = PolicyKind::Partitioned { quota_frac: 0.25 };
        let accounted = p.effective_demand(mb(20.0), mb(15.0));
        assert!(!run(p, mb(15.0), mb(12.0), accounted));
        assert!(run(p, mb(15.0), mb(11.0), accounted));
    }

    #[test]
    fn zero_demand_always_runs() {
        // On a full cache…
        assert!(run(PolicyKind::Strict, mb(15.0), mb(15.0), 0));
        // …and on an oversubscribed one, where the literal pseudocode's
        // `remaining − 0` is negative: a zero component is unconstrained.
        assert!(run(PolicyKind::Strict, 1000, 2000, 0));
        assert!(run(PolicyKind::compromise_default(), 1000, 5000, 0));
    }

    #[test]
    fn exact_fit_is_admitted() {
        assert!(run(PolicyKind::Strict, mb(15.0), mb(10.0), mb(5.0)));
    }

    #[test]
    fn an_idle_resource_never_trips_a_breaker() {
        let cfg = BreakerConfig {
            high_water: 0,
            low_water: 0,
            trip_after: 1,
            recover_after: 1,
            shed_min_demand: 0,
        };
        let mut idle = Breaker::default();
        assert_eq!(idle.tick(&cfg, 0), None);
        assert!(!idle.is_open());
        let mut busy = Breaker::default();
        assert_eq!(busy.tick(&cfg, 1), Some(EventKind::BreakerTrip));
        assert!(busy.is_open());
    }
}
