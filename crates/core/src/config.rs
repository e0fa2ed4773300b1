//! Configuration of the RDA extension.

use crate::policy::PolicyKind;
use rda_machine::MachineConfig;

/// How declared demands are audited against the resource's nominal
/// capacity before accounting (the paper trusts applications; a
/// production scheduler cannot — a lying or buggy process declaring a
/// demand larger than the whole resource would otherwise park every
/// other tracked process until it exits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandAudit {
    /// Account declared demands verbatim (the paper's behaviour). An
    /// impossible demand is still admitted by the deadlock guard, and
    /// its full declared amount occupies the load table until it ends.
    Trust,
    /// Account at most the resource's nominal capacity for any single
    /// period; clamped periods are counted in
    /// [`crate::extension::RdaStats::clamped`]. One liar can then hold
    /// at most one capacity's worth of the books.
    Clamp,
    /// Refuse to track a demand larger than the resource:
    /// `pp_begin` returns [`crate::error::RdaError::DemandOverflow`]
    /// and the caller schedules the process directly on the OS
    /// (the paper's escape hatch for untracked processes).
    Reject,
}

/// What the bounded-waitlist admission gate does with an arrival that
/// would push a waitlist past
/// [`OverloadConfig::waitlist_cap`] (open-system overload control; the
/// paper's closed-system batch model never needed one — its waitlist
/// depth is bounded by the process count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Shed the arriving period: `pp_begin` returns
    /// [`crate::error::RdaError::WaitlistFull`] without allocating an
    /// id, and the caller may retry later (tail drop).
    RejectNewest,
    /// Evict the longest-queued waiter to make room for the arrival;
    /// the victim's period is completed with an error and reported via
    /// [`crate::extension::BeginOutcome::Pause::shed`] (head drop —
    /// fresh work is favoured because the oldest waiter has the least
    /// chance of meeting any deadline).
    RejectOldest,
    /// Admit the arrival immediately into the degraded overflow
    /// accounting bucket (invisible to the predicate), exactly like an
    /// aged force-admission: latency is protected at the price of
    /// nominal-isolation guarantees.
    DegradeToOverflow,
}

/// Saturation circuit breaker: when the total occupancy (nominal +
/// overflow buckets) stays above `high_water` for
/// `trip_after` consecutive evaluation ticks, the breaker opens and
/// `pp_begin` sheds every arrival whose audited demand is at least
/// `shed_min_demand` with [`crate::error::RdaError::BreakerOpen`].
/// Recovery is hysteretic: the breaker resets only after occupancy has
/// stayed below `low_water` for `recover_after` consecutive ticks, so
/// it cannot flap on the boundary. Evaluated on every
/// [`crate::extension::RdaExtension::age_waitlist`] tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Occupancy (bytes; nominal + overflow) at or above which a tick
    /// counts toward tripping.
    pub high_water: u64,
    /// Occupancy strictly below which a tick counts toward recovery
    /// (must be ≤ `high_water` for sane hysteresis).
    pub low_water: u64,
    /// Consecutive high-occupancy ticks before the breaker opens.
    pub trip_after: u32,
    /// Consecutive low-occupancy ticks before an open breaker resets.
    pub recover_after: u32,
    /// Only arrivals with audited demand ≥ this are shed while open;
    /// smaller requests still pass (shed the expensive class first).
    pub shed_min_demand: u64,
}

/// Overload-control knobs layered on the waitlist: a bounded admission
/// gate with a pluggable [`ShedPolicy`], optional per-request deadlines
/// (expired waiters fail typed instead of waiting forever), and an
/// optional saturation [`BreakerConfig`]. `None` everywhere reproduces
/// the paper's unbounded, deadline-free behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Maximum waitlist entries (per node in the topology engine)
    /// before the gate sheds.
    pub waitlist_cap: usize,
    /// What to shed when the cap is hit.
    pub shed_policy: ShedPolicy,
    /// A waitlisted period older than this many cycles is expired on
    /// the next aging tick with
    /// [`crate::error::RdaError::DeadlineExceeded`] semantics (`None`
    /// disables deadlines).
    pub deadline_cycles: Option<u64>,
    /// The saturation circuit breaker (`None` disables it).
    pub breaker: Option<BreakerConfig>,
}

/// Tunables of the scheduling extension.
#[derive(Debug, Clone, PartialEq)]
pub struct RdaConfig {
    /// The active scheduling policy (§3.3).
    pub policy: PolicyKind,
    /// LLC capacity the resource monitor manages, bytes.
    pub llc_capacity: u64,
    /// Cost of a full (slow-path) `pp_begin`/`pp_end` call: syscall,
    /// registry update, predicate evaluation, possible waitlist scan —
    /// in cycles.
    pub slow_call_cycles: u64,
    /// Cost of a memoised fast-path call (user-level check against the
    /// shared decision page), in cycles.
    pub fast_call_cycles: u64,
    /// Minimum interval between full predicate evaluations for the same
    /// site; calls arriving sooner take the fast path when the cached
    /// decision is still valid (see [`crate::fastpath`]).
    pub min_eval_interval_cycles: u64,
    /// How declared demands are audited before accounting.
    pub demand_audit: DemandAudit,
    /// Waitlist aging: a period waiting this many cycles or longer is
    /// force-admitted under the degraded overflow accounting bucket,
    /// bounding worst-case wait (`None` disables aging — the paper's
    /// behaviour, where FIFO re-evaluation is the only way off the
    /// waitlist).
    pub waitlist_timeout_cycles: Option<u64>,
    /// Open-system overload control (bounded waitlist, deadlines,
    /// circuit breaker). `None` — the default — is the paper's
    /// unbounded closed-system behaviour.
    pub overload: Option<OverloadConfig>,
}

impl RdaConfig {
    /// Defaults bound to a machine: capacity from the machine's LLC;
    /// call costs calibrated against Figure 11
    /// (≈ 50 µs slow path — syscall + registry + predicate + possible
    /// waitlist scan and reschedule — ≈ 0.55 µs fast path, 250 µs
    /// re-evaluation interval at 1.9 GHz).
    pub fn for_machine(m: &MachineConfig, policy: PolicyKind) -> Self {
        let us = |micros: f64| (micros * 1e-6 * m.freq_hz).round() as u64;
        RdaConfig {
            policy,
            llc_capacity: m.llc_bytes,
            slow_call_cycles: us(50.0),
            fast_call_cycles: us(0.55),
            min_eval_interval_cycles: us(250.0),
            demand_audit: DemandAudit::Trust,
            waitlist_timeout_cycles: None,
            overload: None,
        }
    }

    /// Use the given demand-audit mode.
    pub fn with_demand_audit(mut self, audit: DemandAudit) -> Self {
        self.demand_audit = audit;
        self
    }

    /// Enable waitlist aging with the given timeout in cycles.
    pub fn with_waitlist_timeout_cycles(mut self, cycles: u64) -> Self {
        self.waitlist_timeout_cycles = Some(cycles);
        self
    }

    /// Enable open-system overload control.
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = Some(overload);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_machine() {
        let m = MachineConfig::xeon_e5_2420();
        let c = RdaConfig::for_machine(&m, PolicyKind::Strict);
        assert_eq!(c.llc_capacity, m.llc_bytes);
        assert_eq!(c.slow_call_cycles, 95_000); // 50 us at 1.9 GHz
        assert!(c.fast_call_cycles < c.slow_call_cycles / 50);
        // The paper's trusting, aging-free behaviour is the default.
        assert_eq!(c.demand_audit, DemandAudit::Trust);
        assert_eq!(c.waitlist_timeout_cycles, None);
        assert_eq!(c.overload, None);
    }

    #[test]
    fn builders_set_robustness_knobs() {
        let m = MachineConfig::xeon_e5_2420();
        let c = RdaConfig::for_machine(&m, PolicyKind::Strict)
            .with_demand_audit(DemandAudit::Clamp)
            .with_waitlist_timeout_cycles(1_000);
        assert_eq!(c.demand_audit, DemandAudit::Clamp);
        assert_eq!(c.waitlist_timeout_cycles, Some(1_000));
    }

    #[test]
    fn overload_builder_sets_all_knobs() {
        let m = MachineConfig::xeon_e5_2420();
        let overload = OverloadConfig {
            waitlist_cap: 4,
            shed_policy: ShedPolicy::RejectOldest,
            deadline_cycles: Some(10_000),
            breaker: Some(BreakerConfig {
                high_water: 1 << 20,
                low_water: 1 << 19,
                trip_after: 3,
                recover_after: 2,
                shed_min_demand: 1 << 16,
            }),
        };
        let c = RdaConfig::for_machine(&m, PolicyKind::Strict).with_overload(overload);
        assert_eq!(c.overload, Some(overload));
        let b = c.overload.unwrap().breaker.unwrap();
        assert!(b.low_water <= b.high_water, "hysteresis band is ordered");
    }
}
