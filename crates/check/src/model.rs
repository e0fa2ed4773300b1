//! A pure-functional reference model of the RDA extension.
//!
//! This is an *executable specification*: Algorithm 1 plus the
//! waitlist, aging, demand-audit, fast-path-memoisation, and
//! process-exit semantics, written from DESIGN.md and the paper —
//! **deliberately sharing no logic with `rda-core`**. Where the
//! implementation routes a decision through the shared rulebook
//! (`rules::{fits, audit, gate, Breaker}`, the waitlist drain protocol)
//! or `FastPathCache::try_admit`, the model re-derives the same rule
//! from flat arithmetic over plain vectors and maps. The differential
//! oracle ([`crate::diff`]) replays identical event sequences through
//! both and demands bit-identical observable state after every event,
//! so a bug must be introduced *twice, identically, through two
//! unrelated code paths* before it can hide.
//!
//! The model values obviousness over speed: `Vec` scans instead of
//! queues, recomputed limits instead of cached ones, one flat function
//! per API call. Everything observable — both accounting buckets,
//! waitlist order, live periods, counters, the id allocator, and the
//! memoised decision cache — is reproduced exactly.

use rda_core::{
    AgeOutcome, BeginOutcome, Demand, DemandAudit, EndOutcome, LayerId, NodeId, PolicyKind, PpId,
    PpSnap, RdaConfig, RdaError, RdaStats, ResourceKind, ShedPolicy, Snapshot, WaitSnap,
};
use rda_sched::ProcessId;
use rda_simcore::Fnv1a64;
use std::collections::BTreeMap;

/// The observable effect of one engine call: the vocabulary both
/// engines' mapped outcomes and both reference models share. The
/// topology engine and its model have no fast path; their `fast` flags
/// are always `false`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// `pp_begin` under a non-gating policy: nothing tracked.
    Bypass,
    /// `pp_begin` admitted the period.
    Run {
        /// The allocated period id.
        pp: PpId,
        /// Whether the memoised fast path served the call.
        fast: bool,
    },
    /// `pp_begin` waitlisted the period.
    Pause {
        /// The allocated (waitlisted) period id.
        pp: PpId,
        /// Under [`ShedPolicy::RejectOldest`] at the waitlist cap, the
        /// longest-queued waiter evicted to make room.
        shed: Option<PpId>,
    },
    /// `pp_end` completed a period.
    End {
        /// Whether the fast path served the call.
        fast: bool,
        /// Waitlisted periods admitted by the completion.
        resumed: Vec<(PpId, ProcessId)>,
    },
    /// `process_exit` or `age_waitlist` ran; these cannot fail.
    Woken {
        /// Waitlisted periods admitted by the call.
        resumed: Vec<(PpId, ProcessId)>,
        /// Waitlisted periods expired past their deadline (only
        /// `age_waitlist` under an overload deadline; empty otherwise).
        expired: Vec<(PpId, ProcessId)>,
    },
    /// `note_retry` ran: a client-side retry was counted.
    Retried,
    /// The call was rejected with a typed error.
    Rejected(RdaError),
}

impl From<Result<BeginOutcome, RdaError>> for Effect {
    fn from(r: Result<BeginOutcome, RdaError>) -> Self {
        match r {
            Ok(BeginOutcome::Bypass) => Effect::Bypass,
            Ok(BeginOutcome::Run { pp, fast }) => Effect::Run { pp, fast },
            Ok(BeginOutcome::Pause { pp, shed }) => Effect::Pause { pp, shed },
            Err(e) => Effect::Rejected(e),
        }
    }
}

impl From<Result<EndOutcome, RdaError>> for Effect {
    fn from(r: Result<EndOutcome, RdaError>) -> Self {
        match r {
            Ok(EndOutcome { fast, resumed }) => Effect::End { fast, resumed },
            Err(e) => Effect::Rejected(e),
        }
    }
}

impl From<AgeOutcome> for Effect {
    fn from(out: AgeOutcome) -> Self {
        Effect::Woken {
            resumed: out.resumed,
            expired: out.expired,
        }
    }
}

/// A live period as the model tracks it. `declared` holds the
/// *audited* amount — what the implementation registers after the
/// demand audit — since that is what [`Snapshot`] exposes.
#[derive(Debug, Clone, Copy)]
struct Period {
    process: ProcessId,
    site: u32,
    declared: u64,
    accounted: u64,
    admitted: bool,
    overflow: bool,
}

/// One waitlisted period.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    pp: u64,
    accounted: u64,
    enqueued: u64,
}

/// One memoised admission decision for a (process, site) pair.
#[derive(Debug, Clone, Copy)]
struct Cached {
    amount: u64,
    threshold: u64,
    refreshed: u64,
}

/// The reference model. Construct with the same [`RdaConfig`] as the
/// implementation under test and drive both with identical calls.
#[derive(Debug, Clone)]
pub struct RefModel {
    cfg: RdaConfig,
    next_id: u64,
    periods: BTreeMap<u64, Period>,
    waiters: Vec<Waiter>,
    usage: u64,
    overflow: u64,
    cache: BTreeMap<(u32, u32), Cached>,
    stats: RdaStats,
    breaker_open: bool,
    breaker_above: u32,
    breaker_below: u32,
}

/// The usage ceiling a policy enforces on a resource of `capacity`.
fn usage_limit(policy: PolicyKind, capacity: u64) -> u64 {
    match policy {
        PolicyKind::DefaultOnly => u64::MAX,
        PolicyKind::Strict | PolicyKind::Partitioned { .. } => capacity,
        PolicyKind::Compromise { factor } => (capacity as f64 * factor) as u64,
    }
}

/// The demand actually accounted for a period declaring `demand`.
fn effective(policy: PolicyKind, demand: u64, capacity: u64) -> u64 {
    match policy {
        PolicyKind::Partitioned { quota_frac } => demand.min((capacity as f64 * quota_frac) as u64),
        _ => demand,
    }
}

/// Algorithm 1 as flat arithmetic: `outcome = (capacity − usage) −
/// accounted`, admitted when the policy accepts the outcome. Two rules
/// come first: a zero-byte period is unconstrained and runs even on an
/// oversubscribed cache, and the oversized-demand deadlock guard admits
/// a demand that can never pass immediately rather than waitlisting it
/// forever. Compromise's slack is `limit − capacity`, from the one
/// rounding of x·capacity the guard uses too.
fn runnable(policy: PolicyKind, capacity: u64, usage: u64, accounted: u64) -> bool {
    let limit = usage_limit(policy, capacity);
    if accounted == 0 || accounted > limit {
        return true;
    }
    let outcome = capacity as i128 - usage as i128 - accounted as i128;
    match policy {
        PolicyKind::DefaultOnly => true,
        PolicyKind::Strict | PolicyKind::Partitioned { .. } => outcome >= 0,
        PolicyKind::Compromise { .. } => outcome >= capacity as i128 - limit as i128,
    }
}

impl RefModel {
    /// A fresh model with the given configuration.
    pub fn new(cfg: RdaConfig) -> Self {
        RefModel {
            cfg,
            next_id: 0,
            periods: BTreeMap::new(),
            waiters: Vec::new(),
            usage: 0,
            overflow: 0,
            cache: BTreeMap::new(),
            stats: RdaStats::default(),
            breaker_open: false,
            breaker_above: 0,
            breaker_below: 0,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &RdaConfig {
        &self.cfg
    }

    fn alloc(
        &mut self,
        process: ProcessId,
        site: u32,
        declared: u64,
        accounted: u64,
        admitted: bool,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.periods.insert(
            id,
            Period {
                process,
                site,
                declared,
                accounted,
                admitted,
                overflow: false,
            },
        );
        id
    }

    /// The memoised fast-path check: hit when a cached decision for
    /// this (process, site) is fresh, matches the demand, and current
    /// usage still satisfies the threshold. A hit refreshes the entry;
    /// a demand mismatch evicts it.
    fn cache_admit(&mut self, process: ProcessId, site: u32, amount: u64, now: u64) -> bool {
        let key = (process.0, site);
        let Some(c) = self.cache.get_mut(&key) else {
            return false;
        };
        let fresh = now.saturating_sub(c.refreshed) < self.cfg.min_eval_interval_cycles;
        let matches = c.amount == amount;
        if fresh && matches && self.usage <= c.threshold {
            c.refreshed = now;
            true
        } else {
            if !matches {
                self.cache.remove(&key);
            }
            false
        }
    }

    /// Model of `pp_begin` for an LLC demand of `declared` bytes.
    pub fn pp_begin(&mut self, process: ProcessId, site: u32, declared: u64, now: u64) -> Effect {
        if matches!(self.cfg.policy, PolicyKind::DefaultOnly) {
            return Effect::Bypass;
        }
        self.stats.begins += 1;
        let capacity = self.cfg.llc_capacity;

        // Demand audit.
        let audited = match self.cfg.demand_audit {
            DemandAudit::Trust => declared,
            DemandAudit::Clamp => {
                if declared > capacity {
                    self.stats.clamped += 1;
                    capacity
                } else {
                    declared
                }
            }
            DemandAudit::Reject => {
                if declared > capacity {
                    self.stats.clamped += 1;
                    return Effect::Rejected(RdaError::DemandOverflow {
                        kind: ResourceKind::Llc,
                        declared,
                        capacity,
                    });
                }
                declared
            }
        };

        // Saturation circuit breaker: while open, the configured demand
        // class is shed before anything is accounted — even a demand
        // that would wrap the books.
        if let Some(b) = self.cfg.overload.and_then(|o| o.breaker) {
            if self.breaker_open && audited >= b.shed_min_demand {
                self.stats.shed += 1;
                return Effect::Rejected(RdaError::BreakerOpen {
                    node: NodeId(0),
                    kind: ResourceKind::Llc,
                });
            }
        }

        let accounted = effective(self.cfg.policy, audited, capacity);
        // 64-bit load-table overflow guard; reports the audited amount.
        if self.usage.checked_add(accounted).is_none() {
            self.stats.clamped += 1;
            return Effect::Rejected(RdaError::DemandOverflow {
                kind: ResourceKind::Llc,
                declared: audited,
                capacity,
            });
        }

        // Fast path: only consulted while nothing waits (so a repeat
        // admission cannot jump ahead of a waiter). A hit admits what
        // Algorithm 1 admits and only marks the call fast.
        let fast = self.waiters.is_empty() && self.cache_admit(process, site, audited, now);
        let limit = usage_limit(self.cfg.policy, capacity);
        if fast || runnable(self.cfg.policy, capacity, self.usage, accounted) {
            if accounted > limit {
                self.stats.oversized_admits += 1;
            }
            self.usage += accounted;
            let pp = self.alloc(process, site, audited, accounted, true);
            self.stats.admitted += 1;
            if fast {
                self.stats.fast_begins += 1;
            } else {
                self.cache.insert(
                    (process.0, site),
                    Cached {
                        amount: audited,
                        threshold: limit.saturating_sub(accounted),
                        refreshed: now,
                    },
                );
            }
            Effect::Run {
                pp: PpId(pp),
                fast,
            }
        } else {
            // Bounded-waitlist admission gate: at the cap one side of
            // the queue is shed per the configured policy.
            let mut shed = None;
            if let Some(ov) = self.cfg.overload {
                if self.waiters.len() >= ov.waitlist_cap {
                    match ov.shed_policy {
                        ShedPolicy::RejectOldest if !self.waiters.is_empty() => {
                            // Head drop: the longest-queued waiter is
                            // evicted and its period completed.
                            let victim = self.waiters.remove(0);
                            self.periods.remove(&victim.pp);
                            self.stats.shed += 1;
                            shed = Some(PpId(victim.pp));
                        }
                        ShedPolicy::DegradeToOverflow => {
                            // Degraded admit straight into the overflow
                            // bucket, like an aged force-admission;
                            // counted as shed, not admitted. A bucket
                            // that would wrap refuses the demand.
                            let Some(sum) = self.overflow.checked_add(accounted) else {
                                self.stats.clamped += 1;
                                return Effect::Rejected(RdaError::DemandOverflow {
                                    kind: ResourceKind::Llc,
                                    declared: accounted,
                                    capacity,
                                });
                            };
                            self.overflow = sum;
                            let pp = self.alloc(process, site, audited, accounted, true);
                            self.periods.get_mut(&pp).expect("just inserted").overflow = true;
                            self.stats.shed += 1;
                            return Effect::Run {
                                pp: PpId(pp),
                                fast: false,
                            };
                        }
                        _ => {
                            // Tail drop (RejectNewest, or RejectOldest
                            // with nothing to evict): no id allocated.
                            self.stats.shed += 1;
                            return Effect::Rejected(RdaError::WaitlistFull { node: NodeId(0) });
                        }
                    }
                }
            }
            let pp = self.alloc(process, site, audited, accounted, false);
            self.waiters.push(Waiter {
                pp,
                accounted,
                enqueued: now,
            });
            self.stats.paused += 1;
            self.stats.max_waitlist = self.stats.max_waitlist.max(self.waiters.len() as u64);
            Effect::Pause { pp: PpId(pp), shed }
        }
    }

    /// Model of `pp_end`.
    pub fn pp_end(&mut self, pp: PpId, now: u64) -> Effect {
        self.stats.ends += 1;
        let Some(rec) = self.periods.get(&pp.0) else {
            self.stats.rejected_ends += 1;
            return Effect::Rejected(if pp.0 < self.next_id {
                RdaError::DoubleEnd(pp)
            } else {
                RdaError::UnknownPp(pp)
            });
        };
        if !rec.admitted {
            self.stats.rejected_ends += 1;
            return Effect::Rejected(RdaError::EndWhileWaitlisted(pp));
        }
        let rec = self.periods.remove(&pp.0).expect("checked live above");
        if rec.overflow {
            self.overflow -= rec.accounted;
        } else {
            self.usage -= rec.accounted;
        }

        if self.waiters.is_empty() {
            // Fast completion: no one to wake and the site's decision is
            // still fresh (freshness is read, not refreshed, here).
            let fresh = self
                .cache
                .get(&(rec.process.0, rec.site))
                .is_some_and(|c| now.saturating_sub(c.refreshed) < self.cfg.min_eval_interval_cycles);
            if fresh {
                self.stats.fast_ends += 1;
            }
            return Effect::End {
                fast: fresh,
                resumed: Vec::new(),
            };
        }
        let resumed = self.drain(now);
        Effect::End {
            fast: false,
            resumed,
        }
    }

    /// Model of `process_exit`: reclaim every live period of `process`
    /// (release admitted demand, cancel waiters), drop its memoised
    /// decisions, then re-walk the waitlist if anything was reclaimed.
    pub fn process_exit(&mut self, process: ProcessId, now: u64) -> Effect {
        let live: Vec<u64> = self
            .periods
            .iter()
            .filter(|(_, r)| r.process == process)
            .map(|(&id, _)| id)
            .collect();
        let had_any = !live.is_empty();
        for id in live {
            let rec = self.periods.remove(&id).expect("collected above");
            if rec.admitted {
                if rec.overflow {
                    self.overflow -= rec.accounted;
                } else {
                    self.usage -= rec.accounted;
                }
            } else {
                self.waiters.retain(|w| w.pp != id);
            }
            self.stats.reclaimed += 1;
        }
        self.cache.retain(|&(p, _), _| p != process.0);
        let resumed = if had_any { self.drain(now) } else { Vec::new() };
        Effect::Woken {
            resumed,
            expired: Vec::new(),
        }
    }

    /// Model of `age_waitlist`: deadline expiry, then aging-triggered
    /// drains, then the saturation breaker. A no-op when neither aging
    /// nor overload control is configured.
    pub fn age_waitlist(&mut self, now: u64) -> Effect {
        if self.cfg.waitlist_timeout_cycles.is_none() && self.cfg.overload.is_none() {
            return Effect::Woken {
                resumed: Vec::new(),
                expired: Vec::new(),
            };
        }
        // Deadline expiry first: repeatedly remove the waiter with the
        // minimal enqueue time (first in queue order among equals) while
        // it has waited past the deadline, completing its period.
        let mut expired = Vec::new();
        if let Some(deadline) = self.cfg.overload.and_then(|o| o.deadline_cycles) {
            while let Some(pos) = self
                .waiters
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.enqueued)
                .filter(|(_, w)| now.saturating_sub(w.enqueued) >= deadline)
                .map(|(p, _)| p)
            {
                let w = self.waiters.remove(pos);
                let rec = self.periods.remove(&w.pp).expect("waiter is live");
                self.stats.expired += 1;
                expired.push((PpId(w.pp), rec.process));
            }
        }
        // No capacity was released since the last drain, so only an
        // expiry (which may have exposed a fitting entry) or an
        // aged-past-timeout waiter can admit anyone.
        let resumed = if !expired.is_empty() || self.has_expired_waiter(now) {
            self.drain(now)
        } else {
            Vec::new()
        };
        self.evaluate_breaker();
        Effect::Woken { resumed, expired }
    }

    /// Model of `note_retry`: count the client-side retry.
    pub fn note_retry(&mut self) -> Effect {
        self.stats.retried += 1;
        Effect::Retried
    }

    /// True when some waiter is past the aging timeout.
    fn has_expired_waiter(&self, now: u64) -> bool {
        let Some(timeout) = self.cfg.waitlist_timeout_cycles else {
            return false;
        };
        self.waiters
            .iter()
            .map(|w| w.enqueued)
            .min()
            .is_some_and(|oldest| now.saturating_sub(oldest) >= timeout)
    }

    /// The saturation circuit breaker, advanced once per aging tick:
    /// trip after `trip_after` consecutive ticks at or above the
    /// high-water occupancy (nominal + overflow), reset after
    /// `recover_after` consecutive ticks strictly below the low-water
    /// mark; any off-streak tick resets its counter.
    fn evaluate_breaker(&mut self) {
        let Some(b) = self.cfg.overload.and_then(|o| o.breaker) else {
            return;
        };
        let occupancy = self.usage.saturating_add(self.overflow);
        if self.breaker_open {
            if occupancy < b.low_water {
                self.breaker_below += 1;
                if self.breaker_below >= b.recover_after {
                    self.breaker_open = false;
                    self.breaker_below = 0;
                }
            } else {
                self.breaker_below = 0;
            }
        } else if occupancy >= b.high_water {
            self.breaker_above += 1;
            if self.breaker_above >= b.trip_after {
                self.breaker_open = true;
                self.breaker_above = 0;
                self.stats.breaker_trips += 1;
            }
        } else {
            self.breaker_above = 0;
        }
    }

    /// Walk the FIFO: admit nominally while the head fits, then
    /// force-admit the *oldest* expired waiter into the overflow bucket
    /// and re-walk (removing a blocker can unblock queued periods
    /// behind it).
    fn drain(&mut self, now: u64) -> Vec<(PpId, ProcessId)> {
        let capacity = self.cfg.llc_capacity;
        let limit = usage_limit(self.cfg.policy, capacity);
        let mut resumed = Vec::new();
        loop {
            while let Some(&head) = self.waiters.first() {
                let accounted = self.periods[&head.pp].accounted;
                if !runnable(self.cfg.policy, capacity, self.usage, accounted) {
                    break;
                }
                self.waiters.remove(0);
                self.usage += head.accounted;
                let rec = self.periods.get_mut(&head.pp).expect("waiter is live");
                rec.admitted = true;
                let (process, site, amount) = (rec.process, rec.site, rec.declared);
                self.cache.insert(
                    (process.0, site),
                    Cached {
                        amount,
                        threshold: limit.saturating_sub(head.accounted),
                        refreshed: now,
                    },
                );
                self.stats.resumed += 1;
                resumed.push((PpId(head.pp), process));
            }
            let Some(timeout) = self.cfg.waitlist_timeout_cycles else {
                break;
            };
            // Oldest expired waiter, by enqueue time (not queue position).
            let Some(pos) = self
                .waiters
                .iter()
                .enumerate()
                .filter(|(_, w)| now.saturating_sub(w.enqueued) >= timeout)
                .min_by_key(|(_, w)| w.enqueued)
                .map(|(p, _)| p)
            else {
                break;
            };
            let aged = self.waiters.remove(pos);
            // An overflow bucket that would wrap cannot take the aged
            // waiter either: it is shed, its period completed.
            let Some(sum) = self.overflow.checked_add(aged.accounted) else {
                self.periods.remove(&aged.pp);
                self.stats.clamped += 1;
                self.stats.shed += 1;
                continue;
            };
            self.overflow = sum;
            let rec = self.periods.get_mut(&aged.pp).expect("waiter is live");
            rec.admitted = true;
            rec.overflow = true;
            let process = rec.process;
            self.stats.aged_admissions += 1;
            resumed.push((PpId(aged.pp), process));
        }
        resumed
    }

    /// The model's observable state in the implementation's
    /// [`Snapshot`] vocabulary, for direct comparison: one node, layer
    /// 0, LLC-only vectors.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            usage: vec![[self.usage, 0, 0]],
            overflow: vec![[self.overflow, 0, 0]],
            waitlists: vec![self
                .waiters
                .iter()
                .map(|w| WaitSnap {
                    pp: PpId(w.pp),
                    accounted: Demand::llc(w.accounted),
                    enqueued_cycles: w.enqueued,
                })
                .collect()],
            periods: self
                .periods
                .iter()
                .map(|(&id, r)| PpSnap {
                    id: PpId(id),
                    process: r.process,
                    site: rda_core::SiteId(r.site),
                    layer: LayerId(0),
                    node: NodeId(0),
                    declared: Demand::llc(r.declared),
                    accounted: Demand::llc(r.accounted),
                    admitted: r.admitted,
                    overflow: r.overflow,
                })
                .collect(),
            stats: self.stats,
            allocated: self.next_id,
        }
    }

    /// Order-independent digest of the memoised decision cache, built
    /// with the same per-entry hash as
    /// [`rda_core::extension::RdaExtension::fastpath_digest`] so the two
    /// can be compared directly.
    pub fn cache_digest(&self) -> u64 {
        let mut acc = 0u64;
        for (&(process, site), c) in &self.cache {
            let mut h = Fnv1a64::new();
            h.write_u64(process as u64)
                .write_u64(site as u64)
                .write_u64(c.amount)
                .write_u64(c.threshold)
                .write_u64(c.refreshed);
            acc ^= h.finish();
        }
        acc ^ self.cache.len() as u64
    }

    /// Digest of the saturation-breaker state (open flags and
    /// hysteresis streak counters). The breaker is deliberately not
    /// part of [`Snapshot`], so the explorer folds this into its memo
    /// key — two DFS paths with identical snapshots but different
    /// breaker streaks must not share a subtree.
    pub fn breaker_digest(&self) -> u64 {
        let mut h = Fnv1a64::new();
        h.write_u64(self.breaker_open as u64)
            .write_u64(self.breaker_above as u64)
            .write_u64(self.breaker_below as u64);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_machine::MachineConfig;

    fn cfg(policy: PolicyKind) -> RdaConfig {
        RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), policy)
    }

    fn mb(v: f64) -> u64 {
        rda_core::mb(v)
    }

    #[test]
    fn strict_pauses_when_full_and_resumes_on_end() {
        let mut m = RefModel::new(cfg(PolicyKind::Strict));
        let p = ProcessId(0);
        let a = match m.pp_begin(p, 0, mb(10.0), 0) {
            Effect::Run { pp, fast: false } => pp,
            other => panic!("expected slow Run, got {other:?}"),
        };
        let b = match m.pp_begin(ProcessId(1), 1, mb(10.0), 10) {
            Effect::Pause { pp, .. } => pp,
            other => panic!("expected Pause, got {other:?}"),
        };
        match m.pp_end(a, 20) {
            Effect::End { fast: false, resumed } => {
                assert_eq!(resumed, vec![(b, ProcessId(1))]);
            }
            other => panic!("expected slow End, got {other:?}"),
        }
        let s = m.snapshot();
        assert_eq!(s.usage, vec![[mb(10.0), 0, 0]]);
        assert_eq!(s.stats.resumed, 1);
    }

    #[test]
    fn repeat_site_hits_the_fast_path() {
        let mut m = RefModel::new(cfg(PolicyKind::Strict));
        let p = ProcessId(0);
        let a = match m.pp_begin(p, 7, mb(2.0), 0) {
            Effect::Run { pp, fast: false } => pp,
            other => panic!("{other:?}"),
        };
        assert!(matches!(m.pp_end(a, 100), Effect::End { fast: true, .. }));
        assert!(matches!(
            m.pp_begin(p, 7, mb(2.0), 200),
            Effect::Run { fast: true, .. }
        ));
        assert_eq!(m.snapshot().stats.fast_begins, 1);
    }

    #[test]
    fn rejected_end_leaves_books_untouched() {
        let mut m = RefModel::new(cfg(PolicyKind::Strict));
        let before = m.snapshot().without_stats();
        assert!(matches!(
            m.pp_end(PpId(4), 0),
            Effect::Rejected(RdaError::UnknownPp(PpId(4)))
        ));
        assert_eq!(m.snapshot().without_stats(), before);
        assert_eq!(m.snapshot().stats.rejected_ends, 1);
    }

    /// Compromise admits exactly up to ⌊capacity·x⌋ — the bound the
    /// deadlock guard and the fast-path threshold use — even where
    /// `x − 1` is inexact in f64 (x = 1.2 on the Xeon LLC).
    #[test]
    fn compromise_admits_its_usage_limit_on_an_idle_cache() {
        let mut m = RefModel::new(cfg(PolicyKind::Compromise { factor: 1.2 }));
        let limit = 18_874_368; // ⌊15 728 640 · 1.2⌋
        assert!(matches!(
            m.pp_begin(ProcessId(0), 0, limit, 0),
            Effect::Run { fast: false, .. }
        ));
        assert!(matches!(
            m.pp_begin(ProcessId(1), 1, 1, 10),
            Effect::Pause { .. }
        ));
        assert_eq!(m.snapshot().stats.oversized_admits, 0);
    }

    #[test]
    fn default_only_bypasses_everything() {
        let mut m = RefModel::new(cfg(PolicyKind::DefaultOnly));
        assert_eq!(m.pp_begin(ProcessId(0), 0, mb(99.0), 0), Effect::Bypass);
        assert!(m.snapshot().is_idle());
        assert_eq!(m.snapshot().stats, RdaStats::default());
    }
}
