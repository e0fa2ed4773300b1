//! The call vocabulary both oracles share, and a reference model of the
//! scalar engine's one behaviour its topology lift lacks: the fast path.
//!
//! The scalar engine decides every call as the topology engine does on
//! `TopoConfig::compat` (DESIGN.md §9), so the scalar oracle
//! ([`crate::diff::Oracle`]) checks it against the one topology model,
//! [`crate::topo_model::TopoRefModel`], on each call. What the
//! lift cannot see is the memo of recent admission decisions that marks
//! calls fast. [`FastPathModel`] restates that memo from DESIGN.md §9,
//! sharing no code with `rda_core::FastPathCache`, and turns each of the
//! model's effects into the scalar engine's, reading a begin's demand
//! through its LLC component as the engine does:
//!
//! * a **lookup** runs for a begin that passed the audit, the breaker
//!   and the wrap guard while nothing was queued; it hits on a fresh
//!   entry for the same audited amount whose threshold the usage still
//!   meets, and refreshes it, or evicts an entry for another amount;
//! * an entry is **stored** on a nominal slow admission and on a
//!   nominal resume from the drain;
//! * `pp_end` with nothing queued reads the entry's **freshness**;
//! * `process_exit` **invalidates** the process's entries.
//!
//! A hit only marks the call fast: Algorithm 1 admits either way.

use crate::topo_model::usage_limit;
use rda_core::registry::PpRecord;
use rda_core::{
    AgeOutcome, BeginOutcome, DemandAudit, EndOutcome, PpId, RdaConfig, RdaError, ResourceKind,
    Snapshot,
};
use rda_sched::ProcessId;
use rda_sim::TopoCall;
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
        /// Under [`rda_core::ShedPolicy::RejectOldest`] at the waitlist
        /// cap, the longest-queued waiter evicted to make room.
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

/// One memoised admission decision for a (process, site) pair.
#[derive(Debug, Clone, Copy)]
struct Memo {
    /// The audited amount the decision was made for.
    amount: u64,
    /// A repeat hits while the LLC usage is at most this.
    threshold: u64,
    /// When the decision was made or last refreshed.
    refreshed: u64,
}

/// The scalar engine's fast path, modelled beside the topology model.
/// Construct with the scalar configuration and feed it every call
/// through [`Self::mark`].
#[derive(Debug, Clone)]
pub struct FastPathModel {
    /// An entry older than this many cycles is stale.
    interval: u64,
    /// The policy's usage limit on the LLC.
    limit: u64,
    /// The LLC capacity the audit judges a demand against.
    capacity: u64,
    audit: DemandAudit,
    memo: BTreeMap<(u32, u32), Memo>,
    fast_begins: u64,
    fast_ends: u64,
}

/// The live period `pp` of a snapshot (periods are in id order).
fn period(snap: &Snapshot, pp: PpId) -> Option<&PpRecord> {
    let i = snap.periods.binary_search_by_key(&pp, |p| p.id).ok()?;
    Some(&snap.periods[i])
}

/// The LLC component of a demand vector.
fn llc(amounts: [u64; 3]) -> u64 {
    amounts[ResourceKind::Llc.index()]
}

impl FastPathModel {
    /// An empty memo under the scalar configuration `cfg`.
    pub fn new(cfg: &RdaConfig) -> Self {
        FastPathModel {
            interval: cfg.min_eval_interval_cycles,
            limit: usage_limit(cfg.policy, cfg.llc_capacity),
            capacity: cfg.llc_capacity,
            audit: cfg.demand_audit,
            memo: BTreeMap::new(),
            fast_begins: 0,
            fast_ends: 0,
        }
    }

    /// Turn the model's `effect` of `call` and its snapshot `after` the
    /// call into the scalar engine's, given the model's snapshot
    /// `before` it: a memo hit marks a begin fast, a fresh entry marks
    /// an end with nothing queued fast, and `after` gains the fast-path
    /// counters. Updates the memo as the engine does.
    pub fn mark(
        &mut self,
        call: &TopoCall,
        effect: Effect,
        before: &Snapshot,
        after: &mut Snapshot,
    ) -> Effect {
        let idle = before.waitlists[0].is_empty();
        let effect = match (*call, effect) {
            (
                TopoCall::Begin {
                    now,
                    process,
                    site,
                    demand,
                },
                effect,
            ) => {
                let (key, amount, t) = ((process.0, site.0), llc(demand.amounts), now.cycles());
                let hit = idle
                    && self.reaches_lookup(&effect, amount, before)
                    && self.lookup(key, amount, llc(before.usage[0]), t);
                match effect {
                    Effect::Run { pp, .. } if hit => {
                        self.fast_begins += 1;
                        Effect::Run { pp, fast: true }
                    }
                    Effect::Run { pp, fast } => {
                        self.store(after, pp, t);
                        Effect::Run { pp, fast }
                    }
                    other => other,
                }
            }
            (TopoCall::End { now, pp }, Effect::End { resumed, .. }) if idle => {
                let fast = period(before, pp).is_some_and(|p| {
                    let key = (p.process.0, p.site.0);
                    self.memo
                        .get(&key)
                        .is_some_and(|&m| self.fresh(m, now.cycles()))
                });
                self.fast_ends += u64::from(fast);
                Effect::End { fast, resumed }
            }
            (TopoCall::Exit { now, process }, effect) => {
                self.memo.retain(|&(p, _), _| p != process.0);
                self.store_resumed(after, &effect, now.cycles());
                effect
            }
            (TopoCall::End { now, .. } | TopoCall::Age { now }, effect) => {
                self.store_resumed(after, &effect, now.cycles());
                effect
            }
            (TopoCall::Retry { .. }, effect) => effect,
        };
        after.stats.fast_begins = self.fast_begins;
        after.stats.fast_ends = self.fast_ends;
        effect
    }

    /// Whether a begin of `amount` got past the audit, the breaker and
    /// the wrap guard, judged from the model's `effect`. Three
    /// checks refuse with `DemandOverflow`: the audit, which refuses
    /// only a demand above capacity under `audit reject`; the wrap
    /// guard, which names an amount the nominal book cannot take; and,
    /// after the lookup, a degraded admission whose overflow bucket
    /// would wrap, which names one it can.
    fn reaches_lookup(&self, effect: &Effect, amount: u64, before: &Snapshot) -> bool {
        match *effect {
            Effect::Bypass | Effect::Rejected(RdaError::BreakerOpen { .. }) => false,
            Effect::Rejected(RdaError::DemandOverflow { declared, .. }) => {
                let refused = self.audit == DemandAudit::Reject && amount > self.capacity;
                !refused && llc(before.usage[0]).checked_add(declared).is_some()
            }
            _ => true,
        }
    }

    /// The lookup of a begin declaring `amount` at LLC `usage`.
    fn lookup(&mut self, key: (u32, u32), amount: u64, usage: u64, now: u64) -> bool {
        // The memo keys on the audited amount; `audit clamp` cuts a
        // declaration down to capacity.
        let audited = match self.audit {
            DemandAudit::Clamp => amount.min(self.capacity),
            _ => amount,
        };
        let Some(mut m) = self.memo.get(&key).copied() else {
            return false;
        };
        if m.amount != audited {
            self.memo.remove(&key);
            return false;
        }
        let hit = self.fresh(m, now) && usage <= m.threshold;
        if hit {
            m.refreshed = now;
            self.memo.insert(key, m);
        }
        hit
    }

    /// Whether `m` was made or refreshed within the interval.
    fn fresh(&self, m: Memo, now: u64) -> bool {
        now.saturating_sub(m.refreshed) < self.interval
    }

    /// Store the decision that admitted `pp`, unless it went to the
    /// overflow bucket (a degraded or aged admission).
    fn store(&mut self, after: &Snapshot, pp: PpId, now: u64) {
        let Some(p) = period(after, pp).filter(|p| !p.overflow) else {
            return;
        };
        let memo = Memo {
            amount: llc(p.declared.amounts),
            threshold: self.limit.saturating_sub(llc(p.accounted.amounts)),
            refreshed: now,
        };
        self.memo.insert((p.process.0, p.site.0), memo);
    }

    /// Store the decision of every waiter `effect` resumed, in order.
    fn store_resumed(&mut self, after: &Snapshot, effect: &Effect, now: u64) {
        if let Effect::End { resumed, .. } | Effect::Woken { resumed, .. } = effect {
            for &(pp, _) in resumed {
                self.store(after, pp, now);
            }
        }
    }

    /// Order-independent digest of the memo, with the same per-entry
    /// hash as [`rda_core::RdaExtension::fastpath_digest`], so the two
    /// compare directly.
    pub fn digest(&self) -> u64 {
        let mut acc = 0u64;
        for (&(process, site), m) in &self.memo {
            let mut h = Fnv1a64::new();
            h.write_u64(process as u64)
                .write_u64(site as u64)
                .write_u64(m.amount)
                .write_u64(m.threshold)
                .write_u64(m.refreshed);
            acc ^= h.finish();
        }
        acc ^ self.memo.len() as u64
    }
}
