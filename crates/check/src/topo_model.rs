//! A pure-functional reference model of the topology engine.
//!
//! An *executable specification* of [`rda_core::TopoExtension`] — demand
//! vectors, deterministic least-occupied placement, layered policies
//! with capacity guarantees, per-node waitlists/aging/overload — written
//! from DESIGN.md §9 and **deliberately sharing no logic with the
//! implementation**. Where the engine keeps incremental per-node and
//! per-layer books, this model *recomputes every quantity by summation
//! over the live periods* on every call: usage, overflow, layer usage,
//! and guarantee reservations are all derived, never cached. A missed
//! or double release in the implementation's incremental accounting
//! therefore cannot be mirrored here — it surfaces as a snapshot
//! divergence on the very next event.
//!
//! It is the one reference model of both engines: the topology oracle
//! ([`crate::topo_diff`]) checks `TopoExtension` against it, and the
//! scalar oracle ([`crate::diff`]) checks `rda_core::RdaExtension`
//! against it on the engine's lift onto `TopoConfig::compat`, plus the
//! fast-path model of [`crate::model`].
//!
//! The model also carries a [`TopoMutation`] knob: a deliberately
//! injected predicate off-by-one (`>=` weakened to `>`) used by the
//! bounded explorer's self-test to prove the oracle *would* catch such
//! a bug (see the explorer's `topo_mutated_model_is_caught_by_the_space`).
//! Production checks run with [`TopoMutation::None`].

#![allow(clippy::needless_range_loop)] // node/layer loops index several recomputed books at once

use crate::model::Effect;
use rda_core::registry::PpRecord;
use rda_core::{
    Demand, DemandAudit, LayerId, NodeId, PolicyKind, PpId, RdaError, RdaStats, ResourceKind,
    ShedPolicy, Snapshot, TopoConfig, WaitSnap, KIND_COUNT,
};
use rda_sched::ProcessId;
use rda_sim::TopoCall;
use rda_simcore::Fnv1a64;
use std::collections::BTreeMap;

/// A deliberately injected model bug, for oracle self-tests.
///
/// The satellite methodology of ISSUE 8: inject a classic predicate
/// off-by-one, watch the bounded explorer produce a counterexample,
/// and keep that as a permanent regression test of the *checker's*
/// sensitivity. [`TopoMutation::None`] is the production setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopoMutation {
    /// No mutation: the faithful model.
    #[default]
    None,
    /// Weaken the admission predicate's `usage + demand <= limit` to a
    /// strict `<` — exact-fit admissions are wrongly refused.
    StrictOffByOne,
}

/// A live period as the model tracks it. `declared` holds the
/// *audited* vector — what the implementation registers after the
/// demand audit — since that is what [`Snapshot`] exposes.
#[derive(Debug, Clone, Copy)]
struct MPeriod {
    process: ProcessId,
    site: u32,
    layer: u32,
    node: usize,
    declared: Demand,
    accounted: Demand,
    admitted: bool,
    overflow: bool,
    begun: u64,
}

/// The topology reference model. Construct with the same
/// [`TopoConfig`] as the implementation under test and drive both with
/// identical calls.
#[derive(Debug, Clone)]
pub struct TopoRefModel {
    cfg: TopoConfig,
    mutation: TopoMutation,
    next_id: u64,
    periods: BTreeMap<u64, MPeriod>,
    /// Per-node FIFO of waitlisted period ids (everything else about a
    /// waiter is derived from its period record).
    waitlists: Vec<Vec<u64>>,
    stats: RdaStats,
    breaker_open: Vec<[bool; KIND_COUNT]>,
    breaker_above: Vec<[u32; KIND_COUNT]>,
    breaker_below: Vec<[u32; KIND_COUNT]>,
}

/// The usage ceiling a policy enforces on a resource of `capacity`
/// (restated flat, independent of `PolicyKind::usage_limit`).
pub(crate) fn usage_limit(policy: PolicyKind, capacity: u64) -> u64 {
    match policy {
        PolicyKind::DefaultOnly => u64::MAX,
        PolicyKind::Strict | PolicyKind::Partitioned { .. } => capacity,
        PolicyKind::Compromise { factor } => (capacity as f64 * factor) as u64,
    }
}

/// The amount actually accounted for a component declaring `demand`.
fn effective(policy: PolicyKind, demand: u64, capacity: u64) -> u64 {
    match policy {
        PolicyKind::Partitioned { quota_frac } => demand.min((capacity as f64 * quota_frac) as u64),
        _ => demand,
    }
}

impl TopoRefModel {
    /// A fresh, faithful model with the given configuration.
    pub fn new(cfg: TopoConfig) -> Self {
        Self::with_mutation(cfg, TopoMutation::None)
    }

    /// A model with a deliberately injected bug (oracle self-tests).
    pub fn with_mutation(cfg: TopoConfig, mutation: TopoMutation) -> Self {
        let nodes = cfg.spec.node_count();
        TopoRefModel {
            mutation,
            next_id: 0,
            periods: BTreeMap::new(),
            waitlists: vec![Vec::new(); nodes],
            stats: RdaStats::default(),
            breaker_open: vec![[false; KIND_COUNT]; nodes],
            breaker_above: vec![[0; KIND_COUNT]; nodes],
            breaker_below: vec![[0; KIND_COUNT]; nodes],
            cfg,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &TopoConfig {
        &self.cfg
    }

    /// The active mutation knob.
    pub fn mutation(&self) -> TopoMutation {
        self.mutation
    }

    fn nodes(&self) -> usize {
        self.cfg.spec.node_count()
    }

    fn cap(&self, n: usize, k: ResourceKind) -> u64 {
        self.cfg.spec.caps[n][k.index()]
    }

    /// Nominal usage of a kind on a node, recomputed by summation.
    fn usage_of(&self, n: usize, k: ResourceKind) -> u64 {
        self.periods
            .values()
            .filter(|p| p.node == n && p.admitted && !p.overflow)
            .map(|p| p.accounted.get(k))
            .sum()
    }

    /// Overflow-bucket usage of a kind on a node, by summation.
    fn overflow_of(&self, n: usize, k: ResourceKind) -> u64 {
        self.periods
            .values()
            .filter(|p| p.node == n && p.admitted && p.overflow)
            .map(|p| p.accounted.get(k))
            .sum()
    }

    /// Nominal usage one layer holds of a kind on a node, by summation.
    fn layer_usage_of(&self, layer: u32, n: usize, k: ResourceKind) -> u64 {
        self.periods
            .values()
            .filter(|p| p.node == n && p.layer == layer && p.admitted && !p.overflow)
            .map(|p| p.accounted.get(k))
            .sum()
    }

    /// Capacity other layers' unconsumed guarantees reserve away from
    /// `layer` for kind `k` on node `n` (the formula of DESIGN.md §9,
    /// with the per-layer draw-down recomputed from the live periods).
    fn reserved_by_others(&self, n: usize, k: ResourceKind, layer: u32) -> u64 {
        let mut reserved = 0u64;
        for (li, spec) in self.cfg.layers.layers.iter().enumerate() {
            if li as u32 == layer {
                continue;
            }
            if let Some(g) = spec.guarantee {
                let unused = g
                    .get(k)
                    .saturating_sub(self.layer_usage_of(li as u32, n, k));
                reserved = reserved.saturating_add(unused);
            }
        }
        reserved
    }

    /// The vector accounted on node `n` for an audited demand under
    /// `policy` (Partitioned clamps each component to its quota).
    fn accounted_on(&self, n: usize, audited: &Demand, policy: PolicyKind) -> Demand {
        let mut acc = Demand::ZERO;
        for k in ResourceKind::ALL {
            acc = acc.with(k, effective(policy, audited.get(k), self.cap(n, k)));
        }
        acc
    }

    /// Whether node `n` can admit `acc` nominally for `layer` — every
    /// demanded component must fit below the policy limit net of
    /// guarantee reservations. `Err(kind)` flags a 64-bit book wrap on
    /// any component, checked before any fit; zero components and
    /// components above the limit are skipped (deadlock guard). The
    /// [`TopoMutation::StrictOffByOne`] knob tightens `<=` to `<` here.
    fn fits(&self, n: usize, layer: u32, acc: &Demand) -> Result<bool, ResourceKind> {
        if let Some(k) = acc
            .touched()
            .find(|&k| self.usage_of(n, k).checked_add(acc.get(k)).is_none())
        {
            return Err(k);
        }
        let policy = self.cfg.layers.spec(LayerId(layer)).policy;
        for k in acc.touched() {
            let a = acc.get(k);
            let used = self.usage_of(n, k);
            let lim = usage_limit(policy, self.cap(n, k));
            if a > lim {
                continue;
            }
            let limit = lim.saturating_sub(self.reserved_by_others(n, k, layer));
            let ok = match self.mutation {
                TopoMutation::None => used + a <= limit,
                TopoMutation::StrictOffByOne => used + a < limit,
            };
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The first kind whose overflow bucket on node `n` would wrap if
    /// `acc` were added to it.
    fn overflow_wrap(&self, n: usize, acc: &Demand) -> Option<ResourceKind> {
        acc.touched()
            .find(|&k| self.overflow_of(n, k).checked_add(acc.get(k)).is_none())
    }

    /// Placement score: the worst relative occupancy over the demanded
    /// kinds, scaled `2^32 / capacity`. Lower is better.
    fn score(&self, n: usize, demand: &Demand) -> u128 {
        let mut score = 0u128;
        for k in demand.touched() {
            let cap = self.cap(n, k);
            if cap == 0 {
                continue;
            }
            let occ = self.usage_of(n, k) as u128 + self.overflow_of(n, k) as u128;
            score = score.max((occ << 32) / cap as u128);
        }
        score
    }

    #[allow(clippy::too_many_arguments)]
    fn alloc(
        &mut self,
        process: ProcessId,
        site: u32,
        layer: u32,
        node: usize,
        declared: Demand,
        accounted: Demand,
        admitted: bool,
        overflow: bool,
        now: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.periods.insert(
            id,
            MPeriod {
                process,
                site,
                layer,
                node,
                declared,
                accounted,
                admitted,
                overflow,
                begun: now,
            },
        );
        id
    }

    /// Model of `pp_begin` with a demand vector.
    pub fn pp_begin(&mut self, process: ProcessId, site: u32, demand: Demand, now: u64) -> Effect {
        let layer = self.cfg.layers.layer_of(process.0).0;
        let policy = self.cfg.layers.spec(LayerId(layer)).policy;
        if matches!(policy, PolicyKind::DefaultOnly) {
            return Effect::Bypass;
        }
        self.stats.begins += 1;

        // Per-component demand audit against the machine-wide maximum
        // capacity of each kind.
        let mut audited = demand;
        let mut clamped = false;
        for k in ResourceKind::ALL {
            let a = demand.get(k);
            let capmax = self.cfg.spec.max_capacity(k);
            if a <= capmax {
                continue;
            }
            match self.cfg.demand_audit {
                DemandAudit::Trust => {}
                DemandAudit::Clamp => {
                    audited = audited.with(k, capmax);
                    clamped = true;
                }
                DemandAudit::Reject => {
                    self.stats.clamped += 1;
                    return Effect::Rejected(RdaError::DemandOverflow {
                        kind: k,
                        declared: a,
                        capacity: capmax,
                    });
                }
            }
        }
        if clamped {
            self.stats.clamped += 1;
        }

        // Open breakers exclude nodes; all nodes blocked sheds outright.
        let nodes = self.nodes();
        let mut eligible = vec![true; nodes];
        if let Some(b) = self.cfg.overload.and_then(|o| o.breaker) {
            let mut first_block = None;
            for n in 0..nodes {
                for k in ResourceKind::ALL {
                    if self.breaker_open[n][k.index()] && audited.get(k) >= b.shed_min_demand {
                        eligible[n] = false;
                        if first_block.is_none() {
                            first_block = Some((NodeId(n as u32), k));
                        }
                    }
                }
            }
            if eligible.iter().all(|&e| !e) {
                let (node, kind) = first_block.expect("a blocker exists");
                self.stats.shed += 1;
                return Effect::Rejected(RdaError::BreakerOpen { node, kind });
            }
        }

        // Placement: least-occupied feasible node, ties to the lowest
        // node id; wrapping nodes are disqualified.
        let mut best: Option<(u128, usize)> = None;
        let mut all_wrap = true;
        let mut wrap_kind = None;
        for n in 0..nodes {
            if !eligible[n] {
                continue;
            }
            let acc = self.accounted_on(n, &audited, policy);
            match self.fits(n, layer, &acc) {
                Err(k) => {
                    if wrap_kind.is_none() {
                        wrap_kind = Some(k);
                    }
                }
                Ok(feasible) => {
                    all_wrap = false;
                    if feasible {
                        let score = self.score(n, &audited);
                        if best.is_none_or(|(s, _)| score < s) {
                            best = Some((score, n));
                        }
                    }
                }
            }
        }
        if all_wrap {
            let k = wrap_kind.expect("an eligible node exists");
            self.stats.clamped += 1;
            return Effect::Rejected(RdaError::DemandOverflow {
                kind: k,
                declared: audited.get(k),
                capacity: self.cfg.spec.max_capacity(k),
            });
        }

        if let Some((_, n)) = best {
            let acc = self.accounted_on(n, &audited, policy);
            if acc
                .touched()
                .any(|k| acc.get(k) > usage_limit(policy, self.cap(n, k)))
            {
                self.stats.oversized_admits += 1;
            }
            let pp = self.alloc(process, site, layer, n, audited, acc, true, false, now);
            self.stats.admitted += 1;
            return Effect::Run {
                pp: PpId(pp),
                fast: false,
            };
        }

        // No node fits: pin to the least-occupied eligible node's
        // waitlist, behind that node's overload gate.
        let target = (0..nodes)
            .filter(|&n| eligible[n])
            .min_by_key(|&n| (self.score(n, &audited), n))
            .expect("at least one eligible node");
        let acc = self.accounted_on(target, &audited, policy);
        let mut shed = None;
        if let Some(ov) = self.cfg.overload {
            if self.waitlists[target].len() >= ov.waitlist_cap {
                match ov.shed_policy {
                    ShedPolicy::RejectOldest if !self.waitlists[target].is_empty() => {
                        let victim = self.waitlists[target].remove(0);
                        self.periods.remove(&victim);
                        self.stats.shed += 1;
                        shed = Some(PpId(victim));
                    }
                    ShedPolicy::DegradeToOverflow => {
                        // A degrade that would wrap the node's overflow
                        // bucket is refused like any wrapping demand.
                        if let Some(k) = self.overflow_wrap(target, &acc) {
                            self.stats.clamped += 1;
                            return Effect::Rejected(RdaError::DemandOverflow {
                                kind: k,
                                declared: acc.get(k),
                                capacity: self.cfg.spec.max_capacity(k),
                            });
                        }
                        let pp =
                            self.alloc(process, site, layer, target, audited, acc, true, true, now);
                        self.stats.shed += 1;
                        return Effect::Run {
                            pp: PpId(pp),
                            fast: false,
                        };
                    }
                    _ => {
                        self.stats.shed += 1;
                        return Effect::Rejected(RdaError::WaitlistFull {
                            node: NodeId(target as u32),
                        });
                    }
                }
            }
        }
        let pp = self.alloc(
            process, site, layer, target, audited, acc, false, false, now,
        );
        self.waitlists[target].push(pp);
        self.stats.paused += 1;
        self.stats.max_waitlist = self
            .stats
            .max_waitlist
            .max(self.waitlists[target].len() as u64);
        Effect::Pause { pp: PpId(pp), shed }
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
        let resumed = self.drain(rec.node, now);
        Effect::End {
            fast: false,
            resumed,
        }
    }

    /// Model of `process_exit`: reclaim every live period of the
    /// process, then drain every touched node (node-granular — a
    /// reclaimed vector can unblock waiters on any of its components).
    pub fn process_exit(&mut self, process: ProcessId, now: u64) -> Effect {
        let live: Vec<u64> = self
            .periods
            .iter()
            .filter(|(_, r)| r.process == process)
            .map(|(&id, _)| id)
            .collect();
        let had_any = !live.is_empty();
        let mut touched = vec![false; self.nodes()];
        for id in live {
            let rec = self.periods.remove(&id).expect("collected above");
            touched[rec.node] = true;
            if !rec.admitted {
                self.waitlists[rec.node].retain(|&w| w != id);
            }
            self.stats.reclaimed += 1;
        }
        if !had_any {
            return Effect::Woken {
                resumed: Vec::new(),
                expired: Vec::new(),
            };
        }
        let mut resumed = Vec::new();
        for n in 0..self.nodes() {
            if touched[n] || self.has_expired_waiter(n, now) {
                resumed.extend(self.drain(n, now));
            }
        }
        Effect::Woken {
            resumed,
            expired: Vec::new(),
        }
    }

    /// Model of `age_waitlist`: per-node deadline expiry, then
    /// aging-triggered drains, then the per-node breakers.
    pub fn age_waitlist(&mut self, now: u64) -> Effect {
        if self.cfg.waitlist_timeout_cycles.is_none() && self.cfg.overload.is_none() {
            return Effect::Woken {
                resumed: Vec::new(),
                expired: Vec::new(),
            };
        }
        let mut expired = Vec::new();
        let mut expired_touched = vec![false; self.nodes()];
        if let Some(deadline) = self.cfg.overload.and_then(|o| o.deadline_cycles) {
            for n in 0..self.nodes() {
                while let Some(pos) = self.oldest_expired(n, now, deadline) {
                    let pp = self.waitlists[n].remove(pos);
                    let rec = self.periods.remove(&pp).expect("waiter is live");
                    self.stats.expired += 1;
                    expired_touched[n] = true;
                    expired.push((PpId(pp), rec.process));
                }
            }
        }
        let mut resumed = Vec::new();
        for n in 0..self.nodes() {
            if expired_touched[n] || self.has_expired_waiter(n, now) {
                resumed.extend(self.drain(n, now));
            }
        }
        self.evaluate_breaker();
        Effect::Woken { resumed, expired }
    }

    /// Model of `note_retry`.
    pub fn note_retry(&mut self) -> Effect {
        self.stats.retried += 1;
        Effect::Retried
    }

    /// Apply one replayed call: the model's side of both oracles.
    pub fn apply(&mut self, call: &TopoCall) -> Effect {
        match *call {
            TopoCall::Begin {
                now,
                process,
                site,
                demand,
            } => self.pp_begin(process, site.0, demand, now.cycles()),
            TopoCall::End { now, pp } => self.pp_end(pp, now.cycles()),
            TopoCall::Exit { now, process } => self.process_exit(process, now.cycles()),
            TopoCall::Age { now } => self.age_waitlist(now.cycles()),
            TopoCall::Retry { .. } => self.note_retry(),
        }
    }

    /// True when node `n` holds a waiter past the aging timeout.
    fn has_expired_waiter(&self, n: usize, now: u64) -> bool {
        self.cfg
            .waitlist_timeout_cycles
            .is_some_and(|timeout| self.oldest_expired(n, now, timeout).is_some())
    }

    /// Queue position of node `n`'s oldest waiter — earliest begin
    /// time, first in queue order among equals — when it has waited
    /// `timeout` cycles or longer by `now`. Aging and deadlines take
    /// waiters oldest-first by this rule, whatever their queue
    /// position (a caller's clock may step backward).
    fn oldest_expired(&self, n: usize, now: u64, timeout: u64) -> Option<usize> {
        self.waitlists[n]
            .iter()
            .enumerate()
            .min_by_key(|(_, pp)| self.periods[pp].begun)
            .filter(|(_, pp)| now.saturating_sub(self.periods[pp].begun) >= timeout)
            .map(|(pos, _)| pos)
    }

    /// Per-node, per-kind breaker hysteresis over summed occupancy. An
    /// idle book never counts toward tripping: on the compat lift the
    /// memory-bandwidth and DRAM books stay 0, and a high-water mark of
    /// 0 must not trip their breakers.
    fn evaluate_breaker(&mut self) {
        let Some(b) = self.cfg.overload.and_then(|o| o.breaker) else {
            return;
        };
        for n in 0..self.nodes() {
            for k in ResourceKind::ALL {
                let i = k.index();
                let occupancy = self.usage_of(n, k).saturating_add(self.overflow_of(n, k));
                if self.breaker_open[n][i] {
                    if occupancy < b.low_water {
                        self.breaker_below[n][i] += 1;
                        if self.breaker_below[n][i] >= b.recover_after {
                            self.breaker_open[n][i] = false;
                            self.breaker_below[n][i] = 0;
                        }
                    } else {
                        self.breaker_below[n][i] = 0;
                    }
                } else if occupancy > 0 && occupancy >= b.high_water {
                    self.breaker_above[n][i] += 1;
                    if self.breaker_above[n][i] >= b.trip_after {
                        self.breaker_open[n][i] = true;
                        self.breaker_above[n][i] = 0;
                        self.stats.breaker_trips += 1;
                    }
                } else {
                    self.breaker_above[n][i] = 0;
                }
            }
        }
    }

    /// Whether the modelled breaker is open for a kind on a node —
    /// compared against the implementation by the oracle (breaker state
    /// is deliberately not part of the snapshot).
    pub fn breaker_is_open(&self, node: NodeId, k: ResourceKind) -> bool {
        self.breaker_open[node.0 as usize][k.index()]
    }

    /// Walk one node's FIFO: admit while the head fits (every demanded
    /// component re-checked), then force-admit the oldest timed-out
    /// waiter into the overflow bucket and re-walk.
    fn drain(&mut self, n: usize, now: u64) -> Vec<(PpId, ProcessId)> {
        let mut resumed = Vec::new();
        loop {
            while let Some(&head) = self.waitlists[n].first() {
                let (layer, acc) = {
                    let rec = &self.periods[&head];
                    (rec.layer, rec.accounted)
                };
                if !matches!(self.fits(n, layer, &acc), Ok(true)) {
                    break;
                }
                self.waitlists[n].remove(0);
                let rec = self.periods.get_mut(&head).expect("waiter is live");
                rec.admitted = true;
                let process = rec.process;
                self.stats.resumed += 1;
                resumed.push((PpId(head), process));
            }
            let Some(timeout) = self.cfg.waitlist_timeout_cycles else {
                break;
            };
            let Some(pos) = self.oldest_expired(n, now, timeout) else {
                break;
            };
            let aged = self.waitlists[n].remove(pos);
            // A waiter that can neither run nominally nor degrade
            // without wrapping the overflow bucket is shed.
            if self
                .overflow_wrap(n, &self.periods[&aged].accounted)
                .is_some()
            {
                self.periods.remove(&aged);
                self.stats.clamped += 1;
                self.stats.shed += 1;
                continue;
            }
            let rec = self.periods.get_mut(&aged).expect("waiter is live");
            rec.admitted = true;
            rec.overflow = true;
            let process = rec.process;
            self.stats.aged_admissions += 1;
            resumed.push((PpId(aged), process));
        }
        resumed
    }

    /// The model's observable state in the implementation's
    /// [`Snapshot`] vocabulary, for direct comparison. The books
    /// are recomputed by summation here — the whole point of the model.
    pub fn snapshot(&self) -> Snapshot {
        let nodes = self.nodes();
        let mut usage = vec![[0u64; KIND_COUNT]; nodes];
        let mut overflow = vec![[0u64; KIND_COUNT]; nodes];
        for n in 0..nodes {
            for k in ResourceKind::ALL {
                usage[n][k.index()] = self.usage_of(n, k);
                overflow[n][k.index()] = self.overflow_of(n, k);
            }
        }
        Snapshot {
            usage,
            overflow,
            waitlists: self
                .waitlists
                .iter()
                .map(|q| {
                    q.iter()
                        .map(|pp| {
                            let rec = &self.periods[pp];
                            WaitSnap {
                                pp: PpId(*pp),
                                accounted: rec.accounted,
                                enqueued_cycles: rec.begun,
                            }
                        })
                        .collect()
                })
                .collect(),
            periods: self
                .periods
                .iter()
                .map(|(&id, r)| PpRecord {
                    id: PpId(id),
                    process: r.process,
                    site: rda_core::SiteId(r.site),
                    layer: LayerId(r.layer),
                    node: NodeId(r.node as u32),
                    declared: r.declared,
                    accounted: r.accounted,
                    admitted: r.admitted,
                    overflow: r.overflow,
                })
                .collect(),
            stats: self.stats,
            allocated: self.next_id,
        }
    }

    /// Digest of the per-node breaker state (open flags and hysteresis
    /// streaks) — folded into the explorer's memo key, since breaker
    /// state is not part of [`Snapshot`].
    pub fn breaker_digest(&self) -> u64 {
        let mut h = Fnv1a64::new();
        for n in 0..self.nodes() {
            for i in 0..KIND_COUNT {
                h.write_u64(self.breaker_open[n][i] as u64)
                    .write_u64(self.breaker_above[n][i] as u64)
                    .write_u64(self.breaker_below[n][i] as u64);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{LayerSet, LayerSpec, TopoSpec};

    fn two_node_cfg() -> TopoConfig {
        TopoConfig::new(
            TopoSpec::uniform(2, 100, 50, 1000),
            LayerSet::single(PolicyKind::Strict),
        )
    }

    #[test]
    fn placement_and_vector_gating_mirror_the_engine() {
        let mut m = TopoRefModel::new(two_node_cfg());
        let a = m.pp_begin(ProcessId(0), 0, Demand::llc(60), 0);
        assert!(matches!(a, Effect::Run { .. }));
        let b = m.pp_begin(ProcessId(1), 1, Demand::llc(60), 1);
        assert!(matches!(b, Effect::Run { .. }));
        // Both nodes at 60/100; a third 60 must wait.
        let c = m.pp_begin(ProcessId(2), 2, Demand::llc(60), 2);
        assert!(matches!(c, Effect::Pause { .. }));
        let s = m.snapshot();
        assert_eq!(s.usage[0][0], 60);
        assert_eq!(s.usage[1][0], 60);
        assert_eq!(s.waitlists.iter().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    fn exit_drains_all_components_on_the_node() {
        let mut m = TopoRefModel::new(two_node_cfg());
        // Fill both nodes' membw so the waiter below has one target.
        m.pp_begin(ProcessId(0), 0, Demand::new(90, 45, 0), 0);
        m.pp_begin(ProcessId(1), 1, Demand::new(90, 45, 0), 1);
        let w = m.pp_begin(ProcessId(2), 2, Demand::new(0, 10, 0), 2);
        let Effect::Pause { pp, .. } = w else {
            panic!("expected Pause, got {w:?}");
        };
        // The holder's exit frees llc AND membw; the membw-only waiter
        // must resume even though its own vector never mentions llc.
        let eff = m.process_exit(ProcessId(0), 3);
        let Effect::Woken { resumed, .. } = eff else {
            panic!("expected Woken");
        };
        assert_eq!(resumed, vec![(pp, ProcessId(2))]);
    }

    #[test]
    fn mutation_refuses_exact_fits() {
        let cfg = TopoConfig::new(
            TopoSpec::single(100, 50, 1000),
            LayerSet::single(PolicyKind::Strict),
        );
        let mut honest = TopoRefModel::new(cfg.clone());
        let mut mutated = TopoRefModel::with_mutation(cfg, TopoMutation::StrictOffByOne);
        assert!(matches!(
            honest.pp_begin(ProcessId(0), 0, Demand::llc(100), 0),
            Effect::Run { .. }
        ));
        assert!(matches!(
            mutated.pp_begin(ProcessId(0), 0, Demand::llc(100), 0),
            Effect::Pause { .. }
        ));
    }

    #[test]
    fn guarantee_reservation_is_recomputed_from_periods() {
        let layers = LayerSet::new(vec![
            LayerSpec::new("batch", PolicyKind::Strict),
            LayerSpec::new("latency", PolicyKind::Strict).with_guarantee(Demand::llc(40)),
        ])
        .with_assignment(9, LayerId(1));
        let mut m = TopoRefModel::new(TopoConfig::new(TopoSpec::single(100, 50, 1000), layers));
        // Batch can only use 100 - 40 = 60 while the guarantee is idle.
        assert!(matches!(
            m.pp_begin(ProcessId(0), 0, Demand::llc(61), 0),
            Effect::Pause { .. }
        ));
        // The guaranteed layer draws its slice down ...
        assert!(matches!(
            m.pp_begin(ProcessId(9), 1, Demand::llc(30), 1),
            Effect::Run { .. }
        ));
        // ... leaving 100 - 30(used) - 10(still reserved) = 60 for batch.
        assert!(matches!(
            m.pp_begin(ProcessId(1), 2, Demand::llc(60), 2),
            Effect::Run { .. }
        ));
    }
}
