//! The topology-aware scheduling extension: demand *vectors* placed
//! onto NUMA *nodes* under *layered* policies.
//!
//! [`TopoExtension`] generalizes the scalar [`crate::RdaExtension`]
//! along three axes (DESIGN.md §9):
//!
//! * **Resources** — a period demands a [`Demand`] vector (LLC,
//!   memory bandwidth, DRAM capacity) instead of one scalar amount;
//!   the admission predicate must hold for *every* demanded component.
//! * **Nodes** — the machine is a [`TopoSpec`] of NUMA nodes, each
//!   with its own capacity table. Admission includes a *placement*
//!   step: among the feasible nodes, the least-occupied one wins
//!   (ties break to the lowest node id — fully deterministic).
//! * **Layers** — processes belong to [`crate::layer::LayerSet`]
//!   layers, each with its own [`PolicyKind`] and an optional per-node
//!   capacity guarantee that other layers' admissions cannot consume
//!   (see the formula in [`crate::layer`]).
//!
//! # Compatibility with the scalar engine
//!
//! On a 1-node topology with a trivial single layer and an LLC-only
//! demand stream, every rule above degenerates to the paper's
//! Algorithm 1: one node means placement is the identity, one layer
//! without guarantee means the reservation term is zero, and one
//! component means the vector predicate is the scalar predicate. Both
//! engines decide by the same rules ([`crate::rules`]) and embed one
//! progress monitor, which keeps their [`PpRecord`]s, each node's
//! waitlist and breakers, does every lifecycle step, and audits and
//! snapshots the books through [`Drain`]; so they also age, expire and
//! shed waiters alike and report the same [`RdaError`]s. What remains
//! different (DESIGN.md §9) is the scalar engine's memoised fast path,
//! which only marks calls fast: this engine's `fast` flags and
//! `fast_begins`/`fast_ends` counters stay zero.
//!
//! # Waitlists, aging, overload
//!
//! Waiters are pinned to the node chosen at enqueue time (least
//! occupied at that moment). The bounded admission gate, deadlines,
//! aging (oldest-first by enqueue time) and the saturation breaker all
//! operate per node — the breaker per node *and* resource kind.
//!
//! A released demand vector can span several resources, so every drain
//! is **node-granular**: reclaiming a record marks its node touched,
//! and the node drain re-evaluates every component of every waiter.
//! That is what makes multi-resource reclamation complete — a waiter
//! blocked only on memory bandwidth is resumed by the exit of a holder
//! that also held LLC (the multi-resource drain audit of DESIGN.md §9).

use crate::api::{PpId, SiteId};
use crate::config::{DemandAudit, OverloadConfig};
use crate::error::RdaError;
use crate::extension::{AgeOutcome, BeginOutcome, EndOutcome, RdaStats};
use crate::layer::{LayerId, LayerSet, LayerSpec};
use crate::policy::PolicyKind;
use crate::progress::{placed, primary, ProgressMonitor};
use crate::registry::PpRecord;
use crate::rules;
use crate::snapshot::Snapshot;
use crate::topology::{Demand, NodeId, ResourceKind, TopoSpec, KIND_COUNT};
use crate::waitlist::{Drain, WaitEntry};
use rda_sched::ProcessId;
use rda_simcore::SimTime;
use rda_trace::{EventKind, TraceEvent, TraceSink, NO_NODE};

/// Configuration of the topology engine — the multi-node analogue of
/// [`crate::config::RdaConfig`]. The audit/aging/overload knobs are
/// shared with the scalar engine so one experiment grid drives both.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoConfig {
    /// Per-node capacity tables.
    pub spec: TopoSpec,
    /// Layers and the process → layer assignment.
    pub layers: LayerSet,
    /// How declared demand components are audited (against the
    /// machine-wide maximum capacity of each kind).
    pub demand_audit: DemandAudit,
    /// Waitlist aging timeout (`None` disables aging).
    pub waitlist_timeout_cycles: Option<u64>,
    /// Open-system overload control, applied per node.
    pub overload: Option<OverloadConfig>,
}

impl TopoConfig {
    /// A configuration with the paper's trusting, aging-free defaults.
    pub fn new(spec: TopoSpec, layers: LayerSet) -> Self {
        TopoConfig {
            spec,
            layers,
            demand_audit: DemandAudit::Trust,
            waitlist_timeout_cycles: None,
            overload: None,
        }
    }

    /// [`Self::new`], but rejecting malformed capacity tables (zero
    /// capacity for a constrained kind, empty topologies) with a typed
    /// [`SpecError`](crate::topology::SpecError) instead of letting the
    /// engine silently skip the kind in placement scoring.
    pub fn validated(spec: TopoSpec, layers: LayerSet) -> Result<Self, crate::topology::SpecError> {
        spec.validate()?;
        Ok(Self::new(spec, layers))
    }

    /// The single-node, single-layer shape equivalent to a scalar
    /// [`crate::config::RdaConfig`]: the same LLC capacity, effectively
    /// unconstrained memory bandwidth and DRAM (the scalar engine
    /// tracks neither), and the same audit/aging/overload knobs.
    pub fn compat(cfg: &crate::config::RdaConfig) -> Self {
        TopoConfig {
            spec: TopoSpec::single(cfg.llc_capacity, u64::MAX / 4, u64::MAX / 4),
            layers: LayerSet::single(cfg.policy),
            demand_audit: cfg.demand_audit,
            waitlist_timeout_cycles: cfg.waitlist_timeout_cycles,
            overload: cfg.overload,
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

    /// Enable open-system overload control (per node).
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = Some(overload);
        self
    }
}

/// The topology-aware RDA scheduling extension.
#[derive(Debug, Clone)]
pub struct TopoExtension {
    cfg: TopoConfig,
    books: NodeBooks,
    /// The records, each node's waitlist and breakers, the counters and
    /// the trace sink.
    progress: ProgressMonitor,
}

/// The topology engine's resource monitor: per node and kind, the
/// nominal books, the overflow bucket and the per-layer ledgers, with
/// what the predicate reads beside them.
#[derive(Debug, Clone)]
struct NodeBooks {
    /// Nominal usage per node per kind (what the predicate sees).
    usage: Vec<[u64; KIND_COUNT]>,
    /// Degraded overflow bucket per node per kind.
    overflow: Vec<[u64; KIND_COUNT]>,
    /// Nominal usage split per layer (drives guarantee reservations).
    layer_usage: Vec<Vec<[u64; KIND_COUNT]>>,
    /// Each layer's policy usage limit per kind, node by node within a
    /// layer, computed once so the hot path does no float arithmetic
    /// (DESIGN.md §10).
    limits: Vec<[u64; KIND_COUNT]>,
    /// Each layer's per-node capacity guarantee.
    guarantees: Vec<Option<Demand>>,
}

impl TopoExtension {
    /// Build an extension with the given configuration.
    pub fn new(cfg: TopoConfig) -> Self {
        let nodes = cfg.spec.node_count();
        assert!(nodes >= 1, "a topology needs at least one node");
        let layers = &cfg.layers.layers;
        let limit = |l: &LayerSpec, c: u64| l.policy.usage_limit(c);
        let books = NodeBooks {
            usage: vec![[0; KIND_COUNT]; nodes],
            overflow: vec![[0; KIND_COUNT]; nodes],
            layer_usage: vec![vec![[0; KIND_COUNT]; nodes]; layers.len()],
            limits: (layers.iter())
                .flat_map(|l| cfg.spec.caps.iter().map(|caps| caps.map(|c| limit(l, c))))
                .collect(),
            guarantees: layers.iter().map(|l| l.guarantee).collect(),
        };
        let capacity = ResourceKind::ALL.map(|k| cfg.spec.max_capacity(k));
        TopoExtension {
            books,
            progress: ProgressMonitor::new(nodes, NO_NODE, capacity),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TopoConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> RdaStats {
        self.progress.stats
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.cfg.spec.node_count()
    }

    /// Nominal usage of a kind on a node.
    pub fn usage(&self, node: NodeId, k: ResourceKind) -> u64 {
        self.books.usage[node.0 as usize][k.index()]
    }

    /// Overflow-bucket usage of a kind on a node.
    pub fn overflow_usage(&self, node: NodeId, k: ResourceKind) -> u64 {
        self.books.overflow[node.0 as usize][k.index()]
    }

    /// Nominal usage one layer holds of a kind on a node.
    pub fn layer_usage(&self, layer: LayerId, node: NodeId, k: ResourceKind) -> u64 {
        self.books.layer_usage[layer.0 as usize][node.0 as usize][k.index()]
    }

    /// Number of periods waiting on a node.
    pub fn waitlist_len(&self, node: NodeId) -> usize {
        self.progress.nodes[node.0 as usize].waitlist.len()
    }

    /// Number of live periods (admitted + waitlisted).
    pub fn live_periods(&self) -> usize {
        self.progress.registry.len()
    }

    /// Whether the saturation breaker is open for a kind on a node.
    pub fn breaker_is_open(&self, node: NodeId, k: ResourceKind) -> bool {
        self.progress.breaker_is_open(node.0 as usize, k)
    }

    /// Attach a trace sink; subsequent calls emit events into it.
    pub fn install_trace(&mut self, sink: TraceSink) {
        self.progress.sink = Some(sink);
    }

    /// The attached trace sink, if any.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.progress.sink.as_ref()
    }

    /// Mutable access to the attached trace sink.
    pub fn trace_mut(&mut self) -> Option<&mut TraceSink> {
        self.progress.sink.as_mut()
    }

    /// Detach the trace sink.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.progress.sink.take()
    }

    /// The vector to account on node `n` for an audited demand under
    /// `policy` (Partitioned clamps each component to its quota).
    fn accounted_on(&self, n: usize, audited: &Demand, policy: PolicyKind) -> Demand {
        let mut acc = Demand::ZERO;
        for k in ResourceKind::ALL {
            let cap = self.cfg.spec.caps[n][k.index()];
            acc = acc.with(k, policy.effective_demand(audited.get(k), cap));
        }
        acc
    }

    /// Placement score of node `n` for a demand: the worst relative
    /// occupancy (nominal + overflow, scaled by `2^32 / capacity`)
    /// over the demanded kinds. Lower is better; u128 keeps the scale
    /// exact for any u64 capacity.
    fn occupancy_score(&self, n: usize, demand: &Demand) -> u128 {
        let mut score = 0u128;
        for k in demand.touched() {
            let i = k.index();
            let cap = self.cfg.spec.caps[n][i];
            if cap == 0 {
                continue;
            }
            let occ = self.books.usage[n][i] as u128 + self.books.overflow[n][i] as u128;
            score = score.max((occ << 32) / cap as u128);
        }
        score
    }

    /// Process a `pp_begin` from `process` at static site `site`,
    /// demanding the vector `demand`.
    ///
    /// The process's layer decides the gating policy; placement picks
    /// the least-occupied feasible node; infeasible arrivals are
    /// pinned to the least-occupied node's waitlist (subject to the
    /// per-node overload gate).
    pub fn pp_begin(
        &mut self,
        process: ProcessId,
        site: SiteId,
        demand: Demand,
        now: SimTime,
    ) -> Result<BeginOutcome, RdaError> {
        let layer = self.cfg.layers.layer_of(process.0);
        let policy = self.cfg.layers.spec(layer).policy;
        if !policy.is_gating() {
            return Ok(BeginOutcome::Bypass);
        }
        let ev = self.progress.begin(process, site, primary(&demand), now);

        // Demand audit, per component, against the machine-wide
        // maximum capacity of the kind: a demand no node could ever
        // hold nominally is impossible, whatever the placement.
        let mut audited = demand;
        for k in ResourceKind::ALL {
            let capmax = self.cfg.spec.max_capacity(k);
            let Some(a) = rules::audit(self.cfg.demand_audit, demand.get(k), capmax) else {
                return Err(self.progress.reject_overflow(ev, k, demand.get(k)));
            };
            audited = audited.with(k, a);
        }
        if audited != demand {
            self.progress.stats.clamped += 1;
        }
        // The record every outcome below registers, once placed.
        let proto = PpRecord {
            id: PpId(self.progress.registry.allocated()),
            process,
            site,
            layer,
            node: NodeId(0),
            declared: audited,
            accounted: Demand::ZERO,
            admitted: false,
            overflow: false,
            begun_at: now,
        };

        // Placement: least-occupied feasible node, ties to the lowest
        // id. Nodes an open saturation breaker sheds this demand class
        // on are excluded (when every node does, the arrival is shed
        // below, where no node is left to wait on); nodes whose books
        // would wrap are disqualified; if every eligible node wraps,
        // the demand is impossible to account.
        let nodes = self.node_count();
        let breaker = self.cfg.overload.and_then(|o| o.breaker);
        let blocked = |p: &ProgressMonitor, n| breaker.and_then(|b| p.blocked(&b, n, &audited));
        let mut first_block = None;
        let mut best: Option<(u128, usize)> = None;
        let mut all_wrap = true;
        let mut wrap_kind = None;
        for n in 0..nodes {
            if let Some(k) = blocked(&self.progress, n) {
                first_block.get_or_insert((NodeId(n as u32), k));
                continue;
            }
            let acc = self.accounted_on(n, &audited, policy);
            match self.books.node_admittable(n, layer, &acc) {
                Err(k) => {
                    wrap_kind.get_or_insert(k);
                }
                Ok(feasible) => {
                    all_wrap = false;
                    if feasible {
                        let score = self.occupancy_score(n, &audited);
                        if best.is_none_or(|(s, _)| score < s) {
                            best = Some((score, n));
                        }
                    }
                }
            }
        }
        if let Some(k) = wrap_kind.filter(|_| all_wrap) {
            return Err(self.progress.reject_overflow(ev, k, audited.get(k)));
        }

        if let Some((_, n)) = best {
            let acc = self.accounted_on(n, &audited, policy);
            let limits = &self.books.limits[layer.0 as usize * nodes + n];
            if acc.touched().any(|k| acc.get(k) > limits[k.index()]) {
                self.progress.stats.oversized_admits += 1;
            }
            if let Err(k) = self.books.account_nominal(n, layer, &acc) {
                return Err(self.progress.reject_overflow(ev, k, acc.get(k)));
            }
            let rec = PpRecord {
                node: NodeId(n as u32),
                accounted: acc,
                admitted: true,
                ..proto
            };
            let pp = self.progress.registry.insert(|id| PpRecord { id, ..rec });
            self.progress.stats.admitted += 1;
            self.progress.emit(placed(ev, EventKind::Admit, pp, &rec));
            return Ok(BeginOutcome::Run { pp, fast: false });
        }

        // No node fits: pin the arrival to the least-occupied eligible
        // node's waitlist, behind that node's overload gate.
        let Some(target) = (0..nodes)
            .filter(|&n| blocked(&self.progress, n).is_none())
            .min_by_key(|&n| (self.occupancy_score(n, &audited), n))
        else {
            // Every node's breaker sheds this demand class (a node is
            // only ineligible with its blocker recorded).
            let (node, kind) = first_block.unwrap_or((NodeId(0), ResourceKind::Llc));
            return Err(self.progress.shed_open_breaker(ev, node, kind));
        };
        let acc = self.accounted_on(target, &audited, policy);
        let rec = PpRecord {
            node: NodeId(target as u32),
            accounted: acc,
            ..proto
        };
        let degrade = || self.books.account_overflow(target, &acc);
        self.progress.park(self.cfg.overload, rec, ev, now, degrade)
    }

    /// Process a `pp_end`. Misbehaving applications get the same typed
    /// rejections as the scalar engine; state is untouched on every
    /// error path. The completed period's node is drained afterwards.
    pub fn pp_end(&mut self, pp: PpId, now: SimTime) -> Result<EndOutcome, RdaError> {
        let rec = self.progress.end(pp, now)?;
        self.books.release(&rec);
        let mut ev = TraceEvent::at(now.cycles(), EventKind::End);
        (ev.node, ev.process, ev.site, ev.pp) = (rec.node.0, rec.process.0, rec.site.0, pp.0);
        (ev.resource, ev.amount) = primary(&rec.accounted);
        self.progress.emit(ev);
        let mut resumed = Vec::new();
        let timeout = self.cfg.waitlist_timeout_cycles;
        let n = rec.node.0 as usize;
        (self.progress).drain(n, &mut self.books, timeout, now, &mut resumed);
        Ok(EndOutcome {
            fast: false,
            resumed,
        })
    }

    /// Reclaim everything a dying process holds across every node, then
    /// drain each touched node. Reclaiming marks the whole *node*
    /// touched — not one resource — because a vector release frees
    /// several kinds at once and any of them can unblock a waiter.
    pub fn process_exit(&mut self, process: ProcessId, now: SimTime) -> Vec<(PpId, ProcessId)> {
        let timeout = self.cfg.waitlist_timeout_cycles;
        (self.progress).exit(process, now, &mut self.books, timeout)
    }

    /// Apply waitlist aging at `now` on every node: expire waiters past
    /// their deadline, force-admit waiters past the aging timeout,
    /// admit newly fitting heads, then evaluate the per-node breakers.
    pub fn age_waitlist(&mut self, now: SimTime) -> AgeOutcome {
        let (timeout, overload) = (self.cfg.waitlist_timeout_cycles, self.cfg.overload);
        self.progress.age(&mut self.books, timeout, overload, now)
    }

    /// Record a client-side retry of a previously shed or expired
    /// arrival (mirrors the scalar engine's counter).
    pub fn note_retry(&mut self, process: ProcessId, site: SiteId, k: ResourceKind, now: SimTime) {
        self.progress.note_retry(process, site, k, now);
    }

    /// A complete, comparable snapshot of the observable state.
    pub fn snapshot(&self) -> Snapshot {
        self.progress.snapshot(&self.books)
    }

    /// Internal consistency: every book on every node equals the sum
    /// recomputed from the record store, per layer too, and each
    /// waitlist agrees with the records entry by entry.
    pub fn check_invariants(&self) -> Result<(), RdaError> {
        self.progress.check(&self.books)
    }
}

impl NodeBooks {
    /// Capacity other layers' guarantees reserve away from `layer` on
    /// node `n`, per kind (see the formula in [`crate::layer`]).
    fn reserved_by_others(&self, n: usize, layer: LayerId) -> [u64; KIND_COUNT] {
        let mut reserved = [0u64; KIND_COUNT];
        for (li, guarantee) in self.guarantees.iter().enumerate() {
            if li as u32 == layer.0 {
                continue;
            }
            if let Some(g) = guarantee {
                for k in ResourceKind::ALL {
                    let i = k.index();
                    let unused = g.get(k).saturating_sub(self.layer_usage[li][n][i]);
                    reserved[i] = reserved[i].saturating_add(unused);
                }
            }
        }
        reserved
    }

    /// Whether node `n` can admit `acc` nominally for `layer` right
    /// now: the wrap guard, then Algorithm 1 ([`rules::fits`]) on every
    /// component, net of other layers' reservations. `Err(kind)`
    /// reports that accounting the component would wrap the 64-bit
    /// book (the node is disqualified, not merely busy).
    fn node_admittable(
        &self,
        n: usize,
        layer: LayerId,
        acc: &Demand,
    ) -> Result<bool, ResourceKind> {
        if let Some(k) = wraps(&self.usage[n], acc) {
            return Err(k);
        }
        let limits = &self.limits[layer.0 as usize * self.usage.len() + n];
        let reserved = self.reserved_by_others(n, layer);
        Ok(ResourceKind::ALL.into_iter().all(|k| {
            let i = k.index();
            rules::fits(limits[i], reserved[i], self.usage[n][i], acc.get(k))
        }))
    }

    /// Add `acc` to node `n`'s nominal books for `layer`. Checked
    /// two-pass: if any component would wrap the usage book *or* the
    /// per-layer ledger, nothing is added and the wrapping kind is
    /// returned — the caller converts it into a typed
    /// [`RdaError::DemandOverflow`] rejection.
    fn account_nominal(
        &mut self,
        n: usize,
        layer: LayerId,
        acc: &Demand,
    ) -> Result<(), ResourceKind> {
        let li = layer.0 as usize;
        if let Some(k) = wraps(&self.usage[n], acc).or(wraps(&self.layer_usage[li][n], acc)) {
            return Err(k);
        }
        for k in ResourceKind::ALL {
            let i = k.index();
            self.usage[n][i] += acc.get(k);
            self.layer_usage[li][n][i] += acc.get(k);
        }
        Ok(())
    }

    /// Add `acc` to node `n`'s degraded overflow bucket. Checked like
    /// [`Self::account_nominal`]: the bucket has no release pressure
    /// from the predicate, so it is the one book that can genuinely
    /// approach `u64::MAX` under sustained degraded admission.
    fn account_overflow(&mut self, n: usize, acc: &Demand) -> Result<(), ResourceKind> {
        if let Some(k) = wraps(&self.overflow[n], acc) {
            return Err(k);
        }
        for k in ResourceKind::ALL {
            self.overflow[n][k.index()] += acc.get(k);
        }
        Ok(())
    }
}

/// The first kind whose entry in `book` would wrap if `acc` were added.
fn wraps(book: &[u64; KIND_COUNT], acc: &Demand) -> Option<ResourceKind> {
    acc.touched()
        .find(|&k| book[k.index()].checked_add(acc.get(k)).is_none())
}

/// The books of node `n`: every component of a waiter is fitted
/// against its layer's limits.
impl Drain for NodeBooks {
    fn fits(&self, n: usize, w: &WaitEntry, rec: &PpRecord) -> bool {
        matches!(self.node_admittable(n, rec.layer, &w.accounted), Ok(true))
    }

    fn admit(&mut self, n: usize, w: &WaitEntry, rec: &PpRecord, _now: SimTime) -> bool {
        // A wrapping per-layer ledger leaves the head parked; aging can
        // still degrade it into the (checked) overflow bucket.
        self.account_nominal(n, rec.layer, &w.accounted).is_ok()
    }

    fn age(&mut self, n: usize, w: &WaitEntry) -> bool {
        self.account_overflow(n, &w.accounted).is_ok()
    }

    fn release(&mut self, rec: &PpRecord) {
        let n = rec.node.0 as usize;
        for k in ResourceKind::ALL {
            let i = k.index();
            let a = rec.accounted.get(k);
            if rec.overflow {
                self.overflow[n][i] -= a;
            } else {
                self.usage[n][i] -= a;
                self.layer_usage[rec.layer.0 as usize][n][i] -= a;
            }
        }
    }

    fn held(&self, n: usize) -> [[u64; KIND_COUNT]; 2] {
        [self.usage[n], self.overflow[n]]
    }

    fn ledger(&self, l: usize, n: usize) -> Option<[u64; KIND_COUNT]> {
        self.layer_usage.get(l).map(|ledgers| ledgers[n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShedPolicy;
    use crate::error::InvariantKind;

    fn t(cycles: u64) -> SimTime {
        SimTime::from_cycles(cycles)
    }

    /// 2 nodes × (llc 100, membw 50, dram 1000), one Strict layer.
    fn two_node() -> TopoExtension {
        TopoExtension::new(TopoConfig::new(
            TopoSpec::uniform(2, 100, 50, 1000),
            LayerSet::single(PolicyKind::Strict),
        ))
    }

    fn run(e: &mut TopoExtension, p: u32, site: u32, d: Demand, now: SimTime) -> PpId {
        match e.pp_begin(ProcessId(p), SiteId(site), d, now).unwrap() {
            BeginOutcome::Run { pp, .. } => pp,
            other => panic!("expected Run, got {other:?}"),
        }
    }

    fn node_of(e: &TopoExtension, pp: PpId) -> NodeId {
        e.snapshot()
            .periods
            .iter()
            .find(|r| r.id == pp)
            .expect("live period")
            .node
    }

    #[test]
    fn placement_prefers_least_occupied_node_then_lowest_id() {
        let mut e = two_node();
        let a = run(&mut e, 0, 0, Demand::llc(60), t(0));
        assert_eq!(node_of(&e, a), NodeId(0), "tie breaks to node 0");
        let b = run(&mut e, 1, 0, Demand::llc(60), t(1));
        assert_eq!(node_of(&e, b), NodeId(1), "spills to the idle node");
        // 60/100 on each node; a small demand goes back to node 0.
        let c = run(&mut e, 2, 0, Demand::llc(10), t(2));
        assert_eq!(node_of(&e, c), NodeId(0));
        e.check_invariants().unwrap();
    }

    #[test]
    fn vector_predicate_gates_on_every_component() {
        let mut e = two_node();
        // Bandwidth is the scarce kind: 40/50 on both nodes.
        run(&mut e, 0, 0, Demand::new(10, 40, 0), t(0));
        run(&mut e, 1, 0, Demand::new(10, 40, 0), t(1));
        // Plenty of LLC everywhere, but no node has 20 bandwidth left.
        let out = e
            .pp_begin(ProcessId(2), SiteId(0), Demand::new(5, 20, 0), t(2))
            .unwrap();
        assert!(matches!(out, BeginOutcome::Pause { .. }));
        e.check_invariants().unwrap();
    }

    #[test]
    fn multi_kind_exit_drains_waiters_blocked_on_any_component() {
        // One node so the waiter has nowhere to spill.
        let mut e = TopoExtension::new(TopoConfig::new(
            TopoSpec::single(100, 50, 1000),
            LayerSet::single(PolicyKind::Strict),
        ));
        // The holder occupies llc AND membw; the waiter only needs
        // membw. Its resumption must ride the holder's exit even
        // though the two demands share no *primary* kind.
        run(&mut e, 0, 0, Demand::new(90, 45, 0), t(0));
        let out = e
            .pp_begin(
                ProcessId(1),
                SiteId(0),
                Demand::ZERO.with(ResourceKind::MemBw, 20),
                t(1),
            )
            .unwrap();
        let BeginOutcome::Pause { pp: waiter, .. } = out else {
            panic!("expected Pause, got {out:?}");
        };
        let resumed = e.process_exit(ProcessId(0), t(2));
        assert_eq!(resumed, vec![(waiter, ProcessId(1))]);
        assert!(e.pp_end(waiter, t(3)).is_ok());
        assert!(e.snapshot().is_idle());
        e.check_invariants().unwrap();
    }

    #[test]
    fn guarantee_reserves_capacity_for_its_layer() {
        // latency (layer 1) guarantees 40 llc per node; batch (layer
        // 0) may then only use 60 of 100.
        let layers = LayerSet::new(vec![
            LayerSpec::new("batch", PolicyKind::Strict),
            LayerSpec::new("latency", PolicyKind::Strict).with_guarantee(Demand::llc(40)),
        ])
        .with_assignment(9, LayerId(1));
        let mut e = TopoExtension::new(TopoConfig::new(TopoSpec::single(100, 50, 1000), layers));
        run(&mut e, 0, 0, Demand::llc(60), t(0));
        // Batch is now at the guarantee-adjusted limit.
        let out = e
            .pp_begin(ProcessId(1), SiteId(0), Demand::llc(10), t(1))
            .unwrap();
        assert!(matches!(out, BeginOutcome::Pause { .. }), "got {out:?}");
        // The guaranteed layer still fits in its reserved slice...
        let lat = run(&mut e, 9, 0, Demand::llc(30), t(2));
        assert_eq!(e.layer_usage(LayerId(1), NodeId(0), ResourceKind::Llc), 30);
        // ...and its usage draws the reservation down, so batch's
        // effective limit rises as the guarantee is consumed.
        assert_eq!(
            e.books.reserved_by_others(0, LayerId(0))[ResourceKind::Llc.index()],
            10
        );
        e.pp_end(lat, t(3)).unwrap();
        e.check_invariants().unwrap();
    }

    #[test]
    fn trivial_single_layer_has_no_reservations() {
        let e = two_node();
        assert_eq!(e.books.reserved_by_others(0, LayerId(0)), [0; KIND_COUNT]);
    }

    #[test]
    fn end_rejections_are_typed_and_state_preserving() {
        let mut e = two_node();
        let pp = run(&mut e, 0, 0, Demand::llc(10), t(0));
        assert_eq!(e.pp_end(PpId(99), t(1)), Err(RdaError::UnknownPp(PpId(99))));
        e.pp_end(pp, t(2)).unwrap();
        assert_eq!(e.pp_end(pp, t(3)), Err(RdaError::DoubleEnd(pp)));
        // Fill both nodes so the next arrival must wait.
        run(&mut e, 1, 0, Demand::llc(100), t(4));
        run(&mut e, 2, 0, Demand::llc(100), t(5));
        let BeginOutcome::Pause { pp: w2, .. } = e
            .pp_begin(ProcessId(3), SiteId(0), Demand::llc(100), t(6))
            .unwrap()
        else {
            panic!("expected Pause");
        };
        assert_eq!(e.pp_end(w2, t(7)), Err(RdaError::EndWhileWaitlisted(w2)));
        assert_eq!(e.stats().rejected_ends, 3);
        e.check_invariants().unwrap();
    }

    #[test]
    fn oversized_component_admits_via_deadlock_guard() {
        let mut e = two_node();
        // 200 llc exceeds every node's capacity; Trust audit keeps it,
        // and the per-component guard admits rather than wedging.
        let pp = run(&mut e, 0, 0, Demand::llc(200), t(0));
        assert_eq!(e.stats().oversized_admits, 1);
        e.pp_end(pp, t(1)).unwrap();
        assert!(e.snapshot().is_idle());
    }

    #[test]
    fn audit_clamp_and_reject_work_per_component() {
        let spec = TopoSpec::uniform(2, 100, 50, 1000);
        let mut clamp = TopoExtension::new(
            TopoConfig::new(spec.clone(), LayerSet::single(PolicyKind::Strict))
                .with_demand_audit(DemandAudit::Clamp),
        );
        let pp = run(&mut clamp, 0, 0, Demand::new(500, 10, 0), t(0));
        assert_eq!(clamp.stats().clamped, 1);
        assert_eq!(clamp.usage(NodeId(0), ResourceKind::Llc), 100);
        assert_eq!(clamp.usage(NodeId(0), ResourceKind::MemBw), 10);
        clamp.pp_end(pp, t(1)).unwrap();

        let mut reject = TopoExtension::new(
            TopoConfig::new(spec, LayerSet::single(PolicyKind::Strict))
                .with_demand_audit(DemandAudit::Reject),
        );
        let err = reject
            .pp_begin(ProcessId(0), SiteId(0), Demand::new(10, 500, 0), t(0))
            .unwrap_err();
        assert_eq!(
            err,
            RdaError::DemandOverflow {
                kind: ResourceKind::MemBw,
                declared: 500,
                capacity: 50,
            }
        );
        assert!(reject.snapshot().is_idle());
    }

    #[test]
    fn aging_force_admits_into_overflow_per_node() {
        let mut e = TopoExtension::new(
            TopoConfig::new(
                TopoSpec::single(100, 50, 1000),
                LayerSet::single(PolicyKind::Strict),
            )
            .with_waitlist_timeout_cycles(10),
        );
        run(&mut e, 0, 0, Demand::llc(100), t(0));
        let BeginOutcome::Pause { pp: waiter, .. } = e
            .pp_begin(ProcessId(1), SiteId(0), Demand::llc(50), t(1))
            .unwrap()
        else {
            panic!("expected Pause");
        };
        let out = e.age_waitlist(t(20));
        assert_eq!(out.resumed, vec![(waiter, ProcessId(1))]);
        assert_eq!(e.overflow_usage(NodeId(0), ResourceKind::Llc), 50);
        assert_eq!(e.stats().aged_admissions, 1);
        e.check_invariants().unwrap();
    }

    #[test]
    fn compat_config_mirrors_scalar_shape() {
        let m = rda_machine::MachineConfig::xeon_e5_2420();
        let scalar = crate::config::RdaConfig::for_machine(&m, PolicyKind::Strict);
        let cfg = TopoConfig::compat(&scalar);
        assert_eq!(cfg.spec.node_count(), 1);
        assert!(cfg.layers.is_trivial());
        assert_eq!(
            cfg.spec.capacity(NodeId(0), ResourceKind::Llc),
            scalar.llc_capacity
        );
        // The scalar engine gates the LLC only: bandwidth and DRAM
        // are left unconstrained.
        assert_eq!(
            cfg.spec.capacity(NodeId(0), ResourceKind::MemBw),
            u64::MAX / 4
        );
        assert_eq!(
            cfg.spec.capacity(NodeId(0), ResourceKind::DramCap),
            u64::MAX / 4
        );
    }

    #[test]
    fn orphaned_waitlist_entry_is_dropped_not_panicked() {
        let mut e = TopoExtension::new(TopoConfig::new(
            TopoSpec::single(100, 50, 1000),
            LayerSet::single(PolicyKind::Strict),
        ));
        let holder = run(&mut e, 0, 0, Demand::llc(100), t(0));
        let BeginOutcome::Pause { pp: orphan, .. } = e
            .pp_begin(ProcessId(1), SiteId(0), Demand::llc(40), t(1))
            .unwrap()
        else {
            panic!("expected Pause");
        };
        let BeginOutcome::Pause { pp: behind, .. } = e
            .pp_begin(ProcessId(2), SiteId(0), Demand::llc(30), t(2))
            .unwrap()
        else {
            panic!("expected Pause");
        };
        // Corrupt the record store: the head's record vanishes while
        // its waitlist entry stays — the drain must drop the orphan,
        // count the desync, and still admit the entry behind it.
        e.progress.registry.complete(orphan);
        let out = e.pp_end(holder, t(3)).unwrap();
        assert_eq!(e.stats().desyncs, 1);
        assert_eq!(out.resumed, vec![(behind, ProcessId(2))]);
        assert!(e.snapshot().waitlists[0].is_empty());
        e.check_invariants().unwrap();
    }

    /// A waitlist that already (impossibly) holds the id about to be
    /// allocated: the push is rejected, the desync counted and the
    /// registration rolled back — as in the scalar engine.
    #[test]
    fn poisoned_waitlist_push_rolls_back_the_registration() {
        let mut e = TopoExtension::new(TopoConfig::new(
            TopoSpec::single(100, 50, 1000),
            LayerSet::single(PolicyKind::Strict),
        ));
        run(&mut e, 0, 0, Demand::llc(100), t(0));
        let next = PpId(e.snapshot().allocated);
        e.progress.nodes[0]
            .waitlist
            .push(WaitEntry {
                pp: next,
                accounted: Demand::llc(1),
                enqueued_at: t(0),
            })
            .unwrap();
        let err = e
            .pp_begin(ProcessId(1), SiteId(0), Demand::llc(40), t(1))
            .unwrap_err();
        assert_eq!(err, RdaError::DoubleWaitlist(next));
        assert_eq!(e.stats().desyncs, 1);
        assert_eq!(e.stats().paused, 0);
        assert!(e.snapshot().periods.iter().all(|p| p.id != next));
        assert_eq!(e.waitlist_len(NodeId(0)), 1, "the duplicate was not queued");
        // The engine stays serviceable: the next arrival queues.
        let out = e
            .pp_begin(ProcessId(2), SiteId(0), Demand::llc(40), t(2))
            .unwrap();
        assert!(matches!(out, BeginOutcome::Pause { .. }), "got {out:?}");
    }

    #[test]
    fn overflow_bucket_wrap_is_a_typed_rejection() {
        let mut e = TopoExtension::new(
            TopoConfig::new(
                TopoSpec::single(100, u64::MAX, 1000),
                LayerSet::single(PolicyKind::Strict),
            )
            .with_overload(OverloadConfig {
                waitlist_cap: 0,
                shed_policy: ShedPolicy::DegradeToOverflow,
                deadline_cycles: None,
                breaker: None,
            }),
        );
        run(&mut e, 0, 0, Demand::llc(100), t(0)); // fill the LLC
                                                   // First degraded admission parks u64::MAX bandwidth in the
                                                   // overflow bucket (fits: the bucket starts empty).
        let d = Demand::new(50, u64::MAX, 0);
        match e.pp_begin(ProcessId(1), SiteId(0), d, t(1)).unwrap() {
            BeginOutcome::Run { .. } => {}
            other => panic!("expected degraded Run, got {other:?}"),
        }
        // The second would wrap the bandwidth book: typed rejection,
        // nothing half-accounted.
        let clamped = e.stats().clamped;
        let err = e.pp_begin(ProcessId(2), SiteId(0), d, t(2)).unwrap_err();
        assert!(matches!(
            err,
            RdaError::DemandOverflow {
                kind: ResourceKind::MemBw,
                ..
            }
        ));
        assert_eq!(e.stats().clamped, clamped + 1);
        e.check_invariants().unwrap();
    }

    #[test]
    fn layer_ledger_wrap_rejects_admission_not_panics() {
        let mut e = TopoExtension::new(TopoConfig::new(
            TopoSpec::single(100, 50, 1000),
            LayerSet::single(PolicyKind::Strict),
        ));
        // Corrupt the per-layer ledger near the wrap point while the
        // node book stays small: accounting must reject, not panic,
        // and must not half-apply the vector.
        e.books.layer_usage[0][0][ResourceKind::Llc.index()] = u64::MAX;
        let err = e
            .pp_begin(ProcessId(0), SiteId(0), Demand::llc(10), t(0))
            .unwrap_err();
        assert!(matches!(
            err,
            RdaError::DemandOverflow {
                kind: ResourceKind::Llc,
                ..
            }
        ));
        assert_eq!(e.books.usage[0][ResourceKind::Llc.index()], 0);
        assert!(e.snapshot().periods.is_empty());
    }

    #[test]
    fn aged_head_that_would_wrap_overflow_is_shed() {
        let mut e = TopoExtension::new(
            TopoConfig::new(
                TopoSpec::single(100, u64::MAX, 1000),
                LayerSet::single(PolicyKind::Strict),
            )
            .with_overload(OverloadConfig {
                waitlist_cap: 1,
                shed_policy: ShedPolicy::DegradeToOverflow,
                deadline_cycles: None,
                breaker: None,
            })
            .with_waitlist_timeout_cycles(10),
        );
        run(&mut e, 0, 0, Demand::llc(100), t(0)); // holder fills the LLC
                                                   // X parks at the head demanding the whole bandwidth book.
        let BeginOutcome::Pause { pp: head, .. } = e
            .pp_begin(ProcessId(1), SiteId(0), Demand::new(50, u64::MAX, 0), t(1))
            .unwrap()
        else {
            panic!("expected Pause");
        };
        // Y hits the full gate and degrades, parking u64::MAX
        // bandwidth in the overflow bucket.
        match e
            .pp_begin(ProcessId(2), SiteId(0), Demand::new(50, u64::MAX, 0), t(2))
            .unwrap()
        {
            BeginOutcome::Run { .. } => {}
            other => panic!("expected degraded Run, got {other:?}"),
        }
        // Aging must shed X: it cannot run nominally (LLC full) and
        // degrading it would wrap the bandwidth overflow bucket.
        let shed = e.stats().shed;
        e.age_waitlist(t(100));
        assert_eq!(e.stats().shed, shed + 1);
        assert!(e.snapshot().periods.iter().all(|p| p.id != head));
        assert!(e.snapshot().waitlists[0].is_empty());
        e.check_invariants().unwrap();
    }

    /// Two nodes × (llc 100, membw 50, dram 1000), layers batch (0) and
    /// latency (1, process 9). Node 1's bandwidth: nominal 30 (layer 0
    /// holds 10, layer 1 20), overflow 25 (one aged period), and a
    /// waiter of 25 that counts in no book. Returns the waiter.
    fn audited_two_layer() -> (TopoExtension, PpId) {
        let layers = LayerSet::new(vec![
            LayerSpec::new("batch", PolicyKind::Strict),
            LayerSpec::new("latency", PolicyKind::Strict),
        ])
        .with_assignment(9, LayerId(1));
        let cfg = TopoConfig::new(TopoSpec::uniform(2, 100, 50, 1000), layers)
            .with_waitlist_timeout_cycles(10);
        let mut e = TopoExtension::new(cfg);
        let a = run(&mut e, 0, 0, Demand::new(10, 45, 0), t(0));
        // Node 0 lacks the bandwidth for the next two.
        let b = run(&mut e, 1, 0, Demand::new(60, 10, 0), t(1));
        let c = run(&mut e, 9, 0, Demand::new(20, 20, 0), t(2));
        assert_eq!([a, b, c].map(|pp| node_of(&e, pp)), [0, 1, 1].map(NodeId));
        let mut pause = |p, now| match e
            .pp_begin(ProcessId(p), SiteId(0), Demand::new(5, 25, 0), now)
            .unwrap()
        {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("expected Pause, got {other:?}"),
        };
        let aged = pause(2, t(3));
        let waiter = pause(3, t(8));
        assert_eq!(e.age_waitlist(t(13)).resumed, vec![(aged, ProcessId(2))]);
        (e, waiter)
    }

    fn violation(n: u32, k: ResourceKind, check: InvariantKind, e: u64, a: u64) -> RdaError {
        RdaError::InvariantViolation {
            node: NodeId(n),
            kind: k,
            check,
            expected: e,
            actual: a,
        }
    }

    const BW: usize = ResourceKind::MemBw.index();

    #[test]
    fn book_audit_passes_with_admitted_waiting_and_overflow_periods() {
        let (e, waiter) = audited_two_layer();
        let bw = ResourceKind::MemBw;
        assert_eq!(e.usage(NodeId(1), bw), 30);
        assert_eq!(e.layer_usage(LayerId(1), NodeId(1), bw), 20);
        assert_eq!(e.overflow_usage(NodeId(1), bw), 25);
        assert_eq!(node_of(&e, waiter), NodeId(1));
        assert_eq!(e.waitlist_len(NodeId(1)), 1);
        e.check_invariants().unwrap();
    }

    #[test]
    fn book_audit_reports_a_corrupted_nominal_book() {
        let (mut e, _) = audited_two_layer();
        e.books.usage[1][BW] += 1;
        let want = violation(1, ResourceKind::MemBw, InvariantKind::UsageMismatch, 30, 31);
        assert_eq!(e.check_invariants(), Err(want));
    }

    #[test]
    fn book_audit_reports_a_corrupted_overflow_book() {
        let (mut e, _) = audited_two_layer();
        e.books.overflow[1][BW] += 1;
        let want = violation(
            1,
            ResourceKind::MemBw,
            InvariantKind::OverflowMismatch,
            25,
            26,
        );
        assert_eq!(e.check_invariants(), Err(want));
    }

    #[test]
    fn book_audit_reports_a_corrupted_layer_ledger() {
        let (mut e, _) = audited_two_layer();
        e.books.layer_usage[1][1][BW] += 1;
        let check = InvariantKind::LayerUsageMismatch;
        let want = violation(1, ResourceKind::MemBw, check, 20, 21);
        assert_eq!(e.check_invariants(), Err(want));
    }

    /// Each corruption below outranks the ones before it: the books
    /// come before the waitlists, then nodes in order, kinds in order,
    /// and the nominal book, the overflow bucket and the layer ledgers
    /// in that order.
    #[test]
    fn book_audit_reports_the_first_violation_in_book_order() {
        use InvariantKind::*;
        use ResourceKind::{DramCap, MemBw};
        let (mut e, waiter) = audited_two_layer();
        e.progress.registry.get_mut(waiter).unwrap().node = NodeId(0);
        let want = violation(0, ResourceKind::Llc, WaitlistCountMismatch, 1, 0);
        assert_eq!(e.check_invariants(), Err(want));
        e.books.usage[1][DramCap.index()] += 1;
        assert_eq!(
            e.check_invariants(),
            Err(violation(1, DramCap, UsageMismatch, 0, 1))
        );
        e.books.layer_usage[1][1][BW] += 1;
        let want = violation(1, MemBw, LayerUsageMismatch, 20, 21);
        assert_eq!(e.check_invariants(), Err(want));
        e.books.layer_usage[0][1][BW] += 1;
        let want = violation(1, MemBw, LayerUsageMismatch, 10, 11);
        assert_eq!(e.check_invariants(), Err(want));
        e.books.overflow[1][BW] += 1;
        let want = violation(1, MemBw, OverflowMismatch, 25, 26);
        assert_eq!(e.check_invariants(), Err(want));
        e.books.overflow[0][DramCap.index()] += 1;
        let want = violation(0, DramCap, OverflowMismatch, 0, 1);
        assert_eq!(e.check_invariants(), Err(want));
    }

    #[test]
    fn validated_config_rejects_zero_capacity_spec() {
        let err = TopoConfig::validated(
            TopoSpec::single(100, 0, 1000),
            LayerSet::single(PolicyKind::Strict),
        )
        .unwrap_err();
        assert_eq!(
            err,
            crate::topology::SpecError::ZeroCapacity {
                node: NodeId(0),
                kind: ResourceKind::MemBw,
            }
        );
        assert!(TopoConfig::validated(
            TopoSpec::single(100, 50, 1000),
            LayerSet::single(PolicyKind::Strict),
        )
        .is_ok());
    }

    #[test]
    fn default_only_layer_bypasses() {
        let mut e = TopoExtension::new(TopoConfig::new(
            TopoSpec::single(100, 50, 1000),
            LayerSet::single(PolicyKind::DefaultOnly),
        ));
        let out = e
            .pp_begin(ProcessId(0), SiteId(0), Demand::llc(1000), t(0))
            .unwrap();
        assert_eq!(out, BeginOutcome::Bypass);
        assert_eq!(e.stats().begins, 0);
        assert!(e.snapshot().is_idle());
    }
}
