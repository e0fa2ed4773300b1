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
//! On a 1-node topology with a trivial single layer and a
//! single-component demand stream, every rule above degenerates to the
//! paper's Algorithm 1: one node means placement is the identity, one
//! layer without guarantee means the reservation term is zero, and one
//! component means the vector predicate is the scalar predicate. The
//! differences that remain are deliberate and invisible to the
//! scheduling outcome: this engine has no memoised fast path (its
//! `fast_begins`/`fast_ends` counters stay zero) and keeps one mixed
//! FIFO per *node* rather than one per *resource* — identical queue
//! orders when only one resource is ever demanded.
//!
//! # Waitlists, aging, overload
//!
//! Waiters are pinned to the node chosen at enqueue time (least
//! occupied at that moment); each node owns one FIFO. The bounded
//! admission gate, deadlines, aging, and the saturation breaker all
//! operate per node — the breaker per node *and* resource kind.
//!
//! A released demand vector can span several resources, so every drain
//! is **node-granular**: reclaiming a record marks its node touched,
//! and the node drain re-evaluates every component of every waiter.
//! That is what makes multi-resource reclamation complete — a waiter
//! blocked only on memory bandwidth is resumed by the exit of a holder
//! that also held LLC (the multi-resource drain audit of DESIGN.md §9).

#![allow(clippy::needless_range_loop)] // node/layer loops index several per-node books at once

use crate::api::{PpId, SiteId};
use crate::config::{DemandAudit, OverloadConfig, ShedPolicy};
use crate::extension::{AgeOutcome, BeginOutcome, EndOutcome, RdaStats};
use crate::layer::{LayerId, LayerSet};
use crate::policy::PolicyKind;
use crate::topology::{Demand, NodeId, ResourceKind, TopoSpec, KIND_COUNT};
use rda_sched::ProcessId;
use rda_simcore::{Fnv1a64, SimTime};
use rda_trace::{EventKind, RejectKind, TraceEvent, TraceResource, TraceSink, NO_NODE};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Typed errors of the topology engine — the multi-node analogue of
/// [`crate::error::RdaError`], with node/kind payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoError {
    /// The demand auditor refused a component larger than any node
    /// offers, or accounting it would wrap the 64-bit books.
    DemandOverflow {
        /// The offending component.
        kind: ResourceKind,
        /// Its declared amount.
        declared: u64,
        /// The machine-wide maximum capacity for the kind.
        capacity: u64,
    },
    /// `pp_end` of an id that was never allocated.
    UnknownPp(PpId),
    /// `pp_end` of a period that already ended.
    DoubleEnd(PpId),
    /// `pp_end` of a period still parked on a waitlist.
    EndWhileWaitlisted(PpId),
    /// The bounded admission gate shed the arrival at the target
    /// node's waitlist cap.
    WaitlistFull {
        /// The node whose queue was full.
        node: NodeId,
    },
    /// Every node's breaker sheds this demand class.
    BreakerOpen {
        /// The first blocking node (scan order).
        node: NodeId,
        /// The first blocking kind on that node.
        kind: ResourceKind,
    },
    /// Internal books disagree with the record store — a scheduler
    /// bug, never an application bug.
    InvariantViolation {
        /// The node whose books diverged.
        node: NodeId,
        /// The resource kind.
        kind: ResourceKind,
        /// Which book diverged.
        what: &'static str,
        /// Recomputed value.
        expected: u64,
        /// Stored value.
        actual: u64,
    },
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopoError::DemandOverflow {
                kind,
                declared,
                capacity,
            } => write!(
                f,
                "demand overflow: {declared} {kind} exceeds machine-wide capacity {capacity}"
            ),
            TopoError::UnknownPp(pp) => write!(f, "unknown progress period id {}", pp.0),
            TopoError::DoubleEnd(pp) => write!(f, "period {} already ended", pp.0),
            TopoError::EndWhileWaitlisted(pp) => {
                write!(f, "period {} is waitlisted and cannot end", pp.0)
            }
            TopoError::WaitlistFull { node } => write!(f, "waitlist full on {node}"),
            TopoError::BreakerOpen { node, kind } => {
                write!(f, "saturation breaker open on {node} for {kind}")
            }
            TopoError::InvariantViolation {
                node,
                kind,
                what,
                expected,
                actual,
            } => write!(
                f,
                "invariant violation on {node}/{kind}: {what} expected {expected} actual {actual}"
            ),
        }
    }
}

impl std::error::Error for TopoError {}

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
    /// [`SpecError`] instead of letting the engine silently skip the
    /// kind in placement scoring.
    pub fn validated(spec: TopoSpec, layers: LayerSet) -> Result<Self, crate::topology::SpecError> {
        spec.validate()?;
        Ok(Self::new(spec, layers))
    }

    /// The single-node, single-layer shape equivalent to a scalar
    /// [`crate::config::RdaConfig`]: same LLC and bandwidth
    /// capacities, an effectively unconstrained DRAM pool (the scalar
    /// engine does not track DRAM), and the same audit/aging/overload
    /// knobs.
    pub fn compat(cfg: &crate::config::RdaConfig) -> Self {
        TopoConfig {
            spec: TopoSpec::single(cfg.llc_capacity, cfg.membw_capacity, u64::MAX / 4),
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

/// One live period in the topology engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoRecord {
    /// The period id.
    pub id: PpId,
    /// Owning process.
    pub process: ProcessId,
    /// Static site.
    pub site: SiteId,
    /// The layer the owning process belongs to.
    pub layer: LayerId,
    /// The node the period was placed on (waiters: pinned target).
    pub node: NodeId,
    /// Declared (post-audit) demand vector.
    pub declared: Demand,
    /// Vector actually accounted on the node.
    pub accounted: Demand,
    /// Running (`true`) or waitlisted (`false`).
    pub admitted: bool,
    /// Accounted in the degraded overflow bucket.
    pub overflow: bool,
    /// When `pp_begin` processed the period.
    pub begun_at: SimTime,
}

/// One waitlist entry (per-node FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TopoWaitEntry {
    pp: PpId,
    accounted: Demand,
    enqueued_at: SimTime,
}

/// One live period, as observable in a [`TopoSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoPpSnap {
    /// The period id.
    pub id: PpId,
    /// Owning process.
    pub process: ProcessId,
    /// Static site.
    pub site: SiteId,
    /// The owning layer.
    pub layer: LayerId,
    /// The placed (or pinned) node.
    pub node: NodeId,
    /// Declared (post-audit) demand vector.
    pub declared: Demand,
    /// Accounted demand vector.
    pub accounted: Demand,
    /// Running or waitlisted.
    pub admitted: bool,
    /// In the overflow bucket.
    pub overflow: bool,
}

/// One waitlist entry, as observable in a [`TopoSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoWaitSnap {
    /// The waiting period.
    pub pp: PpId,
    /// Its accounted demand vector.
    pub accounted: Demand,
    /// Enqueue time in cycles.
    pub enqueued_cycles: u64,
}

/// The complete observable state of a [`TopoExtension`] — what the
/// extended differential oracle compares after every replayed event.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TopoSnapshot {
    /// Nominal usage per node per kind.
    pub usage: Vec<[u64; KIND_COUNT]>,
    /// Overflow-bucket usage per node per kind.
    pub overflow: Vec<[u64; KIND_COUNT]>,
    /// Waitlist contents front-to-back per node.
    pub waitlists: Vec<Vec<TopoWaitSnap>>,
    /// Every live period, in id order.
    pub periods: Vec<TopoPpSnap>,
    /// Activity counters (fast-path counters always zero here).
    pub stats: RdaStats,
    /// Number of period ids ever allocated.
    pub allocated: u64,
}

impl TopoSnapshot {
    /// Platform-stable FNV-1a digest over every field (`desyncs`
    /// excluded, mirroring [`crate::snapshot::Snapshot::digest`]).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a64::new();
        h.write_usize(self.usage.len());
        for n in 0..self.usage.len() {
            for i in 0..KIND_COUNT {
                h.write_u64(self.usage[n][i]).write_u64(self.overflow[n][i]);
            }
            h.write_usize(self.waitlists[n].len());
            for w in &self.waitlists[n] {
                h.write_u64(w.pp.0).write_u64(w.enqueued_cycles);
                for a in w.accounted.amounts {
                    h.write_u64(a);
                }
            }
        }
        h.write_usize(self.periods.len());
        for p in &self.periods {
            h.write_u64(p.id.0)
                .write_u64(p.process.0 as u64)
                .write_u64(p.site.0 as u64)
                .write_u64(p.layer.0 as u64)
                .write_u64(p.node.0 as u64)
                .write_u64(p.admitted as u64)
                .write_u64(p.overflow as u64);
            for a in p.declared.amounts {
                h.write_u64(a);
            }
            for a in p.accounted.amounts {
                h.write_u64(a);
            }
        }
        let s = &self.stats;
        for v in [
            s.begins,
            s.ends,
            s.admitted,
            s.paused,
            s.resumed,
            s.fast_begins,
            s.fast_ends,
            s.max_waitlist,
            s.oversized_admits,
            s.reclaimed,
            s.clamped,
            s.aged_admissions,
            s.rejected_ends,
            s.shed,
            s.expired,
            s.retried,
            s.breaker_trips,
        ] {
            h.write_u64(v);
        }
        h.write_u64(self.allocated);
        h.finish()
    }

    /// This snapshot with its activity counters zeroed.
    pub fn without_stats(&self) -> TopoSnapshot {
        TopoSnapshot {
            stats: RdaStats::default(),
            ..self.clone()
        }
    }

    /// True when every book on every node is zero, nothing waits, and
    /// no period is live — the drained-to-idle end state the recovery
    /// properties expect.
    pub fn is_idle(&self) -> bool {
        self.usage.iter().all(|u| u.iter().all(|&a| a == 0))
            && self.overflow.iter().all(|u| u.iter().all(|&a| a == 0))
            && self.waitlists.iter().all(|w| w.is_empty())
            && self.periods.is_empty()
    }
}

/// The topology-aware RDA scheduling extension.
#[derive(Debug, Clone)]
pub struct TopoExtension {
    cfg: TopoConfig,
    /// Nominal usage per node per kind (what the predicate sees).
    usage: Vec<[u64; KIND_COUNT]>,
    /// Degraded overflow bucket per node per kind.
    overflow: Vec<[u64; KIND_COUNT]>,
    /// Nominal usage split per layer (drives guarantee reservations).
    layer_usage: Vec<Vec<[u64; KIND_COUNT]>>,
    /// Live periods by id (BTreeMap: snapshots iterate in id order).
    records: BTreeMap<u64, TopoRecord>,
    next_id: u64,
    /// One FIFO per node; entries hold mixed demand vectors.
    waitlists: Vec<VecDeque<TopoWaitEntry>>,
    stats: RdaStats,
    sink: Option<TraceSink>,
    breaker_open: Vec<[bool; KIND_COUNT]>,
    breaker_above: Vec<[u32; KIND_COUNT]>,
    breaker_below: Vec<[u32; KIND_COUNT]>,
}

impl TopoExtension {
    /// Build an extension with the given configuration.
    pub fn new(cfg: TopoConfig) -> Self {
        let nodes = cfg.spec.node_count();
        assert!(nodes >= 1, "a topology needs at least one node");
        let layers = cfg.layers.len();
        TopoExtension {
            usage: vec![[0; KIND_COUNT]; nodes],
            overflow: vec![[0; KIND_COUNT]; nodes],
            layer_usage: vec![vec![[0; KIND_COUNT]; nodes]; layers],
            records: BTreeMap::new(),
            next_id: 0,
            waitlists: vec![VecDeque::new(); nodes],
            stats: RdaStats::default(),
            sink: None,
            breaker_open: vec![[false; KIND_COUNT]; nodes],
            breaker_above: vec![[0; KIND_COUNT]; nodes],
            breaker_below: vec![[0; KIND_COUNT]; nodes],
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TopoConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> RdaStats {
        self.stats
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.cfg.spec.node_count()
    }

    /// Nominal usage of a kind on a node.
    pub fn usage(&self, node: NodeId, k: ResourceKind) -> u64 {
        self.usage[node.0 as usize][k.index()]
    }

    /// Overflow-bucket usage of a kind on a node.
    pub fn overflow_usage(&self, node: NodeId, k: ResourceKind) -> u64 {
        self.overflow[node.0 as usize][k.index()]
    }

    /// Nominal usage one layer holds of a kind on a node.
    pub fn layer_usage(&self, layer: LayerId, node: NodeId, k: ResourceKind) -> u64 {
        self.layer_usage[layer.0 as usize][node.0 as usize][k.index()]
    }

    /// Number of periods waiting on a node.
    pub fn waitlist_len(&self, node: NodeId) -> usize {
        self.waitlists[node.0 as usize].len()
    }

    /// Number of live periods (admitted + waitlisted).
    pub fn live_periods(&self) -> usize {
        self.records.len()
    }

    /// Whether the saturation breaker is open for a kind on a node.
    pub fn breaker_is_open(&self, node: NodeId, k: ResourceKind) -> bool {
        self.breaker_open[node.0 as usize][k.index()]
    }

    /// Attach a trace sink; subsequent calls emit events into it.
    pub fn install_trace(&mut self, sink: TraceSink) {
        self.sink = Some(sink);
    }

    /// The attached trace sink, if any.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.sink.as_ref()
    }

    /// Mutable access to the attached trace sink.
    pub fn trace_mut(&mut self) -> Option<&mut TraceSink> {
        self.sink.as_mut()
    }

    /// Detach the trace sink.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.sink.take()
    }

    fn trace_kind(k: ResourceKind) -> TraceResource {
        match k {
            ResourceKind::Llc => TraceResource::Llc,
            ResourceKind::MemBw => TraceResource::MemBandwidth,
            ResourceKind::DramCap => TraceResource::DramCap,
        }
    }

    /// The leading nonzero component of a vector, for single-slot
    /// trace-event payloads. Zero vectors report `(llc, 0)`.
    fn primary(d: &Demand) -> (TraceResource, u64) {
        match d.touched().next() {
            Some(k) => (Self::trace_kind(k), d.get(k)),
            None => (TraceResource::Llc, 0),
        }
    }

    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(ev);
        }
    }

    /// Capacity other layers' guarantees reserve away from `layer` for
    /// kind `k` on node `n` (see the formula in [`crate::layer`]).
    fn reserved_by_others(&self, n: usize, k: ResourceKind, layer: LayerId) -> u64 {
        let mut reserved = 0u64;
        for (li, spec) in self.cfg.layers.layers.iter().enumerate() {
            if li as u32 == layer.0 {
                continue;
            }
            if let Some(g) = spec.guarantee {
                let unused = g.get(k).saturating_sub(self.layer_usage[li][n][k.index()]);
                reserved = reserved.saturating_add(unused);
            }
        }
        reserved
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

    /// Whether node `n` can admit `acc` nominally for `layer` right
    /// now. `Err(kind)` reports that accounting the component would
    /// wrap the 64-bit book (the node is disqualified, not merely
    /// busy). A component above the policy's usage limit can never fit
    /// and is skipped — the same deadlock guard as the scalar
    /// predicate, per component.
    fn node_admittable(&self, n: usize, layer: LayerId, acc: &Demand) -> Result<bool, ResourceKind> {
        let policy = self.cfg.layers.spec(layer).policy;
        for k in ResourceKind::ALL {
            let a = acc.get(k);
            if a == 0 {
                continue;
            }
            let i = k.index();
            if self.usage[n][i].checked_add(a).is_none() {
                return Err(k);
            }
            let lim = policy.usage_limit(self.cfg.spec.caps[n][i]);
            if a > lim {
                continue;
            }
            let limit = lim.saturating_sub(self.reserved_by_others(n, k, layer));
            if self.usage[n][i] + a > limit {
                return Ok(false);
            }
        }
        Ok(true)
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
            let occ = self.usage[n][i] as u128 + self.overflow[n][i] as u128;
            score = score.max((occ << 32) / cap as u128);
        }
        score
    }

    #[allow(clippy::too_many_arguments)]
    fn register(
        &mut self,
        process: ProcessId,
        site: SiteId,
        layer: LayerId,
        node: NodeId,
        declared: Demand,
        accounted: Demand,
        admitted: bool,
        overflow: bool,
        now: SimTime,
    ) -> PpId {
        let id = PpId(self.next_id);
        self.next_id += 1;
        self.records.insert(
            id.0,
            TopoRecord {
                id,
                process,
                site,
                layer,
                node,
                declared,
                accounted,
                admitted,
                overflow,
                begun_at: now,
            },
        );
        id
    }

    /// Add `acc` to node `n`'s nominal books for `layer`. Checked
    /// two-pass: if any component would wrap the usage book *or* the
    /// per-layer ledger, nothing is added and the wrapping kind is
    /// returned — the caller converts it into a typed
    /// [`TopoError::DemandOverflow`] rejection.
    fn account_nominal(&mut self, n: usize, layer: LayerId, acc: &Demand) -> Result<(), ResourceKind> {
        let li = layer.0 as usize;
        for k in ResourceKind::ALL {
            let i = k.index();
            let a = acc.get(k);
            if self.usage[n][i].checked_add(a).is_none()
                || self.layer_usage[li][n][i].checked_add(a).is_none()
            {
                return Err(k);
            }
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
        for k in ResourceKind::ALL {
            if self.overflow[n][k.index()].checked_add(acc.get(k)).is_none() {
                return Err(k);
            }
        }
        for k in ResourceKind::ALL {
            self.overflow[n][k.index()] += acc.get(k);
        }
        Ok(())
    }

    /// Release a completed or reclaimed record's vector from the
    /// matching bucket on its node.
    fn release(&mut self, rec: &TopoRecord) {
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
    ) -> Result<BeginOutcome, TopoError> {
        let layer = self.cfg.layers.layer_of(process.0);
        let policy = self.cfg.layers.spec(layer).policy;
        if !policy.is_gating() {
            return Ok(BeginOutcome::Bypass);
        }
        self.stats.begins += 1;
        let (pres, pamt) = Self::primary(&demand);
        let mut ev = TraceEvent::at(now.cycles(), EventKind::Begin);
        ev.node = NO_NODE;
        ev.process = process.0;
        ev.site = site.0;
        ev.resource = pres;
        ev.amount = pamt;
        self.emit(ev);

        // Demand audit, per component, against the machine-wide
        // maximum capacity of the kind: a demand no node could ever
        // hold nominally is impossible, whatever the placement.
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
                    ev.kind = EventKind::Reject;
                    ev.reject = RejectKind::DemandOverflow;
                    self.emit(ev);
                    return Err(TopoError::DemandOverflow {
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

        // Saturation breakers exclude nodes from placement; when every
        // node sheds this demand class the arrival is shed outright.
        let nodes = self.node_count();
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
                // All-blocked implies the scan recorded a blocker; if
                // the books disagree, count the desync and shed with a
                // neutral attribution rather than panic.
                let (node, kind) = match first_block {
                    Some(b) => b,
                    None => {
                        self.stats.desyncs += 1;
                        (NodeId(0), ResourceKind::ALL[0])
                    }
                };
                self.stats.shed += 1;
                ev.kind = EventKind::Shed;
                ev.reject = RejectKind::BreakerOpen;
                self.emit(ev);
                return Err(TopoError::BreakerOpen { node, kind });
            }
        }

        // Placement: least-occupied feasible node, ties to the lowest
        // id. Nodes whose books would wrap are disqualified; if every
        // eligible node wraps, the demand is impossible to account.
        let mut best: Option<(u128, usize)> = None;
        let mut all_wrap = true;
        let mut wrap_kind = None;
        for n in 0..nodes {
            if !eligible[n] {
                continue;
            }
            let acc = self.accounted_on(n, &audited, policy);
            match self.node_admittable(n, layer, &acc) {
                Err(k) => {
                    if wrap_kind.is_none() {
                        wrap_kind = Some(k);
                    }
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
        if all_wrap {
            // At least one eligible node survived the breaker gate, so
            // all-wrap implies a recorded kind; desync-tolerate anyway.
            let k = match wrap_kind {
                Some(k) => k,
                None => {
                    self.stats.desyncs += 1;
                    ResourceKind::ALL[0]
                }
            };
            self.stats.clamped += 1;
            ev.kind = EventKind::Reject;
            ev.reject = RejectKind::DemandOverflow;
            self.emit(ev);
            return Err(TopoError::DemandOverflow {
                kind: k,
                declared: audited.get(k),
                capacity: self.cfg.spec.max_capacity(k),
            });
        }

        if let Some((_, n)) = best {
            let acc = self.accounted_on(n, &audited, policy);
            if acc
                .touched()
                .any(|k| acc.get(k) > policy.usage_limit(self.cfg.spec.caps[n][k.index()]))
            {
                self.stats.oversized_admits += 1;
            }
            if let Err(k) = self.account_nominal(n, layer, &acc) {
                self.stats.clamped += 1;
                ev.kind = EventKind::Reject;
                ev.reject = RejectKind::DemandOverflow;
                self.emit(ev);
                return Err(TopoError::DemandOverflow {
                    kind: k,
                    declared: acc.get(k),
                    capacity: self.cfg.spec.max_capacity(k),
                });
            }
            let pp = self.register(
                process,
                site,
                layer,
                NodeId(n as u32),
                audited,
                acc,
                true,
                false,
                now,
            );
            self.stats.admitted += 1;
            ev.kind = EventKind::Admit;
            ev.node = n as u32;
            ev.pp = pp.0;
            let (r, a) = Self::primary(&acc);
            ev.resource = r;
            ev.amount = a;
            self.emit(ev);
            return Ok(BeginOutcome::Run { pp, fast: false });
        }

        // No node fits: pin the arrival to the least-occupied eligible
        // node's waitlist, behind that node's overload gate.
        let Some(target) = (0..nodes)
            .filter(|&n| eligible[n])
            .min_by_key(|&n| (self.occupancy_score(n, &audited), n))
        else {
            // Unreachable when the books are sound (the all-blocked
            // case returned above); shed instead of panicking.
            self.stats.desyncs += 1;
            self.stats.shed += 1;
            ev.kind = EventKind::Shed;
            ev.reject = RejectKind::BreakerOpen;
            self.emit(ev);
            return Err(TopoError::BreakerOpen {
                node: NodeId(0),
                kind: ResourceKind::ALL[0],
            });
        };
        let acc = self.accounted_on(target, &audited, policy);
        let mut shed_victim = None;
        if let Some(ov) = self.cfg.overload {
            if self.waitlists[target].len() >= ov.waitlist_cap {
                match ov.shed_policy {
                    ShedPolicy::RejectOldest if !self.waitlists[target].is_empty() => {
                        let Some(victim) = self.waitlists[target].pop_front() else {
                            // Queue emptied between the guard and the
                            // pop — a books desync; fall back to the
                            // tail-drop behaviour of the `_` arm.
                            self.stats.desyncs += 1;
                            self.stats.shed += 1;
                            ev.kind = EventKind::Shed;
                            ev.node = target as u32;
                            ev.reject = RejectKind::WaitlistFull;
                            self.emit(ev);
                            return Err(TopoError::WaitlistFull {
                                node: NodeId(target as u32),
                            });
                        };
                        let mut sv = TraceEvent::at(now.cycles(), EventKind::Shed);
                        sv.node = target as u32;
                        sv.pp = victim.pp.0;
                        let (r, a) = Self::primary(&victim.accounted);
                        sv.resource = r;
                        sv.amount = a;
                        sv.reject = RejectKind::WaitlistFull;
                        sv.wait_cycles =
                            now.cycles().saturating_sub(victim.enqueued_at.cycles());
                        match self.records.remove(&victim.pp.0) {
                            Some(rec) => {
                                sv.process = rec.process.0;
                                sv.site = rec.site.0;
                            }
                            None => self.stats.desyncs += 1,
                        }
                        self.stats.shed += 1;
                        self.emit(sv);
                        shed_victim = Some(victim.pp);
                    }
                    ShedPolicy::DegradeToOverflow => {
                        if let Err(k) = self.account_overflow(target, &acc) {
                            self.stats.clamped += 1;
                            ev.kind = EventKind::Reject;
                            ev.reject = RejectKind::DemandOverflow;
                            self.emit(ev);
                            return Err(TopoError::DemandOverflow {
                                kind: k,
                                declared: acc.get(k),
                                capacity: self.cfg.spec.max_capacity(k),
                            });
                        }
                        let pp = self.register(
                            process,
                            site,
                            layer,
                            NodeId(target as u32),
                            audited,
                            acc,
                            true,
                            true,
                            now,
                        );
                        self.stats.shed += 1;
                        ev.kind = EventKind::Shed;
                        ev.node = target as u32;
                        ev.pp = pp.0;
                        let (r, a) = Self::primary(&acc);
                        ev.resource = r;
                        ev.amount = a;
                        self.emit(ev);
                        return Ok(BeginOutcome::Run { pp, fast: false });
                    }
                    _ => {
                        self.stats.shed += 1;
                        ev.kind = EventKind::Shed;
                        ev.node = target as u32;
                        ev.reject = RejectKind::WaitlistFull;
                        self.emit(ev);
                        return Err(TopoError::WaitlistFull {
                            node: NodeId(target as u32),
                        });
                    }
                }
            }
        }
        let pp = self.register(
            process,
            site,
            layer,
            NodeId(target as u32),
            audited,
            acc,
            false,
            false,
            now,
        );
        self.waitlists[target].push_back(TopoWaitEntry {
            pp,
            accounted: acc,
            enqueued_at: now,
        });
        self.stats.paused += 1;
        self.stats.max_waitlist = self
            .stats
            .max_waitlist
            .max(self.waitlists[target].len() as u64);
        ev.kind = EventKind::Pause;
        ev.node = target as u32;
        ev.pp = pp.0;
        let (r, a) = Self::primary(&acc);
        ev.resource = r;
        ev.amount = a;
        self.emit(ev);
        Ok(BeginOutcome::Pause {
            pp,
            shed: shed_victim,
        })
    }

    /// Process a `pp_end`. Misbehaving applications get the same typed
    /// rejections as the scalar engine; state is untouched on every
    /// error path. The completed period's node is drained afterwards.
    pub fn pp_end(&mut self, pp: PpId, now: SimTime) -> Result<EndOutcome, TopoError> {
        self.stats.ends += 1;
        let mut ev = TraceEvent::at(now.cycles(), EventKind::End);
        ev.node = NO_NODE;
        ev.pp = pp.0;
        let Some(&rec) = self.records.get(&pp.0) else {
            self.stats.rejected_ends += 1;
            let (err, reject) = if pp.0 < self.next_id {
                (TopoError::DoubleEnd(pp), RejectKind::DoubleEnd)
            } else {
                (TopoError::UnknownPp(pp), RejectKind::UnknownPp)
            };
            ev.kind = EventKind::Reject;
            ev.reject = reject;
            self.emit(ev);
            return Err(err);
        };
        if !rec.admitted {
            self.stats.rejected_ends += 1;
            ev.kind = EventKind::Reject;
            ev.reject = RejectKind::EndWhileWaitlisted;
            ev.node = rec.node.0;
            ev.process = rec.process.0;
            ev.site = rec.site.0;
            self.emit(ev);
            return Err(TopoError::EndWhileWaitlisted(pp));
        }
        self.records.remove(&pp.0);
        self.release(&rec);
        ev.node = rec.node.0;
        ev.process = rec.process.0;
        ev.site = rec.site.0;
        let (r, a) = Self::primary(&rec.accounted);
        ev.resource = r;
        ev.amount = a;
        self.emit(ev);
        let resumed = self.drain_node(rec.node.0 as usize, now);
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
        let live: Vec<u64> = self
            .records
            .values()
            .filter(|r| r.process == process)
            .map(|r| r.id.0)
            .collect();
        let had_any = !live.is_empty();
        let count = live.len() as u64;
        let mut touched = vec![false; self.node_count()];
        for id in live {
            let Some(rec) = self.records.remove(&id) else {
                self.stats.desyncs += 1;
                continue;
            };
            let n = rec.node.0 as usize;
            touched[n] = true;
            if rec.admitted {
                self.release(&rec);
            } else {
                let q = &mut self.waitlists[n];
                if let Some(pos) = q.iter().position(|e| e.pp.0 == id) {
                    q.remove(pos);
                }
            }
            self.stats.reclaimed += 1;
        }
        let mut ev = TraceEvent::at(now.cycles(), EventKind::Exit);
        ev.node = NO_NODE;
        ev.process = process.0;
        ev.amount = count;
        self.emit(ev);
        if !had_any {
            return Vec::new();
        }
        let mut resumed = Vec::new();
        for n in 0..self.node_count() {
            if touched[n] || self.has_expired_waiter(n, now) {
                resumed.extend(self.drain_node(n, now));
            }
        }
        resumed
    }

    /// Apply waitlist aging at `now` on every node: expire waiters past
    /// their deadline, force-admit waiters past the aging timeout,
    /// admit newly fitting heads, then evaluate the per-node breakers.
    pub fn age_waitlist(&mut self, now: SimTime) -> AgeOutcome {
        let mut out = AgeOutcome::default();
        if self.cfg.waitlist_timeout_cycles.is_none() && self.cfg.overload.is_none() {
            return out;
        }
        let deadline = self.cfg.overload.and_then(|o| o.deadline_cycles);
        let nodes = self.node_count();
        let mut expired_touched = vec![false; nodes];
        if let Some(deadline) = deadline {
            for n in 0..nodes {
                // Enqueue times are monotone per queue, so expired
                // waiters form a prefix: oldest-first by construction.
                while let Some(&front) = self.waitlists[n].front() {
                    if now.since(front.enqueued_at).cycles() < deadline {
                        break;
                    }
                    self.waitlists[n].pop_front();
                    match self.records.remove(&front.pp.0) {
                        Some(rec) => {
                            self.stats.expired += 1;
                            expired_touched[n] = true;
                            let mut ev = TraceEvent::at(now.cycles(), EventKind::Expire);
                            ev.node = n as u32;
                            ev.process = rec.process.0;
                            ev.site = rec.site.0;
                            ev.pp = front.pp.0;
                            let (r, a) = Self::primary(&front.accounted);
                            ev.resource = r;
                            ev.amount = a;
                            ev.wait_cycles =
                                now.cycles().saturating_sub(front.enqueued_at.cycles());
                            self.emit(ev);
                            out.expired.push((front.pp, rec.process));
                        }
                        None => self.stats.desyncs += 1,
                    }
                }
            }
        }
        for n in 0..nodes {
            if expired_touched[n] || self.has_expired_waiter(n, now) {
                out.resumed.extend(self.drain_node(n, now));
            }
        }
        self.evaluate_breaker(now);
        out
    }

    /// Record a client-side retry of a previously shed or expired
    /// arrival (mirrors the scalar engine's counter).
    pub fn note_retry(&mut self, process: ProcessId, site: SiteId, k: ResourceKind, now: SimTime) {
        self.stats.retried += 1;
        let mut ev = TraceEvent::at(now.cycles(), EventKind::Retry);
        ev.node = NO_NODE;
        ev.process = process.0;
        ev.site = site.0;
        ev.resource = Self::trace_kind(k);
        self.emit(ev);
    }

    /// True when node `n` has a waiter past the aging timeout. O(1):
    /// enqueue times are monotone, so the front is the oldest.
    fn has_expired_waiter(&self, n: usize, now: SimTime) -> bool {
        let Some(timeout) = self.cfg.waitlist_timeout_cycles else {
            return false;
        };
        match self.waitlists[n].front() {
            Some(e) => now.since(e.enqueued_at).cycles() >= timeout,
            None => false,
        }
    }

    /// Per-node, per-kind breaker hysteresis (same thresholds on every
    /// node; occupancy is the node's nominal + overflow for the kind).
    fn evaluate_breaker(&mut self, now: SimTime) {
        let Some(b) = self.cfg.overload.and_then(|o| o.breaker) else {
            return;
        };
        for n in 0..self.node_count() {
            for k in ResourceKind::ALL {
                let i = k.index();
                let occupancy = self.usage[n][i].saturating_add(self.overflow[n][i]);
                if self.breaker_open[n][i] {
                    if occupancy < b.low_water {
                        self.breaker_below[n][i] += 1;
                        if self.breaker_below[n][i] >= b.recover_after {
                            self.breaker_open[n][i] = false;
                            self.breaker_below[n][i] = 0;
                            let mut ev = TraceEvent::at(now.cycles(), EventKind::BreakerReset);
                            ev.node = n as u32;
                            ev.resource = Self::trace_kind(k);
                            ev.amount = occupancy;
                            self.emit(ev);
                        }
                    } else {
                        self.breaker_below[n][i] = 0;
                    }
                } else if occupancy >= b.high_water {
                    self.breaker_above[n][i] += 1;
                    if self.breaker_above[n][i] >= b.trip_after {
                        self.breaker_open[n][i] = true;
                        self.breaker_above[n][i] = 0;
                        self.stats.breaker_trips += 1;
                        let mut ev = TraceEvent::at(now.cycles(), EventKind::BreakerTrip);
                        ev.node = n as u32;
                        ev.resource = Self::trace_kind(k);
                        ev.amount = occupancy;
                        self.emit(ev);
                    }
                } else {
                    self.breaker_above[n][i] = 0;
                }
            }
        }
    }

    /// Walk node `n`'s FIFO admitting while the head fits (every
    /// component re-evaluated), interleaved with aging force-admission
    /// of timed-out heads into the overflow bucket.
    fn drain_node(&mut self, n: usize, now: SimTime) -> Vec<(PpId, ProcessId)> {
        let mut resumed = Vec::new();
        loop {
            while let Some(&head) = self.waitlists[n].front() {
                let Some(&rec) = self.records.get(&head.pp.0) else {
                    // Orphaned waitlist entry (its record vanished):
                    // drop it, count the desync, keep draining behind.
                    self.waitlists[n].pop_front();
                    self.stats.desyncs += 1;
                    continue;
                };
                if !matches!(self.node_admittable(n, rec.layer, &head.accounted), Ok(true)) {
                    break;
                }
                if self.account_nominal(n, rec.layer, &head.accounted).is_err() {
                    // The per-layer ledger would wrap: leave the head
                    // parked; aging can still degrade it into the
                    // (checked) overflow bucket.
                    break;
                }
                self.waitlists[n].pop_front();
                if let Some(r) = self.records.get_mut(&head.pp.0) {
                    r.admitted = true;
                }
                self.stats.resumed += 1;
                let mut ev = TraceEvent::at(now.cycles(), EventKind::Resume);
                ev.node = n as u32;
                ev.process = rec.process.0;
                ev.site = rec.site.0;
                ev.pp = head.pp.0;
                let (r, a) = Self::primary(&head.accounted);
                ev.resource = r;
                ev.amount = a;
                ev.wait_cycles = now.cycles().saturating_sub(head.enqueued_at.cycles());
                self.emit(ev);
                resumed.push((head.pp, rec.process));
            }
            // The head (if any) does not fit. Aging: force-admit it
            // once it has waited past the timeout; removing it may let
            // queued periods behind it fit nominally.
            let Some(timeout) = self.cfg.waitlist_timeout_cycles else {
                break;
            };
            let Some(&head) = self.waitlists[n].front() else {
                break;
            };
            if now.since(head.enqueued_at).cycles() < timeout {
                break;
            }
            self.waitlists[n].pop_front();
            if !self.records.contains_key(&head.pp.0) {
                // Orphaned aged head: drop it and keep draining.
                self.stats.desyncs += 1;
                continue;
            }
            if self.account_overflow(n, &head.accounted).is_err() {
                // The overflow bucket would wrap: the head can neither
                // run nominally nor degrade. Shed it outright rather
                // than wedge the queue behind it forever.
                let mut sv = TraceEvent::at(now.cycles(), EventKind::Shed);
                sv.node = n as u32;
                sv.pp = head.pp.0;
                sv.reject = RejectKind::DemandOverflow;
                let (r, a) = Self::primary(&head.accounted);
                sv.resource = r;
                sv.amount = a;
                sv.wait_cycles = now.cycles().saturating_sub(head.enqueued_at.cycles());
                if let Some(rec) = self.records.remove(&head.pp.0) {
                    sv.process = rec.process.0;
                    sv.site = rec.site.0;
                }
                self.stats.clamped += 1;
                self.stats.shed += 1;
                self.emit(sv);
                continue;
            }
            let Some(rec) = self.records.get_mut(&head.pp.0) else {
                self.stats.desyncs += 1;
                continue;
            };
            rec.admitted = true;
            rec.overflow = true;
            let (process, site) = (rec.process, rec.site);
            self.stats.aged_admissions += 1;
            let mut ev = TraceEvent::at(now.cycles(), EventKind::Age);
            ev.node = n as u32;
            ev.process = process.0;
            ev.site = site.0;
            ev.pp = head.pp.0;
            let (r, a) = Self::primary(&head.accounted);
            ev.resource = r;
            ev.amount = a;
            ev.wait_cycles = now.cycles().saturating_sub(head.enqueued_at.cycles());
            self.emit(ev);
            resumed.push((head.pp, process));
        }
        resumed
    }

    /// A complete, comparable snapshot of the observable state.
    pub fn snapshot(&self) -> TopoSnapshot {
        TopoSnapshot {
            usage: self.usage.clone(),
            overflow: self.overflow.clone(),
            waitlists: self
                .waitlists
                .iter()
                .map(|q| {
                    q.iter()
                        .map(|e| TopoWaitSnap {
                            pp: e.pp,
                            accounted: e.accounted,
                            enqueued_cycles: e.enqueued_at.cycles(),
                        })
                        .collect()
                })
                .collect(),
            periods: self
                .records
                .values()
                .map(|r| TopoPpSnap {
                    id: r.id,
                    process: r.process,
                    site: r.site,
                    layer: r.layer,
                    node: r.node,
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

    /// Internal consistency: every book on every node equals the sum
    /// recomputed from the record store, per layer too, and each
    /// waitlist agrees with the records entry by entry.
    pub fn check_invariants(&self) -> Result<(), TopoError> {
        let nodes = self.node_count();
        let layers = self.cfg.layers.len();
        let mut usage = vec![[0u64; KIND_COUNT]; nodes];
        let mut overflow = vec![[0u64; KIND_COUNT]; nodes];
        let mut lusage = vec![vec![[0u64; KIND_COUNT]; nodes]; layers];
        let mut waiting = vec![0u64; nodes];
        for rec in self.records.values() {
            let n = rec.node.0 as usize;
            if rec.admitted {
                for k in ResourceKind::ALL {
                    let i = k.index();
                    let a = rec.accounted.get(k);
                    if rec.overflow {
                        overflow[n][i] += a;
                    } else {
                        usage[n][i] += a;
                        lusage[rec.layer.0 as usize][n][i] += a;
                    }
                }
            } else {
                waiting[n] += 1;
            }
        }
        for n in 0..nodes {
            for k in ResourceKind::ALL {
                let i = k.index();
                let node = NodeId(n as u32);
                if usage[n][i] != self.usage[n][i] {
                    return Err(TopoError::InvariantViolation {
                        node,
                        kind: k,
                        what: "nominal usage",
                        expected: usage[n][i],
                        actual: self.usage[n][i],
                    });
                }
                if overflow[n][i] != self.overflow[n][i] {
                    return Err(TopoError::InvariantViolation {
                        node,
                        kind: k,
                        what: "overflow usage",
                        expected: overflow[n][i],
                        actual: self.overflow[n][i],
                    });
                }
                for l in 0..layers {
                    if lusage[l][n][i] != self.layer_usage[l][n][i] {
                        return Err(TopoError::InvariantViolation {
                            node,
                            kind: k,
                            what: "layer usage",
                            expected: lusage[l][n][i],
                            actual: self.layer_usage[l][n][i],
                        });
                    }
                }
            }
        }
        for n in 0..nodes {
            let node = NodeId(n as u32);
            for e in &self.waitlists[n] {
                match self.records.get(&e.pp.0) {
                    None => {
                        return Err(TopoError::InvariantViolation {
                            node,
                            kind: ResourceKind::Llc,
                            what: "waitlist record missing",
                            expected: e.pp.0,
                            actual: 0,
                        })
                    }
                    Some(rec) if rec.admitted => {
                        return Err(TopoError::InvariantViolation {
                            node,
                            kind: ResourceKind::Llc,
                            what: "waitlisted record admitted",
                            expected: 0,
                            actual: e.pp.0,
                        })
                    }
                    Some(rec) if rec.node != node => {
                        return Err(TopoError::InvariantViolation {
                            node,
                            kind: ResourceKind::Llc,
                            what: "waitlisted record on wrong node",
                            expected: node.0 as u64,
                            actual: rec.node.0 as u64,
                        })
                    }
                    Some(_) => {}
                }
            }
            if waiting[n] != self.waitlists[n].len() as u64 {
                return Err(TopoError::InvariantViolation {
                    node,
                    kind: ResourceKind::Llc,
                    what: "waitlist count",
                    expected: waiting[n],
                    actual: self.waitlists[n].len() as u64,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerSpec;

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
        assert_eq!(e.reserved_by_others(0, ResourceKind::Llc, LayerId(0)), 10);
        e.pp_end(lat, t(3)).unwrap();
        e.check_invariants().unwrap();
    }

    #[test]
    fn trivial_single_layer_has_no_reservations() {
        let e = two_node();
        assert_eq!(e.reserved_by_others(0, ResourceKind::Llc, LayerId(0)), 0);
    }

    #[test]
    fn end_rejections_are_typed_and_state_preserving() {
        let mut e = two_node();
        let pp = run(&mut e, 0, 0, Demand::llc(10), t(0));
        assert_eq!(
            e.pp_end(PpId(99), t(1)),
            Err(TopoError::UnknownPp(PpId(99)))
        );
        e.pp_end(pp, t(2)).unwrap();
        assert_eq!(e.pp_end(pp, t(3)), Err(TopoError::DoubleEnd(pp)));
        // Fill both nodes so the next arrival must wait.
        run(&mut e, 1, 0, Demand::llc(100), t(4));
        run(&mut e, 2, 0, Demand::llc(100), t(5));
        let BeginOutcome::Pause { pp: w2, .. } = e
            .pp_begin(ProcessId(3), SiteId(0), Demand::llc(100), t(6))
            .unwrap()
        else {
            panic!("expected Pause");
        };
        assert_eq!(e.pp_end(w2, t(7)), Err(TopoError::EndWhileWaitlisted(w2)));
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
            TopoError::DemandOverflow {
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
        assert_eq!(
            cfg.spec.capacity(NodeId(0), ResourceKind::MemBw),
            scalar.membw_capacity
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
        e.records.remove(&orphan.0);
        let out = e.pp_end(holder, t(3)).unwrap();
        assert_eq!(e.stats().desyncs, 1);
        assert_eq!(out.resumed, vec![(behind, ProcessId(2))]);
        assert!(e.snapshot().waitlists[0].is_empty());
        e.check_invariants().unwrap();
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
            TopoError::DemandOverflow {
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
        e.layer_usage[0][0][ResourceKind::Llc.index()] = u64::MAX;
        let err = e
            .pp_begin(ProcessId(0), SiteId(0), Demand::llc(10), t(0))
            .unwrap_err();
        assert!(matches!(
            err,
            TopoError::DemandOverflow {
                kind: ResourceKind::Llc,
                ..
            }
        ));
        assert_eq!(e.usage[0][ResourceKind::Llc.index()], 0);
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
