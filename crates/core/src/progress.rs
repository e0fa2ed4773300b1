//! The progress monitor of the paper's Figure 2, for both engines.
//!
//! *"The progress monitor stores all active progress period information
//! in a registry"* and re-attempts waitlisted periods whenever one
//! completes (§3.1). [`ProgressMonitor`] is that component for the
//! scalar [`crate::RdaExtension`] and the topology
//! [`crate::TopoExtension`] alike: the [`PpRegistry`] of live periods,
//! one [`Node`] record per node (the scalar engine has one) holding its
//! [`Waitlist`], its drain mark and its saturation breakers, the
//! [`RdaStats`] counters and the optional [`TraceSink`], together with
//! every bookkeeping step a period's lifecycle takes through them —
//! validating an end, the breaker's shed check, the bounded gate's
//! evict, degrade, drop and enqueue arms, reclaiming an exit, the drain
//! with its shed, expiry and desync actions, the breaker ticks — each
//! counted and traced here, once. The invariant audit and the
//! [`Snapshot`] are stated here too.
//!
//! The engines keep the resource monitor (their books and the
//! arithmetic on them) and the admission decision. The monitor reaches
//! the books only through [`Drain`]: the fit test, the admit, age and
//! release accounting, and reads of each node's books and each layer's
//! ledger. A waiter's demand is kept once, in its [`PpRecord`]: the
//! drain hands the books the record it looks up before each fit and
//! each aging, and the snapshot reads each waiter's demand from it. An
//! engine's shell is therefore the same whatever its node count; only
//! its books and placement differ.

use crate::api::{PpId, SiteId};
use crate::config::{BreakerConfig, OverloadConfig};
use crate::error::{InvariantKind, RdaError};
use crate::extension::{AgeOutcome, BeginOutcome, RdaStats};
use crate::registry::{PpRecord, PpRegistry};
use crate::rules::{self, Breaker, Gate};
use crate::snapshot::{Snapshot, WaitSnap};
use crate::topology::{Demand, NodeId, ResourceKind, KIND_COUNT};
use crate::waitlist::{Drain, WaitEntry, Waitlist};
use rda_sched::ProcessId;
use rda_simcore::SimTime;
use rda_trace::{EventKind, RejectKind, TraceEvent, TraceResource, TraceSink};

/// Each resource kind as a trace-event payload slot, by kind index.
const TRACE_KIND: [TraceResource; KIND_COUNT] = [
    TraceResource::Llc,
    TraceResource::MemBandwidth,
    TraceResource::DramCap,
];

/// [`Demand::primary`] as a single-slot trace-event payload.
pub(crate) fn primary(d: &Demand) -> (TraceResource, u64) {
    let (k, amount) = d.primary();
    (TRACE_KIND[k.index()], amount)
}

/// `ev` as `kind` about period `pp`, placed on `rec`'s node with its
/// accounted demand.
pub(crate) fn placed(mut ev: TraceEvent, kind: EventKind, pp: PpId, rec: &PpRecord) -> TraceEvent {
    ev.kind = kind;
    ev.node = rec.node.0;
    ev.pp = pp.0;
    (ev.resource, ev.amount) = primary(&rec.accounted);
    ev
}

/// A trace event about waitlist entry `w` on node `n` leaving the queue
/// at `now`, attributed to its owner, with its demand, when the record
/// is known.
fn waiter_event(
    kind: EventKind,
    n: usize,
    w: &WaitEntry,
    rec: Option<&PpRecord>,
    now: SimTime,
) -> TraceEvent {
    let mut ev = TraceEvent::at(now.cycles(), kind);
    ev.node = n as u32;
    if let Some(rec) = rec {
        ev.process = rec.process.0;
        ev.site = rec.site.0;
        (ev.resource, ev.amount) = primary(&rec.accounted);
    }
    ev.pp = w.pp.0;
    ev.wait_cycles = now.cycles().saturating_sub(w.enqueued_at.cycles());
    ev
}

/// What the monitor keeps about one node.
#[derive(Debug, Clone, Default)]
pub(crate) struct Node {
    /// The periods waiting for this node, in queue order.
    pub(crate) waitlist: Waitlist,
    /// Set when the last exit reclaimed a period here, or the last
    /// deadline pass expired a waiter here: the node is drained next.
    marked: bool,
    /// One saturation breaker per kind (idle unless configured).
    breakers: [Breaker; KIND_COUNT],
}

/// The audit's check of each book: the nominal book, the overflow
/// bucket, a layer's ledger.
const BOOK_CHECKS: [InvariantKind; 3] = [
    InvariantKind::UsageMismatch,
    InvariantKind::OverflowMismatch,
    InvariantKind::LayerUsageMismatch,
];

/// A book mismatch the audit found: its rank (kind, book, layer), the
/// registry's sum and the book's value.
type Mismatch = ((usize, usize, usize), u64, u64);

/// The audit's report of `check` failing on node `n` and `kind`: the
/// registry's sum `e`, the book's value `a`.
fn violation(n: usize, kind: ResourceKind, check: InvariantKind, e: u64, a: u64) -> RdaError {
    RdaError::InvariantViolation {
        node: NodeId(n as u32),
        kind,
        check,
        expected: e,
        actual: a,
    }
}

/// The registry, the per-node records, the counters and the trace of
/// one engine, and the bookkeeping both engines do on them.
#[derive(Debug, Clone)]
pub(crate) struct ProgressMonitor {
    /// Live periods, iterated in id order.
    pub(crate) registry: PpRegistry,
    /// One record per node.
    pub(crate) nodes: Vec<Node>,
    /// Activity counters.
    pub(crate) stats: RdaStats,
    /// Optional observability sink. `None` (the default) is zero-cost:
    /// every emission site is one branch on the option. Events never
    /// feed back into scheduling decisions, so run digests are
    /// byte-identical with tracing on or off.
    pub(crate) sink: Option<TraceSink>,
    /// The `node` of events before placement or about no node: 0 in
    /// the scalar engine's single-node trace, `NO_NODE` in the
    /// topology engine's.
    no_node: u32,
    /// Per kind, the capacity a [`RdaError::DemandOverflow`] reports:
    /// the machine-wide maximum the demand audit measures against.
    capacity: [u64; KIND_COUNT],
    /// [`Self::exit`]'s reusable buffer of reclaimed records.
    dying: Vec<PpRecord>,
}

impl ProgressMonitor {
    /// An idle monitor over `nodes` nodes, tracing events about no node
    /// as `no_node` and reporting demand overflows against `capacity`.
    pub(crate) fn new(nodes: usize, no_node: u32, capacity: [u64; KIND_COUNT]) -> Self {
        ProgressMonitor {
            registry: PpRegistry::new(),
            nodes: vec![Node::default(); nodes],
            stats: RdaStats::default(),
            sink: None,
            no_node,
            capacity,
            dying: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(ev);
        }
    }

    /// Count a gated `pp_begin` of `process` at `site` declaring
    /// `payload`, and trace it. The returned event is the template
    /// every outcome of the call reports on.
    #[inline]
    pub(crate) fn begin(
        &mut self,
        process: ProcessId,
        site: SiteId,
        payload: (TraceResource, u64),
        now: SimTime,
    ) -> TraceEvent {
        self.stats.begins += 1;
        let mut ev = TraceEvent::at(now.cycles(), EventKind::Begin);
        ev.node = self.no_node;
        ev.process = process.0;
        ev.site = site.0;
        (ev.resource, ev.amount) = payload;
        self.emit(ev);
        ev
    }

    /// Reject the begin `ev` describes with [`RdaError::DemandOverflow`]
    /// of `declared` on `kind`: the audit refused the declaration, or
    /// accounting it would wrap a 64-bit book.
    pub(crate) fn reject_overflow(
        &mut self,
        mut ev: TraceEvent,
        kind: ResourceKind,
        declared: u64,
    ) -> RdaError {
        self.stats.clamped += 1;
        ev.kind = EventKind::Reject;
        ev.reject = RejectKind::DemandOverflow;
        self.emit(ev);
        let capacity = self.capacity[kind.index()];
        RdaError::DemandOverflow {
            kind,
            declared,
            capacity,
        }
    }

    /// The first kind whose breaker on node `n` is open and sheds the
    /// demand class of `d` under `b`. Out of line: inlined, it grows the
    /// scalar `pp_begin`, which calls it only with a breaker configured.
    #[inline(never)]
    pub(crate) fn blocked(&self, b: &BreakerConfig, n: usize, d: &Demand) -> Option<ResourceKind> {
        let bank = &self.nodes[n].breakers;
        (ResourceKind::ALL.into_iter()).find(|&k| bank[k.index()].sheds(b, d.get(k)))
    }

    /// Whether the breaker of kind `k` on node `n` is open.
    pub(crate) fn breaker_is_open(&self, n: usize, k: ResourceKind) -> bool {
        self.nodes[n].breakers[k.index()].is_open()
    }

    /// Shed the begin `ev` describes: the breaker of `kind` on `node`
    /// is open and sheds its demand class.
    pub(crate) fn shed_open_breaker(
        &mut self,
        mut ev: TraceEvent,
        node: NodeId,
        kind: ResourceKind,
    ) -> RdaError {
        self.stats.shed += 1;
        ev.kind = EventKind::Shed;
        ev.reject = RejectKind::BreakerOpen;
        self.emit(ev);
        RdaError::BreakerOpen { node, kind }
    }

    /// Park the arrival `ev` describes, which fits no book, behind the
    /// bounded gate ([`rules::gate`]) of the queue of `rec`'s node;
    /// `rec` is its record, placed and accounted. A head drop completes
    /// the evicted waiter as shed and queues the arrival; a tail drop
    /// sheds the arrival without allocating an id; a degrade admits it
    /// once `overflow` has accounted it into the node's overflow bucket,
    /// or rejects it when that bucket would wrap on the kind `overflow`
    /// returns.
    #[inline]
    pub(crate) fn park(
        &mut self,
        overload: Option<OverloadConfig>,
        rec: PpRecord,
        mut ev: TraceEvent,
        now: SimTime,
        overflow: impl FnOnce() -> Result<(), ResourceKind>,
    ) -> Result<BeginOutcome, RdaError> {
        let n = rec.node.0 as usize;
        let shed = match rules::gate(overload, &mut self.nodes[n].waitlist) {
            Gate::Queue => None,
            Gate::Evict(victim) => {
                let owner = self.registry.complete(victim.pp);
                if owner.is_none() {
                    self.stats.desyncs += 1;
                }
                let mut sv = waiter_event(EventKind::Shed, n, &victim, owner.as_ref(), now);
                sv.reject = RejectKind::WaitlistFull;
                self.stats.shed += 1;
                self.emit(sv);
                Some(victim.pp)
            }
            Gate::Degrade => {
                // Straight into the overflow bucket, like an aged
                // force-admission: invisible to Algorithm 1, so the
                // nominal books stay balanced.
                if let Err(k) = overflow() {
                    return Err(self.reject_overflow(ev, k, rec.accounted.get(k)));
                }
                let pp = self.registry.insert(|id| PpRecord {
                    id,
                    admitted: true,
                    overflow: true,
                    ..rec
                });
                self.stats.shed += 1;
                self.emit(placed(ev, EventKind::Shed, pp, &rec));
                return Ok(BeginOutcome::Run { pp, fast: false });
            }
            Gate::Drop => {
                self.stats.shed += 1;
                ev.kind = EventKind::Shed;
                ev.node = rec.node.0;
                ev.reject = RejectKind::WaitlistFull;
                self.emit(ev);
                return Err(RdaError::WaitlistFull { node: rec.node });
            }
        };
        let pp = self.registry.insert(|id| PpRecord {
            id,
            admitted: false,
            ..rec
        });
        if let Err(e) = self.nodes[n].waitlist.push(WaitEntry {
            pp,
            enqueued_at: now,
        }) {
            // A freshly allocated id cannot already be waitlisted; if
            // it is, the waitlist and registry have desynchronized. Roll
            // the registration back so the books stay balanced, and
            // surface the typed error instead of panicking.
            self.registry.complete(pp);
            self.stats.desyncs += 1;
            return Err(e);
        }
        self.stats.paused += 1;
        let queued = self.nodes[n].waitlist.len() as u64;
        self.stats.max_waitlist = self.stats.max_waitlist.max(queued);
        self.emit(placed(ev, EventKind::Pause, pp, &rec));
        Ok(BeginOutcome::Pause { pp, shed })
    }

    /// Count a `pp_end` of `pp` and complete the period, returning its
    /// record for the engine to release and trace. An id that was never
    /// allocated ([`RdaError::UnknownPp`]), a period that already ended
    /// or was reclaimed ([`RdaError::DoubleEnd`]) and a period still
    /// waitlisted ([`RdaError::EndWhileWaitlisted`]) are rejected and
    /// traced; nothing else changes on any error path.
    #[inline]
    pub(crate) fn end(&mut self, pp: PpId, now: SimTime) -> Result<PpRecord, RdaError> {
        self.stats.ends += 1;
        let (err, reject, waiting) = match self.registry.get(pp) {
            // `get` found the record and nothing removed it since, so
            // `complete` cannot fail — but if the registry has
            // desynchronized anyway, fail this one call with a typed
            // error rather than take the scheduler down.
            Some(live) if live.admitted => {
                return self.registry.complete(pp).ok_or_else(|| {
                    self.stats.desyncs += 1;
                    RdaError::RegistryDesync(pp)
                })
            }
            Some(&live) => {
                let reject = RejectKind::EndWhileWaitlisted;
                (RdaError::EndWhileWaitlisted(pp), reject, Some(live))
            }
            None if self.registry.was_allocated(pp) => {
                (RdaError::DoubleEnd(pp), RejectKind::DoubleEnd, None)
            }
            None => (RdaError::UnknownPp(pp), RejectKind::UnknownPp, None),
        };
        let mut ev = TraceEvent::at(now.cycles(), EventKind::Reject);
        (ev.node, ev.pp, ev.reject) = (self.no_node, pp.0, reject);
        if let Some(live) = waiting {
            (ev.node, ev.process, ev.site) = (live.node.0, live.process.0, live.site.0);
        }
        self.stats.rejected_ends += 1;
        self.emit(ev);
        Err(err)
    }

    /// Reclaim everything a dying `process` holds on every node — an
    /// admitted period's demand is released to `books`, a waitlisted
    /// one leaves its queue — count and trace the exit, then re-walk
    /// every node it reclaimed a period on (a vector release frees
    /// several kinds at once, and a cancelled entry can expose a
    /// fitting head behind it) or that holds a waiter past the aging
    /// `timeout`. Returns the periods the drains admitted.
    #[inline]
    pub(crate) fn exit(
        &mut self,
        process: ProcessId,
        now: SimTime,
        books: &mut impl Drain,
        timeout: Option<u64>,
    ) -> Vec<(PpId, ProcessId)> {
        let mut dying = std::mem::take(&mut self.dying);
        dying.clear();
        self.registry.reclaim(|r| r.process == process, &mut dying);
        self.nodes.iter_mut().for_each(|node| node.marked = false);
        for rec in &dying {
            let node = &mut self.nodes[rec.node.0 as usize];
            node.marked = true;
            if rec.admitted {
                books.release(rec);
            } else {
                node.waitlist.cancel(rec.id);
            }
        }
        let count = dying.len() as u64;
        self.stats.reclaimed += count;
        self.dying = dying;
        let mut ev = TraceEvent::at(now.cycles(), EventKind::Exit);
        (ev.node, ev.process, ev.amount) = (self.no_node, process.0, count);
        self.emit(ev);
        let mut resumed = Vec::new();
        if count > 0 {
            self.drain_marked(books, timeout, now, &mut resumed);
        }
        resumed
    }

    /// An aging tick, a no-op unless aging or overload control is on:
    /// expire, oldest-first by enqueue time, every waiter past the
    /// overload deadline, re-walk every node that expired one or holds
    /// a waiter past the aging `timeout`, then advance every breaker.
    /// No capacity was released since the last drain, so no other queue
    /// can admit anyone; the timeout probe is O(1) via each waitlist's
    /// cached minimum enqueue time.
    #[inline]
    pub(crate) fn age(
        &mut self,
        books: &mut impl Drain,
        timeout: Option<u64>,
        overload: Option<OverloadConfig>,
        now: SimTime,
    ) -> AgeOutcome {
        let mut out = AgeOutcome::default();
        if timeout.is_none() && overload.is_none() {
            return out;
        }
        self.nodes.iter_mut().for_each(|node| node.marked = false);
        if let Some(deadline) = overload.and_then(|o| o.deadline_cycles) {
            for n in 0..self.nodes.len() {
                while let Some(w) = self.nodes[n].waitlist.pop_expired(now, deadline) {
                    let Some(rec) = self.registry.complete(w.pp) else {
                        self.stats.desyncs += 1;
                        continue;
                    };
                    self.nodes[n].marked = true;
                    self.stats.expired += 1;
                    self.emit(waiter_event(EventKind::Expire, n, &w, Some(&rec), now));
                    out.expired.push((w.pp, rec.process));
                }
            }
        }
        self.drain_marked(books, timeout, now, &mut out.resumed);
        let Some(b) = overload.and_then(|o| o.breaker) else {
            return out;
        };
        // Each breaker ticks at its node's occupancy of its kind; a kind
        // the books do not hold stays at 0, so its breaker never trips.
        for n in 0..self.nodes.len() {
            let [nominal, overflow] = books.held(n);
            for k in ResourceKind::ALL {
                let i = k.index();
                let occupancy = nominal[i].saturating_add(overflow[i]);
                let Some(edge) = self.nodes[n].breakers[i].tick(&b, occupancy) else {
                    continue;
                };
                self.stats.breaker_trips += u64::from(edge == EventKind::BreakerTrip);
                let mut ev = TraceEvent::at(now.cycles(), edge);
                (ev.node, ev.resource, ev.amount) = (n as u32, TRACE_KIND[i], occupancy);
                self.emit(ev);
            }
        }
        out
    }

    /// Drain, in node order, every node the last exit or deadline pass
    /// marked and every node holding a waiter past the aging `timeout`.
    fn drain_marked(
        &mut self,
        books: &mut impl Drain,
        timeout: Option<u64>,
        now: SimTime,
        resumed: &mut Vec<(PpId, ProcessId)>,
    ) {
        for n in 0..self.nodes.len() {
            let node = &self.nodes[n];
            if node.marked || node.waitlist.has_expired(now, timeout) {
                self.drain(n, books, timeout, now, resumed);
            }
        }
    }

    /// Re-walk node `n`'s queue (Figure 6: "attempt to schedule any
    /// waiting threads previously blocked due to resource
    /// constraints"): admit from the head while the head fits. When it
    /// blocks, force-admit the oldest waiter past `timeout` (if aging is
    /// on) into the overflow bucket — or shed it when that bucket would
    /// wrap — and walk again: removing a blocker can let the periods
    /// behind it fit. An entry whose record is gone is dropped and
    /// counted as a desync. Appends the admitted periods to `resumed`.
    pub(crate) fn drain(
        &mut self,
        n: usize,
        books: &mut impl Drain,
        timeout: Option<u64>,
        now: SimTime,
        resumed: &mut Vec<(PpId, ProcessId)>,
    ) {
        // Force-admissions within one drain go strictly oldest-first.
        let mut last_aged: Option<SimTime> = None;
        loop {
            while let Some(head) = self.nodes[n].waitlist.front() {
                let Some(&rec) = self.registry.get(head.pp) else {
                    self.nodes[n].waitlist.pop();
                    self.stats.desyncs += 1;
                    continue;
                };
                if !books.fits(n, &rec) || !books.admit(n, &rec, now) {
                    break;
                }
                self.nodes[n].waitlist.pop();
                if let Some(r) = self.registry.get_mut(head.pp) {
                    r.admitted = true;
                }
                self.stats.resumed += 1;
                self.emit(waiter_event(EventKind::Resume, n, &head, Some(&rec), now));
                resumed.push((head.pp, rec.process));
            }
            let queue = &mut self.nodes[n].waitlist;
            let Some(aged) = timeout.and_then(|t| queue.pop_expired(now, t)) else {
                break;
            };
            debug_assert!(
                last_aged.is_none_or(|t| t <= aged.enqueued_at),
                "aging force-admitted out of oldest-first order"
            );
            last_aged = Some(aged.enqueued_at);
            let Some(&rec) = self.registry.get(aged.pp) else {
                self.stats.desyncs += 1;
                continue;
            };
            if books.age(n, &rec) {
                if let Some(r) = self.registry.get_mut(aged.pp) {
                    r.admitted = true;
                    r.overflow = true;
                }
                self.stats.aged_admissions += 1;
                self.emit(waiter_event(EventKind::Age, n, &aged, Some(&rec), now));
                resumed.push((aged.pp, rec.process));
            } else {
                self.registry.complete(aged.pp);
                self.stats.clamped += 1;
                self.stats.shed += 1;
                let mut ev = waiter_event(EventKind::Shed, n, &aged, Some(&rec), now);
                ev.reject = RejectKind::DemandOverflow;
                self.emit(ev);
            }
        }
    }

    /// Count a client-side retry and trace it against resource `k`.
    pub(crate) fn note_retry(
        &mut self,
        process: ProcessId,
        site: SiteId,
        k: ResourceKind,
        now: SimTime,
    ) {
        self.stats.retried += 1;
        let mut ev = TraceEvent::at(now.cycles(), EventKind::Retry);
        (ev.node, ev.process, ev.site) = (self.no_node, process.0, site.0);
        ev.resource = TRACE_KIND[k.index()];
        self.emit(ev);
    }

    /// An engine's internal consistency; a violation is a scheduler bug.
    /// First the books: on every node, each kind's nominal book,
    /// overflow bucket and layer ledgers equal the accounted sums over
    /// the admitted records they hold. Then the waitlists: every queued
    /// entry has a live, waitlisted record pinned to its node, and each
    /// node queues exactly the registry's waiters on it (reported on the
    /// LLC). Reports the first violation by node, then kind, then book:
    /// nominal, overflow, the ledgers in layer order. Allocates nothing.
    pub(crate) fn check(&self, books: &impl Drain) -> Result<(), RdaError> {
        for n in 0..self.nodes.len() {
            let [nominal, overflow] = books.held(n);
            let first = (0..)
                .map_while(|l| Some((l, books.ledger(l, n)?)))
                .filter_map(|(l, ledger)| self.mismatch(n, l, [nominal, overflow, ledger]))
                .min_by_key(|&(rank, ..)| rank);
            if let Some(((i, b, _), expected, actual)) = first {
                let kind = ResourceKind::ALL[i];
                return Err(violation(n, kind, BOOK_CHECKS[b], expected, actual));
            }
        }
        for (n, node) in self.nodes.iter().enumerate() {
            for e in node.waitlist.iter() {
                let (check, expected, actual) = match self.registry.get(e.pp) {
                    None => (InvariantKind::WaitlistRecordMissing, e.pp.0, 0),
                    Some(rec) if rec.admitted => (InvariantKind::WaitlistAdmitted, 0, e.pp.0),
                    Some(rec) if rec.node.0 as usize != n => (
                        InvariantKind::WaitlistWrongNode,
                        n as u64,
                        rec.node.0 as u64,
                    ),
                    Some(_) => continue,
                };
                return Err(violation(n, ResourceKind::Llc, check, expected, actual));
            }
            let waiting = (self.registry.iter())
                .filter(|r| !r.admitted && r.node.0 as usize == n)
                .count() as u64;
            let queued = node.waitlist.len() as u64;
            if waiting != queued {
                let check = InvariantKind::WaitlistCountMismatch;
                return Err(violation(n, ResourceKind::Llc, check, waiting, queued));
            }
        }
        Ok(())
    }

    /// The first mismatch on node `n`, in one registry pass, between the
    /// sums over its records and layer `l`'s ledger — and, in layer 0's
    /// pass, the nominal book and the overflow bucket — where `held`
    /// holds the three books as in [`BOOK_CHECKS`]: its rank (kind,
    /// book, layer), the sum and the book's value.
    fn mismatch(&self, n: usize, l: usize, held: [[u64; KIND_COUNT]; 3]) -> Option<Mismatch> {
        let mut sums = [[0u64; KIND_COUNT]; 3];
        for r in (self.registry.iter()).filter(|r| r.admitted && r.node.0 as usize == n) {
            let in_ledger = !r.overflow && r.layer.0 as usize == l;
            for (i, &a) in r.accounted.amounts.iter().enumerate() {
                sums[usize::from(r.overflow)][i] += a;
                sums[2][i] += if in_ledger { a } else { 0 };
            }
        }
        let checked = if l == 0 { 0..3 } else { 2..3 };
        (0..KIND_COUNT)
            .flat_map(|i| checked.clone().map(move |b| (i, b)))
            .find(|&(i, b)| sums[b][i] != held[b][i])
            .map(|(i, b)| ((i, b, l), sums[b][i], held[b][i]))
    }

    /// The engine's [`Snapshot`], reading its `books` node by node and
    /// each waiter's demand from its record.
    pub(crate) fn snapshot(&self, books: &impl Drain) -> Snapshot {
        let nodes = 0..self.nodes.len();
        Snapshot {
            usage: nodes.clone().map(|n| books.held(n)[0]).collect(),
            overflow: nodes.map(|n| books.held(n)[1]).collect(),
            waitlists: (self.nodes.iter())
                .map(|node| {
                    (node.waitlist.iter())
                        .map(|e| WaitSnap {
                            pp: e.pp,
                            accounted: (self.registry.get(e.pp))
                                .map_or(Demand::ZERO, |rec| rec.accounted),
                            enqueued_cycles: e.enqueued_at.cycles(),
                        })
                        .collect()
                })
                .collect(),
            periods: self.registry.iter().copied().collect(),
            stats: self.stats,
            allocated: self.registry.allocated(),
        }
    }
}
