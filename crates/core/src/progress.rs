//! The progress monitor of the paper's Figure 2, for both engines.
//!
//! *"The progress monitor stores all active progress period information
//! in a registry"* and re-attempts waitlisted periods whenever one
//! completes (§3.1). [`ProgressMonitor`] is that component for the
//! scalar [`crate::RdaExtension`] and the topology
//! [`crate::TopoExtension`] alike: the [`PpRegistry`] of live periods,
//! one [`Waitlist`] per node (the scalar engine has one node), the
//! [`RdaStats`] counters and the optional [`TraceSink`], together with
//! every bookkeeping step a period's lifecycle takes through them —
//! validating an end, the bounded gate's evict, degrade, drop and
//! enqueue arms, reclaiming an exit, the drain with its shed, expiry
//! and desync actions — each counted and traced here, once.
//!
//! The engines keep the resource monitor (their books and the
//! arithmetic on them) and the admission decision. The monitor reaches
//! the books only through the closures it is handed and through
//! [`Drain`], which supplies the fit test and the admit and age
//! accounting.

use crate::api::{PpId, SiteId};
use crate::config::OverloadConfig;
use crate::error::{InvariantKind, RdaError};
use crate::extension::{AgeOutcome, BeginOutcome, RdaStats};
use crate::registry::{PpRecord, PpRegistry};
use crate::rules::{self, Gate};
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
/// at `now`, attributed to its owner when the record is known.
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
    }
    ev.pp = w.pp.0;
    (ev.resource, ev.amount) = primary(&w.accounted);
    ev.wait_cycles = now.cycles().saturating_sub(w.enqueued_at.cycles());
    ev
}

/// The registry, the waitlists, the counters and the trace of one
/// engine, and the bookkeeping both engines do on them.
#[derive(Debug, Clone)]
pub(crate) struct ProgressMonitor {
    /// Live periods, iterated in id order.
    pub(crate) registry: PpRegistry,
    /// One waitlist per node; entries hold accounted demand vectors.
    pub(crate) waitlists: Vec<Waitlist>,
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
    /// One reusable mark per node: the nodes [`Self::exit`] reclaimed a
    /// period on, or [`Self::age`] expired a waiter on.
    touched: Vec<bool>,
}

impl ProgressMonitor {
    /// An idle monitor over `nodes` waitlists, tracing events about no
    /// node as `no_node` and reporting demand overflows against
    /// `capacity`.
    pub(crate) fn new(nodes: usize, no_node: u32, capacity: [u64; KIND_COUNT]) -> Self {
        ProgressMonitor {
            registry: PpRegistry::new(),
            waitlists: vec![Waitlist::new(); nodes],
            stats: RdaStats::default(),
            sink: None,
            no_node,
            capacity,
            dying: Vec::new(),
            touched: vec![false; nodes],
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
        let shed = match rules::gate(overload, &mut self.waitlists[n]) {
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
        if let Err(e) = self.waitlists[n].push(WaitEntry {
            pp,
            accounted: rec.accounted,
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
        let queued = self.waitlists[n].len() as u64;
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

    /// Reclaim everything a dying `process` holds on every node —
    /// `release` returns an admitted period's demand to `books`, a
    /// waitlisted one leaves its queue — count and trace the exit, then
    /// re-walk every node it reclaimed a period on (a vector release
    /// frees several kinds at once, and a cancelled entry can expose a
    /// fitting head behind it) or that holds a waiter past the aging
    /// `timeout`. Returns the periods the drains admitted.
    #[inline]
    pub(crate) fn exit<B: Drain>(
        &mut self,
        process: ProcessId,
        now: SimTime,
        books: &mut B,
        mut release: impl FnMut(&mut B, &PpRecord),
        timeout: Option<u64>,
    ) -> Vec<(PpId, ProcessId)> {
        let mut dying = std::mem::take(&mut self.dying);
        dying.clear();
        self.registry.reclaim(|r| r.process == process, &mut dying);
        self.touched.fill(false);
        for rec in &dying {
            let n = rec.node.0 as usize;
            self.touched[n] = true;
            if rec.admitted {
                release(books, rec);
            } else {
                self.waitlists[n].cancel(rec.id);
            }
        }
        let count = dying.len() as u64;
        self.stats.reclaimed += count;
        self.dying = dying;
        let mut ev = TraceEvent::at(now.cycles(), EventKind::Exit);
        ev.node = self.no_node;
        ev.process = process.0;
        ev.amount = count;
        self.emit(ev);
        let mut resumed = Vec::new();
        if count > 0 {
            self.drain_marked(books, timeout, now, &mut resumed);
        }
        resumed
    }

    /// The waitlist half of an aging tick, a no-op unless aging or
    /// overload control is on: expire, oldest-first by enqueue time,
    /// every waiter past the overload deadline, then re-walk every node
    /// that expired one or holds a waiter past the aging `timeout`.
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
        self.touched.fill(false);
        if let Some(deadline) = overload.and_then(|o| o.deadline_cycles) {
            for n in 0..self.waitlists.len() {
                while let Some(w) = self.waitlists[n].pop_expired(now, deadline) {
                    let Some(rec) = self.registry.complete(w.pp) else {
                        self.stats.desyncs += 1;
                        continue;
                    };
                    self.touched[n] = true;
                    self.stats.expired += 1;
                    self.emit(waiter_event(EventKind::Expire, n, &w, Some(&rec), now));
                    out.expired.push((w.pp, rec.process));
                }
            }
        }
        self.drain_marked(books, timeout, now, &mut out.resumed);
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
        for n in 0..self.waitlists.len() {
            if self.touched[n] || self.waitlists[n].has_expired(now, timeout) {
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
            while let Some(head) = self.waitlists[n].front() {
                let Some(&rec) = self.registry.get(head.pp) else {
                    self.waitlists[n].pop();
                    self.stats.desyncs += 1;
                    continue;
                };
                if !books.fits(n, &head, &rec) || !books.admit(n, &head, &rec, now) {
                    break;
                }
                self.waitlists[n].pop();
                if let Some(r) = self.registry.get_mut(head.pp) {
                    r.admitted = true;
                }
                self.stats.resumed += 1;
                self.emit(waiter_event(EventKind::Resume, n, &head, Some(&rec), now));
                resumed.push((head.pp, rec.process));
            }
            let Some(aged) = timeout.and_then(|t| self.waitlists[n].pop_expired(now, t)) else {
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
            if books.age(n, &aged) {
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
        ev.node = self.no_node;
        ev.process = process.0;
        ev.site = site.0;
        ev.resource = TRACE_KIND[k.index()];
        self.emit(ev);
    }

    /// Count and trace the edge a breaker crossed (see
    /// [`rules::Breaker::tick`]) for kind `k` on node `n`, at
    /// `occupancy`.
    pub(crate) fn breaker_edge(
        &mut self,
        edge: EventKind,
        n: usize,
        k: ResourceKind,
        occupancy: u64,
        now: SimTime,
    ) {
        self.stats.breaker_trips += u64::from(edge == EventKind::BreakerTrip);
        let mut ev = TraceEvent::at(now.cycles(), edge);
        ev.node = n as u32;
        ev.resource = TRACE_KIND[k.index()];
        ev.amount = occupancy;
        self.emit(ev);
    }

    /// The registry-against-waitlists half of an engine's invariant
    /// check: every queued entry has a live, waitlisted record pinned to
    /// its node, and each node queues exactly the registry's waiters on
    /// it. A violation is reported on the LLC.
    pub(crate) fn check_waitlists(&self) -> Result<(), RdaError> {
        for (n, queue) in self.waitlists.iter().enumerate() {
            let violation = |check, expected, actual| RdaError::InvariantViolation {
                node: NodeId(n as u32),
                kind: ResourceKind::Llc,
                check,
                expected,
                actual,
            };
            for e in queue.iter() {
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
                return Err(violation(check, expected, actual));
            }
            let waiting = (self.registry.iter())
                .filter(|r| !r.admitted && r.node.0 as usize == n)
                .count() as u64;
            let queued = queue.len() as u64;
            if waiting != queued {
                let check = InvariantKind::WaitlistCountMismatch;
                return Err(violation(check, waiting, queued));
            }
        }
        Ok(())
    }

    /// The engine's [`Snapshot`], given its books per node.
    pub(crate) fn snapshot(
        &self,
        usage: Vec<[u64; KIND_COUNT]>,
        overflow: Vec<[u64; KIND_COUNT]>,
    ) -> Snapshot {
        Snapshot {
            usage,
            overflow,
            waitlists: (self.waitlists.iter())
                .map(|q| {
                    q.iter()
                        .map(|e| WaitSnap {
                            pp: e.pp,
                            accounted: e.accounted,
                            enqueued_cycles: e.enqueued_at.cycles(),
                        })
                        .collect()
                })
                .collect(),
            periods: self.registry.iter().map(PpRecord::snap).collect(),
            stats: self.stats,
            allocated: self.registry.allocated(),
        }
    }
}
