//! The scalar scheduling extension (§3, Figures 2, 5, 6).
//!
//! [`RdaExtension`] is the component the simulation driver (and the
//! examples) talk to. It owns its books (one LLC row), the fast-path
//! cache and a progress monitor, and implements the two workflows of
//! Figures 5 and 6:
//!
//! * **`pp_begin`** — allocate a period id, run Algorithm 1
//!   ([`crate::rules::fits`]), and either account the demand and let
//!   the process run, or waitlist it (the caller leaves the process's
//!   threads blocked).
//! * **`pp_end`** — remove the period from the registry, release its
//!   demand from the resource monitor, then walk the waitlist FIFO
//!   admitting every period that now fits (the caller wakes those
//!   processes).
//!
//! Untracked processes are invisible here: *"Our system ignores
//! processes that have not provided progress period information, and
//! schedules them directly on the operating system."*
//!
//! # Fault model
//!
//! The paper assumes cooperative applications. This implementation does
//! not, and survives three classes of misbehaviour:
//!
//! * **Protocol violations** — an end for a period that was never begun,
//!   already ended, or is still waitlisted is rejected with a typed
//!   [`RdaError`] (counted in [`RdaStats::rejected_ends`]) instead of
//!   corrupting the load table or panicking.
//! * **Lying demands** — the demand auditor
//!   ([`crate::config::DemandAudit`]) clamps or rejects declarations
//!   larger than the resource itself, so one liar cannot hold more than
//!   one capacity's worth of the books ([`RdaStats::clamped`]).
//! * **Dying processes** — [`RdaExtension::process_exit`] reclaims every
//!   open period of an exiting process — admitted demand is released,
//!   waitlisted entries are cancelled — and re-walks the waitlist
//!   ([`RdaStats::reclaimed`]).
//!
//! Independently, **waitlist aging** (when
//! [`crate::config::RdaConfig::waitlist_timeout_cycles`] is set) bounds
//! worst-case wait: a period waiting past the timeout is force-admitted
//! into the degraded overflow bucket ([`RdaStats::aged_admissions`]),
//! which Algorithm 1 does not see, so it cannot wedge the nominal books.
//!
//! Every one of these rules — the fit test, the audit, the breaker, the
//! bounded gate, the drain with its aging and deadline passes — is the
//! topology engine's rule too, stated once in [`crate::rules`] and in
//! the progress monitor both engines embed. The monitor counts and
//! traces every step, keeps the breakers, and audits and snapshots the
//! books through [`Drain`]. This engine keeps its books, the wrap
//! guard, the fit-and-run block and the memoised fast path.

use crate::api::{PpDemand, PpId, SiteId};
use crate::config::RdaConfig;
use crate::error::RdaError;
use crate::fastpath::FastPathCache;
use crate::layer::LayerId;
use crate::monitor::ResourceMonitor;
use crate::policy::PolicyKind;
use crate::progress::ProgressMonitor;
use crate::registry::PpRecord;
use crate::rules;
use crate::snapshot::Snapshot;
use crate::topology::{Demand, NodeId, ResourceKind, KIND_COUNT};
use crate::waitlist::{Drain, WaitEntry};
use rda_sched::ProcessId;
use rda_simcore::SimTime;
use rda_trace::{EventKind, TraceEvent, TraceResource, TraceSink};

/// Activity counters of the extension.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RdaStats {
    /// `pp_begin` calls processed.
    pub begins: u64,
    /// `pp_end` calls processed (including rejected ones).
    pub ends: u64,
    /// Periods admitted immediately at `pp_begin`.
    pub admitted: u64,
    /// Periods paused (waitlisted) at `pp_begin`.
    pub paused: u64,
    /// Periods later admitted from the waitlist by Algorithm 1.
    pub resumed: u64,
    /// `pp_begin` calls served by the fast path.
    pub fast_begins: u64,
    /// `pp_end` calls served by the fast path.
    pub fast_ends: u64,
    /// Largest waitlist length observed.
    pub max_waitlist: u64,
    /// Admissions of a demand above the usage limit (the deadlock
    /// guard's), fast-path hits included.
    pub oversized_admits: u64,
    /// Periods reclaimed by [`RdaExtension::process_exit`] (open or
    /// waitlisted periods of a dying process).
    pub reclaimed: u64,
    /// Declared demands the auditor clamped or rejected, and demands
    /// refused because accounting them would wrap a 64-bit book.
    pub clamped: u64,
    /// Periods force-admitted by waitlist aging into the overflow
    /// bucket.
    pub aged_admissions: u64,
    /// `pp_end` calls rejected with a typed error (unknown id, double
    /// end, or end of a waitlisted period).
    pub rejected_ends: u64,
    /// Arrivals shed by overload control: bounded-gate drops (either
    /// end of the queue), breaker sheds, degraded direct-to-overflow
    /// admissions, and aged waiters whose overflow bucket would wrap.
    pub shed: u64,
    /// Waitlisted periods expired past their configured deadline.
    pub expired: u64,
    /// Client-side retries recorded via [`RdaExtension::note_retry`].
    pub retried: u64,
    /// Times the saturation circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Operations failed with [`RdaError::RegistryDesync`] or a
    /// rolled-back waitlist push — nonzero only if the extension itself
    /// has a bug. Excluded from the snapshot digest so existing golden
    /// digests stay valid.
    pub desyncs: u64,
}

/// Outcome of a `pp_begin` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginOutcome {
    /// The policy is [`PolicyKind::DefaultOnly`]: the call is not
    /// tracked at all (models an unmodified application on the stock
    /// scheduler — zero overhead).
    Bypass,
    /// Admitted: the process keeps running. `fast` reports whether the
    /// memoised fast path served the call (cost accounting).
    Run {
        /// The allocated period id.
        pp: PpId,
        /// Whether the fast path served the call.
        fast: bool,
    },
    /// Denied: the caller must pause the process until the id is
    /// returned by a later [`RdaExtension::pp_end`].
    Pause {
        /// The allocated (waitlisted) period id.
        pp: PpId,
        /// Under [`crate::config::ShedPolicy::RejectOldest`], the longest-queued
        /// waiter the gate evicted to make room for this arrival. The
        /// victim's period is already completed; the caller must fail
        /// its request. `None` when nothing was evicted.
        shed: Option<PpId>,
    },
}

/// Outcome of an aging tick ([`RdaExtension::age_waitlist`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgeOutcome {
    /// Waitlisted periods admitted (nominally or by aging); the caller
    /// must wake their processes.
    pub resumed: Vec<(PpId, ProcessId)>,
    /// Waitlisted periods expired past their deadline; their periods
    /// are already completed and the caller must fail their requests.
    /// Always empty unless [`crate::config::OverloadConfig::deadline_cycles`]
    /// is set.
    pub expired: Vec<(PpId, ProcessId)>,
}

/// Outcome of a `pp_end` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndOutcome {
    /// Whether the fast path served the call.
    pub fast: bool,
    /// Waitlisted periods admitted by this completion; the caller must
    /// wake their processes.
    pub resumed: Vec<(PpId, ProcessId)>,
}

/// The RDA scheduling extension.
#[derive(Debug, Clone)]
pub struct RdaExtension {
    cfg: RdaConfig,
    books: ScalarBooks,
    /// The registry, the one node's waitlist and breakers, the counters
    /// and the trace sink.
    progress: ProgressMonitor,
    /// Bumped by every call that can mutate the books (registry,
    /// monitor, waitlist) — [`Self::pp_begin`], [`Self::pp_end`],
    /// [`Self::process_exit`], [`Self::age_waitlist`]. Callers running
    /// a per-step [`Self::check_invariants`] sweep can skip
    /// re-checking while the epoch is unchanged: the check is a pure
    /// function of the books, so an unchanged epoch implies an
    /// unchanged verdict.
    books_epoch: u64,
}

/// The scalar engine's books — the resource monitor's LLC row — and
/// the fast-path cache that memoises decisions on them.
#[derive(Debug, Clone)]
struct ScalarBooks {
    monitor: ResourceMonitor,
    fastpath: FastPathCache,
    /// The policy's usage limit on the LLC, computed once so the hot
    /// path does no float arithmetic (DESIGN.md §10).
    limit: u64,
}

/// The scalar engine's one resource.
const LLC: ResourceKind = ResourceKind::Llc;

/// The LLC component of a record's vector.
fn llc(d: &Demand) -> u64 {
    d.get(LLC)
}

impl RdaExtension {
    /// Build an extension with the given configuration.
    pub fn new(cfg: RdaConfig) -> Self {
        let capacity = Demand::llc(cfg.llc_capacity).amounts;
        let books = ScalarBooks {
            monitor: ResourceMonitor::new(cfg.llc_capacity),
            fastpath: FastPathCache::new(cfg.min_eval_interval_cycles),
            limit: cfg.policy.usage_limit(cfg.llc_capacity),
        };
        RdaExtension {
            books,
            progress: ProgressMonitor::new(1, 0, capacity),
            books_epoch: 0,
            cfg,
        }
    }

    /// Attach a trace sink; subsequent calls emit events into it.
    pub fn install_trace(&mut self, sink: TraceSink) {
        self.progress.sink = Some(sink);
    }

    /// The attached trace sink, if any.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.progress.sink.as_ref()
    }

    /// Mutable access to the attached trace sink (the simulation uses
    /// this to record occupancy samples alongside the event stream).
    pub fn trace_mut(&mut self) -> Option<&mut TraceSink> {
        self.progress.sink.as_mut()
    }

    /// Detach the trace sink, e.g. to freeze it into a report at end of
    /// run.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.progress.sink.take()
    }

    /// The active configuration.
    pub fn config(&self) -> &RdaConfig {
        &self.cfg
    }

    /// The active policy.
    pub fn policy(&self) -> PolicyKind {
        self.cfg.policy
    }

    /// Counters so far.
    pub fn stats(&self) -> RdaStats {
        self.progress.stats
    }

    /// Current nominally tracked LLC usage (what Algorithm 1 sees;
    /// excludes the overflow bucket).
    pub fn usage(&self) -> u64 {
        self.books.monitor.usage()
    }

    /// Demand held by aged (overflow-admitted) periods.
    pub fn overflow_usage(&self) -> u64 {
        self.books.monitor.overflow()
    }

    /// Number of live periods (admitted + waitlisted) in the registry.
    pub fn live_periods(&self) -> usize {
        self.progress.registry.len()
    }

    /// Number of waitlisted periods.
    pub fn waitlist_len(&self) -> usize {
        self.progress.nodes[0].waitlist.len()
    }

    /// Enqueue time of the longest-waiting period — the next to be
    /// force-admitted when aging is enabled.
    pub fn oldest_wait(&self) -> Option<SimTime> {
        self.progress.nodes[0].waitlist.oldest()
    }

    /// A complete, comparable snapshot of the observable state: both
    /// accounting buckets, the waitlist in queue order, every live
    /// period, the activity counters, and the id-allocator position.
    /// It is the topology engine's snapshot of one node and one layer
    /// with LLC-only vectors, so on [`crate::topo::TopoConfig::compat`]
    /// the two engines' snapshots compare directly. O(live periods);
    /// used by the differential oracle in `rda-check` after every
    /// replayed event, and cheap enough for assertions in ordinary
    /// tests.
    pub fn snapshot(&self) -> Snapshot {
        self.progress.snapshot(&self.books)
    }

    /// Order-independent digest of the fast-path cache (see
    /// [`FastPathCache::digest`]), each entry with the usage threshold
    /// its amount implies. Not part of [`Snapshot`] — the cache is an
    /// accelerator, not scheduling state — but exposed so the
    /// differential oracle can compare memoisation state too.
    pub fn fastpath_digest(&self) -> u64 {
        let (policy, b) = (self.cfg.policy, &self.books);
        let capacity = b.monitor.capacity();
        (b.fastpath).digest(|amount| {
            b.limit
                .saturating_sub(policy.effective_demand(amount, capacity))
        })
    }

    /// Process a `pp_begin` from `process` at static site `site`.
    ///
    /// `Err` means the period is not tracked: the demand auditor or the
    /// wrap guard refused it ([`RdaError::DemandOverflow`]) — the caller
    /// should schedule the process directly on the OS, exactly as for
    /// untracked processes — or overload control shed it
    /// ([`RdaError::BreakerOpen`], [`RdaError::WaitlistFull`]).
    pub fn pp_begin(
        &mut self,
        process: ProcessId,
        site: SiteId,
        demand: PpDemand,
        now: SimTime,
    ) -> Result<BeginOutcome, RdaError> {
        self.books_epoch += 1;
        let policy = self.cfg.policy;
        if !policy.is_gating() {
            return Ok(BeginOutcome::Bypass);
        }
        let books = &mut self.books;
        let capacity = books.monitor.capacity();
        let payload = (TraceResource::Llc, demand.amount);
        let mut ev = self.progress.begin(process, site, payload, now);

        // Demand audit: a lying process must not be able to poison the
        // load table with an impossible declaration.
        let Some(audited) = rules::audit(self.cfg.demand_audit, demand.amount, capacity) else {
            return Err(self.progress.reject_overflow(ev, LLC, demand.amount));
        };
        if audited != demand.amount {
            self.progress.stats.clamped += 1;
        }
        // Saturation breaker: while open, shed the configured demand
        // class before it can touch the books.
        if let Some(b) = self.cfg.overload.and_then(|o| o.breaker) {
            if let Some(k) = self.progress.blocked(&b, 0, &Demand::llc(audited)) {
                return Err(self.progress.shed_open_breaker(ev, NodeId(0), k));
            }
        }
        let accounted = policy.effective_demand(audited, capacity);
        // Wrap guard: accounting this demand must not wrap the usage
        // word.
        if books.monitor.usage().checked_add(accounted).is_none() {
            return Err(self.progress.reject_overflow(ev, LLC, audited));
        }
        // Fast path: a repeat entry of a recently validated site while
        // no one is waitlisted ahead of us. A hit only marks the call
        // fast — it admits exactly what Algorithm 1 admits.
        let fast = self.progress.nodes[0].waitlist.is_empty()
            && books.fastpath.try_admit(
                process,
                site,
                audited,
                books.monitor.usage(),
                books.limit.saturating_sub(accounted),
                now,
            );
        // The record every outcome below registers.
        let proto = PpRecord {
            id: PpId(self.progress.registry.allocated()),
            process,
            site,
            layer: LayerId(0),
            node: NodeId(0),
            declared: Demand::llc(audited),
            accounted: Demand::llc(accounted),
            admitted: true,
            overflow: false,
            begun_at: now,
        };
        // Algorithm 1.
        if fast || rules::fits(books.limit, 0, books.monitor.usage(), accounted) {
            if accounted > books.limit {
                self.progress.stats.oversized_admits += 1;
            }
            books.monitor.increment_load(accounted);
            let pp = self.progress.registry.insert(|id| PpRecord { id, ..proto });
            self.progress.stats.admitted += 1;
            if fast {
                self.progress.stats.fast_begins += 1;
            } else {
                // Cache the verdict for repeats of this site.
                books.fastpath.store_run(process, site, audited, now);
            }
            ev.kind = EventKind::Admit;
            ev.pp = pp.0;
            ev.amount = accounted;
            ev.fast = fast;
            self.progress.emit(ev);
            return Ok(BeginOutcome::Run { pp, fast });
        }

        let degrade = || {
            let fits = books.monitor.increment_overflow(accounted);
            fits.then_some(()).ok_or(LLC)
        };
        (self.progress).park(self.cfg.overload, proto, ev, now, degrade)
    }

    /// Process a `pp_end` for a period previously returned by
    /// [`Self::pp_begin`]. Returns the waitlisted periods this
    /// completion admitted.
    ///
    /// Misbehaving applications get a typed error instead of a panic:
    /// an id that was never allocated ([`RdaError::UnknownPp`]), a
    /// period that already ended or was reclaimed when its process
    /// exited ([`RdaError::DoubleEnd`]), or a period still waitlisted —
    /// whose process should be paused and cannot legally reach the end
    /// marker ([`RdaError::EndWhileWaitlisted`]). The extension's state
    /// is untouched on every error path.
    pub fn pp_end(&mut self, pp: PpId, now: SimTime) -> Result<EndOutcome, RdaError> {
        self.books_epoch += 1;
        let record = self.progress.end(pp, now)?;
        self.books.release(&record);
        let mut ev = TraceEvent::at(now.cycles(), EventKind::End);
        ev.pp = pp.0;
        ev.process = record.process.0;
        ev.site = record.site.0;
        ev.amount = llc(&record.accounted);

        // With no waiters nothing can be woken. The completion is fast —
        // a shared-page decrement with deferred registry cleanup — when
        // the site was validated recently.
        if self.progress.nodes[0].waitlist.is_empty() {
            let fast = (self.books.fastpath).is_fresh(record.process, record.site, now);
            self.progress.stats.fast_ends += u64::from(fast);
            ev.fast = fast;
            self.progress.emit(ev);
            return Ok(EndOutcome {
                fast,
                resumed: Vec::new(),
            });
        }
        self.progress.emit(ev);
        let mut resumed = Vec::new();
        let timeout = self.cfg.waitlist_timeout_cycles;
        (self.progress).drain(0, &mut self.books, timeout, now, &mut resumed);
        Ok(EndOutcome {
            fast: false,
            resumed,
        })
    }

    /// Reclaim everything a dying (or exiting) process holds: release
    /// the demand of its admitted periods — nominal or overflow bucket
    /// as appropriate — cancel its waitlisted periods, drop its
    /// fast-path entries, and re-walk the waitlist with the released
    /// capacity. Returns the periods admitted from the waitlist; the
    /// caller must wake their processes.
    ///
    /// This is the kernel's exit-time reaper: it makes leaked `pp_end`s
    /// and mid-period crashes recoverable instead of permanent capacity
    /// leaks. Calling it for a process with no live periods is a cheap
    /// no-op, so callers may invoke it unconditionally on every exit.
    pub fn process_exit(&mut self, process: ProcessId, now: SimTime) -> Vec<(PpId, ProcessId)> {
        self.books_epoch += 1;
        self.books.fastpath.invalidate_process(process);
        let timeout = self.cfg.waitlist_timeout_cycles;
        (self.progress).exit(process, now, &mut self.books, timeout)
    }

    /// Apply waitlist aging at `now`: expire every waiter past its
    /// deadline (when deadlines are configured), force-admit every
    /// period that has waited past the aging timeout (no-op when aging
    /// is disabled), admit any newly fitting heads, then evaluate the
    /// saturation circuit breaker. Returns the admitted and expired
    /// periods; the caller must wake the former and fail the latter.
    ///
    /// The simulation driver calls this on its aging deadline so a
    /// starved period is admitted even when no `pp_end` ever arrives;
    /// with overload control enabled it must be called on every tick —
    /// breaker hysteresis advances only here.
    pub fn age_waitlist(&mut self, now: SimTime) -> AgeOutcome {
        self.books_epoch += 1;
        let (timeout, overload) = (self.cfg.waitlist_timeout_cycles, self.cfg.overload);
        self.progress.age(&mut self.books, timeout, overload, now)
    }

    /// Whether the saturation breaker is currently open.
    pub fn breaker_is_open(&self) -> bool {
        self.progress.breaker_is_open(0, LLC)
    }

    /// Record a client-side retry of a previously shed or expired
    /// arrival. The extension never schedules retries itself — the
    /// caller owns the backoff clock — but counting them here puts the
    /// retry stream into the stats digest and the trace, where the
    /// reference model can check it. The scalar engine tracks the LLC
    /// only, so it ignores the resource kind the retry names.
    pub fn note_retry(
        &mut self,
        process: ProcessId,
        site: SiteId,
        _resource: ResourceKind,
        now: SimTime,
    ) {
        (self.progress).note_retry(process, site, LLC, now);
    }

    /// Monotonic counter of book mutations (see the field doc). An
    /// unchanged value between two observations means the registry,
    /// monitor, and waitlist are bit-identical to the last look, so a
    /// previously passing [`Self::check_invariants`] still holds.
    pub fn books_epoch(&self) -> u64 {
        self.books_epoch
    }

    /// Internal consistency: the monitor's two buckets equal the
    /// registry's accounted sums, and the waitlist agrees with the
    /// registry record by record. Any violation is a scheduler bug —
    /// never an application bug — reported as a typed
    /// [`RdaError::InvariantViolation`]. One registry pass for the
    /// books (this runs after every simulation step that moved them).
    pub fn check_invariants(&self) -> Result<(), RdaError> {
        self.progress.check(&self.books)
    }
}

/// The one node's books; Algorithm 1 reads the accounted LLC demand
/// each entry stores. They report one layer, whose ledger is the
/// nominal book, and hold nothing but the LLC.
impl Drain for ScalarBooks {
    fn fits(&self, _n: usize, entry: &WaitEntry, _rec: &PpRecord) -> bool {
        rules::fits(self.limit, 0, self.monitor.usage(), llc(&entry.accounted))
    }

    fn admit(&mut self, _n: usize, entry: &WaitEntry, rec: &PpRecord, now: SimTime) -> bool {
        self.monitor.increment_load(llc(&entry.accounted));
        (self.fastpath).store_run(rec.process, rec.site, llc(&rec.declared), now);
        true
    }

    fn age(&mut self, _n: usize, entry: &WaitEntry) -> bool {
        self.monitor.increment_overflow(llc(&entry.accounted))
    }

    fn release(&mut self, record: &PpRecord) {
        if record.overflow {
            self.monitor.decrement_overflow(llc(&record.accounted));
        } else {
            self.monitor.decrement_load(llc(&record.accounted));
        }
    }

    fn held(&self, _n: usize) -> [[u64; KIND_COUNT]; 2] {
        [self.monitor.usage(), self.monitor.overflow()].map(|a| Demand::llc(a).amounts)
    }

    fn ledger(&self, l: usize, n: usize) -> Option<[u64; KIND_COUNT]> {
        (l == 0).then(|| self.held(n)[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::mb;
    use crate::config::{DemandAudit, ShedPolicy};
    use crate::error::InvariantKind;
    use rda_machine::{MachineConfig, ReuseLevel};

    fn ext(policy: PolicyKind) -> RdaExtension {
        RdaExtension::new(RdaConfig::for_machine(
            &MachineConfig::xeon_e5_2420(),
            policy,
        ))
    }

    fn ext_cfg(cfg: RdaConfig) -> RdaExtension {
        RdaExtension::new(cfg)
    }

    fn strict_cfg() -> RdaConfig {
        RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), PolicyKind::Strict)
    }

    fn demand(ws_mb: f64) -> PpDemand {
        PpDemand::llc(mb(ws_mb), ReuseLevel::High)
    }

    fn t(cycles: u64) -> SimTime {
        SimTime::from_cycles(cycles)
    }

    fn begin(e: &mut RdaExtension, p: u32, site: u32, d: PpDemand, now: SimTime) -> BeginOutcome {
        e.pp_begin(ProcessId(p), SiteId(site), d, now).unwrap()
    }

    fn must_run(e: &mut RdaExtension, p: u32, site: u32, d: PpDemand, now: SimTime) -> PpId {
        match begin(e, p, site, d, now) {
            BeginOutcome::Run { pp, .. } => pp,
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn default_only_bypasses_tracking() {
        let mut e = ext(PolicyKind::DefaultOnly);
        let out = begin(&mut e, 0, 0, demand(100.0), t(0));
        assert_eq!(out, BeginOutcome::Bypass);
        assert_eq!(e.stats().begins, 0);
        assert_eq!(e.usage(), 0);
    }

    #[test]
    fn strict_admits_until_full_then_pauses() {
        let mut e = ext(PolicyKind::Strict);
        // LLC is 15 MB; three 5 MB periods fit, the fourth pauses.
        let mut pps = Vec::new();
        for p in 0..3 {
            pps.push(must_run(&mut e, p, 0, demand(5.0), t(p as u64)));
        }
        let paused = match begin(&mut e, 3, 0, demand(5.0), t(3)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("expected Pause, got {other:?}"),
        };
        assert_eq!(e.waitlist_len(), 1);
        e.check_invariants().unwrap();

        // Ending one admitted period resumes the waiter.
        let out = e.pp_end(pps[0], t(10)).unwrap();
        assert!(!out.fast);
        assert_eq!(out.resumed, vec![(paused, ProcessId(3))]);
        assert_eq!(e.waitlist_len(), 0);
        e.check_invariants().unwrap();
    }

    #[test]
    fn compromise_allows_double_subscription() {
        let mut e = ext(PolicyKind::compromise_default());
        // 15 MB LLC, x=2 → 30 MB limit: five 6 MB periods admitted, the
        // sixth pauses.
        for p in 0..5 {
            assert!(matches!(
                begin(&mut e, p, 0, demand(6.0), t(p as u64)),
                BeginOutcome::Run { .. }
            ));
        }
        assert!(matches!(
            begin(&mut e, 5, 0, demand(6.0), t(5)),
            BeginOutcome::Pause { .. }
        ));
    }

    /// Compromise at x = 1.2 on the Xeon LLC: a period of exactly
    /// ⌊capacity·x⌋ bytes fits an idle cache. `1.2 − 1.0` rounds below
    /// 0.2 in f64, so a slack computed from it refused the period while
    /// the deadlock guard (which uses ⌊capacity·x⌋) did not fire: it
    /// paused on an idle cache and, without aging, waited forever.
    #[test]
    fn compromise_admits_its_usage_limit_on_an_idle_cache() {
        let mut e = ext(PolicyKind::Compromise { factor: 1.2 });
        let limit = e.policy().usage_limit(e.config().llc_capacity);
        assert_eq!(limit, 18_874_368);
        let d = PpDemand::llc(limit, ReuseLevel::High);
        assert!(matches!(
            begin(&mut e, 0, 0, d, t(0)),
            BeginOutcome::Run { .. }
        ));
        assert_eq!(e.stats().oversized_admits, 0);
        assert_eq!(e.usage(), limit);
        e.check_invariants().unwrap();
    }

    #[test]
    fn end_with_empty_waitlist_is_fast() {
        let mut e = ext(PolicyKind::Strict);
        let pp = must_run(&mut e, 0, 0, demand(1.0), t(0));
        let out = e.pp_end(pp, t(1)).unwrap();
        assert!(out.fast);
        assert!(out.resumed.is_empty());
        assert_eq!(e.stats().fast_ends, 1);
    }

    #[test]
    fn repeat_site_hits_fast_path() {
        let mut e = ext(PolicyKind::Strict);
        let interval = e.config().min_eval_interval_cycles;
        // First begin: slow.
        let pp = match begin(&mut e, 0, 9, demand(2.0), t(0)) {
            BeginOutcome::Run { pp, fast } => {
                assert!(!fast);
                pp
            }
            _ => panic!(),
        };
        e.pp_end(pp, t(10)).unwrap();
        // Repeat within the interval: fast.
        match begin(&mut e, 0, 9, demand(2.0), t(20)) {
            BeginOutcome::Run { pp, fast } => {
                assert!(fast);
                e.pp_end(pp, t(30)).unwrap();
            }
            _ => panic!(),
        }
        // Repeat after expiry: slow again.
        match begin(&mut e, 0, 9, demand(2.0), t(30 + interval + 1)) {
            BeginOutcome::Run { fast, .. } => assert!(!fast),
            _ => panic!(),
        }
        assert_eq!(e.stats().fast_begins, 1);
    }

    #[test]
    fn fast_path_never_admits_what_predicate_would_deny() {
        let mut e = ext(PolicyKind::Strict);
        // Warm the cache with a 6 MB site.
        let pp = must_run(&mut e, 0, 1, demand(6.0), t(0));
        e.pp_end(pp, t(1)).unwrap();
        // Fill the cache to 10 MB with another process.
        assert!(matches!(
            begin(&mut e, 1, 2, demand(10.0), t(2)),
            BeginOutcome::Run { .. }
        ));
        // The cached 6 MB site no longer fits (10 + 6 > 15): the fast
        // check must fail and the slow predicate must pause it.
        assert!(matches!(
            begin(&mut e, 0, 1, demand(6.0), t(3)),
            BeginOutcome::Pause { .. }
        ));
        e.check_invariants().unwrap();
    }

    #[test]
    fn waitlist_resume_is_fifo_and_cascading() {
        let mut e = ext(PolicyKind::Strict);
        let a = must_run(&mut e, 0, 0, demand(14.0), t(0));
        // Three small periods queue up behind the big one.
        for p in 1..4 {
            assert!(matches!(
                begin(&mut e, p, 0, demand(4.0), t(p as u64)),
                BeginOutcome::Pause { .. }
            ));
        }
        // Ending the 14 MB period admits all three 4 MB waiters (12 < 15).
        let out = e.pp_end(a, t(10)).unwrap();
        assert_eq!(out.resumed.len(), 3);
        let procs: Vec<u32> = out.resumed.iter().map(|&(_, p)| p.0).collect();
        assert_eq!(procs, vec![1, 2, 3], "FIFO order");
        e.check_invariants().unwrap();
    }

    #[test]
    fn algorithm1_admits_fitting_demand_despite_waiters() {
        // Algorithm 1 has no waiter check: a new demand that fits runs
        // immediately even while a bigger period is waitlisted.
        let mut e = ext(PolicyKind::Strict);
        let a = must_run(&mut e, 0, 0, demand(10.0), t(0));
        assert!(matches!(
            begin(&mut e, 1, 0, demand(12.0), t(1)),
            BeginOutcome::Pause { .. }
        ));
        // 10 + 2 <= 15: admitted straight away, ahead of the waiter.
        assert!(matches!(
            begin(&mut e, 2, 1, demand(2.0), t(2)),
            BeginOutcome::Run { .. }
        ));
        e.check_invariants().unwrap();
        // Ending the 10 MB period leaves 15-2=13; 12 fits in 13, so the
        // waiter resumes now.
        let out = e.pp_end(a, t(3)).unwrap();
        assert_eq!(out.resumed.len(), 1);
        assert_eq!(out.resumed[0].1, ProcessId(1));
        assert_eq!(e.waitlist_len(), 0);
    }

    #[test]
    fn head_of_line_blocking_preserves_fifo() {
        let mut e = ext(PolicyKind::Strict);
        let a = must_run(&mut e, 0, 0, demand(10.0), t(0));
        let b = must_run(&mut e, 3, 0, demand(4.0), t(1));
        // Big waiter first, small waiter second (usage is 14 MB).
        assert!(matches!(
            begin(&mut e, 1, 0, demand(12.0), t(2)),
            BeginOutcome::Pause { .. }
        ));
        assert!(matches!(
            begin(&mut e, 2, 0, demand(2.0), t(3)),
            BeginOutcome::Pause { .. }
        ));
        // Ending the 4 MB period leaves 10 MB used, 5 MB free: the
        // 12 MB head doesn't fit, and the FIFO resume loop stops there —
        // the 2 MB waiter behind it stays queued even though it fits.
        let out = e.pp_end(b, t(4)).unwrap();
        assert!(out.resumed.is_empty());
        assert_eq!(e.waitlist_len(), 2);
        let _ = a;
    }

    #[test]
    fn oversized_demand_admitted_with_guard() {
        let mut e = ext(PolicyKind::Strict);
        match begin(&mut e, 0, 0, demand(20.0), t(0)) {
            BeginOutcome::Run { .. } => {}
            other => panic!("oversized demand must run, got {other:?}"),
        }
        assert_eq!(e.stats().oversized_admits, 1);
        e.check_invariants().unwrap();
    }

    /// Starvation freedom without aging: a period whose demand alone
    /// exceeds LLC capacity can never pass the predicate, so FIFO
    /// waiting would park it forever. The oversized-demand guard must
    /// admit it even while the cache is fully subscribed — and the
    /// system must still drain back to idle afterwards.
    #[test]
    fn oversized_demand_is_never_starved() {
        let cfg = strict_cfg();
        let capacity = cfg.llc_capacity;
        let mut e = ext_cfg(cfg);
        // Saturate the LLC with three periods.
        let mut small = Vec::new();
        for p in 0..3 {
            let d = PpDemand::llc(capacity / 3, ReuseLevel::High);
            small.push(must_run(&mut e, p, 0, d, t(p as u64)));
        }
        // A demand bigger than the whole cache arrives while it is
        // full. Waitlisting it could never end (it will not fit even on
        // an idle cache), so it must be admitted immediately.
        let huge = PpDemand::llc(capacity + mb(5.0), ReuseLevel::High);
        let huge_pp = must_run(&mut e, 9, 1, huge, t(10));
        assert_eq!(e.stats().oversized_admits, 1);
        e.check_invariants().unwrap();

        // Everything still drains to idle.
        e.pp_end(huge_pp, t(20)).unwrap();
        for pp in small {
            e.pp_end(pp, t(30)).unwrap();
        }
        assert_eq!(e.usage(), 0);
        assert_eq!(e.waitlist_len(), 0);
        e.check_invariants().unwrap();
    }

    #[test]
    fn process_exit_releases_and_resumes() {
        let mut e = ext(PolicyKind::Strict);
        assert!(matches!(
            begin(&mut e, 0, 0, demand(14.0), t(0)),
            BeginOutcome::Run { .. }
        ));
        assert!(matches!(
            begin(&mut e, 1, 0, demand(5.0), t(1)),
            BeginOutcome::Pause { .. }
        ));
        let resumed = e.process_exit(ProcessId(0), t(2));
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].1, ProcessId(1));
        assert_eq!(e.usage(), mb(5.0));
        assert_eq!(e.stats().reclaimed, 1);
        e.check_invariants().unwrap();
    }

    #[test]
    fn process_exit_cancels_waitlisted_periods() {
        let mut e = ext(PolicyKind::Strict);
        let a = must_run(&mut e, 0, 0, demand(14.0), t(0));
        assert!(matches!(
            begin(&mut e, 1, 0, demand(5.0), t(1)),
            BeginOutcome::Pause { .. }
        ));
        // The waiting process dies before it is ever admitted: its
        // entry must not outlive it.
        let resumed = e.process_exit(ProcessId(1), t(2));
        assert!(resumed.is_empty());
        assert_eq!(e.waitlist_len(), 0);
        assert_eq!(e.live_periods(), 1);
        assert_eq!(e.stats().reclaimed, 1);
        e.check_invariants().unwrap();
        e.pp_end(a, t(3)).unwrap();
        assert_eq!(e.usage(), 0);
    }

    #[test]
    fn process_exit_reclaims_leaked_periods() {
        let mut e = ext(PolicyKind::Strict);
        // Two periods begun, neither ever ended (leaked pp_ends).
        must_run(&mut e, 7, 0, demand(6.0), t(0));
        must_run(&mut e, 7, 1, demand(4.0), t(1));
        assert_eq!(e.usage(), mb(10.0));
        let resumed = e.process_exit(ProcessId(7), t(100));
        assert!(resumed.is_empty());
        assert_eq!(e.usage(), 0, "all leaked demand reclaimed");
        assert_eq!(e.live_periods(), 0);
        assert_eq!(e.stats().reclaimed, 2);
        e.check_invariants().unwrap();
    }

    #[test]
    fn process_exit_without_periods_is_a_noop() {
        let mut e = ext(PolicyKind::Strict);
        let pp = must_run(&mut e, 0, 0, demand(2.0), t(0));
        assert!(e.process_exit(ProcessId(42), t(1)).is_empty());
        assert_eq!(e.stats().reclaimed, 0);
        assert_eq!(e.usage(), mb(2.0));
        e.pp_end(pp, t(2)).unwrap();
    }

    #[test]
    fn end_of_unknown_and_completed_periods_is_typed() {
        let mut e = ext(PolicyKind::Strict);
        // Never-allocated id.
        assert_eq!(
            e.pp_end(PpId(999), t(0)),
            Err(RdaError::UnknownPp(PpId(999)))
        );
        let pp = must_run(&mut e, 0, 0, demand(1.0), t(0));
        e.pp_end(pp, t(1)).unwrap();
        // Same id again: a double end, not an unknown id.
        assert_eq!(e.pp_end(pp, t(2)), Err(RdaError::DoubleEnd(pp)));
        assert_eq!(e.stats().rejected_ends, 2);
        // The books are untouched by the rejections.
        assert_eq!(e.usage(), 0);
        e.check_invariants().unwrap();
    }

    #[test]
    fn end_while_waitlisted_is_rejected() {
        let mut e = ext(PolicyKind::Strict);
        let a = must_run(&mut e, 0, 0, demand(14.0), t(0));
        let waiting = match begin(&mut e, 1, 0, demand(5.0), t(1)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            e.pp_end(waiting, t(2)),
            Err(RdaError::EndWhileWaitlisted(waiting))
        );
        // The entry is still queued and resumes normally.
        let out = e.pp_end(a, t(3)).unwrap();
        assert_eq!(out.resumed, vec![(waiting, ProcessId(1))]);
        e.check_invariants().unwrap();
    }

    #[test]
    fn audit_clamp_bounds_a_lying_demand() {
        let cfg = strict_cfg().with_demand_audit(DemandAudit::Clamp);
        let capacity = cfg.llc_capacity;
        let mut e = ext_cfg(cfg);
        // A process claims 10× the cache. Clamped to capacity, it is
        // admitted on the idle cache through the normal predicate (no
        // oversized guard needed) and holds exactly one capacity.
        let lie = PpDemand::llc(capacity * 10, ReuseLevel::High);
        let pp = must_run(&mut e, 0, 0, lie, t(0));
        assert_eq!(e.stats().clamped, 1);
        assert_eq!(e.stats().oversized_admits, 0);
        assert_eq!(e.usage(), capacity);
        e.check_invariants().unwrap();
        e.pp_end(pp, t(1)).unwrap();
        assert_eq!(e.usage(), 0);
    }

    #[test]
    fn audit_reject_refuses_a_lying_demand() {
        let cfg = strict_cfg().with_demand_audit(DemandAudit::Reject);
        let capacity = cfg.llc_capacity;
        let mut e = ext_cfg(cfg);
        let lie = PpDemand::llc(capacity + 1, ReuseLevel::High);
        let err = e.pp_begin(ProcessId(0), SiteId(0), lie, t(0)).unwrap_err();
        assert_eq!(
            err,
            RdaError::DemandOverflow {
                kind: ResourceKind::Llc,
                declared: capacity + 1,
                capacity,
            }
        );
        assert_eq!(e.stats().clamped, 1);
        assert_eq!(e.live_periods(), 0, "rejected demand is not tracked");
        // An honest demand still goes through.
        assert!(matches!(
            begin(&mut e, 0, 0, demand(2.0), t(1)),
            BeginOutcome::Run { .. }
        ));
        e.check_invariants().unwrap();
    }

    #[test]
    fn aging_force_admits_a_starved_waiter() {
        let cfg = strict_cfg().with_waitlist_timeout_cycles(1_000);
        let mut e = ext_cfg(cfg);
        let hog = must_run(&mut e, 0, 0, demand(14.0), t(0));
        let starved = match begin(&mut e, 1, 0, demand(10.0), t(10)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("{other:?}"),
        };
        // Before the timeout, nothing moves.
        assert_eq!(e.age_waitlist(t(500)), AgeOutcome::default());
        assert_eq!(e.waitlist_len(), 1);
        // After it, the waiter is force-admitted into the overflow
        // bucket — the nominal books are untouched.
        let out = e.age_waitlist(t(1_010));
        assert_eq!(out.resumed, vec![(starved, ProcessId(1))]);
        assert!(out.expired.is_empty(), "no deadlines configured");
        assert_eq!(e.stats().aged_admissions, 1);
        assert_eq!(e.usage(), mb(14.0));
        assert_eq!(e.overflow_usage(), mb(10.0));
        e.check_invariants().unwrap();
        // Both paths drain their own bucket.
        e.pp_end(starved, t(2_000)).unwrap();
        assert_eq!(e.overflow_usage(), 0);
        e.pp_end(hog, t(2_001)).unwrap();
        assert_eq!(e.usage(), 0);
        e.check_invariants().unwrap();
    }

    #[test]
    fn aging_force_admits_oldest_first_despite_queue_order() {
        // A non-monotonic caller (trace replay, direct API use) parks
        // a later-stamped period ahead of an earlier-stamped one.
        // Aging must force-admit by wait time, not queue position: the
        // entry that has actually waited past the timeout goes first,
        // and a younger queue-head must not block it.
        let cfg = strict_cfg().with_waitlist_timeout_cycles(1_000);
        let mut e = ext_cfg(cfg);
        let _hog = must_run(&mut e, 0, 0, demand(14.0), t(0));
        let young = match begin(&mut e, 1, 0, demand(10.0), t(500)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("{other:?}"),
        };
        let old = match begin(&mut e, 2, 0, demand(10.0), t(100)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("{other:?}"),
        };
        // At t=1200 only the t=100 entry has waited ≥ 1000 cycles.
        let out = e.age_waitlist(t(1_200));
        assert_eq!(out.resumed, vec![(old, ProcessId(2))], "oldest-first");
        assert_eq!(e.waitlist_len(), 1);
        // The younger entry ages out later, in its own turn.
        let out = e.age_waitlist(t(1_600));
        assert_eq!(out.resumed, vec![(young, ProcessId(1))]);
        assert_eq!(e.stats().aged_admissions, 2);
        e.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_captures_observable_state() {
        let cfg = strict_cfg().with_waitlist_timeout_cycles(1_000);
        let mut e = ext_cfg(cfg);
        let a = must_run(&mut e, 0, 0, demand(14.0), t(0));
        let waiting = match begin(&mut e, 1, 1, demand(5.0), t(7)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("{other:?}"),
        };
        let s = e.snapshot();
        assert_eq!(s.usage, vec![[mb(14.0), 0, 0]]);
        assert_eq!(s.overflow, vec![[0; 3]]);
        assert_eq!(s.allocated, 2);
        assert_eq!(s.periods.len(), 2);
        assert!(s.periods[0].admitted && !s.periods[1].admitted);
        assert_eq!(s.waitlists.len(), 1);
        assert_eq!(s.waitlists[0].len(), 1);
        assert_eq!(s.waitlists[0][0].pp, waiting);
        assert_eq!(s.waitlists[0][0].enqueued_cycles, 7);
        assert_eq!(s.stats, e.stats());
        assert!(!s.is_idle());
        // Snapshots are pure reads: identical back-to-back.
        assert_eq!(s, e.snapshot());
        assert_eq!(s.digest(), e.snapshot().digest());
        // Draining everything returns the snapshot to idle.
        e.pp_end(a, t(10)).unwrap();
        e.pp_end(waiting, t(11)).unwrap();
        assert!(e.snapshot().is_idle());
    }

    #[test]
    fn aging_unblocks_fitting_periods_behind_the_head() {
        let cfg = strict_cfg().with_waitlist_timeout_cycles(1_000);
        let mut e = ext_cfg(cfg);
        // Saturate the cache with two periods (8 + 7 = 15 MB).
        let a = must_run(&mut e, 0, 0, demand(8.0), t(0));
        let _b = must_run(&mut e, 1, 0, demand(7.0), t(0));
        // Head: 12 MB. Behind it: 6 MB. Neither fits while saturated.
        let head = match begin(&mut e, 2, 0, demand(12.0), t(10)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("{other:?}"),
        };
        let small = match begin(&mut e, 3, 0, demand(6.0), t(20)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("{other:?}"),
        };
        // Ending the 8 MB period long after the timeout leaves 7 MB
        // used. The 12 MB head still does not fit (19 > 15) and without
        // aging would block the 6 MB entry (7 + 6 ≤ 15) forever. The
        // drain must age the head into the overflow bucket, then admit
        // the small entry nominally on the re-walk.
        let out = e.pp_end(a, t(5_000)).unwrap();
        assert_eq!(
            out.resumed,
            vec![(head, ProcessId(2)), (small, ProcessId(3))]
        );
        assert_eq!(e.stats().aged_admissions, 1, "only the head was aged");
        assert_eq!(e.stats().resumed, 1, "the small entry fit nominally");
        assert_eq!(e.usage(), mb(13.0));
        assert_eq!(e.overflow_usage(), mb(12.0));
        e.check_invariants().unwrap();
    }

    #[test]
    fn pp_end_drains_aged_heads_too() {
        // Aging must also fire on the pp_end path, not only on the
        // explicit age_waitlist timer.
        let cfg = strict_cfg().with_waitlist_timeout_cycles(1_000);
        let mut e = ext_cfg(cfg);
        let a = must_run(&mut e, 0, 0, demand(8.0), t(0));
        let b = must_run(&mut e, 1, 0, demand(7.0), t(0));
        let big = match begin(&mut e, 2, 0, demand(12.0), t(10)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("{other:?}"),
        };
        // Ending the 8 MB period at t=5_000 leaves 7 MB used; the
        // 12 MB head still does not fit nominally, but it expired long
        // ago, so the end must force-admit it.
        let out = e.pp_end(a, t(5_000)).unwrap();
        assert_eq!(out.resumed, vec![(big, ProcessId(2))]);
        assert_eq!(e.stats().aged_admissions, 1);
        e.check_invariants().unwrap();
        e.pp_end(big, t(6_000)).unwrap();
        e.pp_end(b, t(6_001)).unwrap();
        assert_eq!(e.usage(), 0);
        assert_eq!(e.overflow_usage(), 0);
    }

    #[test]
    fn tracing_records_lifecycle_without_changing_state() {
        use rda_trace::{EventKind as K, TraceConfig};
        let mut traced = ext_cfg(strict_cfg().with_waitlist_timeout_cycles(1_000));
        traced.install_trace(TraceSink::new(TraceConfig::default()));
        let mut plain = ext_cfg(strict_cfg().with_waitlist_timeout_cycles(1_000));
        // Identical call sequence on both twins.
        for e in [&mut traced, &mut plain] {
            let a = must_run(e, 0, 0, demand(14.0), t(0));
            assert!(matches!(
                begin(e, 1, 0, demand(10.0), t(10)),
                BeginOutcome::Pause { .. }
            ));
            let _ = e.age_waitlist(t(2_000));
            e.pp_end(a, t(2_100)).unwrap();
            let _ = e.process_exit(ProcessId(1), t(2_200));
            assert!(e.pp_end(PpId(999), t(2_300)).is_err());
        }
        assert_eq!(
            traced.snapshot(),
            plain.snapshot(),
            "tracing must never perturb observable state"
        );
        assert_eq!(traced.fastpath_digest(), plain.fastpath_digest());

        let report = traced.take_trace().expect("sink installed").into_report();
        assert!(traced.trace().is_none(), "sink detached");
        let kinds: Vec<K> = report.events.iter().map(|e| e.kind).collect();
        for k in [
            K::Begin,
            K::Admit,
            K::Pause,
            K::Age,
            K::End,
            K::Exit,
            K::Reject,
        ] {
            assert!(kinds.contains(&k), "missing {k:?} in {kinds:?}");
        }
        assert_eq!(report.counts.begins, 2);
        assert_eq!(report.counts.aged, 1);
        assert_eq!(report.counts.rejects, 1);
        assert_eq!(report.wait.samples, 1);
        assert_eq!(
            report.wait.max, 1_990,
            "aged waiter enqueued at t=10, aged at t=2000"
        );
    }

    #[test]
    fn untraced_extension_has_no_sink() {
        let mut e = ext(PolicyKind::Strict);
        assert!(e.trace().is_none());
        assert!(e.take_trace().is_none());
        let pp = must_run(&mut e, 0, 0, demand(1.0), t(0));
        e.pp_end(pp, t(1)).unwrap();
    }

    #[test]
    fn stats_track_activity() {
        let mut e = ext(PolicyKind::Strict);
        let pp = must_run(&mut e, 0, 0, demand(14.0), t(0));
        let _ = begin(&mut e, 1, 0, demand(5.0), t(1));
        let _ = e.pp_end(pp, t(2)).unwrap();
        let s = e.stats();
        assert_eq!(s.begins, 2);
        assert_eq!(s.ends, 1);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.paused, 1);
        assert_eq!(s.resumed, 1);
        assert_eq!(s.max_waitlist, 1);
        assert_eq!(s.rejected_ends, 0);
        assert_eq!(s.reclaimed, 0);
    }

    /// White-box regression for the `pp_begin` desync path: a waitlist
    /// that already (impossibly) holds the id about to be allocated
    /// must produce a typed error and a rolled-back registration, not a
    /// panic.
    #[test]
    fn poisoned_waitlist_push_rolls_back_the_registration() {
        let mut e = ext(PolicyKind::Strict);
        // Fill the LLC so the next begin pauses (and therefore pushes).
        for p in 0..3 {
            must_run(&mut e, p, 0, demand(5.0), t(p as u64));
        }
        // Predict the id the next begin will allocate and pre-poison
        // the queue with it, simulating a desynchronized waitlist.
        let next = PpId(e.snapshot().allocated);
        e.progress.nodes[0]
            .waitlist
            .push(WaitEntry {
                pp: next,
                accounted: Demand::llc(1),
                enqueued_at: t(0),
            })
            .unwrap();
        let before = e.usage();
        let err = e
            .pp_begin(ProcessId(9), SiteId(7), demand(5.0), t(10))
            .unwrap_err();
        assert_eq!(err, RdaError::DoubleWaitlist(next));
        assert_eq!(e.stats().desyncs, 1);
        // The registration was rolled back: the id was burned but is
        // not live, accounting is untouched, and the poisoned entry was
        // not duplicated.
        assert!(e.progress.registry.was_allocated(next));
        assert!(e.progress.registry.get(next).is_none());
        assert_eq!(e.usage(), before);
        let queued = e.progress.nodes[0].waitlist.iter();
        assert_eq!(queued.filter(|w| w.pp == next).count(), 1);
        // The extension stays serviceable: an honest begin still works
        // (and pauses, since the cache is still full).
        assert!(matches!(
            begin(&mut e, 10, 8, demand(5.0), t(11)),
            BeginOutcome::Pause { .. }
        ));
    }

    /// An engine holding 12 MB of admitted periods, an 8 MB period aged
    /// into the overflow bucket and a 6 MB waiter. The waiter counts in
    /// no book, the aged period only in the overflow bucket.
    fn audited_state() -> RdaExtension {
        let mut e = ext_cfg(strict_cfg().with_waitlist_timeout_cycles(1_000));
        must_run(&mut e, 0, 0, demand(10.0), t(0));
        let aged = match begin(&mut e, 1, 0, demand(8.0), t(10)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("{other:?}"),
        };
        assert_eq!(e.age_waitlist(t(1_010)).resumed, vec![(aged, ProcessId(1))]);
        let waiting = begin(&mut e, 2, 0, demand(6.0), t(1_020));
        assert!(matches!(waiting, BeginOutcome::Pause { .. }));
        must_run(&mut e, 3, 0, demand(2.0), t(1_030));
        e
    }

    fn violation(check: InvariantKind, expected: u64, actual: u64) -> RdaError {
        RdaError::InvariantViolation {
            node: NodeId(0),
            kind: ResourceKind::Llc,
            check,
            expected,
            actual,
        }
    }

    #[test]
    fn book_audit_passes_with_admitted_waiting_and_overflow_periods() {
        let e = audited_state();
        assert_eq!(e.usage(), mb(10.0) + mb(2.0));
        assert_eq!(e.overflow_usage(), mb(8.0));
        assert_eq!(e.waitlist_len(), 1);
        e.check_invariants().unwrap();
    }

    #[test]
    fn book_audit_reports_a_corrupted_nominal_book() {
        let mut e = audited_state();
        e.books.monitor.increment_load(1);
        let sum = mb(10.0) + mb(2.0);
        let want = violation(InvariantKind::UsageMismatch, sum, sum + 1);
        assert_eq!(e.check_invariants(), Err(want));
    }

    #[test]
    fn book_audit_reports_a_corrupted_overflow_book() {
        let mut e = audited_state();
        assert!(e.books.monitor.increment_overflow(1));
        let want = violation(InvariantKind::OverflowMismatch, mb(8.0), mb(8.0) + 1);
        assert_eq!(e.check_invariants(), Err(want));
    }

    /// The typed-error sweep leaves `desyncs` at zero for every healthy
    /// protocol violation — the counter only moves on internal bugs.
    #[test]
    fn protocol_violations_do_not_count_as_desyncs() {
        let mut e = ext(PolicyKind::Strict);
        let pp = must_run(&mut e, 0, 0, demand(5.0), t(0));
        e.pp_end(pp, t(1)).unwrap();
        assert_eq!(e.pp_end(pp, t(2)), Err(RdaError::DoubleEnd(pp)));
        assert_eq!(
            e.pp_end(PpId(999), t(3)),
            Err(RdaError::UnknownPp(PpId(999)))
        );
        e.process_exit(ProcessId(0), t(4));
        assert_eq!(e.stats().desyncs, 0);
        e.check_invariants().unwrap();
    }

    // ---- open-system overload control ----

    use crate::config::{BreakerConfig, OverloadConfig};

    fn overload_cfg(cap: usize, policy: ShedPolicy) -> OverloadConfig {
        OverloadConfig {
            waitlist_cap: cap,
            shed_policy: policy,
            deadline_cycles: None,
            breaker: None,
        }
    }

    #[test]
    fn reject_newest_sheds_at_the_cap_without_allocating() {
        let cfg = strict_cfg().with_overload(overload_cfg(1, ShedPolicy::RejectNewest));
        let mut e = ext_cfg(cfg);
        let _hog = must_run(&mut e, 0, 0, demand(14.0), t(0));
        assert!(matches!(
            begin(&mut e, 1, 0, demand(10.0), t(1)),
            BeginOutcome::Pause { shed: None, .. }
        ));
        let allocated_before = e.snapshot().allocated;
        assert_eq!(
            e.pp_begin(ProcessId(2), SiteId(0), demand(10.0), t(2)),
            Err(RdaError::WaitlistFull { node: NodeId(0) })
        );
        assert_eq!(e.stats().shed, 1);
        assert_eq!(e.waitlist_len(), 1, "queue stays at the cap");
        assert_eq!(
            e.snapshot().allocated,
            allocated_before,
            "tail drop allocates no id"
        );
        e.check_invariants().unwrap();
    }

    #[test]
    fn reject_oldest_evicts_the_longest_queued_waiter() {
        let cfg = strict_cfg().with_overload(overload_cfg(1, ShedPolicy::RejectOldest));
        let mut e = ext_cfg(cfg);
        let hog = must_run(&mut e, 0, 0, demand(14.0), t(0));
        let victim = match begin(&mut e, 1, 0, demand(10.0), t(1)) {
            BeginOutcome::Pause { pp, shed: None } => pp,
            other => panic!("{other:?}"),
        };
        let fresh = match begin(&mut e, 2, 0, demand(10.0), t(2)) {
            BeginOutcome::Pause { pp, shed } => {
                assert_eq!(shed, Some(victim), "head drop reports the victim");
                pp
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(e.stats().shed, 1);
        assert_eq!(e.waitlist_len(), 1);
        // The victim's period is gone for good; its end is a DoubleEnd.
        assert_eq!(e.pp_end(victim, t(3)), Err(RdaError::DoubleEnd(victim)));
        e.check_invariants().unwrap();
        // The fresh arrival is the one resumed when capacity frees.
        let out = e.pp_end(hog, t(4)).unwrap();
        assert_eq!(out.resumed, vec![(fresh, ProcessId(2))]);
        e.check_invariants().unwrap();
    }

    #[test]
    fn degrade_to_overflow_admits_into_the_degraded_bucket() {
        let cfg = strict_cfg().with_overload(overload_cfg(0, ShedPolicy::DegradeToOverflow));
        let mut e = ext_cfg(cfg);
        let _hog = must_run(&mut e, 0, 0, demand(14.0), t(0));
        let pp = match begin(&mut e, 1, 0, demand(10.0), t(1)) {
            BeginOutcome::Run { pp, fast } => {
                assert!(!fast);
                pp
            }
            other => panic!("expected degraded Run, got {other:?}"),
        };
        assert_eq!(e.overflow_usage(), mb(10.0));
        assert_eq!(e.usage(), mb(14.0), "nominal books untouched");
        assert_eq!(e.stats().shed, 1);
        assert_eq!(e.stats().admitted, 1, "only the hog counts as admitted");
        e.check_invariants().unwrap();
        e.pp_end(pp, t(2)).unwrap();
        assert_eq!(e.overflow_usage(), 0);
        e.check_invariants().unwrap();
    }

    #[test]
    fn deadlines_expire_starved_waiters_on_age_ticks() {
        let mut ov = overload_cfg(64, ShedPolicy::RejectNewest);
        ov.deadline_cycles = Some(1_000);
        let cfg = strict_cfg().with_overload(ov);
        let mut e = ext_cfg(cfg);
        let _hog = must_run(&mut e, 0, 0, demand(14.0), t(0));
        let starved = match begin(&mut e, 1, 0, demand(10.0), t(10)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("{other:?}"),
        };
        // Inside the deadline nothing expires.
        assert_eq!(e.age_waitlist(t(500)), AgeOutcome::default());
        // Past it, the waiter is expired — completed, not admitted.
        let out = e.age_waitlist(t(1_020));
        assert_eq!(out.expired, vec![(starved, ProcessId(1))]);
        assert!(out.resumed.is_empty());
        assert_eq!(e.stats().expired, 1);
        assert_eq!(e.waitlist_len(), 0);
        assert_eq!(e.usage(), mb(14.0));
        assert_eq!(e.overflow_usage(), 0);
        // Its id is burned: a late end is the usual DoubleEnd.
        assert_eq!(
            e.pp_end(starved, t(1_100)),
            Err(RdaError::DoubleEnd(starved))
        );
        e.check_invariants().unwrap();
    }

    #[test]
    fn expiring_a_blocking_head_admits_fitting_waiters_behind_it() {
        let mut ov = overload_cfg(64, ShedPolicy::RejectNewest);
        ov.deadline_cycles = Some(1_000);
        let cfg = strict_cfg().with_overload(ov);
        let mut e = ext_cfg(cfg);
        let _hog_a = must_run(&mut e, 0, 0, demand(10.0), t(0));
        let hog_b = must_run(&mut e, 1, 0, demand(4.0), t(1));
        // Usage 14/15: both arrivals park, FIFO head first.
        let head = match begin(&mut e, 2, 0, demand(10.0), t(10)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("{other:?}"),
        };
        let small = match begin(&mut e, 3, 0, demand(4.0), t(20)) {
            BeginOutcome::Pause { pp, .. } => pp,
            other => panic!("{other:?}"),
        };
        // Freeing 4 MB is not enough for the 10 MB head, so the drain
        // stalls on it and the fitting 4 MB entry stays queued behind.
        assert!(e.pp_end(hog_b, t(100)).unwrap().resumed.is_empty());
        assert_eq!(e.waitlist_len(), 2);
        // Expiring the blocking head (enqueued t=10, deadline 1000)
        // lets the entry behind it (t=20, not yet expired) through.
        let out = e.age_waitlist(t(1_015));
        assert_eq!(out.expired, vec![(head, ProcessId(2))]);
        assert_eq!(out.resumed, vec![(small, ProcessId(3))]);
        assert_eq!(e.usage(), mb(14.0));
        e.check_invariants().unwrap();
    }

    #[test]
    fn breaker_trips_with_hysteresis_and_sheds_the_demand_class() {
        let mut ov = overload_cfg(64, ShedPolicy::RejectNewest);
        ov.breaker = Some(BreakerConfig {
            high_water: mb(12.0),
            low_water: mb(6.0),
            trip_after: 2,
            recover_after: 2,
            shed_min_demand: mb(5.0),
        });
        let cfg = strict_cfg().with_overload(ov);
        let mut e = ext_cfg(cfg);
        let hog = must_run(&mut e, 0, 0, demand(14.0), t(0));
        // One tick above high water is not enough to trip.
        e.age_waitlist(t(100));
        assert!(!e.breaker_is_open());
        e.age_waitlist(t(200));
        assert!(e.breaker_is_open(), "trips on the 2nd tick");
        assert_eq!(e.stats().breaker_trips, 1);
        // The expensive class is shed; small requests still pass.
        assert_eq!(
            e.pp_begin(ProcessId(1), SiteId(0), demand(6.0), t(210)),
            Err(RdaError::BreakerOpen {
                node: NodeId(0),
                kind: ResourceKind::Llc,
            })
        );
        assert_eq!(e.stats().shed, 1);
        let small = must_run(&mut e, 2, 1, demand(0.5), t(220));
        // Capacity drains; recovery needs two consecutive low ticks.
        e.pp_end(hog, t(300)).unwrap();
        e.pp_end(small, t(301)).unwrap();
        e.age_waitlist(t(400));
        assert!(e.breaker_is_open(), "one low tick is not enough");
        assert_eq!(
            e.pp_begin(ProcessId(3), SiteId(0), demand(6.0), t(410)),
            Err(RdaError::BreakerOpen {
                node: NodeId(0),
                kind: ResourceKind::Llc,
            })
        );
        e.age_waitlist(t(500));
        assert!(!e.breaker_is_open(), "resets after hysteresis");
        let _ = must_run(&mut e, 4, 0, demand(6.0), t(510));
        assert_eq!(e.stats().breaker_trips, 1, "no re-trip while drained");
        e.check_invariants().unwrap();
    }

    #[test]
    fn note_retry_counts_and_traces() {
        let cfg = strict_cfg().with_overload(overload_cfg(0, ShedPolicy::RejectNewest));
        let mut e = ext_cfg(cfg);
        e.install_trace(TraceSink::new(rda_trace::TraceConfig::default()));
        e.note_retry(ProcessId(7), SiteId(3), ResourceKind::Llc, t(42));
        assert_eq!(e.stats().retried, 1);
        let sink = e.take_trace().unwrap();
        let report = sink.into_report();
        assert_eq!(report.counts.retried, 1);
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].kind, EventKind::Retry);
        assert_eq!(report.events[0].process, 7);
    }
}
