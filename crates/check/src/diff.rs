//! The differential oracle: one event stream, two machines, equality
//! after every step.
//!
//! [`Oracle`] drives the scalar engine ([`rda_core::RdaExtension`]) in
//! lockstep with the one topology reference model
//! ([`crate::topo_model::TopoRefModel`]) on the engine's lift onto
//! `TopoConfig::compat`: each event goes to the engine as it is and to
//! the model through [`crate::topo_trace::lift_event`]. A
//! [`FastPathModel`] beside the model turns the lifted effects into the
//! scalar engine's, fast flags and counters included. After *every*
//! event the oracle demands:
//!
//! 1. the per-call results agree (outcome variant, allocated id, fast
//!    flag, resumed/expired/shed lists **in order**, error variant and
//!    payload);
//! 2. the observable snapshots are bit-identical — both accounting
//!    buckets, waitlist order with enqueue times, live periods, every
//!    stats counter (including the fast-path and overload counters),
//!    and the id-allocator position;
//! 3. the memoised-decision caches digest identically;
//! 4. the breaker is open in both or in neither;
//! 5. the implementation's own [`RdaExtension::check_invariants`]
//!    passes.
//!
//! Any violation is reported as a [`Divergence`] naming the step, the
//! event, and a human-readable explanation — and since every replay
//! input is a [`TraceDoc`], a divergence *is* a repro file. The
//! topology oracle ([`crate::topo_diff`]) reports the same
//! [`Divergence`] over its own event type and the same
//! [`ReplayReport`].

use crate::model::{Effect, FastPathModel};
use crate::topo_model::TopoRefModel;
use crate::topo_trace::lift_event;
use crate::trace::{TraceDoc, TraceEvent};
use rda_core::{
    NodeId, PpDemand, PpId, RdaConfig, RdaExtension, Resource, ResourceKind, SiteId, Snapshot,
    TopoConfig,
};
use rda_machine::ReuseLevel;
use rda_sched::ProcessId;
use rda_simcore::SimTime;
use std::fmt;

/// A point where an engine and its model disagree (or the engine
/// violated its own invariants), over the engine's event type `E`:
/// [`TraceEvent`] for the scalar oracle,
/// [`crate::topo_trace::TopoEvent`] for the topology oracle.
#[derive(Debug, Clone)]
pub struct Divergence<E = TraceEvent> {
    /// 0-based index of the offending event in the replayed sequence.
    pub step: usize,
    /// The event being applied when the disagreement surfaced.
    pub event: E,
    /// What disagreed, rendered for humans.
    pub detail: String,
}

impl<E> Divergence<E> {
    /// The divergence at `step` on `event`, boxed as the oracles
    /// return it.
    pub(crate) fn boxed(step: usize, event: E, detail: String) -> Box<Self> {
        Box::new(Divergence {
            step,
            event,
            detail,
        })
    }
}

impl<E: fmt::Debug> fmt::Display for Divergence<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "divergence at step {} on {:?}: {}",
            self.step, self.event, self.detail
        )
    }
}

impl<E: fmt::Debug> std::error::Error for Divergence<E> {}

/// The scalar engine and its reference models in lockstep.
#[derive(Debug, Clone)]
pub struct Oracle {
    ext: RdaExtension,
    model: TopoRefModel,
    fast: FastPathModel,
    /// The models' snapshot after the last event, fast-path counters
    /// included: the state the next call starts from.
    last: Snapshot,
    steps: usize,
}

impl Oracle {
    /// The engine fresh under `cfg`, the models under its lift.
    pub fn new(cfg: RdaConfig) -> Self {
        let model = TopoRefModel::new(TopoConfig::compat(&cfg));
        Oracle {
            last: model.snapshot(),
            fast: FastPathModel::new(&cfg),
            ext: RdaExtension::new(cfg),
            model,
            steps: 0,
        }
    }

    /// The implementation under test.
    pub fn ext(&self) -> &RdaExtension {
        &self.ext
    }

    /// The reference model, on the compat lift.
    pub fn model(&self) -> &TopoRefModel {
        &self.model
    }

    /// The reference model of the fast path.
    pub fn fast_path(&self) -> &FastPathModel {
        &self.fast
    }

    /// Events applied so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The agreed observable state (checked equal on every step).
    pub fn snapshot(&self) -> Snapshot {
        self.ext.snapshot()
    }

    /// Apply one event to both machines and check full equivalence.
    /// On success returns the (agreed) effect of the call.
    pub fn apply(&mut self, event: &TraceEvent) -> Result<Effect, Box<Divergence>> {
        let step = self.steps;
        self.steps += 1;
        let diverged = |detail: String| Divergence::boxed(step, *event, detail);

        let at = SimTime::from_cycles;
        let got: Effect = match *event {
            TraceEvent::Begin {
                t,
                process,
                site,
                amount,
            } => {
                let demand = PpDemand::llc(amount, ReuseLevel::High);
                (self.ext)
                    .pp_begin(ProcessId(process), SiteId(site), demand, at(t))
                    .into()
            }
            TraceEvent::End { t, pp } => self.ext.pp_end(PpId(pp), at(t)).into(),
            TraceEvent::Exit { t, process } => Effect::Woken {
                resumed: self.ext.process_exit(ProcessId(process), at(t)),
                expired: Vec::new(),
            },
            TraceEvent::Age { t } => self.ext.age_waitlist(at(t)).into(),
            TraceEvent::Retry { t, process, site } => {
                self.ext
                    .note_retry(ProcessId(process), SiteId(site), Resource::Llc, at(t));
                Effect::Retried
            }
        };
        let lifted = self.model.apply(&lift_event(event));
        let mut snap = self.model.snapshot();
        let want = self.fast.mark(event, lifted, &self.last, &mut snap);
        self.last = snap;

        agree(&got, &want, &self.ext.snapshot(), &self.last).map_err(diverged)?;
        if self.ext.fastpath_digest() != self.fast.digest() {
            return Err(diverged(format!(
                "fast-path cache mismatch: implementation digest {:#x}, model digest {:#x}",
                self.ext.fastpath_digest(),
                self.fast.digest()
            )));
        }
        let open = self.model.breaker_is_open(NodeId(0), ResourceKind::Llc);
        if self.ext.breaker_is_open() != open {
            return Err(diverged(format!(
                "breaker: implementation open={}, model open={open}",
                self.ext.breaker_is_open()
            )));
        }
        if let Err(e) = self.ext.check_invariants() {
            return Err(diverged(format!("implementation invariant violated: {e}")));
        }
        Ok(got)
    }
}

/// The checks both oracles make after every event: the call effects
/// agree and the snapshots are identical. `Err` describes the first
/// disagreement.
pub(crate) fn agree(got: &Effect, want: &Effect, ext: &Snapshot, model: &Snapshot) -> Result<(), String> {
    if got != want {
        return Err(format!(
            "call effect mismatch\n  implementation: {got:?}\n  model:          {want:?}"
        ));
    }
    match describe_snapshot_diff(model, ext) {
        Some(diff) => Err(format!("snapshot mismatch: {diff}")),
        None => Ok(()),
    }
}

/// First difference between two snapshots — of either engine or
/// model — rendered for humans; `None` when they are identical.
pub fn describe_snapshot_diff(model: &Snapshot, ext: &Snapshot) -> Option<String> {
    if model == ext {
        return None;
    }
    if model.usage.len() != ext.usage.len() {
        return Some(format!(
            "node count: model {} vs implementation {}",
            model.usage.len(),
            ext.usage.len()
        ));
    }
    for n in 0..model.usage.len() {
        for k in ResourceKind::ALL {
            let i = k.index();
            if model.usage[n][i] != ext.usage[n][i] {
                return Some(format!(
                    "usage[node{n}][{k}]: model {} vs implementation {}",
                    model.usage[n][i], ext.usage[n][i]
                ));
            }
            if model.overflow[n][i] != ext.overflow[n][i] {
                return Some(format!(
                    "overflow[node{n}][{k}]: model {} vs implementation {}",
                    model.overflow[n][i], ext.overflow[n][i]
                ));
            }
        }
        if model.waitlists[n] != ext.waitlists[n] {
            return Some(format!(
                "waitlist[node{n}]: model {:?} vs implementation {:?}",
                model.waitlists[n], ext.waitlists[n]
            ));
        }
    }
    if model.periods != ext.periods {
        return Some(format!(
            "periods: model {:?} vs implementation {:?}",
            model.periods, ext.periods
        ));
    }
    if model.stats != ext.stats {
        return Some(format!(
            "stats: model {:?} vs implementation {:?}",
            model.stats, ext.stats
        ));
    }
    if model.allocated != ext.allocated {
        return Some(format!(
            "allocated: model {} vs implementation {}",
            model.allocated, ext.allocated
        ));
    }
    Some("snapshots differ".to_string())
}

/// Summary of a clean replay, through either oracle.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Events replayed.
    pub steps: usize,
    /// The (agreed) final observable state.
    pub final_snapshot: Snapshot,
    /// The (agreed) effect of every event, in order.
    pub effects: Vec<Effect>,
}

/// Replay a whole trace through the oracle.
pub fn replay(doc: &TraceDoc) -> Result<ReplayReport, Box<Divergence>> {
    let mut oracle = Oracle::new(doc.cfg.clone());
    let mut effects = Vec::with_capacity(doc.events.len());
    for event in &doc.events {
        effects.push(oracle.apply(event)?);
    }
    Ok(ReplayReport {
        steps: oracle.steps(),
        final_snapshot: oracle.snapshot(),
        effects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{mb, Demand, DemandAudit, PolicyKind, RdaError, RdaStats};
    use rda_machine::MachineConfig;

    fn doc(policy: &str, extra_header: &str, body: &str) -> TraceDoc {
        TraceDoc::parse(&format!("policy {policy}\n{extra_header}\n{body}")).unwrap()
    }

    /// An oracle over the paper's Xeon LLC (15 MiB) under `policy`.
    fn xeon(policy: PolicyKind) -> Oracle {
        Oracle::new(RdaConfig::for_machine(
            &MachineConfig::xeon_e5_2420(),
            policy,
        ))
    }

    fn begin(t: u64, process: u32, site: u32, amount: u64) -> TraceEvent {
        TraceEvent::Begin {
            t,
            process,
            site,
            amount,
        }
    }

    #[test]
    fn strict_pauses_when_full_and_resumes_on_end() {
        let mut o = xeon(PolicyKind::Strict);
        let a = match o.apply(&begin(0, 0, 0, mb(10.0))).unwrap() {
            Effect::Run { pp, fast: false } => pp,
            other => panic!("expected slow Run, got {other:?}"),
        };
        let b = match o.apply(&begin(10, 1, 1, mb(10.0))).unwrap() {
            Effect::Pause { pp, .. } => pp,
            other => panic!("expected Pause, got {other:?}"),
        };
        match o.apply(&TraceEvent::End { t: 20, pp: a.0 }).unwrap() {
            Effect::End {
                fast: false,
                resumed,
            } => assert_eq!(resumed, vec![(b, ProcessId(1))]),
            other => panic!("expected slow End, got {other:?}"),
        }
        let s = o.snapshot();
        assert_eq!(s.usage, vec![[mb(10.0), 0, 0]]);
        assert_eq!(s.stats.resumed, 1);
    }

    #[test]
    fn repeat_site_hits_the_fast_path() {
        let mut o = xeon(PolicyKind::Strict);
        let a = match o.apply(&begin(0, 0, 7, mb(2.0))).unwrap() {
            Effect::Run { pp, fast: false } => pp,
            other => panic!("expected slow Run, got {other:?}"),
        };
        let end = o.apply(&TraceEvent::End { t: 100, pp: a.0 }).unwrap();
        assert!(matches!(end, Effect::End { fast: true, .. }), "{end:?}");
        let again = o.apply(&begin(200, 0, 7, mb(2.0))).unwrap();
        assert!(matches!(again, Effect::Run { fast: true, .. }), "{again:?}");
        let stats = o.snapshot().stats;
        assert_eq!((stats.fast_begins, stats.fast_ends), (1, 1));
    }

    /// A memoised decision is stale exactly one interval after its last
    /// refresh: the end and the repeat at that instant take the slow
    /// path.
    #[test]
    fn a_decision_expires_after_one_interval() {
        let mut o = xeon(PolicyKind::Strict);
        let interval = o.ext().config().min_eval_interval_cycles;
        o.apply(&begin(0, 0, 7, mb(2.0))).unwrap();
        let end = o.apply(&TraceEvent::End { t: interval, pp: 0 }).unwrap();
        assert!(matches!(end, Effect::End { fast: false, .. }), "{end:?}");
        let again = o.apply(&begin(interval, 0, 7, mb(2.0))).unwrap();
        assert!(
            matches!(again, Effect::Run { fast: false, .. }),
            "{again:?}"
        );
        let stats = o.snapshot().stats;
        assert_eq!((stats.fast_begins, stats.fast_ends), (0, 0));
    }

    #[test]
    fn rejected_end_leaves_books_untouched() {
        let mut o = xeon(PolicyKind::Strict);
        let before = o.snapshot().without_stats();
        assert_eq!(
            o.apply(&TraceEvent::End { t: 0, pp: 4 }).unwrap(),
            Effect::Rejected(RdaError::UnknownPp(PpId(4)))
        );
        assert_eq!(o.snapshot().without_stats(), before);
        assert_eq!(o.snapshot().stats.rejected_ends, 1);
    }

    /// Compromise admits exactly up to ⌊capacity·x⌋ — the bound the
    /// deadlock guard and the fast-path threshold use — even where
    /// `x − 1` is inexact in f64 (x = 1.2 on the Xeon LLC).
    #[test]
    fn compromise_admits_its_usage_limit_on_an_idle_cache() {
        let mut o = xeon(PolicyKind::Compromise { factor: 1.2 });
        let limit = 18_874_368; // ⌊15 728 640 · 1.2⌋
        let first = o.apply(&begin(0, 0, 0, limit)).unwrap();
        assert!(
            matches!(first, Effect::Run { fast: false, .. }),
            "{first:?}"
        );
        let next = o.apply(&begin(10, 1, 1, 1)).unwrap();
        assert!(matches!(next, Effect::Pause { .. }), "{next:?}");
        assert_eq!(o.snapshot().stats.oversized_admits, 0);
    }

    #[test]
    fn default_only_bypasses_everything() {
        let d = doc(
            "default",
            "",
            "begin 0 0 0 llc 99mb\nbegin 10 1 1 llc 5mb\nbegin 20 0 0 llc 99mb\n",
        );
        let report = replay(&d).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.effects, vec![Effect::Bypass; 3]);
        assert!(report.final_snapshot.is_idle());
        assert_eq!(report.final_snapshot.stats, RdaStats::default());
    }

    #[test]
    fn contention_replays_cleanly_under_both_policies() {
        for policy in ["strict", "compromise 2"] {
            let d = doc(
                policy,
                "llc 15728640",
                "begin 0 0 0 llc 10mb\nbegin 10 1 1 llc 10mb\nbegin 20 2 2 llc 10mb\n\
                 end 30 0\nend 40 1\nend 50 2\n",
            );
            let report = replay(&d).unwrap_or_else(|e| panic!("{policy}: {e}"));
            assert_eq!(report.steps, 6);
            assert!(report.final_snapshot.is_idle(), "{policy}");
        }
    }

    #[test]
    fn faulty_calls_replay_cleanly() {
        let d = doc(
            "strict",
            "audit reject\ntimeout 1000",
            "begin 0 0 0 llc 10mb\nbegin 10 1 1 llc 99mb\nend 20 7\nend 30 0\nend 40 0\n\
             begin 50 2 2 llc 14mb\nbegin 60 3 3 llc 14mb\nage 2000\nexit 3000 2\nexit 3010 3\n",
        );
        let report = replay(&d).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.final_snapshot.is_idle());
        let s = report.final_snapshot.stats;
        assert_eq!(s.clamped, 1, "oversized declaration rejected");
        assert_eq!(s.rejected_ends, 2, "unknown end + double end");
        assert!(s.aged_admissions >= 1, "aging fired");
    }

    #[test]
    fn overload_schedule_replays_cleanly() {
        // Bounded gate (RejectOldest evictions), deadline expiry,
        // breaker trip + shed + recovery, and a client retry — the full
        // overload vocabulary through both machines in one schedule.
        let d = doc(
            "strict",
            "llc 15728640\noverload 1 reject_oldest\ndeadline 1000\nbreaker 8mb 6mb 2 2 0",
            "begin 0 0 0 llc 10mb\n\
             begin 10 1 1 llc 10mb\n\
             begin 20 2 2 llc 10mb\n\
             retry 30 1 1 llc\n\
             begin 40 1 3 llc 10mb\n\
             age 1100\n\
             age 1200\n\
             begin 1300 3 4 llc 1mb\n\
             end 1400 0\n\
             age 1500\n\
             age 1600\n\
             begin 1700 3 4 llc 1mb\n\
             end 1800 4\n",
        );
        let report = replay(&d).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.final_snapshot.is_idle());
        let s = report.final_snapshot.stats;
        assert_eq!(s.shed, 3, "two head evictions + one breaker shed");
        assert_eq!(s.expired, 1, "last waiter starved past its deadline");
        assert_eq!(s.retried, 1);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.paused, 3);
        assert_eq!(report.final_snapshot.allocated, 5, "tail/breaker sheds allocate no id");
        assert!(matches!(
            report.effects[2],
            Effect::Pause { shed: Some(_), .. }
        ));
        assert!(matches!(
            report.effects[7],
            Effect::Rejected(rda_core::RdaError::BreakerOpen { .. })
        ));
    }

    #[test]
    fn degrade_and_reject_newest_schedules_replay_cleanly() {
        for (policy, idle) in [("degrade", true), ("reject_newest", true)] {
            let d = doc(
                "strict",
                &format!("llc 15728640\noverload 0 {policy}"),
                "begin 0 0 0 llc 10mb\nbegin 10 1 1 llc 10mb\nbegin 20 2 2 llc 10mb\n\
                 end 30 0\nexit 40 1\nexit 50 2\n",
            );
            let report = replay(&d).unwrap_or_else(|e| panic!("{policy}: {e}"));
            assert_eq!(report.final_snapshot.is_idle(), idle, "{policy}");
            assert!(report.final_snapshot.stats.shed >= 2, "{policy}");
        }
    }

    #[test]
    fn a_deliberately_skewed_model_is_caught() {
        // Sanity-check the oracle itself: replay an event stream where
        // the model sees a *different* event than the implementation.
        let cfg = {
            let mut c = crate::trace::default_config();
            c.policy = PolicyKind::Strict;
            c.demand_audit = DemandAudit::Trust;
            c
        };
        let mut oracle = Oracle::new(cfg);
        oracle
            .apply(&TraceEvent::Begin {
                t: 0,
                process: 0,
                site: 0,
                amount: 1000,
            })
            .unwrap();
        // Poke the model out from under the oracle by replaying an
        // event on a clone of the model only, then diffing snapshots.
        let mut skewed = oracle.model().clone();
        skewed.pp_begin(ProcessId(9), 9, Demand::llc(1), 5);
        let diff = describe_snapshot_diff(&skewed.snapshot(), &oracle.ext().snapshot());
        assert!(diff.is_some(), "skewed model must not compare equal");
    }
}
