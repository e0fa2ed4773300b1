//! The differential oracle: one call stream, two machines, equality
//! after every step.
//!
//! [`Oracle`] drives the scalar engine ([`rda_core::RdaExtension`]) in
//! lockstep with the one topology reference model
//! ([`crate::topo_model::TopoRefModel`]) on the engine's lift onto
//! `TopoConfig::compat`: each call goes to the model as it is and to
//! the engine through its LLC component. A [`FastPathModel`] beside
//! the model turns the model's effects into the scalar engine's, fast
//! flags and counters included. After *every* call the oracle demands:
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
//! call, and a human-readable explanation — and since every replay
//! input is a [`TraceDoc`], a divergence *is* a repro file. A call the
//! scalar engine cannot be given whole (a demand with a memory-bandwidth
//! or DRAM component) diverges too: the model accounts the component
//! and the engine never sees it. The topology oracle
//! ([`crate::topo_diff`]) reports the same [`Divergence`] and the same
//! [`ReplayReport`], and both replay through one loop.

use crate::model::{Effect, FastPathModel};
use crate::topo_model::TopoRefModel;
use crate::trace::TraceDoc;
use rda_core::{NodeId, PpDemand, RdaConfig, RdaExtension, ResourceKind, Snapshot, TopoConfig};
use rda_machine::ReuseLevel;
use rda_sim::TopoCall;
use rda_simcore::Fnv1a64;
use std::fmt;

/// A point where an engine and its model disagree (or the engine
/// violated its own invariants).
#[derive(Debug, Clone)]
pub struct Divergence {
    /// 0-based index of the offending call in the replayed sequence.
    pub step: usize,
    /// The call being applied when the disagreement surfaced.
    pub event: TopoCall,
    /// What disagreed, rendered for humans.
    pub detail: String,
}

impl Divergence {
    /// The divergence at `step` on `event`, boxed as the oracles
    /// return it.
    pub(crate) fn boxed(step: usize, event: TopoCall, detail: String) -> Box<Self> {
        Box::new(Divergence {
            step,
            event,
            detail,
        })
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "divergence at step {} on {:?}: {}",
            self.step, self.event, self.detail
        )
    }
}

impl std::error::Error for Divergence {}

/// What the replay loops and the explorer need from either oracle:
/// its own call, its agreed snapshot, the state that tells DFS nodes
/// apart, and the replayable document of a call sequence.
pub(crate) trait Explorable: Clone {
    /// The document a counterexample comes back as.
    type Doc;

    /// Apply one call to both machines and check full equivalence.
    fn apply(&mut self, call: &TopoCall) -> Result<Effect, Box<Divergence>>;
    /// The agreed observable state.
    fn snapshot(&self) -> Snapshot;
    /// Fold the state that distinguishes DFS nodes into the memo key.
    fn fold_state(&self, h: &mut Fnv1a64);
    /// The oracle's configuration plus `calls`.
    fn doc(&self, calls: Vec<TopoCall>) -> Self::Doc;
}

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

    /// The agreed observable state (checked equal on every step).
    pub fn snapshot(&self) -> Snapshot {
        self.ext.snapshot()
    }

    /// Apply one call to both machines and check full equivalence.
    /// On success returns the (agreed) effect of the call.
    pub fn apply(&mut self, call: &TopoCall) -> Result<Effect, Box<Divergence>> {
        let step = self.steps;
        self.steps += 1;
        let diverged = |detail: String| Divergence::boxed(step, *call, detail);

        let got: Effect = match *call {
            TopoCall::Begin {
                now,
                process,
                site,
                demand,
            } => {
                let demand = PpDemand::llc(demand.get(ResourceKind::Llc), ReuseLevel::High);
                self.ext.pp_begin(process, site, demand, now).into()
            }
            TopoCall::End { now, pp } => self.ext.pp_end(pp, now).into(),
            TopoCall::Exit { now, process } => Effect::Woken {
                resumed: self.ext.process_exit(process, now),
                expired: Vec::new(),
            },
            TopoCall::Age { now } => self.ext.age_waitlist(now).into(),
            TopoCall::Retry {
                now,
                process,
                site,
                kind,
            } => {
                self.ext.note_retry(process, site, kind, now);
                Effect::Retried
            }
        };
        let effect = self.model.apply(call);
        let mut snap = self.model.snapshot();
        let want = self.fast.mark(call, effect, &self.last, &mut snap);
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

impl Explorable for Oracle {
    type Doc = TraceDoc;

    fn apply(&mut self, call: &TopoCall) -> Result<Effect, Box<Divergence>> {
        Oracle::apply(self, call)
    }
    fn snapshot(&self) -> Snapshot {
        Oracle::snapshot(self)
    }
    fn fold_state(&self, h: &mut Fnv1a64) {
        h.write_u64(self.snapshot().digest());
        h.write_u64(self.ext.fastpath_digest());
        h.write_u64(self.fast.digest());
        h.write_u64(self.model.breaker_digest());
    }
    fn doc(&self, events: Vec<TopoCall>) -> TraceDoc {
        TraceDoc {
            cfg: self.ext.config().clone(),
            events,
        }
    }
}

/// The checks both oracles make after every call: the call effects
/// agree and the snapshots are identical. `Err` describes the first
/// disagreement.
pub(crate) fn agree(
    got: &Effect,
    want: &Effect,
    ext: &Snapshot,
    model: &Snapshot,
) -> Result<(), String> {
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

/// Replay `calls` through the fresh `oracle`: the one loop both
/// oracles' replays run.
pub(crate) fn replay_calls<O: Explorable>(
    mut oracle: O,
    calls: &[TopoCall],
) -> Result<ReplayReport, Box<Divergence>> {
    let effects = calls
        .iter()
        .map(|call| oracle.apply(call))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ReplayReport {
        steps: effects.len(),
        final_snapshot: oracle.snapshot(),
        effects,
    })
}

/// Replay a whole trace through the oracle.
pub fn replay(doc: &TraceDoc) -> Result<ReplayReport, Box<Divergence>> {
    replay_calls(Oracle::new(doc.cfg.clone()), &doc.events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{mb, Demand, DemandAudit, PolicyKind, PpId, RdaError, RdaStats, SiteId};
    use rda_machine::MachineConfig;
    use rda_sched::ProcessId;
    use rda_simcore::SimTime;

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

    /// A begin of `demand` at cycle `t`.
    fn vbegin(t: u64, process: u32, site: u32, demand: Demand) -> TopoCall {
        TopoCall::Begin {
            now: SimTime::from_cycles(t),
            process: ProcessId(process),
            site: SiteId(site),
            demand,
        }
    }

    /// A begin of `amount` LLC bytes at cycle `t`.
    fn begin(t: u64, process: u32, site: u32, amount: u64) -> TopoCall {
        vbegin(t, process, site, Demand::llc(amount))
    }

    /// `pp_end(pp)` at cycle `t`.
    fn end(t: u64, pp: u64) -> TopoCall {
        TopoCall::End {
            now: SimTime::from_cycles(t),
            pp: PpId(pp),
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
        match o.apply(&end(20, a.0)).unwrap() {
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
        let end = o.apply(&end(100, a.0)).unwrap();
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
        let end = o.apply(&end(interval, 0)).unwrap();
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
            o.apply(&end(0, 4)).unwrap(),
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
        assert_eq!(
            report.final_snapshot.allocated, 5,
            "tail/breaker sheds allocate no id"
        );
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

    /// A scalar document can hold a call the scalar engine cannot be
    /// given whole: an admitted begin with a memory-bandwidth
    /// component. The model accounts the component and the engine's
    /// LLC-only snapshot does not, so replay reports the misuse.
    #[test]
    fn a_non_llc_component_in_a_scalar_document_diverges() {
        let doc = TraceDoc::new(vec![vbegin(0, 0, 0, Demand::new(mb(1.0), 10, 0))]);
        let div = replay(&doc).expect_err("the engine never sees the membw component");
        assert_eq!(div.step, 0);
        assert!(div.detail.contains("snapshot mismatch"), "{div}");
        assert!(div.detail.contains("model 10 vs implementation 0"), "{div}");
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
        oracle.apply(&begin(0, 0, 0, 1000)).unwrap();
        // Poke the model out from under the oracle by replaying an
        // event on a clone of the model only, then diffing snapshots.
        let mut skewed = oracle.model().clone();
        skewed.pp_begin(ProcessId(9), 9, Demand::llc(1), 5);
        let diff = describe_snapshot_diff(&skewed.snapshot(), &oracle.ext().snapshot());
        assert!(diff.is_some(), "skewed model must not compare equal");
    }
}
