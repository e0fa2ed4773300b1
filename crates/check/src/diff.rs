//! The differential oracle: one event stream, two machines, equality
//! after every step.
//!
//! [`Oracle`] drives the implementation ([`rda_core::RdaExtension`])
//! and the reference model ([`crate::model::RefModel`]) with identical
//! calls and, after *every* event, demands:
//!
//! 1. the per-call results agree (outcome variant, allocated id, fast
//!    flag, resumed/expired/shed lists **in order**, error variant and
//!    payload);
//! 2. the observable snapshots are bit-identical — both accounting
//!    buckets, waitlist order with enqueue times, live periods, every
//!    stats counter (including the overload shed/expired/retried/
//!    breaker counters), and the id-allocator position;
//! 3. the memoised-decision caches digest identically;
//! 4. the implementation's own [`RdaExtension::check_invariants`]
//!    passes.
//!
//! Any violation is reported as a [`Divergence`] naming the step, the
//! event, and a human-readable explanation — and since every replay
//! input is a [`TraceDoc`], a divergence *is* a repro file.

use crate::model::{Effect, RefModel};
use crate::trace::{TraceDoc, TraceEvent};
use rda_core::{PpDemand, PpId, RdaConfig, RdaExtension, Resource, SiteId, Snapshot};
use rda_machine::ReuseLevel;
use rda_sched::ProcessId;
use rda_simcore::SimTime;
use std::fmt;

/// A point where the implementation and the model disagree (or the
/// implementation violated its own invariants).
#[derive(Debug, Clone)]
pub struct Divergence {
    /// 0-based index of the offending event in the replayed sequence.
    pub step: usize,
    /// The event being applied when the disagreement surfaced.
    pub event: TraceEvent,
    /// What disagreed, rendered for humans.
    pub detail: String,
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

/// Implementation + model in lockstep.
#[derive(Debug, Clone)]
pub struct Oracle {
    ext: RdaExtension,
    model: RefModel,
    steps: usize,
}

impl Oracle {
    /// Both machines fresh under the same configuration.
    pub fn new(cfg: RdaConfig) -> Self {
        Oracle {
            ext: RdaExtension::new(cfg.clone()),
            model: RefModel::new(cfg),
            steps: 0,
        }
    }

    /// The implementation under test.
    pub fn ext(&self) -> &RdaExtension {
        &self.ext
    }

    /// The reference model.
    pub fn model(&self) -> &RefModel {
        &self.model
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
        let diverged = |detail: String| {
            Box::new(Divergence {
                step,
                event: *event,
                detail,
            })
        };

        let (got, want) = match *event {
            TraceEvent::Begin {
                t,
                process,
                site,
                amount,
            } => {
                let demand = PpDemand::llc(amount, ReuseLevel::High);
                let got = match self.ext.pp_begin(
                    ProcessId(process),
                    SiteId(site),
                    demand,
                    SimTime::from_cycles(t),
                ) {
                    Ok(rda_core::BeginOutcome::Bypass) => Effect::Bypass,
                    Ok(rda_core::BeginOutcome::Run { pp, fast }) => Effect::Run { pp, fast },
                    Ok(rda_core::BeginOutcome::Pause { pp, shed }) => Effect::Pause { pp, shed },
                    Err(e) => Effect::Rejected(e),
                };
                let want = self.model.pp_begin(ProcessId(process), site, amount, t);
                (got, want)
            }
            TraceEvent::End { t, pp } => {
                let got = match self.ext.pp_end(PpId(pp), SimTime::from_cycles(t)) {
                    Ok(out) => Effect::End {
                        fast: out.fast,
                        resumed: out.resumed,
                    },
                    Err(e) => Effect::Rejected(e),
                };
                let want = self.model.pp_end(PpId(pp), t);
                (got, want)
            }
            TraceEvent::Exit { t, process } => {
                let got = Effect::Woken {
                    resumed: self
                        .ext
                        .process_exit(ProcessId(process), SimTime::from_cycles(t)),
                    expired: Vec::new(),
                };
                let want = self.model.process_exit(ProcessId(process), t);
                (got, want)
            }
            TraceEvent::Age { t } => {
                let out = self.ext.age_waitlist(SimTime::from_cycles(t));
                let got = Effect::Woken {
                    resumed: out.resumed,
                    expired: out.expired,
                };
                let want = self.model.age_waitlist(t);
                (got, want)
            }
            TraceEvent::Retry { t, process, site } => {
                self.ext.note_retry(
                    ProcessId(process),
                    SiteId(site),
                    Resource::Llc,
                    SimTime::from_cycles(t),
                );
                (Effect::Retried, self.model.note_retry())
            }
        };

        if got != want {
            return Err(diverged(format!(
                "call effect mismatch\n  implementation: {got:?}\n  model:          {want:?}"
            )));
        }
        let (ext_snap, model_snap) = (self.ext.snapshot(), self.model.snapshot());
        if let Some(diff) = describe_snapshot_diff(&model_snap, &ext_snap) {
            return Err(diverged(format!("snapshot mismatch: {diff}")));
        }
        if self.ext.fastpath_digest() != self.model.cache_digest() {
            return Err(diverged(format!(
                "fast-path cache mismatch: implementation digest {:#x}, model digest {:#x}",
                self.ext.fastpath_digest(),
                self.model.cache_digest()
            )));
        }
        if let Err(e) = self.ext.check_invariants() {
            return Err(diverged(format!("implementation invariant violated: {e}")));
        }
        Ok(got)
    }
}

/// First difference between two snapshots, rendered for humans; `None`
/// when they are identical.
pub fn describe_snapshot_diff(model: &Snapshot, ext: &Snapshot) -> Option<String> {
    if model == ext {
        return None;
    }
    if model.usage != ext.usage {
        return Some(format!(
            "usage: model {} vs implementation {}",
            model.usage, ext.usage
        ));
    }
    if model.overflow != ext.overflow {
        return Some(format!(
            "overflow: model {} vs implementation {}",
            model.overflow, ext.overflow
        ));
    }
    if model.waitlist != ext.waitlist {
        return Some(format!(
            "waitlist: model {:?} vs implementation {:?}",
            model.waitlist, ext.waitlist
        ));
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

/// Summary of a clean replay.
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
    use rda_core::{DemandAudit, PolicyKind};

    fn doc(policy: &str, extra_header: &str, body: &str) -> TraceDoc {
        TraceDoc::parse(&format!("policy {policy}\n{extra_header}\n{body}")).unwrap()
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
            Effect::Rejected(rda_core::RdaError::BreakerOpen)
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
        skewed.pp_begin(ProcessId(9), 9, 1, 5);
        let diff = describe_snapshot_diff(&skewed.snapshot(), &oracle.ext().snapshot());
        assert!(diff.is_some(), "skewed model must not compare equal");
    }
}
