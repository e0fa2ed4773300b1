//! The topology differential oracle: one call stream, two machines,
//! equality after every step.
//!
//! [`TopoOracle`] drives the implementation
//! ([`rda_core::TopoExtension`]) and the recompute-by-summation
//! reference model ([`crate::topo_model::TopoRefModel`]) with identical
//! calls and, after *every* call, demands:
//!
//! 1. the per-call results agree (outcome variant, allocated id,
//!    resumed/expired/shed lists **in order**, error variant and
//!    payload, including node and resource-kind payloads);
//! 2. the observable snapshots are bit-identical — per-node nominal and
//!    overflow books, per-node waitlist order with enqueue times, live
//!    periods with their layer/node/vectors, every stats counter, and
//!    the id-allocator position;
//! 3. the per-node saturation-breaker open flags agree;
//! 4. the implementation's own `check_invariants` passes (which
//!    recomputes the incremental per-node *and per-layer* books).
//!
//! Since the model derives every book by summation while the
//! implementation maintains them incrementally, agreement here is a
//! proof that no release path (end, exit, shed, expiry) ever leaks a
//! component of a demand vector — the multi-resource drain audit of
//! DESIGN.md §9, checked on every call of every replayed trace.

use crate::diff::{agree, replay_calls, Divergence, Explorable, ReplayReport};
use crate::model::Effect;
use crate::topo_model::{TopoMutation, TopoRefModel};
use crate::topo_trace::{lift, TopoDoc};
use crate::trace::TraceDoc;
use rda_core::{NodeId, ResourceKind, Snapshot, TopoConfig, TopoExtension};
use rda_sim::TopoCall;
use rda_simcore::Fnv1a64;

/// Implementation + model in lockstep.
#[derive(Debug, Clone)]
pub struct TopoOracle {
    ext: TopoExtension,
    model: TopoRefModel,
    steps: usize,
}

impl TopoOracle {
    /// Both machines fresh under the same configuration.
    pub fn new(cfg: TopoConfig) -> Self {
        Self::with_mutation(cfg, TopoMutation::None)
    }

    /// An oracle whose *model* carries an injected bug — used by the
    /// explorer's self-test to prove divergences are caught.
    pub fn with_mutation(cfg: TopoConfig, mutation: TopoMutation) -> Self {
        TopoOracle {
            ext: TopoExtension::new(cfg.clone()),
            model: TopoRefModel::with_mutation(cfg, mutation),
            steps: 0,
        }
    }

    /// The implementation under test.
    pub fn ext(&self) -> &TopoExtension {
        &self.ext
    }

    /// The reference model.
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
            } => self.ext.pp_begin(process, site, demand, now).into(),
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
        let want = self.model.apply(call);

        agree(&got, &want, &self.ext.snapshot(), &self.model.snapshot()).map_err(diverged)?;
        for n in 0..self.ext.node_count() {
            for k in ResourceKind::ALL {
                let node = NodeId(n as u32);
                let (i, m) = (
                    self.ext.breaker_is_open(node, k),
                    self.model.breaker_is_open(node, k),
                );
                if i != m {
                    return Err(diverged(format!(
                        "breaker[{node}/{k}]: implementation open={i}, model open={m}"
                    )));
                }
            }
        }
        if let Err(e) = self.ext.check_invariants() {
            return Err(diverged(format!("implementation invariant violated: {e}")));
        }
        Ok(got)
    }
}

impl Explorable for TopoOracle {
    type Doc = TopoDoc;

    fn apply(&mut self, call: &TopoCall) -> Result<Effect, Box<Divergence>> {
        TopoOracle::apply(self, call)
    }
    fn snapshot(&self) -> Snapshot {
        TopoOracle::snapshot(self)
    }
    fn fold_state(&self, h: &mut Fnv1a64) {
        h.write_u64(self.snapshot().digest());
        h.write_u64(self.model.breaker_digest());
    }
    fn doc(&self, events: Vec<TopoCall>) -> TopoDoc {
        TopoDoc {
            cfg: self.ext.config().clone(),
            events,
        }
    }
}

/// Replay a whole topology trace through the oracle.
pub fn replay_topo(doc: &TopoDoc) -> Result<ReplayReport, Box<Divergence>> {
    replay_calls(TopoOracle::new(doc.cfg.clone()), &doc.events)
}

/// Replay a *scalar* trace through the topology oracle by lifting it
/// with [`crate::topo_trace::lift`] — every legacy corpus trace doubles
/// as a compatibility check of the topology engine.
pub fn replay_lifted(doc: &TraceDoc) -> Result<ReplayReport, Box<Divergence>> {
    replay_topo(&lift(doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{Demand, PpId, SiteId};
    use rda_sched::ProcessId;
    use rda_simcore::SimTime;

    fn doc(text: &str) -> TopoDoc {
        TopoDoc::parse(text).unwrap()
    }

    #[test]
    fn two_node_spillover_replays_cleanly() {
        let d = doc("node 100 50 1000\nnode 100 50 1000\n\
             vbegin 0 0 0 60 0 0\nvbegin 10 1 1 60 0 0\nvbegin 20 2 2 60 0 0\n\
             end 30 0\nend 40 1\nend 50 2\n");
        let report = replay_topo(&d).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.steps, 6);
        assert!(report.final_snapshot.is_idle());
        assert_eq!(
            report.final_snapshot.stats.paused, 1,
            "third 60 had to wait"
        );
        assert_eq!(report.final_snapshot.stats.resumed, 1);
    }

    #[test]
    fn layered_guarantee_replays_cleanly() {
        let d = doc("node 100 50 1000\n\
             layer batch strict\nlayer latency strict guarantee 40 0 0\nassign 9 1\n\
             vbegin 0 0 0 61 0 0\nvbegin 10 9 1 30 0 0\nvbegin 20 1 2 60 0 0\n\
             end 30 1\nend 40 2\nexit 50 0\n");
        let report = replay_topo(&d).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.final_snapshot.is_idle());
        assert!(matches!(report.effects[0], Effect::Pause { .. }));
        assert!(matches!(report.effects[1], Effect::Run { .. }));
        assert!(matches!(report.effects[2], Effect::Run { .. }));
    }

    #[test]
    fn multi_resource_overload_replays_cleanly() {
        let d = doc("node 100 50 1000\nnode 100 50 1000\n\
             audit clamp\ntimeout 1000\noverload 1 reject_oldest\ndeadline 2000\n\
             breaker 90 40 1 1 0\n\
             vbegin 0 0 0 90 45 10\nvbegin 10 1 1 90 45 10\n\
             vbegin 20 2 2 0 10 0\nvbegin 30 3 3 0 10 0\nvbegin 40 4 4 0 10 0\n\
             age 500\nexit 600 0\nage 1700\nend 1800 1\nage 4000\nexit 4100 2\n\
             exit 4200 3\nexit 4300 4\n");
        let report = replay_topo(&d).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.final_snapshot.is_idle());
        let s = report.final_snapshot.stats;
        assert!(s.shed >= 1, "bounded gate fired");
        assert!(s.breaker_trips >= 1, "breaker tripped");
    }

    #[test]
    fn lifted_scalar_traces_replay_cleanly() {
        let scalar = TraceDoc::parse(
            "policy strict\nllc 15728640\naudit reject\ntimeout 1000\n\
             begin 0 0 0 llc 10mb\nbegin 10 1 1 llc 99mb\nend 20 7\nend 30 0\nend 40 0\n\
             begin 50 2 2 llc 14mb\nbegin 60 3 3 llc 14mb\nage 2000\nexit 3000 2\nexit 3010 3\n",
        )
        .unwrap();
        let report = replay_lifted(&scalar).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.final_snapshot.is_idle());
        let s = report.final_snapshot.stats;
        assert_eq!(s.clamped, 1);
        assert_eq!(s.rejected_ends, 2);
        assert!(s.aged_admissions >= 1);
    }

    #[test]
    fn a_mutated_model_is_caught_on_an_exact_fit() {
        let d = doc("node 100 50 1000\nvbegin 0 0 0 100 0 0\n");
        let mut oracle = TopoOracle::with_mutation(d.cfg.clone(), TopoMutation::StrictOffByOne);
        let err = oracle
            .apply(&d.events[0])
            .expect_err("off-by-one model must diverge on an exact fit");
        assert!(err.detail.contains("call effect mismatch"), "{err}");
    }

    #[test]
    fn dram_is_a_first_class_gating_resource() {
        let at = SimTime::from_cycles;
        let begin = |t, p, dram| TopoCall::Begin {
            now: at(t),
            process: ProcessId(p),
            site: SiteId(p),
            demand: Demand::new(0, 0, dram),
        };
        let end = |t, pp| TopoCall::End {
            now: at(t),
            pp: PpId(pp),
        };
        let d = TopoDoc {
            cfg: doc("node 100 50 1000\n").cfg,
            events: vec![begin(0, 0, 900), begin(10, 1, 200), end(20, 0), end(30, 1)],
        };
        let report = replay_topo(&d).unwrap_or_else(|e| panic!("{e}"));
        assert!(matches!(report.effects[1], Effect::Pause { .. }));
        assert!(report.final_snapshot.is_idle());
    }
}
