//! Integration: the differential oracle (`rda-check`) against whole
//! simulated workloads and against every typed rejection path.
//!
//! Three claims are nailed down here:
//!
//! 1. A faulty end-to-end simulation, recorded call by call, replays
//!    through the pure reference model with zero divergence — and
//!    recording itself changes nothing about the run.
//! 2. Every `RdaError` variant a caller can provoke leaves the
//!    observable state bit-identical (modulo its rejection counter):
//!    rejected calls are reads, never writes.
//! 3. Exit-time reclamation composes with waitlist aging: admitted,
//!    waitlisted, and force-admitted-overflow periods of a dead process
//!    all return to zero.

use rda_check::{doc_from_calls, replay, Effect, Oracle};
use rda_core::waitlist::{WaitEntry, Waitlist};
use rda_core::{mb, Demand, DemandAudit, PolicyKind, PpId, RdaError, ResourceKind, SiteId};
use rda_sched::ProcessId;
use rda_sim::{FaultConfig, SimConfig, SystemSim, TopoCall};
use rda_simcore::SimTime;
use rda_workloads::spec::all_workloads;

/// A begin of `amount` LLC bytes at cycle `t`.
fn begin(t: u64, process: u32, site: u32, amount: u64) -> TopoCall {
    TopoCall::Begin {
        now: SimTime::from_cycles(t),
        process: ProcessId(process),
        site: SiteId(site),
        demand: Demand::llc(amount),
    }
}

/// `pp_end(pp)` at cycle `t`.
fn end(t: u64, pp: u64) -> TopoCall {
    TopoCall::End {
        now: SimTime::from_cycles(t),
        pp: PpId(pp),
    }
}

fn faulty_cfg(policy: PolicyKind) -> SimConfig {
    SimConfig::paper_default(policy)
        .with_demand_audit(DemandAudit::Clamp)
        .with_waitlist_timeout_ms(5.0)
        .with_faults(FaultConfig::uniform(0.25))
        .with_jitter_seed(97)
}

/// Recording the call log is observationally free: the run digest (and
/// therefore every simulated outcome) is bit-identical with it on.
#[test]
fn recording_rda_calls_changes_nothing() {
    let spec = &all_workloads()[0];
    let plain = SystemSim::new(faulty_cfg(PolicyKind::Strict), spec)
        .run()
        .unwrap();
    let mut sim = SystemSim::new(faulty_cfg(PolicyKind::Strict).with_rda_trace(), spec);
    let recorded = sim.run().unwrap();
    assert_eq!(plain.digest(), recorded.digest());
    assert!(!sim.rda_calls().is_empty(), "nothing was recorded");
}

/// The bridge test the tentpole hinges on: a whole faulty simulation —
/// demand lies, kills, double ends, aging — recorded and replayed
/// through the reference model, event for event, with the final
/// replayed state equal to the live extension's.
#[test]
fn recorded_faulty_simulation_replays_clean_through_the_model() {
    for policy in [PolicyKind::Strict, PolicyKind::compromise_default()] {
        let spec = &all_workloads()[0];
        let mut sim = SystemSim::new(faulty_cfg(policy).with_rda_trace(), spec);
        sim.run().unwrap_or_else(|e| panic!("{policy}: {e}"));
        let doc = doc_from_calls(sim.rda().config().clone(), sim.rda_calls());
        assert!(
            doc.events.len() > 10,
            "{policy}: trace too small to mean much"
        );
        // The .trace text format must round-trip the recorded run.
        let reparsed =
            rda_check::TraceDoc::parse(&doc.to_text()).unwrap_or_else(|e| panic!("{policy}: {e}"));
        assert_eq!(reparsed, doc);
        let report = replay(&doc).unwrap_or_else(|e| panic!("{policy}: {e}"));
        assert_eq!(
            report.final_snapshot,
            sim.rda().snapshot(),
            "{policy}: replayed state differs from the live extension"
        );
    }
}

fn contended_oracle(audit: DemandAudit) -> Oracle {
    let mut cfg = rda_check::trace::default_config();
    cfg.policy = PolicyKind::Strict;
    cfg.llc_capacity = mb(15.0);
    cfg.demand_audit = audit;
    cfg.waitlist_timeout_cycles = Some(1_000);
    let mut oracle = Oracle::new(cfg);
    // One admitted period (pp 0) and one waitlisted period (pp 1).
    oracle.apply(&begin(0, 0, 0, mb(10.0))).unwrap();
    assert!(matches!(
        oracle.apply(&begin(10, 1, 1, mb(10.0))).unwrap(),
        Effect::Pause { .. }
    ));
    oracle
}

/// Apply `event`, assert it is rejected with `want`, and assert the
/// observable state did not move except for the rejection counters
/// (`rejected_ends` / `clamped`) and the call counters (`begins` /
/// `ends`) that tick on every call.
fn assert_pure_rejection(oracle: &mut Oracle, event: TopoCall, want: RdaError) {
    let before = oracle.snapshot();
    match oracle.apply(&event).unwrap() {
        Effect::Rejected(got) => assert_eq!(got, want),
        other => panic!("{event:?} was not rejected: {other:?}"),
    }
    let after = oracle.snapshot();
    assert_eq!(
        before.without_stats(),
        after.without_stats(),
        "rejected {want:?} moved observable state"
    );
}

#[test]
fn unknown_pp_rejection_is_pure() {
    let mut oracle = contended_oracle(DemandAudit::Clamp);
    assert_pure_rejection(&mut oracle, end(20, 99), RdaError::UnknownPp(PpId(99)));
}

#[test]
fn double_end_rejection_is_pure() {
    let mut oracle = contended_oracle(DemandAudit::Clamp);
    oracle.apply(&end(20, 0)).unwrap();
    // pp 1 resumed when pp 0 ended; end it too so the books are quiet,
    // then end pp 0 a second time.
    oracle.apply(&end(30, 1)).unwrap();
    assert_pure_rejection(&mut oracle, end(40, 0), RdaError::DoubleEnd(PpId(0)));
}

#[test]
fn end_while_waitlisted_rejection_is_pure() {
    let mut oracle = contended_oracle(DemandAudit::Clamp);
    // pp 1 is waitlisted; a paused process cannot legally reach its
    // end marker.
    assert_pure_rejection(
        &mut oracle,
        end(20, 1),
        RdaError::EndWhileWaitlisted(PpId(1)),
    );
}

#[test]
fn demand_overflow_rejection_is_pure() {
    let mut oracle = contended_oracle(DemandAudit::Reject);
    assert_pure_rejection(
        &mut oracle,
        begin(20, 2, 2, mb(99.0)),
        RdaError::DemandOverflow {
            kind: ResourceKind::Llc,
            declared: mb(99.0),
            capacity: mb(15.0),
        },
    );
}

/// `DoubleWaitlist` is unreachable through the public extension API (a
/// waitlisted period cannot re-enter `pp_begin`), so the guard is
/// checked at the data-structure level: the duplicate push is rejected
/// and the queue is untouched.
#[test]
fn double_waitlist_rejection_is_pure() {
    let mut wl = Waitlist::new();
    let entry = WaitEntry {
        pp: PpId(7),
        enqueued_at: SimTime::from_cycles(5),
    };
    wl.push(entry).unwrap();
    assert_eq!(
        wl.push(WaitEntry {
            enqueued_at: SimTime::from_cycles(9), // even with different metadata
            ..entry
        }),
        Err(RdaError::DoubleWaitlist(PpId(7)))
    );
    assert_eq!(wl.len(), 1);
    assert_eq!(wl.front(), Some(entry));
}

/// Satellite: `process_exit` composes with waitlist aging. A process
/// holding a nominally admitted period, a force-admitted overflow
/// period (aged past the timeout), and a still-waitlisted period dies —
/// all three accounting buckets return to exactly what the survivors
/// hold.
#[test]
fn exit_reclaims_admitted_waitlisted_and_overflow_periods() {
    let mut cfg = rda_check::trace::default_config();
    cfg.policy = PolicyKind::Strict;
    cfg.llc_capacity = 16_000;
    cfg.waitlist_timeout_cycles = Some(1_000);
    let mut oracle = Oracle::new(cfg);
    // pp 0 (proc 0, 8k) and pp 1 (proc 1, 7k) admit nominally.
    assert!(matches!(
        oracle.apply(&begin(0, 0, 0, 8_000)).unwrap(),
        Effect::Run { .. }
    ));
    assert!(matches!(
        oracle.apply(&begin(10, 1, 1, 7_000)).unwrap(),
        Effect::Run { .. }
    ));
    // pp 2 (proc 0, 12k) and pp 3 (proc 0, 6k) both pause: 15k used.
    assert!(matches!(
        oracle.apply(&begin(20, 0, 2, 12_000)).unwrap(),
        Effect::Pause { .. }
    ));
    assert!(matches!(
        oracle.apply(&begin(900, 0, 3, 6_000)).unwrap(),
        Effect::Pause { .. }
    ));
    // At t=1100 only pp 2 (enqueued t=20) has aged past the 1000-cycle
    // timeout; it force-admits to the overflow bucket. pp 3 (t=900)
    // still waits.
    let age = TopoCall::Age {
        now: SimTime::from_cycles(1_100),
    };
    match oracle.apply(&age).unwrap() {
        Effect::Woken { resumed, .. } => assert_eq!(resumed.len(), 1),
        other => panic!("{other:?}"),
    }
    let mid = oracle.snapshot();
    assert_eq!(mid.usage, [[15_000, 0, 0]]);
    assert_eq!(mid.overflow, [[12_000, 0, 0]]);
    assert_eq!(mid.waitlists[0].len(), 1);
    // Process 0 dies holding all three kinds of period.
    let exit = TopoCall::Exit {
        now: SimTime::from_cycles(1_200),
        process: ProcessId(0),
    };
    oracle.apply(&exit).unwrap();
    let after = oracle.snapshot();
    assert_eq!(
        after.usage,
        [[7_000, 0, 0]],
        "only the survivor's demand remains"
    );
    assert_eq!(after.overflow, [[0; 3]], "force-admitted period reclaimed");
    assert!(after.waitlists[0].is_empty(), "waitlisted period cancelled");
    assert_eq!(after.stats.reclaimed, 3);
    // The survivor ends; everything is zero again.
    oracle.apply(&end(1_300, 1)).unwrap();
    assert!(oracle.snapshot().is_idle());
}

/// The oracle's per-step `check_invariants` call is what covers
/// `RdaError::InvariantViolation`: it cannot be provoked through the
/// public API (that is the point), so here we only pin down that a
/// heavily exercised extension reports none.
#[test]
fn invariants_hold_after_heavy_traffic() {
    let mut oracle = contended_oracle(DemandAudit::Clamp);
    for t in 0..40u64 {
        let (process, site) = ((t % 5) as u32, (t % 3) as u32);
        let _ = oracle.apply(&begin(20 + t * 13, process, site, mb(1.0) * (t % 7)));
        let _ = oracle.apply(&end(21 + t * 13, t % 9));
    }
    oracle.ext().check_invariants().unwrap();
}

// ---------------------------------------------------------------------
// Registry differential: the slab-arena `PpRegistry` against the
// `BTreeMap` reference implementation it replaced. Arbitrary
// schedules of register / mutate / complete / process-exit reclamation must leave both with identical observable
// state after every single step — including id-order iteration, which
// the snapshot digest depends on.
// ---------------------------------------------------------------------

mod registry_differential {
    use proptest::prelude::*;
    use rda_core::registry::{reference::BTreeRegistry, PpRecord, PpRegistry};
    use rda_core::{Demand, LayerId, NodeId, PpId, SiteId};
    use rda_sched::ProcessId;

    /// The period a `Register` op begins.
    #[derive(Debug, Clone, Copy)]
    struct Period {
        process: u32,
        site: u32,
        layer: bool,
        declared: u64,
        accounted: u64,
        admitted: bool,
    }

    /// One step of a schedule. Id-bearing ops pick from the ids ever
    /// allocated via an index draw, so they hit live ids, completed ids
    /// (double completes), and — via the `+ 3` slack — ids never
    /// allocated at all.
    #[derive(Debug, Clone)]
    enum Op {
        Register(Period),
        Complete {
            pick: usize,
        },
        /// Fault-style rewrite of a live record through `get_mut` (what
        /// waitlist admission and aging do to its flags).
        Mutate {
            pick: usize,
            to: Period,
        },
        /// Exit-time reclamation of every live period of one process,
        /// through `PpRegistry::reclaim`, as `process_exit` does.
        ExitProcess {
            process: u32,
        },
    }

    fn arb_period() -> impl Strategy<Value = Period> {
        let who = (0u32..6, 0u32..4, any::<bool>(), 1u64..200);
        let what = (0u64..50_000_000, any::<bool>());
        (who, what).prop_map(
            |((process, site, layer, declared), (accounted, admitted))| Period {
                process,
                site,
                layer,
                declared,
                accounted,
                admitted,
            },
        )
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => arb_period().prop_map(Op::Register),
            3 => (0usize..64).prop_map(|pick| Op::Complete { pick }),
            2 => (0usize..64, arb_period()).prop_map(|(pick, to)| Op::Mutate { pick, to }),
            1 => (0u32..6).prop_map(|process| Op::ExitProcess { process }),
        ]
    }

    /// The record `p` registers under `id`.
    fn record(p: Period, id: PpId) -> PpRecord {
        PpRecord {
            id,
            process: ProcessId(p.process),
            site: SiteId(p.site),
            layer: LayerId(p.layer as u32),
            node: NodeId(p.site % 2),
            declared: Demand::new(p.declared, p.accounted, 0),
            accounted: Demand::new(p.accounted, p.declared, 0),
            admitted: p.admitted,
            overflow: false,
        }
    }

    /// Full observable state must agree: counts, allocation history,
    /// per-id lookup, and iteration *order*.
    fn assert_equivalent(arena: &PpRegistry, model: &BTreeRegistry) {
        assert_eq!(arena.len(), model.len());
        assert_eq!(arena.is_empty(), model.is_empty());
        assert_eq!(arena.allocated(), model.allocated());
        let a: Vec<_> = arena.iter().copied().collect();
        let b: Vec<_> = model.iter().copied().collect();
        assert_eq!(a, b, "iteration order or contents diverged");
        for id in 0..arena.allocated() + 3 {
            let id = PpId(id);
            assert_eq!(arena.was_allocated(id), model.was_allocated(id));
            assert_eq!(arena.get(id), model.get(id), "lookup diverged at {id}");
        }
    }

    /// Drive the arena and the reference through `ops`.
    fn check(ops: &[Op]) {
        let mut arena = PpRegistry::new();
        let mut model = BTreeRegistry::new();
        for op in ops {
            match *op {
                Op::Register(p) => {
                    let make = |id| record(p, id);
                    prop_assert_eq!(arena.insert(make), model.insert(make), "id allocation");
                }
                Op::Complete { pick } => {
                    // Reaches live, completed, and never-allocated ids.
                    let id = PpId((pick as u64) % (arena.allocated() + 3));
                    prop_assert_eq!(arena.complete(id), model.complete(id));
                }
                Op::Mutate { pick, to } => {
                    let id = PpId((pick as u64) % (arena.allocated() + 3));
                    let rewrite = |r: &mut PpRecord| *r = record(to, id);
                    let live = arena.get_mut(id).map(rewrite);
                    prop_assert_eq!(live, model.get_mut(id).map(rewrite));
                }
                Op::ExitProcess { process } => {
                    let dying = |r: &PpRecord| r.process == ProcessId(process);
                    let want: Vec<PpRecord> = model.iter().copied().filter(dying).collect();
                    for r in &want {
                        model.complete(r.id);
                    }
                    let mut got = Vec::new();
                    arena.reclaim(dying, &mut got);
                    prop_assert_eq!(got, want, "reclaimed records or their order diverged");
                }
            }
            assert_equivalent(&arena, &model);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn arena_registry_matches_btree_reference(ops in prop::collection::vec(arb_op(), 1..80)) {
            check(&ops);
        }
    }
}
