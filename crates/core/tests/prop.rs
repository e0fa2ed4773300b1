//! Property-based tests for the RDA extension: for arbitrary sequences
//! of progress-period begin/end events, the load table stays exact,
//! policies are never violated, and the waitlist drains.

use proptest::prelude::*;
use rda_core::{mb, BeginOutcome, PolicyKind, PpDemand, PpId, RdaConfig, RdaExtension, SiteId};
use rda_machine::{MachineConfig, ReuseLevel};
use rda_sched::ProcessId;
use rda_simcore::SimTime;

#[derive(Debug, Clone)]
enum Op {
    Begin {
        process: u8,
        site: u8,
        tenth_mb: u16,
        reuse: u8,
    },
    EndOldest,
    EndNewest,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..8, 0u8..4, 1u16..200, 0u8..3).prop_map(|(process, site, tenth_mb, reuse)| {
            Op::Begin { process, site, tenth_mb, reuse }
        }),
        1 => Just(Op::EndOldest),
        1 => Just(Op::EndNewest),
    ]
}

fn reuse_of(r: u8) -> ReuseLevel {
    match r {
        0 => ReuseLevel::Low,
        1 => ReuseLevel::Medium,
        _ => ReuseLevel::High,
    }
}

fn policies() -> [PolicyKind; 3] {
    [
        PolicyKind::Strict,
        PolicyKind::compromise_default(),
        PolicyKind::Partitioned { quota_frac: 0.3 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Registry/monitor consistency and policy limits hold through any
    /// operation sequence, and ending everything returns to idle.
    #[test]
    fn extension_invariants_hold(ops in prop::collection::vec(arb_op(), 1..80)) {
        for policy in policies() {
            let cfg = RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), policy);
            let capacity = cfg.llc_capacity;
            let limit = policy.usage_limit(capacity);
            let mut ext = RdaExtension::new(cfg);
            let mut admitted: Vec<PpId> = Vec::new();
            let mut clock = 0u64;

            for op in &ops {
                clock += 1_000;
                match *op {
                    Op::Begin { process, site, tenth_mb, reuse } => {
                        let demand = PpDemand::llc(
                            mb(tenth_mb as f64 / 10.0),
                            reuse_of(reuse),
                        );
                        let accounted = policy.effective_demand(demand.amount, capacity);
                        let out = ext.pp_begin(
                            ProcessId(process as u32),
                            SiteId(site as u32),
                            demand,
                            SimTime::from_cycles(clock),
                        ).expect("default Trust audit never rejects");
                        match out {
                            BeginOutcome::Run { pp, .. } => {
                                admitted.push(pp);
                                // Admission may only exceed the policy
                                // limit through the oversized-demand
                                // deadlock guard.
                                if accounted <= limit {
                                    prop_assert!(
                                        ext.usage() <= limit,
                                        "{policy}: usage {} over limit {limit}",
                                        ext.usage()
                                    );
                                }
                            }
                            BeginOutcome::Pause { .. } => {}
                            BeginOutcome::Bypass => unreachable!("gating policies only"),
                        }
                    }
                    Op::EndOldest => {
                        if !admitted.is_empty() {
                            let pp = admitted.remove(0);
                            let out = ext.pp_end(pp, SimTime::from_cycles(clock))
                                .expect("ending a live admitted period");
                            admitted.extend(out.resumed.iter().map(|&(pp, _)| pp));
                        }
                    }
                    Op::EndNewest => {
                        if let Some(pp) = admitted.pop() {
                            let out = ext.pp_end(pp, SimTime::from_cycles(clock))
                                .expect("ending a live admitted period");
                            admitted.extend(out.resumed.iter().map(|&(pp, _)| pp));
                        }
                    }
                }
                prop_assert!(ext.check_invariants().is_ok(), "{policy}");
            }

            // Drain everything; the system must return to idle.
            while let Some(pp) = admitted.pop() {
                clock += 1_000;
                let out = ext.pp_end(pp, SimTime::from_cycles(clock))
                    .expect("ending a live admitted period");
                admitted.extend(out.resumed.iter().map(|&(pp, _)| pp));
            }
            prop_assert_eq!(ext.usage(), 0, "{}", policy);
            prop_assert_eq!(ext.waitlist_len(), 0, "{}", policy);
            let s = ext.stats();
            prop_assert_eq!(s.begins, s.ends);
            prop_assert_eq!(s.paused, s.resumed);
        }
    }

    /// The fast path is exact: a run with memoisation admits/pauses the
    /// same sequence as a run with the fast path disabled (re-eval
    /// interval forced to zero).
    #[test]
    fn fast_path_is_semantically_invisible(
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let machine = MachineConfig::xeon_e5_2420();
        let with_fast = RdaConfig::for_machine(&machine, PolicyKind::Strict);
        let mut without_fast = with_fast.clone();
        without_fast.min_eval_interval_cycles = 0;

        let decisions = |cfg: RdaConfig| {
            let mut ext = RdaExtension::new(cfg);
            let mut admitted: Vec<PpId> = Vec::new();
            let mut log = Vec::new();
            let mut clock = 0u64;
            for op in &ops {
                clock += 10; // dense in time to exercise the fast path
                match *op {
                    Op::Begin { process, site, tenth_mb, reuse } => {
                        let demand = PpDemand::llc(mb(tenth_mb as f64 / 10.0), reuse_of(reuse));
                        let out = ext.pp_begin(
                            ProcessId(process as u32),
                            SiteId(site as u32),
                            demand,
                            SimTime::from_cycles(clock),
                        ).expect("default Trust audit never rejects");
                        match out {
                            BeginOutcome::Run { pp, .. } => {
                                log.push(true);
                                admitted.push(pp);
                            }
                            BeginOutcome::Pause { .. } => log.push(false),
                            BeginOutcome::Bypass => unreachable!(),
                        }
                    }
                    Op::EndOldest if !admitted.is_empty() => {
                        let pp = admitted.remove(0);
                        let out = ext.pp_end(pp, SimTime::from_cycles(clock))
                            .expect("ending a live admitted period");
                        admitted.extend(out.resumed.iter().map(|&(pp, _)| pp));
                    }
                    Op::EndNewest => {
                        if let Some(pp) = admitted.pop() {
                            let out = ext.pp_end(pp, SimTime::from_cycles(clock))
                                .expect("ending a live admitted period");
                            admitted.extend(out.resumed.iter().map(|&(pp, _)| pp));
                        }
                    }
                    _ => {}
                }
            }
            log
        };

        prop_assert_eq!(decisions(with_fast), decisions(without_fast));
    }
}

#[derive(Debug, Clone)]
enum WlOp {
    Push(u16),
    Pop,
    Cancel(u8),
    PopExpired(u16),
}

fn arb_wl_op() -> impl Strategy<Value = WlOp> {
    prop_oneof![
        4 => (0u16..1_000).prop_map(WlOp::Push),
        1 => Just(WlOp::Pop),
        1 => (0u8..40).prop_map(WlOp::Cancel),
        1 => (0u16..1_000).prop_map(WlOp::PopExpired),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The waitlist agrees with a naive Vec model through arbitrary
    /// push/pop/cancel/expiry sequences whose queue lengths grow past
    /// 16 entries and shrink back below: FIFO order, expiry selection,
    /// and the cached minimum enqueue time all stay exact.
    #[test]
    fn waitlist_matches_model_across_the_promotion_boundary(
        ops in prop::collection::vec(arb_wl_op(), 1..120)
    ) {
        use rda_core::waitlist::{WaitEntry, Waitlist};
        let mut w = Waitlist::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (pp, stamp), queue order
        let mut next = 0u64;
        for op in ops {
            match op {
                WlOp::Push(stamp) => {
                    let stamp = stamp as u64;
                    w.push(WaitEntry {
                        pp: PpId(next),
                        enqueued_at: SimTime::from_cycles(stamp),
                    })
                    .expect("fresh ids never collide");
                    model.push((next, stamp));
                    next += 1;
                }
                WlOp::Pop => {
                    let got = w.pop().map(|e| e.pp.0);
                    let want = if model.is_empty() {
                        None
                    } else {
                        Some(model.remove(0).0)
                    };
                    prop_assert_eq!(got, want);
                }
                WlOp::Cancel(i) => {
                    if model.is_empty() {
                        prop_assert!(!w.cancel(PpId(next)));
                    } else {
                        let i = i as usize % model.len();
                        let (pp, _) = model.remove(i);
                        prop_assert!(w.cancel(PpId(pp)));
                    }
                }
                WlOp::PopExpired(timeout) => {
                    // `now` dominates every stamp, so expiry is purely
                    // a wait-length question.
                    let now = 2_000u64;
                    let timeout = timeout as u64;
                    let got = w
                        .pop_expired(SimTime::from_cycles(now), timeout)
                        .map(|e| e.pp.0);
                    // Model: the first entry holding the minimal stamp,
                    // if it has waited long enough.
                    let want = model
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &(_, s))| s)
                        .filter(|&(_, &(_, s))| now - s >= timeout)
                        .map(|(i, _)| i)
                        .map(|i| model.remove(i).0);
                    prop_assert_eq!(got, want);
                }
            }
            let order: Vec<u64> = w.iter().map(|e| e.pp.0).collect();
            let expect: Vec<u64> = model.iter().map(|&(pp, _)| pp).collect();
            prop_assert_eq!(order, expect, "queue order diverged from model");
            let oldest = w.oldest().map(|t| t.cycles());
            prop_assert_eq!(oldest, model.iter().map(|&(_, s)| s).min());
        }
    }
}
