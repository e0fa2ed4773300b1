//! Property tests for the Algorithm 1 scheduling predicate, as wired
//! into [`RdaExtension`]:
//!
//! * under **Strict**, admitted demand never exceeds nominal capacity;
//! * under **Compromise(x)**, admitted demand never exceeds `x ×`
//!   capacity;
//! * every `pp_end` re-attempts the waitlist: afterwards the FIFO head
//!   either got admitted or genuinely does not fit.
//!
//! Demands are generated strictly below the policy's usage limit so the
//! oversized-demand deadlock guard (tested separately) never fires —
//! these properties are about the predicate proper.

use proptest::prelude::*;
use rda_core::{mb, BeginOutcome, PolicyKind, PpDemand, PpId, RdaConfig, RdaExtension, SiteId};
use rda_machine::{MachineConfig, ReuseLevel};
use rda_sched::ProcessId;
use rda_simcore::SimTime;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Begin a period of `tenth_mb / 10` MB from `process`.
    Begin {
        process: u8,
        site: u8,
        tenth_mb: u16,
    },
    /// End the oldest still-admitted period.
    EndOldest,
    /// End the newest still-admitted period.
    EndNewest,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..8, 0u8..4, 1u16..140).prop_map(|(process, site, tenth_mb)| {
            Op::Begin { process, site, tenth_mb }
        }),
        1 => Just(Op::EndOldest),
        1 => Just(Op::EndNewest),
    ]
}

/// Drives an extension through `ops`, calling `check` after every
/// operation with (extension, FIFO of still-waiting (pp, demand)).
fn drive(
    policy: PolicyKind,
    ops: &[Op],
    mut check: impl FnMut(&RdaExtension, &[(PpId, u64)], bool),
) {
    let cfg = RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), policy);
    let limit = policy.usage_limit(cfg.llc_capacity);
    let mut ext = RdaExtension::new(cfg);
    let mut admitted: Vec<PpId> = Vec::new();
    let mut waiting: Vec<(PpId, u64)> = Vec::new();
    let mut clock = 0u64;
    for op in ops {
        clock += 1_000;
        let now = SimTime::from_cycles(clock);
        let mut was_end = false;
        match *op {
            Op::Begin {
                process,
                site,
                tenth_mb,
            } => {
                let amount = mb(tenth_mb as f64 / 10.0).min(limit.saturating_sub(1));
                let demand = PpDemand::llc(amount, ReuseLevel::High);
                let out = ext
                    .pp_begin(ProcessId(process as u32), SiteId(site as u32), demand, now)
                    .expect("default Trust audit never rejects");
                match out {
                    BeginOutcome::Run { pp, .. } => admitted.push(pp),
                    BeginOutcome::Pause { pp, .. } => waiting.push((pp, amount)),
                    BeginOutcome::Bypass => unreachable!("gating policies only"),
                }
            }
            Op::EndOldest | Op::EndNewest => {
                was_end = true;
                let ended = match op {
                    Op::EndOldest if !admitted.is_empty() => Some(admitted.remove(0)),
                    Op::EndNewest => admitted.pop(),
                    _ => None,
                };
                if let Some(pp) = ended {
                    let out = ext.pp_end(pp, now).expect("ending a live admitted period");
                    for &(pp, _) in &out.resumed {
                        let pos = waiting
                            .iter()
                            .position(|&(w, _)| w == pp)
                            .expect("resumed a period we never saw waitlisted");
                        prop_assert_eq!(pos, 0, "waitlist must resume in FIFO order");
                        waiting.remove(pos);
                        admitted.push(pp);
                    }
                }
            }
        }
        check(&ext, &waiting, was_end);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Strict: total admitted LLC demand stays within nominal capacity
    /// after every single operation.
    #[test]
    fn strict_admitted_demand_never_exceeds_capacity(
        ops in prop::collection::vec(arb_op(), 1..100),
    ) {
        let capacity = RdaConfig::for_machine(
            &MachineConfig::xeon_e5_2420(),
            PolicyKind::Strict,
        )
        .llc_capacity;
        drive(PolicyKind::Strict, &ops, |ext, _, _| {
            prop_assert!(
                ext.usage() <= capacity,
                "usage {} exceeds capacity {capacity}",
                ext.usage()
            );
        });
    }

    /// Compromise(x): total admitted LLC demand stays within x ×
    /// capacity after every single operation, for several x.
    #[test]
    fn compromise_admitted_demand_never_exceeds_x_capacity(
        ops in prop::collection::vec(arb_op(), 1..100),
        factor_tenths in 10u8..40,
    ) {
        let factor = factor_tenths as f64 / 10.0;
        let policy = PolicyKind::Compromise { factor };
        let capacity = RdaConfig::for_machine(
            &MachineConfig::xeon_e5_2420(),
            policy,
        )
        .llc_capacity;
        let limit = policy.usage_limit(capacity);
        drive(policy, &ops, |ext, _, _| {
            prop_assert!(
                ext.usage() <= limit,
                "usage {} exceeds {factor} x capacity = {limit}",
                ext.usage()
            );
        });
    }

    /// Every `pp_end` re-attempts the waitlist: immediately after an
    /// end, the FIFO head (if any) must be a period that genuinely does
    /// not fit under the current usage — a fitting head left waiting
    /// would mean the re-attempt was skipped.
    #[test]
    fn waitlist_is_reattempted_on_every_pp_end(
        ops in prop::collection::vec(arb_op(), 1..100),
    ) {
        for policy in [PolicyKind::Strict, PolicyKind::compromise_default()] {
            let capacity = RdaConfig::for_machine(
                &MachineConfig::xeon_e5_2420(),
                policy,
            )
            .llc_capacity;
            let limit = policy.usage_limit(capacity);
            drive(policy, &ops, |ext, waiting, was_end| {
                if !was_end {
                    return;
                }
                if let Some(&(pp, demand)) = waiting.first() {
                    let free = limit - ext.usage();
                    prop_assert!(
                        demand > free,
                        "{policy}: head {pp} ({demand} B) fits in {free} B free \
                         but was left waiting after pp_end"
                    );
                }
            });
        }
    }
}
