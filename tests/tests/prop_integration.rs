//! Property-based integration tests: for arbitrary (small) workloads,
//! the full stack completes, conserves work, and respects the policy
//! invariants under every scheduling policy.

use proptest::prelude::*;
use rda_core::{mb, PolicyKind, SiteId};
use rda_machine::ReuseLevel;
use rda_sim::{SimConfig, SystemSim};
use rda_workloads::{Phase, ProcessProgram, WorkloadSpec};

#[derive(Debug, Clone)]
struct ArbPhase {
    instr: u64,
    ws_tenth_mb: u64,
    reuse: u8,
    tracked: bool,
}

fn arb_phase() -> impl Strategy<Value = ArbPhase> {
    (
        1_000_000u64..20_000_000,
        1u64..80, // 0.1 .. 8.0 MB
        0u8..3,
        any::<bool>(),
    )
        .prop_map(|(instr, ws_tenth_mb, reuse, tracked)| ArbPhase {
            instr,
            ws_tenth_mb,
            reuse,
            tracked,
        })
}

fn build_spec(procs: Vec<(u8, Vec<ArbPhase>)>) -> WorkloadSpec {
    WorkloadSpec {
        name: "prop".into(),
        processes: procs
            .into_iter()
            .map(|(threads, phases)| ProcessProgram {
                threads: threads as usize,
                phases: phases
                    .into_iter()
                    .enumerate()
                    .map(|(k, p)| {
                        let reuse = match p.reuse {
                            0 => ReuseLevel::Low,
                            1 => ReuseLevel::Medium,
                            _ => ReuseLevel::High,
                        };
                        let ws = mb(p.ws_tenth_mb as f64 / 10.0);
                        if p.tracked {
                            Phase::tracked(format!("p{k}"), p.instr, ws, reuse, SiteId(k as u32))
                        } else {
                            Phase::untracked(format!("p{k}"), p.instr, ws, reuse)
                        }
                    })
                    .collect(),
            })
            .collect(),
    }
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    prop::collection::vec((1u8..4, prop::collection::vec(arb_phase(), 1..4)), 1..6)
        .prop_map(build_spec)
}

fn policies() -> [PolicyKind; 4] {
    [
        PolicyKind::DefaultOnly,
        PolicyKind::Strict,
        PolicyKind::compromise_default(),
        PolicyKind::Partitioned { quota_frac: 0.5 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No deadlocks, exact work conservation, positive physics — under
    /// every policy, for arbitrary workloads.
    #[test]
    fn any_workload_completes_under_any_policy(spec in arb_spec()) {
        let expected: u64 = spec
            .processes
            .iter()
            .map(|p| p.phases.iter().map(|ph| ph.instr_per_thread).sum::<u64>() * p.threads as u64)
            .sum();
        for policy in policies() {
            let mut sim = SystemSim::new(SimConfig::paper_default(policy), &spec);
            let r = sim.run().unwrap_or_else(|e| panic!("{policy}: {e}"));
            prop_assert_eq!(r.measurement.counters.instructions, expected);
            prop_assert!(r.measurement.wall_secs > 0.0);
            prop_assert!(r.measurement.system_joules() > 0.0);
            prop_assert!(r.measurement.dram_joules() > 0.0);
            // Begin/end balance: every opened period closed.
            prop_assert_eq!(r.rda.begins, r.rda.ends);
            // Everything paused was eventually resumed.
            prop_assert_eq!(r.rda.paused, r.rda.resumed);
        }
    }

    /// Gating can only reduce concurrent cache pressure: the strict
    /// policy never produces more LLC misses than the default policy.
    #[test]
    fn strict_never_misses_more_than_default(spec in arb_spec()) {
        let d = SystemSim::new(SimConfig::paper_default(PolicyKind::DefaultOnly), &spec)
            .run()
            .unwrap();
        let s = SystemSim::new(SimConfig::paper_default(PolicyKind::Strict), &spec)
            .run()
            .unwrap();
        // Allow 5 % slack for switch-warmup and accounting rounding.
        prop_assert!(
            s.measurement.counters.llc_misses as f64
                <= d.measurement.counters.llc_misses as f64 * 1.05 + 1e4,
            "strict {} vs default {}",
            s.measurement.counters.llc_misses,
            d.measurement.counters.llc_misses
        );
    }

    /// The energy accountant and the wall clock agree: average power is
    /// bounded by the machine's physical envelope.
    #[test]
    fn average_power_stays_within_the_envelope(spec in arb_spec()) {
        let r = SystemSim::new(SimConfig::paper_default(PolicyKind::compromise_default()), &spec)
            .run()
            .unwrap();
        let watts = r.measurement.energy.average_watts(r.measurement.wall_secs);
        // Static floor: idle package + DRAM background.
        prop_assert!(watts > 15.0, "implausibly low power {watts}");
        // Ceiling: full static load + generous dynamic margin.
        prop_assert!(watts < 180.0, "implausibly high power {watts}");
    }
}
