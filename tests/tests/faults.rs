//! Fault-model property tests: for arbitrary workloads, fault rates,
//! and seeds, the system degrades gracefully and recovers completely —
//! the monitor's books return to exactly zero once every process has
//! exited, no waitlist entry outlives its process, and faulty sweeps
//! stay bit-identical across seeds and thread counts.

use proptest::prelude::*;
use rda_core::{mb, DemandAudit, PolicyKind, SiteId};
use rda_machine::ReuseLevel;
use rda_sim::runner::{run_sweep_configured, RunnerOptions, SweepGrid};
use rda_sim::{FaultConfig, SimConfig, SystemSim};
use rda_workloads::spec::all_workloads;
use rda_workloads::{Phase, ProcessProgram, WorkloadSpec};

#[derive(Debug, Clone)]
struct ArbPhase {
    instr: u64,
    ws_tenth_mb: u64,
    tracked: bool,
}

fn arb_phase() -> impl Strategy<Value = ArbPhase> {
    (1_000_000u64..10_000_000, 1u64..120, any::<bool>()).prop_map(
        |(instr, ws_tenth_mb, tracked)| ArbPhase {
            instr,
            ws_tenth_mb,
            tracked,
        },
    )
}

fn build_spec(procs: Vec<(u8, Vec<ArbPhase>)>) -> WorkloadSpec {
    WorkloadSpec {
        name: "faulty-prop".into(),
        processes: procs
            .into_iter()
            .map(|(threads, phases)| ProcessProgram {
                threads: threads as usize,
                phases: phases
                    .into_iter()
                    .enumerate()
                    .map(|(k, p)| {
                        let ws = mb(p.ws_tenth_mb as f64 / 10.0);
                        if p.tracked {
                            Phase::tracked(
                                format!("p{k}"),
                                p.instr,
                                ws,
                                ReuseLevel::High,
                                SiteId(k as u32),
                            )
                        } else {
                            Phase::untracked(format!("p{k}"), p.instr, ws, ReuseLevel::Low)
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

fn faulty_cfg(policy: PolicyKind, rate: f64, seed: u64) -> SimConfig {
    SimConfig::paper_default(policy)
        .with_demand_audit(DemandAudit::Clamp)
        .with_waitlist_timeout_ms(5.0)
        .with_faults(FaultConfig::uniform(rate))
        .with_jitter_seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After ANY fault schedule — leaks, kills, double ends, lies — the
    /// monitor's nominal and overflow usage return to exactly zero once
    /// all processes have exited, every waitlist is empty, and no
    /// progress period outlives its process.
    #[test]
    fn books_return_to_zero_after_any_fault_schedule(
        spec in arb_spec(),
        rate in 0.0f64..0.5,
        seed in 0u64..1_000,
    ) {
        for policy in [PolicyKind::Strict, PolicyKind::compromise_default()] {
            let mut sim = SystemSim::new(faulty_cfg(policy, rate, seed), &spec);
            let r = sim.run().unwrap_or_else(|e| panic!("{policy}: {e}"));
            prop_assert_eq!(sim.rda().usage(), 0, "{}: nominal demand leaked", policy);
            prop_assert_eq!(sim.rda().overflow_usage(), 0,
                "{}: overflow demand leaked", policy);
            prop_assert_eq!(sim.rda().waitlist_len(), 0,
                "{}: a WaitEntry outlived its process", policy);
            prop_assert_eq!(sim.rda().live_periods(), 0,
                "{}: a period outlived its process", policy);
            // Every opened period was closed exactly once: by an honest
            // end or by exit-time reclamation (rejected ends are calls,
            // not closures; double ends add calls on already-closed
            // periods).
            prop_assert!(
                r.rda.admitted + r.rda.resumed + r.rda.aged_admissions + r.rda.reclaimed
                    >= r.rda.begins,
                "{}: period lost without admission or reclamation", policy
            );
            // Protocol violations surface as typed errors; the internal
            // desync counter must never move, no matter the fault
            // schedule — kills mid-period, leaked and doubled ends all
            // route through the former panic sites in pp_end and
            // process_exit.
            prop_assert_eq!(r.rda.desyncs, 0,
                "{}: fault schedule tripped an internal desync", policy);
        }
    }

    /// Faulty runs are a pure function of the seed: same seed, same
    /// digest; and recovery work is actually happening at high rates.
    #[test]
    fn faulty_runs_reproduce_bit_identically(
        spec in arb_spec(),
        seed in 0u64..1_000,
    ) {
        let a = SystemSim::new(faulty_cfg(PolicyKind::Strict, 0.3, seed), &spec)
            .run()
            .unwrap();
        let b = SystemSim::new(faulty_cfg(PolicyKind::Strict, 0.3, seed), &spec)
            .run()
            .unwrap();
        prop_assert_eq!(a.digest(), b.digest());
    }
}

/// A faulty sweep over a real workload is bit-identical between one
/// worker thread and four — the per-cell fault plans derive from the
/// cell's own seed stream, never from execution order.
#[test]
fn faulty_sweeps_are_thread_count_invariant() {
    let specs = all_workloads();
    let grid = SweepGrid::cross(
        &specs[..1],
        &[PolicyKind::Strict, PolicyKind::compromise_default()],
        2,
    );
    let sweep = |threads| {
        run_sweep_configured(
            &grid,
            &RunnerOptions {
                threads,
                root_seed: 7,
            },
            |cell| {
                SimConfig::paper_default(cell.policy)
                    .with_demand_audit(DemandAudit::Clamp)
                    .with_waitlist_timeout_ms(5.0)
                    .with_faults(FaultConfig::uniform(0.15))
            },
        )
    };
    let one = sweep(1);
    let four = sweep(4);
    assert!(one.errors.is_empty(), "{:?}", one.errors);
    assert_eq!(one.digest(), four.digest());
    // The fault machinery really fired on this workload.
    let recoveries: u64 = one
        .records
        .iter()
        .map(|r| r.result.rda.reclaimed + r.result.rda.rejected_ends + r.result.rda.clamped)
        .sum();
    assert!(recoveries > 0, "fault schedule injected nothing");
    let desyncs: u64 = one.records.iter().map(|r| r.result.rda.desyncs).sum();
    assert_eq!(desyncs, 0, "faulty sweep tripped an internal desync");
}

/// The fault model's edge rates behave at sweep scale exactly as the
/// plan-level unit tests promise: rate 0.0 injects nothing (the sweep
/// digest matches a run with faults disabled entirely), rate 1.0
/// injects everywhere (every cell reports reclamation work), and both
/// extremes stay bit-identical between one worker thread and eight.
#[test]
fn edge_rate_sweeps_are_thread_count_invariant() {
    let specs = all_workloads();
    let grid = SweepGrid::cross(&specs[..1], &[PolicyKind::Strict], 2);
    let sweep = |threads: usize, faults: Option<FaultConfig>| {
        run_sweep_configured(
            &grid,
            &RunnerOptions {
                threads,
                root_seed: 11,
            },
            move |cell| {
                let cfg = SimConfig::paper_default(cell.policy)
                    .with_demand_audit(DemandAudit::Clamp)
                    .with_waitlist_timeout_ms(5.0);
                match faults {
                    Some(f) => cfg.with_faults(f),
                    None => cfg,
                }
            },
        )
    };
    // Rate 0.0: a plan full of honest phases is indistinguishable from
    // no plan at all, on any thread count.
    let zero_serial = sweep(1, Some(FaultConfig::uniform(0.0)));
    let zero_wide = sweep(8, Some(FaultConfig::uniform(0.0)));
    let clean = sweep(1, None);
    assert!(zero_serial.errors.is_empty(), "{:?}", zero_serial.errors);
    assert_eq!(zero_serial.digest(), zero_wide.digest());
    assert_eq!(
        zero_serial.digest(),
        clean.digest(),
        "rate 0.0 must be behaviourally identical to faults-off"
    );
    // Rate 1.0: every process is killed at its first phase, yet the
    // sweep still completes deterministically on any thread count.
    let full_serial = sweep(1, Some(FaultConfig::uniform(1.0)));
    let full_wide = sweep(8, Some(FaultConfig::uniform(1.0)));
    assert!(full_serial.errors.is_empty(), "{:?}", full_serial.errors);
    assert_eq!(full_serial.digest(), full_wide.digest());
    assert_ne!(full_serial.digest(), zero_serial.digest());
    for r in &full_serial.records {
        assert!(
            r.result.rda.reclaimed > 0,
            "rate 1.0 cell injected nothing: {}/{}",
            r.workload,
            r.policy
        );
        assert_eq!(r.result.rda.desyncs, 0);
    }
}

/// Degradation is graceful in the product sense: a moderately faulty
/// run still finishes, and still retires every instruction that the
/// surviving (unkilled) processes were due to execute — we check the
/// weaker, robust property that the run completes with nonzero work.
#[test]
fn moderate_faults_do_not_collapse_throughput() {
    let specs = all_workloads();
    let spec = &specs[0];
    let clean = SystemSim::new(SimConfig::paper_default(PolicyKind::Strict), spec)
        .run()
        .unwrap();
    let faulty = SystemSim::new(faulty_cfg(PolicyKind::Strict, 0.1, 42), spec)
        .run()
        .unwrap();
    assert!(faulty.measurement.counters.instructions > 0);
    // Kills remove work, so faulty retires no more than clean.
    assert!(
        faulty.measurement.counters.instructions <= clean.measurement.counters.instructions,
        "faulty {} vs clean {}",
        faulty.measurement.counters.instructions,
        clean.measurement.counters.instructions
    );
}
