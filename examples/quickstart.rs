//! Quickstart: the progress-period API and the scheduling predicate in
//! five minutes.
//!
//! Mirrors Figure 4 of the paper: a process announces an LLC demand
//! with `pp_begin`, the scheduling predicate decides run-or-pause, and
//! `pp_end` releases the demand, resuming waitlisted processes.
//!
//! ```bash
//! cargo run -p rda-examples --bin quickstart
//! ```

use rda_core::{mb, BeginOutcome, PolicyKind, PpDemand, RdaConfig, RdaExtension, SiteId};
use rda_machine::{MachineConfig, ReuseLevel};
use rda_sched::ProcessId;
use rda_simcore::SimTime;

fn main() {
    let machine = MachineConfig::xeon_e5_2420();
    println!(
        "machine: {} cores, {} KB shared LLC\n",
        machine.cores,
        machine.llc_bytes / 1024
    );

    // The RDA extension with the paper's strict policy.
    let mut rda = RdaExtension::new(RdaConfig::for_machine(&machine, PolicyKind::Strict));

    // --- Figure 4, lines 6–8: one DGEMM-sized progress period ---
    // pp_id = pp_begin(RESOURCE_LLC, MB(6.3), REUSE_HIGH);
    let demand = PpDemand::llc(mb(6.3), ReuseLevel::High);
    let t = |c| SimTime::from_cycles(c);

    let dgemm_pp = match rda.pp_begin(ProcessId(0), SiteId(0), demand, t(0)).unwrap() {
        BeginOutcome::Run { pp, .. } => {
            println!("P0: pp_begin(LLC, MB(6.3), HIGH) → RUN   ({pp})");
            pp
        }
        other => panic!("an idle cache must admit: {other:?}"),
    };
    println!(
        "    LLC load is now {:.1} MB",
        rda.usage() as f64 / 1e6 * 0.95367
    );

    // A second process wants 7 MB — still fits (6.3 + 7 < 15).
    let p1 = match rda
        .pp_begin(
            ProcessId(1),
            SiteId(0),
            PpDemand::llc(mb(7.0), ReuseLevel::High),
            t(10),
        )
        .unwrap()
    {
        BeginOutcome::Run { pp, .. } => {
            println!("P1: pp_begin(LLC, MB(7.0), HIGH) → RUN   ({pp})");
            pp
        }
        other => panic!("{other:?}"),
    };

    // A third wants 5 MB — 6.3 + 7 + 5 > 15.36: the predicate pauses it.
    match rda
        .pp_begin(
            ProcessId(2),
            SiteId(0),
            PpDemand::llc(mb(5.0), ReuseLevel::High),
            t(20),
        )
        .unwrap()
    {
        BeginOutcome::Pause { pp, .. } => {
            println!("P2: pp_begin(LLC, MB(5.0), HIGH) → PAUSE ({pp}) — waitlisted");
        }
        other => panic!("expected a pause: {other:?}"),
    }

    // DGEMM finishes: pp_end(pp_id). Capacity frees; P2 resumes.
    let out = rda.pp_end(dgemm_pp, t(1_000_000)).unwrap();
    for (pp, process) in &out.resumed {
        println!("P0: pp_end → resumed {process} ({pp}) from the waitlist");
    }
    // A buggy second pp_end is rejected with a typed error instead of
    // corrupting the load table (the PR 2 fault model).
    let err = rda.pp_end(dgemm_pp, t(1_000_010)).unwrap_err();
    println!("P0: pp_end again       → ERROR  ({err})");
    let _ = rda.pp_end(p1, t(2_000_000)).unwrap();
    assert!(rda.check_invariants().is_ok());

    // --- The same mechanics, end to end, on the simulated machine ---
    println!("\nfull-system comparison (6 procs × 4 threads, 6 MB high-reuse each):");
    use rda_sim::{SimConfig, SystemSim};
    use rda_workloads::{Phase, ProcessProgram, WorkloadSpec};
    let spec = WorkloadSpec {
        name: "quickstart".into(),
        processes: (0..6)
            .map(|_| ProcessProgram {
                threads: 4,
                phases: vec![Phase::tracked(
                    "hot",
                    30_000_000,
                    mb(6.0),
                    ReuseLevel::High,
                    SiteId(0),
                )],
            })
            .collect(),
    };
    for policy in [
        PolicyKind::DefaultOnly,
        PolicyKind::Strict,
        PolicyKind::compromise_default(),
    ] {
        let r = SystemSim::new(SimConfig::paper_default(policy), &spec)
            .run()
            .expect("run");
        println!(
            "  {:<22} {:>6.1} ms   {:>6.1} J   {:>5.2} GFLOPS",
            policy.to_string(),
            r.measurement.wall_secs * 1e3,
            r.measurement.system_joules(),
            r.measurement.gflops()
        );
    }
}
