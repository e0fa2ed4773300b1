//! End-to-end integration: the paper's qualitative claims hold on the
//! full stack (Table 2 workloads → simulator → measurements).

use rda_core::PolicyKind;
use rda_sim::experiment::{headline_figures, run_policy, run_workload};
use rda_workloads::spec;

fn gflops(spec: &rda_workloads::WorkloadSpec, policy: PolicyKind) -> f64 {
    run_policy(spec, policy).result.measurement.gflops()
}

fn joules(spec: &rda_workloads::WorkloadSpec, policy: PolicyKind) -> f64 {
    run_policy(spec, policy).result.measurement.system_joules()
}

#[test]
fn raytrace_strict_beats_default_substantially() {
    // The paper's best case: 1.88× speedup, −47 % energy.
    let spec = spec::raytrace();
    let g_default = gflops(&spec, PolicyKind::DefaultOnly);
    let g_strict = gflops(&spec, PolicyKind::Strict);
    let speedup = g_strict / g_default;
    assert!(
        (1.4..3.0).contains(&speedup),
        "raytrace strict speedup {speedup}"
    );
    let j_default = joules(&spec, PolicyKind::DefaultOnly);
    let j_strict = joules(&spec, PolicyKind::Strict);
    assert!(
        j_strict < 0.7 * j_default,
        "energy: strict {j_strict} vs default {j_default}"
    );
}

#[test]
fn water_nsq_strict_saves_half_the_energy() {
    // The paper's max energy decrease (48 %) came from water_nsquared
    // under RDA:Strict.
    let spec = spec::water_nsq();
    let j_default = joules(&spec, PolicyKind::DefaultOnly);
    let j_strict = joules(&spec, PolicyKind::Strict);
    let decrease = 1.0 - j_strict / j_default;
    assert!(
        (0.30..0.75).contains(&decrease),
        "water_nsq energy decrease {decrease}"
    );
}

#[test]
fn water_nsq_strict_beats_compromise() {
    // §4.2: "the performance of the workload … increase[s] by 1.47x
    // when scheduled via the strict policy in comparison to the
    // compromise configuration" (water_nsquared).
    let spec = spec::water_nsq();
    let g_strict = gflops(&spec, PolicyKind::Strict);
    let g_comp = gflops(&spec, PolicyKind::compromise_default());
    let ratio = g_strict / g_comp;
    assert!((1.2..2.2).contains(&ratio), "strict/compromise {ratio}");
}

#[test]
fn low_reuse_workloads_gain_nothing_from_gating() {
    // BLAS-1 and water_spatial: the paper reports RDA at or slightly
    // below the default policy. Require the gap to stay small in
    // either direction — gating must not matter here.
    for spec in [spec::blas1(), spec::water_sp()] {
        let g_default = gflops(&spec, PolicyKind::DefaultOnly);
        let g_strict = gflops(&spec, PolicyKind::Strict);
        let ratio = g_strict / g_default;
        assert!(
            (0.85..1.15).contains(&ratio),
            "{}: strict/default {ratio} — low-reuse must be ~neutral",
            spec.name
        );
    }
}

#[test]
fn blas3_gating_cuts_dram_energy_hard() {
    // Figure 8's strongest contrast: BLAS-3 DRAM energy collapses
    // under strict gating (LLC hits replace DRAM transfers).
    let spec = spec::blas3();
    let d = run_policy(&spec, PolicyKind::DefaultOnly);
    let s = run_policy(&spec, PolicyKind::Strict);
    assert!(
        s.result.measurement.dram_joules() < 0.6 * d.result.measurement.dram_joules(),
        "dram energy: strict {} vs default {}",
        s.result.measurement.dram_joules(),
        d.result.measurement.dram_joules()
    );
    // Mechanism check: fewer LLC misses, not just shorter runtime.
    assert!(
        s.result.measurement.counters.llc_misses < d.result.measurement.counters.llc_misses / 2
    );
}

#[test]
fn compromise_sits_between_default_and_strict_on_admissions() {
    let spec = spec::volrend();
    let s = run_policy(&spec, PolicyKind::Strict);
    let c = run_policy(&spec, PolicyKind::compromise_default());
    let d = run_policy(&spec, PolicyKind::DefaultOnly);
    assert!(c.result.rda.paused < s.result.rda.paused);
    assert_eq!(d.result.rda.paused, 0);
}

#[test]
fn headline_figures_cover_the_full_grid() {
    let runs = run_workload(&spec::ocean_cp());
    let figs = headline_figures(&runs);
    assert_eq!(figs.len(), 4);
    for f in &figs {
        assert_eq!(f.series.len(), 3, "{}", f.id);
        for s in &f.series {
            assert!(s.points.iter().all(|&(_, v)| v.is_finite() && v > 0.0));
        }
    }
}

#[test]
fn full_stack_runs_are_reproducible() {
    let spec = spec::water_nsq();
    let a = run_policy(&spec, PolicyKind::Strict);
    let b = run_policy(&spec, PolicyKind::Strict);
    assert_eq!(a.result.measurement.counters, b.result.measurement.counters);
    assert_eq!(
        a.result.measurement.wall_secs,
        b.result.measurement.wall_secs
    );
    assert_eq!(a.result.rda, b.result.rda);
}

#[test]
fn every_workload_completes_under_every_policy() {
    for spec in spec::all_workloads() {
        for run in run_workload(&spec) {
            let m = &run.result.measurement;
            assert!(m.wall_secs > 0.0, "{} {:?}", spec.name, run.policy);
            assert!(m.system_joules() > 0.0);
            assert!(m.counters.instructions > 0);
            // Work conservation: every declared instruction retired.
            let expected: u64 = spec
                .processes
                .iter()
                .map(rda_workloads::ProcessProgram::total_instructions)
                .sum();
            assert_eq!(m.counters.instructions, expected, "{}", spec.name);
        }
    }
}
