//! Integration: instrumented workloads → profiler → annotations →
//! scheduler (the §2.4 feasibility study as an executable pipeline).

use rda_core::{BeginOutcome, PolicyKind, RdaConfig, RdaExtension};
use rda_machine::{MachineConfig, ReuseLevel};
use rda_profiler::annotate::annotate;
use rda_profiler::detect::{detect_periods, DetectorConfig};
use rda_profiler::loopmap::{dgemm_loop_nest, water_loop_nest};
use rda_profiler::window::{windowize, WindowConfig};
use rda_sched::ProcessId;
use rda_simcore::SimTime;
use rda_workloads::blas::level3::dgemm_traced;
use rda_workloads::splash::water;
use rda_workloads::trace::TraceRecorder;

fn wcfg(ops: usize) -> WindowConfig {
    WindowConfig {
        window_ops: ops,
        wss_min_accesses: 2,
        line_bytes: 64,
    }
}

#[test]
fn dgemm_profiles_into_one_outer_loop_period() {
    let rec = TraceRecorder::new();
    dgemm_traced(40, &rec);
    let trace = rec.take();
    let windows = windowize(&trace, &wcfg(4_000));
    assert!(windows.len() > 10);
    let periods = detect_periods(&windows, &DetectorConfig::default());
    // dgemm's behaviour is uniform: one period covering ~everything.
    assert_eq!(periods.len(), 1, "{periods:?}");
    let anns = annotate(&periods, &dgemm_loop_nest());
    assert_eq!(anns.len(), 1);
    // Anchored at the outermost (i) loop even though the k-loop
    // dominates the back-edge samples.
    assert_eq!(anns[0].site.0, 0);
    // dgemm working set: three 40×40 f64 matrices ≈ 38 KB; the window
    // statistic must land in that decade.
    let ws = anns[0].ws_bytes;
    assert!((8_000..60_000).contains(&ws), "ws {ws}");
}

#[test]
fn water_profile_reflects_phase_structure() {
    let rec = TraceRecorder::new();
    water::run_nsquared_traced(400, 0.4, &rec);
    let trace = rec.take();
    // The interf phase's reuse distance is one outer iteration
    // (~1.2 k ops at N = 400); the window must span several of them to
    // observe the temporal reuse — the granularity tuning §2.4
    // describes ("manually experimenting with different granularities
    // of window sizes").
    let windows = windowize(&trace, &wcfg(25_000));
    let periods = detect_periods(&windows, &DetectorConfig::default());
    assert!(!periods.is_empty());
    // The interf (O(N²)) phase dominates the trace; its period must be
    // the longest and map to the INTERF loop.
    let longest = periods.iter().max_by_key(|p| p.len_windows()).unwrap();
    assert_eq!(longest.dominant_loop, Some(water::loops::INTERF));
    let anns = annotate(&periods, &water_loop_nest());
    assert!(!anns.is_empty());
    // High reuse: each molecule is touched ~N times in interf.
    let interf_ann = anns
        .iter()
        .find(|a| a.site.0 == water::loops::INTERF)
        .expect("interf annotation");
    assert_eq!(interf_ann.reuse, ReuseLevel::High);
}

#[test]
fn profiled_annotation_round_trips_through_the_scheduler() {
    // Profile the real kernel, then hand its detected demand to the
    // extension exactly as an instrumented application would.
    let rec = TraceRecorder::new();
    dgemm_traced(32, &rec);
    let windows = windowize(&rec.take(), &wcfg(4_000));
    let periods = detect_periods(&windows, &DetectorConfig::default());
    let anns = annotate(&periods, &dgemm_loop_nest());
    assert!(!anns.is_empty());

    let mut rda = RdaExtension::new(RdaConfig::for_machine(
        &MachineConfig::xeon_e5_2420(),
        PolicyKind::Strict,
    ));
    let ann = &anns[0];
    let outcome = rda
        .pp_begin(ProcessId(0), ann.site, ann.demand(), SimTime::ZERO)
        .expect("default Trust audit never rejects");
    match outcome {
        BeginOutcome::Run { pp, .. } => {
            assert_eq!(rda.usage(), ann.ws_bytes);
            let out = rda
                .pp_end(pp, SimTime::from_cycles(100))
                .expect("ending a live admitted period");
            assert!(out.resumed.is_empty());
        }
        other => panic!("a tiny profiled demand must be admitted: {other:?}"),
    }
    rda.check_invariants().unwrap();
}

#[test]
fn reuse_classification_separates_blas_levels() {
    // daxpy (level 1) must classify low; dgemm (level 3) at least
    // medium — the Table 2 contrast, measured from real traces.
    //
    // Reuse classification uses *word* granularity (the paper's §2.4
    // counts unique addresses): 64-byte lines would fold the spatial
    // locality of a stream into an apparent temporal reuse.
    let word_cfg = |ops| WindowConfig {
        window_ops: ops,
        wss_min_accesses: 2,
        line_bytes: 8,
    };
    let wcfg = word_cfg;
    let rec = TraceRecorder::new();
    rda_workloads::blas::level1::daxpy_traced(20_000, 2.0, &rec);
    let w_daxpy = windowize(&rec.take(), &wcfg(5_000));
    let daxpy_reuse = w_daxpy.iter().map(|w| w.reuse_ratio).sum::<f64>() / w_daxpy.len() as f64;

    let rec = TraceRecorder::new();
    dgemm_traced(40, &rec);
    // dgemm's reuse distance for B is one full (k, j) tile: the window
    // must cover several i-rows (~3.2 k ops each) to observe it.
    let w_dgemm = windowize(&rec.take(), &wcfg(20_000));
    let dgemm_reuse = w_dgemm.iter().map(|w| w.reuse_ratio).sum::<f64>() / w_dgemm.len() as f64;

    assert_eq!(ReuseLevel::from_reuse_ratio(daxpy_reuse), ReuseLevel::Low);
    assert!(
        dgemm_reuse > 3.0 * daxpy_reuse,
        "{dgemm_reuse} vs {daxpy_reuse}"
    );
    assert_ne!(ReuseLevel::from_reuse_ratio(dgemm_reuse), ReuseLevel::Low);
}
