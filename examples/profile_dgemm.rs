//! The §2.4 profiling pipeline, end to end, on the real dgemm kernel:
//!
//! 1. run the instrumented dgemm and record its exact memory trace;
//! 2. decompose the trace into fixed-size sampling windows (footprint,
//!    WSS, reuse ratio per window);
//! 3. detect progress periods as runs of similar windows;
//! 4. map each period's dominant loop to the outermost enclosing loop
//!    (the Dyninst ParseAPI step);
//! 5. emit the `pp_begin`-ready annotation and verify the scheduler
//!    admits it.
//!
//! ```bash
//! cargo run --release -p rda-examples --bin profile_dgemm
//! ```

use rda_core::{BeginOutcome, PolicyKind, RdaConfig, RdaExtension};
use rda_machine::MachineConfig;
use rda_profiler::annotate::annotate;
use rda_profiler::detect::{detect_periods, DetectorConfig};
use rda_profiler::loopmap::dgemm_loop_nest;
use rda_profiler::window::{windowize, WindowConfig};
use rda_sched::ProcessId;
use rda_simcore::SimTime;
use rda_workloads::blas::level3::dgemm_traced;
use rda_workloads::trace::TraceRecorder;

fn main() {
    // 1. Trace a 48×48 dgemm (full fidelity, every access recorded).
    let n = 48;
    let rec = TraceRecorder::new();
    let checksum = dgemm_traced(n, &rec);
    let trace = rec.take();
    println!(
        "traced dgemm n={n}: {} memory ops, checksum {checksum:.3}",
        trace.memory_ops()
    );

    // 2. Window statistics.
    let wcfg = WindowConfig {
        window_ops: 4_000,
        wss_min_accesses: 2,
        line_bytes: 64,
    };
    let windows = windowize(&trace, &wcfg);
    println!(
        "{} windows of {} memory ops",
        windows.len(),
        wcfg.window_ops
    );
    for w in windows.iter().take(3) {
        println!(
            "  window {:>3}: footprint {:>6} B  WSS {:>6} B  reuse {:>5.1}  loop {:?}",
            w.index,
            w.footprint_bytes,
            w.wss_bytes,
            w.reuse_ratio,
            w.dominant_loop()
        );
    }

    // 3. Progress-period detection.
    let periods = detect_periods(&windows, &DetectorConfig::default());
    println!("detected {} progress period(s):", periods.len());
    for p in &periods {
        println!(
            "  windows {:>3}..{:<3}  WSS {:>7} B  reuse {:>6.1}  dominant loop {:?}",
            p.start_window, p.end_window, p.mean_wss_bytes, p.mean_reuse_ratio, p.dominant_loop
        );
    }

    // 4 + 5. Anchor at the outermost loop and admit on the scheduler.
    let nest = dgemm_loop_nest();
    let annotations = annotate(&periods, &nest);
    let mut rda = RdaExtension::new(RdaConfig::for_machine(
        &MachineConfig::xeon_e5_2420(),
        PolicyKind::Strict,
    ));
    for a in &annotations {
        println!(
            "annotation: pp_begin(LLC, {} B, {}) at {} (outermost loop of the nest)",
            a.ws_bytes,
            a.demand().reuse,
            a.site
        );
        match rda.pp_begin(ProcessId(0), a.site, a.demand(), SimTime::ZERO) {
            Ok(BeginOutcome::Run { pp, .. }) => {
                println!("  scheduler verdict: RUN ({pp})");
                rda.pp_end(pp, SimTime::from_cycles(1000))
                    .expect("ending a live admitted period");
            }
            other => println!("  scheduler verdict: {other:?}"),
        }
    }
    assert!(
        !annotations.is_empty(),
        "the dgemm kernel must yield at least one annotated period"
    );
}
