//! Raytrace: the paper's best case (1.88× with RDA:Strict).
//!
//! Renders a real image with the mini raytracer (showing the actual
//! computation the workload models), then schedules the Table 2
//! Raytrace workload — 48 processes × 4 threads, 5.1/5.2 MB high-reuse
//! working sets — under all three policies.
//!
//! ```bash
//! cargo run --release -p rda-examples --bin raytrace_demo
//! ```

use rda_sim::experiment::{paper_policies, run_policy};
use rda_workloads::spec;
use rda_workloads::splash::raytrace::{render, RaytraceParams};

fn main() {
    // The actual computation: render a small frame and show it as
    // ASCII (the workload model's per-phase statistics come from
    // tracing this renderer).
    let params = RaytraceParams {
        size: 48,
        spheres: 64,
        seed: 20180813, // ICPP 2018, August 13
    };
    let mean = render(&params);
    println!(
        "rendered {0}×{0} frame, mean intensity {mean:.3}",
        params.size
    );
    ascii_preview(&params);

    // The scheduling experiment.
    println!("\nscheduling Raytrace (48 procs × 4 threads, 5.1/5.2 MB high reuse):");
    let spec = spec::raytrace();
    let mut baseline = None;
    for policy in paper_policies() {
        let run = run_policy(&spec, policy);
        let m = run.result.measurement;
        let base = *baseline.get_or_insert(m.wall_secs);
        println!(
            "  {:<22} {:>6.2} s   {:>7.1} J   {:>5.2} GFLOPS   speedup {:>4.2}x   paused {}",
            policy.to_string(),
            m.wall_secs,
            m.system_joules(),
            m.gflops(),
            base / m.wall_secs,
            run.result.rda.paused,
        );
    }
    println!("\n(paper: RDA:Strict reached 1.88x and -47 % energy on this workload)");
}

/// Cheap ASCII dump of the rendered scene (one sample per cell).
fn ascii_preview(params: &RaytraceParams) {
    use rda_workloads::splash::raytrace::make_scene;
    let scene = make_scene(params);
    let shades = [' ', '.', ':', '+', '*', '#', '@'];
    for py in (0..params.size).step_by(2) {
        let mut line = String::new();
        for px in 0..params.size {
            // Re-shoot the central ray of this cell.
            let x = (px as f64 + 0.5) / params.size as f64 * 2.0 - 1.0;
            let y = (py as f64 + 0.5) / params.size as f64 * 2.0 - 1.0;
            let len = (x * x + y * y + 1.5f64 * 1.5).sqrt();
            let dir = [x / len, y / len, 1.5 / len];
            let mut t_best = f64::INFINITY;
            for s in &scene {
                let oc = [-s.c[0], -s.c[1], -s.c[2]];
                let b = oc[0] * dir[0] + oc[1] * dir[1] + oc[2] * dir[2];
                let c = oc[0] * oc[0] + oc[1] * oc[1] + oc[2] * oc[2] - s.r * s.r;
                let disc = b * b - c;
                if disc >= 0.0 {
                    let t = -b - disc.sqrt();
                    if t > 1e-6 && t < t_best {
                        t_best = t;
                    }
                }
            }
            let shade = if t_best.is_finite() {
                let depth = ((4.5 - t_best) / 3.0).clamp(0.0, 1.0);
                shades[1 + (depth * (shades.len() - 2) as f64) as usize]
            } else {
                shades[0]
            };
            line.push(shade);
        }
        println!("{line}");
    }
}
