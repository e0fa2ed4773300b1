//! Timeline visualisation: watch the scheduler work.
//!
//! Runs Water_nsq under the default and the strict policy with tracing
//! on and plots core utilisation, nominal LLC usage and waitlist depth
//! over time from the run's occupancy track as ASCII sparklines —
//! making Figure 1's story visible: the default policy keeps all cores
//! busy on a thrashing cache; RDA trades a few busy cores for a cache
//! that fits.
//!
//! ```bash
//! cargo run --release -p rda-examples --bin timeline_viz
//! ```

use rda_core::PolicyKind;
use rda_sim::{SimConfig, SystemSim};
use rda_trace::OccupancySample;
use rda_workloads::spec;

const BARS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// The time-weighted mean of `value` over each of `width` equal spans
/// of the run. Each sample of the track holds until the next one; the
/// last marks the end of the run.
fn bucket_means(
    track: &[OccupancySample],
    width: usize,
    value: impl Fn(&OccupancySample) -> f64,
) -> Vec<f64> {
    let (Some(first), Some(last)) = (track.first(), track.last()) else {
        return Vec::new();
    };
    let (start, span) = (
        first.t_cycles as f64,
        (last.t_cycles - first.t_cycles) as f64,
    );
    let mut sums = vec![0.0; width];
    for w in track.windows(2) {
        // Spread the hold [w0, w1) over the buckets it overlaps.
        let (lo, hi) = (w[0].t_cycles as f64 - start, w[1].t_cycles as f64 - start);
        let v = value(&w[0]);
        for (b, sum) in sums.iter_mut().enumerate() {
            let (b_lo, b_hi) = (
                span * b as f64 / width as f64,
                span * (b + 1) as f64 / width as f64,
            );
            let overlap = hi.min(b_hi) - lo.max(b_lo);
            if overlap > 0.0 {
                *sum += v * overlap;
            }
        }
    }
    let bucket = span / width as f64;
    sums.into_iter().map(|s| s / bucket).collect()
}

fn sparkline(values: &[f64], max: f64) -> String {
    values
        .iter()
        .map(|&v| {
            let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

fn main() {
    let spec = spec::water_nsq();
    let machine = rda_machine::MachineConfig::xeon_e5_2420();
    let (llc, cores) = (machine.llc_bytes as f64, machine.cores as f64);
    let width = 72;
    println!("Water_nsq (12 procs × 2 threads, 3.6 MB high-reuse periods)\n");
    for policy in [PolicyKind::DefaultOnly, PolicyKind::Strict] {
        let cfg = SimConfig::paper_default(policy).with_trace();
        let r = SystemSim::new(cfg, &spec).run().expect("run");
        let track: Vec<OccupancySample> = r
            .trace
            .expect("tracing is on")
            .occupancy
            .into_iter()
            .filter(|s| s.node == 0)
            .collect();
        let busy = bucket_means(&track, width, |s| s.busy_cores as f64);
        let usage = bucket_means(&track, width, |s| s.usage as f64);
        let wait = bucket_means(&track, width, |s| s.waitlisted as f64);
        let m = &r.measurement;
        println!(
            "{policy}  ({:.2} s, {:.0} J, {:.2} GFLOPS)",
            m.wall_secs,
            m.system_joules(),
            m.gflops()
        );
        println!("  busy cores (0–12)    {}", sparkline(&busy, cores));
        println!("  LLC usage (0–cap)    {}", sparkline(&usage, llc));
        println!("  waitlist depth       {}", sparkline(&wait, 12.0));
        let utilization = bucket_means(&track, 1, |s| s.busy_cores as f64)
            .first()
            .map_or(0.0, |b| b / cores);
        println!(
            "  LLC miss ratio {:.1} %  |  utilization {:.0} % (time-weighted, {} change points)\n",
            100.0 * m.counters.llc_misses as f64 / m.counters.llc_accesses.max(1) as f64,
            utilization * 100.0,
            track.len()
        );
    }
    println!("(the default policy tracks no periods and runs more cores on an");
    println!(" oversubscribed cache — see its miss ratio; strict keeps the admitted");
    println!(" working sets inside the LLC at the cost of a shorter runqueue — and");
    println!(" finishes sooner anyway)");
}
