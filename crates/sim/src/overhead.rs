//! The Figure 11 granularity study: progress-tracking overhead.
//!
//! The paper decomposes a 512³ dgemm into progress periods at three
//! granularities — the outermost loop (1 period), the middle loop
//! (512 periods), the innermost loop (512² = 262 144 periods) — and
//! runs a single instance solo under RDA:Strict. Measured overheads:
//! none / ≈19 % / ≈59 %.
//!
//! [`granularity_study`] builds exactly those programs (same total
//! work, split into 1 / n / n² tracked phases) and measures achieved
//! GFLOPS per granularity against the untracked baseline.

use crate::config::SimConfig;
use crate::system::SystemSim;
use rda_core::{mb, PolicyKind, SiteId};
use rda_machine::ReuseLevel;
use rda_metrics::FigureData;
use rda_workloads::{Phase, ProcessProgram, WorkloadSpec};

/// Total instructions of the dgemm kernel (512³ MACs ≈ 2×512³ flops at
/// 45 % FLOP density ≈ 600 M instructions).
pub const DGEMM_INSTR: u64 = 600_000_000;
/// dgemm working set at n = 512 with blocking: ~2.4 MB.
pub const DGEMM_WS_MB: f64 = 2.4;
/// The paper's loop trip count.
pub const N: u64 = 512;

/// One measured granularity.
#[derive(Debug, Clone)]
pub struct GranularityPoint {
    /// Label ("no pp", "outer", "middle", "inner").
    pub label: String,
    /// Number of progress periods the run was split into.
    pub periods: u64,
    /// Achieved GFLOPS.
    pub gflops: f64,
    /// Overhead vs the untracked baseline (0.19 = 19 % slower).
    pub overhead: f64,
    /// Fast-path share of all API calls.
    pub fastpath_share: f64,
}

fn dgemm_program(periods: u64) -> WorkloadSpec {
    assert!((1..=DGEMM_INSTR).contains(&periods));
    let instr_per_phase = DGEMM_INSTR / periods;
    let phases = (0..periods)
        .map(|_| {
            Phase::tracked(
                "dgemm-pp",
                instr_per_phase,
                mb(DGEMM_WS_MB),
                ReuseLevel::High,
                SiteId(0),
            )
        })
        .collect();
    WorkloadSpec {
        name: format!("dgemm/{periods}"),
        processes: vec![ProcessProgram { threads: 1, phases }],
    }
}

fn untracked_program() -> WorkloadSpec {
    WorkloadSpec {
        name: "dgemm/untracked".into(),
        processes: vec![ProcessProgram {
            threads: 1,
            phases: vec![Phase::untracked(
                "dgemm",
                DGEMM_INSTR,
                mb(DGEMM_WS_MB),
                ReuseLevel::High,
            )],
        }],
    }
}

fn measure(spec: &WorkloadSpec) -> (f64, f64) {
    let mut sim = SystemSim::new(SimConfig::paper_default(PolicyKind::Strict), spec);
    let r = sim.run().expect("solo dgemm must complete");
    let calls = r.rda.begins + r.rda.ends;
    let fast = r.rda.fast_begins + r.rda.fast_ends;
    let share = if calls == 0 {
        0.0
    } else {
        fast as f64 / calls as f64
    };
    (r.measurement.gflops(), share)
}

/// Run the full granularity study. `n` defaults to the paper's 512.
pub fn granularity_study(n: u64) -> Vec<GranularityPoint> {
    let (base_gflops, _) = measure(&untracked_program());
    let mut out = vec![GranularityPoint {
        label: "no progress periods".into(),
        periods: 0,
        gflops: base_gflops,
        overhead: 0.0,
        fastpath_share: 0.0,
    }];
    for (label, periods) in [("outer", 1), ("middle", n), ("inner", n * n)] {
        let (gflops, fastpath_share) = measure(&dgemm_program(periods));
        out.push(GranularityPoint {
            label: label.into(),
            periods,
            gflops,
            overhead: (base_gflops - gflops) / base_gflops,
            fastpath_share,
        });
    }
    out
}

/// Host-measured cost of the observability layer ([`SimConfig::with_trace`]).
///
/// The simulation is deterministic, so tracing cannot change *simulated*
/// time by construction (that is what [`digest_neutral`] certifies); the
/// cost that matters is host wall-clock spent recording events. The
/// study runs a contended multi-process workload twice — tracing off and
/// on — taking the minimum over `reps` repetitions to reject scheduler
/// noise.
///
/// [`digest_neutral`]: TraceOverhead::digest_neutral
#[derive(Debug, Clone)]
pub struct TraceOverhead {
    /// Best host seconds with tracing off.
    pub base_secs: f64,
    /// Best host seconds with tracing on.
    pub traced_secs: f64,
    /// Relative host-time overhead of tracing (0.05 = 5 % slower).
    pub overhead: f64,
    /// Whether the traced and untraced runs produced identical
    /// [`crate::system::RunResult::digest`]s (they always must).
    pub digest_neutral: bool,
    /// Events recorded by the traced run (retained + dropped).
    pub events: u64,
}

/// Measure tracing overhead on a contended workload (see
/// [`TraceOverhead`]). `reps` ≥ 1; the `exp_fig11_overhead` binary uses
/// this to enforce the <5 % tracing budget in CI.
pub fn trace_overhead_study(reps: u32) -> TraceOverhead {
    use rda_workloads::WorkloadSpec;
    let reps = reps.max(1);
    // The workload must be big enough that one run takes tens of host
    // milliseconds — far above `Instant` jitter — or the budget check
    // compares timer noise instead of tracing cost: 8 contended
    // processes cycling through 768 tracked periods each.
    let spec = WorkloadSpec {
        name: "trace-overhead".into(),
        processes: (0..8)
            .map(|_| ProcessProgram {
                threads: 2,
                phases: (0..768)
                    .map(|_| {
                        Phase::tracked("work", 30_000_000, mb(6.0), ReuseLevel::High, SiteId(0))
                    })
                    .collect(),
            })
            .collect(),
    };
    let cfg = || SimConfig::paper_default(PolicyKind::Strict);
    let timed = |cfg: SimConfig, spec: &WorkloadSpec| {
        let start = std::time::Instant::now();
        let r = SystemSim::new(cfg, spec)
            .run()
            .expect("overhead workload must complete");
        (start.elapsed().as_secs_f64(), r)
    };
    let mut base_secs = f64::INFINITY;
    let mut traced_secs = f64::INFINITY;
    let mut base_digest = 0u64;
    let mut traced_digest = 0u64;
    let mut events = 0u64;
    for _ in 0..reps {
        let (secs, r) = timed(cfg(), &spec);
        base_secs = base_secs.min(secs);
        base_digest = r.digest();
        let (secs, r) = timed(cfg().with_trace(), &spec);
        traced_secs = traced_secs.min(secs);
        traced_digest = r.digest();
        let report = r.trace.expect("tracing was enabled");
        events = report.events.len() as u64 + report.dropped_events;
    }
    TraceOverhead {
        base_secs,
        traced_secs,
        overhead: (traced_secs - base_secs) / base_secs,
        digest_neutral: base_digest == traced_digest,
        events,
    }
}

/// Figure 11 data from a study.
pub fn figure11(points: &[GranularityPoint]) -> FigureData {
    let mut fig = FigureData::new(
        "Figure 11",
        "dgemm throughput vs progress-period granularity (solo, RDA:Strict)",
        "GFLOPS",
    );
    for p in points {
        fig.add("dgemm", &p.label, p.gflops);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outer_granularity_is_nearly_free() {
        let pts = granularity_study(64);
        assert_eq!(pts.len(), 4);
        let outer = &pts[1];
        assert!(outer.overhead < 0.01, "outer overhead {}", outer.overhead);
    }

    #[test]
    fn paper_granularities_reproduce_figure11_shape() {
        // The paper's exact setup: n = 512 → 1 / 512 / 262 144 periods,
        // measured overheads 0 % / ~19 % / ~59 %.
        let pts = granularity_study(N);
        let (outer, middle, inner) = (&pts[1], &pts[2], &pts[3]);
        assert!(outer.overhead < 0.01, "outer {}", outer.overhead);
        assert!(
            (0.05..0.40).contains(&middle.overhead),
            "middle {}",
            middle.overhead
        );
        assert!(
            (0.30..0.80).contains(&inner.overhead),
            "inner {}",
            inner.overhead
        );
        assert!(inner.overhead > middle.overhead);
        // 512× more periods cost far less than 512× more overhead: the
        // decision fast path serves almost every inner-loop call.
        let per_period_mid = middle.overhead / middle.periods as f64;
        let per_period_inner = inner.overhead / inner.periods as f64;
        assert!(
            per_period_inner < per_period_mid / 10.0,
            "per-period cost must collapse: {per_period_inner} vs {per_period_mid}"
        );
        assert!(inner.fastpath_share > 0.9, "share {}", inner.fastpath_share);
        assert!(
            middle.fastpath_share < 0.1,
            "share {}",
            middle.fastpath_share
        );
    }

    #[test]
    fn trace_overhead_is_digest_neutral_and_finite() {
        // The hard <5 % budget is enforced by `exp_fig11_overhead` in
        // CI with more repetitions; here we only pin the invariants
        // that cannot flake: digest neutrality and a sane measurement.
        let o = trace_overhead_study(1);
        assert!(o.digest_neutral, "tracing changed the run digest");
        assert!(o.base_secs > 0.0 && o.traced_secs > 0.0);
        assert!(o.overhead.is_finite());
        assert!(o.events > 0, "contended run must record events");
    }

    #[test]
    fn figure11_has_four_bars() {
        let pts = granularity_study(16);
        let fig = figure11(&pts);
        assert_eq!(fig.categories().len(), 4);
    }
}
