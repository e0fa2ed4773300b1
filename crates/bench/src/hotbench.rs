//! Hot-path benchmark kernels and a tiny deterministic measurement
//! harness, used by the `bench_report` binary.
//!
//! Every kernel is a pure function of fixed seeds and constants, so the
//! *work* is bit-identical across runs and machines — only wall-clock
//! varies. Each kernel returns a checksum that callers must black-box
//! (and `bench_report` folds into its output) so the optimizer cannot
//! elide the work, and so two runs can assert they simulated the same
//! thing.
//!
//! The measurement harness is deliberately simple: fixed warmup, fixed
//! sample count, fixed batch size per sample — no adaptive iteration
//! search, which would make the sample layout (and the allocation
//! counts per sample) depend on machine speed.

use rda_core::{mb, BeginOutcome, PolicyKind, PpDemand, RdaConfig, RdaExtension, RdaStats, SiteId};
use rda_machine::{MachineConfig, ReuseLevel};
use rda_metrics::Json;
use rda_sched::ProcessId;
use rda_sim::runner::RunnerOptions;
use rda_sim::{SimConfig, SystemSim};
use rda_simcore::SimTime;
use rda_workloads::spec::all_workloads;
use rda_workloads::{Phase, ProcessProgram, WorkloadSpec};
use std::time::Instant;

fn admission_checksum(s: RdaStats) -> u64 {
    s.begins ^ s.ends.rotate_left(17) ^ s.fast_begins.rotate_left(34)
}

/// `pairs` pp_begin/pp_end pairs from 4 processes over 3 call sites,
/// `gap` cycles apart, each 2 MB period ending before the next begins.
/// Returns a checksum over the extension's counters.
fn admission_pairs(pairs: usize, gap: u64) -> u64 {
    let cfg = RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), PolicyKind::Strict);
    let mut ext = RdaExtension::new(cfg);
    let demand = PpDemand::llc(mb(2.0), ReuseLevel::High);
    let mut t = 0u64;
    for i in 0..pairs {
        t += gap;
        let out = ext
            .pp_begin(
                ProcessId((i % 4) as u32),
                SiteId((i % 3) as u32),
                demand,
                SimTime::from_cycles(t),
            )
            .expect("2 MB always fits a 15 MB LLC");
        let pp = match out {
            BeginOutcome::Run { pp, .. } => pp,
            other => panic!("expected Run, got {other:?}"),
        };
        t += gap;
        ext.pp_end(pp, SimTime::from_cycles(t))
            .expect("period is live");
    }
    admission_checksum(ext.stats())
}

/// One pp_begin/pp_end admission pair per "op": the fits-and-runs fast
/// path that every tracked phase boundary pays. Returns a checksum over
/// the extension's counters.
pub fn admission_ops(pairs: usize) -> u64 {
    admission_pairs(pairs, 100)
}

/// The fast path's ablation: the pairs of [`admission_ops`], spaced a
/// full fast-path freshness horizon apart, so every begin and every
/// end misses the memoised decision and runs Algorithm 1 in full.
pub fn admission_slow_ops(pairs: usize) -> u64 {
    let horizon = RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), PolicyKind::Strict)
        .min_eval_interval_cycles;
    admission_pairs(pairs, horizon)
}

/// Admission throughput: `pairs` pp_begin/pp_end lifecycles in
/// same-tick bursts of 64 — every begin of a burst at one tick, one
/// `pp_begin` call each, then every end at the next tick. This is the
/// kernel behind the million-lifecycles-per-second target.
pub fn admission_throughput_ops(pairs: usize) -> u64 {
    const BURST: usize = 64;
    let cfg = RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), PolicyKind::Strict);
    let mut ext = RdaExtension::new(cfg);
    // 64 × 0.2 MB = 12.8 MB: a full burst always fits the 15 MB LLC,
    // so every outcome is Run.
    let demand = PpDemand::llc(mb(0.2), ReuseLevel::High);
    let mut live = Vec::with_capacity(BURST);
    let mut t = 0u64;
    let mut done = 0usize;
    while done < pairs {
        let n = BURST.min(pairs - done);
        t += 100;
        live.clear();
        for i in 0..n {
            let out = ext
                .pp_begin(
                    ProcessId((i % 8) as u32),
                    SiteId((i % 3) as u32),
                    demand,
                    SimTime::from_cycles(t),
                )
                .expect("audited demand always fits");
            match out {
                BeginOutcome::Run { pp, .. } => live.push(pp),
                other => panic!("expected Run, got {other:?}"),
            }
        }
        t += 100;
        for &pp in &live {
            ext.pp_end(pp, SimTime::from_cycles(t))
                .expect("period is live");
        }
        done += n;
    }
    admission_checksum(ext.stats())
}

/// Waitlist churn under pressure: the LLC is kept saturated so a
/// standing queue of paused periods exists, and every round one running
/// period completes (draining the queue head in) while a fresh one is
/// denied onto the tail. Aging is enabled and fires for part of the
/// queue, so push, pop, cancel-by-exit, expiry scan, and oldest-cache
/// maintenance are all exercised. Returns a stats checksum.
pub fn churn_ops(rounds: usize) -> u64 {
    let cfg = RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), PolicyKind::Strict)
        .with_waitlist_timeout_cycles(50_000);
    let mut ext = RdaExtension::new(cfg);
    let demand = PpDemand::llc(mb(4.0), ReuseLevel::High);
    let mut t = 0u64;
    let mut running: Vec<(rda_core::PpId, ProcessId)> = Vec::new();
    let mut proc_no = 0u32;
    for round in 0..rounds {
        t += 1_000;
        proc_no += 1;
        let proc = ProcessId(proc_no);
        // One new period per round; once ~3 are admitted (12 of 15 MB)
        // the rest pile onto the waitlist.
        match ext
            .pp_begin(
                proc,
                SiteId((round % 5) as u32),
                demand,
                SimTime::from_cycles(t),
            )
            .expect("audited demand")
        {
            rda_core::BeginOutcome::Run { pp, .. } => running.push((pp, proc)),
            rda_core::BeginOutcome::Pause { .. } | rda_core::BeginOutcome::Bypass => {}
        }
        // Every round, the oldest running period ends, releasing
        // capacity and re-walking the queue.
        if running.len() > 2 {
            let (pp, _) = running.remove(0);
            t += 1_000;
            let out = ext.pp_end(pp, SimTime::from_cycles(t)).expect("live");
            running.extend(out.resumed);
        }
        // Periodically a queued process gives up and exits (waitlist
        // cancellation), and aging force-admits what expired.
        if round % 16 == 15 {
            let gone = ProcessId(proc_no.saturating_sub(8));
            ext.process_exit(gone, SimTime::from_cycles(t));
            running.retain(|&(_, owner)| owner != gone);
            t += 60_000;
            running.extend(ext.age_waitlist(SimTime::from_cycles(t)).resumed);
        }
    }
    let s = ext.stats();
    s.paused
        ^ s.resumed.rotate_left(13)
        ^ s.aged_admissions.rotate_left(29)
        ^ s.reclaimed.rotate_left(47)
}

/// The named workload a single-cell benchmark runs. Not the heaviest
/// cell: the end-to-end benchmark measured Raytrace × DefaultOnly at
/// about 280 ms against about 55 ms for Ocean_cp × Strict. The cell is
/// kept so reports stay comparable with the committed baselines.
pub const SWEEP_CELL_WORKLOAD: &str = "Ocean_cp";

fn workload(name: &str) -> WorkloadSpec {
    all_workloads()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("workload {name} not in the paper set"))
}

/// One full simulation of the Ocean_cp × Strict headline cell,
/// optionally with the observability trace layer enabled. Returns the
/// run digest — bit-identical across machines.
pub fn sweep_cell(trace: bool) -> u64 {
    sweep_cell_named(SWEEP_CELL_WORKLOAD, trace)
}

fn sweep_cell_named(name: &str, trace: bool) -> u64 {
    let spec = workload(name);
    let cfg = SimConfig::paper_default(PolicyKind::Strict);
    let cfg = if trace { cfg.with_trace() } else { cfg };
    SystemSim::new(cfg, &spec)
        .run()
        .expect("cell runs")
        .digest()
}

/// The entire 24-cell headline grid (8 workloads × 3 policies), run
/// single-threaded for stable timing. Returns the sweep digest.
pub fn sweep_grid() -> u64 {
    let opts = RunnerOptions {
        threads: 1,
        ..RunnerOptions::default()
    };
    crate::headline::headline_runs_with(&opts).digest
}

/// Number of cells [`sweep_grid`] simulates.
pub const SWEEP_GRID_CELLS: usize = 24;

/// Oversubscription factors of the Compromise ablation: the paper fixes
/// `x = 2`, and §3.3 leaves the factor configurable.
pub const COMPROMISE_FACTORS: [f64; 4] = [1.0, 1.5, 2.0, 3.0];

/// Ten two-thread processes, each one 4 MB high-reuse period: 40 MB of
/// demand against a 15 MB LLC, so the factor decides how many co-run.
fn contended_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "contended".into(),
        processes: (0..10)
            .map(|_| ProcessProgram {
                threads: 2,
                phases: vec![Phase::tracked(
                    "hot",
                    6_000_000,
                    mb(4.0),
                    ReuseLevel::High,
                    SiteId(0),
                )],
            })
            .collect(),
    }
}

/// One simulation of the contended workload under Compromise with
/// oversubscription factor `factor`. Returns the run digest.
pub fn compromise_contended(factor: f64) -> u64 {
    let cfg = SimConfig::paper_default(PolicyKind::Compromise { factor });
    SystemSim::new(cfg, &contended_spec())
        .run()
        .expect("cell runs")
        .digest()
}

/// Fixed CPU-bound calibration loop (integer mixing, no allocation, no
/// simulation): measures raw machine speed so a baseline recorded on
/// one machine can be compared on another. Returns the mixed value.
pub fn calibration_ops(n: usize) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..n as u64 {
        x ^= i;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
    }
    x
}

/// Result of measuring one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (stable key for baseline comparison).
    pub name: String,
    /// Logical operations per iteration batch.
    pub ops_per_iter: u64,
    /// Timed samples taken (after warmup).
    pub samples: usize,
    /// Median per-op latency, nanoseconds.
    pub p50_ns: f64,
    /// 95th-percentile per-op latency, nanoseconds.
    pub p95_ns: f64,
    /// Throughput from the median sample, operations per second.
    pub ops_per_sec: f64,
    /// Heap allocations per iteration batch (binary only; `None` when
    /// no allocation probe was installed).
    pub allocs_per_iter: Option<f64>,
    /// Heap bytes allocated per iteration batch.
    pub bytes_per_iter: Option<f64>,
    /// The kernel checksum (of the last invocation; every invocation
    /// returns the same value for a deterministic kernel) — equal
    /// across machines.
    pub checksum: u64,
}

impl BenchResult {
    /// Serialize for the report document.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("ops_per_iter", Json::Num(self.ops_per_iter as f64)),
            ("samples", Json::Num(self.samples as f64)),
            ("p50_ns", Json::Num(self.p50_ns)),
            ("p95_ns", Json::Num(self.p95_ns)),
            ("ops_per_sec", Json::Num(self.ops_per_sec)),
            ("allocs_per_iter", opt(self.allocs_per_iter)),
            ("bytes_per_iter", opt(self.bytes_per_iter)),
            ("checksum", Json::Str(format!("{:#x}", self.checksum))),
        ])
    }
}

/// Allocation probe: returns cumulative `(allocations, bytes)` counters
/// — `bench_report` wires its counting global allocator in here.
pub type AllocProbe<'a> = &'a dyn Fn() -> (u64, u64);

/// Measure `f` (one iteration batch of `ops_per_iter` logical ops):
/// `warmup` discarded batches, then `samples` timed batches. Per-op
/// p50/p95 come from the per-batch times; allocation counts are the
/// mean over timed batches.
pub fn measure(
    name: &str,
    ops_per_iter: u64,
    warmup: usize,
    samples: usize,
    probe: Option<AllocProbe<'_>>,
    mut f: impl FnMut() -> u64,
) -> BenchResult {
    let mut checksum = 0u64;
    for _ in 0..warmup {
        checksum = std::hint::black_box(f());
    }
    let mut times_ns: Vec<f64> = Vec::with_capacity(samples);
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    for _ in 0..samples {
        let before = probe.map(|p| p());
        let t0 = Instant::now();
        checksum = std::hint::black_box(f());
        let dt = t0.elapsed();
        if let (Some(p), Some((a0, b0))) = (probe, before) {
            let (a1, b1) = p();
            allocs += a1 - a0;
            bytes += b1 - b0;
        }
        times_ns.push(dt.as_secs_f64() * 1e9);
    }
    times_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let pct = |q: f64| {
        let idx = ((times_ns.len() - 1) as f64 * q).round() as usize;
        times_ns[idx]
    };
    let p50_batch = pct(0.50);
    let p95_batch = pct(0.95);
    let nf = ops_per_iter as f64;
    BenchResult {
        name: name.to_string(),
        ops_per_iter,
        samples,
        p50_ns: p50_batch / nf,
        p95_ns: p95_batch / nf,
        ops_per_sec: nf / (p50_batch / 1e9),
        allocs_per_iter: probe.map(|_| allocs as f64 / samples as f64),
        bytes_per_iter: probe.map(|_| bytes as f64 / samples as f64),
        checksum,
    }
}

/// Name of the calibration benchmark inside a report.
pub const CALIBRATION: &str = "calibration";

/// Compare `current` against a previously written report, normalizing
/// by the calibration benchmark so a uniformly slower machine does not
/// flag every kernel. Returns one message per benchmark whose
/// normalized throughput regressed by more than `tolerance` (0.20 =
/// 20 %); missing baseline entries are skipped, never failed.
pub fn compare_reports(current: &[BenchResult], baseline: &Json, tolerance: f64) -> Vec<String> {
    let base_benches: Vec<&Json> = baseline
        .get("benchmarks")
        .and_then(|b| b.as_arr())
        .map(|a| a.iter().collect())
        .unwrap_or_default();
    let base_ops = |name: &str| -> Option<f64> {
        base_benches
            .iter()
            .find(|b| b.get("name").and_then(|n| n.as_str()) == Some(name))
            .and_then(|b| b.get("ops_per_sec"))
            .and_then(|v| v.as_f64())
    };
    let cur_ops = |name: &str| -> Option<f64> {
        current
            .iter()
            .find(|b| b.name == name)
            .map(|b| b.ops_per_sec)
    };
    // Machine-speed scale: >1 means this machine is faster than the
    // one that recorded the baseline.
    let scale = match (cur_ops(CALIBRATION), base_ops(CALIBRATION)) {
        (Some(c), Some(b)) if b > 0.0 => c / b,
        _ => 1.0,
    };
    let mut regressions = Vec::new();
    for b in current {
        if b.name == CALIBRATION {
            continue;
        }
        let Some(base) = base_ops(&b.name) else {
            continue;
        };
        let expected = base * scale;
        if expected > 0.0 && b.ops_per_sec < expected * (1.0 - tolerance) {
            regressions.push(format!(
                "{}: {:.0} ops/s vs expected {:.0} ops/s (baseline {:.0} × machine scale {:.2}) — {:.1}% regression",
                b.name,
                b.ops_per_sec,
                expected,
                base,
                scale,
                (1.0 - b.ops_per_sec / expected) * 100.0
            ));
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic() {
        assert_eq!(admission_ops(500), admission_ops(500));
        assert_eq!(admission_slow_ops(500), admission_slow_ops(500));
        assert_eq!(admission_throughput_ops(500), admission_throughput_ops(500));
        assert_eq!(churn_ops(200), churn_ops(200));
        assert_eq!(calibration_ops(1_000), calibration_ops(1_000));
    }

    #[test]
    fn slow_pair_kernel_never_takes_the_fast_path() {
        // The checksum of 300 begins and 300 ends with no fast begin.
        let no_fast_begins = 300 ^ 300u64.rotate_left(17);
        assert_eq!(admission_slow_ops(300), no_fast_begins);
        assert_ne!(admission_ops(300), no_fast_begins);
    }

    #[test]
    fn compromise_factor_changes_the_contended_run() {
        let x3 = compromise_contended(3.0);
        assert_eq!(compromise_contended(3.0), x3);
        assert_ne!(compromise_contended(1.0), x3);
    }

    #[test]
    fn trace_layer_is_digest_neutral_on_a_cell() {
        // Lightest of the paper's workloads — keeps the debug-mode
        // suite fast; digest-neutrality of tracing on the full grid is
        // covered by the determinism tests.
        assert_eq!(
            sweep_cell_named("Water_nsq", false),
            sweep_cell_named("Water_nsq", true)
        );
    }

    #[test]
    fn measure_reports_sane_statistics() {
        let r = measure("spin", 100, 1, 9, None, || calibration_ops(100));
        assert_eq!(r.samples, 9);
        assert!(r.p50_ns > 0.0 && r.p95_ns >= r.p50_ns);
        assert!(r.ops_per_sec > 0.0);
        assert!(r.allocs_per_iter.is_none());
    }

    #[test]
    fn compare_normalizes_by_calibration_and_flags_real_regressions() {
        let mk = |name: &str, ops: f64| BenchResult {
            name: name.into(),
            ops_per_iter: 1,
            samples: 1,
            p50_ns: 1.0,
            p95_ns: 1.0,
            ops_per_sec: ops,
            allocs_per_iter: None,
            bytes_per_iter: None,
            checksum: 0,
        };
        let baseline = Json::obj([(
            "benchmarks",
            Json::Arr(vec![
                mk(CALIBRATION, 1000.0).to_json(),
                mk("admission", 500.0).to_json(),
                mk("churn", 100.0).to_json(),
            ]),
        )]);
        // Machine is uniformly 2× slower: no regression flagged.
        let halved = vec![
            mk(CALIBRATION, 500.0),
            mk("admission", 250.0),
            mk("churn", 50.0),
        ];
        assert!(compare_reports(&halved, &baseline, 0.20).is_empty());
        // Same machine speed, but churn really regressed 40%.
        let regressed = vec![
            mk(CALIBRATION, 1000.0),
            mk("admission", 520.0),
            mk("churn", 60.0),
        ];
        let msgs = compare_reports(&regressed, &baseline, 0.20);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].starts_with("churn:"));
        // A benchmark the baseline lacks is skipped, not failed.
        let with_new = vec![mk(CALIBRATION, 1000.0), mk("brand_new", 1.0)];
        assert!(compare_reports(&with_new, &baseline, 0.20).is_empty());
    }
}
