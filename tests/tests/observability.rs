//! Integration: the observability layer (`rda-trace`).
//!
//! Five claims are nailed down here:
//!
//! 1. Tracing is digest-neutral — for single runs (including faulty
//!    ones, property-tested over seeds/rates/policies) and for whole
//!    sweeps, serial and 8-threaded alike.
//! 2. A run recorded with both the RDA call log and the trace sink
//!    replays through `rda-check`'s `doc_from_calls` bridge with zero
//!    divergence, and the trace's own counters agree with the live
//!    extension's statistics.
//! 3. The Chrome trace-event export of a faulty sweep parses as valid
//!    JSON and carries every structural field a trace viewer needs.
//! 4. The export's *schema* — the set of event shapes it can emit — is
//!    pinned by a checked-in snapshot (`tests/corpus/trace_schema.json`);
//!    growing or reshaping the format is an explicit, reviewed diff.
//!    Regenerate with `UPDATE_TRACE_SCHEMA=1 cargo test -p rda-integration
//!    --test observability`.
//! 5. Both engines' event streams — every field of every event, in
//!    order — are pinned per replayed schedule, so moving lifecycle
//!    bookkeeping between modules cannot silently reorder or reshape
//!    what a sink records.

use proptest::prelude::*;
use rda_bench::cli::{overload_cfg, SHED_POLICIES};
use rda_bench::TraceBundle;
use rda_check::{doc_from_calls, lift, TopoDoc, TraceDoc};
use rda_core::{
    mb, Demand, DemandAudit, LayerSet, LayerSpec, PolicyKind, PpDemand, RdaConfig, RdaExtension,
    ResourceKind, SiteId, TopoConfig, TopoExtension, TopoSpec,
};
use rda_machine::{MachineConfig, ReuseLevel};
use rda_metrics::Json;
use rda_sim::experiment::paper_policies;
use rda_sim::runner::{run_sweep_configured, RunnerOptions, SweepGrid};
use rda_sim::{
    FaultConfig, SimConfig, SystemSim, TopoCall, TopoTrafficConfig, TopoTrafficSim, TrafficConfig,
    TrafficSim,
};
use rda_simcore::Fnv1a64;
use rda_trace::{EventKind, TraceConfig, TraceEvent, TraceReport, TraceSink, NO_PP};
use rda_workloads::spec::all_workloads;
use rda_workloads::{Phase, ProcessProgram, WorkloadSpec};
use std::collections::BTreeSet;

/// A small contended workload: enough processes to force waitlisting
/// and aging, cheap enough for property testing.
fn small_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "obs".into(),
        processes: (0..6)
            .map(|i| ProcessProgram {
                threads: 1 + (i % 2),
                phases: vec![Phase::tracked(
                    "k",
                    4_000_000 + i as u64 * 500_000,
                    mb(4.0 + i as f64),
                    ReuseLevel::High,
                    SiteId(i as u32),
                )],
            })
            .collect(),
    }
}

fn faulty_cfg(policy: PolicyKind, rate: f64, seed: u64) -> SimConfig {
    SimConfig::paper_default(policy)
        .with_demand_audit(DemandAudit::Clamp)
        .with_waitlist_timeout_ms(2.0)
        .with_faults(FaultConfig::uniform(rate))
        .with_jitter_seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary seeds, fault rates, and policies: (a) enabling
    /// tracing never changes `RunResult::digest()`, and (b) the same
    /// traced run, recorded call by call, replays through the reference
    /// model with zero divergence — so the trace describes exactly the
    /// run that happened.
    #[test]
    fn traced_faulty_runs_are_digest_neutral_and_replay_clean(
        seed in 0u64..1_000,
        rate in 0.0f64..0.4,
        policy_idx in 0usize..2,
    ) {
        let policy = [PolicyKind::Strict, PolicyKind::compromise_default()][policy_idx];
        let spec = small_spec();
        let plain = SystemSim::new(faulty_cfg(policy, rate, seed), &spec)
            .run()
            .unwrap();
        let mut sim = SystemSim::new(
            faulty_cfg(policy, rate, seed).with_rda_trace().with_trace(),
            &spec,
        );
        let traced = sim.run().unwrap();
        prop_assert_eq!(plain.digest(), traced.digest(), "tracing moved the digest");

        // Replay the recorded call log through the pure reference model.
        let doc = rda_check::doc_from_calls(sim.rda().config().clone(), sim.rda_calls());
        let report = rda_check::replay(&doc).unwrap();
        prop_assert_eq!(
            &report.final_snapshot,
            &sim.rda().snapshot(),
            "replayed state diverged from the live extension"
        );

        // The trace's derived counters agree with the extension's stats.
        let trace = traced.trace.expect("tracing was enabled");
        prop_assert_eq!(trace.counts.begins, traced.rda.begins);
        // `RdaStats::ends` counts every `pp_end` call; the trace's End
        // event only marks successful completions (a rejected end
        // records a Reject event instead).
        prop_assert_eq!(
            trace.counts.ends,
            traced.rda.ends - traced.rda.rejected_ends
        );
        prop_assert_eq!(trace.counts.aged, traced.rda.aged_admissions);
        prop_assert_eq!(trace.counts.resumes, traced.rda.resumed);
        // Every process exits exactly once (clean or killed).
        prop_assert_eq!(trace.counts.exits, spec.processes.len() as u64);
    }
}

/// Sweep-level digest neutrality: the same grid run untraced, traced
/// serially, and traced on 8 threads produces one digest.
#[test]
fn traced_sweeps_are_digest_neutral_and_thread_invariant() {
    let specs = all_workloads();
    let grid = SweepGrid::cross(&specs[..1], &paper_policies(), 1);
    let opts = |threads| RunnerOptions {
        threads,
        root_seed: 42,
    };
    let untraced = run_sweep_configured(&grid, &opts(1), |cell| {
        SimConfig::paper_default(cell.policy)
    });
    let traced_serial = run_sweep_configured(&grid, &opts(1), |cell| {
        SimConfig::paper_default(cell.policy).with_trace()
    });
    let traced_parallel = run_sweep_configured(&grid, &opts(8), |cell| {
        SimConfig::paper_default(cell.policy).with_trace()
    });
    assert!(untraced.errors.is_empty());
    assert_eq!(
        untraced.digest(),
        traced_serial.digest(),
        "tracing changed the sweep digest"
    );
    assert_eq!(
        traced_serial.digest(),
        traced_parallel.digest(),
        "traced sweep digest depends on thread count"
    );
    // And the traces themselves are a pure function of the cell, not of
    // the thread count.
    for (s, p) in traced_serial.records.iter().zip(&traced_parallel.records) {
        assert_eq!(
            s.result.trace, p.result.trace,
            "cell #{} trace diverged",
            s.index
        );
    }
}

/// Export a deterministic faulty sweep the way `exp_faults --trace-out`
/// does and collect the shared bundle + parsed document.
fn faulty_export() -> (TraceBundle, Json) {
    let specs = all_workloads();
    let grid = SweepGrid::cross(
        &specs[..1],
        &[PolicyKind::Strict, PolicyKind::compromise_default()],
        1,
    );
    let opts = RunnerOptions {
        threads: 1,
        root_seed: 42,
    };
    let sweep = run_sweep_configured(&grid, &opts, |cell| {
        SimConfig::paper_default(cell.policy)
            .with_demand_audit(DemandAudit::Clamp)
            .with_waitlist_timeout_ms(5.0)
            .with_faults(FaultConfig::uniform(0.25))
            .with_trace()
    });
    assert!(sweep.errors.is_empty(), "{:?}", sweep.errors);
    let mut bundle = TraceBundle::new();
    bundle.add_records("rate0.25:", &sweep.records);
    assert_eq!(bundle.len(), grid.len(), "every cell must carry a trace");
    let text = bundle.to_chrome_json().to_string_pretty();
    let parsed = Json::parse(&text).expect("export must be valid JSON");
    (bundle, parsed)
}

/// The faulty export loads as Chrome trace-event format: the required
/// top-level and per-event fields are all present and every event kind
/// the run produced is represented.
#[test]
fn faulty_sweep_export_loads_as_chrome_trace_format() {
    let (_, doc) = faulty_export();
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(events.len() > 100, "faulty sweep must produce a rich trace");
    for ev in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "event missing '{key}': {ev}");
        }
    }
    let phases: BTreeSet<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(Json::as_str))
        .collect();
    for ph in ["M", "b", "e", "i", "C"] {
        assert!(phases.contains(ph), "no '{ph}' events in the export");
    }
    // Faults at rate 0.25 with Clamp + aging must surface rejects.
    assert!(
        events.iter().any(|e| e
            .get("name")
            .and_then(Json::as_str)
            .is_some_and(|n| n.starts_with("reject:"))),
        "faulty run produced no reject instants"
    );
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let meta = doc.get("metadata").expect("metadata");
    assert_eq!(meta.get("tool").and_then(Json::as_str), Some("rda-trace"));
    assert!(meta.get("freq_hz").and_then(Json::as_f64).unwrap() > 0.0);
}

/// Reduce a trace document to its schema: the sorted, deduplicated set
/// of event shapes (`ph`/`cat` plus the sorted key lists of the event
/// object and its `args`), and the document's top-level/metadata keys.
fn schema_of(doc: &Json) -> Json {
    let keys_of = |j: &Json| -> Json {
        match j {
            Json::Obj(map) => Json::Arr(map.keys().map(|k| Json::Str(k.clone())).collect()),
            _ => Json::Arr(vec![]),
        }
    };
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let mut shapes: BTreeSet<String> = BTreeSet::new();
    for ev in events {
        let shape = Json::obj([
            (
                "ph",
                Json::Str(ev.get("ph").and_then(Json::as_str).unwrap().to_string()),
            ),
            (
                "cat",
                Json::Str(ev.get("cat").and_then(Json::as_str).unwrap().to_string()),
            ),
            ("keys", keys_of(ev)),
            ("args", keys_of(ev.get("args").unwrap_or(&Json::Null))),
        ]);
        shapes.insert(shape.to_string_compact());
    }
    Json::obj([
        ("document_keys", keys_of(doc)),
        (
            "metadata_keys",
            keys_of(doc.get("metadata").unwrap_or(&Json::Null)),
        ),
        (
            "event_shapes",
            Json::Arr(
                shapes
                    .into_iter()
                    .map(|s| Json::parse(&s).unwrap())
                    .collect(),
            ),
        ),
    ])
}

/// Golden snapshot of the export schema. A failure means the trace
/// format changed; review the diff and regenerate the corpus file with
/// `UPDATE_TRACE_SCHEMA=1`.
#[test]
fn export_schema_matches_the_golden_snapshot() {
    let (_, doc) = faulty_export();
    let schema = schema_of(&doc).to_string_pretty();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/trace_schema.json");
    if std::env::var_os("UPDATE_TRACE_SCHEMA").is_some() {
        std::fs::write(path, &schema).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("tests/corpus/trace_schema.json missing — regenerate with UPDATE_TRACE_SCHEMA=1");
    assert_eq!(
        schema, golden,
        "trace export schema drifted from the golden snapshot; if the \
         change is intentional, rerun with UPDATE_TRACE_SCHEMA=1 and \
         review the corpus diff"
    );
}

/// Fold every field of every retained event, then the count of events
/// the ring overwrote, into one digest.
fn event_stream_digest(report: &TraceReport) -> u64 {
    let mut h = Fnv1a64::new();
    for ev in &report.events {
        h.write_u64(ev.t_cycles)
            .write_u64(ev.kind as u64)
            .write_u64(ev.node as u64)
            .write_u64(ev.process as u64)
            .write_u64(ev.site as u64)
            .write_u64(ev.pp)
            .write_u64(ev.resource as u64)
            .write_u64(ev.amount)
            .write_u64(ev.wait_cycles)
            .write_u64(ev.fast as u64)
            .write_u64(ev.reject as u64);
    }
    h.write_u64(report.dropped_events);
    h.finish()
}

/// The lifecycle step an event records, precise enough to tell a head
/// drop (a waiter evicted) from a tail drop (the arrival refused) and an
/// exit that reclaimed periods from a clean one.
fn event_facet(ev: &TraceEvent) -> String {
    let subject = if ev.pp == NO_PP { "arrival" } else { "period" };
    match ev.kind {
        EventKind::Shed | EventKind::Reject => format!("{:?}/{:?}/{subject}", ev.kind, ev.reject),
        EventKind::Exit if ev.amount > 0 => "Exit/reclaim".into(),
        kind => format!("{kind:?}"),
    }
}

/// Replay `calls` through a fresh scalar engine with a sink attached.
fn scalar_event_report(cfg: &RdaConfig, calls: &[TopoCall]) -> TraceReport {
    let mut ext = RdaExtension::new(cfg.clone());
    ext.install_trace(TraceSink::new(TraceConfig::default()));
    for call in calls {
        match *call {
            TopoCall::Begin {
                now,
                process,
                site,
                demand,
            } => {
                let demand = PpDemand::llc(demand.get(ResourceKind::Llc), ReuseLevel::High);
                let _ = ext.pp_begin(process, site, demand, now);
            }
            TopoCall::End { now, pp } => {
                let _ = ext.pp_end(pp, now);
            }
            TopoCall::Exit { now, process } => {
                ext.process_exit(process, now);
            }
            TopoCall::Age { now } => {
                ext.age_waitlist(now);
            }
            TopoCall::Retry {
                now,
                process,
                site,
                kind,
            } => ext.note_retry(process, site, kind, now),
        }
    }
    ext.take_trace().expect("sink installed").into_report()
}

/// Replay `calls` through a fresh topology engine with a sink attached.
fn vector_event_report(cfg: &TopoConfig, calls: &[TopoCall]) -> TraceReport {
    let mut ext = TopoExtension::new(cfg.clone());
    ext.install_trace(TraceSink::new(TraceConfig::default()));
    for call in calls {
        match *call {
            TopoCall::Begin {
                now,
                process,
                site,
                demand,
            } => {
                let _ = ext.pp_begin(process, site, demand, now);
            }
            TopoCall::End { now, pp } => {
                let _ = ext.pp_end(pp, now);
            }
            TopoCall::Exit { now, process } => {
                ext.process_exit(process, now);
            }
            TopoCall::Age { now } => {
                ext.age_waitlist(now);
            }
            TopoCall::Retry {
                now,
                process,
                site,
                kind,
            } => ext.note_retry(process, site, kind, now),
        }
    }
    ext.take_trace().expect("sink installed").into_report()
}

/// Per-stream digests of both engines' trace events, pinned: every
/// scalar corpus trace through the scalar engine and, lifted, through
/// the topology engine; every topology corpus trace; and one recorded
/// overload cell per shed policy on each engine. Together the overload
/// cells make each engine evict, degrade, drop, expire, age, trip and
/// reset its breaker, reject ends and reclaim exits, so a change to the
/// order or payload of any of those events moves a digest here.
#[test]
fn both_engines_emit_pinned_event_streams() {
    const PINNED: &[(&str, u64)] = &[
        ("scalar audit_reject_overflow.trace", 0x4a83ff5daa3e2486),
        ("lifted audit_reject_overflow.trace", 0x772670fb4352306b),
        ("scalar backward_clock_aging.trace", 0x5c560578cab12614),
        ("lifted backward_clock_aging.trace", 0x54fd2088edb58bd8),
        ("scalar breaker_before_wrap_guard.trace", 0x7806d792f98e2601),
        ("lifted breaker_before_wrap_guard.trace", 0x51c79d4ae7774d7c),
        ("scalar breaker_idle_resource.trace", 0x09e7837896c89ca4),
        ("lifted breaker_idle_resource.trace", 0x91173a51cbb63040),
        ("scalar compromise_aging_overflow.trace", 0x554586085edd7a0d),
        ("lifted compromise_aging_overflow.trace", 0x443f333df86d45f1),
        ("scalar double_end.trace", 0x55e0fd2d388443b2),
        ("lifted double_end.trace", 0xfea20dffddb07673),
        ("scalar end_while_waitlisted.trace", 0xc0c57d3b06f86d8f),
        ("lifted end_while_waitlisted.trace", 0x09455b4853e2aaa6),
        ("scalar exit_reclaims_all.trace", 0x8464e017dff52c59),
        ("lifted exit_reclaims_all.trace", 0x6de6626916e4dd20),
        (
            "scalar fast_oversized_readmission.trace",
            0x0c9b26227d7093f0,
        ),
        (
            "lifted fast_oversized_readmission.trace",
            0x2f756cea8c4488d1,
        ),
        ("scalar golden_sweep.trace", 0xae237567e2ed8dab),
        ("lifted golden_sweep.trace", 0x9ef8a5a178e427e3),
        (
            "scalar memo_lookup_past_the_wrap_guard.trace",
            0x226116a7cd693165,
        ),
        (
            "lifted memo_lookup_past_the_wrap_guard.trace",
            0x85d39d762fb88ac1,
        ),
        ("scalar overflow_bucket_wrap.trace", 0x7a659ec010e8eff1),
        ("lifted overflow_bucket_wrap.trace", 0xd0cd6dc01d54fce8),
        (
            "scalar overload_shed_expire_breaker.trace",
            0xa1cc360cb786aa1e,
        ),
        (
            "lifted overload_shed_expire_breaker.trace",
            0x88af88755558b852,
        ),
        ("scalar unknown_end.trace", 0x48f0846dfdbb1319),
        ("lifted unknown_end.trace", 0x4b26b13e0de03978),
        ("vector layers_capacity_guarantee.trace", 0xddaa6da633aca737),
        ("vector single_node_compat.trace", 0x9ef8a5a178e427e3),
        (
            "vector topology_two_node_spillover.trace",
            0x46495ac5e1ccfa6f,
        ),
        ("scalar overload RejectNewest", 0x091f6028ece4b34b),
        ("vector overload RejectNewest", 0x6a84e8ccabc6255a),
        ("scalar overload RejectOldest", 0x44951ebc18976ea4),
        ("vector overload RejectOldest", 0x7a121c368ab90ce8),
        ("scalar overload DegradeToOverflow", 0x497f866e59134c6d),
        ("vector overload DegradeToOverflow", 0x3f3c3723f7169246),
    ];
    let mut got: Vec<(String, u64)> = Vec::new();
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let files = |dir: &str| {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("corpus directory exists")
            .map(|e| e.expect("readable dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "trace"))
            .collect();
        paths.sort();
        paths
    };
    for path in files(corpus) {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let doc = TraceDoc::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let scalar = scalar_event_report(&doc.cfg, &doc.events);
        got.push((format!("scalar {name}"), event_stream_digest(&scalar)));
        let lifted = lift(&doc);
        let vector = vector_event_report(&lifted.cfg, &lifted.events);
        got.push((format!("lifted {name}"), event_stream_digest(&vector)));
    }
    for path in files(&format!("{corpus}/topo")) {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let doc = TopoDoc::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let vector = vector_event_report(&doc.cfg, &doc.events);
        got.push((format!("vector {name}"), event_stream_digest(&vector)));
    }

    let (mut scalar_facets, mut vector_facets) = (BTreeSet::new(), BTreeSet::new());
    for (i, policy) in SHED_POLICIES.into_iter().enumerate() {
        let seed = 11 + i as u64;
        let rda = RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), PolicyKind::Strict)
            .with_waitlist_timeout_cycles(40_000_000)
            .with_overload(overload_cfg(policy));
        let mut traffic = TrafficConfig::web_default(12_000.0, 0.05);
        traffic.record_calls = true;
        let run = TrafficSim::new(traffic, rda.clone())
            .with_faults(FaultConfig::uniform(0.05))
            .run(seed);
        let doc = doc_from_calls(rda, &run.calls.expect("record_calls was set"));
        let scalar = scalar_event_report(&doc.cfg, &doc.events);
        assert_eq!(
            scalar.dropped_events, 0,
            "{policy:?}: the event ring wrapped"
        );
        scalar_facets.extend(scalar.events.iter().map(event_facet));
        got.push((
            format!("scalar overload {policy:?}"),
            event_stream_digest(&scalar),
        ));

        let latency = LayerSpec::new("latency", PolicyKind::Strict).with_guarantee(Demand::new(
            4 << 20,
            1_500,
            64 << 20,
        ));
        let layers = LayerSet::new(vec![LayerSpec::new("batch", PolicyKind::Strict), latency]);
        let topo = TopoConfig::new(TopoSpec::uniform(1, 15_360 << 10, 6_000, 1 << 30), layers)
            .with_waitlist_timeout_cycles(40_000_000)
            .with_overload(overload_cfg(policy));
        let mut traffic = TopoTrafficConfig::two_tenant(24_000.0, 0.05);
        // Long services keep waiters queued past the aging timeout.
        traffic.mean_service_cycles = 1.9e7;
        traffic.record_calls = true;
        let run = TopoTrafficSim::new(traffic, topo)
            .with_faults(FaultConfig::uniform(0.05))
            .run(seed);
        let cfg = run.config.expect("record_calls was set");
        let vector = vector_event_report(&cfg, &run.calls.expect("record_calls was set"));
        assert_eq!(
            vector.dropped_events, 0,
            "{policy:?}: the event ring wrapped"
        );
        vector_facets.extend(vector.events.iter().map(event_facet));
        got.push((
            format!("vector overload {policy:?}"),
            event_stream_digest(&vector),
        ));
    }
    for facet in [
        "Shed/WaitlistFull/period",
        "Shed/WaitlistFull/arrival",
        "Shed/None/period",
        "Expire",
        "Age",
        "BreakerTrip",
        "BreakerReset",
        "Reject/DoubleEnd/period",
        "Exit/reclaim",
    ] {
        assert!(
            scalar_facets.contains(facet),
            "scalar cells never record {facet}: {scalar_facets:?}"
        );
        assert!(
            vector_facets.contains(facet),
            "vector cells never record {facet}: {vector_facets:?}"
        );
    }

    let table: String = got
        .iter()
        .map(|(name, digest)| format!("        (\"{name}\", {digest:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        got, want,
        "event streams moved; the streams now read:\n{table}"
    );
}
