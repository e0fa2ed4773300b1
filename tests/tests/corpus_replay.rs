//! Replay every committed `.trace` file under `tests/corpus/` through
//! the differential oracle.
//!
//! The corpus is the project's bug museum: hand-written scenarios
//! covering each admission and rejection path, plus every shrunk
//! counterexample the fuzzer or the bounded explorer ever produced.
//! Each file must parse, survive a text round-trip, and replay with
//! zero divergence between `rda-core` and the reference model —
//! forever. To add an entry, paste the shrunk trace printed by a
//! failing `rda-check` test (or `explore` run) into a new `.trace`
//! file here.

//!
//! `corpus/topo/` holds the topology-dialect traces (multi-node,
//! multi-resource, layered); they replay through the topology oracle
//! ([`rda_check::replay_topo`]) the same way, and every *scalar* trace
//! additionally replays through the topology oracle via the
//! single-node compatibility lift ([`rda_check::lift`]), where both
//! engines must have the same effect on every call.

use rda_check::{replay, replay_lifted, replay_topo, TopoDoc, TraceDoc};
use rda_integration::{as_scalar, without_fast};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn topo_corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir().join("topo"))
        .expect("tests/corpus/topo/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    files.sort();
    files
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_not_empty() {
    assert!(
        corpus_files().len() >= 5,
        "the corpus should cover at least the hand-written scenarios"
    );
}

#[test]
fn every_corpus_trace_replays_without_divergence() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc =
            TraceDoc::parse(&text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        assert!(!doc.events.is_empty(), "{name}: no events");
        // The serializer must be able to re-emit what it parsed.
        let reparsed = TraceDoc::parse(&doc.to_text())
            .unwrap_or_else(|e| panic!("{name}: round-trip failed: {e}"));
        assert_eq!(reparsed, doc, "{name}: round-trip changed the document");
        let report = replay(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.steps, doc.events.len(), "{name}");
    }
}

/// The hand-written scenarios that are *designed* to drain must end
/// with the books at zero — a corpus entry that silently stops
/// balancing would weaken the museum.
#[test]
fn draining_corpus_traces_end_idle() {
    for name in [
        "golden_sweep.trace",
        "unknown_end.trace",
        "double_end.trace",
        "end_while_waitlisted.trace",
        "audit_reject_overflow.trace",
        "compromise_aging_overflow.trace",
        "exit_reclaims_all.trace",
        "overload_shed_expire_breaker.trace",
        "breaker_before_wrap_guard.trace",
        "overflow_bucket_wrap.trace",
    ] {
        let text = std::fs::read_to_string(corpus_dir().join(name)).unwrap();
        let doc = TraceDoc::parse(&text).unwrap();
        let report = replay(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            report.final_snapshot.is_idle(),
            "{name}: books did not return to zero: {:?}",
            report.final_snapshot
        );
    }
}

#[test]
fn every_topo_corpus_trace_replays_without_divergence_and_ends_idle() {
    let files = topo_corpus_files();
    assert!(files.len() >= 3, "the topology corpus has its three scenarios");
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = TopoDoc::parse(&text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        assert!(!doc.events.is_empty(), "{name}: no events");
        let reparsed = TopoDoc::parse(&doc.to_text())
            .unwrap_or_else(|e| panic!("{name}: round-trip failed: {e}"));
        assert_eq!(reparsed, doc, "{name}: round-trip changed the document");
        let report = replay_topo(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.steps, doc.events.len(), "{name}");
        assert!(
            report.final_snapshot.is_idle(),
            "{name}: per-node books did not return to zero: {:?}",
            report.final_snapshot
        );
    }
}

/// Every *scalar* corpus trace also replays divergence-free through the
/// topology oracle on its 1-node/1-resource compatibility lift — the
/// legacy corpus doubles as the topology engine's regression museum —
/// and the two engines have the same effect on every call, fast-path
/// flags aside.
#[test]
fn every_scalar_corpus_trace_replays_through_the_topology_oracle() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = TraceDoc::parse(&text).unwrap();
        let report = replay_lifted(&doc).unwrap_or_else(|e| panic!("{name} (lifted): {e}"));
        assert_eq!(report.steps, doc.events.len(), "{name} (lifted)");
        let scalar = replay(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (step, (s, t)) in scalar.effects.iter().zip(&report.effects).enumerate() {
            assert_eq!(
                without_fast(s),
                as_scalar(t),
                "{name}, step {step}: {:?}",
                doc.events[step]
            );
        }
    }
}

/// The single-resource compatibility argument, byte for byte: the
/// hand-written topology-dialect `single_node_compat.trace` and the
/// *lifted* scalar `golden_sweep.trace` reach bit-identical final
/// snapshots (same digest), and the scalar replay of the same schedule
/// agrees on every lifecycle counter.
#[test]
fn single_node_compat_trace_matches_the_lifted_golden_sweep() {
    let topo_text =
        std::fs::read_to_string(corpus_dir().join("topo/single_node_compat.trace")).unwrap();
    let hand = replay_topo(&TopoDoc::parse(&topo_text).unwrap()).unwrap();

    let scalar_text = std::fs::read_to_string(corpus_dir().join("golden_sweep.trace")).unwrap();
    let scalar_doc = TraceDoc::parse(&scalar_text).unwrap();
    let lifted = replay_lifted(&scalar_doc).unwrap();
    assert_eq!(
        hand.final_snapshot.digest(),
        lifted.final_snapshot.digest(),
        "hand-written compat trace and lifted golden sweep must be bit-identical"
    );

    let scalar = replay(&scalar_doc).unwrap();
    let (s, t) = (scalar.final_snapshot.stats, lifted.final_snapshot.stats);
    assert_eq!(
        (s.begins, s.admitted, s.paused, s.resumed, s.ends),
        (t.begins, t.admitted, t.paused, t.resumed, t.ends),
        "scalar and topology engines must agree on the lifecycle counters"
    );
    assert!(lifted.final_snapshot.is_idle());
}
