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
use rda_integration::{decided, without_fast};
use rda_simcore::Xoshiro256;
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
        let doc = TraceDoc::parse(&text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
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
        "fast_oversized_readmission.trace",
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
    assert!(
        files.len() >= 3,
        "the topology corpus has its three scenarios"
    );
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
/// flags aside, and end in the same snapshot, fast-path counters zeroed.
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
                *t,
                "{name}, step {step}: {:?}",
                doc.events[step]
            );
        }
        let mut want = scalar.final_snapshot;
        want.stats = decided(want.stats);
        assert_eq!(want, report.final_snapshot, "{name}: final snapshot");
    }
}

/// The single-resource compatibility argument, byte for byte: the
/// hand-written topology-dialect `single_node_compat.trace` and the
/// *lifted* scalar `golden_sweep.trace` reach bit-identical final
/// snapshots (same digest). The scalar replay of the same schedule ends
/// in the lift's snapshot too
/// (`every_scalar_corpus_trace_replays_through_the_topology_oracle`).
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
    assert!(lifted.final_snapshot.is_idle());
}

/// Words a mutation may put in place of another: every keyword both
/// dialects know, so mutants reach past the first refusal, numbers at
/// and past the edges of their types, and `mb` amounts.
const TOKENS: [&str; 40] = [
    "begin",
    "vbegin",
    "end",
    "exit",
    "age",
    "retry",
    "policy",
    "llc",
    "membw",
    "dram",
    "interval",
    "audit",
    "trust",
    "clamp",
    "reject",
    "timeout",
    "none",
    "overload",
    "deadline",
    "breaker",
    "reject_newest",
    "reject_oldest",
    "degrade",
    "node",
    "layer",
    "assign",
    "guarantee",
    "default",
    "strict",
    "compromise",
    "partitioned",
    "0",
    "1",
    "0.5",
    "1e308",
    "NaN",
    "inf",
    "4294967296",
    "18446744073709551615",
    "1.5mb",
];

/// One malformed variant of `lines`: a line dropped, duplicated or
/// truncated, or one word replaced by a random token, `-1` or
/// `18446744073709551616` (one past `u64::MAX`).
fn mutate(lines: &[&str], rng: &mut Xoshiro256) -> String {
    let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let i = rng.next_below(out.len() as u64) as usize;
    match rng.next_below(4) {
        0 => {
            out.remove(i);
        }
        1 => out.insert(i, out[i].clone()),
        2 => {
            let cuts: Vec<usize> = out[i].char_indices().map(|(at, _)| at).collect();
            if let Some(&at) = cuts.get(rng.next_below(cuts.len().max(1) as u64) as usize) {
                out[i].truncate(at);
            }
        }
        _ => {
            let mut words: Vec<String> = out[i].split_whitespace().map(String::from).collect();
            if !words.is_empty() {
                let w = rng.next_below(words.len() as u64) as usize;
                let shift = rng.next_below(64);
                words[w] = match rng.next_below(4) {
                    0 => "-1".to_string(),
                    1 => "18446744073709551616".to_string(),
                    2 => (rng.next_u64() >> shift).to_string(),
                    _ => TOKENS[rng.next_below(TOKENS.len() as u64) as usize].to_string(),
                };
                out[i] = words.join(" ");
            }
        }
    }
    out.join("\n")
}

/// Parse `text`; a document the reader accepts must come back unchanged
/// through `to_text` and `parse`, and a refusal must name a line of
/// `text`. Returns whether the reader accepted it.
fn parses_cleanly<D: PartialEq + std::fmt::Debug>(
    text: &str,
    parse: fn(&str) -> Result<D, String>,
    to_text: fn(&D) -> String,
) -> Result<bool, String> {
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            let line = e
                .strip_prefix("line ")
                .and_then(|rest| rest.split(':').next())
                .and_then(|n| n.parse::<usize>().ok());
            return match line {
                Some(n) if (1..=text.lines().count()).contains(&n) => Ok(false),
                _ => Err(format!("refusal names no line of the input: {e}")),
            };
        }
    };
    let again = parse(&to_text(&doc)).map_err(|e| format!("written form refused: {e}"))?;
    if again != doc {
        return Err(format!("round trip changed {doc:?} into {again:?}"));
    }
    Ok(true)
}

/// Malformed input: every committed corpus trace, mutated a few hundred
/// times (seeded), goes to its dialect's reader. Neither reader may
/// panic, every accepted document round-trips, and every refusal is a
/// line-numbered error.
#[test]
fn mutated_corpus_traces_are_refused_or_round_trip() {
    let mut rng = Xoshiro256::new(0x7ace_f022);
    let files = corpus_files()
        .into_iter()
        .map(|p| (p, false))
        .chain(topo_corpus_files().into_iter().map(|p| (p, true)));
    let (mut accepted, mut refused) = (0, 0);
    for (path, topo) in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for _ in 0..300 {
            let mut mutant = mutate(&lines, &mut rng);
            for _ in 0..rng.next_below(3) {
                let again: Vec<&str> = mutant.lines().collect();
                if !again.is_empty() {
                    mutant = mutate(&again, &mut rng);
                }
            }
            let outcome = std::panic::catch_unwind(|| {
                if topo {
                    parses_cleanly(&mutant, TopoDoc::parse, TopoDoc::to_text)
                } else {
                    parses_cleanly(&mutant, TraceDoc::parse, TraceDoc::to_text)
                }
            });
            match outcome {
                Ok(Ok(true)) => accepted += 1,
                Ok(Ok(false)) => refused += 1,
                Ok(Err(e)) => panic!("{name}: {e}\n--- input ---\n{mutant}"),
                Err(_) => panic!("{name}: the reader panicked\n--- input ---\n{mutant}"),
            }
        }
    }
    // Both outcomes must be common, or the mutations test nothing.
    assert!(
        accepted > 500 && refused > 500,
        "{accepted} accepted, {refused} refused"
    );
}
