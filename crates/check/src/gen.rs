//! Random scenario generation and trace shrinking.
//!
//! The explorer covers *small* spaces exhaustively; this module covers
//! *large* ones probabilistically. [`random_doc`] derives a whole trace
//! (configuration and events) deterministically from one seed —
//! contended demands, near-`u64::MAX` declarations, protocol
//! violations, process exits, aging ticks, occasionally non-monotonic
//! clocks — and [`fuzz`] replays a seed range through the differential
//! oracle.
//!
//! When a seed fails, [`shrink`] reduces the trace to a locally minimal
//! repro: greedy single-event deletion to a fixpoint (ddmin's core
//! loop), then per-event simplification (rounding demands down to
//! coarse values). The result is meant to be written to
//! `tests/corpus/<name>.trace` and committed, so every bug the fuzzer
//! ever finds stays fixed forever. Failure predicates are pluggable, so
//! the shrinker itself is testable without a real scheduler bug.

use crate::diff::{replay, Divergence};
use crate::trace::{default_config, TraceDoc, TraceEvent};
use rda_core::{BreakerConfig, DemandAudit, OverloadConfig, PolicyKind, ShedPolicy};
use rda_simcore::SplitMix64;

/// Shape knobs for [`random_doc`].
#[derive(Debug, Clone)]
pub struct GenParams {
    /// Number of processes issuing calls.
    pub procs: u32,
    /// Number of static sites demands come from.
    pub sites: u32,
    /// Number of events to generate.
    pub events: usize,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            procs: 4,
            sites: 3,
            events: 40,
        }
    }
}

/// Derive a complete random trace from `seed`. The same seed always
/// produces the same document.
pub fn random_doc(seed: u64, params: &GenParams) -> TraceDoc {
    let mut rng = SplitMix64::new(seed);
    let mut cfg = default_config();
    // Small capacities keep contention (and therefore waitlist and
    // aging traffic) high.
    cfg.llc_capacity = 10_000 + rng.next_below(20_000);
    cfg.policy = match rng.next_below(4) {
        0 => PolicyKind::Strict,
        1 => PolicyKind::compromise_default(),
        2 => PolicyKind::Compromise { factor: 1.5 },
        _ => PolicyKind::Partitioned { quota_frac: 0.5 },
    };
    cfg.demand_audit = match rng.next_below(3) {
        0 => DemandAudit::Trust,
        1 => DemandAudit::Clamp,
        _ => DemandAudit::Reject,
    };
    cfg.waitlist_timeout_cycles = match rng.next_below(3) {
        0 => None,
        _ => Some(1_000 + rng.next_below(4_000)),
    };
    cfg.min_eval_interval_cycles = 500 + rng.next_below(2_000);
    // Overload control on two thirds of the seeds, so the bounded
    // gate, deadlines, and breaker hysteresis face random schedules
    // (and the other third keeps pure-closed-system coverage).
    cfg.overload = match rng.next_below(3) {
        0 => None,
        _ => Some(OverloadConfig {
            waitlist_cap: rng.next_below(4) as usize,
            shed_policy: match rng.next_below(3) {
                0 => ShedPolicy::RejectNewest,
                1 => ShedPolicy::RejectOldest,
                _ => ShedPolicy::DegradeToOverflow,
            },
            deadline_cycles: match rng.next_below(2) {
                0 => None,
                _ => Some(500 + rng.next_below(3_000)),
            },
            breaker: match rng.next_below(2) {
                0 => None,
                _ => Some(BreakerConfig {
                    high_water: cfg.llc_capacity / 2 + rng.next_below(cfg.llc_capacity),
                    low_water: cfg.llc_capacity / 4 + rng.next_below(cfg.llc_capacity / 4),
                    trip_after: 1 + rng.next_below(3) as u32,
                    recover_after: 1 + rng.next_below(3) as u32,
                    shed_min_demand: rng.next_below(2_000),
                }),
            },
        }),
    };

    let mut events = Vec::with_capacity(params.events);
    let mut t: u64 = 0;
    let mut allocatable: u64 = 0; // upper bound on allocated pp ids
    for _ in 0..params.events {
        // Mostly monotone clock with occasional backward jumps, to
        // exercise the saturating-time and oldest-first-aging paths.
        if rng.next_below(16) == 0 {
            t = t.saturating_sub(rng.next_below(2_000));
        } else {
            t += rng.next_below(800);
        }
        let ev = match rng.next_below(100) {
            0..=54 => {
                allocatable += 1;
                TraceEvent::Begin {
                    t,
                    process: rng.next_below(params.procs as u64) as u32,
                    site: rng.next_below(params.sites as u64) as u32,
                    // Up to 1.5× capacity: fits, contends, or trips the
                    // audit / oversized guard. One begin in 32 declares
                    // nearly `u64::MAX`, so accounting it can wrap the
                    // books and reach the wrap guard.
                    amount: if rng.next_below(32) == 0 {
                        u64::MAX - rng.next_below(cfg.llc_capacity)
                    } else {
                        rng.next_below(cfg.llc_capacity * 3 / 2)
                    },
                }
            }
            55..=81 => TraceEvent::End {
                // A little past the allocated range, so unknown ids and
                // double ends occur naturally.
                pp: rng.next_below(allocatable + 2),
                t,
            },
            82..=88 => TraceEvent::Exit {
                t,
                process: rng.next_below(params.procs as u64) as u32,
            },
            89..=91 => TraceEvent::Retry {
                t,
                process: rng.next_below(params.procs as u64) as u32,
                site: rng.next_below(params.sites as u64) as u32,
            },
            _ => TraceEvent::Age { t },
        };
        events.push(ev);
    }
    TraceDoc { cfg, events }
}

/// Replay seeds `0..seeds` through the differential oracle. Returns the
/// first failing seed with its divergence and the **shrunk** repro, or
/// `None` when every seed replays clean.
pub fn fuzz(seeds: u64, params: &GenParams) -> Option<FuzzFailure> {
    for seed in 0..seeds {
        let doc = random_doc(seed, params);
        if replay(&doc).is_err() {
            let shrunk = shrink(&doc, |d| replay(d).is_err());
            let div = replay(&shrunk).expect_err("shrink preserves failure");
            return Some(FuzzFailure {
                seed,
                original_events: doc.events.len(),
                shrunk,
                divergence: *div,
            });
        }
    }
    None
}

/// A failing seed, minimised.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The seed that produced the failing trace.
    pub seed: u64,
    /// Event count before shrinking.
    pub original_events: usize,
    /// The minimised trace (commit this under `tests/corpus/`).
    pub shrunk: TraceDoc,
    /// The divergence the shrunk trace reproduces.
    pub divergence: Divergence,
}

/// Shrink `doc` to a locally minimal trace for which `still_fails`
/// holds: repeatedly delete single events (restarting after every
/// successful deletion) until no single deletion keeps it failing, then
/// try rounding each demand down to coarser values.
pub fn shrink<F: Fn(&TraceDoc) -> bool>(doc: &TraceDoc, still_fails: F) -> TraceDoc {
    debug_assert!(still_fails(doc), "shrinking a non-failing trace");
    let mut best = doc.clone();
    // Phase 1: event deletion to a fixpoint.
    'deletion: loop {
        for i in 0..best.events.len() {
            let mut candidate = best.clone();
            candidate.events.remove(i);
            if still_fails(&candidate) {
                best = candidate;
                continue 'deletion;
            }
        }
        break;
    }
    // Phase 2: simplify surviving begins (smaller round demands).
    for i in 0..best.events.len() {
        if let TraceEvent::Begin { amount, .. } = best.events[i] {
            for coarser in [0, 1_000, amount / 2, amount / 10 * 10] {
                if coarser >= amount {
                    continue;
                }
                let mut candidate = best.clone();
                if let TraceEvent::Begin { amount: a, .. } = &mut candidate.events[i] {
                    *a = coarser;
                }
                if still_fails(&candidate) {
                    best = candidate;
                    break;
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = GenParams::default();
        assert_eq!(random_doc(42, &p), random_doc(42, &p));
        assert_ne!(random_doc(42, &p).events, random_doc(43, &p).events);
    }

    #[test]
    fn random_seeds_replay_clean() {
        // The real fuzz gate; a divergence here is a scheduler (or
        // model) bug — shrink it and commit the repro to tests/corpus/.
        let p = GenParams::default();
        if let Some(fail) = fuzz(150, &p) {
            panic!(
                "seed {} diverged ({} events shrunk to {}):\n{}\n--- repro ---\n{}",
                fail.seed,
                fail.original_events,
                fail.shrunk.events.len(),
                fail.divergence,
                fail.shrunk.to_text()
            );
        }
    }

    #[test]
    fn shrinker_minimises_against_a_synthetic_predicate() {
        // Predicate: "fails" iff the trace still contains an exit of
        // process 3 AND an age tick — everything else is noise the
        // shrinker must delete.
        let p = GenParams {
            procs: 5,
            sites: 2,
            events: 60,
        };
        let mut doc = random_doc(7, &p);
        doc.events.push(TraceEvent::Exit { t: 1, process: 3 });
        doc.events.push(TraceEvent::Age { t: 2 });
        let fails = |d: &TraceDoc| {
            d.events
                .iter()
                .any(|e| matches!(e, TraceEvent::Exit { process: 3, .. }))
                && d.events.iter().any(|e| matches!(e, TraceEvent::Age { .. }))
        };
        let shrunk = shrink(&doc, fails);
        assert_eq!(shrunk.events.len(), 2, "exactly the two needed events");
        assert!(fails(&shrunk));
    }

    #[test]
    fn shrinker_rounds_demands_down() {
        let doc = TraceDoc::new(vec![TraceEvent::Begin {
            t: 0,
            process: 0,
            site: 0,
            amount: 123_457,
        }]);
        // Failure only requires *some* begin to be present.
        let shrunk = shrink(&doc, |d| !d.events.is_empty());
        match shrunk.events[0] {
            TraceEvent::Begin { amount, .. } => assert_eq!(amount, 0),
            ref other => panic!("{other:?}"),
        }
    }
}
