//! CI entry point for the bounded model checker.
//!
//! Exhaustively explores every interleaving of the built-in scenario
//! templates — the scalar ones under both gating policies, the topology
//! ones under every shed policy — printing the covered volume (distinct
//! states, pruned transitions, completed interleavings) per run. Exits
//! non-zero — printing the replayable counterexample trace — on the
//! first divergence between `rda-core` and a reference model.

use rda_check::{explore, explore_topo, Exploration, Template, TopoDoc, TopoMutation, TraceDoc};
use rda_core::{DemandAudit, PolicyKind, RdaConfig, ShedPolicy};
use std::fmt::Display;
use std::time::{Duration, Instant};

/// Small capacity keeps the state space rich (every admission class is
/// reachable) while the aggressive timeout/interval exercise aging and
/// fast-path freshness within a few hundred virtual cycles.
const LLC_CAPACITY: u64 = 16_000;

fn check_cfg(policy: PolicyKind) -> RdaConfig {
    let mut cfg = rda_check::trace::default_config();
    cfg.policy = policy;
    cfg.llc_capacity = LLC_CAPACITY;
    cfg.demand_audit = DemandAudit::Clamp;
    cfg.waitlist_timeout_cycles = Some(1_200);
    cfg.min_eval_interval_cycles = 1_000;
    cfg
}

/// Print one space's covered volume and, on a divergence, its
/// replayable counterexample. Returns whether the space diverged.
fn report<Doc, Div: Display>(
    name: &str,
    label: &str,
    ex: Exploration<Doc, Div>,
    elapsed: Duration,
    to_text: fn(&Doc) -> String,
) -> bool {
    println!(
        "{name:<26} {label:<16} states={:<8} pruned={:<8} interleavings={:<8} {elapsed:>8.2?}",
        ex.states, ex.pruned, ex.completed
    );
    let Some((trace, div)) = ex.divergence else {
        return false;
    };
    eprintln!("\nDIVERGENCE in {name} under {label}:\n  {div}");
    eprintln!(
        "--- replayable counterexample trace ---\n{}",
        to_text(&trace)
    );
    true
}

fn main() {
    let policies = [PolicyKind::Strict, PolicyKind::compromise_default()];
    let templates = [
        Template::three_process_contention(LLC_CAPACITY),
        Template::faulty_ops(LLC_CAPACITY),
        Template::oversized_pair(LLC_CAPACITY),
    ];
    let mut topo = vec![("strict layers".to_string(), Template::two_node_two_layer())];
    for shed in [
        ShedPolicy::RejectNewest,
        ShedPolicy::RejectOldest,
        ShedPolicy::DegradeToOverflow,
    ] {
        topo.push((format!("{shed:?}"), Template::two_node_overload(shed)));
    }

    let mut failed = false;
    let wall = Instant::now();
    for policy in policies {
        let cfg = check_cfg(policy);
        for tpl in &templates {
            let started = Instant::now();
            let ex = explore(&cfg, tpl);
            let label = policy.to_string();
            failed |= report(&tpl.name, &label, ex, started.elapsed(), TraceDoc::to_text);
        }
    }
    for (label, (cfg, tpl)) in &topo {
        let started = Instant::now();
        let ex = explore_topo(cfg, tpl, TopoMutation::None);
        failed |= report(&tpl.name, label, ex, started.elapsed(), TopoDoc::to_text);
    }
    println!("total: {:.2?}", wall.elapsed());
    if failed {
        eprintln!("model check FAILED: implementation and reference model disagree");
        std::process::exit(1);
    }
    println!("model check passed: zero divergences across the bounded space");
}
