//! Layered-topology sweep: goodput and shedding under NUMA node count ×
//! layer guarantee × shed policy (PR 8 tentpole experiment; no paper
//! figure — the paper's machine is one node, one resource).
//!
//! Each cell drives the deterministic topology traffic engine
//! ([`rda_sim::TopoTrafficSim`]) — a two-tenant request mix whose
//! demand *vectors* span LLC, memory bandwidth, and DRAM capacity —
//! through a [`rda_core::TopoExtension`] with per-node waitlists,
//! deadlines, and breakers. The grid varies the machine topology
//! (1/2/4 uniform NUMA nodes), whether the latency layer holds a
//! capacity guarantee, and the shed policy. Every cell's plans derive
//! from its own seed stream, so the printed digest is bit-identical for
//! any `--threads` value — CI pins 1 vs 8 with `--smoke`.
//!
//! ```bash
//! cargo run --release -p rda-bench --bin exp_layers -- --threads 8
//! cargo run --release -p rda-bench --bin exp_layers -- --smoke
//! ```

use rda_bench::cli::{overload_cfg, policy_label, traffic_sweep_args_from_env, SHED_POLICIES};
use rda_core::{Demand, LayerSet, LayerSpec, PolicyKind, TopoConfig, TopoSpec};
use rda_sim::{run_topo_cells, topo_sweep_digest, FaultConfig, TopoCell, TopoTrafficConfig};

/// One simulated box: `nodes` uniform NUMA nodes, each with the Xeon
/// E5-2420's per-socket LLC/bandwidth/DRAM share.
fn topo(nodes: usize, guarantee: bool) -> TopoConfig {
    let latency = if guarantee {
        LayerSpec::new("latency", PolicyKind::Strict)
            .with_guarantee(Demand::new(4 << 20, 1_500, 64 << 20))
    } else {
        LayerSpec::new("latency", PolicyKind::Strict)
    };
    let layers = LayerSet::new(vec![LayerSpec::new("batch", PolicyKind::Strict), latency]);
    TopoConfig::new(
        TopoSpec::uniform(nodes, 15_360 << 10, 6_000, 1 << 30),
        layers,
    )
    .with_waitlist_timeout_cycles(40_000_000)
}

fn main() {
    let (opts, smoke) = traffic_sweep_args_from_env("exp_layers");

    // The two-tenant mix saturates one node's LLC around 6-8k req/s;
    // the chosen rates sit near and well past that knee so layer
    // guarantees and placement have something to decide.
    let (node_counts, rates, fault_rate, duration_secs): (&[usize], &[f64], f64, f64) = if smoke {
        (&[1, 2], &[9_000.0], 0.05, 0.04)
    } else {
        (&[1, 2, 4], &[4_000.0, 12_000.0], 0.05, 0.25)
    };
    let policies = SHED_POLICIES;

    let mut cells = Vec::new();
    for &nodes in node_counts {
        for guarantee in [false, true] {
            for &policy in &policies {
                for &rate in rates {
                    cells.push(TopoCell {
                        label: format!(
                            "{nodes}n/{}/{}/{:.0}rps",
                            if guarantee { "guar" } else { "free" },
                            policy_label(policy),
                            rate
                        ),
                        traffic: TopoTrafficConfig::two_tenant(rate, duration_secs),
                        topo: topo(nodes, guarantee).with_overload(overload_cfg(policy)),
                        faults: (fault_rate > 0.0).then(|| FaultConfig::uniform(fault_rate)),
                    });
                }
            }
        }
    }

    let records = run_topo_cells(&cells, opts.threads, opts.root_seed);

    println!(
        "Layered topology sweep — {} node counts × guarantee on/off × {} shed policies × {} rates ({}s windows{})",
        node_counts.len(),
        policies.len(),
        rates.len(),
        duration_secs,
        if smoke { ", smoke" } else { "" }
    );
    println!();
    println!(
        "{:<28} {:>8} {:>10} {:>7} {:>7} {:>7} {:>8} {:>7}",
        "cell", "arrivals", "goodput/s", "shed", "expired", "retries", "stranded", "drained"
    );
    for rec in &records {
        match &rec.result {
            Ok(r) => println!(
                "{:<28} {:>8} {:>10.0} {:>7} {:>7} {:>7} {:>8} {:>7}",
                rec.label,
                r.arrivals,
                r.goodput_per_sec,
                r.rda.shed,
                r.expired,
                r.retries,
                r.stranded,
                if r.drained_idle { "yes" } else { "NO" },
            ),
            Err(msg) => println!("{:<28} FAILED: {msg}", rec.label),
        }
    }
    println!();
    println!("sweep digest: {:#018x}", topo_sweep_digest(&records));
    if records.iter().any(|r| r.result.is_err()) {
        std::process::exit(1);
    }
}
