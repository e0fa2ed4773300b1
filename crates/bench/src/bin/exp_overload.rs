//! Open-system overload sweep: degradation curves under arrival rate ×
//! shedding policy × fault rate (PR 7 robustness experiment; no paper
//! figure).
//!
//! Each cell drives the deterministic traffic engine
//! ([`rda_sim::TrafficSim`]) at a fixed Poisson arrival rate through an
//! RDA extension with overload control enabled — bounded waitlist,
//! per-request deadlines, retry/backoff, saturation breaker — and
//! reports goodput plus p50/p95/p99 end-to-end latency. Fault rates
//! above zero compose a [`rda_sim::FaultPlan`] over the request stream
//! (chaos under load). Every cell's traffic and fault plans derive from
//! its own seed stream, so the printed digest is bit-identical for any
//! `--threads` value — CI pins 1 vs 8 with `--smoke`.
//!
//! ```bash
//! cargo run --release -p rda-bench --bin exp_overload -- --threads 8
//! cargo run --release -p rda-bench --bin exp_overload -- --smoke
//! ```

use rda_bench::cli::{
    overload_cfg, policy_label, sweep_footer, traffic_sweep_args_from_env, SHED_POLICIES,
};
use rda_core::{PolicyKind, RdaConfig, ShedPolicy};
use rda_machine::MachineConfig;
use rda_sim::{run_pool, FaultConfig, TrafficConfig, TrafficResult, TrafficSim};
use rda_simcore::SplitMix64;

/// One point on the degradation curve.
#[derive(Debug, Clone, Copy)]
struct Cell {
    rate_per_sec: f64,
    policy: ShedPolicy,
    fault_rate: f64,
}

fn main() {
    let (opts, smoke) = traffic_sweep_args_from_env("exp_overload");

    // The service mix carries roughly 2 concurrent MB-scale working
    // sets per 1000 req/s; the 15 MB LLC saturates around 6–8k req/s,
    // so the top rates sit at ~3× and ~10× capacity.
    let (rates, fault_rates, duration_secs): (&[f64], &[f64], f64) = if smoke {
        (&[2_000.0, 12_000.0], &[0.0, 0.1], 0.05)
    } else {
        (
            &[1_000.0, 4_000.0, 8_000.0, 20_000.0],
            &[0.0, 0.05, 0.15],
            0.4,
        )
    };
    let policies = SHED_POLICIES;
    let cells: Vec<Cell> = rates
        .iter()
        .flat_map(|&rate_per_sec| {
            policies.iter().flat_map(move |&policy| {
                fault_rates.iter().map(move |&fault_rate| Cell {
                    rate_per_sec,
                    policy,
                    fault_rate,
                })
            })
        })
        .collect();

    let machine = MachineConfig::xeon_e5_2420();
    let run_cell = |index: usize| -> TrafficResult {
        let cell = cells[index];
        let rda = RdaConfig::for_machine(&machine, PolicyKind::Strict)
            .with_overload(overload_cfg(cell.policy));
        let traffic = TrafficConfig::web_default(cell.rate_per_sec, duration_secs);
        let mut sim = TrafficSim::new(traffic, rda);
        if cell.fault_rate > 0.0 {
            sim = sim.with_faults(FaultConfig::uniform(cell.fault_rate));
        }
        sim.run(SplitMix64::derive_stream(opts.root_seed, index as u64))
    };

    // Results come back by grid index, so the digest (and the table)
    // are independent of worker count and completion order.
    let outcomes = run_pool(cells.len(), opts.threads, run_cell);

    println!(
        "Overload sweep — {} arrival rates × {} shed policies × {} fault rates ({}s windows{})",
        rates.len(),
        policies.len(),
        fault_rates.len(),
        duration_secs,
        if smoke { ", smoke" } else { "" }
    );
    println!();
    println!(
        "{:<8} {:<14} {:<6} {:>8} {:>10} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "rate/s",
        "policy",
        "fault",
        "arrivals",
        "goodput/s",
        "shed",
        "expired",
        "retries",
        "p50 ms",
        "p95 ms",
        "p99 ms"
    );
    let to_ms = |cycles: u64| cycles as f64 / machine.freq_hz * 1e3;
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        let rate = format!("{:.0}", cell.rate_per_sec);
        let (policy, fault) = (policy_label(cell.policy), format!("{:.2}", cell.fault_rate));
        match outcome {
            Ok(r) => println!(
                "{:<8} {:<14} {:<6} {:>8} {:>10.0} {:>7} {:>7} {:>7} {:>9.2} {:>9.2} {:>9.2}",
                rate,
                policy,
                fault,
                r.arrivals,
                r.goodput_per_sec,
                r.rda.shed,
                r.expired,
                r.retries,
                to_ms(r.p50()),
                to_ms(r.p95()),
                to_ms(r.p99()),
            ),
            Err(msg) => println!("{rate:<8} {policy:<14} {fault:<6} FAILED: {msg}"),
        }
    }
    let (footer, failed) = sweep_footer(&outcomes, TrafficResult::digest);
    println!();
    println!("{footer}");
    if failed {
        std::process::exit(1);
    }
}
