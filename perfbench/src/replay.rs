//! Replays of recorded call logs through the public API of the two
//! admission engines, `RdaExtension` and `TopoExtension`.
//!
//! A replay issues exactly the recorded calls, in order, against a fresh
//! engine built from the cell's configuration, so its final counters
//! must equal the recorded run's — the benchmark checks that on every
//! run. Timing a replay therefore times the engine alone, without the
//! simulator around it.

use rda_core::{RdaConfig, RdaExtension, RdaStats, TopoConfig, TopoExtension};
use rda_sim::system::RdaCall;
use rda_sim::TopoCall;
use rda_trace::{TraceConfig, TraceSink};
use std::time::Instant;

/// The scalar engine's calls, in metric order.
pub const RDA_CALLS: [&str; 6] = [
    "pp_begin",
    "pp_end",
    "process_exit",
    "age_waitlist",
    "note_retry",
    "check_invariants",
];

/// The topology engine's calls, in metric order.
pub const TOPO_CALLS: [&str; 5] = [
    "pp_begin",
    "pp_end",
    "process_exit",
    "age_waitlist",
    "note_retry",
];

const CHECK: usize = 5;

/// When a replay calls `check_invariants`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checks {
    /// As `SystemSim::run` with its paranoid flag: at the end of every
    /// simulated instant whose calls moved `books_epoch`, and once at
    /// the end of the run.
    Paranoid,
    /// As the traffic engines: once, at the end of the run.
    AtEnd,
}

/// Per-call-kind counts and host time of one or more timed replays.
#[derive(Debug, Clone, Default)]
pub struct CallTimes {
    /// Calls per kind.
    pub calls: [u64; 6],
    /// Summed host ns per kind, timer overhead included.
    pub ns: [f64; 6],
}

impl CallTimes {
    fn add(&mut self, kind: usize, started: Instant) {
        self.calls[kind] += 1;
        self.ns[kind] += started.elapsed().as_nanos() as f64;
    }

    /// Fold another set of times into this one.
    pub fn merge(&mut self, other: &CallTimes) {
        for k in 0..6 {
            self.calls[k] += other.calls[k];
            self.ns[k] += other.ns[k];
        }
    }

    /// Mean ns per call of `kind`, less the timer's own cost; NaN when
    /// the kind was never called.
    pub fn ns_per_call(&self, kind: usize, timer_ns: f64) -> f64 {
        if self.calls[kind] == 0 {
            return f64::NAN;
        }
        self.ns[kind] / self.calls[kind] as f64 - timer_ns
    }

    /// All calls.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// Mean host ns one `Instant::now()`…`elapsed()` pair adds to a timed
/// interval, measured back to back with nothing between.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let mut total = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        total += std::hint::black_box(t).elapsed().as_nanos();
    }
    total as f64 / N as f64
}

/// Time `$e` into `$times` under `$kind` when timing is on.
macro_rules! timed {
    ($times:expr, $kind:expr, $e:expr) => {
        match $times.as_deref_mut() {
            Some(t) => {
                let started = Instant::now();
                let out = $e;
                t.add($kind, started);
                out
            }
            None => $e,
        }
    };
}

fn rda_call_now(c: &RdaCall) -> u64 {
    match *c {
        RdaCall::Begin { now, .. }
        | RdaCall::End { now, .. }
        | RdaCall::Exit { now, .. }
        | RdaCall::Age { now }
        | RdaCall::Retry { now, .. } => now.cycles(),
    }
}

/// Result of one replay.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The engine's final counters.
    pub stats: RdaStats,
    /// Digest of the final snapshot (topology engine only).
    pub snapshot_digest: u64,
}

/// Replay a scalar call log. With `times`, every call is timed
/// individually; with `sink`, a default-capacity trace sink is
/// installed first.
pub fn replay_rda(
    cfg: &RdaConfig,
    log: &[RdaCall],
    checks: Checks,
    sink: bool,
    mut times: Option<&mut CallTimes>,
) -> Result<Replayed, String> {
    let mut ext = RdaExtension::new(cfg.clone());
    if sink {
        ext.install_trace(TraceSink::new(TraceConfig::default()));
    }
    let mut checked_epoch = u64::MAX;
    for (i, call) in log.iter().enumerate() {
        match *call {
            RdaCall::Begin {
                now,
                process,
                site,
                demand,
            } => {
                let _ = timed!(times, 0, ext.pp_begin(process, site, demand, now));
            }
            RdaCall::End { now, pp } => {
                let _ = timed!(times, 1, ext.pp_end(pp, now));
            }
            RdaCall::Exit { now, process } => {
                timed!(times, 2, ext.process_exit(process, now));
            }
            RdaCall::Age { now } => {
                timed!(times, 3, ext.age_waitlist(now));
            }
            RdaCall::Retry {
                now,
                process,
                site,
                resource,
            } => timed!(times, 4, ext.note_retry(process, site, resource, now)),
        }
        let instant_ends = log
            .get(i + 1)
            .is_none_or(|next| rda_call_now(next) != rda_call_now(call));
        if checks == Checks::Paranoid && instant_ends && ext.books_epoch() != checked_epoch {
            timed!(times, CHECK, ext.check_invariants()).map_err(|e| format!("invariant: {e}"))?;
            checked_epoch = ext.books_epoch();
        }
    }
    timed!(times, CHECK, ext.check_invariants()).map_err(|e| format!("invariant: {e}"))?;
    Ok(Replayed {
        stats: ext.stats(),
        snapshot_digest: 0,
    })
}

/// Replay a topology call log through a fresh `TopoExtension` built
/// from `cfg` (layer assignments already applied).
pub fn replay_topo(
    cfg: &TopoConfig,
    log: &[TopoCall],
    sink: bool,
    mut times: Option<&mut CallTimes>,
) -> Result<Replayed, String> {
    let mut ext = TopoExtension::new(cfg.clone());
    if sink {
        ext.install_trace(TraceSink::new(TraceConfig::default()));
    }
    for call in log {
        match *call {
            TopoCall::Begin {
                now,
                process,
                site,
                demand,
            } => {
                let _ = timed!(times, 0, ext.pp_begin(process, site, demand, now));
            }
            TopoCall::End { now, pp } => {
                let _ = timed!(times, 1, ext.pp_end(pp, now));
            }
            TopoCall::Exit { now, process } => {
                timed!(times, 2, ext.process_exit(process, now));
            }
            TopoCall::Age { now } => {
                timed!(times, 3, ext.age_waitlist(now));
            }
            TopoCall::Retry {
                now,
                process,
                site,
                kind,
            } => timed!(times, 4, ext.note_retry(process, site, kind, now)),
        }
    }
    ext.check_invariants()
        .map_err(|e| format!("invariant: {e}"))?;
    Ok(Replayed {
        stats: ext.stats(),
        snapshot_digest: ext.snapshot().digest(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{assigned_topo, CellDefs, Cells, Mode, Workload};
    use rda_sim::runner::DEFAULT_ROOT_SEED;
    use rda_sim::{SimConfig, SystemSim};
    use rda_workloads::spec::water_nsq;

    #[test]
    fn water_nsq_strict_replays_to_the_recorded_stats() {
        let cfg = SimConfig::paper_default(rda_core::PolicyKind::Strict).with_rda_trace();
        let rda_cfg =
            RdaConfig::for_machine(&cfg.machine, cfg.policy).with_demand_audit(cfg.demand_audit);
        let mut sim = SystemSim::new(cfg, &water_nsq());
        let recorded = sim.run().expect("cell runs");
        let log = sim.rda_calls().to_vec();
        assert!(!log.is_empty());
        let mut times = CallTimes::default();
        let replayed = replay_rda(&rda_cfg, &log, Checks::Paranoid, false, Some(&mut times))
            .expect("replay keeps the invariants");
        assert_eq!(replayed.stats, recorded.rda);
        assert_eq!(times.calls[0], recorded.rda.begins);
        assert!(times.calls[CHECK] > 0);
        let traced = replay_rda(&rda_cfg, &log, Checks::Paranoid, true, None).expect("replay");
        assert_eq!(
            traced.stats, recorded.rda,
            "a sink must not change decisions"
        );
    }

    /// A short cell of each traffic engine replays to its recorded
    /// counters (and, for the topology engine, its final snapshot).
    #[test]
    fn short_traffic_cells_replay_to_the_recorded_stats() {
        let mut overload = Cells::setup(Workload::OverloadScalar, DEFAULT_ROOT_SEED);
        let CellDefs::Traffic(cells) = &mut overload.defs else {
            unreachable!()
        };
        cells[3].traffic.duration_secs = 0.05;
        let out = overload.run(3, Mode::Recorded).expect("cell runs");
        let log = out.rda_log.expect("recorded");
        let r =
            replay_rda(&overload.rda_config(3), &log, Checks::AtEnd, false, None).expect("replay");
        assert_eq!(r.stats, out.rda);
        assert!(r.stats.shed > 0, "the 20k req/s cell must overload");

        let mut topo = Cells::setup(Workload::LayersTopo, DEFAULT_ROOT_SEED);
        let CellDefs::Topo(cells) = &mut topo.defs else {
            unreachable!()
        };
        cells[0].traffic.duration_secs = 0.05;
        let def = cells[0].clone();
        let out = topo.run(0, Mode::Recorded).expect("cell runs");
        let log = out.topo_log.expect("recorded");
        let cfg = assigned_topo(def.topo, &def.traffic.classes, &log);
        let r = replay_topo(&cfg, &log, false, None).expect("replay");
        assert_eq!(r.stats, out.rda);
        assert_eq!(r.snapshot_digest, out.snapshot_digest);
    }
}
