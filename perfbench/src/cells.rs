//! The three workloads: their cells, set-up, and single-cell runs.
//!
//! * `paper_grid` — closed system: the 8 paper workloads × {DefaultOnly,
//!   Strict, Compromise} under `SimConfig::paper_default` (paranoid
//!   checks on), the grid behind Figs 7–10.
//! * `overload_scalar` — open system: `TrafficSim::web_default` under
//!   Strict with `exp_overload`'s overload control, all three shed
//!   policies, faults at 0.05, Poisson arrivals at 4k (near the knee)
//!   and 20k req/s (about 3× past it).
//! * `layers_topo` — open system: `TopoTrafficSim::two_tenant` on 2- and
//!   4-node uniform topologies with `exp_layers`' latency-layer
//!   guarantee, all three shed policies, 12k req/s, faults at 0.05.
//!
//! Every cell's stream derives from the root seed and the cell's index
//! with `SplitMix64::derive_stream`, as the repository's sweep runners
//! do, so a cell's digest is a pure function of `(root seed, cell)`.

use rda_core::{
    mb, BreakerConfig, Demand, LayerId, LayerSet, LayerSpec, OverloadConfig, PolicyKind, RdaConfig,
    RdaStats, ShedPolicy, TopoConfig, TopoSpec,
};
use rda_machine::MachineConfig;
use rda_sim::experiment::paper_policies;
use rda_sim::system::{RdaCall, RunResult};
use rda_sim::{
    FaultConfig, SimConfig, SystemSim, TopoCall, TopoClass, TopoTrafficConfig, TopoTrafficSim,
    TrafficConfig, TrafficPlan, TrafficSim,
};
use rda_simcore::SplitMix64;
use rda_workloads::spec::all_workloads;
use rda_workloads::WorkloadSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 24-cell paper grid.
    PaperGrid,
    /// Scalar-engine overload traffic.
    OverloadScalar,
    /// Topology-engine layered traffic.
    LayersTopo,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::OverloadScalar,
        Workload::LayersTopo,
    ];

    /// The workload's name on the command line and in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::OverloadScalar => "overload_scalar",
            Workload::LayersTopo => "layers_topo",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing recorded: what a sweep pays.
    Plain,
    /// The engine's observability layer on: `SimConfig::with_trace` for
    /// the grid, the occupancy trace sink for the topology engine, and
    /// the call log (the only recording the scalar traffic engine has)
    /// for overload traffic.
    Traced,
    /// The replayable call log on (`with_rda_trace` / `record_calls`).
    Recorded,
}

/// What one cell run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The engine's result digest.
    pub digest: u64,
    /// Simulated requests (processes, for the grid) brought to a
    /// terminal state.
    pub lifecycles: u64,
    /// Final extension counters.
    pub rda: RdaStats,
    /// Host ns spent constructing the engine (`SystemSim::new`).
    pub new_ns: u64,
    /// Scalar call log (grid and overload cells in `Recorded` mode).
    pub rda_log: Option<Vec<RdaCall>>,
    /// Topology call log (topology cells in `Recorded` mode).
    pub topo_log: Option<Vec<TopoCall>>,
    /// Digest of the topology engine's final snapshot.
    pub snapshot_digest: u64,
    /// The grid run's full result (energy and performance).
    pub run: Option<RunResult>,
}

/// One grid cell.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Index into [`Cells::specs`].
    pub spec: usize,
    /// Policy under test.
    pub policy: PolicyKind,
    /// Derived jitter seed.
    pub jitter_seed: u64,
}

/// One scalar traffic cell.
#[derive(Debug, Clone)]
pub struct TrafficCell {
    /// Arrival shape.
    pub traffic: TrafficConfig,
    /// Extension configuration (overload control included).
    pub rda: RdaConfig,
    /// Derived run seed.
    pub seed: u64,
}

/// One topology traffic cell.
#[derive(Debug, Clone)]
pub struct TopoCellDef {
    /// Arrival shape.
    pub traffic: TopoTrafficConfig,
    /// Topology, layers and overload control.
    pub topo: TopoConfig,
    /// Derived run seed.
    pub seed: u64,
}

/// A workload's cells, built by [`Cells::setup`].
#[derive(Debug, Clone)]
pub enum CellDefs {
    /// Grid cells.
    Grid(Vec<GridCell>),
    /// Scalar traffic cells.
    Traffic(Vec<TrafficCell>),
    /// Topology traffic cells.
    Topo(Vec<TopoCellDef>),
}

/// Everything a workload's timed passes need, built before timing.
#[derive(Debug, Clone)]
pub struct Cells {
    /// Which workload.
    pub workload: Workload,
    /// The paper workloads (grid only).
    pub specs: Vec<WorkloadSpec>,
    /// The cells.
    pub defs: CellDefs,
    /// Per-cell label, e.g. `Raytrace.DefaultOnly` or `20000rps.degrade`.
    pub labels: Vec<String>,
    /// Lifecycles each cell must account for: process count for the
    /// grid, planned arrivals for traffic.
    pub expected_lifecycles: Vec<u64>,
}

/// Fault rate of both traffic workloads.
const FAULT_RATE: f64 = 0.05;

/// Short policy label used in metric names.
pub fn policy_label(p: PolicyKind) -> &'static str {
    match p {
        PolicyKind::DefaultOnly => "DefaultOnly",
        PolicyKind::Strict => "Strict",
        PolicyKind::Compromise { .. } => "Compromise",
        PolicyKind::Partitioned { .. } => "Partitioned",
    }
}

fn shed_label(p: ShedPolicy) -> &'static str {
    match p {
        ShedPolicy::RejectNewest => "reject_newest",
        ShedPolicy::RejectOldest => "reject_oldest",
        ShedPolicy::DegradeToOverflow => "degrade",
    }
}

const SHED_POLICIES: [ShedPolicy; 3] = [
    ShedPolicy::RejectNewest,
    ShedPolicy::RejectOldest,
    ShedPolicy::DegradeToOverflow,
];

/// `exp_overload`'s and `exp_layers`' overload control.
fn overload_cfg(shed_policy: ShedPolicy) -> OverloadConfig {
    OverloadConfig {
        waitlist_cap: 16,
        shed_policy,
        deadline_cycles: Some(40_000_000), // ~21 ms at 1.9 GHz
        breaker: Some(BreakerConfig {
            high_water: mb(14.0),
            low_water: mb(8.0),
            trip_after: 4,
            recover_after: 4,
            shed_min_demand: mb(1.0),
        }),
    }
}

/// `exp_layers`' topology: `nodes` uniform nodes with the Xeon
/// E5-2420's per-socket LLC/bandwidth/DRAM and a guaranteed latency
/// layer.
fn layered_topo(nodes: usize, shed: ShedPolicy) -> TopoConfig {
    let layers = LayerSet::new(vec![
        LayerSpec::new("batch", PolicyKind::Strict),
        LayerSpec::new("latency", PolicyKind::Strict).with_guarantee(Demand::new(
            4 << 20,
            1_500,
            64 << 20,
        )),
    ]);
    TopoConfig::new(
        TopoSpec::uniform(nodes, 15_360 << 10, 6_000, 1 << 30),
        layers,
    )
    .with_waitlist_timeout_cycles(40_000_000)
    .with_overload(overload_cfg(shed))
}

/// The scalar arrival configuration the topology engine generates its
/// plan from: same pattern and class weights, each class keyed on its
/// first touched resource (as `TopoTrafficConfig` does internally).
pub fn topo_plan_config(t: &TopoTrafficConfig) -> TrafficConfig {
    let primary = |c: &TopoClass| {
        rda_core::ResourceKind::ALL
            .into_iter()
            .map(|k| c.demand.get(k))
            .find(|&a| a > 0)
            .unwrap_or(0)
    };
    TrafficConfig {
        pattern: t.pattern,
        duration_secs: t.duration_secs,
        cycles_per_sec: t.cycles_per_sec,
        demand_classes: t.classes.iter().map(|c| (primary(c), c.weight)).collect(),
        mean_service_cycles: t.mean_service_cycles,
        max_attempts: t.max_attempts,
        backoff_base_cycles: t.backoff_base_cycles,
        age_tick_cycles: t.age_tick_cycles,
        record_calls: false,
    }
}

/// Rebuild the layer assignment a topology run executed under: every
/// request's `Begin` carries its class (site), and the class names the
/// layer.
pub fn assigned_topo(mut cfg: TopoConfig, classes: &[TopoClass], log: &[TopoCall]) -> TopoConfig {
    for call in log {
        if let TopoCall::Begin { process, site, .. } = *call {
            let layer = classes[site.0 as usize].layer;
            if layer != LayerId(0) {
                cfg.layers.assign(process.0, layer);
            }
        }
    }
    cfg
}

impl Cells {
    /// Build a workload's cells for `root_seed`: specs, configs, derived
    /// seeds, and (for traffic) the arrival plans, whose lengths become
    /// the lifecycle counts each run must account for.
    pub fn setup(workload: Workload, root_seed: u64) -> Cells {
        let derive = |i: usize| SplitMix64::derive_stream(root_seed, i as u64);
        let machine = MachineConfig::xeon_e5_2420();
        match workload {
            Workload::PaperGrid => {
                let specs = all_workloads();
                let mut cells = Vec::new();
                let mut labels = Vec::new();
                let mut expected = Vec::new();
                for (s, spec) in specs.iter().enumerate() {
                    for policy in paper_policies() {
                        let i = cells.len();
                        cells.push(GridCell {
                            spec: s,
                            policy,
                            jitter_seed: derive(i),
                        });
                        labels.push(format!("{}.{}", spec.name, policy_label(policy)));
                        expected.push(spec.processes.len() as u64);
                    }
                }
                Cells {
                    workload,
                    specs,
                    defs: CellDefs::Grid(cells),
                    labels,
                    expected_lifecycles: expected,
                }
            }
            Workload::OverloadScalar => {
                let mut cells = Vec::new();
                let mut labels = Vec::new();
                let mut expected = Vec::new();
                for rate in [4_000.0, 20_000.0] {
                    for shed in SHED_POLICIES {
                        let seed = derive(cells.len());
                        let traffic = TrafficConfig::web_default(rate, 0.4);
                        expected.push(TrafficPlan::generate(&traffic, seed).len() as u64);
                        labels.push(format!("{rate:.0}rps.{}", shed_label(shed)));
                        cells.push(TrafficCell {
                            traffic,
                            rda: RdaConfig::for_machine(&machine, PolicyKind::Strict)
                                .with_overload(overload_cfg(shed)),
                            seed,
                        });
                    }
                }
                Cells {
                    workload,
                    specs: Vec::new(),
                    defs: CellDefs::Traffic(cells),
                    labels,
                    expected_lifecycles: expected,
                }
            }
            Workload::LayersTopo => {
                let mut cells = Vec::new();
                let mut labels = Vec::new();
                let mut expected = Vec::new();
                for nodes in [2, 4] {
                    for shed in SHED_POLICIES {
                        let seed = derive(cells.len());
                        let traffic = TopoTrafficConfig::two_tenant(12_000.0, 0.25);
                        let plan = TrafficPlan::generate(&topo_plan_config(&traffic), seed);
                        expected.push(plan.len() as u64);
                        labels.push(format!("{nodes}n.{}", shed_label(shed)));
                        cells.push(TopoCellDef {
                            traffic,
                            topo: layered_topo(nodes, shed),
                            seed,
                        });
                    }
                }
                Cells {
                    workload,
                    specs: Vec::new(),
                    defs: CellDefs::Topo(cells),
                    labels,
                    expected_lifecycles: expected,
                }
            }
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// The grid cell's simulator configuration in `mode`.
    pub fn grid_config(&self, i: usize, mode: Mode) -> SimConfig {
        let CellDefs::Grid(cells) = &self.defs else {
            panic!("not a grid workload");
        };
        let cfg = SimConfig::paper_default(cells[i].policy).with_jitter_seed(cells[i].jitter_seed);
        match mode {
            Mode::Plain => cfg,
            Mode::Traced => cfg.with_trace(),
            Mode::Recorded => cfg.with_rda_trace(),
        }
    }

    /// The extension configuration cell `i` ran its scalar calls under.
    pub fn rda_config(&self, i: usize) -> RdaConfig {
        match &self.defs {
            CellDefs::Grid(_) => {
                let cfg = self.grid_config(i, Mode::Plain);
                RdaConfig::for_machine(&cfg.machine, cfg.policy).with_demand_audit(cfg.demand_audit)
            }
            CellDefs::Traffic(cells) => cells[i].rda.clone(),
            CellDefs::Topo(_) => panic!("topology cells make no scalar calls"),
        }
    }

    /// Run cell `i` once. Panics and simulation errors come back as
    /// `Err` with the message.
    pub fn run(&self, i: usize, mode: Mode) -> Result<Outcome, String> {
        catch_unwind(AssertUnwindSafe(|| self.run_inner(i, mode))).unwrap_or_else(|payload| {
            Err(payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string()))
        })
    }

    fn run_inner(&self, i: usize, mode: Mode) -> Result<Outcome, String> {
        match &self.defs {
            CellDefs::Grid(cells) => {
                let cfg = self.grid_config(i, mode);
                let t0 = std::time::Instant::now();
                let mut sim = SystemSim::new(cfg, &self.specs[cells[i].spec]);
                let new_ns = t0.elapsed().as_nanos() as u64;
                let result = sim.run()?;
                Ok(Outcome {
                    digest: result.digest(),
                    lifecycles: result.finish_secs.len() as u64,
                    rda: result.rda,
                    new_ns,
                    rda_log: (mode == Mode::Recorded).then(|| sim.rda_calls().to_vec()),
                    run: Some(result),
                    ..Outcome::default()
                })
            }
            CellDefs::Traffic(cells) => {
                let c = &cells[i];
                let mut traffic = c.traffic.clone();
                traffic.record_calls = mode != Mode::Plain;
                let r = TrafficSim::new(traffic, c.rda.clone())
                    .with_faults(FaultConfig::uniform(FAULT_RATE))
                    .run(c.seed);
                Ok(Outcome {
                    digest: r.digest(),
                    lifecycles: r.completed + r.failed + r.expired + r.killed + r.stranded,
                    rda: r.rda,
                    rda_log: r.calls,
                    ..Outcome::default()
                })
            }
            CellDefs::Topo(cells) => {
                let c = &cells[i];
                let mut traffic = c.traffic.clone();
                traffic.sample_occupancy = mode == Mode::Traced;
                traffic.record_calls = mode == Mode::Recorded;
                let r = TopoTrafficSim::new(traffic, c.topo.clone())
                    .with_faults(FaultConfig::uniform(FAULT_RATE))
                    .run(c.seed);
                if !r.drained_idle {
                    return Err("topology books did not drain to idle".into());
                }
                Ok(Outcome {
                    digest: r.digest(),
                    lifecycles: r.completed + r.failed + r.expired + r.killed + r.stranded,
                    rda: r.rda,
                    topo_log: r.calls,
                    snapshot_digest: r.final_snapshot_digest,
                    ..Outcome::default()
                })
            }
        }
    }
}
