//! Open-system traffic over a NUMA topology with layered policies.
//!
//! The topology analogue of [`crate::traffic`]: the same deterministic
//! arrival machinery ([`TrafficPlan`] — gap/thin/class/service variates
//! plus pre-drawn backoff jitter, so the schedule is a pure function of
//! `(config, seed)`) and the same event loop, but each demand class
//! carries a full [`Demand`] *vector* and a [`LayerId`], and the
//! requests drive a [`TopoExtension`] instead of the scalar engine.
//! Requests therefore exercise everything the topology engine adds:
//! multi-component audits, deterministic least-loaded placement,
//! per-node waitlists and breakers, and cross-layer capacity
//! guarantees — under overload and composed fault injection.
//!
//! With [`TopoTrafficConfig::record_calls`] set, the exact
//! [`TopoCall`] sequence is retained so `rda-check` can replay the
//! whole run through its topology reference model; with
//! [`TopoTrafficConfig::sample_occupancy`] set, the run installs a
//! [`rda_trace::TraceSink`] and samples **per-node** occupancy counter
//! tracks on every control tick.
//!
//! [`run_topo_cells`] spreads a grid of such runs over the sweep pool
//! ([`crate::runner::run_pool`]) with per-cell derived seeds and
//! grid-order aggregation, so sweep digests are bit-identical at any
//! thread count — the property the integration suite pins serial vs 8
//! threads.

use crate::faults::FaultConfig;
use crate::runner::run_pool;
use crate::traffic::{run_plan, Admission, ArrivalPattern, CallLog, TrafficConfig, TrafficPlan};
use rda_core::{
    AgeOutcome, BeginOutcome, Demand, EndOutcome, LayerId, NodeId, OverloadConfig, PpId, RdaError,
    RdaStats, ResourceKind, SiteId, TopoConfig, TopoExtension,
};
use rda_sched::ProcessId;
use rda_simcore::{Fnv1a64, SimTime, SplitMix64};
use rda_trace::{Log2Hist, OccupancySample, TraceConfig, TraceReport, TraceSink};

/// One demand class of the topology arrival mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopoClass {
    /// The full demand vector a request of this class declares.
    pub demand: Demand,
    /// Relative weight in the class-pick distribution.
    pub weight: f64,
    /// The layer processes of this class are assigned to.
    pub layer: LayerId,
}

/// Everything the topology traffic engine needs besides the
/// [`TopoConfig`].
#[derive(Debug, Clone)]
pub struct TopoTrafficConfig {
    /// The arrival process.
    pub pattern: ArrivalPattern,
    /// Length of the arrival window, simulated seconds.
    pub duration_secs: f64,
    /// Simulated clock frequency (cycles per second).
    pub cycles_per_sec: f64,
    /// Demand classes; the class index doubles as the static call site.
    pub classes: Vec<TopoClass>,
    /// Mean of the exponential service-time distribution, cycles.
    pub mean_service_cycles: f64,
    /// Total tries per request before a shed request fails permanently.
    pub max_attempts: u32,
    /// Base of the exponential retry backoff, cycles.
    pub backoff_base_cycles: u64,
    /// Period of the aging/deadline/breaker tick (`0` disables ticks).
    pub age_tick_cycles: u64,
    /// Retain the exact [`TopoCall`] sequence for differential replay.
    pub record_calls: bool,
    /// Install a trace sink and sample per-node occupancy every tick.
    pub sample_occupancy: bool,
}

impl TopoTrafficConfig {
    /// A two-tenant default: a best-effort batch class on layer 0 and a
    /// smaller latency class on layer 1, both multi-resource.
    pub fn two_tenant(rate_per_sec: f64, duration_secs: f64) -> Self {
        TopoTrafficConfig {
            pattern: ArrivalPattern::Poisson { rate_per_sec },
            duration_secs,
            cycles_per_sec: 1.9e9,
            classes: vec![
                TopoClass {
                    demand: Demand::new(2 << 20, 400, 64 << 20),
                    weight: 0.6,
                    layer: LayerId(0),
                },
                TopoClass {
                    demand: Demand::new(512 << 10, 900, 16 << 20),
                    weight: 0.4,
                    layer: LayerId(1),
                },
            ],
            mean_service_cycles: 3.8e6,
            max_attempts: 3,
            backoff_base_cycles: 1_900_000,
            age_tick_cycles: 950_000,
            record_calls: false,
            sample_occupancy: false,
        }
    }

    /// The scalar configuration the shared plan generator and traffic
    /// loop run on — same pattern, same class weights, same variate
    /// count per candidate, so the schedule is identical to what a
    /// scalar engine with these weights would see.
    fn scalar(&self) -> TrafficConfig {
        TrafficConfig {
            pattern: self.pattern,
            duration_secs: self.duration_secs,
            cycles_per_sec: self.cycles_per_sec,
            demand_classes: self
                .classes
                .iter()
                .map(|c| (primary_of(c.demand).1, c.weight))
                .collect(),
            mean_service_cycles: self.mean_service_cycles,
            max_attempts: self.max_attempts,
            backoff_base_cycles: self.backoff_base_cycles,
            age_tick_cycles: self.age_tick_cycles,
            record_calls: self.record_calls,
        }
    }
}

/// The first touched component of a demand vector (LLC when the vector
/// is empty) — what retry notes and plan amounts are keyed on.
fn primary_of(d: Demand) -> (ResourceKind, u64) {
    for k in ResourceKind::ALL {
        if d.get(k) > 0 {
            return (k, d.get(k));
        }
    }
    (ResourceKind::Llc, 0)
}

/// One call into the topology extension, in execution order — the
/// replayable record `rda-check` turns into a `TopoDoc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoCall {
    /// A `pp_begin` with a full demand vector.
    Begin {
        /// Call time.
        now: SimTime,
        /// Calling process.
        process: ProcessId,
        /// Static call site.
        site: rda_core::SiteId,
        /// Declared (possibly fault-inflated) demand vector.
        demand: Demand,
    },
    /// A `pp_end`.
    End {
        /// Call time.
        now: SimTime,
        /// The period being completed.
        pp: PpId,
    },
    /// A `process_exit`.
    Exit {
        /// Call time.
        now: SimTime,
        /// The dying process.
        process: ProcessId,
    },
    /// An `age_waitlist` control tick.
    Age {
        /// Call time.
        now: SimTime,
    },
    /// A client-side retry note.
    Retry {
        /// Call time.
        now: SimTime,
        /// Retrying process.
        process: ProcessId,
        /// Static call site.
        site: rda_core::SiteId,
        /// Resource kind the retry is attributed to.
        kind: ResourceKind,
    },
}

/// Outcome of one topology traffic run.
#[derive(Debug, Clone)]
pub struct TopoTrafficResult {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests that finished their service.
    pub completed: u64,
    /// Requests shed past their retry budget.
    pub failed: u64,
    /// Requests expired past their deadline while waitlisted.
    pub expired: u64,
    /// Requests whose process was fault-killed holding a period.
    pub killed: u64,
    /// Stuck waiters deterministically reclaimed via `process_exit`.
    pub stranded: u64,
    /// Client-side retries issued.
    pub retries: u64,
    /// Final extension counters.
    pub rda: RdaStats,
    /// End-to-end sojourn of every completed request, cycles.
    pub sojourn: Log2Hist,
    /// Completed requests per simulated second of the arrival window.
    pub goodput_per_sec: f64,
    /// Whether the extension drained to the idle state (all books
    /// exactly zero on every node) after the last terminal event.
    pub drained_idle: bool,
    /// Digest of the drained final snapshot.
    pub final_snapshot_digest: u64,
    /// Exact call sequence (`Some` iff
    /// [`TopoTrafficConfig::record_calls`]).
    pub calls: Option<Vec<TopoCall>>,
    /// The configuration the run executed under, with the per-class
    /// layer assignments applied; replaying `calls` needs it (`Some`
    /// iff [`TopoTrafficConfig::record_calls`]).
    pub config: Option<TopoConfig>,
    /// Per-node trace report (`Some` iff
    /// [`TopoTrafficConfig::sample_occupancy`]).
    pub trace: Option<TraceReport>,
}

impl TopoTrafficResult {
    /// Order-independent FNV digest of everything the run decided.
    /// Equal for the same `(config, seed)` on any machine and any
    /// sweep thread count.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a64::new();
        for v in [
            self.arrivals,
            self.completed,
            self.failed,
            self.expired,
            self.killed,
            self.stranded,
            self.retries,
            self.final_snapshot_digest,
            self.drained_idle as u64,
        ] {
            h.write_u64(v);
        }
        for v in [
            self.rda.begins,
            self.rda.ends,
            self.rda.admitted,
            self.rda.paused,
            self.rda.resumed,
            self.rda.max_waitlist,
            self.rda.oversized_admits,
            self.rda.reclaimed,
            self.rda.clamped,
            self.rda.aged_admissions,
            self.rda.rejected_ends,
            self.rda.shed,
            self.rda.expired,
            self.rda.retried,
            self.rda.breaker_trips,
        ] {
            h.write_u64(v);
        }
        for (upper, n) in self.sojourn.nonzero_buckets() {
            h.write_u64(upper);
            h.write_u64(n);
        }
        h.write_u64(self.sojourn.max());
        h.finish()
    }
}

/// The open-system topology traffic simulation.
#[derive(Debug, Clone)]
pub struct TopoTrafficSim {
    traffic: TopoTrafficConfig,
    topo: TopoConfig,
    faults: Option<FaultConfig>,
}

impl TopoTrafficSim {
    /// A topology traffic run. Per-class layers are applied to the
    /// config's [`rda_core::LayerSet`] per request at run time.
    pub fn new(traffic: TopoTrafficConfig, topo: TopoConfig) -> Self {
        TopoTrafficSim {
            traffic,
            topo,
            faults: None,
        }
    }

    /// Inject faults, expanded into a [`crate::faults::FaultPlan`] with
    /// one phase per request, exactly like the scalar engine.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Execute the run for `seed`. Deterministic in `(config, seed)`.
    pub fn run(&self, seed: u64) -> TopoTrafficResult {
        let traffic = self.traffic.scalar();
        let plan = TrafficPlan::generate(&traffic, seed);
        // Materialise per-class layer membership: request i is process
        // i, so class layers become explicit LayerSet assignments
        // (ascending process ids keep the insert O(1) amortised).
        let mut topo = self.topo.clone();
        for (i, r) in plan.requests.iter().enumerate() {
            let layer = self.traffic.classes[r.site as usize].layer;
            if layer != LayerId(0) {
                topo.layers.assign(i as u32, layer);
            }
        }
        let mut ext = TopoExtension::new(topo);
        if self.traffic.sample_occupancy {
            ext.install_trace(TraceSink::new(TraceConfig::default()));
        }
        let classes: Vec<Demand> = self.traffic.classes.iter().map(|c| c.demand).collect();
        let mut eng = run_plan(&traffic, &plan, &classes, self.faults.as_ref(), seed, ext);
        let snapshot = eng.ext.snapshot();
        TopoTrafficResult {
            arrivals: plan.len() as u64,
            completed: eng.completed,
            failed: eng.failed,
            expired: eng.expired,
            killed: eng.killed,
            stranded: eng.stranded,
            retries: eng.retries,
            rda: eng.ext.stats(),
            sojourn: eng.sojourn,
            goodput_per_sec: eng.completed as f64 / traffic.duration_secs,
            drained_idle: snapshot.is_idle(),
            final_snapshot_digest: snapshot.digest(),
            calls: eng.calls.0,
            config: self.traffic.record_calls.then(|| eng.ext.config().clone()),
            trace: eng.ext.take_trace().map(TraceSink::into_report),
        }
    }
}

impl Admission for TopoExtension {
    type Demand = Demand;
    type Call = TopoCall;

    fn scale(demand: Demand, factor: f64) -> Demand {
        Demand {
            amounts: demand.amounts.map(|a| (a as f64 * factor) as u64),
        }
    }

    fn controls(&self) -> (Option<u64>, Option<&OverloadConfig>) {
        let cfg = self.config();
        (cfg.waitlist_timeout_cycles, cfg.overload.as_ref())
    }

    fn begin(
        &mut self,
        process: ProcessId,
        site: SiteId,
        demand: Demand,
        now: SimTime,
        log: &mut CallLog<TopoCall>,
    ) -> Result<BeginOutcome, RdaError> {
        log.push(TopoCall::Begin {
            now,
            process,
            site,
            demand,
        });
        self.pp_begin(process, site, demand, now)
    }

    fn end(
        &mut self,
        pp: PpId,
        now: SimTime,
        log: &mut CallLog<TopoCall>,
    ) -> Result<EndOutcome, RdaError> {
        log.push(TopoCall::End { now, pp });
        self.pp_end(pp, now)
    }

    fn exit(
        &mut self,
        process: ProcessId,
        now: SimTime,
        log: &mut CallLog<TopoCall>,
    ) -> Vec<(PpId, ProcessId)> {
        log.push(TopoCall::Exit { now, process });
        self.process_exit(process, now)
    }

    fn age(&mut self, now: SimTime, log_idle: bool, log: &mut CallLog<TopoCall>) -> AgeOutcome {
        let out = self.age_waitlist(now);
        if log_idle || !out.resumed.is_empty() {
            log.push(TopoCall::Age { now });
        }
        out
    }

    fn retry(
        &mut self,
        process: ProcessId,
        site: SiteId,
        demand: Demand,
        now: SimTime,
        log: &mut CallLog<TopoCall>,
    ) {
        let (kind, _) = primary_of(demand);
        log.push(TopoCall::Retry {
            now,
            process,
            site,
            kind,
        });
        self.note_retry(process, site, kind, now);
    }

    /// With a trace sink installed, sample every node's occupancy.
    fn tick(&mut self, now: SimTime, in_flight: usize) {
        if self.trace().is_none() {
            return;
        }
        for n in 0..self.node_count() {
            let node = NodeId(n as u32);
            let sample = OccupancySample {
                t_cycles: now.cycles(),
                node: n as u32,
                usage: self.usage(node, ResourceKind::Llc),
                overflow: self.overflow_usage(node, ResourceKind::Llc),
                waitlisted: self.waitlist_len(node) as u32,
                busy_cores: in_flight as u32,
            };
            if let Some(sink) = self.trace_mut() {
                sink.record_occupancy(sample);
            }
        }
    }

    fn check(&self) -> Result<(), RdaError> {
        self.check_invariants()
    }
}

/// One cell of a topology sweep grid.
#[derive(Debug, Clone)]
pub struct TopoCell {
    /// Cell label (figure category).
    pub label: String,
    /// The arrival configuration.
    pub traffic: TopoTrafficConfig,
    /// The machine topology and layer set.
    pub topo: TopoConfig,
    /// Optional fault injection.
    pub faults: Option<FaultConfig>,
}

/// One executed topology sweep cell, in grid order.
#[derive(Debug, Clone)]
pub struct TopoCellRecord {
    /// Grid index (stable across thread counts).
    pub index: usize,
    /// Cell label.
    pub label: String,
    /// The derived seed this cell ran with.
    pub seed: u64,
    /// The run outcome (`Err` holds a panic message).
    pub result: Result<TopoTrafficResult, String>,
}

/// Execute a grid of topology traffic cells across `threads` pool
/// workers (`0` = all cores). Each cell's seed is derived from
/// `root_seed` and its grid index; records come back in grid order, so
/// the fold below — and [`topo_sweep_digest`] — is a pure function of
/// `(cells, root_seed)` regardless of thread count.
pub fn run_topo_cells(cells: &[TopoCell], threads: usize, root_seed: u64) -> Vec<TopoCellRecord> {
    let seed = |i: usize| SplitMix64::derive_stream(root_seed, i as u64);
    let results = run_pool(cells.len(), threads, |i| {
        let cell = &cells[i];
        let mut sim = TopoTrafficSim::new(cell.traffic.clone(), cell.topo.clone());
        if let Some(fc) = cell.faults {
            sim = sim.with_faults(fc);
        }
        sim.run(seed(i))
    });
    cells
        .iter()
        .zip(results)
        .enumerate()
        .map(|(i, (cell, result))| TopoCellRecord {
            index: i,
            label: cell.label.clone(),
            seed: seed(i),
            result,
        })
        .collect()
}

/// Fold a topology sweep into one digest (grid order, so equal digests
/// ⇔ behaviourally identical sweeps on any thread count).
pub fn topo_sweep_digest(records: &[TopoCellRecord]) -> u64 {
    let mut h = Fnv1a64::new();
    for r in records {
        h.write_usize(r.index);
        match &r.result {
            Ok(res) => h.write_u64(res.digest()),
            Err(msg) => h.write_str(msg),
        };
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{
        BreakerConfig, LayerSet, LayerSpec, OverloadConfig, PolicyKind, ShedPolicy, TopoSpec,
    };

    fn two_node_cfg() -> TopoConfig {
        let layers = LayerSet::new(vec![
            LayerSpec::new("batch", PolicyKind::Strict),
            LayerSpec::new("latency", PolicyKind::Strict)
                .with_guarantee(Demand::new(4 << 20, 1000, 64 << 20)),
        ]);
        TopoConfig::new(
            TopoSpec::uniform(2, 15_360 << 10, 6_000, 1 << 30),
            layers,
        )
        .with_waitlist_timeout_cycles(40_000_000)
    }

    fn overload() -> OverloadConfig {
        OverloadConfig {
            waitlist_cap: 16,
            shed_policy: ShedPolicy::RejectNewest,
            deadline_cycles: Some(40_000_000),
            breaker: Some(BreakerConfig {
                high_water: 14 << 20,
                low_water: 8 << 20,
                trip_after: 4,
                recover_after: 4,
                shed_min_demand: 1 << 20,
            }),
        }
    }

    #[test]
    fn underload_completes_and_drains_to_zero() {
        let sim = TopoTrafficSim::new(
            TopoTrafficConfig::two_tenant(300.0, 0.5),
            two_node_cfg().with_overload(overload()),
        );
        let r = sim.run(11);
        assert!(r.arrivals > 0);
        assert_eq!(r.completed, r.arrivals, "underload must not shed: {r:?}");
        assert!(r.drained_idle, "books must return to zero after drain");
    }

    #[test]
    fn overload_with_faults_is_deterministic_and_sheds() {
        let mut traffic = TopoTrafficConfig::two_tenant(20_000.0, 0.05);
        traffic.record_calls = true;
        let sim = TopoTrafficSim::new(traffic, two_node_cfg().with_overload(overload()))
            .with_faults(FaultConfig::uniform(0.1));
        let a = sim.run(5);
        let b = sim.run(5);
        assert_eq!(a.digest(), b.digest());
        assert!(a.rda.shed > 0, "overload must shed: {a:?}");
        assert!(a.drained_idle, "books must drain even under faults");
        // Pinned: the shared traffic loop driven through the topology
        // engine under overload control and faults.
        assert_eq!(a.digest(), 0x190a_9467_0ec4_7723);
        assert_eq!(a.final_snapshot_digest, 0x6f61_0953_4980_6acd);
        assert_eq!(a.arrivals, 1_064);
        assert_eq!(a.calls.as_ref().map(Vec::len), Some(5_185));
    }

    #[test]
    fn occupancy_sampling_emits_per_node_tracks() {
        let mut traffic = TopoTrafficConfig::two_tenant(2_000.0, 0.1);
        traffic.sample_occupancy = true;
        let r = TopoTrafficSim::new(traffic, two_node_cfg().with_overload(overload())).run(3);
        let trace = r.trace.as_ref().expect("sampling installs a sink");
        let nodes: std::collections::BTreeSet<u32> =
            trace.occupancy.iter().map(|s| s.node).collect();
        assert_eq!(nodes.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(trace.occupancy.len(), 434);
        assert_eq!(r.digest(), 0xc262_e050_a748_53ba);
    }

    #[test]
    fn sweep_digest_is_thread_invariant() {
        let cells: Vec<TopoCell> = (0..6)
            .map(|i| TopoCell {
                label: format!("cell{i}"),
                traffic: TopoTrafficConfig::two_tenant(4_000.0 + 1_000.0 * i as f64, 0.05),
                topo: two_node_cfg().with_overload(overload()),
                faults: (i % 2 == 0).then(|| FaultConfig::uniform(0.05)),
            })
            .collect();
        let serial = topo_sweep_digest(&run_topo_cells(&cells, 1, 7));
        let parallel = topo_sweep_digest(&run_topo_cells(&cells, 8, 7));
        assert_eq!(serial, parallel, "sweep must be a pure function of (cells, seed)");
    }
}
