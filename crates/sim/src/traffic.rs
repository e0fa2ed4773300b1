//! Deterministic open-system traffic engine, over either admission
//! engine.
//!
//! The paper's experiments are *closed*: a fixed set of processes runs
//! to completion. Real services are *open*: requests arrive on their
//! own clock, each one a short-lived process that begins a progress
//! period, does its work, and exits — and when arrivals outpace
//! capacity the scheduler must shed load rather than queue without
//! bound. This module generates that arrival stream and drives the RDA
//! extension's overload controls (`rda_core::OverloadConfig`) with it:
//!
//! * [`TrafficPlan::generate`] pre-expands a Poisson
//!   [`ArrivalPattern`] into a concrete request schedule from a
//!   dedicated, salted RNG stream ([`TRAFFIC_STREAM`]). Every candidate
//!   arrival consumes a **fixed number of variates** (arrival gap,
//!   an unused accept draw, demand class, service time, and one backoff
//!   jitter per allowed attempt), so the stream position is a pure
//!   function of the configuration — the plan, and therefore the whole
//!   run, is bit-identical regardless of threading or call order,
//!   exactly like [`crate::faults::FaultPlan`]. The jitter of every
//!   request sits in one flat array.
//! * [`TrafficSim::run`] replays the plan through a discrete-event
//!   loop generic over the admission engine: admitted requests
//!   complete after their service time, paused ones wait (bounded by
//!   the overload gate), shed or breaker-rejected ones retry with
//!   exponential backoff and pre-drawn jitter, expired ones fail their
//!   deadline permanently. The loop holds only in-flight state:
//!   arrivals stream from the plan in order, and its event queue holds
//!   only completions, retries and the control tick.
//!   Fault injection composes: a [`crate::faults::FaultConfig`] is
//!   expanded into a [`crate::faults::FaultPlan`] with one phase per
//!   request, so requests can lie about demand, leak or double their
//!   `pp_end`, or die holding periods — chaos *under* overload, which
//!   is where control planes actually break.
//! * [`TopoTrafficSim::run`] drives the same plan and the same loop
//!   through a [`TopoExtension`]: each demand class carries a full
//!   [`Demand`] *vector* and a [`LayerId`], so requests exercise
//!   multi-component audits, least-loaded placement, per-node
//!   waitlists and breakers, and cross-layer capacity guarantees. With
//!   [`TopoTrafficConfig::sample_occupancy`] set, the run installs a
//!   [`TraceSink`] and samples **per-node** occupancy on every control
//!   tick.
//! * [`TrafficResult`] and [`TopoTrafficResult`] carry goodput, a
//!   log-2 sojourn histogram (p50/p95/p99 end-to-end latency including
//!   queueing and retries), every [`rda_core::RdaStats`] counter, and
//!   an FNV digest for cross-thread-count equality checks. With
//!   `record_calls` set, the exact call sequence ([`RdaCall`] or
//!   [`TopoCall`]) is retained for differential replay against the
//!   `rda-check` reference model.
//!
//! A sweep of either kind runs its cells on [`crate::runner::run_pool`]
//! with per-cell derived seeds and folds them in grid order with
//! [`crate::runner::sweep_digest`], so its digest is bit-identical at
//! any thread count.
//!
//! The engine cannot hang: with deadlines or aging configured every
//! waiter eventually expires or is force-admitted, and without them
//! any waiter that can never be unstuck (capacity held by leaked
//! periods, no completions outstanding) is deterministically stranded
//! via `process_exit` once the event queue drains.

use std::collections::BTreeMap;

use crate::faults::{FaultConfig, FaultPlan};
use crate::system::RdaCall;
use rda_core::{
    mb, AgeOutcome, BeginOutcome, Demand, EndOutcome, LayerId, NodeId, OverloadConfig, PpDemand,
    PpId, RdaConfig, RdaError, RdaExtension, RdaStats, ResourceKind, SiteId, TopoConfig,
    TopoExtension,
};
use rda_machine::ReuseLevel;
use rda_sched::ProcessId;
use rda_simcore::{EventQueue, Fnv1a64, SimTime, SplitMix64};
use rda_trace::{Log2Hist, OccupancySample, TraceConfig, TraceReport, TraceSink};

/// Stream salt separating the traffic RNG from the timeslice-jitter
/// and fault-plan streams derived from the same root seed.
pub const TRAFFIC_STREAM: u64 = 0x7AF1_C000_0000_0001;

/// The arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Memoryless arrivals at a constant mean rate.
    Poisson {
        /// Mean arrivals per simulated second.
        rate_per_sec: f64,
    },
}

/// Everything the traffic engine needs besides the scheduler
/// configuration.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// The arrival process.
    pub pattern: ArrivalPattern,
    /// Length of the arrival window, simulated seconds (requests still
    /// in flight at the end are drained to completion).
    pub duration_secs: f64,
    /// Simulated clock frequency (cycles per second).
    pub cycles_per_sec: f64,
    /// Demand classes as `(working-set bytes, relative weight)`; the
    /// class index doubles as the request's static call site.
    pub demand_classes: Vec<(u64, f64)>,
    /// Mean of the exponential service-time distribution, cycles.
    pub mean_service_cycles: f64,
    /// Total tries per request (first attempt plus retries) before a
    /// shed request fails permanently.
    pub max_attempts: u32,
    /// Base of the exponential backoff: retry `k` waits
    /// `base · 2^k` plus a pre-drawn jitter below `base`.
    pub backoff_base_cycles: u64,
    /// Period of the aging/deadline/breaker tick (`0` disables ticks;
    /// only sensible when no overload control is configured).
    pub age_tick_cycles: u64,
    /// Retain the exact [`RdaCall`] sequence for differential replay.
    pub record_calls: bool,
}

impl TrafficConfig {
    /// A web-service-shaped default: mostly small requests with a
    /// heavy tail, ~2 ms mean service time at 1.9 GHz, three attempts
    /// with ~1 ms backoff, and a 0.5 ms control tick.
    pub fn web_default(rate_per_sec: f64, duration_secs: f64) -> Self {
        TrafficConfig {
            pattern: ArrivalPattern::Poisson { rate_per_sec },
            duration_secs,
            cycles_per_sec: 1.9e9,
            demand_classes: vec![(mb(0.25), 0.70), (mb(2.0), 0.25), (mb(8.0), 0.05)],
            mean_service_cycles: 3.8e6,
            max_attempts: 3,
            backoff_base_cycles: 1_900_000,
            age_tick_cycles: 950_000,
            record_calls: false,
        }
    }
}

/// One pre-drawn request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Arrival time, cycles from run start.
    pub arrival: u64,
    /// Demand-class index, doubling as the static call site.
    pub site: u32,
    /// Service time once admitted, cycles.
    pub service: u64,
}

/// A fully expanded, deterministic arrival schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrafficPlan {
    /// Requests in arrival order.
    pub requests: Vec<Request>,
    /// Pre-drawn backoff jitter, `max_attempts` per request,
    /// request-major.
    jitter: Vec<u64>,
    /// [`TrafficConfig::max_attempts`] of the generating configuration.
    max_attempts: usize,
}

impl TrafficPlan {
    /// Expand `cfg` into a concrete schedule, deterministic in
    /// `(seed, cfg)`. Every candidate consumes the same number of
    /// variates.
    pub fn generate(cfg: &TrafficConfig, seed: u64) -> Self {
        let mut rng = SplitMix64::new(SplitMix64::derive_stream(seed, TRAFFIC_STREAM));
        let ArrivalPattern::Poisson { rate_per_sec: rate } = cfg.pattern;
        assert!(
            rate > 0.0 && rate.is_finite(),
            "arrival rate must be positive"
        );
        assert!(
            !cfg.demand_classes.is_empty(),
            "need at least one demand class"
        );
        let total_weight: f64 = cfg.demand_classes.iter().map(|&(_, w)| w).sum();
        let jitter_bound = cfg.backoff_base_cycles.max(1);
        let mut requests = Vec::new();
        let mut jitter = Vec::new();
        let mut t_secs = 0.0_f64;
        loop {
            // Fixed draw count per candidate: gap, accept, class,
            // service, then one jitter per allowed attempt. The accept
            // variate goes unused but keeps its slot: every pinned plan
            // and digest depends on where each draw falls in the stream.
            // The jitter is drawn into the flat array and dropped again
            // if the window closes before the candidate.
            let gap_u = rng.next_f64();
            let _accept_u = rng.next_f64();
            let class_u = rng.next_f64();
            let service_u = rng.next_f64();
            let drawn = jitter.len();
            jitter.extend((0..cfg.max_attempts).map(|_| rng.next_below(jitter_bound)));
            t_secs += -(1.0 - gap_u).ln() / rate;
            if t_secs >= cfg.duration_secs {
                jitter.truncate(drawn);
                break;
            }
            let mut pick = class_u * total_weight;
            let mut site = cfg.demand_classes.len() - 1;
            for (i, &(_, w)) in cfg.demand_classes.iter().enumerate() {
                if pick < w {
                    site = i;
                    break;
                }
                pick -= w;
            }
            let service = (-(1.0 - service_u).ln() * cfg.mean_service_cycles).ceil() as u64;
            requests.push(Request {
                arrival: (t_secs * cfg.cycles_per_sec) as u64,
                site: site as u32,
                service: service.max(1),
            });
        }
        TrafficPlan {
            requests,
            jitter,
            max_attempts: cfg.max_attempts as usize,
        }
    }

    /// Number of scheduled requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The backoff jitter of request `req`'s retry after attempt
    /// `attempt`.
    fn jitter(&self, req: usize, attempt: u32) -> u64 {
        self.jitter[req * self.max_attempts + attempt as usize]
    }
}

/// Outcome of one traffic run.
#[derive(Debug, Clone)]
pub struct TrafficResult {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests that finished their service (goodput numerator);
    /// includes degraded-overflow admissions and leaked-end work.
    pub completed: u64,
    /// Requests shed past their retry budget or refused by the demand
    /// auditor.
    pub failed: u64,
    /// Requests expired past their deadline while waitlisted.
    pub expired: u64,
    /// Requests whose process was fault-killed holding a period.
    pub killed: u64,
    /// Waiters that could never be unstuck (capacity leaked away with
    /// no deadline or aging configured) and were deterministically
    /// reclaimed via `process_exit`.
    pub stranded: u64,
    /// Client-side retries issued.
    pub retries: u64,
    /// Final extension counters.
    pub rda: RdaStats,
    /// End-to-end sojourn (arrival to completion, cycles) of every
    /// completed request — queueing, backoff, and service included.
    pub sojourn: Log2Hist,
    /// Completed requests per simulated second of the arrival window.
    pub goodput_per_sec: f64,
    /// Exact call sequence (`Some` iff [`TrafficConfig::record_calls`]).
    pub calls: Option<Vec<RdaCall>>,
}

impl TrafficResult {
    /// Median sojourn, cycles.
    pub fn p50(&self) -> u64 {
        self.sojourn.quantile(0.50)
    }

    /// 95th-percentile sojourn, cycles.
    pub fn p95(&self) -> u64 {
        self.sojourn.quantile(0.95)
    }

    /// 99th-percentile sojourn, cycles.
    pub fn p99(&self) -> u64 {
        self.sojourn.quantile(0.99)
    }

    /// Order-independent FNV digest of everything the run decided:
    /// request accounting, every extension counter, and the full
    /// sojourn distribution. Two runs of the same configuration must
    /// produce the same digest on any thread count.
    pub fn digest(&self) -> u64 {
        let requests = [
            self.arrivals,
            self.completed,
            self.failed,
            self.expired,
            self.killed,
            self.stranded,
            self.retries,
        ];
        run_digest(&requests, &self.rda, &self.sojourn)
    }
}

/// The fold both result digests share: `head` (request accounting,
/// then any engine-specific words), every extension counter, and the
/// full sojourn distribution.
fn run_digest(head: &[u64], rda: &RdaStats, sojourn: &Log2Hist) -> u64 {
    let mut h = Fnv1a64::new();
    for &v in head {
        h.write_u64(v);
    }
    for v in [
        rda.begins,
        rda.ends,
        rda.admitted,
        rda.paused,
        rda.resumed,
        rda.max_waitlist,
        rda.oversized_admits,
        rda.reclaimed,
        rda.clamped,
        rda.aged_admissions,
        rda.rejected_ends,
        rda.shed,
        rda.expired,
        rda.retried,
        rda.breaker_trips,
    ] {
        h.write_u64(v);
    }
    for (upper, n) in sojourn.nonzero_buckets() {
        h.write_u64(upper);
        h.write_u64(n);
    }
    h.write_u64(sojourn.max());
    h.finish()
}

/// The open-system traffic simulation: an arrival plan driven through
/// one [`RdaExtension`].
#[derive(Debug, Clone)]
pub struct TrafficSim {
    traffic: TrafficConfig,
    rda: RdaConfig,
    faults: Option<FaultConfig>,
}

impl TrafficSim {
    /// A traffic run over the given arrival shape and scheduler
    /// configuration (put overload control in
    /// [`RdaConfig::with_overload`]).
    pub fn new(traffic: TrafficConfig, rda: RdaConfig) -> Self {
        TrafficSim {
            traffic,
            rda,
            faults: None,
        }
    }

    /// Inject faults per the given configuration, expanded into a
    /// [`FaultPlan`] with one phase per request.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Execute the run for `seed`. Deterministic: the same
    /// `(config, seed)` produces the same [`TrafficResult::digest`] on
    /// any machine and any sweep thread count.
    pub fn run(&self, seed: u64) -> TrafficResult {
        let plan = TrafficPlan::generate(&self.traffic, seed);
        let classes: Vec<PpDemand> = self
            .traffic
            .demand_classes
            .iter()
            .map(|&(bytes, _)| PpDemand::llc(bytes, ReuseLevel::High))
            .collect();
        let ext = RdaExtension::new(self.rda.clone());
        let eng = run_plan(
            &self.traffic,
            &plan,
            &classes,
            self.faults.as_ref(),
            seed,
            ext,
        );
        TrafficResult {
            arrivals: plan.len() as u64,
            completed: eng.completed,
            failed: eng.failed,
            expired: eng.expired,
            killed: eng.killed,
            stranded: eng.stranded,
            retries: eng.retries,
            rda: eng.ext.stats(),
            sojourn: eng.sojourn,
            goodput_per_sec: eng.completed as f64 / self.traffic.duration_secs,
            calls: eng.calls.0,
        }
    }
}

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

    /// The scalar configuration the plan generator and the traffic loop
    /// run on — same pattern, same class weights, same variate count
    /// per candidate, so the schedule is identical to what a scalar
    /// engine with these weights would see.
    fn scalar(&self) -> TrafficConfig {
        TrafficConfig {
            pattern: self.pattern,
            duration_secs: self.duration_secs,
            cycles_per_sec: self.cycles_per_sec,
            demand_classes: self
                .classes
                .iter()
                .map(|c| (c.demand.primary().1, c.weight))
                .collect(),
            mean_service_cycles: self.mean_service_cycles,
            max_attempts: self.max_attempts,
            backoff_base_cycles: self.backoff_base_cycles,
            age_tick_cycles: self.age_tick_cycles,
            record_calls: self.record_calls,
        }
    }
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
        site: SiteId,
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
        site: SiteId,
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
    /// [`TrafficResult::digest`]'s fold, with the two snapshot words
    /// (`final_snapshot_digest`, `drained_idle`) after `retries`.
    /// Equal for the same `(config, seed)` on any machine and any
    /// sweep thread count.
    pub fn digest(&self) -> u64 {
        let head = [
            self.arrivals,
            self.completed,
            self.failed,
            self.expired,
            self.killed,
            self.stranded,
            self.retries,
            self.final_snapshot_digest,
            self.drained_idle as u64,
        ];
        run_digest(&head, &self.rda, &self.sojourn)
    }
}

/// The open-system traffic simulation over a [`TopoExtension`].
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

    /// Inject faults, expanded into a [`FaultPlan`] with one phase per
    /// request, exactly like the scalar engine.
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

/// What the traffic loop needs from an admission engine: only what
/// differs between [`RdaExtension`] and [`TopoExtension`]. Each call
/// that the replayable log must hold records itself in the given
/// [`CallLog`]; `SystemSim` makes its scalar calls through it too.
pub(crate) trait Admission {
    /// One request's declared demand.
    type Demand: Copy;
    /// One replayable call record.
    type Call;

    /// `demand` as declared by a client lying by `factor`.
    fn scale(demand: Self::Demand, factor: f64) -> Self::Demand;

    /// The aging timeout and overload control the engine runs with.
    fn controls(&self) -> (Option<u64>, Option<&OverloadConfig>);

    /// `pp_begin`.
    fn begin(
        &mut self,
        process: ProcessId,
        site: SiteId,
        demand: Self::Demand,
        now: SimTime,
        log: &mut CallLog<Self::Call>,
    ) -> Result<BeginOutcome, RdaError>;

    /// `pp_end`.
    fn end(
        &mut self,
        pp: PpId,
        now: SimTime,
        log: &mut CallLog<Self::Call>,
    ) -> Result<EndOutcome, RdaError>;

    /// `process_exit`: the periods it woke.
    fn exit(
        &mut self,
        process: ProcessId,
        now: SimTime,
        log: &mut CallLog<Self::Call>,
    ) -> Vec<(PpId, ProcessId)>;

    /// `age_waitlist`, logged when `log_idle` is set or the tick
    /// admitted something.
    fn age(&mut self, now: SimTime, log_idle: bool, log: &mut CallLog<Self::Call>) -> AgeOutcome;

    /// `note_retry` for a request whose class declares `demand`.
    fn retry(
        &mut self,
        process: ProcessId,
        site: SiteId,
        demand: Self::Demand,
        now: SimTime,
        log: &mut CallLog<Self::Call>,
    );

    /// Runs first on every control tick, with the number of requests
    /// in service: admitted, their completion still queued.
    fn tick(&mut self, _now: SimTime, _in_service: usize) {}

    /// `check_invariants`.
    fn check(&self) -> Result<(), RdaError>;
}

impl Admission for RdaExtension {
    type Demand = PpDemand;
    type Call = RdaCall;

    fn scale(demand: PpDemand, factor: f64) -> PpDemand {
        PpDemand {
            amount: (demand.amount as f64 * factor) as u64,
            ..demand
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
        demand: PpDemand,
        now: SimTime,
        log: &mut CallLog<RdaCall>,
    ) -> Result<BeginOutcome, RdaError> {
        log.push(RdaCall::Begin {
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
        log: &mut CallLog<RdaCall>,
    ) -> Result<EndOutcome, RdaError> {
        log.push(RdaCall::End { now, pp });
        self.pp_end(pp, now)
    }

    fn exit(
        &mut self,
        process: ProcessId,
        now: SimTime,
        log: &mut CallLog<RdaCall>,
    ) -> Vec<(PpId, ProcessId)> {
        log.push(RdaCall::Exit { now, process });
        self.process_exit(process, now)
    }

    fn age(&mut self, now: SimTime, log_idle: bool, log: &mut CallLog<RdaCall>) -> AgeOutcome {
        let out = self.age_waitlist(now);
        if log_idle || !out.resumed.is_empty() {
            log.push(RdaCall::Age { now });
        }
        out
    }

    fn retry(
        &mut self,
        process: ProcessId,
        site: SiteId,
        _demand: PpDemand,
        now: SimTime,
        log: &mut CallLog<RdaCall>,
    ) {
        // A scalar demand is an LLC demand.
        let resource = ResourceKind::Llc;
        log.push(RdaCall::Retry {
            now,
            process,
            site,
            resource,
        });
        self.note_retry(process, site, resource, now);
    }

    fn check(&self) -> Result<(), RdaError> {
        self.check_invariants()
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
        let (kind, _) = demand.primary();
        log.push(TopoCall::Retry {
            now,
            process,
            site,
            kind,
        });
        self.note_retry(process, site, kind, now);
    }

    /// With a trace sink installed, sample every node's occupancy.
    fn tick(&mut self, now: SimTime, in_service: usize) {
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
                busy_cores: in_service as u32,
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

/// The replayable call log, kept only when recording is on
/// ([`TrafficConfig::record_calls`], [`TopoTrafficConfig::record_calls`]
/// or [`crate::SimConfig::record_rda_calls`]).
pub(crate) struct CallLog<C>(pub(crate) Option<Vec<C>>);

impl<C> CallLog<C> {
    pub(crate) fn push(&mut self, call: C) {
        if let Some(calls) = &mut self.0 {
            calls.push(call);
        }
    }
}

#[derive(Debug)]
enum Ev {
    /// First attempt of a request (streamed from the plan, never
    /// queued).
    Arrival { req: usize },
    /// A backed-off re-attempt, `attempt` counting from 0 at arrival.
    Retry { req: usize, attempt: u32 },
    /// An admitted request finishing its service (`pp` is `None` for
    /// untracked fallbacks, e.g. auditor-refused demands).
    Complete { req: usize, pp: Option<PpId> },
    /// The aging/deadline/breaker control tick.
    Tick,
}

/// The open-system event loop, over either admission engine.
pub(crate) struct Engine<'a, E: Admission> {
    cfg: &'a TrafficConfig,
    plan: &'a TrafficPlan,
    /// Honest declared demand per class (a request's site).
    classes: &'a [E::Demand],
    faults: FaultPlan,
    pub(crate) ext: E,
    /// The next request to arrive.
    next_arrival: usize,
    /// Queued completions, retries and the control tick;
    /// `EventQueue`'s strict `(time, insertion)` order makes pops — and
    /// therefore the whole run — deterministic even among simultaneous
    /// events.
    queue: EventQueue<Ev>,
    /// Waitlisted requests and their attempt index by period id; a
    /// `BTreeMap` so stranding order is deterministic.
    waiting: BTreeMap<u64, (usize, u32)>,
    /// Requests yet to arrive plus non-tick events still queued (ticks
    /// self-cancel when this hits zero and nothing waits).
    pending: usize,
    /// Requests in service: queued completions.
    in_service: usize,
    now: SimTime,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) expired: u64,
    pub(crate) killed: u64,
    pub(crate) stranded: u64,
    pub(crate) retries: u64,
    pub(crate) sojourn: Log2Hist,
    pub(crate) calls: CallLog<E::Call>,
}

/// Replay `plan` through `ext` until every request has reached exactly
/// one terminal state, with faults drawn from `faults` for `seed`.
/// `classes[site]` is the honest demand of each class. Both traffic
/// engines run this one loop.
pub(crate) fn run_plan<'a, E: Admission>(
    cfg: &'a TrafficConfig,
    plan: &'a TrafficPlan,
    classes: &'a [E::Demand],
    faults: Option<&FaultConfig>,
    seed: u64,
    ext: E,
) -> Engine<'a, E> {
    let faults = match faults {
        Some(fc) => FaultPlan::generate(std::iter::repeat_n(1, plan.len()), fc, seed),
        None => FaultPlan::none(),
    };
    let mut eng = Engine {
        cfg,
        plan,
        classes,
        faults,
        ext,
        next_arrival: 0,
        queue: EventQueue::new(),
        waiting: BTreeMap::new(),
        pending: plan.len(),
        in_service: 0,
        now: SimTime::ZERO,
        completed: 0,
        failed: 0,
        expired: 0,
        killed: 0,
        stranded: 0,
        retries: 0,
        sojourn: Log2Hist::new(),
        calls: CallLog(cfg.record_calls.then(Vec::new)),
    };
    if cfg.age_tick_cycles > 0 {
        eng.push(cfg.age_tick_cycles, Ev::Tick);
    }
    eng.drive();
    eng.ext
        .check()
        .expect("traffic run left the extension inconsistent");
    debug_assert_eq!(
        eng.completed + eng.failed + eng.expired + eng.killed + eng.stranded,
        plan.len() as u64,
        "every request must reach exactly one terminal state"
    );
    eng
}

fn pid(req: usize) -> ProcessId {
    ProcessId(req as u32)
}

impl<E: Admission> Engine<'_, E> {
    fn push(&mut self, t: u64, ev: Ev) {
        if !matches!(ev, Ev::Tick) {
            self.pending += 1;
        }
        if matches!(ev, Ev::Complete { .. }) {
            self.in_service += 1;
        }
        self.queue.push(SimTime::from_cycles(t), ev);
    }

    /// The next event: the next planned arrival when it is due no later
    /// than the earliest queued event, else that queued event. On a tie
    /// the arrival goes first, as if the whole plan had been queued
    /// before anything else: the queue breaks ties by insertion order.
    fn next_event(&mut self) -> Option<(SimTime, Ev)> {
        let req = self.next_arrival;
        if let Some(r) = self.plan.requests.get(req) {
            let due = SimTime::from_cycles(r.arrival);
            if self.queue.peek_time().is_none_or(|t| due <= t) {
                self.next_arrival += 1;
                return Some((due, Ev::Arrival { req }));
            }
        }
        self.queue.pop().map(|e| (e.time, e.payload))
    }

    fn drive(&mut self) {
        // A tick can only unstick a waiter when something ages it out
        // (force-admit) or expires it (deadline); without either, a
        // waitlist with no completions in flight is permanently stuck.
        let (timeout, overload) = self.ext.controls();
        let can_unstick =
            timeout.is_some() || overload.is_some_and(|o| o.deadline_cycles.is_some());
        let overload_on = overload.is_some();
        loop {
            while let Some((time, ev)) = self.next_event() {
                self.now = time;
                match ev {
                    Ev::Arrival { req } => {
                        self.pending -= 1;
                        self.attempt(req, 0);
                    }
                    Ev::Retry { req, attempt } => {
                        self.pending -= 1;
                        let site = self.plan.requests[req].site;
                        let demand = self.classes[site as usize];
                        let log = &mut self.calls;
                        self.ext
                            .retry(pid(req), SiteId(site), demand, self.now, log);
                        self.retries += 1;
                        self.attempt(req, attempt);
                    }
                    Ev::Complete { req, pp } => {
                        self.pending -= 1;
                        self.in_service -= 1;
                        self.complete(req, pp);
                    }
                    Ev::Tick => {
                        self.ext.tick(self.now, self.in_service);
                        // Under overload control every tick advances
                        // breaker hysteresis, so every tick must be in
                        // the replayable call log; otherwise only ticks
                        // that admitted something are observable.
                        let out = self.ext.age(self.now, overload_on, &mut self.calls);
                        for (pp, _) in out.resumed {
                            self.wake(pp);
                        }
                        for (pp, _) in out.expired {
                            self.waiting
                                .remove(&pp.0)
                                .expect("expired period not waitlisted");
                            // A missed deadline is an end-to-end SLO
                            // failure: no retry.
                            self.expired += 1;
                        }
                        if self.pending > 0 || (!self.waiting.is_empty() && can_unstick) {
                            self.push(time.cycles() + self.cfg.age_tick_cycles, Ev::Tick);
                        }
                    }
                }
            }
            if self.waiting.is_empty() {
                break;
            }
            // Queue drained with waiters left: nothing can ever unstick
            // them. Reclaim deterministically (ascending period id).
            let stuck: Vec<(u64, usize)> = self
                .waiting
                .iter()
                .map(|(&k, &(req, _))| (k, req))
                .collect();
            for (ppid, req) in stuck {
                if self.waiting.remove(&ppid).is_none() {
                    continue; // resumed by an earlier reclaim this round
                }
                self.stranded += 1;
                self.exit(req);
            }
        }
    }

    /// Admission try number `attempt` (0 for the first arrival), with
    /// the request's fault-adjusted demand.
    fn attempt(&mut self, req: usize, attempt: u32) {
        let r = &self.plan.requests[req];
        let (site, done) = (SiteId(r.site), self.now.cycles().saturating_add(r.service));
        let base = self.classes[r.site as usize];
        let factor = self.faults.phase(req, 0).demand_factor;
        let demand = if factor == 1.0 {
            base
        } else {
            E::scale(base, factor)
        };
        let out = self
            .ext
            .begin(pid(req), site, demand, self.now, &mut self.calls);
        match out {
            Ok(BeginOutcome::Run { pp, .. }) => self.push(done, Ev::Complete { req, pp: Some(pp) }),
            Ok(BeginOutcome::Pause { pp, shed }) => {
                if let Some(victim) = shed {
                    // RejectOldest evicted the longest waiter to make
                    // room; its period is already completed.
                    let (vreq, vattempt) = self
                        .waiting
                        .remove(&victim.0)
                        .expect("shed victim not waitlisted");
                    self.retry_or_fail(vreq, vattempt);
                }
                if self.faults.kill_at(req) == Some(0) {
                    // Fault-killed while waitlisted: the process dies
                    // holding its queued period; exit reclaims it.
                    self.killed += 1;
                    self.exit(req);
                } else {
                    self.waiting.insert(pp.0, (req, attempt));
                }
            }
            // Shed by the overload gate or the breaker.
            Err(RdaError::WaitlistFull { .. } | RdaError::BreakerOpen { .. }) => {
                self.retry_or_fail(req, attempt)
            }
            // Untracked: the policy bypasses admission, or the auditor
            // refused the demand (per the API contract the caller then
            // falls back to untracked scheduling), so the request
            // still completes.
            Ok(BeginOutcome::Bypass) | Err(_) => self.push(done, Ev::Complete { req, pp: None }),
        }
    }

    /// `process_exit` for a request's process, waking whatever its
    /// periods freed.
    fn exit(&mut self, req: usize) {
        for (woken, _) in self.ext.exit(pid(req), self.now, &mut self.calls) {
            self.wake(woken);
        }
    }

    /// Schedule the service completion of a just-admitted waiter.
    fn wake(&mut self, pp: PpId) {
        let (req, _) = self
            .waiting
            .remove(&pp.0)
            .expect("resumed period not waitlisted");
        let t = self
            .now
            .cycles()
            .saturating_add(self.plan.requests[req].service);
        self.push(t, Ev::Complete { req, pp: Some(pp) });
    }

    /// Retry a request shed at attempt `a` with exponential backoff, or
    /// fail it once its attempt budget is spent.
    fn retry_or_fail(&mut self, req: usize, a: u32) {
        if a + 1 < self.cfg.max_attempts {
            let backoff = self
                .cfg
                .backoff_base_cycles
                .saturating_mul(1u64.checked_shl(a).unwrap_or(u64::MAX));
            let jitter = self.plan.jitter(req, a);
            let t = self
                .now
                .cycles()
                .saturating_add(backoff)
                .saturating_add(jitter);
            self.push(
                t,
                Ev::Retry {
                    req,
                    attempt: a + 1,
                },
            );
        } else {
            self.failed += 1;
        }
    }

    /// A request finished its service.
    fn complete(&mut self, req: usize, pp: Option<PpId>) {
        let sojourn = self
            .now
            .cycles()
            .saturating_sub(self.plan.requests[req].arrival);
        if let Some(pp) = pp {
            if self.faults.kill_at(req) == Some(0) {
                // Died at phase completion holding the open period.
                self.killed += 1;
                self.exit(req);
                return;
            }
            let fault = self.faults.phase(req, 0);
            if fault.leak_end {
                // The work finished but `pp_end` never came; process
                // exit reclaims the leaked period.
                self.exit(req);
            } else {
                let out = self
                    .ext
                    .end(pp, self.now, &mut self.calls)
                    .expect("first pp_end of a running period cannot fail");
                for (woken, _) in out.resumed {
                    self.wake(woken);
                }
                if fault.double_end {
                    let second = self.ext.end(pp, self.now, &mut self.calls);
                    debug_assert!(
                        matches!(second, Err(RdaError::DoubleEnd(_))),
                        "second pp_end must be rejected as a double end"
                    );
                }
            }
        }
        self.completed += 1;
        self.sojourn.record(sojourn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::{BreakerConfig, OverloadConfig, PolicyKind, ShedPolicy};
    use rda_machine::MachineConfig;

    fn rda_cfg() -> RdaConfig {
        RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), PolicyKind::Strict)
    }

    fn overload_cfg() -> OverloadConfig {
        OverloadConfig {
            waitlist_cap: 16,
            shed_policy: ShedPolicy::RejectNewest,
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

    #[test]
    fn plan_generation_is_deterministic() {
        let cfg = TrafficConfig::web_default(800.0, 0.5);
        let a = TrafficPlan::generate(&cfg, 7);
        let b = TrafficPlan::generate(&cfg, 7);
        assert_eq!(a, b);
        assert_ne!(a, TrafficPlan::generate(&cfg, 8));
        assert!(!a.is_empty());
        // Arrivals are ordered and inside the window.
        let horizon = (cfg.duration_secs * cfg.cycles_per_sec) as u64;
        let mut prev = 0;
        for r in &a.requests {
            assert!(r.arrival >= prev && r.arrival < horizon);
            assert!(r.service >= 1);
            prev = r.arrival;
        }
        assert_eq!(a.jitter.len(), a.len() * cfg.max_attempts as usize);
    }

    #[test]
    fn plan_sustains_service_scale() {
        // The engine's design point: ~1e5 request lifecycles per
        // simulated hour at a modest 30 req/s.
        let cfg = TrafficConfig::web_default(30.0, 3600.0);
        let plan = TrafficPlan::generate(&cfg, 1);
        assert!(
            plan.len() > 100_000,
            "expected >1e5 requests/hour, got {}",
            plan.len()
        );
    }

    #[test]
    fn underload_completes_every_request() {
        let sim = TrafficSim::new(
            TrafficConfig::web_default(300.0, 0.5),
            rda_cfg().with_overload(overload_cfg()),
        );
        let r = sim.run(11);
        assert!(r.arrivals > 0);
        assert_eq!(r.completed, r.arrivals, "underload must not shed: {r:?}");
        assert_eq!(r.failed + r.expired + r.killed + r.stranded, 0);
        assert!(r.p50() > 0 && r.p99() >= r.p50());
        assert!(r.goodput_per_sec > 0.0);
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let sim = TrafficSim::new(
            TrafficConfig::web_default(4_000.0, 0.25),
            rda_cfg().with_overload(overload_cfg()),
        )
        .with_faults(FaultConfig::uniform(0.05));
        assert_eq!(sim.run(42).digest(), sim.run(42).digest());
        assert_ne!(sim.run(42).digest(), sim.run(43).digest());
    }

    #[test]
    fn sustained_overload_with_faults_never_panics_and_sheds() {
        // ~10× the capacity the service-time/demand mix can carry,
        // with every fault class active: the engine must terminate,
        // keep the extension consistent (checked inside run), and
        // account for every request.
        let mut traffic = TrafficConfig::web_default(20_000.0, 0.1);
        traffic.record_calls = true;
        let sim = TrafficSim::new(traffic, rda_cfg().with_overload(overload_cfg()))
            .with_faults(FaultConfig::uniform(0.1));
        let r = sim.run(5);
        assert!(r.arrivals > 1_000, "arrivals {}", r.arrivals);
        assert!(r.rda.shed > 0, "10x overload must shed: {r:?}");
        assert!(r.retries > 0, "sheds must drive retries");
        assert!(r.completed > 0, "overload control must preserve goodput");
        // Pinned: the shed, deadline, breaker and fault paths of the
        // shared traffic loop, driven through the scalar engine.
        assert_eq!(r.digest(), 0x1199_6ba0_26bb_9ea4);
        assert_eq!(r.arrivals, 2_080);
        assert_eq!(r.calls.as_ref().map(Vec::len), Some(6_637));
    }

    #[test]
    fn overload_without_control_still_terminates() {
        // No overload config, no aging, faults leaking periods: the
        // stranding path must reclaim stuck waiters deterministically.
        let sim = TrafficSim::new(TrafficConfig::web_default(8_000.0, 0.05), rda_cfg())
            .with_faults(FaultConfig::uniform(0.3));
        let a = sim.run(9);
        let b = sim.run(9);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(
            a.completed + a.failed + a.expired + a.killed + a.stranded,
            a.arrivals
        );
    }

    #[test]
    fn shed_policies_change_who_loses() {
        let mut base = overload_cfg();
        base.waitlist_cap = 4;
        base.breaker = None;
        let traffic = TrafficConfig::web_default(12_000.0, 0.05);
        let mut digests = Vec::new();
        for policy in [
            ShedPolicy::RejectNewest,
            ShedPolicy::RejectOldest,
            ShedPolicy::DegradeToOverflow,
        ] {
            let mut o = base;
            o.shed_policy = policy;
            let r = TrafficSim::new(traffic.clone(), rda_cfg().with_overload(o)).run(2);
            assert!(r.rda.shed > 0, "{policy:?} never shed");
            digests.push(r.digest());
        }
        digests.dedup();
        assert_eq!(digests.len(), 3, "policies must be observably different");
    }

    #[test]
    fn same_tick_arrivals_keep_their_digests() {
        // A plan dense enough that many requests share an arrival
        // cycle, run without overload control so nothing but the
        // predicate decides who waits. Pinned: the run order of
        // same-tick arrivals is part of the admission contract.
        let traffic = TrafficConfig::web_default(5e8, 4e-6);
        let plan = TrafficPlan::generate(&traffic, 7);
        let same_tick = plan
            .requests
            .windows(2)
            .filter(|w| w[0].arrival == w[1].arrival)
            .count();
        assert_eq!((plan.len(), same_tick), (2_106, 280));
        let sim = TrafficSim::new(traffic, rda_cfg());
        assert_eq!(sim.run(7).digest(), 0xb797_2df8_35a2_19df);
        let faulty = sim.with_faults(FaultConfig::uniform(0.05));
        assert_eq!(faulty.run(7).digest(), 0x3c89_e1b8_83c4_b1fe);
    }

    #[test]
    fn an_arrival_goes_before_the_completion_and_tick_of_its_cycle() {
        // Request 0 runs from cycle 0 to 1 000; request 1 arrives at
        // cycle 1 000, when the first control tick fires too. Both
        // declare 8 MB, which do not fit the 15 MB LLC together.
        let mut cfg = TrafficConfig::web_default(1.0, 1e-3);
        cfg.demand_classes = vec![(mb(8.0), 1.0)];
        cfg.age_tick_cycles = 1_000;
        cfg.record_calls = true;
        let request = |arrival, service| Request {
            arrival,
            site: 0,
            service,
        };
        let plan = TrafficPlan {
            requests: vec![request(0, 1_000), request(1_000, 500)],
            jitter: vec![0; 2 * cfg.max_attempts as usize],
            max_attempts: cfg.max_attempts as usize,
        };
        let demand = PpDemand::llc(mb(8.0), ReuseLevel::High);
        let classes = [demand];
        let ext = RdaExtension::new(rda_cfg().with_overload(overload_cfg()));
        let eng = run_plan(&cfg, &plan, &classes, None, 0, ext);
        // Pinned: the arrival begins (and waits) before the same
        // cycle's tick ages the waitlist and request 0's end wakes it.
        let begin = |t, p| RdaCall::Begin {
            now: SimTime::from_cycles(t),
            process: ProcessId(p),
            site: SiteId(0),
            demand,
        };
        let end = |t, pp| RdaCall::End {
            now: SimTime::from_cycles(t),
            pp: PpId(pp),
        };
        let age = |t| RdaCall::Age {
            now: SimTime::from_cycles(t),
        };
        assert_eq!(
            eng.calls.0,
            Some(vec![
                begin(0, 0),
                begin(1_000, 1),
                age(1_000),
                end(1_000, 0),
                end(1_500, 1),
                age(2_000),
            ])
        );
        assert_eq!(eng.completed, 2);
    }

    /// The loop driven through the topology engine.
    mod topo {
        use super::*;
        use crate::runner::{run_pool, sweep_digest};
        use rda_core::{
            BreakerConfig, LayerSet, LayerSpec, OverloadConfig, PolicyKind, ShedPolicy, TopoSpec,
        };

        fn two_node_cfg() -> TopoConfig {
            let layers = LayerSet::new(vec![
                LayerSpec::new("batch", PolicyKind::Strict),
                LayerSpec::new("latency", PolicyKind::Strict).with_guarantee(Demand::new(
                    4 << 20,
                    1000,
                    64 << 20,
                )),
            ]);
            TopoConfig::new(TopoSpec::uniform(2, 15_360 << 10, 6_000, 1 << 30), layers)
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
            // The busy track counts requests in service, never the plan's
            // arrivals still to come.
            let busiest = trace.occupancy.iter().map(|s| s.busy_cores).max();
            assert!(
                busiest.is_some_and(|b| 4 * u64::from(b) < r.arrivals),
                "{busiest:?}"
            );
            assert_eq!(trace.occupancy.len(), 434);
            assert_eq!(r.digest(), 0xc262_e050_a748_53ba);
        }

        #[test]
        fn sweep_digest_is_thread_invariant() {
            // Six cells, each on its own derived seed, folded in grid
            // order: the digest must not see the worker count.
            let sweep = |threads| {
                let cells = run_pool(6, threads, |i| {
                    let traffic = TopoTrafficConfig::two_tenant(4_000.0 + 1_000.0 * i as f64, 0.05);
                    let mut sim =
                        TopoTrafficSim::new(traffic, two_node_cfg().with_overload(overload()));
                    if i % 2 == 0 {
                        sim = sim.with_faults(FaultConfig::uniform(0.05));
                    }
                    sim.run(SplitMix64::derive_stream(7, i as u64)).digest()
                });
                sweep_digest(cells.into_iter().enumerate())
            };
            assert_eq!(
                sweep(1),
                sweep(8),
                "sweep must be a pure function of (cells, seed)"
            );
        }
    }
}
