//! The full-system discrete-event simulation.
//!
//! [`SystemSim`] advances a workload through piecewise-constant-rate
//! intervals: whenever the set of co-running threads changes (a phase
//! completes, a timeslice expires, a process is paused or resumed), the
//! machine model re-solves every running thread's instruction rate —
//! LLC shares from the *distinct processes currently on-CPU*, DRAM
//! queueing from their aggregate miss traffic — and the simulation
//! jumps to the next event. Energy is integrated per interval with the
//! RAPL-style model.
//!
//! Progress-period begin/end costs and context-switch cache-refill
//! penalties are charged to threads as pending *overhead cycles*,
//! executed before their phase work — this is where Figure 11's
//! tracking overhead and Figure 1's reload effect live.

use crate::config::SimConfig;
use crate::faults::FaultPlan;
use crate::traffic::{Admission, CallLog};
use rda_core::{BeginOutcome, PpDemand, RdaConfig, RdaExtension, RdaStats};
use rda_machine::{EnergyModel, PerfModel};
use rda_metrics::{EnergyBreakdown, Measurement, PerfCounters};
use rda_sched::{CfsScheduler, ProcessId, SchedConfig, SchedStats, TaskId};
use rda_simcore::{SimDuration, SimTime, SplitMix64};
use rda_workloads::{ProcessProgram, WorkloadSpec};

/// Result of one simulated workload execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Counters, energy, and wall-clock of the run.
    pub measurement: Measurement,
    /// RDA extension activity.
    pub rda: RdaStats,
    /// Scheduler activity.
    pub sched: SchedStats,
    /// Per-process completion times (seconds).
    pub finish_secs: Vec<f64>,
    /// Frozen observability trace (`None` unless [`SimConfig::trace`]
    /// was set). Deliberately **excluded from [`Self::digest`]**: the
    /// digest certifies scheduling behaviour, and tracing must be able
    /// to turn on without moving any golden digest.
    pub trace: Option<rda_trace::TraceReport>,
}

/// One call the simulator made into the RDA extension, recorded (when
/// [`SimConfig::record_rda_calls`] is set) in exact call order so the
/// whole run can be replayed event-by-event against the reference
/// model in `rda-check`. `Begin` carries the demand *as declared to
/// the extension* — after any fault-injected lie, before auditing —
/// and `Age` is recorded only when the aging pass actually admitted
/// something (no-op ticks leave no observable state behind), except
/// in a traffic run under overload control, where every tick advances
/// breaker hysteresis and is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdaCall {
    /// A `pp_begin` call.
    Begin {
        /// Call time.
        now: SimTime,
        /// Calling process.
        process: ProcessId,
        /// Static call site.
        site: rda_core::SiteId,
        /// The declared (post-lie, pre-audit) demand.
        demand: PpDemand,
    },
    /// A `pp_end` call (including rejected ones, e.g. double ends).
    End {
        /// Call time.
        now: SimTime,
        /// The period being ended.
        pp: rda_core::PpId,
    },
    /// A `process_exit` call.
    Exit {
        /// Call time.
        now: SimTime,
        /// The exiting process.
        process: ProcessId,
    },
    /// An `age_waitlist` call that admitted at least one period (or
    /// any tick of a traffic run under overload control).
    Age {
        /// Call time.
        now: SimTime,
    },
    /// A `note_retry` call: the client retried a shed or expired
    /// arrival (recorded by the open-system traffic engine).
    Retry {
        /// Call time.
        now: SimTime,
        /// The retrying process.
        process: ProcessId,
        /// Static call site of the retried demand.
        site: rda_core::SiteId,
        /// The resource the retried demand targets (the scalar engine
        /// tracks the LLC only).
        resource: rda_core::ResourceKind,
    },
}

impl RunResult {
    /// A platform-stable 64-bit digest over every observable field of
    /// the run: counters, energy, wall-clock, extension and scheduler
    /// activity, and per-process finish times.
    ///
    /// Two runs are behaviourally identical iff their digests match;
    /// the sweep runner uses this to prove serial and multi-threaded
    /// sweeps bit-identical, and the golden-trace test pins one digest
    /// in the repository so simulator changes are explicit diffs.
    pub fn digest(&self) -> u64 {
        let mut h = rda_simcore::Fnv1a64::new();
        let c = &self.measurement.counters;
        for v in [
            c.instructions,
            c.cycles,
            c.flops,
            c.mem_ops,
            c.l1_misses,
            c.l2_misses,
            c.llc_misses,
            c.llc_accesses,
            c.context_switches,
            c.migrations,
            c.pp_begins,
            c.pp_ends,
            c.fastpath_hits,
            c.waitlisted,
        ] {
            h.write_u64(v);
        }
        h.write_f64(self.measurement.energy.pkg_joules)
            .write_f64(self.measurement.energy.dram_joules)
            .write_f64(self.measurement.wall_secs);
        for v in [
            self.rda.begins,
            self.rda.ends,
            self.rda.admitted,
            self.rda.paused,
            self.rda.resumed,
            self.rda.fast_begins,
            self.rda.fast_ends,
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
        for v in [
            self.sched.context_switches,
            self.sched.migrations,
            self.sched.balance_moves,
            self.sched.wakeups,
        ] {
            h.write_u64(v);
        }
        h.write_usize(self.finish_secs.len());
        for &t in &self.finish_secs {
            h.write_f64(t);
        }
        // A zero word where an earlier layout folded a sample count, so
        // the pinned digests hold.
        h.write_u64(0);
        h.finish()
    }
}

struct Proc {
    program: ProcessProgram,
    /// Per-phase id into the simulation-wide deduplicated profile
    /// table: two phases (of any process) with bit-identical access
    /// profiles share an id. Lets the co-run memo key positions by
    /// profile identity instead of comparing full profiles.
    profile_ids: Vec<u32>,
    phase: usize,
    pp: Option<rda_core::PpId>,
    tasks: Vec<TaskId>,
    done_threads: usize,
    finished: bool,
    finish_time: SimTime,
}

struct Thread {
    proc: usize,
    overhead: u64,
    /// Instructions left in the proc's current phase for this thread.
    /// Lives here (not on `Proc`) so the per-interval horizon/advance
    /// loops touch one record per running thread, not two.
    remaining: u64,
}

/// FNV-1a-style mixing, one round per 8-byte word. The co-run memo
/// keys are short `Vec<u64>` tag lists hashed on every cache probe in
/// the simulator's hottest loop; SipHash's per-probe setup cost is
/// measurable there and DoS resistance buys nothing against our own
/// deterministic keys. The cache is only probed, never iterated, so
/// the hash values themselves are free to change.
#[derive(Default, Clone)]
struct FnvHasher(u64);

impl FnvHasher {
    #[inline]
    fn mix(&mut self, x: u64) {
        let h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        self.0 = (h ^ x).wrapping_mul(0x1000_0000_01b3);
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    // `[u64]`'s `Hash` hands the whole slice to one `write` call as
    // bytes (after a `write_usize` length prefix), so this is where a
    // key is hashed: one mix per word instead of eight byte rounds.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            self.mix(u64::from_le_bytes(b));
        }
        for &b in words.remainder() {
            self.mix(b as u64);
        }
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }
    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }
}

type BuildFnv = std::hash::BuildHasherDefault<FnvHasher>;

/// Safety cutoff: a simulation that passes this much simulated time
/// aborts (a deadlock or runaway workload).
const SIM_TIME_LIMIT_SECS: f64 = 1000.0;

/// The simulator.
pub struct SystemSim {
    cfg: SimConfig,
    perf: PerfModel,
    energy_model: EnergyModel,
    /// Cycles charged to the calling thread for a full (slow-path) and
    /// a memoised (fast-path) `pp_begin`/`pp_end` call.
    slow_call: u64,
    fast_call: u64,
    sched: CfsScheduler,
    rda: RdaExtension,
    procs: Vec<Proc>,
    threads: Vec<Thread>,
    now: SimTime,
    counters: PerfCounters,
    energy: EnergyBreakdown,
    slice_end: Vec<SimTime>,
    last_on_core: Vec<Option<TaskId>>,
    rebalance_period: SimDuration,
    next_rebalance: SimTime,
    unfinished: usize,
    /// Deterministic jitter source for timeslice lengths. Real systems
    /// never keep cores' scheduling epochs aligned (interrupts, wake
    /// latencies); without jitter, identical processes woken in order
    /// rotate in lockstep and accidentally gang-schedule themselves,
    /// which hides the cross-process cache interference the paper
    /// measures.
    jitter: SplitMix64,
    /// Pre-expanded fault schedule (empty unless `SimConfig::faults`).
    faults: FaultPlan,
    /// RDA call log (kept only when `SimConfig::record_rda_calls`).
    calls: CallLog<RdaCall>,
    /// Scratch buffers reused across simulation intervals so the event
    /// loop performs no per-interval heap allocation once warm.
    scratch_running: Vec<(usize, TaskId)>,
    scratch_entries: Vec<(rda_machine::AccessProfile, u64)>,
    corun_rates: Vec<rda_machine::SegmentRates>,
    /// The co-run key `corun_rates` currently holds the solved rates
    /// for: the dedup profile id of each running thread's current
    /// phase, in running order, then the distinct running processes'
    /// total working set. A thread's `(profile, share)` entry is a pure
    /// function of its profile id and that total, so equal keys imply
    /// bit-identical solver inputs.
    corun_tags: Vec<u64>,
    scratch_tags: Vec<u64>,
    /// Every co-run configuration solved so far, by key. Slice
    /// round-robin revisits configurations constantly; copying the
    /// cached rates is bit-identical to re-solving (the solver is
    /// pure).
    corun_cache: std::collections::HashMap<Vec<u64>, Vec<rda_machine::SegmentRates>, BuildFnv>,
    /// Key rebuilds so far: a fresh stamp for each rebuild's
    /// `proc_stamp` marks.
    corun_rebuilds: u64,
    /// `books_epoch` value at the last passing invariant check
    /// ([`Self::check_books`]). The check is a pure function of the extension's books,
    /// so an unchanged epoch implies an unchanged (passing) verdict.
    checked_books_epoch: u64,
    /// Threads that completed their phase quota this interval, in
    /// `running` order; drained right after the advance loop.
    scratch_done: Vec<TaskId>,
    /// Dense per-proc copies of the *current phase's* access profile
    /// and dedup profile id, refreshed in `enter_phase`. The key
    /// rebuild, the solve entries, the advance loop and the switch-in
    /// warm-up read these instead of chasing
    /// `procs[p].program.phases[phase]` pointers per running thread.
    phase_profile: Vec<rda_machine::AccessProfile>,
    phase_tag: Vec<u32>,
    /// Per-proc mark: equal to `corun_rebuilds` once the process's
    /// working set has been counted in the current key rebuild, so
    /// each distinct process on-CPU is summed once in O(1).
    proc_stamp: Vec<u64>,
}

/// One running thread's advance over an interval, computed from that
/// thread's pre-interval state alone.
#[derive(Debug, Clone, Copy, Default)]
struct AdvanceStep {
    new_overhead: u64,
    new_remaining: u64,
    done: bool,
    instr: u64,
    flops: u64,
    mem_ops: u64,
    l1_misses: u64,
    llc_accesses: u64,
    llc_misses: u64,
}

// Exact u64 <-> f64 conversions for the per-interval loops. The
// baseline x86-64 target has no unsigned 64-bit conversion instruction,
// so a plain `u as f64` or `x as u64` compiles to a branchy sequence of
// 5-10 instructions, and `f64::ceil` to a call into a software routine
// (no SSE4.1). Each helper below returns exactly what the plain cast
// returns for *every* input, NaN, negatives, values >= 2^63 and
// infinities included. Inside the signed range it takes the signed
// conversion: one instruction, plus for `f64 -> i64` a branch-free
// saturation fix-up that never fires there (dropping it with the
// unsafe `to_int_unchecked` measured no faster). Every other input
// goes to a cold, never-inlined fallback that does the plain cast; an
// inline `else` arm lets the compiler evaluate both arms up front,
// which measured slower than this form.

/// Bit pattern of 2^63. For an `f64` whose bits compare below it, the
/// sign bit is clear and the value is in `[+0.0, 2^63)`; negatives,
/// -0.0, NaN and +inf all compare above it.
const TWO_POW_63_BITS: u64 = 0x43e0_0000_0000_0000;

/// `u as f64`, exactly.
#[inline]
fn u64_to_f64(u: u64) -> f64 {
    if (u as i64) >= 0 {
        // Same integer, same round-to-nearest-even: same bits.
        u as i64 as f64
    } else {
        u64_to_f64_cold(u)
    }
}

#[cold]
#[inline(never)]
fn u64_to_f64_cold(u: u64) -> f64 {
    u as f64
}

/// `x as u64`, exactly (truncating, saturating, NaN to 0).
#[inline]
fn f64_to_u64(x: f64) -> u64 {
    if x.to_bits() < TWO_POW_63_BITS {
        x as i64 as u64
    } else {
        f64_to_u64_cold(x)
    }
}

#[cold]
#[inline(never)]
fn f64_to_u64_cold(x: f64) -> u64 {
    x as u64
}

/// `x.ceil() as u64`, exactly.
#[inline]
fn ceil_to_u64(x: f64) -> u64 {
    if x.to_bits() < TWO_POW_63_BITS {
        let t = x as i64;
        // Below 2^52, `t` converts back exactly and `x` is fractional
        // iff it exceeds `t`; from 2^52 up every `f64` is an integer,
        // `t == x`, and the comparison is false.
        (t + ((t as f64) < x) as i64) as u64
    } else {
        ceil_to_u64_cold(x)
    }
}

#[cold]
#[inline(never)]
fn ceil_to_u64_cold(x: f64) -> u64 {
    x.ceil() as u64
}

/// Advance one thread by `dt` cycles: burn context-switch overhead
/// first, then retire instructions at the co-run-degraded CPI. Pure.
fn advance_step(
    overhead: u64,
    remaining: u64,
    flop_frac: f64,
    mem_frac: f64,
    r: rda_machine::SegmentRates,
    dt: u64,
) -> AdvanceStep {
    let mut st = AdvanceStep::default();
    let mut cyc = dt;
    let burned = overhead.min(cyc);
    st.new_overhead = overhead - burned;
    cyc -= burned;
    st.new_remaining = remaining;
    if cyc > 0 {
        let instr = f64_to_u64(u64_to_f64(cyc) / r.cpi).min(remaining);
        st.new_remaining = remaining - instr;
        st.done = remaining == instr;
        st.instr = instr;
        let instr_f = u64_to_f64(instr);
        st.flops = f64_to_u64(instr_f * flop_frac);
        st.mem_ops = f64_to_u64(instr_f * mem_frac);
        st.l1_misses = f64_to_u64(instr_f * r.l1_mpi);
        st.llc_accesses = f64_to_u64(instr_f * r.llc_api);
        st.llc_misses = f64_to_u64(instr_f * r.llc_mpi);
    } else {
        st.done = st.new_overhead == 0 && remaining == 0;
    }
    st
}

impl SystemSim {
    /// Build a simulation of `spec` under `cfg`.
    pub fn new(cfg: SimConfig, spec: &WorkloadSpec) -> Self {
        cfg.machine.validate().expect("invalid machine config");
        let perf = PerfModel::new(cfg.machine.clone());
        let mut sched = CfsScheduler::new(SchedConfig::from_machine(&cfg.machine));
        let mut rda_cfg =
            RdaConfig::for_machine(&cfg.machine, cfg.policy).with_demand_audit(cfg.demand_audit);
        if let Some(timeout) = cfg.waitlist_timeout {
            rda_cfg = rda_cfg.with_waitlist_timeout_cycles(timeout.cycles());
        }
        let mut rda = RdaExtension::new(rda_cfg);
        if cfg.trace {
            rda.install_trace(rda_trace::TraceSink::new(rda_trace::TraceConfig::default()));
        }
        // The fault plan is a pure function of (jitter_seed, workload
        // shape, fault config), so faulty sweeps stay bit-identical
        // across thread counts just like clean ones.
        let faults = match &cfg.faults {
            Some(fc) => FaultPlan::generate(
                spec.processes.iter().map(|program| program.phases.len()),
                fc,
                cfg.jitter_seed,
            ),
            None => FaultPlan::none(),
        };

        let mut procs = Vec::with_capacity(spec.processes.len());
        let mut threads = Vec::new();
        let mut profile_table: Vec<rda_machine::AccessProfile> = Vec::new();
        for (p, program) in spec.processes.iter().enumerate() {
            assert!(program.threads > 0, "process without threads");
            assert!(
                program.phases.iter().all(|ph| ph.instr_per_thread > 0),
                "phases must do work"
            );
            let mut tasks = Vec::with_capacity(program.threads);
            for _slot in 0..program.threads {
                let tid = sched.add_task(ProcessId(p as u32));
                assert_eq!(tid.0 as usize, threads.len());
                threads.push(Thread {
                    remaining: 0,
                    proc: p,
                    overhead: 0,
                });
                tasks.push(tid);
            }
            let profile_ids = program
                .phases
                .iter()
                .map(|ph| {
                    match profile_table
                        .iter()
                        .position(|q| rda_machine::profile_bits_eq(q, &ph.profile))
                    {
                        Some(i) => i as u32,
                        None => {
                            profile_table.push(ph.profile);
                            (profile_table.len() - 1) as u32
                        }
                    }
                })
                .collect();
            procs.push(Proc {
                program: program.clone(),
                profile_ids,
                phase: 0,
                pp: None,
                tasks,
                done_threads: 0,
                finished: false,
                finish_time: SimTime::ZERO,
            });
        }
        let cores = cfg.machine.cores;
        let us = |micros: f64| (micros * 1e-6 * cfg.machine.freq_hz).round() as u64;
        let rebalance_period = SimDuration::from_micros(50_000.0, cfg.machine.freq_hz);
        let n_procs = procs.len();
        let mut sim = SystemSim {
            perf,
            energy_model: EnergyModel::default(),
            // Calibrated against Figure 11: ≈ 50 µs for a full call
            // (syscall, registry update, predicate evaluation, possible
            // waitlist scan and reschedule), ≈ 0.55 µs for a check
            // against the shared decision page.
            slow_call: us(50.0),
            fast_call: us(0.55),
            sched,
            rda,
            procs,
            threads,
            now: SimTime::ZERO,
            counters: PerfCounters::new(),
            energy: EnergyBreakdown::new(),
            slice_end: vec![SimTime::ZERO; cores],
            last_on_core: vec![None; cores],
            rebalance_period,
            next_rebalance: SimTime::ZERO + rebalance_period,
            unfinished: spec.processes.len(),
            jitter: SplitMix64::new(cfg.jitter_seed),
            faults,
            calls: CallLog(cfg.record_rda_calls.then(Vec::new)),
            scratch_running: Vec::new(),
            scratch_entries: Vec::new(),
            corun_rates: Vec::new(),
            corun_tags: Vec::new(),
            scratch_tags: Vec::new(),
            corun_cache: std::collections::HashMap::default(),
            corun_rebuilds: 0,
            checked_books_epoch: u64::MAX,
            scratch_done: Vec::new(),
            // Placeholders: `enter_phase` below copies each process's
            // first phase in before anything reads them.
            phase_profile: vec![
                rda_machine::AccessProfile::typical(0, rda_machine::ReuseLevel::Low);
                n_procs
            ],
            phase_tag: vec![0; n_procs],
            proc_stamp: vec![0; n_procs],
            cfg,
        };
        for p in 0..sim.procs.len() {
            sim.enter_phase(p);
        }
        sim
    }

    /// Immutable access to the RDA extension (for assertions in tests).
    pub fn rda(&self) -> &RdaExtension {
        &self.rda
    }

    /// The recorded RDA call log, in call order (empty unless
    /// [`SimConfig::record_rda_calls`] was set).
    pub fn rda_calls(&self) -> &[RdaCall] {
        self.calls.0.as_deref().unwrap_or_default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn call_cost(&self, fast: bool) -> u64 {
        if fast {
            self.fast_call
        } else {
            self.slow_call
        }
    }

    fn wake_proc(&mut self, p: usize) {
        for i in 0..self.procs[p].tasks.len() {
            let tid = self.procs[p].tasks[i];
            // Only wake threads that still have work in this phase.
            if self.threads[tid.0 as usize].remaining > 0
                || self.threads[tid.0 as usize].overhead > 0
            {
                self.sched.wake(tid);
            }
        }
    }

    /// Start the current phase of process `p` (or finish the process).
    fn enter_phase(&mut self, p: usize) {
        if self.procs[p].phase >= self.procs[p].program.phases.len() {
            self.finish_proc(p);
            return;
        }
        let k = self.procs[p].phase;
        let phase = &self.procs[p].program.phases[k];
        let (instr_per_thread, profile, pp) = (phase.instr_per_thread, phase.profile, phase.pp);
        for i in 0..self.procs[p].tasks.len() {
            let tid = self.procs[p].tasks[i];
            self.threads[tid.0 as usize].remaining = instr_per_thread;
        }
        self.procs[p].done_threads = 0;
        self.phase_profile[p] = profile;
        self.phase_tag[p] = self.procs[p].profile_ids[k];

        match pp {
            Some(pp) if self.cfg.policy.is_gating() => {
                let t0 = self.procs[p].tasks[0].0 as usize;
                // Demand lie: the declaration is scaled, the actual
                // cache profile (and therefore the machine model's
                // behaviour) is not.
                let factor = self.faults.phase(p, k).demand_factor;
                let demand = if factor == 1.0 {
                    pp.demand
                } else {
                    PpDemand {
                        amount: ((pp.demand.amount as f64 * factor) as u64).max(1),
                        ..pp.demand
                    }
                };
                let process = ProcessId(p as u32);
                let outcome = self
                    .rda
                    .begin(process, pp.site, demand, self.now, &mut self.calls);
                match outcome {
                    Err(_) => {
                        // The demand auditor refused to track the
                        // period (DemandAudit::Reject): the process
                        // runs directly on the OS, untracked — the
                        // paper's escape hatch.
                        self.threads[t0].overhead += self.call_cost(false);
                        self.wake_proc(p);
                    }
                    Ok(BeginOutcome::Bypass) => self.wake_proc(p),
                    Ok(BeginOutcome::Run { pp, fast }) => {
                        self.procs[p].pp = Some(pp);
                        self.threads[t0].overhead += self.call_cost(fast);
                        self.wake_proc(p);
                    }
                    Ok(BeginOutcome::Pause { pp, .. }) => {
                        // The process stays paused, its threads
                        // unwoken, until a completing period releases
                        // capacity (§3.1). Its whole thread group stays
                        // blocked (§3.4's thread-pool rule).
                        self.procs[p].pp = Some(pp);
                        self.threads[t0].overhead += self.call_cost(false);
                        self.counters.waitlisted += 1;
                        // Mid-wait kill: the process dies while
                        // waitlisted; its entry must not outlive it.
                        if self.faults.kill_at(p) == Some(k) {
                            self.kill_proc(p);
                        }
                    }
                }
            }
            _ => self.wake_proc(p),
        }
    }

    fn finish_proc(&mut self, p: usize) {
        debug_assert!(!self.procs[p].finished);
        self.procs[p].finished = true;
        self.procs[p].finish_time = self.now;
        for i in 0..self.procs[p].tasks.len() {
            let tid = self.procs[p].tasks[i];
            self.sched.finish(tid);
        }
        self.unfinished -= 1;
        // Exit-time reaping: release every period the process still
        // holds (leaked ends, mid-period kills, a waitlisted entry) and
        // wake anything the reclaimed capacity admits. A clean exit
        // holds nothing and this is a no-op.
        self.procs[p].pp = None;
        let resumed = self
            .rda
            .exit(ProcessId(p as u32), self.now, &mut self.calls);
        for (_pp, pid) in resumed {
            self.wake_proc(pid.0 as usize);
        }
    }

    /// Kill process `p` right now: no `pp_end`, no remaining phases —
    /// only the exit reaper in [`Self::finish_proc`] cleans up.
    fn kill_proc(&mut self, p: usize) {
        self.finish_proc(p);
    }

    /// A thread completed its phase quota: barrier-block it; when the
    /// last sibling arrives, close the phase.
    fn thread_done(&mut self, tid: TaskId) {
        self.sched.block(tid);
        let p = self.threads[tid.0 as usize].proc;
        self.procs[p].done_threads += 1;
        if self.procs[p].done_threads == self.procs[p].tasks.len() {
            self.phase_end(p);
        }
    }

    fn phase_end(&mut self, p: usize) {
        let k = self.procs[p].phase;
        // Mid-period kill: the process dies at the end of its phase
        // work, holding its open period — it never reaches `pp_end`.
        if self.faults.kill_at(p) == Some(k) {
            self.kill_proc(p);
            return;
        }
        let fault = self.faults.phase(p, k);
        let resumed = if let Some(pp) = self.procs[p].pp.take() {
            if fault.leak_end {
                // Leaked end: the period stays in the registry (and its
                // demand in the load table) until process exit reclaims
                // it.
                Vec::new()
            } else {
                let t0 = self.procs[p].tasks[0].0 as usize;
                let out = self
                    .rda
                    .end(pp, self.now, &mut self.calls)
                    .expect("simulator bug: honest pp_end of a live period rejected");
                self.threads[t0].overhead += self.call_cost(out.fast);
                if fault.double_end {
                    // The buggy second end must come back as a typed
                    // rejection, leaving the books untouched.
                    let second = self.rda.end(pp, self.now, &mut self.calls);
                    debug_assert_eq!(second, Err(rda_core::RdaError::DoubleEnd(pp)));
                    self.threads[t0].overhead += self.call_cost(false);
                }
                out.resumed
            }
        } else {
            Vec::new()
        };
        self.procs[p].phase += 1;
        self.enter_phase(p);
        for (_pp, pid) in resumed {
            let q = pid.0 as usize;
            debug_assert!(
                self.procs[q].pp.is_some(),
                "resumed process lost its period"
            );
            self.wake_proc(q);
        }
    }

    fn fill_cores(&mut self) {
        let cores = self.cfg.machine.cores;
        for core in 0..cores {
            if self.sched.running_on(core).is_some() {
                continue;
            }
            if self.sched.queue_len(core) == 0 {
                self.sched.idle_steal(core);
            }
            if let Some(tid) = self.sched.pick_next(core) {
                self.on_switch_in(core, tid);
                let slice = self.jittered_slice(core);
                self.slice_end[core] = self.now + SimDuration::from_cycles(slice);
            }
        }
    }

    /// Timeslice for `core` with ±15 % deterministic jitter.
    fn jittered_slice(&mut self, core: usize) -> u64 {
        let base = self.sched.timeslice(core);
        let r = self.jitter.next_f64(); // [0, 1)
        ((base as f64) * (0.85 + 0.30 * r)) as u64
    }

    fn on_switch_in(&mut self, core: usize, tid: TaskId) {
        if self.last_on_core[core] != Some(tid) {
            self.counters.context_switches += 1;
            let p = self.threads[tid.0 as usize].proc;
            let ws = self.phase_profile[p].ws_bytes;
            self.threads[tid.0 as usize].overhead +=
                self.cfg.machine.context_switch_cycles + self.perf.switch_warmup_cycles(ws);
        }
        self.last_on_core[core] = Some(tid);
    }

    /// The earliest instant at which a waitlisted period expires (only
    /// when aging is configured and something is waiting).
    fn aging_deadline(&self) -> Option<SimTime> {
        let timeout = self.cfg.waitlist_timeout?;
        Some(self.rda.oldest_wait()? + timeout)
    }

    /// Force-admit expired waitlist entries and wake their processes.
    fn apply_aging(&mut self) {
        if self.cfg.waitlist_timeout.is_none() {
            return;
        }
        // No-op ticks are state-neutral, so only ticks that admitted
        // something are logged for replay.
        let out = self.rda.age(self.now, false, &mut self.calls);
        // SystemSim never configures overload deadlines, so nothing can
        // expire here; the traffic engine owns that path.
        debug_assert!(out.expired.is_empty(), "deadline expiry without overload");
        for (_pp, pid) in out.resumed {
            self.wake_proc(pid.0 as usize);
        }
    }

    /// Check the extension's invariants, as after every simulation
    /// step, unless its books are unchanged since the last passing
    /// check: the check is a pure function of the books, so an
    /// unchanged epoch implies an unchanged verdict. A violation aborts
    /// the run with a typed diagnostic.
    fn check_books(&mut self) -> Result<(), String> {
        if self.rda.books_epoch() != self.checked_books_epoch {
            self.rda
                .check_invariants()
                .map_err(|e| format!("RDA invariant violated: {e}"))?;
            self.checked_books_epoch = self.rda.books_epoch();
        }
        Ok(())
    }

    /// Record the occupancy in force from now on into the trace sink:
    /// the books and `busy_cores` running threads (no-op when tracing
    /// is off — the reads below are never even issued). The sink keeps
    /// only the change points.
    fn sample_occupancy(&mut self, busy_cores: usize) {
        if self.rda.trace().is_none() {
            return;
        }
        let sample = rda_trace::OccupancySample {
            t_cycles: self.now.cycles(),
            node: 0,
            usage: self.rda.usage(),
            overflow: self.rda.overflow_usage(),
            waitlisted: self.rda.waitlist_len() as u32,
            busy_cores: busy_cores as u32,
        };
        if let Some(sink) = self.rda.trace_mut() {
            sink.record_occupancy(sample);
        }
    }

    /// Execute the workload to completion.
    pub fn run(&mut self) -> Result<RunResult, String> {
        let freq = self.cfg.machine.freq_hz;
        let max_cycles = (SIM_TIME_LIMIT_SECS * freq) as u64;
        while self.unfinished > 0 {
            if self.now.cycles() > max_cycles {
                return Err(format!(
                    "simulation exceeded {SIM_TIME_LIMIT_SECS} s — deadlock or runaway workload"
                ));
            }
            self.fill_cores();
            let mut running = std::mem::take(&mut self.scratch_running);
            running.clear();
            running.extend(self.sched.running_tasks());
            self.sample_occupancy(running.len());
            if running.is_empty() {
                self.scratch_running = running;
                // Every unfinished process is paused on a waitlist. The
                // paper's design would deadlock here; with aging the
                // machine sits idle until the oldest entry expires and
                // is force-admitted.
                let Some(deadline) = self.aging_deadline() else {
                    return Err("no runnable threads: scheduling deadlock".into());
                };
                if deadline > self.now {
                    self.now = deadline;
                }
                self.apply_aging();
                self.check_books()?;
                continue;
            }

            // --- rates for the co-running set ---
            // A running thread's `(profile, share)` solver entry is a
            // pure function of its position's *profile identity* (the
            // dedup table id of its process's current phase profile)
            // plus the distinct running processes' total working set.
            // So the co-run configuration is keyed by the profile-id
            // vector of the running set, in running order, with
            // `total_ws` appended. Each interval rebuilds the key; then
            //   1. a key equal to the previous one reuses `corun_rates`;
            //   2. a key in the solve cache copies the cached rates (the
            //      solver is a pure function of the entries, so the copy
            //      is bit-identical to a fresh solve);
            //   3. any other key is solved, and the result cached.
            // No level can move a digest: each yields the exact bits a
            // per-interval fresh solve would. The distinct processes
            // on-CPU share the LLC; a stamp fresh for each rebuild marks
            // a process already counted.
            self.corun_rebuilds += 1;
            let stamp = self.corun_rebuilds;
            self.scratch_tags.clear();
            let mut total_ws: u64 = 0;
            for &(_, tid) in &running {
                let p = self.threads[tid.0 as usize].proc;
                self.scratch_tags.push(self.phase_tag[p] as u64);
                if self.proc_stamp[p] != stamp {
                    self.proc_stamp[p] = stamp;
                    total_ws += self.phase_profile[p].ws_bytes;
                }
            }
            self.scratch_tags.push(total_ws);
            if self.scratch_tags != self.corun_tags {
                if let Some(hit) = self.corun_cache.get(&self.scratch_tags) {
                    self.corun_rates.clear();
                    self.corun_rates.extend_from_slice(hit);
                } else {
                    self.scratch_entries.clear();
                    for &(_, tid) in &running {
                        let p = self.threads[tid.0 as usize].proc;
                        let prof = self.phase_profile[p];
                        let share = self.perf.llc_share(prof.ws_bytes, total_ws);
                        self.scratch_entries.push((prof, share));
                    }
                    self.perf
                        .solve_corun_into(&self.scratch_entries, &mut self.corun_rates);
                    self.corun_cache
                        .insert(self.scratch_tags.clone(), self.corun_rates.clone());
                }
                std::mem::swap(&mut self.corun_tags, &mut self.scratch_tags);
            }
            #[cfg(debug_assertions)]
            {
                // Soundness backstop for the previous-key reuse, the
                // solve cache and the per-proc profile copies: re-derive
                // the entries from the programs themselves and demand a
                // fresh solve agree bit-for-bit with whatever the memo
                // left in `corun_rates`.
                let program_profile =
                    |p: usize| self.procs[p].program.phases[self.procs[p].phase].profile;
                let mut total_ws: u64 = 0;
                let mut seen: Vec<usize> = Vec::new();
                for &(_, tid) in &running {
                    let p = self.threads[tid.0 as usize].proc;
                    if !seen.contains(&p) {
                        seen.push(p);
                        total_ws += program_profile(p).ws_bytes;
                    }
                }
                let entries: Vec<(rda_machine::AccessProfile, u64)> = running
                    .iter()
                    .map(|&(_, tid)| {
                        let p = self.threads[tid.0 as usize].proc;
                        let prof = program_profile(p);
                        let share = self.perf.llc_share(prof.ws_bytes, total_ws);
                        (prof, share)
                    })
                    .collect();
                let mut fresh = Vec::new();
                self.perf.solve_corun_into(&entries, &mut fresh);
                assert_eq!(
                    fresh.len(),
                    self.corun_rates.len(),
                    "corun memo length drift"
                );
                for (i, (a, b)) in fresh.iter().zip(&self.corun_rates).enumerate() {
                    assert!(
                        a.cpi.to_bits() == b.cpi.to_bits()
                            && a.l1_mpi.to_bits() == b.l1_mpi.to_bits()
                            && a.llc_api.to_bits() == b.llc_api.to_bits()
                            && a.llc_mpi.to_bits() == b.llc_mpi.to_bits()
                            && a.dram_bpi.to_bits() == b.dram_bpi.to_bits(),
                        "corun memo was unsound at entry {i}"
                    );
                }
            }
            // --- horizon: next event distance in cycles ---
            let mut dt = self.next_rebalance.since(self.now).cycles().max(1);
            if let Some(deadline) = self.aging_deadline() {
                dt = dt.min(deadline.since(self.now).cycles().max(1));
            }
            // Earliest slice expiry among busy cores: nothing lands on
            // a core mid-interval (wakes only enqueue; `fill_cores`
            // runs at interval start), so the per-core expiry walk
            // below can be skipped entirely while `now` stays short of
            // this bound.
            let mut min_slice = SimTime::MAX;
            for (i, &(core, tid)) in running.iter().enumerate() {
                let th = &self.threads[tid.0 as usize];
                let finish =
                    th.overhead + ceil_to_u64(u64_to_f64(th.remaining) * self.corun_rates[i].cpi);
                dt = dt.min(finish.max(1));
                dt = dt.min(self.slice_end[core].since(self.now).cycles().max(1));
                min_slice = min_slice.min(self.slice_end[core]);
            }

            // --- advance all running threads by dt ---
            // Completion detection happens inline (the finished set is
            // replayed after the loop, in the same order a separate
            // scan would visit it), but `thread_done` itself must wait:
            // its wakes place tasks by a queue's *post-charge*
            // min-vruntime, so every charge must land first.
            self.scratch_done.clear();
            let mut delta = PerfCounters::new();
            // Each step reads only its own thread's pre-interval state,
            // and is applied in `running` order: the scheduler charge
            // and done-replay order are part of the deterministic
            // contract.
            for (i, &(core, tid)) in running.iter().enumerate() {
                let th = &mut self.threads[tid.0 as usize];
                let prof = &self.phase_profile[th.proc];
                let st = advance_step(
                    th.overhead,
                    th.remaining,
                    prof.flop_frac,
                    prof.mem_frac,
                    self.corun_rates[i],
                    dt,
                );
                th.overhead = st.new_overhead;
                th.remaining = st.new_remaining;
                delta.instructions += st.instr;
                delta.flops += st.flops;
                delta.mem_ops += st.mem_ops;
                delta.l1_misses += st.l1_misses;
                delta.llc_accesses += st.llc_accesses;
                delta.llc_misses += st.llc_misses;
                delta.cycles += dt;
                self.sched.charge(core, dt);
                if st.done {
                    self.scratch_done.push(tid);
                }
            }
            let wall = u64_to_f64(dt) / freq;
            let busy = running.len() as f64 * wall;
            self.energy += self.energy_model.interval_energy(wall, busy, &delta);
            self.counters += delta;
            self.now += SimDuration::from_cycles(dt);

            // --- events ---
            for k in 0..self.scratch_done.len() {
                let tid = self.scratch_done[k];
                self.thread_done(tid);
            }
            if self.now >= min_slice {
                for core in 0..self.cfg.machine.cores {
                    if self.sched.running_on(core).is_none() {
                        continue;
                    }
                    if self.now >= self.slice_end[core] {
                        if self.sched.queue_len(core) > 0 {
                            self.sched.yield_current(core);
                            if let Some(next) = self.sched.pick_next(core) {
                                self.on_switch_in(core, next);
                            }
                        }
                        let slice = self.jittered_slice(core);
                        self.slice_end[core] = self.now + SimDuration::from_cycles(slice);
                    }
                }
            }
            if self.now >= self.next_rebalance {
                self.sched.rebalance();
                self.next_rebalance = self.now + self.rebalance_period;
            }
            self.apply_aging();
            self.scratch_running = running;
            self.check_books()?;
        }

        // Mirror extension activity into the perf counters.
        let rs = self.rda.stats();
        self.counters.pp_begins = rs.begins;
        self.counters.pp_ends = rs.ends;
        self.counters.fastpath_hits = rs.fast_begins + rs.fast_ends;
        self.counters.waitlisted = rs.paused;
        self.counters.migrations = self.sched.stats().migrations;
        self.check_books()?;
        self.sample_occupancy(0);

        Ok(RunResult {
            measurement: Measurement {
                counters: self.counters,
                energy: self.energy,
                wall_secs: self.now.as_secs(freq),
            },
            rda: rs,
            sched: self.sched.stats(),
            finish_secs: self
                .procs
                .iter()
                .map(|p| p.finish_time.as_secs(freq))
                .collect(),
            trace: self.rda.take_trace().map(|s| s.into_report()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_core::mb;
    use rda_machine::ReuseLevel;
    use rda_workloads::Phase;

    fn tiny_workload(procs: usize, threads: usize, ws_mb: f64, instr: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny".into(),
            processes: (0..procs)
                .map(|_| ProcessProgram {
                    threads,
                    phases: vec![Phase::tracked(
                        "work",
                        instr,
                        mb(ws_mb),
                        ReuseLevel::High,
                        rda_core::SiteId(0),
                    )],
                })
                .collect(),
        }
    }

    fn run(policy: rda_core::PolicyKind, spec: &WorkloadSpec) -> RunResult {
        let mut sim = SystemSim::new(SimConfig::paper_default(policy), spec);
        sim.run().expect("simulation must complete")
    }

    #[test]
    fn single_process_completes_and_measures() {
        let spec = tiny_workload(1, 1, 2.0, 50_000_000);
        let r = run(rda_core::PolicyKind::DefaultOnly, &spec);
        assert!(r.measurement.wall_secs > 0.0);
        assert!(r.measurement.counters.instructions >= 50_000_000);
        assert!(r.measurement.gflops() > 0.0);
        assert!(r.measurement.system_joules() > 0.0);
        assert_eq!(r.finish_secs.len(), 1);
    }

    #[test]
    fn call_costs_follow_the_machine_clock() {
        let spec = tiny_workload(1, 1, 1.0, 1_000);
        let cfg = SimConfig::paper_default(rda_core::PolicyKind::Strict);
        let sim = SystemSim::new(cfg, &spec);
        assert_eq!(sim.call_cost(false), 95_000); // 50 us at 1.9 GHz
        assert_eq!(sim.call_cost(true), 1_045); // 0.55 us
        assert_eq!(sim.rebalance_period.cycles(), 95_000_000); // 50 ms
    }

    #[test]
    fn all_instructions_are_retired_exactly() {
        let spec = tiny_workload(3, 2, 1.0, 10_000_000);
        let r = run(rda_core::PolicyKind::Strict, &spec);
        // 3 procs × 2 threads × 10M instructions of work; overhead
        // cycles are not instructions, so the counter matches exactly.
        assert_eq!(r.measurement.counters.instructions, 60_000_000);
    }

    #[test]
    fn strict_policy_limits_admissions() {
        // 6 procs of 6 MB on a 15 MB LLC: at most 2 admitted at once.
        let spec = tiny_workload(6, 1, 6.0, 20_000_000);
        let r = run(rda_core::PolicyKind::Strict, &spec);
        assert!(r.rda.paused >= 4, "paused {}", r.rda.paused);
        assert_eq!(r.rda.begins, 6);
        assert_eq!(r.rda.ends, 6);
        assert_eq!(r.rda.resumed as i64, r.rda.paused as i64);
    }

    #[test]
    fn default_policy_never_pauses() {
        let spec = tiny_workload(6, 1, 6.0, 20_000_000);
        let r = run(rda_core::PolicyKind::DefaultOnly, &spec);
        assert_eq!(r.rda.begins, 0, "DefaultOnly bypasses tracking");
        assert_eq!(r.measurement.counters.waitlisted, 0);
    }

    #[test]
    fn compromise_admits_more_than_strict() {
        let spec = tiny_workload(8, 1, 6.0, 20_000_000);
        let strict = run(rda_core::PolicyKind::Strict, &spec);
        let comp = run(rda_core::PolicyKind::compromise_default(), &spec);
        assert!(
            comp.rda.paused < strict.rda.paused,
            "compromise {} vs strict {}",
            comp.rda.paused,
            strict.rda.paused
        );
    }

    #[test]
    fn thrashing_coschedule_is_slower_than_gated() {
        // Raytrace-shaped: 12 procs × 4 threads × 6 MB high reuse.
        // Default co-runs ~12 distinct processes' working sets (72 MB
        // on a 15 MB LLC, deep thrash); strict admits 2 processes =
        // 8 threads, trading a third of the cores for full cache
        // residency — and wins on both time and energy.
        let spec = tiny_workload(12, 4, 6.0, 100_000_000);
        let default = run(rda_core::PolicyKind::DefaultOnly, &spec);
        let strict = run(rda_core::PolicyKind::Strict, &spec);
        assert!(
            strict.measurement.wall_secs < default.measurement.wall_secs,
            "strict {} vs default {}",
            strict.measurement.wall_secs,
            default.measurement.wall_secs
        );
        // And consumes less energy.
        assert!(strict.measurement.system_joules() < default.measurement.system_joules());
        // Because it misses less.
        assert!(strict.measurement.counters.llc_misses < default.measurement.counters.llc_misses);
    }

    #[test]
    fn multi_phase_barriers_wake_all_threads() {
        let spec = WorkloadSpec {
            name: "phased".into(),
            processes: vec![ProcessProgram {
                threads: 4,
                phases: vec![
                    Phase::tracked(
                        "a",
                        5_000_000,
                        mb(1.0),
                        ReuseLevel::High,
                        rda_core::SiteId(0),
                    ),
                    Phase::untracked("sync", 100_000, mb(0.1), ReuseLevel::Low),
                    Phase::tracked(
                        "b",
                        5_000_000,
                        mb(2.0),
                        ReuseLevel::Medium,
                        rda_core::SiteId(1),
                    ),
                ],
            }],
        };
        let r = run(rda_core::PolicyKind::Strict, &spec);
        assert_eq!(r.rda.begins, 2, "two tracked phases");
        assert_eq!(r.rda.ends, 2);
        // 4 threads × (5M + 0.1M + 5M).
        assert_eq!(r.measurement.counters.instructions, 4 * 10_100_000);
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = tiny_workload(5, 2, 3.0, 15_000_000);
        let a = run(rda_core::PolicyKind::Strict, &spec);
        let b = run(rda_core::PolicyKind::Strict, &spec);
        assert_eq!(a.measurement.wall_secs, b.measurement.wall_secs);
        assert_eq!(a.measurement.counters, b.measurement.counters);
    }

    #[test]
    fn more_cores_do_not_slow_a_parallel_workload() {
        let spec = tiny_workload(4, 1, 1.0, 20_000_000);
        let mut small = SimConfig::paper_default(rda_core::PolicyKind::DefaultOnly);
        small.machine = rda_machine::MachineConfig::small_test();
        let r_small = SystemSim::new(small, &spec).run().unwrap();
        let r_big = run(rda_core::PolicyKind::DefaultOnly, &spec);
        assert!(r_big.measurement.wall_secs <= r_small.measurement.wall_secs * 1.05);
    }

    /// Busy cores over `cores`, weighted by how long each change point
    /// holds; the last sample marks the end of the run.
    fn utilization(track: &[rda_trace::OccupancySample], cores: u32) -> f64 {
        let busy: u64 = track
            .windows(2)
            .map(|w| u64::from(w[0].busy_cores) * (w[1].t_cycles - w[0].t_cycles))
            .sum();
        let span = track[track.len() - 1].t_cycles - track[0].t_cycles;
        busy as f64 / (span as f64 * f64::from(cores))
    }

    #[test]
    fn timeline_sampling_observes_the_policy_ceiling() {
        // 8 × 4 MB tracked processes under strict: the occupancy track's
        // admitted demand must never exceed the LLC, and the waitlist
        // must be visibly non-empty early in the run.
        let spec = tiny_workload(8, 1, 4.0, 30_000_000);
        let cfg = SimConfig::paper_default(rda_core::PolicyKind::Strict).with_trace();
        let llc = cfg.machine.llc_bytes;
        let r = SystemSim::new(cfg, &spec).run().unwrap();
        let track = r.trace.expect("trace enabled").occupancy;
        for s in &track {
            assert!(
                s.usage <= llc,
                "strict ceiling violated at cycle {}: {} B",
                s.t_cycles,
                s.usage
            );
            assert!(s.busy_cores <= 12);
        }
        assert!(track.iter().any(|s| s.waitlisted > 0));
        let util = utilization(&track, 12);
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
    }

    #[test]
    fn sampling_leaves_the_run_unchanged() {
        // The track is recorded between events; were recording to split
        // a step, the per-step truncations would move the counters.
        let spec = tiny_workload(8, 1, 4.0, 30_000_000);
        for policy in [
            rda_core::PolicyKind::DefaultOnly,
            rda_core::PolicyKind::Strict,
        ] {
            let plain = run(policy, &spec);
            let cfg = SimConfig::paper_default(policy).with_trace();
            let traced = SystemSim::new(cfg, &spec).run().unwrap();
            let track = &traced.trace.as_ref().expect("trace enabled").occupancy;
            assert!(track.len() >= 2, "{policy}: the run's start and end");
            assert_eq!(traced.digest(), plain.digest(), "{policy}");
        }
    }

    #[test]
    fn occupancy_track_covers_a_long_run() {
        // Three 1-thread processes alternate 3 000 tracked 6 MB periods
        // with untracked gaps on a 15 MB LLC: strict admits two at a
        // time and the books move at nearly every step. Each step
        // records at most one sample besides the final one, so the run
        // takes more steps than the 8 192 a per-tick ring of that size
        // would keep.
        let phases: Vec<Phase> = (0..3_000)
            .flat_map(|_| {
                [
                    Phase::tracked(
                        "work",
                        200_000,
                        mb(6.0),
                        ReuseLevel::High,
                        rda_core::SiteId(0),
                    ),
                    Phase::untracked("gap", 50_000, mb(0.1), ReuseLevel::Low),
                ]
            })
            .collect();
        let spec = WorkloadSpec {
            name: "long".into(),
            processes: (0..3)
                .map(|_| ProcessProgram {
                    threads: 1,
                    phases: phases.clone(),
                })
                .collect(),
        };
        let cfg = SimConfig::paper_default(rda_core::PolicyKind::Strict).with_trace();
        let (llc, freq) = (cfg.machine.llc_bytes, cfg.machine.freq_hz);
        let r = SystemSim::new(cfg, &spec).run().unwrap();
        assert!(r.rda.paused > 0, "strict must make periods wait");
        let track = r.trace.expect("trace enabled").occupancy;
        assert!(track.len() - 1 > 8_192, "{} change points", track.len());
        assert_eq!(track[0].t_cycles, 0);
        let last = track[track.len() - 1];
        assert_eq!(
            SimTime::from_cycles(last.t_cycles).as_secs(freq),
            r.measurement.wall_secs,
            "the track ends at the run's final instant"
        );
        assert_eq!(
            (last.usage, last.overflow, last.waitlisted, last.busy_cores),
            (0, 0, 0, 0)
        );
        assert!(track.iter().all(|s| s.usage <= llc));
    }

    #[test]
    fn oversized_working_set_does_not_deadlock() {
        let spec = tiny_workload(2, 1, 40.0, 10_000_000); // 40 MB > LLC
        let r = run(rda_core::PolicyKind::Strict, &spec);
        assert_eq!(r.rda.oversized_admits, 2);
        assert!(r.measurement.wall_secs > 0.0);
    }

    // --- exact conversions ---

    /// The boundary and special values every conversion helper must
    /// map exactly as the plain cast does.
    fn conversion_table() -> Vec<f64> {
        let two_53 = 9_007_199_254_740_992.0_f64;
        let two_63 = 9_223_372_036_854_775_808.0_f64;
        vec![
            0.0,
            1.0,
            two_53 - 1.0,
            two_53,
            two_53 + 2.0,
            two_63 - 1024.0,
            two_63,
            2.0 * two_63,
            -0.0,
            -0.5,
            -1.0,
            0.5,
            1.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
        ]
    }

    fn assert_f64_helpers_exact(x: f64) {
        assert_eq!(
            f64_to_u64(x),
            x as u64,
            "f64_to_u64({x:e}) [{:#x}]",
            x.to_bits()
        );
        assert_eq!(
            ceil_to_u64(x),
            x.ceil() as u64,
            "ceil_to_u64({x:e}) [{:#x}]",
            x.to_bits()
        );
    }

    fn assert_u64_helper_exact(u: u64) {
        assert_eq!(
            u64_to_f64(u).to_bits(),
            (u as f64).to_bits(),
            "u64_to_f64({u})"
        );
    }

    #[test]
    fn conversion_helpers_match_plain_casts_on_boundary_values() {
        for x in conversion_table() {
            assert_f64_helpers_exact(x);
            // The neighbours of each value straddle every range check.
            if x.is_finite() {
                assert_f64_helpers_exact(f64::from_bits(x.to_bits() + 1));
                if x.to_bits() & !(1 << 63) != 0 {
                    assert_f64_helpers_exact(f64::from_bits(x.to_bits() - 1));
                }
            }
        }
        let two_53 = 1u64 << 53;
        let two_63 = 1u64 << 63;
        for u in [
            0,
            1,
            two_53 - 1,
            two_53,
            two_53 + 1,
            two_63 - 1024,
            two_63 - 1,
            two_63,
            two_63 + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_u64_helper_exact(u);
        }
        // Spot values, so a helper that agreed with a wrong cast would
        // still fail here.
        assert_eq!(f64_to_u64(-1.0), 0);
        assert_eq!(f64_to_u64(f64::NAN), 0);
        assert_eq!(f64_to_u64(f64::INFINITY), u64::MAX);
        assert_eq!(ceil_to_u64(0.5), 1);
        assert_eq!(ceil_to_u64(1.5), 2);
        assert_eq!(ceil_to_u64(-0.5), 0);
        assert_eq!(ceil_to_u64(f64::from_bits(1)), 1);
        assert_eq!(u64_to_f64(u64::MAX), 18_446_744_073_709_551_616.0);
    }

    #[test]
    fn conversion_helpers_match_plain_casts_on_random_inputs() {
        let mut rng = SplitMix64::new(0x6361_7374_735f_6578);
        for _ in 0..200_000 {
            let bits = rng.next_u64();
            // Every bit pattern: NaNs, infinities, subnormals, negatives.
            assert_f64_helpers_exact(f64::from_bits(bits));
            // Integers of every magnitude, and the fractional values
            // the simulator actually converts (counts times rates).
            let u = bits >> (rng.next_u64() % 64);
            assert_u64_helper_exact(u);
            assert_u64_helper_exact(bits);
            let scaled = u as f64 * rng.next_f64();
            assert_f64_helpers_exact(scaled);
            assert_f64_helpers_exact(-scaled);
        }
    }

    // --- fault model ---

    use crate::faults::FaultConfig;

    fn faulty_cfg(rate: f64) -> SimConfig {
        SimConfig::paper_default(rda_core::PolicyKind::Strict)
            .with_demand_audit(rda_core::DemandAudit::Clamp)
            .with_waitlist_timeout_ms(5.0)
            .with_faults(FaultConfig::uniform(rate))
    }

    /// Run a faulty workload and assert full recovery: the run
    /// completes, and at the end both accounting buckets and the
    /// waitlist are empty, and no period outlives its process.
    fn assert_recovers(cfg: SimConfig, spec: &WorkloadSpec) -> RunResult {
        let mut sim = SystemSim::new(cfg, spec);
        let r = sim.run().expect("faulty run must still complete");
        assert_eq!(sim.rda().usage(), 0, "nominal demand leaked");
        assert_eq!(sim.rda().overflow_usage(), 0, "overflow leaked");
        assert_eq!(sim.rda().waitlist_len(), 0, "waiter leaked");
        assert_eq!(sim.rda().live_periods(), 0, "period outlived its process");
        r
    }

    #[test]
    fn leaked_ends_are_reclaimed_at_exit() {
        let spec = tiny_workload(6, 1, 6.0, 10_000_000);
        let mut cfg = faulty_cfg(0.0);
        cfg.faults = Some(FaultConfig {
            leak_end_rate: 1.0, // every phase leaks its end
            ..FaultConfig::none()
        });
        let r = assert_recovers(cfg, &spec);
        assert_eq!(r.rda.ends, 0, "every end was leaked");
        assert_eq!(r.rda.reclaimed, 6, "one reclaim per leaked period");
    }

    #[test]
    fn double_ends_are_rejected_not_double_released() {
        let spec = tiny_workload(6, 1, 6.0, 10_000_000);
        let mut cfg = faulty_cfg(0.0);
        cfg.faults = Some(FaultConfig {
            double_end_rate: 1.0,
            ..FaultConfig::none()
        });
        let r = assert_recovers(cfg, &spec);
        assert_eq!(r.rda.rejected_ends, 6, "each second end typed-rejected");
        assert_eq!(r.rda.ends, 12, "six honest + six buggy calls");
    }

    #[test]
    fn kills_release_held_periods() {
        let spec = tiny_workload(8, 2, 6.0, 10_000_000);
        let mut cfg = faulty_cfg(0.0);
        cfg.faults = Some(FaultConfig {
            kill_rate: 0.5,
            ..FaultConfig::none()
        });
        let r = assert_recovers(cfg, &spec);
        assert!(r.rda.reclaimed > 0, "some process died holding a period");
    }

    #[test]
    fn lying_demands_are_clamped_under_audit() {
        let spec = tiny_workload(6, 1, 6.0, 10_000_000);
        let mut cfg = faulty_cfg(0.0);
        cfg.faults = Some(FaultConfig {
            lie_rate: 1.0,
            lie_factor_range: (10.0, 20.0), // wild over-declaration
            ..FaultConfig::none()
        });
        let r = assert_recovers(cfg, &spec);
        assert_eq!(r.rda.clamped, 6, "every inflated demand clamped");
        assert_eq!(r.rda.oversized_admits, 0, "clamp pre-empts the guard");
    }

    #[test]
    fn combined_faults_recover_under_every_gating_policy() {
        let spec = tiny_workload(8, 2, 5.0, 8_000_000);
        for policy in [
            rda_core::PolicyKind::Strict,
            rda_core::PolicyKind::compromise_default(),
        ] {
            let cfg = SimConfig::paper_default(policy)
                .with_demand_audit(rda_core::DemandAudit::Clamp)
                .with_waitlist_timeout_ms(5.0)
                .with_faults(FaultConfig::uniform(0.3));
            assert_recovers(cfg, &spec);
        }
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let spec = tiny_workload(8, 2, 5.0, 8_000_000);
        let a = SystemSim::new(faulty_cfg(0.25), &spec).run().unwrap();
        let b = SystemSim::new(faulty_cfg(0.25), &spec).run().unwrap();
        assert_eq!(a.digest(), b.digest());
        // A different seed produces a different fault plan.
        let c = SystemSim::new(faulty_cfg(0.25).with_jitter_seed(99), &spec)
            .run()
            .unwrap();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn aging_rescues_an_otherwise_deadlocked_workload() {
        // One process leaks its period (holding 14 of 15 MB) and then a
        // second 14 MB process arrives: it can never be admitted
        // nominally while the leaker lives. Without aging this
        // deadlocks; with it, the waiter is force-admitted.
        let spec = WorkloadSpec {
            name: "leak-deadlock".into(),
            processes: vec![
                ProcessProgram {
                    threads: 1,
                    phases: vec![
                        Phase::tracked(
                            "leaky",
                            40_000_000,
                            mb(14.0),
                            ReuseLevel::High,
                            rda_core::SiteId(0),
                        ),
                        Phase::tracked(
                            "more",
                            40_000_000,
                            mb(14.0),
                            ReuseLevel::High,
                            rda_core::SiteId(1),
                        ),
                    ],
                },
                ProcessProgram {
                    threads: 1,
                    phases: vec![Phase::tracked(
                        "victim",
                        10_000_000,
                        mb(14.0),
                        ReuseLevel::High,
                        rda_core::SiteId(2),
                    )],
                },
            ],
        };
        // Every phase leaks its end: process 0 leaks 14 MB, then
        // waitlists itself behind its own leak for phase two, and the
        // victim waitlists behind both — nothing is runnable until
        // aging fires.
        let cfg = SimConfig::paper_default(rda_core::PolicyKind::Strict)
            .with_waitlist_timeout_ms(2.0)
            .with_faults(FaultConfig {
                leak_end_rate: 1.0,
                ..FaultConfig::none()
            });
        let mut sim = SystemSim::new(cfg, &spec);
        let r = sim.run().expect("aging must break the leak deadlock");
        assert!(r.rda.aged_admissions > 0, "the waiter was rescued by aging");
        assert_eq!(sim.rda().live_periods(), 0);
        assert_eq!(sim.rda().usage(), 0);
        assert_eq!(sim.rda().overflow_usage(), 0);
    }

    #[test]
    fn tracing_is_digest_neutral_and_reports_activity() {
        let spec = tiny_workload(6, 1, 6.0, 10_000_000);
        let plain = run(rda_core::PolicyKind::Strict, &spec);
        assert!(plain.trace.is_none(), "tracing is opt-in");
        let traced = SystemSim::new(
            SimConfig::paper_default(rda_core::PolicyKind::Strict).with_trace(),
            &spec,
        )
        .run()
        .unwrap();
        assert_eq!(
            plain.digest(),
            traced.digest(),
            "enabling tracing must not change scheduling behaviour"
        );
        let report = traced.trace.expect("trace enabled");
        assert_eq!(report.counts.begins, traced.rda.begins);
        assert_eq!(
            report.counts.fast_admits + report.counts.slow_admits,
            traced.rda.admitted
        );
        assert_eq!(report.counts.pauses, traced.rda.paused);
        assert_eq!(report.counts.resumes, traced.rda.resumed);
        assert_eq!(report.wait.samples, traced.rda.resumed);
        assert!(report.wait.max > 0, "contended run must show real waits");
        assert!(!report.occupancy.is_empty(), "per-tick occupancy sampled");
        let llc = SimConfig::paper_default(rda_core::PolicyKind::Strict)
            .machine
            .llc_bytes;
        for s in &report.occupancy {
            assert!(s.usage <= llc, "strict keeps nominal usage under the LLC");
        }
    }

    #[test]
    fn faulty_traced_runs_record_rejects_and_exits() {
        let spec = tiny_workload(8, 2, 5.0, 8_000_000);
        let mut cfg = faulty_cfg(0.3).with_trace();
        cfg.faults = Some(FaultConfig {
            double_end_rate: 1.0,
            kill_rate: 0.5,
            ..FaultConfig::none()
        });
        let plain_digest = {
            let mut c = cfg.clone();
            c.trace = false;
            SystemSim::new(c, &spec).run().unwrap().digest()
        };
        let traced = SystemSim::new(cfg, &spec).run().unwrap();
        assert_eq!(plain_digest, traced.digest());
        let report = traced.trace.expect("trace enabled");
        assert_eq!(report.counts.rejects, traced.rda.rejected_ends);
        assert!(report.counts.rejects > 0, "double ends must be visible");
        assert_eq!(report.counts.exits as usize, spec.processes.len());
    }

    #[test]
    fn clean_runs_are_unaffected_by_the_fault_machinery() {
        // A fault config with all-zero rates must reproduce the exact
        // digest of a run with no fault config at all.
        let spec = tiny_workload(6, 2, 4.0, 10_000_000);
        let plain = SystemSim::new(
            SimConfig::paper_default(rda_core::PolicyKind::Strict),
            &spec,
        )
        .run()
        .unwrap();
        let zeroed = SystemSim::new(
            SimConfig::paper_default(rda_core::PolicyKind::Strict).with_faults(FaultConfig::none()),
            &spec,
        )
        .run()
        .unwrap();
        assert_eq!(plain.digest(), zeroed.digest());
    }
}
