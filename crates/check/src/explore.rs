//! The bounded exhaustive explorer: every interleaving of a small
//! scenario template, checked against the reference model, for both
//! admission engines.
//!
//! A [`Template`] gives each process a fixed per-process program (a
//! sequence of [`Op`]s) plus a number of free-floating aging ticks. The
//! explorer enumerates **all interleavings** of those programs by DFS.
//! At every reached state a differential oracle checks model
//! equivalence and the implementation's own invariants, so one call
//! covers the whole bounded state space of the scenario — admission,
//! pausing, FIFO resume order, aging, exit reclamation, double ends —
//! under a single policy/configuration. One DFS serves both engines:
//! [`explore`] drives scalar demands through [`crate::diff::Oracle`],
//! [`explore_topo`] drives demand vectors through
//! [`crate::topo_diff::TopoOracle`] (placement ties, guarantee
//! reservations, per-node FIFO order, vector drains).
//!
//! States are pruned with an FNV-1a memo key over (per-process program
//! counters, aging ticks spent, the engine's state): the snapshot
//! digest, both fast-path cache digests and the breaker digest for the
//! scalar engine; the snapshot and breaker digests for the topology
//! engine. Two DFS paths that reach identical extension state at the
//! same template position share their whole subtree. The prune and
//! state counts are reported so CI output shows the real covered
//! volume.
//!
//! Every DFS path is itself a replayable document ([`TraceDoc`] or
//! [`TopoDoc`]), so a divergence is returned *as a replayable trace* —
//! ready to shrink and commit to `tests/corpus/`.
//!
//! The explorer doubles as the oracle's own regression test: run with
//! [`TopoMutation::StrictOffByOne`] it must *find* a counterexample
//! (the injected exact-fit off-by-one), proving the harness has the
//! sensitivity to catch a single-comparison admission bug. That
//! self-test is permanent — see `topo_mutated_model_is_caught_by_the_space`.

use crate::diff::{Divergence, Oracle};
use crate::model::Effect;
use crate::topo_diff::{TopoDivergence, TopoOracle};
use crate::topo_model::{TopoEffect, TopoMutation};
use crate::topo_trace::{TopoDoc, TopoEvent};
use crate::trace::{TraceDoc, TraceEvent};
use rda_core::{
    BreakerConfig, Demand, LayerId, LayerSet, LayerSpec, OverloadConfig, PolicyKind, RdaConfig,
    ShedPolicy, TopoConfig, TopoSpec,
};
use rda_simcore::Fnv1a64;
use std::collections::HashSet;

/// One step of a process's program. `D` is the engine's demand: LLC
/// bytes for the scalar engine, a [`Demand`] vector for the topology
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op<D = u64> {
    /// `pp_begin` at the given site.
    Begin {
        /// Static call site.
        site: u32,
        /// Declared demand.
        demand: D,
    },
    /// `pp_end` of the `nth` period this process began (0-based). If
    /// that begin allocated no id (audit-rejected) or `nth` is out of
    /// range, a guaranteed-unallocated id is ended instead — still a
    /// legal (rejected) call both machines must agree on.
    End {
        /// Index into this process's begins.
        nth: usize,
    },
    /// `pp_end` of an id that is never allocated (protocol violation).
    EndUnknown,
    /// `process_exit` of this process (remaining ops still run, so ops
    /// after an `Exit` exercise use-after-exit protocol violations).
    Exit,
}

/// A bounded scenario: per-process programs plus free aging ticks.
#[derive(Debug, Clone)]
pub struct Template<D = u64> {
    /// Template name, for reports.
    pub name: String,
    /// One program per process; process id = index.
    pub procs: Vec<Vec<Op<D>>>,
    /// Number of `age_waitlist` ticks interleaved anywhere.
    pub age_ticks: u32,
    /// Virtual cycles between consecutive events (event *k* of a path
    /// runs at `k * step_cycles`), so timeouts and fast-path freshness
    /// are exercised deterministically.
    pub step_cycles: u64,
}

/// An id no template can allocate (`End` past a rejected begin).
const NEVER_ALLOCATED: u64 = 1 << 40;

/// Result of exploring one template under one configuration. A
/// counterexample is a ([`TraceDoc`], [`Divergence`]) pair from
/// [`explore`] and a ([`TopoDoc`], [`TopoDivergence`]) pair from
/// [`explore_topo`].
#[derive(Debug)]
pub struct Exploration<Doc = TraceDoc, Div = Divergence> {
    /// Distinct states visited (= oracle checks performed).
    pub states: u64,
    /// Transitions skipped because the reached state was already seen.
    pub pruned: u64,
    /// Complete interleavings run to the end (leaves of the pruned DFS).
    pub completed: u64,
    /// First divergence found, with the trace that reaches it; `None`
    /// when the whole bounded space agrees.
    pub divergence: Option<(Doc, Div)>,
}

impl<Doc, Div> Exploration<Doc, Div> {
    /// True when the bounded space was fully explored with no
    /// divergence.
    pub fn clean(&self) -> bool {
        self.divergence.is_none()
    }
}

/// What the DFS needs from one engine's lockstep oracle.
pub(crate) trait Explorable: Clone {
    /// The demand an [`Op::Begin`] declares.
    type Demand: Copy;
    /// One replayable call.
    type Event: Copy;
    /// The document a counterexample comes back as.
    type Doc;
    /// A disagreement between implementation and model.
    type Divergence;

    /// `pp_begin` by `process` at `site`.
    fn begin(t: u64, process: u32, site: u32, demand: Self::Demand) -> Self::Event;
    /// `pp_end` of period `pp`.
    fn end(t: u64, pp: u64) -> Self::Event;
    /// `process_exit` of `process`.
    fn exit(t: u64, process: u32) -> Self::Event;
    /// `age_waitlist`.
    fn age(t: u64) -> Self::Event;
    /// Apply `event` to both machines; on agreement, the period id the
    /// call allocated (a begin that ran or paused), if any.
    fn step(&mut self, event: &Self::Event) -> Result<Option<u64>, Box<Self::Divergence>>;
    /// Fold the state that distinguishes DFS nodes into the memo key.
    fn fold_state(&self, h: &mut Fnv1a64);
    /// The replayable document of a counterexample path: the oracle's
    /// configuration plus `events`.
    fn doc(&self, events: Vec<Self::Event>) -> Self::Doc;
}

impl Explorable for Oracle {
    type Demand = u64;
    type Event = TraceEvent;
    type Doc = TraceDoc;
    type Divergence = Divergence;

    fn begin(t: u64, process: u32, site: u32, amount: u64) -> TraceEvent {
        TraceEvent::Begin {
            t,
            process,
            site,
            amount,
        }
    }
    fn end(t: u64, pp: u64) -> TraceEvent {
        TraceEvent::End { t, pp }
    }
    fn exit(t: u64, process: u32) -> TraceEvent {
        TraceEvent::Exit { t, process }
    }
    fn age(t: u64) -> TraceEvent {
        TraceEvent::Age { t }
    }
    fn step(&mut self, event: &TraceEvent) -> Result<Option<u64>, Box<Divergence>> {
        Ok(match self.apply(event)? {
            Effect::Run { pp, .. } | Effect::Pause { pp, .. } => Some(pp.0),
            _ => None,
        })
    }
    fn fold_state(&self, h: &mut Fnv1a64) {
        h.write_u64(self.snapshot().digest());
        h.write_u64(self.ext().fastpath_digest());
        h.write_u64(self.model().cache_digest());
        h.write_u64(self.model().breaker_digest());
    }
    fn doc(&self, events: Vec<TraceEvent>) -> TraceDoc {
        TraceDoc {
            cfg: self.ext().config().clone(),
            events,
        }
    }
}

impl Explorable for TopoOracle {
    type Demand = Demand;
    type Event = TopoEvent;
    type Doc = TopoDoc;
    type Divergence = TopoDivergence;

    fn begin(t: u64, process: u32, site: u32, demand: Demand) -> TopoEvent {
        TopoEvent::Begin {
            t,
            process,
            site,
            demand,
        }
    }
    fn end(t: u64, pp: u64) -> TopoEvent {
        TopoEvent::End { t, pp }
    }
    fn exit(t: u64, process: u32) -> TopoEvent {
        TopoEvent::Exit { t, process }
    }
    fn age(t: u64) -> TopoEvent {
        TopoEvent::Age { t }
    }
    fn step(&mut self, event: &TopoEvent) -> Result<Option<u64>, Box<TopoDivergence>> {
        Ok(match self.apply(event)? {
            TopoEffect::Run { pp } | TopoEffect::Pause { pp, .. } => Some(pp.0),
            _ => None,
        })
    }
    fn fold_state(&self, h: &mut Fnv1a64) {
        h.write_u64(self.snapshot().digest());
        h.write_u64(self.model().breaker_digest());
    }
    fn doc(&self, events: Vec<TopoEvent>) -> TopoDoc {
        TopoDoc {
            cfg: self.ext().config().clone(),
            events,
        }
    }
}

struct Dfs<'a, O: Explorable> {
    tpl: &'a Template<O::Demand>,
    seen: HashSet<u64>,
    states: u64,
    pruned: u64,
    completed: u64,
}

/// A node of the interleaving tree.
#[derive(Clone)]
struct Node<O: Explorable> {
    oracle: O,
    /// Next op index per process.
    pcs: Vec<usize>,
    /// Aging ticks already spent.
    ages: u32,
    /// Allocated pp ids per process, in begin order.
    begun: Vec<Vec<u64>>,
    /// Events applied so far (the path; a replayable trace).
    events: Vec<O::Event>,
}

impl<O: Explorable> Dfs<'_, O> {
    fn memo_key(&self, node: &Node<O>) -> u64 {
        let mut h = Fnv1a64::new();
        for &pc in &node.pcs {
            h.write_usize(pc);
        }
        h.write_u64(node.ages as u64);
        node.oracle.fold_state(&mut h);
        h.finish()
    }

    /// Explore all successors of `node`. Returns the first divergence.
    fn walk(&mut self, node: &Node<O>) -> Option<(O::Doc, O::Divergence)> {
        let depth = node.pcs.iter().sum::<usize>() + node.ages as usize;
        let t = (depth as u64 + 1) * self.tpl.step_cycles;

        // Moves: one ready op per process, plus an aging tick.
        let mut moves: Vec<Option<usize>> = (0..self.tpl.procs.len())
            .filter(|&p| node.pcs[p] < self.tpl.procs[p].len())
            .map(Some)
            .collect();
        if node.ages < self.tpl.age_ticks {
            moves.push(None);
        }
        let any_move = !moves.is_empty();
        for mv in moves {
            let mut child = node.clone();
            let event = match mv {
                Some(p) => {
                    child.pcs[p] += 1;
                    let process = p as u32;
                    match self.tpl.procs[p][node.pcs[p]] {
                        Op::Begin { site, demand } => O::begin(t, process, site, demand),
                        Op::End { nth } => {
                            let pp = node.begun[p].get(nth).copied();
                            O::end(t, pp.unwrap_or(NEVER_ALLOCATED))
                        }
                        Op::EndUnknown => O::end(t, NEVER_ALLOCATED),
                        Op::Exit => O::exit(t, process),
                    }
                }
                None => {
                    child.ages += 1;
                    O::age(t)
                }
            };
            child.events.push(event);
            match child.oracle.step(&event) {
                Err(div) => return Some((child.oracle.doc(child.events), *div)),
                Ok(Some(pp)) => {
                    if let Some(p) = mv {
                        child.begun[p].push(pp);
                    }
                }
                Ok(None) => {}
            }
            let key = self.memo_key(&child);
            if !self.seen.insert(key) {
                self.pruned += 1;
                continue;
            }
            self.states += 1;
            if let Some(found) = self.walk(&child) {
                return Some(found);
            }
        }
        if !any_move {
            self.completed += 1;
        }
        None
    }
}

/// Explore every interleaving of `tpl` from the fresh `oracle`.
fn run<O: Explorable>(oracle: O, tpl: &Template<O::Demand>) -> Exploration<O::Doc, O::Divergence> {
    let mut dfs = Dfs {
        tpl,
        seen: HashSet::new(),
        states: 0,
        pruned: 0,
        completed: 0,
    };
    let root = Node {
        oracle,
        pcs: vec![0; tpl.procs.len()],
        ages: 0,
        begun: vec![Vec::new(); tpl.procs.len()],
        events: Vec::new(),
    };
    let divergence = dfs.walk(&root);
    Exploration {
        states: dfs.states,
        pruned: dfs.pruned,
        completed: dfs.completed,
        divergence,
    }
}

/// Exhaustively explore every interleaving of `tpl` under `cfg`.
pub fn explore(cfg: &RdaConfig, tpl: &Template) -> Exploration {
    run(Oracle::new(cfg.clone()), tpl)
}

/// Exhaustively explore every interleaving of the topology template
/// `tpl` under `cfg`, with the model optionally carrying an injected
/// [`TopoMutation`] (pass [`TopoMutation::None`] for real checking).
pub fn explore_topo(
    cfg: &TopoConfig,
    tpl: &Template<Demand>,
    mutation: TopoMutation,
) -> Exploration<TopoDoc, TopoDivergence> {
    run(TopoOracle::with_mutation(cfg.clone(), mutation), tpl)
}

impl Template {
    /// The acceptance-gate template: three processes contending for the
    /// LLC with demands sized against `llc_capacity` so every admission
    /// class is reachable (two fit together, all three never do
    /// nominally), each process running two begin/end pairs, plus one
    /// aging tick. Explore under both Strict and Compromise.
    pub fn three_process_contention(llc_capacity: u64) -> Template {
        let cap = llc_capacity;
        let b = |site, frac_num: u64| Op::Begin {
            site,
            demand: cap * frac_num / 16,
        };
        Template {
            name: "three-process-contention".into(),
            // 8/16 + 6/16 fit together under Strict; +10/16 does not,
            // but fits under Compromise ×2; repeats exercise the fast
            // path and waitlist requeueing.
            procs: vec![
                vec![b(0, 8), Op::End { nth: 0 }, b(0, 8), Op::End { nth: 1 }],
                vec![b(1, 6), Op::End { nth: 0 }, b(1, 6), Op::End { nth: 1 }],
                vec![b(2, 10), Op::End { nth: 0 }, b(2, 10), Op::End { nth: 1 }],
            ],
            age_ticks: 1,
            step_cycles: 400,
        }
    }

    /// Protocol-violation template: double ends, unknown ends, ends
    /// after exit, exit with a waitlisted period — every `RdaError`
    /// path interleaved with legitimate traffic.
    pub fn faulty_ops(llc_capacity: u64) -> Template {
        let cap = llc_capacity;
        let b = |site, frac_num: u64| Op::Begin {
            site,
            demand: cap * frac_num / 16,
        };
        Template {
            name: "faulty-ops".into(),
            procs: vec![
                // Honest, then a double end.
                vec![b(0, 9), Op::End { nth: 0 }, Op::End { nth: 0 }],
                // Dies holding one admitted period, then ends it anyway.
                vec![b(1, 7), Op::Exit, Op::End { nth: 0 }],
                // Ends a period that never existed, then begins a
                // contended demand it never ends (reaped by nothing —
                // aging or exit must not be required for books to stay
                // consistent).
                vec![Op::EndUnknown, b(2, 12), Op::Exit],
            ],
            age_ticks: 1,
            step_cycles: 400,
        }
    }

    /// Two oversized demands (deadlock-guard territory) against a
    /// fitting third, under aging.
    pub fn oversized_pair(llc_capacity: u64) -> Template {
        let cap = llc_capacity;
        let b = |site, demand| Op::Begin { site, demand };
        Template {
            name: "oversized-pair".into(),
            procs: vec![
                vec![b(0, cap + 1), Op::End { nth: 0 }],
                vec![b(1, cap + 1), Op::End { nth: 0 }],
                vec![b(2, cap / 2), Op::End { nth: 0 }],
            ],
            age_ticks: 2,
            step_cycles: 400,
        }
    }
}

impl Template<Demand> {
    /// The topology acceptance gate: **2 nodes × 2 layers × 3
    /// processes**. A guaranteed Strict "latency" layer shares two
    /// small nodes with a best-effort "batch" layer; the batch demands
    /// are sized so exactly one fits per node *net of the guarantee*
    /// (exact-fit admissions — the class of state the off-by-one
    /// mutation corrupts), while the latency process issues a vector
    /// demand spanning two resource kinds and dies holding it.
    pub fn two_node_two_layer() -> (TopoConfig, Template<Demand>) {
        let layers = LayerSet::new(vec![
            LayerSpec::new("batch", PolicyKind::Strict),
            LayerSpec::new("latency", PolicyKind::Strict).with_guarantee(Demand::llc(40)),
        ])
        .with_assignment(2, LayerId(1));
        let cfg = TopoConfig::new(TopoSpec::uniform(2, 100, 50, 1000), layers)
            .with_waitlist_timeout_cycles(1_200);
        let b = |site, demand| Op::Begin { site, demand };
        let tpl = Template {
            name: "two-node-two-layer".into(),
            procs: vec![
                // Batch: 60 = exactly the 100 − 40 guarantee remainder.
                vec![b(0, Demand::llc(60)), Op::End { nth: 0 }],
                // Batch: a second exact fit plus a double end.
                vec![
                    b(1, Demand::llc(60)),
                    Op::End { nth: 0 },
                    Op::End { nth: 0 },
                ],
                // Latency: a two-kind vector drawn from its guarantee,
                // reclaimed by exit (the multi-resource drain path).
                vec![b(2, Demand::new(30, 45, 0)), Op::Exit],
            ],
            age_ticks: 1,
            step_cycles: 400,
        };
        (cfg, tpl)
    }

    /// Overload on a topology: a waitlist cap of 1 per node, a
    /// deadline, and a single-tick breaker over two 100-LLC nodes. Three
    /// LLC-90 demands fill both nodes and queue the third; process 2's
    /// second demand, a two-kind vector, ties on occupancy, queues on
    /// the same node past the cap, and so reaches the shed policy.
    pub fn two_node_overload(shed: ShedPolicy) -> (TopoConfig, Template<Demand>) {
        let cfg = TopoConfig::new(
            TopoSpec::uniform(2, 100, 50, 1000),
            LayerSet::single(PolicyKind::Strict),
        )
        .with_waitlist_timeout_cycles(1_200)
        .with_overload(OverloadConfig {
            waitlist_cap: 1,
            shed_policy: shed,
            deadline_cycles: Some(900),
            breaker: Some(BreakerConfig {
                high_water: 80,
                low_water: 40,
                trip_after: 1,
                recover_after: 1,
                shed_min_demand: 0,
            }),
        });
        let b = |site, demand| Op::Begin { site, demand };
        let tpl = Template {
            name: "two-node-overload".into(),
            procs: vec![
                vec![b(0, Demand::llc(90)), Op::End { nth: 0 }],
                vec![b(1, Demand::llc(90)), Op::End { nth: 0 }],
                vec![
                    b(2, Demand::llc(90)),
                    b(2, Demand::new(45, 45, 0)),
                    Op::Exit,
                ],
            ],
            age_ticks: 3,
            step_cycles: 400,
        };
        (cfg, tpl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::default_config;
    use rda_core::DemandAudit;

    fn small_cfg(policy: PolicyKind) -> RdaConfig {
        let mut cfg = default_config();
        cfg.policy = policy;
        cfg.llc_capacity = 16_000;
        cfg.demand_audit = DemandAudit::Clamp;
        cfg.waitlist_timeout_cycles = Some(1_200);
        cfg.min_eval_interval_cycles = 1_000;
        cfg
    }

    /// The covered volume: (states, pruned, interleavings).
    fn volume<Doc, Div>(ex: &Exploration<Doc, Div>) -> (u64, u64, u64) {
        (ex.states, ex.pruned, ex.completed)
    }

    const SHED_POLICIES: [ShedPolicy; 3] = [
        ShedPolicy::RejectNewest,
        ShedPolicy::RejectOldest,
        ShedPolicy::DegradeToOverflow,
    ];

    #[test]
    fn two_process_space_is_clean_and_counts_are_sane() {
        let mut tpl = Template::three_process_contention(16_000);
        tpl.procs.truncate(2);
        let ex = explore(&small_cfg(PolicyKind::Strict), &tpl);
        assert!(ex.clean(), "{:?}", ex.divergence.map(|d| d.1.to_string()));
        // Interleavings of two 4-op programs + 1 age tick: C(8,4)*9 =
        // 630 paths; pruning must make states strictly cheaper than
        // enumerating every path's every prefix.
        assert_eq!(volume(&ex), (771, 294, 114));
    }

    #[test]
    fn faulty_space_is_clean_under_both_policies() {
        for (policy, want) in [
            (PolicyKind::Strict, (2_806, 2_982, 121)),
            (PolicyKind::compromise_default(), (1_867, 2_564, 14)),
        ] {
            let ex = explore(&small_cfg(policy), &Template::faulty_ops(16_000));
            assert!(
                ex.clean(),
                "{policy}: {}",
                ex.divergence.map(|d| d.1.to_string()).unwrap_or_default()
            );
            assert_eq!(volume(&ex), want, "{policy}");
        }
    }

    #[test]
    fn oversized_space_is_clean() {
        let ex = explore(
            &small_cfg(PolicyKind::Strict),
            &Template::oversized_pair(16_000),
        );
        assert!(
            ex.clean(),
            "{}",
            ex.divergence.map(|d| d.1.to_string()).unwrap_or_default()
        );
        assert_eq!(volume(&ex), (3_809, 1_059, 909));
    }

    #[test]
    fn overload_space_is_clean_for_every_shed_policy() {
        let wants = [
            (4_623, 2_749, 611),
            (4_640, 2_762, 611),
            (5_535, 3_087, 788),
        ];
        for (policy, want) in SHED_POLICIES.into_iter().zip(wants) {
            let mut cfg = small_cfg(PolicyKind::Strict);
            cfg.overload = Some(OverloadConfig {
                waitlist_cap: 1,
                shed_policy: policy,
                deadline_cycles: Some(900),
                breaker: Some(BreakerConfig {
                    high_water: 12_000,
                    low_water: 6_000,
                    trip_after: 1,
                    recover_after: 1,
                    shed_min_demand: 0,
                }),
            });
            let b = |site, demand| Op::Begin { site, demand };
            // Three 9/16-capacity demands: any two overflow a 16 000
            // LLC, so every interleaving exercises the bounded gate,
            // the deadline (900 < 3 steps), aging (1 200), and the
            // single-tick breaker hysteresis.
            let tpl = Template {
                name: "overload".into(),
                procs: vec![
                    vec![b(0, 9_000), Op::End { nth: 0 }],
                    vec![b(1, 9_000), Op::End { nth: 0 }],
                    vec![b(2, 9_000), Op::Exit],
                ],
                age_ticks: 3,
                step_cycles: 400,
            };
            let ex = explore(&cfg, &tpl);
            assert!(
                ex.clean(),
                "{policy:?}: {}",
                ex.divergence.map(|d| d.1.to_string()).unwrap_or_default()
            );
            assert_eq!(volume(&ex), want, "{policy:?}");
        }
    }

    #[test]
    fn topo_two_node_two_layer_space_is_clean() {
        let (cfg, tpl) = Template::two_node_two_layer();
        let ex = explore_topo(&cfg, &tpl, TopoMutation::None);
        assert!(
            ex.clean(),
            "{}",
            ex.divergence.map(|d| d.1.to_string()).unwrap_or_default()
        );
        assert_eq!(volume(&ex), (233, 378, 1));
    }

    #[test]
    fn topo_overload_space_is_clean_for_every_shed_policy() {
        // Distinct volumes per policy: the shed policy decides.
        let wants = [
            (6_139, 6_415, 261),
            (6_869, 7_200, 296),
            (6_884, 7_230, 289),
        ];
        for (shed, want) in SHED_POLICIES.into_iter().zip(wants) {
            let (cfg, tpl) = Template::two_node_overload(shed);
            let ex = explore_topo(&cfg, &tpl, TopoMutation::None);
            assert!(
                ex.clean(),
                "{shed:?}: {}",
                ex.divergence.map(|d| d.1.to_string()).unwrap_or_default()
            );
            assert_eq!(volume(&ex), want, "{shed:?}");
        }
    }

    /// The permanent mutation self-test: with the `>=`→`>` off-by-one
    /// injected into the topology model's admission predicate, the
    /// explorer must surface a counterexample — and the counterexample
    /// must be a replayable trace that pinpoints an exact-fit
    /// admission. If this test ever starts passing with
    /// `clean() == true`, the checker has lost the sensitivity that
    /// justifies trusting its green runs.
    #[test]
    fn topo_mutated_model_is_caught_by_the_space() {
        let (cfg, tpl) = Template::two_node_two_layer();
        let ex = explore_topo(&cfg, &tpl, TopoMutation::StrictOffByOne);
        let (doc, div) = ex
            .divergence
            .expect("the injected off-by-one must produce a counterexample");
        assert!(div.detail.contains("mismatch"), "{div}");
        // The counterexample is a replayable artifact: it round-trips
        // through the text format and ends on the diverging event.
        let reparsed = TopoDoc::parse(&doc.to_text()).expect("counterexample parses");
        assert_eq!(reparsed, doc);
        assert_eq!(
            doc.events.len(),
            div.step + 1,
            "trace ends at the divergence"
        );
    }
}
