//! End-to-end verification of the multi-resource NUMA topology engine:
//! recorded open-system schedules replayed through the topology
//! reference model, property tests over arbitrary fault+overload
//! configurations, thread-invariant sweep digests, and the
//! cross-engine compatibility argument (scalar vs 1-node topology).

use proptest::prelude::*;
use rda_check::{replay, replay_lifted, Effect, GenParams, TopoDoc, TraceDoc};
use rda_core::{
    mb, BreakerConfig, Demand, LayerId, LayerSet, LayerSpec, OverloadConfig, PolicyKind, PpId,
    RdaConfig, ShedPolicy, TopoConfig, TopoSpec,
};
use rda_integration::{decided, without_fast};
use rda_machine::MachineConfig;
use rda_sim::runner::sweep_digest;
use rda_sim::{
    run_pool, FaultConfig, TopoClass, TopoTrafficConfig, TopoTrafficResult, TopoTrafficSim,
    TrafficConfig, TrafficResult, TrafficSim,
};
use rda_simcore::SplitMix64;

const SHED_POLICIES: [ShedPolicy; 3] = [
    ShedPolicy::RejectNewest,
    ShedPolicy::RejectOldest,
    ShedPolicy::DegradeToOverflow,
];

/// A two-node, three-resource box with a guaranteed latency layer —
/// the satellite's canonical "2-node/3-resource" shape.
fn two_node_three_resource(shed: ShedPolicy) -> TopoConfig {
    let layers = LayerSet::new(vec![
        LayerSpec::new("batch", PolicyKind::Strict),
        LayerSpec::new("latency", PolicyKind::Strict).with_guarantee(Demand::new(
            4 << 20,
            1_000,
            64 << 20,
        )),
    ]);
    TopoConfig::new(TopoSpec::uniform(2, 15_360 << 10, 6_000, 1 << 30), layers)
        .with_waitlist_timeout_cycles(40_000_000)
        .with_overload(OverloadConfig {
            waitlist_cap: 8,
            shed_policy: shed,
            deadline_cycles: Some(30_000_000),
            breaker: Some(BreakerConfig {
                high_water: 14 << 20,
                low_water: 8 << 20,
                trip_after: 3,
                recover_after: 3,
                shed_min_demand: 1 << 20,
            }),
        })
}

/// Traffic whose demand vectors touch all three resource kinds.
fn three_resource_traffic(rate_per_sec: f64, duration_secs: f64) -> TopoTrafficConfig {
    let mut t = TopoTrafficConfig::two_tenant(rate_per_sec, duration_secs);
    t.classes = vec![
        TopoClass {
            demand: Demand::new(2 << 20, 400, 64 << 20),
            weight: 0.5,
            layer: LayerId(0),
        },
        TopoClass {
            demand: Demand::new(512 << 10, 900, 16 << 20),
            weight: 0.3,
            layer: LayerId(1),
        },
        TopoClass {
            demand: Demand::new(8 << 20, 1_500, 256 << 20),
            weight: 0.2,
            layer: LayerId(0),
        },
    ];
    t
}

/// The acceptance gate: recorded multi-node overload+fault schedules
/// replay call-for-call through the topology reference model with zero
/// divergence, under every shed policy.
#[test]
fn recorded_topo_overload_fault_schedules_replay_with_zero_divergence() {
    for shed in SHED_POLICIES {
        let mut traffic = three_resource_traffic(15_000.0, 0.05);
        traffic.record_calls = true;
        let sim = TopoTrafficSim::new(traffic, two_node_three_resource(shed))
            .with_faults(FaultConfig::uniform(0.08));
        let result = sim.run(17);
        assert!(result.rda.shed > 0, "{shed:?}: schedule never overloaded");
        let doc = TopoDoc {
            cfg: result.config.expect("the run reports its configuration"),
            events: result.calls.expect("record_calls retains the schedule"),
        };
        let report =
            rda_check::replay_topo(&doc).unwrap_or_else(|d| panic!("{shed:?}: diverged: {d}"));
        assert_eq!(report.steps, doc.events.len(), "{shed:?}");
        assert!(
            report.final_snapshot.is_idle(),
            "{shed:?}: drained schedule must end idle"
        );
        assert!(
            report
                .effects
                .iter()
                .any(|e| matches!(e, Effect::Pause { .. })),
            "{shed:?}: schedule never queued — not an overload test"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite 1, first half: for arbitrary fault+overload schedules
    /// on 2-node/3-resource topologies, all per-node books return to
    /// exactly zero after drain (and the engine's internal invariants
    /// hold throughout — checked inside the run).
    #[test]
    fn arbitrary_fault_overload_schedules_drain_to_zero(
        seed in 0u64..1_000_000,
        rate in 2_000.0f64..25_000.0,
        fault_rate in 0.0f64..0.25,
        shed_idx in 0usize..3,
    ) {
        let traffic = three_resource_traffic(rate, 0.02);
        let mut sim = TopoTrafficSim::new(
            traffic,
            two_node_three_resource(SHED_POLICIES[shed_idx]),
        );
        if fault_rate > 0.0 {
            sim = sim.with_faults(FaultConfig::uniform(fault_rate));
        }
        let r = sim.run(seed);
        prop_assert!(
            r.drained_idle,
            "books must return to exactly zero after drain: {r:?}"
        );
        prop_assert_eq!(
            r.completed + r.failed + r.expired + r.killed + r.stranded,
            r.arrivals
        );
    }

    /// Satellite 1, second half: sweep digests are bit-identical
    /// serial vs 8 threads for arbitrary root seeds.
    #[test]
    fn sweep_digests_are_bit_identical_serial_vs_eight_threads(
        root_seed in 0u64..1_000_000,
    ) {
        let sweep = |threads| {
            let cells = run_pool(SHED_POLICIES.len(), threads, |i| {
                let topo = two_node_three_resource(SHED_POLICIES[i]);
                let mut sim = TopoTrafficSim::new(three_resource_traffic(12_000.0, 0.02), topo);
                if i % 2 == 0 {
                    sim = sim.with_faults(FaultConfig::uniform(0.1));
                }
                sim.run(SplitMix64::derive_stream(root_seed, i as u64)).digest()
            });
            sweep_digest(cells.into_iter().enumerate())
        };
        prop_assert_eq!(sweep(1), sweep(8));
    }
}

/// DESIGN.md §9's compatibility argument, exact: a scalar schedule and
/// its lift onto `TopoConfig::compat` agree call for call — outcome,
/// period id, shed victim, resumed and expired lists in order, error
/// and payload — under every policy, audit mode, overload gate, deadline,
/// breaker and aging setting `random_doc` draws, backward clock steps
/// and near-`u64::MAX` declarations that reach the wrap guard included.
/// At the end their snapshots are equal, fast-path counters zeroed.
#[test]
fn random_scalar_schedules_agree_with_their_topology_lift() {
    for seed in 0..256 {
        let doc = rda_check::random_doc(seed, &GenParams::default());
        let scalar = replay(&doc).unwrap_or_else(|d| panic!("seed {seed}: scalar diverged: {d}"));
        let lifted =
            replay_lifted(&doc).unwrap_or_else(|d| panic!("seed {seed}: lift diverged: {d}"));
        for (step, (s, t)) in scalar.effects.iter().zip(&lifted.effects).enumerate() {
            let event = &doc.events[step];
            assert_eq!(without_fast(s), *t, "seed {seed}, step {step}: {event:?}");
        }
        let mut want = scalar.final_snapshot;
        want.stats = decided(want.stats);
        assert_eq!(want, lifted.final_snapshot, "seed {seed}");
    }
}

/// A zero-byte period on an oversubscribed LLC runs in both engines:
/// a zero component is unconstrained, so the shared fit test admits it
/// even once the deadlock guard has admitted a 2 000-byte period into a
/// 1 000-byte cache — where the literal pseudocode's `remaining − 0`
/// is negative.
#[test]
fn zero_byte_period_on_an_oversubscribed_llc_runs_in_both_engines() {
    let doc = TraceDoc::parse("policy strict\nllc 1000\nbegin 0 0 0 llc 2000\nbegin 1 1 1 llc 0\n")
        .unwrap();
    let scalar = replay(&doc).unwrap();
    let lifted = replay_lifted(&doc).unwrap();
    let run = Effect::Run {
        pp: PpId(1),
        fast: false,
    };
    assert_eq!(scalar.effects[1], run);
    assert_eq!(lifted.effects[1], run);
}

/// One `web_default` plan (seed 3) through the scalar traffic engine,
/// and through the topology engine on `TopoConfig::compat` with each
/// class lifted to an LLC-only vector on layer 0.
fn both_engines(rda: RdaConfig, rate: f64, faults: f64) -> (TrafficResult, TopoTrafficResult) {
    let traffic = TrafficConfig::web_default(rate, 0.1);
    let lifted = TopoTrafficConfig {
        pattern: traffic.pattern,
        duration_secs: traffic.duration_secs,
        cycles_per_sec: traffic.cycles_per_sec,
        classes: traffic
            .demand_classes
            .iter()
            .map(|&(bytes, weight)| TopoClass {
                demand: Demand::llc(bytes),
                weight,
                layer: LayerId(0),
            })
            .collect(),
        mean_service_cycles: traffic.mean_service_cycles,
        max_attempts: traffic.max_attempts,
        backoff_base_cycles: traffic.backoff_base_cycles,
        age_tick_cycles: traffic.age_tick_cycles,
        record_calls: false,
        sample_occupancy: false,
    };
    let compat = TopoConfig::compat(&rda);
    let mut scalar = TrafficSim::new(traffic, rda);
    let mut topo = TopoTrafficSim::new(lifted, compat);
    if faults > 0.0 {
        scalar = scalar.with_faults(FaultConfig::uniform(faults));
        topo = topo.with_faults(FaultConfig::uniform(faults));
    }
    (scalar.run(3), topo.run(3))
}

/// Both traffic engines share one event loop; on the compat shape they
/// must also decide every request alike, across policy × overload
/// control × aging × rate × faults.
#[test]
fn scalar_and_compat_topology_traffic_agree() {
    let policies = [
        PolicyKind::Strict,
        PolicyKind::Compromise { factor: 2.0 },
        PolicyKind::Partitioned { quota_frac: 0.5 },
        PolicyKind::DefaultOnly,
    ];
    let mut overloads = vec![None];
    overloads.extend(SHED_POLICIES.map(|shed_policy| {
        Some(OverloadConfig {
            waitlist_cap: 16,
            shed_policy,
            deadline_cycles: Some(40_000_000),
            breaker: Some(BreakerConfig {
                high_water: mb(14.0),
                low_water: mb(8.0),
                trip_after: 4,
                recover_after: 4,
                shed_min_demand: mb(1.0),
            }),
        })
    }));
    let mut cells = Vec::new();
    for policy in policies {
        for &overload in &overloads {
            for aging in [None, Some(20_000_000)] {
                for rate in [4_000.0, 20_000.0] {
                    for faults in [0.0, 0.05, 0.3] {
                        cells.push((policy, overload, aging, rate, faults));
                    }
                }
            }
        }
    }
    assert_eq!(cells.len(), 192);
    // The fast-path counters are the one place the two engines' books
    // may differ.
    let mut exercised = [0u64; 5];
    for (policy, overload, aging, rate, faults) in cells {
        let mut rda = RdaConfig::for_machine(&MachineConfig::xeon_e5_2420(), policy);
        rda.overload = overload;
        rda.waitlist_timeout_cycles = aging;
        let (s, t) = both_engines(rda, rate, faults);
        let cell = format!(
            "{policy:?}, {:?}, aging {aging:?}, {rate} req/s, faults {faults}",
            overload.map(|o| o.shed_policy)
        );
        assert_eq!(
            (s.arrivals, s.completed, s.failed, s.retries),
            (t.arrivals, t.completed, t.failed, t.retries),
            "arrivals, completions, failures, retries: {cell}"
        );
        assert_eq!(
            (s.expired, s.killed, s.stranded),
            (t.expired, t.killed, t.stranded),
            "expiries, kills, strandings: {cell}"
        );
        assert_eq!(
            (s.sojourn.nonzero_buckets(), s.sojourn.max()),
            (t.sojourn.nonzero_buckets(), t.sojourn.max()),
            "sojourn: {cell}"
        );
        assert_eq!((t.rda.fast_begins, t.rda.fast_ends), (0, 0), "{cell}");
        assert_eq!(decided(s.rda), decided(t.rda), "RdaStats: {cell}");
        let paths = [
            s.rda.shed,
            s.rda.expired,
            s.rda.breaker_trips,
            s.rda.aged_admissions,
            s.killed,
        ];
        for (n, p) in exercised.iter_mut().zip(paths) {
            *n += p;
        }
    }
    // The shed, expiry, breaker, aging and kill paths all ran.
    assert!(exercised.iter().all(|&n| n > 0), "{exercised:?}");
}
