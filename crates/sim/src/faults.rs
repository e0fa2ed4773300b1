//! Deterministic fault injection for the system simulation.
//!
//! The paper's prototype assumes cooperative applications; the
//! robustness layer in `rda-core` exists precisely because real ones
//! are not. This module generates the misbehaviour: a [`FaultConfig`]
//! gives per-event probabilities, and [`FaultPlan::generate`] expands
//! them — **ahead of the run, from a dedicated RNG stream** — into a
//! concrete per-process, per-phase schedule of
//!
//! * **leaked ends** — the phase completes but never calls `pp_end`;
//!   the period stays in the registry until process exit reclaims it;
//! * **double ends** — the phase calls `pp_end` twice; the second call
//!   must come back as a typed [`rda_core::RdaError::DoubleEnd`];
//! * **kills** — the process dies at the end of a phase (holding its
//!   open period) or while waitlisted entering one;
//! * **demand lies** — the declared demand is inflated or deflated by a
//!   factor while the actual cache footprint is unchanged.
//!
//! Pre-expanding the plan keeps the simulation's *jitter* stream
//! untouched by fault decisions: the plan is a pure function of
//! `(seed, per-process phase counts, FaultConfig)`, so a faulty sweep
//! is exactly as reproducible — and as thread-count-independent — as a
//! clean one. A closed workload passes its spec's phase counts, open
//! traffic ([`crate::traffic`]) one phase per request; so the plan is
//! stored flat (one kill phase per process, one [`PhaseFault`] per
//! phase, process-major), not as one allocation per process.
//!
//! Note that faulty workloads should enable waitlist aging
//! ([`crate::SimConfig::with_waitlist_timeout_ms`]): a process that
//! leaks a period and then waitlists itself behind it can otherwise
//! deadlock the admission books until it exits.

use rda_simcore::SplitMix64;

/// Stream salt separating the fault-plan RNG from the timeslice-jitter
/// RNG derived from the same per-cell seed.
pub const FAULT_PLAN_STREAM: u64 = 0xFA17_0000_0000_0001;

/// Per-event fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a tracked phase never calls `pp_end`.
    pub leak_end_rate: f64,
    /// Probability a tracked phase calls `pp_end` twice.
    pub double_end_rate: f64,
    /// Probability a process is killed at (or entering) a given phase.
    pub kill_rate: f64,
    /// Probability a tracked phase lies about its demand.
    pub lie_rate: f64,
    /// Multiplier range `[lo, hi)` applied to a lying declaration.
    pub lie_factor_range: (f64, f64),
}

impl FaultConfig {
    /// All fault classes at the same rate, with lies spanning a 0.25–4×
    /// misdeclaration.
    pub fn uniform(rate: f64) -> Self {
        FaultConfig {
            leak_end_rate: rate,
            double_end_rate: rate,
            kill_rate: rate,
            lie_rate: rate,
            lie_factor_range: (0.25, 4.0),
        }
    }

    /// No faults at all (the plan this expands to injects nothing).
    pub fn none() -> Self {
        FaultConfig {
            leak_end_rate: 0.0,
            double_end_rate: 0.0,
            kill_rate: 0.0,
            lie_rate: 0.0,
            lie_factor_range: (1.0, 1.0),
        }
    }
}

/// Faults injected into one phase of one process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseFault {
    /// Skip the phase's `pp_end` (leaked period).
    pub leak_end: bool,
    /// Call the phase's `pp_end` twice.
    pub double_end: bool,
    /// Multiplier on the declared demand (1.0 = honest).
    pub demand_factor: f64,
}

impl PhaseFault {
    /// An honest, fault-free phase.
    pub const HONEST: PhaseFault = PhaseFault {
        leak_end: false,
        double_end: false,
        demand_factor: 1.0,
    };
}

/// A fully expanded, deterministic fault schedule for a workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Per process: the phase it is killed at, if any (at completion
    /// if it ran, immediately if it waitlisted entering it).
    kill_at: Vec<Option<usize>>,
    /// Per process: where its phases end in `phases` (they start where
    /// the previous process's end).
    ends: Vec<usize>,
    /// Every process's per-phase injections, process-major.
    phases: Vec<PhaseFault>,
}

impl FaultPlan {
    /// The empty plan: nothing is ever injected.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Expand `cfg` into a concrete schedule for processes with the
    /// given phase counts, deterministic in `(seed, phase counts, cfg)`.
    /// The RNG is consumed in a fixed process-major, phase-minor order,
    /// so the same inputs always yield the same plan regardless of
    /// threading or call order.
    pub fn generate(
        phase_counts: impl IntoIterator<Item = usize>,
        cfg: &FaultConfig,
        seed: u64,
    ) -> Self {
        let mut rng = SplitMix64::new(SplitMix64::derive_stream(seed, FAULT_PLAN_STREAM));
        let (lo, hi) = cfg.lie_factor_range;
        let counts = phase_counts.into_iter();
        let procs = counts.size_hint().0;
        let mut plan = FaultPlan {
            kill_at: Vec::with_capacity(procs),
            ends: Vec::with_capacity(procs),
            // Exact for open traffic: one phase per process.
            phases: Vec::with_capacity(procs),
        };
        for count in counts {
            let mut kill_at = None;
            for k in 0..count {
                // Draw every variate unconditionally so the stream
                // position is a pure function of the workload shape,
                // not of earlier outcomes.
                let kill = rng.next_f64() < cfg.kill_rate;
                let leak = rng.next_f64() < cfg.leak_end_rate;
                let double = rng.next_f64() < cfg.double_end_rate;
                let lie = rng.next_f64() < cfg.lie_rate;
                let factor_draw = lo + (hi - lo) * rng.next_f64();
                if kill && kill_at.is_none() {
                    kill_at = Some(k);
                }
                plan.phases.push(PhaseFault {
                    leak_end: leak && !double,
                    double_end: double,
                    demand_factor: if lie { factor_draw } else { 1.0 },
                });
            }
            plan.kill_at.push(kill_at);
            plan.ends.push(plan.phases.len());
        }
        plan
    }

    /// The injections for phase `k` of process `p` (honest when the
    /// plan is empty or out of range).
    pub fn phase(&self, p: usize, k: usize) -> PhaseFault {
        let Some(&end) = self.ends.get(p) else {
            return PhaseFault::HONEST;
        };
        let start = p.checked_sub(1).map_or(0, |q| self.ends[q]);
        if k < end - start {
            self.phases[start + k]
        } else {
            PhaseFault::HONEST
        }
    }

    /// The phase at which process `p` is killed, if any.
    pub fn kill_at(&self, p: usize) -> Option<usize> {
        self.kill_at.get(p).copied().flatten()
    }

    /// Total number of injections scheduled (kills + leaks + double
    /// ends + lies), for reporting.
    pub fn injection_count(&self) -> usize {
        self.kill_at.iter().filter(|k| k.is_some()).count()
            + self
                .phases
                .iter()
                .map(|ph| {
                    ph.leak_end as usize
                        + ph.double_end as usize
                        + (ph.demand_factor != 1.0) as usize
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Phase counts of `procs` processes with `phases` phases each.
    fn shape(procs: usize, phases: usize) -> Vec<usize> {
        vec![phases; procs]
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let plan = FaultPlan::generate(shape(8, 6), &FaultConfig::none(), 42);
        assert_eq!(plan.injection_count(), 0);
        for p in 0..8 {
            assert_eq!(plan.kill_at(p), None);
            for k in 0..6 {
                assert_eq!(plan.phase(p, k), PhaseFault::HONEST);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let s = shape(16, 8);
        let cfg = FaultConfig::uniform(0.3);
        let a = FaultPlan::generate(s.iter().copied(), &cfg, 7);
        let b = FaultPlan::generate(s.iter().copied(), &cfg, 7);
        assert_eq!(a, b);
        let c = FaultPlan::generate(s.iter().copied(), &cfg, 8);
        assert_ne!(a, c, "distinct seeds must yield distinct plans");
    }

    #[test]
    fn full_rates_inject_everywhere() {
        let plan = FaultPlan::generate(shape(4, 3), &FaultConfig::uniform(1.0), 1);
        for p in 0..4 {
            assert_eq!(plan.kill_at(p), Some(0), "kill at the first phase");
            for k in 0..3 {
                let f = plan.phase(p, k);
                // double_end wins over leak_end (mutually exclusive).
                assert!(f.double_end && !f.leak_end);
                assert!(f.demand_factor != 1.0);
            }
        }
    }

    #[test]
    fn lie_factors_stay_in_range() {
        let cfg = FaultConfig::uniform(1.0);
        let plan = FaultPlan::generate(shape(32, 4), &cfg, 99);
        let (lo, hi) = cfg.lie_factor_range;
        for p in 0..32 {
            for k in 0..4 {
                let f = plan.phase(p, k).demand_factor;
                assert!((lo..hi).contains(&f), "factor {f} out of [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn empty_plan_is_honest_everywhere() {
        let plan = FaultPlan::none();
        assert_eq!(plan.phase(3, 5), PhaseFault::HONEST);
        assert_eq!(plan.kill_at(0), None);
        assert_eq!(plan.injection_count(), 0);
    }

    #[test]
    fn moderate_rates_hit_a_plausible_fraction() {
        // 0.2 per event over 64 proc-phases: expect some but not all.
        let plan = FaultPlan::generate(shape(16, 4), &FaultConfig::uniform(0.2), 5);
        let n = plan.injection_count();
        assert!(n > 5, "suspiciously few injections: {n}");
        assert!(n < 64 * 3, "suspiciously many injections: {n}");
    }

    /// The nested layout the flat plan replaced, as a reference: one
    /// kill phase and one `Vec<PhaseFault>` per process, drawn in the
    /// same process-major, phase-minor order.
    struct NestedPlan(Vec<(Option<usize>, Vec<PhaseFault>)>);

    impl NestedPlan {
        fn generate(counts: &[usize], cfg: &FaultConfig, seed: u64) -> Self {
            let mut rng = SplitMix64::new(SplitMix64::derive_stream(seed, FAULT_PLAN_STREAM));
            let (lo, hi) = cfg.lie_factor_range;
            let procs = counts
                .iter()
                .map(|&n| {
                    let mut kill_at_phase = None;
                    let phases = (0..n)
                        .map(|k| {
                            let kill = rng.next_f64() < cfg.kill_rate;
                            let leak = rng.next_f64() < cfg.leak_end_rate;
                            let double = rng.next_f64() < cfg.double_end_rate;
                            let lie = rng.next_f64() < cfg.lie_rate;
                            let factor_draw = lo + (hi - lo) * rng.next_f64();
                            if kill && kill_at_phase.is_none() {
                                kill_at_phase = Some(k);
                            }
                            PhaseFault {
                                leak_end: leak && !double,
                                double_end: double,
                                demand_factor: if lie { factor_draw } else { 1.0 },
                            }
                        })
                        .collect();
                    (kill_at_phase, phases)
                })
                .collect();
            NestedPlan(procs)
        }

        fn phase(&self, p: usize, k: usize) -> PhaseFault {
            self.0
                .get(p)
                .and_then(|(_, phases)| phases.get(k))
                .copied()
                .unwrap_or(PhaseFault::HONEST)
        }

        fn kill_at(&self, p: usize) -> Option<usize> {
            self.0.get(p).and_then(|&(kill, _)| kill)
        }

        fn injection_count(&self) -> usize {
            self.0
                .iter()
                .map(|(kill, phases)| {
                    kill.is_some() as usize
                        + phases
                            .iter()
                            .map(|ph| {
                                ph.leak_end as usize
                                    + ph.double_end as usize
                                    + (ph.demand_factor != 1.0) as usize
                            })
                            .sum::<usize>()
                })
                .sum()
        }
    }

    /// A rate at either extreme or anywhere between.
    fn arb_rate() -> impl Strategy<Value = f64> {
        prop_oneof![1 => Just(0.0), 1 => Just(1.0), 4 => 0.0f64..1.0]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat plan answers every query as the nested layout does,
        /// on ragged shapes with zero-phase processes among the others.
        #[test]
        fn flat_plan_matches_the_nested_reference(
            counts in prop::collection::vec(prop_oneof![1 => Just(0usize), 3 => 1usize..7], 0..24),
            seed in any::<u64>(),
            rates in (arb_rate(), arb_rate(), arb_rate(), arb_rate()),
            lie in (0.1f64..2.0, 0.0f64..3.0),
        ) {
            let cfg = FaultConfig {
                kill_rate: rates.0,
                leak_end_rate: rates.1,
                double_end_rate: rates.2,
                lie_rate: rates.3,
                lie_factor_range: (lie.0, lie.0 + lie.1),
            };
            let flat = FaultPlan::generate(counts.iter().copied(), &cfg, seed);
            let nested = NestedPlan::generate(&counts, &cfg, seed);
            for p in 0..=counts.len() {
                prop_assert_eq!(flat.kill_at(p), nested.kill_at(p));
                for k in 0..=counts.get(p).copied().unwrap_or(0) {
                    prop_assert_eq!(flat.phase(p, k), nested.phase(p, k));
                }
            }
            prop_assert_eq!(flat.injection_count(), nested.injection_count());
        }
    }
}
