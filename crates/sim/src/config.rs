//! Simulation configuration.

use crate::faults::FaultConfig;
use rda_core::{DemandAudit, PolicyKind};
use rda_machine::MachineConfig;
use rda_simcore::SimDuration;

/// Everything a [`crate::SystemSim`] needs besides the workload.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The simulated machine (Table 1 by default).
    pub machine: MachineConfig,
    /// Scheduling policy under test.
    pub policy: PolicyKind,
    /// Seed of the deterministic timeslice-jitter stream. The sweep
    /// runner derives one per run from its root seed
    /// (`SplitMix64::derive_stream`) so replicated runs observe
    /// independent jitter while staying exactly reproducible.
    pub jitter_seed: u64,
    /// Demand-audit mode forwarded to the RDA extension (`Trust` is the
    /// paper's behaviour).
    pub demand_audit: DemandAudit,
    /// Waitlist-aging timeout forwarded to the RDA extension (`None`
    /// disables aging, the paper's behaviour).
    pub waitlist_timeout: Option<SimDuration>,
    /// Fault injection: when set, a deterministic [`crate::faults::FaultPlan`]
    /// is expanded from `jitter_seed` and applied to the workload.
    pub faults: Option<FaultConfig>,
    /// Record every call the simulator makes into the RDA extension as
    /// a [`crate::system::RdaCall`], retrievable from
    /// [`crate::SystemSim::rda_calls`] after the run. Off by default
    /// (sweeps do not pay for a log they never read); `rda-check`
    /// converts the log into a replayable `.trace` document for
    /// differential checking against the reference model.
    pub record_rda_calls: bool,
    /// Observability: when set, a [`rda_trace::TraceSink`] with the
    /// default event capacity ([`rda_trace::TraceConfig::default`]) is
    /// installed in the RDA extension, the run records its occupancy
    /// track (the books and busy cores in force over each step, kept as
    /// change points from cycle 0 to the final instant), and
    /// [`crate::system::RunResult::trace`] carries the frozen
    /// [`rda_trace::TraceReport`]. Off by default; tracing is
    /// digest-neutral (it never feeds back into scheduling).
    pub trace: bool,
}

/// Historical default jitter seed; kept so single-run behaviour (and
/// every checked-in expectation) is unchanged from before the sweep
/// runner existed.
pub const DEFAULT_JITTER_SEED: u64 = 0x0005_c4ed_1234;

impl SimConfig {
    /// Paper-default configuration for a given policy.
    pub fn paper_default(policy: PolicyKind) -> Self {
        SimConfig {
            machine: MachineConfig::xeon_e5_2420(),
            policy,
            jitter_seed: DEFAULT_JITTER_SEED,
            demand_audit: DemandAudit::Trust,
            waitlist_timeout: None,
            faults: None,
            record_rda_calls: false,
            trace: false,
        }
    }

    /// Use the given timeslice-jitter seed.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Use the given demand-audit mode.
    pub fn with_demand_audit(mut self, audit: DemandAudit) -> Self {
        self.demand_audit = audit;
        self
    }

    /// Enable waitlist aging with the given timeout in milliseconds.
    pub fn with_waitlist_timeout_ms(mut self, ms: f64) -> Self {
        self.waitlist_timeout = Some(SimDuration::from_micros(ms * 1e3, self.machine.freq_hz));
        self
    }

    /// Inject faults per the given configuration (see [`crate::faults`];
    /// consider enabling waitlist aging alongside).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Record the RDA call log for later differential replay.
    pub fn with_rda_trace(mut self) -> Self {
        self.record_rda_calls = true;
        self
    }

    /// Enable observability tracing (see [`SimConfig::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = SimConfig::paper_default(PolicyKind::Strict);
        assert!(c.machine.validate().is_ok());
        assert_eq!(c.policy, PolicyKind::Strict);
        // Robustness defaults: the paper's behaviour.
        assert_eq!(c.demand_audit, DemandAudit::Trust);
        assert_eq!(c.waitlist_timeout, None);
        assert_eq!(c.faults, None);
        assert!(!c.trace, "tracing is strictly opt-in");
    }

    #[test]
    fn trace_builders_set_capacities() {
        // The flag is the whole setting: `SystemSim::new` installs a
        // sink with `TraceConfig::default()`'s event capacity. Tracing and
        // the call log are independent.
        let c = SimConfig::paper_default(PolicyKind::Strict).with_trace();
        assert!(c.trace);
        assert!(!c.record_rda_calls);
    }

    #[test]
    fn robustness_builders_compose() {
        let c = SimConfig::paper_default(PolicyKind::Strict)
            .with_demand_audit(DemandAudit::Clamp)
            .with_waitlist_timeout_ms(5.0)
            .with_faults(FaultConfig::uniform(0.1));
        assert_eq!(c.demand_audit, DemandAudit::Clamp);
        let timeout = c.waitlist_timeout.expect("timeout set");
        // 5 ms at 1.9 GHz.
        assert_eq!(timeout.cycles(), (5e-3 * c.machine.freq_hz) as u64);
        assert!(c.faults.is_some());
    }
}
