//! Host crate for the integration tests in `tests/tests/`.
//!
//! The tests span the full stack: instrumented workloads → profiler →
//! progress-period annotations → RDA extension → CFS substrate →
//! machine model → measurements.
//!
//! The library holds what several test files share: the vocabulary for
//! comparing a scalar replay with its topology lift call for call.

use rda_check::{Effect, TopoEffect};
use rda_core::{RdaError, RdaStats, TopoError};

/// A topology call effect in the scalar vocabulary, fast-path flags
/// false (the topology engine has no fast path).
pub fn as_scalar(effect: &TopoEffect) -> Effect {
    match effect.clone() {
        TopoEffect::Bypass => Effect::Bypass,
        TopoEffect::Run { pp } => Effect::Run { pp, fast: false },
        TopoEffect::Pause { pp, shed } => Effect::Pause { pp, shed },
        TopoEffect::End { resumed } => Effect::End {
            fast: false,
            resumed,
        },
        TopoEffect::Woken { resumed, expired } => Effect::Woken { resumed, expired },
        TopoEffect::Retried => Effect::Retried,
        TopoEffect::Rejected(e) => Effect::Rejected(match e {
            TopoError::UnknownPp(pp) => RdaError::UnknownPp(pp),
            TopoError::DoubleEnd(pp) => RdaError::DoubleEnd(pp),
            TopoError::EndWhileWaitlisted(pp) => RdaError::EndWhileWaitlisted(pp),
            TopoError::DemandOverflow {
                declared, capacity, ..
            } => RdaError::DemandOverflow { declared, capacity },
            TopoError::WaitlistFull { .. } => RdaError::WaitlistFull,
            TopoError::BreakerOpen { .. } => RdaError::BreakerOpen,
            e @ TopoError::InvariantViolation { .. } => panic!("topology engine bug: {e}"),
        }),
    }
}

/// A scalar call effect with its fast-path flag cleared.
pub fn without_fast(effect: &Effect) -> Effect {
    match effect.clone() {
        Effect::Run { pp, .. } => Effect::Run { pp, fast: false },
        Effect::End { resumed, .. } => Effect::End {
            fast: false,
            resumed,
        },
        other => other,
    }
}

/// Counters with the fast-path ones zeroed: the topology engine has no
/// memoised fast path, so its fast-path counters stay zero while the
/// scalar engine's count memo hits.
pub fn decided(mut stats: RdaStats) -> RdaStats {
    stats.fast_begins = 0;
    stats.fast_ends = 0;
    stats
}
