//! Host crate for the integration tests in `tests/tests/`.
//!
//! The tests span the full stack: instrumented workloads → profiler →
//! progress-period annotations → RDA extension → CFS substrate →
//! machine model → measurements.
//!
//! The library holds what several test files share: comparing a scalar
//! replay with its topology lift call for call. Both engines report the
//! same call effects and snapshots; only the scalar fast path's marks
//! differ, and these helpers clear them.

use rda_check::Effect;
use rda_core::RdaStats;

/// A call effect with its fast-path flag cleared.
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
