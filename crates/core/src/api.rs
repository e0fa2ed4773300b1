//! The user-level progress-period API types (§2 of the paper).
//!
//! Applications communicate *just-in-time resource demands* to the
//! scheduler by bracketing code regions with `pp_begin` / `pp_end`
//! calls. The call arguments are captured by [`PpDemand`]; the returned
//! unique identifier is a [`PpId`]. A [`SiteId`] names the *static* code
//! location (the loop or function) a period instance belongs to — the
//! profiler assigns these, and the decision fast path memoises per site.

use rda_machine::ReuseLevel;
use std::fmt;

/// Unique identifier of one *dynamic* progress-period instance — the
/// value `pp_begin` returns and `pp_end` takes (Figure 4, line 6/8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PpId(pub u64);

impl fmt::Display for PpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pp#{}", self.0)
    }
}

/// Identifier of a *static* progress-period site: the loop or function
/// in the application that the entry/exit instructions bracket.
/// Repeated executions of the same site produce distinct [`PpId`]s but
/// share a `SiteId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// The demand passed to `pp_begin` (§2.2): working-set size and
/// relative data-reuse level. The paper's call also names the targeted
/// resource; the scalar scheduler tracks only the shared last-level
/// cache, so every demand is an LLC demand. Demand vectors over several
/// resources (memory bandwidth, DRAM capacity) belong to the topology
/// engine ([`crate::topo::TopoExtension`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PpDemand {
    /// The period's LLC working set, bytes.
    pub amount: u64,
    /// How heavily the working set is reused.
    pub reuse: ReuseLevel,
}

impl PpDemand {
    /// An LLC demand (`pp_begin(RESOURCE_LLC, …)`).
    pub fn llc(ws_bytes: u64, reuse: ReuseLevel) -> Self {
        PpDemand {
            amount: ws_bytes,
            reuse,
        }
    }
}

/// Convert megabytes to bytes, mirroring the paper's `MB(6.3)` macro.
pub fn mb(megabytes: f64) -> u64 {
    debug_assert!(megabytes >= 0.0);
    (megabytes * 1024.0 * 1024.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mb_matches_figure4_usage() {
        assert_eq!(mb(1.0), 1024 * 1024);
        assert_eq!(mb(6.3), (6.3f64 * 1024.0 * 1024.0).round() as u64);
        assert_eq!(mb(0.0), 0);
    }

    #[test]
    fn demand_constructor_targets_llc() {
        let d = PpDemand::llc(mb(2.4), ReuseLevel::High);
        assert_eq!(d.amount, mb(2.4));
        assert_eq!(d.reuse, ReuseLevel::High);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PpId(12).to_string(), "pp#12");
        assert_eq!(SiteId(4).to_string(), "site4");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(PpId(1));
        set.insert(PpId(1));
        set.insert(PpId(2));
        assert_eq!(set.len(), 2);
        assert!(PpId(1) < PpId(2));
    }
}
