//! Reconfigurable scheduling policies (§3.3).
//!
//! Algorithm 1's verdict is delegated to a policy that sets the usage
//! ceiling a period's demand must fit under (the fit test itself is
//! [`crate::rules::fits`]):
//!
//! * **RDA: Strict** — never oversubscribe: admit only while usage
//!   stays within capacity. Maximum resource efficiency, possibly
//!   reduced concurrency.
//! * **RDA: Compromise** — admit while total usage stays within
//!   `x ×` capacity (the paper configures the oversubscription factor
//!   `x = 2`). Balances efficiency against concurrency.
//! * **DefaultOnly** — never gate anything; this *is* the underlying
//!   OS scheduler, used as the baseline in every experiment.
//! * **Partitioned** — future-work prototype (§6): demands above a
//!   quota are admitted but clamped, modelling a cache partition that
//!   bounds the damage an oversized period can do.

use std::fmt;

/// The available policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Pass everything straight to the default scheduler (baseline).
    DefaultOnly,
    /// Deny any demand that would exceed nominal capacity.
    Strict,
    /// Allow usage up to `factor ×` capacity.
    Compromise {
        /// The oversubscription factor `x` (the paper uses 2.0).
        factor: f64,
    },
    /// Future work (§6): admit, but account at most `quota_frac` of
    /// capacity for any single period, as a hardware partition would.
    Partitioned {
        /// Largest capacity fraction a single period may occupy.
        quota_frac: f64,
    },
}

impl PolicyKind {
    /// The paper's compromise configuration (`x = 2`).
    pub fn compromise_default() -> Self {
        PolicyKind::Compromise { factor: 2.0 }
    }

    /// The usage ceiling this policy enforces, in bytes, for a resource
    /// of `capacity`.
    pub fn usage_limit(&self, capacity: u64) -> u64 {
        match *self {
            PolicyKind::DefaultOnly => u64::MAX,
            PolicyKind::Strict => capacity,
            PolicyKind::Compromise { factor } => {
                debug_assert!(factor >= 1.0, "oversubscription factor below 1");
                (capacity as f64 * factor) as u64
            }
            PolicyKind::Partitioned { .. } => capacity,
        }
    }

    /// The demand that should be *accounted* for a period requesting
    /// `demand` bytes: the Partitioned policy clamps to its quota, the
    /// others account in full.
    pub fn effective_demand(&self, demand: u64, capacity: u64) -> u64 {
        match *self {
            PolicyKind::Partitioned { quota_frac } => {
                demand.min((capacity as f64 * quota_frac) as u64)
            }
            _ => demand,
        }
    }

    /// True if the policy gates scheduling at all.
    pub fn is_gating(&self) -> bool {
        !matches!(self, PolicyKind::DefaultOnly)
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::DefaultOnly => write!(f, "Linux Default"),
            PolicyKind::Strict => write!(f, "RDA: Strict"),
            PolicyKind::Compromise { factor } => write!(f, "RDA: Compromise (x{factor})"),
            PolicyKind::Partitioned { quota_frac } => {
                write!(f, "RDA: Partitioned ({:.0}% quota)", quota_frac * 100.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = 1000;

    /// Algorithm 1's fit test under `p` on a resource of [`CAP`] bytes
    /// holding `usage`, for an accounted demand `a`.
    fn fits(p: PolicyKind, usage: u64, a: u64) -> bool {
        crate::rules::fits(p.usage_limit(CAP), 0, usage, a)
    }

    #[test]
    fn strict_admits_only_within_capacity() {
        let p = PolicyKind::Strict;
        assert!(fits(p, 500, 500));
        assert!(fits(p, 0, 500));
        assert!(!fits(p, 501, 500));
    }

    #[test]
    fn compromise_allows_bounded_oversubscription() {
        let p = PolicyKind::compromise_default();
        // With x = 2, up to one extra capacity of deficit is allowed.
        assert!(fits(p, 500, 500));
        assert!(fits(p, 1500, 500));
        assert!(!fits(p, 1501, 500));
    }

    #[test]
    fn compromise_factor_one_equals_strict() {
        let c = PolicyKind::Compromise { factor: 1.0 };
        let s = PolicyKind::Strict;
        for usage in [0, 499, 500, 501, 1000, 2500] {
            assert_eq!(fits(c, usage, 500), fits(s, usage, 500), "usage {usage}");
        }
    }

    /// The fit test admits exactly up to `usage_limit` for factors whose
    /// `x - 1` is inexact in f64: `usage + demand == usage_limit` runs,
    /// one byte more pauses.
    #[test]
    fn compromise_admits_exactly_to_its_usage_limit() {
        for factor in [1.2, 1.7, 1.9] {
            let p = PolicyKind::Compromise { factor };
            for capacity in 1..=200_000u64 {
                let limit = p.usage_limit(capacity);
                let run = |usage| crate::rules::fits(limit, 0, usage, 1);
                assert!(run(limit - 1), "x={factor} cap={capacity}");
                assert!(!run(limit), "x={factor} cap={capacity}");
            }
        }
    }

    #[test]
    fn default_only_admits_everything() {
        let p = PolicyKind::DefaultOnly;
        assert!(fits(p, u64::MAX / 2, u64::MAX / 4));
        assert!(!p.is_gating());
        assert_eq!(p.usage_limit(CAP), u64::MAX);
    }

    #[test]
    fn usage_limits() {
        assert_eq!(PolicyKind::Strict.usage_limit(CAP), CAP);
        assert_eq!(PolicyKind::compromise_default().usage_limit(CAP), 2 * CAP);
    }

    #[test]
    fn partitioned_clamps_accounting() {
        let p = PolicyKind::Partitioned { quota_frac: 0.25 };
        assert_eq!(p.effective_demand(100, CAP), 100);
        assert_eq!(p.effective_demand(900, CAP), 250);
        // Other policies account in full.
        assert_eq!(PolicyKind::Strict.effective_demand(900, CAP), 900);
    }

    #[test]
    fn display_names_match_the_paper() {
        assert_eq!(PolicyKind::Strict.to_string(), "RDA: Strict");
        assert_eq!(
            PolicyKind::compromise_default().to_string(),
            "RDA: Compromise (x2)"
        );
        assert_eq!(PolicyKind::DefaultOnly.to_string(), "Linux Default");
    }
}
