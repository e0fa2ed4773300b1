//! Typed errors of the RDA extension.
//!
//! The paper's prototype assumes cooperative applications: every
//! `pp_begin` is matched by one `pp_end`, declared working sets are
//! truthful, and no process dies mid-period. A production scheduler
//! cannot — a stale or malicious hint must surface as a recoverable,
//! *typed* error the caller can count and degrade around, never as a
//! panic that takes the scheduler down with the misbehaving process.
//! [`RdaError`] is that vocabulary: every protocol violation the
//! extension can detect, with enough structure for fault accounting.

use crate::api::PpId;
use std::fmt;

/// Which internal consistency check an [`RdaError::InvariantViolation`]
/// tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// Monitor nominal usage differs from the registry's accounted sum
    /// over admitted, non-overflow periods.
    UsageMismatch,
    /// Monitor overflow-bucket usage differs from the registry's
    /// accounted sum over aged (overflow-admitted) periods.
    OverflowMismatch,
    /// A waitlist entry points at a period the registry does not hold.
    WaitlistRecordMissing,
    /// A waitlisted period is marked admitted in the registry.
    WaitlistAdmitted,
    /// Waitlist length differs from the registry's count of
    /// non-admitted periods.
    WaitlistCountMismatch,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvariantKind::UsageMismatch => "usage mismatch",
            InvariantKind::OverflowMismatch => "overflow-bucket mismatch",
            InvariantKind::WaitlistRecordMissing => "waitlist entry without registry record",
            InvariantKind::WaitlistAdmitted => "waitlisted period marked admitted",
            InvariantKind::WaitlistCountMismatch => "waitlist/registry count mismatch",
        };
        f.write_str(s)
    }
}

/// Everything that can go wrong inside the RDA extension.
///
/// The first four variants are *application protocol violations* — the
/// extension rejects the call, counts it, and keeps its own state
/// intact (graceful degradation). [`RdaError::DemandOverflow`] is an
/// *audit rejection* (a declared demand the configured
/// [`crate::config::DemandAudit`] refuses to account).
/// [`RdaError::InvariantViolation`] is the only variant that indicates
/// a bug in the extension itself rather than in the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdaError {
    /// `pp_end` named an id that was never allocated by `pp_begin`.
    UnknownPp(PpId),
    /// `pp_end` named a period that was already completed (or reclaimed
    /// when its process exited) — the classic leaked/duplicated-end bug.
    DoubleEnd(PpId),
    /// `pp_end` named a period that is still waitlisted; its process
    /// should be paused and cannot legally reach the end marker.
    EndWhileWaitlisted(PpId),
    /// A period was enqueued on a waitlist it already occupies; honoring
    /// it would double-release the demand on admission.
    DoubleWaitlist(PpId),
    /// A declared demand the auditor refused: larger than the LLC
    /// itself (with [`crate::config::DemandAudit::Reject`]) or large
    /// enough to overflow the 64-bit load table.
    DemandOverflow {
        /// The declared amount.
        declared: u64,
        /// The LLC's nominal capacity.
        capacity: u64,
    },
    /// A waitlisted period outlived its configured deadline
    /// ([`crate::config::OverloadConfig::deadline_cycles`]) and was
    /// expired on an aging tick instead of ever being admitted.
    DeadlineExceeded(PpId),
    /// The bounded admission gate shed an arrival because the
    /// waitlist is at [`crate::config::OverloadConfig::waitlist_cap`]
    /// (under [`crate::config::ShedPolicy::RejectNewest`], or
    /// `RejectOldest` with an empty queue). No period id was
    /// allocated; the caller may back off and retry.
    WaitlistFull,
    /// The saturation circuit breaker is open and the arrival's
    /// audited demand is at or above the configured shed class
    /// ([`crate::config::BreakerConfig::shed_min_demand`]). No period
    /// id was allocated; the caller may back off and retry.
    BreakerOpen,
    /// The registry and another internal structure disagreed about a
    /// period's existence (e.g. a record vanished between a liveness
    /// check and its removal) — a scheduler bug, not an application
    /// bug. Returned instead of panicking so the caller can fail the
    /// one operation and keep the extension alive; the extension's
    /// observable accounting is left untouched.
    RegistryDesync(PpId),
    /// An internal consistency check failed — a scheduler bug, not an
    /// application bug.
    InvariantViolation {
        /// Which check tripped.
        kind: InvariantKind,
        /// The value the registry implies.
        expected: u64,
        /// The value actually observed.
        actual: u64,
    },
}

impl fmt::Display for RdaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RdaError::UnknownPp(pp) => write!(f, "{pp} ended but was never begun"),
            RdaError::DoubleEnd(pp) => {
                write!(f, "{pp} ended twice (or after its process exited)")
            }
            RdaError::EndWhileWaitlisted(pp) => {
                write!(f, "{pp} ended while waitlisted — its process should be paused")
            }
            RdaError::DoubleWaitlist(pp) => write!(f, "{pp} double-waitlisted"),
            RdaError::DeadlineExceeded(pp) => {
                write!(f, "{pp} deadline exceeded while waitlisted")
            }
            RdaError::WaitlistFull => write!(f, "waitlist full — arrival shed"),
            RdaError::BreakerOpen => write!(f, "circuit breaker open — arrival shed"),
            RdaError::RegistryDesync(pp) => {
                write!(f, "{pp} registry record desynchronized — scheduler bug")
            }
            RdaError::DemandOverflow { declared, capacity } => {
                write!(f, "LLC demand {declared} rejected (capacity {capacity})")
            }
            RdaError::InvariantViolation {
                kind,
                expected,
                actual,
            } => write!(f, "LLC: {kind} — expected {expected}, actual {actual}"),
        }
    }
}

impl std::error::Error for RdaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert_eq!(
            RdaError::UnknownPp(PpId(7)).to_string(),
            "pp#7 ended but was never begun"
        );
        assert_eq!(
            RdaError::DoubleEnd(PpId(3)).to_string(),
            "pp#3 ended twice (or after its process exited)"
        );
        assert_eq!(
            RdaError::DoubleWaitlist(PpId(1)).to_string(),
            "pp#1 double-waitlisted"
        );
        assert_eq!(
            RdaError::RegistryDesync(PpId(9)).to_string(),
            "pp#9 registry record desynchronized — scheduler bug"
        );
        assert_eq!(
            RdaError::DeadlineExceeded(PpId(4)).to_string(),
            "pp#4 deadline exceeded while waitlisted"
        );
        assert_eq!(
            RdaError::WaitlistFull.to_string(),
            "waitlist full — arrival shed"
        );
        assert_eq!(
            RdaError::BreakerOpen.to_string(),
            "circuit breaker open — arrival shed"
        );
        let e = RdaError::DemandOverflow {
            declared: 100,
            capacity: 10,
        };
        assert_eq!(e.to_string(), "LLC demand 100 rejected (capacity 10)");
        let v = RdaError::InvariantViolation {
            kind: InvariantKind::UsageMismatch,
            expected: 5,
            actual: 6,
        };
        assert!(v.to_string().contains("usage mismatch"));
        assert!(v.to_string().contains("expected 5"));
    }

    #[test]
    fn errors_are_comparable_and_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RdaError>();
        assert_eq!(RdaError::UnknownPp(PpId(1)), RdaError::UnknownPp(PpId(1)));
        assert_ne!(RdaError::UnknownPp(PpId(1)), RdaError::DoubleEnd(PpId(1)));
    }
}
