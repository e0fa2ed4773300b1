//! Typed errors of the RDA extension.
//!
//! The paper's prototype assumes cooperative applications: every
//! `pp_begin` is matched by one `pp_end`, declared working sets are
//! truthful, and no process dies mid-period. A production scheduler
//! cannot — a stale or malicious hint must surface as a recoverable,
//! *typed* error the caller can count and degrade around, never as a
//! panic that takes the scheduler down with the misbehaving process.
//! [`RdaError`] is that vocabulary for both admission engines: every
//! protocol violation either can detect, with enough structure for
//! fault accounting. Payloads name the node and resource kind; the
//! scalar engine, which manages one LLC, reports node 0 and
//! [`ResourceKind::Llc`].

use crate::api::PpId;
use crate::topology::{NodeId, ResourceKind};
use std::fmt;

/// Which internal consistency check an [`RdaError::InvariantViolation`]
/// tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// A node's nominal usage differs from the accounted sum over its
    /// admitted, non-overflow periods.
    UsageMismatch,
    /// A node's overflow-bucket usage differs from the accounted sum
    /// over its aged (overflow-admitted) periods.
    OverflowMismatch,
    /// One layer's nominal usage on a node differs from the accounted
    /// sum over that layer's admitted, non-overflow periods there.
    LayerUsageMismatch,
    /// A waitlist entry points at a period the registry does not hold.
    WaitlistRecordMissing,
    /// A waitlisted period is marked admitted in the registry.
    WaitlistAdmitted,
    /// A waitlisted period's record names another node.
    WaitlistWrongNode,
    /// Waitlist length differs from the registry's count of
    /// non-admitted periods.
    WaitlistCountMismatch,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvariantKind::UsageMismatch => "usage mismatch",
            InvariantKind::OverflowMismatch => "overflow-bucket mismatch",
            InvariantKind::LayerUsageMismatch => "layer usage mismatch",
            InvariantKind::WaitlistRecordMissing => "waitlist entry without registry record",
            InvariantKind::WaitlistAdmitted => "waitlisted period marked admitted",
            InvariantKind::WaitlistWrongNode => "waitlisted period recorded on another node",
            InvariantKind::WaitlistCountMismatch => "waitlist/registry count mismatch",
        };
        f.write_str(s)
    }
}

/// Everything that can go wrong inside an admission engine.
///
/// The first four variants are *application protocol violations* — the
/// engine rejects the call, counts it, and keeps its own state intact
/// (graceful degradation). [`RdaError::DemandOverflow`] is an *audit
/// rejection* (a declared demand the configured
/// [`crate::config::DemandAudit`] refuses to account, or one that would
/// wrap a 64-bit book); [`RdaError::WaitlistFull`] and
/// [`RdaError::BreakerOpen`] are overload sheds.
/// [`RdaError::RegistryDesync`] and [`RdaError::InvariantViolation`]
/// indicate a bug in the engine itself rather than in the application.
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
    /// A declared demand component the auditor refused — larger than
    /// any node's capacity for its kind (with
    /// [`crate::config::DemandAudit::Reject`]) — or one large enough to
    /// wrap a 64-bit book.
    DemandOverflow {
        /// The offending component.
        kind: ResourceKind,
        /// Its declared (or, for a wrap, accounted) amount.
        declared: u64,
        /// The machine-wide maximum capacity for the kind.
        capacity: u64,
    },
    /// The bounded admission gate shed an arrival because the target
    /// node's waitlist is at
    /// [`crate::config::OverloadConfig::waitlist_cap`] (under
    /// [`crate::config::ShedPolicy::RejectNewest`], or `RejectOldest`
    /// with an empty queue). No period id was allocated; the caller may
    /// back off and retry.
    WaitlistFull {
        /// The node whose queue was full.
        node: NodeId,
    },
    /// The saturation circuit breaker is open on every node for the
    /// arrival's demand class: a component at or above
    /// [`crate::config::BreakerConfig::shed_min_demand`]. No period id
    /// was allocated; the caller may back off and retry.
    BreakerOpen {
        /// The first blocking node (scan order).
        node: NodeId,
        /// The first blocking kind on that node.
        kind: ResourceKind,
    },
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
        /// The node whose books diverged.
        node: NodeId,
        /// The resource kind.
        kind: ResourceKind,
        /// Which check tripped.
        check: InvariantKind,
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
                write!(
                    f,
                    "{pp} ended while waitlisted — its process should be paused"
                )
            }
            RdaError::DoubleWaitlist(pp) => write!(f, "{pp} double-waitlisted"),
            RdaError::WaitlistFull { node } => write!(f, "waitlist full on {node} — arrival shed"),
            RdaError::BreakerOpen { node, kind } => {
                write!(
                    f,
                    "circuit breaker open on {node} for {kind} — arrival shed"
                )
            }
            RdaError::RegistryDesync(pp) => {
                write!(f, "{pp} registry record desynchronized — scheduler bug")
            }
            RdaError::DemandOverflow {
                kind,
                declared,
                capacity,
            } => write!(f, "{kind} demand {declared} rejected (capacity {capacity})"),
            RdaError::InvariantViolation {
                node,
                kind,
                check,
                expected,
                actual,
            } => write!(
                f,
                "{node}/{kind}: {check} — expected {expected}, actual {actual}"
            ),
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
            RdaError::WaitlistFull { node: NodeId(1) }.to_string(),
            "waitlist full on node1 — arrival shed"
        );
        assert_eq!(
            RdaError::BreakerOpen {
                node: NodeId(0),
                kind: ResourceKind::MemBw,
            }
            .to_string(),
            "circuit breaker open on node0 for membw — arrival shed"
        );
        let e = RdaError::DemandOverflow {
            kind: ResourceKind::Llc,
            declared: 100,
            capacity: 10,
        };
        assert_eq!(e.to_string(), "llc demand 100 rejected (capacity 10)");
        let v = RdaError::InvariantViolation {
            node: NodeId(0),
            kind: ResourceKind::Llc,
            check: InvariantKind::UsageMismatch,
            expected: 5,
            actual: 6,
        };
        assert!(v.to_string().contains("node0/llc"));
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
