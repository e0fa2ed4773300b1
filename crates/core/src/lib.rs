//! # rda-core
//!
//! The paper's primary contribution: a **resource-demand-aware (RDA)
//! scheduling extension** that sits on top of the default OS scheduler
//! and gates processes at **progress-period** boundaries.
//!
//! A progress period (PP) is a duration of execution with roughly
//! constant resource demand, announced by the application through the
//! user-level API of Figure 4:
//!
//! ```text
//! pp_id = pp_begin(RESOURCE_LLC, MB(6.3), REUSE_HIGH);
//! DGEMM(n, A, B, C);
//! pp_end(pp_id);
//! ```
//!
//! The extension consists of the three components of the paper's
//! Figure 2:
//!
//! * the **progress monitor** ([`extension::RdaExtension`] +
//!   [`registry::PpRegistry`] + [`waitlist::Waitlist`]) — tracks PP
//!   begin/end events, keeps the registry of active periods, and
//!   re-attempts waitlisted threads whenever a period completes;
//! * the **resource monitor** ([`monitor::ResourceMonitor`]) — the load
//!   table row holding the summed demand on the LLC, the one resource
//!   Algorithm 1 gates;
//! * the **scheduling predicate** — Algorithm 1, which decides
//!   run-or-pause from the resource's usage, the new demand, and a
//!   reconfigurable [`policy`] (RDA:Strict / RDA:Compromise). It is the
//!   fit test [`rules::fits`], applied per demanded component; the rest
//!   of [`rules`] holds the admission rules built around it (demand
//!   audit, saturation breaker, bounded waitlist gate), and
//!   [`waitlist::Drain`] the drain that re-admits waiters.
//!
//! Beyond the paper's prose, [`fastpath`] implements the decision
//! memoisation that keeps fine-grained period tracking cheap (the
//! mechanism behind the sub-linear overhead growth of Figure 11), and
//! [`policy::PolicyKind::Partitioned`] prototypes the cache-partitioning
//! extension the paper lists as future work.
//!
//! The scalar extension manages one resource, the LLC. [`topology`],
//! [`layer`] and [`topo`] generalize it to a machine *topology* — demand
//! vectors over per-NUMA-node LLC, memory bandwidth and DRAM, layered
//! policies with capacity guarantees, and deterministic node placement
//! ([`topo::TopoExtension`], DESIGN.md §9) — while the scalar engine
//! keeps serving the paper's single-socket experiments unchanged. Both
//! engines queue on the one [`waitlist::Waitlist`] type and decide by
//! the one rulebook, so on [`topo::TopoConfig::compat`] they differ only
//! in the scalar engine's fast path.

#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod error;
pub mod extension;
pub mod fastpath;
pub mod layer;
pub mod monitor;
pub mod policy;
pub mod registry;
pub mod rules;
pub mod snapshot;
pub mod topo;
pub mod topology;
pub mod waitlist;

pub use api::{mb, PpDemand, PpId, Resource, SiteId};
pub use config::{BreakerConfig, DemandAudit, OverloadConfig, RdaConfig, ShedPolicy};
pub use error::{InvariantKind, RdaError};
pub use extension::{AgeOutcome, BeginOutcome, EndOutcome, RdaExtension, RdaStats};
pub use layer::{LayerId, LayerSet, LayerSpec};
pub use policy::PolicyKind;
pub use snapshot::{PpSnap, Snapshot, WaitSnap};
pub use topo::{
    TopoConfig, TopoError, TopoExtension, TopoPpSnap, TopoRecord, TopoSnapshot, TopoWaitSnap,
};
pub use topology::{Demand, NodeId, ResourceKind, SpecError, TopoSpec, KIND_COUNT};
