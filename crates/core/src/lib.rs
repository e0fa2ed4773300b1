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
//! Figure 2, each stated once for both engines:
//!
//! * the **progress monitor** (`progress`, embedded by
//!   [`extension::RdaExtension`] and [`topo::TopoExtension`]) — the
//!   [`registry::PpRegistry`] of active periods, one record per node
//!   (its [`waitlist::Waitlist`], re-walked whenever a period completes,
//!   and its saturation breakers), the [`RdaStats`] counters and the
//!   trace sink, with every bookkeeping step of a period's life:
//!   validating ends, the breaker's and bounded gate's verdicts,
//!   reclaiming exits, the drain with its aging, shedding and expiry,
//!   the breaker ticks, the book audit and the snapshot;
//! * the **resource monitor** — the books each engine keeps: the
//!   scalar engine's [`monitor::ResourceMonitor`] row, the summed
//!   demand on the LLC, the one resource Algorithm 1 gates, and the
//!   topology engine's per-node × kind books with their layer ledgers.
//!   The progress monitor reaches them only through [`waitlist::Drain`];
//! * the **scheduling predicate** — Algorithm 1, which decides
//!   run-or-pause from the resource's usage, the new demand, and a
//!   reconfigurable [`policy`] (RDA:Strict / RDA:Compromise). It is the
//!   fit test [`rules::fits`], applied per demanded component; the rest
//!   of [`rules`] holds the admission rules built around it (demand
//!   audit, saturation breaker, bounded waitlist gate).
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
//! engines keep their periods as one [`registry::PpRecord`] in one
//! progress monitor, decide by the one rulebook, fail with the one
//! [`error::RdaError`] and report the one [`snapshot::Snapshot`], so on
//! [`topo::TopoConfig::compat`] they differ only in the scalar engine's
//! fast path, which marks calls fast and decides nothing.

#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod error;
pub mod extension;
pub mod fastpath;
pub mod layer;
pub mod monitor;
pub mod policy;
mod progress;
pub mod registry;
pub mod rules;
pub mod snapshot;
pub mod topo;
pub mod topology;
pub mod waitlist;

pub use api::{mb, PpDemand, PpId, SiteId};
pub use config::{BreakerConfig, DemandAudit, OverloadConfig, RdaConfig, ShedPolicy};
pub use error::{InvariantKind, RdaError};
pub use extension::{AgeOutcome, BeginOutcome, EndOutcome, RdaExtension, RdaStats};
pub use layer::{LayerId, LayerSet, LayerSpec};
pub use policy::PolicyKind;
pub use snapshot::{PpSnap, Snapshot, WaitSnap};
pub use topo::{TopoConfig, TopoExtension};
pub use topology::{Demand, NodeId, ResourceKind, SpecError, TopoSpec, KIND_COUNT};
