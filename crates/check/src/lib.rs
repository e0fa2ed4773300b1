//! # rda-check
//!
//! A reference-model differential oracle and bounded model checker for
//! the RDA scheduling extensions (`rda-core`).
//!
//! The implementation in `rda-core` is optimised machinery: memoised
//! fast paths, incremental load tables, FIFO queues with aging. This
//! crate re-states what all of that *means* as one pure-functional
//! model of the topology engine ([`topo_model::TopoRefModel`]), whose
//! books are re-derived from live periods on every call and which
//! shares no logic with the implementation, and checks both engines
//! against it three ways:
//!
//! * **Differential replay** ([`diff`], [`topo_diff`]) — any call trace
//!   (hand-written `.trace` file, recorded simulation, random scenario)
//!   is applied to an engine and the model with full observable-state
//!   equality demanded after every single call.
//! * **Bounded exhaustive exploration** ([`mod@explore`]) — every
//!   interleaving of small multi-process scenario templates is
//!   enumerated by DFS with state-hash pruning, so concurrency-order
//!   bugs cannot hide behind one lucky schedule. One DFS serves both
//!   engines.
//! * **Random scenarios with shrinking** ([`gen`]) — large seeded
//!   traces replayed through the oracle; failures are shrunk to minimal
//!   repros ready to commit under `tests/corpus/`.
//!
//! The `.trace` text format ([`trace`]) makes every counterexample a
//! file: replayable, shrinkable, committable. See DESIGN.md §“Reference
//! model & checking methodology”.
//!
//! ## One model, one call record for both engines
//!
//! Every trace, oracle, model and explorer path speaks the simulator's
//! one call record, [`rda_sim::TopoCall`]. Both `.trace` dialects parse
//! into it: the scalar dialect ([`TraceDoc`]) stores each begin as an
//! LLC-only demand vector and each retry as naming the LLC, and the
//! topology dialect ([`TopoDoc`]) adds vector demands and a machine
//! header on the same line reader and header directives.
//! [`doc_from_calls`] is the one place a recorded scalar
//! `rda_sim::system::RdaCall` is lifted into it.
//!
//! The topology oracle ([`topo_diff`]) drives `rda_core::TopoExtension`
//! and the model with the same calls. The scalar oracle ([`diff`])
//! drives `rda_core::RdaExtension` and the model on the engine's lift
//! onto `TopoConfig::compat` ([`topo_trace::lift`] maps only the
//! configuration): each call goes to the model as it is and to the
//! engine through its LLC component, where both engines decide alike
//! (DESIGN.md §9). Beside the model it keeps [`model::FastPathModel`], a
//! model of the one behaviour the lift lacks: the scalar fast path's
//! memo, which marks calls fast. Both oracles report each call as the
//! one [`Effect`] (the topology engine's `fast` flags are always
//! `false`), a disagreement as the one [`Divergence`] and a clean replay
//! as the one [`ReplayReport`], and both compare the one
//! `rda_core::Snapshot` and print its first difference with
//! [`describe_snapshot_diff`]. [`explore_topo`] runs 2-node × 2-layer
//! templates through the same DFS as [`explore()`]; the explorer
//! permanently proves its own sensitivity by catching an injected
//! exact-fit off-by-one ([`topo_model::TopoMutation::StrictOffByOne`]).

#![warn(missing_docs)]

pub mod diff;
pub mod explore;
pub mod gen;
pub mod headscan;
pub mod model;
pub mod topo_diff;
pub mod topo_model;
pub mod topo_trace;
pub mod trace;

pub use diff::{describe_snapshot_diff, replay, Divergence, Oracle, ReplayReport};
pub use explore::{explore, explore_topo, Exploration, Op, Template};
pub use gen::{fuzz, random_doc, shrink, FuzzFailure, GenParams};
pub use headscan::{check_headscan_property, check_scalar_headscan_property, headscan_prediction};
pub use model::{Effect, FastPathModel};
pub use topo_diff::{replay_lifted, replay_topo, TopoOracle};
pub use topo_model::{TopoMutation, TopoRefModel};
pub use topo_trace::{default_topo_config, lift, TopoDoc};
pub use trace::TraceDoc;

use rda_core::Demand;
use rda_sim::system::RdaCall;
use rda_sim::TopoCall;

/// Convert a call log recorded by `rda_sim::SystemSim` (with
/// `SimConfig::with_rda_trace`) into a replayable [`TraceDoc`] under
/// the given configuration — the bridge that lets whole simulated
/// workloads be re-checked against the reference model call by call.
/// Each call is lifted here: a begin's demand becomes an LLC-only
/// vector and a retry keeps the resource kind it recorded.
pub fn doc_from_calls(cfg: rda_core::RdaConfig, calls: &[RdaCall]) -> TraceDoc {
    let events = calls
        .iter()
        .map(|c| match *c {
            RdaCall::Begin {
                now,
                process,
                site,
                demand,
            } => TopoCall::Begin {
                now,
                process,
                site,
                demand: Demand::llc(demand.amount),
            },
            RdaCall::End { now, pp } => TopoCall::End { now, pp },
            RdaCall::Exit { now, process } => TopoCall::Exit { now, process },
            RdaCall::Age { now } => TopoCall::Age { now },
            RdaCall::Retry {
                now,
                process,
                site,
                resource,
            } => TopoCall::Retry {
                now,
                process,
                site,
                kind: resource,
            },
        })
        .collect();
    TraceDoc { cfg, events }
}
