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
//! * **Differential replay** ([`diff`], [`topo_diff`]) — any event trace
//!   (hand-written `.trace` file, recorded simulation, random scenario)
//!   is applied to an engine and the model with full observable-state
//!   equality demanded after every single event.
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
//! ## One model for both engines
//!
//! The topology oracle ([`topo_diff`]) drives `rda_core::TopoExtension`
//! and the model with the same calls. The scalar oracle ([`diff`])
//! drives `rda_core::RdaExtension` and the model on the engine's lift
//! onto `TopoConfig::compat`, each event lifted by
//! [`topo_trace::lift_event`] (the mapping [`topo_trace::lift`] applies
//! to a whole trace), where both engines decide alike (DESIGN.md §9).
//! Beside the model it keeps [`model::FastPathModel`], a model of the
//! one behaviour the lift lacks: the scalar fast path's memo, which
//! marks calls fast. Both oracles report each call as the one [`Effect`]
//! (the topology engine's `fast` flags are always `false`), a
//! disagreement as the one [`Divergence`] (generic over the event type)
//! and a clean replay as the one [`ReplayReport`], and both compare the
//! one `rda_core::Snapshot` and print its first difference with
//! [`describe_snapshot_diff`]. The topology engine's trace dialect
//! ([`topo_trace::TopoDoc`]) adds vector demands and a machine header
//! to the scalar format's line reader and header directives, and
//! [`explore_topo`] runs 2-node × 2-layer templates through the same
//! DFS as [`explore()`]; the explorer permanently proves its own
//! sensitivity by catching an injected exact-fit off-by-one
//! ([`topo_model::TopoMutation::StrictOffByOne`]).

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
pub use topo_trace::{default_topo_config, lift, lift_event, TopoDoc, TopoEvent};
pub use trace::{TraceDoc, TraceEvent};

use rda_sim::system::RdaCall;

/// Convert a call log recorded by `rda_sim::SystemSim` (with
/// `SimConfig::with_rda_trace`) into a replayable [`TraceDoc`] under
/// the given configuration — the bridge that lets whole simulated
/// workloads be re-checked against the reference model event by event.
pub fn doc_from_calls(cfg: rda_core::RdaConfig, calls: &[RdaCall]) -> TraceDoc {
    let events = calls
        .iter()
        .map(|c| match *c {
            RdaCall::Begin {
                now,
                process,
                site,
                demand,
            } => TraceEvent::Begin {
                t: now.cycles(),
                process: process.0,
                site: site.0,
                amount: demand.amount,
            },
            RdaCall::End { now, pp } => TraceEvent::End {
                t: now.cycles(),
                pp: pp.0,
            },
            RdaCall::Exit { now, process } => TraceEvent::Exit {
                t: now.cycles(),
                process: process.0,
            },
            RdaCall::Age { now } => TraceEvent::Age { t: now.cycles() },
            RdaCall::Retry {
                now, process, site, ..
            } => TraceEvent::Retry {
                t: now.cycles(),
                process: process.0,
                site: site.0,
            },
        })
        .collect();
    TraceDoc { cfg, events }
}

/// Convert a call log recorded by `rda_sim::TopoTrafficSim` (with
/// `TopoTrafficConfig::record_calls`) into a replayable [`TopoDoc`] —
/// the bridge that lets whole multi-node overload+fault runs be
/// re-checked against the topology reference model event by event.
///
/// `cfg` must be the configuration the run executed under
/// ([`rda_sim::TopoTrafficResult::config`], with the per-class layer
/// assignments applied), or layer-dependent decisions will not
/// reproduce.
pub fn topo_doc_from_calls(cfg: rda_core::TopoConfig, calls: &[rda_sim::TopoCall]) -> TopoDoc {
    use rda_sim::TopoCall;
    let events = calls
        .iter()
        .map(|c| match *c {
            TopoCall::Begin {
                now,
                process,
                site,
                demand,
            } => TopoEvent::Begin {
                t: now.cycles(),
                process: process.0,
                site: site.0,
                demand,
            },
            TopoCall::End { now, pp } => TopoEvent::End {
                t: now.cycles(),
                pp: pp.0,
            },
            TopoCall::Exit { now, process } => TopoEvent::Exit {
                t: now.cycles(),
                process: process.0,
            },
            TopoCall::Age { now } => TopoEvent::Age { t: now.cycles() },
            TopoCall::Retry {
                now,
                process,
                site,
                kind,
            } => TopoEvent::Retry {
                t: now.cycles(),
                process: process.0,
                site: site.0,
                kind,
            },
        })
        .collect();
    TopoDoc { cfg, events }
}
