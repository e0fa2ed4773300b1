//! # rda-trace
//!
//! First-class observability for RDA scheduling runs.
//!
//! The rest of the workspace only exposes end-of-run aggregates
//! ([`rda_core`-style counter structs]); when a sweep digest moves, the
//! *why* — time spent waitlisted, predicate outcomes, LLC occupancy
//! over time — is invisible. This crate records the missing event
//! stream without perturbing the simulation:
//!
//! * [`TraceSink`] — the per-run recorder: a fixed-capacity event ring
//!   (oldest events overwritten, drops counted, no allocation once
//!   built), each node's occupancy track kept as change points over the
//!   whole run (a sample is kept only when the node's state moved), and
//!   derived instruments that never drop — a log₂ waitlist-residency
//!   histogram ([`Log2Hist`]) and predicate-outcome counters
//!   ([`PredicateCounts`]).
//! * [`TraceEvent`] — one begin/admit/pause/resume/age/end/exit/reject
//!   event with a logical-cycle timestamp and pid/pp/resource/demand
//!   payload.
//! * [`TraceReport`] — the frozen end-of-run view: events, the
//!   occupancy change points, and wait-cycle summary percentiles
//!   (p50/p95/max).
//! * [`chrome_trace_document`] — a Chrome trace-event (Perfetto)
//!   exporter built on the workspace's hand-rolled
//!   [`rda_metrics::Json`], and [`render_text`] for a human-readable
//!   timeline + summary table.
//!
//! The recorder is deliberately independent of `rda-core` (which
//! depends on *this* crate to emit events behind a zero-cost
//! `Option<TraceSink>`): resources are mirrored as [`TraceResource`]
//! and ids are plain integers, so tracing can never change scheduling
//! behaviour — run digests are byte-identical with tracing on or off.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod event;
pub mod export;
pub mod hist;
pub mod ring;
pub mod sink;

pub use event::{EventKind, RejectKind, TraceEvent, TraceResource, NO_NODE, NO_PP};
pub use export::{chrome_trace_document, render_text, LabeledReport};
pub use hist::Log2Hist;
pub use ring::Ring;
pub use sink::{
    OccupancySample, PredicateCounts, TraceConfig, TraceReport, TraceSink, WaitBucket, WaitSummary,
};
