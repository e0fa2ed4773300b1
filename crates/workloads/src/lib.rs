//! # rda-workloads
//!
//! What the paper runs *on* its scheduler, as the scheduler sees it and
//! as the profiler traces it:
//!
//! * [`spec`] — the eight workloads of Table 2 as ready-to-run
//!   [`phases::WorkloadSpec`]s. This is the only description of Table 2
//!   the scheduler gets: each workload is a sequence of progress
//!   periods (working set, reuse, length), written down by hand.
//! * [`phases`] — the phase/program vocabulary the full-system
//!   simulator executes (a process = a sequence of phases, each
//!   optionally bracketed by a progress period).
//! * [`blas`] — daxpy and dgemm, each plain and traced.
//! * [`splash`] — SPLASH-2 mini-apps: water-nsquared (traced),
//!   ocean-cp's relaxation (plain and traced), and raytrace's renderer.
//! * [`trace`] — the PIN stand-in: a memory-trace recorder and the
//!   [`trace::TracedBuf`] instrumented buffer the kernels run on.
//!
//! The traced kernels feed the profiler (Fig 12, §2.4) and the
//! `model_vs_trace` integration test. The simulator does not read
//! their traces: [`spec`] sets Table 2's working sets and instruction
//! budgets by hand.

#![warn(missing_docs)]

pub mod blas;
pub mod phases;
pub mod spec;
pub mod splash;
pub mod trace;

pub use phases::{Phase, ProcessProgram, WorkloadSpec};
pub use trace::{MemoryTrace, TraceRecord, TracedBuf};
