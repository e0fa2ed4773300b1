//! # rda-workloads
//!
//! Everything the paper runs *on* its scheduler, rebuilt in Rust:
//!
//! * [`blas`] — real implementations of the twelve BLAS kernels of
//!   Table 2 (level 1: daxpy/dcopy/dscal/dswap; level 2: dgemv-N/T,
//!   dtrmv, dtrsv; level 3: dgemm, dsyrk, dtrmm, dtrsm); daxpy and
//!   dgemm also have an instrumented variant that records its memory
//!   trace.
//! * [`splash`] — mini-app re-implementations of the five SPLASH-2
//!   benchmarks the paper uses (water-nsquared, water-spatial,
//!   ocean-cp, raytrace, volrend): same algorithmic skeletons and phase
//!   structure, sized for trace-driven profiling.
//! * [`trace`] — the PIN stand-in: a memory-trace recorder and the
//!   [`trace::TracedBuf`] instrumented buffer the kernels run on.
//! * [`phases`] — the phase/program vocabulary the full-system
//!   simulator executes (a process = a sequence of phases, each
//!   optionally bracketed by a progress period).
//! * [`spec`] — the eight workloads of Table 2 as ready-to-run
//!   [`phases::WorkloadSpec`]s.
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
