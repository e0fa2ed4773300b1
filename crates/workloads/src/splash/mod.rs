//! Mini-app re-implementations of the SPLASH-2 kernels the profiler
//! traces.
//!
//! Each app keeps the original's algorithmic skeleton and phase
//! structure at trace-friendly input sizes:
//!
//! * [`water`] — molecular dynamics, the n² variant (all-pairs forces,
//!   high reuse): traced only, the run bracketing each phase with a
//!   loop id so the profiler can map detected periods back to code
//!   (Fig 12).
//! * [`ocean`] — red-black SOR relaxation of a square grid
//!   (`ocean_cp`'s multigrid relax step): plain and traced (Fig 12).
//! * [`raytrace`] — a sphere-scene ray caster (high reuse of scene data
//!   per ray), plain only; the `raytrace_demo` example renders with it.
//!
//! The scheduler never runs these apps: [`crate::spec`] describes all
//! five SPLASH-2 workloads of Table 2 by their progress periods.

pub mod ocean;
pub mod raytrace;
pub mod water;
