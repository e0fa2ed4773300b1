//! # rda-simcore
//!
//! Foundation of the RDA reproduction: a small, deterministic
//! discrete-event simulation core.
//!
//! The crate provides the building blocks used by every higher layer:
//!
//! * [`SimTime`] / [`SimDuration`] — simulated time measured in CPU
//!   cycles, convertible to wall-clock seconds at a given frequency.
//! * [`EventQueue`] — a priority queue of timestamped events with
//!   deterministic FIFO tie-breaking, so simulations are exactly
//!   reproducible run-to-run.
//! * [`rng::SplitMix64`] / [`rng::Xoshiro256`] — tiny, seedable PRNGs for
//!   workload generation that do not depend on platform entropy.
//!
//! Everything here is intentionally free of I/O and OS dependencies: the
//! same engine drives unit tests, property tests, and the full-system
//! experiments in `rda-sim`.

#![warn(missing_docs)]

pub mod event;
pub mod hash;
pub mod rng;
pub mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use hash::Fnv1a64;
pub use rng::{SplitMix64, Xoshiro256};
pub use time::{SimDuration, SimTime};
