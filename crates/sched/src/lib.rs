//! # rda-sched
//!
//! The baseline scheduling substrate the paper builds on. The authors
//! extend "the Linux 4.6.0 default scheduler"; this crate is our
//! equivalent substrate: a completely-fair-scheduler (CFS) style
//! policy with
//!
//! * per-core runqueues ordered by **virtual runtime** ([`runqueue`]),
//! * `sched_latency`-derived timeslices ([`cfs`]),
//! * wake-time core placement with affinity and idlest-queue fallback,
//! * idle stealing and periodic **load balancing** between queues.
//!
//! The scheduler is a passive state machine: the discrete-event driver
//! in `rda-sim` asks it which task to run next and reports elapsed
//! execution; the RDA extension in `rda-core` sits between the two,
//! intercepting progress-period events exactly as the paper's kernel
//! module interposes on the stock scheduler. Pausing a process at a
//! progress-period boundary leaves its threads blocked
//! ([`CfsScheduler::block`]); resuming it wakes them
//! ([`CfsScheduler::wake`]), in the order `rda-core`'s waitlist
//! releases the periods.

#![warn(missing_docs)]

pub mod cfs;
pub mod runqueue;
pub mod task;

pub use cfs::{CfsScheduler, SchedConfig, SchedConfigError, SchedStats};
pub use task::{ProcessId, Task, TaskId, TaskState};
