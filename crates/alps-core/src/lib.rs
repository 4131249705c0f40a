//! # alps-core — the ALPS proportional-share scheduling algorithm
//!
//! A faithful implementation of the scheduling algorithm from *“ALPS: An
//! Application-Level Proportional-Share Scheduler”* (Newhouse & Pasquale,
//! HPDC 2006). ALPS lets an ordinary, unprivileged process apportion CPU
//! time among a group of processes in proportion to per-process *shares*,
//! without kernel modifications: it samples each process's cumulative CPU
//! time at a coarse quantum, tracks a per-process *allowance* over a
//! *cycle* of `S · Q` CPU time (where `S` is the total shares and `Q` the
//! quantum), and suspends processes that have exhausted their allowance
//! until the cycle completes.
//!
//! This crate is the pure algorithm — no syscalls, no clocks. Two backends
//! drive it:
//!
//! * [`kernsim`](https://docs.rs/kernsim) + `alps-sim` — a discrete-event
//!   simulation of a 4.4BSD-style kernel scheduler, used to reproduce the
//!   paper's evaluation deterministically;
//! * `alps-os` — a real Linux backend using `/proc` sampling and
//!   `SIGSTOP`/`SIGCONT`.
//!
//! ## Quick tour
//!
//! ```
//! use alps_core::{AlpsConfig, AlpsScheduler, Nanos, Observation, Transition};
//!
//! // Two processes with a 1:3 share split, 10 ms quantum.
//! let mut alps = AlpsScheduler::new(AlpsConfig::new(Nanos::from_millis(10)));
//! let a = alps.add_process(1, Nanos::ZERO);
//! let b = alps.add_process(3, Nanos::ZERO);
//!
//! // First invocation: nothing to measure yet; both become eligible.
//! assert!(alps.begin_quantum().is_empty());
//! let out = alps.complete_quantum(&[]);
//! assert_eq!(out.transitions, vec![Transition::Resume(a), Transition::Resume(b)]);
//!
//! // Next invocation where `a` is due: report its cumulative CPU time.
//! let due = alps.begin_quantum();
//! let obs: Vec<_> = due
//!     .into_iter()
//!     .map(|id| (id, Observation { total_cpu: Nanos::from_millis(10), blocked: false }))
//!     .collect();
//! let out = alps.complete_quantum(&obs);
//! // `a` consumed its whole 1-share allowance and is suspended.
//! assert_eq!(out.transitions, vec![Transition::Suspend(a)]);
//! ```
//!
//! ## Crate map
//!
//! * [`sched`] — the Figure-3 algorithm ([`AlpsScheduler`]).
//! * [`engine`] — the generic per-quantum control loop every backend
//!   drives, over the [`Substrate`] trait backends implement (read a
//!   process, deliver a signal, tell the time), with an [`EventSink`]
//!   instrumentation stream. It is also §5's principal layer: a
//!   scheduled entity is one process or a group of processes (e.g. all
//!   processes of one user), charged their summed CPU.
//! * [`principal`] — the principal layer's data: member sets, the due
//!   list, member signals and membership changes.
//! * [`cycle`] — per-cycle consumption records for accuracy analysis.
//! * [`config`] — quantum length, the §2.3 lazy-measurement switch, and
//!   §2.4 I/O policies.
//! * [`time`] — the [`Nanos`] time type shared across the workspace.
//!
//! Extensions beyond the paper live beside their users: the SLO feedback
//! controller in `alps-sim`'s SLO experiment, the static share tree in
//! `workloads`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cycle;
pub mod engine;
pub mod principal;
pub mod sched;
pub mod time;

/// The types every ALPS driver imports.
///
/// A backend — simulator runner, OS supervisor, or test harness — builds
/// an [`AlpsConfig`], drives an [`Engine`] over its [`Substrate`], watches
/// through an [`EventSink`], and talks in [`Nanos`] and [`ProcId`]s:
///
/// ```
/// use alps_core::prelude::*;
///
/// let cfg = AlpsConfig::new(Nanos::from_millis(10));
/// let mut alps = AlpsScheduler::new(cfg);
/// let _p = alps.add_process(1, Nanos::ZERO);
/// ```
pub mod prelude {
    pub use crate::config::AlpsConfig;
    pub use crate::engine::{Engine, EventSink, Substrate};
    pub use crate::sched::{AlpsScheduler, ProcId};
    pub use crate::time::Nanos;
}

pub use config::{AlpsConfig, IoPolicy};
pub use cycle::{CycleEntry, CycleRecord};
pub use engine::{
    Engine, EngineStats, Event, EventSink, Instrumentation, NullSink, RecordingSink, Signal,
    Substrate, TraceSink,
};
pub use principal::DueList;
pub use sched::{AlpsScheduler, Observation, ProcId, QuantumOutcome, StaleId, Transition};
pub use time::Nanos;
