//! # alps — an application-level proportional-share scheduler
//!
//! A full reproduction of *“ALPS: An Application-Level Proportional-Share
//! Scheduler”* (Newhouse & Pasquale, HPDC 2006): a user-level,
//! unprivileged scheduler that apportions CPU time among processes in
//! proportion to configured shares by sampling `/proc` and sending
//! `SIGSTOP`/`SIGCONT`, plus a deterministic simulation of the paper's
//! entire evaluation.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — the scheduling algorithm (Figure 3 of the
//!   paper), backend-agnostic;
//! * [`os`] — the real-Linux backend ([`Supervisor`]);
//! * [`kernsim`] — a 4.4BSD-style kernel-scheduler simulator;
//! * [`sim`] — ALPS running inside the simulator with the
//!   paper's measured operation costs, and drivers for every experiment;
//! * [`workloads`] — Table-2 share distributions and synthetic workloads;
//! * [`metrics`] — RMS error, regression, and the §4.2
//!   breakdown-threshold analysis.
//!
//! ## Quick start (real processes)
//!
//! ```no_run
//! use alps::{AlpsConfig, Nanos, SpinnerPool, Supervisor};
//! use std::time::Duration;
//!
//! let pool = SpinnerPool::spawn(2).unwrap();
//! let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(20)));
//! sup.add_process(pool.pids()[0], 1).unwrap();
//! sup.add_process(pool.pids()[1], 3).unwrap();
//! sup.run_for(Duration::from_secs(10)).unwrap();
//! ```
//!
//! ## Quick start (simulation)
//!
//! ```
//! use alps::{AlpsConfig, CostModel, Nanos};
//! use kernsim::{ComputeBound, Sim, SimConfig};
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let a = sim.spawn("a", Box::new(ComputeBound));
//! let b = sim.spawn("b", Box::new(ComputeBound));
//! alps::spawn_alps(&mut sim, "alps", AlpsConfig::new(Nanos::from_millis(10)),
//!                  CostModel::paper(), &[(a, 1), (b, 3)]);
//! sim.run_until(Nanos::from_secs(10));
//! let cpu = |pid| sim.proc(pid).unwrap().cputime();
//! assert!(cpu(b) > cpu(a) * 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use alps_core as core;
pub use alps_metrics as metrics;
pub use alps_os as os;
pub use alps_sim as sim;

pub use alps_core::{
    AlpsConfig, AlpsScheduler, CycleEntry, CycleRecord, Engine, EngineStats, Event, EventSink,
    Instrumentation, IoPolicy, Nanos, NullSink, Observation, ProcId, RecordingSink, Signal,
    Substrate, TraceSink, Transition,
};
pub use alps_os::{Membership, SpinnerPool, Supervisor};
pub use alps_sim::{spawn_alps, spawn_alps_principals, AlpsHandle, CostModel};
