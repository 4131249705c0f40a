//! # alps-sim — the ALPS paper's evaluation, in simulation
//!
//! Glue between [`alps_core`] (the scheduling algorithm) and [`kernsim`]
//! (the simulated 4.4BSD kernel): an ALPS scheduler runs as an ordinary
//! simulated process, paying the paper's measured per-operation CPU costs
//! (Table 1) for every timer receipt, progress measurement, and signal —
//! and therefore competing for the CPU exactly as the real user-level
//! scheduler did.
//!
//! The per-quantum control loop lives in [`alps_core::engine`]; this crate
//! implements its [`alps_core::Substrate`] trait over the simulator
//! ([`substrate::SimSubstrate`]) and drives the engine stage by stage so
//! the Table-1 costs can be charged between stages.
//!
//! * [`cost`] — the Table-1 cost model;
//! * [`substrate`] — the simulator as an engine substrate;
//! * [`runner`] — the ALPS process, over fixed processes
//!   ([`runner::spawn_alps`]) or per-user groups (§5,
//!   [`runner::spawn_alps_principals`]);
//! * [`experiments`] — drivers for every figure and table.
//!
//! ## Example: impose 1:3 scheduling on two compute-bound processes
//!
//! ```
//! use alps_core::{AlpsConfig, Nanos};
//! use alps_sim::{spawn_alps, CostModel};
//! use kernsim::{ComputeBound, Sim, SimConfig};
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let a = sim.spawn("a", Box::new(ComputeBound));
//! let b = sim.spawn("b", Box::new(ComputeBound));
//! let cfg = AlpsConfig::new(Nanos::from_millis(10));
//! spawn_alps(&mut sim, "alps", cfg, CostModel::paper(), &[(a, 1), (b, 3)]);
//! sim.run_until(Nanos::from_secs(20));
//! let cpu = |pid| sim.proc(pid).unwrap().cputime().as_f64();
//! let ratio = cpu(b) / cpu(a);
//! assert!((ratio - 3.0).abs() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod experiments;
pub mod fault;
pub mod runner;
pub mod substrate;

pub use cost::CostModel;
pub use fault::{Faulty, FaultySubstrate};
pub use runner::{spawn_alps, spawn_alps_principals, AlpsHandle, MemberList};
pub use substrate::SimSubstrate;
