//! # workloads — workload generators for the ALPS evaluation
//!
//! Everything the paper runs *under* ALPS, behind one interface: a
//! [`Workload`] spec spawns into a simulation and hands back a uniform
//! [`Tenant`] handle (member pids for membership scans and a
//! [`LatencyProbe`] feeding per-request latency into `alps_metrics`):
//!
//! * [`shares`] — the Table-2 share distributions (linear/equal/skewed for
//!   5/10/20 processes);
//! * [`behavior`] — synthetic process behaviors beyond `kernsim`'s
//!   built-ins (finite batch jobs);
//! * [`webserver`] — the §5 shared-web-server model: three saturated
//!   bulletin-board sites whose worker pools compete for the CPU.
//!
//! All workload randomness follows the stream-splitting rule documented
//! in [`workload`]: stateless indexed draws, never shared-RNG advance
//! order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod shares;
pub mod webserver;
pub mod workload;

pub use behavior::FiniteJob;
pub use shares::ShareModel;
pub use webserver::{Site, STREAM_CPU, STREAM_DB};
pub use workload::{jitter_factor, splitmix64, stream, unit_f64, LatencyProbe, Tenant, Workload};
