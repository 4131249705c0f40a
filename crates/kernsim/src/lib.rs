//! # kernsim — a 4.4BSD-style kernel-scheduler simulator
//!
//! A discrete-event simulation of the substrate the ALPS paper ran on — a
//! uniprocessor UNIX machine (FreeBSD 4.x on a 2.2 GHz Pentium 4) with
//! the classic 4.4BSD decay-usage scheduler. It exists so the paper's
//! evaluation — accuracy, overhead, multi-application behavior, and the
//! §4.2 scalability breakdown — can be reproduced deterministically on
//! any machine.
//!
//! What is modeled:
//!
//! * **decay-usage priorities** — `estcpu` rises with CPU use and decays
//!   once per second by `(2·load)/(2·load+1)`; user priority is
//!   `PUSER + estcpu/4 + 2·nice`;
//! * **clock ticks at 100 Hz** — priority recomputation every 4 ticks and a
//!   100 ms round-robin slice among equal priorities;
//! * **sleep/wakeup** — timed sleeps on wait channels with the retroactive
//!   `updatepri` decay that favors interactive processes;
//! * **job control** — `SIGSTOP`/`SIGCONT` with correct interaction with
//!   interrupted sleeps (the mechanism ALPS uses to move processes between
//!   the eligible and ineligible groups);
//! * **interval timers** — `setitimer`-style periodic timers with
//!   pending-signal coalescing (the mechanism by which an overloaded ALPS
//!   misses quanta);
//! * **event-exact CPU accounting** — `getrusage`-style cumulative CPU
//!   times at nanosecond precision.
//!
//! Beyond the paper's substrate, the simulator also supports:
//!
//! * **statclock-sampled visible CPU counters**
//!   ([`CpuAccounting::TickSampled`]) for the measurement-granularity
//!   ablation;
//! * **execution tracing** ([`Sim::enable_trace`], [`trace`]) with an
//!   ASCII timeline renderer.
//!
//! Not modeled (not needed for any experiment): memory, I/O devices, or
//! signal handling beyond job control. One deliberate divergence —
//! continuous rather than tick-sampled `estcpu` charging for the
//! *scheduler's own* usage estimates — is documented in [`sched`].
//!
//! ## Example
//!
//! ```
//! use alps_core::Nanos;
//! use kernsim::{ComputeBound, Sim, SimConfig};
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let a = sim.spawn("worker-a", Box::new(ComputeBound));
//! let b = sim.spawn("worker-b", Box::new(ComputeBound));
//! sim.run_until(Nanos::from_secs(10));
//! // The kernel scheduler splits the CPU roughly evenly.
//! let ca = sim.proc(a).unwrap().cputime().as_secs_f64();
//! let cb = sim.proc(b).unwrap().cputime().as_secs_f64();
//! assert!((ca - cb).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod pid;
pub mod process;
pub mod sched;
pub mod sim;
pub mod table;
pub mod trace;

pub use fault::{FaultLog, FaultPlan, FaultPlanSpec, FaultRates};
pub use pid::Pid;
pub use process::{Behavior, ComputeBound, ComputeThenSleep, PState, ProcView, Step};
pub use sim::{CpuAccounting, Sim, SimConfig, SimCtl};
pub use table::ProcTable;
pub use trace::{Trace, TraceEvent, TraceKind};
