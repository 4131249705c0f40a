//! # alps-os — ALPS on real Linux
//!
//! The working backend: everything the paper's FreeBSD implementation did,
//! on an unmodified Linux kernel with no privileges —
//!
//! * progress sampling via `/proc/<pid>/stat` (cumulative CPU time and the
//!   wait-channel/blocked test of §2.4), one `pread` per member per
//!   quantum through a held descriptor ([`StatReader`]);
//! * eligible/ineligible group moves via `SIGCONT`/`SIGSTOP`, sent
//!   through each member's held pidfd ([`PidFd`]);
//! * a drift-free quantum loop on the monotonic clock with coalescing of
//!   missed boundaries (the pending-signal behavior of §4.2);
//! * one supervisor ([`Supervisor`]) for fixed processes and for
//!   per-user/per-group principals with periodic membership refresh
//!   ([`Membership`], §5);
//! * live re-measurement of the Table-1 operation costs
//!   ([`probe::probe_table1`]).
//!
//! The per-quantum control loop itself lives in [`alps_core::engine`];
//! this crate implements its [`alps_core::Substrate`] trait over `/proc`
//! and `pidfd_send_signal(2)` ([`substrate::OsSubstrate`]) and supplies the sleep
//! cadence, registration surface, and membership refresh around it.
//!
//! ```no_run
//! use alps_core::{AlpsConfig, Nanos};
//! use alps_os::{SpinnerPool, Supervisor};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Give the second child 3x the CPU of the first.
//! let pool = SpinnerPool::spawn(2)?;
//! let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(20)));
//! sup.add_process(pool.pids()[0], 1)?;
//! sup.add_process(pool.pids()[1], 3)?;
//! sup.run_for(Duration::from_secs(10))?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// This crate is the syscall boundary; unsafe is confined to small,
// commented blocks around libc calls.

pub mod children;
pub mod clock;
pub mod error;
pub mod pidfd;
pub mod probe;
pub mod proc;
pub mod signal;
pub mod substrate;
pub mod supervisor;

pub use children::SpinnerPool;
pub use error::{OsError, Result};
pub use pidfd::{ExitWatcher, PidFd};
pub use probe::{probe_table1, Table1Probe};
pub use proc::{pids_of_uid, read_stat, ProcStat, StatReader};
pub use substrate::OsSubstrate;
pub use supervisor::{Membership, Supervisor};
