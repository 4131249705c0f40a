//! The [`Substrate`] adapter over a real Linux kernel.
//!
//! The generic [`alps_core::Engine`] does the scheduling; this adapter
//! gives it what the paper's unprivileged ALPS process had: the monotonic
//! clock, `/proc/<pid>/stat` progress reads, and `SIGSTOP`/`SIGCONT`
//! delivery via `kill(2)`. Progress is read through a
//! [`StatReader`](proc::StatReader): one held descriptor per member,
//! opened at the member's first reading and re-read with one `pread` per
//! quantum, so a measurement pass over N members is N syscalls and
//! allocates nothing. A pid that has vanished (or turned zombie) is
//! reported as gone rather than as an error, so the engine can reap it
//! (and the reader lets go of its descriptor); any other `/proc` or
//! `kill` failure aborts the quantum with an [`OsError`].
//!
//! The engine has no "member left" callback, so a driver that removes a
//! member which is still alive tells the substrate with
//! [`OsSubstrate::forget`]; otherwise that descriptor stays open until the
//! process exits and something reads it.

use alps_core::{Nanos, Observation, Signal, Substrate};

use crate::clock;
use crate::error::OsError;
use crate::proc;
use crate::signal;

/// Linux as a scheduling substrate.
#[derive(Debug, Default)]
pub struct OsSubstrate {
    stat: proc::StatReader,
}

impl OsSubstrate {
    /// A substrate using the kernel's reported clock-tick length for
    /// `/proc` CPU-time conversion.
    pub fn new() -> Self {
        OsSubstrate::default()
    }

    /// Open the descriptor `pid` will be measured through, ahead of its
    /// first reading: [`OsError::NoSuchProcess`] if the pid is absent.
    /// Optional — [`read`](Substrate::read) opens it on demand.
    pub fn hold(&mut self, pid: i32) -> Result<(), OsError> {
        self.stat.hold(pid)
    }

    /// Let go of the descriptor held for a member that left alive.
    pub fn forget(&mut self, pid: i32) {
        self.stat.forget(pid);
    }

    /// How many members have a held descriptor.
    pub fn held(&self) -> usize {
        self.stat.held()
    }
}

impl Substrate for OsSubstrate {
    type Member = i32;
    type Error = OsError;

    fn now(&mut self) -> Nanos {
        clock::now()
    }

    fn read(&mut self, pid: i32) -> Result<Option<Observation>, OsError> {
        match self.stat.read(pid) {
            Ok(stat) if !stat.dead() => Ok(Some(Observation {
                total_cpu: stat.cpu_time,
                blocked: stat.blocked(),
            })),
            Ok(_) | Err(OsError::NoSuchProcess(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn deliver(&mut self, pid: i32, sig: Signal) -> Result<bool, OsError> {
        let res = match sig {
            Signal::Stop => signal::sigstop(pid),
            Signal::Continue => signal::sigcont(pid),
        };
        match res {
            Ok(()) => Ok(true),
            Err(OsError::NoSuchProcess(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Grouped delivery: all `SIGSTOP`s, then all `SIGCONT`s. The engine
    /// hands each member at most one transition per quantum, so grouping
    /// same-signal deliveries is outcome-equivalent to in-order delivery
    /// — and stopping before continuing means the batch never has more
    /// members runnable than both the old and the new eligible sets
    /// allow, so a slow batch can't transiently overcommit the CPU.
    ///
    /// On a `kill(2)` fault mid-batch the quantum aborts with the error
    /// and `delivered` reports nothing: with grouped passes the set of
    /// signals already sent is not a prefix of `batch`, so partial
    /// outcomes would misreport. Members whose signal did land are
    /// re-observed (and bounced members reaped) on the next quantum's
    /// read pass.
    fn apply_batch(
        &mut self,
        batch: &[(i32, Signal)],
        delivered: &mut Vec<bool>,
    ) -> Result<(), OsError> {
        let base = delivered.len();
        delivered.resize(base + batch.len(), false);
        for pass in [Signal::Stop, Signal::Continue] {
            for (i, &(pid, sig)) in batch.iter().enumerate() {
                if sig != pass {
                    continue;
                }
                match self.deliver(pid, sig) {
                    Ok(d) => delivered[base + i] = d,
                    Err(e) => {
                        delivered.truncate(base);
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::children::SpinnerPool;

    #[test]
    fn a_held_descriptor_answers_for_the_member_and_nobody_after_it() {
        let pool = SpinnerPool::spawn_sleepers(1).unwrap();
        let pid = pool.pids()[0];
        let mut sub = OsSubstrate::new();
        assert!(sub.read(pid).unwrap().is_some());
        assert_eq!(sub.held(), 1);
        drop(pool); // killed and waited for
                    // Reaped: whoever gets this pid number next, the descriptor is
                    // the old member's and says so.
        assert_eq!(sub.read(pid).unwrap(), None);
        assert_eq!(sub.held(), 0);
    }

    #[test]
    fn a_zombie_reads_as_gone_and_is_let_go() {
        let pool = SpinnerPool::spawn_sleepers(1).unwrap();
        let pid = pool.pids()[0];
        let mut sub = OsSubstrate::new();
        sub.hold(pid).unwrap();
        assert!(sub.read(pid).unwrap().is_some());
        signal::sigkill(pid).unwrap();
        // Not waited for until the pool drops: the line is still there,
        // in state Z, once the kill has landed.
        let gone = (0..200).any(|_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            sub.read(pid).unwrap().is_none()
        });
        assert!(gone, "killed child never read as gone");
        assert_eq!(sub.held(), 0);
    }
}
