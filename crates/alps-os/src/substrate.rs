//! The [`Substrate`] adapter over a real Linux kernel.
//!
//! The generic [`alps_core::Engine`] does the scheduling; this adapter
//! gives it what the paper's unprivileged ALPS process had: the monotonic
//! clock, `/proc/<pid>/stat` progress reads, and `SIGSTOP`/`SIGCONT`
//! delivery. Progress is read through a
//! [`StatReader`](proc::StatReader): one held descriptor per member,
//! opened at the member's first reading and re-read with one `pread` per
//! quantum, so a measurement pass over N members is N syscalls and
//! allocates nothing. A member taken with [`OsSubstrate::hold`] is also
//! signalled through a held [`PidFd`]; one without is signalled by number
//! (`kill(2)`). Neither descriptor answers for a later process with the
//! member's pid number. A pid that has vanished (or turned zombie) is
//! reported as gone rather than as an error, so the engine can reap it;
//! any other `/proc` or signalling failure is an [`OsError`], which the
//! engine counts and recovers from. A member read in the stopped state
//! (`T`) is reported through [`Substrate::stopped`], the engine's evidence
//! of a lost `SIGCONT`.
//!
//! A held member's descriptors stay open, alive or dead, until the driver
//! lets it go with [`OsSubstrate::forget`], so that a member found gone
//! keeps reading as gone and bouncing its signals until then. A member
//! never held has only the stat descriptor its first reading opened,
//! dropped when a reading finds it gone.

use std::collections::HashMap;

use alps_core::{Nanos, Observation, Signal, Substrate};

use crate::clock;
use crate::error::OsError;
use crate::pidfd::PidFd;
use crate::proc;
use crate::signal;

/// Linux as a scheduling substrate.
#[derive(Debug, Default)]
pub struct OsSubstrate {
    stat: proc::StatReader,
    /// pid → the pidfd it is signalled through, for held members.
    pidfds: HashMap<i32, PidFd>,
    /// Members whose last reading found them stopped. Almost always
    /// empty: the engine reads only members it means to run.
    stopped: Vec<i32>,
}

impl OsSubstrate {
    /// A substrate using the kernel's reported clock-tick length for
    /// `/proc` CPU-time conversion.
    pub fn new() -> Self {
        OsSubstrate::default()
    }

    /// Open the descriptors `pid` is measured and signalled through, kept
    /// until [`forget`](OsSubstrate::forget):
    /// [`OsError::NoSuchProcess`] if the pid is absent. Optional —
    /// [`read`](Substrate::read) opens the stat descriptor on demand, and
    /// a member never held is signalled by number.
    ///
    /// If a live pid's pidfd cannot be had — `pidfd_open` is missing
    /// (Linux < 5.3), or the process or the system is out of descriptors
    /// — that member alone is signalled by number.
    pub fn hold(&mut self, pid: i32) -> Result<(), OsError> {
        self.stat.hold(pid)?;
        match PidFd::open(pid) {
            Ok(fd) => {
                self.pidfds.insert(pid, fd);
            }
            Err(OsError::NoSuchProcess(_)) => {
                self.stat.forget(pid);
                return Err(OsError::NoSuchProcess(pid));
            }
            Err(_) => {}
        }
        Ok(())
    }

    /// Let go of the descriptors held for a member, sending nothing.
    pub fn forget(&mut self, pid: i32) {
        self.stat.forget(pid);
        self.pidfds.remove(&pid);
        self.stopped.retain(|&p| p != pid);
    }

    /// How many members have a held stat descriptor.
    pub fn held(&self) -> usize {
        self.stat.held()
    }

    /// How many members are signalled through a held pidfd.
    pub fn pidfds(&self) -> usize {
        self.pidfds.len()
    }
}

impl Substrate for OsSubstrate {
    type Member = i32;
    type Error = OsError;

    fn now(&mut self) -> Nanos {
        clock::now()
    }

    fn read(&mut self, pid: i32) -> Result<Option<Observation>, OsError> {
        let stat = match self.stat.read(pid) {
            Ok(stat) if !stat.dead() => stat,
            Ok(_) | Err(OsError::NoSuchProcess(_)) => {
                self.stopped.retain(|&p| p != pid);
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        self.stopped.retain(|&p| p != pid);
        if stat.state == 'T' {
            self.stopped.push(pid);
        }
        Ok(Some(Observation {
            total_cpu: stat.cpu_time,
            blocked: stat.blocked(),
        }))
    }

    fn stopped(&self, pid: i32) -> bool {
        self.stopped.contains(&pid)
    }

    fn deliver(&mut self, pid: i32, sig: Signal) -> Result<bool, OsError> {
        let sig = match sig {
            Signal::Stop => libc::SIGSTOP,
            Signal::Continue => libc::SIGCONT,
        };
        match signal::send(pid, self.pidfds.get(&pid), sig) {
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
    /// On a signalling fault the outcomes reported are those of the
    /// signals before the first faulting one in batch order, the prefix
    /// the trait asks for, and each of them was sent: a fault in the stop
    /// pass first sends the `SIGCONT`s before it. `SIGSTOP`s after the
    /// fault may have gone out already; the caller's resumption sends them
    /// again, which changes nothing (stopping is idempotent).
    fn apply_batch(
        &mut self,
        batch: &[(i32, Signal)],
        delivered: &mut Vec<bool>,
    ) -> Result<(), OsError> {
        apply_grouped(batch, delivered, |pid, sig| self.deliver(pid, sig))
    }
}

/// [`OsSubstrate::apply_batch`] over any delivery function.
fn apply_grouped<E>(
    batch: &[(i32, Signal)],
    delivered: &mut Vec<bool>,
    mut deliver: impl FnMut(i32, Signal) -> Result<bool, E>,
) -> Result<(), E> {
    let base = delivered.len();
    delivered.resize(base + batch.len(), false);
    let mut fault = None;
    for pass in [Signal::Stop, Signal::Continue] {
        // After a fault, only the signals before it go out.
        let end = fault.as_ref().map_or(batch.len(), |&(i, _)| i);
        for (i, &(pid, sig)) in batch[..end].iter().enumerate() {
            if sig != pass {
                continue;
            }
            match deliver(pid, sig) {
                Ok(d) => delivered[base + i] = d,
                Err(e) => {
                    fault = Some((i, e));
                    break;
                }
            }
        }
    }
    let Some((i, e)) = fault else {
        return Ok(());
    };
    delivered.truncate(base + i);
    Err(e)
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
        // Killed and reaped: whoever gets this pid number next, the
        // descriptor is the old member's and says so.
        drop(pool);
        assert_eq!(sub.read(pid).unwrap(), None);
        assert_eq!(sub.held(), 0);
    }

    #[test]
    fn a_faulting_batch_reports_the_signals_before_the_fault_and_sent_them() {
        use Signal::{Continue as C, Stop as S};
        let batch = [(1, C), (2, S), (3, C), (4, S), (5, C)];
        let run = |faulty: &[i32]| {
            let (mut sent, mut out) = (Vec::new(), vec![false]);
            let res = apply_grouped(&batch, &mut out, |pid, _| {
                sent.push(pid);
                if faulty.contains(&pid) {
                    Err(pid)
                } else {
                    Ok(pid != 3)
                }
            });
            (res, out, sent)
        };
        // Stops first, then continues; pid 3 is gone.
        let all = (
            Ok(()),
            vec![false, true, true, false, true, true],
            vec![2, 4, 1, 3, 5],
        );
        assert_eq!(run(&[]), all);
        // A fault in the stop pass: the SIGCONTs before it go out first.
        assert_eq!(
            run(&[4]),
            (Err(4), vec![false, true, true, false], vec![2, 4, 1, 3])
        );
        // A fault in the continue pass: every SIGSTOP is already out.
        assert_eq!(
            run(&[3]),
            (Err(3), vec![false, true, true], vec![2, 4, 1, 3])
        );
        // Both: the earlier fault in batch order is the one reported.
        assert_eq!(run(&[1, 4]), (Err(1), vec![false], vec![2, 4, 1]));
    }

    #[test]
    fn a_held_zombie_reads_as_gone_and_keeps_its_descriptors() {
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
        assert_eq!((sub.held(), sub.pidfds()), (1, 1));
        sub.forget(pid);
        assert_eq!((sub.held(), sub.pidfds()), (0, 0));
    }

    #[test]
    fn a_reaped_held_member_bounces_every_signal_until_it_is_let_go() {
        let pool = SpinnerPool::spawn_sleepers(1).unwrap();
        let pid = pool.pids()[0];
        let mut sub = OsSubstrate::new();
        sub.hold(pid).unwrap();
        assert_eq!((sub.held(), sub.pidfds()), (1, 1));
        // Killed and reaped. Whoever gets the pid number next, the
        // descriptors are the old member's: each reading and each signal
        // finds it gone.
        drop(pool);
        for _ in 0..2 {
            assert_eq!(sub.read(pid).unwrap(), None);
            assert!(!sub.deliver(pid, Signal::Stop).unwrap(), "bounced");
            assert!(!sub.deliver(pid, Signal::Continue).unwrap(), "bounced");
        }
        assert_eq!((sub.held(), sub.pidfds()), (1, 1), "held until let go");
        sub.forget(pid);
        assert_eq!((sub.held(), sub.pidfds()), (0, 0));
    }
}
