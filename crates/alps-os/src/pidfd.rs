//! Process file descriptors: the handle a supervised member is signalled
//! through, and exit notification via `pidfd_open(2)` + epoll.
//!
//! A [`PidFd`] names one process for as long as it is open: a signal
//! sent through it (`pidfd_send_signal(2)`) reaches that process or fails
//! `ESRCH` once it has been reaped, never a later process given the same
//! pid number. [`OsSubstrate`](crate::OsSubstrate) signals every member
//! it holds this way.
//!
//! [`ExitWatcher`] parks a sleep inside `epoll_wait` over a set of
//! pidfds and reports which of the processes exited by the deadline,
//! without touching `/proc`. The supervisor does not use it: a member's
//! exit is found by the next reading or delivery that touches it. The one
//! race worth naming is *exit-before-watch*: the pid dies before
//! `pidfd_open`, which then fails `ESRCH`. The watcher absorbs that by
//! recording the pid as already exited, so the next wait reports it like
//! any other death.
//!
//! `pidfd_open` needs Linux ≥ 5.3: [`PidFd::open`] and
//! [`ExitWatcher::new`] report [`OsError::Unsupported`] on older kernels.

use std::collections::HashMap;

use alps_core::Nanos;

use crate::clock;
use crate::error::{OsError, Result};

fn errno() -> i32 {
    std::io::Error::last_os_error().raw_os_error().unwrap_or(0)
}

/// An owned process file descriptor from `pidfd_open(2)`. Becomes
/// readable when the process exits (even into a zombie awaiting reaping).
#[derive(Debug)]
pub struct PidFd {
    fd: i32,
}

impl PidFd {
    /// Open a pidfd for `pid`.
    ///
    /// [`OsError::NoSuchProcess`] means the pid is already gone (the
    /// exit-before-watch race); [`OsError::Unsupported`] means the kernel
    /// predates `pidfd_open`.
    pub fn open(pid: i32) -> Result<PidFd> {
        // SAFETY: pidfd_open takes a pid and a flags word; no pointers.
        let fd =
            unsafe { libc::syscall(libc::SYS_pidfd_open, pid as libc::c_long, 0 as libc::c_long) };
        if fd < 0 {
            return Err(match errno() {
                libc::ESRCH => OsError::NoSuchProcess(pid),
                libc::ENOSYS => OsError::Unsupported("pidfd_open (kernel < 5.3)"),
                e => OsError::Sys {
                    op: "pidfd_open",
                    errno: e,
                },
            });
        }
        Ok(PidFd { fd: fd as i32 })
    }

    /// The raw descriptor (for epoll registration and
    /// `pidfd_send_signal`).
    pub fn as_raw_fd(&self) -> i32 {
        self.fd
    }
}

impl Drop for PidFd {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this PidFd and closed exactly once.
        unsafe {
            libc::close(self.fd);
        }
    }
}

/// An epoll set of member pidfds: the supervisor's event-driven exit
/// detector and quantum sleep, rolled into one `epoll_wait`.
#[derive(Debug)]
pub struct ExitWatcher {
    epfd: i32,
    fds: HashMap<i32, PidFd>,
    /// Pids that were already dead at [`ExitWatcher::watch`] time
    /// (exit-before-watch), reported on the next wait.
    already_exited: Vec<i32>,
    events: Vec<libc::epoll_event>,
}

impl ExitWatcher {
    /// Create an empty watcher. [`OsError::Unsupported`] when pidfds are
    /// unavailable on this kernel.
    pub fn new() -> Result<ExitWatcher> {
        // Probe pidfd support up front so callers can fall back once at
        // construction rather than discovering ENOSYS per watch. Pid -1
        // is invalid, so a supporting kernel answers EINVAL and an old
        // one ENOSYS.
        // SAFETY: no pointers.
        let probe =
            unsafe { libc::syscall(libc::SYS_pidfd_open, -1 as libc::c_long, 0 as libc::c_long) };
        if probe < 0 && errno() == libc::ENOSYS {
            return Err(OsError::Unsupported("pidfd_open (kernel < 5.3)"));
        }
        if probe >= 0 {
            // Cannot happen (pid -1 is invalid), but never leak an fd.
            // SAFETY: probe is an fd we own.
            unsafe {
                libc::close(probe as i32);
            }
        }
        // SAFETY: no pointers.
        let epfd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(OsError::Sys {
                op: "epoll_create1",
                errno: errno(),
            });
        }
        Ok(ExitWatcher {
            epfd,
            fds: HashMap::new(),
            already_exited: Vec::new(),
            events: Vec::new(),
        })
    }

    /// Start watching `pid`. A pid that died before the watch could be
    /// placed is absorbed: it is reported as exited by the next wait.
    pub fn watch(&mut self, pid: i32) -> Result<()> {
        let pfd = match PidFd::open(pid) {
            Ok(pfd) => pfd,
            Err(OsError::NoSuchProcess(_)) => {
                self.already_exited.push(pid);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let mut ev = libc::epoll_event {
            events: libc::EPOLLIN,
            u64: pid as u32 as u64,
        };
        // SAFETY: epfd and the pidfd are live; ev is a valid event.
        let rc =
            unsafe { libc::epoll_ctl(self.epfd, libc::EPOLL_CTL_ADD, pfd.as_raw_fd(), &mut ev) };
        if rc < 0 {
            return Err(OsError::Sys {
                op: "epoll_ctl(ADD)",
                errno: errno(),
            });
        }
        self.fds.insert(pid, pfd);
        Ok(())
    }

    /// Stop watching `pid` (no-op if unwatched). Closing the pidfd
    /// removes it from the epoll set; the explicit DEL just keeps the
    /// kernel bookkeeping tight.
    pub fn unwatch(&mut self, pid: i32) {
        if let Some(pfd) = self.fds.remove(&pid) {
            // SAFETY: both fds are live; DEL ignores the event argument.
            unsafe {
                libc::epoll_ctl(
                    self.epfd,
                    libc::EPOLL_CTL_DEL,
                    pfd.as_raw_fd(),
                    std::ptr::null_mut(),
                );
            }
        }
        self.already_exited.retain(|&p| p != pid);
    }

    /// How many pids are currently watched.
    pub fn watched(&self) -> usize {
        self.fds.len()
    }

    /// Sleep until the monotonic `deadline`, collecting every pid that
    /// exits in the meantime into `exited` (plus any absorbed
    /// exit-before-watch pids). Exits do not end the sleep early — the
    /// quantum cadence stays drift-free — they are simply known by the
    /// time it returns.
    pub fn wait_until(&mut self, deadline: Nanos, exited: &mut Vec<i32>) {
        exited.append(&mut self.already_exited);
        loop {
            let now = clock::now();
            if now >= deadline {
                return;
            }
            let left = deadline - now;
            // epoll_wait speaks milliseconds; round up so the final wake
            // lands at-or-after the deadline, like clock_nanosleep.
            let ms = (left.0.div_ceil(1_000_000)).min(i32::MAX as u64) as i32;
            if !self.poll_once(ms, exited) {
                // epoll is persistently failing: sleep out the remaining
                // quantum on the clock instead, so one broken fd can
                // degrade exit latency but never turn the supervisor
                // loop into a busy spin.
                clock::sleep_until(deadline);
                return;
            }
        }
    }

    /// One `epoll_wait` round. Returns `false` on unrecoverable error.
    fn poll_once(&mut self, timeout_ms: i32, exited: &mut Vec<i32>) -> bool {
        let cap = self.fds.len().max(16);
        self.events
            .resize(cap, libc::epoll_event { events: 0, u64: 0 });
        // SAFETY: the events buffer is valid for `cap` entries.
        let n = unsafe {
            libc::epoll_wait(self.epfd, self.events.as_mut_ptr(), cap as i32, timeout_ms)
        };
        if n < 0 {
            return errno() == libc::EINTR;
        }
        for i in 0..n as usize {
            let ev = self.events[i];
            let pid = { ev.u64 } as u32 as i32;
            exited.push(pid);
            self.unwatch(pid);
        }
        true
    }
}

impl Drop for ExitWatcher {
    fn drop(&mut self) {
        // SAFETY: epfd is owned and closed exactly once; PidFds close
        // themselves.
        unsafe {
            libc::close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::children::SpinnerPool;
    use crate::signal;

    fn watcher() -> ExitWatcher {
        match ExitWatcher::new() {
            Ok(w) => w,
            Err(OsError::Unsupported(_)) => panic!("test host lacks pidfd_open"),
            Err(e) => panic!("watcher: {e}"),
        }
    }

    #[test]
    fn observes_a_child_exit() {
        let pool = SpinnerPool::spawn(1).unwrap();
        let pid = pool.pids()[0];
        let mut w = watcher();
        w.watch(pid).unwrap();
        assert_eq!(w.watched(), 1);

        signal::sigkill(pid).unwrap();
        let mut exited = Vec::new();
        // The kill lands well within one 200ms window.
        w.wait_until(clock::now() + Nanos::from_millis(200), &mut exited);
        assert_eq!(exited, vec![pid]);
        assert_eq!(w.watched(), 0);
    }

    #[test]
    fn exit_before_watch_is_absorbed() {
        let pool = SpinnerPool::spawn(1).unwrap();
        let pid = pool.pids()[0];
        signal::sigkill(pid).unwrap();
        // Reap so the pid is fully gone, not a zombie (zombies still
        // accept pidfd_open).
        drop(pool);
        let mut w = watcher();
        w.watch(pid).unwrap();
        let mut exited = Vec::new();
        w.wait_until(clock::now(), &mut exited);
        assert_eq!(exited, vec![pid], "raced pid reported as exited");
    }

    #[test]
    fn wait_reaches_deadline_with_no_exits() {
        let pool = SpinnerPool::spawn(1).unwrap();
        let mut w = watcher();
        w.watch(pool.pids()[0]).unwrap();
        let deadline = clock::now() + Nanos::from_millis(30);
        let mut exited = Vec::new();
        w.wait_until(deadline, &mut exited);
        assert!(clock::now() >= deadline, "slept to the deadline");
        assert!(exited.is_empty());
    }

    #[test]
    fn broken_epoll_degrades_to_a_clock_sleep() {
        let mut w = watcher();
        // Sabotage the epoll fd so every wait fails EBADF.
        // SAFETY: we own epfd; Drop's later close(-1) is a harmless
        // EBADF.
        unsafe { libc::close(w.epfd) };
        w.epfd = -1;
        let deadline = clock::now() + Nanos::from_millis(30);
        let mut exited = Vec::new();
        w.wait_until(deadline, &mut exited);
        assert!(
            clock::now() >= deadline,
            "a persistent epoll error must sleep out the quantum, not return early"
        );
        assert!(exited.is_empty());
    }

    #[test]
    fn unwatch_silences_a_pid() {
        let pool = SpinnerPool::spawn(2).unwrap();
        let (a, b) = (pool.pids()[0], pool.pids()[1]);
        let mut w = watcher();
        w.watch(a).unwrap();
        w.watch(b).unwrap();
        w.unwatch(a);
        signal::sigkill(a).unwrap();
        signal::sigkill(b).unwrap();
        let mut exited = Vec::new();
        w.wait_until(clock::now() + Nanos::from_millis(200), &mut exited);
        assert_eq!(exited, vec![b], "only the still-watched pid reported");
    }
}
