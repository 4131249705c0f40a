//! Job-control signals — the mechanism ALPS uses to move processes between
//! the eligible and ineligible groups (§2.2).

use crate::error::{OsError, Result};
use crate::pidfd::PidFd;

/// Send signal `sig` to `pid`: through `pidfd` if one is given
/// (`pidfd_send_signal(2)`), which reaches no process but the one it was
/// opened for, and by number (`kill(2)`) otherwise.
/// [`OsError::NoSuchProcess`] if the process is gone.
pub(crate) fn send(pid: i32, pidfd: Option<&PidFd>, sig: i32) -> Result<()> {
    let (rc, op) = match pidfd {
        // SAFETY: an open descriptor, a signal number, and a null siginfo
        // with no flags, which sends what kill(2) would.
        Some(fd) => (
            unsafe {
                libc::syscall(
                    libc::SYS_pidfd_send_signal,
                    fd.as_raw_fd() as libc::c_long,
                    sig as libc::c_long,
                    std::ptr::null::<u8>(),
                    0 as libc::c_long,
                )
            },
            "pidfd_send_signal",
        ),
        // SAFETY: kill(2) has no memory preconditions.
        None => (unsafe { libc::kill(pid, sig) }.into(), "kill"),
    };
    if rc == 0 {
        return Ok(());
    }
    match std::io::Error::last_os_error().raw_os_error().unwrap_or(0) {
        libc::ESRCH => Err(OsError::NoSuchProcess(pid)),
        errno => Err(OsError::Sys { op, errno }),
    }
}

/// Suspend a process (`SIGSTOP` — not catchable or ignorable).
pub fn sigstop(pid: i32) -> Result<()> {
    send(pid, None, libc::SIGSTOP)
}

/// Resume a process (`SIGCONT`).
pub fn sigcont(pid: i32) -> Result<()> {
    send(pid, None, libc::SIGCONT)
}

/// Probe whether a process exists (signal 0).
pub fn alive(pid: i32) -> bool {
    // SAFETY: kill(2) with signal 0 only performs the permission check.
    unsafe { libc::kill(pid, 0) == 0 }
}

/// Terminate a process (`SIGKILL`) — used by test/example harnesses to
/// clean up spinner children.
pub fn sigkill(pid: i32) -> Result<()> {
    send(pid, None, libc::SIGKILL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    #[test]
    fn stop_and_continue_a_child() {
        let mut child = Command::new("sleep").arg("30").spawn().unwrap();
        let pid = child.id() as i32;
        assert!(alive(pid));
        sigstop(pid).unwrap();
        // State must become T (stopped).
        let tick = crate::proc::ns_per_tick();
        let mut stopped = false;
        for _ in 0..50 {
            if crate::proc::read_stat(pid, tick).unwrap().state == 'T' {
                stopped = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(stopped, "child did not stop");
        sigcont(pid).unwrap();
        for _ in 0..50 {
            if crate::proc::read_stat(pid, tick).unwrap().state != 'T' {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_ne!(crate::proc::read_stat(pid, tick).unwrap().state, 'T');
        sigkill(pid).unwrap();
        let _ = child.wait();
    }

    #[test]
    fn signaling_a_dead_pid_reports_no_such_process() {
        let mut child = Command::new("true").spawn().unwrap();
        child.wait().unwrap();
        // After wait() the pid is fully reaped.
        match sigstop(child.id() as i32) {
            Err(OsError::NoSuchProcess(_)) => {}
            other => panic!("expected NoSuchProcess, got {other:?}"),
        }
    }
}
