//! Error type for the Linux backend.

use std::fmt;

use alps_core::ProcId;

/// Errors from `/proc` reads, signals, and clocks.
#[derive(Debug)]
pub enum OsError {
    /// An I/O error (usually a `/proc` read).
    Io(std::io::Error),
    /// `/proc/<pid>/stat` did not parse.
    Parse {
        /// The pid whose stat line was malformed.
        pid: i32,
        /// What was wrong.
        reason: String,
    },
    /// A syscall failed with the given errno.
    Sys {
        /// The operation attempted.
        op: &'static str,
        /// The errno value.
        errno: i32,
    },
    /// The target process no longer exists.
    NoSuchProcess(i32),
    /// The pid is already held for a principal, or is the supervisor's
    /// own: a process is scheduled by one principal at most.
    AlreadyHeld(i32),
    /// A scheduler handle that no longer refers to a live registration
    /// (the process was removed or reaped earlier).
    Stale(ProcId),
    /// The host lacks a required facility (`pidfd_open` before Linux
    /// 5.3) — callers fall back or skip.
    Unsupported(&'static str),
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::Io(e) => write!(f, "I/O error: {e}"),
            OsError::Parse { pid, reason } => {
                write!(f, "cannot parse /proc/{pid}/stat: {reason}")
            }
            OsError::Sys { op, errno } => write!(f, "{op} failed: errno {errno}"),
            OsError::NoSuchProcess(pid) => write!(f, "no such process: {pid}"),
            OsError::AlreadyHeld(pid) => {
                write!(f, "pid {pid} is already scheduled, or is the supervisor")
            }
            OsError::Stale(id) => write!(f, "stale scheduler handle: {id:?}"),
            OsError::Unsupported(what) => write!(f, "unsupported on this host: {what}"),
        }
    }
}

impl std::error::Error for OsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OsError {
    fn from(e: std::io::Error) -> Self {
        OsError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, OsError>;
