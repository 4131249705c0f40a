//! Minimal libc bindings for the symbols this workspace uses.
//!
//! These are real FFI declarations against the system C library — not
//! mocks. Only Linux is supported, matching the alps-os backend.

#![allow(non_camel_case_types)]
#![allow(non_upper_case_globals)] // SYS_* constants match the real libc crate's names

pub type c_int = i32;
pub type c_long = i64;
pub type time_t = i64;
pub type pid_t = i32;
pub type uid_t = u32;
pub type clockid_t = i32;
pub type sighandler_t = usize;

/// `struct timespec` as defined on 64-bit Linux.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct timespec {
    pub tv_sec: time_t,
    pub tv_nsec: c_long,
}

pub const SIGINT: c_int = 2;
pub const SIGKILL: c_int = 9;
pub const SIGTERM: c_int = 15;
pub const SIGSTOP: c_int = 19;
pub const SIGCONT: c_int = 18;

pub const EINTR: c_int = 4;
pub const ESRCH: c_int = 3;
pub const ENFILE: c_int = 23;
pub const EMFILE: c_int = 24;
pub const ENOSYS: c_int = 38;

/// `struct rlimit` (`rlim_t` is 64-bit on 64-bit Linux).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct rlimit {
    pub rlim_cur: u64,
    pub rlim_max: u64,
}

pub const RLIMIT_NOFILE: c_int = 7;

pub const CLOCK_MONOTONIC: clockid_t = 1;
pub const TIMER_ABSTIME: c_int = 1;

pub const _SC_CLK_TCK: c_int = 2;

/// `pidfd_open(2)` syscall number (uniform across Linux architectures;
/// new syscalls share numbers since 5.1).
pub const SYS_pidfd_open: c_long = 434;
/// `pidfd_send_signal(2)` syscall number (uniform likewise).
pub const SYS_pidfd_send_signal: c_long = 424;

pub const EPOLL_CLOEXEC: c_int = 0o2000000;
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLLIN: u32 = 0x001;

/// `struct epoll_event`. Packed on x86-64 (the kernel ABI packs it there
/// so 32-bit and 64-bit layouts match); natural alignment elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub u64: u64,
}

extern "C" {
    pub fn kill(pid: pid_t, sig: c_int) -> c_int;
    pub fn getuid() -> uid_t;
    pub fn sysconf(name: c_int) -> c_long;
    pub fn signal(signum: c_int, handler: sighandler_t) -> sighandler_t;
    pub fn clock_gettime(clk_id: clockid_t, tp: *mut timespec) -> c_int;
    pub fn clock_nanosleep(
        clk_id: clockid_t,
        flags: c_int,
        request: *const timespec,
        remain: *mut timespec,
    ) -> c_int;
    pub fn syscall(num: c_long, ...) -> c_long;
    pub fn close(fd: c_int) -> c_int;
    pub fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
    pub fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int;
    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
}
