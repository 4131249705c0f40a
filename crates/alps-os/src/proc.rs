//! Reading process state from `/proc` — the Linux analogue of the paper's
//! `kvm` reads on FreeBSD.
//!
//! ALPS needs two facts per controlled process (§2.2, §2.4): cumulative
//! CPU time, and whether the process currently sits on a wait channel. On
//! Linux both come from one read of `/proc/<pid>/stat`: fields `utime` +
//! `stime` (in clock ticks) and the one-letter state. The paper's "wait
//! channel" test maps to state `S` (interruptible sleep) or `D`
//! (uninterruptible I/O wait).
//!
//! There are two ways to take that reading, and one parser behind both:
//!
//! * [`StatReader`] — what the supervisors measure with. It keeps one open
//!   `/proc/<pid>/stat` descriptor per member and re-reads it with a single
//!   `pread` at offset 0, so a reading is one syscall instead of
//!   open + read + close. The descriptor also pins the member's identity:
//!   once the process is gone it answers `ESRCH` for good, so a recycled
//!   pid number is never measured as if it were the old member.
//! * [`read_stat`] / [`read_stat_into`] — one-off reads by path, for
//!   callers that look at a pid once, and what the reader falls back to
//!   when the process runs out of descriptors.
//!
//! [`parse_stat_bytes`] works on the raw bytes: `comm` is sixteen arbitrary
//! bytes the process chooses (`prctl(PR_SET_NAME)`), so the line is not
//! UTF-8 in general and is never validated as such.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Read as _};
use std::os::unix::fs::FileExt as _;

use alps_core::Nanos;

use crate::error::{OsError, Result};

/// Nanoseconds per kernel clock tick (`sysconf(_SC_CLK_TCK)`).
pub fn ns_per_tick() -> u64 {
    // SAFETY: sysconf is async-signal-safe and has no memory preconditions.
    let hz = unsafe { libc::sysconf(libc::_SC_CLK_TCK) };
    let hz = if hz <= 0 { 100 } else { hz as u64 };
    1_000_000_000 / hz
}

/// A parsed `/proc/<pid>/stat` snapshot (the fields ALPS cares about).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStat {
    /// The process id.
    pub pid: i32,
    /// One-letter state code (`R`, `S`, `D`, `T`, `Z`, …).
    pub state: char,
    /// Cumulative user + system CPU time.
    pub cpu_time: Nanos,
}

impl ProcStat {
    /// Whether the process is blocked on a wait channel (§2.4's test).
    /// Runnable (`R`) and stopped (`T`) processes are not blocked; sleeping
    /// (`S`) and disk-waiting (`D`) ones are.
    pub fn blocked(&self) -> bool {
        matches!(self.state, 'S' | 'D')
    }

    /// Whether the process is gone or a zombie.
    pub fn dead(&self) -> bool {
        matches!(self.state, 'Z' | 'X' | 'x')
    }
}

/// Parse the contents of a `/proc/<pid>/stat` file.
/// See [`parse_stat_bytes`], which this delegates to.
pub fn parse_stat(pid: i32, contents: &str, ns_tick: u64) -> Result<ProcStat> {
    parse_stat_bytes(pid, contents.as_bytes(), ns_tick)
}

/// Parse the raw bytes of a `/proc/<pid>/stat` file.
///
/// The second field (`comm`) may contain spaces, parentheses and bytes
/// that are not UTF-8, so the parse anchors on the *last* `)` as the real
/// field delimiter and never looks inside `comm`.
pub fn parse_stat_bytes(pid: i32, contents: &[u8], ns_tick: u64) -> Result<ProcStat> {
    let bad = |reason: String| OsError::Parse { pid, reason };
    let close =
        last_close_paren(contents).ok_or_else(|| bad("no closing paren around comm".into()))?;
    let rest = &contents[close + 1..];
    // After comm: field 3 is state; utime and stime are fields 14 and 15 of
    // the full line, i.e. indices 0, 11 and 12 of `rest`. One forward pass
    // finds the fields up to stime and stops there (this runs once per
    // member per quantum on the supervisor hot path).
    let mut fields = [&rest[..0]; 13];
    let mut n = 0;
    let mut start = None;
    for (i, &b) in rest.iter().enumerate() {
        if !b.is_ascii_whitespace() {
            start.get_or_insert(i);
        } else if let Some(s) = start.take() {
            fields[n] = &rest[s..i];
            n += 1;
            if n == fields.len() {
                break;
            }
        }
    }
    if let Some(s) = start {
        fields[n] = &rest[s..];
        n += 1;
    }
    if n < fields.len() {
        return Err(bad(format!("only {n} fields after comm")));
    }
    let state = match fields[0][0] {
        b if b.is_ascii() => b as char,
        b => return Err(bad(format!("state byte {b:#04x} is not ASCII"))),
    };
    let ticks = |name: &str, field: &[u8]| {
        parse_ticks(field)
            .ok_or_else(|| bad(format!("bad {name} {:?}", String::from_utf8_lossy(field))))
    };
    let utime = ticks("utime", fields[11])?;
    let stime = ticks("stime", fields[12])?;
    Ok(ProcStat {
        pid,
        state,
        // Saturate: adversarial stat lines can carry u64::MAX tick counts,
        // which must clamp rather than overflow.
        cpu_time: Nanos(utime.saturating_add(stime).saturating_mul(ns_tick)),
    })
}

/// Index of the last `)` in `line`, searched eight bytes at a time from
/// the end: `comm` closes near the start of a stat line, so the search
/// crosses the 40-odd numeric fields after it first.
fn last_close_paren(line: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const PARENS: u64 = u64::from_ne_bytes([b')'; 8]);
    let mut end = line.len();
    for chunk in line.rchunks_exact(8) {
        let word = u64::from_ne_bytes(chunk.try_into().expect("an exact chunk")) ^ PARENS;
        // Nonzero exactly when some byte of `word` is zero, i.e. some byte
        // of the chunk is `)`; which one is left to the byte search.
        if word.wrapping_sub(ONES) & !word & HIGHS != 0 {
            break;
        }
        end -= 8;
    }
    line[..end].iter().rposition(|&b| b == b')')
}

/// A tick count as `str::parse::<u64>` reads one: an optional `+`, then
/// one or more decimal digits; `None` for anything else or on overflow.
fn parse_ticks(field: &[u8]) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        acc.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// Size of the buffer one stat read goes into. The kernel's longest line
/// (52 fields of at most 20 digits, a `comm` of at most 64 bytes for
/// kernel workers) stays under 1.2 KiB, so a read that fills this is
/// rejected rather than parsed truncated.
const STAT_BUF_LEN: usize = 2048;

/// Parse the `n` bytes one read left in `buf`. Both `/proc` read paths take
/// the whole line in a single read (the file is a one-record seq_file), so
/// a read that fills the buffer is the only way to see a partial line.
fn parse_read(pid: i32, buf: &[u8], n: usize, ns_tick: u64) -> Result<ProcStat> {
    if n == buf.len() {
        return Err(OsError::Parse {
            pid,
            reason: format!("stat line fills the {n}-byte read buffer"),
        });
    }
    parse_stat_bytes(pid, &buf[..n], ns_tick)
}

fn open_stat(pid: i32, path_buf: &mut String) -> io::Result<File> {
    path_buf.clear();
    let _ = write!(path_buf, "/proc/{pid}/stat");
    File::open(path_buf.as_str())
}

/// Retry a syscall wrapper that was interrupted by a signal.
fn retrying<T>(mut f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match f() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            res => return res,
        }
    }
}

/// A vanished process shows as `ENOENT` when opening its `/proc` entry and
/// as `ESRCH` when reading through a descriptor opened while it lived.
fn gone_or_io(pid: i32, e: io::Error) -> OsError {
    if e.kind() == io::ErrorKind::NotFound || e.raw_os_error() == Some(libc::ESRCH) {
        OsError::NoSuchProcess(pid)
    } else {
        e.into()
    }
}

/// The process (`EMFILE`) or the system (`ENFILE`) is out of descriptors.
fn fd_exhausted(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(libc::EMFILE | libc::ENFILE))
}

/// The by-path read: open, one read, close. Returns the bytes read.
fn read_path(pid: i32, path_buf: &mut String, buf: &mut [u8]) -> Result<usize> {
    open_stat(pid, path_buf)
        .and_then(|mut f| retrying(|| f.read(buf)))
        .map_err(|e| gone_or_io(pid, e))
}

/// Read and parse `/proc/<pid>/stat`.
pub fn read_stat(pid: i32, ns_tick: u64) -> Result<ProcStat> {
    let mut buf = [0; STAT_BUF_LEN];
    let n = read_path(pid, &mut String::new(), &mut buf)?;
    parse_read(pid, &buf, n, ns_tick)
}

/// [`read_stat`] through caller-owned buffers: `path_buf` receives the
/// formatted `/proc/<pid>/stat` path and `contents` the file body, both
/// cleared first. A caller reading many pids reuses the same two buffers
/// for every read, so the steady state allocates nothing (the buffers
/// grow to the longest stat line seen and stay there). The parse never
/// depends on the line being UTF-8; if it is not (an arbitrary-bytes
/// `comm`), `contents` gets the lossy conversion.
pub fn read_stat_into(
    pid: i32,
    ns_tick: u64,
    path_buf: &mut String,
    contents: &mut String,
) -> Result<ProcStat> {
    contents.clear();
    let mut buf = [0; STAT_BUF_LEN];
    let n = read_path(pid, path_buf, &mut buf)?;
    contents.push_str(&String::from_utf8_lossy(&buf[..n]));
    parse_read(pid, &buf, n, ns_tick)
}

/// Measures processes through held `/proc/<pid>/stat` descriptors.
///
/// A descriptor is opened the first time a pid is [read](StatReader::read)
/// (or ahead of that with [`hold`](StatReader::hold)) and every later
/// reading is one `pread` through it. One opened by a reading is dropped
/// when a reading finds the process gone or a zombie. One taken with
/// `hold` stays until [`forget`](StatReader::forget): a member that has
/// died keeps reading as gone, and its pid number is never opened again
/// for whatever process gets it next.
///
/// If opening a descriptor to hold fails because the process or the
/// system is out of descriptors (`EMFILE` / `ENFILE`), the reader closes
/// every descriptor it holds and reads by path from then on. That is
/// one-way: the loop keeps its cadence at the old per-reading cost instead
/// of failing members one by one.
#[derive(Debug)]
pub struct StatReader {
    ns_tick: u64,
    /// pid → its open stat file, and whether it was taken with `hold`;
    /// `None` once degraded to by-path reads.
    held: Option<HashMap<i32, (File, bool)>>,
    path_buf: String,
    buf: Box<[u8; STAT_BUF_LEN]>,
}

impl StatReader {
    /// A reader holding nothing, converting ticks with the kernel's
    /// reported tick length.
    pub fn new() -> Self {
        StatReader {
            ns_tick: ns_per_tick(),
            held: Some(HashMap::new()),
            path_buf: String::new(),
            buf: Box::new([0; STAT_BUF_LEN]),
        }
    }

    /// How many descriptors are held (always 0 once degraded).
    pub fn held(&self) -> usize {
        self.held.as_ref().map_or(0, HashMap::len)
    }

    /// Open (or re-open) the descriptor held for `pid`, so that the
    /// readings that follow are of the process that has the pid *now*,
    /// and keep it until [`forget`](StatReader::forget).
    /// [`OsError::NoSuchProcess`] if there is none. Once degraded this
    /// holds nothing and succeeds; the next read finds out by path.
    pub fn hold(&mut self, pid: i32) -> Result<()> {
        self.open(pid, true)
    }

    /// Open `pid`'s descriptor, `kept` until `forget` or only until a
    /// reading finds the process gone.
    fn open(&mut self, pid: i32, kept: bool) -> Result<()> {
        let Some(held) = &mut self.held else {
            return Ok(());
        };
        match open_stat(pid, &mut self.path_buf) {
            Ok(file) => {
                held.insert(pid, (file, kept));
            }
            Err(e) if fd_exhausted(&e) => self.held = None,
            Err(e) => return Err(gone_or_io(pid, e)),
        }
        Ok(())
    }

    /// Drop the descriptor held for `pid`, if any.
    pub fn forget(&mut self, pid: i32) {
        if let Some(held) = &mut self.held {
            held.remove(&pid);
        }
    }

    /// Take one reading of `pid`. [`OsError::NoSuchProcess`] if the
    /// process is gone; a zombie comes back as a [`ProcStat`] that is
    /// [`dead`](ProcStat::dead). Either way a descriptor this reading
    /// opened (now or at an earlier reading) is dropped.
    pub fn read(&mut self, pid: i32) -> Result<ProcStat> {
        // One lookup for a held pid; a miss opens a descriptor.
        let mut entry = self.held.as_ref().and_then(|held| held.get(&pid));
        if entry.is_none() && self.held.is_some() {
            self.open(pid, false)?;
            entry = self.held.as_ref().and_then(|held| held.get(&pid));
        }
        let buf = &mut self.buf[..];
        let Some(&(ref file, kept)) = entry else {
            // Degraded (possibly by the open just above).
            let n = read_path(pid, &mut self.path_buf, buf)?;
            return parse_read(pid, buf, n, self.ns_tick);
        };
        let res = retrying(|| file.read_at(buf, 0))
            .map_err(|e| gone_or_io(pid, e))
            .and_then(|n| parse_read(pid, buf, n, self.ns_tick));
        let gone =
            matches!(&res, Err(OsError::NoSuchProcess(_))) || matches!(&res, Ok(s) if s.dead());
        if gone && !kept {
            self.forget(pid);
        }
        res
    }
}

impl Default for StatReader {
    fn default() -> Self {
        StatReader::new()
    }
}

/// List all pids owned by `uid` (the Linux analogue of the paper's
/// `kvm_getprocs(KERN_PROC_UID)` used for §5's per-user principals).
/// Ownership is the *real* uid from `/proc/<pid>/status`.
pub fn pids_of_uid(uid: u32) -> Result<Vec<i32>> {
    let mut pids = Vec::new();
    for entry in std::fs::read_dir("/proc")? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<i32>().ok()) else {
            continue;
        };
        let status = match std::fs::read_to_string(format!("/proc/{pid}/status")) {
            Ok(s) => s,
            Err(_) => continue, // raced with exit
        };
        let owns = status.lines().any(|l| {
            l.starts_with("Uid:")
                && l.split_ascii_whitespace().nth(1) == Some(uid.to_string().as_str())
        });
        if owns {
            pids.push(pid);
        }
    }
    pids.sort_unstable();
    Ok(pids)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "1234 (cat) R 1 1234 1 0 -1 4194304 106 0 0 0 7 3 0 0 20 0 1 0 384691 2703360 321 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0 0";

    #[test]
    fn parses_simple_stat() {
        let s = parse_stat(1234, SAMPLE, 10_000_000).unwrap();
        assert_eq!(s.pid, 1234);
        assert_eq!(s.state, 'R');
        // utime 7 + stime 3 ticks at 10ms/tick.
        assert_eq!(s.cpu_time, Nanos::from_millis(100));
        assert!(!s.blocked());
        assert!(!s.dead());
    }

    #[test]
    fn parses_comm_with_spaces_and_parens() {
        let tricky = "99 (weird (name) x) S 1 99 1 0 -1 0 0 0 0 0 42 8 0 0 20 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0 0";
        let s = parse_stat(99, tricky, 10_000_000).unwrap();
        assert_eq!(s.state, 'S');
        assert!(s.blocked());
        assert_eq!(s.cpu_time, Nanos::from_millis(500));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_stat(1, "not a stat line", 1).is_err());
        assert!(parse_stat(1, "1 (x) R 1", 1).is_err());
        assert!(parse_stat(1, "1 (x) R a b c d e f g h i j k l m n", 1).is_err());
    }

    #[test]
    fn comm_is_bytes_not_text() {
        // `prctl(PR_SET_NAME)` takes any sixteen bytes.
        let mut line = b"77 (bad\xff\xfe)name) D 1 77 1 0 -1 0 0 0 0 0 5 5".to_vec();
        line.extend_from_slice(b" 0 0 20 0 1 0 0 0 0\n");
        let s = parse_stat_bytes(77, &line, 10_000_000).unwrap();
        assert_eq!(s.state, 'D');
        assert_eq!(s.cpu_time, Nanos::from_millis(100));
        // Bytes after the anchor that are not ASCII are an error, not a
        // state nobody has heard of.
        assert!(parse_stat_bytes(1, b"1 (x) \xc3\xa9 1 2 3 4 5 6 7 8 9 10 11 12 13", 1).is_err());
    }

    #[test]
    fn the_paren_search_finds_the_last_paren_at_every_offset() {
        for len in 0..40 {
            for first in 0..=len {
                for second in first..=len {
                    let mut line = vec![b'7'; len];
                    for at in [first, second] {
                        if at < len {
                            line[at] = b')';
                        }
                    }
                    assert_eq!(
                        last_close_paren(&line),
                        line.iter().rposition(|&b| b == b')'),
                        "{:?}",
                        String::from_utf8_lossy(&line)
                    );
                }
            }
        }
    }

    #[test]
    fn tick_fields_parse_as_str_parse_does() {
        for field in [
            "0",
            "7",
            "0042",
            "+5",
            "+",
            "++5",
            "-5",
            "-0",
            "5a",
            "1.5",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999",
        ] {
            assert_eq!(
                parse_ticks(field.as_bytes()),
                field.parse::<u64>().ok(),
                "{field:?}"
            );
        }
    }

    #[test]
    fn a_line_that_fills_the_buffer_is_rejected() {
        let mut buf = [b' '; 256];
        buf[..SAMPLE.len()].copy_from_slice(SAMPLE.as_bytes());
        assert!(parse_read(1234, &buf, SAMPLE.len(), 1).is_ok());
        // The same bytes, but the read stopped because the buffer ended.
        match parse_read(1234, &buf, buf.len(), 1) {
            Err(OsError::Parse { pid: 1234, .. }) => {}
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn reader_holds_one_descriptor_per_pid_until_told_to_forget() {
        let me = std::process::id() as i32;
        let mut reader = StatReader::new();
        assert_eq!(reader.held(), 0);
        for _ in 0..3 {
            let held = reader.read(me).unwrap();
            let by_path = read_stat(me, ns_per_tick()).unwrap();
            assert_eq!(held.pid, by_path.pid);
            assert!(held.cpu_time <= by_path.cpu_time);
            assert_eq!(reader.held(), 1);
        }
        reader.forget(me);
        assert_eq!(reader.held(), 0);
        match reader.read(0) {
            Err(OsError::NoSuchProcess(0)) => {}
            other => panic!("expected NoSuchProcess, got {other:?}"),
        }
        assert!(matches!(reader.hold(0), Err(OsError::NoSuchProcess(0))));
        assert_eq!(reader.held(), 0);
    }

    #[test]
    fn state_classification() {
        for (st, blocked, dead) in [
            ('R', false, false),
            ('S', true, false),
            ('D', true, false),
            ('T', false, false),
            ('Z', false, true),
        ] {
            let line = format!(
                "5 (x) {st} 1 5 1 0 -1 0 0 0 0 0 1 1 0 0 20 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 17 0 0 0"
            );
            let s = parse_stat(5, &line, 1_000_000).unwrap();
            assert_eq!(s.blocked(), blocked, "state {st}");
            assert_eq!(s.dead(), dead, "state {st}");
        }
    }

    #[test]
    fn reads_own_stat() {
        let tick = ns_per_tick();
        assert!(tick > 0);
        let me = std::process::id() as i32;
        let s = read_stat(me, tick).unwrap();
        assert_eq!(s.pid, me);
        // The stat line reflects the main thread, which may be sleeping
        // while the test runs on a worker thread.
        assert!(matches!(s.state, 'R' | 'S'), "state {}", s.state);
    }

    #[test]
    fn missing_pid_is_no_such_process() {
        // Pid 0 has no /proc entry in any namespace we run in.
        match read_stat(0, 1) {
            Err(OsError::NoSuchProcess(0)) => {}
            other => panic!("expected NoSuchProcess, got {other:?}"),
        }
    }

    #[test]
    fn lists_own_uid_pids() {
        // SAFETY: getuid has no preconditions.
        let uid = unsafe { libc::getuid() };
        let pids = pids_of_uid(uid).unwrap();
        let me = std::process::id() as i32;
        assert!(pids.contains(&me), "own pid listed for own uid");
    }
}
