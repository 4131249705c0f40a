//! cgroup-v2 actuation — the production-Linux alternative to job-control
//! signals.
//!
//! The paper's actuator is `SIGSTOP`/`SIGCONT` because 2006 offered nothing
//! better to an unprivileged process. Production Linux shares CPU with
//! cgroup v2: `cpu.weight` (proportional shares), `cpu.max` (hard caps),
//! and `cgroup.freeze` (the cgroup analogue of job control). This module
//! adds that actuator beside the signal substrate:
//!
//! * [`CgroupFs`] — a backend trait abstracting the cgroupfs file
//!   operations ALPS needs (`mkdir`, `cpu.weight`/`cpu.max`/
//!   `cgroup.freeze` writes, `cgroup.procs` moves, `cpu.stat` usage
//!   reads);
//! * [`RealCgroupFs`] — the trait over a real mounted cgroup2 hierarchy,
//!   with reusable path/content buffers so steady-state reads allocate
//!   nothing;
//! * [`FakeCgroupFs`] — a deterministic in-memory hierarchy with a
//!   weight-fair usage-accrual model and scripted fault injection, so
//!   every control-path test (and the `repro actuators` experiment) runs
//!   unprivileged;
//! * [`CgroupSubstrate`] — an [`alps_core::Substrate`] translating the
//!   engine's duty-cycle intents into cgroup writes per [`ActuatorMode`].
//!
//! ## Intent translation
//!
//! The engine speaks stop/continue. Each mode maps that intent onto a
//! different enforcement primitive:
//!
//! | engine intent | `Signals` (freezer) | `Weights` (`cpu.weight`)   | `Caps` (`cpu.max`)       |
//! |---------------|---------------------|----------------------------|--------------------------|
//! | continue      | `cgroup.freeze = 0` | `weight = clamp(share)`    | `quota = max` (uncapped) |
//! | stop          | `cgroup.freeze = 1` | `weight = 1`               | `quota = period / 100`   |
//!
//! A share change rewrites `cpu.weight` at once, except on a member
//! demoted in `Weights` mode, which takes the new weight at its next
//! `continue`. The conformance suite runs the engine on this substrate in
//! every mode, held to the spec oracle, and checks each leaf against this
//! table after every step.
//!
//! `Signals` mode duty-cycles exactly like the paper (a frozen member is
//! fully descheduled), so it is equivalent to the signal substrate.
//! `Weights` demotes an ineligible member to the minimum weight instead
//! of freezing it: under contention it still trickles, which is the
//! qualitative difference between stop/continue duty-cycling and
//! weight-based fair-share managers (Solaris SRM). `Caps` throttles an
//! ineligible member to 1% of the period — the fractional-allocation
//! primitive of DFRS. `repro actuators` measures the accuracy
//! consequences of all three.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt::Write as _;
use std::fs;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use alps_core::{Nanos, Observation, Signal, Substrate};

use crate::clock;
use crate::error::{OsError, Result};

/// Which enforcement primitive the supervisor actuates with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActuatorMode {
    /// Stop/continue duty-cycling: `SIGSTOP`/`SIGCONT` on the signal
    /// substrate, `cgroup.freeze` on the cgroup substrate. The paper's
    /// semantics.
    #[default]
    Signals,
    /// Proportional shares via `cpu.weight`: an ineligible member is
    /// demoted to weight 1 rather than frozen.
    Weights,
    /// Hard caps via `cpu.max`: an ineligible member is throttled to 1%
    /// of the period rather than frozen.
    Caps,
}

impl ActuatorMode {
    /// All modes, in comparison-table order.
    pub const ALL: [ActuatorMode; 3] = [
        ActuatorMode::Signals,
        ActuatorMode::Weights,
        ActuatorMode::Caps,
    ];

    /// The lowercase CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            ActuatorMode::Signals => "signals",
            ActuatorMode::Weights => "weights",
            ActuatorMode::Caps => "caps",
        }
    }
}

impl std::fmt::Display for ActuatorMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ActuatorMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "signals" => Ok(ActuatorMode::Signals),
            "weights" => Ok(ActuatorMode::Weights),
            "caps" => Ok(ActuatorMode::Caps),
            other => Err(format!(
                "unknown actuator {other:?} (expected signals, weights, or caps)"
            )),
        }
    }
}

/// A `cpu.max` value: an optional quota per period. `quota = None` is the
/// file's `max` (uncapped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMax {
    /// Runnable time allowed per period; `None` = uncapped.
    pub quota: Option<Nanos>,
    /// The enforcement period.
    pub period: Nanos,
}

/// The default `cpu.max` period (the kernel's 100ms default).
pub const CPU_MAX_PERIOD: Nanos = Nanos(100_000_000);

impl CpuMax {
    /// Uncapped (`max <period>`).
    pub fn open() -> Self {
        CpuMax {
            quota: None,
            period: CPU_MAX_PERIOD,
        }
    }

    /// Throttled to 1% of the period — the `stop` translation in
    /// [`ActuatorMode::Caps`]. 1% of the default period is 1ms, the
    /// kernel's minimum quota.
    pub fn throttled() -> Self {
        CpuMax {
            quota: Some(Nanos(CPU_MAX_PERIOD.0 / 100)),
            period: CPU_MAX_PERIOD,
        }
    }
}

impl Default for CpuMax {
    fn default() -> Self {
        CpuMax::open()
    }
}

/// Clamp an ALPS share weight onto the kernel's `cpu.weight` range.
pub fn weight_of_share(share: u64) -> u64 {
    share.clamp(1, 10_000)
}

/// The cgroupfs operations ALPS needs, abstracted so the control path is
/// testable unprivileged ([`FakeCgroupFs`]) and runnable against a real
/// delegated subtree ([`RealCgroupFs`]).
///
/// Group names are paths relative to the backend's subtree root; `""`
/// parks the pid outside every member leaf (the dedicated [`PARKED`]
/// leaf on the real backend — the root itself must stay process-free to
/// distribute controllers — and a plain detach in the fake). A member
/// that no longer exists surfaces as `Ok(None)` from
/// [`CgroupFs::observe`] and [`OsError::NoSuchProcess`] from actuation
/// writes against its leaf, the same contract `kill(2)` gives the signal
/// substrate.
pub trait CgroupFs {
    /// The backend clock (monotonic on the real backend, scripted in the
    /// fake).
    fn now(&mut self) -> Nanos;

    /// `mkdir <group>`.
    fn create(&mut self, group: &str) -> Result<()>;

    /// `rmdir <group>` (must be empty of processes).
    fn remove(&mut self, group: &str) -> Result<()>;

    /// Write `pid` into `<group>/cgroup.procs`.
    fn attach(&mut self, group: &str, pid: i32) -> Result<()>;

    /// Write `<group>/cpu.weight`.
    fn write_weight(&mut self, group: &str, weight: u64) -> Result<()>;

    /// Write `<group>/cpu.max`.
    fn write_max(&mut self, group: &str, max: CpuMax) -> Result<()>;

    /// Write `<group>/cgroup.freeze`.
    fn write_freeze(&mut self, group: &str, frozen: bool) -> Result<()>;

    /// Observe the member attached to `group`: cumulative usage from
    /// `cpu.stat` plus the §2.4 blocked test (from `/proc/<pid>/stat` on
    /// the real backend; modeled in the fake). `Ok(None)` = member gone.
    fn observe(&mut self, group: &str, pid: i32) -> Result<Option<Observation>>;
}

// ----------------------------------------------------------------------
// RealCgroupFs
// ----------------------------------------------------------------------

/// The leaf under the ALPS root that holds processes ALPS knows about
/// but does not currently schedule: pids evacuated out of the base
/// cgroup so the `cpu` controller could be enabled there, and members
/// released from control. It lives beside the `m<pid>` member leaves;
/// the ALPS root itself stays process-free, because cgroup v2's
/// no-internal-process rule forbids a populated cgroup from
/// distributing domain controllers to its children.
pub const PARKED: &str = "parked";

fn has_controller(list: &str, ctrl: &str) -> bool {
    list.split_ascii_whitespace().any(|c| c == ctrl)
}

fn create_dir_ok(path: &Path) -> std::io::Result<()> {
    match fs::create_dir(path) {
        Err(e) if e.kind() != std::io::ErrorKind::AlreadyExists => Err(e),
        _ => Ok(()),
    }
}

/// Move every pid listed in `from/cgroup.procs` into `to/cgroup.procs`.
fn drain_procs(from: &Path, to: &Path) -> std::io::Result<()> {
    let procs = fs::read_to_string(from.join("cgroup.procs"))?;
    let dst = to.join("cgroup.procs");
    for pid in procs.split_ascii_whitespace() {
        // A pid that exits mid-move is fine; any other failure leaves
        // the source populated, which the caller's next rmdir or
        // subtree_control write reports.
        let _ = fs::write(&dst, pid);
    }
    Ok(())
}

/// Enable the cpu controller for `dir`'s children. Controller files
/// (`cpu.weight`, `cpu.max`) only exist in a cgroup when its *parent*
/// lists `cpu` in `cgroup.subtree_control`, and that write bounces off
/// the no-internal-process rule while `dir` holds processes — so when
/// `evacuate_to` is given, the populated case moves the occupants there
/// and retries.
fn enable_cpu(dir: &Path, evacuate_to: Option<&Path>) -> Result<()> {
    let ctl = dir.join("cgroup.subtree_control");
    if has_controller(&fs::read_to_string(&ctl).unwrap_or_default(), "cpu") {
        return Ok(());
    }
    if fs::write(&ctl, "+cpu").is_ok() {
        return Ok(());
    }
    if let Some(to) = evacuate_to {
        if drain_procs(dir, to).is_ok() && fs::write(&ctl, "+cpu").is_ok() {
            return Ok(());
        }
    }
    Err(OsError::Unsupported(
        "cannot enable the cpu controller for children (subtree not delegated)",
    ))
}

/// Thaw, uncap, and empty every member leaf under `root` (pids move to
/// the parked leaf), then remove it — the recovery sweep for a subtree
/// left behind by a crashed run, and the defensive pass before teardown.
fn clean_leaves(root: &Path, parked: &Path) -> std::io::Result<()> {
    for entry in fs::read_dir(root)? {
        let path = entry?.path();
        if !path.is_dir() || path == parked {
            continue;
        }
        let _ = fs::write(path.join("cgroup.freeze"), "0");
        let _ = fs::write(path.join("cpu.max"), "max");
        let _ = drain_procs(&path, parked);
        fs::remove_dir(&path)?;
    }
    Ok(())
}

/// Undo discovery: give the controllers back and return the parked pids
/// to the base cgroup, in the only order the kernel permits — the base
/// cannot take processes while its subtree distributes `cpu`, and `cpu`
/// cannot be withdrawn from the base while the root still distributes
/// it.
fn restore(base: &Path, root: &Path, parked: &Path) -> std::io::Result<()> {
    let _ = fs::write(root.join("cgroup.subtree_control"), "-cpu");
    let _ = fs::write(base.join("cgroup.subtree_control"), "-cpu");
    let _ = drain_procs(parked, base);
    match fs::remove_dir(parked) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    fs::remove_dir(root)
}

/// Detect the crash-recovery layout: this process was evacuated into
/// `<base>/alps.<old>/parked` by a previous run that never tore down.
/// Returns `(base, root)` when so.
fn recover_root(own: &Path) -> Option<(PathBuf, PathBuf)> {
    if own.file_name()? != PARKED {
        return None;
    }
    let root = own.parent()?;
    if !root.file_name()?.to_str()?.starts_with("alps.") {
        return None;
    }
    Some((root.parent()?.to_path_buf(), root.to_path_buf()))
}

/// [`CgroupFs`] over a real mounted cgroup2 hierarchy, rooted at a
/// delegated subtree directory. Path and content buffers are reused so a
/// steady-state measurement pass allocates nothing.
///
/// The on-disk layout [`RealCgroupFs::discover`] builds:
///
/// ```text
/// <base>                  the caller's own cgroup, evacuated and
/// │                       process-free; subtree_control: +cpu
/// └── alps.<pid>          the ALPS root — never holds processes;
///     │                   subtree_control: +cpu
///     ├── parked          leaf: evacuated + released pids
///     └── m<pid> …        member leaves (cpu.weight / cpu.max)
/// ```
#[derive(Debug)]
pub struct RealCgroupFs {
    root: PathBuf,
    /// The cgroup the subtree was carved out of (set by `discover`);
    /// teardown returns parked pids here and hands `cpu` back.
    base: Option<PathBuf>,
    /// Reusable path buffer (truncated back to `root` per call).
    path_buf: PathBuf,
    /// Reusable file-content buffer.
    buf: String,
    /// Each member's held `/proc/<pid>/stat`: liveness and the blocked
    /// test.
    stat: crate::proc::StatReader,
}

impl RealCgroupFs {
    /// A backend rooted at an existing cgroup2 directory the caller may
    /// write (a delegated subtree). The caller is responsible for the
    /// root's `cgroup.subtree_control` listing `cpu`, or member leaves
    /// will have no `cpu.weight`/`cpu.max` files; [`RealCgroupFs::discover`]
    /// arranges all of that itself.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RealCgroupFs {
            root: root.into(),
            base: None,
            path_buf: PathBuf::new(),
            buf: String::new(),
            stat: crate::proc::StatReader::new(),
        }
    }

    /// Open, and read, the `/proc/<pid>/stat` descriptor `pid` will be
    /// observed through until [`forget`](RealCgroupFs::forget), before
    /// its leaf is made: [`OsError::NoSuchProcess`] if it is gone or a
    /// zombie.
    pub(crate) fn hold(&mut self, pid: i32) -> Result<()> {
        self.stat.hold(pid)?;
        if self.stat.read(pid)?.dead() {
            return Err(OsError::NoSuchProcess(pid));
        }
        Ok(())
    }

    /// Let go of the descriptor held for a pid that left control, alive
    /// or dead; until then a dead member observes as gone.
    pub(crate) fn forget(&mut self, pid: i32) {
        self.stat.forget(pid);
    }

    /// The subtree root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Locate the calling process's own cgroup and carve a writable ALPS
    /// subtree under it: read `/proc/self/cgroup`, resolve the v2 path
    /// under the cgroup2 mount, create `alps.<pid>` with its [`PARKED`]
    /// leaf, evacuate the base cgroup's occupants (ourselves included)
    /// into that leaf so the no-internal-process rule permits `+cpu` in
    /// the base's `cgroup.subtree_control`, and enable `+cpu` in the
    /// ALPS root's own `subtree_control` so member leaves get their
    /// `cpu.weight`/`cpu.max` files. A stale `alps.<pid>` from a crashed
    /// run is recovered: leftover leaves are thawed, uncapped, emptied
    /// into `parked`, and removed before the subtree is trusted. Fails
    /// with [`OsError::Unsupported`] when the hierarchy is absent or not
    /// delegated to us — callers (and the gated live test) skip cleanly
    /// on that.
    pub fn discover() -> Result<Self> {
        let own = fs::read_to_string("/proc/self/cgroup")
            .map_err(|_| OsError::Unsupported("no /proc/self/cgroup (cgroup v2 unavailable)"))?;
        // The v2 line is "0::<path>".
        let rel = own
            .lines()
            .find_map(|l| l.strip_prefix("0::"))
            .ok_or(OsError::Unsupported("no cgroup v2 membership line"))?
            .trim();
        // Pure-v2 hosts mount cgroup2 at /sys/fs/cgroup; hybrid hosts at
        // /sys/fs/cgroup/unified.
        let mount = ["/sys/fs/cgroup", "/sys/fs/cgroup/unified"]
            .into_iter()
            .map(Path::new)
            .find(|m| m.join("cgroup.controllers").is_file())
            .ok_or(OsError::Unsupported("no cgroup2 mount visible"))?;
        let mut own_dir = mount.to_path_buf();
        own_dir.push(rel.trim_start_matches('/'));
        if !own_dir.is_dir() {
            return Err(OsError::Unsupported("own cgroup directory not visible"));
        }
        // A crashed previous run leaves this process sitting in
        // <base>/alps.<old>/parked; resume ownership of that subtree
        // rather than nesting a fresh one inside its parked leaf.
        let (base, root, reused) = match recover_root(&own_dir) {
            Some((base, root)) => (base, root, true),
            None => {
                let root = own_dir.join(format!("alps.{}", std::process::id()));
                let reused = match fs::create_dir(&root) {
                    Ok(()) => false,
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => true,
                    Err(_) => {
                        return Err(OsError::Unsupported("cannot create the ALPS subtree root"))
                    }
                };
                (own_dir, root, reused)
            }
        };
        let fail = |root: &Path, reused: bool, why: &'static str| {
            if !reused {
                let _ = fs::remove_dir(root.join(PARKED));
                let _ = fs::remove_dir(root);
            }
            Err(OsError::Unsupported(why))
        };
        let controllers = fs::read_to_string(base.join("cgroup.controllers")).unwrap_or_default();
        if !has_controller(&controllers, "cpu") {
            return fail(&root, reused, "cpu controller not available here");
        }
        let parked = root.join(PARKED);
        if create_dir_ok(&parked).is_err() {
            return fail(&root, reused, "cannot create the parked leaf");
        }
        if reused && clean_leaves(&root, &parked).is_err() {
            return fail(&root, reused, "stale ALPS subtree cannot be cleaned");
        }
        if let Err(e) = enable_cpu(&base, Some(&parked)).and_then(|()| enable_cpu(&root, None)) {
            let _ = restore(&base, &root, &parked);
            return Err(e);
        }
        let mut backend = RealCgroupFs::new(root);
        backend.base = Some(base);
        Ok(backend)
    }

    /// Tear the subtree down (shutdown cleanup): any leaf a caller
    /// forgot to release is thawed, uncapped, and emptied; parked pids
    /// return to the base cgroup, which gets its `cpu` distribution
    /// back. Without a recorded base (plain [`RealCgroupFs::new`]) only
    /// an empty subtree can be removed — there is nowhere to send parked
    /// pids.
    pub fn remove_root(&mut self) -> Result<()> {
        let parked = self.root.join(PARKED);
        match &self.base {
            Some(base) => {
                let _ = clean_leaves(&self.root, &parked);
                restore(base, &self.root, &parked)?;
            }
            None => {
                match fs::remove_dir(&parked) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
                fs::remove_dir(&self.root)?;
            }
        }
        Ok(())
    }

    /// `root/group/file`, built in the reusable buffer.
    fn path(&mut self, group: &str, file: &str) -> &Path {
        self.path_buf.clear();
        self.path_buf.push(&self.root);
        if !group.is_empty() {
            self.path_buf.push(group);
        }
        if !file.is_empty() {
            self.path_buf.push(file);
        }
        &self.path_buf
    }

    fn write_file(&mut self, group: &str, file: &str, contents: &str) -> Result<()> {
        let path = self.path(group, file);
        match fs::write(path, contents) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(OsError::Sys {
                op: "write(cgroupfs)",
                errno: libc::ENOENT,
            }),
            Err(e) => Err(e.into()),
        }
    }
}

impl CgroupFs for RealCgroupFs {
    fn now(&mut self) -> Nanos {
        clock::now()
    }

    fn create(&mut self, group: &str) -> Result<()> {
        let path = self.path(group, "");
        match fs::create_dir(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn remove(&mut self, group: &str) -> Result<()> {
        let path = self.path(group, "");
        match fs::remove_dir(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn attach(&mut self, group: &str, pid: i32) -> Result<()> {
        // Parking (`group == ""`) lands in the dedicated parked leaf,
        // never the root: once the root distributes the cpu controller,
        // the no-internal-process rule forbids it from holding
        // processes.
        let group = if group.is_empty() {
            create_dir_ok(&self.root.join(PARKED))?;
            PARKED
        } else {
            group
        };
        self.buf.clear();
        let _ = write!(self.buf, "{pid}");
        let contents = std::mem::take(&mut self.buf);
        let res = self.write_file(group, "cgroup.procs", &contents);
        self.buf = contents;
        // Writing a dead pid into cgroup.procs is ESRCH — surface it the
        // way kill(2) does so callers can treat the member as gone.
        match res {
            Err(OsError::Io(e)) if e.raw_os_error() == Some(libc::ESRCH) => {
                Err(OsError::NoSuchProcess(pid))
            }
            other => other,
        }
    }

    fn write_weight(&mut self, group: &str, weight: u64) -> Result<()> {
        self.buf.clear();
        let _ = write!(self.buf, "{weight}");
        let contents = std::mem::take(&mut self.buf);
        let res = self.write_file(group, "cpu.weight", &contents);
        self.buf = contents;
        res
    }

    fn write_max(&mut self, group: &str, max: CpuMax) -> Result<()> {
        self.buf.clear();
        let period_us = max.period.0 / 1_000;
        match max.quota {
            Some(q) => {
                let _ = write!(self.buf, "{} {}", q.0 / 1_000, period_us);
            }
            None => {
                let _ = write!(self.buf, "max {period_us}");
            }
        }
        let contents = std::mem::take(&mut self.buf);
        let res = self.write_file(group, "cpu.max", &contents);
        self.buf = contents;
        res
    }

    fn write_freeze(&mut self, group: &str, frozen: bool) -> Result<()> {
        self.write_file(group, "cgroup.freeze", if frozen { "1" } else { "0" })
    }

    fn observe(&mut self, group: &str, pid: i32) -> Result<Option<Observation>> {
        // Liveness + blocked state come from the member's held
        // /proc/<pid>/stat (the cgroup itself outlives its member); usage
        // comes from the leaf's cpu.stat, so a member is charged exactly
        // what its group consumed since enrollment regardless of
        // pre-existing CPU time.
        let stat = match self.stat.read(pid) {
            Ok(s) if !s.dead() => s,
            Ok(_) | Err(OsError::NoSuchProcess(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        // Inlined path build: keeps the `path_buf` and `buf` borrows on
        // disjoint fields.
        self.path_buf.clear();
        self.path_buf.push(&self.root);
        if !group.is_empty() {
            self.path_buf.push(group);
        }
        self.path_buf.push("cpu.stat");
        self.buf.clear();
        let read = fs::File::open(&self.path_buf).and_then(|mut f| f.read_to_string(&mut self.buf));
        match read {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let usage_us: u64 = self
            .buf
            .lines()
            .find_map(|l| l.strip_prefix("usage_usec "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or(OsError::Sys {
                op: "parse(cpu.stat)",
                errno: 0,
            })?;
        Ok(Some(Observation {
            total_cpu: Nanos(usage_us.saturating_mul(1_000)),
            blocked: stat.blocked(),
        }))
    }
}

// ----------------------------------------------------------------------
// FakeCgroupFs
// ----------------------------------------------------------------------

/// Which [`FakeCgroupFs`] operation a scripted fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FakeOp {
    /// `mkdir`.
    Create,
    /// `rmdir`.
    Remove,
    /// `cgroup.procs` writes.
    Attach,
    /// `cpu.weight` writes.
    Weight,
    /// `cpu.max` writes.
    Max,
    /// `cgroup.freeze` writes.
    Freeze,
    /// `cpu.stat` reads.
    Observe,
}

/// One in-memory cgroup leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct FakeGroup {
    /// `cpu.weight` (kernel default 100).
    pub weight: u64,
    /// `cpu.max`.
    pub max: CpuMax,
    /// `cgroup.freeze`.
    pub frozen: bool,
    /// Cumulative usage (`cpu.stat usage_usec`, in nanos).
    pub usage: Nanos,
    /// The attached member, if any (ALPS leaves hold exactly one).
    pub pid: Option<i32>,
    /// Whether the member currently sits on a wait channel (§2.4 input;
    /// a blocked member does not contend for CPU in [`FakeCgroupFs::advance`]).
    pub blocked: bool,
}

impl Default for FakeGroup {
    fn default() -> Self {
        FakeGroup {
            weight: 100,
            max: CpuMax::open(),
            frozen: false,
            usage: Nanos::ZERO,
            pid: None,
            blocked: false,
        }
    }
}

/// A deterministic in-memory cgroup2 hierarchy.
///
/// Two accrual entry points serve two test populations:
///
/// * [`FakeCgroupFs::charge`] — scripted accrual for differential tests:
///   the harness decides exactly how much each member burned (a frozen or
///   gone member burns nothing), mirroring the conformance mock;
/// * [`FakeCgroupFs::advance`] — the simulated kernel scheduler for the
///   `repro actuators` experiment: wall time advances and `dt × cpus` of
///   capacity is divided among contending groups proportionally to
///   `cpu.weight`, each group ceilinged by its single runnable member
///   (`dt`) and its `cpu.max` quota, by exact integer water-filling.
///   Unallocated capacity accrues to [`FakeCgroupFs::idle`].
///
/// Conservation is exact and proptested: `total_usage + retired + idle ==
/// horizon × cpus + charged` under arbitrary weight/cap/freeze churn.
///
/// Faults are scripted per operation with [`FakeCgroupFs::fail_next`]: the
/// next N calls of that operation fail with the given errno (EROFS for a
/// read-only mount, ENOENT for a vanished leaf, …).
#[derive(Debug, Clone, Default)]
pub struct FakeCgroupFs {
    now: Nanos,
    cpus: u32,
    groups: BTreeMap<String, FakeGroup>,
    /// Pids that have exited (attach bounces, observe reports gone,
    /// actuation against their leaf bounces like `kill(2)`).
    gone: BTreeSet<i32>,
    /// Capacity left unallocated by [`FakeCgroupFs::advance`].
    idle: Nanos,
    /// Usage of removed groups (conservation bookkeeping).
    retired: Nanos,
    /// Total scripted [`FakeCgroupFs::charge`] accrual.
    charged: Nanos,
    /// Wall time advanced via [`FakeCgroupFs::advance`] (not
    /// [`FakeCgroupFs::tick`]).
    horizon: Nanos,
    faults: HashMap<FakeOp, VecDeque<(i32, u32)>>,
}

impl FakeCgroupFs {
    /// An empty hierarchy modeling a machine with `cpus` CPUs.
    pub fn new(cpus: u32) -> Self {
        assert!(cpus >= 1, "a machine has at least one CPU");
        FakeCgroupFs {
            cpus,
            ..FakeCgroupFs::default()
        }
    }

    /// Script the next `times` calls of `op` to fail with `errno`
    /// (run-length encoded, so `u32::MAX` models a permanently broken
    /// subtree at no cost).
    pub fn fail_next(&mut self, op: FakeOp, errno: i32, times: u32) {
        if times > 0 {
            self.faults.entry(op).or_default().push_back((errno, times));
        }
    }

    fn check_fault(&mut self, op: FakeOp, opname: &'static str) -> Result<()> {
        if let Some(q) = self.faults.get_mut(&op) {
            if let Some((errno, left)) = q.front_mut() {
                let errno = *errno;
                *left -= 1;
                if *left == 0 {
                    q.pop_front();
                }
                return Err(OsError::Sys { op: opname, errno });
            }
        }
        Ok(())
    }

    /// Advance the clock without accruing usage (the differential
    /// harness's scripted clock; accrual arrives via
    /// [`FakeCgroupFs::charge`]).
    pub fn tick(&mut self, dt: Nanos) {
        self.now = self.now.saturating_add(dt);
    }

    /// Scripted accrual: add `burn` to a group's usage unless the group
    /// is frozen or its member has exited (both burn nothing, mirroring a
    /// stopped/gone process). Returns whether anything was charged.
    pub fn charge(&mut self, group: &str, burn: Nanos) -> bool {
        let gone = &self.gone;
        match self.groups.get_mut(group) {
            Some(g) if !g.frozen && g.pid.is_some_and(|p| !gone.contains(&p)) => {
                g.usage = g.usage.saturating_add(burn);
                self.charged = self.charged.saturating_add(burn);
                true
            }
            _ => false,
        }
    }

    /// Mark a member as exited: observation reports it gone, attach and
    /// leaf actuation bounce.
    pub fn kill_pid(&mut self, pid: i32) {
        self.gone.insert(pid);
    }

    /// Set a group's blocked flag (the member sits on a wait channel).
    pub fn set_blocked(&mut self, group: &str, blocked: bool) {
        if let Some(g) = self.groups.get_mut(group) {
            g.blocked = blocked;
        }
    }

    /// Inspect a group.
    pub fn group(&self, name: &str) -> Option<&FakeGroup> {
        self.groups.get(name)
    }

    /// Iterate over the live groups in name order.
    pub fn groups(&self) -> impl Iterator<Item = (&str, &FakeGroup)> {
        self.groups.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Σ usage over live groups.
    pub fn total_usage(&self) -> Nanos {
        self.groups.values().map(|g| g.usage).sum()
    }

    /// Capacity [`FakeCgroupFs::advance`] left unallocated.
    pub fn idle(&self) -> Nanos {
        self.idle
    }

    /// Usage carried by groups that were later removed.
    pub fn retired(&self) -> Nanos {
        self.retired
    }

    /// Total scripted [`FakeCgroupFs::charge`] accrual.
    pub fn charged(&self) -> Nanos {
        self.charged
    }

    /// Wall time advanced through [`FakeCgroupFs::advance`].
    pub fn horizon(&self) -> Nanos {
        self.horizon
    }

    /// The modeled CPU count.
    pub fn cpus(&self) -> u32 {
        self.cpus
    }

    /// Advance wall time by `dt`, dividing `dt × cpus` of capacity among
    /// contending groups (attached live member, not frozen, not blocked)
    /// proportionally to weight by exact integer water-filling. Each
    /// group's grant is ceilinged by `dt` (one runnable member) and by
    /// its `cpu.max` quota fraction. Conservation is exact: every nano
    /// of capacity lands in a group's usage or in [`FakeCgroupFs::idle`].
    pub fn advance(&mut self, dt: Nanos) {
        self.now = self.now.saturating_add(dt);
        self.horizon = self.horizon.saturating_add(dt);
        let mut capacity: u128 = dt.0 as u128 * self.cpus as u128;
        let gone = &self.gone;
        // (name, weight, ceiling) of every contender, in name order.
        let mut open: Vec<(String, u128, u128)> = self
            .groups
            .iter()
            .filter(|(_, g)| !g.frozen && !g.blocked && g.pid.is_some_and(|p| !gone.contains(&p)))
            .map(|(name, g)| {
                let cap = match g.max.quota {
                    Some(q) if g.max.period.0 > 0 => {
                        (q.0 as u128 * dt.0 as u128) / g.max.period.0 as u128
                    }
                    _ => dt.0 as u128,
                };
                (name.clone(), g.weight.max(1) as u128, cap.min(dt.0 as u128))
            })
            .collect();
        let mut grants: Vec<(String, u128)> = Vec::with_capacity(open.len());
        while !open.is_empty() && capacity > 0 {
            let wsum: u128 = open.iter().map(|&(_, w, _)| w).sum();
            // Provisional weight-proportional split, remainder (from
            // integer division) handed to the earliest groups so every
            // nano is assigned.
            let mut provisional: Vec<u128> =
                open.iter().map(|&(_, w, _)| capacity * w / wsum).collect();
            let mut rem = capacity - provisional.iter().sum::<u128>();
            for p in provisional.iter_mut() {
                if rem == 0 {
                    break;
                }
                *p += 1;
                rem -= 1;
            }
            // Groups whose ceiling binds take exactly their ceiling and
            // leave; the freed capacity re-splits among the rest.
            let mut any_capped = false;
            let mut still_open = Vec::with_capacity(open.len());
            for (i, (name, w, ceiling)) in open.drain(..).enumerate() {
                if provisional[i] >= ceiling {
                    any_capped = true;
                    capacity -= ceiling;
                    grants.push((name, ceiling));
                } else {
                    still_open.push((name, w, ceiling));
                }
            }
            open = still_open;
            if !any_capped {
                // No ceiling binds: the provisional split is final.
                // Indices align because no element was drained above.
                for ((name, _, _), p) in open.drain(..).zip(provisional) {
                    capacity -= p;
                    grants.push((name, p));
                }
            }
        }
        for (name, grant) in grants {
            if let Some(g) = self.groups.get_mut(&name) {
                g.usage = g.usage.saturating_add(Nanos(grant as u64));
            }
        }
        self.idle = self.idle.saturating_add(Nanos(capacity as u64));
    }

    /// Whether `pid`'s leaf actuation should bounce: the fake treats a
    /// leaf whose sole member has exited as stale, the contract the
    /// engine's reap path expects from `kill(2)`. (A real kernel accepts
    /// such writes silently; the real backend learns of the exit at the
    /// member's next observation instead.)
    fn stale(&self, group: &str) -> Option<i32> {
        let g = self.groups.get(group)?;
        let pid = g.pid?;
        self.gone.contains(&pid).then_some(pid)
    }
}

impl CgroupFs for FakeCgroupFs {
    fn now(&mut self) -> Nanos {
        self.now
    }

    fn create(&mut self, group: &str) -> Result<()> {
        self.check_fault(FakeOp::Create, "mkdir(cgroup)")?;
        self.groups.entry(group.to_string()).or_default();
        Ok(())
    }

    fn remove(&mut self, group: &str) -> Result<()> {
        self.check_fault(FakeOp::Remove, "rmdir(cgroup)")?;
        if let Some(g) = self.groups.remove(group) {
            self.retired = self.retired.saturating_add(g.usage);
        }
        Ok(())
    }

    fn attach(&mut self, group: &str, pid: i32) -> Result<()> {
        self.check_fault(FakeOp::Attach, "write(cgroup.procs)")?;
        if self.gone.contains(&pid) {
            return Err(OsError::NoSuchProcess(pid));
        }
        if group.is_empty() {
            // Parking in the subtree root: detach from whichever leaf
            // holds the pid.
            for g in self.groups.values_mut() {
                if g.pid == Some(pid) {
                    g.pid = None;
                }
            }
            return Ok(());
        }
        match self.groups.get_mut(group) {
            Some(g) => {
                g.pid = Some(pid);
                Ok(())
            }
            None => Err(OsError::Sys {
                op: "write(cgroup.procs)",
                errno: libc::ENOENT,
            }),
        }
    }

    fn write_weight(&mut self, group: &str, weight: u64) -> Result<()> {
        self.check_fault(FakeOp::Weight, "write(cpu.weight)")?;
        if let Some(pid) = self.stale(group) {
            return Err(OsError::NoSuchProcess(pid));
        }
        match self.groups.get_mut(group) {
            Some(g) => {
                g.weight = weight;
                Ok(())
            }
            None => Err(OsError::Sys {
                op: "write(cpu.weight)",
                errno: libc::ENOENT,
            }),
        }
    }

    fn write_max(&mut self, group: &str, max: CpuMax) -> Result<()> {
        self.check_fault(FakeOp::Max, "write(cpu.max)")?;
        if let Some(pid) = self.stale(group) {
            return Err(OsError::NoSuchProcess(pid));
        }
        match self.groups.get_mut(group) {
            Some(g) => {
                g.max = max;
                Ok(())
            }
            None => Err(OsError::Sys {
                op: "write(cpu.max)",
                errno: libc::ENOENT,
            }),
        }
    }

    fn write_freeze(&mut self, group: &str, frozen: bool) -> Result<()> {
        self.check_fault(FakeOp::Freeze, "write(cgroup.freeze)")?;
        if let Some(pid) = self.stale(group) {
            return Err(OsError::NoSuchProcess(pid));
        }
        match self.groups.get_mut(group) {
            Some(g) => {
                g.frozen = frozen;
                Ok(())
            }
            None => Err(OsError::Sys {
                op: "write(cgroup.freeze)",
                errno: libc::ENOENT,
            }),
        }
    }

    fn observe(&mut self, group: &str, pid: i32) -> Result<Option<Observation>> {
        self.check_fault(FakeOp::Observe, "read(cpu.stat)")?;
        if self.gone.contains(&pid) {
            return Ok(None);
        }
        Ok(self.groups.get(group).and_then(|g| {
            (g.pid == Some(pid)).then_some(Observation {
                total_cpu: g.usage,
                blocked: g.blocked,
            })
        }))
    }
}

// ----------------------------------------------------------------------
// CgroupSubstrate
// ----------------------------------------------------------------------

/// Per-member actuation state.
#[derive(Debug, Clone)]
struct MemberCtl {
    group: String,
    /// The share-derived `cpu.weight` restored on `continue` in
    /// [`ActuatorMode::Weights`].
    weight: u64,
    /// Whether the last delivery that took was a `stop`.
    stopped: bool,
}

/// A cgroup-v2 [`Substrate`]: one leaf group per controlled member, the
/// engine's stop/continue intents translated into freezer, weight, or cap
/// writes per [`ActuatorMode`] (see the module-level translation table).
#[derive(Debug)]
pub struct CgroupSubstrate<F: CgroupFs> {
    fs: F,
    mode: ActuatorMode,
    members: HashMap<i32, MemberCtl>,
    /// Reusable group-name buffer for enrollment.
    name_buf: String,
}

impl<F: CgroupFs> CgroupSubstrate<F> {
    /// A substrate actuating through `fs` in the given mode.
    pub fn new(fs: F, mode: ActuatorMode) -> Self {
        CgroupSubstrate {
            fs,
            mode,
            members: HashMap::new(),
            name_buf: String::new(),
        }
    }

    /// The actuation mode.
    pub fn mode(&self) -> ActuatorMode {
        self.mode
    }

    /// The backing filesystem.
    pub fn fs(&self) -> &F {
        &self.fs
    }

    /// The backing filesystem, mutably (test hooks on [`FakeCgroupFs`]).
    pub fn fs_mut(&mut self) -> &mut F {
        &mut self.fs
    }

    /// The leaf group a member is enrolled in.
    pub fn group_of(&self, pid: i32) -> Option<&str> {
        self.members.get(&pid).map(|m| m.group.as_str())
    }

    /// Enrolled member count.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no members are enrolled.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Take control of `pid`: create its leaf (`m<pid>`), configure
    /// weight and cap for the eligible state, and move the pid in. The
    /// caller delivers the initial suspend (per §2.2) afterwards, exactly
    /// as with the signal substrate.
    pub fn enroll(&mut self, pid: i32, share: u64) -> Result<()> {
        self.name_buf.clear();
        let _ = write!(self.name_buf, "m{pid}");
        let group = self.name_buf.clone();
        let weight = weight_of_share(share);
        self.fs.create(&group)?;
        self.fs.write_weight(&group, weight)?;
        self.fs.write_max(&group, CpuMax::open())?;
        if let Err(e) = self.fs.attach(&group, pid) {
            // The pid died between the caller's liveness check and the
            // move: tear the leaf back down and report it gone.
            let _ = self.fs.remove(&group);
            return Err(e);
        }
        self.members.insert(
            pid,
            MemberCtl {
                group,
                weight,
                stopped: false,
            },
        );
        Ok(())
    }

    /// Release `pid` from control: thaw/uncap its leaf, park the pid in
    /// the backend's park location (the [`PARKED`] leaf on the real
    /// backend), and remove the leaf. Gone members release trivially.
    pub fn release(&mut self, pid: i32) -> Result<()> {
        let Some(ctl) = self.members.remove(&pid) else {
            return Ok(());
        };
        // Restore the eligible state first so the member is runnable the
        // moment it leaves the leaf (nothing may be left frozen).
        match self.restore(&ctl) {
            Ok(()) | Err(OsError::NoSuchProcess(_)) => {}
            Err(e) => {
                self.members.insert(pid, ctl);
                return Err(e);
            }
        }
        match self.fs.attach("", pid) {
            Ok(()) | Err(OsError::NoSuchProcess(_)) => {}
            Err(e) => {
                self.members.insert(pid, ctl);
                return Err(e);
            }
        }
        self.fs.remove(&ctl.group)?;
        Ok(())
    }

    fn restore(&mut self, ctl: &MemberCtl) -> Result<()> {
        match self.mode {
            ActuatorMode::Signals => self.fs.write_freeze(&ctl.group, false),
            ActuatorMode::Weights => self.fs.write_weight(&ctl.group, ctl.weight),
            ActuatorMode::Caps => self.fs.write_max(&ctl.group, CpuMax::open()),
        }
    }

    /// Record a share change and push the new weight to the leaf at
    /// once — except for a member demoted in [`ActuatorMode::Weights`],
    /// which keeps weight 1 until its next `continue` restores the new
    /// weight.
    pub fn set_share(&mut self, pid: i32, share: u64) -> Result<()> {
        let Some(ctl) = self.members.get_mut(&pid) else {
            return Err(OsError::NoSuchProcess(pid));
        };
        ctl.weight = weight_of_share(share);
        if ctl.stopped && self.mode == ActuatorMode::Weights {
            return Ok(());
        }
        self.fs.write_weight(&ctl.group, ctl.weight)
    }
}

impl<F: CgroupFs> Substrate for CgroupSubstrate<F> {
    type Member = i32;
    type Error = OsError;

    fn now(&mut self) -> Nanos {
        self.fs.now()
    }

    fn read(&mut self, pid: i32) -> Result<Option<Observation>> {
        let Some(ctl) = self.members.get(&pid) else {
            return Ok(None);
        };
        self.fs.observe(&ctl.group, pid)
    }

    fn deliver(&mut self, pid: i32, sig: Signal) -> Result<bool> {
        let Some(ctl) = self.members.get_mut(&pid) else {
            return Ok(false);
        };
        let (group, weight) = (&ctl.group, ctl.weight);
        let res = match (self.mode, sig) {
            (ActuatorMode::Signals, Signal::Stop) => self.fs.write_freeze(group, true),
            (ActuatorMode::Signals, Signal::Continue) => self.fs.write_freeze(group, false),
            (ActuatorMode::Weights, Signal::Stop) => self.fs.write_weight(group, 1),
            (ActuatorMode::Weights, Signal::Continue) => self.fs.write_weight(group, weight),
            (ActuatorMode::Caps, Signal::Stop) => self.fs.write_max(group, CpuMax::throttled()),
            (ActuatorMode::Caps, Signal::Continue) => self.fs.write_max(group, CpuMax::open()),
        };
        match res {
            Ok(()) => {
                ctl.stopped = sig == Signal::Stop;
                Ok(true)
            }
            Err(OsError::NoSuchProcess(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed(fs: &mut FakeCgroupFs, group: &str, pid: i32) -> Observation {
        fs.observe(group, pid).unwrap().expect("member alive")
    }

    #[test]
    fn fake_charge_respects_freeze_and_exit() {
        let mut fs = FakeCgroupFs::new(1);
        fs.create("m1").unwrap();
        fs.attach("m1", 1).unwrap();
        assert!(fs.charge("m1", Nanos(100)));
        fs.write_freeze("m1", true).unwrap();
        assert!(!fs.charge("m1", Nanos(50)), "frozen members burn nothing");
        fs.write_freeze("m1", false).unwrap();
        fs.kill_pid(1);
        assert!(!fs.charge("m1", Nanos(50)), "gone members burn nothing");
        assert_eq!(fs.total_usage(), Nanos(100));
        assert_eq!(fs.observe("m1", 1).unwrap(), None, "gone member observed");
    }

    #[test]
    fn fake_advance_splits_by_weight() {
        let mut fs = FakeCgroupFs::new(1);
        for (g, w, pid) in [("a", 100, 1), ("b", 300, 2)] {
            fs.create(g).unwrap();
            fs.write_weight(g, w).unwrap();
            fs.attach(g, pid).unwrap();
        }
        fs.advance(Nanos(4_000_000));
        let a = observed(&mut fs, "a", 1).total_cpu;
        let b = observed(&mut fs, "b", 2).total_cpu;
        assert_eq!(a, Nanos(1_000_000));
        assert_eq!(b, Nanos(3_000_000));
        assert_eq!(fs.idle(), Nanos::ZERO);
    }

    #[test]
    fn fake_advance_honors_caps_and_single_member_ceiling() {
        let mut fs = FakeCgroupFs::new(2);
        for (g, pid) in [("a", 1), ("b", 2)] {
            fs.create(g).unwrap();
            fs.attach(g, pid).unwrap();
        }
        // a capped at 10% of the period; b uncapped but a single member
        // can use at most one CPU's worth of dt.
        fs.write_max(
            "a",
            CpuMax {
                quota: Some(Nanos(CPU_MAX_PERIOD.0 / 10)),
                period: CPU_MAX_PERIOD,
            },
        )
        .unwrap();
        let dt = Nanos(10_000_000);
        fs.advance(dt);
        let a = observed(&mut fs, "a", 1).total_cpu;
        let b = observed(&mut fs, "b", 2).total_cpu;
        assert_eq!(a, Nanos(1_000_000), "cap binds at 10% of dt");
        assert_eq!(b, dt, "one runnable member saturates one CPU");
        // 2 CPUs × 10ms = 20ms capacity; 11ms granted, 9ms idle.
        assert_eq!(fs.idle(), Nanos(9_000_000));
        assert_eq!(
            fs.total_usage() + fs.idle(),
            Nanos(dt.0 * 2),
            "conservation"
        );
    }

    #[test]
    fn fake_faults_fire_in_order_and_clear() {
        let mut fs = FakeCgroupFs::new(1);
        fs.create("m1").unwrap();
        fs.attach("m1", 1).unwrap();
        fs.fail_next(FakeOp::Weight, libc::EROFS, 2);
        for _ in 0..2 {
            match fs.write_weight("m1", 5) {
                Err(OsError::Sys { errno, .. }) => assert_eq!(errno, libc::EROFS),
                other => panic!("expected EROFS, got {other:?}"),
            }
        }
        fs.write_weight("m1", 5).unwrap();
        assert_eq!(fs.group("m1").unwrap().weight, 5);
    }

    #[test]
    fn substrate_translates_intents_per_mode() {
        for mode in ActuatorMode::ALL {
            let mut sub = CgroupSubstrate::new(FakeCgroupFs::new(1), mode);
            sub.enroll(7, 300).unwrap();
            let group = sub.group_of(7).unwrap().to_string();
            assert!(sub.deliver(7, Signal::Stop).unwrap());
            {
                let g = sub.fs().group(&group).unwrap();
                match mode {
                    ActuatorMode::Signals => assert!(g.frozen),
                    ActuatorMode::Weights => assert_eq!(g.weight, 1),
                    ActuatorMode::Caps => assert_eq!(g.max, CpuMax::throttled()),
                }
            }
            assert!(sub.deliver(7, Signal::Continue).unwrap());
            let g = sub.fs().group(&group).unwrap();
            assert!(!g.frozen);
            match mode {
                ActuatorMode::Signals => assert_eq!(g.weight, 300),
                ActuatorMode::Weights => assert_eq!(g.weight, 300),
                ActuatorMode::Caps => assert_eq!(g.max, CpuMax::open()),
            }
        }
    }

    #[test]
    fn a_share_change_reaches_cpu_weight_unless_demoted_by_weights() {
        for mode in ActuatorMode::ALL {
            let mut sub = CgroupSubstrate::new(FakeCgroupFs::new(1), mode);
            sub.enroll(7, 3).unwrap();
            assert!(sub.deliver(7, Signal::Continue).unwrap());
            sub.set_share(7, 7).unwrap();
            let weight = |sub: &CgroupSubstrate<FakeCgroupFs>| sub.fs().group("m7").unwrap().weight;
            assert_eq!(weight(&sub), 7, "running member, {mode}");
            assert!(sub.deliver(7, Signal::Stop).unwrap());
            sub.set_share(7, 5).unwrap();
            let demoted = if mode == ActuatorMode::Weights { 1 } else { 5 };
            assert_eq!(weight(&sub), demoted, "stopped member, {mode}");
            assert!(sub.deliver(7, Signal::Continue).unwrap());
            assert_eq!(weight(&sub), 5, "continued member, {mode}");
        }
    }

    #[test]
    fn substrate_reports_gone_members() {
        let mut sub = CgroupSubstrate::new(FakeCgroupFs::new(1), ActuatorMode::Signals);
        sub.enroll(9, 1).unwrap();
        assert!(sub.read(9).unwrap().is_some());
        sub.fs_mut().kill_pid(9);
        assert_eq!(sub.read(9).unwrap(), None);
        assert!(!sub.deliver(9, Signal::Stop).unwrap(), "actuation bounces");
        assert_eq!(sub.read(12345).unwrap(), None, "never-enrolled pid");
        assert!(!sub.deliver(12345, Signal::Continue).unwrap());
    }

    #[test]
    fn release_thaws_parks_and_removes_the_leaf() {
        let mut sub = CgroupSubstrate::new(FakeCgroupFs::new(1), ActuatorMode::Signals);
        sub.enroll(4, 2).unwrap();
        sub.deliver(4, Signal::Stop).unwrap();
        sub.release(4).unwrap();
        assert!(sub.group_of(4).is_none());
        assert!(sub.fs().group("m4").is_none(), "leaf removed");
        assert!(sub.is_empty());
        sub.release(4).unwrap(); // idempotent
    }

    #[test]
    fn enroll_of_a_dead_pid_cleans_up_and_errors() {
        let mut fs = FakeCgroupFs::new(1);
        fs.kill_pid(3);
        let mut sub = CgroupSubstrate::new(fs, ActuatorMode::Signals);
        match sub.enroll(3, 1) {
            Err(OsError::NoSuchProcess(3)) => {}
            other => panic!("expected NoSuchProcess, got {other:?}"),
        }
        assert!(sub.fs().group("m3").is_none(), "half-built leaf torn down");
    }

    #[test]
    fn actuator_mode_parses() {
        assert_eq!("signals".parse::<ActuatorMode>(), Ok(ActuatorMode::Signals));
        assert_eq!("weights".parse::<ActuatorMode>(), Ok(ActuatorMode::Weights));
        assert_eq!("caps".parse::<ActuatorMode>(), Ok(ActuatorMode::Caps));
        assert!("cfs".parse::<ActuatorMode>().is_err());
    }

    #[test]
    fn blocked_groups_do_not_contend() {
        let mut fs = FakeCgroupFs::new(1);
        for (g, pid) in [("a", 1), ("b", 2)] {
            fs.create(g).unwrap();
            fs.attach(g, pid).unwrap();
        }
        fs.set_blocked("a", true);
        fs.advance(Nanos(1_000_000));
        assert_eq!(observed(&mut fs, "a", 1).total_cpu, Nanos::ZERO);
        assert!(observed(&mut fs, "a", 1).blocked);
        assert_eq!(observed(&mut fs, "b", 2).total_cpu, Nanos(1_000_000));
    }
}
