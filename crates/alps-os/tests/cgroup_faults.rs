//! Deterministic cgroupfs fault injection against the engine.
//!
//! The real failure modes of a cgroup-v2 actuator are filesystem errors:
//! a read-only delegated subtree (`EROFS`), a leaf directory racing with
//! removal (`ENOENT`), a `cgroup.procs` entry gone stale because its sole
//! member exited. These tests script each of them through
//! [`FakeCgroupFs::fail_next`] and prove the engine's fault handling —
//! fault tallies, backed-off retries, and quarantine after three
//! consecutive strikes — behaves over a [`CgroupSubstrate`] exactly as it
//! does over signals, and that no error escapes the loop.

use std::fmt::Write as _;

use alps_core::{
    AlpsConfig, Engine, EngineStats, Instrumentation, Nanos, NullSink, Observation, ProcId, Signal,
    Substrate,
};
use alps_os::cgroup::{ActuatorMode, CgroupFs, CgroupSubstrate, FakeCgroupFs, FakeOp};
use alps_os::OsError;

const Q: Nanos = Nanos(10_000_000);

/// The cgroup substrate, noting the errno of every error it hands the
/// engine (`None` for an error without one).
struct Logged {
    inner: CgroupSubstrate<FakeCgroupFs>,
    errnos: Vec<Option<i32>>,
}

impl Logged {
    fn log<T>(&mut self, res: Result<T, OsError>) -> Result<T, OsError> {
        if let Err(e) = &res {
            self.errnos.push(match e {
                OsError::Sys { errno, .. } => Some(*errno),
                _ => None,
            });
        }
        res
    }

    fn fs_mut(&mut self) -> &mut FakeCgroupFs {
        self.inner.fs_mut()
    }
}

impl Substrate for Logged {
    type Member = i32;
    type Error = OsError;

    fn now(&mut self) -> Nanos {
        self.inner.now()
    }

    fn read(&mut self, pid: i32) -> Result<Option<Observation>, OsError> {
        let res = self.inner.read(pid);
        self.log(res)
    }

    fn deliver(&mut self, pid: i32, sig: Signal) -> Result<bool, OsError> {
        let res = self.inner.deliver(pid, sig);
        self.log(res)
    }
}

struct Rig {
    engine: Engine<i32>,
    sub: Logged,
    ids: Vec<(ProcId, i32)>,
}

/// An engine over six enrolled members with 1:2:3 shares on a single-CPU
/// fake, ready to drive quanta.
fn rig(mode: ActuatorMode) -> Rig {
    let cfg = AlpsConfig::default().with_quantum(Q);
    let mut engine: Engine<i32> = Engine::new(cfg, Instrumentation::Exact);
    let mut sub = CgroupSubstrate::new(FakeCgroupFs::new(1), mode);
    let mut ids = Vec::new();
    for pid in 100..106 {
        sub.enroll(pid, u64::from(pid as u32 % 3) + 1)
            .expect("fault-free enroll");
        let id = engine.add_member(pid, u64::from(pid as u32 % 3) + 1, Nanos::ZERO);
        ids.push((id, pid));
    }
    let sub = Logged {
        inner: sub,
        errnos: Vec::new(),
    };
    Rig { engine, sub, ids }
}

/// Advance one quantum: tick the fake clock, burn CPU on every leaf that
/// is allowed to run, and run the engine loop (which cannot fail: no
/// error escapes it).
fn quantum(r: &mut Rig, group: &mut String) {
    r.sub.fs_mut().tick(Q);
    for &(_, pid) in &r.ids {
        group.clear();
        let _ = write!(group, "m{pid}");
        let _ = r.sub.fs_mut().charge(group, Nanos(Q.0 / 2));
    }
    let Ok(_) = r.engine.run_quantum(&mut r.sub, &mut NullSink);
}

fn drive(r: &mut Rig, quanta: u64) -> EngineStats {
    let mut group = String::new();
    for _ in 0..quanta {
        quantum(r, &mut group);
    }
    r.engine.stats()
}

#[test]
fn erofs_on_weight_writes_is_tolerated_and_retried() {
    let mut r = rig(ActuatorMode::Weights);
    // A burst of read-only-filesystem failures on `cpu.weight` writes:
    // wide enough to hit several deliveries, short enough that no member
    // strikes out.
    r.sub.fs_mut().fail_next(FakeOp::Weight, libc::EROFS, 6);
    let stats = drive(&mut r, 200);
    assert_eq!(stats.quanta, 200, "loop died: {stats:?}");
    assert!(stats.signal_faults > 0, "no faults tallied: {stats:?}");
    assert!(stats.retries > 0, "no retries: {stats:?}");
    assert_eq!(
        stats.quarantined, 0,
        "transient fault quarantined: {stats:?}"
    );
    // All six members are still scheduled.
    assert_eq!(
        r.ids
            .iter()
            .filter(|&&(id, _)| r.engine.share(id).is_some())
            .count(),
        6
    );
}

#[test]
fn persistent_weight_write_failure_quarantines_the_member() {
    let mut r = rig(ActuatorMode::Weights);
    // The subtree stays read-only forever: every weight write fails, so
    // members strike out and must be quarantined rather than wedging the
    // loop.
    r.sub
        .fs_mut()
        .fail_next(FakeOp::Weight, libc::EROFS, u32::MAX);
    let stats = drive(&mut r, 300);
    assert_eq!(stats.quanta, 300, "loop died: {stats:?}");
    assert!(stats.quarantined > 0, "nobody quarantined: {stats:?}");
    assert!(
        r.ids
            .iter()
            .filter(|&&(id, _)| r.engine.share(id).is_some())
            .count()
            < 6,
        "quarantine removed nobody from scheduling"
    );
}

#[test]
fn enoent_on_freeze_writes_is_tolerated_in_signals_mode() {
    let mut r = rig(ActuatorMode::Signals);
    // A leaf racing with removal: freezer writes bounce with ENOENT for a
    // while, then recover.
    r.sub.fs_mut().fail_next(FakeOp::Freeze, libc::ENOENT, 4);
    let stats = drive(&mut r, 200);
    assert_eq!(stats.quanta, 200, "loop died: {stats:?}");
    assert!(stats.signal_faults > 0, "no faults tallied: {stats:?}");
}

#[test]
fn cap_write_failures_are_tolerated_in_caps_mode() {
    let mut r = rig(ActuatorMode::Caps);
    r.sub.fs_mut().fail_next(FakeOp::Max, libc::EACCES, 4);
    let stats = drive(&mut r, 200);
    assert_eq!(stats.quanta, 200, "loop died: {stats:?}");
    assert!(stats.signal_faults > 0, "no faults tallied: {stats:?}");
}

#[test]
fn observe_failures_count_as_read_faults() {
    let mut r = rig(ActuatorMode::Weights);
    // Two failures stay under the default strike limit even if both land
    // on the same member, so nobody is quarantined.
    r.sub.fs_mut().fail_next(FakeOp::Observe, libc::EACCES, 2);
    let stats = drive(&mut r, 200);
    assert_eq!(stats.quanta, 200, "loop died: {stats:?}");
    assert!(stats.read_faults > 0, "no read faults tallied: {stats:?}");
    assert_eq!(
        stats.quarantined, 0,
        "transient reads quarantined: {stats:?}"
    );
}

#[test]
fn stale_cgroup_procs_reaps_like_a_dead_pid() {
    // A leaf whose sole member exited bounces actuation with
    // `NoSuchProcess` and reads as gone — the engine's ordinary reap path
    // must retire the principal exactly as it does when kill(2) races an
    // exit, with no fault counted.
    let mut r = rig(ActuatorMode::Weights);
    let (id, pid) = r.ids[2];
    r.sub.fs_mut().kill_pid(pid);
    let stats = drive(&mut r, 20);
    assert_eq!(stats.quanta, 20);
    assert_eq!(stats.reaped, 1, "stale leaf not reaped: {stats:?}");
    assert_eq!((stats.read_faults, stats.signal_faults), (0, 0));
    assert!(
        r.engine.share(id).is_none(),
        "reaped principal still scheduled"
    );
    // The direct substrate view of the same fact:
    assert!(matches!(
        r.sub.fs_mut().write_weight(&format!("m{pid}"), 50),
        Err(OsError::NoSuchProcess(p)) if p == pid
    ));
}

/// A cgroupfs error is counted, not returned: with every `cpu.weight`
/// write failing with `EROFS`, each quantum completes, and every signal
/// fault the engine counts is one of those `EROFS` errors.
#[test]
fn cgroupfs_errors_are_counted_and_the_loop_continues() {
    let mut r = rig(ActuatorMode::Weights);
    let mut group = String::new();
    quantum(&mut r, &mut group);
    assert!(r.sub.errnos.is_empty());
    r.sub
        .fs_mut()
        .fail_next(FakeOp::Weight, libc::EROFS, u32::MAX);
    for _ in 0..20 {
        quantum(&mut r, &mut group);
    }
    let stats = r.engine.stats();
    assert_eq!(stats.quanta, 21);
    assert!(stats.signal_faults > 0, "no faults tallied: {stats:?}");
    assert_eq!(r.sub.errnos.len() as u64, stats.signal_faults);
    assert!(r.sub.errnos.iter().all(|&e| e == Some(libc::EROFS)));
}

#[test]
fn faulty_cgroup_runs_replay_exactly() {
    let run = |seed_faults: bool| {
        let mut r = rig(ActuatorMode::Weights);
        if seed_faults {
            r.sub.fs_mut().fail_next(FakeOp::Weight, libc::EROFS, 5);
            r.sub.fs_mut().fail_next(FakeOp::Observe, libc::EACCES, 3);
        }
        drive(&mut r, 150)
    };
    assert_eq!(run(true), run(true), "faulty runs are not deterministic");
    assert_ne!(
        run(true).signal_faults,
        run(false).signal_faults,
        "fault injection left no trace"
    );
}
