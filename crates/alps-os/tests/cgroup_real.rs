//! Live cgroup-v2 integration — runs only on a host that delegates a
//! writable subtree to this process.
//!
//! Gated twice: `#[ignore]` keeps it off every default test run, and the
//! body exits early (cleanly, as a pass) unless `ALPS_REAL_CGROUP=1` is
//! set, so even an explicit `--ignored` sweep skips it on an unprivileged
//! CI runner. To exercise it for real:
//!
//! ```text
//! ALPS_REAL_CGROUP=1 cargo test -p alps-os --test cgroup_real -- --ignored
//! ```

use std::time::Duration;

use alps_core::{Nanos, Signal, Substrate};
use alps_os::cgroup::{ActuatorMode, CgroupSubstrate, RealCgroupFs};
use alps_os::{OsError, SpinnerPool};

fn gated() -> bool {
    std::env::var("ALPS_REAL_CGROUP").as_deref() == Ok("1")
}

/// Discovery either yields a writable delegated subtree or reports
/// precisely why the host cannot offer one; it must never panic.
#[test]
#[ignore = "live cgroup: needs a delegated cgroup-v2 subtree (set ALPS_REAL_CGROUP=1)"]
fn discovery_succeeds_or_reports_unsupported() {
    if !gated() {
        eprintln!("skipping: ALPS_REAL_CGROUP is not set");
        return;
    }
    match RealCgroupFs::discover() {
        Ok(mut fs) => {
            let root = fs.root().to_path_buf();
            // The layout contract: a process-free ALPS root that
            // distributes cpu to its children, with the caller
            // evacuated into the parked leaf.
            assert!(root.join("parked").is_dir(), "parked leaf missing");
            let ctl = std::fs::read_to_string(root.join("cgroup.subtree_control"))
                .expect("root subtree_control readable");
            assert!(
                ctl.split_ascii_whitespace().any(|c| c == "cpu"),
                "ALPS root must distribute cpu to member leaves, got {ctl:?}"
            );
            let procs = std::fs::read_to_string(root.join("cgroup.procs"))
                .expect("root cgroup.procs readable");
            assert!(
                procs.trim().is_empty(),
                "ALPS root must stay process-free, got {procs:?}"
            );
            let own = std::fs::read_to_string("/proc/self/cgroup").expect("own cgroup readable");
            assert!(
                own.lines()
                    .any(|l| l.starts_with("0::") && l.trim_end().ends_with("/parked")),
                "discovery must evacuate the caller into parked, got {own:?}"
            );
            fs.remove_root().expect("fresh subtree removes cleanly");
            assert!(!root.exists(), "remove_root left the subtree behind");
        }
        Err(OsError::Unsupported(why)) => {
            panic!("ALPS_REAL_CGROUP=1 but the host offers no delegated subtree: {why}")
        }
        Err(e) => panic!("discovery failed with a non-capability error: {e}"),
    }
}

/// The full weights path against a real kernel: enroll a spinner, verify
/// the leaf exists with our weight in it, find its exit at a reading of
/// its held stat descriptor, and release.
#[test]
#[ignore = "live cgroup: needs a delegated cgroup-v2 subtree (set ALPS_REAL_CGROUP=1)"]
fn weight_writes_land_and_a_reading_finds_the_exit() {
    if !gated() {
        eprintln!("skipping: ALPS_REAL_CGROUP is not set");
        return;
    }
    let fs = RealCgroupFs::discover().expect("ALPS_REAL_CGROUP=1 requires delegation");
    let root = fs.root().to_path_buf();
    let mut sub = CgroupSubstrate::new(fs, ActuatorMode::Weights);
    let pool = SpinnerPool::spawn(1).expect("spawn a spinner");
    let pid = pool.pids()[0];

    sub.enroll(pid, 300).expect("enroll into a fresh leaf");
    let leaf = root.join(format!("m{pid}"));
    // cpu.weight only exists because the root's subtree_control
    // distributes the cpu controller to its leaves.
    let weight = std::fs::read_to_string(leaf.join("cpu.weight")).expect("cpu.weight readable");
    assert_eq!(weight.trim(), "300", "share did not land in cpu.weight");
    let procs = std::fs::read_to_string(leaf.join("cgroup.procs")).expect("cgroup.procs readable");
    assert!(
        procs.lines().any(|l| l.trim() == pid.to_string()),
        "pid {pid} not in {leaf:?}/cgroup.procs: {procs:?}"
    );

    // Actuate both intents; cpu.stat must be readable through the trait.
    assert!(sub.deliver(pid, Signal::Stop).expect("stop intent"));
    assert!(sub.deliver(pid, Signal::Continue).expect("continue intent"));
    let obs = sub
        .read(pid)
        .expect("cpu.stat read")
        .expect("live member observable");
    assert!(obs.total_cpu >= Nanos::ZERO.saturating_add(Nanos(0)));

    // The kernel accepts writes to a dead member's leaf; its exit is
    // found by the next reading, which sees the zombie.
    alps_os::signal::sigkill(pid).expect("kill the spinner");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut gone = false;
    while !gone && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        gone = sub.read(pid).expect("a reading").is_none();
    }
    assert!(gone, "the exit was never read");
    drop(pool); // reap the zombie

    sub.release(pid).expect("release tears the leaf down");
    assert!(!leaf.exists(), "leaf survived release: {leaf:?}");
    sub.fs_mut().remove_root().expect("subtree removes cleanly");
}
