//! Integration tests of the real-Linux backend against the same claims the
//! simulator reproduces — run on live processes, so tolerances are wide.

use std::time::Duration;

use alps::os::OsError;
use alps::{AlpsConfig, Membership, Nanos, SpinnerPool, Supervisor};

fn cpu_of(pid: i32) -> Nanos {
    alps::os::read_stat(pid, alps::os::proc::ns_per_tick())
        .map(|s| s.cpu_time)
        .unwrap_or(Nanos::ZERO)
}

/// Whether `pid` is out of the stopped state `T` within a second.
fn runs(pid: i32) -> bool {
    (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        alps::os::read_stat(pid, alps::os::proc::ns_per_tick()).is_ok_and(|s| s.state != 'T')
    })
}

#[test]
fn real_processes_follow_a_one_two_four_split() {
    let pool = SpinnerPool::spawn(3).expect("spawn spinners");
    let pids = pool.pids();
    let shares = [1u64, 2, 4];
    let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(20)));
    let before: Vec<Nanos> = pids.iter().map(|&p| cpu_of(p)).collect();
    for (&pid, &share) in pids.iter().zip(&shares) {
        sup.add_process(pid, share).unwrap();
    }
    sup.run_for(Duration::from_secs(4)).unwrap();
    sup.release_all();
    let consumed: Vec<f64> = pids
        .iter()
        .zip(&before)
        .map(|(&p, &b)| cpu_of(p).saturating_sub(b).as_secs_f64())
        .collect();
    let total: f64 = consumed.iter().sum();
    assert!(total > 1.0, "workload consumed {total:.2}s");
    for (c, &s) in consumed.iter().zip(&shares) {
        let got = c / total;
        let want = s as f64 / 7.0;
        assert!(
            (got - want).abs() < 0.12,
            "share {s}: got {:.2} of CPU, want {:.2} (consumed {consumed:?})",
            got,
            want
        );
    }
}

#[test]
fn real_supervisor_survives_child_churn() {
    let pool = SpinnerPool::spawn(3).expect("spawn spinners");
    let pids = pool.pids();
    let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)));
    for &pid in &pids {
        sup.add_process(pid, 1).unwrap();
    }
    sup.run_for(Duration::from_millis(500)).unwrap();
    // Kill one child mid-flight; the supervisor must reap and continue.
    alps::os::signal::sigcont(pids[1]).unwrap();
    alps::os::signal::sigkill(pids[1]).unwrap();
    sup.run_for(Duration::from_secs(1)).unwrap();
    assert_eq!(sup.processes().len(), 2);
    // Remaining children still make progress.
    let c0 = cpu_of(pids[0]);
    sup.run_for(Duration::from_secs(1)).unwrap();
    assert!(cpu_of(pids[0]) > c0);
    sup.release_all();
}

#[test]
fn real_principals_split_by_group_share() {
    let pool_a = SpinnerPool::spawn(2).expect("spawn");
    let pool_b = SpinnerPool::spawn(1).expect("spawn");
    let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(20)))
        .with_refresh_period(Duration::from_millis(500));
    sup.add_principal(1, Membership::Pids(pool_a.pids()));
    sup.add_principal(3, Membership::Pids(pool_b.pids()));
    let before_a: f64 = pool_a.pids().iter().map(|&p| cpu_of(p).as_secs_f64()).sum();
    let before_b: f64 = pool_b.pids().iter().map(|&p| cpu_of(p).as_secs_f64()).sum();
    sup.run_for(Duration::from_secs(4)).unwrap();
    sup.release_all();
    let ca: f64 = pool_a
        .pids()
        .iter()
        .map(|&p| cpu_of(p).as_secs_f64())
        .sum::<f64>()
        - before_a;
    let cb: f64 = pool_b
        .pids()
        .iter()
        .map(|&p| cpu_of(p).as_secs_f64())
        .sum::<f64>()
        - before_b;
    assert!(ca > 0.0 && cb > 0.0);
    // Group B (one process, 3 shares) gets ~3x group A (two processes, 1
    // share) — the principal abstraction decouples shares from process
    // counts.
    let ratio = cb / ca;
    assert!(
        (1.7..=4.6).contains(&ratio),
        "want ~3.0 between groups, got {cb:.2}/{ca:.2} = {ratio:.2}"
    );
}

#[test]
fn live_table1_costs_are_commensurate_with_the_model() {
    // The paper's costs are from a 2.2 GHz P4 in 2006; this machine will
    // differ, but every operation should be in the microsecond regime the
    // design depends on (not milliseconds).
    let p = alps::os::probe_table1(300).unwrap();
    assert!(p.timer_event_us < 500.0, "timer {p:?}");
    assert!(
        p.measure_base_us + p.measure_per_proc_us < 500.0,
        "measure {p:?}"
    );
    assert!(p.signal_us < 100.0, "signal {p:?}");
}

#[test]
fn real_io_bound_child_is_detected_blocked_and_not_starved() {
    // A Figure-6-shaped check on the live kernel: a burst+sleep child under
    // ALPS next to two spinners. The sleeper must still make progress, and
    // the two spinners must keep their 1:3 ratio of what remains.
    let mut pool = SpinnerPool::spawn(2).expect("spinners");
    let sleeper = pool
        .spawn_burst_sleeper(150_000, 0.2)
        .expect("burst sleeper");
    let pids = pool.pids();
    let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)));
    let before: Vec<Nanos> = pids.iter().map(|&p| cpu_of(p)).collect();
    sup.add_process(pids[0], 1).unwrap(); // spinner A
    sup.add_process(sleeper, 2).unwrap(); // I/O-ish B
    sup.add_process(pids[1], 3).unwrap(); // spinner C
    sup.run_for(Duration::from_secs(5)).unwrap();
    sup.release_all();
    let consumed: Vec<f64> = pids
        .iter()
        .zip(&before)
        .map(|(&p, &b)| cpu_of(p).saturating_sub(b).as_secs_f64())
        .collect();
    // pids = [spinner A, spinner C, sleeper B] in spawn order:
    // SpinnerPool::spawn(2) created the two spinners first.
    let (a, c, b) = (consumed[0], consumed[1], consumed[2]);
    assert!(b > 0.1, "sleeper starved: {b:.2}s");
    assert!(
        b < 5.0 * 2.0 / 6.0,
        "sleeper used {b:.2}s, must be under its share"
    );
    let ratio = c / a.max(1e-9);
    assert!(
        (1.8..=4.8).contains(&ratio),
        "A:C should stay ~1:3, got 1:{ratio:.2} ({a:.2}s vs {c:.2}s)"
    );
}

/// A pid is held by one principal at most: a second `add_process` of it
/// is refused before the pid is touched, so removing the first principal
/// leaves nobody scheduling it.
#[test]
fn a_held_pid_cannot_be_added_again() {
    let pool = SpinnerPool::spawn_sleepers(1).expect("spawn sleeper");
    let pid = pool.pids()[0];
    let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)));
    let first = sup.add_process(pid, 1).unwrap();
    match sup.add_process(pid, 2) {
        Err(OsError::AlreadyHeld(p)) => assert_eq!(p, pid),
        other => panic!("expected AlreadyHeld({pid}), got {other:?}"),
    }
    assert_eq!(sup.processes(), vec![(first, pid)]);
    sup.run_quantum().unwrap();
    sup.remove_process(first).unwrap();
    assert!(sup.processes().is_empty());
    assert!(runs(pid), "the removed pid is left stopped");
}

/// A pid a group holds cannot be added as a fixed process either.
#[test]
fn a_group_members_pid_cannot_be_added_as_a_process() {
    let pool = SpinnerPool::spawn_sleepers(2).expect("spawn sleepers");
    let pids = pool.pids();
    let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)));
    let group = sup.add_principal(1, Membership::Pids(pids.clone()));
    sup.run_quantum().unwrap(); // the first refresh enrols both
    match sup.add_process(pids[0], 1) {
        Err(OsError::AlreadyHeld(p)) => assert_eq!(p, pids[0]),
        other => panic!("expected AlreadyHeld({}), got {other:?}", pids[0]),
    }
    let mut want = pids.clone();
    want.sort_unstable();
    assert_eq!(sup.members(group), Some(want));
    assert_eq!(sup.processes().len(), 2);
}

/// The supervisor's own pid is refused before it is signalled: enrolling
/// it would stop the caller.
#[test]
fn the_supervisors_own_pid_cannot_be_added() {
    let me = std::process::id() as i32;
    let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)));
    match sup.add_process(me, 1) {
        Err(OsError::AlreadyHeld(p)) => assert_eq!(p, me),
        other => panic!("expected AlreadyHeld({me}), got {other:?}"),
    }
    assert!(sup.processes().is_empty());
}
