//! Running out of descriptors degrades the supervisor, it does not fail it.
//!
//! A member costs two descriptors: the pidfd it is signalled through and
//! an open `/proc/<pid>/stat` for the reader. The half that runs out falls
//! back: a member that gets no pidfd is signalled by number, and the
//! reader, at its first failed open, reads every member by path. This
//! file is an integration test of its own, with a single `#[test]`,
//! because it lowers the soft `RLIMIT_NOFILE` of the whole process.

use std::fs::File;
use std::time::Duration;

use alps_core::{AlpsConfig, Nanos, Signal, Substrate};
use alps_os::{proc, OsSubstrate, SpinnerPool, Supervisor};

const LIMIT: u64 = 64;
const MEMBERS: usize = 48;

fn lower_nofile_limit() {
    let mut lim = libc::rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a valid rlimit for both calls.
    unsafe {
        assert_eq!(libc::getrlimit(libc::RLIMIT_NOFILE, &mut lim), 0);
        lim.rlim_cur = LIMIT.min(lim.rlim_max);
        assert_eq!(libc::setrlimit(libc::RLIMIT_NOFILE, &lim), 0);
    }
}

/// The reader alone, with the table filled to ten free slots: the
/// eleventh descriptor it tries to hold cannot be had.
fn reader_degrades_to_by_path_reads(pids: &[i32]) {
    let mut filler: Vec<File> = std::iter::from_fn(|| File::open("/dev/null").ok()).collect();
    assert!(filler.len() < LIMIT as usize, "the limit took effect");
    filler.truncate(filler.len() - 10);
    let mut sub = OsSubstrate::new();
    for round in 0..3 {
        for &pid in pids {
            let obs = sub.read(pid).expect("a reading, held or by path");
            assert!(obs.is_some(), "round {round}: {pid} is alive");
        }
        // One-way: everything held was closed at the first EMFILE.
        assert_eq!(sub.held(), 0, "round {round}");
    }
    // The slots it gave back are free again (ten, and not one more).
    let regained: Vec<File> = std::iter::from_fn(|| File::open("/dev/null").ok()).collect();
    assert_eq!(regained.len(), 10);
}

/// Holding, with the same ten free slots. The first five members get
/// both descriptors; the sixth finds the table full, so the reader closes
/// its five and reads by path. The pidfds keep what they have and take
/// the freed slots: ten members are signalled through a pidfd, the rest
/// by number, and every one is still reached.
fn holding_degrades_both_halves(pids: &[i32]) {
    let mut filler: Vec<File> = std::iter::from_fn(|| File::open("/dev/null").ok()).collect();
    filler.truncate(filler.len() - 10);
    let mut sub = OsSubstrate::new();
    for &pid in pids {
        sub.hold(pid).expect("held, or degraded");
    }
    assert_eq!((sub.held(), sub.pidfds()), (0, 10), "the reader gave up");
    for &pid in pids {
        let sent = sub.deliver(pid, Signal::Continue).expect("a signal");
        assert!(sent, "{pid} is alive");
    }
    drop(sub);
    let regained: Vec<File> = std::iter::from_fn(|| File::open("/dev/null").ok()).collect();
    assert_eq!(regained.len(), 10);
}

/// The supervisor with more members than half the table: one of its two
/// per-member descriptors runs out during enrolment.
fn supervisor_keeps_its_cadence(pids: &[i32]) {
    let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_lazy_measurement(false);
    let mut sup = Supervisor::new(cfg);
    for (i, &pid) in pids.iter().enumerate() {
        sup.add_process(pid, 1 + i as u64 % 3)
            .unwrap_or_else(|e| panic!("add_process #{i} ({pid}): {e}"));
    }
    assert_eq!(sup.processes().len(), pids.len());
    let mut measured = 0;
    for leg in 0..5 {
        for q in 0..10 {
            sup.run_quantum()
                .unwrap_or_else(|e| panic!("quantum {q} of leg {leg}: {e}"));
        }
        let now = sup.stats().measurements;
        assert!(now > measured, "leg {leg}: measurements stuck at {now}");
        measured = now;
    }
    assert_eq!(sup.processes().len(), pids.len(), "nobody was reaped");
    sup.release_all();
    drop(sup);
    let tick = proc::ns_per_tick();
    for &pid in pids {
        let running = (0..200).any(|_| {
            let stopped = proc::read_stat(pid, tick).expect("child alive").state == 'T';
            if stopped {
                std::thread::sleep(Duration::from_millis(5));
            }
            !stopped
        });
        assert!(running, "{pid} left stopped");
    }
}

#[test]
fn descriptor_exhaustion_degrades_and_never_fails() {
    // Spawned first: a spawn needs descriptors of its own.
    let pool = SpinnerPool::spawn_sleepers(MEMBERS).expect("spawn sleepers");
    let pids = pool.pids();
    lower_nofile_limit();
    reader_degrades_to_by_path_reads(&pids);
    holding_degrades_both_halves(&pids);
    supervisor_keeps_its_cadence(&pids);
}
