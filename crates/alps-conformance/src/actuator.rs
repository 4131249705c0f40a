//! The cgroup actuator as a [`World`] for the engine differential.
//!
//! [`run_cgroup_schedule`] is [`run_engine_in`] with production's
//! `Engine` running on a [`FakeCgroupFs`]-backed [`CgroupSubstrate`], in
//! any [`ActuatorMode`], while [`crate::OracleEngine`] runs on a
//! [`MockSubstrate`]. Besides every engine observable the driver compares,
//! the world is held to the oracle's mock by the intent-translation table
//! of [`alps_os::cgroup`], for every member ever spawned:
//!
//! * frozen exactly when stopped in freezer mode, never otherwise;
//! * `cpu.weight` 1 when stopped in weights mode, otherwise
//!   `weight_of_share` of the share last passed on (a gone member's leaf
//!   refuses writes, so its weight is not checked);
//! * `cpu.max` throttled when stopped in caps mode, open otherwise;
//! * leaf usage equal to the mock's CPU, blocked equal to blocked.
//!
//! The workload is applied through [`FakeCgroupFs::charge`], which a
//! frozen leaf refuses: a stopped member burns nothing in the mock, so
//! the charge must be taken exactly when the leaf is not frozen.

use std::collections::BTreeMap;

use alps_core::{AlpsConfig, Nanos, Signal, Substrate};
use alps_os::cgroup::{weight_of_share, ActuatorMode, CgroupSubstrate, CpuMax, FakeCgroupFs};

use crate::harness::{run_engine_in, DriveReport, EngineMode, MockProc, MockSubstrate, World};

fn leaf(pid: i32) -> String {
    format!("m{pid}")
}

impl World for CgroupSubstrate<FakeCgroupFs> {
    fn spawn_stopped(&mut self, pid: i32, share: u64, cpu: Nanos) {
        self.enroll(pid, share).expect("fake enroll cannot fault");
        assert!(
            self.fs_mut().charge(&leaf(pid), cpu),
            "a fresh leaf accepts its seed charge"
        );
        assert_eq!(self.deliver(pid, Signal::Stop).ok(), Some(true));
    }

    fn advance(&mut self, dt: Nanos) {
        self.fs_mut().tick(dt);
    }

    fn apply(&mut self, pid: i32, burn: Nanos, now: &MockProc, seed: u64) {
        let frozen = now.stopped && self.mode() == ActuatorMode::Signals;
        let (leaf, fs) = (leaf(pid), self.fs_mut());
        assert_eq!(
            fs.charge(&leaf, burn),
            !frozen,
            "a frozen leaf refuses a charge, any other takes it: {pid} (seed {seed})"
        );
        fs.set_blocked(&leaf, now.blocked);
        if now.gone {
            fs.kill_pid(pid);
        }
    }

    fn pass_share(&mut self, pid: i32, share: u64) {
        // The supervisor ignores a failed write the same way.
        let _ = self.set_share(pid, share);
    }

    fn check(&self, oracle: &MockSubstrate, shares: &BTreeMap<i32, u64>, seed: u64) {
        let mode = self.mode();
        for (&pid, p) in &oracle.procs {
            let g = self
                .fs()
                .group(&leaf(pid))
                .expect("spawned pid keeps its leaf");
            let stopped = p.stopped;
            assert_eq!(g.usage, p.cpu, "usage/cpu diverges for {pid} (seed {seed})");
            assert_eq!(
                g.blocked, p.blocked,
                "blocked state diverges for {pid} (seed {seed})"
            );
            assert_eq!(
                g.frozen,
                stopped && mode == ActuatorMode::Signals,
                "freeze/stop state diverges for {pid} stopped={stopped} (seed {seed})"
            );
            let max = if stopped && mode == ActuatorMode::Caps {
                CpuMax::throttled()
            } else {
                CpuMax::open()
            };
            assert_eq!(
                g.max, max,
                "cpu.max diverges for {pid} stopped={stopped} (seed {seed})"
            );
            if !p.gone {
                let share = shares[&pid];
                let weight = if stopped && mode == ActuatorMode::Weights {
                    1
                } else {
                    weight_of_share(share)
                };
                assert_eq!(
                    g.weight, weight,
                    "weight diverges for {pid} stopped={stopped} share={share} (seed {seed})"
                );
            }
        }
    }
}

/// Drive one generated schedule with production's `Engine` on a
/// [`CgroupSubstrate`] in `actuator` mode over a one-CPU
/// [`FakeCgroupFs`], held to [`crate::OracleEngine`]. Panics with `seed`
/// in the message on any divergence.
pub fn run_cgroup_schedule(
    actuator: ActuatorMode,
    cfg: AlpsConfig,
    mode: EngineMode,
    seed: u64,
    len: usize,
) -> DriveReport {
    run_engine_in(
        CgroupSubstrate::new(FakeCgroupFs::new(1), actuator),
        cfg,
        mode,
        seed,
        len,
    )
}
