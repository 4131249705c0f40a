//! Differential driver for the cgroup actuator.
//!
//! The cgroup substrate claims that in [`ActuatorMode::Signals`]
//! (freezer) mode it is *semantically identical* to the classic signal
//! substrate: a frozen leaf is a stopped process, `cpu.stat` is
//! cumulative CPU, a vanished member bounces actuation exactly like
//! `kill(2)`. This driver proves it the same way the engine suites prove
//! the oracle claim — run the production [`Engine`] twice over the same
//! randomized churn schedule, once on a [`FakeCgroupFs`]-backed
//! [`CgroupSubstrate`] and once on the reference [`MockSubstrate`], and
//! assert byte-identical observables after every quantum: due lists,
//! transitions, pending signals, event streams, cycle records,
//! [`alps_core::EngineStats`], and per-principal `f64` allowances by bit
//! pattern. The workload (burns, blocks, exits) is decided once per
//! quantum and applied to both worlds, so the only thing that can
//! diverge is the substrate itself.

use std::fmt::Write as _;

use alps_core::{AlpsConfig, Engine, Instrumentation, Nanos, ProcId, RecordingSink};
use alps_os::cgroup::{ActuatorMode, CgroupFs, CgroupSubstrate, FakeCgroupFs};

use crate::harness::{fold, DriveReport, MockProc, MockSubstrate};
use crate::schedule::{generate, Lcg, Op};

/// Drive one randomized churn schedule against `Engine<i32>` over a
/// signal-equivalent [`CgroupSubstrate`] (freezer mode on a
/// [`FakeCgroupFs`]) and over the reference [`MockSubstrate`], asserting
/// lockstep byte-identity after every quantum. Panics with `seed` in the
/// message on any divergence.
pub fn run_cgroup_schedule(cfg: AlpsConfig, seed: u64, len: usize) -> DriveReport {
    let mut prod_c: Engine<i32> = Engine::new(cfg, Instrumentation::Exact).with_auto_reap(true);
    let mut prod_m: Engine<i32> = Engine::new(cfg, Instrumentation::Exact).with_auto_reap(true);
    let mut cg: CgroupSubstrate<FakeCgroupFs> =
        CgroupSubstrate::new(FakeCgroupFs::new(1), ActuatorMode::Signals);
    let mut mock: MockSubstrate<i32> = MockSubstrate::default();
    let mut sink_c = RecordingSink::new();
    let mut sink_m = RecordingSink::new();
    let mut workload = Lcg::new(seed ^ 0x0BAD_CAFE);
    let mut live: Vec<ProcId> = Vec::new();
    let mut minted: Vec<ProcId> = Vec::new();
    let mut pids: Vec<i32> = Vec::new();
    let mut next_pid: i32 = 100;
    let mut group = String::new();
    let q = cfg.quantum;
    let mut report = DriveReport::default();

    for op in generate(seed, len) {
        match op {
            Op::Add { share } => {
                if live.len() >= 8 {
                    continue;
                }
                let pid = next_pid;
                next_pid += 1;
                let initial = workload.nanos_below(q);
                // Mock: spawn stopped with the initial consumption.
                mock.procs.insert(
                    pid,
                    MockProc {
                        cpu: initial,
                        blocked: false,
                        gone: false,
                        stopped: true,
                    },
                );
                // Cgroup: enroll (creates + populates the leaf), seed the
                // same initial usage, then freeze — the registration
                // contract says the caller suspends the member.
                cg.enroll(pid, share).expect("fake enroll cannot fault");
                group.clear();
                let _ = write!(group, "m{pid}");
                assert!(
                    cg.fs_mut().charge(&group, initial),
                    "fresh leaf accepts its seed charge (seed {seed})"
                );
                cg.fs_mut()
                    .write_freeze(&group, true)
                    .expect("fresh leaf freezes");
                let id = prod_c.add_member(pid, share, initial);
                let mid = prod_m.add_member(pid, share, initial);
                assert_eq!(id, mid, "minted principal ids diverge (seed {seed})");
                live.push(id);
                minted.push(id);
                pids.push(pid);
            }
            Op::Remove { victim } => {
                if live.is_empty() {
                    continue;
                }
                let id = live.remove(victim as usize % live.len());
                let members = prod_c.remove_principal(id);
                let members_m = prod_m.remove_principal(id);
                assert_eq!(members, members_m, "removed members diverge (seed {seed})");
                // Neither side actuates on removal here: the mock keeps
                // the proc in whatever run state it had, so the cgroup
                // side keeps the leaf too. (The supervisor's
                // release-on-remove is its own layer, tested in alps-os.)
            }
            Op::SetShare { victim, share } => {
                let pool = if workload.chance(1, 5) {
                    &minted
                } else {
                    &live
                };
                if pool.is_empty() {
                    continue;
                }
                let id = pool[victim as usize % pool.len()];
                assert_eq!(
                    prod_c.set_share(id, share),
                    prod_m.set_share(id, share),
                    "set_share diverges (seed {seed})"
                );
            }
            Op::Quantum { repeat } => {
                for _ in 0..repeat {
                    // Occasionally arrive late (coalesced timer).
                    let advance = if workload.chance(1, 10) { q * 3 } else { q };
                    mock.now = mock.now.saturating_add(advance);
                    cg.fs_mut().tick(advance);

                    // One workload decision per live pid, applied to both
                    // worlds: runnable members burn, some block, and
                    // occasionally one exits.
                    let decisions: Vec<(i32, Nanos, bool, bool)> = mock
                        .procs
                        .iter()
                        .filter(|(_, p)| !p.gone)
                        .map(|(&pid, p)| {
                            let burn = if p.stopped {
                                Nanos::ZERO
                            } else {
                                workload.nanos_below(Nanos(q.0 * 3 / 2))
                            };
                            let blocked = workload.chance(1, 6);
                            let exits = workload.chance(1, 40);
                            (pid, burn, blocked, exits)
                        })
                        .collect();
                    for &(pid, burn, blocked, exits) in &decisions {
                        let p = mock.procs.get_mut(&pid).expect("decided pid exists");
                        p.cpu = p.cpu.saturating_add(burn);
                        p.blocked = blocked;
                        if exits {
                            p.gone = true;
                        }
                        group.clear();
                        let _ = write!(group, "m{pid}");
                        let fs = cg.fs_mut();
                        // charge() refuses frozen/gone members on its own;
                        // a runnable mock proc must always be chargeable.
                        let charged = fs.charge(&group, burn);
                        assert_eq!(
                            charged,
                            burn > Nanos::ZERO || !p.stopped,
                            "charge/burn disagreement for {pid} (seed {seed})"
                        );
                        fs.set_blocked(&group, blocked);
                        if exits {
                            fs.kill_pid(pid);
                        }
                    }

                    let n = prod_c.begin_quantum(&mut cg, &mut sink_c).unwrap();
                    let n_m = prod_m.begin_quantum(&mut mock, &mut sink_m).unwrap();
                    assert_eq!(n, n_m, "due member counts diverge (seed {seed})");
                    let due: Vec<(ProcId, Vec<i32>)> = prod_c
                        .due()
                        .iter()
                        .map(|(id, ms)| (id, ms.to_vec()))
                        .collect();
                    let due_m: Vec<(ProcId, Vec<i32>)> = prod_m
                        .due()
                        .iter()
                        .map(|(id, ms)| (id, ms.to_vec()))
                        .collect();
                    assert_eq!(due, due_m, "due lists diverge (seed {seed})");

                    prod_c.complete_quantum(&mut cg, &mut sink_c).unwrap();
                    prod_m.complete_quantum(&mut mock, &mut sink_m).unwrap();
                    assert_eq!(
                        prod_c.last_transitions(),
                        prod_m.last_transitions(),
                        "transitions diverge (seed {seed})"
                    );
                    assert_eq!(
                        prod_c.pending_signals(),
                        prod_m.pending_signals(),
                        "signals diverge (seed {seed})"
                    );
                    assert_eq!(
                        prod_c.last_cycle_completed(),
                        prod_m.last_cycle_completed(),
                        "cycle boundary diverges (seed {seed})"
                    );
                    fold(&mut report.fingerprint, n as u64);
                    for t in prod_c.last_transitions() {
                        let (tag, id) = match *t {
                            alps_core::Transition::Resume(id) => (1u64, id),
                            alps_core::Transition::Suspend(id) => (2u64, id),
                        };
                        fold(
                            &mut report.fingerprint,
                            tag << 62 | (id.index() as u64) << 32 | u64::from(id.generation()),
                        );
                    }
                    report.quanta += 1;
                    report.cycles += u64::from(prod_c.last_cycle_completed());
                    report.transitions += prod_c.last_transitions().len() as u64;

                    prod_c.apply_pending_signals(&mut cg, &mut sink_c).unwrap();
                    prod_m
                        .apply_pending_signals(&mut mock, &mut sink_m)
                        .unwrap();

                    // Auto-reap may have removed principals; forget them
                    // on both sides identically.
                    live.retain(|&id| {
                        let l = prod_c.share(id).is_some();
                        assert_eq!(l, prod_m.share(id).is_some(), "reap diverges (seed {seed})");
                        l
                    });
                }
            }
        }

        check_twin_engines(&prod_c, &prod_m, &minted, seed);
        assert_eq!(
            sink_c.events, sink_m.events,
            "event streams diverge (seed {seed})"
        );
        check_substrates(&cg, &mock, &pids, seed);
        for &id in &minted {
            if let Some(a) = prod_c.allowance(id) {
                fold(&mut report.fingerprint, a.to_bits());
            }
        }
        report.peak_live = report.peak_live.max(live.len());
    }
    report
}

/// Every observable of two production engines, compared byte-for-byte.
fn check_twin_engines(a: &Engine<i32>, b: &Engine<i32>, minted: &[ProcId], seed: u64) {
    assert_eq!(a.stats(), b.stats(), "EngineStats diverge (seed {seed})");
    assert_eq!(a.cycles(), b.cycles(), "cycle logs diverge (seed {seed})");
    assert_eq!(
        a.scheduler().cycle_time_remaining().to_bits(),
        b.scheduler().cycle_time_remaining().to_bits(),
        "t_c diverges (seed {seed})"
    );
    assert_eq!(a.cycles_completed(), b.cycles_completed());
    for &id in minted {
        assert_eq!(a.share(id), b.share(id), "share diverges (seed {seed})");
        assert_eq!(
            a.is_eligible(id),
            b.is_eligible(id),
            "eligibility diverges (seed {seed})"
        );
        assert_eq!(
            a.allowance(id).map(f64::to_bits),
            b.allowance(id).map(f64::to_bits),
            "allowance diverges (seed {seed})"
        );
        assert_eq!(
            a.members(id),
            b.members(id),
            "members diverge (seed {seed})"
        );
    }
}

/// Cross-check the actuation state of the two worlds: frozen ↔ stopped,
/// leaf usage ↔ mock cumulative CPU, blocked ↔ blocked, for every pid
/// ever spawned.
fn check_substrates(
    cg: &CgroupSubstrate<FakeCgroupFs>,
    mock: &MockSubstrate<i32>,
    pids: &[i32],
    seed: u64,
) {
    for &pid in pids {
        let p = mock.procs.get(&pid).expect("spawned pid stays in the mock");
        let g = cg
            .fs()
            .group(&format!("m{pid}"))
            .expect("spawned pid keeps its leaf");
        assert_eq!(
            g.frozen, p.stopped,
            "freeze/stop state diverges for {pid} (seed {seed})"
        );
        assert_eq!(g.usage, p.cpu, "usage/cpu diverges for {pid} (seed {seed})");
        assert_eq!(
            g.blocked, p.blocked,
            "blocked state diverges for {pid} (seed {seed})"
        );
    }
}
