//! Differential drivers: oracle and production side by side.
//!
//! Each driver takes a configuration and a seed, generates a schedule
//! ([`crate::schedule::generate`]), and applies every op to both
//! implementations, asserting byte-identical externally visible state
//! after each step: minted ids, due lists, transitions, signals, events,
//! the engines' cycle logs, aggregate counters, and per-process `f64`
//! allowances compared by bit pattern. Any divergence panics with the
//! seed, so a failure is replayable.

use core::convert::Infallible;
use std::collections::{BTreeMap, HashMap};

use alps_core::{
    AlpsConfig, AlpsScheduler, Engine, Instrumentation, IoPolicy, Nanos, Observation, ProcId,
    RecordingSink, Signal, Substrate,
};

use crate::engine::OracleEngine;
use crate::oracle::OracleScheduler;
use crate::schedule::{generate, Lcg, Op};

/// What a differential run covered, so suites can assert the schedules
/// actually reached the interesting regimes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Quanta driven.
    pub quanta: u64,
    /// Cycle boundaries crossed.
    pub cycles: u64,
    /// Eligibility transitions observed.
    pub transitions: u64,
    /// Peak live population.
    pub peak_live: usize,
    /// FNV-style fold of every per-quantum observable (due ids,
    /// transitions, allowance bit patterns), so suites can assert that two
    /// runs saw *byte-identical* scheduler behavior.
    pub fingerprint: u64,
}

/// Fold one word into a [`DriveReport::fingerprint`].
pub(crate) fn fold(fp: &mut u64, word: u64) {
    *fp = fp.wrapping_mul(0x0000_0100_0000_01B3) ^ word;
}

/// The configuration corners the suites sweep — {lazy, eager} × every
/// I/O policy, in that order — at a 10 ms quantum with the cycle log on.
pub fn config_corners() -> Vec<AlpsConfig> {
    let mut out = Vec::new();
    for lazy in [true, false] {
        for io in [
            IoPolicy::OneQuantumPenalty,
            IoPolicy::NoPenalty,
            IoPolicy::ForfeitAllowance,
        ] {
            out.push(
                AlpsConfig::new(Nanos::from_millis(10))
                    .with_lazy_measurement(lazy)
                    .with_io_policy(io)
                    .with_cycle_log(true),
            );
        }
    }
    out
}

/// One mocked process in a [`MockSubstrate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MockProc {
    /// Cumulative CPU time.
    pub cpu: Nanos,
    /// Observed-blocked flag (§2.4 input).
    pub blocked: bool,
    /// Whether the process has exited (reads return `None`, deliveries
    /// bounce).
    pub gone: bool,
    /// Whether the process is currently stopped (actuation state; the
    /// workload model does not advance stopped processes).
    pub stopped: bool,
}

/// A deterministic in-memory [`Substrate`] driven by the harness, keyed
/// by `i32` kernel pids like the OS substrates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MockSubstrate {
    /// The substrate clock.
    pub now: Nanos,
    /// Member state by pid.
    pub procs: BTreeMap<i32, MockProc>,
}

impl Substrate for MockSubstrate {
    type Member = i32;
    type Error = Infallible;

    fn now(&mut self) -> Nanos {
        self.now
    }

    fn read(&mut self, member: i32) -> Result<Option<Observation>, Infallible> {
        Ok(self.procs.get(&member).and_then(|p| {
            (!p.gone).then_some(Observation {
                total_cpu: p.cpu,
                blocked: p.blocked,
            })
        }))
    }

    fn deliver(&mut self, member: i32, signal: Signal) -> Result<bool, Infallible> {
        match self.procs.get_mut(&member) {
            Some(p) if !p.gone => {
                p.stopped = signal == Signal::Stop;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

/// The world production's `Engine` runs in while [`OracleEngine`] runs on
/// a [`MockSubstrate`]. [`run_engine_in`] does everything to both — spawn,
/// clock, workload, share changes — and then asks the world to match the
/// oracle's mock.
pub trait World: Substrate<Member = i32, Error: core::fmt::Debug> {
    /// Register `pid` at `share` with `cpu` already consumed, then stop
    /// it: the registration contract says the caller suspends a member.
    fn spawn_stopped(&mut self, pid: i32, share: u64, cpu: Nanos);

    /// Advance the clock by `dt`.
    fn advance(&mut self, dt: Nanos);

    /// Apply one member's quantum of workload: it burned `burn` (nothing
    /// if stopped) and is now blocked and gone as `now`, the oracle's
    /// mock, says. Panics with `seed` if the world refuses it.
    fn apply(&mut self, pid: i32, burn: Nanos, now: &MockProc, seed: u64);

    /// Pass a principal's new share on to one of its members, as
    /// `alps_os::Supervisor::set_share` does.
    fn pass_share(&mut self, pid: i32, share: u64);

    /// Assert that the world matches the oracle's mock; `shares` holds
    /// the share last passed to each member. Panics with `seed`.
    fn check(&self, oracle: &MockSubstrate, shares: &BTreeMap<i32, u64>, seed: u64);
}

impl World for MockSubstrate {
    fn spawn_stopped(&mut self, pid: i32, _share: u64, cpu: Nanos) {
        let proc = MockProc {
            cpu,
            blocked: false,
            gone: false,
            stopped: true,
        };
        self.procs.insert(pid, proc);
    }

    fn advance(&mut self, dt: Nanos) {
        self.now = self.now.saturating_add(dt);
    }

    fn apply(&mut self, pid: i32, burn: Nanos, now: &MockProc, _seed: u64) {
        let p = self.procs.get_mut(&pid).expect("drawn pid exists");
        p.cpu = p.cpu.saturating_add(burn);
        p.blocked = now.blocked;
        p.gone = now.gone;
    }

    fn pass_share(&mut self, _pid: i32, _share: u64) {}

    fn check(&self, oracle: &MockSubstrate, _shares: &BTreeMap<i32, u64>, seed: u64) {
        assert_eq!(self, oracle, "substrate end states diverge (seed {seed})");
    }
}

/// Fold a quantum's observables (due list, transitions, cycle flag) into
/// a fingerprint, so suites can compare whole runs for byte-identity.
fn fold_quantum(fp: &mut u64, due: &[ProcId], out: &alps_core::QuantumOutcome) {
    for &id in due {
        fold(fp, (id.index() as u64) << 32 | u64::from(id.generation()));
    }
    fold(fp, 0xD0E5_0000 | due.len() as u64);
    fold_transitions(fp, &out.transitions);
    fold(fp, u64::from(out.cycle_completed));
}

fn fold_transitions(fp: &mut u64, transitions: &[alps_core::Transition]) {
    for t in transitions {
        let (tag, id) = match *t {
            alps_core::Transition::Resume(id) => (1u64, id),
            alps_core::Transition::Suspend(id) => (2u64, id),
        };
        fold(
            fp,
            tag << 62 | (id.index() as u64) << 32 | u64::from(id.generation()),
        );
    }
}

/// Drive one generated schedule ([`generate`]) against `AlpsScheduler`
/// and [`OracleScheduler`], feeding both the same cumulative per-process
/// totals; lockstep equality is asserted after every op. Panics (with
/// `seed` in the message) on any divergence. The population is capped at
/// 12 so short schedules spend their quanta crossing cycle boundaries
/// rather than growing.
pub fn run_core_schedule(cfg: AlpsConfig, seed: u64, len: usize) -> DriveReport {
    drive_core(cfg, &generate(seed, len), seed, 12)
}

/// [`run_core_schedule`]'s driver over a caller-supplied op list, with no
/// population cap: hand-written and property-generated schedules reach
/// regimes the generator does not (populations past 12, shares large
/// enough to park a deadline beyond the wheel's first level). `seed` seeds only the workload draws (initial CPU, per-quantum
/// burn, blocked flags, mid-quantum removals).
pub fn run_core_ops(cfg: AlpsConfig, ops: &[Op], seed: u64) -> DriveReport {
    drive_core(cfg, ops, seed, usize::MAX)
}

fn drive_core(cfg: AlpsConfig, ops: &[Op], seed: u64, max_live: usize) -> DriveReport {
    let mut prod = AlpsScheduler::new(cfg);
    let mut oracle = OracleScheduler::new(cfg);
    let mut workload = Lcg::new(seed ^ 0x0051_3D0C_7E57_BEEF);
    let mut live: Vec<ProcId> = Vec::new();
    let mut minted: Vec<ProcId> = Vec::new();
    let mut cpu: HashMap<ProcId, Nanos> = HashMap::new();
    let q = cfg.quantum;
    let mut report = DriveReport::default();

    for &op in ops {
        match op {
            Op::Add { share } => {
                if live.len() >= max_live {
                    continue;
                }
                let initial = workload.nanos_below(q);
                let id = prod.add_process(share, initial);
                let oid = oracle.add_process(share, initial);
                assert_eq!(id, oid, "minted ids diverge (seed {seed})");
                live.push(id);
                minted.push(id);
                cpu.insert(id, initial);
            }
            Op::Remove { victim } => {
                if live.is_empty() {
                    continue;
                }
                let id = live.remove(victim as usize % live.len());
                assert_eq!(
                    prod.remove_process(id),
                    oracle.remove_process(id),
                    "remove diverges (seed {seed})"
                );
                // A second removal of the same id must be a stale no-op on
                // both sides.
                assert_eq!(prod.remove_process(id), None);
                assert_eq!(oracle.remove_process(id), None);
            }
            Op::SetShare { victim, share } => {
                if live.is_empty() {
                    continue;
                }
                let id = live[victim as usize % live.len()];
                assert_eq!(
                    prod.set_share(id, share),
                    oracle.set_share(id, share),
                    "set_share diverges (seed {seed})"
                );
                // A removed process's id must be stale on both sides.
                if let Some(&stale) = minted.iter().find(|&&id| prod.share(id).is_none()) {
                    let res = prod.set_share(stale, share);
                    assert!(res.is_err(), "stale id took a share (seed {seed})");
                    assert_eq!(res, oracle.set_share(stale, share));
                }
            }
            Op::Quantum { repeat } => {
                for _ in 0..repeat {
                    let due = prod.begin_quantum();
                    let due_o = oracle.begin_quantum();
                    assert_eq!(due, due_o, "due lists diverge (seed {seed})");
                    // Occasionally remove a due process between begin and
                    // complete: its observation becomes stale and both
                    // sides must skip it without charge.
                    if !due.is_empty() && workload.chance(1, 8) {
                        let id = due[workload.below(due.len() as u64) as usize];
                        live.retain(|&x| x != id);
                        assert_eq!(prod.remove_process(id), oracle.remove_process(id));
                    }
                    let obs: Vec<(ProcId, Observation)> = due
                        .iter()
                        .map(|&id| {
                            let burn = workload.nanos_below(Nanos(q.0 * 3 / 2));
                            let total = cpu.get_mut(&id).expect("due process has CPU state");
                            *total = total.saturating_add(burn);
                            let blocked = workload.chance(1, 6);
                            (
                                id,
                                Observation {
                                    total_cpu: *total,
                                    blocked,
                                },
                            )
                        })
                        .collect();
                    let out = prod.complete_quantum(&obs);
                    let out_o = oracle.complete_quantum(&obs);
                    assert_eq!(
                        out.transitions, out_o.transitions,
                        "transitions diverge (seed {seed})"
                    );
                    assert_eq!(
                        out.cycle_completed, out_o.cycle_completed,
                        "cycle boundary diverges (seed {seed})"
                    );
                    fold_quantum(&mut report.fingerprint, &due, &out);
                    report.quanta += 1;
                    report.cycles += u64::from(out.cycle_completed);
                    report.transitions += out.transitions.len() as u64;
                }
            }
        }
        check_core_state(&prod, &oracle, &minted, seed);
        for &id in &minted {
            if let Some(a) = prod.allowance(id) {
                fold(&mut report.fingerprint, a.to_bits());
            }
        }
        report.peak_live = report.peak_live.max(live.len());
    }
    report
}

/// Assert every observable aggregate and per-process value matches,
/// including `f64`s by bit pattern.
fn check_core_state(prod: &AlpsScheduler, oracle: &OracleScheduler, minted: &[ProcId], seed: u64) {
    assert_eq!(prod.len(), oracle.len(), "len diverges (seed {seed})");
    assert_eq!(
        prod.total_shares(),
        oracle.total_shares(),
        "total_shares diverges (seed {seed})"
    );
    assert_eq!(
        prod.cycles_completed(),
        oracle.cycles_completed(),
        "cycles_completed diverges (seed {seed})"
    );
    assert_eq!(
        prod.invocations(),
        oracle.invocations(),
        "invocations diverge (seed {seed})"
    );
    assert_eq!(
        prod.cycle_time_remaining().to_bits(),
        oracle.cycle_time_remaining().to_bits(),
        "t_c diverges (seed {seed}): {} vs {}",
        prod.cycle_time_remaining(),
        oracle.cycle_time_remaining()
    );
    for &id in minted {
        assert_eq!(
            prod.share(id),
            oracle.share(id),
            "share diverges (seed {seed})"
        );
        assert_eq!(
            prod.is_eligible(id),
            oracle.is_eligible(id),
            "eligibility diverges (seed {seed})"
        );
        assert_eq!(
            prod.allowance(id).map(f64::to_bits),
            oracle.allowance(id).map(f64::to_bits),
            "allowance diverges for {id:?} (seed {seed}): {:?} vs {:?}",
            prod.allowance(id),
            oracle.allowance(id)
        );
    }
}

/// Whether an engine schedule drives fixed single-member principals or
/// groups with §5 membership refreshes. Both engines reap: a fixed
/// principal dies with its member, a group never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// One fixed member per principal; exits are reaped.
    Flat,
    /// Groups of 1–3 members; membership reconciled by refresh ops.
    Principals,
}

/// The world production's engine runs in, the oracle's mock, and the share
/// last passed on to each member.
struct Worlds<W> {
    world: W,
    mock: MockSubstrate,
    shares: BTreeMap<i32, u64>,
}

impl<W: World> Worlds<W> {
    /// Spawn a member in both worlds alike; pids count up from 100 and are
    /// never reused.
    fn spawn(&mut self, rng: &mut Lcg, q: Nanos, share: u64) -> (i32, Nanos) {
        let pid = 100 + self.mock.procs.len() as i32;
        let cpu = rng.nanos_below(q);
        self.mock.spawn_stopped(pid, share, cpu);
        self.world.spawn_stopped(pid, share, cpu);
        self.shares.insert(pid, share);
        (pid, cpu)
    }
}

/// Drive one generated schedule ([`generate`]) against `alps_core::Engine`
/// and [`OracleEngine`] over twin [`MockSubstrate`]s: [`run_engine_in`]
/// with a mock world.
pub fn run_engine_schedule(
    cfg: AlpsConfig,
    mode: EngineMode,
    seed: u64,
    len: usize,
) -> DriveReport {
    run_engine_in(MockSubstrate::default(), cfg, mode, seed, len)
}

/// Drive one generated schedule ([`generate`]) against `alps_core::Engine`
/// running in `world` and [`OracleEngine`] running on a [`MockSubstrate`],
/// asserting identical due lists, transitions, signals, cycle boundaries,
/// event streams, stats and cycle logs after every op, and that the world
/// matches the oracle's mock ([`World::check`]). The workload is drawn
/// from the oracle's mock and applied to both.
pub fn run_engine_in<W: World>(
    world: W,
    cfg: AlpsConfig,
    mode: EngineMode,
    seed: u64,
    len: usize,
) -> DriveReport {
    let mut prod: Engine<i32> = Engine::new(cfg, Instrumentation::Exact);
    let mut oracle: OracleEngine<i32> = OracleEngine::new(cfg);
    let mut w = Worlds {
        world,
        mock: MockSubstrate::default(),
        shares: BTreeMap::new(),
    };
    let mut sink_p = RecordingSink::new();
    let mut sink_o = RecordingSink::new();
    let mut workload = Lcg::new(seed ^ 0x0BAD_CAFE);
    let mut live: Vec<ProcId> = Vec::new();
    let mut minted: Vec<ProcId> = Vec::new();
    let q = cfg.quantum;
    let mut report = DriveReport::default();

    for op in generate(seed, len) {
        match op {
            Op::Add { share } => {
                if live.len() >= 8 {
                    continue;
                }
                let (pid, initial) = w.spawn(&mut workload, q, share);
                let (id, oid) = match mode {
                    EngineMode::Flat => (
                        prod.add_member(pid, share, initial),
                        oracle.add_member(pid, share, initial),
                    ),
                    EngineMode::Principals => {
                        let id = prod.add_principal(share);
                        let oid = oracle.add_principal(share);
                        let mut members = vec![(pid, initial)];
                        for _ in 0..workload.below(3) {
                            members.push(w.spawn(&mut workload, q, share));
                        }
                        let sent = prod.set_membership(&mut w.world, id, &members, &mut sink_p);
                        let sent_o = oracle.set_membership(&mut w.mock, oid, &members, &mut sink_o);
                        assert_eq!(sent, sent_o, "membership signals diverge (seed {seed})");
                        (id, oid)
                    }
                };
                assert_eq!(id, oid, "minted principal ids diverge (seed {seed})");
                live.push(id);
                minted.push(id);
            }
            Op::Remove { victim } => {
                if live.is_empty() {
                    continue;
                }
                // Neither side actuates on removal: the members keep their
                // run state. (The supervisor's release-on-remove is its
                // own layer, tested in alps-os.)
                let id = live.remove(victim as usize % live.len());
                assert_eq!(
                    prod.remove_principal(id),
                    oracle.remove_principal(id),
                    "removed members diverge (seed {seed})"
                );
            }
            Op::SetShare { victim, share } => {
                if live.is_empty() {
                    continue;
                }
                let id = live[victim as usize % live.len()];
                assert_eq!(
                    prod.set_share(id, share),
                    oracle.set_share(id, share),
                    "set_share diverges (seed {seed})"
                );
                for pid in prod.members(id).unwrap_or_default() {
                    w.world.pass_share(pid, share);
                    w.shares.insert(pid, share);
                }
                // A removed principal's id must be stale on both sides.
                if let Some(&stale) = minted.iter().find(|&&id| prod.share(id).is_none()) {
                    let res = prod.set_share(stale, share);
                    assert!(res.is_err(), "stale id took a share (seed {seed})");
                    assert_eq!(res, oracle.set_share(stale, share));
                }
            }
            Op::Quantum { repeat } => {
                for _ in 0..repeat {
                    // Occasionally arrive late (coalesced timer): both
                    // engines must record the overrun.
                    let advance = if workload.chance(1, 10) { q * 3 } else { q };
                    w.mock.advance(advance);
                    w.world.advance(advance);

                    // Advance the workload model identically in both
                    // worlds: running processes burn, some block, and
                    // occasionally one exits.
                    for (&pid, p) in w.mock.procs.iter_mut().filter(|(_, p)| !p.gone) {
                        let burn = if p.stopped {
                            Nanos::ZERO
                        } else {
                            workload.nanos_below(Nanos(q.0 * 3 / 2))
                        };
                        p.cpu = p.cpu.saturating_add(burn);
                        p.blocked = workload.chance(1, 6);
                        p.gone = workload.chance(1, 40);
                        w.world.apply(pid, burn, p, seed);
                    }

                    let n = prod.begin_quantum(&mut w.world, &mut sink_p).unwrap();
                    let n_o = oracle.begin_quantum(&mut w.mock, &mut sink_o).unwrap();
                    assert_eq!(n, n_o, "due member counts diverge (seed {seed})");
                    let due: Vec<(ProcId, Vec<i32>)> = prod
                        .due()
                        .iter()
                        .map(|(id, ms)| (id, ms.to_vec()))
                        .collect();
                    assert_eq!(due, oracle.due(), "due lists diverge (seed {seed})");

                    prod.complete_quantum(&mut w.world, &mut sink_p).unwrap();
                    oracle.complete_quantum(&mut w.mock, &mut sink_o).unwrap();
                    assert_eq!(
                        prod.last_transitions(),
                        oracle.last_transitions(),
                        "transitions diverge (seed {seed})"
                    );
                    assert_eq!(
                        prod.pending_signals(),
                        oracle.pending_signals(),
                        "signals diverge (seed {seed})"
                    );
                    assert_eq!(
                        prod.last_cycle_completed(),
                        oracle.last_cycle_completed(),
                        "cycle boundary diverges (seed {seed})"
                    );
                    fold(&mut report.fingerprint, n as u64);
                    fold_transitions(&mut report.fingerprint, prod.last_transitions());
                    report.quanta += 1;
                    report.cycles += u64::from(prod.last_cycle_completed());
                    report.transitions += prod.last_transitions().len() as u64;

                    prod.apply_pending_signals(&mut w.world, &mut sink_p)
                        .unwrap();
                    oracle
                        .apply_pending_signals(&mut w.mock, &mut sink_o)
                        .unwrap();
                    // Reaping may have removed principals; forget them.
                    live.retain(|&id| prod.share(id).is_some());
                }
            }
        }

        // Membership refresh (principals mode): reconcile exits and churn
        // a member in/out, identically on both engines.
        if mode == EngineMode::Principals && !live.is_empty() && workload.chance(1, 6) {
            let id = live[workload.below(live.len() as u64) as usize];
            let mut current: Vec<(i32, Nanos)> = (prod.members(id).unwrap_or_default())
                .into_iter()
                .filter_map(|m| {
                    let p = w.mock.procs.get(&m)?;
                    (!p.gone).then_some((m, p.cpu))
                })
                .collect();
            if workload.chance(1, 2) {
                let share = oracle.share(id).expect("a live principal has a share");
                current.push(w.spawn(&mut workload, q, share));
            } else if current.len() > 1 {
                let k = workload.below(current.len() as u64) as usize;
                current.remove(k);
            }
            let sent = prod.set_membership(&mut w.world, id, &current, &mut sink_p);
            let sent_o = oracle.set_membership(&mut w.mock, id, &current, &mut sink_o);
            assert_eq!(sent, sent_o, "refresh signals diverge (seed {seed})");
        }

        check_engine_state(&prod, &oracle, &minted, seed);
        assert_eq!(
            sink_p.events, sink_o.events,
            "event streams diverge (seed {seed})"
        );
        w.world.check(&w.mock, &w.shares, seed);
        for &id in &minted {
            if let Some(a) = prod.allowance(id) {
                fold(&mut report.fingerprint, a.to_bits());
            }
        }
        report.peak_live = report.peak_live.max(live.len());
    }
    report
}

fn check_engine_state(
    prod: &Engine<i32>,
    oracle: &OracleEngine<i32>,
    minted: &[ProcId],
    seed: u64,
) {
    assert_eq!(
        prod.stats(),
        oracle.stats(),
        "EngineStats diverge (seed {seed})"
    );
    assert_eq!(
        prod.cycles(),
        oracle.cycles(),
        "cycle logs diverge (seed {seed})"
    );
    assert_eq!(
        prod.scheduler().cycle_time_remaining().to_bits(),
        oracle.scheduler().cycle_time_remaining().to_bits(),
        "t_c diverges (seed {seed})"
    );
    assert_eq!(
        prod.cycles_completed(),
        oracle.scheduler().cycles_completed()
    );
    for &id in minted {
        assert_eq!(
            prod.share(id),
            oracle.share(id),
            "share diverges (seed {seed})"
        );
        assert_eq!(
            prod.is_eligible(id),
            oracle.is_eligible(id),
            "eligibility diverges (seed {seed})"
        );
        assert_eq!(
            prod.allowance(id).map(f64::to_bits),
            oracle.allowance(id).map(f64::to_bits),
            "allowance diverges (seed {seed})"
        );
        assert_eq!(
            prod.members(id),
            oracle.members(id),
            "member sets diverge (seed {seed})"
        );
    }
}
