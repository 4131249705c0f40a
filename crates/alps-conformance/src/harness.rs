//! Differential drivers: oracle and production side by side.
//!
//! Each driver takes a configuration and a seed, generates a schedule
//! ([`crate::schedule::generate`]), and applies every op to both
//! implementations, asserting byte-identical externally visible state
//! after each step: minted ids, due lists, transitions, signals, events,
//! cycle records, aggregate counters, and per-process `f64` allowances
//! compared by bit pattern. Any divergence panics with the seed, so a
//! failure is replayable.

use core::convert::Infallible;
use std::collections::{BTreeMap, HashMap};

use alps_core::{
    AlpsConfig, AlpsScheduler, Engine, Instrumentation, IoPolicy, Nanos, NodeId, Observation,
    ProcId, RecordingSink, Signal, Substrate, TreeShares,
};

use crate::engine::OracleEngine;
use crate::oracle::OracleScheduler;
use crate::schedule::{generate, generate_smp, Lcg, Op};

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
    /// transitions, allowance bit patterns). The SMP drivers fill this in
    /// so suites can assert that two runs saw *byte-identical* scheduler
    /// behavior — e.g. that the engine's outputs are invariant in the CPU
    /// count. The uniprocessor drivers leave it 0.
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

/// Drive one generated schedule ([`generate`]) against `AlpsScheduler`
/// and [`OracleScheduler`], asserting lockstep equality after every op.
/// Panics (with `seed` in the message) on any divergence. The population
/// is capped at 12 so short schedules spend their quanta crossing cycle
/// boundaries rather than growing.
pub fn run_core_schedule(cfg: AlpsConfig, seed: u64, len: usize) -> DriveReport {
    drive_core(cfg, &generate(seed, len), seed, 12)
}

/// [`run_core_schedule`]'s driver on a caller-supplied op list, with no
/// population cap: hand-written and property-generated schedules reach
/// regimes the generator does not (populations past 12, shares large
/// enough to park a deadline beyond the wheel's first level). `seed`
/// seeds only the workload draws (initial CPU, per-quantum burn, blocked
/// flags, stale-id picks). [`Op::Migrate`] is ignored.
pub fn run_core_ops(cfg: AlpsConfig, ops: &[Op], seed: u64) -> DriveReport {
    drive_core(cfg, ops, seed, usize::MAX)
}

fn drive_core(cfg: AlpsConfig, ops: &[Op], seed: u64, max_live: usize) -> DriveReport {
    let mut prod = AlpsScheduler::new(cfg);
    let mut oracle = OracleScheduler::new(cfg);
    let mut workload = Lcg::new(seed ^ 0x00C0_FFEE);
    let mut live: Vec<ProcId> = Vec::new();
    let mut minted: Vec<ProcId> = Vec::new();
    let mut cpu: HashMap<ProcId, Nanos> = HashMap::new();
    let mut now = Nanos::ZERO;
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
                // Mostly target live processes; sometimes a stale id, which
                // must error identically.
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
                    prod.set_share(id, share),
                    oracle.set_share(id, share),
                    "set_share diverges (seed {seed})"
                );
            }
            Op::Quantum { repeat } => {
                for _ in 0..repeat {
                    now = now.saturating_add(q);
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
                            let c = cpu.get_mut(&id).expect("due process has a cpu counter");
                            *c = c.saturating_add(workload.nanos_below(Nanos(q.0 * 3 / 2)));
                            let blocked = workload.chance(1, 6);
                            (
                                id,
                                Observation {
                                    total_cpu: *c,
                                    blocked,
                                },
                            )
                        })
                        .collect();
                    let out = prod.complete_quantum(&obs, now);
                    let out_o = oracle.complete_quantum(&obs, now);
                    assert_eq!(
                        out.transitions, out_o.transitions,
                        "transitions diverge (seed {seed})"
                    );
                    assert_eq!(
                        out.cycle_completed, out_o.cycle_completed,
                        "cycle boundary diverges (seed {seed})"
                    );
                    assert_eq!(
                        out.cycle_record, out_o.cycle_record,
                        "cycle records diverge (seed {seed})"
                    );
                    report.quanta += 1;
                    report.cycles += u64::from(out.cycle_completed);
                    report.transitions += out.transitions.len() as u64;
                }
            }
            // Uniprocessor schedules never contain migrations.
            Op::Migrate { .. } => {}
        }
        check_core_state(&prod, &oracle, &minted, seed);
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

/// A deterministic in-memory [`Substrate`] driven by the harness.
///
/// Generic in the member key (default `u32`, the historical pid type of
/// the engine suites) so the actuator differential suite can key it by
/// `i32` kernel pids and compare against the cgroup substrate with no
/// type adaptation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MockSubstrate<M: Copy + Ord + core::hash::Hash + core::fmt::Debug = u32> {
    /// The substrate clock.
    pub now: Nanos,
    /// Member state by pid.
    pub procs: BTreeMap<M, MockProc>,
}

impl<M: Copy + Ord + core::hash::Hash + core::fmt::Debug> Default for MockSubstrate<M> {
    fn default() -> Self {
        MockSubstrate {
            now: Nanos::ZERO,
            procs: BTreeMap::new(),
        }
    }
}

impl<M: Copy + Ord + core::hash::Hash + core::fmt::Debug> Substrate for MockSubstrate<M> {
    type Member = M;
    type Error = Infallible;

    fn now(&mut self) -> Nanos {
        self.now
    }

    fn read(&mut self, member: M) -> Result<Option<Observation>, Infallible> {
        Ok(self.procs.get(&member).and_then(|p| {
            (!p.gone).then_some(Observation {
                total_cpu: p.cpu,
                blocked: p.blocked,
            })
        }))
    }

    fn deliver(&mut self, member: M, signal: Signal) -> Result<bool, Infallible> {
        match self.procs.get_mut(&member) {
            Some(p) if !p.gone => {
                p.stopped = signal == Signal::Stop;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

/// Whether an engine schedule drives fixed single-member principals or
/// groups with §5 membership refreshes. Both engines auto-reap, as every
/// driver's does: a fixed principal dies with its member, a group never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// One fixed member per principal; exits are auto-reaped.
    Flat,
    /// Groups of 1–3 members; membership reconciled by refresh ops.
    Principals,
}

/// Drive one schedule against `alps_core::Engine` and [`OracleEngine`]
/// over twin [`MockSubstrate`]s, asserting identical due lists,
/// transitions, signals, event streams, stats, cycle logs, and substrate
/// end states after every quantum.
pub fn run_engine_schedule(
    cfg: AlpsConfig,
    instrumentation: Instrumentation,
    mode: EngineMode,
    seed: u64,
    len: usize,
) -> DriveReport {
    let mut prod: Engine<u32> = Engine::new(cfg, instrumentation).with_auto_reap(true);
    let mut oracle: OracleEngine<u32> =
        OracleEngine::new(cfg, instrumentation).with_auto_reap(true);
    let mut sub_p = MockSubstrate::default();
    let mut sub_o = MockSubstrate::default();
    let mut sink_p = RecordingSink::new();
    let mut sink_o = RecordingSink::new();
    let mut workload = Lcg::new(seed ^ 0x0BAD_CAFE);
    let mut live: Vec<ProcId> = Vec::new();
    let mut minted: Vec<ProcId> = Vec::new();
    let mut next_pid: u32 = 100;
    let q = cfg.quantum;
    let mut report = DriveReport::default();

    // Spawn a member process in both substrates (identically), initially
    // stopped — the registration contract says the caller suspends it.
    let mut spawn = |sub_p: &mut MockSubstrate, sub_o: &mut MockSubstrate, rng: &mut Lcg| {
        let pid = next_pid;
        next_pid += 1;
        let proc = MockProc {
            cpu: rng.nanos_below(q),
            blocked: false,
            gone: false,
            stopped: true,
        };
        sub_p.procs.insert(pid, proc);
        sub_o.procs.insert(pid, proc);
        (pid, proc.cpu)
    };

    for op in generate(seed, len) {
        match op {
            Op::Add { share } => {
                if live.len() >= 8 {
                    continue;
                }
                let (pid, initial) = spawn(&mut sub_p, &mut sub_o, &mut workload);
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
                            let (extra, extra_cpu) = spawn(&mut sub_p, &mut sub_o, &mut workload);
                            members.push((extra, extra_cpu));
                        }
                        let ch = prod.set_membership(id, &members);
                        let ch_o = oracle.set_membership(oid, &members);
                        assert_eq!(ch, ch_o, "membership change diverges (seed {seed})");
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
                let id = live.remove(victim as usize % live.len());
                let members = prod.remove_principal(id);
                let members_o = oracle.remove_principal(id);
                assert_eq!(members, members_o, "removed members diverge (seed {seed})");
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
                    prod.set_share(id, share),
                    oracle.set_share(id, share),
                    "set_share diverges (seed {seed})"
                );
            }
            Op::Quantum { repeat } => {
                for _ in 0..repeat {
                    // Occasionally arrive late (coalesced timer): both
                    // engines must record the overrun.
                    let advance = if workload.chance(1, 10) { q * 3 } else { q };
                    sub_p.now = sub_p.now.saturating_add(advance);
                    sub_o.now = sub_o.now.saturating_add(advance);

                    // Advance the workload model identically in both
                    // substrates: runnable processes burn CPU, some block,
                    // and occasionally one exits.
                    let decisions: Vec<(u32, Nanos, bool, bool)> = sub_p
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
                    for sub in [&mut sub_p, &mut sub_o] {
                        for &(pid, burn, blocked, exits) in &decisions {
                            let p = sub.procs.get_mut(&pid).expect("decided pid exists");
                            p.cpu = p.cpu.saturating_add(burn);
                            p.blocked = blocked;
                            if exits {
                                p.gone = true;
                            }
                        }
                    }

                    let n = prod.begin_quantum(&mut sub_p, &mut sink_p).unwrap();
                    let n_o = oracle.begin_quantum(&mut sub_o, &mut sink_o).unwrap();
                    assert_eq!(n, n_o, "due member counts diverge (seed {seed})");
                    let due: Vec<(ProcId, Vec<u32>)> = prod
                        .due()
                        .iter()
                        .map(|(id, ms)| (id, ms.to_vec()))
                        .collect();
                    assert_eq!(due, oracle.due(), "due lists diverge (seed {seed})");

                    prod.complete_quantum(&mut sub_p, &mut sink_p).unwrap();
                    oracle.complete_quantum(&mut sub_o, &mut sink_o).unwrap();
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
                    report.quanta += 1;
                    report.cycles += u64::from(prod.last_cycle_completed());
                    report.transitions += prod.last_transitions().len() as u64;

                    prod.apply_pending_signals(&mut sub_p, &mut sink_p).unwrap();
                    oracle
                        .apply_pending_signals(&mut sub_o, &mut sink_o)
                        .unwrap();

                    // Auto-reap may have removed principals; forget them.
                    live.retain(|&id| prod.share(id).is_some());
                }
            }
            // Uniprocessor schedules never contain migrations.
            Op::Migrate { .. } => {}
        }

        // Membership refresh (principals mode): reconcile exits and churn
        // a member in/out, identically on both engines.
        if mode == EngineMode::Principals && !live.is_empty() && workload.chance(1, 6) {
            let id = live[workload.below(live.len() as u64) as usize];
            let members = prod.members(id).unwrap_or_default();
            let mut current: Vec<(u32, Nanos)> = members
                .iter()
                .filter(|m| sub_p.procs.get(m).is_some_and(|p| !p.gone))
                .map(|&m| (m, sub_p.procs[&m].cpu))
                .collect();
            if workload.chance(1, 2) {
                let (pid, cpu) = spawn(&mut sub_p, &mut sub_o, &mut workload);
                current.push((pid, cpu));
            } else if current.len() > 1 {
                let k = workload.below(current.len() as u64) as usize;
                current.remove(k);
            }
            let ch = prod.set_membership(id, &current);
            let ch_o = oracle.set_membership(id, &current);
            assert_eq!(ch, ch_o, "refresh change diverges (seed {seed})");
            if let Some(ch) = ch {
                prod.apply_signals(&mut sub_p, &ch.signals, &mut sink_p)
                    .unwrap();
                oracle
                    .apply_signals(&mut sub_o, &ch.signals, &mut sink_o)
                    .unwrap();
            }
        }

        check_engine_state(&prod, &oracle, &minted, seed);
        assert_eq!(
            sink_p.events, sink_o.events,
            "event streams diverge (seed {seed})"
        );
        assert_eq!(sub_p, sub_o, "substrate end states diverge (seed {seed})");
        report.peak_live = report.peak_live.max(live.len());
    }
    report
}

fn check_engine_state(
    prod: &Engine<u32>,
    oracle: &OracleEngine<u32>,
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

/// Drive one schedule against an [`AlpsScheduler`] whose shares come from
/// a live 3-level [`TreeShares`] (root → departments → apps → members)
/// under full churn — binds, unbinds, and group-weight changes — holding
/// the *cached* incremental-entitlement path against a from-scratch tree
/// walk ([`TreeShares::share_naive`]) at every bind and every due-member
/// refresh. Any stale epoch cache, broken liveness aggregate, or wrong
/// invalidation diverges and panics with the seed.
///
/// The returned [`DriveReport::fingerprint`] folds every quantum's due
/// list, transitions, and allowance bit patterns; `tests/pins.rs` holds
/// it to committed constants.
pub fn run_tree_schedule(cfg: AlpsConfig, seed: u64, len: usize) -> DriveReport {
    let mut sched = AlpsScheduler::new(cfg);
    // A small quantization scale keeps total shares — and with them the
    // cycle length S·Q — in the regime where short schedules actually
    // cross cycle boundaries, and exercises the `max(1, …)` rounding the
    // production scale never hits.
    let mut ts = TreeShares::new(24);
    // The static grouping skeleton: 2 departments × 3 apps.
    let mut groups: Vec<NodeId> = Vec::new();
    let mut apps: Vec<NodeId> = Vec::new();
    for _ in 0..2 {
        let d = ts.tree_mut().add_group(None, 1);
        groups.push(d);
        for _ in 0..3 {
            let a = ts.tree_mut().add_group(Some(d), 1);
            groups.push(a);
            apps.push(a);
        }
    }
    let mut workload = Lcg::new(seed ^ 0x7EE5_7AE5_0000_0001);
    let mut live: Vec<ProcId> = Vec::new();
    let mut cpu: HashMap<ProcId, Nanos> = HashMap::new();
    let mut now = Nanos::ZERO;
    let q = cfg.quantum;
    let mut report = DriveReport::default();

    for op in generate(seed, len) {
        match op {
            Op::Add { share } => {
                if live.len() >= 12 {
                    continue;
                }
                let initial = workload.nanos_below(q);
                let id = sched.add_process(1, initial);
                let app = apps[share as usize % apps.len()];
                let weight = 1 + share % 4;
                let s = ts.bind(id, Some(app), weight);
                assert_eq!(
                    ts.share_naive(id),
                    Some(s),
                    "bind-time share diverges from the naive walk (seed {seed})"
                );
                sched.set_share(id, s).expect("freshly minted id");
                live.push(id);
                cpu.insert(id, initial);
            }
            Op::Remove { victim } => {
                if live.is_empty() {
                    continue;
                }
                let id = live.remove(victim as usize % live.len());
                assert!(
                    ts.unbind(id).is_some(),
                    "live member is bound (seed {seed})"
                );
                assert!(ts.unbind(id).is_none(), "double unbind is a no-op");
                sched.remove_process(id).expect("live member is registered");
            }
            Op::SetShare { victim, share } => {
                // Reinterpreted as a group-weight change: the tree is the
                // only share authority in this driver.
                let g = groups[victim as usize % groups.len()];
                assert!(
                    ts.tree_mut().set_share(g, 1 + share % 5),
                    "skeleton groups are never removed (seed {seed})"
                );
            }
            Op::Quantum { repeat } => {
                for _ in 0..repeat {
                    now = now.saturating_add(q);
                    let due = sched.begin_quantum();
                    let obs: Vec<(ProcId, Observation)> = due
                        .iter()
                        .map(|&id| {
                            let c = cpu.get_mut(&id).expect("due member has a cpu counter");
                            *c = c.saturating_add(workload.nanos_below(Nanos(q.0 * 3 / 2)));
                            (
                                id,
                                Observation {
                                    total_cpu: *c,
                                    blocked: workload.chance(1, 6),
                                },
                            )
                        })
                        .collect();
                    let out = sched.complete_quantum(&obs, now);
                    // Lazy refresh, exactly as the engine does it: due
                    // members only, between quanta. The cached answer must
                    // match a from-scratch walk every single time.
                    for &id in &due {
                        let naive = ts.share_naive(id);
                        match ts.refresh(id) {
                            Some(new) => {
                                assert_eq!(
                                    naive,
                                    Some(new),
                                    "cached refresh diverges from the naive walk (seed {seed})"
                                );
                                sched.set_share(id, new).expect("due member is live");
                            }
                            None => {
                                if naive.is_some() {
                                    assert_eq!(
                                        naive,
                                        sched.share(id),
                                        "in-sync binding disagrees with the naive walk (seed {seed})"
                                    );
                                }
                            }
                        }
                    }
                    fold_quantum(&mut report.fingerprint, &due, &out);
                    report.quanta += 1;
                    report.cycles += u64::from(out.cycle_completed);
                    report.transitions += out.transitions.len() as u64;
                }
            }
            // Uniprocessor schedules never contain migrations.
            Op::Migrate { .. } => {}
        }
        for &id in &live {
            if let Some(a) = sched.allowance(id) {
                fold(&mut report.fingerprint, a.to_bits());
            }
        }
        report.peak_live = report.peak_live.max(live.len());
    }
    report
}

/// Drive identical quantum schedules against a scheduler whose shares come
/// from a *static, fully balanced* 3-level tree (2 departments × 3 apps ×
/// 2 members, all weights equal) and a flat scheduler given the same
/// integer shares directly, asserting byte-identical due lists,
/// transitions, cycle boundaries, and allowance bit patterns every
/// quantum — the hierarchy layer must be a semantic no-op when
/// entitlements are static.
///
/// Balanced churn keeps the tree epoch moving: members are periodically
/// replaced by an equal-weight twin under the same app, so the cached
/// entitlement path re-derives shares (cache invalidated) and must land
/// on the same quantized value (refresh returns `None`); the flat side
/// mirrors the remove/add with the same constant share.
pub fn run_tree_flat_equivalence(cfg: AlpsConfig, seed: u64, len: usize) -> DriveReport {
    let mut tree_s = AlpsScheduler::new(cfg);
    let mut flat_s = AlpsScheduler::new(cfg);
    // Small scale for short cycles (see `run_tree_schedule`); 24 divides
    // evenly by the 12-member balanced population, so every member's
    // quantized share is exactly 2.
    let mut ts = TreeShares::new(24);
    let mut apps: Vec<NodeId> = Vec::new();
    for _ in 0..2 {
        let d = ts.tree_mut().add_group(None, 1);
        for _ in 0..3 {
            apps.push(ts.tree_mut().add_group(Some(d), 1));
        }
    }
    let mut workload = Lcg::new(seed ^ 0x7EE5_F1A7_0000_0002);
    let q = cfg.quantum;
    let mut report = DriveReport::default();

    // Build the full population, mirroring every call: the tree side
    // registers with the bind-time share, the flat side with the same
    // value. Earlier members' bind-time shares are stale by the time the
    // population is complete, so a settle pass re-derives them — applying
    // the identical correction to both sides.
    let mut live: Vec<(ProcId, ProcId, Nanos)> = Vec::new();
    for k in 0..12 {
        let initial = workload.nanos_below(q);
        let id = tree_s.add_process(1, initial);
        let s = ts.bind(id, Some(apps[k % apps.len()]), 1);
        tree_s.set_share(id, s).expect("fresh id");
        let fid = flat_s.add_process(1, initial);
        flat_s.set_share(fid, s).expect("fresh id");
        assert_eq!(id, fid, "minted ids diverge (seed {seed})");
        live.push((id, fid, initial));
    }
    let balanced = ts.share_naive(live[0].0).expect("bound");
    for &(id, fid, _) in &live {
        if let Some(new) = ts.refresh(id) {
            tree_s.set_share(id, new).expect("live");
            flat_s.set_share(fid, new).expect("live");
        }
        // A fully balanced tree gives every member the same entitlement.
        assert_eq!(ts.share_naive(id), Some(balanced), "balanced (seed {seed})");
        assert_eq!(tree_s.share(id), Some(balanced), "settled (seed {seed})");
    }

    let mut now = Nanos::ZERO;
    for step in 0..len {
        // Balanced churn: replace one member with an equal twin under the
        // same app. Entitlements are unchanged, but the tree epoch moves,
        // so the cached path must re-derive — and land exactly where the
        // flat side's constant share already is.
        if workload.chance(1, 4) {
            let k = workload.below(live.len() as u64) as usize;
            let (id, fid, _) = live[k];
            let app = apps[k % apps.len()];
            ts.unbind(id).expect("live member is bound");
            tree_s.remove_process(id).expect("live");
            flat_s.remove_process(fid).expect("live");
            let initial = workload.nanos_below(q);
            let nid = tree_s.add_process(1, initial);
            let s = ts.bind(nid, Some(app), 1);
            assert_eq!(
                s, balanced,
                "full-population bind lands on the balanced share (seed {seed}, step {step})"
            );
            tree_s.set_share(nid, s).expect("fresh id");
            let nfid = flat_s.add_process(1, initial);
            flat_s.set_share(nfid, s).expect("fresh id");
            assert_eq!(nid, nfid, "minted ids diverge (seed {seed})");
            live[k] = (nid, nfid, initial);
        }
        now = now.saturating_add(q);
        let due_t = tree_s.begin_quantum();
        let due_f = flat_s.begin_quantum();
        assert_eq!(due_t, due_f, "due lists diverge (seed {seed}, step {step})");
        let obs: Vec<(ProcId, Observation)> = due_t
            .iter()
            .map(|&id| {
                let c = &mut live
                    .iter_mut()
                    .find(|(t, _, _)| *t == id)
                    .expect("due member is live")
                    .2;
                *c = c.saturating_add(workload.nanos_below(Nanos(q.0 * 3 / 2)));
                (
                    id,
                    Observation {
                        total_cpu: *c,
                        blocked: workload.chance(1, 6),
                    },
                )
            })
            .collect();
        let out_t = tree_s.complete_quantum(&obs, now);
        let out_f = flat_s.complete_quantum(&obs, now);
        assert_eq!(
            out_t.transitions, out_f.transitions,
            "transitions diverge (seed {seed}, step {step})"
        );
        assert_eq!(
            out_t.cycle_completed, out_f.cycle_completed,
            "cycle boundary diverges (seed {seed}, step {step})"
        );
        // The tree layer is quiescent: every refresh re-derives the same
        // balanced share, so nothing ever feeds back into the scheduler.
        for &id in &due_t {
            assert_eq!(
                ts.refresh(id),
                None,
                "static balanced tree changed a share (seed {seed}, step {step})"
            );
        }
        for &(id, fid, _) in &live {
            assert_eq!(
                tree_s.allowance(id).map(f64::to_bits),
                flat_s.allowance(fid).map(f64::to_bits),
                "allowance diverges (seed {seed}, step {step})"
            );
        }
        fold_quantum(&mut report.fingerprint, &due_t, &out_t);
        report.quanta += 1;
        report.cycles += u64::from(out_t.cycle_completed);
        report.transitions += out_t.transitions.len() as u64;
        report.peak_live = report.peak_live.max(live.len());
    }
    report
}

// ----------------------------------------------------------------------
// SMP mode
// ----------------------------------------------------------------------

/// One mocked process on an M-CPU machine: consumption is recorded per
/// CPU and merged at read time, exactly as a real collector sums per-CPU
/// cputime for a thread that migrated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmpMockProc {
    /// Per-CPU consumption, indexed by CPU.
    pub split: Vec<Nanos>,
    /// The CPU the process currently runs on (where burn is charged).
    pub on: usize,
    /// Observed-blocked flag (§2.4 input).
    pub blocked: bool,
    /// Whether the process has exited.
    pub gone: bool,
    /// Whether the process is currently stopped.
    pub stopped: bool,
}

impl SmpMockProc {
    /// The merged cumulative CPU total: the sum across CPUs.
    pub fn merged(&self) -> Nanos {
        self.split.iter().copied().sum()
    }
}

/// A deterministic M-CPU [`Substrate`]: `read` reports the *merged*
/// per-member total regardless of which CPUs ran the member — the only
/// accounting ALPS ever sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmpMockSubstrate {
    /// The substrate clock.
    pub now: Nanos,
    /// CPU count (M ≥ 1).
    pub cpus: usize,
    /// Member state by pid.
    pub procs: BTreeMap<u32, SmpMockProc>,
}

impl SmpMockSubstrate {
    /// An empty M-CPU substrate.
    pub fn new(cpus: usize) -> Self {
        assert!(cpus >= 1);
        SmpMockSubstrate {
            now: Nanos::ZERO,
            cpus,
            procs: BTreeMap::new(),
        }
    }
}

impl Substrate for SmpMockSubstrate {
    type Member = u32;
    type Error = Infallible;

    fn now(&mut self) -> Nanos {
        self.now
    }

    fn read(&mut self, member: u32) -> Result<Option<Observation>, Infallible> {
        Ok(self.procs.get(&member).and_then(|p| {
            (!p.gone).then_some(Observation {
                total_cpu: p.merged(),
                blocked: p.blocked,
            })
        }))
    }

    fn deliver(&mut self, member: u32, signal: Signal) -> Result<bool, Infallible> {
        match self.procs.get_mut(&member) {
            Some(p) if !p.gone => {
                p.stopped = signal == Signal::Stop;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

/// Per-process consumption bookkeeping for the core-level SMP drivers: a
/// per-CPU split, the CPU currently charged, and an independently
/// maintained scalar total the split must always sum to.
struct SmpCpuState {
    split: Vec<Nanos>,
    on: usize,
    scalar: Nanos,
}

impl SmpCpuState {
    fn new(cpus: usize, initial: Nanos) -> Self {
        let mut split = vec![Nanos::ZERO; cpus];
        split[0] = initial;
        SmpCpuState {
            split,
            on: 0,
            scalar: initial,
        }
    }

    /// Charge `burn` on the current CPU; return the merged total after
    /// asserting it still equals the scalar (conservation).
    fn burn(&mut self, burn: Nanos, seed: u64) -> Nanos {
        self.split[self.on] = self.split[self.on].saturating_add(burn);
        self.scalar = self.scalar.saturating_add(burn);
        let merged: Nanos = self.split.iter().copied().sum();
        assert_eq!(
            merged, self.scalar,
            "per-CPU split does not sum to the total (seed {seed})"
        );
        merged
    }
}

/// Fold a quantum's observables (due list, transitions, cycle flag) into
/// a fingerprint, so suites can compare whole runs for byte-identity.
fn fold_quantum(fp: &mut u64, due: &[ProcId], out: &alps_core::QuantumOutcome) {
    for &id in due {
        fold(fp, (id.index() as u64) << 32 | u64::from(id.generation()));
    }
    fold(fp, 0xD0E5_0000 | due.len() as u64);
    for t in &out.transitions {
        let (tag, id) = match *t {
            alps_core::Transition::Resume(id) => (1u64, id),
            alps_core::Transition::Suspend(id) => (2u64, id),
        };
        fold(
            fp,
            tag << 62 | (id.index() as u64) << 32 | u64::from(id.generation()),
        );
    }
    fold(fp, u64::from(out.cycle_completed));
}

/// Drive one SMP schedule ([`generate_smp`]) against `AlpsScheduler` and
/// [`OracleScheduler`], feeding both the *merged* per-process totals of
/// an M-CPU consumption model with migration churn; lockstep equality is
/// asserted after every op and split/total conservation at every charge.
///
/// The schedule, the workload draws, and therefore every observation fed
/// to the schedulers are independent of `cpus` — migrations only move
/// *where* burn is charged — so the returned [`DriveReport`]
/// (fingerprint included) is identical for every M. Suites assert
/// exactly that.
pub fn run_core_schedule_smp(cfg: AlpsConfig, seed: u64, len: usize, cpus: usize) -> DriveReport {
    let mut prod = AlpsScheduler::new(cfg);
    let mut oracle = OracleScheduler::new(cfg);
    let mut workload = Lcg::new(seed ^ 0x0051_3D0C_7E57_BEEF);
    let mut live: Vec<ProcId> = Vec::new();
    let mut minted: Vec<ProcId> = Vec::new();
    let mut cpu: HashMap<ProcId, SmpCpuState> = HashMap::new();
    let mut now = Nanos::ZERO;
    let q = cfg.quantum;
    let mut report = DriveReport::default();

    for op in generate_smp(seed, len) {
        match op {
            Op::Add { share } => {
                if live.len() >= 12 {
                    continue;
                }
                let initial = workload.nanos_below(q);
                let id = prod.add_process(share, initial);
                let oid = oracle.add_process(share, initial);
                assert_eq!(id, oid, "minted ids diverge (seed {seed})");
                live.push(id);
                minted.push(id);
                cpu.insert(id, SmpCpuState::new(cpus, initial));
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
            }
            Op::Migrate { victim, cpu: c } => {
                if live.is_empty() {
                    continue;
                }
                let id = live[victim as usize % live.len()];
                cpu.get_mut(&id).expect("live process has CPU state").on = c as usize % cpus;
            }
            Op::Quantum { repeat } => {
                for _ in 0..repeat {
                    now = now.saturating_add(q);
                    let due = prod.begin_quantum();
                    let due_o = oracle.begin_quantum();
                    assert_eq!(due, due_o, "due lists diverge (seed {seed})");
                    let obs: Vec<(ProcId, Observation)> = due
                        .iter()
                        .map(|&id| {
                            let burn = workload.nanos_below(Nanos(q.0 * 3 / 2));
                            let merged = cpu
                                .get_mut(&id)
                                .expect("due process has CPU state")
                                .burn(burn, seed);
                            let blocked = workload.chance(1, 6);
                            (
                                id,
                                Observation {
                                    total_cpu: merged,
                                    blocked,
                                },
                            )
                        })
                        .collect();
                    let out = prod.complete_quantum(&obs, now);
                    let out_o = oracle.complete_quantum(&obs, now);
                    assert_eq!(
                        out.transitions, out_o.transitions,
                        "transitions diverge (seed {seed})"
                    );
                    assert_eq!(
                        out.cycle_completed, out_o.cycle_completed,
                        "cycle boundary diverges (seed {seed})"
                    );
                    assert_eq!(
                        out.cycle_record, out_o.cycle_record,
                        "cycle records diverge (seed {seed})"
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

/// Drive one SMP schedule against `alps_core::Engine` and
/// [`OracleEngine`] over twin [`SmpMockSubstrate`]s (flat principals,
/// auto-reap): the engines see only merged per-member totals while the
/// workload migrates processes between CPUs underneath them.
///
/// Like [`run_core_schedule_smp`], everything the engines observe is
/// independent of `cpus`, so the report (fingerprint included) must be
/// identical for every M.
pub fn run_engine_schedule_smp(
    cfg: AlpsConfig,
    instrumentation: Instrumentation,
    seed: u64,
    len: usize,
    cpus: usize,
) -> DriveReport {
    let mut prod: Engine<u32> = Engine::new(cfg, instrumentation).with_auto_reap(true);
    let mut oracle: OracleEngine<u32> =
        OracleEngine::new(cfg, instrumentation).with_auto_reap(true);
    let mut sub_p = SmpMockSubstrate::new(cpus);
    let mut sub_o = SmpMockSubstrate::new(cpus);
    let mut sink_p = RecordingSink::new();
    let mut sink_o = RecordingSink::new();
    let mut workload = Lcg::new(seed ^ 0x0BAD_CAFE);
    let mut live: Vec<ProcId> = Vec::new();
    let mut minted: Vec<ProcId> = Vec::new();
    let mut next_pid: u32 = 100;
    let q = cfg.quantum;
    let mut report = DriveReport::default();

    let mut spawn = |sub_p: &mut SmpMockSubstrate, sub_o: &mut SmpMockSubstrate, rng: &mut Lcg| {
        let pid = next_pid;
        next_pid += 1;
        let mut split = vec![Nanos::ZERO; cpus];
        split[0] = rng.nanos_below(q);
        let proc = SmpMockProc {
            split,
            on: 0,
            blocked: false,
            gone: false,
            stopped: true,
        };
        let initial = proc.merged();
        sub_p.procs.insert(pid, proc.clone());
        sub_o.procs.insert(pid, proc);
        (pid, initial)
    };

    for op in generate_smp(seed, len) {
        match op {
            Op::Add { share } => {
                if live.len() >= 8 {
                    continue;
                }
                let (pid, initial) = spawn(&mut sub_p, &mut sub_o, &mut workload);
                let id = prod.add_member(pid, share, initial);
                let oid = oracle.add_member(pid, share, initial);
                assert_eq!(id, oid, "minted principal ids diverge (seed {seed})");
                live.push(id);
                minted.push(id);
            }
            Op::Remove { victim } => {
                if live.is_empty() {
                    continue;
                }
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
            }
            Op::Migrate { victim, cpu } => {
                if live.is_empty() {
                    continue;
                }
                let id = live[victim as usize % live.len()];
                let target = cpu as usize % cpus;
                for m in prod.members(id).unwrap_or_default() {
                    for sub in [&mut sub_p, &mut sub_o] {
                        if let Some(p) = sub.procs.get_mut(&m) {
                            p.on = target;
                        }
                    }
                }
            }
            Op::Quantum { repeat } => {
                for _ in 0..repeat {
                    let advance = if workload.chance(1, 10) { q * 3 } else { q };
                    sub_p.now = sub_p.now.saturating_add(advance);
                    sub_o.now = sub_o.now.saturating_add(advance);

                    // Advance the workload model identically in both
                    // substrates: burn lands on each process's current
                    // CPU; the engines only ever see the merged sum.
                    let decisions: Vec<(u32, Nanos, bool, bool)> = sub_p
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
                    for sub in [&mut sub_p, &mut sub_o] {
                        for &(pid, burn, blocked, exits) in &decisions {
                            let p = sub.procs.get_mut(&pid).expect("decided pid exists");
                            let on = p.on;
                            p.split[on] = p.split[on].saturating_add(burn);
                            p.blocked = blocked;
                            if exits {
                                p.gone = true;
                            }
                        }
                    }

                    let n = prod.begin_quantum(&mut sub_p, &mut sink_p).unwrap();
                    let n_o = oracle.begin_quantum(&mut sub_o, &mut sink_o).unwrap();
                    assert_eq!(n, n_o, "due member counts diverge (seed {seed})");
                    prod.complete_quantum(&mut sub_p, &mut sink_p).unwrap();
                    oracle.complete_quantum(&mut sub_o, &mut sink_o).unwrap();
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
                    fold(&mut report.fingerprint, n as u64);
                    for t in prod.last_transitions() {
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
                    report.cycles += u64::from(prod.last_cycle_completed());
                    report.transitions += prod.last_transitions().len() as u64;

                    prod.apply_pending_signals(&mut sub_p, &mut sink_p).unwrap();
                    oracle
                        .apply_pending_signals(&mut sub_o, &mut sink_o)
                        .unwrap();
                    live.retain(|&id| prod.share(id).is_some());
                }
            }
        }

        check_engine_state(&prod, &oracle, &minted, seed);
        assert_eq!(
            sink_p.events, sink_o.events,
            "event streams diverge (seed {seed})"
        );
        assert_eq!(sub_p, sub_o, "substrate end states diverge (seed {seed})");
        for &id in &minted {
            if let Some(a) = prod.allowance(id) {
                fold(&mut report.fingerprint, a.to_bits());
            }
        }
        report.peak_live = report.peak_live.max(live.len());
    }
    report
}
