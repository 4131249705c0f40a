//! The ALPS supervisor for real Linux processes.
//!
//! [`Supervisor`] is the paper's ALPS process: an unprivileged loop that
//! wakes once per quantum, reads the progress of the controlled processes
//! that are due for measurement (§2.3), runs the Figure-3 algorithm, and
//! moves processes between the eligible and ineligible groups. No special
//! priority, no kernel support. The per-quantum loop itself is the generic
//! [`alps_core::Engine`] driven over a substrate; this module adds the
//! sleep cadence, the registration surface — fixed processes
//! ([`Supervisor::add_process`]) and groups whose members are refreshed
//! once per period, e.g. all processes of one user (§5,
//! [`Supervisor::add_principal`]) — and two things the paper's FreeBSD box
//! could not offer:
//!
//! * **members pinned by their own descriptors** — each member is read
//!   through a held `/proc/<pid>/stat` descriptor and, with the signal
//!   actuator, signalled through a held pidfd (`pidfd_send_signal(2)`),
//!   so a member reaped between two quanta is found gone at its next
//!   reading or delivery. The descriptors stay open until the member is
//!   let go, so whatever process gets its pid number next is never
//!   measured or signalled in its place;
//! * **a choice of actuator** ([`ActuatorMode`]) — classic
//!   `SIGSTOP`/`SIGCONT`, or cgroup-v2 `cpu.weight` / `cpu.max` writes
//!   through [`CgroupSubstrate`] when the host delegates a subtree
//!   ([`Supervisor::with_actuator`]).
//!
//! A fixed process is a principal with one member, so both kinds share one
//! table: each pid the supervisor holds — enrolled with the actuator —
//! maps to the principal it was enrolled for. One rule keeps the
//! table equal to the engine's member assignment: after a quantum that
//! refreshed the groups, reaped or quarantined, every held pid the engine
//! no longer assigns to its owner is let go. A pid is held by one
//! principal at most, so [`Supervisor::add_process`] refuses a held pid,
//! and the supervisor's own, with [`OsError::AlreadyHeld`].
//!
//! There are two constructors: [`Supervisor::new`] (signals) and
//! [`Supervisor::with_actuator`] (any [`ActuatorMode`]), whose actuator
//! applies to every member. Either way the loop survives transient `/proc`
//! and signalling faults (see [`Engine`]'s fault handling): they are
//! counted in [`Supervisor::stats`] and narrated on the event sink, so the
//! loop's methods cannot fail.
//!
//! ```no_run
//! use alps_core::{AlpsConfig, Nanos};
//! use alps_os::{Supervisor, SpinnerPool};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pool = SpinnerPool::spawn(2)?;
//! let cfg = AlpsConfig::new(Nanos::from_millis(20)).with_cycle_log(true);
//! let mut sup = Supervisor::new(cfg);
//! sup.add_process(pool.pids()[0], 1)?;
//! sup.add_process(pool.pids()[1], 3)?;
//! sup.run_for(Duration::from_secs(5))?;
//! // pool.pids()[1] received ~3x the CPU of pool.pids()[0].
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::convert::Infallible;
use std::time::Duration;

use alps_core::{
    AlpsConfig, AlpsScheduler, CycleRecord, Engine, EngineStats, EventSink, Instrumentation, Nanos,
    NullSink, Observation, ProcId, Signal, Substrate, Transition,
};

use crate::cgroup::{ActuatorMode, CgroupSubstrate, RealCgroupFs};
use crate::clock;
use crate::error::{OsError, Result};
use crate::proc;
use crate::substrate::OsSubstrate;
use ActuatorSubstrate::{Cgroup, Signals};

/// The supervisor's substrate: the backend behind the chosen actuator.
#[derive(Debug)]
enum ActuatorSubstrate {
    Signals(OsSubstrate),
    Cgroup(CgroupSubstrate<RealCgroupFs>),
}

impl ActuatorSubstrate {
    fn mode(&self) -> ActuatorMode {
        match self {
            Signals(_) => ActuatorMode::Signals,
            Cgroup(c) => c.mode(),
        }
    }

    /// Backend-specific registration, failing with
    /// [`OsError::NoSuchProcess`] for an absent pid. Both open the
    /// member's stat descriptor, signals its pidfd too; cgroups then
    /// create and populate the member's leaf group, which must not be
    /// done for a pid that is not alive, so they read the stat first.
    fn enroll(&mut self, pid: i32, share: u64) -> Result<()> {
        match self {
            Signals(s) => s.hold(pid),
            Cgroup(c) => {
                c.fs_mut().hold(pid)?;
                c.enroll(pid, share)
            }
        }
    }

    /// Intentional release on removal/shutdown: resume the member
    /// (`SIGCONT` through its pidfd / thaw + uncap); for cgroups also park
    /// it in the subtree's parked leaf and remove its member leaf. Its
    /// descriptors stay open until it is let go.
    fn release(&mut self, pid: i32) -> Result<()> {
        match self {
            Signals(s) => s.deliver(pid, Signal::Continue).map(drop),
            Cgroup(c) => c.release(pid),
        }
    }

    /// Stop holding a pid: one released, one the engine let go of — an
    /// exited or quarantined member, a group's leaver after its
    /// reconciliation signal — or one whose enrolment failed. Its
    /// descriptors are closed, and nothing is signalled; a cgroup leaf
    /// still standing is released and torn down.
    fn let_go(&mut self, pid: i32) {
        match self {
            Signals(s) => s.forget(pid),
            Cgroup(c) => {
                let _ = c.release(pid);
                c.fs_mut().forget(pid);
            }
        }
    }

    fn set_share(&mut self, pid: i32, share: u64) {
        if let Cgroup(c) = self {
            let _ = c.set_share(pid, share);
        }
    }

    /// Final teardown (the per-member leaves are already released).
    fn shutdown(&mut self) {
        if let Cgroup(c) = self {
            let _ = c.fs_mut().remove_root();
        }
    }
}

impl Substrate for ActuatorSubstrate {
    type Member = i32;
    type Error = OsError;

    fn now(&mut self) -> Nanos {
        match self {
            Signals(s) => s.now(),
            Cgroup(c) => c.now(),
        }
    }

    fn read(&mut self, pid: i32) -> Result<Option<Observation>> {
        match self {
            Signals(s) => s.read(pid),
            Cgroup(c) => c.read(pid),
        }
    }

    fn stopped(&self, pid: i32) -> bool {
        // The cgroup substrate reads `cpu.stat`, which has no run state.
        matches!(self, Signals(s) if s.stopped(pid))
    }

    fn deliver(&mut self, pid: i32, sig: Signal) -> Result<bool> {
        match self {
            Signals(s) => s.deliver(pid, sig),
            Cgroup(c) => c.deliver(pid, sig),
        }
    }

    fn apply_batch(&mut self, batch: &[(i32, Signal)], delivered: &mut Vec<bool>) -> Result<()> {
        match self {
            Signals(s) => s.apply_batch(batch, delivered),
            Cgroup(c) => c.apply_batch(batch, delivered),
        }
    }
}

/// Where a group's member pids come from at each refresh.
#[derive(Debug, Clone)]
pub enum Membership {
    /// All processes owned by this uid (the paper's per-user principals).
    Uid(u32),
    /// An explicit pid list, updatable via [`Supervisor::set_members`].
    Pids(Vec<i32>),
}

/// A user-level proportional-share scheduler for real processes.
#[derive(Debug)]
pub struct Supervisor {
    engine: Engine<i32>,
    /// Each held pid — enrolled with the actuator — and the principal it
    /// was enrolled for. Between calls, exactly the engine's member
    /// assignment.
    held: HashMap<i32, ProcId>,
    /// Where each group's pids come from, in registration order.
    groups: Vec<(ProcId, Membership)>,
    /// The supervisor's own pid, which it never holds.
    me: i32,
    refresh_period: Nanos,
    next_refresh: Nanos,
    refreshes: u64,
    sub: ActuatorSubstrate,
    next_deadline: Option<Nanos>,
}

impl Supervisor {
    fn build(cfg: AlpsConfig, sub: ActuatorSubstrate) -> Self {
        Supervisor {
            // §3.1 instrumentation re-reads the substrate at cycle
            // boundaries.
            engine: Engine::new(cfg, Instrumentation::Exact),
            held: HashMap::new(),
            groups: Vec::new(),
            me: std::process::id() as i32,
            // The paper refreshed membership once per second.
            refresh_period: Nanos::SECOND,
            next_refresh: Nanos::ZERO,
            refreshes: 0,
            sub,
            next_deadline: None,
        }
    }

    /// Create a supervisor with no controlled processes, actuating with
    /// classic job-control signals and refreshing groups once a second.
    pub fn new(cfg: AlpsConfig) -> Self {
        Supervisor::build(cfg, Signals(OsSubstrate::new()))
    }

    /// Create a supervisor actuating in the given [`ActuatorMode`].
    /// `Signals` uses `kill(2)` (never fails to construct); `Weights` and
    /// `Caps` discover a delegated cgroup-v2 subtree and actuate through
    /// `cpu.weight` / `cpu.max` writes, failing with
    /// [`OsError::Unsupported`] when the host offers none.
    pub fn with_actuator(cfg: AlpsConfig, mode: ActuatorMode) -> Result<Self> {
        let sub = match mode {
            ActuatorMode::Signals => Signals(OsSubstrate::new()),
            ActuatorMode::Weights | ActuatorMode::Caps => {
                Cgroup(CgroupSubstrate::new(RealCgroupFs::discover()?, mode))
            }
        };
        Ok(Supervisor::build(cfg, sub))
    }

    /// Refresh each group's membership every `period` instead of every
    /// second.
    pub fn with_refresh_period(mut self, period: Duration) -> Self {
        self.refresh_period = period.into();
        self
    }

    /// The actuator this supervisor enforces with.
    pub fn actuator(&self) -> ActuatorMode {
        self.sub.mode()
    }

    /// Take control of `pid` with the given share. The process is suspended
    /// immediately (it starts in the ineligible group per §2.2 and becomes
    /// eligible at the next quantum). A pid already held — added before,
    /// or a group's member — and the supervisor's own pid are refused with
    /// [`OsError::AlreadyHeld`] before they are touched.
    ///
    /// # Panics
    ///
    /// If `share` is zero, before `pid` is touched.
    pub fn add_process(&mut self, pid: i32, share: u64) -> Result<ProcId> {
        assert!(share > 0, "share must be positive");
        if self.held.contains_key(&pid) || pid == self.me {
            return Err(OsError::AlreadyHeld(pid));
        }
        let baseline = self.enroll(pid, share, true)?;
        let id = self.engine.add_member(pid, share, baseline);
        self.held.insert(pid, id);
        Ok(id)
    }

    /// Schedule a group of processes as one principal with `share`. Its
    /// members are discovered, enrolled and — it starts ineligible —
    /// suspended at the next quantum's refresh, and re-resolved every
    /// refresh period from then on.
    pub fn add_principal(&mut self, share: u64, membership: Membership) -> ProcId {
        let id = self.engine.add_principal(share);
        self.groups.push((id, membership));
        self.next_refresh = Nanos::ZERO;
        id
    }

    /// Replace the pid list of a [`Membership::Pids`] group, applied at
    /// the next refresh. Returns `false`, changing nothing, for a
    /// [`Membership::Uid`] group or an unknown id.
    pub fn set_members(&mut self, id: ProcId, pids: Vec<i32>) -> bool {
        match self.groups.iter_mut().find(|(g, _)| *g == id) {
            Some((_, Membership::Pids(list))) => {
                *list = pids;
                true
            }
            _ => false,
        }
    }

    /// Current members of a principal.
    pub fn members(&self, id: ProcId) -> Option<Vec<i32>> {
        self.engine.members(id)
    }

    /// Group membership refreshes performed so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// The enrolment step of [`Supervisor::add_process`] and the refresh:
    /// register `pid` with the actuator, take its baseline reading and,
    /// with `stop`, suspend it (a group's joiners get their signal from
    /// the membership change instead). The reading comes from the
    /// substrate itself, so each backend charges from its own zero:
    /// `/proc` cumulative CPU for signals, the fresh leaf's `cpu.stat`
    /// (zero) for cgroups. It is also the liveness check: a zombie reads
    /// as gone. On failure nothing was stopped, and the pid is let go.
    fn enroll(&mut self, pid: i32, share: u64, stop: bool) -> Result<Nanos> {
        let sub = &mut self.sub;
        let baseline = (|| {
            sub.enroll(pid, share)?;
            let obs = sub.read(pid)?.ok_or(OsError::NoSuchProcess(pid))?;
            if stop && !sub.deliver(pid, Signal::Stop)? {
                return Err(OsError::NoSuchProcess(pid));
            }
            Ok(obs.total_cpu)
        })();
        if baseline.is_err() {
            sub.let_go(pid);
        }
        baseline
    }

    /// Let go of every held pid the engine no longer assigns to its owner:
    /// a reaped or quarantined member, a group's leaver (after its
    /// reconciliation signal), a joiner the engine turned away. None of
    /// them is signalled: a reaped pid may already be recycled.
    fn sync(&mut self) {
        let (engine, sub) = (&self.engine, &mut self.sub);
        self.held.retain(|&pid, &mut owner| {
            let keep = engine.principal_of(pid) == Some(owner);
            if !keep {
                sub.let_go(pid);
            }
            keep
        });
    }

    /// Release a principal — a fixed process or a group — from control,
    /// resuming every pid held for it.
    ///
    /// On failure (e.g. a transient cgroupfs write error) nothing more is
    /// torn down: the principal stays fully managed — engine state and
    /// held pids intact — so the call can simply be retried
    /// (releasing a pid twice is harmless).
    pub fn remove_process(&mut self, id: ProcId) -> Result<()> {
        let pids = self.engine.members(id).unwrap_or_default();
        for &pid in &pids {
            self.sub.release(pid)?;
        }
        self.engine.remove_principal(id);
        self.groups.retain(|&(g, _)| g != id);
        for pid in pids {
            self.held.remove(&pid);
            self.sub.let_go(pid);
        }
        Ok(())
    }

    /// Change a principal's share at runtime (e.g. when the application's
    /// notion of the process's importance changes, as in the adaptive-mesh
    /// scenario of the paper's introduction). A removed or reaped
    /// principal's handle is refused with [`OsError::Stale`].
    pub fn set_share(&mut self, id: ProcId, share: u64) -> Result<()> {
        self.engine
            .set_share(id, share)
            .map_err(|_| OsError::Stale(id))?;
        // Keep every member's cgroup weight in step with the share.
        for pid in self.engine.members(id).unwrap_or_default() {
            self.sub.set_share(pid, share);
        }
        Ok(())
    }

    /// Every held `(ProcId, pid)` pair: principals in registration order,
    /// a group's pids ascending.
    pub fn processes(&self) -> Vec<(ProcId, i32)> {
        let engine = &self.engine;
        engine
            .proc_ids()
            .into_iter()
            .flat_map(|id| {
                let pids = engine.members(id).unwrap_or_default();
                pids.into_iter().map(move |pid| (id, pid))
            })
            .collect()
    }

    /// Activity counters.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Cycles completed so far.
    pub fn cycles_completed(&self) -> u64 {
        self.engine.cycles_completed()
    }

    /// Per-cycle consumption records (if enabled in the config).
    pub fn cycles(&self) -> &[CycleRecord] {
        self.engine.cycles()
    }

    /// Access the underlying algorithm state (read-only).
    pub fn scheduler(&self) -> &AlpsScheduler {
        self.engine.scheduler()
    }

    /// Re-resolve every group's pids: enrol each joiner, read each pid
    /// already held for the group, and hand the readable ones to the
    /// engine, which delivers the reconciliation signals. A pid held for
    /// another principal is skipped before enrolment, which would move it
    /// out of its owner's cgroup leaf.
    fn refresh(&mut self, sink: &mut dyn EventSink<i32>) {
        self.refreshes += 1;
        for g in 0..self.groups.len() {
            let id = self.groups[g].0;
            let share = self.engine.share(id).unwrap_or(1);
            let pids = match &self.groups[g].1 {
                Membership::Uid(uid) => proc::pids_of_uid(*uid).unwrap_or_default(),
                Membership::Pids(pids) => pids.clone(),
            };
            let mut current = Vec::with_capacity(pids.len());
            for pid in pids {
                // The reading is also the liveness check: an exited or
                // unreadable pid is not a member this period.
                let baseline = match self.held.get(&pid) {
                    Some(&owner) if owner == id => {
                        self.sub.read(pid).ok().flatten().map(|o| o.total_cpu)
                    }
                    None if pid != self.me => match self.enroll(pid, share, false) {
                        Ok(cpu) => {
                            self.held.insert(pid, id);
                            Some(cpu)
                        }
                        Err(_) => None, // gone already
                    },
                    _ => None,
                };
                current.extend(baseline.map(|cpu| (pid, cpu)));
            }
            self.engine
                .set_membership(&mut self.sub, id, &current, sink);
        }
    }

    /// Sleep until the next quantum boundary, refresh the groups if the
    /// refresh period has elapsed, then run one scheduler invocation.
    /// Returns the transitions that were applied (borrowed from the
    /// engine's reusable buffer, so the steady-state loop allocates
    /// nothing).
    pub fn run_quantum(&mut self) -> std::result::Result<&[Transition], Infallible> {
        self.run_quantum_with(&mut NullSink)
    }

    /// [`run_quantum`](Supervisor::run_quantum) with an event sink
    /// observing every measurement, signal, and cycle boundary (the
    /// `--trace` wiring of `alps-cli`).
    pub fn run_quantum_with(
        &mut self,
        sink: &mut dyn EventSink<i32>,
    ) -> std::result::Result<&[Transition], Infallible> {
        let q = self.engine.quantum();
        let deadline = match self.next_deadline {
            Some(d) => d,
            None => clock::now() + q,
        };
        clock::sleep_until(deadline);
        let now = clock::now();
        // Drift-free cadence with coalescing: if we overslept past one or
        // more whole quanta (we were starved, exactly as in §4.2), skip the
        // missed boundaries rather than firing a burst of catch-up quanta.
        // The engine's own overrun detector counts these from the gap
        // between consecutive invocations.
        let mut next = deadline + q;
        if now >= next {
            let behind = (now - deadline).as_nanos() / q.as_nanos();
            next = deadline + q * (behind + 1);
        }
        self.next_deadline = Some(next);
        let lost = |s: EngineStats| s.reaped + s.quarantined;
        let lost_before = lost(self.engine.stats());
        let refresh = !self.groups.is_empty() && now >= self.next_refresh;
        if refresh {
            self.refresh(sink);
            self.next_refresh = now + self.refresh_period;
        }
        let Ok(_) = self.engine.run_quantum(&mut self.sub, sink);
        // Only a refresh, a reap or a quarantine changes which pids the
        // engine assigns.
        if refresh || lost(self.engine.stats()) != lost_before {
            self.sync();
        }
        Ok(self.engine.last_transitions())
    }

    /// Run quanta for (at least) the given wall-clock duration.
    pub fn run_for(&mut self, duration: Duration) -> std::result::Result<(), Infallible> {
        let end = clock::now() + Nanos::from(duration);
        while clock::now() < end {
            self.run_quantum()?;
        }
        Ok(())
    }

    /// Run quanta until at least `n` cycles have completed (with a
    /// wall-clock cap).
    pub fn run_cycles(&mut self, n: u64, cap: Duration) -> std::result::Result<(), Infallible> {
        let target = self.engine.cycles_completed() + n;
        let end = clock::now() + Nanos::from(cap);
        while self.engine.cycles_completed() < target && clock::now() < end {
            self.run_quantum()?;
        }
        Ok(())
    }

    /// Resume every held pid (used on shutdown so nothing is left frozen
    /// or capped). They stay held, so a later call (`Drop` after this)
    /// signals through the same pidfds.
    pub fn release_all(&mut self) {
        for &pid in self.held.keys() {
            let _ = self.sub.release(pid);
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.release_all();
        self.sub.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::children::SpinnerPool;
    use crate::signal;

    fn cpu_of(pid: i32) -> Nanos {
        proc::read_stat(pid, proc::ns_per_tick())
            .map(|s| s.cpu_time)
            .unwrap_or(Nanos::ZERO)
    }

    /// Stat descriptors and pidfds the signal backend holds.
    fn held(sup: &Supervisor) -> (usize, usize) {
        match &sup.sub {
            Signals(s) => (s.held(), s.pidfds()),
            Cgroup(_) => panic!("not the signal actuator"),
        }
    }

    #[test]
    fn enforces_one_to_three_on_real_processes() {
        let pool = SpinnerPool::spawn(2).expect("spawn spinners");
        let pids = pool.pids();
        let cfg = AlpsConfig::new(Nanos::from_millis(20));
        let mut sup = Supervisor::new(cfg);
        let base_a = cpu_of(pids[0]);
        let base_b = cpu_of(pids[1]);
        sup.add_process(pids[0], 1).unwrap();
        sup.add_process(pids[1], 3).unwrap();
        sup.run_for(Duration::from_secs(4)).unwrap();
        sup.release_all();
        let ca = (cpu_of(pids[0]) - base_a).as_secs_f64();
        let cb = (cpu_of(pids[1]) - base_b).as_secs_f64();
        assert!(ca > 0.0 && cb > 0.0, "both ran: {ca} {cb}");
        let ratio = cb / ca;
        // Tick-granular /proc accounting plus a noisy CI box: generous band.
        assert!(
            (1.8..=4.5).contains(&ratio),
            "expected ~3.0, got {cb:.2}/{ca:.2} = {ratio:.2}"
        );
        assert!(sup.stats().quanta > 100, "quanta {}", sup.stats().quanta);
    }

    #[test]
    fn exited_children_are_reaped() {
        let pool = SpinnerPool::spawn(2).expect("spawn spinners");
        let pids = pool.pids();
        let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)));
        sup.add_process(pids[0], 1).unwrap();
        sup.add_process(pids[1], 1).unwrap();
        // Kill one child out from under the supervisor.
        signal::sigkill(pids[0]).unwrap();
        sup.run_for(Duration::from_millis(500)).unwrap();
        assert_eq!(sup.processes().len(), 1);
        assert!(sup.stats().reaped >= 1);
    }

    #[test]
    fn a_killed_member_is_reaped_at_its_next_reading_and_let_go() {
        let pool = SpinnerPool::spawn(1).expect("spawn spinner");
        let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_lazy_measurement(false);
        let mut sup = Supervisor::new(cfg);
        sup.add_process(pool.pids()[0], 1).unwrap();
        assert_eq!(held(&sup), (1, 1));
        signal::sigkill(pool.pids()[0]).unwrap();
        // A zombie until the pool waits for it: the first reading after
        // the kill lands finds it gone.
        let reaped = (0..10).any(|_| {
            sup.run_quantum().unwrap();
            sup.stats().reaped == 1
        });
        assert!(reaped, "reaped within a quantum of the kill");
        assert!(sup.processes().is_empty());
        assert_eq!(held(&sup), (0, 0), "no descriptor left");
    }

    #[test]
    fn churn_leaks_no_stat_descriptors() {
        let pool = SpinnerPool::spawn_sleepers(8).expect("spawn sleepers");
        let pids = pool.pids();
        let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)));
        let mut ids: Vec<ProcId> = pids
            .iter()
            .map(|&pid| sup.add_process(pid, 1).unwrap())
            .collect();
        assert_eq!(held(&sup), (8, 8));
        for round in 0..50 {
            let i = round % 8;
            sup.remove_process(ids[i]).unwrap();
            assert_eq!(
                held(&sup),
                (7, 7),
                "round {round}: a removed member is let go"
            );
            ids[i] = sup.add_process(pids[i], 1).unwrap();
            if round % 10 == 0 {
                sup.run_quantum().unwrap();
            }
        }
        assert_eq!(held(&sup), (8, 8));
        for id in ids {
            sup.remove_process(id).unwrap();
        }
        assert_eq!(held(&sup), (0, 0));
    }

    #[test]
    fn a_member_whose_comm_is_not_utf8_is_supervised_like_any_other() {
        use std::process::{Command, Stdio};
        // The shell renames itself to six bytes that are not UTF-8, then
        // blocks on the stdin this test keeps open.
        let mut child = Command::new("/bin/sh")
            .arg("-c")
            .arg(r#"printf "\377\376bad" > /proc/$$/comm; read x"#)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn sh");
        let pid = child.id() as i32;
        let renamed = (0..400).any(|_| {
            std::thread::sleep(Duration::from_millis(5));
            std::fs::read(format!("/proc/{pid}/comm")).is_ok_and(|c| c.starts_with(b"\xff\xfe"))
        });
        assert!(renamed, "child did not rename itself");
        let tick = proc::ns_per_tick();
        assert_eq!(proc::read_stat(pid, tick).unwrap().pid, pid);
        let (mut path, mut body) = (String::new(), String::new());
        proc::read_stat_into(pid, tick, &mut path, &mut body).unwrap();
        assert!(body.contains("bad)"), "lossy body keeps the rest: {body:?}");
        // Neither enrolment nor a quantum may treat the line as text.
        let mut sup =
            Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)).with_lazy_measurement(false));
        sup.add_process(pid, 1).unwrap();
        for _ in 0..5 {
            sup.run_quantum().unwrap();
        }
        assert!(sup.stats().measurements > 0);
        assert_eq!(sup.processes().len(), 1);
        sup.release_all();
        drop(child.stdin.take()); // EOF ends the `read`
        child.wait().unwrap();
    }

    #[test]
    fn add_process_rejects_missing_pid() {
        let mut sup = Supervisor::new(AlpsConfig::default());
        match sup.add_process(0, 1) {
            Err(OsError::NoSuchProcess(0)) => {}
            other => panic!("expected NoSuchProcess, got {other:?}"),
        }
    }

    #[test]
    fn a_zero_share_panics_before_the_pid_is_stopped() {
        let pool = SpinnerPool::spawn_sleepers(1).expect("spawn sleeper");
        let pid = pool.pids()[0];
        let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)));
        let add = std::panic::AssertUnwindSafe(|| sup.add_process(pid, 0));
        assert!(std::panic::catch_unwind(add).is_err());
        std::thread::sleep(Duration::from_millis(20));
        let state = proc::read_stat(pid, proc::ns_per_tick()).unwrap().state;
        assert_ne!(state, 'T', "left stopped");
        assert!(sup.processes().is_empty());
    }

    /// Whether `pid` reads stopped (`T`), or not, within a second.
    fn reaches(pid: i32, stopped: bool) -> bool {
        (0..100).any(|_| {
            let st = proc::read_stat(pid, proc::ns_per_tick()).unwrap();
            let there = (st.state == 'T') == stopped;
            if !there {
                std::thread::sleep(Duration::from_millis(10));
            }
            there
        })
    }

    /// A fixed process and a group in one supervisor share the one table,
    /// and each removal lets go of its own pids only.
    #[test]
    fn a_fixed_process_and_a_group_each_release_only_their_own_pids() {
        let pool = SpinnerPool::spawn_sleepers(3).unwrap();
        let pids = pool.pids();
        let mut grouped = pids[1..].to_vec();
        grouped.sort_unstable();
        let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_lazy_measurement(false);
        let mut sup = Supervisor::new(cfg);
        let fixed = sup.add_process(pids[0], 1).unwrap();
        let group = sup.add_principal(2, Membership::Pids(grouped.clone()));
        sup.run_quantum().unwrap();
        assert_eq!(held(&sup), (3, 3));
        let listed = vec![(fixed, pids[0]), (group, grouped[0]), (group, grouped[1])];
        assert_eq!(sup.processes(), listed);
        sup.set_share(group, 3).unwrap();
        assert_eq!(sup.scheduler().share(group), Some(3));
        sup.remove_process(fixed).unwrap();
        assert_eq!(held(&sup), (2, 2));
        assert_eq!(sup.members(group), Some(grouped.clone()));
        assert!(reaches(pids[0], false), "the fixed process runs");
        sup.run_quantum().unwrap();
        sup.remove_process(group).unwrap();
        assert_eq!(held(&sup), (0, 0));
        assert!(sup.processes().is_empty());
        assert!(grouped.iter().all(|&p| reaches(p, false)), "the group runs");
    }

    /// `Drop` resumes every pid it stopped, fixed or a group's.
    #[test]
    fn drop_releases_stopped_children() {
        let pool = SpinnerPool::spawn_sleepers(3).unwrap();
        let pids = pool.pids();
        {
            let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)));
            sup.add_process(pids[0], 1).unwrap();
            sup.add_principal(1, Membership::Pids(pids[1..].to_vec()));
            // The group starts ineligible, so its refresh stops the joiners.
            sup.refresh(&mut NullSink);
            assert!(pids.iter().all(|&p| reaches(p, true)), "all stopped");
        }
        assert!(pids.iter().all(|&p| reaches(p, false)), "drop resumes all");
    }

    #[test]
    fn set_share_retargets_a_running_split() {
        let pool = SpinnerPool::spawn(2).expect("spawn spinners");
        let pids = pool.pids();
        let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)));
        let a = sup.add_process(pids[0], 1).unwrap();
        let _b = sup.add_process(pids[1], 1).unwrap();
        sup.run_for(Duration::from_secs(1)).unwrap();
        // Flip to 4:1 and measure only the post-change window.
        sup.set_share(a, 4).unwrap();
        let base: Vec<Nanos> = pids.iter().map(|&p| cpu_of(p)).collect();
        sup.run_for(Duration::from_secs(3)).unwrap();
        sup.release_all();
        let ca = (cpu_of(pids[0]) - base[0]).as_secs_f64();
        let cb = (cpu_of(pids[1]) - base[1]).as_secs_f64();
        let ratio = ca / cb.max(1e-9);
        assert!((2.2..=7.0).contains(&ratio), "want ~4.0, got {ratio:.2}");
        // Stale ids are rejected with the handle, not a fabricated pid.
        sup.remove_process(a).unwrap();
        match sup.set_share(a, 2) {
            Err(OsError::Stale(stale)) => assert_eq!(stale, a),
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    #[test]
    fn children_dying_mid_run_are_reaped_without_an_error() {
        let pool = SpinnerPool::spawn(3).expect("spawn spinners");
        let pids = pool.pids();
        let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)));
        for &pid in &pids {
            sup.add_process(pid, 1).unwrap();
        }
        // Kill two children at different points; the loop must keep
        // running and reap them without an error escaping.
        signal::sigkill(pids[0]).unwrap();
        sup.run_for(Duration::from_millis(300)).unwrap();
        signal::sigkill(pids[2]).unwrap();
        sup.run_for(Duration::from_millis(300)).unwrap();
        assert_eq!(sup.processes().len(), 1);
        assert!(sup.stats().reaped >= 2);
        assert!(sup.stats().quanta > 20);
    }

    /// Someone else stops a member the engine means to run: the next
    /// measurement reads it stopped (`T`) and the supervisor resumes it.
    #[test]
    fn a_foreign_sigstop_is_undone_at_the_next_measurement() {
        let pool = SpinnerPool::spawn_sleepers(1).expect("spawn sleeper");
        let pid = pool.pids()[0];
        let state = || proc::read_stat(pid, proc::ns_per_tick()).unwrap().state;
        // One sleeping member: always eligible, read every quantum.
        let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_lazy_measurement(false);
        let mut sup = Supervisor::new(cfg);
        sup.add_process(pid, 1).unwrap();
        for _ in 0..3 {
            sup.run_quantum().unwrap();
        }
        assert_ne!(state(), 'T', "resumed by the first quantum");
        signal::sigstop(pid).unwrap();
        let stopped = (0..100).any(|_| {
            std::thread::sleep(Duration::from_millis(2));
            state() == 'T'
        });
        assert!(stopped, "the foreign SIGSTOP never landed");
        for _ in 0..3 {
            sup.run_quantum().unwrap();
        }
        assert_ne!(state(), 'T');
        assert_eq!(sup.stats().reasserted, 1);
    }

    #[test]
    fn cycle_records_accumulate() {
        let pool = SpinnerPool::spawn(2).expect("spawn spinners");
        let pids = pool.pids();
        let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_cycle_log(true);
        let mut sup = Supervisor::new(cfg);
        sup.add_process(pids[0], 2).unwrap();
        sup.add_process(pids[1], 2).unwrap();
        sup.run_cycles(3, Duration::from_secs(5)).unwrap();
        assert!(sup.cycles_completed() >= 3);
        assert!(!sup.cycles().is_empty());
        let rec = &sup.cycles()[0];
        assert_eq!(rec.total_shares, 4);
        assert_eq!(rec.entries.len(), 2);
    }

    /// Summed CPU of a pid set.
    fn cpu_of_all(pids: &[i32]) -> Nanos {
        pids.iter().map(|&p| cpu_of(p)).sum()
    }

    #[test]
    fn two_pid_groups_split_one_to_two() {
        let pool_a = SpinnerPool::spawn(2).unwrap();
        let pool_b = SpinnerPool::spawn(2).unwrap();
        let cfg = AlpsConfig::new(Nanos::from_millis(20));
        let mut sup = Supervisor::new(cfg);
        let base_a = cpu_of_all(&pool_a.pids());
        let base_b = cpu_of_all(&pool_b.pids());
        sup.add_principal(1, Membership::Pids(pool_a.pids()));
        sup.add_principal(2, Membership::Pids(pool_b.pids()));
        sup.run_for(Duration::from_secs(4)).unwrap();
        sup.release_all();
        let ca = (cpu_of_all(&pool_a.pids()) - base_a).as_secs_f64();
        let cb = (cpu_of_all(&pool_b.pids()) - base_b).as_secs_f64();
        assert!(ca > 0.0 && cb > 0.0);
        let ratio = cb / ca;
        assert!(
            (1.2..=3.2).contains(&ratio),
            "expected ~2.0 between groups, got {cb:.2}/{ca:.2} = {ratio:.2}"
        );
        assert!(sup.refreshes() >= 1);
    }

    #[test]
    fn membership_update_is_applied() {
        let pool = SpinnerPool::spawn(2).unwrap();
        let pids = pool.pids();
        let cfg = AlpsConfig::new(Nanos::from_millis(10));
        let mut sup = Supervisor::new(cfg).with_refresh_period(Duration::from_millis(100));
        let a = sup.add_principal(1, Membership::Pids(vec![pids[0]]));
        sup.run_for(Duration::from_millis(300)).unwrap();
        assert_eq!(sup.members(a), Some(vec![pids[0]]));
        assert!(sup.set_members(a, pids.clone()));
        sup.run_for(Duration::from_millis(300)).unwrap();
        let mut want = pids.clone();
        want.sort_unstable();
        assert_eq!(sup.members(a), Some(want));
    }

    #[test]
    fn set_members_replaces_only_an_explicit_pid_list() {
        let mut sup = Supervisor::new(AlpsConfig::default());
        let by_uid = sup.add_principal(1, Membership::Uid(u32::MAX));
        let by_pids = sup.add_principal(1, Membership::Pids(vec![]));
        assert!(!sup.set_members(by_uid, vec![1]), "a uid group stays one");
        assert!(matches!(sup.groups[0].1, Membership::Uid(u32::MAX)));
        assert!(sup.set_members(by_pids, vec![7]));
        assert!(matches!(&sup.groups[1].1, Membership::Pids(p) if p == &[7]));
        sup.remove_process(by_pids).unwrap();
        assert!(!sup.set_members(by_pids, vec![8]), "unknown id");
    }

    #[test]
    fn a_live_pid_dropped_from_the_list_is_forgotten_at_the_next_refresh() {
        let pool = SpinnerPool::spawn_sleepers(2).unwrap();
        let pids = pool.pids();
        let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_lazy_measurement(false);
        let mut sup = Supervisor::new(cfg).with_refresh_period(Duration::from_millis(50));
        let a = sup.add_principal(1, Membership::Pids(pids.clone()));
        // Joiners are enrolled, and their descriptors opened, by the
        // refresh that admits them.
        sup.run_quantum().unwrap();
        assert_eq!(held(&sup), (2, 2));
        sup.set_members(a, vec![pids[0]]);
        let refreshes = sup.refreshes();
        while sup.refreshes() == refreshes {
            sup.run_quantum().unwrap();
        }
        assert_eq!(sup.members(a), Some(vec![pids[0]]));
        assert!(crate::signal::alive(pids[1]), "the dropped pid lives on");
        assert_eq!(held(&sup), (1, 1));
    }

    #[test]
    fn a_dead_group_member_is_held_gone_until_the_refresh_lets_it_go() {
        let victim = SpinnerPool::spawn_sleepers(1).unwrap();
        let survivor = SpinnerPool::spawn_sleepers(1).unwrap();
        let (dead, pids) = (victim.pids()[0], [victim.pids()[0], survivor.pids()[0]]);
        let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_lazy_measurement(false);
        let mut sup = Supervisor::new(cfg).with_refresh_period(Duration::from_millis(300));
        let a = sup.add_principal(1, Membership::Pids(pids.to_vec()));
        sup.run_quantum().unwrap();
        assert_eq!(held(&sup), (2, 2));
        let refreshes = sup.refreshes();
        drop(victim); // killed and reaped
        for _ in 0..5 {
            sup.run_quantum().unwrap();
        }
        assert_eq!(sup.refreshes(), refreshes, "no refresh yet");
        assert_eq!(sup.members(a).map(|m| m.len()), Some(2), "still listed");
        // Until the refresh, the dead member's descriptors answer for it:
        // it reads as gone and its signals bounce, whoever has its number.
        assert_eq!(held(&sup), (2, 2));
        assert_eq!(sup.sub.read(dead).unwrap(), None);
        assert!(!sup.sub.deliver(dead, Signal::Stop).unwrap(), "bounced");
        while sup.refreshes() == refreshes {
            sup.run_quantum().unwrap();
        }
        assert_eq!(sup.members(a), Some(vec![pids[1]]));
        assert_eq!(held(&sup), (1, 1), "no descriptor left for it");
        let stats = sup.stats();
        assert_eq!((stats.reaped, stats.signal_faults), (0, 0));
    }

    #[test]
    fn a_pid_group_keeps_its_split_through_a_member_death() {
        let pool_a = SpinnerPool::spawn(1).unwrap();
        let pool_b = SpinnerPool::spawn(2).unwrap();
        let mut sup = Supervisor::new(AlpsConfig::new(Nanos::from_millis(10)))
            .with_refresh_period(Duration::from_millis(200));
        let base_a = cpu_of_all(&pool_a.pids());
        let base_b = cpu_of_all(&pool_b.pids());
        let a = sup.add_principal(1, Membership::Pids(pool_a.pids()));
        let b = sup.add_principal(3, Membership::Pids(pool_b.pids()));
        sup.run_for(Duration::from_secs(2)).unwrap();
        // One of b's members dies mid-run; the loop keeps going.
        signal::sigkill(pool_b.pids()[0]).unwrap();
        sup.run_for(Duration::from_millis(500)).unwrap();
        sup.release_all();
        assert_eq!(sup.members(a), Some(pool_a.pids()));
        assert_eq!(sup.members(b), Some(vec![pool_b.pids()[1]]));
        let ca = (cpu_of_all(&pool_a.pids()) - base_a).as_secs_f64();
        let cb = (cpu_of_all(&pool_b.pids()) - base_b).as_secs_f64();
        let ratio = cb / ca.max(1e-9);
        assert!(
            (1.5..=6.0).contains(&ratio),
            "want ~3.0 between groups, got {cb:.2}/{ca:.2} = {ratio:.2}"
        );
        let stats = sup.stats();
        assert_eq!((stats.read_faults, stats.quarantined), (0, 0));
    }

    #[test]
    fn with_actuator_signals_always_constructs() {
        let sup = Supervisor::with_actuator(AlpsConfig::default(), ActuatorMode::Signals).unwrap();
        assert_eq!(sup.actuator(), ActuatorMode::Signals);
    }

    #[test]
    fn with_actuator_cgroup_is_supported_or_reports_why() {
        // Unprivileged boxes without a delegated subtree must get a clean
        // Unsupported, not a panic or a half-built supervisor.
        for mode in [ActuatorMode::Weights, ActuatorMode::Caps] {
            match Supervisor::with_actuator(AlpsConfig::default(), mode) {
                Ok(sup) => assert_eq!(sup.actuator(), mode),
                Err(OsError::Unsupported(_)) => {}
                Err(e) => panic!("expected Ok or Unsupported, got {e}"),
            }
        }
    }
}
