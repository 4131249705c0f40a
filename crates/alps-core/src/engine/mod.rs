//! The generic ALPS control loop, shared by every backend.
//!
//! Before this module existed, the simulator runners and the OS supervisor
//! each carried their own copy of the per-quantum loop: ask the scheduler
//! who is due, read those processes, complete the invocation, deliver the
//! resulting stop/continue signals, snapshot consumption at cycle
//! boundaries, and reap processes that exited. [`Engine`] owns that loop
//! once; backends implement the small [`Substrate`] trait (read a process,
//! deliver a signal, tell the time) and get identical scheduling behavior,
//! identical bookkeeping ([`EngineStats`]), and a uniform instrumentation
//! stream ([`Event`]/[`EventSink`]) for free.
//!
//! The engine is §5's principal layer: each principal is one process of
//! its [`AlpsScheduler`], charged the sum of its members' consumption,
//! and its eligibility fans out to every member. A principal may be one
//! fixed process (the common case; see [`Engine::add_member`]) or a group
//! of processes scheduled as a unit (see [`Engine::add_principal`] +
//! [`Engine::set_membership`]). The engine knows which each principal is:
//! a fixed principal dies with its member, a group lives until removed
//! and its members come and go at the backend's refreshes.

mod event;
mod substrate;

pub use event::{Event, EventSink, NullSink, RecordingSink, TraceSink};
pub use substrate::{Signal, Substrate};

use core::cmp::Reverse;
use core::fmt;
use core::hash::Hash;
use std::collections::{BinaryHeap, HashMap};

use crate::config::AlpsConfig;
use crate::cycle::{CycleEntry, CycleRecord};
use crate::principal::{DueList, MemberSet, MemberTransition, MembershipChange};
use crate::sched::{AlpsScheduler, Observation, ProcId, QuantumOutcome, StaleId, Transition};
use crate::time::Nanos;

/// Counters for everything externally observable the engine has done.
///
/// This is the union of the statistics the backend-specific runners used
/// to keep separately (`RunnerStats` in `alps-sim`, `SupervisorStats` in
/// `alps-os`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Scheduler invocations serviced.
    pub quanta: u64,
    /// Per-member CPU-time reads that found the member alive.
    pub measurements: u64,
    /// Stop/continue deliveries that did not fault, reconciliation
    /// signals, retries and repairs included.
    pub signals: u64,
    /// Cycle boundaries crossed.
    pub cycles: u64,
    /// Invocations that arrived two or more quanta after the previous one
    /// (late/coalesced timer, §4.2).
    pub overruns: u64,
    /// Fixed principals removed because their member exited.
    pub reaped: u64,
    /// CPU-time reads that failed with a substrate error and were
    /// tolerated.
    pub read_faults: u64,
    /// Signal deliveries that failed with a substrate error and were
    /// tolerated.
    pub signal_faults: u64,
    /// Failed deliveries re-attempted after backoff.
    pub retries: u64,
    /// `Continue`s re-sent on evidence: to a member read stopped
    /// ([`Substrate::stopped`]) while its principal was eligible.
    pub reasserted: u64,
    /// Members quarantined out of scheduling after repeated faults.
    pub quarantined: u64,
}

/// How the engine fills its per-cycle consumption log (§3.1).
///
/// There is one way, so this enum has one variant. [`Engine::new`] still
/// takes it because the `benchmark` package, which builds against this
/// API from outside the workspace, passes `Instrumentation::Exact`; the
/// argument goes when that caller drops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instrumentation {
    /// At each cycle boundary, re-read every fixed principal's member
    /// through [`Substrate::read_exact`] and record deltas against a
    /// snapshot taken at the previous boundary. This measures what was
    /// *actually* consumed — ground truth in the simulator, a fresh
    /// `/proc` read on Linux — independent of what the scheduler happened
    /// to observe. A group is recorded as the CPU charged to it since the
    /// previous boundary (re-reading its current members would charge a
    /// joiner's whole lifetime).
    Exact,
}

/// Consecutive faulting operations on one member — failed reads or failed
/// deliveries, with no success between them — before it is quarantined
/// out of scheduling.
const MAX_STRIKES: u32 = 3;

/// Recovery state of a member with an outstanding fault. A member has
/// none until its first fault and loses it at its next successful
/// delivery (or successful read, when no retry is pending).
#[derive(Debug, Clone, Copy, Default)]
struct Fault {
    /// Consecutive faulting operations.
    strikes: u32,
    /// Quantum in which a failed delivery is retried (`0` = none).
    retry_at: u64,
}

/// A member to re-signal once the scheduler has decided the quantum: a
/// due retry, or a member read stopped while its principal was eligible.
#[derive(Debug, Clone, Copy)]
struct Repair<M> {
    id: ProcId,
    member: M,
    /// The principal's eligibility before the decision: if the decision
    /// flips it, the transition's own signal carries the new intent.
    eligible: bool,
    /// A retry that came due (perhaps for a member also read stopped).
    retry: bool,
}

/// One principal's entry in the engine's table.
#[derive(Debug, Clone)]
struct Principal<M> {
    /// The generation of the [`ProcId`] that owns this entry: a stale id
    /// from a reused slot misses instead of addressing the new tenant.
    generation: u32,
    /// A group ([`Engine::add_principal`]) as opposed to a fixed
    /// single-member principal ([`Engine::add_member`]).
    group: bool,
    /// CPU charged so far, over current and past members. Member churn
    /// does not disturb this: each member's consumption is folded in as
    /// deltas from its own last reading.
    cumulative: Nanos,
    members: MemberSet<M>,
}

/// The entry of `table` for `id`, if the id is current.
fn entry_mut<M>(table: &mut [Option<Principal<M>>], id: ProcId) -> Option<&mut Principal<M>> {
    table
        .get_mut(id.index())?
        .as_mut()
        .filter(|p| p.generation == id.generation())
}

/// The generic per-quantum ALPS control loop.
///
/// One invocation is three stages, which backends may drive separately
/// (the simulator interleaves cost-model charges between them) or all at
/// once via [`Engine::run_quantum`]:
///
/// 1. [`begin_quantum`](Engine::begin_quantum) — note the time, detect
///    overruns, ask the scheduler who is due;
/// 2. [`complete_quantum`](Engine::complete_quantum) — read the due
///    members from the substrate, feed the observations to the scheduler,
///    handle the cycle boundary;
/// 3. [`apply_signals`](Engine::apply_signals) — deliver the resulting
///    stop/continue signals.
///
/// A fixed principal whose member turns out to be gone (unreadable, or a
/// signal bounces) is reaped automatically when
/// [`with_auto_reap`](Engine::with_auto_reap) is enabled; a group's gone
/// member is skipped without charge until the backend's next refresh
/// ([`set_membership`](Engine::set_membership)) drops it.
///
/// # Faults
///
/// A substrate error on one member never ends the loop. A failed read is
/// skipped without charge; a failed delivery is retried after 1, 2, 4 …
/// 32 quanta with its principal's intent at that time; both are counted
/// and narrated, and three consecutive faults quarantine the member. A
/// member read stopped ([`Substrate::stopped`]) while its principal is
/// eligible is sent `Continue` again in that quantum. Nothing is re-sent
/// on a timer, so a fault-free quantum does no recovery work.
#[derive(Debug, Clone)]
pub struct Engine<M: Copy + Ord + Hash + fmt::Debug> {
    sched: AlpsScheduler,
    /// Dense principal table indexed by [`ProcId::index`], parallel to
    /// the scheduler's slots, so the per-quantum lookups are O(1)
    /// without hashing.
    principals: Vec<Option<Principal<M>>>,
    /// Every principal in registration order (the order cycle-record
    /// entries are emitted in), each with its cumulative exact CPU at the
    /// last cycle boundary.
    snapshot: Vec<(ProcId, Nanos)>,
    /// Stale (removed) ids still present in `snapshot`. Removal only
    /// tombstones; the vector is compacted once stale entries outnumber
    /// live ones, so a mass reap (every member of a large workload
    /// exiting) costs O(n) amortized instead of the O(n²) that eager
    /// `retain` per removal used to.
    stale: usize,
    /// Member → owning principal: the members the engine manages.
    member_index: HashMap<M, ProcId>,
    cycles: Vec<CycleRecord>,
    stats: EngineStats,
    record_cycles: bool,
    auto_reap: bool,
    /// Members with an outstanding fault, and nobody else.
    faults: HashMap<M, Fault>,
    /// Failed deliveries by retry quantum, earliest first. An entry whose
    /// member recovered, was let go or was re-queued since is skipped.
    retry_queue: BinaryHeap<Reverse<(u64, M)>>,
    last_begin: Option<Nanos>,
    /// Scratch: the due list of the in-flight invocation.
    due: DueList<M>,
    /// Scratch: the scheduler's due principals, refilled each quantum.
    due_ids: Vec<ProcId>,
    /// Scratch: per-member observations, parallel to `due.members()`.
    readings: Vec<Option<Observation>>,
    /// Scratch: per-principal observations fed to the scheduler.
    observations: Vec<(ProcId, Observation)>,
    /// Scratch: members found gone during the read phase.
    gone: Vec<(ProcId, M)>,
    /// Scratch: positions in `readings`, or in `sig_batch`, whose read or
    /// delivery faulted.
    faulted: Vec<usize>,
    /// Scratch: members to re-signal after this quantum's decision.
    repairs: Vec<Repair<M>>,
    /// Scratch: the signal batch handed to [`Substrate::apply_batch`].
    sig_batch: Vec<(M, Signal)>,
    /// Scratch: per-signal delivery outcomes, parallel to `sig_batch`.
    delivered: Vec<bool>,
    /// Outcome of the last completed invocation; its buffers are reused,
    /// so steady-state quanta allocate nothing.
    outcome: QuantumOutcome,
    /// The last invocation's member signals: every member of every
    /// principal in `outcome.transitions`.
    signals: Vec<MemberTransition<M>>,
}

impl<M: Copy + Ord + Hash + fmt::Debug> Engine<M> {
    /// An empty engine. `cfg.record_cycles` selects whether the per-cycle
    /// log is kept; the second argument is [`Instrumentation::Exact`], its
    /// only value.
    pub fn new(cfg: AlpsConfig, _: Instrumentation) -> Self {
        Engine {
            sched: AlpsScheduler::new(cfg),
            principals: Vec::new(),
            snapshot: Vec::new(),
            stale: 0,
            member_index: HashMap::new(),
            cycles: Vec::new(),
            stats: EngineStats::default(),
            record_cycles: cfg.record_cycles,
            auto_reap: false,
            faults: HashMap::new(),
            retry_queue: BinaryHeap::new(),
            last_begin: None,
            due: DueList::default(),
            due_ids: Vec::new(),
            readings: Vec::new(),
            observations: Vec::new(),
            gone: Vec::new(),
            faulted: Vec::new(),
            repairs: Vec::new(),
            sig_batch: Vec::new(),
            delivered: Vec::new(),
            outcome: QuantumOutcome::default(),
            signals: Vec::new(),
        }
    }

    /// Enable automatic removal of a fixed principal when its member is
    /// found to be gone. Off by default. Groups are never torn down by
    /// the engine either way.
    pub fn with_auto_reap(mut self, on: bool) -> Self {
        self.auto_reap = on;
        self
    }

    // --- registration -----------------------------------------------------

    /// Register a fixed single-member principal — the common "schedule
    /// this process with this share" case. `initial_cpu` is the member's
    /// cumulative CPU reading at registration, so only consumption from
    /// this point on is charged.
    ///
    /// Per §2.2 the principal starts ineligible; the caller is responsible
    /// for suspending the member now (the first invocation will resume it).
    ///
    /// # Panics
    ///
    /// If `member` already belongs to a principal: a member is charged to
    /// one principal at most.
    pub fn add_member(&mut self, member: M, share: u64, initial_cpu: Nanos) -> ProcId {
        let id = self.insert_principal(share, false, MemberSet::One((member, initial_cpu)));
        let owner = self.member_index.insert(member, id);
        assert!(
            owner.is_none(),
            "member {member:?} already belongs to a principal"
        );
        self.snapshot.push((id, initial_cpu));
        id
    }

    /// Register an empty group (§5). Populate it with
    /// [`Engine::set_membership`].
    pub fn add_principal(&mut self, share: u64) -> ProcId {
        let id = self.insert_principal(share, true, MemberSet::default());
        self.snapshot.push((id, Nanos::ZERO));
        id
    }

    fn insert_principal(&mut self, share: u64, group: bool, members: MemberSet<M>) -> ProcId {
        let id = self.sched.add_process(share, Nanos::ZERO);
        if id.index() == self.principals.len() {
            self.principals.push(None);
        }
        self.principals[id.index()] = Some(Principal {
            generation: id.generation(),
            group,
            cumulative: Nanos::ZERO,
            members,
        });
        id
    }

    /// The principal for a handle, if the handle is current.
    fn principal(&self, id: ProcId) -> Option<&Principal<M>> {
        self.principals
            .get(id.index())?
            .as_ref()
            .filter(|p| p.generation == id.generation())
    }

    /// Replace a group's member set (the once-per-second refresh of §5).
    ///
    /// `current` carries, for each member, its *current* cumulative CPU
    /// reading: a newly joined member is charged only for consumption from
    /// this point on. A member listed twice counts once, at its first
    /// listing, and a listed member that another principal owns stays
    /// with that first owner and is left out of this group. The returned
    /// [`MembershipChange`] lists joiners and leavers and the signals the
    /// backend must deliver (conveniently via [`Engine::apply_signals`])
    /// to reconcile member run states with the principal's eligibility:
    /// joiners of a suspended principal must be stopped, and its leavers
    /// resumed so they are not orphaned in the stopped state. Leavers are
    /// let go: the engine keeps no recovery state for them. Returns `None`
    /// for a stale id and for a fixed principal, whose one member never
    /// changes.
    pub fn set_membership(
        &mut self,
        id: ProcId,
        current: &[(M, Nanos)],
    ) -> Option<MembershipChange<M>> {
        let eligible = self.sched.is_eligible(id)?;
        let p = entry_mut(&mut self.principals, id).filter(|p| p.group)?;
        let mut members = MemberSet::default();
        let mut added = Vec::new();
        for &(m, cpu) in current {
            let owned_elsewhere = self.member_index.get(&m).is_some_and(|&o| o != id);
            if owned_elsewhere || members.get(&m).is_some() {
                continue;
            }
            let last = p.members.get(&m).unwrap_or_else(|| {
                added.push(m);
                cpu
            });
            members.insert(m, last);
        }
        let removed: Vec<M> = p
            .members
            .keys()
            .filter(|m| members.get(m).is_none())
            .collect();
        p.members = members;
        for &m in &added {
            self.member_index.insert(m, id);
        }
        for m in &removed {
            self.member_index.remove(m);
            self.forget_faults(m);
        }
        let mut signals = Vec::new();
        if !eligible {
            signals.extend(added.iter().map(|&m| MemberTransition::Suspend(m)));
            signals.extend(removed.iter().map(|&m| MemberTransition::Resume(m)));
        }
        Some(MembershipChange {
            added,
            removed,
            signals,
        })
    }

    /// Deregister a principal, returning its members (which the backend
    /// should resume if the principal was ineligible). The engine keeps
    /// no recovery state for them afterwards.
    pub fn remove_principal(&mut self, id: ProcId) -> Option<Vec<M>> {
        let p = self
            .principals
            .get_mut(id.index())?
            .take_if(|p| p.generation == id.generation())?;
        self.sched.remove_process(id);
        self.stale += 1;
        if self.stale * 2 > self.snapshot.len() {
            let sched = &self.sched;
            self.snapshot
                .retain(|&(x, _)| sched.is_eligible(x).is_some());
            self.stale = 0;
        }
        let members: Vec<M> = p.members.keys().collect();
        for m in &members {
            self.member_index.remove(m);
            self.forget_faults(m);
        }
        Some(members)
    }

    /// Change a principal's share (§2.2: remaining allowance is rescaled).
    pub fn set_share(&mut self, id: ProcId, share: u64) -> Result<(), StaleId> {
        self.sched.set_share(id, share)
    }

    // --- the per-quantum loop ---------------------------------------------

    /// Stage 1: enter a quantum. Notes the substrate time (detecting
    /// overrun/coalesced timers, §4.2), refills the internal due list —
    /// inspect it via [`Engine::due`] — and returns the number of members
    /// to read. Touches no member, so it has no fault to absorb.
    pub fn begin_quantum<S>(
        &mut self,
        sub: &mut S,
        sink: &mut dyn EventSink<M>,
    ) -> Result<usize, S::Error>
    where
        S: Substrate<Member = M>,
    {
        let now = sub.now();
        if let Some(last) = self.last_begin {
            let gap = now.saturating_sub(last);
            if gap >= self.quantum() * 2 {
                self.stats.overruns += 1;
                sink.on_event(&Event::Overrun { now, gap });
            }
        }
        self.last_begin = Some(now);
        self.stats.quanta += 1;
        self.due.clear();
        self.sched.begin_quantum_into(&mut self.due_ids);
        for &id in &self.due_ids {
            let p = self.principals[id.index()]
                .as_ref()
                .expect("the scheduler's due ids are registered");
            self.due.push(id, p.members.keys());
        }
        sink.on_event(&Event::QuantumStart {
            invocation: self.stats.quanta,
            now,
            due: self.due.members().len(),
        });
        Ok(self.due.members().len())
    }

    /// The due list filled by the last [`Engine::begin_quantum`]: which
    /// principals are measured this quantum, and which members.
    pub fn due(&self) -> &DueList<M> {
        &self.due
    }

    /// Stage 2: read every due member from the substrate and complete the
    /// scheduler invocation. Members that are gone are skipped without
    /// charge (and reaped, under auto-reap, if they were their principal's
    /// sole member). On a cycle boundary the per-cycle log, if kept, gains
    /// one exact record (see [`Instrumentation::Exact`]). The results are
    /// held internally — see [`Engine::pending_signals`],
    /// [`Engine::last_transitions`], [`Engine::last_cycle_completed`] —
    /// and every buffer involved is reused across invocations.
    ///
    /// A read that faults is absorbed, not returned as `Err` (see
    /// [Faults](Engine#faults)). The pending signals also carry the
    /// quantum's repairs: retries that came due, and `Continue` for a
    /// member read stopped while its principal is eligible.
    pub fn complete_quantum<S>(
        &mut self,
        sub: &mut S,
        sink: &mut dyn EventSink<M>,
    ) -> Result<(), S::Error>
    where
        S: Substrate<Member = M>,
    {
        self.readings.clear();
        self.gone.clear();
        self.faulted.clear();
        self.repairs.clear();
        // One batched read over the due list. `read_batch` is fail-fast
        // with the successful prefix in `readings`, so the member at
        // `readings.len()` is the one that faulted. It is skipped without
        // charge this quantum, like a missed measurement, NOT reaped (it
        // may be alive but briefly unreadable), and the batch resumes
        // after it.
        let mut res = sub.read_batch(self.due.members(), &mut self.readings);
        while res.is_err() {
            let at = self.readings.len();
            self.faulted.push(at);
            self.readings.push(None);
            res = sub.read_batch(&self.due.members()[at + 1..], &mut self.readings);
        }
        // Bookkeeping over the readings, in due order.
        let mut i = 0;
        let mut faulted = self.faulted.iter().peekable();
        for (id, members) in self.due.iter() {
            for &m in members {
                match self.readings[i] {
                    Some(o) => {
                        self.stats.measurements += 1;
                        sink.on_event(&Event::Measured {
                            member: m,
                            cpu: o.total_cpu,
                            blocked: o.blocked,
                        });
                        // No lookup at all while nothing is faulting.
                        if !self.faults.is_empty() {
                            if let Some(f) = self.faults.get_mut(&m) {
                                f.strikes = 0;
                                if f.retry_at == 0 {
                                    self.faults.remove(&m);
                                }
                            }
                        }
                        // Evidence of a lost `Continue`, or of a stop
                        // sent by someone else.
                        if sub.stopped(m) && self.sched.is_eligible(id) == Some(true) {
                            self.repairs.push(Repair {
                                id,
                                member: m,
                                eligible: true,
                                retry: false,
                            });
                        }
                    }
                    None if faulted.next_if_eq(&&i).is_some() => {
                        self.stats.read_faults += 1;
                        sink.on_event(&Event::ReadFault { member: m });
                    }
                    None => self.gone.push((id, m)),
                }
                i += 1;
            }
        }
        let mut gone = std::mem::take(&mut self.gone);
        for (id, m) in gone.drain(..) {
            self.reap(id, m, sink);
        }
        self.gone = gone;
        for k in 0..self.faulted.len() {
            let m = self.due.members()[self.faulted[k]];
            self.strike(m, sink);
        }
        if !self.retry_queue.is_empty() {
            self.take_due_retries();
        }
        // Fold each due principal's member deltas into its charged CPU. A
        // principal is blocked (§2.4) only when every member that was read
        // reports blocked: if any member is runnable, it can make progress.
        self.observations.clear();
        let mut start = 0;
        for (id, members) in self.due.iter() {
            let row = &self.readings[start..start + members.len()];
            start += members.len();
            let Some(p) = entry_mut(&mut self.principals, id) else {
                continue; // reaped or quarantined during the reads
            };
            let mut any_read = false;
            let mut all_blocked = true;
            for (m, obs) in members.iter().zip(row) {
                let Some(obs) = obs else {
                    continue;
                };
                any_read = true;
                if let Some(last) = p.members.get_mut(m) {
                    p.cumulative += obs.total_cpu.saturating_sub(*last);
                    *last = obs.total_cpu;
                }
                all_blocked &= obs.blocked;
            }
            self.observations.push((
                id,
                Observation {
                    total_cpu: p.cumulative,
                    blocked: any_read && all_blocked,
                },
            ));
        }
        let now = sub.now();
        self.sched
            .complete_quantum_into(&self.observations, &mut self.outcome);
        self.signals.clear();
        for t in &self.outcome.transitions {
            let p = self.principals[t.proc_id().index()]
                .as_ref()
                .expect("a transition's principal is registered");
            self.signals.extend(p.members.keys().map(|m| match t {
                Transition::Resume(_) => MemberTransition::Resume(m),
                Transition::Suspend(_) => MemberTransition::Suspend(m),
            }));
        }
        if !self.repairs.is_empty() {
            self.push_repairs(sink);
        }
        if self.outcome.cycle_completed {
            self.stats.cycles += 1;
            sink.on_event(&Event::CycleEnd {
                index: self.sched.cycles_completed().saturating_sub(1),
                now,
            });
            if self.record_cycles {
                self.record_exact_cycle(sub, now, sink);
            }
        }
        Ok(())
    }

    /// Signals produced by the last [`Engine::complete_quantum`], not yet
    /// (or last) delivered via [`Engine::apply_pending_signals`].
    pub fn pending_signals(&self) -> &[MemberTransition<M>] {
        &self.signals
    }

    /// Principal-level eligibility transitions of the last invocation.
    pub fn last_transitions(&self) -> &[Transition] {
        &self.outcome.transitions
    }

    /// Whether the last invocation crossed a cycle boundary.
    pub fn last_cycle_completed(&self) -> bool {
        self.outcome.cycle_completed
    }

    /// Stage 3: deliver stop/continue signals through the substrate, as
    /// one [`Substrate::apply_batch`]. A bounced delivery (member gone)
    /// reaps the member's principal under auto-reap. A delivery that
    /// faults is absorbed, not returned as `Err` (see
    /// [Faults](Engine#faults)).
    pub fn apply_signals<S>(
        &mut self,
        sub: &mut S,
        signals: &[MemberTransition<M>],
        sink: &mut dyn EventSink<M>,
    ) -> Result<(), S::Error>
    where
        S: Substrate<Member = M>,
    {
        self.sig_batch.clear();
        self.sig_batch.extend(signals.iter().map(|t| match *t {
            MemberTransition::Resume(m) => (m, Signal::Continue),
            MemberTransition::Suspend(m) => (m, Signal::Stop),
        }));
        self.delivered.clear();
        self.faulted.clear();
        // `apply_batch` is fail-fast with the successful prefix's outcomes
        // in `delivered`, so the signal at `delivered.len()` is the one
        // that faulted; the batch resumes after it.
        let mut res = sub.apply_batch(&self.sig_batch, &mut self.delivered);
        while res.is_err() {
            let at = self.delivered.len();
            self.faulted.push(at);
            self.delivered.push(false);
            res = sub.apply_batch(&self.sig_batch[at + 1..], &mut self.delivered);
        }
        // Bookkeeping in batch order. `reap` never touches the substrate,
        // so the events emitted and the reaps performed are a per-signal
        // loop's.
        let mut faulted = 0;
        for i in 0..self.sig_batch.len() {
            let (m, signal) = self.sig_batch[i];
            if self.faulted.get(faulted) == Some(&i) {
                faulted += 1;
                self.signal_fault(m, signal, sink);
                continue;
            }
            let delivered = self.delivered[i];
            self.stats.signals += 1;
            sink.on_event(&Event::SignalSent {
                member: m,
                signal,
                delivered,
            });
            self.forget_faults(&m);
            if !delivered {
                if let Some(&id) = self.member_index.get(&m) {
                    self.reap(id, m, sink);
                }
            }
        }
        Ok(())
    }

    /// Stage 3 for the common case: deliver the signals produced by the
    /// last [`Engine::complete_quantum`]. A delivery that faults is
    /// absorbed, not returned as `Err` (see [Faults](Engine#faults)).
    pub fn apply_pending_signals<S>(
        &mut self,
        sub: &mut S,
        sink: &mut dyn EventSink<M>,
    ) -> Result<(), S::Error>
    where
        S: Substrate<Member = M>,
    {
        // The signal buffer is moved out for the duration of the call (the
        // borrow checker cannot see that `apply_signals` leaves it alone)
        // and put back so it keeps being reused.
        let signals = std::mem::take(&mut self.signals);
        let result = self.apply_signals(sub, &signals, sink);
        self.signals = signals;
        result
    }

    /// All three stages back to back — the whole scheduler invocation for
    /// backends with nothing to interleave. Returns the principal-level
    /// eligibility transitions this invocation produced. A member's read
    /// or delivery fault is absorbed, not returned as `Err` (see
    /// [Faults](Engine#faults)).
    pub fn run_quantum<S>(
        &mut self,
        sub: &mut S,
        sink: &mut dyn EventSink<M>,
    ) -> Result<&[Transition], S::Error>
    where
        S: Substrate<Member = M>,
    {
        self.begin_quantum(sub, sink)?;
        self.complete_quantum(sub, sink)?;
        self.apply_pending_signals(sub, sink)?;
        Ok(&self.outcome.transitions)
    }

    fn reap(&mut self, id: ProcId, m: M, sink: &mut dyn EventSink<M>) {
        // Only a fixed principal dies with its member; a group's gone
        // member is skipped until the backend's next refresh drops it.
        if !self.auto_reap || self.principal(id).is_none_or(|p| p.group) {
            return;
        }
        self.remove_principal(id);
        self.stats.reaped += 1;
        sink.on_event(&Event::MemberReaped { member: m });
    }

    // --- faults -------------------------------------------------------------

    /// A delivery of `signal` to `m` faulted. A managed member is retried
    /// after a backoff of 1, 2, 4 … 32 quanta and takes a strike; a member
    /// let go (a leaver, a removed principal's) got its one signal and is
    /// not tracked.
    fn signal_fault(&mut self, m: M, signal: Signal, sink: &mut dyn EventSink<M>) {
        self.stats.signal_faults += 1;
        sink.on_event(&Event::SignalFault { member: m, signal });
        if !self.member_index.contains_key(&m) {
            return;
        }
        let f = self.faults.entry(m).or_default();
        f.retry_at = self.stats.quanta + (1u64 << f.strikes.min(5));
        self.retry_queue.push(Reverse((f.retry_at, m)));
        self.strike(m, sink);
    }

    /// One fault against `m`; quarantines it at [`MAX_STRIKES`].
    fn strike(&mut self, m: M, sink: &mut dyn EventSink<M>) {
        let f = self.faults.entry(m).or_default();
        f.strikes += 1;
        if f.strikes >= MAX_STRIKES {
            self.quarantine(m, sink);
        }
    }

    /// Drop `m`'s recovery state: it recovered, or it was let go.
    fn forget_faults(&mut self, m: &M) {
        if !self.faults.is_empty() {
            self.faults.remove(m);
        }
    }

    /// Remove a persistently faulting member from scheduling: a fixed
    /// principal is torn down entirely; from a group, just the member is
    /// evicted (the backend's next refresh may re-admit it if it
    /// recovers).
    fn quarantine(&mut self, m: M, sink: &mut dyn EventSink<M>) {
        self.faults.remove(&m);
        let Some(&id) = self.member_index.get(&m) else {
            return;
        };
        self.stats.quarantined += 1;
        sink.on_event(&Event::Quarantined { member: m });
        let Some(p) = entry_mut(&mut self.principals, id) else {
            return;
        };
        if !p.group {
            self.remove_principal(id);
            return;
        }
        // The evicted member gets no reconciliation signal: it is
        // faulting. Re-admitted stopped into an eligible group, it is read
        // stopped and resumed.
        if p.members.remove(&m).is_some() {
            self.member_index.remove(&m);
        }
    }

    /// Move the failed deliveries whose retry quantum has come onto
    /// `repairs`, with their principal's eligibility before the decision.
    /// Cold, like [`push_repairs`](Self::push_repairs): inlined into
    /// `complete_quantum`, the two cost a fault-free `core-mix-4k` quantum
    /// about 3 % more CPU.
    #[cold]
    fn take_due_retries(&mut self) {
        while let Some(&Reverse((at, m))) = self.retry_queue.peek() {
            if at > self.stats.quanta {
                break;
            }
            self.retry_queue.pop();
            let Some(f) = self.faults.get_mut(&m).filter(|f| f.retry_at == at) else {
                continue; // recovered, let go, or queued again since
            };
            f.retry_at = 0;
            let Some(&id) = self.member_index.get(&m) else {
                continue;
            };
            self.repairs.push(Repair {
                id,
                member: m,
                eligible: self.sched.is_eligible(id) == Some(true),
                retry: true,
            });
        }
    }

    /// Append the repairs to the quantum's signals: each member once, with
    /// its principal's current intent. A principal the decision flipped is
    /// already signalling every member through its transition, so a
    /// retry of one of them is counted and narrated with that new intent
    /// and sends nothing more, and a stopped reading is moot.
    #[cold]
    fn push_repairs(&mut self, sink: &mut dyn EventSink<M>) {
        self.repairs.sort_unstable_by_key(|r| r.member);
        self.repairs.dedup_by(|r, kept| {
            let same = r.member == kept.member;
            kept.retry |= same && r.retry;
            same
        });
        for k in 0..self.repairs.len() {
            let r = self.repairs[k];
            let Some(eligible) = self.sched.is_eligible(r.id) else {
                continue;
            };
            let flipped = eligible != r.eligible;
            let (t, signal) = if eligible {
                (MemberTransition::Resume(r.member), Signal::Continue)
            } else {
                (MemberTransition::Suspend(r.member), Signal::Stop)
            };
            if r.retry {
                self.stats.retries += 1;
                sink.on_event(&Event::SignalRetried {
                    member: r.member,
                    signal,
                });
            } else if !flipped {
                self.stats.reasserted += 1;
            }
            if !flipped {
                self.signals.push(t);
            }
        }
    }

    /// Build a [`CycleRecord`] differenced against the snapshot taken at
    /// the previous boundary: a fixed principal's member is re-read
    /// exactly, a group is charged what it was charged since (its current
    /// members' lifetimes say nothing about what the group consumed).
    ///
    /// The scheduler has already committed this quantum, so a faulting
    /// read must not abort it: the fault is counted and narrated, and the
    /// entry is charged nothing and keeps its snapshot, like a gone
    /// member's (the next boundary charges what it missed). Nobody is
    /// struck here — a quarantine would compact `snapshot` mid-walk; the
    /// quantum's own reads strike.
    fn record_exact_cycle<S>(&mut self, sub: &mut S, now: Nanos, sink: &mut dyn EventSink<M>)
    where
        S: Substrate<Member = M>,
    {
        let mut entries = Vec::with_capacity(self.snapshot.len());
        let mut total = Nanos::ZERO;
        for i in 0..self.snapshot.len() {
            let (id, last) = self.snapshot[i];
            let current = match self.principal(id) {
                None => continue, // tombstoned (removed, not yet compacted)
                Some(p) if p.group => p.cumulative,
                // A member that is gone is charged nothing further; keep
                // the old snapshot so the record is stable.
                Some(p) => match p.members.as_slice() {
                    &[(m, _)] => match sub.read_exact(m) {
                        Ok(cpu) => cpu.unwrap_or(last),
                        Err(_) => {
                            self.stats.read_faults += 1;
                            sink.on_event(&Event::ReadFault { member: m });
                            last
                        }
                    },
                    _ => last,
                },
            };
            let consumed = current.saturating_sub(last);
            self.snapshot[i].1 = current;
            total += consumed;
            entries.push(CycleEntry {
                id,
                share: self.sched.share(id).unwrap_or(0),
                consumed,
            });
        }
        self.cycles.push(CycleRecord {
            index: self.sched.cycles_completed().saturating_sub(1),
            completed_at: now,
            total_shares: self.sched.total_shares(),
            total_consumed: total,
            entries,
        });
    }

    // --- accessors --------------------------------------------------------

    /// Counters of everything the engine has done.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The per-cycle consumption log (empty unless `record_cycles`).
    pub fn cycles(&self) -> &[CycleRecord] {
        &self.cycles
    }

    /// Live principals, in registration order.
    pub fn proc_ids(&self) -> Vec<ProcId> {
        self.snapshot
            .iter()
            .map(|&(id, _)| id)
            .filter(|&id| self.sched.is_eligible(id).is_some())
            .collect()
    }

    /// A principal's remaining allowance in quanta.
    pub fn allowance(&self, id: ProcId) -> Option<f64> {
        self.sched.allowance(id)
    }

    /// A principal's share, or `None` if it is gone.
    pub fn share(&self, id: ProcId) -> Option<u64> {
        self.sched.share(id)
    }

    /// Whether a principal is currently eligible.
    pub fn is_eligible(&self, id: ProcId) -> Option<bool> {
        self.sched.is_eligible(id)
    }

    /// Scheduler invocations completed.
    pub fn invocations(&self) -> u64 {
        self.sched.invocations()
    }

    /// Cycles completed.
    pub fn cycles_completed(&self) -> u64 {
        self.sched.cycles_completed()
    }

    /// The configured quantum `Q`.
    pub fn quantum(&self) -> Nanos {
        self.sched.quantum()
    }

    /// Members of a principal.
    pub fn members(&self, id: ProcId) -> Option<Vec<M>> {
        self.principal(id).map(|p| p.members.keys().collect())
    }

    /// The principal a member belongs to, if any.
    pub fn principal_of(&self, m: M) -> Option<ProcId> {
        self.member_index.get(&m).copied()
    }

    /// The inner Figure-3 scheduler, for read-only inspection.
    pub fn scheduler(&self) -> &AlpsScheduler {
        &self.sched
    }
}
