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
use core::convert::Infallible;
use core::fmt;
use core::hash::Hash;
use std::collections::{BinaryHeap, HashMap};

use crate::config::AlpsConfig;
use crate::cycle::{CycleEntry, CycleRecord};
use crate::principal::{DueList, MemberSet, Principal};
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

/// The members of the principal whose entry is `p`, in ascending order.
fn members_of<'a, M>(groups: &'a [MemberSet<M>], p: &'a Principal<M>) -> &'a [M]
where
    M: Copy + Ord,
{
    match p {
        Principal::Fixed(m) => std::slice::from_ref(m),
        Principal::Group(g) => groups[*g as usize].members(),
    }
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
///    members from the substrate, measure each due principal in one walk,
///    finish the scheduler's invocation and handle the cycle boundary;
/// 3. [`apply_pending_signals`](Engine::apply_pending_signals) — deliver
///    the resulting stop/continue signals.
///
/// A fixed principal whose member turns out to be gone (unreadable, or a
/// signal bounces) is reaped; a group's gone member is skipped without
/// charge until the backend's next refresh
/// ([`set_membership`](Engine::set_membership)) drops it.
///
/// # Faults
///
/// A substrate error on one member never ends the loop, so the loop's
/// methods return `Result<_, Infallible>`. A failed read is
/// skipped without charge; a failed delivery is retried after 1, 2, 4 …
/// 32 quanta with its principal's intent at that time; both are counted
/// and narrated, and three consecutive faults quarantine the member. A
/// member read stopped ([`Substrate::stopped`]) while its principal is
/// eligible is sent `Continue` again in that quantum. Nothing is re-sent
/// on a timer, so a fault-free quantum does no recovery work.
#[derive(Debug, Clone)]
pub struct Engine<M: Copy + Ord + Hash + fmt::Debug> {
    /// The Figure-3 scheduler, one process per principal. Its slot is the
    /// engine's whole record of a principal: the generation that
    /// validates a [`ProcId`], the share, the last reading, and the
    /// [`Principal`] entry as the slot's payload, so a due fixed
    /// principal is read and charged in one slot access.
    sched: AlpsScheduler<Principal<M>>,
    /// The group table: each live group's members, at the index its
    /// [`Principal::Group`] entry names. A removed group's set is emptied
    /// and its index reused.
    groups: Vec<MemberSet<M>>,
    /// Indices of `groups` free for reuse (LIFO).
    free_groups: Vec<u32>,
    /// Every principal in registration order: the order of
    /// [`Engine::proc_ids`] and of cycle-record entries.
    order: Vec<ProcId>,
    /// With `record_cycles`, each principal's cumulative exact CPU at the
    /// last cycle boundary, parallel to `order`; empty without.
    boundary: Vec<Nanos>,
    /// Stale (removed) ids still present in `order`. Removal only
    /// tombstones; the list is compacted once stale entries outnumber
    /// live ones, so a mass reap (every member of a large workload
    /// exiting) costs O(n) amortized instead of the O(n²) that eager
    /// `retain` per removal used to.
    stale: usize,
    /// Member → the slot index of its principal: the members the engine
    /// manages. The id's generation is the scheduler slot's.
    member_index: HashMap<M, u32>,
    cycles: Vec<CycleRecord>,
    stats: EngineStats,
    record_cycles: bool,
    /// Members with an outstanding fault, and nobody else.
    faults: HashMap<M, Fault>,
    /// Failed deliveries by retry quantum, earliest first. An entry whose
    /// member recovered, was let go or was re-queued since is skipped.
    retry_queue: BinaryHeap<Reverse<(u64, M)>>,
    last_begin: Option<Nanos>,
    /// Scratch: the due list of the in-flight invocation.
    due: DueList<M>,
    /// Scratch: per-member observations, parallel to `due.members()`.
    readings: Vec<Option<Observation>>,
    /// Scratch: members found gone during the read phase.
    gone: Vec<(ProcId, M)>,
    /// Scratch: positions in `readings`, or in the batch being
    /// delivered, whose read or delivery faulted.
    faulted: Vec<usize>,
    /// Scratch: members to re-signal after this quantum's decision.
    repairs: Vec<Repair<M>>,
    /// The last invocation's member signals, staged as the batch
    /// [`Substrate::apply_batch`] takes: every member of every principal
    /// in `outcome.transitions`, then the repairs.
    staged: Vec<(M, Signal)>,
    /// Scratch: the reconciliation batch [`Engine::set_membership`]
    /// delivers. Kept apart from `staged`, so that a refresh between
    /// stages 2 and 3 leaves the staged signals alone.
    batch: Vec<(M, Signal)>,
    /// Scratch: per-signal delivery outcomes of the batch being delivered.
    delivered: Vec<bool>,
    /// Outcome of the last completed invocation; its buffers are reused,
    /// so steady-state quanta allocate nothing.
    outcome: QuantumOutcome,
}

impl<M: Copy + Ord + Hash + fmt::Debug> Engine<M> {
    /// An empty engine. `cfg.record_cycles` selects whether the per-cycle
    /// log is kept; the second argument is [`Instrumentation::Exact`], its
    /// only value.
    pub fn new(cfg: AlpsConfig, _: Instrumentation) -> Self {
        Engine {
            sched: AlpsScheduler::with_payloads(cfg),
            groups: Vec::new(),
            free_groups: Vec::new(),
            order: Vec::new(),
            boundary: Vec::new(),
            stale: 0,
            member_index: HashMap::new(),
            cycles: Vec::new(),
            stats: EngineStats::default(),
            record_cycles: cfg.record_cycles,
            faults: HashMap::new(),
            retry_queue: BinaryHeap::new(),
            last_begin: None,
            due: DueList::default(),
            readings: Vec::new(),
            gone: Vec::new(),
            faulted: Vec::new(),
            repairs: Vec::new(),
            staged: Vec::new(),
            batch: Vec::new(),
            delivered: Vec::new(),
            outcome: QuantumOutcome::default(),
        }
    }

    /// Returns the engine unchanged: every engine reaps a fixed principal
    /// whose member is found gone, so `on` must be `true`. Kept only
    /// because the `benchmark` package, which builds against this API
    /// from outside the workspace, still calls it; it goes when that
    /// caller drops it.
    pub fn with_auto_reap(self, on: bool) -> Self {
        debug_assert!(on, "every engine reaps");
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
        let id = self.insert_principal(share, Principal::Fixed(member), initial_cpu);
        let owner = self.member_index.insert(member, id.index() as u32);
        assert!(
            owner.is_none(),
            "member {member:?} already belongs to a principal"
        );
        id
    }

    /// Register an empty group (§5). Populate it with
    /// [`Engine::set_membership`].
    pub fn add_principal(&mut self, share: u64) -> ProcId {
        let g = self.free_groups.pop().unwrap_or_else(|| {
            self.groups.push(MemberSet::default());
            (self.groups.len() - 1) as u32
        });
        self.insert_principal(share, Principal::Group(g), Nanos::ZERO)
    }

    /// Register `p`, whose first reading, and the cycle log's, is `cpu`.
    fn insert_principal(&mut self, share: u64, p: Principal<M>, cpu: Nanos) -> ProcId {
        let id = self.sched.add_process_with(share, cpu, p);
        self.order.push(id);
        if self.record_cycles {
            self.boundary.push(cpu);
        }
        id
    }

    /// Replace a group's member set (the once-per-second refresh of §5)
    /// and reconcile its members' run states with its eligibility.
    ///
    /// `current` carries, for each member, its *current* cumulative CPU
    /// reading: a newly joined member is charged only for consumption from
    /// this point on. A member listed twice counts once, at its first
    /// listing, and a listed member that another principal owns stays
    /// with that first owner and is left out of this group. If the
    /// principal is suspended, its joiners are sent `Stop` and then its
    /// leavers `Continue`, so that no leaver is orphaned in the stopped
    /// state; they go out as stage 3's do, faults absorbed, and the
    /// signals staged by [`Engine::complete_quantum`] are left alone.
    /// Leavers are let go: the engine keeps no recovery state for them.
    /// Returns how many signals were sent, or `None` for a stale id and
    /// for a fixed principal, whose one member never changes.
    pub fn set_membership(
        &mut self,
        sub: &mut impl Substrate<Member = M>,
        id: ProcId,
        current: &[(M, Nanos)],
        sink: &mut (impl EventSink<M> + ?Sized),
    ) -> Option<usize> {
        let eligible = self.sched.is_eligible(id)?;
        let Principal::Group(g) = *self.sched.payload(id)? else {
            return None;
        };
        let set = &mut self.groups[g as usize];
        // Every joiner paired with `Stop`, then every leaver with
        // `Continue`: the index update below reads who joined and who
        // left from it, and a suspended principal's refresh sends it.
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        let mut members = MemberSet::default();
        for &(m, cpu) in current {
            let owner = self.member_index.get(&m);
            let owned_elsewhere = owner.is_some_and(|&o| o as usize != id.index());
            if owned_elsewhere || members.get(&m).is_some() {
                continue;
            }
            let last = set.get(&m).unwrap_or_else(|| {
                batch.push((m, Signal::Stop));
                cpu
            });
            members.insert(m, last);
        }
        let leavers = set.members().iter().filter(|m| members.get(m).is_none());
        batch.extend(leavers.map(|&m| (m, Signal::Continue)));
        *set = members;
        for &(m, signal) in &batch {
            match signal {
                Signal::Stop => {
                    self.member_index.insert(m, id.index() as u32);
                }
                Signal::Continue => {
                    self.member_index.remove(&m);
                    self.forget_faults(&m);
                }
            }
        }
        if eligible {
            batch.clear();
        }
        self.deliver(sub, &batch, sink);
        let sent = batch.len();
        self.batch = batch;
        Some(sent)
    }

    /// Deregister a principal, returning its members (which the backend
    /// should resume if the principal was ineligible). The engine keeps
    /// no recovery state for them afterwards.
    pub fn remove_principal(&mut self, id: ProcId) -> Option<Vec<M>> {
        let members = match *self.sched.payload(id)? {
            Principal::Fixed(m) => vec![m],
            Principal::Group(g) => {
                self.free_groups.push(g);
                std::mem::take(&mut self.groups[g as usize]).into_members()
            }
        };
        self.sched.remove_process(id);
        self.stale += 1;
        if self.stale * 2 > self.order.len() {
            let sched = &self.sched;
            let mut live = self.order.iter().map(|&x| sched.is_eligible(x).is_some());
            self.boundary.retain(|_| live.next() == Some(true));
            self.order.retain(|&x| sched.is_eligible(x).is_some());
            self.stale = 0;
        }
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
    pub fn begin_quantum(
        &mut self,
        sub: &mut impl Substrate<Member = M>,
        sink: &mut (impl EventSink<M> + ?Sized),
    ) -> Result<usize, Infallible> {
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
        let (groups, due) = (&self.groups, &mut self.due);
        self.sched.begin_quantum_with(|id, p| match *p {
            Principal::Fixed(m) => due.push_fixed(id, m),
            Principal::Group(g) => due.push_group(id, groups[g as usize].members()),
        });
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
    /// scheduler invocation, in one walk that hands each due principal's
    /// summed deltas straight to Figure 3's measurement step. Members
    /// that are gone are skipped without charge (and reaped if they were
    /// a fixed principal's member). On a
    /// cycle boundary the per-cycle log, if kept, gains one exact record
    /// (see [`Instrumentation::Exact`]). The results are held internally
    /// — see [`Engine::pending_signals`],
    /// [`Engine::last_transitions`], [`Engine::last_cycle_completed`] —
    /// and every buffer involved is reused across invocations.
    ///
    /// A read that faults is handled as under [Faults](Engine#faults).
    /// The pending signals also carry the quantum's repairs: retries that
    /// came due, and `Continue` for a member read stopped while its
    /// principal is eligible.
    pub fn complete_quantum(
        &mut self,
        sub: &mut impl Substrate<Member = M>,
        sink: &mut (impl EventSink<M> + ?Sized),
    ) -> Result<(), Infallible> {
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
        // One walk in due order. A fixed principal's reading goes to the
        // scheduler as it is, and the scheduler charges the forward delta
        // from its last one. A group is charged the sum of its members'
        // forward deltas on top of what it was charged before, and is
        // blocked (§2.4) only when every member read is. A principal with
        // no member read, or removed since stage 1, is not measured. The
        // reaps and strikes below touch only such principals and unread
        // members, so measuring first is safe.
        let mut tc_delta = 0.0;
        let mut i = 0;
        let mut faulted = self.faulted.iter().peekable();
        for (id, group, members) in self.due.walk() {
            // A group removed since stage 1 has no charge and is skipped.
            let mut set = None;
            if group {
                if let (Some(charged), Some(&Principal::Group(g))) =
                    (self.sched.charged(id), self.sched.payload(id))
                {
                    set = Some((charged, &mut self.groups[g as usize]));
                }
            }
            let (mut consumed, mut any_read, mut all_blocked) = (Nanos::ZERO, false, true);
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
                        if !group {
                            self.sched
                                .measure(id, o.total_cpu, o.blocked, &mut tc_delta);
                        } else if let Some((_, set)) = set.as_mut() {
                            if let Some(last) = set.get_mut(&m) {
                                consumed += o.total_cpu.saturating_sub(*last);
                                *last = o.total_cpu;
                            }
                            any_read = true;
                            all_blocked &= o.blocked;
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
            if let Some((charged, _)) = set.filter(|_| any_read) {
                let total = charged + consumed;
                self.sched.measure(id, total, all_blocked, &mut tc_delta);
            }
        }
        for k in 0..self.gone.len() {
            let (id, m) = self.gone[k];
            self.reap(id, m, sink);
        }
        for k in 0..self.faulted.len() {
            let m = self.due.members()[self.faulted[k]];
            self.strike(m, sink);
        }
        if !self.retry_queue.is_empty() {
            self.take_due_retries();
        }
        let now = sub.now();
        self.sched.finish_quantum(tc_delta, &mut self.outcome);
        self.staged.clear();
        for t in &self.outcome.transitions {
            let id = t.proc_id();
            let p = self
                .sched
                .payload(id)
                .expect("a transition's principal is registered");
            let signal = match t {
                Transition::Resume(_) => Signal::Continue,
                Transition::Suspend(_) => Signal::Stop,
            };
            let members = members_of(&self.groups, p);
            self.staged.extend(members.iter().map(|&m| (m, signal)));
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
    /// (or last) delivered via [`Engine::apply_pending_signals`], in
    /// delivery order.
    pub fn pending_signals(&self) -> &[(M, Signal)] {
        &self.staged
    }

    /// Principal-level eligibility transitions of the last invocation.
    pub fn last_transitions(&self) -> &[Transition] {
        &self.outcome.transitions
    }

    /// Whether the last invocation crossed a cycle boundary.
    pub fn last_cycle_completed(&self) -> bool {
        self.outcome.cycle_completed
    }

    /// Stage 3: deliver the signals produced by the last
    /// [`Engine::complete_quantum`], as one [`Substrate::apply_batch`]. A
    /// bounced delivery (member gone) reaps a fixed principal.
    pub fn apply_pending_signals(
        &mut self,
        sub: &mut impl Substrate<Member = M>,
        sink: &mut (impl EventSink<M> + ?Sized),
    ) -> Result<(), Infallible> {
        // The staged batch is moved out for the duration of the call (the
        // borrow checker cannot see that `deliver` leaves it alone) and
        // put back so it keeps being reused.
        let staged = std::mem::take(&mut self.staged);
        self.deliver(sub, &staged, sink);
        self.staged = staged;
        Ok(())
    }

    /// Deliver `batch` as one [`Substrate::apply_batch`], absorbing faults.
    fn deliver(
        &mut self,
        sub: &mut impl Substrate<Member = M>,
        batch: &[(M, Signal)],
        sink: &mut (impl EventSink<M> + ?Sized),
    ) {
        self.delivered.clear();
        self.faulted.clear();
        // `apply_batch` is fail-fast with the successful prefix's outcomes
        // in `delivered`, so the signal at `delivered.len()` is the one
        // that faulted; the batch resumes after it.
        let mut res = sub.apply_batch(batch, &mut self.delivered);
        while res.is_err() {
            let at = self.delivered.len();
            self.faulted.push(at);
            self.delivered.push(false);
            res = sub.apply_batch(&batch[at + 1..], &mut self.delivered);
        }
        // Bookkeeping in batch order. `reap` never touches the substrate,
        // so the events emitted and the reaps performed are a per-signal
        // loop's.
        let mut faulted = 0;
        for (i, &(m, signal)) in batch.iter().enumerate() {
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
                if let Some(id) = self.principal_of(m) {
                    self.reap(id, m, sink);
                }
            }
        }
    }

    /// All three stages back to back — the whole scheduler invocation for
    /// backends with nothing to interleave. Returns the principal-level
    /// eligibility transitions this invocation produced.
    pub fn run_quantum(
        &mut self,
        sub: &mut impl Substrate<Member = M>,
        sink: &mut (impl EventSink<M> + ?Sized),
    ) -> Result<&[Transition], Infallible> {
        self.begin_quantum(sub, sink)?;
        self.complete_quantum(sub, sink)?;
        self.apply_pending_signals(sub, sink)?;
        Ok(&self.outcome.transitions)
    }

    fn reap(&mut self, id: ProcId, m: M, sink: &mut (impl EventSink<M> + ?Sized)) {
        // Only a fixed principal dies with its member; a group's gone
        // member is skipped until the backend's next refresh drops it.
        if !matches!(self.sched.payload(id), Some(Principal::Fixed(_))) {
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
    fn signal_fault(&mut self, m: M, signal: Signal, sink: &mut (impl EventSink<M> + ?Sized)) {
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
    fn strike(&mut self, m: M, sink: &mut (impl EventSink<M> + ?Sized)) {
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
    fn quarantine(&mut self, m: M, sink: &mut (impl EventSink<M> + ?Sized)) {
        self.faults.remove(&m);
        let Some(id) = self.principal_of(m) else {
            return;
        };
        self.stats.quarantined += 1;
        sink.on_event(&Event::Quarantined { member: m });
        let p = self.sched.payload(id);
        match *p.expect("a managed member's principal is registered") {
            Principal::Fixed(_) => {
                self.remove_principal(id);
            }
            // The evicted member gets no reconciliation signal: it is
            // faulting. Re-admitted stopped into an eligible group, it is
            // read stopped and resumed.
            Principal::Group(g) => {
                if self.groups[g as usize].remove(&m).is_some() {
                    self.member_index.remove(&m);
                }
            }
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
            let Some(id) = self.principal_of(m) else {
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
    fn push_repairs(&mut self, sink: &mut (impl EventSink<M> + ?Sized)) {
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
            let signal = if eligible {
                Signal::Continue
            } else {
                Signal::Stop
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
                self.staged.push((r.member, signal));
            }
        }
    }

    /// Build a [`CycleRecord`] differenced against the readings taken at
    /// the previous boundary: a fixed principal's member is re-read
    /// exactly, a group is charged what it was charged since (its current
    /// members' lifetimes say nothing about what the group consumed).
    ///
    /// The scheduler has already committed this quantum, so a faulting
    /// read must not abort it: the fault is counted and narrated, and the
    /// entry is charged nothing and keeps its reading, like a gone
    /// member's (the next boundary charges what it missed). Nobody is
    /// struck here — a quarantine would compact `order` mid-walk; the
    /// quantum's own reads strike.
    fn record_exact_cycle(
        &mut self,
        sub: &mut impl Substrate<Member = M>,
        now: Nanos,
        sink: &mut (impl EventSink<M> + ?Sized),
    ) {
        let mut entries = Vec::with_capacity(self.order.len());
        let mut total = Nanos::ZERO;
        for i in 0..self.order.len() {
            let (id, last) = (self.order[i], self.boundary[i]);
            let Some(charged) = self.sched.charged(id) else {
                continue; // tombstoned (removed, not yet compacted)
            };
            let current = match self.sched.payload(id) {
                Some(&Principal::Fixed(m)) => match sub.read_exact(m) {
                    // A member that is gone is charged nothing further;
                    // keep the old reading so the record is stable.
                    Ok(cpu) => cpu.unwrap_or(last),
                    Err(_) => {
                        self.stats.read_faults += 1;
                        sink.on_event(&Event::ReadFault { member: m });
                        last
                    }
                },
                _ => charged,
            };
            let consumed = current.saturating_sub(last);
            self.boundary[i] = current;
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
        self.order
            .iter()
            .copied()
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
        let p = self.sched.payload(id)?;
        Some(members_of(&self.groups, p).to_vec())
    }

    /// The principal a member belongs to, if any.
    pub fn principal_of(&self, m: M) -> Option<ProcId> {
        self.member_index.get(&m).map(|&i| self.sched.id_at(i))
    }

    /// CPU time remaining before the current cycle completes (`t_c`).
    pub fn cycle_time_remaining(&self) -> f64 {
        self.sched.cycle_time_remaining()
    }
}
