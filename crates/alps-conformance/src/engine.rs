//! A naive replica of the generic engine loop (`alps_core::Engine`).
//!
//! Mirrors every externally visible behavior — overrun detection, the
//! read/complete/signal stages, auto-reaping of fixed principals, cycle
//! instrumentation, first-owner-keeps-it membership, [`EngineStats`] —
//! over the same [`Substrate`] trait, but built on the
//! naive oracle schedulers with fresh allocations per quantum. The
//! differential harness runs it and the production engine over identical
//! mock substrates and demands identical event streams. It models no
//! faults, so it runs only over substrates that cannot fail.

use core::convert::Infallible;
use core::fmt;
use core::hash::Hash;
use std::collections::HashMap;

use alps_core::{
    AlpsConfig, CycleEntry, CycleRecord, EngineStats, Event, EventSink, MemberTransition,
    MembershipChange, Nanos, ProcId, Signal, StaleId, Substrate, Transition,
};

use crate::oracle::{MemberReadings, OraclePrincipalLayer};

/// Naive reference implementation of `alps_core::Engine`.
#[derive(Debug, Clone)]
pub struct OracleEngine<M: Copy + Ord + Hash + fmt::Debug> {
    sched: OraclePrincipalLayer<M>,
    order: Vec<ProcId>,
    stale: usize,
    member_index: HashMap<M, ProcId>,
    snapshot: Vec<(ProcId, Nanos)>,
    cycles: Vec<CycleRecord>,
    stats: EngineStats,
    record_cycles: bool,
    auto_reap: bool,
    last_begin: Option<Nanos>,
    /// The due list of the in-flight invocation (fresh each quantum).
    due: Vec<(ProcId, Vec<M>)>,
    /// Outcome of the last completed invocation.
    transitions: Vec<Transition>,
    signals: Vec<(M, Signal)>,
    cycle_completed: bool,
}

impl<M: Copy + Ord + Hash + fmt::Debug> OracleEngine<M> {
    /// An empty oracle engine; `cfg.record_cycles` selects whether the
    /// exact per-cycle log is kept, as in the production engine.
    pub fn new(cfg: AlpsConfig) -> Self {
        OracleEngine {
            sched: OraclePrincipalLayer::new(cfg),
            order: Vec::new(),
            stale: 0,
            member_index: HashMap::new(),
            snapshot: Vec::new(),
            cycles: Vec::new(),
            stats: EngineStats::default(),
            record_cycles: cfg.record_cycles,
            auto_reap: false,
            last_begin: None,
            due: Vec::new(),
            transitions: Vec::new(),
            signals: Vec::new(),
            cycle_completed: false,
        }
    }

    /// Enable auto-reaping of fixed principals whose member is gone.
    pub fn with_auto_reap(mut self, on: bool) -> Self {
        self.auto_reap = on;
        self
    }

    /// Register a fixed single-member principal.
    pub fn add_member(&mut self, member: M, share: u64, initial_cpu: Nanos) -> ProcId {
        let id = self.sched.add_member(member, share, initial_cpu);
        self.member_index.insert(member, id);
        self.order.push(id);
        self.snapshot.push((id, initial_cpu));
        id
    }

    /// Register an empty group.
    pub fn add_principal(&mut self, share: u64) -> ProcId {
        let id = self.sched.add_principal(share);
        self.order.push(id);
        self.snapshot.push((id, Nanos::ZERO));
        id
    }

    /// Replace a group's member set, leaving out any member another
    /// principal owns.
    pub fn set_membership(
        &mut self,
        id: ProcId,
        current: &[(M, Nanos)],
    ) -> Option<MembershipChange<M>> {
        let kept: Vec<(M, Nanos)> = current
            .iter()
            .copied()
            .filter(|(m, _)| self.member_index.get(m).is_none_or(|&o| o == id))
            .collect();
        let change = self.sched.set_membership(id, &kept)?;
        for m in &change.added {
            self.member_index.insert(*m, id);
        }
        for m in &change.removed {
            self.member_index.remove(m);
        }
        Some(change)
    }

    /// Deregister a principal, returning its members.
    pub fn remove_principal(&mut self, id: ProcId) -> Option<Vec<M>> {
        let members = self.sched.remove_principal(id)?;
        self.stale += 1;
        if self.stale * 2 > self.order.len() {
            let sched = &self.sched;
            self.order.retain(|&x| sched.is_eligible(x).is_some());
            self.snapshot
                .retain(|&(x, _)| sched.is_eligible(x).is_some());
            self.stale = 0;
        }
        for m in &members {
            self.member_index.remove(m);
        }
        Some(members)
    }

    /// Change a principal's share.
    pub fn set_share(&mut self, id: ProcId, share: u64) -> Result<(), StaleId> {
        self.sched.set_share(id, share)
    }

    /// Stage 1: enter a quantum (overrun detection + due discovery).
    pub fn begin_quantum<S>(
        &mut self,
        sub: &mut S,
        sink: &mut dyn EventSink<M>,
    ) -> Result<usize, Infallible>
    where
        S: Substrate<Member = M, Error = Infallible>,
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
        self.due = self.sched.begin_quantum();
        let members: usize = self.due.iter().map(|(_, ms)| ms.len()).sum();
        sink.on_event(&Event::QuantumStart {
            invocation: self.stats.quanta,
            now,
            due: members,
        });
        Ok(members)
    }

    /// The due list of the last [`Self::begin_quantum`].
    pub fn due(&self) -> &[(ProcId, Vec<M>)] {
        &self.due
    }

    /// Stage 2: read the due members and complete the invocation.
    pub fn complete_quantum<S>(
        &mut self,
        sub: &mut S,
        sink: &mut dyn EventSink<M>,
    ) -> Result<(), Infallible>
    where
        S: Substrate<Member = M, Error = Infallible>,
    {
        let due = std::mem::take(&mut self.due);
        let mut readings: Vec<(ProcId, MemberReadings<M>)> = Vec::new();
        let mut gone = Vec::new();
        for (id, members) in &due {
            let mut row = Vec::new();
            for &m in members {
                match sub.read(m)? {
                    Some(o) => {
                        self.stats.measurements += 1;
                        sink.on_event(&Event::Measured {
                            member: m,
                            cpu: o.total_cpu,
                            blocked: o.blocked,
                        });
                        row.push((m, Some(o)));
                    }
                    None => {
                        gone.push((*id, m));
                        row.push((m, None));
                    }
                }
            }
            readings.push((*id, row));
        }
        for (id, m) in gone {
            self.reap(id, m, sink);
        }
        let now = sub.now();
        let out = self.sched.complete_quantum(&readings);
        self.transitions = out.transitions;
        self.signals = out.signals.iter().map(|&t| signal_of(t)).collect();
        self.cycle_completed = out.cycle_completed;
        if out.cycle_completed {
            self.stats.cycles += 1;
            sink.on_event(&Event::CycleEnd {
                index: self.sched.inner().cycles_completed().saturating_sub(1),
                now,
            });
            if self.record_cycles {
                self.record_exact_cycle(sub, now)?;
            }
        }
        self.due = due;
        Ok(())
    }

    /// Signals produced by the last [`Self::complete_quantum`].
    pub fn pending_signals(&self) -> &[(M, Signal)] {
        &self.signals
    }

    /// Principal-level transitions of the last invocation.
    pub fn last_transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Whether the last invocation crossed a cycle boundary.
    pub fn last_cycle_completed(&self) -> bool {
        self.cycle_completed
    }

    /// Stage 3: deliver stop/continue signals.
    pub fn apply_signals<S>(
        &mut self,
        sub: &mut S,
        signals: &[MemberTransition<M>],
        sink: &mut dyn EventSink<M>,
    ) -> Result<(), Infallible>
    where
        S: Substrate<Member = M, Error = Infallible>,
    {
        let batch: Vec<(M, Signal)> = signals.iter().map(|&t| signal_of(t)).collect();
        self.deliver(sub, &batch, sink)
    }

    fn deliver<S>(
        &mut self,
        sub: &mut S,
        batch: &[(M, Signal)],
        sink: &mut dyn EventSink<M>,
    ) -> Result<(), Infallible>
    where
        S: Substrate<Member = M, Error = Infallible>,
    {
        for &(m, sig) in batch {
            let delivered = sub.deliver(m, sig)?;
            self.stats.signals += 1;
            sink.on_event(&Event::SignalSent {
                member: m,
                signal: sig,
                delivered,
            });
            if !delivered {
                if let Some(&id) = self.member_index.get(&m) {
                    self.reap(id, m, sink);
                }
            }
        }
        Ok(())
    }

    /// Stage 3 for the common case: deliver the signals produced by the
    /// last [`Self::complete_quantum`].
    pub fn apply_pending_signals<S>(
        &mut self,
        sub: &mut S,
        sink: &mut dyn EventSink<M>,
    ) -> Result<(), Infallible>
    where
        S: Substrate<Member = M, Error = Infallible>,
    {
        let signals = std::mem::take(&mut self.signals);
        let result = self.deliver(sub, &signals, sink);
        self.signals = signals;
        result
    }

    /// All three stages back to back.
    pub fn run_quantum<S>(
        &mut self,
        sub: &mut S,
        sink: &mut dyn EventSink<M>,
    ) -> Result<&[Transition], Infallible>
    where
        S: Substrate<Member = M, Error = Infallible>,
    {
        self.begin_quantum(sub, sink)?;
        self.complete_quantum(sub, sink)?;
        self.apply_pending_signals(sub, sink)?;
        Ok(&self.transitions)
    }

    fn reap(&mut self, id: ProcId, m: M, sink: &mut dyn EventSink<M>) {
        if !self.auto_reap || self.sched.is_group(id) != Some(false) {
            return;
        }
        self.remove_principal(id);
        self.stats.reaped += 1;
        sink.on_event(&Event::MemberReaped { member: m });
    }

    fn record_exact_cycle<S>(&mut self, sub: &mut S, now: Nanos) -> Result<(), Infallible>
    where
        S: Substrate<Member = M, Error = Infallible>,
    {
        let mut entries = Vec::new();
        let mut total = Nanos::ZERO;
        for i in 0..self.snapshot.len() {
            let (id, last) = self.snapshot[i];
            let current = match self.sched.is_group(id) {
                None => continue,
                Some(true) => self.sched.cumulative(id).unwrap_or(last),
                Some(false) => {
                    let mut current = last;
                    for m in self.sched.members(id).unwrap_or_default() {
                        if let Some(cpu) = sub.read_exact(m)? {
                            current = cpu;
                        }
                    }
                    current
                }
            };
            let consumed = current.saturating_sub(last);
            self.snapshot[i].1 = current;
            total += consumed;
            entries.push(CycleEntry {
                id,
                share: self.sched.inner().share(id).unwrap_or(0),
                consumed,
            });
        }
        self.cycles.push(CycleRecord {
            index: self.sched.inner().cycles_completed().saturating_sub(1),
            completed_at: now,
            total_shares: self.sched.inner().total_shares(),
            total_consumed: total,
            entries,
        });
        Ok(())
    }

    /// Counters of everything the engine has done.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The per-cycle consumption log.
    pub fn cycles(&self) -> &[CycleRecord] {
        &self.cycles
    }

    /// A principal's remaining allowance in quanta.
    pub fn allowance(&self, id: ProcId) -> Option<f64> {
        self.sched.inner().allowance(id)
    }

    /// A principal's share.
    pub fn share(&self, id: ProcId) -> Option<u64> {
        self.sched.inner().share(id)
    }

    /// Whether a principal is eligible.
    pub fn is_eligible(&self, id: ProcId) -> Option<bool> {
        self.sched.inner().is_eligible(id)
    }

    /// Members of a principal.
    pub fn members(&self, id: ProcId) -> Option<Vec<M>> {
        self.sched.members(id)
    }

    /// The configured quantum.
    pub fn quantum(&self) -> Nanos {
        self.sched.inner().quantum()
    }

    /// The flat oracle scheduler underneath, for aggregate comparisons.
    pub fn scheduler(&self) -> &crate::oracle::OracleScheduler {
        self.sched.inner()
    }
}

/// A member signal as the batch the substrate takes.
fn signal_of<M>(t: MemberTransition<M>) -> (M, Signal) {
    match t {
        MemberTransition::Resume(m) => (m, Signal::Continue),
        MemberTransition::Suspend(m) => (m, Signal::Stop),
    }
}
