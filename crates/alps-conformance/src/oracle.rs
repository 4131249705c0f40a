//! The naive Figure-3 reference implementation.
//!
//! Everything here is the *simplest* code that implements the spec: full
//! scans over every slot each quantum, a fresh `Vec` per call, no due
//! index, no incrementally maintained counters. The only discipline it
//! shares with the production scheduler is arithmetic order (so f64
//! results are bit-identical) and id minting (so [`ProcId`]s and emission
//! order are comparable) — see the crate docs.

use std::collections::{BTreeMap, HashMap};

use alps_core::{
    AlpsConfig, IoPolicy, MemberTransition, MembershipChange, Nanos, Observation, ProcId,
    QuantumOutcome, StaleId, Transition,
};

#[derive(Debug, Clone)]
struct OracleProc {
    share: u64,
    allowance: f64,
    eligible: bool,
    update: u64,
    last_cpu: Nanos,
    forfeited: bool,
}

#[derive(Debug, Clone)]
struct OracleSlot {
    generation: u32,
    state: Option<OracleProc>,
    listed: bool,
}

/// One principal's due-member readings for a quantum: `None` marks a
/// member that could not be read (it exited mid-quantum).
pub type MemberReadings<M> = Vec<(M, Option<Observation>)>;

/// Naive reference implementation of `alps_core::AlpsScheduler`.
///
/// Same public contract (ids, due lists, transitions, aggregate
/// counters), O(N) everything, allocation per call.
#[derive(Debug, Clone)]
pub struct OracleScheduler {
    cfg: AlpsConfig,
    slots: Vec<OracleSlot>,
    /// Vacant slot indices, popped LIFO exactly like production.
    free: Vec<u32>,
    /// Slot indices in scan order, with the production compaction rule
    /// (vacated entries removed once they outnumber the live ones).
    occupied: Vec<u32>,
    vacated: usize,
    live: usize,
    total_shares: u64,
    tc: f64,
    count: u64,
    cycles_completed: u64,
}

impl OracleScheduler {
    /// Create an empty oracle.
    pub fn new(cfg: AlpsConfig) -> Self {
        assert!(cfg.quantum > Nanos::ZERO, "quantum must be positive");
        OracleScheduler {
            cfg,
            slots: Vec::new(),
            free: Vec::new(),
            occupied: Vec::new(),
            vacated: 0,
            live: 0,
            total_shares: 0,
            tc: 0.0,
            count: 0,
            cycles_completed: 0,
        }
    }

    /// Total shares `S`.
    pub fn total_shares(&self) -> u64 {
        self.total_shares
    }

    /// The quantum length `Q`.
    pub fn quantum(&self) -> Nanos {
        self.cfg.quantum
    }

    /// The cycle length `S · Q` in nanoseconds.
    pub fn cycle_len(&self) -> f64 {
        self.total_shares as f64 * self.cfg.quantum.as_f64()
    }

    /// CPU time remaining in the current cycle (`t_c`).
    pub fn cycle_time_remaining(&self) -> f64 {
        self.tc
    }

    /// Completed cycles.
    pub fn cycles_completed(&self) -> u64 {
        self.cycles_completed
    }

    /// Scheduler invocations.
    pub fn invocations(&self) -> u64 {
        self.count
    }

    /// Registered processes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Register a process (Figure 3 "join": starts ineligible, allowance =
    /// share, cycle extended by `share · Q`).
    pub fn add_process(&mut self, share: u64, initial_cpu: Nanos) -> ProcId {
        assert!(share > 0, "share must be positive");
        let state = OracleProc {
            share,
            allowance: share as f64,
            eligible: false,
            update: 0,
            last_cpu: initial_cpu,
            forfeited: false,
        };
        self.total_shares += share;
        self.tc += share as f64 * self.cfg.quantum.as_f64();
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.generation = slot.generation.wrapping_add(1);
            slot.state = Some(state);
            if !slot.listed {
                slot.listed = true;
                self.occupied.push(idx);
            } else {
                self.vacated -= 1;
            }
            ProcId::from_raw(idx, slot.generation)
        } else {
            self.slots.push(OracleSlot {
                generation: 0,
                state: Some(state),
                listed: true,
            });
            let idx = (self.slots.len() - 1) as u32;
            self.occupied.push(idx);
            ProcId::from_raw(idx, 0)
        }
    }

    /// Deregister a process (Figure 3 "leave": cycle shortened by the
    /// unspent positive allowance).
    pub fn remove_process(&mut self, id: ProcId) -> Option<u64> {
        let slot = self.slots.get_mut(id.index())?;
        if slot.generation != id.generation() {
            return None;
        }
        let state = slot.state.take()?;
        self.free.push(id.index() as u32);
        self.vacated += 1;
        if self.vacated * 2 > self.occupied.len() {
            let slots = &mut self.slots;
            self.occupied.retain(|&i| {
                let keep = slots[i as usize].state.is_some();
                if !keep {
                    slots[i as usize].listed = false;
                }
                keep
            });
            self.vacated = 0;
        }
        self.total_shares -= state.share;
        self.live -= 1;
        if state.allowance > 0.0 {
            self.tc -= state.allowance * self.cfg.quantum.as_f64();
        }
        Some(state.share)
    }

    /// Change a share (§2.2: allowance rescaled in proportion, cycle
    /// absorbs the delta, re-measured next quantum).
    pub fn set_share(&mut self, id: ProcId, share: u64) -> Result<(), StaleId> {
        assert!(share > 0, "share must be positive");
        let q = self.cfg.quantum.as_f64();
        let state = self.state_mut(id).ok_or(StaleId(id))?;
        let old = state.share;
        let old_allowance = state.allowance;
        state.share = share;
        state.allowance = old_allowance * share as f64 / old as f64;
        state.update = 0;
        let allowance_delta = state.allowance - old_allowance;
        self.total_shares = self.total_shares - old + share;
        self.tc += allowance_delta * q;
        Ok(())
    }

    /// A process's share.
    pub fn share(&self, id: ProcId) -> Option<u64> {
        self.state(id).map(|s| s.share)
    }

    /// A process's remaining allowance, in quanta.
    pub fn allowance(&self, id: ProcId) -> Option<f64> {
        self.state(id).map(|s| s.allowance)
    }

    /// Whether a process is in the eligible group.
    pub fn is_eligible(&self, id: ProcId) -> Option<bool> {
        self.state(id).map(|s| s.eligible)
    }

    /// Begin an invocation: advance `count`, scan every slot, return the
    /// due set `{i : eligible_i ∧ (¬lazy ∨ update_i ≤ count)}` in scan
    /// order.
    pub fn begin_quantum(&mut self) -> Vec<ProcId> {
        self.count += 1;
        let count = self.count;
        let lazy = self.cfg.lazy_measurement;
        let mut due = Vec::new();
        for &i in &self.occupied {
            let slot = &self.slots[i as usize];
            let Some(s) = slot.state.as_ref() else {
                continue;
            };
            if s.eligible && (!lazy || s.update <= count) {
                due.push(ProcId::from_raw(i, slot.generation));
            }
        }
        due
    }

    /// Complete the invocation: the measurement loop, cycle-boundary
    /// handling, and the full-scan repartition of Figure 3.
    pub fn complete_quantum(&mut self, observations: &[(ProcId, Observation)]) -> QuantumOutcome {
        let q = self.cfg.quantum.as_f64();
        let io_policy = self.cfg.io_policy;

        // Measurement loop, with the cycle-time adjustment accumulated
        // locally and applied once (arithmetic order is part of the
        // contract under bit-exact comparison).
        let mut tc_delta = 0.0f64;
        for &(id, obs) in observations {
            let Some(state) = self.state_mut(id) else {
                continue; // removed between begin and complete
            };
            let consumed = obs.total_cpu.saturating_sub(state.last_cpu);
            state.last_cpu = obs.total_cpu;
            state.allowance -= consumed.as_f64() / q;
            tc_delta -= consumed.as_f64();
            if obs.blocked {
                match io_policy {
                    IoPolicy::OneQuantumPenalty => {
                        state.allowance -= 1.0;
                        tc_delta -= q;
                    }
                    IoPolicy::NoPenalty => {}
                    IoPolicy::ForfeitAllowance => {
                        if !state.forfeited && state.allowance > 0.0 {
                            tc_delta -= state.allowance * q;
                            state.allowance = 0.0;
                            state.forfeited = true;
                        }
                    }
                }
            }
        }
        self.tc += tc_delta;

        // Cycle boundary: exactly one cycle credited per invocation, and
        // every forfeit flag cleared for the new cycle.
        let cycle_completed = self.tc <= 0.0 && self.total_shares > 0;
        if cycle_completed {
            self.tc += self.cycle_len();
            self.cycles_completed += 1;
            for k in 0..self.occupied.len() {
                let i = self.occupied[k] as usize;
                if let Some(s) = self.slots[i].state.as_mut() {
                    s.forfeited = false;
                }
            }
        }

        // Repartition: the reference semantics walk *every* slot, every
        // quantum (the production scheduler proves it can restrict the
        // walk off-boundary; the oracle must not assume that).
        let mut transitions = Vec::new();
        let count = self.count;
        for k in 0..self.occupied.len() {
            let i = self.occupied[k] as usize;
            let slot = &mut self.slots[i];
            let Some(s) = slot.state.as_mut() else {
                continue;
            };
            if cycle_completed {
                s.allowance += s.share as f64;
            }
            let want_eligible = s.allowance > 0.0;
            if want_eligible != s.eligible {
                s.eligible = want_eligible;
                let id = ProcId::from_raw(i as u32, slot.generation);
                transitions.push(if want_eligible {
                    Transition::Resume(id)
                } else {
                    Transition::Suspend(id)
                });
            }
            if s.update <= count {
                let wait = s.allowance.ceil().max(0.0) as u64;
                s.update = count + wait;
            }
        }

        // Liveness valve, with the eligible count found by scan.
        let eligible_count = self
            .occupied
            .iter()
            .filter_map(|&i| self.slots[i as usize].state.as_ref())
            .filter(|s| s.eligible)
            .count();
        if self.live > 0 && self.tc > 0.0 && eligible_count == 0 {
            self.tc = 0.0;
        }

        QuantumOutcome {
            transitions,
            cycle_completed,
        }
    }

    fn state(&self, id: ProcId) -> Option<&OracleProc> {
        let slot = self.slots.get(id.index())?;
        if slot.generation != id.generation() {
            return None;
        }
        slot.state.as_ref()
    }

    fn state_mut(&mut self, id: ProcId) -> Option<&mut OracleProc> {
        let slot = self.slots.get_mut(id.index())?;
        if slot.generation != id.generation() {
            return None;
        }
        slot.state.as_mut()
    }
}

#[derive(Debug, Clone)]
struct OraclePrincipal<M> {
    /// A group's membership is refreshed; a fixed principal keeps its one
    /// member.
    group: bool,
    cumulative: Nanos,
    members: BTreeMap<M, Nanos>,
}

/// Outcome of one [`OraclePrincipalLayer`] invocation.
#[derive(Debug, Clone)]
pub(crate) struct OracleOutcome<M> {
    /// Signals for every member of every principal whose eligibility
    /// flipped.
    pub(crate) signals: Vec<MemberTransition<M>>,
    /// The principal-level transitions behind `signals`.
    pub(crate) transitions: Vec<Transition>,
    /// Whether a cycle boundary was crossed.
    pub(crate) cycle_completed: bool,
}

/// The naive §5 principal layer under
/// [`OracleEngine`](crate::OracleEngine), kept as its own layer because
/// it is the reference for the principal rules `alps_core::Engine` folds
/// into itself: member deltas folded into a per-principal aggregate,
/// eligibility fanned out to member signals.
#[derive(Debug, Clone)]
pub(crate) struct OraclePrincipalLayer<M: Ord + Copy> {
    inner: OracleScheduler,
    principals: HashMap<ProcId, OraclePrincipal<M>>,
}

impl<M: Ord + Copy> OraclePrincipalLayer<M> {
    /// Create an empty principal oracle.
    pub fn new(cfg: AlpsConfig) -> Self {
        OraclePrincipalLayer {
            inner: OracleScheduler::new(cfg),
            principals: HashMap::new(),
        }
    }

    /// The flat oracle underneath.
    pub fn inner(&self) -> &OracleScheduler {
        &self.inner
    }

    /// Register a group with no members.
    pub fn add_principal(&mut self, share: u64) -> ProcId {
        self.insert(share, true, BTreeMap::new())
    }

    /// Register a fixed principal whose one member is `member`, read at
    /// `cpu`.
    pub fn add_member(&mut self, member: M, share: u64, cpu: Nanos) -> ProcId {
        self.insert(share, false, BTreeMap::from([(member, cpu)]))
    }

    fn insert(&mut self, share: u64, group: bool, members: BTreeMap<M, Nanos>) -> ProcId {
        let id = self.inner.add_process(share, Nanos::ZERO);
        self.principals.insert(
            id,
            OraclePrincipal {
                group,
                cumulative: Nanos::ZERO,
                members,
            },
        );
        id
    }

    /// Whether a principal is a group (`None` for a stale id).
    pub fn is_group(&self, id: ProcId) -> Option<bool> {
        self.principals.get(&id).map(|p| p.group)
    }

    /// A principal's CPU charged so far, over current and past members.
    pub fn cumulative(&self, id: ProcId) -> Option<Nanos> {
        self.principals.get(&id).map(|p| p.cumulative)
    }

    /// Deregister a principal, returning its members.
    pub fn remove_principal(&mut self, id: ProcId) -> Option<Vec<M>> {
        let p = self.principals.remove(&id)?;
        self.inner.remove_process(id);
        Some(p.members.into_keys().collect())
    }

    /// Change a principal's share.
    pub fn set_share(&mut self, id: ProcId, share: u64) -> Result<(), StaleId> {
        self.inner.set_share(id, share)
    }

    /// Whether a principal is eligible.
    pub fn is_eligible(&self, id: ProcId) -> Option<bool> {
        self.inner.is_eligible(id)
    }

    /// Members of a principal, in key order.
    pub fn members(&self, id: ProcId) -> Option<Vec<M>> {
        self.principals
            .get(&id)
            .map(|p| p.members.keys().copied().collect())
    }

    /// Replace a group's member set (§5 refresh). A member listed twice
    /// counts once, at its first listing. `None` for a stale id or a
    /// fixed principal.
    pub fn set_membership(
        &mut self,
        id: ProcId,
        current: &[(M, Nanos)],
    ) -> Option<MembershipChange<M>> {
        let eligible = self.inner.is_eligible(id)?;
        let p = self.principals.get_mut(&id).filter(|p| p.group)?;
        let mut new_members = BTreeMap::new();
        let mut added = Vec::new();
        for &(m, cpu) in current {
            if new_members.contains_key(&m) {
                continue;
            }
            match p.members.remove(&m) {
                Some(last) => {
                    new_members.insert(m, last);
                }
                None => {
                    added.push(m);
                    new_members.insert(m, cpu);
                }
            }
        }
        let removed: Vec<M> = p.members.keys().copied().collect();
        p.members = new_members;
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

    /// Begin an invocation: the due principals, each with its members in
    /// key order.
    pub fn begin_quantum(&mut self) -> Vec<(ProcId, Vec<M>)> {
        self.inner
            .begin_quantum()
            .into_iter()
            .map(|id| {
                let members = self
                    .principals
                    .get(&id)
                    .map(|p| p.members.keys().copied().collect())
                    .unwrap_or_default();
                (id, members)
            })
            .collect()
    }

    /// Complete the invocation with per-member readings in the order
    /// returned by [`Self::begin_quantum`]. `None` marks a member that
    /// could not be read (exited); the principal is blocked only when
    /// every member that *was* read reports blocked.
    pub fn complete_quantum(
        &mut self,
        readings: &[(ProcId, MemberReadings<M>)],
    ) -> OracleOutcome<M> {
        let mut obs = Vec::new();
        for (id, members) in readings {
            let Some(p) = self.principals.get_mut(id) else {
                continue;
            };
            let mut any_read = false;
            let mut all_blocked = true;
            for (m, reading) in members {
                let Some(o) = reading else {
                    continue;
                };
                any_read = true;
                if let Some(last) = p.members.get_mut(m) {
                    let delta = o.total_cpu.saturating_sub(*last);
                    *last = o.total_cpu;
                    p.cumulative += delta;
                }
                if !o.blocked {
                    all_blocked = false;
                }
            }
            obs.push((
                *id,
                Observation {
                    total_cpu: p.cumulative,
                    blocked: any_read && all_blocked,
                },
            ));
        }
        let inner_out = self.inner.complete_quantum(&obs);
        let mut signals = Vec::new();
        for t in &inner_out.transitions {
            let id = t.proc_id();
            if let Some(p) = self.principals.get(&id) {
                for &m in p.members.keys() {
                    signals.push(match t {
                        Transition::Resume(_) => MemberTransition::Resume(m),
                        Transition::Suspend(_) => MemberTransition::Suspend(m),
                    });
                }
            }
        }
        OracleOutcome {
            signals,
            transitions: inner_out.transitions,
            cycle_completed: inner_out.cycle_completed,
        }
    }
}
