//! Resource principals: scheduling *groups* of processes as one entity (§5).
//!
//! The paper's shared-web-server experiment decouples the resource principal
//! from the process abstraction: the scheduled entity is a *user*, and CPU
//! consumption by any of that user's processes counts against the user's
//! allocation. [`PrincipalScheduler`] implements that layer on top of
//! [`AlpsScheduler`]: each principal is one logical
//! process in the inner scheduler, its consumption is the sum of its
//! members' consumption, and eligibility transitions fan out to signals for
//! every member.
//!
//! Membership is refreshed by the backend (the paper re-scanned the process
//! table once per second with `kvm_getprocs`); see
//! [`PrincipalScheduler::set_membership`].

use crate::config::AlpsConfig;
use crate::sched::{AlpsScheduler, Observation, ProcId, QuantumOutcome, Transition};
use crate::time::Nanos;

/// A signal the backend must deliver to one member process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberTransition<M> {
    /// Make the member runnable (`SIGCONT`).
    Resume(M),
    /// Suspend the member (`SIGSTOP`).
    Suspend(M),
}

impl<M: Copy> MemberTransition<M> {
    /// The member this signal addresses.
    pub fn member(self) -> M {
        match self {
            MemberTransition::Resume(m) | MemberTransition::Suspend(m) => m,
        }
    }
}

/// Result of a membership refresh: what the backend must do to reconcile
/// the new member set with the principal's current eligibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipChange<M> {
    /// Members that joined. If the principal is currently ineligible they
    /// must be suspended immediately (`signals` already reflects this).
    pub added: Vec<M>,
    /// Members that left (exited or changed owner). Backends typically need
    /// no action — but if the principal was ineligible, a departing process
    /// that still exists should be resumed so it is not left frozen.
    pub removed: Vec<M>,
    /// Signals to enact to make member states match principal eligibility.
    pub signals: Vec<MemberTransition<M>>,
}

/// Outcome of one principal-scheduler invocation.
#[derive(Debug, Clone)]
pub struct PrincipalOutcome<M> {
    /// Signals to enact, covering every member of every principal whose
    /// eligibility flipped.
    pub signals: Vec<MemberTransition<M>>,
    /// The principal-level transitions behind `signals` (one per principal
    /// whose eligibility flipped, before the fan-out to members).
    pub transitions: Vec<Transition>,
    /// Whether a cycle boundary was crossed.
    pub cycle_completed: bool,
}

impl<M> Default for PrincipalOutcome<M> {
    fn default() -> Self {
        PrincipalOutcome {
            signals: Vec::new(),
            transitions: Vec::new(),
            cycle_completed: false,
        }
    }
}

/// Reusable due-list buffer filled by
/// [`PrincipalScheduler::begin_quantum_into`]: the principals due for
/// measurement this quantum, each with its member set, flattened into two
/// backing vectors so steady-state refills allocate nothing.
#[derive(Debug, Clone)]
pub struct DueList<M> {
    /// `(principal, start, len)` — the member slice of each due principal
    /// within `members`.
    entries: Vec<(ProcId, u32, u32)>,
    /// All members to read this quantum, in due order. A readings slice
    /// handed to [`PrincipalScheduler::complete_quantum_into`] must run
    /// parallel to this.
    members: Vec<M>,
}

impl<M> Default for DueList<M> {
    fn default() -> Self {
        DueList {
            entries: Vec::new(),
            members: Vec::new(),
        }
    }
}

impl<M> DueList<M> {
    /// An empty due list (buffers grow on first use, then get reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of due principals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no principal is due.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every member to read this quantum, in due order.
    pub fn members(&self) -> &[M] {
        &self.members
    }

    /// Iterate over `(principal, members)` pairs in due order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcId, &[M])> + '_ {
        self.entries
            .iter()
            .map(|&(id, start, len)| (id, &self.members[start as usize..(start + len) as usize]))
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.members.clear();
    }
}

/// A principal's members, each with its cumulative CPU at its last
/// reading, in ascending member order. Every backend registers processes
/// as single-member principals, so one member is held inline and costs no
/// allocation; two or more are a `Vec` sorted by member. The empty set is
/// an empty `Vec`, which does not allocate either.
#[derive(Debug, Clone)]
enum MemberSet<M> {
    One((M, Nanos)),
    /// Never exactly one entry.
    Many(Vec<(M, Nanos)>),
}

impl<M> Default for MemberSet<M> {
    fn default() -> Self {
        MemberSet::Many(Vec::new())
    }
}

impl<M: Ord + Copy> MemberSet<M> {
    fn as_slice(&self) -> &[(M, Nanos)] {
        match self {
            MemberSet::One(e) => std::slice::from_ref(e),
            MemberSet::Many(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn keys(&self) -> impl Iterator<Item = M> + '_ {
        self.as_slice().iter().map(|&(m, _)| m)
    }

    fn position(&self, m: &M) -> Result<usize, usize> {
        self.as_slice().binary_search_by_key(m, |&(x, _)| x)
    }

    fn get(&self, m: &M) -> Option<Nanos> {
        self.position(m).ok().map(|i| self.as_slice()[i].1)
    }

    fn get_mut(&mut self, m: &M) -> Option<&mut Nanos> {
        let i = self.position(m).ok()?;
        Some(match self {
            MemberSet::One((_, cpu)) => cpu,
            MemberSet::Many(v) => &mut v[i].1,
        })
    }

    /// Set `m`'s reading, returning the one it replaces (as
    /// `BTreeMap::insert` does).
    fn insert(&mut self, m: M, cpu: Nanos) -> Option<Nanos> {
        let i = match self.position(&m) {
            Ok(_) => return self.get_mut(&m).map(|last| std::mem::replace(last, cpu)),
            Err(i) => i,
        };
        match self {
            MemberSet::Many(v) if v.is_empty() => *self = MemberSet::One((m, cpu)),
            MemberSet::Many(v) => v.insert(i, (m, cpu)),
            MemberSet::One(e) => {
                let mut v = vec![*e; 2];
                v[i] = (m, cpu);
                *self = MemberSet::Many(v);
            }
        }
        None
    }

    /// Drop `m`, returning its reading.
    fn remove(&mut self, m: &M) -> Option<Nanos> {
        let i = self.position(m).ok()?;
        let (_, cpu) = match std::mem::take(self) {
            MemberSet::One(e) => e,
            MemberSet::Many(mut v) => {
                let e = v.remove(i);
                *self = if v.len() == 1 {
                    MemberSet::One(v[0])
                } else {
                    MemberSet::Many(v)
                };
                e
            }
        };
        Some(cpu)
    }
}

#[derive(Debug, Clone)]
struct Principal<M> {
    /// Aggregate cumulative CPU across current and past members. Member
    /// churn does not disturb this: each member's consumption is folded in
    /// as deltas from its own last reading.
    cumulative: Nanos,
    members: MemberSet<M>,
}

/// Proportional-share scheduling over groups of processes.
///
/// Type parameter `M` is the backend's member identifier (a `pid_t` on
/// Linux, a simulator pid in `kernsim`).
///
/// ```
/// use alps_core::{AlpsConfig, DueList, Nanos, PrincipalOutcome, PrincipalScheduler};
///
/// // Two users with a 1:2 share split; the first owns pids 100 and 101.
/// let mut sched: PrincipalScheduler<i32> =
///     PrincipalScheduler::new(AlpsConfig::new(Nanos::from_millis(100)));
/// let alice = sched.add_principal(1);
/// let bob = sched.add_principal(2);
/// sched.set_membership(alice, &[(100, Nanos::ZERO), (101, Nanos::ZERO)]);
/// sched.set_membership(bob, &[(200, Nanos::ZERO)]);
/// // First quantum: both principals become eligible; every member of
/// // each flipped principal gets a signal.
/// let (mut due, mut out) = (DueList::new(), PrincipalOutcome::default());
/// sched.begin_quantum_into(&mut due);
/// assert!(due.is_empty());
/// sched.complete_quantum_into(&due, &[], &mut out);
/// assert_eq!(out.signals.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PrincipalScheduler<M: Ord + Copy> {
    inner: AlpsScheduler,
    /// Dense principal table indexed by [`ProcId::index`], each entry
    /// generation-checked against the handle on access (a stale id from a
    /// reused slot misses instead of addressing the new tenant), so the
    /// per-quantum lookups are O(1) without hashing. The flag beside the
    /// generation marks a group ([`Self::add_principal`]) as opposed to a
    /// fixed single-member principal ([`Self::add_member`]); it sits in
    /// the generation's padding and costs no bytes.
    principals: Vec<Option<(u32, bool, Principal<M>)>>,
    /// Live principal count (occupied entries in `principals`).
    live: usize,
    /// Scratch: due principal ids, refilled each `begin_quantum_into`.
    due_ids: Vec<ProcId>,
    /// Scratch: per-principal observations fed to the inner scheduler.
    obs_scratch: Vec<(ProcId, Observation)>,
    /// Scratch: the inner scheduler's outcome buffers.
    inner_out: QuantumOutcome,
}

impl<M: Ord + Copy> PrincipalScheduler<M> {
    /// Create an empty principal scheduler.
    pub fn new(cfg: AlpsConfig) -> Self {
        PrincipalScheduler {
            principals: Vec::new(),
            inner: AlpsScheduler::new(cfg),
            live: 0,
            due_ids: Vec::new(),
            obs_scratch: Vec::new(),
            inner_out: QuantumOutcome::default(),
        }
    }

    /// The principal for a handle, if the handle is current.
    #[inline]
    fn principal(&self, id: ProcId) -> Option<&Principal<M>> {
        match self.principals.get(id.index()) {
            Some(Some((generation, _, p))) if *generation == id.generation() => Some(p),
            _ => None,
        }
    }

    /// Mutable [`Self::principal`].
    #[inline]
    fn principal_mut(&mut self, id: ProcId) -> Option<&mut Principal<M>> {
        match self.principals.get_mut(id.index()) {
            Some(Some((generation, _, p))) if *generation == id.generation() => Some(p),
            _ => None,
        }
    }

    /// Access the inner per-principal ALPS scheduler (read-only).
    pub fn inner(&self) -> &AlpsScheduler {
        &self.inner
    }

    /// Register a group with the given share and no members; its member
    /// set is whatever [`Self::set_membership`] last said. Per §2.2 it
    /// starts ineligible and becomes eligible next quantum.
    pub fn add_principal(&mut self, share: u64) -> ProcId {
        self.insert_principal(share, true, MemberSet::default())
    }

    /// Register a fixed principal whose one member is `member`, read at
    /// `cpu`. Its membership never changes (the caller suspends the
    /// member itself).
    pub(crate) fn add_member(&mut self, member: M, share: u64, cpu: Nanos) -> ProcId {
        self.insert_principal(share, false, MemberSet::One((member, cpu)))
    }

    fn insert_principal(&mut self, share: u64, group: bool, members: MemberSet<M>) -> ProcId {
        let id = self.inner.add_process(share, Nanos::ZERO);
        let idx = id.index();
        while self.principals.len() <= idx {
            self.principals.push(None);
        }
        self.principals[idx] = Some((
            id.generation(),
            group,
            Principal {
                cumulative: Nanos::ZERO,
                members,
            },
        ));
        self.live += 1;
        id
    }

    /// Deregister a principal, returning its members (which the backend
    /// should resume if the principal was ineligible).
    pub fn remove_principal(&mut self, id: ProcId) -> Option<Vec<M>> {
        let entry = self.principals.get_mut(id.index())?;
        match entry {
            Some((generation, _, _)) if *generation == id.generation() => {}
            _ => return None,
        }
        let (_, _, p) = entry.take().expect("entry matched above");
        self.inner.remove_process(id);
        self.live -= 1;
        Some(p.members.keys().collect())
    }

    /// Drop one member from a principal without reconciliation signals,
    /// returning whether it was a member.
    pub(crate) fn evict(&mut self, id: ProcId, member: M) -> bool {
        self.principal_mut(id)
            .is_some_and(|p| p.members.remove(&member).is_some())
    }

    /// Number of principals.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if there are no principals.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total members across all principals.
    pub fn member_count(&self) -> usize {
        self.principals
            .iter()
            .flatten()
            .map(|(_, _, p)| p.members.len())
            .sum()
    }

    /// Whether a principal is currently eligible.
    pub fn is_eligible(&self, id: ProcId) -> Option<bool> {
        self.inner.is_eligible(id)
    }

    /// Change a principal's share (takes effect per §2.2: the remaining
    /// allowance is rescaled in place).
    pub fn set_share(&mut self, id: ProcId, share: u64) -> Result<(), crate::sched::StaleId> {
        self.inner.set_share(id, share)
    }

    /// Members of a principal, in key order.
    pub fn members(&self, id: ProcId) -> Option<Vec<M>> {
        self.member_entries(id)
            .map(|e| e.iter().map(|&(m, _)| m).collect())
    }

    /// [`Self::members`] borrowed, each member with its last reading.
    pub(crate) fn member_entries(&self, id: ProcId) -> Option<&[(M, Nanos)]> {
        self.principal(id).map(|p| p.members.as_slice())
    }

    /// Whether a principal is a group (`Some(false)`: a fixed
    /// single-member principal; `None`: stale id).
    pub(crate) fn is_group(&self, id: ProcId) -> Option<bool> {
        match self.principals.get(id.index()) {
            Some(Some((generation, group, _))) if *generation == id.generation() => Some(*group),
            _ => None,
        }
    }

    /// A principal's CPU charged so far, summed over its current and past
    /// members.
    pub(crate) fn cumulative(&self, id: ProcId) -> Option<Nanos> {
        self.principal(id).map(|p| p.cumulative)
    }

    /// Replace a group's member set (the once-per-second refresh of §5).
    ///
    /// `current` carries, for each member, its *current* cumulative CPU
    /// reading: a newly joined member is charged only for consumption from
    /// this point on. The returned [`MembershipChange`] lists joiners and
    /// leavers and the signals needed to reconcile member run states with
    /// the principal's eligibility (new members of a suspended principal
    /// must be stopped; members leaving a suspended principal should be
    /// resumed so they are not orphaned in the stopped state). A member
    /// listed twice counts once, at its first listing. Returns `None` for
    /// a stale id and for a fixed principal, whose one member never
    /// changes.
    pub fn set_membership(
        &mut self,
        id: ProcId,
        current: &[(M, Nanos)],
    ) -> Option<MembershipChange<M>> {
        if !self.is_group(id)? {
            return None;
        }
        let eligible = self.inner.is_eligible(id)?;
        let p = self.principal_mut(id)?;
        let mut new_members = MemberSet::default();
        let mut added = Vec::new();
        for &(m, cpu) in current {
            if new_members.get(&m).is_some() {
                continue;
            }
            let last = p.members.get(&m).unwrap_or_else(|| {
                added.push(m);
                cpu
            });
            new_members.insert(m, last);
        }
        let removed: Vec<M> = p
            .members
            .keys()
            .filter(|m| new_members.get(m).is_none())
            .collect();
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

    /// Begin an invocation: refills `due` with each principal due for
    /// measurement and the member processes whose CPU time and blocked
    /// state must be read. Once `due`'s buffers have grown, this allocates
    /// nothing.
    pub fn begin_quantum_into(&mut self, due: &mut DueList<M>) {
        due.clear();
        self.inner.begin_quantum_into(&mut self.due_ids);
        for i in 0..self.due_ids.len() {
            let id = self.due_ids[i];
            let start = due.members.len() as u32;
            if let Some(p) = self.principal(id) {
                due.members.extend(p.members.keys());
            }
            due.entries
                .push((id, start, due.members.len() as u32 - start));
        }
    }

    /// Complete the invocation with per-member readings.
    ///
    /// `due` is the list filled by the matching [`Self::begin_quantum_into`]
    /// and `readings` runs parallel to [`DueList::members`] — `None` marks a
    /// member the backend could not read (it exited between the two calls),
    /// which is skipped without charge. A principal is considered *blocked*
    /// (§2.4) when every member that was read reports blocked — if any
    /// member is runnable, the principal can make progress. The outcome is
    /// written into `out`, whose buffers are cleared and reused; in steady
    /// state the whole invocation performs no heap allocation.
    pub fn complete_quantum_into(
        &mut self,
        due: &DueList<M>,
        readings: &[Option<Observation>],
        out: &mut PrincipalOutcome<M>,
    ) {
        assert_eq!(
            readings.len(),
            due.members.len(),
            "readings must parallel the due list's members"
        );
        out.signals.clear();
        out.transitions.clear();
        out.cycle_completed = false;
        self.obs_scratch.clear();
        for &(id, start, len) in &due.entries {
            // Field-level lookup (not the `principal_mut` helper) so the
            // borrow stays on `principals` while `obs_scratch` grows.
            let p = match self.principals.get_mut(id.index()) {
                Some(Some((generation, _, p))) if *generation == id.generation() => p,
                _ => continue,
            };
            let range = start as usize..(start + len) as usize;
            let mut any_read = false;
            let mut all_blocked = true;
            for (m, reading) in due.members[range.clone()].iter().zip(&readings[range]) {
                let Some(obs) = reading else {
                    continue;
                };
                any_read = true;
                if let Some(last) = p.members.get_mut(m) {
                    let delta = obs.total_cpu.saturating_sub(*last);
                    *last = obs.total_cpu;
                    p.cumulative += delta;
                }
                if !obs.blocked {
                    all_blocked = false;
                }
            }
            self.obs_scratch.push((
                id,
                Observation {
                    total_cpu: p.cumulative,
                    blocked: any_read && all_blocked,
                },
            ));
        }
        self.inner
            .complete_quantum_into(&self.obs_scratch, &mut self.inner_out);
        // Move (not copy) the inner buffers out; the cleared ones come back
        // on the next invocation's `clear()`.
        std::mem::swap(&mut out.transitions, &mut self.inner_out.transitions);
        out.cycle_completed = self.inner_out.cycle_completed;
        for t in &out.transitions {
            let id = t.proc_id();
            if let Some(p) = self.principal(id) {
                for m in p.members.keys() {
                    out.signals.push(match t {
                        Transition::Resume(_) => MemberTransition::Resume(m),
                        Transition::Suspend(_) => MemberTransition::Suspend(m),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    type Pid = u64;

    fn obs(ms: u64, blocked: bool) -> Observation {
        Observation {
            total_cpu: Nanos::from_millis(ms),
            blocked,
        }
    }

    fn sched() -> PrincipalScheduler<Pid> {
        PrincipalScheduler::new(AlpsConfig::new(Nanos::from_millis(10)))
    }

    fn begin(s: &mut PrincipalScheduler<Pid>) -> DueList<Pid> {
        let mut due = DueList::new();
        s.begin_quantum_into(&mut due);
        due
    }

    /// Complete the invocation `due` began, reading each due member from
    /// `readings` (a member missing from it is unread).
    fn complete(
        s: &mut PrincipalScheduler<Pid>,
        due: &DueList<Pid>,
        readings: &[(Pid, Observation)],
    ) -> PrincipalOutcome<Pid> {
        let read: Vec<Option<Observation>> = due
            .members()
            .iter()
            .map(|m| readings.iter().find(|(r, _)| r == m).map(|&(_, o)| o))
            .collect();
        let mut out = PrincipalOutcome::default();
        s.complete_quantum_into(due, &read, &mut out);
        out
    }

    /// One invocation in which nothing is due.
    fn idle_quantum(s: &mut PrincipalScheduler<Pid>) {
        let due = begin(s);
        assert!(due.is_empty());
        complete(s, &due, &[]);
    }

    #[test]
    fn principal_becomes_eligible_resuming_all_members() {
        let mut s = sched();
        let u = s.add_principal(1);
        s.set_membership(u, &[(100, Nanos::ZERO), (101, Nanos::ZERO)]);
        let due = begin(&mut s);
        assert!(due.is_empty());
        let out = complete(&mut s, &due, &[]);
        let mut resumed: Vec<Pid> = out
            .signals
            .iter()
            .map(|t| {
                assert!(matches!(t, MemberTransition::Resume(_)));
                t.member()
            })
            .collect();
        resumed.sort_unstable();
        assert_eq!(resumed, vec![100, 101]);
    }

    #[test]
    fn member_consumption_aggregates() {
        let mut s = sched();
        let u = s.add_principal(2);
        let v = s.add_principal(2);
        s.set_membership(u, &[(1, Nanos::ZERO), (2, Nanos::ZERO)]);
        s.set_membership(v, &[(3, Nanos::ZERO)]);
        complete(&mut s, &DueList::new(), &[]); // both eligible (count=1)
        idle_quantum(&mut s); // count=2, none due (ceil(2)=2 → due at 3)
        let due = begin(&mut s); // count=3: both due
        assert_eq!(due.len(), 2);
        // u's two members consumed 8 and 7 ms; v's one member 5 ms.
        complete(
            &mut s,
            &due,
            &[(1, obs(8, false)), (2, obs(7, false)), (3, obs(5, false))],
        );
        // u: 15ms = 1.5 quanta consumed of allowance 2 → 0.5 left.
        assert!((s.inner().allowance(u).unwrap() - 0.5).abs() < 1e-9);
        assert!((s.inner().allowance(v).unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn membership_churn_does_not_lose_or_invent_cpu() {
        let mut s = sched();
        let u = s.add_principal(4);
        s.set_membership(u, &[(1, Nanos::ZERO)]);
        complete(&mut s, &DueList::new(), &[]); // eligible

        // Member 1 exits after consuming 10ms; member 2 joins having already
        // consumed 500ms under some other ownership.
        for _ in 0..3 {
            idle_quantum(&mut s);
        }
        let due = begin(&mut s); // count=5: due (ceil(4)=4 after count=1)
        assert_eq!(due.len(), 1);
        complete(&mut s, &due, &[(1, obs(10, false))]);
        let change = s
            .set_membership(u, &[(2, Nanos::from_millis(500))])
            .unwrap();
        assert_eq!(change.added, vec![2]);
        assert_eq!(change.removed, vec![1]);
        assert!(change.signals.is_empty(), "principal is eligible");
        // Member 2 consumes 5ms more (cumulative 505).
        for _ in 0..2 {
            idle_quantum(&mut s);
        }
        let due = begin(&mut s);
        assert_eq!(due.len(), 1, "due again after ceil(3)=3 quanta");
        complete(&mut s, &due, &[(2, obs(505, false))]);
        // Total charged: 10ms + 5ms = 1.5 quanta; allowance 4 - 1.5 = 2.5.
        assert!((s.inner().allowance(u).unwrap() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn a_member_listed_twice_counts_once_at_its_first_listing() {
        let mut s = sched();
        let u = s.add_principal(4);
        s.set_membership(u, &[(1, Nanos::ZERO)]);
        complete(&mut s, &DueList::new(), &[]);
        // At this refresh member 1 reads 25 ms, and joiner 2 reads 5 ms at
        // its first listing.
        let change = s
            .set_membership(
                u,
                &[
                    (1, Nanos::from_millis(25)),
                    (2, Nanos::from_millis(5)),
                    (1, Nanos::from_millis(25)),
                    (2, Nanos::ZERO),
                ],
            )
            .unwrap();
        assert_eq!(change.added, vec![2]);
        assert!(change.removed.is_empty());
        assert_eq!(s.members(u), Some(vec![1, 2]));
        for _ in 0..3 {
            idle_quantum(&mut s);
        }
        let due = begin(&mut s);
        assert_eq!(due.len(), 1);
        complete(&mut s, &due, &[(1, obs(30, false)), (2, obs(10, false))]);
        // Charged 30 ms since registration plus 5 ms since joining:
        // 4 − 3.5 = 0.5 quanta left.
        assert!((s.inner().allowance(u).unwrap() - 0.5).abs() < 1e-9);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The member set agrees with a `BTreeMap` under arbitrary
        /// insert / remove / `get_mut` sequences that cross empty, one
        /// and many members, and always iterates in ascending order.
        #[test]
        fn member_set_matches_a_btree_map(
            ops in proptest::collection::vec((0u8..3, 0u32..6, 0u64..1000), 1..80),
        ) {
            let mut set: MemberSet<u32> = MemberSet::default();
            let mut model: BTreeMap<u32, Nanos> = BTreeMap::new();
            for (op, m, cpu) in ops {
                let cpu = Nanos(cpu);
                match op {
                    0 => proptest::prop_assert_eq!(set.insert(m, cpu), model.insert(m, cpu)),
                    1 => proptest::prop_assert_eq!(set.remove(&m), model.remove(&m)),
                    _ => {
                        let got = set.get_mut(&m).map(|last| std::mem::replace(last, cpu));
                        let want = model.get_mut(&m).map(|last| std::mem::replace(last, cpu));
                        proptest::prop_assert_eq!(got, want);
                    }
                }
                let want: Vec<(u32, Nanos)> = model.iter().map(|(&m, &c)| (m, c)).collect();
                proptest::prop_assert_eq!(set.as_slice(), &want[..]);
                proptest::prop_assert!(
                    matches!(set, MemberSet::One(_)) == (model.len() == 1),
                    "exactly one member is held inline"
                );
            }
        }
    }

    #[test]
    fn joining_a_suspended_principal_means_suspension() {
        let mut s = sched();
        let u = s.add_principal(1);
        let _v = s.add_principal(9);
        s.set_membership(u, &[(1, Nanos::ZERO)]);
        complete(&mut s, &DueList::new(), &[]); // eligible, count=1, due at 2
        let due = begin(&mut s);
        assert_eq!(due.len(), 1, "only u due (v due at ceil(9)+1)");
        // u overconsumes: suspended.
        let out = complete(&mut s, &due, &[(1, obs(10, false))]);
        assert_eq!(out.signals, vec![MemberTransition::Suspend(1)]);
        // A new worker is forked into the suspended principal.
        let change = s
            .set_membership(u, &[(1, Nanos::from_millis(10)), (7, Nanos::ZERO)])
            .unwrap();
        assert_eq!(change.signals, vec![MemberTransition::Suspend(7)]);
        // And one leaves while suspended: it must be resumed.
        let change = s.set_membership(u, &[(7, Nanos::ZERO)]).unwrap();
        assert_eq!(change.signals, vec![MemberTransition::Resume(1)]);
    }

    #[test]
    fn principal_blocked_only_when_all_members_blocked() {
        let mut s = sched();
        let u = s.add_principal(2);
        s.set_membership(u, &[(1, Nanos::ZERO), (2, Nanos::ZERO)]);
        complete(&mut s, &DueList::new(), &[]);
        idle_quantum(&mut s);
        // Due: one member runnable → principal not blocked → no penalty.
        let due = begin(&mut s);
        complete(&mut s, &due, &[(1, obs(0, true)), (2, obs(0, false))]);
        assert!((s.inner().allowance(u).unwrap() - 2.0).abs() < 1e-9);
        // Due again after ceil(2)=2 quanta: both blocked → one-quantum
        // penalty.
        idle_quantum(&mut s);
        let due = begin(&mut s);
        assert_eq!(due.len(), 1);
        complete(&mut s, &due, &[(1, obs(0, true)), (2, obs(0, true))]);
        assert!((s.inner().allowance(u).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn remove_principal_returns_members() {
        let mut s = sched();
        let u = s.add_principal(1);
        s.set_membership(u, &[(5, Nanos::ZERO), (6, Nanos::ZERO)]);
        let members = s.remove_principal(u).unwrap();
        assert_eq!(members, vec![5, 6]);
        assert!(s.is_empty());
        assert!(s.remove_principal(u).is_none());
    }

    #[test]
    fn empty_principal_is_never_blocked() {
        // A principal with no members reports an empty reading; it must not
        // receive the blocked penalty.
        let mut s = sched();
        let u = s.add_principal(1);
        complete(&mut s, &DueList::new(), &[]); // eligible
        let due = begin(&mut s);
        assert_eq!(due.iter().collect::<Vec<_>>(), vec![(u, &[][..])]);
        complete(&mut s, &due, &[]);
        assert!((s.inner().allowance(u).unwrap() - 1.0).abs() < 1e-9);
    }
}
