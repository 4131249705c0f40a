//! The data of §5's resource principals.
//!
//! The paper's shared-web-server experiment decouples the resource principal
//! from the process abstraction: the scheduled entity is a *user*, and CPU
//! consumption by any of that user's processes counts against the user's
//! allocation. [`Engine`](crate::Engine) is that layer: each principal is
//! one process of its [`AlpsScheduler`](crate::AlpsScheduler), charged the
//! sum of its members' consumption, and its eligibility transitions fan
//! out to signals for every member. This module holds the plain types it
//! hands out and keeps.
//!
//! Membership is refreshed by the backend (the paper re-scanned the process
//! table once per second with `kvm_getprocs`); see
//! [`Engine::set_membership`](crate::Engine::set_membership).

use crate::sched::ProcId;
use crate::time::Nanos;

/// A principal's entry, kept in its slot of the engine's
/// [`AlpsScheduler`](crate::AlpsScheduler) beside its share and allowance:
/// 8 bytes for a 4-byte member, so the slot stays one cache line.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Principal<M> {
    /// A fixed single-member principal
    /// ([`Engine::add_member`](crate::Engine::add_member)). The slot's
    /// last reading is its member's raw cumulative CPU.
    Fixed(M),
    /// A group ([`Engine::add_principal`](crate::Engine::add_principal)),
    /// whose member set is the engine's group table at this index. The
    /// slot's last reading is the CPU charged to the group so far.
    Group(u32),
}

/// The due list [`Engine::begin_quantum`](crate::Engine::begin_quantum)
/// refills: the principals due for measurement this quantum, each with
/// its member set, flattened into two backing vectors so steady-state
/// refills allocate nothing.
#[derive(Debug, Clone)]
pub struct DueList<M> {
    /// `(principal, start, len, group)` — the member slice of each due
    /// principal within `members`, and whether the principal is a group.
    entries: Vec<(ProcId, u32, u32, bool)>,
    /// All members to read this quantum, in due order.
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
        self.walk().map(|(id, _, members)| (id, members))
    }

    /// Iterate over `(principal, group, members)` in due order.
    pub(crate) fn walk(&self) -> impl Iterator<Item = (ProcId, bool, &[M])> + '_ {
        self.entries.iter().map(|&(id, start, len, group)| {
            (
                id,
                group,
                &self.members[start as usize..(start + len) as usize],
            )
        })
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.members.clear();
    }

    /// Append a due fixed principal with its member.
    pub(crate) fn push_fixed(&mut self, id: ProcId, m: M) {
        self.entries.push((id, self.members.len() as u32, 1, false));
        self.members.push(m);
    }

    /// Append a due group with its members.
    pub(crate) fn push_group(&mut self, id: ProcId, members: &[M])
    where
        M: Copy,
    {
        let start = self.members.len() as u32;
        self.members.extend_from_slice(members);
        self.entries.push((id, start, members.len() as u32, true));
    }
}

/// A group's members in ascending order, each with its cumulative CPU at
/// its last reading in the parallel `readings`. (A fixed principal holds
/// its one member in its [`Principal`] entry and has no set.)
#[derive(Debug, Clone)]
pub(crate) struct MemberSet<M> {
    members: Vec<M>,
    readings: Vec<Nanos>,
}

impl<M> Default for MemberSet<M> {
    fn default() -> Self {
        MemberSet {
            members: Vec::new(),
            readings: Vec::new(),
        }
    }
}

impl<M: Ord + Copy> MemberSet<M> {
    pub(crate) fn members(&self) -> &[M] {
        &self.members
    }

    pub(crate) fn into_members(self) -> Vec<M> {
        self.members
    }

    pub(crate) fn get(&self, m: &M) -> Option<Nanos> {
        let i = self.members.binary_search(m).ok()?;
        Some(self.readings[i])
    }

    pub(crate) fn get_mut(&mut self, m: &M) -> Option<&mut Nanos> {
        let i = self.members.binary_search(m).ok()?;
        Some(&mut self.readings[i])
    }

    /// Set `m`'s reading, returning the one it replaces (as
    /// `BTreeMap::insert` does).
    pub(crate) fn insert(&mut self, m: M, cpu: Nanos) -> Option<Nanos> {
        match self.members.binary_search(&m) {
            Ok(i) => Some(std::mem::replace(&mut self.readings[i], cpu)),
            Err(i) => {
                self.members.insert(i, m);
                self.readings.insert(i, cpu);
                None
            }
        }
    }

    /// Drop `m`, returning its reading.
    pub(crate) fn remove(&mut self, m: &M) -> Option<Nanos> {
        let i = self.members.binary_search(m).ok()?;
        self.members.remove(i);
        Some(self.readings.remove(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The member set agrees with a `BTreeMap` under arbitrary
        /// insert / remove / `get_mut` sequences, and always iterates in
        /// ascending order.
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
                let got: Vec<(u32, Nanos)> =
                    set.members.iter().copied().zip(set.readings.iter().copied()).collect();
                proptest::prop_assert_eq!(got, want);
            }
        }
    }
}
