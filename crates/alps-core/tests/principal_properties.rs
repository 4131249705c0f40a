//! Property-based tests of the §5 resource-principal layer: aggregate
//! accounting must be invariant under membership churn, and signals must
//! always reconcile member run-states with principal eligibility.

use alps_core::{
    AlpsConfig, DueList, MemberTransition, Nanos, Observation, PrincipalOutcome,
    PrincipalScheduler, ProcId,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

type Pid = u64;

const Q_NS: u64 = 10_000_000;

#[derive(Debug, Default, Clone)]
struct World {
    /// "True" cumulative CPU per member pid (survives ownership moves).
    cpu: BTreeMap<Pid, u64>,
    /// Which pids each principal owns, mirrored from the scheduler.
    members: BTreeMap<usize, BTreeSet<Pid>>,
    /// Which pids we believe are currently suspended.
    stopped: BTreeSet<Pid>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary churn and consumption, principal accounting matches
    /// the sum of member deltas since joining, and every stopped process
    /// belongs to an ineligible principal at quantum boundaries.
    #[test]
    fn churn_preserves_accounting_and_signals(
        shares in proptest::collection::vec(1u64..6, 2..4),
        script in proptest::collection::vec((0u8..4, 0u64..64, 1u64..Q_NS*2), 20..120),
    ) {
        let mut sched: PrincipalScheduler<Pid> =
            PrincipalScheduler::new(AlpsConfig::new(Nanos(Q_NS)));
        let ids: Vec<ProcId> = shares.iter().map(|&s| sched.add_principal(s)).collect();
        let mut world = World::default();
        for (k, _) in ids.iter().enumerate() {
            world.members.insert(k, BTreeSet::new());
        }
        let mut next_pid: Pid = 1;
        let (mut due, mut out) = (DueList::new(), PrincipalOutcome::default());

        let apply_signals = |world: &mut World, signals: &[MemberTransition<Pid>]| {
            for s in signals {
                match s {
                    MemberTransition::Suspend(p) => {
                        world.stopped.insert(*p);
                    }
                    MemberTransition::Resume(p) => {
                        world.stopped.remove(p);
                    }
                }
            }
        };

        for (op, arg, amount) in script {
            let k = (arg as usize) % ids.len();
            let id = ids[k];
            match op {
                0 => {
                    // a new pid joins principal k
                    let pid = next_pid;
                    next_pid += 1;
                    world.cpu.insert(pid, (arg % 7) * 1_000_000);
                    world.members.get_mut(&k).unwrap().insert(pid);
                    let current: Vec<(Pid, Nanos)> = world.members[&k]
                        .iter()
                        .map(|&p| (p, Nanos(world.cpu[&p])))
                        .collect();
                    let change = sched.set_membership(id, &current).unwrap();
                    prop_assert_eq!(change.added, vec![pid]);
                    apply_signals(&mut world, &change.signals);
                }
                1 => {
                    // a pid leaves principal k
                    let leaving = world.members[&k].iter().next().copied();
                    if let Some(pid) = leaving {
                        world.members.get_mut(&k).unwrap().remove(&pid);
                        let current: Vec<(Pid, Nanos)> = world.members[&k]
                            .iter()
                            .map(|&p| (p, Nanos(world.cpu[&p])))
                            .collect();
                        let change = sched.set_membership(id, &current).unwrap();
                        prop_assert_eq!(change.removed, vec![pid]);
                        apply_signals(&mut world, &change.signals);
                    }
                }
                2 => {
                    // an unsuspended member of k consumes CPU
                    let runner = world.members[&k]
                        .iter()
                        .find(|p| !world.stopped.contains(p))
                        .copied();
                    if let Some(pid) = runner {
                        *world.cpu.get_mut(&pid).unwrap() += amount;
                    }
                }
                _ => {
                    // a quantum
                    sched.begin_quantum_into(&mut due);
                    let readings: Vec<Option<Observation>> = due
                        .members()
                        .iter()
                        .map(|&m| {
                            Some(Observation {
                                total_cpu: Nanos(world.cpu[&m]),
                                blocked: false,
                            })
                        })
                        .collect();
                    sched.complete_quantum_into(&due, &readings, &mut out);
                    apply_signals(&mut world, &out.signals);
                    // After the quantum, stopped pids must belong only to
                    // ineligible principals and vice versa.
                    for (kk, id2) in ids.iter().enumerate() {
                        let eligible = sched.is_eligible(*id2).unwrap();
                        for pid in &world.members[&kk] {
                            prop_assert_eq!(
                                !world.stopped.contains(pid),
                                eligible,
                                "principal {} eligible={} but pid {} stopped={}",
                                kk,
                                eligible,
                                pid,
                                world.stopped.contains(pid)
                            );
                        }
                    }
                }
            }
            // Membership views agree at all times.
            for (kk, id2) in ids.iter().enumerate() {
                let mut got = sched.members(*id2).unwrap();
                got.sort_unstable();
                let want: Vec<Pid> = world.members[&kk].iter().copied().collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
