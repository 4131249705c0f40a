//! Property-based tests of the §5 resource-principal layer: aggregate
//! accounting must be invariant under membership churn, and the signals
//! the engine delivers must always reconcile member run-states with
//! principal eligibility.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;

use alps_core::{
    AlpsConfig, Engine, Instrumentation, Nanos, NullSink, Observation, ProcId, Signal, Substrate,
};
use proptest::prelude::*;

type Pid = u64;

const Q_NS: u64 = 10_000_000;

/// A world of member processes: their CPU, their owners, and which of
/// them the engine's deliveries left stopped.
#[derive(Debug, Default, Clone)]
struct World {
    /// "True" cumulative CPU per member pid (survives ownership moves).
    cpu: BTreeMap<Pid, u64>,
    /// Which pids each principal owns, mirrored from the engine.
    members: BTreeMap<usize, BTreeSet<Pid>>,
    /// Which pids the delivered signals left suspended.
    stopped: BTreeSet<Pid>,
    /// Per pid ever enrolled: its principal, its reading when it joined,
    /// and its reading when the engine last read it.
    enrolled: BTreeMap<Pid, (usize, u64, u64)>,
}

impl World {
    /// Principal `k`'s members with their current readings.
    fn listing(&self, k: usize) -> Vec<(Pid, Nanos)> {
        self.members[&k]
            .iter()
            .map(|&p| (p, Nanos(self.cpu[&p])))
            .collect()
    }

    /// What principal `k` should have been charged: each member's CPU
    /// from its joining to its last reading.
    fn charged(&self, k: usize) -> Nanos {
        Nanos(
            self.enrolled
                .values()
                .filter(|&&(owner, ..)| owner == k)
                .map(|&(_, joined, last)| last - joined)
                .sum(),
        )
    }
}

impl Substrate for World {
    type Member = Pid;
    type Error = Infallible;

    fn now(&mut self) -> Nanos {
        Nanos::ZERO
    }

    fn read(&mut self, m: Pid) -> Result<Option<Observation>, Infallible> {
        Ok(self.cpu.get(&m).map(|&cpu| Observation {
            total_cpu: Nanos(cpu),
            blocked: false,
        }))
    }

    fn deliver(&mut self, m: Pid, signal: Signal) -> Result<bool, Infallible> {
        match signal {
            Signal::Stop => self.stopped.insert(m),
            Signal::Continue => self.stopped.remove(&m),
        };
        Ok(true)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary churn and consumption, principal accounting matches
    /// the sum of member deltas since joining (read from the cycle log at
    /// every boundary), and every stopped process belongs to an ineligible
    /// principal at quantum boundaries.
    #[test]
    fn churn_preserves_accounting_and_signals(
        shares in proptest::collection::vec(1u64..6, 2..4),
        script in proptest::collection::vec((0u8..4, 0u64..64, 1u64..Q_NS*2), 20..120),
    ) {
        let cfg = AlpsConfig::new(Nanos(Q_NS)).with_cycle_log(true);
        let mut engine: Engine<Pid> = Engine::new(cfg, Instrumentation::Exact);
        let ids: Vec<ProcId> = shares.iter().map(|&s| engine.add_principal(s)).collect();
        let mut world = World::default();
        for (k, _) in ids.iter().enumerate() {
            world.members.insert(k, BTreeSet::new());
        }
        let mut next_pid: Pid = 1;

        for (op, arg, amount) in script {
            let k = (arg as usize) % ids.len();
            let id = ids[k];
            match op {
                0 => {
                    // a new pid joins principal k
                    let pid = next_pid;
                    next_pid += 1;
                    world.cpu.insert(pid, (arg % 7) * 1_000_000);
                    world.enrolled.insert(pid, (k, world.cpu[&pid], world.cpu[&pid]));
                    world.members.get_mut(&k).unwrap().insert(pid);
                    let change = engine.set_membership(id, &world.listing(k)).unwrap();
                    prop_assert_eq!(&change.added, &vec![pid]);
                    let Ok(()) = engine.apply_signals(&mut world, &change.signals, &mut NullSink);
                }
                1 => {
                    // a pid leaves principal k
                    let leaving = world.members[&k].iter().next().copied();
                    if let Some(pid) = leaving {
                        world.members.get_mut(&k).unwrap().remove(&pid);
                        let change = engine.set_membership(id, &world.listing(k)).unwrap();
                        prop_assert_eq!(&change.removed, &vec![pid]);
                        let Ok(()) =
                            engine.apply_signals(&mut world, &change.signals, &mut NullSink);
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
                    let Ok(_) = engine.run_quantum(&mut world, &mut NullSink);
                    for &m in engine.due().members() {
                        world.enrolled.get_mut(&m).unwrap().2 = world.cpu[&m];
                    }
                    if engine.last_cycle_completed() {
                        for (kk, id2) in ids.iter().enumerate() {
                            let logged: Nanos =
                                engine.cycles().iter().filter_map(|r| r.consumed_by(*id2)).sum();
                            prop_assert_eq!(logged, world.charged(kk), "principal {}", kk);
                        }
                    }
                    // After the quantum, stopped pids must belong only to
                    // ineligible principals and vice versa.
                    for (kk, id2) in ids.iter().enumerate() {
                        let eligible = engine.is_eligible(*id2).unwrap();
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
                let got = engine.members(*id2).unwrap();
                let want: Vec<Pid> = world.members[&kk].iter().copied().collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
