//! Property-based tests of the kernel simulator's physical invariants:
//! time conservation, determinism, and job-control safety under arbitrary
//! workloads and driver interference.

use alps_core::Nanos;
use kernsim::event::{EventKind, EventQueue};
use kernsim::{Behavior, ComputeBound, Pid, Sim, SimConfig, SimCtl, Step};
use proptest::prelude::*;

/// A behavior exercising every step type from a scripted list.
struct Scripted {
    steps: Vec<Step>,
    at: usize,
}

impl Behavior for Scripted {
    fn on_ready(&mut self, _ctl: &mut SimCtl<'_>) -> Step {
        let step = self.steps.get(self.at).copied().unwrap_or(Step::Exit);
        self.at += 1;
        step
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u64..200_000_000).prop_map(|ns| Step::Compute(Nanos(ns))),
        (1u64..300_000_000).prop_map(|ns| Step::Sleep(Nanos(ns))),
        Just(Step::ComputeForever),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CPU time is conserved: every nanosecond of simulated time is either
    /// charged to exactly one process or to idle.
    #[test]
    fn time_is_conserved(
        scripts in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 1..12),
            1..6,
        ),
        horizon_ms in 100u64..5_000,
    ) {
        let mut sim = Sim::new(SimConfig::default());
        let pids: Vec<_> = scripts
            .into_iter()
            .enumerate()
            .map(|(i, steps)| sim.spawn(format!("s{i}"), Box::new(Scripted { steps, at: 0 })))
            .collect();
        let horizon = Nanos::from_millis(horizon_ms);
        sim.run_until(horizon);
        let total: Nanos = pids.iter().map(|&p| sim.proc(p).unwrap().cputime()).sum();
        prop_assert_eq!(total + sim.idle_time(), horizon);
    }

    /// The simulation is a pure function of its seed and inputs.
    #[test]
    fn determinism(
        seed in any::<u64>(),
        n in 1usize..8,
        horizon_ms in 100u64..3_000,
    ) {
        let run = || {
            let cfg = SimConfig { seed, spawn_estcpu_jitter: 8.0, ..SimConfig::default() };
            let mut sim = Sim::new(cfg);
            let pids: Vec<_> = (0..n)
                .map(|i| sim.spawn(format!("w{i}"), Box::new(ComputeBound)))
                .collect();
            sim.run_until(Nanos::from_millis(horizon_ms));
            pids.iter()
                .map(|&p| (sim.proc(p).unwrap().cputime().0, sim.proc(p).unwrap().dispatches()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Arbitrary driver-initiated stop/cont/terminate interference never
    /// panics, never loses time, and stopped processes never consume CPU.
    #[test]
    fn job_control_interference(
        n in 2usize..6,
        actions in proptest::collection::vec((0u8..3, 0usize..6, 1u64..400), 5..40),
    ) {
        let mut sim = Sim::new(SimConfig::default());
        let pids: Vec<_> = (0..n)
            .map(|i| sim.spawn(format!("w{i}"), Box::new(ComputeBound)))
            .collect();
        let mut t = Nanos::ZERO;
        for (op, target, delay_ms) in actions {
            t += Nanos::from_millis(delay_ms);
            sim.run_until(t);
            let pid = pids[target % pids.len()];
            let before = sim.proc(pid).unwrap().cputime();
            match op {
                0 => sim.sigstop(pid),
                1 => sim.sigcont(pid),
                _ => sim.terminate(pid),
            }
            // The signal itself consumes no target CPU.
            prop_assert_eq!(sim.proc(pid).unwrap().cputime(), before);
            if op == 0 && !sim.proc(pid).unwrap().is_exited() {
                // A stopped process stays stopped until continued.
                let frozen = sim.proc(pid).unwrap().cputime();
                let probe = t + Nanos::from_millis(50);
                sim.run_until(probe);
                t = probe;
                prop_assert_eq!(sim.proc(pid).unwrap().cputime(), frozen);
                prop_assert!(sim.proc(pid).unwrap().is_stopped());
            }
        }
        // Conservation still holds after all the interference.
        let total: Nanos = pids.iter().map(|&p| sim.proc(p).unwrap().cputime()).sum();
        prop_assert_eq!(total + sim.idle_time(), sim.now());
    }

    /// The work-conserving property: while any process is runnable, the
    /// CPU is never idle.
    #[test]
    fn work_conserving_with_compute_bound(
        n in 1usize..10,
        horizon_ms in 50u64..2_000,
    ) {
        let mut sim = Sim::new(SimConfig::default());
        for i in 0..n {
            sim.spawn(format!("w{i}"), Box::new(ComputeBound));
        }
        sim.run_until(Nanos::from_millis(horizon_ms));
        prop_assert_eq!(sim.idle_time(), Nanos::ZERO);
    }

    /// Long-run fairness of the decay scheduler itself: equal compute-bound
    /// processes converge to equal CPU within a slice-scale bound.
    #[test]
    fn decay_scheduler_fairness(
        seed in any::<u64>(),
        n in 2usize..6,
    ) {
        let cfg = SimConfig { seed, spawn_estcpu_jitter: 8.0, ..SimConfig::default() };
        let mut sim = Sim::new(cfg);
        let pids: Vec<_> = (0..n)
            .map(|i| sim.spawn(format!("w{i}"), Box::new(ComputeBound)))
            .collect();
        let horizon = Nanos::from_secs(20);
        sim.run_until(horizon);
        let want = horizon.as_secs_f64() / n as f64;
        for &p in &pids {
            let got = sim.proc(p).unwrap().cputime().as_secs_f64();
            prop_assert!(
                (got - want).abs() < 0.8,
                "pid {p}: {got:.2}s vs fair {want:.2}s"
            );
        }
    }

    /// The event queue pops any schedule in strictly increasing
    /// `(time, seq)` order, each event exactly once. Offsets mix zero
    /// (simultaneous events, including inserts at the just-popped time),
    /// dense, and far-future values, and pops interleave with schedules.
    #[test]
    fn event_queue_pops_any_schedule_in_time_seq_order(
        ops in proptest::collection::vec(
            (
                prop_oneof![
                    0u64..4,                        // dense + simultaneous
                    0u64..10_000,
                    0u64..(1u64 << 30),
                    (1u64 << 36)..(1u64 << 38),     // minutes ahead
                ],
                0usize..4,                          // pops after this schedule
            ),
            1..250,
        ),
    ) {
        let mut q = EventQueue::new();
        // Schedules never land before the last popped time — the same
        // contract the simulator honors (its clock never outruns the
        // queue).
        let mut floor = 0u64;
        let mut last: Option<(Nanos, u64)> = None;
        let mut popped = 0usize;
        let total = ops.len();
        for (scheduled, (off, pops)) in ops.into_iter().enumerate() {
            q.schedule(
                Nanos(floor.saturating_add(off)),
                EventKind::BurstDone {
                    pid: Pid(0),
                    token: 0,
                },
            );
            prop_assert_eq!(q.len(), scheduled + 1 - popped);
            for _ in 0..pops {
                let at = q.peek_time();
                let Some(e) = q.pop() else { break };
                prop_assert_eq!(at, Some(e.at), "peek disagrees with pop");
                if let Some(prev) = last {
                    prop_assert!((e.at, e.seq) > prev, "pop order regressed");
                }
                last = Some((e.at, e.seq));
                floor = e.at.0;
                popped += 1;
            }
        }
        while let Some(e) = q.pop() {
            if let Some(prev) = last {
                prop_assert!((e.at, e.seq) > prev, "drain order regressed");
            }
            last = Some((e.at, e.seq));
            popped += 1;
        }
        prop_assert_eq!(popped, total, "every scheduled event must pop exactly once");
    }
}
