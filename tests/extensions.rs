//! Integration tests of the beyond-the-paper extensions, end-to-end.

use alps::{Nanos, ShareTree};
use alps_sim::experiments::batch::{run_batch, BatchParams};
use alps_sim::experiments::smp::{feasible_fractions, run_smp, SmpParams};
use workloads::{parse_trace, OnEnd, Segment, TraceReplay};

#[test]
fn smp_enforces_exact_ratios_by_throttling() {
    let r = run_smp(&SmpParams {
        cpus: 2,
        shares: vec![1, 2, 3, 4],
        quantum: Nanos::from_millis(10),
        duration: Nanos::from_secs(30),
        seed: 1,
    });
    // Feasible distribution: proportional on 2 CPUs, high fairness.
    for (i, (&got, want)) in r.achieved_frac.iter().zip([0.1, 0.2, 0.3, 0.4]).enumerate() {
        assert!((got - want).abs() < 0.03, "proc {i}: {got:.3} vs {want}");
    }
    assert!(r.jain > 0.99, "jain {:.4}", r.jain);
}

#[test]
fn water_filling_sums_to_at_most_one() {
    for (shares, cpus) in [
        (vec![1u64, 9], 2usize),
        (vec![5, 5, 5], 4),
        (vec![1, 1, 14], 4),
        (vec![7], 3),
    ] {
        let f = feasible_fractions(&shares, cpus);
        let sum: f64 = f.iter().sum();
        assert!(sum <= 1.0 + 1e-9, "{shares:?} on {cpus}: sum {sum}");
        for &x in &f {
            assert!(x <= 1.0 / cpus as f64 + 1e-9);
        }
    }
}

#[test]
fn batch_co_completion_beats_kernel_fairness() {
    let r = run_batch(&BatchParams {
        work_ms: vec![1600, 800, 400, 200],
        quantum: Nanos::from_millis(10),
        seed: 2,
    });
    assert!(r.alps.spread_ms < r.kernel.spread_ms * 0.5);
}

#[test]
fn share_tree_end_to_end_with_trace_replay() {
    use alps::{AlpsConfig, CostModel};
    use kernsim::{Sim, SimConfig};

    // A two-department tree over trace-replay workloads: the full
    // extension stack in one scenario.
    let mut tree = ShareTree::new();
    let heavy = tree.add_group(None, 3);
    let light = tree.add_group(None, 1);
    let mut sim = Sim::new(SimConfig::default());
    let trace = parse_trace("5000 100\n2000 50\n").expect("trace");
    let mut pids = Vec::new();
    for (i, group) in [(0u64, heavy), (1, heavy), (2, light)]
        .iter()
        .map(|&(t, g)| (t, g))
    {
        let pid = sim.spawn(
            format!("t{i}"),
            Box::new(TraceReplay::new(trace.clone(), OnEnd::Loop)),
        );
        pids.push(pid);
        tree.add_leaf(Some(group), 1, i);
    }
    let flat = tree.flatten().expect("shares fit");
    let procs: Vec<_> = flat
        .iter()
        .map(|&(tag, share)| (pids[tag as usize], share))
        .collect();
    alps::spawn_alps(
        &mut sim,
        "alps",
        AlpsConfig::new(Nanos::from_millis(10)),
        CostModel::paper(),
        &procs,
    );
    sim.run_until(Nanos::from_secs(30));
    let total: f64 = pids
        .iter()
        .map(|&p| sim.proc(p).unwrap().cputime().as_secs_f64())
        .sum();
    // heavy dept: 3/4 split over two leaves = 3/8 each; light leaf: 1/4.
    let fr: Vec<f64> = pids
        .iter()
        .map(|&p| sim.proc(p).unwrap().cputime().as_secs_f64() / total)
        .collect();
    assert!((fr[0] - 0.375).abs() < 0.03, "{fr:?}");
    assert!((fr[1] - 0.375).abs() < 0.03, "{fr:?}");
    assert!((fr[2] - 0.25).abs() < 0.03, "{fr:?}");
}

#[test]
fn replay_under_alps_is_bounded_by_its_share() {
    use alps::{AlpsConfig, CostModel};
    use kernsim::{ComputeBound, Sim, SimConfig};

    // A greedy trace (all burst, no sleep) next to a spinner at 1:1.
    let segs = vec![Segment {
        burst: Nanos::from_millis(50),
        sleep: Nanos::from_micros(100),
    }];
    let mut sim = Sim::new(SimConfig::default());
    let r = sim.spawn("replay", Box::new(TraceReplay::new(segs, OnEnd::Loop)));
    let s = sim.spawn("spin", Box::new(ComputeBound));
    alps::spawn_alps(
        &mut sim,
        "alps",
        AlpsConfig::new(Nanos::from_millis(10)),
        CostModel::paper(),
        &[(r, 1), (s, 1)],
    );
    sim.run_until(Nanos::from_secs(20));
    let fr = sim.proc(r).unwrap().cputime().as_secs_f64() / 20.0;
    assert!(fr < 0.56, "replay got {fr} of the CPU at equal shares");
}

#[test]
fn scheduler_checkpoint_survives_a_backend_swap() {
    use alps::{AlpsConfig, AlpsScheduler, Observation};

    // Serialize a scheduler mid-flight and keep driving the restored copy
    // — proportions must continue.
    let mut sched = AlpsScheduler::new(AlpsConfig::new(Nanos::from_millis(10)));
    let a = sched.add_process(1, Nanos::ZERO);
    let b = sched.add_process(3, Nanos::ZERO);
    let mut cpu = [0u64; 2];
    for _ in 0..50 {
        let due = sched.begin_quantum();
        // Greedy backend: split the quantum among eligible procs evenly.
        let eligible: Vec<_> = [a, b]
            .into_iter()
            .filter(|&id| sched.is_eligible(id) == Some(true))
            .collect();
        for id in &eligible {
            let i = if *id == a { 0 } else { 1 };
            cpu[i] += 10_000_000 / eligible.len() as u64;
        }
        let obs: Vec<_> = due
            .iter()
            .map(|&id| {
                let i = if id == a { 0 } else { 1 };
                (
                    id,
                    Observation {
                        total_cpu: Nanos(cpu[i]),
                        blocked: false,
                    },
                )
            })
            .collect();
        sched.complete_quantum(&obs);
    }
    let json = serde_json::to_string(&sched).expect("serialize");
    let mut restored: AlpsScheduler = serde_json::from_str(&json).expect("restore");
    for _ in 50..400 {
        let due = restored.begin_quantum();
        let eligible: Vec<_> = [a, b]
            .into_iter()
            .filter(|&id| restored.is_eligible(id) == Some(true))
            .collect();
        for id in &eligible {
            let i = if *id == a { 0 } else { 1 };
            cpu[i] += 10_000_000 / eligible.len() as u64;
        }
        let obs: Vec<_> = due
            .iter()
            .map(|&id| {
                let i = if id == a { 0 } else { 1 };
                (
                    id,
                    Observation {
                        total_cpu: Nanos(cpu[i]),
                        blocked: false,
                    },
                )
            })
            .collect();
        restored.complete_quantum(&obs);
    }
    let ratio = cpu[1] as f64 / cpu[0] as f64;
    assert!(
        (ratio - 3.0).abs() < 0.3,
        "long-run 1:3 across restore: {ratio:.2}"
    );
}
