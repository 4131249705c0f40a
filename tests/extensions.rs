//! Integration tests of the beyond-the-paper extensions, end-to-end.

use alps::{Nanos, ShareTree};
use alps_sim::experiments::batch::{run_batch, BatchParams};

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
fn share_tree_end_to_end() {
    use alps::{AlpsConfig, CostModel};
    use kernsim::{ComputeBound, Sim, SimConfig};

    // A two-department share tree flattened onto compute-bound leaves and
    // enforced by ALPS on the simulated machine.
    let mut tree = ShareTree::new();
    let heavy = tree.add_group(None, 3);
    let light = tree.add_group(None, 1);
    let mut sim = Sim::new(SimConfig::default());
    let mut pids = Vec::new();
    for (i, group) in [(0u64, heavy), (1, heavy), (2, light)] {
        let pid = sim.spawn(format!("t{i}"), Box::new(ComputeBound));
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
