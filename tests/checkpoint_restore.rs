//! A scheduler checkpoint restores mid-flight: the serialized state,
//! driven on by a different backend loop, keeps the configured split.

use alps::Nanos;

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
