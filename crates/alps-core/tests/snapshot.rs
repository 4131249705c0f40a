//! Checkpoint/restore: a serialized scheduler must behave identically to
//! the original after restore, mid-cycle state included.

use alps_core::{AlpsConfig, AlpsScheduler, Nanos, Observation, ProcId, QuantumOutcome};

fn obs(id: ProcId, ms: u64) -> (ProcId, Observation) {
    (
        id,
        Observation {
            total_cpu: Nanos::from_millis(ms),
            blocked: false,
        },
    )
}

#[test]
fn snapshot_round_trips_mid_cycle() {
    let cfg = AlpsConfig::new(Nanos::from_millis(10));
    let mut sched = AlpsScheduler::new(cfg);
    let a = sched.add_process(2, Nanos::ZERO);
    let b = sched.add_process(3, Nanos::ZERO);
    // Advance into the middle of a cycle.
    sched.begin_quantum();
    sched.complete_quantum(&[], Nanos::ZERO);
    sched.begin_quantum();
    sched.complete_quantum(&[obs(a, 7)], Nanos::from_millis(10));

    let json = serde_json::to_string(&sched).expect("serialize");
    let mut restored: AlpsScheduler = serde_json::from_str(&json).expect("deserialize");

    // Identical externally visible state.
    assert_eq!(restored.total_shares(), sched.total_shares());
    assert_eq!(restored.invocations(), sched.invocations());
    assert_eq!(restored.cycles_completed(), sched.cycles_completed());
    assert_eq!(restored.allowance(a), sched.allowance(a));
    assert_eq!(restored.allowance(b), sched.allowance(b));
    assert_eq!(restored.is_eligible(a), sched.is_eligible(a));
    assert!((restored.cycle_time_remaining() - sched.cycle_time_remaining()).abs() < 1e-9);

    // And identical behavior going forward: run both through the same
    // quanta and compare everything.
    let mut original = sched;
    for k in 0..200u64 {
        let due_o = original.begin_quantum();
        let due_r = restored.begin_quantum();
        assert_eq!(due_o, due_r, "due lists diverged at quantum {k}");
        let total = 7 + (k + 1) * 4;
        let readings_o: Vec<_> = due_o.iter().map(|&id| obs(id, total)).collect();
        let readings_r: Vec<_> = due_r.iter().map(|&id| obs(id, total)).collect();
        let out_o = original.complete_quantum(&readings_o, Nanos::from_millis(20 + 10 * k));
        let out_r = restored.complete_quantum(&readings_r, Nanos::from_millis(20 + 10 * k));
        assert_eq!(out_o.transitions, out_r.transitions, "quantum {k}");
        assert_eq!(out_o.cycle_completed, out_r.cycle_completed, "quantum {k}");
    }
}

/// Leave, join and change share between `begin_quantum` and
/// `complete_quantum`, so the off-boundary repartition merges dirtied
/// slots into the due set.
fn mid_quantum_churn(s: &mut AlpsScheduler, live: &mut Vec<ProcId>, k: u64) {
    if k.is_multiple_of(3) && live.len() > 8 {
        let id = live.remove(k as usize * 7 % live.len());
        s.remove_process(id).expect("live id");
    }
    if k % 4 == 1 {
        live.push(s.add_process(1 + k % 5, Nanos::from_millis(3 * k)));
    }
    if k % 5 == 2 {
        let id = live[k as usize % live.len()];
        s.set_share(id, 1 + k % 9).expect("live id");
    }
}

/// Complete quantum `k`: every due member reports a cumulative CPU reading
/// that grows with `k`.
fn complete(s: &mut AlpsScheduler, due: &[ProcId], k: u64) -> QuantumOutcome {
    let readings: Vec<_> = due
        .iter()
        .map(|&id| obs(id, 3 * k + id.index() as u64))
        .collect();
    s.complete_quantum(&readings, Nanos::from_millis(10 * k))
}

fn churn_quantum(
    s: &mut AlpsScheduler,
    live: &mut Vec<ProcId>,
    k: u64,
) -> (Vec<ProcId>, QuantumOutcome) {
    let due = s.begin_quantum();
    mid_quantum_churn(s, live, k);
    let out = complete(s, &due, k);
    (due, out)
}

#[test]
fn snapshot_round_trips_after_compaction_and_slot_reuse() {
    let mut sched = AlpsScheduler::new(AlpsConfig::new(Nanos::from_millis(10)));
    let mut live: Vec<ProcId> = (0..60)
        .map(|i| sched.add_process(1 + i % 7, Nanos::ZERO))
        .collect();
    // Two in three leave: once more than half the registration index is
    // vacated it compacts, renumbering every survivor's position.
    let mut n = 0u32;
    live.retain(|&id| {
        n += 1;
        n.is_multiple_of(3) || sched.remove_process(id).is_none()
    });
    // Refill: the most recently freed slots are still listed and keep
    // their positions, the earlier ones were compacted away and are listed
    // anew at the end.
    live.extend((0..15).map(|i| sched.add_process(2 + i % 4, Nanos::ZERO)));
    assert!(live.iter().any(|id| id.generation() > 0), "slots reused");
    const CHECKPOINT: u64 = 57; // removes, adds and re-shares mid-quantum
    for k in 0..CHECKPOINT {
        churn_quantum(&mut sched, &mut live, k);
    }

    // Checkpoint mid-quantum: the due set popped, slots dirtied since.
    let due = sched.begin_quantum();
    mid_quantum_churn(&mut sched, &mut live, CHECKPOINT);
    let json = serde_json::to_string(&sched).expect("serialize");
    let mut restored: AlpsScheduler = serde_json::from_str(&json).expect("deserialize");
    let mut live_r = live.clone();
    let out_o = complete(&mut sched, &due, CHECKPOINT);
    let out_r = complete(&mut restored, &due, CHECKPOINT);
    assert_eq!(out_o.transitions, out_r.transitions);

    let mut original = sched;
    for k in CHECKPOINT + 1..CHECKPOINT + 201 {
        let (due_o, out_o) = churn_quantum(&mut original, &mut live, k);
        let (due_r, out_r) = churn_quantum(&mut restored, &mut live_r, k);
        assert_eq!(due_o, due_r, "due lists diverged at quantum {k}");
        assert_eq!(out_o.transitions, out_r.transitions, "quantum {k}");
        assert_eq!(out_o.cycle_completed, out_r.cycle_completed, "quantum {k}");
    }
    assert_eq!(live, live_r);
}

#[test]
fn snapshot_preserves_stale_id_rejection() {
    let mut sched = AlpsScheduler::new(AlpsConfig::default());
    let a = sched.add_process(1, Nanos::ZERO);
    sched.remove_process(a);
    let _b = sched.add_process(2, Nanos::ZERO); // reuses the slot
    let json = serde_json::to_string(&sched).unwrap();
    let restored: AlpsScheduler = serde_json::from_str(&json).unwrap();
    assert!(restored.allowance(a).is_none(), "stale generation survives");
}
