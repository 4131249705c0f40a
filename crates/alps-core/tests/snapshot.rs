//! Checkpoint/restore: a serialized scheduler must behave identically to
//! the original after restore, mid-cycle state included.

use alps_core::{
    AlpsConfig, AlpsScheduler, Nanos, Observation, ProcId, QuantumOutcome, Transition,
};

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
    sched.complete_quantum(&[]);
    sched.begin_quantum();
    sched.complete_quantum(&[obs(a, 7)]);

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
        let out_o = original.complete_quantum(&readings_o);
        let out_r = restored.complete_quantum(&readings_r);
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
    s.complete_quantum(&readings)
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

/// A checkpoint written before the scheduler dropped its own per-cycle
/// consumption counters: three members after four quanta of the recipe in
/// [`checkpoint_recipe`], one slot reused, two counters non-zero.
const OLD_CHECKPOINT: &str = concat!(
    r#"{"cfg":{"quantum":10000000,"lazy_measurement":true,"io_policy":"OneQuantumPenalty","record_cycles":false,"#,
    r#""cpus":1},"slots":[{"generation":1,"state":{"share":4,"allowance":4,"eligible":true,"#,
    r#""update":7,"last_cpu":1000000,"cycle_consumed":0,"forfeited":false},"listed":true,"pos":0,"#,
    r#""wheel_key":3},{"generation":0,"state":{"share":3,"allowance":1.3,"eligible":true,"update":6,"#,
    r#""last_cpu":21000000,"cycle_consumed":17000000,"forfeited":false},"listed":true,"pos":1,"#,
    r#""wheel_key":2},{"generation":0,"state":{"share":1,"allowance":-0.19999999999999996,"eligible":false,"#,
    r#""update":2,"last_cpu":12000000,"cycle_consumed":12000000,"forfeited":false},"listed":true,"#,
    r#""pos":2,"wheel_key":1}],"free":[],"occupied":[0,1,2],"vacated":0,"live":3,"total_shares":8,"#,
    r#""tc":51000000,"count":4,"cycles_completed":0,"wheel":[[],[],[],[],[],[],[{"idx":1,"key":2}],"#,
    r#"[{"idx":0,"key":3}],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],["#,
    r#"],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],["#,
    r#"],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],["#,
    r#"],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],["#,
    r#"],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],["#,
    r#"],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],["#,
    r#"],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],["#,
    r#"],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],["#,
    r#"],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],[],["#,
    r#"],[],[]],"pending":[],"dirty":[],"eligible_count":2,"drain":[],"examined":[]}"#,
);

/// The quanta behind [`OLD_CHECKPOINT`]: every due member reports
/// `5·k + slot` ms of cumulative CPU at quantum `k`.
fn checkpoint_recipe() -> AlpsScheduler {
    let mut s = AlpsScheduler::new(AlpsConfig::new(Nanos::from_millis(10)));
    let a = s.add_process(2, Nanos::ZERO);
    s.add_process(3, Nanos::from_millis(4));
    s.add_process(1, Nanos::ZERO);
    for k in 1..=4u64 {
        if k == 3 {
            s.remove_process(a);
            s.add_process(4, Nanos::from_millis(1));
        }
        let due = s.begin_quantum();
        let readings: Vec<_> = due
            .iter()
            .map(|&id| obs(id, 5 * k + id.index() as u64))
            .collect();
        s.complete_quantum(&readings);
    }
    s
}

#[test]
fn a_checkpoint_with_per_cycle_counters_still_restores() {
    assert!(OLD_CHECKPOINT.contains(r#""cycle_consumed":17000000"#));
    let mut restored: AlpsScheduler = serde_json::from_str(OLD_CHECKPOINT).expect("deserialize");
    let mut fresh = checkpoint_recipe();
    // The retired field is dropped; everything else is the same state.
    assert_eq!(
        serde_json::to_string(&restored).unwrap(),
        serde_json::to_string(&fresh).unwrap()
    );
    let mut live: Vec<ProcId> = fresh.proc_ids().collect();
    let mut live_r: Vec<ProcId> = restored.proc_ids().collect();
    assert_eq!(live, live_r);
    for k in 5..205u64 {
        let (due_f, out_f) = churn_quantum(&mut fresh, &mut live, k);
        let (due_r, out_r) = churn_quantum(&mut restored, &mut live_r, k);
        assert_eq!(due_f, due_r, "due lists diverged at quantum {k}");
        assert_eq!(out_f.transitions, out_r.transitions, "quantum {k}");
        assert_eq!(out_f.cycle_completed, out_r.cycle_completed, "quantum {k}");
    }
    assert!(fresh.cycles_completed() > 0);
    assert_eq!(
        serde_json::to_string(&restored).unwrap(),
        serde_json::to_string(&fresh).unwrap()
    );
}

/// The eager scheduler behind [`EAGER_BETWEEN`] and [`EAGER_MID`]: four
/// members run seven quanta of [`churn_quantum`] with lazy measurement off.
/// Returns the scheduler and its live ids.
fn eager_recipe() -> (AlpsScheduler, Vec<ProcId>) {
    let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_lazy_measurement(false);
    let mut s = AlpsScheduler::new(cfg);
    let mut live: Vec<ProcId> = (0..4)
        .map(|i| s.add_process(2 + 3 * i, Nanos::ZERO))
        .collect();
    for k in 0..7 {
        churn_quantum(&mut s, &mut live, k);
    }
    (s, live)
}

/// One quantum as `due/transitions`, ids by slot index (`.g` for a
/// reused slot's generation), `+` resume, `-` suspend, `*` a cycle end.
fn describe(due: &[ProcId], out: &QuantumOutcome) -> String {
    let id = |p: ProcId| match p.generation() {
        0 => p.index().to_string(),
        g => format!("{}.{g}", p.index()),
    };
    let due: Vec<String> = due.iter().map(|&p| id(p)).collect();
    let mut s = format!("{}/", due.join(","));
    for t in &out.transitions {
        match *t {
            Transition::Resume(p) => s += &format!("+{}", id(p)),
            Transition::Suspend(p) => s += &format!("-{}", id(p)),
        }
    }
    if out.cycle_completed {
        s.push('*');
    }
    s
}

/// Quanta `first..first + n` of [`churn_quantum`], described.
fn replay(s: &mut AlpsScheduler, live: &mut Vec<ProcId>, first: u64, n: u64) -> Vec<String> {
    (first..first + n)
        .map(|k| {
            let (due, out) = churn_quantum(s, live, k);
            describe(&due, &out)
        })
        .collect()
}

/// An eager checkpoint written before the eager baseline ran on the
/// deadline wheel: [`eager_recipe`], then a share change and a new member
/// between quanta. It has no `pending` or `dirty` entries, and its
/// deadlines are `count + ⌈a⌉`.
const EAGER_BETWEEN: &str = concat!(
    r#"{"cfg":{"quantum":10000000,"lazy_measurement":false,"io_policy":"OneQuantumPenalty","rec"#,
    r#"ord_cycles":false},"slots":[{"generation":0,"state":{"share":2,"allowance":0.19999999999"#,
    r#"999984,"eligible":true,"update":8,"last_cpu":18000000,"forfeited":false},"listed":true,""#,
    r#"pos":0,"wheel_key":0},{"generation":0,"state":{"share":5,"allowance":3.1000000000000005,"#,
    r#""eligible":true,"update":0,"last_cpu":19000000,"forfeited":false},"listed":true,"pos":1,"#,
    r#""wheel_key":0},{"generation":0,"state":{"share":3,"allowance":1.3125000000000002,"eligib"#,
    r#"le":true,"update":8,"last_cpu":20000000,"forfeited":false},"listed":true,"pos":2,"wheel_"#,
    r#"key":0},{"generation":0,"state":{"share":11,"allowance":8.899999999999997,"eligible":tru"#,
    r#"e,"update":12,"last_cpu":21000000,"forfeited":false},"listed":true,"pos":3,"wheel_key":0"#,
    r#"},{"generation":0,"state":{"share":2,"allowance":0.09999999999999998,"eligible":true,"up"#,
    r#"date":8,"last_cpu":22000000,"forfeited":false},"listed":true,"pos":4,"wheel_key":0},{"ge"#,
    r#"neration":0,"state":{"share":1,"allowance":0.19999999999999996,"eligible":true,"update":"#,
    r#"8,"last_cpu":23000000,"forfeited":false},"listed":true,"pos":5,"wheel_key":0},{"generati"#,
    r#"on":0,"state":{"share":2,"allowance":2,"eligible":false,"update":0,"last_cpu":40000000,""#,
    r#"forfeited":false},"listed":true,"pos":6,"wheel_key":0}],"free":[],"occupied":[0,1,2,3,4,"#,
    r#"5,6],"vacated":0,"live":7,"total_shares":26,"tc":158125000,"count":7,"cycles_completed":"#,
    r#"0,"pending":[],"dirty":[],"eligible_count":6,"examined":[]}"#,
);

/// What the scheduler that wrote [`EAGER_BETWEEN`] did in its next 64
/// quanta of [`churn_quantum`], as [`describe`]d.
const EAGER_BETWEEN_REPLAY: &str = concat!(
    "0,1,2,3,4,5/-4-5+6 0,1,2,3,6/ 0,1,2,3,6/-0+7 1,2,3,6,7/ 1,2,3,6,7/-2 1,3,6,7/ ",
    "1,3,6,7/+8 1,3,6,7,8/ 1,3,6,7,8/ 1,3,7,8/ 1,3,7,8/-1+6.1 3,6.1,7,8/ 3,6.1,7,8/ ",
    "3,6.1,7,8/ 3,6.1,7,8/+0.1 0.1,3,6.1,7,8/ 0.1,3,6.1,7,8/ 0.1,3,6.1,7,8/-7 ",
    "0.1,3,6.1/+8.1 0.1,3,6.1,8.1/-8.1 0.1,3,6.1/ 0.1,3,6.1/-0.1 3,6.1/+1.1 1.1,3,6.1/ ",
    "1.1,3,6.1/ 1.1,3,6.1/ 1.1,3,6.1/+5.1 1.1,3,5.1,6.1/ 1.1,3,5.1,6.1/ 1.1,3,5.1,6.1/-3 ",
    "1.1,5.1,6.1/+2.1 1.1,2.1,5.1,6.1/ 1.1,2.1,5.1,6.1/ 1.1,2.1,5.1/ 1.1,2.1,5.1/+6.2 ",
    "1.1,2.1,5.1,6.2/ 1.1,2.1,6.2/ 1.1,2.1,6.2/ 1.1,2.1,6.2/+5.2 ",
    "1.1,2.1,5.2,6.2/+0.1+3+4+7+8.1* 0.1,1.1,2.1,3,4,5.2,6.2,7,8.1/-0.1-4-7-8.1* ",
    "1.1,2.1,3,5.2,6.2/ 1.1,2.1,3,5.2,6.2/+0.2 0.2,1.1,2.1,3,5.2,6.2/ ",
    "0.2,1.1,2.1,3,5.2,6.2/ 0.2,1.1,2.1,3,5.2/ 0.2,1.1,2.1,3,5.2/+6.3 ",
    "0.2,1.1,2.1,3,5.2,6.3/-5.2 0.2,1.1,2.1,6.3/ 0.2,1.1,2.1,6.3/ ",
    "0.2,1.1,2.1,6.3/+3.1+5.2+7* 0.2,1.1,2.1,3.1,5.2,6.3,7/-5.2-7 0.2,1.1,2.1,3.1,6.3/ ",
    "0.2,1.1,2.1,3.1,6.3/ 1.1,2.1,3.1,6.3/+0.3 0.3,1.1,2.1,3.1,6.3/ 0.3,1.1,2.1,3.1,6.3/ ",
    "0.3,1.1,2.1,3.1,6.3/ 0.3,1.1,2.1,3.1,6.3/+4.1 0.3,1.1,2.1,3.1,4.1,6.3/ ",
    "0.3,1.1,3.1,4.1,6.3/ 0.3,1.1,3.1,4.1,6.3/-4.1 0.3,1.1,3.1,6.3/+2.2 ",
    "0.3,1.1,2.2,3.1,6.3/",
);

/// An eager checkpoint written like [`EAGER_BETWEEN`], but between the
/// `begin_quantum` and the `complete_quantum` of the quantum after
/// [`eager_recipe`].
const EAGER_MID: &str = concat!(
    r#"{"cfg":{"quantum":10000000,"lazy_measurement":false,"io_policy":"OneQuantumPenalty","rec"#,
    r#"ord_cycles":false},"slots":[{"generation":0,"state":{"share":2,"allowance":0.19999999999"#,
    r#"999984,"eligible":true,"update":8,"last_cpu":18000000,"forfeited":false},"listed":true,""#,
    r#"pos":0,"wheel_key":0},{"generation":0,"state":{"share":5,"allowance":3.1000000000000005,"#,
    r#""eligible":true,"update":10,"last_cpu":19000000,"forfeited":false},"listed":true,"pos":1"#,
    r#","wheel_key":0},{"generation":0,"state":{"share":3,"allowance":1.3125000000000002,"eligi"#,
    r#"ble":true,"update":8,"last_cpu":20000000,"forfeited":false},"listed":true,"pos":2,"wheel"#,
    r#"_key":0},{"generation":0,"state":{"share":11,"allowance":8.899999999999997,"eligible":tr"#,
    r#"ue,"update":12,"last_cpu":21000000,"forfeited":false},"listed":true,"pos":3,"wheel_key":"#,
    r#"0},{"generation":0,"state":{"share":2,"allowance":0.09999999999999998,"eligible":true,"u"#,
    r#"pdate":8,"last_cpu":22000000,"forfeited":false},"listed":true,"pos":4,"wheel_key":0},{"g"#,
    r#"eneration":0,"state":{"share":1,"allowance":0.19999999999999996,"eligible":true,"update""#,
    r#":8,"last_cpu":23000000,"forfeited":false},"listed":true,"pos":5,"wheel_key":0}],"free":["#,
    r#"],"occupied":[0,1,2,3,4,5],"vacated":0,"live":6,"total_shares":24,"tc":138125000,"count""#,
    r#":8,"cycles_completed":0,"pending":[],"dirty":[],"eligible_count":6,"examined":[]}"#,
);

/// What the scheduler that wrote [`EAGER_MID`] did in its next 64 quanta:
/// the one it was in, completed, and 63 of [`churn_quantum`].
const EAGER_MID_REPLAY: &str = concat!(
    "0,1,2,3,4,5/-0-4-5 1,2,3/ 1,2,3/+6 1,2,3,6/ 1,2,3,6/-2 1,3,6/ 1,3,6/+7 1,3,6,7/ ",
    "1,3,6,7/ 1,3,6,7/ 1,3,6,7/-1+8 3,6,7,8/ 3,6,7,8/ 3,6,7,8/ 3,6,7,8/+0.1 0.1,3,6,7,8/ ",
    "0.1,3,6,7,8/ 0.1,3,6,7,8/-6 0.1,3,8/+7.1 0.1,3,7.1,8/-7.1 0.1,3,8/ 0.1,3,8/-0.1 ",
    "3,8/+1.1 1.1,3,8/ 1.1,3,8/ 1.1,3,8/ 1.1,3,8/+5.1 1.1,3,5.1,8/ 1.1,3,5.1,8/ ",
    "1.1,3,5.1,8/-3 1.1,5.1,8/+2.1 1.1,2.1,5.1,8/ 1.1,2.1,5.1,8/ 1.1,2.1,5.1/ ",
    "1.1,2.1,5.1/+8.1 1.1,2.1,5.1,8.1/ 1.1,2.1,8.1/ 1.1,2.1,8.1/ 1.1,2.1,8.1/+5.2-8.1 ",
    "1.1,2.1,5.2/+0.1+3+4+6+7.1+8.1* 0.1,1.1,2.1,3,4,5.2,6,7.1,8.1/-0.1-4-6-7.1* ",
    "1.1,2.1,3,5.2,8.1/ 1.1,2.1,3,5.2,8.1/+0.2 0.2,1.1,2.1,3,5.2,8.1/ ",
    "0.2,1.1,2.1,3,5.2,8.1/ 0.2,1.1,2.1,3,5.2/ 0.2,1.1,2.1,3,5.2/+8.2 ",
    "0.2,1.1,2.1,3,5.2,8.2/-5.2 0.2,1.1,2.1,8.2/ 0.2,1.1,2.1,8.2/ ",
    "0.2,1.1,2.1,8.2/+3.1+5.2+6* 0.2,1.1,2.1,3.1,5.2,6,8.2/-5.2-6 0.2,1.1,2.1,3.1,8.2/ ",
    "0.2,1.1,2.1,3.1,8.2/ 1.1,2.1,3.1,8.2/+0.3 0.3,1.1,2.1,3.1,8.2/ 0.3,1.1,2.1,3.1,8.2/ ",
    "0.3,1.1,2.1,3.1,8.2/ 0.3,1.1,2.1,3.1,8.2/+4.1 0.3,1.1,2.1,3.1,4.1,8.2/ ",
    "0.3,1.1,3.1,4.1,8.2/ 0.3,1.1,3.1,4.1,8.2/-4.1 0.3,1.1,3.1,8.2/+2.2 ",
    "0.3,1.1,2.2,3.1,8.2/",
);

/// Restore `json` and check it holds the members `live` lists, in order.
fn restore_eager(json: &str, live: &[ProcId]) -> AlpsScheduler {
    let s: AlpsScheduler = serde_json::from_str(json).expect("deserialize");
    assert_eq!(s.proc_ids().collect::<Vec<_>>(), live);
    s
}

#[test]
fn an_eager_checkpoint_between_quanta_replays_as_written() {
    let (mut fresh, mut live) = eager_recipe();
    let id = live[1];
    fresh.set_share(id, 5).expect("live id");
    live.push(fresh.add_process(2, Nanos::from_millis(40)));
    let mut restored = restore_eager(EAGER_BETWEEN, &live);
    let want: Vec<&str> = EAGER_BETWEEN_REPLAY.split(' ').collect();
    let mut live_r = live.clone();
    assert_eq!(replay(&mut restored, &mut live_r, 7, 64), want);
    assert_eq!(replay(&mut fresh, &mut live, 7, 64), want);
}

#[test]
fn an_eager_checkpoint_mid_quantum_replays_as_written() {
    let (mut fresh, live) = eager_recipe();
    let due = fresh.begin_quantum();
    let mut restored = restore_eager(EAGER_MID, &live);
    let want: Vec<&str> = EAGER_MID_REPLAY.split(' ').collect();
    for s in [&mut restored, &mut fresh] {
        let mut live = live.clone();
        let out = complete(s, &due, 7);
        let mut got = vec![describe(&due, &out)];
        got.extend(replay(s, &mut live, 8, 63));
        assert_eq!(got, want);
    }
}

/// The scheduler behind [`WIDE_KEY_LAZY`] and [`WIDE_KEY_EAGER`]: eight
/// members run ten quanta of [`churn_quantum`], two slots reused. Returns
/// the scheduler and its live ids.
fn wide_key_recipe(lazy: bool) -> (AlpsScheduler, Vec<ProcId>) {
    let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_lazy_measurement(lazy);
    let mut s = AlpsScheduler::new(cfg);
    let mut live: Vec<ProcId> = (0..8)
        .map(|i| s.add_process(1 + 2 * i, Nanos::ZERO))
        .collect();
    for k in 0..10 {
        churn_quantum(&mut s, &mut live, k);
    }
    (s, live)
}

/// A checkpoint of [`wide_key_recipe`] (lazy) written while wheel keys
/// were 64-bit, with the key of slot 1 (eligible) set past `u32::MAX`.
const WIDE_KEY_LAZY: &str = concat!(
    r#"{"cfg":{"quantum":10000000,"lazy_measurement":true,"io_policy":"OneQuantumPenalty","record"#,
    r#"_cycles":false},"slots":[{"generation":0,"state":{"share":1,"allowance":-0.2,"eligible":fa"#,
    r#"lse,"update":5,"last_cpu":12000000,"forfeited":false},"listed":true,"pos":0,"wheel_key":4}"#,
    r#",{"generation":0,"state":{"share":3,"allowance":0.19999999999999996,"eligible":true,"updat"#,
    r#"e":11,"last_cpu":28000000,"forfeited":false},"listed":true,"pos":1,"wheel_key":4294967301}"#,
    r#",{"generation":0,"state":{"share":3,"allowance":0.10000000000000009,"eligible":true,"updat"#,
    r#"e":11,"last_cpu":29000000,"forfeited":false},"listed":true,"pos":2,"wheel_key":7},{"genera"#,
    r#"tion":1,"state":{"share":8,"allowance":2.9000000000000004,"eligible":true,"update":11,"las"#,
    r#"t_cpu":24000000,"forfeited":false},"listed":true,"pos":3,"wheel_key":6},{"generation":0,"s"#,
    r#"tate":{"share":9,"allowance":5.9,"eligible":true,"update":16,"last_cpu":31000000,"forfeite"#,
    r#"d":false},"listed":true,"pos":4,"wheel_key":2},{"generation":0,"state":{"share":11,"allowa"#,
    r#"nce":11,"eligible":true,"update":12,"last_cpu":0,"forfeited":false},"listed":true,"pos":5,"#,
    r#""wheel_key":1},{"generation":0,"state":{"share":13,"allowance":13,"eligible":true,"update""#,
    r#":14,"last_cpu":0,"forfeited":false},"listed":true,"pos":6,"wheel_key":1},{"generation":1,""#,
    r#"state":{"share":5,"allowance":5,"eligible":true,"update":15,"last_cpu":27000000,"forfeited"#,
    r#"":false},"listed":true,"pos":7,"wheel_key":3},{"generation":0,"state":{"share":2,"allowanc"#,
    r#"e":-0.2999999999999999,"eligible":false,"update":7,"last_cpu":26000000,"forfeited":false},"#,
    r#""listed":true,"pos":8,"wheel_key":4}],"free":[],"occupied":[0,1,2,3,4,5,6,7,8],"vacated":0"#,
    r#","live":9,"total_shares":55,"tc":376000000,"count":10,"cycles_completed":0,"pending":[],"d"#,
    r#"irty":[],"eligible_count":7,"examined":[]}"#,
);

/// What the scheduler that wrote [`WIDE_KEY_LAZY`] did in its next 64
/// quanta of [`churn_quantum`], as [`describe`]d.
const WIDE_KEY_LAZY_REPLAY: &str = concat!(
    "1,2,3.1/-1-2 5/ / 3.1/+4.1 7.1/ 3.1/ 6/-6 4.1,7.1/+3.2 / 5,7.1/ 4.1/ 7.1/+0.1 ",
    "4.1,7.1/ 0.1,4.1,7.1/ 4.1,5,7.1/-7.1 0.1/+4.2 0.1,3.2,4.2/ 0.1,4.2/ ",
    "0.1,4.2,5/-0.1-4.2 /+1.1 / 5/ 3.2/ 5/+8.1 1.1,5/ 5/ 5/-5 3.2,8.1/+2.1 1.1/ 8.1/ ",
    "2.1/ 1.1,8.1/+3.3 2.1,8.1/ 1.1,3.3/ 1.1,2.1/+0.1+4.2+5+6+7.1* 3.3,4.2/-4.2+8.2 ",
    "0.1,6,8.2/-0.1-6-8.2 / 2.1,3.3/ /+0.2 1.1,3.3,7.1/-7.1 2.1,3.3/+8.2* 8.2/-8.2 ",
    "/+3.4 0.2/ / 2.1/ 3.4/+5.1 / / 2.1,3.4,5.1/+7.1+8.2* 8.2/+0.3-8.2 7.1/-7.1 / ",
    "1.1/ 2.1,5.1/+6.1 3.4,6.1/ 6.1/+7.1* 6.1,7.1/-7.1 5.1,6.1/+2.2 3.4,6.1/-6.1 ",
    "0.3,1.1/ / /+7.2",
);

/// [`WIDE_KEY_LAZY`] with lazy measurement off.
const WIDE_KEY_EAGER: &str = concat!(
    r#"{"cfg":{"quantum":10000000,"lazy_measurement":false,"io_policy":"OneQuantumPenalty","recor"#,
    r#"d_cycles":false},"slots":[{"generation":0,"state":{"share":1,"allowance":-0.2,"eligible":f"#,
    r#"alse,"update":5,"last_cpu":12000000,"forfeited":false},"listed":true,"pos":0,"wheel_key":4"#,
    r#"},{"generation":0,"state":{"share":3,"allowance":0.20000000000000023,"eligible":true,"upda"#,
    r#"te":11,"last_cpu":28000000,"forfeited":false},"listed":true,"pos":1,"wheel_key":4294967301"#,
    r#"},{"generation":0,"state":{"share":3,"allowance":0.3000000000000003,"eligible":true,"updat"#,
    r#"e":11,"last_cpu":29000000,"forfeited":false},"listed":true,"pos":2,"wheel_key":11},{"gener"#,
    r#"ation":1,"state":{"share":8,"allowance":2.3000000000000007,"eligible":true,"update":11,"la"#,
    r#"st_cpu":30000000,"forfeited":false},"listed":true,"pos":3,"wheel_key":10},{"generation":0,"#,
    r#""state":{"share":9,"allowance":5.900000000000001,"eligible":true,"update":11,"last_cpu":31"#,
    r#"000000,"forfeited":false},"listed":true,"pos":4,"wheel_key":10},{"generation":0,"state":{""#,
    r#"share":11,"allowance":7.7999999999999945,"eligible":true,"update":11,"last_cpu":32000000,""#,
    r#"forfeited":false},"listed":true,"pos":5,"wheel_key":10},{"generation":0,"state":{"share":1"#,
    r#"3,"allowance":9.699999999999994,"eligible":true,"update":11,"last_cpu":33000000,"forfeited"#,
    r#"":false},"listed":true,"pos":6,"wheel_key":10},{"generation":1,"state":{"share":5,"allowan"#,
    r#"ce":5,"eligible":true,"update":11,"last_cpu":27000000,"forfeited":false},"listed":true,"po"#,
    r#"s":7,"wheel_key":8},{"generation":0,"state":{"share":2,"allowance":-0.00000000000000011102"#,
    r#"230246251565,"eligible":false,"update":6,"last_cpu":23000000,"forfeited":false},"listed":t"#,
    r#"rue,"pos":8,"wheel_key":4}],"free":[],"occupied":[0,1,2,3,4,5,6,7,8],"vacated":0,"live":9,"#,
    r#""total_shares":55,"tc":310000000,"count":10,"cycles_completed":0,"pending":[],"dirty":[],""#,
    r#"eligible_count":7,"examined":[]}"#,
);

/// What the scheduler that wrote [`WIDE_KEY_EAGER`] did in its next 64
/// quanta of [`churn_quantum`], as [`describe`]d.
const WIDE_KEY_EAGER_REPLAY: &str = concat!(
    "1,2,3.1,4,5,6,7.1/-1 2,3.1,4,5,6,7.1/-2 3.1,4,5,6,7.1/ 3.1,5,6,7.1/+4.1 ",
    "3.1,4.1,5,6,7.1/ 3.1,4.1,5,6,7.1/ 4.1,5,6,7.1/ 4.1,5,6,7.1/+3.2 3.2,4.1,5,6,7.1/ ",
    "3.2,4.1,5,6,7.1/ 3.2,4.1,5,6,7.1/ 3.2,4.1,5,6,7.1/+0.1-6 0.1,3.2,4.1,5,7.1/ ",
    "0.1,3.2,4.1,5,7.1/ 0.1,3.2,4.1,5,7.1/-7.1 0.1,3.2,5/+4.2 0.1,3.2,4.2,5/ ",
    "0.1,3.2,4.2,5/ 0.1,3.2,4.2,5/-0.1-4.2 3.2,5/+1.1 1.1,3.2,5/ 1.1,3.2,5/ ",
    "1.1,3.2,5/ 1.1,3.2,5/+8.1 1.1,3.2,5,8.1/ 1.1,3.2,5,8.1/-5 1.1,3.2,8.1/ ",
    "1.1,3.2,8.1/+2.1 1.1,2.1,3.2,8.1/ 1.1,2.1,3.2,8.1/ 1.1,2.1,8.1/ 1.1,2.1,8.1/+3.3 ",
    "1.1,2.1,3.3,8.1/ 1.1,2.1,3.3/ 1.1,2.1,3.3/ 1.1,2.1,3.3/+8.2 ",
    "1.1,2.1,3.3,8.2/+0.1+4.2+5+6+7.1* ",
    "0.1,1.1,2.1,3.3,4.2,5,6,7.1,8.2/-0.1-4.2-6-7.1* 1.1,2.1,3.3,5,8.2/ ",
    "1.1,2.1,3.3,5,8.2/+0.2 0.2,1.1,2.1,3.3,5,8.2/ 0.2,1.1,2.1,3.3,5,8.2/ ",
    "0.2,1.1,2.1,5,8.2/ 0.2,1.1,2.1,5,8.2/+3.4-8.2 0.2,1.1,2.1,3.4,5/ ",
    "0.2,1.1,2.1,3.4/ 0.2,1.1,2.1,3.4/ 0.2,1.1,2.1,3.4/+5.1 0.2,1.1,2.1,3.4,5.1/ ",
    "0.2,1.1,2.1,3.4,5.1/ 0.2,1.1,2.1,3.4,5.1/+7.1+8.2* ",
    "1.1,2.1,3.4,5.1,7.1,8.2/+0.3-7.1-8.2 0.3,1.1,2.1,3.4,5.1/ 0.3,1.1,2.1,3.4,5.1/ ",
    "0.3,1.1,2.1,3.4,5.1/ 0.3,1.1,2.1,3.4,5.1/+6.1 0.3,1.1,2.1,3.4,5.1,6.1/ ",
    "0.3,1.1,3.4,5.1,6.1/-6.1 0.3,1.1,3.4,5.1/ 0.3,1.1,3.4,5.1/+2.2 ",
    "0.3,1.1,2.2,3.4,5.1/ 0.3,1.1,2.2,3.4,5.1/ 0.3,1.1,2.2,3.4,5.1/+6.1* ",
    "0.3,1.1,2.2,3.4,5.1,6.1/-6.1+7.2",
);

/// The wheel key is not part of a checkpoint: an older one's is ignored,
/// even one too wide for today's 32-bit key, and the restored scheduler
/// comes due and transitions as the one that wrote it did.
#[test]
fn a_checkpoint_with_a_wide_wheel_key_replays_as_written() {
    for (lazy, json, replay_want) in [
        (true, WIDE_KEY_LAZY, WIDE_KEY_LAZY_REPLAY),
        (false, WIDE_KEY_EAGER, WIDE_KEY_EAGER_REPLAY),
    ] {
        assert!(json.contains(r#""wheel_key":4294967301"#));
        let (mut fresh, mut live) = wide_key_recipe(lazy);
        let mut restored: AlpsScheduler = serde_json::from_str(json).expect("deserialize");
        let want: Vec<&str> = replay_want.split(' ').collect();
        let mut live_r = live.clone();
        assert_eq!(
            replay(&mut restored, &mut live_r, 10, 64),
            want,
            "lazy {lazy}"
        );
        assert_eq!(replay(&mut fresh, &mut live, 10, 64), want, "lazy {lazy}");
    }
}

/// The lazy [`wide_key_recipe`], quanta 10 to 26 of [`churn_quantum`],
/// then quantum 27's `begin_quantum`, which pops two members, and its
/// mid-quantum churn, a removal and a share change: `pending` and
/// `dirty` are both in use. Returns the scheduler, its live ids and the
/// due set popped.
fn mid_quantum_recipe() -> (AlpsScheduler, Vec<ProcId>, Vec<ProcId>) {
    let (mut s, mut live) = wide_key_recipe(true);
    for k in 10..27 {
        churn_quantum(&mut s, &mut live, k);
    }
    let due = s.begin_quantum();
    mid_quantum_churn(&mut s, &mut live, 27);
    (s, live, due)
}

/// [`mid_quantum_recipe`]'s checkpoint as the scheduler wrote it before
/// its slots carried a payload. The payload is not serialized, so the
/// format is the same.
const PRE_PAYLOAD_CHECKPOINT: &str = concat!(
    r#"{"cfg":{"quantum":10000000,"lazy_measurement":true,"io_policy":"OneQuantumPenalty","reco"#,
    r#"rd_cycles":false},"slots":[{"generation":1,"state":{"share":2,"allowance":0.499999999999"#,
    r#"99994,"eligible":true,"update":28,"last_cpu":78000000,"forfeited":false},"listed":true,""#,
    r#"pos":0},{"generation":0,"state":null,"listed":true,"pos":1},{"generation":0,"state":{"sh"#,
    r#"are":3,"allowance":-0.1999999999999999,"eligible":false,"update":11,"last_cpu":32000000,"#,
    r#""forfeited":false},"listed":true,"pos":2},{"generation":2,"state":{"share":9,"allowance""#,
    r#":6,"eligible":true,"update":33,"last_cpu":81000000,"forfeited":false},"listed":true,"pos"#,
    r#"":3},{"generation":2,"state":{"share":1,"allowance":0.30000000000000004,"eligible":true,"#,
    r#""update":28,"last_cpu":82000000,"forfeited":false},"listed":true,"pos":4},{"generation":"#,
    r#"0,"state":{"share":11,"allowance":3.3000000000000007,"eligible":true,"update":29,"last_c"#,
    r#"pu":77000000,"forfeited":false},"listed":true,"pos":5},{"generation":0,"state":{"share":"#,
    r#"4,"allowance":-1.4000000000000004,"eligible":false,"update":17,"last_cpu":54000000,"forf"#,
    r#"eited":false},"listed":true,"pos":6},{"generation":1,"state":{"share":5,"allowance":-0.2"#,
    r#"0000000000000012,"eligible":false,"update":25,"last_cpu":79000000,"forfeited":false},"li"#,
    r#"sted":true,"pos":7},{"generation":0,"state":{"share":1,"allowance":-0.14999999999999994,"#,
    r#""eligible":false,"update":0,"last_cpu":26000000,"forfeited":false},"listed":true,"pos":8"#,
    r#"}],"free":[1],"occupied":[0,1,2,3,4,5,6,7,8],"vacated":1,"live":8,"total_shares":36,"tc""#,
    r#":78500000,"count":28,"cycles_completed":0,"pending":[0,4],"dirty":[8],"eligible_count":4"#,
    r#"}"#,
);

/// A checkpoint written before slots carried a payload restores, writes
/// itself out again byte for byte, is what today's scheduler writes for
/// the same history, and completes its quantum and the next 64 as the
/// original does.
#[test]
fn a_checkpoint_from_before_slot_payloads_round_trips_byte_identically() {
    let mut restored: AlpsScheduler =
        serde_json::from_str(PRE_PAYLOAD_CHECKPOINT).expect("deserialize");
    assert_eq!(
        serde_json::to_string(&restored).unwrap(),
        PRE_PAYLOAD_CHECKPOINT
    );
    let (mut fresh, live, due) = mid_quantum_recipe();
    assert_eq!(
        serde_json::to_string(&fresh).unwrap(),
        PRE_PAYLOAD_CHECKPOINT
    );
    let mut got = Vec::new();
    for s in [&mut fresh, &mut restored] {
        let mut live = live.clone();
        let out = complete(s, &due, 27);
        let mut quanta = vec![describe(&due, &out)];
        quanta.extend(replay(s, &mut live, 28, 64));
        got.push(quanta);
    }
    assert_eq!(got[0], got[1]);
    assert_eq!(
        serde_json::to_string(&restored).unwrap(),
        serde_json::to_string(&fresh).unwrap()
    );
}
