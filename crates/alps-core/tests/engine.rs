//! The generic engine must be a faithful wrapper: driven in lockstep with
//! a raw [`AlpsScheduler`] over identical observations it must produce
//! identical transitions and identical per-cycle records, and its event
//! stream must narrate every quantum and cycle boundary. Fixed principals
//! and groups obey their own teardown, logging and membership rules.

use std::collections::{BTreeMap, BTreeSet};

use alps_core::{
    AlpsConfig, AlpsScheduler, Engine, Event, FaultPolicy, HardenConfig, Instrumentation, Nanos,
    NullSink, Observation, ProcId, RecordingSink, Signal, Substrate,
};

/// A fully scripted substrate: the test owns the clock and every member's
/// cumulative CPU counter; `deliver` tracks the stopped set like a kernel
/// would. Reads of a `faulty` member fail.
#[derive(Debug, Default, Clone, PartialEq)]
struct MockSubstrate {
    now: Nanos,
    cpu: BTreeMap<u32, Nanos>,
    stopped: BTreeSet<u32>,
    gone: BTreeSet<u32>,
    blocked: BTreeSet<u32>,
    faulty: BTreeSet<u32>,
}

impl MockSubstrate {
    fn add(&mut self, m: u32) {
        self.cpu.insert(m, Nanos::ZERO);
        self.stopped.insert(m); // registered suspended, per §2.2
    }

    /// Advance the clock by `dt`, charging `dt` of CPU to every member
    /// that is currently runnable.
    fn advance(&mut self, dt: Nanos) {
        self.now += dt;
        for (&m, cpu) in self.cpu.iter_mut() {
            if !self.stopped.contains(&m) && !self.gone.contains(&m) {
                *cpu += dt;
            }
        }
    }
}

impl Substrate for MockSubstrate {
    type Member = u32;
    type Error = &'static str;

    fn now(&mut self) -> Nanos {
        self.now
    }

    fn read(&mut self, m: u32) -> Result<Option<Observation>, &'static str> {
        if self.faulty.contains(&m) {
            return Err("unreadable");
        }
        if self.gone.contains(&m) {
            return Ok(None);
        }
        Ok(self.cpu.get(&m).map(|&total_cpu| Observation {
            total_cpu,
            blocked: self.blocked.contains(&m),
        }))
    }

    fn deliver(&mut self, m: u32, sig: Signal) -> Result<bool, &'static str> {
        if self.gone.contains(&m) || !self.cpu.contains_key(&m) {
            return Ok(false);
        }
        match sig {
            Signal::Stop => self.stopped.insert(m),
            Signal::Continue => self.stopped.remove(&m),
        };
        Ok(true)
    }
}

fn obs(id: ProcId, ms: u64) -> (ProcId, Observation) {
    (
        id,
        Observation {
            total_cpu: Nanos::from_millis(ms),
            blocked: false,
        },
    )
}

/// The engine, fed the exact observations the snapshot-test fixture feeds
/// a raw scheduler, must stay in lockstep with it for 200 quanta:
/// identical due lists, identical transitions, and — the §3.1 consumption
/// log — identical `CycleRecord`s.
#[test]
fn engine_matches_raw_scheduler_in_lockstep() {
    let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_cycle_log(true);
    let mut raw = AlpsScheduler::new(cfg);
    let a = raw.add_process(2, Nanos::ZERO);
    let b = raw.add_process(3, Nanos::ZERO);

    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Measured);
    let mut sub = MockSubstrate::default();
    sub.add(10);
    sub.add(20);
    let ea = engine.add_member(10, 2, Nanos::ZERO);
    let eb = engine.add_member(20, 3, Nanos::ZERO);
    assert_eq!((a, b), (ea, eb), "registration must mint the same ids");

    let mut raw_records = Vec::new();
    for k in 0..200u64 {
        let now = Nanos::from_millis(10 * (k + 1));
        let total = 7 + (k + 1) * 4;

        let due_raw = raw.begin_quantum();
        let readings: Vec<_> = due_raw.iter().map(|&id| obs(id, total)).collect();
        let out_raw = raw.complete_quantum(&readings, now);
        if let Some(rec) = &out_raw.cycle_record {
            raw_records.push(rec.clone());
        }

        sub.now = now;
        engine.begin_quantum(&mut sub, &mut NullSink).unwrap();
        let due_ids: Vec<ProcId> = engine.due().iter().map(|(id, _)| id).collect();
        assert_eq!(due_ids, due_raw, "due lists diverged at quantum {k}");
        let members: Vec<u32> = engine
            .due()
            .iter()
            .flat_map(|(_, ms)| ms.iter().copied())
            .collect();
        for m in members {
            sub.cpu.insert(m, Nanos::from_millis(total));
        }
        engine.complete_quantum(&mut sub, &mut NullSink).unwrap();
        engine
            .apply_pending_signals(&mut sub, &mut NullSink)
            .unwrap();

        assert_eq!(
            engine.last_transitions(),
            out_raw.transitions,
            "quantum {k}"
        );
        assert_eq!(
            engine.last_cycle_completed(),
            out_raw.cycle_completed,
            "quantum {k}"
        );
    }

    assert!(
        !raw_records.is_empty(),
        "fixture must cross cycle boundaries"
    );
    assert_eq!(engine.cycles(), raw_records.as_slice());
    assert_eq!(engine.invocations(), raw.invocations());
    assert_eq!(engine.cycles_completed(), raw.cycles_completed());
    assert_eq!(engine.allowance(a), raw.allowance(a));
    assert_eq!(engine.allowance(b), raw.allowance(b));
}

/// A three-process, two-cycle run narrated through a [`RecordingSink`]:
/// every quantum opens with `QuantumStart`, measurements precede signals
/// within a quantum, and each boundary emits a correctly indexed
/// `CycleEnd`.
#[test]
fn recording_sink_sees_the_whole_story() {
    let q = Nanos::from_millis(10);
    let cfg = AlpsConfig::new(q).with_lazy_measurement(false);
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Measured);
    let mut sub = MockSubstrate::default();
    for (m, share) in [(1u32, 1u64), (2, 1), (3, 1)] {
        sub.add(m);
        engine.add_member(m, share, Nanos::ZERO);
    }

    let mut sink = RecordingSink::new();
    let mut guard = 0;
    while engine.cycles_completed() < 2 {
        sub.advance(q);
        engine.run_quantum(&mut sub, &mut sink).unwrap();
        guard += 1;
        assert!(guard < 50, "two 3-share cycles should take ~6 quanta");
    }

    let events = &sink.events;
    assert!(matches!(
        events[0],
        Event::QuantumStart { invocation: 1, .. }
    ));

    let starts = events
        .iter()
        .filter(|e| matches!(e, Event::QuantumStart { .. }))
        .count() as u64;
    assert_eq!(starts, engine.stats().quanta);

    let cycle_indices: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::CycleEnd { index, .. } => Some(*index),
            _ => None,
        })
        .collect();
    assert_eq!(cycle_indices, vec![0, 1]);

    let measured = events
        .iter()
        .filter(|e| matches!(e, Event::Measured { .. }))
        .count() as u64;
    assert_eq!(measured, engine.stats().measurements);
    assert!(events.iter().any(|e| matches!(
        e,
        Event::SignalSent {
            delivered: true,
            ..
        }
    )));

    // Within each quantum: measurements, then the cycle boundary (if
    // any), then signal deliveries.
    for quantum in events.split(|e| matches!(e, Event::QuantumStart { .. })) {
        let rank = |e: &Event<u32>| match e {
            Event::Measured { .. } => 0,
            Event::CycleEnd { .. } => 1,
            Event::SignalSent { .. } => 2,
            _ => 3,
        };
        let ranks: Vec<_> = quantum.iter().map(rank).filter(|&r| r < 3).collect();
        assert!(
            ranks.windows(2).all(|w| w[0] <= w[1]),
            "out-of-order events within a quantum: {quantum:?}"
        );
    }
}

/// §4.2: when the timer fires late (or deliveries coalesce) the next
/// invocation sees a multi-quantum gap. The engine must count it as an
/// overrun, emit the event, and — because consumption is charged from
/// cumulative readings — debit the whole gap against the runner's
/// allowance, not just one quantum.
#[test]
fn late_timer_counts_overrun_and_charges_full_gap() {
    let q = Nanos::from_millis(10);
    let cfg = AlpsConfig::new(q).with_lazy_measurement(false);
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Measured);
    let mut sub = MockSubstrate::default();
    sub.add(1);
    sub.add(2);
    // Shares 6:2 → cycle = 80ms; A's per-cycle allowance is 6 quanta, so
    // nothing ends the cycle during the skip.
    let a = engine.add_member(1, 6, Nanos::ZERO);
    let _b = engine.add_member(2, 2, Nanos::ZERO);

    let mut sink = RecordingSink::new();
    // Quantum 1 (t=10ms): cycle starts, A and B resumed; nobody has run
    // yet so no allowance is spent. Only A's consumption is scripted — B
    // stays idle so the cycle cannot end on total consumption mid-test.
    sub.now += q;
    engine.run_quantum(&mut sub, &mut sink).unwrap();
    assert_eq!(engine.stats().overruns, 0);
    // Quantum 2 (t=20ms): on time; A ran one quantum.
    sub.now += q;
    sub.cpu.insert(1, q);
    engine.run_quantum(&mut sub, &mut sink).unwrap();
    assert_eq!(engine.stats().overruns, 0);
    let before = engine.allowance(a).expect("a is live");

    // The timer now arrives 30ms late: a 3-quantum gap while A kept
    // running the whole time.
    sub.now += q * 3;
    sub.cpu.insert(1, q * 4);
    engine.run_quantum(&mut sub, &mut sink).unwrap();

    assert_eq!(engine.stats().overruns, 1);
    let overruns: Vec<_> = sink
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Overrun { gap, .. } => Some(*gap),
            _ => None,
        })
        .collect();
    assert_eq!(overruns, vec![q * 3]);

    let after = engine.allowance(a).expect("a is live");
    assert!(
        (before - after - 3.0).abs() < 1e-9,
        "the full 3-quantum gap must be charged: {before} -> {after}"
    );
}

/// `adjust_share` is an observable `set_share`: the change lands in the
/// scheduler, the counter, and the event stream — and a no-op adjustment
/// (same share) leaves all three untouched, so a disabled or converged
/// SLO controller cannot perturb byte-compared stats.
#[test]
fn adjust_share_counts_and_narrates() {
    let cfg = AlpsConfig::new(Nanos::from_millis(10));
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Measured);
    let mut sub = MockSubstrate::default();
    sub.add(1);
    sub.add(2);
    let a = engine.add_member(1, 4, Nanos::ZERO);
    let b = engine.add_member(2, 4, Nanos::ZERO);

    let mut sink = RecordingSink::new();
    engine.adjust_share(a, 6, &mut sink).unwrap();
    assert_eq!(engine.share(a), Some(6));
    assert_eq!(engine.stats().share_adjustments, 1);
    assert_eq!(
        sink.events,
        vec![Event::ShareChanged {
            id: a,
            old: 4,
            new: 6
        }]
    );

    // No-op: same share, nothing counted, nothing emitted.
    engine.adjust_share(b, 4, &mut sink).unwrap();
    assert_eq!(engine.stats().share_adjustments, 1);
    assert_eq!(sink.events.len(), 1);

    // A stale id is an error, not a panic.
    let events_before = sink.events.len();
    engine.remove_principal(a);
    assert!(engine.adjust_share(a, 9, &mut sink).is_err());
    assert_eq!(sink.events.len(), events_before);
}

/// Member churn inside groups — joiners arriving with seconds of CPU
/// already behind them, leavers, deaths, blocked readings — must not make
/// the exact cycle log disagree with the measured one: a group's entry is
/// the CPU charged to it, not its current members' lifetimes.
#[test]
fn exact_log_equals_measured_log_for_churning_groups() {
    let q = Nanos::from_millis(10);
    for lazy in [true, false] {
        for seed in 1..=4u64 {
            let mut rng = seed;
            let mut next = move |n: u64| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) % n
            };
            let cfg = AlpsConfig::new(q)
                .with_lazy_measurement(lazy)
                .with_cycle_log(true);
            let mut exact: Engine<u32> =
                Engine::new(cfg, Instrumentation::Exact).with_auto_reap(true);
            let mut measured: Engine<u32> =
                Engine::new(cfg, Instrumentation::Measured).with_auto_reap(true);
            let mut sub = MockSubstrate::default();
            let mut next_pid = 1u32;
            let groups: Vec<ProcId> = (1..=4u64)
                .map(|share| {
                    let g = exact.add_principal(share);
                    assert_eq!(measured.add_principal(share), g);
                    g
                })
                .collect();
            let mut sub_m = sub.clone();
            for k in 0..400u64 {
                if k % 5 == 0 {
                    // Refresh one group: drop the dead, sometimes a live
                    // member, and sometimes admit a long-lived joiner.
                    let g = groups[next(4) as usize];
                    let mut current: Vec<(u32, Nanos)> = exact
                        .members(g)
                        .unwrap()
                        .into_iter()
                        .filter(|m| !sub.gone.contains(m))
                        .map(|m| (m, sub.cpu[&m]))
                        .collect();
                    if current.len() > 1 && next(3) == 0 {
                        current.remove(next(current.len() as u64) as usize);
                    }
                    if current.is_empty() || next(2) == 0 {
                        let m = next_pid;
                        next_pid += 1;
                        let lifetime = Nanos::from_millis(1_000 + next(5_000));
                        for s in [&mut sub, &mut sub_m] {
                            s.cpu.insert(m, lifetime);
                        }
                        current.push((m, lifetime));
                    }
                    let change = exact.set_membership(g, &current).unwrap();
                    assert_eq!(measured.set_membership(g, &current), Some(change.clone()));
                    exact
                        .apply_signals(&mut sub, &change.signals, &mut NullSink)
                        .unwrap();
                    measured
                        .apply_signals(&mut sub_m, &change.signals, &mut NullSink)
                        .unwrap();
                }
                // One quantum of the workload, identical in both worlds.
                let live: Vec<u32> = sub.cpu.keys().copied().collect();
                for m in live {
                    let burn = Nanos(next(q.0 * 3 / 2));
                    let blocked = next(6) == 0;
                    let dies = next(150) == 0;
                    for s in [&mut sub, &mut sub_m] {
                        if !s.stopped.contains(&m) && !s.gone.contains(&m) {
                            *s.cpu.get_mut(&m).unwrap() += burn;
                        }
                        if blocked {
                            s.blocked.insert(m);
                        } else {
                            s.blocked.remove(&m);
                        }
                        if dies {
                            s.gone.insert(m);
                        }
                    }
                }
                sub.now += q;
                sub_m.now += q;
                exact.run_quantum(&mut sub, &mut NullSink).unwrap();
                measured.run_quantum(&mut sub_m, &mut NullSink).unwrap();
                assert_eq!(sub, sub_m, "the logs must not change a decision");
            }
            assert!(exact.cycles().len() > 10, "seed {seed}: too few cycles");
            assert_eq!(exact.stats().reaped, 0, "groups are never reaped");
            assert_eq!(
                exact.cycles(),
                measured.cycles(),
                "seed {seed}, lazy {lazy}"
            );
        }
    }
}

/// Auto-reap tears down a fixed principal whose member exits, but a group
/// that loses its only member is kept, charged nothing for the dead
/// member, and filled again by the next refresh.
#[test]
fn a_group_whose_only_member_exits_is_kept_and_refilled() {
    let q = Nanos::from_millis(10);
    let cfg = AlpsConfig::new(q).with_lazy_measurement(false);
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact).with_auto_reap(true);
    let mut sub = MockSubstrate::default();
    for m in [1, 2, 9] {
        sub.add(m);
    }
    let fixed = engine.add_member(9, 1, Nanos::ZERO);
    let group = engine.add_principal(1);
    engine.set_membership(group, &[(1, Nanos::ZERO)]).unwrap();
    assert_eq!(engine.set_membership(fixed, &[(2, Nanos::ZERO)]), None);
    assert_eq!(
        engine.members(fixed),
        Some(vec![9]),
        "a fixed member is fixed"
    );
    for _ in 0..3 {
        sub.advance(q);
        engine.run_quantum(&mut sub, &mut NullSink).unwrap();
    }
    sub.gone.extend([1, 9]);
    for _ in 0..5 {
        sub.advance(q);
        engine.run_quantum(&mut sub, &mut NullSink).unwrap();
    }
    assert_eq!(engine.share(fixed), None, "the fixed principal is reaped");
    assert_eq!(engine.stats().reaped, 1);
    assert_eq!(engine.share(group), Some(1), "the group is kept");
    assert_eq!(
        engine.members(group),
        Some(vec![1]),
        "until the next refresh"
    );
    let change = engine.set_membership(group, &[(2, Nanos::ZERO)]).unwrap();
    assert_eq!((change.added, change.removed), (vec![2], vec![1]));
    assert_eq!(engine.members(group), Some(vec![2]));
    assert_eq!(engine.principal_of(2), Some(group));
    assert_eq!(engine.principal_of(1), None);
}

/// Under hardening a member that keeps faulting is quarantined: a fixed
/// principal goes with it, but a group — even one left empty — only loses
/// that member, and a later refresh may admit it again.
#[test]
fn quarantining_a_group_member_evicts_only_that_member() {
    let q = Nanos::from_millis(10);
    let cfg = AlpsConfig::new(q).with_lazy_measurement(false);
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact)
        .with_auto_reap(true)
        .with_fault_policy(FaultPolicy::Harden(HardenConfig::default()));
    let mut sub = MockSubstrate::default();
    for m in [1, 9] {
        sub.add(m);
    }
    let fixed = engine.add_member(9, 1, Nanos::ZERO);
    let group = engine.add_principal(1);
    engine.set_membership(group, &[(1, Nanos::ZERO)]).unwrap();
    sub.faulty.extend([1, 9]);
    for _ in 0..6 {
        sub.advance(q);
        engine.run_quantum(&mut sub, &mut NullSink).unwrap();
    }
    assert_eq!(engine.stats().quarantined, 2);
    assert_eq!(engine.share(fixed), None);
    assert_eq!(engine.share(group), Some(1));
    assert_eq!(engine.members(group), Some(vec![]));
    assert_eq!(engine.principal_of(1), None);
    sub.faulty.clear();
    let change = engine.set_membership(group, &[(1, sub.cpu[&1])]).unwrap();
    assert_eq!(change.added, vec![1]);
    assert_eq!(engine.principal_of(1), Some(group));
}

/// One pid is never charged to two principals: a group's refresh leaves
/// out any listed member another principal — group or fixed — already
/// owns, and the first owner keeps it.
#[test]
fn a_member_listed_by_two_principals_stays_with_its_first_owner() {
    let cfg = AlpsConfig::new(Nanos::from_millis(10));
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact).with_auto_reap(true);
    let fixed = engine.add_member(9, 1, Nanos::ZERO);
    let a = engine.add_principal(1);
    let b = engine.add_principal(1);
    engine.set_membership(a, &[(7, Nanos::ZERO)]).unwrap();
    let change = engine
        .set_membership(b, &[(7, Nanos::ZERO), (8, Nanos::ZERO), (9, Nanos::ZERO)])
        .unwrap();
    assert_eq!(change.added, vec![8]);
    assert_eq!(engine.members(a), Some(vec![7]));
    assert_eq!(engine.members(b), Some(vec![8]));
    assert_eq!(engine.principal_of(7), Some(a));
    assert_eq!(engine.principal_of(9), Some(fixed));
    // Once the first owner lets go, the other group may take the pid.
    engine.set_membership(a, &[]).unwrap();
    let change = engine
        .set_membership(b, &[(7, Nanos::ZERO), (8, Nanos::ZERO)])
        .unwrap();
    assert_eq!(change.added, vec![7]);
    assert_eq!(engine.principal_of(7), Some(b));
}
