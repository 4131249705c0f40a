//! The generic engine must be a faithful wrapper: driven in lockstep with
//! a raw [`AlpsScheduler`] over identical observations it must produce
//! identical due lists, transitions and allowances, its exact per-cycle
//! log must record what was consumed, and its event stream must narrate
//! every quantum and cycle boundary. Fixed principals and groups obey
//! their own teardown, logging and membership rules; a group is charged
//! its members' summed CPU and its eligibility fans out to every member
//! (§5). Faults are absorbed: a member it let go is never re-signalled,
//! a member read stopped while it should run is resumed, a failed
//! delivery is retried with the current intent, and three consecutive
//! faults quarantine a member.

use std::collections::{BTreeMap, BTreeSet};

use alps_core::{
    AlpsConfig, AlpsScheduler, Engine, Event, Instrumentation, Nanos, NullSink, Observation,
    ProcId, RecordingSink, Signal, Substrate, Transition,
};

/// A fully scripted substrate: the test owns the clock and every member's
/// cumulative CPU counter; `deliver` tracks the stopped set like a kernel
/// would, and `stopped` reports it. Reads of a `faulty` member fail; only
/// the exact (cycle-boundary) reads of an `exact_faulty` one do.
#[derive(Debug, Default, Clone, PartialEq)]
struct MockSubstrate {
    now: Nanos,
    cpu: BTreeMap<u32, Nanos>,
    stopped: BTreeSet<u32>,
    gone: BTreeSet<u32>,
    blocked: BTreeSet<u32>,
    faulty: BTreeSet<u32>,
    exact_faulty: BTreeSet<u32>,
    /// Members whose next this-many deliveries fail.
    refuse: BTreeMap<u32, u32>,
    /// Members whose next delivery reports success and does nothing.
    lose: BTreeSet<u32>,
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

    fn read_exact(&mut self, m: u32) -> Result<Option<Nanos>, &'static str> {
        if self.exact_faulty.contains(&m) {
            return Err("transient");
        }
        Ok(self.read(m)?.map(|o| o.total_cpu))
    }

    fn stopped(&self, m: u32) -> bool {
        self.stopped.contains(&m)
    }

    fn deliver(&mut self, m: u32, sig: Signal) -> Result<bool, &'static str> {
        if let Some(n) = self.refuse.get_mut(&m).filter(|n| **n > 0) {
            *n -= 1;
            return Err("refused");
        }
        if self.gone.contains(&m) || !self.cpu.contains_key(&m) {
            return Ok(false);
        }
        if self.lose.remove(&m) {
            return Ok(true);
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

/// Refresh group `id` from `listing`, delivering into `sub`.
fn refresh(
    e: &mut Engine<u32>,
    sub: &mut MockSubstrate,
    id: ProcId,
    listing: &[(u32, Nanos)],
) -> Option<usize> {
    e.set_membership(sub, id, listing, &mut NullSink)
}

/// The engine, fed the exact observations the snapshot-test fixture feeds
/// a raw scheduler, must stay in lockstep with it for 200 quanta:
/// identical due lists, identical transitions, identical allowances.
#[test]
fn engine_matches_raw_scheduler_in_lockstep() {
    let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_cycle_log(true);
    let mut raw = AlpsScheduler::new(cfg);
    let a = raw.add_process(2, Nanos::ZERO);
    let b = raw.add_process(3, Nanos::ZERO);

    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    let mut sub = MockSubstrate::default();
    sub.add(10);
    sub.add(20);
    let ea = engine.add_member(10, 2, Nanos::ZERO);
    let eb = engine.add_member(20, 3, Nanos::ZERO);
    assert_eq!((a, b), (ea, eb), "registration must mint the same ids");

    for k in 0..200u64 {
        let now = Nanos::from_millis(10 * (k + 1));
        let total = 7 + (k + 1) * 4;

        let due_raw = raw.begin_quantum();
        let readings: Vec<_> = due_raw.iter().map(|&id| obs(id, total)).collect();
        let out_raw = raw.complete_quantum(&readings);

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
        raw.cycles_completed() > 0,
        "fixture must cross cycle boundaries"
    );
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
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
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
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
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

/// The §3.1 log records what was consumed, not what the scheduler
/// happened to measure: a member that keeps running for 2 ms after its
/// last measurement (the stop is still in flight) is charged those 2 ms at
/// the boundary, which re-reads every fixed member exactly.
#[test]
fn the_cycle_log_records_exact_consumption() {
    let ms = Nanos::from_millis;
    let cfg = AlpsConfig::new(ms(10))
        .with_lazy_measurement(false)
        .with_cycle_log(true);
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    let mut sub = MockSubstrate::default();
    sub.add(1);
    sub.add(2);
    let a = engine.add_member(1, 1, Nanos::ZERO);
    let b = engine.add_member(2, 2, Nanos::ZERO);
    let mut script = |now, cpu_a, cpu_b| {
        sub.now = ms(now);
        sub.cpu.insert(1, ms(cpu_a));
        sub.cpu.insert(2, ms(cpu_b));
        engine
            .run_quantum(&mut sub, &mut NullSink)
            .unwrap()
            .to_vec()
    };
    script(10, 0, 0); // both resumed
                      // A is read at 10 ms, its whole allowance, and is suspended.
    assert_eq!(script(20, 10, 0), vec![Transition::Suspend(a)]);
    // B's 20 ms end the 30 ms cycle; A's counter reads 12 ms by then.
    script(30, 12, 20);
    assert_eq!(engine.cycles_completed(), 1);
    let rec = &engine.cycles()[0];
    assert_eq!(rec.index, 0);
    assert_eq!(rec.completed_at, ms(30));
    assert_eq!(rec.total_shares, 3);
    assert_eq!(rec.total_consumed, ms(32));
    assert_eq!(rec.consumed_by(a), Some(ms(12)));
    assert_eq!(rec.consumed_by(b), Some(ms(20)));
    let shares: Vec<u64> = rec.entries.iter().map(|e| e.share).collect();
    assert_eq!(shares, vec![1, 2]);
}

/// With the cycle log on, the engine survives a faulting exact
/// read at a cycle boundary. The scheduler has already committed the
/// quantum, so its transitions are still delivered; the fault is counted
/// and narrated, nobody is struck for it, and the member is charged
/// nothing in this record and what it missed in the next.
#[test]
fn a_faulting_boundary_read_keeps_the_quantum() {
    let q = Nanos::from_millis(10);
    let cfg = AlpsConfig::new(q)
        .with_lazy_measurement(false)
        .with_cycle_log(true);
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    let mut sub = MockSubstrate::default();
    sub.add(1);
    sub.add(2);
    let a = engine.add_member(1, 1, Nanos::ZERO);
    let b = engine.add_member(2, 3, Nanos::ZERO);
    sub.exact_faulty.insert(2);
    let mut sink = RecordingSink::new();
    // Quanta 1-4 at 1:3 over a 40 ms cycle: A is suspended at quantum 2
    // and resumed by the boundary at quantum 4.
    for k in 1..=4 {
        sub.advance(q);
        let transitions = engine.run_quantum(&mut sub, &mut sink).unwrap().to_vec();
        assert_eq!(engine.cycles_completed(), u64::from(k == 4), "quantum {k}");
        if k == 4 {
            assert_eq!(transitions, vec![Transition::Resume(a)]);
        }
    }
    assert!(!sub.stopped.contains(&1), "the boundary's resume was sent");
    assert_eq!(engine.stats().read_faults, 1);
    assert_eq!(engine.stats().quarantined, 0);
    assert!(sink.events.contains(&Event::ReadFault { member: 2 }));
    let ms = Nanos::from_millis;
    assert_eq!(engine.cycles()[0].consumed_by(a), Some(ms(10)));
    assert_eq!(engine.cycles()[0].consumed_by(b), Some(Nanos::ZERO));

    // The read recovers: the next boundary charges B both cycles' 30 ms.
    sub.exact_faulty.clear();
    while engine.cycles_completed() < 2 {
        sub.advance(q);
        engine.run_quantum(&mut sub, &mut sink).unwrap();
    }
    assert_eq!(engine.cycles()[1].consumed_by(a), Some(ms(10)));
    assert_eq!(engine.cycles()[1].consumed_by(b), Some(ms(60)));
    assert_eq!(engine.stats().read_faults, 1);
}

/// Reaping tears down a fixed principal whose member exits, but a group
/// that loses its only member is kept, charged nothing for the dead
/// member, and filled again by the next refresh.
#[test]
fn a_group_whose_only_member_exits_is_kept_and_refilled() {
    let q = Nanos::from_millis(10);
    let cfg = AlpsConfig::new(q).with_lazy_measurement(false);
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    let mut sub = MockSubstrate::default();
    for m in [1, 2, 9] {
        sub.add(m);
    }
    let fixed = engine.add_member(9, 1, Nanos::ZERO);
    let group = engine.add_principal(1);
    refresh(&mut engine, &mut sub, group, &[(1, Nanos::ZERO)]);
    let refresh_fixed = refresh(&mut engine, &mut sub, fixed, &[(2, Nanos::ZERO)]);
    assert_eq!(refresh_fixed, None);
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
    refresh(&mut engine, &mut sub, group, &[(2, Nanos::ZERO)]);
    assert_eq!(engine.members(group), Some(vec![2]));
    assert_eq!(engine.principal_of(2), Some(group));
    assert_eq!(engine.principal_of(1), None);
}

/// A member that keeps faulting is quarantined: a fixed
/// principal goes with it, but a group — even one left empty — only loses
/// that member, and a later refresh may admit it again.
#[test]
fn quarantining_a_group_member_evicts_only_that_member() {
    let q = Nanos::from_millis(10);
    let cfg = AlpsConfig::new(q).with_lazy_measurement(false);
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    let mut sub = MockSubstrate::default();
    for m in [1, 9] {
        sub.add(m);
    }
    let fixed = engine.add_member(9, 1, Nanos::ZERO);
    let group = engine.add_principal(1);
    refresh(&mut engine, &mut sub, group, &[(1, Nanos::ZERO)]);
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
    let listing = [(1, sub.cpu[&1])];
    refresh(&mut engine, &mut sub, group, &listing);
    assert_eq!(engine.members(group), Some(vec![1]));
    assert_eq!(engine.principal_of(1), Some(group));
}

/// One pid is never charged to two principals: a group's refresh leaves
/// out any listed member another principal — group or fixed — already
/// owns, and the first owner keeps it.
#[test]
fn a_member_listed_by_two_principals_stays_with_its_first_owner() {
    let cfg = AlpsConfig::new(Nanos::from_millis(10));
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    let mut sub = MockSubstrate::default();
    let fixed = engine.add_member(9, 1, Nanos::ZERO);
    let a = engine.add_principal(1);
    let b = engine.add_principal(1);
    let zero = Nanos::ZERO;
    refresh(&mut engine, &mut sub, a, &[(7, zero)]);
    let listing = [(7, zero), (8, zero), (9, zero)];
    refresh(&mut engine, &mut sub, b, &listing);
    assert_eq!(engine.members(a), Some(vec![7]));
    assert_eq!(engine.members(b), Some(vec![8]));
    assert_eq!(engine.principal_of(7), Some(a));
    assert_eq!(engine.principal_of(9), Some(fixed));
    // Once the first owner lets go, the other group may take the pid.
    refresh(&mut engine, &mut sub, a, &[]);
    refresh(&mut engine, &mut sub, b, &[(7, zero), (8, zero)]);
    assert_eq!(engine.members(b), Some(vec![7, 8]));
    assert_eq!(engine.principal_of(7), Some(b));
}

/// `add_member` refuses a member some principal already has: the member
/// would be charged twice, and removing either owner would unindex it
/// under the other.
#[test]
#[should_panic(expected = "member 7 already belongs to a principal")]
fn adding_a_fixed_principals_member_again_panics() {
    let cfg = AlpsConfig::new(Nanos::from_millis(10));
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    engine.add_member(7, 1, Nanos::ZERO);
    engine.add_member(7, 2, Nanos::ZERO);
}

#[test]
#[should_panic(expected = "member 7 already belongs to a principal")]
fn adding_a_groups_member_as_a_fixed_principal_panics() {
    let cfg = AlpsConfig::new(Nanos::from_millis(10));
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    let group = engine.add_principal(1);
    refresh(
        &mut engine,
        &mut MockSubstrate::default(),
        group,
        &[(7, Nanos::ZERO)],
    );
    engine.add_member(7, 2, Nanos::ZERO);
}

/// An engine whose fixed principal is removed, and whose member the
/// driver resumes itself, never signals that member again.
#[test]
fn an_engine_never_resignals_a_removed_principals_member() {
    let q = Nanos::from_millis(10);
    let cfg = AlpsConfig::new(q).with_lazy_measurement(false);
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    let mut sub = MockSubstrate::default();
    sub.add(1);
    sub.add(2);
    let a = engine.add_member(1, 1, Nanos::ZERO);
    engine.add_member(2, 3, Nanos::ZERO);
    let mut sink = RecordingSink::new();
    for _ in 0..2 {
        sub.advance(q);
        engine.run_quantum(&mut sub, &mut sink).unwrap();
    }
    assert!(sub.stopped.contains(&1), "A is suspended at quantum 2");
    assert_eq!(engine.remove_principal(a), Some(vec![1]));
    sub.stopped.remove(&1); // the driver releases what it let go
    sink.events.clear();
    for _ in 0..40 {
        sub.advance(q);
        engine.run_quantum(&mut sub, &mut sink).unwrap();
    }
    let sent = |e: &&Event<u32>| matches!(e, Event::SignalSent { member: 1, .. });
    assert_eq!(sink.events.iter().filter(sent).count(), 0);
    assert!(!sub.stopped.contains(&1));
}

/// A group's leaver gets its reconciliation signal once and is then let
/// go: the engine does not re-assert it.
#[test]
fn an_engine_never_resignals_a_group_leaver() {
    let q = Nanos::from_millis(10);
    let cfg = AlpsConfig::new(q).with_lazy_measurement(false);
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    let mut sub = MockSubstrate::default();
    for m in [1, 2, 9] {
        sub.add(m);
    }
    engine.add_member(9, 3, Nanos::ZERO);
    let g = engine.add_principal(1);
    let mut sink = RecordingSink::new();
    let listing = [(1, Nanos::ZERO), (2, Nanos::ZERO)];
    engine.set_membership(&mut sub, g, &listing, &mut sink);
    for _ in 0..2 {
        sub.advance(q);
        engine.run_quantum(&mut sub, &mut sink).unwrap();
    }
    assert_eq!(engine.is_eligible(g), Some(false), "the group overran");
    sink.events.clear();
    let listing = [(2, sub.cpu[&2])];
    let sent = engine.set_membership(&mut sub, g, &listing, &mut sink);
    assert_eq!(sent, Some(1));
    for _ in 0..40 {
        sub.advance(q);
        engine.run_quantum(&mut sub, &mut sink).unwrap();
    }
    let sent = |e: &&Event<u32>| matches!(e, Event::SignalSent { member: 1, .. });
    assert_eq!(
        sink.events.iter().filter(sent).count(),
        1,
        "only its reconciliation"
    );
    assert!(!sub.stopped.contains(&1));
}

/// A refresh of a suspended group delivers its own reconciliation: with no
/// other call, its joiner ends stopped and its leaver running.
#[test]
fn a_refresh_of_a_suspended_group_stops_its_joiner_and_resumes_its_leaver() {
    let q = Nanos::from_millis(10);
    let cfg = AlpsConfig::new(q).with_lazy_measurement(false);
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    let mut sub = MockSubstrate::default();
    for m in [1, 2, 3, 9] {
        sub.add(m);
    }
    sub.stopped.remove(&3); // the joiner runs before it joins
    engine.add_member(9, 3, Nanos::ZERO);
    let g = engine.add_principal(1);
    let listing = [(1, Nanos::ZERO), (2, Nanos::ZERO)];
    refresh(&mut engine, &mut sub, g, &listing);
    for _ in 0..2 {
        sub.advance(q);
        engine.run_quantum(&mut sub, &mut NullSink).unwrap();
    }
    assert_eq!(engine.is_eligible(g), Some(false), "the group overran");
    assert!(sub.stopped.contains(&1) && sub.stopped.contains(&2));
    let listing = [(2, sub.cpu[&2]), (3, sub.cpu[&3])];
    let sent = refresh(&mut engine, &mut sub, g, &listing);
    assert_eq!(
        sent,
        Some(2),
        "a Stop to the joiner, a Continue to the leaver"
    );
    assert!(sub.stopped.contains(&3), "the joiner is stopped");
    assert!(!sub.stopped.contains(&1), "the leaver runs");
    assert!(
        sub.stopped.contains(&2),
        "the member who stays is untouched"
    );
    assert_eq!(engine.members(g), Some(vec![2, 3]));
}

// --- §5: a group is charged its members' CPU, and fans out eligibility ---

/// A group engine at a 10 ms quantum (lazy measurement on), over an empty
/// substrate: a member whose reading is not scripted reads as gone, which
/// skips it without charge.
fn group_engine() -> (Engine<u32>, MockSubstrate) {
    let cfg = AlpsConfig::new(Nanos::from_millis(10));
    (
        Engine::new(cfg, Instrumentation::Exact),
        MockSubstrate::default(),
    )
}

/// Script member `m`'s next reading.
fn reads(sub: &mut MockSubstrate, m: u32, ms: u64, blocked: bool) {
    sub.cpu.insert(m, Nanos::from_millis(ms));
    if blocked {
        sub.blocked.insert(m);
    } else {
        sub.blocked.remove(&m);
    }
}

/// Stage 1 of a quantum, returning how many principals are due.
fn begin(e: &mut Engine<u32>, sub: &mut MockSubstrate) -> usize {
    e.begin_quantum(sub, &mut NullSink).unwrap();
    e.due().len()
}

/// Stage 2 of a quantum (without a `begin` first, it completes the
/// scheduler's invocation with nothing due).
fn complete(e: &mut Engine<u32>, sub: &mut MockSubstrate) {
    e.complete_quantum(sub, &mut NullSink).unwrap();
}

/// One quantum in which nothing is due.
fn idle_quantum(e: &mut Engine<u32>, sub: &mut MockSubstrate) {
    assert_eq!(begin(e, sub), 0);
    complete(e, sub);
}

#[test]
fn principal_becomes_eligible_resuming_all_members() {
    let (mut e, mut sub) = group_engine();
    let u = e.add_principal(1);
    refresh(
        &mut e,
        &mut sub,
        u,
        &[(100, Nanos::ZERO), (101, Nanos::ZERO)],
    );
    idle_quantum(&mut e, &mut sub);
    let mut resumed: Vec<u32> = e
        .pending_signals()
        .iter()
        .map(|&(m, signal)| {
            assert_eq!(signal, Signal::Continue);
            m
        })
        .collect();
    resumed.sort_unstable();
    assert_eq!(resumed, vec![100, 101]);
}

/// A refresh delivered between stages 2 and 3 leaves the staged signals
/// alone: stage 3 then sends every one of them, in order, after the
/// refresh's own.
#[test]
fn staged_signals_survive_a_refresh_delivered_before_them() {
    let (mut e, mut sub) = group_engine();
    for m in [1, 2, 5, 7, 8] {
        sub.add(m);
    }
    let u = e.add_principal(1);
    refresh(&mut e, &mut sub, u, &[(1, Nanos::ZERO), (2, Nanos::ZERO)]);
    e.add_member(5, 1, Nanos::ZERO);
    idle_quantum(&mut e, &mut sub);
    let staged = e.pending_signals().to_vec();
    assert_eq!(
        staged,
        [
            (1, Signal::Continue),
            (2, Signal::Continue),
            (5, Signal::Continue)
        ]
    );
    // A group registered since is ineligible: its joiners are stopped.
    let w = e.add_principal(1);
    let mut sink = RecordingSink::new();
    let listing = [(7, Nanos::ZERO), (8, Nanos::ZERO)];
    assert_eq!(e.set_membership(&mut sub, w, &listing, &mut sink), Some(2));
    assert_eq!(e.pending_signals(), staged);
    e.apply_pending_signals(&mut sub, &mut sink).unwrap();
    let sent: Vec<(u32, Signal)> = sink
        .events
        .iter()
        .filter_map(|ev| match *ev {
            Event::SignalSent { member, signal, .. } => Some((member, signal)),
            _ => None,
        })
        .collect();
    let mut want = vec![(7, Signal::Stop), (8, Signal::Stop)];
    want.extend(staged);
    assert_eq!(sent, want);
}

#[test]
fn member_consumption_aggregates() {
    let (mut e, mut sub) = group_engine();
    let u = e.add_principal(2);
    let v = e.add_principal(2);
    refresh(&mut e, &mut sub, u, &[(1, Nanos::ZERO), (2, Nanos::ZERO)]);
    refresh(&mut e, &mut sub, v, &[(3, Nanos::ZERO)]);
    complete(&mut e, &mut sub); // both eligible (count=1)
    idle_quantum(&mut e, &mut sub); // count=2, none due (ceil(2)=2 → due at 3)
                                    // u's two members consumed 8 and 7 ms; v's one member 5 ms.
    for (m, ms) in [(1, 8), (2, 7), (3, 5)] {
        reads(&mut sub, m, ms, false);
    }
    assert_eq!(begin(&mut e, &mut sub), 2, "count=3: both due");
    complete(&mut e, &mut sub);
    // u: 15ms = 1.5 quanta consumed of allowance 2 → 0.5 left.
    assert!((e.allowance(u).unwrap() - 0.5).abs() < 1e-9);
    assert!((e.allowance(v).unwrap() - 1.5).abs() < 1e-9);
}

#[test]
fn membership_churn_does_not_lose_or_invent_cpu() {
    let (mut e, mut sub) = group_engine();
    let u = e.add_principal(4);
    refresh(&mut e, &mut sub, u, &[(1, Nanos::ZERO)]);
    complete(&mut e, &mut sub); // eligible

    // Member 1 exits after consuming 10ms; member 2 joins having already
    // consumed 500ms under some other ownership.
    for _ in 0..3 {
        idle_quantum(&mut e, &mut sub);
    }
    reads(&mut sub, 1, 10, false);
    assert_eq!(
        begin(&mut e, &mut sub),
        1,
        "count=5: due (ceil(4)=4 after count=1)"
    );
    complete(&mut e, &mut sub);
    let sent = refresh(&mut e, &mut sub, u, &[(2, Nanos::from_millis(500))]);
    assert_eq!(sent, Some(0), "principal is eligible");
    assert_eq!(e.members(u), Some(vec![2]));
    // Member 2 consumes 5ms more (cumulative 505).
    for _ in 0..2 {
        idle_quantum(&mut e, &mut sub);
    }
    reads(&mut sub, 2, 505, false);
    assert_eq!(
        begin(&mut e, &mut sub),
        1,
        "due again after ceil(3)=3 quanta"
    );
    complete(&mut e, &mut sub);
    // Total charged: 10ms + 5ms = 1.5 quanta; allowance 4 - 1.5 = 2.5.
    assert!((e.allowance(u).unwrap() - 2.5).abs() < 1e-9);
}

#[test]
fn a_member_listed_twice_counts_once_at_its_first_listing() {
    let (mut e, mut sub) = group_engine();
    let u = e.add_principal(4);
    refresh(&mut e, &mut sub, u, &[(1, Nanos::ZERO)]);
    complete(&mut e, &mut sub);
    // At this refresh member 1 reads 25 ms, and joiner 2 reads 5 ms at
    // its first listing.
    let listing = [
        (1, Nanos::from_millis(25)),
        (2, Nanos::from_millis(5)),
        (1, Nanos::from_millis(25)),
        (2, Nanos::ZERO),
    ];
    assert_eq!(refresh(&mut e, &mut sub, u, &listing), Some(0));
    assert_eq!(e.members(u), Some(vec![1, 2]));
    for _ in 0..3 {
        idle_quantum(&mut e, &mut sub);
    }
    reads(&mut sub, 1, 30, false);
    reads(&mut sub, 2, 10, false);
    assert_eq!(begin(&mut e, &mut sub), 1);
    complete(&mut e, &mut sub);
    // Charged 30 ms since registration plus 5 ms since joining:
    // 4 − 3.5 = 0.5 quanta left.
    assert!((e.allowance(u).unwrap() - 0.5).abs() < 1e-9);
}

#[test]
fn joining_a_suspended_principal_means_suspension() {
    let (mut e, mut sub) = group_engine();
    let u = e.add_principal(1);
    let _v = e.add_principal(9);
    refresh(&mut e, &mut sub, u, &[(1, Nanos::ZERO)]);
    complete(&mut e, &mut sub); // eligible, count=1, due at 2
    reads(&mut sub, 1, 10, false);
    assert_eq!(
        begin(&mut e, &mut sub),
        1,
        "only u due (v due at ceil(9)+1)"
    );
    // u overconsumes: suspended.
    complete(&mut e, &mut sub);
    assert_eq!(e.pending_signals(), [(1, Signal::Stop)]);
    // A new worker is forked into the suspended principal.
    let mut sink = RecordingSink::new();
    let listing = [(1, Nanos::from_millis(10)), (7, Nanos::ZERO)];
    assert_eq!(e.set_membership(&mut sub, u, &listing, &mut sink), Some(1));
    // And one leaves while suspended: it must be resumed.
    let listing = [(7, Nanos::ZERO)];
    assert_eq!(e.set_membership(&mut sub, u, &listing, &mut sink), Some(1));
    let sent: Vec<(u32, Signal)> = (sink.events.iter())
        .filter_map(|ev| match *ev {
            Event::SignalSent { member, signal, .. } => Some((member, signal)),
            _ => None,
        })
        .collect();
    assert_eq!(sent, [(7, Signal::Stop), (1, Signal::Continue)]);
}

#[test]
fn principal_blocked_only_when_all_members_blocked() {
    let (mut e, mut sub) = group_engine();
    let u = e.add_principal(2);
    refresh(&mut e, &mut sub, u, &[(1, Nanos::ZERO), (2, Nanos::ZERO)]);
    complete(&mut e, &mut sub);
    idle_quantum(&mut e, &mut sub);
    // Due: one member runnable → principal not blocked → no penalty.
    reads(&mut sub, 1, 0, true);
    reads(&mut sub, 2, 0, false);
    begin(&mut e, &mut sub);
    complete(&mut e, &mut sub);
    assert!((e.allowance(u).unwrap() - 2.0).abs() < 1e-9);
    // Due again after ceil(2)=2 quanta: both blocked → one-quantum
    // penalty.
    idle_quantum(&mut e, &mut sub);
    reads(&mut sub, 2, 0, true);
    assert_eq!(begin(&mut e, &mut sub), 1);
    complete(&mut e, &mut sub);
    assert!((e.allowance(u).unwrap() - 1.0).abs() < 1e-9);
}

#[test]
fn remove_principal_returns_members() {
    let (mut e, mut sub) = group_engine();
    let u = e.add_principal(1);
    refresh(&mut e, &mut sub, u, &[(5, Nanos::ZERO), (6, Nanos::ZERO)]);
    let members = e.remove_principal(u).unwrap();
    assert_eq!(members, vec![5, 6]);
    assert!(e.proc_ids().is_empty());
    assert!(e.remove_principal(u).is_none());
}

#[test]
fn empty_principal_is_never_blocked() {
    // A principal with no members reports an empty reading; it must not
    // receive the blocked penalty.
    let (mut e, mut sub) = group_engine();
    let u = e.add_principal(1);
    complete(&mut e, &mut sub); // eligible
    begin(&mut e, &mut sub);
    assert_eq!(e.due().iter().collect::<Vec<_>>(), vec![(u, &[][..])]);
    complete(&mut e, &mut sub);
    assert!((e.allowance(u).unwrap() - 1.0).abs() < 1e-9);
}

// --- faults: repair from evidence, retry with the current intent --------

/// Two fixed principals at 1:`share_b` on members 1 and 2, over a mock
/// that runs every unstopped member full time.
fn two_members(share_b: u64) -> (Engine<u32>, MockSubstrate, ProcId) {
    let cfg = AlpsConfig::new(Nanos::from_millis(10));
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    let mut sub = MockSubstrate::default();
    sub.add(1);
    sub.add(2);
    let a = engine.add_member(1, 1, Nanos::ZERO);
    engine.add_member(2, share_b, Nanos::ZERO);
    (engine, sub, a)
}

fn quantum(engine: &mut Engine<u32>, sub: &mut MockSubstrate, sink: &mut RecordingSink<u32>) {
    sub.advance(Nanos::from_millis(10));
    engine.run_quantum(sub, sink).unwrap();
}

/// The signal events addressed to member 1.
fn signals_to_1(sink: &RecordingSink<u32>) -> Vec<Event<u32>> {
    sink.events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::SignalSent { member: 1, .. }
                    | Event::SignalFault { member: 1, .. }
                    | Event::SignalRetried { member: 1, .. }
            )
        })
        .cloned()
        .collect()
}

/// A `Continue` reported delivered but lost leaves its member stopped
/// while its principal is eligible. The member's next measurement reads
/// it stopped, and the engine sends `Continue` again in that quantum.
#[test]
fn a_lost_continue_is_resent_when_its_member_is_read_stopped() {
    let (mut engine, mut sub, a) = two_members(3);
    let mut sink = RecordingSink::new();
    // At 1:3 over a 40 ms cycle, A is suspended at quantum 2 and resumed
    // by the boundary at quantum 4, whose `Continue` is lost.
    for k in 1..=4 {
        if k == 4 {
            sub.lose.insert(1);
        }
        quantum(&mut engine, &mut sub, &mut sink);
    }
    assert_eq!(engine.last_transitions(), [Transition::Resume(a)]);
    assert!(sub.stopped.contains(&1), "the Continue was lost");
    // An allowance of one quantum: A is measured at the next quantum.
    sub.advance(Nanos::from_millis(10));
    engine.begin_quantum(&mut sub, &mut sink).unwrap();
    assert_eq!(engine.due().members(), [1]);
    engine.complete_quantum(&mut sub, &mut sink).unwrap();
    assert_eq!(engine.pending_signals(), [(1, Signal::Continue)]);
    engine.apply_pending_signals(&mut sub, &mut sink).unwrap();
    assert!(!sub.stopped.contains(&1));
    assert_eq!(engine.stats().reasserted, 1);
    // Repaired, nothing is re-sent again.
    for _ in 0..40 {
        quantum(&mut engine, &mut sub, &mut sink);
    }
    assert_eq!(engine.stats().reasserted, 1);
}

/// A failed delivery is retried a quantum later with its principal's
/// intent at that time. Here A's `Stop` faults, and the next boundary
/// resumes A before the retry: the retry is A's `Continue`, and no stale
/// `Stop` goes out. A later `Stop` that faults is retried as a `Stop`.
#[test]
fn a_failed_delivery_is_retried_with_the_principals_current_intent() {
    let (mut engine, mut sub, a) = two_members(2);
    let mut sink = RecordingSink::new();
    quantum(&mut engine, &mut sub, &mut sink);
    sub.refuse.insert(1, 1);
    quantum(&mut engine, &mut sub, &mut sink);
    assert_eq!(engine.last_transitions(), [Transition::Suspend(a)]);
    sink.events.clear();
    quantum(&mut engine, &mut sub, &mut sink);
    assert_eq!(engine.last_transitions(), [Transition::Resume(a)]);
    let cont = Signal::Continue;
    assert_eq!(
        signals_to_1(&sink),
        [
            Event::SignalRetried {
                member: 1,
                signal: cont
            },
            Event::SignalSent {
                member: 1,
                signal: cont,
                delivered: true
            },
        ]
    );
    // Quantum 4 suspends A again; this `Stop` faults too, and A is still
    // ineligible when its retry comes due.
    sub.refuse.insert(1, 1);
    quantum(&mut engine, &mut sub, &mut sink);
    assert_eq!(engine.last_transitions(), [Transition::Suspend(a)]);
    sink.events.clear();
    quantum(&mut engine, &mut sub, &mut sink);
    let stop = Signal::Stop;
    assert_eq!(
        signals_to_1(&sink),
        [
            Event::SignalRetried {
                member: 1,
                signal: stop
            },
            Event::SignalSent {
                member: 1,
                signal: stop,
                delivered: true
            },
        ]
    );
    assert!(sub.stopped.contains(&1));
    let stats = engine.stats();
    assert_eq!(
        (stats.signal_faults, stats.retries, stats.quarantined),
        (2, 2, 0)
    );
}

/// Three consecutive faulting deliveries quarantine the member; two do
/// not.
#[test]
fn three_consecutive_delivery_faults_quarantine_the_member() {
    for (faults, quarantined) in [(2, 0), (3, 1)] {
        let (mut engine, mut sub, a) = two_members(3);
        let mut sink = RecordingSink::new();
        quantum(&mut engine, &mut sub, &mut sink);
        // Quantum 2's `Stop`, its retry at quantum 3, then the boundary's
        // `Continue` at quantum 4.
        sub.refuse.insert(1, faults);
        for _ in 2..=4 {
            quantum(&mut engine, &mut sub, &mut sink);
        }
        let stats = engine.stats();
        assert_eq!(stats.signal_faults, u64::from(faults));
        assert_eq!(stats.quarantined, quarantined, "{faults} faults");
        assert_eq!(engine.share(a).is_none(), quarantined == 1);
        assert_eq!(engine.principal_of(1).is_none(), quarantined == 1);
    }
}
