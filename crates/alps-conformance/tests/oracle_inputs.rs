//! Oracle inputs the schedule generator does not reach.
//!
//! [`alps_conformance::schedule::generate`] caps its population at 12 and
//! never mints a share above 8, so a generated schedule never parks a
//! deadline beyond the deadline wheel's first level, never runs hundreds
//! of quanta on one population, and never explores op mixes other than
//! its own. These cases feed such inputs to the same differential driver
//! ([`run_core_ops`]: production `AlpsScheduler` vs [`OracleScheduler`],
//! byte-compared after every op), and hold the production `Engine`'s
//! event trace, `EngineStats` and cycle log to [`OracleEngine`]'s over a
//! scripted 300-quantum run.
//!
//! [`OracleScheduler`]: alps_conformance::OracleScheduler

use alps_conformance::harness::{run_core_ops, MockProc, MockSubstrate};
use alps_conformance::schedule::Op;
use alps_conformance::OracleEngine;
use alps_core::{AlpsConfig, Engine, Instrumentation, Nanos, NullSink, RecordingSink};
use proptest::prelude::*;

const QUANTUM: Nanos = Nanos(10_000_000);

fn config(lazy: bool) -> AlpsConfig {
    AlpsConfig::new(QUANTUM)
        .with_lazy_measurement(lazy)
        .with_cycle_log(true)
}

/// Shares of 70, 200 and 5000 put the first lazy deadlines 70, 200 and
/// 5000 invocations out: past the wheel's 64-slot first level, and (5000
/// ≥ 64²) into its third. Each entry is parked, cascades down as its
/// window opens, and is popped exactly when the oracle's scan finds the
/// member due; share changes along the way supersede parked entries,
/// which must die lazily. Only due members are ever removed by the
/// driver, so every far member survives to its first far deadline.
#[test]
fn far_deadlines_parked_past_the_first_wheel_level_match_the_oracle() {
    let mut ops = vec![
        Op::Add { share: 200 },
        Op::Add { share: 70 },
        Op::Add { share: 5000 },
        Op::Add { share: 1 },
        Op::Add { share: 3 },
    ];
    for k in 0..3000u64 {
        ops.push(Op::Quantum { repeat: 4 });
        if k % 61 == 0 {
            ops.push(Op::Add { share: 1 + k % 5 });
        }
        if k % 97 == 0 {
            ops.push(Op::SetShare {
                victim: k,
                share: 150 + k % 100,
            });
        }
        if k % 211 == 0 {
            ops.push(Op::Add { share: 300 + k });
        }
    }
    for lazy in [true, false] {
        let rep = run_core_ops(config(lazy), &ops, 0xFA2_DEAD);
        assert_eq!(rep.quanta, 12_000);
        assert!(rep.transitions > 50, "{} transitions", rep.transitions);
    }
}

/// A deterministic churn schedule from a tiny LCG: after every quantum a
/// process may be added, removed or re-shared, for 250 quanta on a
/// population that starts at shares 1, 3 and 5.
#[test]
fn deterministic_churn_matches_the_oracle_for_250_quanta() {
    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 33
    };
    let mut ops = vec![
        Op::Add { share: 1 },
        Op::Add { share: 3 },
        Op::Add { share: 5 },
    ];
    for _ in 0..250 {
        ops.push(Op::Quantum { repeat: 1 });
        match next() % 11 {
            0 | 1 => ops.push(Op::Add {
                share: next() % 8 + 1,
            }),
            2 => ops.push(Op::Remove { victim: next() }),
            3 => ops.push(Op::SetShare {
                victim: next(),
                share: next() % 8 + 1,
            }),
            _ => {}
        }
    }
    for lazy in [true, false] {
        let rep = run_core_ops(config(lazy), &ops, 0xC4_0421);
        assert_eq!(rep.quanta, 250);
        assert!(rep.cycles > 0, "the fixture must cross cycle boundaries");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings of registration, deregistration, share
    /// changes and measured quanta — populations and shares beyond the
    /// generator's caps included — never separate production from the
    /// oracle.
    #[test]
    fn random_op_sequences_match_the_oracle(
        seed_shares in proptest::collection::vec(1u64..20, 1..6),
        raw_ops in proptest::collection::vec((0u8..=15, 1u64..400, 0u64..64, 1u32..6), 40..120),
        lazy in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let mut ops: Vec<Op> = seed_shares.iter().map(|&share| Op::Add { share }).collect();
        for &(kind, share, victim, repeat) in &raw_ops {
            ops.push(match kind {
                0 | 1 => Op::Add { share },
                2 => Op::Remove { victim },
                3 | 4 => Op::SetShare { victim, share },
                // Weight the mix toward measured quanta so cycles complete.
                _ => Op::Quantum { repeat },
            });
        }
        run_core_ops(config(lazy), &ops, seed);
    }
}

/// Engine-level differential over 300 quanta with member churn (a join
/// every 17 quanta, a death every 23, reaped): the full externally
/// visible story — the instrumentation event trace, the aggregate
/// `EngineStats`, the per-cycle records, and the substrate the signals
/// landed on — must be byte-identical between `Engine` and the oracle.
#[test]
fn engine_trace_stats_and_cycle_log_match_the_oracle_under_member_churn() {
    for lazy in [true, false] {
        let cfg = config(lazy);
        let mut prod: Engine<i32> = Engine::new(cfg, Instrumentation::Exact);
        let mut oracle: OracleEngine<i32> = OracleEngine::new(cfg);
        let mut sub_p = MockSubstrate::default();
        let mut sub_o = MockSubstrate::default();
        let mut sink_p = RecordingSink::new();
        let mut sink_o = RecordingSink::new();
        let mut members: Vec<i32> = Vec::new();
        let mut next_member: i32 = 0;
        let stopped = MockProc {
            cpu: Nanos::ZERO,
            blocked: false,
            gone: false,
            stopped: true,
        };

        for k in 0..300u64 {
            let joins = match k {
                0 => 3,
                _ if k % 17 == 0 => 1,
                _ => 0,
            };
            for _ in 0..joins {
                let m = next_member;
                next_member += 1;
                sub_p.procs.insert(m, stopped);
                sub_o.procs.insert(m, stopped);
                let share = (m % 5) as u64 + 1;
                assert_eq!(
                    prod.add_member(m, share, sub_p.now),
                    oracle.add_member(m, share, sub_o.now)
                );
                members.push(m);
            }
            if k % 23 == 0 && members.len() > 2 {
                let m = members.remove(k as usize % members.len());
                for sub in [&mut sub_p, &mut sub_o] {
                    sub.procs.get_mut(&m).expect("member was spawned").gone = true;
                }
            }
            // Advance the clock one quantum, charging runnable members.
            for sub in [&mut sub_p, &mut sub_o] {
                sub.now += QUANTUM;
                for p in sub.procs.values_mut() {
                    if !p.stopped && !p.gone {
                        p.cpu += QUANTUM;
                    }
                }
            }
            let t_p = prod.run_quantum(&mut sub_p, &mut sink_p).unwrap().to_vec();
            let t_o = oracle
                .run_quantum(&mut sub_o, &mut sink_o)
                .unwrap()
                .to_vec();
            assert_eq!(
                t_p, t_o,
                "transitions diverged at quantum {k} (lazy {lazy})"
            );
            assert_eq!(
                sub_p, sub_o,
                "substrates diverged at quantum {k} (lazy {lazy})"
            );
        }
        assert_eq!(prod.stats(), oracle.stats(), "EngineStats diverged");
        assert_eq!(prod.cycles(), oracle.cycles(), "cycle logs diverged");
        assert_eq!(
            sink_p.events.len(),
            sink_o.events.len(),
            "trace lengths diverged"
        );
        for (i, (a, b)) in sink_p.events.iter().zip(&sink_o.events).enumerate() {
            assert_eq!(a, b, "trace diverged at event {i} (lazy {lazy})");
        }
        assert!(
            prod.stats().cycles > 0,
            "fixture must cross cycle boundaries"
        );
        assert!(prod.stats().reaped > 0, "fixture must reap dead members");
    }
}

/// A refresh that lists a member twice counts it once, at its first
/// listing, in the oracle as in production: the member already present
/// keeps its baseline (so the CPU it used since its last reading is still
/// charged) and a joiner is seeded once. The schedule
/// generator never lists a member twice.
#[test]
fn a_member_listed_twice_counts_once_in_both_engines() {
    let ms = Nanos::from_millis;
    let cfg = AlpsConfig::new(QUANTUM);
    let mut prod: Engine<i32> = Engine::new(cfg, Instrumentation::Exact);
    let mut oracle: OracleEngine<i32> = OracleEngine::new(cfg);
    let (mut sub_p, mut sub_o) = (MockSubstrate::default(), MockSubstrate::default());
    let u = prod.add_principal(4);
    assert_eq!(oracle.add_principal(4), u);
    prod.set_membership(&mut sub_p, u, &[(1, Nanos::ZERO)], &mut NullSink);
    oracle.set_membership(&mut sub_o, u, &[(1, Nanos::ZERO)], &mut NullSink);
    // Complete the first invocation with nothing due: `u` turns eligible.
    let Ok(()) = prod.complete_quantum(&mut sub_p, &mut NullSink);
    let Ok(()) = oracle.complete_quantum(&mut sub_o, &mut NullSink);
    let listing = [(1, ms(25)), (2, ms(5)), (1, ms(25)), (2, Nanos::ZERO)];
    let sent = oracle.set_membership(&mut sub_o, u, &listing, &mut NullSink);
    assert_eq!(sent, Some(0), "an eligible group is sent nothing");
    assert_eq!(
        prod.set_membership(&mut sub_p, u, &listing, &mut NullSink),
        sent
    );
    assert_eq!(oracle.members(u), Some(vec![1, 2]));
    assert_eq!(prod.members(u), Some(vec![1, 2]));
    for _ in 0..3 {
        let Ok(_) = prod.run_quantum(&mut sub_p, &mut NullSink);
        let Ok(_) = oracle.run_quantum(&mut sub_o, &mut NullSink);
    }
    for (m, cpu) in [(1, 30), (2, 10)] {
        let running = MockProc {
            cpu: ms(cpu),
            blocked: false,
            gone: false,
            stopped: false,
        };
        sub_p.procs.insert(m, running);
    }
    sub_o.procs = sub_p.procs.clone();
    let Ok(_) = prod.begin_quantum(&mut sub_p, &mut NullSink);
    let Ok(_) = oracle.begin_quantum(&mut sub_o, &mut NullSink);
    assert_eq!(oracle.due(), [(u, vec![1, 2])]);
    assert_eq!(
        prod.due().iter().collect::<Vec<_>>(),
        vec![(u, &[1, 2][..])]
    );
    let Ok(()) = prod.complete_quantum(&mut sub_p, &mut NullSink);
    let Ok(()) = oracle.complete_quantum(&mut sub_o, &mut NullSink);
    // Charged 30 ms since registration plus 5 ms since joining.
    assert_eq!(oracle.allowance(u), Some(0.5));
    assert_eq!(prod.allowance(u), Some(0.5));
}

/// A pid listed by two principals is owned by the first, in the oracle as
/// in production: a group's refresh leaves out members another group or a
/// fixed principal already owns, and a fixed principal's membership
/// cannot be refreshed at all. The schedule generator never lists one pid
/// twice.
#[test]
fn a_member_listed_by_two_principals_stays_with_its_first_owner_in_both_engines() {
    let cfg = config(true);
    let mut prod: Engine<i32> = Engine::new(cfg, Instrumentation::Exact);
    let mut oracle: OracleEngine<i32> = OracleEngine::new(cfg);
    let (mut sub_p, mut sub_o) = (MockSubstrate::default(), MockSubstrate::default());
    let fixed = prod.add_member(9, 1, Nanos::ZERO);
    assert_eq!(oracle.add_member(9, 1, Nanos::ZERO), fixed);
    let (a, b) = (prod.add_principal(1), prod.add_principal(2));
    assert_eq!((oracle.add_principal(1), oracle.add_principal(2)), (a, b));
    let refreshes: [(_, &[(i32, Nanos)]); 5] = [
        (a, &[(7, Nanos::ZERO)]),
        (b, &[(7, Nanos::ZERO), (8, Nanos::ZERO), (9, Nanos::ZERO)]),
        (fixed, &[(7, Nanos::ZERO)]),
        (a, &[]),
        (b, &[(7, Nanos::ZERO), (8, Nanos::ZERO)]),
    ];
    for (id, listing) in refreshes {
        let sent = oracle.set_membership(&mut sub_o, id, listing, &mut NullSink);
        assert_eq!(
            prod.set_membership(&mut sub_p, id, listing, &mut NullSink),
            sent
        );
        for id in [fixed, a, b] {
            assert_eq!(prod.members(id), oracle.members(id));
        }
    }
    assert_eq!(prod.members(a), Some(vec![]));
    assert_eq!(prod.members(b), Some(vec![7, 8]));
    assert_eq!(prod.members(fixed), Some(vec![9]));
}
