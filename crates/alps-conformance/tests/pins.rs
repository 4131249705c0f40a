//! Pinned default-configuration behavior of the production scheduler.
//!
//! The differential suites prove production == oracle; these pins prove
//! production == *what production did when the constants were committed*.
//! Each folds the [`DriveReport::fingerprint`]s of a block of seeded
//! schedules — every quantum's due list, transitions, cycle flag, and
//! allowance bit patterns — into one word. A refactor of the scheduler's
//! storage or due-set discovery that is truly a representation change
//! leaves every word where it is.
//!
//! To re-pin after an *intended* behavior change, run the suite and copy
//! the `got` values from the failure messages.

use alps_conformance::harness::{run_core_schedule, run_engine_schedule, DriveReport, EngineMode};
use alps_core::{AlpsConfig, IoPolicy, Nanos};

const QUANTUM: Nanos = Nanos(10_000_000);

/// {lazy, eager} × every I/O policy, in pin-table order.
fn corners() -> Vec<AlpsConfig> {
    let mut out = Vec::new();
    for lazy in [true, false] {
        for io in [
            IoPolicy::OneQuantumPenalty,
            IoPolicy::NoPenalty,
            IoPolicy::ForfeitAllowance,
        ] {
            out.push(
                AlpsConfig::default()
                    .with_quantum(QUANTUM)
                    .with_lazy_measurement(lazy)
                    .with_io_policy(io)
                    .with_cycle_log(true),
            );
        }
    }
    out
}

/// Fold `seeds` reports of `run` into one word per configuration corner
/// and compare against `pins`.
#[track_caller]
fn assert_pinned(
    what: &str,
    seeds: u64,
    pins: [u64; 6],
    run: impl Fn(AlpsConfig, u64) -> DriveReport,
) {
    let got: Vec<u64> = corners()
        .into_iter()
        .map(|cfg| {
            let mut word = 0u64;
            for seed in 0..seeds {
                let rep = run(cfg, 0x91A5_0000_0000_0000 | seed);
                assert!(rep.fingerprint != 0, "fingerprint never folded");
                word = word.wrapping_mul(0x0000_0100_0000_01B3) ^ rep.fingerprint;
            }
            word
        })
        .collect();
    assert_eq!(
        got,
        pins,
        "{what}: fingerprints moved — got {:#018x?}",
        got.as_slice()
    );
}

#[test]
fn core_schedules_are_pinned() {
    assert_pinned(
        "run_core_schedule",
        20,
        [
            0xf7d9_f1b8_8883_ecdb,
            0x319a_43cb_8c81_bcf9,
            0xf6d0_b268_be6c_e1e7,
            0x760b_1fcc_7d7a_0174,
            0x75d9_5b55_36b3_7a4c,
            0xd168_a477_6eb9_4443,
        ],
        |cfg, seed| run_core_schedule(cfg, seed, 60, 2),
    );
}

#[test]
fn engine_schedules_are_pinned() {
    assert_pinned(
        "run_engine_schedule",
        10,
        [
            0xeb9c_56de_4b13_5049,
            0x4480_5f0a_b3d1_5e3f,
            0x923b_66ff_e126_c605,
            0xed86_f5c8_682e_b661,
            0xd3bd_fb9b_14cb_ee0e,
            0x1b31_c3ab_51db_9112,
        ],
        |cfg, seed| run_engine_schedule(cfg, EngineMode::Flat, seed, 50, 2),
    );
}
