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
            0x271c_3295_2931_55a0,
            0xc00a_88b8_19e7_2a64,
            0xa734_2412_f6d1_08c8,
            0xaf45_9a94_01e5_31e8,
            0xfb2e_4f97_b43e_abc3,
            0xc4ef_70e5_2149_b0eb,
        ],
        |cfg, seed| run_core_schedule(cfg, seed, 60),
    );
}

#[test]
fn engine_schedules_are_pinned() {
    assert_pinned(
        "run_engine_schedule",
        10,
        [
            0x89af_e675_ec26_dbaa,
            0x20a7_be0d_aa00_770b,
            0xdd09_3b21_4c32_22fd,
            0xf991_45ea_16e0_02c7,
            0x891f_db38_6732_ae09,
            0xf297_a371_d63f_febb,
        ],
        |cfg, seed| run_engine_schedule(cfg, EngineMode::Flat, seed, 50),
    );
}
