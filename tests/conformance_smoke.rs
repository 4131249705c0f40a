//! The fast slice of the spec-oracle differential, so that `cargo test -q`
//! at the root exercises the reference the production scheduler is held
//! to. The full matrix lives in `crates/alps-conformance/tests/`.

use alps_conformance::harness::{run_core_schedule, run_engine_schedule, EngineMode};
use alps_core::{AlpsConfig, Nanos};

fn config(lazy: bool) -> AlpsConfig {
    AlpsConfig::new(Nanos::from_millis(10))
        .with_lazy_measurement(lazy)
        .with_cycle_log(true)
}

#[test]
fn core_scheduler_matches_the_oracle() {
    let mut cycles = 0;
    for lazy in [true, false] {
        for seed in 0..8 {
            cycles += run_core_schedule(config(lazy), 0x5310_CE00 | seed, 60).cycles;
        }
    }
    assert!(
        cycles > 10,
        "schedules must cross cycle boundaries: {cycles}"
    );
}

#[test]
fn engine_matches_the_oracle_flat_and_with_principals() {
    let mut quanta = 0;
    for mode in [EngineMode::Flat, EngineMode::Principals] {
        for lazy in [true, false] {
            for seed in 0..8 {
                quanta += run_engine_schedule(config(lazy), mode, 0xE6_0000 | seed, 50).quanta;
            }
        }
    }
    assert!(quanta > 1_000, "too few quanta driven: {quanta}");
}
