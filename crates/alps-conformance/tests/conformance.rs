//! Differential conformance matrix: oracle vs production across
//! {lazy, eager} x I/O policies x {flat, principals}, over well over a
//! thousand generated schedules.
//!
//! Each schedule is seeded and deterministic; a failure message carries
//! the seed, so any divergence replays exactly.

use alps_conformance::harness::{
    config_corners, run_core_schedule, run_engine_schedule, DriveReport, EngineMode,
};
use alps_core::{AlpsConfig, IoPolicy, Nanos};

const QUANTUM: Nanos = Nanos(10_000_000);

fn config(lazy: bool, io: IoPolicy) -> AlpsConfig {
    AlpsConfig::default()
        .with_quantum(QUANTUM)
        .with_lazy_measurement(lazy)
        .with_io_policy(io)
        .with_cycle_log(true)
}

/// The headline suite: 6 core configurations x 200 seeds = 1200
/// fault-free schedules, every transition and cycle record byte-compared.
#[test]
fn core_scheduler_matches_oracle_across_matrix() {
    let mut total = DriveReport::default();
    let mut schedules = 0u64;
    for (c, cfg) in config_corners().into_iter().enumerate() {
        for s in 0..200u64 {
            let seed = (c as u64) << 32 | s;
            let rep = run_core_schedule(cfg, seed, 60);
            total.quanta += rep.quanta;
            total.cycles += rep.cycles;
            total.transitions += rep.transitions;
            total.peak_live = total.peak_live.max(rep.peak_live);
            schedules += 1;
        }
    }
    // The acceptance bar: at least a thousand schedules, and the schedules
    // actually exercised the interesting regimes (cycles complete,
    // eligibility flips, populations grow).
    assert!(schedules >= 1000, "only {schedules} schedules driven");
    assert!(total.quanta > 50_000, "too few quanta: {}", total.quanta);
    assert!(total.cycles > 1_000, "too few cycles: {}", total.cycles);
    assert!(
        total.transitions > 10_000,
        "too few transitions: {}",
        total.transitions
    );
    assert!(
        total.peak_live >= 8,
        "population never grew: {}",
        total.peak_live
    );
}

/// Engine-level differential: flat single-member principals with exact
/// instrumentation and reaping, over twin mock substrates.
#[test]
fn flat_engine_matches_oracle() {
    let mut total = DriveReport::default();
    for (c, cfg) in [
        config(true, IoPolicy::OneQuantumPenalty),
        config(true, IoPolicy::ForfeitAllowance),
        config(false, IoPolicy::NoPenalty),
        config(false, IoPolicy::ForfeitAllowance),
    ]
    .into_iter()
    .enumerate()
    {
        for s in 0..50u64 {
            let seed = 0xF1A7_0000_0000_0000 | (c as u64) << 32 | s;
            let rep = run_engine_schedule(cfg, EngineMode::Flat, seed, 50);
            total.quanta += rep.quanta;
            total.cycles += rep.cycles;
            total.transitions += rep.transitions;
        }
    }
    assert!(total.quanta > 10_000, "too few quanta: {}", total.quanta);
    assert!(total.cycles > 200, "too few cycles: {}", total.cycles);
    assert!(
        total.transitions > 1_000,
        "too few transitions: {}",
        total.transitions
    );
}

/// Engine-level differential: groups with membership churn, their exact
/// cycle log (the CPU charged to each group between boundaries, never its
/// current members' lifetimes) byte-compared with the oracle's.
#[test]
fn principal_engine_matches_oracle() {
    let mut total = DriveReport::default();
    for (c, cfg) in [
        config(true, IoPolicy::OneQuantumPenalty),
        config(true, IoPolicy::NoPenalty),
        config(false, IoPolicy::ForfeitAllowance),
        config(false, IoPolicy::NoPenalty),
    ]
    .into_iter()
    .enumerate()
    {
        for s in 0..50u64 {
            let seed = 0x9E1A_0000_0000_0000 | (c as u64) << 32 | s;
            let rep = run_engine_schedule(cfg, EngineMode::Principals, seed, 50);
            total.quanta += rep.quanta;
            total.cycles += rep.cycles;
            total.transitions += rep.transitions;
        }
    }
    assert!(total.quanta > 10_000, "too few quanta: {}", total.quanta);
    assert!(total.cycles > 200, "too few cycles: {}", total.cycles);
    assert!(
        total.transitions > 1_000,
        "too few transitions: {}",
        total.transitions
    );
}

/// The same seed drives the same schedule to the same report — the whole
/// suite is replayable from a failure message.
#[test]
fn differential_runs_are_deterministic() {
    let cfg = config(true, IoPolicy::OneQuantumPenalty);
    assert_eq!(run_core_schedule(cfg, 7, 60), run_core_schedule(cfg, 7, 60));
    assert_eq!(
        run_engine_schedule(cfg, EngineMode::Principals, 7, 50),
        run_engine_schedule(cfg, EngineMode::Principals, 7, 50),
    );
}
