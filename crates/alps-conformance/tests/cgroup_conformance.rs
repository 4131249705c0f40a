//! Differential conformance for the cgroup actuator: the production
//! engine driven over a `FakeCgroupFs`-backed `CgroupSubstrate` in
//! signal-equivalent (freezer) mode vs the reference `MockSubstrate`,
//! across randomized churn schedules — byte-identical due lists,
//! transitions, signals, event streams, cycle records, stats, and
//! allowance bit patterns, plus a frozen↔stopped / usage↔cpu state
//! cross-check after every op.
//!
//! Each schedule is seeded and deterministic; a failure message carries
//! the seed, so any divergence replays exactly.

use alps_conformance::actuator::run_cgroup_schedule;
use alps_conformance::harness::{config_corners, DriveReport};
use alps_core::{AlpsConfig, IoPolicy, Nanos};

const QUANTUM: Nanos = Nanos(10_000_000);

fn config(lazy: bool, io: IoPolicy) -> AlpsConfig {
    AlpsConfig::default()
        .with_quantum(QUANTUM)
        .with_lazy_measurement(lazy)
        .with_io_policy(io)
        .with_cycle_log(true)
}

/// The PR-path smoke matrix: 4 configurations × 25 seeds of churn
/// (spawns, removals, share changes, blocks, exits) with the cgroup
/// substrate held byte-identical to the mock.
#[test]
fn cgroup_substrate_matches_mock_substrate() {
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
        for s in 0..25u64 {
            let seed = 0xC6_0000_0000_0000 | (c as u64) << 32 | s;
            let rep = run_cgroup_schedule(cfg, seed, 50);
            total.quanta += rep.quanta;
            total.cycles += rep.cycles;
            total.transitions += rep.transitions;
            total.peak_live = total.peak_live.max(rep.peak_live);
        }
    }
    assert!(total.quanta > 5_000, "too few quanta: {}", total.quanta);
    assert!(total.cycles > 100, "too few cycles: {}", total.cycles);
    assert!(
        total.transitions > 500,
        "too few transitions: {}",
        total.transitions
    );
    assert!(
        total.peak_live >= 8,
        "population never grew: {}",
        total.peak_live
    );
}

/// Replayability: the same seed drives the same schedule to the same
/// report.
#[test]
fn cgroup_differential_runs_are_deterministic() {
    let cfg = config(true, IoPolicy::OneQuantumPenalty);
    assert_eq!(
        run_cgroup_schedule(cfg, 11, 50),
        run_cgroup_schedule(cfg, 11, 50)
    );
}

/// The nightly deep matrix: the full {lazy, eager} × I/O-policy grid ×
/// 80 seeds. Ignored on the PR path; CI's scheduled run executes it with
/// `--ignored`.
#[test]
#[ignore = "nightly: full randomized-schedule matrix (run with --ignored)"]
fn cgroup_substrate_matches_mock_across_full_matrix() {
    let mut total = DriveReport::default();
    let mut schedules = 0u64;
    for (c, cfg) in config_corners().into_iter().enumerate() {
        for s in 0..80u64 {
            let seed = 0xC6_F011_0000_0000 | (c as u64) << 32 | s;
            let rep = run_cgroup_schedule(cfg, seed, 60);
            total.quanta += rep.quanta;
            total.cycles += rep.cycles;
            total.transitions += rep.transitions;
            schedules += 1;
        }
    }
    assert!(schedules >= 480, "only {schedules} schedules driven");
    assert!(total.quanta > 25_000, "too few quanta: {}", total.quanta);
    assert!(total.cycles > 500, "too few cycles: {}", total.cycles);
}
