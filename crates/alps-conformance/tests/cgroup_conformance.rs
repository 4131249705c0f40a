//! Differential conformance for the cgroup actuator: the production
//! engine driven over a `FakeCgroupFs`-backed `CgroupSubstrate` in every
//! actuator mode (freezer, weights, caps), with fixed principals and with
//! groups, held to `OracleEngine` across randomized churn schedules —
//! byte-identical due lists, transitions, signals, event streams, cycle
//! records, stats, and allowance bit patterns, plus the leaf state of
//! every member checked against the oracle's mock by the cgroup module's
//! intent-translation table after every op.
//!
//! Each schedule is seeded and deterministic; a failure message carries
//! the seed, so any divergence replays exactly.

use alps_conformance::actuator::run_cgroup_schedule;
use alps_conformance::harness::{config_corners, DriveReport, EngineMode};
use alps_core::{AlpsConfig, IoPolicy, Nanos};
use alps_os::cgroup::ActuatorMode;

const QUANTUM: Nanos = Nanos(10_000_000);

const ENGINE_MODES: [EngineMode; 2] = [EngineMode::Flat, EngineMode::Principals];

fn config(lazy: bool, io: IoPolicy) -> AlpsConfig {
    AlpsConfig::default()
        .with_quantum(QUANTUM)
        .with_lazy_measurement(lazy)
        .with_io_policy(io)
        .with_cycle_log(true)
}

/// The PR-path smoke matrix for one actuator mode: both engine modes ×
/// 4 configurations × 25 seeds of churn (spawns, removals, share changes,
/// blocks, exits, and for groups membership refreshes).
fn matches_the_oracle(actuator: ActuatorMode) {
    for mode in ENGINE_MODES {
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
                let rep = run_cgroup_schedule(actuator, cfg, mode, seed, 50);
                total.quanta += rep.quanta;
                total.cycles += rep.cycles;
                total.transitions += rep.transitions;
                total.peak_live = total.peak_live.max(rep.peak_live);
            }
        }
        let what = format!("{actuator} {mode:?}");
        assert!(total.quanta > 5_000, "{what}: {} quanta", total.quanta);
        assert!(total.cycles > 100, "{what}: {} cycles", total.cycles);
        assert!(
            total.transitions > 500,
            "{what}: {} transitions",
            total.transitions
        );
        assert!(
            total.peak_live >= 8,
            "{what}: population never grew: {}",
            total.peak_live
        );
    }
}

#[test]
fn freezer_actuator_matches_the_oracle() {
    matches_the_oracle(ActuatorMode::Signals);
}

#[test]
fn weights_actuator_matches_the_oracle() {
    matches_the_oracle(ActuatorMode::Weights);
}

#[test]
fn caps_actuator_matches_the_oracle() {
    matches_the_oracle(ActuatorMode::Caps);
}

/// Replayability: the same seed drives the same schedule to the same
/// report.
#[test]
fn cgroup_differential_runs_are_deterministic() {
    let cfg = config(true, IoPolicy::OneQuantumPenalty);
    for actuator in ActuatorMode::ALL {
        assert_eq!(
            run_cgroup_schedule(actuator, cfg, EngineMode::Principals, 11, 50),
            run_cgroup_schedule(actuator, cfg, EngineMode::Principals, 11, 50)
        );
    }
}

/// The nightly deep matrix: every actuator mode × both engine modes ×
/// the full {lazy, eager} × I/O-policy grid × 80 seeds. Ignored on the PR
/// path; CI's scheduled run executes it with `--ignored`.
#[test]
#[ignore = "nightly: full randomized-schedule matrix (run with --ignored)"]
fn every_cgroup_actuator_matches_the_oracle_across_full_matrix() {
    for actuator in ActuatorMode::ALL {
        for mode in ENGINE_MODES {
            let mut total = DriveReport::default();
            let mut schedules = 0u64;
            for (c, cfg) in config_corners().into_iter().enumerate() {
                for s in 0..80u64 {
                    let seed = 0xC6_F011_0000_0000 | (c as u64) << 32 | s;
                    let rep = run_cgroup_schedule(actuator, cfg, mode, seed, 60);
                    total.quanta += rep.quanta;
                    total.cycles += rep.cycles;
                    total.transitions += rep.transitions;
                    schedules += 1;
                }
            }
            let what = format!("{actuator} {mode:?}");
            assert!(schedules >= 480, "{what}: only {schedules} schedules");
            assert!(total.quanta > 25_000, "{what}: {} quanta", total.quanta);
            assert!(total.cycles > 500, "{what}: {} cycles", total.cycles);
        }
    }
}
