//! SMP conformance: oracle vs production on merged M-CPU accounting.
//!
//! The ALPS algorithm never sees CPUs — only merged cumulative per-member
//! totals — so multi-core share enforcement reduces to two claims, both
//! byte-checked here for M ∈ {1, 2, 4}:
//!
//! 1. production and oracle stay lockstep-identical when the accounting
//!    underneath them is an M-CPU split with randomized migration churn
//!    (conservation of the split asserted at every charge);
//! 2. everything the scheduler emits — due lists, transitions, allowance
//!    bit patterns — is *invariant in M* for a fixed seed, because the
//!    merged readings are. The `DriveReport` fingerprint folds every
//!    per-quantum observable, so report equality across M is exactly
//!    that statement.

use alps_conformance::harness::{run_core_schedule, run_engine_schedule, DriveReport, EngineMode};
use alps_core::{AlpsConfig, IoPolicy, Nanos};

const QUANTUM: Nanos = Nanos(10_000_000);
const CPU_COUNTS: [usize; 3] = [1, 2, 4];

fn config(lazy: bool, io: IoPolicy) -> AlpsConfig {
    AlpsConfig::default()
        .with_quantum(QUANTUM)
        .with_lazy_measurement(lazy)
        .with_io_policy(io)
        .with_cycle_log(true)
}

/// Core-level differential under migration churn, across the laziness ×
/// I/O-policy corners, at every CPU count.
#[test]
fn core_scheduler_matches_oracle_on_smp_accounting() {
    for cpus in CPU_COUNTS {
        let mut total = DriveReport::default();
        for (c, cfg) in [
            config(true, IoPolicy::OneQuantumPenalty),
            config(true, IoPolicy::NoPenalty),
            config(false, IoPolicy::NoPenalty),
            config(false, IoPolicy::ForfeitAllowance),
        ]
        .into_iter()
        .enumerate()
        {
            for s in 0..50u64 {
                let seed = 0x50CE_0000_0000_0000 | (c as u64) << 32 | s;
                let rep = run_core_schedule(cfg, seed, 60, cpus);
                total.quanta += rep.quanta;
                total.cycles += rep.cycles;
                total.transitions += rep.transitions;
                total.peak_live = total.peak_live.max(rep.peak_live);
            }
        }
        assert!(
            total.quanta > 10_000,
            "cpus {cpus}: {} quanta",
            total.quanta
        );
        assert!(total.cycles > 200, "cpus {cpus}: {} cycles", total.cycles);
        assert!(
            total.transitions > 1_000,
            "cpus {cpus}: {} transitions",
            total.transitions
        );
        assert!(total.peak_live >= 8, "population never grew");
    }
}

/// The load-bearing strictness gate: for a fixed seed the scheduler's
/// entire observable behavior is byte-identical at M = 1, 2, and 4 —
/// the SMP generalization is not a fork.
#[test]
fn scheduler_outputs_are_invariant_in_cpu_count() {
    for cfg in [
        config(true, IoPolicy::OneQuantumPenalty),
        config(false, IoPolicy::ForfeitAllowance),
    ] {
        for seed in 0..20u64 {
            let baseline = run_core_schedule(cfg, seed, 60, 1);
            assert!(baseline.fingerprint != 0, "fingerprint never folded");
            for cpus in [2, 4] {
                assert_eq!(
                    run_core_schedule(cfg, seed, 60, cpus),
                    baseline,
                    "outputs differ between 1 and {cpus} CPUs (seed {seed})"
                );
            }
        }
    }
}

/// Engine-level differential over twin M-CPU substrates: merged reads,
/// migration churn, auto-reap, signal delivery — all byte-compared, and
/// invariant in M — for fixed principals and for groups whose §5
/// membership refreshes spawn members onto a migrating machine.
#[test]
fn engine_matches_oracle_on_smp_substrates() {
    for mode in [EngineMode::Flat, EngineMode::Principals] {
        for (c, cfg) in [
            config(true, IoPolicy::OneQuantumPenalty),
            config(false, IoPolicy::NoPenalty),
        ]
        .into_iter()
        .enumerate()
        {
            for s in 0..25u64 {
                let seed = 0xE5E5_0000_0000_0000 | (c as u64) << 32 | s;
                let run = |cpus| run_engine_schedule(cfg, mode, seed, 50, cpus);
                let baseline = run(1);
                for cpus in [2, 4] {
                    assert_eq!(
                        run(cpus),
                        baseline,
                        "{mode:?} engine outputs differ between 1 and {cpus} CPUs (seed {seed})"
                    );
                }
            }
        }
    }
}

/// Same seed, same report: SMP differential runs replay exactly.
#[test]
fn smp_runs_are_deterministic() {
    let cfg = config(true, IoPolicy::OneQuantumPenalty);
    assert_eq!(
        run_core_schedule(cfg, 7, 60, 2),
        run_core_schedule(cfg, 7, 60, 2)
    );
    assert_eq!(
        run_engine_schedule(cfg, EngineMode::Flat, 7, 50, 2),
        run_engine_schedule(cfg, EngineMode::Flat, 7, 50, 2)
    );
}
