//! `repro conformance` — drive the spec-oracle differential from the CLI.
//!
//! Runs the SMP-aware differential harness (production `AlpsScheduler` /
//! `Engine` vs the executable-spec oracle) on an M-CPU accounting
//! substrate with randomized migration churn, across the configuration
//! corners. Every assertion lives inside the harness — a completed run
//! *is* the pass — and when `--cpus M > 1` each seed is additionally
//! checked against its one-CPU baseline: the `DriveReport` fingerprint
//! folds every per-quantum observable, so report equality across M is
//! byte-identical behavior.

use alps_conformance::harness::{
    config_corners, run_core_schedule_smp, run_engine_schedule_smp, DriveReport,
};
use alps_core::Instrumentation;

use super::table::Table;
use crate::output::heading;

/// Run the conformance suite on a `cpus`-CPU accounting substrate.
/// Panics (non-zero exit) on any divergence; `quick` trims the seed
/// count for smoke runs.
pub fn conformance(quick: bool, cpus: usize) {
    assert!(cpus >= 1, "--cpus wants at least one CPU");
    let seeds: u64 = if quick { 8 } else { 32 };
    let len = 60;
    heading(&format!(
        "spec-oracle conformance: {cpus}-CPU accounting, {seeds} seeds x {} configs",
        config_corners().len()
    ));

    let table = Table::new(&[-28, 9, 8, 12, 9]);
    table.header(&["driver", "quanta", "cycles", "transitions", "peak"]);
    let mut invariance_checks = 0usize;

    let mut core = DriveReport::default();
    let mut engine = DriveReport::default();
    for (c, cfg) in config_corners().into_iter().enumerate() {
        for s in 0..seeds {
            let seed = 0xC0DE_0000_0000_0000 | (c as u64) << 32 | s;
            let rep = run_core_schedule_smp(cfg, seed, len, cpus);
            if cpus > 1 {
                assert_eq!(
                    rep,
                    run_core_schedule_smp(cfg, seed, len, 1),
                    "core outputs differ between 1 and {cpus} CPUs (seed {seed})"
                );
                invariance_checks += 1;
            }
            core.quanta += rep.quanta;
            core.cycles += rep.cycles;
            core.transitions += rep.transitions;
            core.peak_live = core.peak_live.max(rep.peak_live);

            let rep = run_engine_schedule_smp(cfg, Instrumentation::Exact, seed, len, cpus);
            if cpus > 1 {
                assert_eq!(
                    rep,
                    run_engine_schedule_smp(cfg, Instrumentation::Exact, seed, len, 1),
                    "engine outputs differ between 1 and {cpus} CPUs (seed {seed})"
                );
                invariance_checks += 1;
            }
            engine.quanta += rep.quanta;
            engine.cycles += rep.cycles;
            engine.transitions += rep.transitions;
            engine.peak_live = engine.peak_live.max(rep.peak_live);
        }
    }
    for (name, rep) in [("core vs oracle", &core), ("engine vs oracle", &engine)] {
        table.row(&[
            name.to_string(),
            rep.quanta.to_string(),
            rep.cycles.to_string(),
            rep.transitions.to_string(),
            rep.peak_live.to_string(),
        ]);
    }
    // A run that proved nothing is a configuration bug, not a pass.
    assert!(core.quanta > 0 && engine.quanta > 0);
    if cpus > 1 {
        println!(
            "\n{invariance_checks} fingerprint comparisons against the 1-CPU baseline: \
             all byte-identical"
        );
    }
    println!(
        "conformance: no divergence across {seeds} seeds x {} configs",
        config_corners().len()
    );
}
