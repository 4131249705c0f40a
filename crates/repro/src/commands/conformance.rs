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
    config_corners, run_core_schedule, run_engine_schedule, DriveReport, EngineMode,
};
use alps_core::AlpsConfig;

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

    type Driver = fn(AlpsConfig, u64, usize, usize) -> DriveReport;
    let drivers: [(&str, Driver); 3] = [
        ("core vs oracle", run_core_schedule),
        ("engine flat", |cfg, seed, len, cpus| {
            run_engine_schedule(cfg, EngineMode::Flat, seed, len, cpus)
        }),
        ("engine groups", |cfg, seed, len, cpus| {
            run_engine_schedule(cfg, EngineMode::Principals, seed, len, cpus)
        }),
    ];
    let mut totals = [DriveReport::default(); 3];
    for (c, cfg) in config_corners().into_iter().enumerate() {
        for s in 0..seeds {
            let seed = 0xC0DE_0000_0000_0000 | (c as u64) << 32 | s;
            for ((name, run), total) in drivers.iter().zip(&mut totals) {
                let rep = run(cfg, seed, len, cpus);
                if cpus > 1 {
                    assert_eq!(
                        rep,
                        run(cfg, seed, len, 1),
                        "{name} outputs differ between 1 and {cpus} CPUs (seed {seed})"
                    );
                    invariance_checks += 1;
                }
                total.quanta += rep.quanta;
                total.cycles += rep.cycles;
                total.transitions += rep.transitions;
                total.peak_live = total.peak_live.max(rep.peak_live);
            }
        }
    }
    for ((name, _), rep) in drivers.iter().zip(&totals) {
        table.row(&[
            name.to_string(),
            rep.quanta.to_string(),
            rep.cycles.to_string(),
            rep.transitions.to_string(),
            rep.peak_live.to_string(),
        ]);
    }
    // A run that proved nothing is a configuration bug, not a pass.
    assert!(totals.iter().all(|rep| rep.quanta > 0));
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
