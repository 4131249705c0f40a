//! `repro conformance` — drive the spec-oracle differential from the CLI.
//!
//! Runs the differential harness (production `AlpsScheduler` / `Engine`
//! vs the executable-spec oracle) across the configuration corners: the
//! bare scheduler, then the engine on a mock substrate with fixed
//! principals and with groups.
//! Every assertion lives inside the harness — a completed run *is* the
//! pass.

use alps_conformance::harness::{
    config_corners, run_core_schedule, run_engine_schedule, DriveReport, EngineMode,
};
use alps_core::AlpsConfig;

use super::table::Table;
use crate::output::heading;

/// Run the conformance suite. Panics (non-zero exit) on any divergence;
/// `quick` trims the seed count for smoke runs.
pub fn conformance(quick: bool) {
    let seeds: u64 = if quick { 8 } else { 32 };
    let len = 60;
    heading(&format!(
        "spec-oracle conformance: {seeds} seeds x {} configs",
        config_corners().len()
    ));

    let table = Table::new(&[-28, 9, 8, 12, 9]);
    table.header(&["driver", "quanta", "cycles", "transitions", "peak"]);

    type Driver = Box<dyn Fn(AlpsConfig, u64, usize) -> DriveReport>;
    let modes = [
        ("flat", EngineMode::Flat),
        ("groups", EngineMode::Principals),
    ];
    let mut drivers: Vec<(String, Driver)> =
        vec![("core vs oracle".to_string(), Box::new(run_core_schedule))];
    for (tag, mode) in modes {
        drivers.push((
            format!("engine {tag}"),
            Box::new(move |cfg, seed, len| run_engine_schedule(cfg, mode, seed, len)),
        ));
    }
    let mut totals = vec![DriveReport::default(); drivers.len()];
    for (c, cfg) in config_corners().into_iter().enumerate() {
        for s in 0..seeds {
            let seed = 0xC0DE_0000_0000_0000 | (c as u64) << 32 | s;
            for ((_, run), total) in drivers.iter().zip(&mut totals) {
                let rep = run(cfg, seed, len);
                total.quanta += rep.quanta;
                total.cycles += rep.cycles;
                total.transitions += rep.transitions;
                total.peak_live = total.peak_live.max(rep.peak_live);
            }
        }
    }
    for ((name, _), rep) in drivers.iter().zip(&totals) {
        table.row(&[
            name.clone(),
            rep.quanta.to_string(),
            rep.cycles.to_string(),
            rep.transitions.to_string(),
            rep.peak_live.to_string(),
        ]);
    }
    // A run that proved nothing is a configuration bug, not a pass.
    assert!(totals.iter().all(|rep| rep.quanta > 0));
    println!(
        "conformance: no divergence across {seeds} seeds x {} configs",
        config_corners().len()
    );
}
