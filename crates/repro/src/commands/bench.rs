//! `repro bench` — render the committed kernsim scalability report.
//!
//! Reads `BENCH_kernsim.json` (written by `bench-scalability`, see
//! EXPERIMENTS.md) and prints the sweep as a table: per-point lifecycle
//! timings for each `(N, lazy, cpus)`, the eager-over-lazy supervisor
//! overhead per N, the SMP series against its one-CPU points, and the
//! sparse-activity series (up to 10⁶ registered members, ~10³ active —
//! the deadline wheel's flat-in-N regime, reported as ns per quantum and
//! ns per due member).

use alps_bench::scalability::{
    run_sparse_best_of, run_sweep, sparse_ns, sparse_quanta, sweep_specs, BenchPoint, BenchReport,
    SparsePoint, SPARSE_ACTIVE,
};
use alps_metrics::regression::linear_fit;

use super::table::Table;
use crate::output::{fmt, heading};

/// Default location of the committed report, relative to the repo root.
/// Override with the `ALPS_BENCH_REPORT` environment variable.
pub const REPORT_PATH: &str = "BENCH_kernsim.json";

/// Print the kernsim scalability report; with `check`, also run a fresh
/// fast sweep and compare it against the committed report's trend.
/// `strict` turns the soft gate hard: any point outside tolerance exits
/// nonzero (the default remains exit 0 — the committed numbers came
/// from a different host than the checker's).
pub fn bench(check: bool, strict: bool) {
    let path = std::env::var("ALPS_BENCH_REPORT").unwrap_or_else(|_| REPORT_PATH.to_string());
    heading(&format!("kernsim scalability sweep ({path})"));
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "cannot read {path}: {e}\n\
                 regenerate it with: cargo run --release -p alps-bench --bin bench-scalability"
            );
            return;
        }
    };
    let report = match BenchReport::parse(&json) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return;
        }
    };
    println!(
        "quantum {} ms, share {} per process{}",
        report.quantum_ms,
        report.share,
        if report.fast { ", FAST (CI smoke)" } else { "" }
    );
    println!(
        "sweep: {:.3}s wall on {} thread{} ({} host cores); serial estimate {:.3}s ({:.2}x speedup)",
        report.sweep_wall_seconds,
        report.threads,
        if report.threads == 1 { "" } else { "s" },
        report.host_cores,
        report.serial_wall_estimate_seconds,
        report.parallel_speedup
    );
    let table = Table::new(&[5, -5, 5, 6, 10, 10, 10, 12, 13, 9, 11, 7]);
    table.header(&[
        "N",
        "lazy",
        "cpus",
        "sim-s",
        "reg(ms)",
        "drive(ms)",
        "tear(ms)",
        "wall/sim-s",
        "events/s",
        "ctxsw",
        "ns/q/member",
        "drive%",
    ]);
    for p in &report.points {
        table.row(&[
            p.n.to_string(),
            p.lazy.to_string(),
            p.sim_cpus.to_string(),
            p.sim_seconds.to_string(),
            fmt(p.register_seconds * 1e3, 3),
            fmt(p.drive_seconds * 1e3, 3),
            fmt(p.teardown_seconds * 1e3, 3),
            fmt(p.wall_per_sim_second, 6),
            fmt(p.events_per_wall_second, 0),
            p.context_switches.to_string(),
            fmt(p.supervisor_ns_per_quantum_per_member, 1),
            fmt(p.drive_fraction * 100.0, 1),
        ]);
    }
    let mut ns: Vec<usize> = report.points.iter().map(|p| p.n).collect();
    ns.dedup();
    println!("\neager/lazy supervisor overhead (ns per quantum per member, one CPU):");
    for n in &ns {
        if let (Some(lazy), Some(eager)) = (report.point(*n, true), report.point(*n, false)) {
            println!(
                "  N={n:<5} lazy {:>9} eager {:>9}  {:.2}x",
                fmt(lazy.supervisor_ns_per_quantum_per_member, 1),
                fmt(eager.supervisor_ns_per_quantum_per_member, 1),
                eager.supervisor_ns_per_quantum_per_member
                    / lazy.supervisor_ns_per_quantum_per_member.max(1e-12),
            );
        }
    }

    let smp: Vec<&BenchPoint> = report.points.iter().filter(|p| p.sim_cpus > 1).collect();
    if !smp.is_empty() {
        println!("\nSMP series (lazy; modeled-CPU dimension, same workload per N):");
        for p in &smp {
            if let Some(uni) = report.point(p.n, p.lazy) {
                println!(
                    "  N={:<5} cpus={} wall/sim-s {:.6} ({:.2}x the 1-CPU point), ctxsw {}",
                    p.n,
                    p.sim_cpus,
                    p.wall_per_sim_second,
                    p.wall_per_sim_second / uni.wall_per_sim_second.max(1e-12),
                    p.context_switches,
                );
            }
        }
    }

    if !report.sparse.is_empty() {
        println!(
            "\nsparse-activity series (N registered, {} active; pure alps-core control path):",
            SPARSE_ACTIVE
        );
        let sp = Table::new(&[8, 7, 7, 8, 9, 10, 10, 11, 13]);
        sp.header(&[
            "N",
            "active",
            "quanta",
            "due/qtm",
            "reg(ms)",
            "drive(ms)",
            "tear(ms)",
            "ns/qtm",
            "ns/due-membr",
        ]);
        for p in &report.sparse {
            sp.row(&[
                p.n.to_string(),
                p.active.to_string(),
                p.quanta.to_string(),
                fmt(p.due_per_quantum, 1),
                fmt(p.register_seconds * 1e3, 3),
                fmt(p.drive_seconds * 1e3, 3),
                fmt(p.teardown_seconds * 1e3, 3),
                fmt(p.ns_per_quantum, 0),
                fmt(p.ns_per_due_member, 1),
            ]);
        }
    }

    if check {
        let warnings = check_against_trend(&report, &path);
        if strict && warnings > 0 {
            eprintln!("bench --check --strict: failing on {warnings} out-of-tolerance point(s)");
            std::process::exit(1);
        }
    }
}

/// A checked metric of a [`BenchPoint`]: a name and an extractor.
type CheckedMetric = (&'static str, fn(&BenchPoint) -> f64);

const CHECKED_METRICS: [CheckedMetric; 2] = [
    ("wall_per_sim_second", |p| p.wall_per_sim_second),
    ("supervisor_ns_per_quantum_per_member", |p| {
        p.supervisor_ns_per_quantum_per_member
    }),
];

/// How far a fresh measurement may drift from the committed trend before
/// a warning is emitted. Wall clocks vary wildly across hosts (CI
/// machines, laptops, containers), so only order-of-magnitude drift —
/// the kind an accidental O(N) regression on the control path produces —
/// is flagged.
const RATIO_TOLERANCE: f64 = 10.0;

/// Run a fresh `--fast` sweep and compare each point against a linear
/// fit (over N) of the committed report's same series (lazy × modeled
/// CPUs). Soft gate by default: warnings are printed
/// as GitHub annotations and the exit stays 0 — the committed numbers
/// came from a different host than CI's, so this can only catch gross
/// regressions. Returns the number of out-of-tolerance points so
/// `--strict` can turn them into a failing exit.
fn check_against_trend(committed: &BenchReport, path: &str) -> usize {
    heading("bench --check: fresh fast sweep vs committed trend");
    let outcome = run_sweep(&sweep_specs(true), 2);
    let mut warnings = 0usize;
    let mut compared = 0usize;
    for fresh in &outcome.points {
        for (metric, get) in CHECKED_METRICS {
            let series: Vec<(f64, f64)> = committed
                .points
                .iter()
                .filter(|p| p.lazy == fresh.lazy && p.sim_cpus == fresh.sim_cpus)
                .map(|p| (p.n as f64, get(p)))
                .collect();
            let Some(fit) = linear_fit(&series) else {
                continue; // fewer than two committed points in the series
            };
            let predicted = fit.at(fresh.n as f64);
            if predicted <= 0.0 {
                continue; // extrapolation fell below zero: nothing to judge
            }
            let measured = get(fresh);
            let ratio = measured / predicted;
            compared += 1;
            let label = format!(
                "N={} lazy={} cpus={}: {metric} measured {measured:.6} vs trend {predicted:.6} ({ratio:.2}x)",
                fresh.n, fresh.lazy, fresh.sim_cpus
            );
            if !(1.0 / RATIO_TOLERANCE..=RATIO_TOLERANCE).contains(&ratio) {
                warnings += 1;
                println!("::warning file={path}::{label}");
            } else {
                println!("  ok {label}");
            }
        }
    }
    for fresh in &fresh_sparse(2) {
        for (metric, get) in SPARSE_CHECKED_METRICS {
            // Direct same-N comparison when the committed report carries
            // the point (both normalized metrics are quanta-count
            // independent); otherwise fall back to a fit over N.
            let predicted = match committed.sparse_point(fresh.n) {
                Some(p) => get(p),
                None => {
                    let series: Vec<(f64, f64)> = committed
                        .sparse
                        .iter()
                        .map(|p| (p.n as f64, get(p)))
                        .collect();
                    match linear_fit(&series) {
                        Some(fit) => fit.at(fresh.n as f64),
                        None => continue,
                    }
                }
            };
            if predicted <= 0.0 {
                continue;
            }
            let measured = get(fresh);
            let ratio = measured / predicted;
            compared += 1;
            let label = format!(
                "sparse N={}: {metric} measured {measured:.1} vs committed {predicted:.1} ({ratio:.2}x)",
                fresh.n
            );
            if !(1.0 / RATIO_TOLERANCE..=RATIO_TOLERANCE).contains(&ratio) {
                warnings += 1;
                println!("::warning file={path}::{label}");
            } else {
                println!("  ok {label}");
            }
        }
    }
    println!(
        "\nbench --check: {compared} comparisons, {warnings} outside {RATIO_TOLERANCE}x \
         of the committed trend (soft gate unless --strict)"
    );
    warnings
}

/// A checked metric of a [`SparsePoint`]: a name and an extractor.
type SparseCheckedMetric = (&'static str, fn(&SparsePoint) -> f64);

/// The sparse-series metrics `--check` gates on: both normalized per
/// drive work, so a fast fresh point (short drive) compares cleanly
/// against the committed long-drive numbers.
const SPARSE_CHECKED_METRICS: [SparseCheckedMetric; 2] = [
    ("ns_per_quantum", |p| p.ns_per_quantum),
    ("ns_per_due_member", |p| p.ns_per_due_member),
];

/// Run the fast sparse series fresh (N = 10⁴, short drive) for
/// `--check`'s comparison against the committed report.
fn fresh_sparse(reps: usize) -> Vec<SparsePoint> {
    let quanta = sparse_quanta(true);
    sparse_ns(true)
        .into_iter()
        .map(|n| run_sparse_best_of(n, SPARSE_ACTIVE.min(n / 10), quanta, reps))
        .collect()
}
