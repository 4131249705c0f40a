//! `bench-scalability` — regenerate `BENCH_kernsim.json`.
//!
//! Sweeps the §3.2-shaped workload over N ∈ {10, 100, 1000, 5000}
//! processes, lazy and unoptimized ALPS on the paper's one-CPU machine —
//! plus, per N, an SMP series (lazy, 2 and 4 simulated CPUs) — and writes
//! the report JSON. Every run (point × repetition) is fanned across the
//! deterministic sweep executor; the simulation-derived results are
//! identical at any thread count. Run with `--release`; see
//! EXPERIMENTS.md.
//!
//! A sparse-activity series closes the report: N ∈ {10⁴, 10⁵, 10⁶}
//! members on the bare scheduler (no simulator), ~10³ of them due on the
//! §3.2 cadence and the rest parked on far §2.3 deadlines — the
//! million-member regime the deadline wheel targets.
//!
//! Usage: `bench-scalability [--fast] [--sparse-only] [--sparse-n N]
//!                           [--threads N] [--cpus M] [--out <path>]`
//!   --fast         N ≤ 100 only, 5 simulated seconds per point (CI smoke)
//!   --sparse-only  skip the simulator grids; run only the sparse-activity
//!                  series (quick iteration on the scheduler hot path)
//!   --sparse-n     pin the sparse series to one explicit population
//!                  instead of the default N sweep (CI's scale smoke runs
//!                  `--sparse-only --sparse-n 100000` on the PR path and
//!                  `--sparse-only --sparse-n 1000000` nightly)
//!   --threads      sweep worker threads (1 = serial; default ALPS_THREADS
//!                  or all host cores)
//!   --cpus         sweep {lazy, eager} per N on an M-CPU simulated machine
//!                  instead of the default 1-CPU grid + SMP series
//!   --out          output path (default `BENCH_kernsim.json`)

use alps_bench::scalability::{
    run_point, run_sparse_best_of, run_sweep, sparse_ns, sparse_quanta, sweep_specs,
    sweep_specs_at, BenchReport, QUANTUM_MS, SHARE, SPARSE_ACTIVE,
};

/// Repetitions per point; the fastest is kept (the sim is deterministic,
/// so repetitions differ only in wall-clock noise).
const REPS: usize = 5;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    args.retain(|a| a != "--fast");
    let sparse_only = args.iter().any(|a| a == "--sparse-only");
    args.retain(|a| a != "--sparse-only");
    let mut take_value = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        if i + 1 >= args.len() {
            eprintln!("error: {flag} needs a value");
            std::process::exit(2);
        }
        let v = args[i + 1].clone();
        args.drain(i..=i + 1);
        Some(v)
    };
    if let Some(t) = take_value("--threads") {
        match t.parse::<usize>() {
            Ok(n) if n >= 1 => alps_sweep::set_threads(Some(n)),
            _ => {
                eprintln!("error: --threads wants an integer >= 1, got {t:?}");
                std::process::exit(2);
            }
        }
    }
    let cpus = take_value("--cpus").map(|c| match c.parse::<usize>() {
        Ok(m) if m >= 1 => m,
        _ => {
            eprintln!("error: --cpus wants an integer >= 1, got {c:?}");
            std::process::exit(2);
        }
    });
    let sparse_n = take_value("--sparse-n").map(|v| match v.parse::<usize>() {
        Ok(n) if n >= 10 => n,
        _ => {
            eprintln!("error: --sparse-n wants an integer >= 10, got {v:?}");
            std::process::exit(2);
        }
    });
    let out = take_value("--out").unwrap_or_else(|| "BENCH_kernsim.json".to_string());
    if !args.is_empty() {
        eprintln!(
            "usage: bench-scalability [--fast] [--sparse-only] [--sparse-n N] \
             [--threads N] [--cpus M] [--out <path>]"
        );
        std::process::exit(2);
    }

    let threads = alps_sweep::threads();
    let host_cores = alps_sweep::host_cores();
    eprintln!(
        "sweep executor: {threads} thread{} ({host_cores} host cores)",
        if threads == 1 { "" } else { "s" },
    );
    if host_cores == 1 || threads == 1 {
        eprintln!(
            "warning: measuring on {} — the parallel_speedup and absolute \
             wall-clock numbers in the report reflect a serial sweep; \
             the lazy/eager comparison remains valid",
            if host_cores == 1 {
                "a single-core host".to_string()
            } else {
                format!("{threads} worker thread")
            }
        );
    }
    // Discarded warmup so the first measured points don't pay for page
    // faults and CPU frequency ramp-up.
    if !sparse_only {
        let _ = run_point(100, true, 2, 1);
    }

    let specs = if sparse_only {
        Vec::new()
    } else {
        match cpus {
            Some(m) => sweep_specs_at(fast, m),
            None => sweep_specs(fast),
        }
    };
    let outcome = run_sweep(&specs, REPS);
    for p in &outcome.points {
        eprintln!(
            "N={:5} lazy={:5} cpus={}: reg {:8.5}s drive {:8.5}s teardown {:8.5}s | {:8.5} wall-s/sim-s, {:10.0} events/s, {:8} ctx, {:9.1} ns/q/member ({:4.1}% drive)",
            p.n,
            p.lazy,
            p.sim_cpus,
            p.register_seconds,
            p.drive_seconds,
            p.teardown_seconds,
            p.wall_per_sim_second,
            p.events_per_wall_second,
            p.context_switches,
            p.supervisor_ns_per_quantum_per_member,
            p.drive_fraction * 100.0
        );
    }

    // The sparse-activity series: the bare scheduler at N registered /
    // ~10³ due members. Points run serially (each fans its repetitions
    // across the executor) — the 10⁶-member points are memory-bound and
    // co-running them would perturb the timings.
    let sq = sparse_quanta(fast);
    let sparse_grid = match sparse_n {
        Some(n) => vec![n],
        None => sparse_ns(fast),
    };
    let mut sparse = Vec::new();
    for n in sparse_grid {
        let p = run_sparse_best_of(n, SPARSE_ACTIVE.min(n / 10), sq, REPS);
        eprintln!(
            "sparse N={:8}: reg {:8.5}s drive {:8.5}s teardown {:8.5}s | {:10.1} ns/q, {:7.1} due/q, {:8.1} ns/due",
            p.n,
            p.register_seconds,
            p.drive_seconds,
            p.teardown_seconds,
            p.ns_per_quantum,
            p.due_per_quantum,
            p.ns_per_due_member
        );
        sparse.push(p);
    }

    let report = BenchReport {
        name: "kernsim-scalability".into(),
        quantum_ms: QUANTUM_MS,
        share: SHARE,
        fast,
        threads,
        host_cores: alps_sweep::host_cores(),
        sweep_wall_seconds: outcome.sweep_wall_seconds,
        serial_wall_estimate_seconds: outcome.serial_wall_estimate_seconds,
        parallel_speedup: outcome.serial_wall_estimate_seconds
            / outcome.sweep_wall_seconds.max(1e-9),
        points: outcome.points,
        sparse,
    };
    eprintln!(
        "sweep wall {:.3}s on {} thread{}; serial estimate {:.3}s ({:.2}x)",
        report.sweep_wall_seconds,
        report.threads,
        if report.threads == 1 { "" } else { "s" },
        report.serial_wall_estimate_seconds,
        report.parallel_speedup
    );
    std::fs::write(&out, report.to_pretty_json()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");
}
