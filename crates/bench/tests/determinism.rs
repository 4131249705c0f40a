//! Parallel-vs-serial determinism for the scalability bench: the
//! simulation-derived fields of every [`BenchPoint`] are a pure function
//! of the point's parameters, so a sweep's results must be identical at
//! any thread count — parallelism may only move the wall-clock numbers.

use alps_bench::scalability::{run_point, run_sweep_threads, SweepSpec};

/// A small grid that still exercises both ALPS variants and a two-CPU
/// point (sim_secs kept tiny so the suite stays fast).
fn tiny_grid() -> Vec<SweepSpec> {
    let mut specs = Vec::new();
    for n in [4usize, 16] {
        for (lazy, cpus) in [(true, 1), (false, 1), (true, 2)] {
            specs.push(SweepSpec {
                n,
                lazy,
                sim_secs: 1,
                cpus,
            });
        }
    }
    specs
}

#[test]
fn sweep_results_identical_at_threads_1_and_8() {
    let specs = tiny_grid();
    let serial = run_sweep_threads(1, &specs, 2);
    let parallel = run_sweep_threads(8, &specs, 2);
    assert_eq!(serial.points.len(), specs.len());
    assert_eq!(parallel.points.len(), specs.len());
    for ((a, b), spec) in serial.points.iter().zip(&parallel.points).zip(&specs) {
        assert_eq!(a.sim_key(), b.sim_key(), "spec {spec:?}");
        assert_eq!(a.n, spec.n, "points must come back in spec order");
    }
}

#[test]
fn repetitions_share_one_sim_trajectory() {
    // Best-of-N only filters wall-clock noise: every repetition of a
    // point runs the exact same simulation.
    assert_eq!(
        run_point(8, true, 1, 1).sim_key(),
        run_point(8, true, 1, 1).sim_key()
    );
    // The SMP points replay exactly too: work stealing is deterministic.
    assert_eq!(
        run_point(8, true, 1, 2).sim_key(),
        run_point(8, true, 1, 2).sim_key()
    );
}

#[test]
fn sweep_accounts_every_run_in_the_serial_estimate() {
    let specs = tiny_grid();
    let outcome = run_sweep_threads(2, &specs, 3);
    // The estimate sums all specs × reps individual run walls, so it is
    // at least reps × the kept (minimum) wall of every point.
    let kept_floor: f64 = outcome.points.iter().map(|p| 3.0 * p.wall_seconds).sum();
    assert!(
        outcome.serial_wall_estimate_seconds >= kept_floor * 0.999,
        "estimate {} < floor {}",
        outcome.serial_wall_estimate_seconds,
        kept_floor
    );
}
