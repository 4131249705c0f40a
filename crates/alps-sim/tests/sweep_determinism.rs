//! Parallel-vs-serial determinism for the experiment drivers: every
//! multi-run path goes through `alps_sweep`, and the sweep executor's
//! contract is that thread count and seed order are invisible in the
//! results — parallelism may only change the wall clock.

use alps_core::Nanos;
use alps_sim::experiments::scalability::{run_scalability, ScalabilityParams};
use alps_sim::experiments::workload::{run_workload_mean, WorkloadParams, WorkloadRun};
use std::sync::Mutex;
use workloads::ShareModel;

/// Serializes the tests that flip the process-wide thread override.
static THREADS_KNOB: Mutex<()> = Mutex::new(());

fn quick_params() -> WorkloadParams {
    let mut p = WorkloadParams::new(ShareModel::Linear, 5, Nanos::from_millis(20));
    p.target_cycles = 25;
    p
}

fn assert_runs_identical(a: &WorkloadRun, b: &WorkloadRun) {
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.alps_cpu, b.alps_cpu);
    assert_eq!(a.quanta_serviced, b.quanta_serviced);
    assert_eq!(a.measurements, b.measurements);
    assert_eq!(a.signals, b.signals);
    // Bit-exact: the reductions must not depend on scheduling.
    assert_eq!(
        a.mean_rms_error_pct.to_bits(),
        b.mean_rms_error_pct.to_bits()
    );
    assert_eq!(a.overhead_pct.to_bits(), b.overhead_pct.to_bits());
}

#[test]
fn workload_mean_is_invariant_to_seed_order() {
    let p = quick_params();
    let fwd = run_workload_mean(&p, &[1, 2, 3]);
    let rev = run_workload_mean(&p, &[3, 1, 2]);
    assert_runs_identical(&fwd, &rev);
}

#[test]
fn workload_mean_is_invariant_to_thread_count() {
    let _g = THREADS_KNOB.lock().unwrap();
    let p = quick_params();
    alps_sweep::set_threads(Some(1));
    let serial = run_workload_mean(&p, &[1, 2, 3]);
    alps_sweep::set_threads(Some(8));
    let parallel = run_workload_mean(&p, &[1, 2, 3]);
    alps_sweep::set_threads(None);
    assert_runs_identical(&serial, &parallel);
}

#[test]
fn scalability_sweep_is_invariant_to_thread_count() {
    let _g = THREADS_KNOB.lock().unwrap();
    let mut p = ScalabilityParams::paper(Nanos::from_millis(10));
    p.ns = vec![5, 10, 15];
    p.duration = Nanos::from_secs(20);
    alps_sweep::set_threads(Some(1));
    let serial = run_scalability(&p);
    alps_sweep::set_threads(Some(8));
    let parallel = run_scalability(&p);
    alps_sweep::set_threads(None);
    assert_eq!(serial.points.len(), parallel.points.len());
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a.n, b.n);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.overhead_pct.to_bits(), b.overhead_pct.to_bits());
        assert_eq!(
            a.mean_rms_error_pct.to_bits(),
            b.mean_rms_error_pct.to_bits()
        );
        assert_eq!(
            a.quanta_serviced_frac.to_bits(),
            b.quanta_serviced_frac.to_bits()
        );
    }
}
