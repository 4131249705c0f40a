//! The synthetic-workload experiment underlying Figures 4 and 5 and the
//! §3.2 ablation: `n` compute-bound processes with a Table-2 share
//! distribution, scheduled by one ALPS for 200 cycles.

use alps_core::{AlpsConfig, Nanos};
use alps_metrics::mean_rms_relative_error_pct;
use kernsim::{ComputeBound, CpuAccounting, Sim, SimConfig};
use serde::{Deserialize, Serialize};
use workloads::ShareModel;

use crate::cost::CostModel;
use crate::runner::spawn_alps;

/// Parameters of one synthetic-workload run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WorkloadParams {
    /// Share model (linear/equal/skewed).
    pub model: ShareModel,
    /// Number of processes.
    pub n: usize,
    /// ALPS quantum.
    pub quantum: Nanos,
    /// Cycles to record (the paper records 200).
    pub target_cycles: u64,
    /// Leading cycles discarded as warm-up.
    pub warmup_cycles: usize,
    /// RNG seed (the paper reports the mean of 3 runs; use 3 seeds).
    pub seed: u64,
    /// §2.3 lazy-measurement optimization on/off.
    pub lazy_measurement: bool,
    /// Visible-CPU-accounting granularity for the simulated kernel
    /// (the measurement-granularity ablation; default exact).
    #[serde(skip)]
    pub accounting: CpuAccounting,
    /// Override: give every process this share instead of the Table-2
    /// distribution (the §4.2 scalability runs use 5 shares per process
    /// regardless of N).
    pub uniform_share: Option<u64>,
    /// Minimum wall-clock duration to simulate even if the cycle target is
    /// reached sooner. Needed for overloaded configurations (§4.2): past
    /// the breakdown threshold ALPS measures rarely and huge consumption
    /// deltas complete a cycle per invocation, so a cycle count alone would
    /// end the run before the decay-scheduler equilibrium that *causes*
    /// the breakdown has even formed.
    pub min_duration: Nanos,
}

impl WorkloadParams {
    /// Paper-default parameters for a workload/quantum combination.
    pub fn new(model: ShareModel, n: usize, quantum: Nanos) -> Self {
        WorkloadParams {
            model,
            n,
            quantum,
            target_cycles: 200,
            warmup_cycles: 3,
            seed: 1,
            lazy_measurement: true,
            accounting: CpuAccounting::Exact,
            uniform_share: None,
            min_duration: Nanos::ZERO,
        }
    }

    /// Same parameters with another seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Toggle the §2.3 optimization.
    pub fn with_lazy(mut self, lazy: bool) -> Self {
        self.lazy_measurement = lazy;
        self
    }
}

/// Outcome of one synthetic-workload run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadRun {
    /// The paper's name for the workload (e.g. `Skewed10`).
    pub workload: String,
    /// Quantum length in milliseconds.
    pub quantum_ms: f64,
    /// Cycles recorded (excluding warm-up).
    pub cycles: usize,
    /// Mean RMS relative error, percent (Figure 4 / Figure 9 metric).
    pub mean_rms_error_pct: f64,
    /// ALPS CPU time over wall time, percent (Figure 5 / Figure 8 metric).
    pub overhead_pct: f64,
    /// Wall-clock duration of the run.
    pub duration: Nanos,
    /// CPU consumed by the ALPS process itself.
    pub alps_cpu: Nanos,
    /// Scheduler invocations actually serviced.
    pub quanta_serviced: u64,
    /// Scheduler invocations a perfectly scheduled ALPS would have serviced.
    pub quanta_expected: u64,
    /// Progress measurements performed.
    pub measurements: u64,
    /// Signals sent.
    pub signals: u64,
}

/// Run one synthetic workload under ALPS until `target_cycles` cycles have
/// completed (with a generous wall-clock cap for overloaded configurations
/// that have effectively lost control).
pub fn run_workload(p: &WorkloadParams) -> WorkloadRun {
    let shares = match p.uniform_share {
        Some(s) => vec![s; p.n],
        None => p.model.shares(p.n),
    };
    let sim_cfg = SimConfig {
        seed: p.seed,
        spawn_estcpu_jitter: 8.0,
        accounting: p.accounting,
    };
    let mut sim = Sim::new(sim_cfg);
    let procs: Vec<(kernsim::Pid, u64)> = shares
        .iter()
        .enumerate()
        .map(|(i, &s)| (sim.spawn(format!("w{i}"), Box::new(ComputeBound)), s))
        .collect();
    let cfg = AlpsConfig::new(p.quantum)
        .with_lazy_measurement(p.lazy_measurement)
        .with_cycle_log(true);
    let alps = spawn_alps(&mut sim, "alps", cfg, CostModel::paper(), &procs);

    // One cycle takes S·Q of CPU; with ALPS overhead and warm-up, budget a
    // 2x margin plus slack, stepping in 1-second chunks.
    let total_shares: u64 = shares.iter().sum();
    let cycle_wall = p.quantum.mul_f64(total_shares as f64);
    let budget = cycle_wall
        .mul_f64((p.target_cycles + p.warmup_cycles as u64 + 2) as f64 * 2.0)
        .max(Nanos::from_secs(30));
    let budget = budget.max(p.min_duration);
    let want = p.target_cycles + p.warmup_cycles as u64;
    while (alps.cycle_count() < want || sim.now() < p.min_duration) && sim.now() < budget {
        let next = (sim.now() + Nanos::SECOND).min(budget);
        sim.run_until(next);
    }

    let duration = sim.now();
    let alps_cpu = sim.proc(alps.pid).unwrap().cputime();
    let cycles = alps.cycles();
    let stats = alps.stats();
    WorkloadRun {
        workload: p.model.workload_name(p.n),
        quantum_ms: p.quantum.as_millis_f64(),
        cycles: cycles.len().saturating_sub(p.warmup_cycles),
        mean_rms_error_pct: mean_rms_relative_error_pct(&cycles, p.warmup_cycles),
        overhead_pct: 100.0 * alps_cpu.as_f64() / duration.as_f64(),
        duration,
        alps_cpu,
        quanta_serviced: stats.quanta,
        quanta_expected: (duration.as_nanos() / p.quantum.as_nanos()).max(1),
        measurements: stats.measurements,
        signals: stats.signals,
    }
}

/// Mean of `runs` over the given seeds (the paper's "mean of 3 tests").
///
/// The per-seed runs are independent simulations, so they fan out across
/// the sweep executor. The result is invariant to both the thread count
/// (each run is a pure function of its seed) and the *order* of `seeds`:
/// the floating-point reductions below always sum in ascending-seed
/// order.
pub fn run_workload_mean(p: &WorkloadParams, seeds: &[u64]) -> WorkloadRun {
    assert!(!seeds.is_empty());
    let mut runs: Vec<(u64, WorkloadRun)> =
        alps_sweep::sweep_map(seeds.to_vec(), |s| (s, run_workload(&p.with_seed(s))));
    runs.sort_by_key(|&(s, _)| s);
    let k = runs.len() as f64;
    let mut out = runs[0].1.clone();
    out.mean_rms_error_pct = runs.iter().map(|(_, r)| r.mean_rms_error_pct).sum::<f64>() / k;
    out.overhead_pct = runs.iter().map(|(_, r)| r.overhead_pct).sum::<f64>() / k;
    out
}

/// One row of the §3.2 optimization ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Workload name.
    pub workload: String,
    /// Quantum in milliseconds.
    pub quantum_ms: f64,
    /// Overhead with the §2.3 optimization (percent).
    pub overhead_opt_pct: f64,
    /// Overhead without it (percent).
    pub overhead_unopt_pct: f64,
    /// Reduction factor (paper: 1.8–5.9×).
    pub factor: f64,
    /// Accuracy with the optimization (percent error).
    pub error_opt_pct: f64,
    /// Accuracy without it (percent error) — should be comparable.
    pub error_unopt_pct: f64,
}

/// Run the optimized and unoptimized algorithm on the same workload
/// (the two legs are independent sims and run concurrently).
pub fn run_ablation(p: &WorkloadParams) -> AblationRow {
    let mut legs =
        alps_sweep::sweep_map(vec![true, false], |lazy| run_workload(&p.with_lazy(lazy)));
    let unopt = legs.pop().expect("two legs");
    let opt = legs.pop().expect("two legs");
    AblationRow {
        workload: opt.workload.clone(),
        quantum_ms: opt.quantum_ms,
        overhead_opt_pct: opt.overhead_pct,
        overhead_unopt_pct: unopt.overhead_pct,
        factor: unopt.overhead_pct / opt.overhead_pct.max(1e-9),
        error_opt_pct: opt.mean_rms_error_pct,
        error_unopt_pct: unopt.mean_rms_error_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(model: ShareModel, n: usize, q_ms: u64) -> WorkloadParams {
        let mut p = WorkloadParams::new(model, n, Nanos::from_millis(q_ms));
        p.target_cycles = 40;
        p
    }

    #[test]
    fn linear5_is_accurate_and_cheap() {
        let r = run_workload(&quick(ShareModel::Linear, 5, 10));
        assert!(r.cycles >= 30, "cycles {}", r.cycles);
        assert!(r.mean_rms_error_pct < 6.0, "error {}", r.mean_rms_error_pct);
        assert!(r.overhead_pct < 0.5, "overhead {}", r.overhead_pct);
    }

    #[test]
    fn equal10_is_accurate() {
        let r = run_workload(&quick(ShareModel::Equal, 10, 20));
        assert!(r.mean_rms_error_pct < 6.0, "error {}", r.mean_rms_error_pct);
    }

    #[test]
    fn ablation_shows_meaningful_factor() {
        let mut p = quick(ShareModel::Equal, 10, 10);
        p.target_cycles = 25;
        let row = run_ablation(&p);
        assert!(
            row.factor > 1.5,
            "optimization factor {} (opt {}%, unopt {}%)",
            row.factor,
            row.overhead_opt_pct,
            row.overhead_unopt_pct
        );
        // Accuracy must not be sacrificed (§2.3's claim).
        assert!(row.error_opt_pct < row.error_unopt_pct + 3.0);
    }

    #[test]
    fn mean_over_seeds_averages() {
        let p = quick(ShareModel::Linear, 5, 20);
        let m = run_workload_mean(&p, &[1, 2, 3]);
        assert!(m.mean_rms_error_pct < 8.0);
    }
}
