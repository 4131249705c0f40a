//! The kernsim scalability sweep behind `BENCH_kernsim.json`.
//!
//! Reproduces the *shape* of the paper's §3.2 overhead experiment — N
//! equal-share (5 each) compute-bound processes under an ALPS runner with
//! a 10 ms quantum — but measures the *simulator*: wall-clock per
//! simulated second, events per wall second, and context switches, for
//! N ∈ {10, 100, 1000, 5000}, each under the lazy (§2.3) and unoptimized
//! ALPS variants on the paper's one-CPU machine, plus the lazy variant on
//! 2 and 4 simulated CPUs.
//!
//! Besides the simulator-throughput numbers, every point reports the
//! *supervisor overhead*: steady-state drive-phase wall nanoseconds per
//! ALPS quantum per controlled member — the per-quantum control-path
//! cost the deadline wheel exists to flatten. A sparse-activity series
//! ([`run_sparse_point`]) measures that path alone, on the bare
//! scheduler, at up to 10⁶ registered members.

use alps_core::{AlpsConfig, AlpsScheduler, Nanos, Observation, ProcId, QuantumOutcome};
use alps_sim::{spawn_alps, CostModel};
use kernsim::{ComputeBound, Pid, Sim, SimConfig};
use serde::{Deserialize, Serialize};

/// Equal share per process, as in §3.2.
pub const SHARE: u64 = 5;

/// ALPS quantum for the sweep.
pub const QUANTUM_MS: u64 = 10;

/// Simulated seconds driven after mass termination (the teardown phase:
/// the ALPS runner discovers the exits and reaps every principal).
pub const TAIL_SECS: u64 = 5;

/// Active members of a sparse-activity point ([`run_sparse_point`]).
pub const SPARSE_ACTIVE: usize = 1000;

/// Share of each active member of a sparse-activity point — due every
/// five quanta, like the §3.2 grid's members.
pub const SPARSE_ACTIVE_SHARE: u64 = 5;

/// Smallest idle share of a sparse-activity point. Idle member `i` gets
/// share `SPARSE_IDLE_BASE + i`, so their §2.3 re-measure deadlines
/// stagger from ~10 simulated seconds out to ~`n` quanta out — parked
/// members spread across every level of the deadline wheel instead of
/// thundering in one slot.
pub const SPARSE_IDLE_BASE: u64 = 1000;

/// Population sizes of the sparse-activity series.
pub fn sparse_ns(fast: bool) -> Vec<usize> {
    if fast {
        vec![10_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    }
}

/// Quanta driven per sparse-activity point (after the warm-up quantum).
pub fn sparse_quanta(fast: bool) -> u64 {
    if fast {
        300
    } else {
        2000
    }
}

/// One measured point of the sparse-activity series: N registered
/// members, ~[`SPARSE_ACTIVE`] of them due on the §3.2 cadence and the
/// rest parked on far §2.3 deadlines, driving [`AlpsScheduler`] directly
/// (no simulator) with zero-consumption observations. The population is
/// stationary — no cycle boundary, no transitions after warm-up — so
/// the point isolates the per-quantum control path the deadline wheel
/// flattens: its cost must track the *due* population, not N.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparsePoint {
    /// Registered members.
    pub n: usize,
    /// Members on the active (share-[`SPARSE_ACTIVE_SHARE`]) cadence.
    pub active: usize,
    /// Quanta driven (excluding the warm-up quantum).
    pub quanta: u64,
    /// Due members measured over the drive.
    pub total_due: u64,
    /// Wall-clock seconds to register all N members.
    pub register_seconds: f64,
    /// Wall-clock seconds for the drive.
    pub drive_seconds: f64,
    /// Wall-clock seconds to remove all N members.
    pub teardown_seconds: f64,
    /// Drive nanoseconds per quantum — the headline: flat in N.
    pub ns_per_quantum: f64,
    /// Due members per quantum (~[`SPARSE_ACTIVE`]/5, independent of N).
    pub due_per_quantum: f64,
    /// Drive nanoseconds per due member measured.
    pub ns_per_due_member: f64,
}

impl SparsePoint {
    /// The deterministic fields — a pure function of the point's
    /// parameters, identical at any sweep thread count.
    pub fn sim_key(&self) -> (usize, usize, u64, u64) {
        (self.n, self.active, self.quanta, self.total_due)
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchPoint {
    /// Number of workload processes.
    pub n: usize,
    /// Whether the §2.3 lazy-measurement optimization was on.
    pub lazy: bool,
    /// CPUs the simulated machine modeled ([`SimConfig::cpus`]) — the
    /// *modeled* dimension, distinct from [`BenchReport::host_cores`]
    /// (the measuring host's hardware threads).
    pub sim_cpus: usize,
    /// Simulated seconds of steady-state drive (excludes the teardown
    /// tail of [`TAIL_SECS`]).
    pub sim_seconds: u64,
    /// Wall-clock seconds for the whole point:
    /// `register + drive + teardown`.
    pub wall_seconds: f64,
    /// Wall-clock seconds to spawn the workload and register it with the
    /// ALPS runner.
    pub register_seconds: f64,
    /// Wall-clock seconds for the steady-state drive.
    pub drive_seconds: f64,
    /// Wall-clock seconds to terminate every member and drive the tail
    /// until the runner has reaped them all.
    pub teardown_seconds: f64,
    /// Steady-state wall-clock seconds per simulated second
    /// (`drive_seconds / sim_seconds`).
    pub wall_per_sim_second: f64,
    /// Simulation events processed.
    pub events: u64,
    /// Events processed per wall-clock second.
    pub events_per_wall_second: f64,
    /// Context switches the simulated kernel performed.
    pub context_switches: u64,
    /// ALPS quanta serviced during the steady-state drive.
    pub drive_quanta: u64,
    /// Steady-state supervisor overhead: drive-phase wall nanoseconds
    /// per ALPS quantum per controlled member
    /// (`drive_seconds · 1e9 / (drive_quanta · n)`).
    pub supervisor_ns_per_quantum_per_member: f64,
    /// Share of the point's whole-lifecycle wall clock spent in the
    /// steady-state drive (`drive_seconds / wall_seconds`) — the sweep
    /// is tuned so this is the majority phase at every N.
    pub drive_fraction: f64,
}

impl BenchPoint {
    /// The simulation-derived fields of the point — everything except
    /// the wall-clock timings. These are a pure function of the point's
    /// parameters and seed, so they must be identical at any sweep
    /// thread count; the determinism tests compare exactly this key.
    pub fn sim_key(&self) -> (usize, bool, usize, u64, u64, u64, u64) {
        (
            self.n,
            self.lazy,
            self.sim_cpus,
            self.sim_seconds,
            self.events,
            self.context_switches,
            self.drive_quanta,
        )
    }
}

/// The committed benchmark report (`BENCH_kernsim.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report name.
    pub name: String,
    /// ALPS quantum in milliseconds.
    pub quantum_ms: u64,
    /// Share per process.
    pub share: u64,
    /// `true` when produced with `--fast` (CI smoke; N ≤ 100 only).
    pub fast: bool,
    /// Worker threads the sweep executor ran the grid on.
    pub threads: usize,
    /// Hardware threads on the measuring host.
    pub host_cores: usize,
    /// Wall-clock seconds for the whole sweep (all points × reps),
    /// as actually executed on [`BenchReport::threads`] workers.
    pub sweep_wall_seconds: f64,
    /// Sum of every individual run's wall clock — what the same sweep
    /// costs executed serially (measured directly when `threads == 1`;
    /// an estimate from the parallel runs' own timers otherwise).
    pub serial_wall_estimate_seconds: f64,
    /// `serial_wall_estimate_seconds / sweep_wall_seconds` — the
    /// parallel sweep executor's win on this host.
    pub parallel_speedup: f64,
    /// The measured points.
    pub points: Vec<BenchPoint>,
    /// The sparse-activity series: N registered / ~10³ due members on
    /// the bare scheduler, the regime the deadline wheel targets.
    #[serde(default)]
    pub sparse: Vec<SparsePoint>,
}

impl BenchReport {
    /// The single-CPU point for `(n, lazy)`, if present. The SMP series
    /// is reached via [`BenchReport::point_at`].
    pub fn point(&self, n: usize, lazy: bool) -> Option<&BenchPoint> {
        self.point_at(n, lazy, 1)
    }

    /// The point for `(n, lazy)` on a `cpus`-CPU simulated machine, if
    /// present.
    pub fn point_at(&self, n: usize, lazy: bool, cpus: usize) -> Option<&BenchPoint> {
        self.points
            .iter()
            .find(|p| p.n == n && p.lazy == lazy && p.sim_cpus == cpus)
    }

    /// The sparse-activity point at `n` registered members, if present.
    pub fn sparse_point(&self, n: usize) -> Option<&SparsePoint> {
        self.sparse.iter().find(|p| p.n == n)
    }

    /// Render as multi-line JSON, one point per line (stable git diffs).
    /// `parse` and plain `serde_json::from_str` both read it back.
    pub fn to_pretty_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"name\": {},\n",
            serde_json::to_string(&self.name).expect("string")
        ));
        out.push_str(&format!("  \"quantum_ms\": {},\n", self.quantum_ms));
        out.push_str(&format!("  \"share\": {},\n", self.share));
        out.push_str(&format!("  \"fast\": {},\n", self.fast));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"host_cores\": {},\n", self.host_cores));
        out.push_str(&format!(
            "  \"sweep_wall_seconds\": {},\n",
            serde_json::to_string(&self.sweep_wall_seconds).expect("f64")
        ));
        out.push_str(&format!(
            "  \"serial_wall_estimate_seconds\": {},\n",
            serde_json::to_string(&self.serial_wall_estimate_seconds).expect("f64")
        ));
        out.push_str(&format!(
            "  \"parallel_speedup\": {},\n",
            serde_json::to_string(&self.parallel_speedup).expect("f64")
        ));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&serde_json::to_string(p).expect("point"));
            out.push_str(if i + 1 < self.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"sparse\": [\n");
        for (i, p) in self.sparse.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&serde_json::to_string(p).expect("sparse point"));
            out.push_str(if i + 1 < self.sparse.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a report previously rendered by [`BenchReport::to_pretty_json`].
    pub fn parse(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Simulated seconds to drive for a given N. The steady-state drive is
/// the phase the per-sim-second and supervisor-overhead metrics are
/// computed from, so it must dominate each point's wall clock — large
/// populations drive *longer* (their register/teardown phases grow with
/// N, and a short drive would leave the measured phase a sliver of the
/// run).
pub fn sim_secs_for(n: usize, fast: bool) -> u64 {
    if fast {
        5
    } else {
        match n {
            0..=100 => 20,
            101..=1000 => 40,
            _ => 80,
        }
    }
}

/// The sweep's population sizes.
pub fn sweep_ns(fast: bool) -> Vec<usize> {
    if fast {
        vec![10, 100]
    } else {
        vec![10, 100, 1000, 5000]
    }
}

/// Measure one point of the sweep: the full lifecycle of one §3.2
/// experiment run.
///
/// Three phases are timed separately:
/// 1. **register** — spawn N equal-share compute-bound processes and
///    register them with an ALPS runner;
/// 2. **drive** — `sim_secs` simulated seconds of steady state;
/// 3. **teardown** — terminate every member and drive [`TAIL_SECS`] more
///    simulated seconds, during which the runner discovers the exits and
///    reaps all N principals.
pub fn run_point(n: usize, lazy: bool, sim_secs: u64, cpus: usize) -> BenchPoint {
    let cfg = SimConfig {
        seed: 1,
        spawn_estcpu_jitter: 8.0,
        cpus: std::num::NonZeroUsize::new(cpus).expect("at least one CPU"),
        ..SimConfig::default()
    };
    let mut sim = Sim::new(cfg);

    let t_register = std::time::Instant::now();
    let members: Vec<(Pid, u64)> = (0..n)
        .map(|i| (sim.spawn(format!("w{i}"), Box::new(ComputeBound)), SHARE))
        .collect();
    let alps_cfg = AlpsConfig::new(Nanos::from_millis(QUANTUM_MS)).with_lazy_measurement(lazy);
    let alps = spawn_alps(&mut sim, "alps", alps_cfg, CostModel::paper(), &members);
    let register_seconds = t_register.elapsed().as_secs_f64();

    let t_drive = std::time::Instant::now();
    let mut events = sim.run_until(Nanos::from_secs(sim_secs));
    let drive_seconds = t_drive.elapsed().as_secs_f64();
    let drive_quanta = alps.stats().quanta;

    let t_teardown = std::time::Instant::now();
    for &(pid, _) in &members {
        sim.terminate(pid);
    }
    events += sim.run_until(Nanos::from_secs(sim_secs + TAIL_SECS));
    let teardown_seconds = t_teardown.elapsed().as_secs_f64();
    debug_assert_eq!(alps.stats().reaped, n as u64, "teardown must reap all");

    let wall_seconds = register_seconds + drive_seconds + teardown_seconds;
    BenchPoint {
        n,
        lazy,
        sim_cpus: cpus,
        sim_seconds: sim_secs,
        wall_seconds,
        register_seconds,
        drive_seconds,
        teardown_seconds,
        wall_per_sim_second: drive_seconds / sim_secs as f64,
        events,
        events_per_wall_second: events as f64 / (drive_seconds + teardown_seconds).max(1e-9),
        context_switches: sim.context_switches(),
        drive_quanta,
        supervisor_ns_per_quantum_per_member: drive_seconds * 1e9
            / ((drive_quanta.max(1) * n.max(1) as u64) as f64),
        drive_fraction: drive_seconds / wall_seconds.max(1e-9),
    }
}

/// Measure one sparse-activity point. Three phases are timed:
/// registration of all N members, a `quanta`-quantum stationary drive
/// (the wheel's O(due) control path), and removal of all N members.
///
/// Idle members never come due inside a short drive *en masse*: their
/// staggered shares ([`SPARSE_IDLE_BASE`]` + i`) park them across the
/// wheel's upper levels, so the drive pays exactly the cascade touches
/// the wheel's design promises — O(1) amortized per parked member per
/// level-window crossing — while the active members due every
/// [`SPARSE_ACTIVE_SHARE`] quanta dominate `total_due`.
pub fn run_sparse_point(n: usize, active: usize, quanta: u64) -> SparsePoint {
    assert!(active <= n, "active members are a subset of the population");
    let mut alps = AlpsScheduler::new(AlpsConfig::new(Nanos::from_millis(QUANTUM_MS)));

    let t_register = std::time::Instant::now();
    let idle = n - active;
    for i in 0..idle {
        alps.add_process(SPARSE_IDLE_BASE + i as u64, Nanos::ZERO);
    }
    for _ in 0..active {
        alps.add_process(SPARSE_ACTIVE_SHARE, Nanos::ZERO);
    }
    let register_seconds = t_register.elapsed().as_secs_f64();

    // Warm-up quantum: every member starts ineligible with a forced
    // measurement, so the first invocation resumes all N and parks them
    // on their §2.3 deadlines. Excluded from the drive timing.
    let quantum = Nanos::from_millis(QUANTUM_MS);
    let mut now = Nanos::ZERO;
    let mut due_buf: Vec<ProcId> = Vec::new();
    let mut obs: Vec<(ProcId, Observation)> = Vec::new();
    let mut out = QuantumOutcome::default();
    alps.begin_quantum_into(&mut due_buf);
    alps.complete_quantum_into(&[], now, &mut out);
    debug_assert_eq!(out.transitions.len(), n, "warm-up resumes everyone");

    // Stationary drive: due members report unchanged cumulative CPU, so
    // allowances never drain, the cycle never completes, and no
    // transitions fire — the loop body is the bare control path.
    let t_drive = std::time::Instant::now();
    let mut total_due = 0u64;
    for _ in 0..quanta {
        now += quantum;
        alps.begin_quantum_into(&mut due_buf);
        total_due += due_buf.len() as u64;
        obs.clear();
        obs.extend(due_buf.iter().map(|&id| {
            (
                id,
                Observation {
                    total_cpu: Nanos::ZERO,
                    blocked: false,
                },
            )
        }));
        alps.complete_quantum_into(&obs, now, &mut out);
        debug_assert!(out.transitions.is_empty(), "stationary drive");
        debug_assert!(!out.cycle_completed, "zero consumption: no boundary");
    }
    let drive_seconds = t_drive.elapsed().as_secs_f64();

    let t_teardown = std::time::Instant::now();
    let ids: Vec<ProcId> = alps.proc_ids().collect();
    for id in ids {
        alps.remove_process(id);
    }
    let teardown_seconds = t_teardown.elapsed().as_secs_f64();
    debug_assert!(alps.is_empty(), "teardown removes everyone");

    let drive_ns = drive_seconds * 1e9;
    SparsePoint {
        n,
        active,
        quanta,
        total_due,
        register_seconds,
        drive_seconds,
        teardown_seconds,
        ns_per_quantum: drive_ns / quanta.max(1) as f64,
        due_per_quantum: total_due as f64 / quanta.max(1) as f64,
        ns_per_due_member: drive_ns / total_due.max(1) as f64,
    }
}

/// Measure [`run_sparse_point`] `reps` times and keep the repetition
/// with the fastest drive (the headline phase), fanned across the sweep
/// executor.
pub fn run_sparse_best_of(n: usize, active: usize, quanta: u64, reps: usize) -> SparsePoint {
    alps_sweep::sweep_map((0..reps.max(1)).collect(), |_rep: usize| {
        run_sparse_point(n, active, quanta)
    })
    .into_iter()
    .min_by(|a, b| a.drive_seconds.total_cmp(&b.drive_seconds))
    .expect("reps >= 1")
}

/// One cell of the bench grid: the parameters of a [`run_point`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSpec {
    /// Number of workload processes.
    pub n: usize,
    /// §2.3 lazy measurement on/off.
    pub lazy: bool,
    /// Simulated seconds of steady-state drive.
    pub sim_secs: u64,
    /// CPUs the simulated machine models ([`SimConfig::cpus`]).
    pub cpus: usize,
}

/// CPU counts of the SMP series ([`sweep_specs`] runs the lazy variant
/// at each of these beyond 1).
pub const SMP_CPUS: [usize; 2] = [2, 4];

/// The full grid in its canonical (report) order. Per N: {lazy, eager}
/// on one CPU (the paper's machine), then the lazy variant on each of
/// [`SMP_CPUS`].
pub fn sweep_specs(fast: bool) -> Vec<SweepSpec> {
    let mut specs = Vec::new();
    for n in sweep_ns(fast) {
        let sim_secs = sim_secs_for(n, fast);
        for (lazy, cpus) in [(true, 1), (false, 1)]
            .into_iter()
            .chain(SMP_CPUS.map(|cpus| (true, cpus)))
        {
            specs.push(SweepSpec {
                n,
                lazy,
                sim_secs,
                cpus,
            });
        }
    }
    specs
}

/// {lazy, eager} per N at a single, explicit CPU count — what
/// `bench-scalability --cpus N` sweeps instead of [`sweep_specs`].
pub fn sweep_specs_at(fast: bool, cpus: usize) -> Vec<SweepSpec> {
    let mut specs = sweep_specs(fast);
    specs.retain(|s| s.cpus == 1);
    for s in &mut specs {
        s.cpus = cpus;
    }
    specs
}

/// Outcome of [`run_sweep`]: the kept (fastest-rep) points in spec
/// order, plus the sweep's cost on both axes — actual wall clock as
/// executed, and the serial-equivalent cost (the sum of every run's own
/// wall clock).
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The fastest repetition of each spec, in `specs` order.
    pub points: Vec<BenchPoint>,
    /// Wall-clock seconds for the whole sweep as executed.
    pub sweep_wall_seconds: f64,
    /// Sum of all `specs.len() × reps` individual run wall clocks.
    pub serial_wall_estimate_seconds: f64,
}

/// Run the whole grid, `reps` repetitions per spec, with every single
/// run (spec × rep) fanned across the sweep executor as one flat batch —
/// no nesting, so an expensive N=5000 point never idles the workers that
/// finished the cheap points. Results are reduced per spec by
/// fastest-repetition wall clock; the simulation-derived fields
/// ([`BenchPoint::sim_key`]) are identical at any thread count.
pub fn run_sweep(specs: &[SweepSpec], reps: usize) -> SweepOutcome {
    run_sweep_threads(alps_sweep::threads(), specs, reps)
}

/// [`run_sweep`] at an explicit thread count (determinism tests).
pub fn run_sweep_threads(threads: usize, specs: &[SweepSpec], reps: usize) -> SweepOutcome {
    let reps = reps.max(1);
    let jobs: Vec<SweepSpec> = specs
        .iter()
        .flat_map(|&s| std::iter::repeat_n(s, reps))
        .collect();
    let t_sweep = std::time::Instant::now();
    let runs = alps_sweep::sweep_map_threads(threads, jobs, |s| {
        run_point(s.n, s.lazy, s.sim_secs, s.cpus)
    });
    let sweep_wall_seconds = t_sweep.elapsed().as_secs_f64();
    let serial_wall_estimate_seconds = runs.iter().map(|p| p.wall_seconds).sum();
    let points = runs
        .chunks(reps)
        .map(|c| {
            c.iter()
                .min_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds))
                .expect("reps >= 1")
                .clone()
        })
        .collect();
    SweepOutcome {
        points,
        sweep_wall_seconds,
        serial_wall_estimate_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_pretty_json() {
        let report = BenchReport {
            name: "kernsim-scalability".into(),
            quantum_ms: QUANTUM_MS,
            share: SHARE,
            fast: true,
            threads: 4,
            host_cores: alps_sweep::host_cores(),
            sweep_wall_seconds: 0.25,
            serial_wall_estimate_seconds: 1.0,
            parallel_speedup: 4.0,
            points: vec![run_point(4, true, 1, 1), run_point(4, true, 1, 2)],
            sparse: vec![run_sparse_point(64, 8, 20)],
        };
        let back = BenchReport::parse(&report.to_pretty_json()).expect("parse");
        assert_eq!(report, back);
        assert!(report.point(4, false).is_none());
        // `point` is the one-CPU lookup; the SMP series needs `point_at`.
        assert_eq!(report.point(4, true).unwrap().sim_cpus, 1);
        assert!(report.point_at(4, true, 2).is_some());
        assert!(report.point_at(4, true, 4).is_none());
        assert_eq!(report.sparse_point(64).unwrap().n, 64);
        assert!(report.sparse_point(65).is_none());
        // Reports written before the sparse series existed (no "sparse"
        // key) still parse, to an empty series.
        let rendered = report.to_pretty_json();
        let (head, _tail) = rendered
            .split_once("  \"sparse\": [")
            .expect("series rendered");
        let legacy = format!("{}\n}}\n", head.trim_end().trim_end_matches(','));
        let back = BenchReport::parse(&legacy).expect("legacy parse");
        assert!(back.sparse.is_empty());
        assert_eq!(back.points, report.points);
    }

    #[test]
    fn sparse_point_is_stationary() {
        let p = run_sparse_point(256, 16, 40);
        // The 16 active members are due every 5 quanta: 8 spikes of 16
        // over 40 quanta, plus idle members whose staggered deadlines
        // fall inside the window (shares 1000+i: none within 40 quanta).
        assert_eq!(p.total_due, 8 * 16, "active cadence only");
        assert!(p.due_per_quantum > 0.0);
        assert!(p.ns_per_quantum > 0.0);
        assert!(p.ns_per_due_member > 0.0);
        assert_eq!(p.quanta, 40);
    }

    #[test]
    fn sweep_specs_cover_the_grid_in_report_order() {
        let specs = sweep_specs(true);
        // Per N ∈ {10,100}: {lazy,eager} on one CPU, then the lazy
        // variant at each SMP CPU count.
        assert_eq!(specs.len(), 2 * (2 + SMP_CPUS.len()));
        assert_eq!(sweep_specs(false).len(), 16);
        assert_eq!(specs[0].n, 10);
        assert!(specs[0].lazy && !specs[1].lazy);
        assert!(specs[..2].iter().all(|s| s.cpus == 1));
        assert_eq!((specs[2].cpus, specs[3].cpus), (2, 4));
        assert!(specs[2].lazy && specs[3].lazy);
        assert_eq!(specs[4].n, 100);
    }

    #[test]
    fn sweep_specs_at_pins_the_cpu_count_over_the_whole_grid() {
        let specs = sweep_specs_at(true, 2);
        assert_eq!(specs.len(), 2 * 2);
        assert!(specs.iter().all(|s| s.cpus == 2));
    }

    #[test]
    fn point_reports_drive_quanta_and_overhead() {
        let p = run_point(4, true, 2, 1);
        // A 10 ms quantum over 2 simulated seconds services ~200 quanta.
        assert!(
            (150..=250).contains(&p.drive_quanta),
            "drive_quanta {}",
            p.drive_quanta
        );
        assert!(p.supervisor_ns_per_quantum_per_member > 0.0);
        assert!(p.drive_fraction > 0.0 && p.drive_fraction <= 1.0);
    }
}
