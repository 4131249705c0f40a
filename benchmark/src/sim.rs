//! `sim-paper`: what `repro` users run, with no operating system in it.
//!
//! One pass is the paper's Figure-4 accuracy grid (`run_workload` on the
//! nine Table-2 distributions at seven quantum lengths) followed by the
//! Figure-8 scalability series (N from 5 to 120 at a 10 ms quantum), run
//! one after the other on one thread. Simulated results are a pure function
//! of the seed, so a pass doubles as a correctness pin: every pass of a run
//! must reproduce the first bit for bit, and seeds with an entry in
//! `pins.txt` must reproduce that too.

use std::path::Path;

use alps_core::{AlpsConfig, Nanos};
use alps_metrics::mean_rms_relative_error_pct;
use alps_sim::experiments::workload::{run_workload, WorkloadParams, WorkloadRun};
use alps_sim::{spawn_alps, AlpsHandle, CostModel};
use kernsim::{ComputeBound, Sim, SimConfig};
use workloads::ShareModel;

use crate::measure::{fastest, peak_rss_mb, thread_cpu_ns};
use crate::report::{Outcome, RUN_SECONDS};
use crate::trace::Tracer;

/// Fingerprints of the simulated results per seed: `seed fingerprint`.
/// Regenerate with the `pin` subcommand when a change is *meant* to alter
/// what the simulator computes.
const PINS: &str = include_str!("../pins.txt");

/// Timed passes at the driver's `--seconds`.
const PASSES_AT_RUN_SECONDS: u64 = 16;

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Cycles recorded per Figure-4 cell (the paper's 200).
    pub fig4_cycles: u64,
    /// Simulated seconds per Figure-8 point.
    pub fig8_secs: u64,
    /// Timed passes (after one discarded warm-up pass).
    pub passes: usize,
    /// Times every world of a pass is set up, for `setup_s`.
    pub setups: usize,
    /// Worlds built per timed piece of set-up.
    pub worlds_per_piece: usize,
}

impl Plan {
    pub fn new(seconds: u64, smoke: bool) -> Plan {
        if smoke {
            return Plan {
                fig4_cycles: 10,
                fig8_secs: 2,
                passes: 1,
                setups: 2,
                worlds_per_piece: 2,
            };
        }
        Plan {
            fig4_cycles: 200,
            fig8_secs: 40,
            // ≈ 1.1 s a pass on the reference box.
            passes: (PASSES_AT_RUN_SECONDS * seconds / RUN_SECONDS).max(3) as usize,
            setups: 15,
            worlds_per_piece: 20,
        }
    }
}

const FIG4_MODELS: [ShareModel; 3] = [ShareModel::Skewed, ShareModel::Linear, ShareModel::Equal];
const FIG4_NS: [usize; 3] = [5, 10, 20];
const FIG4_QUANTA_MS: [u64; 7] = [10, 15, 20, 25, 30, 35, 40];
const FIG8_NS: [usize; 13] = [5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120];
const FIG8_QUANTUM_MS: u64 = 10;
const FIG4_CELLS: usize = FIG4_MODELS.len() * FIG4_NS.len() * FIG4_QUANTA_MS.len();

/// The experiments of one pass, Figure 4 first.
fn experiments(plan: &Plan, seed: u64) -> Vec<WorkloadParams> {
    let mut exps = Vec::with_capacity(FIG4_CELLS + FIG8_NS.len());
    for model in FIG4_MODELS {
        for n in FIG4_NS {
            for q in FIG4_QUANTA_MS {
                let mut p = WorkloadParams::new(model, n, Nanos::from_millis(q)).with_seed(seed);
                p.target_cycles = plan.fig4_cycles;
                exps.push(p);
            }
        }
    }
    // §4.2: five shares per process whatever N, run for a fixed time so
    // the decay-scheduler equilibrium behind the breakdown can form.
    let quantum = Nanos::from_millis(FIG8_QUANTUM_MS);
    let duration = Nanos::from_secs(plan.fig8_secs);
    for n in FIG8_NS {
        let mut p = WorkloadParams::new(ShareModel::Equal, n, quantum).with_seed(seed);
        p.warmup_cycles = 1;
        let cycle_cpu = quantum.as_nanos() * 5 * n as u64;
        p.target_cycles = duration.as_nanos().div_ceil(cycle_cpu).max(2);
        p.uniform_share = Some(5);
        p.min_duration = duration;
        exps.push(p);
    }
    exps
}

/// Run every experiment once. Returns thread CPU ns per experiment and the
/// results.
fn pass(exps: &[WorkloadParams]) -> (Vec<u64>, Vec<WorkloadRun>) {
    let mut ns = Vec::with_capacity(exps.len());
    let mut runs = Vec::with_capacity(exps.len());
    for p in exps {
        let c0 = thread_cpu_ns();
        let run = run_workload(p);
        ns.push(thread_cpu_ns() - c0);
        runs.push(run);
    }
    (ns, runs)
}

/// Everything a run reports, as integers: floats by their bits.
fn result_words(r: &WorkloadRun) -> [u64; 9] {
    [
        r.mean_rms_error_pct.to_bits(),
        r.overhead_pct.to_bits(),
        r.cycles as u64,
        r.duration.as_nanos(),
        r.alps_cpu.as_nanos(),
        r.quanta_serviced,
        r.quanta_expected,
        r.measurements,
        r.signals,
    ]
}

/// FNV-1a over the result words of a pass.
pub fn fingerprint(runs: &[WorkloadRun]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in runs {
        for w in result_words(r) {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn pinned(seed: u64) -> Option<u64> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            Some((f.next()?.parse::<u64>().ok()?, f.next()?))
        })
        .find(|&(s, _)| s == seed)
        .map(|(_, fp)| u64::from_str_radix(fp, 16).expect("pins.txt holds hex fingerprints"))
}

/// One `pins.txt` line for `seed`, at full scale.
pub fn pin_line(seed: u64) -> String {
    let plan = Plan::new(RUN_SECONDS, false);
    let (_, runs) = pass(&experiments(&plan, seed));
    format!("{seed} {:016x}", fingerprint(&runs))
}

/// The simulated machine and population `run_workload` builds for `p`, with
/// ALPS supervising it or without.
fn world(p: &WorkloadParams, supervised: bool) -> (Sim, Option<AlpsHandle>) {
    let shares = match p.uniform_share {
        Some(s) => vec![s; p.n],
        None => p.model.shares(p.n),
    };
    let mut sim = Sim::new(SimConfig {
        seed: p.seed,
        spawn_estcpu_jitter: 8.0,
        ..SimConfig::default()
    });
    let procs: Vec<(kernsim::Pid, u64)> = shares
        .iter()
        .enumerate()
        .map(|(i, &s)| (sim.spawn(format!("w{i}"), Box::new(ComputeBound)), s))
        .collect();
    let alps = supervised.then(|| {
        let cfg = AlpsConfig::new(p.quantum)
            .with_lazy_measurement(p.lazy_measurement)
            .with_cycle_log(true);
        spawn_alps(&mut sim, "alps", cfg, CostModel::paper(), &procs)
    });
    (sim, alps)
}

/// Thread CPU ns to build `worlds` supervised worlds of `p`.
fn build_ns(p: &WorkloadParams, worlds: usize) -> u64 {
    let c0 = thread_cpu_ns();
    for _ in 0..worlds {
        std::hint::black_box(world(p, true));
    }
    thread_cpu_ns() - c0
}

struct Passes {
    /// Fastest sighting of each experiment, ns.
    experiment_ns: Vec<u64>,
    runs: Vec<WorkloadRun>,
}

/// Warm-up pass, then `plan.passes` timed ones, checked against each other
/// and the pin.
fn timed_passes(plan: &Plan, seed: u64, smoke: bool, out: &mut Outcome) -> Passes {
    let exps = experiments(plan, seed);
    let (_, reference) = pass(&exps);
    let want = fingerprint(&reference);
    if !smoke {
        match pinned(seed) {
            Some(pin) if pin != want => out.fail(format!(
                "seed {seed}: simulated results {want:016x} differ from the pinned {pin:016x}"
            )),
            Some(_) => out.note(format!("seed {seed}: results match pins.txt ({want:016x})")),
            None => out.note(format!(
                "seed {seed} has no pin; passes are checked against each other only ({want:016x})"
            )),
        }
    }
    let mut repeats = Vec::with_capacity(plan.passes);
    for i in 0..plan.passes {
        let (ns, runs) = pass(&exps);
        out.attempted += runs.iter().map(|r| r.quanta_serviced).sum::<u64>();
        if fingerprint(&runs) != want {
            let cell = runs
                .iter()
                .zip(&reference)
                .position(|(a, b)| result_words(a) != result_words(b));
            out.fail(format!(
                "pass {i} differs from the first at experiment {cell:?}"
            ));
        }
        out.note(format!(
            "pass {i}: {:.3} s",
            ns.iter().sum::<u64>() as f64 / 1e9
        ));
        repeats.push(ns);
    }
    Passes {
        experiment_ns: fastest(&repeats),
        runs: reference,
    }
}

/// N = 20 worlds built per timed piece of the enrolment measurement.
const ENROLL_WORLDS: usize = 200;

pub fn run(seed: u64, seconds: u64, smoke: bool) -> Outcome {
    let plan = Plan::new(seconds, smoke);
    let mut out = Outcome::default();
    out.note(format!("sim-paper plan: {plan:?}"));
    let exps = experiments(&plan, seed);

    // Set-up: every world of a pass, built apart from the runs because
    // `run_workload` does not let go of a world between building and
    // running it. Each piece is `worlds_per_piece` builds of one world.
    // Enrolment: worlds of 20 processes, in batches. Half of both before
    // the passes and half after, so that one burst of interference cannot
    // sit on every repeat.
    let linear20 = WorkloadParams::new(ShareModel::Linear, 20, Nanos::from_millis(10));
    let worlds = if smoke { 10 } else { ENROLL_WORLDS };
    let (mut setups, mut enrolls) = (Vec::new(), Vec::new());
    let mut set_up = |times: usize| {
        for _ in 0..times {
            setups.push(
                exps.iter()
                    .map(|p| build_ns(p, plan.worlds_per_piece))
                    .collect::<Vec<u64>>(),
            );
            enrolls.push(vec![build_ns(&linear20, worlds)]);
        }
    };
    set_up(plan.setups.div_ceil(2));
    let passes = timed_passes(&plan, seed, smoke, &mut out);
    set_up(plan.setups / 2);
    let setup_ns: u64 = fastest(&setups).iter().sum();
    out.set(
        "setup_s",
        setup_ns as f64 / plan.worlds_per_piece as f64 / 1e9,
    );
    out.note(format!(
        "sim-paper enroll_us_p50 = {:.4} us (a world of 20 / 20, batches of {worlds}; not gated)",
        fastest(&enrolls)[0] as f64 / 1e3 / (worlds * linear20.n) as f64
    ));
    out.attempted +=
        (plan.setups * (exps.len() * plan.worlds_per_piece + worlds * linear20.n)) as u64;

    let serviced: u64 = passes.runs.iter().map(|r| r.quanta_serviced).sum();
    let expected: u64 = passes.runs.iter().map(|r| r.quanta_expected).sum();
    let pass_ns: u64 = passes.experiment_ns.iter().sum();
    out.note(format!(
        "fastest of {} passes: {:.3} s for {serviced} ALPS quanta ({:.0} simulated s per host s)",
        plan.passes,
        pass_ns as f64 / 1e9,
        passes
            .runs
            .iter()
            .map(|r| r.duration.as_secs_f64())
            .sum::<f64>()
            / (pass_ns as f64 / 1e9),
    ));
    out.set("quantum_cpu_us_p50", pass_ns as f64 / 1e3 / serviced as f64);
    out.set("on_time_pct", 100.0 * serviced as f64 / expected as f64);
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// Simulated seconds each world runs for the kernel-only / supervised
/// comparison of the traced run.
const COMPARE_SIM_SECS: u64 = 200;

pub fn run_traced(seed: u64, seconds: u64, smoke: bool, trace_path: &Path) -> Outcome {
    let mut plan = Plan::new(seconds, smoke);
    plan.passes = 1;
    let mut out = Outcome::default();
    out.note(format!("sim-paper plan: {plan:?}"));
    let exps = experiments(&plan, seed);
    let mut tracer = Tracer::with_capacity(8 * exps.len() + 64);

    // The paper's three numbers, from one real pass.
    let passes = timed_passes(&plan, seed, smoke, &mut out);
    let fig4 = &passes.runs[..FIG4_CELLS];
    let fig8 = &passes.runs[FIG4_CELLS..];
    out.set(
        "sim.share_err_rms_pct_mean",
        fig4.iter().map(|r| r.mean_rms_error_pct).sum::<f64>() / fig4.len() as f64,
    );
    let at = |n: usize| &fig8[FIG8_NS.iter().position(|&x| x == n).expect("sampled N")];
    out.set("sim.overhead_pct_n100", at(100).overhead_pct);
    out.set(
        "sim.serviced_pct_n120",
        100.0 * at(120).quanta_serviced as f64 / at(120).quanta_expected as f64,
    );
    let serviced: u64 = passes.runs.iter().map(|r| r.quanta_serviced).sum();
    let pass_ns: u64 = passes.experiment_ns.iter().sum();
    out.set(
        "bench.untraced_quantum_cpu_us_p50",
        pass_ns as f64 / 1e3 / serviced as f64,
    );

    // The same populations on the bare simulated kernel and under ALPS,
    // each for a fixed simulated time: what the supervisor adds to a
    // simulated second.
    let n_kernel = tracer.name("sim.kernel_only");
    let n_supervised = tracer.name("sim.supervised");
    let n_spawn = tracer.name("sim.spawn");
    let n_metrics = tracer.name("sim.metrics");
    let horizon = Nanos::from_secs(if smoke { 1 } else { COMPARE_SIM_SECS });
    let (mut events, mut switches) = (0u64, 0u64);
    for p in &exps {
        let (mut bare, _) = world(p, false);
        tracer.span(n_kernel, || bare.run_until(horizon));
        let s = tracer.begin(n_spawn);
        let (mut sim, _) = world(p, true);
        tracer.end(s);
        events += tracer.span(n_supervised, || sim.run_until(horizon));
        switches += sim.context_switches();
    }
    // The accuracy statistic over a log the size Figure 4 takes it over:
    // Linear20's 200 cycles of 400 quanta (plus the three warm-up cycles).
    let linear20 = WorkloadParams::new(ShareModel::Linear, 20, Nanos::from_millis(10));
    let (mut sim, alps) = world(&linear20.with_seed(seed), true);
    sim.run_until(Nanos::from_secs(if smoke { 20 } else { 820 }));
    let log = alps.expect("supervised").cycles();
    const CALLS: usize = 200;
    tracer.span(n_metrics, || {
        for _ in 0..CALLS {
            std::hint::black_box(mean_rms_relative_error_pct(std::hint::black_box(&log), 3));
        }
    });
    let sim_s = horizon.as_secs_f64() * exps.len() as f64;
    let total_us = |name| tracer.durations(name, 0).iter().sum::<u64>() as f64 / 1e3;
    let (kernel, supervised) = (total_us(n_kernel), total_us(n_supervised));
    out.set("sim.kernel_only_us_per_sim_s", kernel / sim_s);
    out.set("sim.supervised_us_per_sim_s", supervised / sim_s);
    out.set(
        "sim.alps_share_pct",
        100.0 * (supervised - kernel) / supervised,
    );
    out.set("sim.events_per_sim_s", events as f64 / sim_s);
    out.set("sim.context_switches", switches as f64);
    out.set("sim.spawn_us", total_us(n_spawn) / exps.len() as f64);

    out.set("sim.metrics_us", total_us(n_metrics) / CALLS as f64);
    out.note(format!(
        "sim.metrics_us is one call over a {}-cycle log of 20 processes",
        log.len()
    ));

    out.set("bench.clock_cost_ns", tracer.clock_cost_ns() as f64);
    out.set("bench.spans", tracer.len() as f64);
    if let Err(e) = tracer.write_json(trace_path, "sim-paper") {
        out.fail(format!("writing {}: {e}", trace_path.display()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_is_a_pure_function_of_the_seed() {
        let plan = Plan::new(RUN_SECONDS, true);
        let (_, a) = pass(&experiments(&plan, 5));
        let (_, b) = pass(&experiments(&plan, 5));
        let (_, c) = pass(&experiments(&plan, 6));
        assert_eq!(a.len(), FIG4_CELLS + FIG8_NS.len());
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert!(a.iter().all(|r| r.quanta_serviced > 0));
    }

    #[test]
    fn pins_parse_and_cover_the_first_seeds() {
        for seed in 1..=10 {
            assert!(pinned(seed).is_some(), "seed {seed} has no pin");
        }
        assert_eq!(pinned(u64::MAX), None);
    }
}
