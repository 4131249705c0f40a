//! The A/A study: the whole benchmark, several times, on the same code.
//!
//! Runs alternate between two sets, as the acceptance check's two sets do.
//! For every workload and end-to-end metric the study prints both sets'
//! medians and quartiles, the gap between the medians, and the spread of
//! all runs together (interquartile range over median). The bounds in
//! `BENCHMARK.json` come from this table; AA.md is its output.

use crate::measure::{median, quartiles};
use crate::report::{END_TO_END, WORKLOADS};
use crate::{child, parse_result, Opts};

fn host_facts() -> Vec<String> {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    vec![
        format!(
            "- `nproc`: {}",
            std::thread::available_parallelism().map_or(0, usize::from)
        ),
        format!("- CPU: {model}"),
        format!("- load average at start: {}", read("/proc/loadavg").trim()),
        format!("- kernel: {}", read("/proc/sys/kernel/osrelease").trim()),
    ]
}

/// `lower is better` metrics worsen upwards; `on_time_pct` downwards.
fn worse_by(name: &str, a: f64, b: f64) -> f64 {
    if name == "on_time_pct" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn study(o: &Opts) -> Result<bool, String> {
    let mut ok = true;
    println!("# A/A study: {} runs of every workload, same code", o.runs);
    println!();
    for line in host_facts() {
        println!("{line}");
    }
    println!(
        "- `--seconds {}`, seeds 1..={}, runs alternate between sets A and B",
        o.seconds, o.runs
    );
    println!();
    // values[workload][metric][run]
    let mut values = vec![vec![Vec::with_capacity(o.runs); END_TO_END.len()]; WORKLOADS.len()];
    for run in 0..o.runs {
        for (w, name) in WORKLOADS.iter().enumerate() {
            let text = child(
                name,
                &Opts {
                    seed: run as u64 + 1,
                    trace: false,
                    ..o.clone()
                },
            )?;
            let out = parse_result(&text, &END_TO_END)?;
            if out.failed > 0 {
                eprintln!("run {run} of {name}: {} operations failed", out.failed);
                ok = false;
            }
            for (m, (metric, _)) in END_TO_END.iter().enumerate() {
                values[w][m].push(out.metrics[metric]);
            }
            eprintln!("run {run} {name} done");
        }
    }
    println!("| workload | metric | A median [q1, q3] | B median [q1, q3] | B worse than A by | spread of all runs (IQR / median) |");
    println!("|---|---|---|---|---|---|");
    for (w, name) in WORKLOADS.iter().enumerate() {
        for (m, (metric, unit)) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let a: Vec<f64> = v.iter().copied().step_by(2).collect();
            let b: Vec<f64> = v.iter().copied().skip(1).step_by(2).collect();
            let cell = |s: &[f64]| {
                let (q1, _, q3) = quartiles(s);
                format!("{:.4} [{q1:.4}, {q3:.4}] {unit}", median(s))
            };
            let (q1, _, q3) = quartiles(v);
            println!(
                "| {name} | {metric} | {} | {} | {:+.2} % | {:.2} % |",
                cell(&a),
                cell(&b),
                100.0 * worse_by(metric, median(&a), median(&b)),
                100.0 * (q3 - q1) / median(v),
            );
        }
    }
    println!();
    println!("Every value, in run order:");
    println!();
    for (w, name) in WORKLOADS.iter().enumerate() {
        for (m, (metric, _)) in END_TO_END.iter().enumerate() {
            let list: Vec<String> = values[w][m].iter().map(|v| format!("{v:.4}")).collect();
            println!("- {name} {metric}: {}", list.join(" "));
        }
    }
    Ok(ok)
}
