//! The repository's benchmark: four fixed-work workloads over the real
//! supervisor, the bare engine and the simulator. See README.md.
//!
//! ```text
//! alps-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! alps-benchmark all | ledger | aa | check | pin     (see `usage`)
//! ```

mod aa;
mod children;
mod core;
mod measure;
mod os;
mod report;
mod sim;
mod synth;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

const USAGE: &str = "\
usage: alps-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       alps-benchmark all    [--seed N] [--seconds S]   every workload, untraced, one table
       alps-benchmark ledger [--seed N] [--seconds S]   traced os-* runs, ledgers side by side
       alps-benchmark aa     [--runs N] [--seconds S]   A/A study (markdown on stdout)
       alps-benchmark check                             smoke run of everything, < 10 s
       alps-benchmark pin    [--from A] [--to B]        pins.txt lines for seeds A..=B
workloads: os-eager-256 os-churn-256 core-mix-4k sim-paper";

/// Command-line options, all optional but the workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
    pub from: u64,
    pub to: u64,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        runs: 10,
        from: 1,
        to: 32,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = number()?,
            "--seconds" => o.seconds = number()?.clamp(1, 60),
            "--trace" => o.trace = number()? != 0,
            "--runs" => o.runs = number()?.max(2) as usize,
            "--from" => o.from = number()?,
            "--to" => o.to = number()?,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// Where a run may write: the directory the benchmark was built into,
/// which is inside the checkout and ignored by git.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Run one workload in this process.
fn run_workload(name: &str, o: &Opts) -> Result<Outcome, String> {
    let trace_path = out_dir().join(format!("trace-{name}.json"));
    let out = match (name, o.trace) {
        ("os-eager-256", false) => os::run(os::Mode::Eager, o.seed, o.seconds, o.smoke),
        ("os-churn-256", false) => os::run(os::Mode::Churn, o.seed, o.seconds, o.smoke),
        ("core-mix-4k", false) => core::run(o.seed, o.seconds, o.smoke),
        ("sim-paper", false) => sim::run(o.seed, o.seconds, o.smoke),
        ("os-eager-256", true) => {
            os::run_traced(os::Mode::Eager, o.seed, o.seconds, o.smoke, &trace_path)
        }
        ("os-churn-256", true) => {
            os::run_traced(os::Mode::Churn, o.seed, o.seconds, o.smoke, &trace_path)
        }
        ("core-mix-4k", true) => core::run_traced(o.seed, o.seconds, o.smoke, &trace_path),
        ("sim-paper", true) => sim::run_traced(o.seed, o.seconds, o.smoke, &trace_path),
        _ => return Err(format!("unknown workload {name}")),
    };
    if o.trace {
        println!("spans written to {}", trace_path.display());
    }
    Ok(out)
}

/// Run one workload in a fresh process of this binary (so one workload's
/// peak RSS, allocator state and children cannot leak into the next) and
/// return its standard output.
pub fn child(workload: &str, o: &Opts) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!("{workload} exited with {}:\n{text}", output.status));
    }
    Ok(text)
}

/// The result line of a child's output, as an [`Outcome`].
pub fn parse_result(text: &str, table: &[(&'static str, &'static str)]) -> Result<Outcome, String> {
    let line = text.lines().last().unwrap_or_default();
    let mut out = Outcome {
        attempted: report::field_in(line, "attempted").ok_or("no result line")?,
        failed: report::field_in(line, "failed").ok_or("no result line")?,
        ..Outcome::default()
    };
    for &(name, _) in table {
        let v = report::metric_in(line, name).ok_or_else(|| format!("no {name} in the result"))?;
        out.set(name, v);
    }
    Ok(out)
}

fn all(o: &Opts) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let text = child(w, o)?;
        let out = parse_result(&text, &END_TO_END)?;
        ok &= out.failed == 0;
        rows.push((w, out));
    }
    print!("{:<14}", "workload");
    for (name, unit) in END_TO_END {
        print!(" {:>22}", format!("{name} [{unit}]"));
    }
    println!(" {:>13} {:>10}", "ops_attempted", "ops_failed");
    for (w, out) in rows {
        print!("{w:<14}");
        for (name, _) in END_TO_END {
            print!(" {:>22.4}", out.metrics[name]);
        }
        println!(" {:>13} {:>10}", out.attempted, out.failed);
    }
    Ok(ok)
}

fn ledger(o: &Opts) -> Result<bool, String> {
    let o = Opts {
        trace: true,
        ..o.clone()
    };
    let mut results = Vec::new();
    for w in ["os-eager-256", "os-churn-256"] {
        let text = child(w, &o)?;
        for line in text
            .lines()
            .filter(|l| l.contains("refit") || l.contains("sweep N="))
        {
            println!("{line}");
        }
        results.push((w, parse_result(&text, &PER_LAYER)?));
    }
    let refs: Vec<(&str, &Outcome)> = results.iter().map(|(w, r)| (*w, r)).collect();
    for line in os::ledger_table(&refs) {
        println!("{line}");
    }
    for (w, r) in &results {
        println!(
            "{w}: bench.trace_overhead_pct = {:.2} %, ops_failed = {}",
            r.metrics["bench.trace_overhead_pct"], r.failed
        );
    }
    Ok(results.iter().all(|(_, r)| r.failed == 0))
}

/// Everything at smoke scale, traced and untraced, one run after another
/// (side by side, the runs disturb each other's children and the eager
/// read count slips). Checks that each run passes its correctness checks
/// and prints every metric it owes.
fn check(o: &Opts) -> Result<bool, String> {
    let started = std::time::Instant::now();
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let o = Opts {
                trace,
                smoke: true,
                ..o.clone()
            };
            let table: &[_] = if trace { &PER_LAYER } else { &END_TO_END };
            let out = parse_result(&child(w, &o)?, table)?;
            let names: Vec<&str> = out.metrics.keys().copied().collect();
            println!(
                "{w} trace={} ops_attempted={} ops_failed={} metrics: {}",
                u8::from(trace),
                out.attempted,
                out.failed,
                names.join(" ")
            );
            ok &= out.failed == 0;
        }
    }
    println!("check took {:.1} s", started.elapsed().as_secs_f64());
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let result = parse(rest).and_then(|o| match command {
        "run" => {
            let name = o.workload.clone().ok_or("--workload is required")?;
            let out = run_workload(&name, &o)?;
            out.print(&name, if o.trace { &PER_LAYER } else { &END_TO_END });
            // A failed check is reported in the result line, not by the
            // exit code: the run itself completed.
            Ok(true)
        }
        "all" => all(&o),
        "ledger" => ledger(&o),
        "aa" => aa::study(&o),
        "check" => check(&o),
        "pin" => {
            for seed in o.from..=o.to {
                println!("{}", sim::pin_line(seed));
            }
            Ok(true)
        }
        _ => Err(format!("unknown command {command}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("alps-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
