//! `repro` — regenerate every table and figure of the ALPS paper.
//!
//! Usage: `repro [--quick] [--threads N] [--data <dir>] <experiment>...`
//! where experiments are any of `table1 table2 fig4 fig5 ablation
//! accounting fig6 io-policy fig7 table3 fig8 fig9 thresholds websrv
//! baseline batch conformance verify latency all`
//! (`all` runs every one but `conformance`).

#![forbid(unsafe_code)]

mod commands;
mod output;

use commands::Scale;

const USAGE: &str = "\
usage: repro [--quick] [--threads N] [--data <dir>] <experiment>...
experiments: table1 table2 fig4 fig5 ablation accounting fig6 io-policy
             fig7 table3 fig8 fig9 thresholds websrv baseline batch
             conformance verify latency
             all (every experiment above but conformance)
--quick: shorter runs (fewer cycles/seeds) for smoke testing
--threads N: sweep worker threads (1 = serial; default all cores)
--data <dir>: also write gnuplot-ready .dat files";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let data_dir = args.iter().position(|a| a == "--data").map(|i| {
        if i + 1 >= args.len() {
            eprintln!("error: --data needs a directory");
            std::process::exit(2);
        }
        std::path::PathBuf::from(args[i + 1].clone())
    });
    if let Some(i) = args.iter().position(|a| a == "--data") {
        args.drain(i..=i + 1);
    }
    output::set_data_dir(data_dir);
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        if i + 1 >= args.len() {
            eprintln!("error: --threads needs a count");
            std::process::exit(2);
        }
        match args[i + 1].parse::<usize>() {
            Ok(n) if n >= 1 => alps_sweep::set_threads(Some(n)),
            _ => {
                eprintln!(
                    "error: --threads wants an integer >= 1, got {:?}",
                    args[i + 1]
                );
                std::process::exit(2);
            }
        }
        args.drain(i..=i + 1);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if args.is_empty() {
        usage();
    }
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let all = [
        "table1",
        "table2",
        "fig4",
        "fig5",
        "ablation",
        "accounting",
        "fig6",
        "io-policy",
        "fig7",
        "table3",
        "fig8",
        "fig9",
        "thresholds",
        "websrv",
        "baseline",
        "batch",
        "latency",
        "verify",
    ];
    let selected: Vec<String> = if args.iter().any(|a| a == "all") {
        all.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    for exp in &selected {
        match exp.as_str() {
            "table1" => commands::table1(),
            "table2" => commands::table2(),
            "fig4" => commands::fig4(&scale),
            "fig5" => commands::fig5(&scale),
            "ablation" => commands::ablation(&scale),
            "accounting" => commands::accounting(&scale),
            "fig6" => commands::fig6(),
            "io-policy" => commands::io_policy(),
            "fig7" => commands::fig7(),
            "table3" => commands::table3(),
            "fig8" => commands::scalability(&scale, "fig8"),
            "fig9" => commands::scalability(&scale, "fig9"),
            "thresholds" => commands::scalability(&scale, "thresholds"),
            "websrv" => commands::websrv(&scale),
            "baseline" => commands::baseline(&scale),
            "batch" => commands::batch(),
            "conformance" => commands::conformance(quick),
            "verify" => commands::verify(),
            "latency" => commands::latency(&scale),
            other => {
                eprintln!("unknown experiment: {other}");
                usage();
            }
        }
    }
}
