//! `repro` — regenerate every table and figure of the ALPS paper.
//!
//! Usage: `repro [--quick] [--threads N] [--data <dir>] <experiment>...`
//! where experiments are any of `table1 table2 fig4 fig5 ablation
//! accounting fig6 io-policy fig7 table3 fig8 fig9 thresholds websrv
//! conformance verify all` (`all` runs every one but `conformance`).
//! Every name is checked before any experiment runs.

#![forbid(unsafe_code)]

mod commands;
mod output;

use commands::Scale;

const USAGE: &str = "\
usage: repro [--quick] [--threads N] [--data <dir>] <experiment>...
experiments: table1 table2 fig4 fig5 ablation accounting fig6 io-policy
             fig7 table3 fig8 fig9 thresholds websrv conformance verify
             all (every experiment above but conformance)
--quick: shorter runs (fewer cycles/seeds) for smoke testing
--threads N: sweep worker threads (1 = serial; default all cores)
--data <dir>: also write gnuplot-ready .dat files";

/// What `all` runs, in order: every experiment but `conformance`.
const ALL: [&str; 15] = [
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
    "verify",
];

/// The experiments `args` names, in order (`all` anywhere selects
/// [`ALL`]), or the first name that is not an experiment.
fn select(args: &[String]) -> Result<Vec<&'static str>, &str> {
    let names = args
        .iter()
        .map(|a| {
            ALL.iter()
                .chain(&["conformance", "all"])
                .find(|&&n| n == a)
                .copied()
                .ok_or(a.as_str())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(if names.contains(&"all") {
        ALL.to_vec()
    } else {
        names
    })
}

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
    let selected = select(&args).unwrap_or_else(|other| {
        eprintln!("unknown experiment: {other}");
        usage()
    });
    let scale = if quick { Scale::quick() } else { Scale::full() };
    for exp in selected {
        match exp {
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
            "conformance" => commands::conformance(quick),
            "verify" => commands::verify(),
            other => unreachable!("{other} passed select"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn every_name_is_checked_before_any_runs() {
        assert_eq!(select(&args(&["fig4", "bogus"])), Err("bogus"));
        for retired in ["baseline", "batch", "latency"] {
            assert_eq!(select(&args(&["table2", retired])), Err(retired));
            assert_eq!(select(&args(&["all", retired])), Err(retired));
        }
    }

    #[test]
    fn all_selects_every_experiment_but_conformance() {
        assert_eq!(select(&args(&["fig6", "all"])), Ok(ALL.to_vec()));
        assert_eq!(
            select(&args(&["conformance", "fig6"])),
            Ok(vec!["conformance", "fig6"])
        );
    }
}
