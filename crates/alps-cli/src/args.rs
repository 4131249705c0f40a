//! Hand-rolled argument parsing (no CLI dependency).

use std::fmt;

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
alps — user-level proportional-share CPU scheduler (ALPS, HPDC 2006)

USAGE:
    alps run    [OPTIONS] SHARE:COMMAND...   spawn commands under control
    alps attach [OPTIONS] SHARE:PID...       control existing processes
    alps user   [OPTIONS] SHARE:UID...       control users (principals)
    alps probe                               measure Table-1 costs here

OPTIONS:
    -q, --quantum <ms>     ALPS quantum in milliseconds [default: 20]
    -d, --duration <s>     stop after this many seconds [default: forever]
    -r, --refresh <s>      membership refresh period for `user` [default: 1]
    -v, --verbose          print a status line at each completed cycle
    -t, --trace            trace every engine event to stderr
    -h, --help             show this help

EXAMPLES:
    alps run 1:'while :; do :; done' 3:'while :; do :; done'
    alps attach -q 10 -d 30 1:4711 4:4712
    alps user 1:1001 2:1002 3:1003";

/// A `share:target` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareSpec {
    /// The share weight.
    pub share: u64,
    /// Command string, pid, or uid, depending on mode.
    pub target: String,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// Spawn and supervise commands.
    Run(Opts),
    /// Supervise existing pids.
    Attach(Opts),
    /// Supervise users as principals.
    User(Opts),
    /// Live Table-1 probe.
    Probe,
    /// Print usage.
    Help,
}

/// Options shared by the supervising modes.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Quantum in milliseconds.
    pub quantum_ms: u64,
    /// Run duration in seconds; `None` = until interrupted.
    pub duration_s: Option<u64>,
    /// Membership refresh period (user mode).
    pub refresh_s: u64,
    /// Per-cycle status output.
    pub verbose: bool,
    /// Per-event engine trace on stderr.
    pub trace: bool,
    /// The share specs.
    pub specs: Vec<ShareSpec>,
}

/// Parse error.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

fn parse_spec(s: &str) -> Result<ShareSpec, ParseError> {
    let Some((share, target)) = s.split_once(':') else {
        return err(format!("expected SHARE:TARGET, got {s:?}"));
    };
    let share: u64 = share
        .parse()
        .map_err(|_| ParseError(format!("bad share in {s:?}")))?;
    if share == 0 {
        return err(format!("share must be positive in {s:?}"));
    }
    if target.is_empty() {
        return err(format!("empty target in {s:?}"));
    }
    Ok(ShareSpec {
        share,
        target: target.to_string(),
    })
}

/// The largest share total accepted: 2⁵³, the largest integer an `f64`
/// allowance (and cycle length in quanta) holds exactly.
const MAX_TOTAL_SHARES: u64 = 1 << 53;

const NS_PER_MS: u64 = 1_000_000;
const NS_PER_S: u64 = 1_000_000_000;

/// Parse a time value counted in units of `unit_ns` nanoseconds. A value
/// whose nanosecond count does not fit in an `i64` (about 292 years) is
/// rejected, so adding it to a clock reading cannot overflow.
fn parse_time(what: &str, v: &str, unit_ns: u64) -> Result<u64, ParseError> {
    let n: u64 = v
        .parse()
        .map_err(|_| ParseError(format!("bad {what} {v:?}")))?;
    let max = i64::MAX as u64 / unit_ns;
    if n > max {
        return err(format!("{what} {v} is out of range (at most {max})"));
    }
    Ok(n)
}

/// Parse an argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Cmd, ParseError> {
    let mut it = argv.iter().peekable();
    let Some(mode) = it.next() else {
        return err("missing subcommand");
    };
    match mode.as_str() {
        "-h" | "--help" | "help" => return Ok(Cmd::Help),
        "probe" => return Ok(Cmd::Probe),
        "run" | "attach" | "user" => {}
        other => return err(format!("unknown subcommand {other:?}")),
    }
    let mut opts = Opts {
        quantum_ms: 20,
        duration_s: None,
        refresh_s: 1,
        verbose: false,
        trace: false,
        specs: Vec::new(),
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-q" | "--quantum" => {
                let v = it
                    .next()
                    .ok_or(ParseError("--quantum needs a value".into()))?;
                opts.quantum_ms = parse_time("quantum", v, NS_PER_MS)?;
                if opts.quantum_ms == 0 {
                    return err("quantum must be positive");
                }
            }
            "-d" | "--duration" => {
                let v = it
                    .next()
                    .ok_or(ParseError("--duration needs a value".into()))?;
                opts.duration_s = Some(parse_time("duration", v, NS_PER_S)?);
            }
            "-r" | "--refresh" => {
                let v = it
                    .next()
                    .ok_or(ParseError("--refresh needs a value".into()))?;
                opts.refresh_s = parse_time("refresh", v, NS_PER_S)?;
                if opts.refresh_s == 0 {
                    return err("refresh must be positive");
                }
            }
            "-v" | "--verbose" => opts.verbose = true,
            "-t" | "--trace" => opts.trace = true,
            "-h" | "--help" => return Ok(Cmd::Help),
            spec => opts.specs.push(parse_spec(spec)?),
        }
    }
    if opts.specs.len() < 2 {
        return err("need at least two SHARE:TARGET pairs (one has nothing to share against)");
    }
    let total = opts
        .specs
        .iter()
        .try_fold(0u64, |sum, s| sum.checked_add(s.share));
    if total.is_none_or(|t| t > MAX_TOTAL_SHARES) {
        return err(format!(
            "share total is out of range (at most {MAX_TOTAL_SHARES})"
        ));
    }
    Ok(match mode.as_str() {
        "run" => Cmd::Run(opts),
        "attach" => Cmd::Attach(opts),
        _ => Cmd::User(opts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run_with_options() {
        let cmd = parse(&v(&["run", "-q", "10", "-d", "30", "1:sleep 5", "3:yes"])).unwrap();
        let Cmd::Run(o) = cmd else { panic!("not run") };
        assert_eq!(o.quantum_ms, 10);
        assert_eq!(o.duration_s, Some(30));
        assert_eq!(o.specs.len(), 2);
        assert_eq!(o.specs[0].share, 1);
        assert_eq!(o.specs[0].target, "sleep 5");
        assert_eq!(o.specs[1].share, 3);
    }

    #[test]
    fn parses_attach_and_user() {
        assert!(matches!(
            parse(&v(&["attach", "1:100", "2:200"])).unwrap(),
            Cmd::Attach(_)
        ));
        let Cmd::User(o) = parse(&v(&["user", "-r", "2", "1:1001", "2:1002"])).unwrap() else {
            panic!()
        };
        assert_eq!(o.refresh_s, 2);
    }

    #[test]
    fn target_may_contain_colons() {
        let Cmd::Run(o) = parse(&v(&["run", "1:echo a:b", "1:true"])).unwrap() else {
            panic!()
        };
        assert_eq!(o.specs[0].target, "echo a:b");
    }

    #[test]
    fn parses_trace_flag() {
        let Cmd::Run(o) = parse(&v(&["run", "--trace", "1:a", "1:b"])).unwrap() else {
            panic!()
        };
        assert!(o.trace);
        let Cmd::Run(o) = parse(&v(&["run", "1:a", "1:b"])).unwrap() else {
            panic!()
        };
        assert!(!o.trace);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&v(&[])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&["run", "1:x"])).is_err(), "one spec is pointless");
        assert!(parse(&v(&["run", "0:x", "1:y"])).is_err(), "zero share");
        assert!(parse(&v(&["run", "x:y", "1:z"])).is_err(), "bad share");
        assert!(parse(&v(&["run", "1:", "1:z"])).is_err(), "empty target");
        assert!(parse(&v(&["run", "-q", "0", "1:a", "1:b"])).is_err());
    }

    #[test]
    fn rejects_time_values_past_i64_nanoseconds() {
        // The largest values accepted: i64::MAX nanoseconds in ms and in s.
        for (mode, flag, max) in [
            ("run", "-q", 9_223_372_036_854u64),
            ("run", "-d", 9_223_372_036),
            ("user", "-r", 9_223_372_036),
        ] {
            let parse_at = |n: u64| parse(&v(&[mode, flag, &n.to_string(), "1:a", "1:b"]));
            assert!(parse_at(max).is_ok(), "{flag} {max}");
            for bad in [max + 1, u64::MAX] {
                let e = parse_at(bad).unwrap_err();
                assert!(e.0.contains("out of range"), "{flag} {bad}: {e}");
            }
        }
    }

    #[test]
    fn rejects_share_totals_past_2_pow_53() {
        let parse_shares =
            |a: u64, b: u64| parse(&v(&["run", &format!("{a}:x"), &format!("{b}:y")]));
        let max = 1u64 << 53;
        assert!(parse_shares(max - 1, 1).is_ok(), "the bound itself");
        for (a, b) in [(max, 1), (u64::MAX, 1), (u64::MAX, u64::MAX), (1, u64::MAX)] {
            let e = parse_shares(a, b).unwrap_err();
            assert!(e.0.contains("out of range"), "{a}+{b}: {e}");
        }
    }

    #[test]
    fn help_and_probe() {
        assert_eq!(parse(&v(&["--help"])).unwrap(), Cmd::Help);
        assert_eq!(parse(&v(&["probe"])).unwrap(), Cmd::Probe);
    }
}
