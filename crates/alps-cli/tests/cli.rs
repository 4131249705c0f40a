//! End-to-end tests of the `alps` binary: real child processes, real
//! signals, real /proc sampling.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn alps() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alps"))
}

#[test]
fn help_prints_usage() {
    let out = alps().arg("--help").output().expect("run alps");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("alps run"), "{text}");
    assert!(text.contains("--quantum"), "{text}");
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    let out = alps().arg("frobnicate").output().expect("run alps");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn probe_reports_microsecond_costs() {
    let out = alps().arg("probe").output().expect("run alps");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("timer event"), "{text}");
    assert!(text.contains("signal a process"), "{text}");
}

#[test]
fn run_mode_enforces_shares_end_to_end() {
    // Two spinners, 1:3, for three seconds of real time.
    let out = alps()
        .args([
            "run",
            "-q",
            "20",
            "-d",
            "3",
            "-v",
            "1:while :; do :; done",
            "3:while :; do :; done",
        ])
        .output()
        .expect("run alps");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    // The verbose cycle log shows per-cycle consumption "1:..ms 3:..ms".
    assert!(err.contains("alps: done"), "{err}");
    assert!(err.contains("cycle"), "{err}");
    // Sum each member's consumption over every cycle line and check the
    // ratio of the sums loosely: one cycle on a loaded host can leave a
    // member at 0 ms, the whole run cannot.
    let (mut one, mut three) = (0.0f64, 0.0f64);
    for line in err.lines().filter(|l| l.contains("ms cpu  [")) {
        let bracket = &line[line.find('[').unwrap() + 1..line.rfind(']').unwrap()];
        let mut parts = bracket.split_whitespace();
        let mut ms = |share: &str| -> f64 {
            parts
                .next()
                .unwrap_or_else(|| panic!("two members in {line:?}"))
                .trim_start_matches(share)
                .trim_end_matches("ms")
                .parse()
                .unwrap_or_else(|e| panic!("{e} in {line:?}"))
        };
        one += ms("1:");
        three += ms("3:");
    }
    assert!(one > 0.0 && three > 0.0, "{err}");
    let ratio = three / one;
    assert!(
        (1.5..=6.0).contains(&ratio),
        "ratio {ratio} from {three} ms / {one} ms"
    );
}

#[test]
fn trace_mode_emits_well_formed_events() {
    let out = alps()
        .args([
            "run",
            "-q",
            "20",
            "-d",
            "2",
            "-t",
            "1:while :; do :; done",
            "2:while :; do :; done",
        ])
        .output()
        .expect("run alps");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);

    // Quantum events: "[   <secs>] quantum #<n>: <due> due" — timestamped,
    // numbered, and carrying a due count.
    let quanta: Vec<&str> = err.lines().filter(|l| l.contains("quantum #")).collect();
    assert!(quanta.len() >= 10, "expected many quantum events:\n{err}");
    for l in &quanta {
        assert!(l.starts_with('['), "{l}");
        assert!(l.contains("] quantum #"), "{l}");
        assert!(l.trim_end().ends_with("due"), "{l}");
    }
    // Quantum numbers are strictly increasing.
    let numbers: Vec<u64> = quanta
        .iter()
        .map(|l| {
            let after = &l[l.find('#').unwrap() + 1..];
            after[..after.find(':').unwrap()].parse().unwrap()
        })
        .collect();
    assert!(numbers.windows(2).all(|w| w[0] < w[1]), "{numbers:?}");

    // Signal events name the member and the signal direction.
    let signals: Vec<&str> = err.lines().filter(|l| l.contains("signal  ")).collect();
    assert!(!signals.is_empty(), "{err}");
    for l in &signals {
        assert!(l.contains(": STOP") || l.contains(": CONT"), "{l}");
    }

    // Measurements report cpu in milliseconds; cycle completions are
    // timestamped like quanta.
    assert!(
        err.lines()
            .any(|l| l.contains("measure ") && l.contains("ms")),
        "{err}"
    );
    assert!(
        err.lines()
            .any(|l| l.starts_with('[') && l.contains("cycle") && l.contains("complete")),
        "{err}"
    );
    assert!(err.contains("alps: done"), "{err}");
}

/// Someone else stops a command `alps run` means to run: the next
/// measurement reads it stopped and `alps` resumes it, long before the
/// run ends and releases everything.
#[test]
fn run_mode_resumes_a_command_stopped_behind_its_back() {
    let mut child = alps()
        .args([
            "run",
            "-q",
            "10",
            "-d",
            "3",
            "1:exec sleep 30",
            "1:exec sleep 30",
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("run alps");
    let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
    // "alps: pid <pid> <- 1 share(s): exec sleep 30"
    let pid: i32 = lines
        .by_ref()
        .map_while(Result::ok)
        .find_map(|l| {
            l.strip_prefix("alps: pid ")?
                .split(' ')
                .next()?
                .parse()
                .ok()
        })
        .expect("alps names the pid it spawned");
    // Keep draining so alps never blocks on a full pipe.
    let rest = std::thread::spawn(move || lines.map_while(Result::ok).collect::<Vec<_>>());
    let state = || alps_os::read_stat(pid, alps_os::proc::ns_per_tick()).map(|s| s.state);
    let until = |want: fn(char) -> bool| {
        let end = Instant::now() + Duration::from_secs(1);
        while Instant::now() < end {
            if state().is_ok_and(want) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    };
    assert!(until(|s| s != 'T'), "the first quantum resumes the command");
    alps_os::signal::sigstop(pid).expect("stop the command");
    std::thread::sleep(Duration::from_millis(200));
    assert!(until(|s| s != 'T'), "alps left its command stopped");
    assert!(child.wait().expect("alps exits").success());
    let err = rest.join().expect("stderr reader").join("\n");
    assert!(err.contains("alps: done"), "{err}");
}

#[test]
fn bad_share_spec_exits_2_with_usage() {
    for argv in [
        vec!["run", "0:sleep 1", "1:sleep 1"],  // zero share
        vec!["run", "nocolon", "1:sleep 1"],    // no colon
        vec!["run", "x:sleep 1", "1:sleep 1"],  // non-numeric share
        vec!["run", "1:sleep 1"],               // only one spec
        vec!["run", "-q", "0", "1:a", "2:b"],   // zero quantum
        vec!["run", "-q", "abc", "1:a", "2:b"], // bad quantum
        vec!["run", "--quantum"],               // missing value
        vec![],                                 // no subcommand
    ] {
        let out = alps().args(&argv).output().expect("run alps");
        assert_eq!(out.status.code(), Some(2), "argv {argv:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "argv {argv:?}: {err}");
        assert!(err.contains("USAGE"), "argv {argv:?}: {err}");
    }
}

#[test]
fn out_of_range_values_exit_2_before_spawning() {
    for argv in [
        ["run", "-d", "18446744073709551615", "1:true", "2:true"], // duration past i64 ns
        ["run", "-d", "1", "18446744073709551615:true", "1:true"], // share total past 2^53
    ] {
        let out = alps().args(argv).output().expect("run alps");
        assert_eq!(out.status.code(), Some(2), "argv {argv:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("out of range"), "argv {argv:?}: {err}");
        assert!(err.contains("USAGE"), "argv {argv:?}: {err}");
        assert!(
            !err.contains("alps: pid"),
            "argv {argv:?}: nothing may be spawned: {err}"
        );
    }
}

#[test]
fn runtime_failure_exits_1_without_usage() {
    // Both pids missing: parse succeeds, execution fails.
    let out = alps()
        .args(["attach", "-d", "1", "1:999999999", "1:999999998"])
        .output()
        .expect("run alps");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
    assert!(!err.contains("USAGE"), "{err}");
}

#[test]
fn attach_mode_rejects_missing_pid() {
    let out = alps()
        .args(["attach", "-d", "1", "1:999999999", "1:999999998"])
        .output()
        .expect("run alps");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error"), "{err}");
}

/// A pid listed twice is refused at its second listing, because one
/// process is scheduled by one principal at most. `alps` exits 1 and the
/// pid it stopped at the first listing is left running.
#[test]
fn attach_mode_refuses_a_pid_listed_twice_and_leaves_it_running() {
    let mut sleeper = Command::new("sleep")
        .arg("30")
        .spawn()
        .expect("spawn sleep");
    let pid = sleeper.id() as i32;
    let (first, second) = (format!("1:{pid}"), format!("2:{pid}"));
    let out = alps()
        .args(["attach", "-d", "1", &first, &second])
        .output()
        .expect("run alps");
    let runs = (0..100).any(|_| {
        let state = alps_os::read_stat(pid, alps_os::proc::ns_per_tick()).map(|s| s.state);
        std::thread::sleep(Duration::from_millis(10));
        state.is_ok_and(|s| s != 'T')
    });
    let _ = sleeper.kill();
    let _ = sleeper.wait();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("pid {pid} is already scheduled")),
        "{err}"
    );
    assert!(runs, "alps left pid {pid} stopped");
}
