//! Command execution: wire the parsed CLI onto the `alps-os` supervisor.

use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use alps_core::{AlpsConfig, Nanos, TraceSink};
use alps_os::{Membership, Supervisor};

use crate::args::{Cmd, Opts, ShareSpec, USAGE};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: libc::c_int) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Install SIGINT/SIGTERM handlers so a Ctrl-C unwinds through the
/// supervisor's `Drop` (which SIGCONTs every controlled process) instead
/// of leaving children frozen.
fn install_signal_handlers() {
    // SAFETY: on_signal only touches an atomic; signal(2) with a valid
    // handler pointer has no other preconditions.
    let handler = on_signal as extern "C" fn(libc::c_int) as usize as libc::sighandler_t;
    unsafe {
        libc::signal(libc::SIGINT, handler);
        libc::signal(libc::SIGTERM, handler);
    }
}

fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Run a parsed command.
pub fn execute(cmd: Cmd) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        Cmd::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Cmd::Probe => probe(),
        Cmd::Run(opts) => run_commands(opts),
        Cmd::Attach(opts) => attach_pids(opts),
        Cmd::User(opts) => supervise_users(opts),
    }
}

fn probe() -> Result<(), Box<dyn std::error::Error>> {
    let p = alps_os::probe_table1(500)?;
    println!("ALPS primary operation costs on this machine (paper values in parens):");
    println!(
        "  receive a timer event : {:8.2} us   (9.02)",
        p.timer_event_us
    );
    println!(
        "  measure CPU of n procs: {:8.2} + {:.2}*n us   (1.1 + 17.4*n)",
        p.measure_base_us, p.measure_per_proc_us
    );
    println!(
        "    by path, once out of descriptors: {:.2}*n us",
        p.measure_per_proc_by_path_us
    );
    println!("  signal a process      : {:8.2} us   (0.97)", p.signal_us);
    Ok(())
}

fn config(opts: &Opts) -> AlpsConfig {
    AlpsConfig::new(Nanos::from_millis(opts.quantum_ms)).with_cycle_log(opts.verbose)
}

fn deadline(opts: &Opts) -> Option<std::time::Instant> {
    opts.duration_s
        .map(|s| std::time::Instant::now() + Duration::from_secs(s))
}

fn should_stop(deadline: Option<std::time::Instant>) -> bool {
    interrupted() || deadline.is_some_and(|d| std::time::Instant::now() >= d)
}

/// Build the supervisor for the requested actuator, with a pointed error
/// when the host cannot offer cgroup actuation.
fn supervisor(opts: &Opts) -> Result<Supervisor, Box<dyn std::error::Error>> {
    Supervisor::with_actuator(config(opts), opts.actuator)
        .map_err(|e| format!("cannot actuate via {}: {e}", opts.actuator).into())
}

fn run_commands(opts: Opts) -> Result<(), Box<dyn std::error::Error>> {
    install_signal_handlers();
    // Build the supervisor before spawning anything: an unavailable
    // actuator (e.g. no delegated cgroup subtree) must fail with zero
    // commands left behind.
    let mut sup = supervisor(&opts)?;
    let mut children: Vec<Child> = Vec::new();
    let mut enroll = || -> Result<(), Box<dyn std::error::Error>> {
        for ShareSpec { target, share } in &opts.specs {
            let child = Command::new("/bin/sh")
                .arg("-c")
                .arg(target)
                .stdin(Stdio::null())
                .spawn()?;
            let pid = child.id() as i32;
            children.push(child);
            sup.add_process(pid, *share)?;
            eprintln!("alps: pid {pid} <- {share} share(s): {target}");
        }
        Ok(())
    };
    if let Err(e) = enroll() {
        // A mid-list spawn or enrollment failure must not leave the
        // earlier commands running unmanaged (possibly suspended). The
        // supervisor resumes its members through their pidfds as it
        // drops; SIGKILL ends a command either way.
        drop(sup);
        for child in &mut children {
            let _ = child.kill();
            let _ = child.wait();
        }
        return Err(e);
    }
    let result = drive(&mut sup, &opts);
    // Dropping the supervisor releases every member once.
    drop(sup);
    // Children are the user's commands: leave them running on exit unless
    // we spawned them for a bounded run.
    if opts.duration_s.is_some() || interrupted() {
        for child in &mut children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    result
}

fn attach_pids(opts: Opts) -> Result<(), Box<dyn std::error::Error>> {
    install_signal_handlers();
    let mut sup = supervisor(&opts)?;
    for spec in &opts.specs {
        let pid: i32 = spec
            .target
            .parse()
            .map_err(|_| format!("bad pid {:?}", spec.target))?;
        sup.add_process(pid, spec.share)?;
        eprintln!("alps: attached pid {pid} with {} share(s)", spec.share);
    }
    drive(&mut sup, &opts)
}

fn drive(sup: &mut Supervisor, opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let end = deadline(opts);
    let mut last_cycles = 0;
    let mut trace = opts.trace.then(|| TraceSink::new(std::io::stderr()));
    while !should_stop(end) {
        let Ok(_) = match trace.as_mut() {
            Some(sink) => sup.run_quantum_with(sink),
            None => sup.run_quantum(),
        };
        if opts.verbose {
            let cycles = sup.cycles_completed();
            if cycles > last_cycles {
                last_cycles = cycles;
                if let Some(rec) = sup.cycles().last() {
                    let parts: Vec<String> = rec
                        .entries
                        .iter()
                        .map(|e| format!("{}:{:.0}ms", e.share, e.consumed.as_millis_f64()))
                        .collect();
                    eprintln!(
                        "alps: cycle {:>5}  {:>8.1}ms cpu  [{}]",
                        rec.index,
                        rec.total_consumed.as_millis_f64(),
                        parts.join(" ")
                    );
                }
            }
        }
    }
    let s = sup.stats();
    let refreshes = match sup.refreshes() {
        0 => String::new(),
        n => format!(", {n} membership refreshes"),
    };
    let faults = match s.read_faults + s.signal_faults {
        0 => String::new(),
        n => format!(", {n} faults survived ({} quarantined)", s.quarantined),
    };
    eprintln!(
        "alps: done — {} quanta, {} measurements, {} signals, {} cycles{refreshes}{faults}",
        s.quanta,
        s.measurements,
        s.signals,
        sup.cycles_completed()
    );
    Ok(())
}

fn supervise_users(opts: Opts) -> Result<(), Box<dyn std::error::Error>> {
    install_signal_handlers();
    let mut sup = supervisor(&opts)?.with_refresh_period(Duration::from_secs(opts.refresh_s));
    for spec in &opts.specs {
        let uid: u32 = spec
            .target
            .parse()
            .map_err(|_| format!("bad uid {:?}", spec.target))?;
        sup.add_principal(spec.share, Membership::Uid(uid));
        eprintln!("alps: uid {uid} <- {} share(s)", spec.share);
    }
    drive(&mut sup, &opts)
}
