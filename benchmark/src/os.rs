//! `os-eager-256` and `os-churn-256`: the real `alps_os::Supervisor` on
//! real, sleeping child processes, paced at the real 10 ms quantum.
//!
//! Untraced, the supervisor is opaque: the benchmark times whole calls to
//! `run_quantum`, `add_process` and `remove_process`. The traced run
//! rebuilds the supervisor's loop from the public parts it is made of
//! (`Engine` over a span-recording `OsSubstrate`, `ExitWatcher`, the leaf
//! functions of `proc` and `signal`) on the same children, which is where
//! the per-quantum ledger comes from.

use std::collections::VecDeque;
use std::path::Path;

use alps_core::{AlpsConfig, Engine, Instrumentation, NullSink, ProcId, Substrate};
use alps_metrics::analyze_overhead_curve;
use alps_os::{clock, proc, signal, ExitWatcher, OsSubstrate, Supervisor};

use crate::children::SleeperPool;
use crate::measure::{
    alloc_calls, fastest, fold, mono_ns, p50_us, peak_rss_mb, percentile, rss_mb, shares,
    thread_cpu_ns, us, Dist,
};
use crate::report::{Outcome, RUN_SECONDS};
use crate::trace::{Timed, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// §2.3's optimisation off: every eligible member is read every quantum.
    Eager,
    /// The default configuration, with members leaving and joining.
    Churn,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Eager => "os-eager-256",
            Mode::Churn => "os-churn-256",
        }
    }

    fn config(self) -> AlpsConfig {
        match self {
            Mode::Eager => AlpsConfig::default().with_lazy_measurement(false),
            Mode::Churn => AlpsConfig::default(),
        }
    }
}

/// The workload's constants.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Members under control at any time.
    pub members: usize,
    /// Children spawned: the members plus, for churn, the spares.
    pub pool: usize,
    /// After each quantum this many of the longest-enrolled members are
    /// released and as many spares enrolled.
    pub churn: usize,
    /// Quanta after which the supervisor is doing the same work again.
    /// Eager: the sleepers forfeit a share of at most 20 one quantum at a
    /// time and the cycle restarts, every 20 quanta. Churn: the pool goes
    /// round once (`pool / churn` quanta), each child re-enrolled with the
    /// share it had, its allowance a function of how long ago that was.
    pub period: usize,
    /// Fresh set-ups (`Supervisor::new` + `add_process` × members).
    pub setups: usize,
    /// Quanta discarded before the timed ones.
    pub warmup: usize,
    /// Timed quanta.
    pub quanta: usize,
    /// Traced run: quanta of the opaque supervisor taken for reference.
    pub reference_quanta: usize,
    /// Traced run: quanta of the ledger pass.
    pub ledger_quanta: usize,
    /// Traced run, eager only: timed quanta at each N of the §4.2 sweep.
    pub sweep_quanta: usize,
}

impl Plan {
    pub fn new(mode: Mode, seconds: u64, smoke: bool) -> Plan {
        let (members, spare) = if smoke { (16, 4) } else { (256, 64) };
        let (churn, pool, period) = match mode {
            Mode::Eager => (0, members, 20),
            Mode::Churn => (2, members + spare, (members + spare) / 2),
        };
        let scale = |at_run_seconds: u64| (at_run_seconds * seconds / RUN_SECONDS) as usize;
        Plan {
            members,
            pool,
            churn,
            period,
            setups: if smoke { 3 } else { 31 },
            // Churn starts periodic once everyone enrolled at set-up has
            // been replaced.
            warmup: if smoke { 10 } else { period.max(100) },
            // 10 ms each: the timed phase lasts `seconds`, in whole periods.
            quanta: if smoke {
                100
            } else {
                (scale(2000) / period).max(3) * period
            },
            reference_quanta: if smoke { 30 } else { scale(500) },
            ledger_quanta: if smoke { 40 } else { scale(1000) },
            sweep_quanta: if smoke { 10 } else { scale(120) },
        }
    }
}

const QUANTUM_NS: u64 = 10_000_000;
/// A quantum kept the cadence if `run_quantum` returned within this of
/// one quantum after its previous return: half a quantum. The supervisor
/// sleeps in `epoll_wait`, whose timeout is whole milliseconds rounded up,
/// so consecutive wake-ups differ by up to 1 ms by design, and the eager
/// workload's quanta differ by 2 ms of work between the last of one cycle
/// and the first of the next; a tolerance of 1 ms sat inside that jitter
/// and read 91 % on an idle box. Half a quantum is clear of it and still
/// catches every late wake-up and skipped boundary.
const CADENCE_TOLERANCE_NS: u64 = QUANTUM_NS / 2;

/// The children and who among them is under control: the first `members`
/// to begin with, then whoever the churn has rotated in.
struct Rotation<'a> {
    pids: &'a [i32],
    /// Share of each child, by pool index.
    share: &'a [u64],
    /// Enrolled members as (handle, pool index), longest-enrolled first.
    enrolled: VecDeque<(ProcId, usize)>,
    /// Pool indices waiting their turn.
    spare: VecDeque<usize>,
}

impl<'a> Rotation<'a> {
    fn new(pids: &'a [i32], share: &'a [u64], members: usize) -> Rotation<'a> {
        Rotation {
            pids,
            share,
            enrolled: VecDeque::with_capacity(members + 8),
            spare: (members..pids.len()).collect(),
        }
    }
}

/// `Supervisor::new` and one `add_process` for each of the first `members`
/// children. Returns the supervisor, the rotation, the thread CPU ns of
/// each piece (`new` first) and how many calls failed.
fn set_up<'a>(
    cfg: AlpsConfig,
    pids: &'a [i32],
    share: &'a [u64],
    members: usize,
) -> (Supervisor, Rotation<'a>, Vec<u64>, u64) {
    let mut pieces = Vec::with_capacity(members + 1);
    let mut rot = Rotation::new(pids, share, members);
    let mut failed = 0;
    let c0 = thread_cpu_ns();
    let mut sup = Supervisor::new(cfg);
    let mut last = thread_cpu_ns();
    pieces.push(last - c0);
    for idx in 0..members {
        match sup.add_process(pids[idx], share[idx]) {
            Ok(id) => rot.enrolled.push_back((id, idx)),
            Err(_) => failed += 1,
        }
        let now = thread_cpu_ns();
        pieces.push(now - last);
        last = now;
    }
    (sup, rot, pieces, failed)
}

/// Reads the eager supervisor should have made after `quanta` invocations
/// of a population that only ever sleeps. Nobody is eligible in the first
/// quantum; from then on every member is read once per quantum until the
/// one-quantum penalty has used up its share, and when the last share is
/// gone (after 20 quanta) the cycle ends and everyone is credited again.
fn eager_reads_expected(share: &[u64], quanta: u64) -> u64 {
    let measured = quanta.saturating_sub(1);
    let longest = share.iter().copied().max().unwrap_or(1);
    let per_cycle: u64 = share.iter().sum();
    let partial: u64 = (1..=measured % longest)
        .map(|j| share.iter().filter(|&&s| s >= j).count() as u64)
        .sum();
    measured / longest * per_cycle + partial
}

/// What the timed phase of the opaque supervisor produced.
struct Phase {
    quantum_ns: Vec<u64>,
    /// `add_process` calls of the churn, thread CPU ns each.
    add_ns: Vec<u64>,
    remove_ns: Vec<u64>,
    on_time: usize,
    attempted: u64,
    failed: u64,
    allocs: u64,
    rss_growth_mb: f64,
    overruns: u64,
}

/// Drive `sup` for `warmup + quanta` quanta, rotating `churn` members out
/// and in after each.
fn drive(
    sup: &mut Supervisor,
    rot: &mut Rotation,
    churn: usize,
    warmup: usize,
    quanta: usize,
) -> Phase {
    let mut p = Phase {
        quantum_ns: Vec::with_capacity(quanta),
        add_ns: Vec::with_capacity(quanta * churn),
        remove_ns: Vec::with_capacity(quanta * churn),
        on_time: 0,
        attempted: 0,
        failed: 0,
        allocs: 0,
        rss_growth_mb: 0.0,
        overruns: 0,
    };
    let mut last_return = 0;
    let mut rss_start = 0.0;
    let mut overruns_start = 0;
    for q in 0..warmup + quanta {
        let timed = q >= warmup;
        if q == warmup {
            rss_start = rss_mb();
            overruns_start = sup.stats().overruns;
        }
        let overruns_before = sup.stats().overruns;
        let a0 = alloc_calls();
        let c0 = thread_cpu_ns();
        let ok = sup.run_quantum().is_ok();
        let c1 = thread_cpu_ns();
        let returned = mono_ns();
        if timed {
            p.allocs += alloc_calls() - a0;
            p.quantum_ns.push(c1 - c0);
            p.attempted += 1;
            let interval = returned - last_return;
            let kept = ok
                && interval.abs_diff(QUANTUM_NS) <= CADENCE_TOLERANCE_NS
                && sup.stats().overruns == overruns_before;
            p.on_time += usize::from(kept);
            p.failed += u64::from(!ok);
        }
        last_return = returned;
        for _ in 0..churn {
            let (id, idx) = rot.enrolled.pop_front().expect("a member to release");
            let c0 = thread_cpu_ns();
            let ok = sup.remove_process(id).is_ok();
            let c1 = thread_cpu_ns();
            rot.spare.push_back(idx);
            if timed {
                p.remove_ns.push(c1 - c0);
                p.attempted += 1;
                p.failed += u64::from(!ok);
            }
        }
        for _ in 0..churn {
            let idx = rot.spare.pop_front().expect("a spare to enrol");
            let c0 = thread_cpu_ns();
            let added = sup.add_process(rot.pids[idx], rot.share[idx]);
            let c1 = thread_cpu_ns();
            if timed {
                p.add_ns.push(c1 - c0);
                p.attempted += 1;
            }
            match added {
                Ok(id) => rot.enrolled.push_back((id, idx)),
                Err(_) => {
                    p.failed += 1;
                    rot.spare.push_back(idx);
                }
            }
        }
    }
    p.rss_growth_mb = rss_mb() - rss_start;
    p.overruns = sup.stats().overruns - overruns_start;
    p
}

/// The checks every `os-*` run ends with.
fn check_supervisor(
    mode: Mode,
    sup: &Supervisor,
    share: &[u64],
    members: usize,
    out: &mut Outcome,
) {
    let stats = sup.stats();
    if stats.reaped != 0 {
        out.fail(format!("{} members reaped; none exited", stats.reaped));
    }
    if sup.processes().len() != members {
        out.fail(format!(
            "{} members enrolled at the end, not {members}",
            sup.processes().len()
        ));
    }
    if mode == Mode::Eager {
        // A child caught between SIGCONT and its return to sleep reads as
        // runnable and keeps its allowance a quantum longer, so allow a
        // few reads either way; a changed measurement rule moves this by
        // far more.
        let want = eager_reads_expected(&share[..members], stats.quanta);
        if stats.measurements.abs_diff(want) * 200 > want {
            out.fail(format!(
                "{} reads in {} quanta; every eligible sleeper read every quantum makes {want}",
                stats.measurements, stats.quanta
            ));
        }
        out.note(format!(
            "eager reads: {} in {} quanta (model {want})",
            stats.measurements, stats.quanta
        ));
    }
}

pub fn run(mode: Mode, seed: u64, seconds: u64, smoke: bool) -> Outcome {
    let plan = Plan::new(mode, seconds, smoke);
    let mut out = Outcome::default();
    out.note(format!("{} plan: {plan:?}", mode.name()));
    let pool = match SleeperPool::spawn(plan.pool) {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("spawning {} children: {e}", plan.pool));
            return out;
        }
    };
    let pids = pool.pids();
    let share = shares(plan.pool, seed);
    let cfg = mode.config();

    // Fresh set-ups, half of them now and half after the timed phase, so
    // that one burst of interference cannot sit on every repeat. The last
    // one before the phase is the supervisor the run drives.
    let mut setups = Vec::with_capacity(plan.setups);
    let mut fresh = |out: &mut Outcome| {
        let (sup, rot, pieces, failed) = set_up(cfg, &pids, &share, plan.members);
        out.attempted += plan.members as u64;
        out.failed += failed;
        setups.push(pieces);
        (sup, rot)
    };
    for _ in 1..plan.setups.div_ceil(2) {
        drop(fresh(&mut out));
    }
    let (mut sup, mut rot) = fresh(&mut out);
    let mut phase = drive(&mut sup, &mut rot, plan.churn, plan.warmup, plan.quanta);
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    if phase.failed > 0 {
        out.note(format!(
            "FAILED: {} supervisor calls returned an error",
            phase.failed
        ));
    }
    check_supervisor(mode, &sup, &share, plan.members, &mut out);
    drop(sup);
    for _ in 0..plan.setups / 2 {
        drop(fresh(&mut out));
    }
    let stuck = pool.not_running();
    if stuck > 0 {
        out.fail(format!(
            "{stuck} children dead or still stopped after release"
        ));
    }
    let mut setup = fastest(&setups);
    out.set("setup_s", setup.iter().sum::<u64>() as f64 / 1e9);

    // The median invocation of a period, each taken at its fastest repeat.
    let mut quantum = fastest(&fold(&phase.quantum_ns, plan.period));
    quantum.sort_unstable();
    let cost = us(percentile(&quantum, 50.0));
    out.set("quantum_cpu_us_p50", cost);
    let d = Dist::of(&mut phase.quantum_ns);
    out.note(format!(
        "run_quantum: p50 {cost:.2} us over the {} quanta of a period at their fastest of {} \
         repeats; overhead_pct = {:.3} % of a 10 ms quantum; all {} samples: p50 {:.2} us{}",
        plan.period,
        plan.quanta / plan.period,
        cost / 100.0,
        d.n,
        us(d.p50),
        d.tail
            .map(|(p, v)| format!(", p{p} {:.2} us", us(v)))
            .unwrap_or_default(),
    ));
    // Eager enrols nobody after set-up, so its enrolment cost is that of
    // the set-up rounds; churn's is taken in steady state, where the same
    // child comes round with the same share once a period.
    let mut enroll = if phase.add_ns.is_empty() {
        setup.split_off(1) // all but Supervisor::new
    } else {
        fastest(&fold(&phase.add_ns, plan.period * plan.churn))
    };
    enroll.sort_unstable();
    out.note(format!(
        "{} enroll_us_p50 = {:.4} us (one add_process; not gated, see README.md)",
        mode.name(),
        us(percentile(&enroll, 50.0))
    ));
    out.set(
        "on_time_pct",
        100.0 * phase.on_time as f64 / plan.quanta as f64,
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The supervisor's loop, rebuilt from its public parts with a span around
/// each.
struct Ledger<'a> {
    engine: Engine<i32>,
    sub: Timed<OsSubstrate>,
    watcher: ExitWatcher,
    rot: Rotation<'a>,
    exited: Vec<i32>,
}

impl Ledger<'_> {
    /// What `Supervisor::add_process` does, call for call, for the child at
    /// pool index `idx`.
    fn enroll(&mut self, idx: usize) -> bool {
        let (pid, share) = (self.rot.pids[idx], self.rot.share[idx]);
        let alive = proc::read_stat(pid, proc::ns_per_tick()).is_ok_and(|s| !s.dead());
        let Ok(Some(obs)) = self.sub.inner.read(pid) else {
            return false;
        };
        if !alive || signal::sigstop(pid).is_err() {
            return false;
        }
        let id = self.engine.add_member(pid, share, obs.total_cpu);
        self.rot.enrolled.push_back((id, idx));
        self.watcher.watch(pid).is_ok()
    }

    /// What `Supervisor::remove_process` does, for the longest-enrolled
    /// member. Returns its pool index and whether every call succeeded.
    fn release_oldest(&mut self) -> Option<(usize, bool)> {
        let (id, idx) = self.rot.enrolled.pop_front()?;
        let pid = self.rot.pids[idx];
        let ok = signal::sigcont(pid).is_ok();
        self.watcher.unwatch(pid);
        Some((idx, self.engine.remove_principal(id).is_some() && ok))
    }
}

pub fn run_traced(mode: Mode, seed: u64, seconds: u64, smoke: bool, trace_path: &Path) -> Outcome {
    let plan = Plan::new(mode, seconds, smoke);
    let mut out = Outcome::default();
    out.note(format!("{} plan: {plan:?}", mode.name()));
    let spawn_start = mono_ns();
    let pool = match SleeperPool::spawn(plan.pool) {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("spawning {} children: {e}", plan.pool));
            return out;
        }
    };
    out.set(
        "bench.spawn_children_s",
        (mono_ns() - spawn_start) as f64 / 1e9,
    );
    let pids = pool.pids();
    let share = shares(plan.pool, seed);
    let cfg = mode.config();

    // The opaque supervisor, for reference.
    let (mut sup, mut rot, pieces, failed) = set_up(cfg, &pids, &share, plan.members);
    out.attempted += plan.members as u64;
    out.failed += failed;
    let mut phase = drive(
        &mut sup,
        &mut rot,
        plan.churn,
        plan.warmup,
        plan.reference_quanta,
    );
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    check_supervisor(mode, &sup, &share, plan.members, &mut out);
    let mut add_ns = if phase.add_ns.is_empty() {
        pieces[1..].to_vec()
    } else {
        std::mem::take(&mut phase.add_ns)
    };
    // Release everyone one call at a time, so eager has removals to time.
    let mut remove_ns = std::mem::take(&mut phase.remove_ns);
    for (id, _) in rot.enrolled.drain(..) {
        let c0 = thread_cpu_ns();
        let ok = sup.remove_process(id).is_ok();
        remove_ns.push(thread_cpu_ns() - c0);
        out.attempted += 1;
        out.failed += u64::from(!ok);
    }
    drop(sup);
    let reference = Dist::of(&mut phase.quantum_ns);
    let untraced = us(reference.p50);
    out.set("bench.untraced_quantum_cpu_us_p50", untraced);
    out.set(
        "os.quantum_cpu_us_p99",
        reference.tail.map_or(0.0, |(_, v)| us(v)),
    );
    out.set("os.overruns", phase.overruns as f64);
    out.set("os.cycle_log_mb", phase.rss_growth_mb.max(0.0));
    out.set(
        "os.allocs_per_quantum",
        phase.allocs as f64 / plan.reference_quanta as f64,
    );
    out.set("os.supervisor.add_us", us(Dist::of(&mut add_ns).p50));
    out.set("os.supervisor.remove_us", us(Dist::of(&mut remove_ns).p50));

    // The ledger pass.
    let mut tracer = Tracer::with_capacity((plan.warmup + plan.ledger_quanta) * 8 + 4096);
    let n_wait = tracer.name("os.pidfd.wait");
    let n_quantum = tracer.name("os.quantum");
    let n_begin = tracer.name("core.begin");
    let n_complete = tracer.name("core.complete");
    let n_apply = tracer.name("core.apply");
    let n_proc = tracer.name("os.proc.read_pass");
    let n_kill = tracer.name("os.signal.kill_batch");
    let n_watch = tracer.name("os.pidfd.watch_batch");
    let watcher = match ExitWatcher::new() {
        Ok(w) => w,
        Err(e) => {
            out.fail(format!("no pidfd exit watcher on this kernel: {e}"));
            return out;
        }
    };
    let mut l = Ledger {
        engine: Engine::new(cfg, Instrumentation::Exact).with_auto_reap(true),
        sub: Timed::new(
            OsSubstrate::new(),
            tracer,
            ("os.substrate.read_batch", "os.substrate.apply_batch"),
        ),
        watcher,
        rot: Rotation::new(&pids, &share, plan.members),
        exited: Vec::with_capacity(16),
    };
    for idx in 0..plan.members {
        out.failed += u64::from(!l.enroll(idx));
    }
    let mut late_ns = Vec::with_capacity(plan.ledger_quanta);
    let mut first_span = 0;
    let mut stats_start = l.engine.stats();
    let (mut due, mut transitions) = (0u64, 0u64);
    let mut deadline = clock::now() + cfg.quantum;
    for q in 0..plan.warmup + plan.ledger_quanta {
        if q == plan.warmup {
            first_span = l.sub.tracer.len();
            stats_start = l.engine.stats();
        }
        let s = l.sub.tracer.begin(n_wait);
        l.exited.clear();
        l.watcher.wait_until(deadline, &mut l.exited);
        l.sub.tracer.end(s);
        let woke = clock::now();
        // Drift-free cadence with coalescing, as the supervisor keeps it.
        let mut next = deadline + cfg.quantum;
        if woke >= next {
            let behind = (woke - deadline).as_nanos() / cfg.quantum.as_nanos();
            next = deadline + cfg.quantum * (behind + 1);
        }
        let span = l.sub.tracer.begin(n_quantum);
        let s = l.sub.tracer.begin(n_begin);
        let begun = l.engine.begin_quantum(&mut l.sub, &mut NullSink);
        l.sub.tracer.end(s);
        let s = l.sub.tracer.begin(n_complete);
        let completed = l.engine.complete_quantum(&mut l.sub, &mut NullSink);
        l.sub.tracer.end(s);
        let s = l.sub.tracer.begin(n_apply);
        let applied = l.engine.apply_pending_signals(&mut l.sub, &mut NullSink);
        l.sub.tracer.end(s);
        l.sub.tracer.end(span);
        if q >= plan.warmup {
            late_ns.push((woke - deadline).as_nanos());
            due += *begun.as_ref().unwrap_or(&0) as u64;
            transitions += l.engine.last_transitions().len() as u64;
            out.attempted += 1;
            if begun.is_err() || completed.is_err() || applied.is_err() || !l.exited.is_empty() {
                out.failed += 1;
            }
        }
        deadline = next;
        for _ in 0..plan.churn {
            let (idx, ok) = l.release_oldest().expect("a member to release");
            l.rot.spare.push_back(idx);
            let idx = l.rot.spare.pop_front().expect("a spare to enrol");
            out.attempted += 2;
            out.failed += u64::from(!ok) + u64::from(!l.enroll(idx));
        }
    }
    let stats = l.engine.stats();
    while let Some((_, ok)) = l.release_oldest() {
        out.failed += u64::from(!ok);
    }
    let stuck = pool.not_running();
    if stuck > 0 {
        out.fail(format!(
            "{stuck} children dead or still stopped after release"
        ));
    }
    let quanta = plan.ledger_quanta as f64;
    let reads = (stats.measurements - stats_start.measurements) as f64 / quanta;
    let kills = (stats.signals - stats_start.signals) as f64 / quanta;

    // Leaf functions, on the released children. Each sample is a batch.
    let ns_tick = proc::ns_per_tick();
    let (mut path, mut body) = (String::new(), String::new());
    let members = &pids[..plan.members];
    let batch = &pids[..plan.members.min(100)];
    let mut spare_watcher = ExitWatcher::new().expect("a second watcher");
    let tracer = &mut l.sub.tracer;
    for _ in 0..if smoke { 5 } else { 50 } {
        tracer.span(n_proc, || {
            for &pid in members {
                if proc::read_stat_into(pid, ns_tick, &mut path, &mut body).is_err() {
                    out.failed += 1;
                }
            }
        });
        out.attempted += members.len() as u64;
    }
    for _ in 0..if smoke { 3 } else { 30 } {
        tracer.span(n_kill, || {
            for &pid in batch {
                if signal::sigstop(pid).is_err() || signal::sigcont(pid).is_err() {
                    out.failed += 1;
                }
            }
        });
        tracer.span(n_watch, || {
            for &pid in batch {
                if spare_watcher.watch(pid).is_err() {
                    out.failed += 1;
                }
                spare_watcher.unwatch(pid);
            }
        });
        out.attempted += 2 * batch.len() as u64;
    }
    let stuck = pool.not_running();
    if stuck > 0 {
        out.fail(format!(
            "{stuck} children dead or stopped after the leaf probes"
        ));
    }

    let t = &l.sub.tracer;
    let per_call = |name, calls: usize| p50_us(t.durations(name, 0)) / calls as f64;
    let begin = p50_us(t.durations(n_begin, first_span));
    let complete_self = p50_us(t.self_times(n_complete, first_span));
    let apply_self = p50_us(t.self_times(n_apply, first_span));
    let read_batch = p50_us(t.durations(l.sub.read_batch_name(), first_span));
    let apply_batch = p50_us(t.durations(l.sub.apply_batch_name(), first_span));
    let wait = p50_us(t.durations(n_wait, first_span));
    // The traced quantum is what the opaque one spans: the wait and the
    // three stages.
    let traced = {
        let waits = t.durations(n_wait, first_span);
        let stages = t.durations(n_quantum, first_span);
        p50_us(waits.iter().zip(&stages).map(|(w, s)| w + s).collect())
    };
    out.set("core.begin_us", begin);
    out.set("core.complete_self_us", complete_self);
    out.set("core.apply_self_us", apply_self);
    out.set("core.due_per_quantum", due as f64 / quanta);
    out.set("core.transitions_per_quantum", transitions as f64 / quanta);
    out.set("core.cycles", (stats.cycles - stats_start.cycles) as f64);
    out.set("os.proc.read_us", per_call(n_proc, members.len()));
    out.set("os.proc.reads_per_quantum", reads);
    out.set("os.signal.kill_us", per_call(n_kill, 2 * batch.len()));
    out.set("os.signal.kills_per_quantum", kills);
    out.set("os.pidfd.wait_us", wait);
    out.set("os.pidfd.watch_us", per_call(n_watch, batch.len()));
    let late = Dist::of(&mut late_ns);
    out.set("os.clock.wake_late_us_p50", us(late.p50));
    out.set("os.clock.wake_late_us_p99", us(percentile(&late_ns, 99.0)));
    out.set("os.substrate.read_batch_us", read_batch);
    out.set("os.substrate.apply_batch_us", apply_batch);
    let accounted = begin + complete_self + apply_self + read_batch + apply_batch + wait;
    out.set("os.supervisor.self_us", (untraced - accounted).max(0.0));
    out.set(
        "os.syscalls_per_quantum_est",
        3.0 * reads + kills + 1.0 + 2.0,
    );
    out.set("bench.traced_quantum_cpu_us_p50", traced);
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (traced - untraced) / untraced,
    );
    out.set("bench.clock_cost_ns", t.clock_cost_ns() as f64);
    out.set("bench.spans", t.len() as f64);
    out.set("bench.ledger_quanta", quanta);
    out.note(format!(
        "untraced run_quantum p50 {untraced:.2} us; ledger rows sum to {accounted:.2} us \
         ({:+.1} % of it); wake lateness p{} {:.1} us",
        100.0 * (accounted - untraced) / untraced,
        late.tail.map_or(0.0, |(p, _)| p),
        late.tail.map_or(0.0, |(_, v)| us(v)),
    ));
    for line in ledger_table(&[(mode.name(), &out)]) {
        out.note(line);
    }

    if let Err(e) = t.write_json(trace_path, mode.name()) {
        out.fail(format!("writing {}: {e}", trace_path.display()));
    }
    if mode == Mode::Eager {
        // The ledger let go of every child above; its watcher goes too.
        drop(l);
        sweep(&plan, &pids, &share, smoke, &mut out);
        let stuck = pool.not_running();
        if stuck > 0 {
            out.fail(format!("{stuck} children dead or stopped after the sweep"));
        }
    }
    out
}

/// §4.2 refit: `U_Q(N) = a + b·N` from the eager supervisor's per-quantum
/// cost at a few N, and the N* at which it would need more than its
/// `1/(N+1)` fair share of a CPU. Printed, not gated.
fn sweep(plan: &Plan, pids: &[i32], share: &[u64], smoke: bool, out: &mut Outcome) {
    let ns: &[usize] = if smoke {
        &[4, 8, 16]
    } else {
        &[32, 64, 128, 256]
    };
    let cfg = Mode::Eager.config();
    let mut curve = Vec::with_capacity(ns.len());
    for &n in ns {
        let (mut sup, mut rot, _, failed) = set_up(cfg, pids, share, n);
        let mut phase = drive(&mut sup, &mut rot, 0, 20, plan.sweep_quanta);
        out.attempted += n as u64 + phase.attempted;
        out.failed += failed + phase.failed;
        let p50 = us(Dist::of(&mut phase.quantum_ns).p50);
        out.note(format!("sweep N={n}: run_quantum p50 {p50:.2} us"));
        curve.push((n as f64, 100.0 * p50 / us(QUANTUM_NS)));
    }
    match analyze_overhead_curve(&curve, f64::INFINITY) {
        Some(a) => out.note(format!(
            "§4.2 refit: U_10(N) = {:.5}·N + {:.4} % of a CPU (r² = {:.3}); breakdown N* = {:.0} \
             [paper: .0639·N + .060, N* = 39]",
            a.fit.slope, a.fit.intercept, a.fit.r_squared, a.predicted_threshold
        )),
        None => out.note("§4.2 refit: the overhead line never meets the fair-share curve".into()),
    }
}

/// The per-quantum cost ledger of one or more `os-*` traced results, as
/// table rows: layer, calls per quantum, µs per call, µs per quantum and
/// share of the untraced `quantum_cpu_us_p50`.
pub fn ledger_table(results: &[(&str, &Outcome)]) -> Vec<String> {
    let rows: [(&str, &str, Option<&str>, Option<&str>); 7] = [
        ("pidfd", "os.pidfd.wait_us", None, None),
        ("core.begin", "core.begin_us", None, None),
        (
            "proc",
            "os.substrate.read_batch_us",
            Some("os.proc.reads_per_quantum"),
            Some("os.proc.read_us"),
        ),
        ("core.complete", "core.complete_self_us", None, None),
        (
            "signal",
            "os.substrate.apply_batch_us",
            Some("os.signal.kills_per_quantum"),
            Some("os.signal.kill_us"),
        ),
        ("core.apply", "core.apply_self_us", None, None),
        ("supervisor", "os.supervisor.self_us", None, None),
    ];
    let mut lines = Vec::new();
    let mut head = format!("{:<14}", "layer");
    for (name, _) in results {
        head += &format!(" | {name:>12}: calls/q  us/call    us/q  share");
    }
    lines.push(head);
    for (layer, per_quantum, calls, per_call) in rows {
        let mut line = format!("{layer:<14}");
        for (_, o) in results {
            let get = |k: &str| o.metrics.get(k).copied().unwrap_or(0.0);
            let total = get("bench.untraced_quantum_cpu_us_p50");
            line += &format!(
                " | {:>21.1} {:>8.2} {:>7.1} {:>5.1}%",
                calls.map_or(1.0, get),
                per_call.map_or(get(per_quantum), get),
                get(per_quantum),
                100.0 * get(per_quantum) / total,
            );
        }
        lines.push(line);
    }
    let mut foot = format!("{:<14}", "run_quantum");
    for (_, o) in results {
        let total = o
            .metrics
            .get("bench.untraced_quantum_cpu_us_p50")
            .copied()
            .unwrap_or(0.0);
        foot += &format!(" | {:>21} {:>8} {total:>7.1} 100.0%", "", "");
    }
    lines.push(foot);
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_read_model_counts_eligible_sleepers() {
        // Shares 1, 2, 3: quantum 1 reads nobody, 2 reads all three, 3 the
        // two with allowance left, 4 the last; the cycle ends and repeats.
        let share = [1, 2, 3];
        let by_quantum = [0, 0, 3, 5, 6, 9, 11, 12, 15];
        for (quanta, want) in by_quantum.into_iter().enumerate() {
            assert_eq!(
                eager_reads_expected(&share, quanta as u64),
                want,
                "{quanta}"
            );
        }
    }

    #[test]
    fn smoke_runs_keep_every_count_and_leave_no_child_behind() {
        for mode in [Mode::Eager, Mode::Churn] {
            let a = run(mode, 3, RUN_SECONDS, true);
            assert_eq!(a.failed, 0, "{:?}", a.notes);
            let b = run(mode, 3, RUN_SECONDS, true);
            assert_eq!(a.attempted, b.attempted);
        }
    }
}
