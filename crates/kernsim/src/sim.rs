//! The discrete-event simulation engine.
//!
//! [`Sim`] models the paper's uniprocessor running a 4.4BSD-style kernel
//! scheduler (see [`crate::sched`]): processes with pluggable
//! [`Behavior`]s compete for the one CPU under decay-usage priorities, a
//! 100 Hz clock, a 100 ms round-robin slice, timed sleeps on wait
//! channels, interval timers with pending-signal coalescing, and
//! `SIGSTOP`/`SIGCONT` job control. CPU-time accounting is event-exact
//! (nanosecond granularity).
//!
//! Experiment drivers advance the simulation with [`Sim::run_until`] and
//! may mutate it (spawn processes, send signals) in between — this is how
//! the multi-application experiment of §4.1 phases groups in at 3-second
//! boundaries.
//!
//! ## Indexed hot path
//!
//! Per-event work is independent of the total process population: the
//! process table ([`crate::table::ProcTable`]) resolves pids in O(1) and
//! keeps a live-process index so the once-per-second `schedcpu` pass walks
//! only live processes; the decay-usage ready queue
//! ([`crate::sched::RunQueue`]) supports O(1) insert/remove/pop; and the
//! timer/burst/wakeup machinery is an event queue
//! ([`crate::event::EventQueue`]) holding one entry per *armed* timer,
//! burst or sleep, so quiescent processes cost nothing per tick. The
//! 100 Hz clock tick, more than half of all events, never enters the
//! queue: the machine keeps the next tick's `(time, seq)` key beside it
//! and compares that key with the queue's head, so a tick costs no heap
//! push or pop and still ties with process events in the queue's order.

use alps_core::Nanos;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event::{EventKind, EventQueue};
use crate::pid::Pid;
use crate::process::{Behavior, IntervalTimer, PState, ProcView, Process, Step};
use crate::sched::{self, RunQueue};
use crate::table::ProcTable;
use crate::trace::{Trace, TraceKind};

/// How CPU consumption becomes *visible* to user-level readers
/// (`getrusage`, `/proc`, `kvm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CpuAccounting {
    /// Readers see the event-exact nanosecond accounting (modern kernels
    /// with switch-time charging, and the workspace default).
    #[default]
    Exact,
    /// Readers see classic statclock sampling: one whole tick is charged
    /// to whichever process is running when the clock interrupt lands.
    /// Unbiased in expectation but quantized to ticks — the accounting the
    /// historical BSDs exposed, provided for the measurement-granularity
    /// ablation (`repro accounting`). Internal scheduling physics always
    /// uses exact accounting.
    TickSampled,
}

/// Clock interrupt period (`1/hz`): FreeBSD 4.x's `hz = 100`.
pub const TICK: Nanos = Nanos::from_millis(10);

/// Round-robin slice for equal-priority processes (FreeBSD 4.x).
pub const RR_SLICE: Nanos = Nanos::from_millis(100);

/// Recompute the running process's priority every this many ticks
/// (FreeBSD 4.x).
pub const PRIORITY_RECALC_TICKS: u64 = 4;

/// Tunables of the simulated kernel. The clock, slice and priority
/// recomputation are the FreeBSD 4.x constants above ([`TICK`],
/// [`RR_SLICE`], [`PRIORITY_RECALC_TICKS`]); `schedcpu` runs every second.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Seed for the jitter RNG (initial `estcpu` perturbation). Two runs
    /// with the same seed are identical; the paper averages 3 runs, which
    /// we emulate with 3 seeds.
    pub seed: u64,
    /// Magnitude of the random initial `estcpu` given to each spawned
    /// process, emulating the varied short history a freshly forked process
    /// has on a live system. Zero for strict determinism.
    pub spawn_estcpu_jitter: f64,
    /// Granularity of the CPU times user-level readers observe.
    pub accounting: CpuAccounting,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            spawn_estcpu_jitter: 0.0,
            accounting: CpuAccounting::Exact,
        }
    }
}

/// The simulated machine.
pub struct Sim {
    cfg: SimConfig,
    now: Nanos,
    last_account: Nanos,
    events: EventQueue,
    /// The next clock tick's `(time, seq)` key. The tick is not queued:
    /// [`Self::run_until`] runs it when this key precedes the queue's head,
    /// and its sequence number is minted from the queue's counter, so it
    /// orders against queued events exactly as a queued tick would.
    next_tick: (Nanos, u64),
    procs: ProcTable,
    /// The decay-usage ready queue.
    runq: RunQueue,
    /// The process on the CPU.
    running: Option<Pid>,
    loadavg: f64,
    /// Count of `schedcpu` passes performed; sleepers dropped from the
    /// decay-active set stamp this into `Process::sleep_epoch` so wakeup
    /// can reconstruct how many whole seconds they slept through.
    schedcpu_epoch: u64,
    tick_count: u64,
    idle_time: Nanos,
    ctx_switches: u64,
    rng: SmallRng,
    trace: Option<Trace>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("procs", &self.procs.len())
            .field("running", &self.running)
            .field("loadavg", &self.loadavg)
            .finish_non_exhaustive()
    }
}

impl Sim {
    /// A fresh machine at time zero.
    pub fn new(cfg: SimConfig) -> Self {
        let mut events = EventQueue::new();
        let next_tick = (TICK, events.mint());
        events.schedule(Nanos::SECOND, EventKind::SchedCpu);
        Sim {
            cfg,
            now: Nanos::ZERO,
            last_account: Nanos::ZERO,
            events,
            next_tick,
            procs: ProcTable::new(),
            runq: RunQueue::new(),
            running: None,
            loadavg: 0.0,
            schedcpu_epoch: 0,
            tick_count: 0,
            idle_time: Nanos::ZERO,
            ctx_switches: 0,
            rng: SmallRng::seed_from_u64(cfg.seed),
            trace: None,
        }
    }

    /// Start recording an execution trace, retaining at most `capacity`
    /// events (see [`crate::trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The recorded trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    fn trace_push(&mut self, pid: Pid, kind: TraceKind) {
        if let Some(t) = self.trace.as_mut() {
            t.push(self.now, pid, kind);
        }
    }

    /// Current simulated wall-clock time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Total CPU-idle time.
    pub fn idle_time(&self) -> Nanos {
        self.idle_time
    }

    /// Total context switches performed.
    pub fn context_switches(&self) -> u64 {
        self.ctx_switches
    }

    /// Current 1-minute load average.
    pub fn loadavg(&self) -> f64 {
        self.loadavg
    }

    /// Number of processes that have not exited.
    pub fn live_count(&self) -> usize {
        self.procs.live_count()
    }

    /// Spawn a process. It is made runnable immediately (or enters whatever
    /// state its first [`Step`] dictates).
    pub fn spawn(&mut self, name: impl Into<String>, behavior: Box<dyn Behavior>) -> Pid {
        self.spawn_nice(name, 0, behavior)
    }

    /// Spawn with an explicit nice value.
    pub fn spawn_nice(
        &mut self,
        name: impl Into<String>,
        nice: i8,
        behavior: Box<dyn Behavior>,
    ) -> Pid {
        let pid = self.procs.next_pid();
        let estcpu = if self.cfg.spawn_estcpu_jitter > 0.0 {
            self.rng.gen_range(0.0..self.cfg.spawn_estcpu_jitter)
        } else {
            0.0
        };
        self.procs.push(Process {
            pid,
            name: name.into(),
            state: PState::Runnable, // placeholder until the first step
            nice,
            estcpu,
            priority: sched::user_priority(estcpu, nice),
            slptime: 0,
            sleep_epoch: 0,
            cputime: Nanos::ZERO,
            burst_remaining: Some(Nanos::ZERO),
            dispatched_at: self.now,
            visible_cputime: Nanos::ZERO,
            kernel_boost: false,
            wake_token: 0,
            burst_token: 0,
            timer: IntervalTimer::default(),
            behavior: Some(behavior),
            dispatches: 0,
            voluntary_switches: 0,
        });
        let step = self.next_step(pid);
        self.apply_off_cpu_step(pid, step);
        pid
    }

    /// Read-only view of a process; `None` for a pid this machine never
    /// spawned. Valid after exit (post-mortem accounting).
    ///
    /// This is the query surface for drivers and instrumentation:
    ///
    /// ```
    /// # use alps_core::Nanos;
    /// # use kernsim::{ComputeBound, Sim, SimConfig};
    /// # let mut sim = Sim::new(SimConfig::default());
    /// # let pid = sim.spawn("w", Box::new(ComputeBound));
    /// # sim.run_until(Nanos::from_secs(1));
    /// let p = sim.proc(pid).expect("spawned above");
    /// assert_eq!(p.cputime(), Nanos::from_secs(1));
    /// assert!(!p.is_blocked());
    /// ```
    #[inline]
    pub fn proc(&self, pid: Pid) -> Option<ProcView<'_>> {
        self.procs.get(pid).map(|p| ProcView {
            proc: p,
            accounting: self.cfg.accounting,
        })
    }

    /// Advance simulated time to `deadline`, processing every event due on
    /// the way, clock ticks included. Returns the number of events
    /// processed.
    pub fn run_until(&mut self, deadline: Nanos) -> u64 {
        assert!(deadline >= self.now, "cannot run backwards");
        self.fixup_dispatch();
        let mut handled = 0;
        loop {
            // The queue's head is peeked afresh after every tick: a tick
            // that dispatches schedules a burst that may end before the
            // next tick.
            let tick = self.next_tick;
            if self.events.peek_key().is_some_and(|head| head < tick) {
                let Some(ev) = self.events.pop_due(deadline) else {
                    break;
                };
                debug_assert!(ev.at >= self.now, "event from the past");
                self.advance_to(ev.at);
                self.now = ev.at;
                self.handle(ev.kind);
            } else {
                let at = tick.0;
                if at > deadline {
                    break;
                }
                self.advance_to(at);
                self.now = at;
                self.handle_tick();
            }
            // A wakeup that beats the running process preempts right away,
            // as on a return from interrupt in BSD.
            self.fixup_dispatch();
            handled += 1;
        }
        self.advance_to(deadline);
        self.now = deadline;
        handled
    }

    /// Deliver `SIGSTOP`: remove the process from contention wherever it is.
    pub fn sigstop(&mut self, pid: Pid) {
        match self.procs[pid].state {
            PState::Runnable => {
                self.runq.remove(pid);
                self.procs[pid].state = PState::Stopped {
                    resume_sleep_until: None,
                    was_awaiting_timer: false,
                };
                self.trace_push(pid, TraceKind::Stop);
            }
            PState::Running => {
                // A driver, or a behavior that just woke, stops the
                // process that holds the CPU.
                debug_assert_eq!(self.running, Some(pid));
                let p = &mut self.procs[pid];
                p.burst_token = p.burst_token.wrapping_add(1);
                p.state = PState::Stopped {
                    resume_sleep_until: None,
                    was_awaiting_timer: false,
                };
                self.running = None;
                self.trace_push(pid, TraceKind::Stop);
                self.context_switch();
            }
            PState::Sleeping { until } => {
                let p = &mut self.procs[pid];
                p.wake_token = p.wake_token.wrapping_add(1); // invalidate Wake
                p.state = PState::Stopped {
                    resume_sleep_until: until,
                    was_awaiting_timer: until.is_none(),
                };
                self.trace_push(pid, TraceKind::Stop);
            }
            PState::Stopped { .. } | PState::Exited => {}
        }
    }

    /// Deliver `SIGCONT`: return a stopped process to where it left off —
    /// back to its interrupted sleep if that hasn't expired, otherwise on
    /// to its next step.
    pub fn sigcont(&mut self, pid: Pid) {
        let PState::Stopped {
            resume_sleep_until,
            was_awaiting_timer,
        } = self.procs[pid].state
        else {
            return;
        };
        self.trace_push(pid, TraceKind::Continue);
        if was_awaiting_timer {
            let pending = self.procs[pid].timer.pending;
            if pending {
                self.procs[pid].timer.pending = false;
                self.procs[pid].kernel_boost = true;
                let step = self.next_step(pid);
                self.apply_off_cpu_step(pid, step);
            } else {
                self.procs[pid].state = PState::Sleeping { until: None };
            }
        } else if let Some(until) = resume_sleep_until {
            if until > self.now {
                let p = &mut self.procs[pid];
                p.wake_token = p.wake_token.wrapping_add(1);
                let token = p.wake_token;
                p.state = PState::Sleeping { until: Some(until) };
                self.events.schedule(until, EventKind::Wake { pid, token });
            } else {
                // The sleep expired while stopped: the step is complete.
                self.procs[pid].kernel_boost = true;
                let step = self.next_step(pid);
                self.apply_off_cpu_step(pid, step);
            }
        } else {
            // Was runnable (or running) when stopped: resume its burst.
            self.make_runnable(pid);
        }
    }

    /// Forcibly terminate a process from the driver (SIGKILL analogue).
    pub fn terminate(&mut self, pid: Pid) {
        match self.procs[pid].state {
            PState::Exited => return,
            PState::Runnable => {
                self.runq.remove(pid);
            }
            PState::Running => {
                debug_assert_eq!(self.running, Some(pid));
                self.running = None;
            }
            _ => {}
        }
        let p = &mut self.procs[pid];
        p.wake_token = p.wake_token.wrapping_add(1);
        p.burst_token = p.burst_token.wrapping_add(1);
        p.timer.armed = false;
        p.state = PState::Exited;
        self.procs.mark_dead(pid);
        self.trace_push(pid, TraceKind::Exit);
        self.fixup_dispatch();
    }

    /// Brute-force cross-check of every index against the ground-truth
    /// process states: the live index, the ready queue, and the CPU
    /// assignment must all agree with a full scan. Panics on any
    /// inconsistency. Test support — O(N), never on the hot path.
    #[doc(hidden)]
    pub fn assert_index_consistent(&self) {
        self.procs.assert_live_index_consistent();
        let mut runnable = 0usize;
        for i in 0..self.procs.len() {
            let pid = Pid(i as u32);
            let p = &self.procs[pid];
            assert_eq!(
                self.procs.is_live(pid),
                !matches!(p.state, PState::Exited),
                "{pid}: live index disagrees with state {:?}",
                p.state
            );
            let queued = self.runq.contains(pid);
            match p.state {
                PState::Runnable => {
                    assert!(queued, "{pid} runnable but not queued");
                    assert_ne!(self.running, Some(pid), "{pid} runnable yet on the CPU");
                    runnable += 1;
                }
                PState::Running => {
                    assert!(!queued, "{pid} running yet still queued");
                    assert_eq!(self.running, Some(pid), "{pid} running but not on the CPU");
                }
                _ => assert!(!queued, "{pid} queued in state {:?}", p.state),
            }
        }
        assert_eq!(
            self.runq.len(),
            runnable,
            "ready-queue length disagrees with a full scan"
        );
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Charge elapsed time to the running process (or to idle).
    fn advance_to(&mut self, t: Nanos) {
        debug_assert!(t >= self.last_account);
        let dt = t - self.last_account;
        if dt == Nanos::ZERO {
            return;
        }
        let tick = TICK.as_f64();
        match self.running {
            Some(pid) => {
                let p = &mut self.procs[pid];
                p.cputime += dt;
                // Continuous-time estcpu charging: one unit per tick of CPU.
                p.estcpu = (p.estcpu + dt.as_f64() / tick).min(sched::ESTCPU_MAX);
                if let Some(r) = p.burst_remaining.as_mut() {
                    *r = r.saturating_sub(dt);
                }
            }
            None => self.idle_time += dt,
        }
        self.last_account = t;
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::SchedCpu => self.handle_schedcpu(),
            EventKind::Wake { pid, token } => self.handle_wake(pid, token),
            EventKind::TimerFire { pid, token } => self.handle_timer_fire(pid, token),
            EventKind::BurstDone { pid, token } => self.handle_burst_done(pid, token),
        }
    }

    /// The periodic clock interrupt (`hardclock`/`statclock`): charges the
    /// running process, enforces the round-robin slice, recomputes the
    /// running process's priority, and performs any pending preemption.
    fn handle_tick(&mut self) {
        self.tick_count += 1;
        self.next_tick = (self.now + TICK, self.events.mint());
        let Some(pid) = self.running else {
            return;
        };
        // statclock: charge a whole tick to whoever holds the CPU now.
        self.procs[pid].visible_cputime += TICK;
        if self.tick_count.is_multiple_of(PRIORITY_RECALC_TICKS) {
            self.resetpriority(pid);
        }
        let p = &self.procs[pid];
        // roundrobin(): rotate among equal-or-better priorities once the
        // slice expires. (A strictly better waiter never waits this long —
        // fixup_dispatch preempts for it immediately.)
        if self.now - p.dispatched_at >= RR_SLICE {
            if let Some(best) = self.runq.best_priority() {
                if best <= p.priority {
                    self.preempt();
                }
            }
        }
    }

    /// Enforce the dispatch invariant: the CPU runs one of the best
    /// runnable processes; a strictly better arrival preempts the running
    /// process immediately.
    fn fixup_dispatch(&mut self) {
        // Fill an idle CPU first (work conservation).
        if self.running.is_none() && !self.runq.is_empty() {
            self.context_switch();
        }
        // Preempt while the queue holds something strictly better than the
        // running process.
        while let (Some(best), Some(pid)) = (self.runq.best_priority(), self.running) {
            if best >= self.procs[pid].priority {
                return;
            }
            self.preempt();
        }
    }

    fn handle_schedcpu(&mut self) {
        self.events
            .schedule(self.now + Nanos::SECOND, EventKind::SchedCpu);
        self.schedcpu_epoch += 1;
        let epoch = self.schedcpu_epoch;
        let nrun = self.runq.len() + usize::from(self.running.is_some());
        self.loadavg = sched::loadavg_step(self.loadavg, nrun);
        let decay = sched::decay_factor(self.loadavg);
        // Only decay-active processes are visited: the dead cost nothing,
        // and a sleeper is touched exactly once — its first whole second
        // asleep decays it, stamps `sleep_epoch`, and drops it from the
        // set; `updatepri` at wakeup replays the seconds skipped. A pool
        // of long-idle workers therefore costs O(runnable), not O(live),
        // per second. The pass walks the bitmap word-wise in pid order.
        // Membership is stable during the walk (nothing here exits, and
        // the pass only clears bits it has copied out).
        for wi in 0..self.procs.decay_words() {
            let mut bits = self.procs.decay_word(wi);
            while bits != 0 {
                let pid = Pid(wi as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
                let (was_runnable, deactivate) = {
                    let p = &mut self.procs[pid];
                    match p.state {
                        PState::Exited => continue, // unreachable: exit clears the bit
                        PState::Sleeping { .. } | PState::Stopped { .. } => {
                            // First whole second asleep: count it, decay
                            // below, then defer to updatepri at wakeup (as
                            // in BSD, which skips `slptime > 1`).
                            p.slptime = p.slptime.saturating_add(1);
                            p.sleep_epoch = epoch;
                            (false, true)
                        }
                        PState::Runnable => (true, false),
                        PState::Running => (false, false),
                    }
                };
                if deactivate {
                    self.procs.set_decay_active(pid, false);
                }
                let p = &mut self.procs[pid];
                p.estcpu *= decay;
                let new_prio = sched::user_priority(p.estcpu, p.nice);
                if new_prio != p.priority {
                    p.priority = new_prio;
                    if was_runnable {
                        self.runq.remove(pid);
                        self.runq.push(pid, new_prio);
                    }
                }
            }
        }
        // Priority shifts under the running process are picked up by the
        // post-event fixup_dispatch.
    }

    fn handle_wake(&mut self, pid: Pid, token: u64) {
        let p = &self.procs[pid];
        if p.wake_token != token {
            return; // stale
        }
        if !matches!(p.state, PState::Sleeping { until: Some(_) }) {
            return;
        }
        // Waking from a wait channel: kernel-priority dispatch boost.
        self.procs[pid].kernel_boost = true;
        let step = self.next_step(pid);
        self.apply_off_cpu_step(pid, step);
    }

    fn handle_timer_fire(&mut self, pid: Pid, token: u64) {
        {
            let t = &mut self.procs[pid].timer;
            if !t.armed || t.token != token {
                return; // stale arming epoch
            }
            t.next_fire += t.period;
            let (at, tok) = (t.next_fire, t.token);
            self.events
                .schedule(at, EventKind::TimerFire { pid, token: tok });
        }
        match self.procs[pid].state {
            PState::Sleeping { until: None } => {
                // The process was waiting for exactly this: its step is done.
                self.procs[pid].kernel_boost = true;
                let step = self.next_step(pid);
                self.apply_off_cpu_step(pid, step);
            }
            PState::Exited => {}
            _ => {
                // Busy, starved, or stopped: the signal stays pending and is
                // coalesced with any later fires (§4.2's missed quanta).
                self.procs[pid].timer.pending = true;
            }
        }
    }

    fn handle_burst_done(&mut self, pid: Pid, token: u64) {
        let p = &self.procs[pid];
        if p.burst_token != token || !matches!(p.state, PState::Running) {
            return; // stale
        }
        debug_assert_eq!(self.running, Some(pid));
        debug_assert_eq!(p.burst_remaining, Some(Nanos::ZERO));
        let step = self.next_step(pid);
        match step {
            Step::Compute(d) => {
                assert!(d > Nanos::ZERO, "zero-length burst");
                // Continue on the CPU without a context switch: the process
                // simply keeps executing its next stretch of work.
                let p = &mut self.procs[pid];
                p.burst_remaining = Some(d);
                p.burst_token = p.burst_token.wrapping_add(1);
                let tok = p.burst_token;
                self.events
                    .schedule(self.now + d, EventKind::BurstDone { pid, token: tok });
            }
            Step::ComputeForever => {
                self.procs[pid].burst_remaining = None;
            }
            blocking => {
                let p = &mut self.procs[pid];
                p.voluntary_switches += 1;
                p.burst_token = p.burst_token.wrapping_add(1);
                self.running = None;
                self.apply_off_cpu_step(pid, blocking);
                self.context_switch();
            }
        }
    }

    /// Ask the behavior for its next step, resolving pending timer fires
    /// (an `AwaitTimer` with a pending fire completes immediately).
    fn next_step(&mut self, pid: Pid) -> Step {
        loop {
            let mut behavior = self.procs[pid]
                .behavior
                .take()
                .expect("behavior re-entered for the same process");
            let step = behavior.on_ready(&mut SimCtl { sim: self, me: pid });
            self.procs[pid].behavior = Some(behavior);
            if step == Step::AwaitTimer {
                let t = &mut self.procs[pid].timer;
                assert!(t.armed, "AwaitTimer with no armed interval timer");
                if t.pending {
                    t.pending = false;
                    continue; // the wait completes instantly
                }
            }
            return step;
        }
    }

    /// Apply a step for a process that is not on the CPU (spawn, wakeup,
    /// or just taken off after a burst).
    fn apply_off_cpu_step(&mut self, pid: Pid, step: Step) {
        match step {
            Step::Compute(d) => {
                assert!(d > Nanos::ZERO, "zero-length burst");
                self.procs[pid].burst_remaining = Some(d);
                self.make_runnable(pid);
            }
            Step::ComputeForever => {
                self.procs[pid].burst_remaining = None;
                self.make_runnable(pid);
            }
            Step::Sleep(d) => {
                assert!(d > Nanos::ZERO, "zero-length sleep");
                let p = &mut self.procs[pid];
                p.kernel_boost = false;
                p.wake_token = p.wake_token.wrapping_add(1);
                let token = p.wake_token;
                let until = self.now + d;
                p.state = PState::Sleeping { until: Some(until) };
                self.events.schedule(until, EventKind::Wake { pid, token });
                self.trace_push(pid, TraceKind::Block);
            }
            Step::AwaitTimer => {
                // Pending fires were consumed in next_step.
                let p = &mut self.procs[pid];
                p.kernel_boost = false;
                p.state = PState::Sleeping { until: None };
                self.trace_push(pid, TraceKind::Block);
            }
            Step::Exit => {
                let p = &mut self.procs[pid];
                p.kernel_boost = false;
                p.timer.armed = false;
                p.state = PState::Exited;
                self.procs.mark_dead(pid);
                self.trace_push(pid, TraceKind::Exit);
            }
        }
    }

    /// Put a process on the run queue after (re)computing its priority,
    /// applying the retroactive sleep decay of `updatepri`.
    fn make_runnable(&mut self, pid: Pid) {
        let loadavg = self.loadavg;
        let epoch = self.schedcpu_epoch;
        // A sleeper is dropped from the decay-active set on its first
        // whole second asleep; the `schedcpu` passes it slept through
        // afterwards are reconstructed here from the epoch counter.
        let missed = if self.procs.is_decay_active(pid) {
            0
        } else {
            epoch - self.procs[pid].sleep_epoch
        };
        self.procs.set_decay_active(pid, true);
        let p = &mut self.procs[pid];
        let slept = p.slptime.saturating_add(missed.min(u32::MAX as u64) as u32);
        if slept > 0 {
            p.estcpu = sched::updatepri(p.estcpu, loadavg, slept);
            p.slptime = 0;
        }
        p.priority = sched::user_priority(p.estcpu, p.nice);
        p.state = PState::Runnable;
        // A fresh sleep-waker is queued at the kernel sleep priority so it
        // wins the dispatch immediately (the BSD return-from-tsleep path);
        // p.priority keeps the user priority its subsequent CPU time is
        // judged by.
        let prio = if p.kernel_boost {
            sched::PSLEEP.min(p.priority)
        } else {
            p.priority
        };
        self.runq.push(pid, prio);
        self.trace_push(pid, TraceKind::Wake);
        // If the CPU is idle, dispatch right away; a preemption of a worse
        // running process happens in the post-event fixup_dispatch (which
        // also covers driver-initiated wakeups at the top of run_until).
        if self.running.is_none() {
            self.context_switch();
        }
    }

    /// Take the running process off the CPU, requeue it, and dispatch the
    /// best runnable process (`mi_switch` after `roundrobin`/`need_resched`).
    fn preempt(&mut self) {
        if let Some(pid) = self.running.take() {
            let p = &mut self.procs[pid];
            p.burst_token = p.burst_token.wrapping_add(1);
            p.priority = sched::user_priority(p.estcpu, p.nice);
            p.state = PState::Runnable;
            let prio = p.priority;
            self.runq.push(pid, prio);
            self.trace_push(pid, TraceKind::Preempt);
        }
        self.context_switch();
    }

    /// Dispatch the best runnable process onto the (idle) CPU.
    fn context_switch(&mut self) {
        debug_assert!(self.running.is_none());
        let Some((pid, _)) = self.runq.pop_best() else {
            return;
        };
        let now = self.now;
        let p = &mut self.procs[pid];
        p.kernel_boost = false; // the kernel-mode return is over
        p.state = PState::Running;
        p.dispatched_at = now;
        p.dispatches += 1;
        self.ctx_switches += 1;
        if let Some(r) = p.burst_remaining {
            p.burst_token = p.burst_token.wrapping_add(1);
            let token = p.burst_token;
            self.events
                .schedule(now + r, EventKind::BurstDone { pid, token });
        }
        self.running = Some(pid);
        self.trace_push(pid, TraceKind::Dispatch);
    }

    fn resetpriority(&mut self, pid: Pid) {
        let p = &mut self.procs[pid];
        p.priority = sched::user_priority(p.estcpu, p.nice);
    }
}

/// The facilities a [`Behavior`] may use while deciding its next step —
/// the analogue of the unprivileged syscall surface ALPS itself relies on
/// (`getrusage`/`kvm` reads, `kill`, `setitimer`).
pub struct SimCtl<'a> {
    sim: &'a mut Sim,
    me: Pid,
}

impl<'a> SimCtl<'a> {
    /// Current wall-clock time.
    pub fn now(&self) -> Nanos {
        self.sim.now
    }

    /// The calling process's cumulative CPU time.
    pub fn my_cputime(&self) -> Nanos {
        self.sim.procs[self.me].cputime
    }

    /// Read-only view of any process (see [`Sim::proc`]): the reads ALPS
    /// makes, one lookup per process. A user-level scheduler sees
    /// [`ProcView::visible_cputime`], subject to [`SimConfig::accounting`];
    /// [`ProcView::cputime`] is simulation ground truth, for
    /// instrumentation only.
    #[inline]
    pub fn proc(&self, pid: Pid) -> Option<ProcView<'_>> {
        self.sim.proc(pid)
    }

    /// Send `SIGSTOP` to another process.
    pub fn sigstop(&mut self, pid: Pid) {
        assert_ne!(pid, self.me, "a behavior cannot stop itself mid-step");
        self.sim.sigstop(pid);
    }

    /// Send `SIGCONT` to another process.
    pub fn sigcont(&mut self, pid: Pid) {
        assert_ne!(pid, self.me, "a behavior cannot continue itself");
        self.sim.sigcont(pid);
    }

    /// Terminate another process immediately (`SIGKILL`-style), as fault
    /// plans do to model a supervised process exiting mid-quantum.
    pub fn terminate(&mut self, pid: Pid) {
        assert_ne!(pid, self.me, "a behavior cannot terminate itself mid-step");
        self.sim.terminate(pid);
    }

    /// Arm (or re-arm) the calling process's interval timer with the given
    /// period; the first fire is one period from now.
    pub fn set_interval_timer(&mut self, period: Nanos) {
        assert!(period > Nanos::ZERO, "timer period must be positive");
        let now = self.sim.now;
        let me = self.me;
        let t = &mut self.sim.procs[me].timer;
        t.period = period;
        t.armed = true;
        t.pending = false;
        t.token = t.token.wrapping_add(1);
        t.next_fire = now + period;
        let (at, token) = (t.next_fire, t.token);
        self.sim
            .events
            .schedule(at, EventKind::TimerFire { pid: me, token });
    }

    /// Disarm the calling process's interval timer.
    pub fn cancel_interval_timer(&mut self) {
        let t = &mut self.sim.procs[self.me].timer;
        t.armed = false;
        t.pending = false;
        t.token = t.token.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ComputeBound;

    fn sim() -> Sim {
        Sim::new(SimConfig::default())
    }

    fn cputime(s: &Sim, pid: Pid) -> Nanos {
        s.proc(pid).expect("spawned").cputime()
    }

    #[test]
    fn single_compute_bound_uses_all_cpu() {
        let mut s = sim();
        let p = s.spawn("w", Box::new(ComputeBound));
        s.run_until(Nanos::from_secs(5));
        assert_eq!(cputime(&s, p), Nanos::from_secs(5));
        assert_eq!(s.idle_time(), Nanos::ZERO);
    }

    #[test]
    fn a_tick_ties_with_process_timers_in_the_order_they_were_armed() {
        /// Arms an interval timer on its first step and waits on it
        /// forever: every fire is one `Block` in the trace.
        struct Waiter {
            period: Nanos,
            armed: bool,
        }
        impl Behavior for Waiter {
            fn on_ready(&mut self, ctl: &mut SimCtl<'_>) -> Step {
                if !self.armed {
                    self.armed = true;
                    ctl.set_interval_timer(self.period);
                }
                Step::AwaitTimer
            }
        }
        let waiter = |period| {
            Box::new(Waiter {
                period,
                armed: false,
            })
        };
        // Two hogs rotate at the 120 ms tick (its priority recomputation
        // lets the waiting hog preempt). Two timers come due at that same
        // instant: `early` was armed at 0, before the 110 ms tick took the
        // 120 ms tick's sequence number; `late` is armed just after it.
        let t = Nanos::from_millis(120);
        let mut s = sim();
        s.enable_trace(256);
        let h1 = s.spawn("h1", Box::new(ComputeBound));
        let h2 = s.spawn("h2", Box::new(ComputeBound));
        let early = s.spawn("early", waiter(t));
        s.run_until(t - TICK);
        let late = s.spawn("late", waiter(TICK));
        s.run_until(t);
        let at_t: Vec<_> = s
            .trace()
            .expect("enabled")
            .events()
            .iter()
            .filter(|e| e.at == t)
            .map(|e| (e.pid, e.kind))
            .collect();
        assert_eq!(
            at_t,
            [
                (early, TraceKind::Block),
                (h2, TraceKind::Preempt),
                (h1, TraceKind::Dispatch),
                (late, TraceKind::Block),
            ]
        );
    }

    #[test]
    fn proc_returns_none_for_unknown_pid() {
        let mut s = sim();
        let p = s.spawn("w", Box::new(ComputeBound));
        assert!(s.proc(p).is_some());
        assert!(s.proc(Pid(42)).is_none());
    }

    #[test]
    fn ctl_terminate_kills_another_process_mid_run() {
        use crate::process::{Behavior, Step};

        /// Computes briefly, then terminates its victim (the fault-plan
        /// "mid-quantum exit" actuation path), then exits.
        struct Terminator {
            victim: Pid,
            fired: bool,
        }

        impl Behavior for Terminator {
            fn on_ready(&mut self, ctl: &mut SimCtl<'_>) -> Step {
                if !self.fired {
                    self.fired = true;
                    ctl.terminate(self.victim);
                    return Step::Compute(Nanos::from_millis(5));
                }
                Step::Exit
            }
        }

        let mut s = sim();
        let victim = s.spawn("victim", Box::new(ComputeBound));
        let killer = s.spawn(
            "killer",
            Box::new(Terminator {
                victim,
                fired: false,
            }),
        );
        s.run_until(Nanos::from_secs(2));
        assert!(s.proc(victim).expect("still visible").is_exited());
        assert!(s.proc(killer).expect("still visible").is_exited());
        // The victim died early: it cannot have accrued anywhere near the
        // full two seconds.
        assert!(cputime(&s, victim) < Nanos::from_secs(1));
        // With both gone the machine is idle for the remainder.
        assert!(s.idle_time() > Nanos::from_secs(1));
    }

    #[test]
    fn two_equal_processes_split_cpu_evenly() {
        let mut s = sim();
        let a = s.spawn("a", Box::new(ComputeBound));
        let b = s.spawn("b", Box::new(ComputeBound));
        s.run_until(Nanos::from_secs(20));
        let ca = cputime(&s, a).as_secs_f64();
        let cb = cputime(&s, b).as_secs_f64();
        assert!((ca + cb - 20.0).abs() < 1e-9, "no time lost: {ca} + {cb}");
        // The decay scheduler equalizes long-run usage to within a slice
        // or two.
        assert!((ca - cb).abs() < 0.5, "fair split: {ca} vs {cb}");
    }

    #[test]
    fn ten_equal_processes_each_get_tenth() {
        let mut s = sim();
        let pids: Vec<_> = (0..10)
            .map(|i| s.spawn(format!("w{i}"), Box::new(ComputeBound)))
            .collect();
        s.run_until(Nanos::from_secs(50));
        for &p in &pids {
            let v = s.proc(p).expect("spawned");
            let c = v.cputime().as_secs_f64();
            assert!(
                (c - 5.0).abs() < 0.6,
                "{}: got {c}s, expected ~5s",
                v.name()
            );
        }
    }

    #[test]
    fn sigstop_removes_from_contention() {
        let mut s = sim();
        let a = s.spawn("a", Box::new(ComputeBound));
        let b = s.spawn("b", Box::new(ComputeBound));
        s.run_until(Nanos::from_secs(2));
        s.sigstop(a);
        let ca = cputime(&s, a);
        s.run_until(Nanos::from_secs(4));
        assert_eq!(cputime(&s, a), ca, "stopped process consumes nothing");
        assert!(s.proc(a).expect("spawned").is_stopped());
        // b got everything in the meantime.
        assert!(cputime(&s, b) > Nanos::from_millis(2800));
        s.sigcont(a);
        s.run_until(Nanos::from_secs(6));
        assert!(cputime(&s, a) > ca, "resumed process runs again");
    }

    #[test]
    fn sleeping_process_blocks_and_wakes() {
        struct OneNap {
            slept: bool,
        }
        impl Behavior for OneNap {
            fn on_ready(&mut self, _: &mut SimCtl<'_>) -> Step {
                if self.slept {
                    Step::ComputeForever
                } else {
                    self.slept = true;
                    Step::Sleep(Nanos::from_millis(500))
                }
            }
        }
        let mut s = sim();
        let p = s.spawn("napper", Box::new(OneNap { slept: false }));
        s.run_until(Nanos::from_millis(250));
        assert!(s.proc(p).expect("spawned").is_blocked());
        assert_eq!(s.proc(p).expect("spawned").state_code(), 'S');
        s.run_until(Nanos::from_secs(1));
        assert!(!s.proc(p).expect("spawned").is_blocked());
        assert_eq!(cputime(&s, p), Nanos::from_millis(500));
    }

    #[test]
    fn compute_then_exit_leaves_zombie_accounting() {
        struct RunOnce;
        impl Behavior for RunOnce {
            fn on_ready(&mut self, ctl: &mut SimCtl<'_>) -> Step {
                if ctl.my_cputime() == Nanos::ZERO {
                    Step::Compute(Nanos::from_millis(30))
                } else {
                    Step::Exit
                }
            }
        }
        let mut s = sim();
        let p = s.spawn("once", Box::new(RunOnce));
        s.run_until(Nanos::from_secs(1));
        let v = s.proc(p).expect("spawned");
        assert!(v.is_exited());
        assert_eq!(v.state_code(), 'Z');
        assert_eq!(v.cputime(), Nanos::from_millis(30));
        assert!(s.idle_time() >= Nanos::from_millis(960));
        assert_eq!(s.live_count(), 0, "exit must leave the live index");
        s.assert_index_consistent();
    }

    #[test]
    fn interval_timer_wakes_periodically() {
        struct Ticker {
            fires: u64,
            armed: bool,
        }
        impl Behavior for Ticker {
            fn on_ready(&mut self, ctl: &mut SimCtl<'_>) -> Step {
                if !self.armed {
                    self.armed = true;
                    ctl.set_interval_timer(Nanos::from_millis(100));
                } else {
                    self.fires += 1;
                }
                Step::AwaitTimer
            }
            fn name(&self) -> &str {
                "ticker"
            }
        }
        let mut s = sim();
        let p = s.spawn(
            "t",
            Box::new(Ticker {
                fires: 0,
                armed: false,
            }),
        );
        s.run_until(Nanos::from_secs(1));
        // Fires at 100,200,...,1000ms. The process never computes.
        assert_eq!(cputime(&s, p), Nanos::ZERO);
        assert!(s.proc(p).expect("spawned").is_blocked());
    }

    #[test]
    fn stopped_sleeper_resumes_its_sleep() {
        struct Napper {
            naps: u32,
        }
        impl Behavior for Napper {
            fn on_ready(&mut self, _: &mut SimCtl<'_>) -> Step {
                self.naps += 1;
                if self.naps == 1 {
                    Step::Sleep(Nanos::from_secs(1))
                } else {
                    Step::ComputeForever
                }
            }
        }
        let mut s = sim();
        let p = s.spawn("n", Box::new(Napper { naps: 0 }));
        s.run_until(Nanos::from_millis(100));
        assert!(s.proc(p).expect("spawned").is_blocked());
        s.sigstop(p);
        assert!(s.proc(p).expect("spawned").is_stopped());
        // The sleep would expire at t=1s while stopped.
        s.run_until(Nanos::from_millis(400));
        s.sigcont(p);
        // Sleep deadline (1s) is still in the future: back to sleeping.
        assert!(s.proc(p).expect("spawned").is_blocked());
        s.run_until(Nanos::from_secs(2));
        // Woke at 1s and computed from then on.
        assert!((cputime(&s, p).as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stopped_sleeper_whose_deadline_passed_wakes_on_cont() {
        struct Napper {
            naps: u32,
        }
        impl Behavior for Napper {
            fn on_ready(&mut self, _: &mut SimCtl<'_>) -> Step {
                self.naps += 1;
                if self.naps == 1 {
                    Step::Sleep(Nanos::from_millis(200))
                } else {
                    Step::ComputeForever
                }
            }
        }
        let mut s = sim();
        let p = s.spawn("n", Box::new(Napper { naps: 0 }));
        s.run_until(Nanos::from_millis(50));
        s.sigstop(p);
        s.run_until(Nanos::from_secs(1)); // deadline passes while stopped
        assert!(s.proc(p).expect("spawned").is_stopped());
        s.sigcont(p);
        s.run_until(Nanos::from_secs(2));
        assert!((cputime(&s, p).as_secs_f64() - 1.0).abs() < 0.02);
    }

    #[test]
    fn terminate_cleans_up() {
        let mut s = sim();
        let a = s.spawn("a", Box::new(ComputeBound));
        let b = s.spawn("b", Box::new(ComputeBound));
        s.run_until(Nanos::from_secs(1));
        s.terminate(a);
        assert!(s.proc(a).expect("spawned").is_exited());
        assert_eq!(s.live_count(), 1);
        let ca = cputime(&s, a);
        s.run_until(Nanos::from_secs(3));
        assert_eq!(cputime(&s, a), ca);
        // b now owns the machine.
        assert!((cputime(&s, b) + ca).as_secs_f64() - 3.0 < 1e-6);
        s.assert_index_consistent();
    }

    #[test]
    fn woken_sleeper_preempts_lower_priority_within_a_tick() {
        // A process that just slept a long time gets updatepri credit and
        // should beat a compute-bound hog quickly (BSD interactivity).
        struct Napper {
            naps: u32,
        }
        impl Behavior for Napper {
            fn on_ready(&mut self, _: &mut SimCtl<'_>) -> Step {
                self.naps += 1;
                if self.naps % 2 == 1 {
                    Step::Sleep(Nanos::from_secs(3))
                } else {
                    Step::Compute(Nanos::from_millis(20))
                }
            }
        }
        let mut s = sim();
        let _hog = s.spawn("hog", Box::new(ComputeBound));
        let n = s.spawn("napper", Box::new(Napper { naps: 0 }));
        s.run_until(Nanos::from_secs(3) + Nanos::from_millis(50));
        // Woken at t=3s; within 50ms (a handful of ticks) it must have run.
        assert!(
            cputime(&s, n) > Nanos::ZERO,
            "woken interactive process was starved"
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let cfg = SimConfig {
                seed,
                spawn_estcpu_jitter: 8.0,
                ..SimConfig::default()
            };
            let mut s = Sim::new(cfg);
            s.enable_trace(4096);
            for i in 0..5 {
                s.spawn(format!("w{i}"), Box::new(ComputeBound));
            }
            s.run_until(Nanos::from_secs(10));
            s.trace()
                .unwrap()
                .events()
                .iter()
                .map(|e| (e.at, e.pid, e.kind))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2), "different seeds perturb the trace");
    }

    #[test]
    fn no_time_is_ever_lost() {
        let mut s = sim();
        let a = s.spawn("a", Box::new(ComputeBound));
        let b = s.spawn(
            "b",
            Box::new(ComputeThenSleepHelper {
                inner: crate::process::ComputeThenSleep::new(
                    Nanos::from_millis(80),
                    Nanos::from_millis(240),
                    Nanos::ZERO,
                ),
            }),
        );
        s.run_until(Nanos::from_secs(7));
        let total = cputime(&s, a) + cputime(&s, b) + s.idle_time();
        assert_eq!(total, Nanos::from_secs(7));
    }

    /// Wrapper so the test can use ComputeThenSleep through the Behavior
    /// object without exposing its private phase field.
    struct ComputeThenSleepHelper {
        inner: crate::process::ComputeThenSleep,
    }
    impl Behavior for ComputeThenSleepHelper {
        fn on_ready(&mut self, ctl: &mut SimCtl<'_>) -> Step {
            self.inner.on_ready(ctl)
        }
    }

    #[test]
    fn rr_slice_rotates_equal_priority() {
        let mut s = sim();
        let a = s.spawn("a", Box::new(ComputeBound));
        let b = s.spawn("b", Box::new(ComputeBound));
        s.run_until(Nanos::from_secs(2));
        let (da, db) = (
            s.proc(a).expect("spawned").dispatches(),
            s.proc(b).expect("spawned").dispatches(),
        );
        assert!(da > 3, "a rotated: {da}");
        assert!(db > 3, "b rotated: {db}");
    }
}
