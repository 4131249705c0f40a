//! Simulated processes: states, behaviors, and interval timers.

use alps_core::Nanos;

use crate::pid::Pid;
use crate::sim::SimCtl;

/// What a process does next, returned by its [`Behavior`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Consume this much CPU time, then ask the behavior again.
    Compute(Nanos),
    /// Compute-bound: consume CPU forever (the paper's synthetic workload).
    ComputeForever,
    /// Block on a wait channel for this long (models I/O), then ask again.
    Sleep(Nanos),
    /// Block until the process's interval timer next fires (models
    /// `setitimer` + `sigsuspend`, the ALPS wakeup mechanism). If a fire is
    /// already pending — the process was too busy or too starved to service
    /// it in time — this returns immediately, which is exactly the signal
    /// coalescing that makes an overloaded ALPS skip quanta.
    AwaitTimer,
    /// Terminate.
    Exit,
}

/// The program a simulated process runs.
///
/// `on_ready` is invoked when the process is first dispatched and each time
/// its previous [`Step`] completes (a burst finished, a sleep expired, a
/// timer fired). It receives a [`SimCtl`] through which it can read clocks
/// and other processes' accounting, send job-control signals, and manage
/// its interval timer — the same facilities a real unprivileged UNIX
/// process has.
pub trait Behavior {
    /// Decide the next step.
    fn on_ready(&mut self, ctl: &mut SimCtl<'_>) -> Step;

    /// Short label for traces and debugging.
    fn name(&self) -> &str {
        "proc"
    }
}

/// A compute-bound behavior: runs forever (the paper's synthetic workload).
#[derive(Debug, Default, Clone, Copy)]
pub struct ComputeBound;

impl Behavior for ComputeBound {
    fn on_ready(&mut self, _ctl: &mut SimCtl<'_>) -> Step {
        Step::ComputeForever
    }

    fn name(&self) -> &str {
        "compute"
    }
}

/// Alternates `run` of CPU with `sleep` of blocking — the §3.3 I/O workload
/// ("sleeping for 240 ms after every 80 ms of execution time").
#[derive(Debug, Clone, Copy)]
pub struct ComputeThenSleep {
    /// CPU burst length.
    pub run: Nanos,
    /// Blocked time after each burst.
    pub sleep: Nanos,
    /// CPU time to consume before the pattern starts (the §3.3 experiment
    /// lets the workload reach steady state first).
    pub start_after: Nanos,
    phase: IoPhase,
}

#[derive(Debug, Clone, Copy)]
enum IoPhase {
    Start,
    Ran,
    Slept,
}

impl ComputeThenSleep {
    /// A process that computes `start_after` of lead-in, then alternates
    /// `run` of CPU with `sleep` of blocking.
    pub fn new(run: Nanos, sleep: Nanos, start_after: Nanos) -> Self {
        ComputeThenSleep {
            run,
            sleep,
            start_after,
            phase: IoPhase::Start,
        }
    }
}

impl Behavior for ComputeThenSleep {
    fn on_ready(&mut self, _ctl: &mut SimCtl<'_>) -> Step {
        match self.phase {
            IoPhase::Start => {
                self.phase = IoPhase::Ran;
                Step::Compute(self.start_after + self.run)
            }
            IoPhase::Ran => {
                self.phase = IoPhase::Slept;
                Step::Sleep(self.sleep)
            }
            IoPhase::Slept => {
                self.phase = IoPhase::Ran;
                Step::Compute(self.run)
            }
        }
    }

    fn name(&self) -> &str {
        "compute+io"
    }
}

/// Process lifecycle state, mirroring the BSD proc states the paper's ALPS
/// inspects (`SRUN`, `SSLEEP`, `SSTOP`, `SZOMB`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PState {
    /// On the run queue (or about to be placed there).
    Runnable,
    /// Currently on the CPU.
    Running,
    /// Blocked on a wait channel. `until` is the wakeup time for timed
    /// sleeps; `None` means waiting for the interval timer.
    Sleeping {
        /// Wakeup deadline for a timed sleep; `None` while waiting on the
        /// interval timer.
        until: Option<Nanos>,
    },
    /// Stopped by `SIGSTOP`. `resume_sleep_until` remembers an interrupted
    /// timed sleep so `SIGCONT` can re-enter it; `Some(t)` with `t` in the
    /// past (or `None` with `was_awaiting_timer == false`) resumes to
    /// runnable.
    Stopped {
        /// Interrupted timed sleep to return to on `SIGCONT`.
        resume_sleep_until: Option<Nanos>,
        /// Whether the process was waiting on its interval timer.
        was_awaiting_timer: bool,
    },
    /// Exited; kept for post-mortem accounting.
    Exited,
}

impl PState {
    /// The one-letter state code `/proc` would show; ALPS's blocked test
    /// (§2.4) checks for `S` (sleeping on a wait channel).
    pub fn code(&self) -> char {
        match self {
            PState::Runnable => 'R',
            PState::Running => 'O',
            PState::Sleeping { .. } => 'S',
            PState::Stopped { .. } => 'T',
            PState::Exited => 'Z',
        }
    }
}

/// A process's interval timer (`setitimer(ITIMER_REAL)` analogue).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntervalTimer {
    /// Firing period; zero disarms.
    pub period: Nanos,
    /// Next scheduled expiry.
    pub next_fire: Nanos,
    /// Event-staleness token.
    pub token: u64,
    /// A fire occurred while the process wasn't waiting; delivered on the
    /// next [`Step::AwaitTimer`] (pending-signal coalescing).
    pub pending: bool,
    /// Whether the timer is armed.
    pub armed: bool,
}

/// A simulated process.
pub struct Process {
    /// Its pid.
    pub pid: Pid,
    /// Human-readable name.
    pub name: String,
    /// Lifecycle state.
    pub state: PState,
    /// Nice value (−20..=20, 0 for everything in the paper).
    pub nice: i8,
    /// Recent-CPU estimate driving the decay-usage priority.
    pub estcpu: f64,
    /// Cached user priority.
    pub priority: u8,
    /// Whole seconds spent continuously asleep (for `updatepri`).
    pub slptime: u32,
    /// The `schedcpu` epoch at which this process was dropped from the
    /// decay-active set (its first whole second asleep). The wakeup path
    /// reconstructs the seconds `schedcpu` never counted as
    /// `current_epoch - sleep_epoch`, so long sleepers cost nothing per
    /// second while accruing the same `updatepri` credit.
    pub sleep_epoch: u64,
    /// Total CPU time consumed (event-exact ground truth).
    pub cputime: Nanos,
    /// Tick-sampled CPU time (what classic statclock accounting would
    /// report to user level); see `SimConfig::accounting`.
    pub visible_cputime: Nanos,
    /// Remaining CPU in the current burst; `None` = compute forever.
    pub burst_remaining: Option<Nanos>,
    /// Wall-clock time of the current dispatch (for the RR slice).
    pub dispatched_at: Nanos,
    /// Woken from a wait channel and not yet dispatched: queued at the
    /// kernel sleep priority ([`crate::sched::PSLEEP`]) instead of the user
    /// priority. Cleared when the process reaches the CPU.
    pub kernel_boost: bool,
    /// Staleness token for Wake events.
    pub wake_token: u64,
    /// Staleness token for BurstDone events.
    pub burst_token: u64,
    /// Interval timer.
    pub timer: IntervalTimer,
    /// The program, temporarily taken out while it runs.
    pub behavior: Option<Box<dyn Behavior>>,
    /// Count of times this process was put on the CPU.
    pub dispatches: u64,
    /// Count of voluntary context switches (blocked or exited).
    pub voluntary_switches: u64,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("state", &self.state)
            .field("priority", &self.priority)
            .field("estcpu", &self.estcpu)
            .field("cputime", &self.cputime)
            .finish_non_exhaustive()
    }
}

/// A read-only view of one process, returned by `Sim::proc`.
///
/// This is the query API experiment drivers use: one fallible lookup
/// (`sim.proc(pid)?`) instead of a family of per-field getters that each
/// panic on a bad pid. The view carries the simulation's accounting mode so
/// [`ProcView::visible_cputime`] reports what a user-level reader
/// (`getrusage`, `/proc`) would actually see.
#[derive(Debug, Clone, Copy)]
pub struct ProcView<'a> {
    pub(crate) proc: &'a Process,
    pub(crate) accounting: crate::sim::CpuAccounting,
}

impl<'a> ProcView<'a> {
    /// The process's pid.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.proc.pid
    }

    /// Process name.
    #[inline]
    pub fn name(&self) -> &'a str {
        &self.proc.name
    }

    /// Lifecycle state.
    #[inline]
    pub fn state(&self) -> PState {
        self.proc.state
    }

    /// The `/proc`-style one-letter state code.
    #[inline]
    pub fn state_code(&self) -> char {
        self.proc.state.code()
    }

    /// Exact cumulative CPU time (simulation ground truth, valid after
    /// exit).
    #[inline]
    pub fn cputime(&self) -> Nanos {
        self.proc.cputime
    }

    /// Cumulative CPU time as a *user-level reader* sees it: exact or
    /// tick-sampled per `SimConfig::accounting`.
    #[inline]
    pub fn visible_cputime(&self) -> Nanos {
        match self.accounting {
            crate::sim::CpuAccounting::Exact => self.proc.cputime,
            crate::sim::CpuAccounting::TickSampled => self.proc.visible_cputime,
        }
    }

    /// Current decay-usage priority (lower is better).
    #[inline]
    pub fn priority(&self) -> u8 {
        self.proc.priority
    }

    /// Nice value.
    #[inline]
    pub fn nice(&self) -> i8 {
        self.proc.nice
    }

    /// Recent-CPU estimate driving the decay-usage priority.
    #[inline]
    pub fn estcpu(&self) -> f64 {
        self.proc.estcpu
    }

    /// Times the process was placed on the CPU.
    #[inline]
    pub fn dispatches(&self) -> u64 {
        self.proc.dispatches
    }

    /// Count of voluntary context switches (blocked or exited).
    #[inline]
    pub fn voluntary_switches(&self) -> u64 {
        self.proc.voluntary_switches
    }

    /// Whether the process is blocked on a wait channel (the §2.4 test).
    #[inline]
    pub fn is_blocked(&self) -> bool {
        matches!(self.proc.state, PState::Sleeping { .. })
    }

    /// Whether the process has exited.
    #[inline]
    pub fn is_exited(&self) -> bool {
        matches!(self.proc.state, PState::Exited)
    }

    /// Whether the process is stopped by job control.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        matches!(self.proc.state, PState::Stopped { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_codes_match_proc_conventions() {
        assert_eq!(PState::Runnable.code(), 'R');
        assert_eq!(PState::Running.code(), 'O');
        assert_eq!(PState::Sleeping { until: None }.code(), 'S');
        assert_eq!(
            PState::Stopped {
                resume_sleep_until: None,
                was_awaiting_timer: false
            }
            .code(),
            'T'
        );
        assert_eq!(PState::Exited.code(), 'Z');
    }
}
