//! The [`Substrate`] adapter over a simulated kernel.
//!
//! This is the whole backend: the generic [`alps_core::Engine`] does the
//! scheduling; all it needs from `kernsim` is the clock, per-process CPU
//! readings and run states, and `SIGSTOP`/`SIGCONT` delivery, which
//! [`SimCtl`] already exposes to a behavior.

use core::convert::Infallible;

use alps_core::{Nanos, Observation, Signal, Substrate};
use kernsim::{Pid, SimCtl};

/// One simulated process's view of the simulation as a scheduling
/// substrate. Borrow a behavior's [`SimCtl`] for the duration of an engine
/// call.
pub struct SimSubstrate<'a, 'b> {
    ctl: &'a mut SimCtl<'b>,
}

impl<'a, 'b> SimSubstrate<'a, 'b> {
    /// Wrap a behavior's control handle.
    pub fn new(ctl: &'a mut SimCtl<'b>) -> Self {
        SimSubstrate { ctl }
    }
}

impl Substrate for SimSubstrate<'_, '_> {
    type Member = Pid;
    type Error = Infallible;

    fn now(&mut self) -> Nanos {
        self.ctl.now()
    }

    fn read(&mut self, pid: Pid) -> Result<Option<Observation>, Infallible> {
        let p = self.ctl.proc(pid).expect("unknown pid");
        if p.is_exited() {
            return Ok(None);
        }
        Ok(Some(Observation {
            // The tick-granular reading a real user-level scheduler sees.
            total_cpu: p.visible_cputime(),
            blocked: p.is_blocked(),
        }))
    }

    fn read_exact(&mut self, pid: Pid) -> Result<Option<Nanos>, Infallible> {
        let p = self.ctl.proc(pid).expect("unknown pid");
        if p.is_exited() {
            return Ok(None);
        }
        // Ground truth, so accuracy instrumentation measures the
        // scheduler rather than the visible counters it reads.
        Ok(Some(p.cputime()))
    }

    fn stopped(&self, pid: Pid) -> bool {
        self.ctl.proc(pid).expect("unknown pid").is_stopped()
    }

    fn deliver(&mut self, pid: Pid, signal: Signal) -> Result<bool, Infallible> {
        if self.ctl.proc(pid).expect("unknown pid").is_exited() {
            return Ok(false);
        }
        match signal {
            Signal::Stop => self.ctl.sigstop(pid),
            Signal::Continue => self.ctl.sigcont(pid),
        }
        Ok(true)
    }
}
