//! A synthetic process behavior beyond the two built into `kernsim`
//! ([`kernsim::ComputeBound`], [`kernsim::ComputeThenSleep`]).

use alps_core::Nanos;
use kernsim::{Behavior, SimCtl, Step};

/// Computes a fixed total amount of CPU and then exits — models a batch job
/// (e.g. one worker of the scientific application from the paper's intro).
#[derive(Debug, Clone, Copy)]
pub struct FiniteJob {
    /// Total CPU to consume before exiting.
    pub total: Nanos,
    issued: bool,
}

impl FiniteJob {
    /// A job that consumes `total` CPU time and exits.
    pub fn new(total: Nanos) -> Self {
        assert!(total > Nanos::ZERO);
        FiniteJob {
            total,
            issued: false,
        }
    }
}

impl Behavior for FiniteJob {
    fn on_ready(&mut self, _ctl: &mut SimCtl<'_>) -> Step {
        if self.issued {
            Step::Exit
        } else {
            self.issued = true;
            Step::Compute(self.total)
        }
    }

    fn name(&self) -> &str {
        "finite-job"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernsim::{Sim, SimConfig};

    #[test]
    fn finite_job_consumes_exactly_and_exits() {
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.spawn("j", Box::new(FiniteJob::new(Nanos::from_millis(250))));
        sim.run_until(Nanos::from_secs(1));
        assert!(sim.proc(p).unwrap().is_exited());
        assert_eq!(sim.proc(p).unwrap().cputime(), Nanos::from_millis(250));
    }
}
