//! Fork-join batch workloads — the paper's introductory scientific
//! application ("multiple processes, each of which computes over some
//! space … CPU time … allocated proportionally to the size of that
//! space").
//!
//! The point of work-proportional shares in a fork-join stage is
//! *co-completion*: if every worker's share matches its work, all workers
//! finish together and the join never waits on a straggler. Under an
//! equal-share kernel policy, small regions finish early and idle (or
//! steal CPU needed elsewhere) while the largest region drags the join.

use alps_core::Nanos;
use kernsim::{Behavior, Pid, Sim, SimCtl, Step};

use crate::workload::{LatencyProbe, Tenant, Workload};

/// One worker of a fork-join stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchJob {
    /// Total CPU the worker needs (e.g. proportional to its region size).
    pub work: Nanos,
}

/// A fork-join stage as a [`Workload`] spec: one worker per job, each
/// recording its completion latency (spawn to exit) against its work as
/// the service demand — so a stage's probe summary directly reports
/// stretch (1.0 = ran as if alone; the co-completion ideal keeps every
/// worker's stretch equal).
#[derive(Debug, Clone)]
pub struct BatchStage {
    /// Stage name.
    pub name: String,
    /// One worker per job.
    pub jobs: Vec<BatchJob>,
}

impl Workload for BatchStage {
    fn spawn(&self, sim: &mut Sim) -> Tenant {
        assert!(!self.jobs.is_empty(), "a stage needs jobs");
        let probe = LatencyProbe::new();
        let members = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                sim.spawn(
                    format!("{}-j{i}", self.name),
                    Box::new(ProbedJob {
                        work: job.work,
                        probe: probe.clone(),
                        started: None,
                    }),
                )
            })
            .collect();
        Tenant::new(self.name.clone(), members, probe)
    }
}

/// A [`crate::FiniteJob`] that records its wall-clock completion latency.
struct ProbedJob {
    work: Nanos,
    probe: LatencyProbe,
    started: Option<Nanos>,
}

impl Behavior for ProbedJob {
    fn on_ready(&mut self, ctl: &mut SimCtl<'_>) -> Step {
        match self.started {
            None => {
                self.started = Some(ctl.now());
                Step::Compute(self.work)
            }
            Some(started) => {
                self.probe
                    .record((ctl.now() - started).as_nanos(), self.work.as_nanos());
                Step::Exit
            }
        }
    }

    fn name(&self) -> &str {
        "batch-job"
    }
}

/// Run the simulation until every worker in `pids` (e.g. a spawned
/// [`BatchStage`]'s [`Tenant::members`]) has exited, bounded by `cap`,
/// returning each worker's completion wall-clock time (`cap` for one
/// still running).
pub fn run_pids_to_completion(sim: &mut Sim, pids: &[Pid], cap: Nanos) -> Vec<Nanos> {
    let mut done_at: Vec<Option<Nanos>> = vec![None; pids.len()];
    while sim.now() < cap {
        let next = sim.now() + Nanos::from_millis(10);
        sim.run_until(next.min(cap));
        for (i, &p) in pids.iter().enumerate() {
            if done_at[i].is_none() && sim.proc(p).unwrap().is_exited() {
                done_at[i] = Some(sim.now());
            }
        }
        if done_at.iter().all(|d| d.is_some()) {
            break;
        }
    }
    done_at.into_iter().map(|d| d.unwrap_or(cap)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernsim::SimConfig;

    fn stage(name: &str, work_ms: &[u64]) -> BatchStage {
        BatchStage {
            name: name.into(),
            jobs: work_ms
                .iter()
                .map(|&ms| BatchJob {
                    work: Nanos::from_millis(ms),
                })
                .collect(),
        }
    }

    #[test]
    fn batch_workers_run_and_exit() {
        let mut sim = Sim::new(SimConfig::default());
        let stage = stage("stage", &[100, 200, 300]);
        let t = stage.spawn(&mut sim);
        let done = run_pids_to_completion(&mut sim, &t.members, Nanos::from_secs(5));
        assert!(t.members.iter().all(|&p| sim.proc(p).unwrap().is_exited()));
        // Total work 600ms on one CPU: the last completion is ~600ms.
        let last = done.iter().max().unwrap();
        assert!((last.as_millis_f64() - 600.0).abs() < 50.0, "{last}");
        // Each consumed exactly its work.
        for (&pid, job) in t.members.iter().zip(&stage.jobs) {
            assert_eq!(sim.proc(pid).unwrap().cputime(), job.work);
        }
    }

    #[test]
    fn batch_stage_records_stretch_per_worker() {
        let mut sim = Sim::new(SimConfig::default());
        let t = stage("mesh", &[100, 200, 300]).spawn(&mut sim);
        assert_eq!(t.members.len(), 3);
        sim.run_until(Nanos::from_secs(5));
        assert_eq!(t.completed(), 3);
        let s = t.latency_summary(0);
        // Three jobs sharing one CPU: each waits on the others, so every
        // stretch is > 1 and the max is bounded by total/min work = 6.
        assert!(s.mean_stretch > 1.0, "got {}", s.mean_stretch);
        assert!(s.max_stretch <= 6.5, "got {}", s.max_stretch);
    }
}
