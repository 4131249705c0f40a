//! Running an ALPS scheduler as a process inside the kernel simulator.
//!
//! [`spawn_alps`] plants an ALPS process into a [`Sim`]: an ordinary,
//! unprivileged simulated process that arms a periodic interval timer with
//! the ALPS quantum and, on each expiry, pays the Table-1 CPU costs of its
//! work (timer receipt, progress measurement, signals) as bursts it must
//! win from the simulated kernel scheduler like everyone else. The
//! scheduling loop itself is the generic [`alps_core::Engine`] driven over
//! a [`SimSubstrate`]; this module only interleaves the cost-model charges
//! between the engine's stages. The returned [`AlpsHandle`] lets the
//! experiment driver inspect the algorithm state and harvest per-cycle
//! records afterwards.
//!
//! [`spawn_alps_principals`] runs the same process over *groups* (§5): the
//! web-server experiment schedules users, not processes, and refreshes
//! each user's membership once per second (the paper used `kvm_getprocs`
//! to list a user's pids), paying a process-table scan per refresh.

use std::cell::RefCell;
use std::rc::Rc;

use alps_core::{
    AlpsConfig, CycleRecord, Engine, EngineStats, Instrumentation, Nanos, NullSink, ProcId, StaleId,
};
use kernsim::{Behavior, Pid, Sim, SimCtl, Step};

use crate::cost::CostModel;
use crate::substrate::SimSubstrate;

/// Where a group's membership comes from: the driver owns the
/// authoritative pid list (in the real system this is "all processes of
/// uid X"), and may mutate it between `run_until` calls; the runner
/// re-reads it every refresh period.
pub type MemberList = Rc<RefCell<Vec<Pid>>>;

#[derive(Debug)]
struct Shared {
    engine: Engine<Pid>,
    /// Each group and the list its membership is refreshed from.
    groups: Vec<(ProcId, MemberList)>,
    refreshes: u64,
}

/// Driver-side handle to a spawned ALPS instance.
#[derive(Debug, Clone)]
pub struct AlpsHandle {
    /// The ALPS process's own pid in the simulation (its CPU time is the
    /// overhead numerator of Figures 5 and 8).
    pub pid: Pid,
    shared: Rc<RefCell<Shared>>,
}

impl AlpsHandle {
    /// Per-cycle consumption records collected so far (clones out).
    pub fn cycles(&self) -> Vec<CycleRecord> {
        self.shared.borrow().engine.cycles().to_vec()
    }

    /// Number of cycles completed so far.
    pub fn cycle_count(&self) -> u64 {
        self.shared.borrow().engine.stats().cycles
    }

    /// Engine statistics.
    pub fn stats(&self) -> EngineStats {
        self.shared.borrow().engine.stats()
    }

    /// The core [`ProcId`]s in registration order (parallel to the pid
    /// slice passed to [`spawn_alps`], or to the groups passed to
    /// [`spawn_alps_principals`]).
    pub fn proc_ids(&self) -> Vec<ProcId> {
        self.shared.borrow().engine.proc_ids()
    }

    /// Scheduler invocation count (`count` in Figure 3).
    pub fn invocations(&self) -> u64 {
        self.shared.borrow().engine.invocations()
    }

    /// Change a principal's share at runtime (e.g. when a mesh region
    /// refines in the paper's scientific-application scenario).
    pub fn set_share(&self, id: ProcId, share: u64) -> Result<(), StaleId> {
        self.shared.borrow_mut().engine.set_share(id, share)
    }

    /// Group membership refreshes performed.
    pub fn refreshes(&self) -> u64 {
        self.shared.borrow().refreshes
    }
}

enum Phase {
    /// Freshly spawned: suspend the controlled processes, arm the timer.
    Init,
    /// Blocked on the interval timer.
    Waiting,
    /// Paying the measurement cost for the engine's due list.
    Measuring,
    /// Paying the signal cost before delivering the pending signals.
    Signaling,
}

struct AlpsBehavior {
    shared: Rc<RefCell<Shared>>,
    cost: CostModel,
    /// The group refresh period; `None` when there are no groups.
    refresh_period: Option<Nanos>,
    next_refresh: Nanos,
    phase: Phase,
    name: &'static str,
}

impl AlpsBehavior {
    /// Re-read each group's member list; returns the extra CPU cost of the
    /// process-table scan plus any reconciliation signals sent.
    fn refresh_memberships(&mut self, ctl: &mut SimCtl<'_>) -> Nanos {
        let mut shared = self.shared.borrow_mut();
        let Shared {
            engine,
            groups,
            refreshes,
        } = &mut *shared;
        *refreshes += 1;
        let mut scanned = 0usize;
        let mut signals = 0usize;
        for (id, members) in groups.iter() {
            let current: Vec<(Pid, Nanos)> = members
                .borrow()
                .iter()
                .copied()
                .filter_map(|p| {
                    let v = ctl.proc(p).expect("unknown pid");
                    (!v.is_exited()).then(|| (p, v.visible_cputime()))
                })
                .collect();
            scanned += current.len();
            let mut sub = SimSubstrate::new(ctl);
            let sent = engine.set_membership(&mut sub, *id, &current, &mut NullSink);
            signals += sent.unwrap_or(0);
        }
        self.cost.measure(scanned) + self.cost.signals(signals)
    }
}

impl Behavior for AlpsBehavior {
    fn on_ready(&mut self, ctl: &mut SimCtl<'_>) -> Step {
        let mut sink = NullSink;
        match std::mem::replace(&mut self.phase, Phase::Waiting) {
            Phase::Init => {
                // Registered processes start ineligible (§2.2): stop the
                // fixed ones now; groups are still empty, and the first
                // refresh stops their members.
                let pids: Vec<Pid> = {
                    let shared = self.shared.borrow();
                    let engine = &shared.engine;
                    engine
                        .proc_ids()
                        .iter()
                        .flat_map(|&id| engine.members(id).unwrap_or_default())
                        .collect()
                };
                for pid in pids {
                    ctl.sigstop(pid);
                }
                if let Some(period) = self.refresh_period {
                    // Spawn-time setup is not charged as overhead.
                    let _ = self.refresh_memberships(ctl);
                    self.next_refresh = ctl.now() + period;
                }
                ctl.set_interval_timer(self.shared.borrow().engine.quantum());
                self.phase = Phase::Waiting;
                Step::AwaitTimer
            }
            Phase::Waiting => {
                // Timer expired: refresh the groups if one is due, then
                // begin an invocation. The due list (held in the engine's
                // reusable buffer) and its measurement cost are known
                // before any reads happen.
                let mut work = self.cost.timer_event;
                if let Some(period) = self.refresh_period {
                    if ctl.now() >= self.next_refresh {
                        work += self.refresh_memberships(ctl);
                        self.next_refresh = ctl.now() + period;
                    }
                }
                let to_read = {
                    let mut shared = self.shared.borrow_mut();
                    shared
                        .engine
                        .begin_quantum(&mut SimSubstrate::new(ctl), &mut sink)
                        .unwrap()
                };
                work += self.cost.measure(to_read);
                self.phase = Phase::Measuring;
                Step::Compute(work.max(Nanos::from_nanos(1)))
            }
            Phase::Measuring => {
                // Measurement cost paid: read the actual values and run the
                // algorithm.
                let n_signals = {
                    let mut shared = self.shared.borrow_mut();
                    shared
                        .engine
                        .complete_quantum(&mut SimSubstrate::new(ctl), &mut sink)
                        .unwrap();
                    shared.engine.pending_signals().len()
                };
                if n_signals == 0 {
                    self.phase = Phase::Waiting;
                    Step::AwaitTimer
                } else {
                    let work = self.cost.signals(n_signals);
                    self.phase = Phase::Signaling;
                    Step::Compute(work.max(Nanos::from_nanos(1)))
                }
            }
            Phase::Signaling => {
                self.shared
                    .borrow_mut()
                    .engine
                    .apply_pending_signals(&mut SimSubstrate::new(ctl), &mut sink)
                    .unwrap();
                self.phase = Phase::Waiting;
                Step::AwaitTimer
            }
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}

/// Spawn an ALPS scheduler process controlling `procs` (pid, share pairs).
///
/// The controlled processes are suspended the first time the ALPS process
/// runs and become eligible at its first quantum, exactly as in §2.2.
pub fn spawn_alps(
    sim: &mut Sim,
    name: impl Into<String>,
    cfg: AlpsConfig,
    cost: CostModel,
    procs: &[(Pid, u64)],
) -> AlpsHandle {
    spawn(sim, name.into(), cfg, cost, procs, &[], None)
}

/// Spawn an ALPS scheduler process controlling `(share, member-list)`
/// groups, each refreshed from its list every `refresh_period`.
pub fn spawn_alps_principals(
    sim: &mut Sim,
    name: impl Into<String>,
    cfg: AlpsConfig,
    cost: CostModel,
    groups: &[(u64, MemberList)],
    refresh_period: Nanos,
) -> AlpsHandle {
    assert!(refresh_period > Nanos::ZERO);
    spawn(
        sim,
        name.into(),
        cfg,
        cost,
        &[],
        groups,
        Some(refresh_period),
    )
}

fn spawn(
    sim: &mut Sim,
    name: String,
    cfg: AlpsConfig,
    cost: CostModel,
    procs: &[(Pid, u64)],
    groups: &[(u64, MemberList)],
    refresh_period: Option<Nanos>,
) -> AlpsHandle {
    // Cycle instrumentation reads ground truth at cycle boundaries (§3.1),
    // independent of the visible-accounting mode the algorithm sees.
    let mut engine = Engine::new(cfg, Instrumentation::Exact);
    for &(pid, share) in procs {
        engine.add_member(pid, share, sim.proc(pid).unwrap().cputime());
    }
    let groups = groups
        .iter()
        .map(|(share, members)| (engine.add_principal(*share), Rc::clone(members)))
        .collect();
    let shared = Rc::new(RefCell::new(Shared {
        engine,
        groups,
        refreshes: 0,
    }));
    let behavior = AlpsBehavior {
        shared: Rc::clone(&shared),
        cost,
        refresh_period,
        next_refresh: Nanos::ZERO,
        phase: Phase::Init,
        name: if refresh_period.is_some() {
            "alps-principal"
        } else {
            "alps"
        },
    };
    let pid = sim.spawn(name, Box::new(behavior));
    AlpsHandle { pid, shared }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alps_metrics::mean_rms_relative_error_pct;
    use kernsim::{ComputeBound, SimConfig};

    fn q_ms(ms: u64) -> AlpsConfig {
        AlpsConfig::new(Nanos::from_millis(ms)).with_cycle_log(true)
    }

    #[test]
    fn alps_enforces_one_to_three_split() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.spawn("a", Box::new(ComputeBound));
        let b = sim.spawn("b", Box::new(ComputeBound));
        let alps = spawn_alps(
            &mut sim,
            "alps",
            q_ms(10),
            CostModel::paper(),
            &[(a, 1), (b, 3)],
        );
        sim.run_until(Nanos::from_secs(30));
        let (ca, cb) = (
            sim.proc(a).unwrap().cputime().as_secs_f64(),
            sim.proc(b).unwrap().cputime().as_secs_f64(),
        );
        let ratio = cb / ca;
        assert!(
            (ratio - 3.0).abs() < 0.15,
            "expected 3:1, got {cb:.2}:{ca:.2} = {ratio:.3}"
        );
        assert!(alps.cycle_count() > 100, "cycles: {}", alps.cycle_count());
        // Mean RMS relative error should be in the paper's low range.
        let err = mean_rms_relative_error_pct(&alps.cycles(), 5);
        assert!(err < 6.0, "error {err}%");
    }

    #[test]
    fn overhead_is_under_one_percent_for_small_workload() {
        let mut sim = Sim::new(SimConfig::default());
        let procs: Vec<(Pid, u64)> = (0..5)
            .map(|i| (sim.spawn(format!("w{i}"), Box::new(ComputeBound)), 5u64))
            .collect();
        let alps = spawn_alps(&mut sim, "alps", q_ms(10), CostModel::paper(), &procs);
        let dur = Nanos::from_secs(60);
        sim.run_until(dur);
        let overhead = 100.0 * sim.proc(alps.pid).unwrap().cputime().as_f64() / dur.as_f64();
        assert!(overhead < 1.0, "overhead {overhead}%");
        assert!(overhead > 0.005, "suspiciously free: {overhead}%");
    }

    #[test]
    fn lazy_measurement_reduces_work() {
        let run = |lazy: bool| {
            let mut sim = Sim::new(SimConfig::default());
            let procs: Vec<(Pid, u64)> = (0..10)
                .map(|i| (sim.spawn(format!("w{i}"), Box::new(ComputeBound)), 10u64))
                .collect();
            let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_lazy_measurement(lazy);
            let alps = spawn_alps(&mut sim, "alps", cfg, CostModel::paper(), &procs);
            sim.run_until(Nanos::from_secs(30));
            (
                alps.stats().measurements,
                sim.proc(alps.pid).unwrap().cputime(),
            )
        };
        let (m_lazy, cpu_lazy) = run(true);
        let (m_eager, cpu_eager) = run(false);
        assert!(
            m_lazy * 2 < m_eager,
            "optimization should at least halve measurements: {m_lazy} vs {m_eager}"
        );
        assert!(
            cpu_lazy < cpu_eager,
            "and reduce CPU: {cpu_lazy:?} vs {cpu_eager:?}"
        );
    }

    #[test]
    fn exited_process_is_reaped() {
        use workloads::FiniteJob;
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.spawn("short", Box::new(FiniteJob::new(Nanos::from_millis(200))));
        let b = sim.spawn("long", Box::new(ComputeBound));
        let alps = spawn_alps(
            &mut sim,
            "alps",
            q_ms(10),
            CostModel::paper(),
            &[(a, 1), (b, 1)],
        );
        sim.run_until(Nanos::from_secs(5));
        assert!(sim.proc(a).unwrap().is_exited());
        assert_eq!(alps.proc_ids().len(), 1, "exited process deregistered");
        assert!(alps.stats().reaped >= 1);
        // b keeps running under ALPS control at full speed.
        assert!(sim.proc(b).unwrap().cputime() > Nanos::from_secs(4));
    }

    #[test]
    fn cycle_records_are_internally_consistent() {
        let mut sim = Sim::new(SimConfig::default());
        let procs: Vec<(Pid, u64)> = [1u64, 2, 3]
            .iter()
            .map(|&s| (sim.spawn(format!("w{s}"), Box::new(ComputeBound)), s))
            .collect();
        let alps = spawn_alps(&mut sim, "alps", q_ms(10), CostModel::paper(), &procs);
        sim.run_until(Nanos::from_secs(10));
        let cycles = alps.cycles();
        assert!(cycles.len() > 50);
        let mut last_at = Nanos::ZERO;
        for (i, rec) in cycles.iter().enumerate() {
            assert_eq!(rec.index, i as u64, "indices are dense");
            assert!(rec.completed_at >= last_at, "timestamps monotone");
            last_at = rec.completed_at;
            assert_eq!(rec.total_shares, 6);
            let sum: Nanos = rec.entries.iter().map(|e| e.consumed).sum();
            assert_eq!(sum, rec.total_consumed, "entries sum to the total");
            assert_eq!(rec.entries.len(), 3);
        }
        // Steady-state cycles carry ~S*Q = 60ms of consumption.
        let mid = &cycles[cycles.len() / 2];
        let total = mid.total_consumed.as_millis_f64();
        assert!((total - 60.0).abs() < 15.0, "cycle total {total}ms");
    }

    #[test]
    fn missed_quanta_are_counted_not_replayed() {
        // Overload: 80 equal-share procs at a 10ms quantum is past the
        // breakdown threshold; the runner must service fewer quanta than
        // wall time implies (coalescing), never more.
        let mut sim = Sim::new(SimConfig {
            seed: 3,
            spawn_estcpu_jitter: 8.0,
            ..SimConfig::default()
        });
        let procs: Vec<(Pid, u64)> = (0..80)
            .map(|i| (sim.spawn(format!("w{i}"), Box::new(ComputeBound)), 5u64))
            .collect();
        let alps = spawn_alps(
            &mut sim,
            "alps",
            AlpsConfig::new(Nanos::from_millis(10)),
            CostModel::paper(),
            &procs,
        );
        let horizon = Nanos::from_secs(60);
        sim.run_until(horizon);
        let expected = horizon.as_nanos() / Nanos::from_millis(10).as_nanos();
        let serviced = alps.stats().quanta;
        assert!(serviced <= expected, "{serviced} > {expected}");
        assert!(
            (serviced as f64) < 0.9 * expected as f64,
            "expected heavy quanta loss past breakdown: {serviced}/{expected}"
        );
        // The algorithm's invocation counter equals serviced quanta (one
        // begin_quantum per serviced timer, missed fires coalesced).
        assert_eq!(alps.invocations(), serviced);
        // Past breakdown, the engine's §4.2 overrun detector must fire.
        assert!(alps.stats().overruns > 0);
    }

    #[test]
    fn controlled_procs_start_stopped_then_resume() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.spawn("a", Box::new(ComputeBound));
        let _alps = spawn_alps(&mut sim, "alps", q_ms(10), CostModel::paper(), &[(a, 1)]);
        // Before the first quantum the process must be stopped.
        sim.run_until(Nanos::from_millis(5));
        assert!(sim.proc(a).unwrap().is_stopped());
        // After the first quantum it must be running again.
        sim.run_until(Nanos::from_millis(40));
        assert!(!sim.proc(a).unwrap().is_stopped());
        assert!(sim.proc(a).unwrap().cputime() > Nanos::ZERO);
    }

    #[test]
    fn principals_get_proportional_cpu() {
        let mut sim = Sim::new(SimConfig::default());
        // Two "users" with two compute-bound processes each, shares 1:3.
        let mk_group = |sim: &mut Sim, tag: &str| -> MemberList {
            let pids: Vec<Pid> = (0..2)
                .map(|i| sim.spawn(format!("{tag}{i}"), Box::new(ComputeBound)))
                .collect();
            Rc::new(RefCell::new(pids))
        };
        let ga = mk_group(&mut sim, "a");
        let gb = mk_group(&mut sim, "b");
        let cfg = AlpsConfig::new(Nanos::from_millis(20));
        let _alps = spawn_alps_principals(
            &mut sim,
            "alps",
            cfg,
            CostModel::paper(),
            &[(1, Rc::clone(&ga)), (3, Rc::clone(&gb))],
            Nanos::SECOND,
        );
        sim.run_until(Nanos::from_secs(40));
        let sum = |g: &MemberList| -> f64 {
            g.borrow()
                .iter()
                .map(|&p| sim.proc(p).unwrap().cputime().as_secs_f64())
                .sum()
        };
        let (ca, cb) = (sum(&ga), sum(&gb));
        let ratio = cb / ca;
        assert!((ratio - 3.0).abs() < 0.25, "expected 3:1, got {ratio:.3}");
    }

    #[test]
    fn set_share_mid_run_retargets_the_split() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.spawn("a", Box::new(ComputeBound));
        let b = sim.spawn("b", Box::new(ComputeBound));
        let alps = spawn_alps(
            &mut sim,
            "alps",
            q_ms(10),
            CostModel::paper(),
            &[(a, 1), (b, 1)],
        );
        let cpu = |sim: &Sim| [a, b].map(|p| sim.proc(p).unwrap().cputime().as_secs_f64());
        sim.run_until(Nanos::from_secs(10));
        let before = cpu(&sim);
        let even = before[0] / before[1];
        assert!((even - 1.0).abs() < 0.25, "expected 1:1, got {even:.3}");
        // Raise `a` to 3 and measure only the window after the change.
        alps.set_share(alps.proc_ids()[0], 3).unwrap();
        sim.run_until(Nanos::from_secs(40));
        let after = cpu(&sim);
        let ratio = (after[0] - before[0]) / (after[1] - before[1]);
        assert!((ratio - 3.0).abs() < 0.25, "expected 3:1, got {ratio:.3}");
    }

    #[test]
    fn exited_members_are_skipped_without_charge() {
        use workloads::FiniteJob;
        let mut sim = Sim::new(SimConfig::default());
        let short = sim.spawn("short", Box::new(FiniteJob::new(Nanos::from_millis(100))));
        let long = sim.spawn("long", Box::new(ComputeBound));
        let other = sim.spawn("other", Box::new(ComputeBound));
        let ga: MemberList = Rc::new(RefCell::new(vec![short, long]));
        let gb: MemberList = Rc::new(RefCell::new(vec![other]));
        let cfg = AlpsConfig::new(Nanos::from_millis(10));
        let alps = spawn_alps_principals(
            &mut sim,
            "alps",
            cfg,
            CostModel::paper(),
            &[(1, Rc::clone(&ga)), (1, Rc::clone(&gb))],
            Nanos::SECOND,
        );
        sim.run_until(Nanos::from_secs(10));
        assert!(sim.proc(short).unwrap().is_exited());
        // Group totals still split ~1:1 after the exit (the refresh drops
        // the dead member; the live one inherits the group's share).
        let ca =
            (sim.proc(short).unwrap().cputime() + sim.proc(long).unwrap().cputime()).as_secs_f64();
        let cb = sim.proc(other).unwrap().cputime().as_secs_f64();
        assert!((ca / cb - 1.0).abs() < 0.15, "split {ca:.2}:{cb:.2}");
        assert!(alps.refreshes() >= 9);
    }

    #[test]
    fn refresh_scan_is_charged_as_cpu() {
        // Identical workloads, one with a 100ms refresh and one with a 10s
        // refresh: the frequent scanner must burn measurably more CPU.
        let run = |refresh: Nanos| {
            let mut sim = Sim::new(SimConfig::default());
            let members: Vec<Pid> = (0..60)
                .map(|i| sim.spawn(format!("w{i}"), Box::new(ComputeBound)))
                .collect();
            let g: MemberList = Rc::new(RefCell::new(members));
            let g2: MemberList = Rc::new(RefCell::new(Vec::new()));
            let alps = spawn_alps_principals(
                &mut sim,
                "alps",
                AlpsConfig::new(Nanos::from_millis(100)),
                CostModel::paper(),
                &[(1, g), (1, g2)],
                refresh,
            );
            sim.run_until(Nanos::from_secs(30));
            sim.proc(alps.pid).unwrap().cputime()
        };
        let frequent = run(Nanos::from_millis(100));
        let rare = run(Nanos::from_secs(10));
        assert!(
            frequent > rare + Nanos::from_millis(5),
            "frequent {frequent} vs rare {rare}"
        );
    }

    #[test]
    fn membership_change_is_picked_up_at_refresh() {
        let mut sim = Sim::new(SimConfig::default());
        let a0 = sim.spawn("a0", Box::new(ComputeBound));
        let b0 = sim.spawn("b0", Box::new(ComputeBound));
        let ga: MemberList = Rc::new(RefCell::new(vec![a0]));
        let gb: MemberList = Rc::new(RefCell::new(vec![b0]));
        let cfg = AlpsConfig::new(Nanos::from_millis(10));
        let alps = spawn_alps_principals(
            &mut sim,
            "alps",
            cfg,
            CostModel::paper(),
            &[(1, Rc::clone(&ga)), (1, Rc::clone(&gb))],
            Nanos::SECOND,
        );
        sim.run_until(Nanos::from_secs(5));
        // A new process joins user A's pool mid-run.
        let a1 = sim.spawn("a1", Box::new(ComputeBound));
        ga.borrow_mut().push(a1);
        let refreshes_before = alps.refreshes();
        sim.run_until(Nanos::from_secs(15));
        assert!(alps.refreshes() > refreshes_before);
        // Group totals still split 1:1 (a0+a1 vs b0) after the join.
        let ca = sim.proc(a0).unwrap().cputime() + sim.proc(a1).unwrap().cputime();
        let cb = sim.proc(b0).unwrap().cputime();
        let ratio = ca.as_secs_f64() / cb.as_secs_f64();
        assert!((ratio - 1.0).abs() < 0.15, "group split {ratio}");
        // And the joiner really did run.
        assert!(sim.proc(a1).unwrap().cputime() > Nanos::from_millis(500));
    }
}
