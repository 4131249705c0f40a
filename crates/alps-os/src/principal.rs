//! Principal-mode supervision on real Linux (§5).
//!
//! Schedules *groups* of processes — e.g. all processes of one user — as
//! single resource principals, refreshing each group's membership once per
//! second exactly as the paper's modified ALPS did with `kvm_getprocs`.
//! The per-quantum loop is the generic [`alps_core::Engine`] over an
//! [`OsSubstrate`]; this module adds membership
//! resolution (uid → pids) and the refresh cadence.

use std::time::Duration;

use alps_core::{AlpsConfig, Engine, EventSink, Instrumentation, Nanos, NullSink, ProcId};

use crate::clock;
use crate::error::Result;
use crate::proc;
use crate::signal;
use crate::substrate::OsSubstrate;

/// Where a principal's member pids come from at each refresh.
#[derive(Debug, Clone)]
pub enum Membership {
    /// All processes owned by this uid (the paper's per-user principals).
    Uid(u32),
    /// An explicit pid list, updatable via
    /// [`PrincipalSupervisor::set_members`].
    Pids(Vec<i32>),
}

/// A user-level proportional-share scheduler over process groups.
#[derive(Debug)]
pub struct PrincipalSupervisor {
    engine: Engine<i32>,
    sources: Vec<(ProcId, Membership)>,
    sub: OsSubstrate,
    ns_tick: u64,
    refresh_period: Nanos,
    next_refresh: Nanos,
    next_deadline: Option<Nanos>,
    refreshes: u64,
}

impl PrincipalSupervisor {
    /// Create with the given quantum configuration and membership refresh
    /// period (the paper used one second).
    pub fn new(cfg: AlpsConfig, refresh_period: Duration) -> Self {
        PrincipalSupervisor {
            // Group consumption is attributed per principal at measurement
            // granularity, as the paper's modified ALPS logged it.
            engine: Engine::new(cfg, Instrumentation::Measured),
            sources: Vec::new(),
            sub: OsSubstrate::new(),
            ns_tick: proc::ns_per_tick(),
            refresh_period: refresh_period.into(),
            next_refresh: Nanos::ZERO,
            next_deadline: None,
            refreshes: 0,
        }
    }

    /// Register a principal. Its current members are discovered and
    /// suspended at the first refresh (which happens on the next quantum).
    pub fn add_principal(&mut self, share: u64, membership: Membership) -> ProcId {
        let id = self.engine.add_principal(share);
        self.sources.push((id, membership));
        id
    }

    /// Replace the explicit pid list of a [`Membership::Pids`] principal.
    pub fn set_members(&mut self, id: ProcId, pids: Vec<i32>) {
        if let Some((_, m)) = self.sources.iter_mut().find(|(i, _)| *i == id) {
            *m = Membership::Pids(pids);
        }
    }

    /// Quanta serviced so far.
    pub fn quanta(&self) -> u64 {
        self.engine.stats().quanta
    }

    /// Membership refreshes performed so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Current members of a principal.
    pub fn members(&self, id: ProcId) -> Option<Vec<i32>> {
        self.engine.members(id)
    }

    fn resolve(&self, membership: &Membership) -> Vec<i32> {
        match membership {
            Membership::Uid(uid) => proc::pids_of_uid(*uid).unwrap_or_default(),
            Membership::Pids(pids) => pids.clone(),
        }
    }

    fn refresh(&mut self, sink: &mut dyn EventSink<i32>) -> Result<()> {
        self.refreshes += 1;
        let me = std::process::id() as i32;
        let sources: Vec<(ProcId, Membership)> = self.sources.clone();
        for (id, membership) in sources {
            let mut current = Vec::new();
            for pid in self.resolve(&membership) {
                if pid == me {
                    continue; // never self-schedule
                }
                if let Ok(stat) = proc::read_stat(pid, self.ns_tick) {
                    if !stat.dead() {
                        current.push((pid, stat.cpu_time));
                    }
                }
            }
            if let Some(change) = self.engine.set_membership(id, &current) {
                // Leavers may well be alive (dropped from the list, or
                // changed owner): no read will ever find them gone.
                for &pid in &change.removed {
                    self.sub.forget(pid);
                }
                self.engine
                    .apply_signals(&mut self.sub, &change.signals, sink)?;
            }
        }
        Ok(())
    }

    /// Sleep to the next quantum boundary and run one invocation
    /// (refreshing membership first if the refresh period has elapsed).
    pub fn run_quantum(&mut self) -> Result<()> {
        self.run_quantum_with(&mut NullSink)
    }

    /// [`run_quantum`](PrincipalSupervisor::run_quantum) with an event
    /// sink observing every measurement, signal, and cycle boundary.
    pub fn run_quantum_with(&mut self, sink: &mut dyn EventSink<i32>) -> Result<()> {
        let q = self.engine.quantum();
        let deadline = match self.next_deadline {
            Some(d) => d,
            None => clock::now() + q,
        };
        clock::sleep_until(deadline);
        let now = clock::now();
        let mut next = deadline + q;
        if now >= next {
            let behind = (now - deadline).as_nanos() / q.as_nanos();
            next = deadline + q * (behind + 1);
        }
        self.next_deadline = Some(next);

        if now >= self.next_refresh {
            self.refresh(sink)?;
            self.next_refresh = now + self.refresh_period;
        }

        self.engine.run_quantum(&mut self.sub, sink)?;
        Ok(())
    }

    /// Run for (at least) the given wall-clock duration.
    pub fn run_for(&mut self, duration: Duration) -> Result<()> {
        let end = clock::now() + Nanos::from(duration);
        while clock::now() < end {
            self.run_quantum()?;
        }
        Ok(())
    }

    /// Resume every member of every principal.
    pub fn release_all(&mut self) {
        let ids: Vec<ProcId> = self.sources.iter().map(|&(id, _)| id).collect();
        for id in ids {
            for pid in self.engine.members(id).unwrap_or_default() {
                let _ = signal::sigcont(pid);
            }
        }
    }
}

impl Drop for PrincipalSupervisor {
    fn drop(&mut self) {
        self.release_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::children::SpinnerPool;

    fn cpu_of(pid: i32) -> Nanos {
        proc::read_stat(pid, proc::ns_per_tick())
            .map(|s| s.cpu_time)
            .unwrap_or(Nanos::ZERO)
    }

    #[test]
    fn two_pid_groups_split_one_to_two() {
        let pool_a = SpinnerPool::spawn(2).unwrap();
        let pool_b = SpinnerPool::spawn(2).unwrap();
        let cfg = AlpsConfig::new(Nanos::from_millis(20));
        let mut sup = PrincipalSupervisor::new(cfg, Duration::from_secs(1));
        let base: Nanos = pool_a
            .pids()
            .iter()
            .chain(pool_b.pids().iter())
            .map(|&p| cpu_of(p))
            .sum();
        let _a = sup.add_principal(1, Membership::Pids(pool_a.pids()));
        let _b = sup.add_principal(2, Membership::Pids(pool_b.pids()));
        sup.run_for(Duration::from_secs(4)).unwrap();
        sup.release_all();
        let ca: f64 = pool_a.pids().iter().map(|&p| cpu_of(p).as_secs_f64()).sum();
        let cb: f64 = pool_b.pids().iter().map(|&p| cpu_of(p).as_secs_f64()).sum();
        let _ = base;
        assert!(ca > 0.0 && cb > 0.0);
        let ratio = cb / ca;
        assert!(
            (1.2..=3.2).contains(&ratio),
            "expected ~2.0 between groups, got {cb:.2}/{ca:.2} = {ratio:.2}"
        );
        assert!(sup.refreshes() >= 1);
    }

    #[test]
    fn membership_update_is_applied() {
        let pool = SpinnerPool::spawn(2).unwrap();
        let pids = pool.pids();
        let cfg = AlpsConfig::new(Nanos::from_millis(10));
        let mut sup = PrincipalSupervisor::new(cfg, Duration::from_millis(100));
        let a = sup.add_principal(1, Membership::Pids(vec![pids[0]]));
        sup.run_for(Duration::from_millis(300)).unwrap();
        assert_eq!(sup.members(a), Some(vec![pids[0]]));
        sup.set_members(a, pids.clone());
        sup.run_for(Duration::from_millis(300)).unwrap();
        let mut got = sup.members(a).unwrap();
        got.sort_unstable();
        let mut want = pids.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn a_live_pid_dropped_from_the_list_is_forgotten_at_the_next_refresh() {
        let pool = SpinnerPool::spawn_sleepers(2).unwrap();
        let pids = pool.pids();
        let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_lazy_measurement(false);
        let mut sup = PrincipalSupervisor::new(cfg, Duration::from_millis(50));
        let a = sup.add_principal(1, Membership::Pids(pids.clone()));
        // Descriptors are opened by the first reading of each member.
        for _ in 0..100 {
            sup.run_quantum().unwrap();
            if sup.sub.held() == 2 {
                break;
            }
        }
        assert_eq!(sup.sub.held(), 2);
        sup.set_members(a, vec![pids[0]]);
        let refreshes = sup.refreshes();
        while sup.refreshes() == refreshes {
            sup.run_quantum().unwrap();
        }
        assert_eq!(sup.members(a), Some(vec![pids[0]]));
        assert!(crate::signal::alive(pids[1]), "the dropped pid lives on");
        assert_eq!(sup.sub.held(), 1);
    }
}
