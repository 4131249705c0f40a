//! SLO-driven share feedback under open-loop overload.
//!
//! The paper's §5 web experiment assigns *static* shares per user; this
//! extension study closes the loop: latency-sensitive tenants receive
//! open-loop traffic ([`workloads::OpenLoop`]), a best-effort tenant
//! keeps the machine saturated, and an [`alps_core::SloController`]
//! observes each tenant's windowed p95 every control period and nudges
//! its ALPS share toward its SLO target via
//! [`AlpsHandle::adjust_share`](crate::AlpsHandle::adjust_share).
//!
//! The operating regime is deliberate. Each tenant is *overloaded*
//! (offered load exceeds its CPU fraction) with a bounded queue, so its
//! steady-state p95 is pinned by the backlog it can hold:
//! `p95 ≈ queue_cap · cpu_per_request / fraction`. That makes p95 a
//! smooth, monotone function of the tenant's share — exactly the plant a
//! proportional controller can steer — rather than the knife-edge of an
//! underloaded queue, where latency is flat until saturation and then
//! explodes. Excess arrivals are shed at the queue (counted as drops):
//! latency SLOs under overload are met by trading throughput, which is
//! how real load-shedding front ends behave.
//!
//! Determinism: arrival generators are aux processes (never signalled)
//! drawing from indexed streams, so the *offered* traffic is a pure
//! function of the spec; with the controller disabled, shares never move
//! and the whole run is byte-identical to one without any controller
//! plumbing. `run_slo_sweep` fans seeds through `alps-sweep`, so results
//! are byte-identical at any thread count or seed order.

use std::cell::RefCell;
use std::rc::Rc;

use alps_core::{AlpsConfig, Nanos, ProcId, SloConfig, SloController, SloTarget};
use kernsim::{Sim, SimConfig};
use serde::{Deserialize, Serialize};
use workloads::{Arrivals, BestEffort, OpenLoop, Tenant, Workload};

use crate::cost::CostModel;
use crate::runner::{spawn_alps_principals, MemberList};

/// One latency-sensitive tenant of the scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloTenantSpec {
    /// Tenant name.
    pub name: String,
    /// Open-loop arrival process.
    pub arrivals: Arrivals,
    /// Server processes draining the tenant's queue.
    pub servers: usize,
    /// Mean CPU per request.
    pub cpu_per_request: Nanos,
    /// Service-cost jitter.
    pub jitter: f64,
    /// Queue slots; overflow is shed and counted.
    pub queue_cap: usize,
    /// Initial ALPS share.
    pub share: u64,
    /// The p95 latency SLO, milliseconds.
    pub p95_target_ms: f64,
}

/// Parameters of the SLO-feedback experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloParams {
    /// The latency-sensitive tenants.
    pub tenants: Vec<SloTenantSpec>,
    /// Compute-bound processes of the best-effort tenant (keeps the
    /// machine saturated; its share is never adjusted).
    pub hog_procs: usize,
    /// The best-effort tenant's fixed share.
    pub hog_share: u64,
    /// ALPS quantum. Small relative to the targets: a tenant's latency
    /// floor is set by cycle suspension (`(S − share)·Q`).
    pub quantum: Nanos,
    /// Principal membership refresh period.
    pub refresh: Nanos,
    /// SLO control period: how often the controller observes and acts.
    pub control_period: Nanos,
    /// Total run length.
    pub duration: Nanos,
    /// Converged-measurement window at the end of the run (final p95 is
    /// computed over completions inside it).
    pub settle: Nanos,
    /// Whether the controller runs at all. Off = static shares; the
    /// engine's event stream and counters stay untouched.
    pub controller_enabled: bool,
    /// Controller tuning.
    pub slo: SloConfig,
    /// Convergence tolerance on `|p95 − target| / target`.
    pub tolerance: f64,
    /// RNG seed (tenant streams split from it).
    pub seed: u64,
}

impl Default for SloParams {
    fn default() -> Self {
        SloParams {
            tenants: vec![
                // "gold" starts under-provisioned (needs ~20 of share to
                // meet 400 ms; starts at 6) …
                SloTenantSpec {
                    name: "gold".into(),
                    arrivals: Arrivals::Poisson {
                        mean_interarrival: Nanos::from_millis(8),
                    },
                    servers: 4,
                    cpu_per_request: Nanos::from_millis(4),
                    jitter: 0.2,
                    queue_cap: 32,
                    share: 6,
                    p95_target_ms: 400.0,
                },
                // … while "silver" starts over-provisioned (needs ~10;
                // starts at 20). The controller must swap their standing.
                SloTenantSpec {
                    name: "silver".into(),
                    arrivals: Arrivals::Poisson {
                        mean_interarrival: Nanos::from_millis(16),
                    },
                    servers: 4,
                    cpu_per_request: Nanos::from_millis(4),
                    jitter: 0.2,
                    queue_cap: 32,
                    share: 20,
                    p95_target_ms: 800.0,
                },
            ],
            hog_procs: 2,
            hog_share: 32,
            quantum: Nanos::from_millis(2),
            refresh: Nanos::SECOND,
            control_period: Nanos::SECOND,
            duration: Nanos::from_secs(40),
            settle: Nanos::from_secs(10),
            controller_enabled: true,
            slo: SloConfig::default(),
            tolerance: 0.10,
            seed: 1,
        }
    }
}

impl SloParams {
    /// The same scenario at a different seed.
    pub fn with_seed(&self, seed: u64) -> Self {
        SloParams {
            seed,
            ..self.clone()
        }
    }

    /// A shortened run for CI smoke tests.
    pub fn quick(&self) -> Self {
        SloParams {
            duration: Nanos::from_secs(18),
            settle: Nanos::from_secs(6),
            ..self.clone()
        }
    }
}

/// The flash-crowd overload scenario: gold's arrivals alternate between a
/// calm base rate and burst episodes; without feedback its static share
/// is sized for neither.
pub fn overload_params() -> SloParams {
    let mut p = SloParams::default();
    p.tenants[0].arrivals = Arrivals::FlashCrowd {
        base: Nanos::from_millis(12),
        burst: Nanos::from_millis(4),
        normal_len: 200,
        burst_len: 200,
    };
    p.tenants[0].share = 4;
    p.tenants[1].share = 10;
    p.hog_share = 24;
    p
}

/// Final standing of one tenant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// Its SLO target, ms.
    pub target_p95_ms: f64,
    /// p95 over the settle window (exact, from raw samples); `None` if
    /// the tenant completed nothing in the window.
    pub final_p95_ms: Option<f64>,
    /// `(p95 − target) / target`; `None` without samples.
    pub rel_error: Option<f64>,
    /// Share at spawn.
    pub initial_share: u64,
    /// Share when the run ended.
    pub final_share: u64,
    /// Share after each control period, in order.
    pub share_trajectory: Vec<u64>,
    /// Requests completed over the whole run.
    pub completed: u64,
    /// Requests shed at the queue.
    pub dropped: u64,
    /// Completions per second over the whole run.
    pub throughput_rps: f64,
    /// Mean stretch over the settle window.
    pub mean_stretch: f64,
}

/// Result of one SLO-feedback run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloResult {
    /// Per-tenant outcomes, in spec order.
    pub tenants: Vec<TenantOutcome>,
    /// The best-effort tenant's (fixed) share.
    pub hog_share: u64,
    /// Share changes the engine actually applied.
    pub share_adjustments: u64,
    /// Whether the controller ran.
    pub controller_enabled: bool,
    /// All tenants within tolerance of their targets at the end.
    pub converged: bool,
    /// ALPS CPU overhead, percent of wall clock.
    pub overhead_pct: f64,
}

/// Run one SLO-feedback scenario.
pub fn run_slo(p: &SloParams) -> SloResult {
    assert!(!p.tenants.is_empty(), "need at least one tenant");
    assert!(p.control_period > Nanos::ZERO);
    assert!(p.settle <= p.duration);
    let mut sim = Sim::new(SimConfig {
        seed: p.seed,
        spawn_estcpu_jitter: 4.0,
        ..SimConfig::default()
    });

    // Spawn the tenants (each seeded from its own split of the scenario
    // seed) and the best-effort hog.
    let tenants: Vec<Tenant> = p
        .tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            OpenLoop {
                name: spec.name.clone(),
                arrivals: spec.arrivals,
                servers: spec.servers,
                cpu_per_request: spec.cpu_per_request,
                jitter: spec.jitter,
                queue_cap: spec.queue_cap,
                seed: p.seed.wrapping_mul(31).wrapping_add(i as u64),
                ..OpenLoop::default()
            }
            .spawn(&mut sim)
        })
        .collect();
    let _hog = BestEffort {
        name: "besteffort".into(),
        procs: p.hog_procs,
    }
    .spawn(&mut sim);

    // One ALPS over tenant principals + the hog principal, in that order.
    let mut groups: Vec<(u64, MemberList)> = tenants
        .iter()
        .zip(&p.tenants)
        .map(|(t, spec)| {
            (
                spec.share,
                Rc::new(RefCell::new(t.members.clone())) as MemberList,
            )
        })
        .collect();
    groups.push((
        p.hog_share,
        Rc::new(RefCell::new(_hog.members.clone())) as MemberList,
    ));
    let alps = spawn_alps_principals(
        &mut sim,
        "alps",
        AlpsConfig::new(p.quantum),
        CostModel::paper(),
        &groups,
        p.refresh,
    );
    let ids = alps.proc_ids();
    let tenant_ids = &ids[..p.tenants.len()];

    let controller = SloController::new(
        p.slo,
        tenant_ids
            .iter()
            .zip(&p.tenants)
            .map(|(&id, spec)| SloTarget {
                id,
                p95_target_ms: spec.p95_target_ms,
            })
            .collect(),
    );

    // The control loop: run one period, observe each tenant's window,
    // apply the controller's adjustments, repeat.
    let settle_start = p.duration - p.settle;
    let n = p.tenants.len();
    let mut cursors = vec![0usize; n];
    let mut settle_cursor: Vec<Option<usize>> = vec![None; n];
    let mut trajectories: Vec<Vec<u64>> = vec![Vec::new(); n];
    while sim.now() < p.duration {
        let next = (sim.now() + p.control_period).min(p.duration);
        sim.run_until(next);
        if p.controller_enabled {
            let observed: Vec<(ProcId, Option<f64>, u64)> = tenant_ids
                .iter()
                .enumerate()
                .map(|(i, &id)| {
                    let (w, cur) = tenants[i].probe().window_summary(cursors[i]);
                    cursors[i] = cur;
                    let p95 = (w.count > 0).then_some(w.p95_ms);
                    (id, p95, alps.share(id).expect("live principal"))
                })
                .collect();
            for adj in controller.control(&observed) {
                alps.adjust_share(adj.id, adj.share)
                    .expect("principal ids never go stale");
            }
        }
        for (i, &id) in tenant_ids.iter().enumerate() {
            trajectories[i].push(alps.share(id).expect("live principal"));
            if settle_cursor[i].is_none() && sim.now() >= settle_start {
                settle_cursor[i] = Some(tenants[i].completed() as usize);
            }
        }
    }

    let wall = sim.now();
    let overhead_pct = 100.0 * sim.proc(alps.pid).unwrap().cputime().as_f64() / wall.as_f64();
    let outcomes: Vec<TenantOutcome> = tenants
        .iter()
        .zip(&p.tenants)
        .enumerate()
        .map(|(i, (t, spec))| {
            let skip = settle_cursor[i].unwrap_or(0);
            let final_p95_ms = t.probe().percentile_ms(0.95, skip);
            let rel_error = final_p95_ms.map(|v| (v - spec.p95_target_ms) / spec.p95_target_ms);
            TenantOutcome {
                name: spec.name.clone(),
                target_p95_ms: spec.p95_target_ms,
                final_p95_ms,
                rel_error,
                initial_share: spec.share,
                final_share: *trajectories[i].last().unwrap_or(&spec.share),
                share_trajectory: trajectories[i].clone(),
                completed: t.completed(),
                dropped: t.probe().dropped(),
                throughput_rps: t.completed() as f64 / wall.as_secs_f64(),
                mean_stretch: t.latency_summary(skip).mean_stretch,
            }
        })
        .collect();
    let converged = outcomes
        .iter()
        .all(|o| o.rel_error.is_some_and(|e| e.abs() <= p.tolerance));
    SloResult {
        tenants: outcomes,
        hog_share: p.hog_share,
        share_adjustments: alps.stats().share_adjustments,
        controller_enabled: p.controller_enabled,
        converged,
        overhead_pct,
    }
}

/// Fan one scenario across seeds on the sweep pool; results come back in
/// seed order, byte-identical at any thread count.
pub fn run_slo_sweep(p: &SloParams, seeds: &[u64]) -> Vec<(u64, SloResult)> {
    alps_sweep::sweep_map(seeds.to_vec(), |s| (s, run_slo(&p.with_seed(s))))
}

/// The flash-crowd scenario with and without feedback, side by side.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverloadResult {
    /// Static shares (controller off).
    pub without: SloResult,
    /// SLO feedback on.
    pub with_controller: SloResult,
}

/// Run the overload comparison.
pub fn run_overload(p: &SloParams) -> OverloadResult {
    let mut off = p.clone();
    off.controller_enabled = false;
    let mut on = p.clone();
    on.controller_enabled = true;
    OverloadResult {
        without: run_slo(&off),
        with_controller: run_slo(&on),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_converges_each_tenant_to_its_target() {
        let r = run_slo(&SloParams::default());
        assert!(r.share_adjustments > 0, "controller must act");
        for t in &r.tenants {
            let p95 = t.final_p95_ms.expect("tenants complete requests");
            let rel = (p95 - t.target_p95_ms) / t.target_p95_ms;
            assert!(
                rel.abs() <= 0.10,
                "{}: p95 {:.0}ms vs target {:.0}ms ({:+.0}%)",
                t.name,
                p95,
                t.target_p95_ms,
                rel * 100.0
            );
        }
        assert!(r.converged);
        // The misallocation is corrected in both directions: gold rises,
        // silver falls.
        assert!(r.tenants[0].final_share > r.tenants[0].initial_share);
        assert!(r.tenants[1].final_share < r.tenants[1].initial_share);
    }

    #[test]
    fn controller_off_means_static_shares_and_no_engine_traffic() {
        let mut p = SloParams::default().quick();
        p.controller_enabled = false;
        let r = run_slo(&p);
        assert_eq!(r.share_adjustments, 0);
        for t in &r.tenants {
            assert_eq!(t.final_share, t.initial_share);
            assert!(t.share_trajectory.iter().all(|&s| s == t.initial_share));
        }
        // Same params, same bytes: the run is a pure function of the spec.
        let again = run_slo(&p);
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn feedback_beats_static_shares_under_flash_crowds() {
        let r = run_overload(&overload_params());
        let (off, on) = (&r.without.tenants[0], &r.with_controller.tenants[0]);
        let p95_off = off.final_p95_ms.expect("gold completes");
        let p95_on = on.final_p95_ms.expect("gold completes");
        // Static under-provisioned shares leave gold far over target;
        // feedback pulls it near target.
        assert!(
            p95_off > off.target_p95_ms * 1.5,
            "static p95 {p95_off:.0}ms should bust the {:.0}ms target",
            off.target_p95_ms
        );
        assert!(
            p95_on < p95_off,
            "feedback p95 {p95_on:.0}ms vs static {p95_off:.0}ms"
        );
        assert!(r.with_controller.share_adjustments > 0);
        assert_eq!(r.without.share_adjustments, 0);
    }
}
