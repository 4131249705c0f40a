//! SLO-driven share feedback under open-loop overload.
//!
//! The paper's §5 web experiment assigns *static* shares per user; this
//! extension study closes the loop: latency-sensitive tenants receive
//! open-loop traffic ([`workloads::OpenLoop`]), a best-effort tenant
//! keeps the machine saturated, and an [`SloController`] observes each
//! tenant's windowed p95 every control period and nudges its ALPS share
//! toward its SLO target via
//! [`AlpsHandle::set_share`](crate::AlpsHandle::set_share).
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

use alps_core::{AlpsConfig, Nanos, ProcId};
use kernsim::{Sim, SimConfig};
use serde::{Deserialize, Serialize};
use workloads::{Arrivals, BestEffort, OpenLoop, Tenant, Workload};

use crate::cost::CostModel;
use crate::runner::{spawn_alps_principals, MemberList};

// --- the controller ----------------------------------------------------

/// Per-tenant controller registration: which principal, what target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// The principal whose share the controller may move.
    pub id: ProcId,
    /// The p95 latency target, in milliseconds.
    pub p95_target_ms: f64,
}

/// One share change the controller wants applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShareAdjustment {
    /// The principal to adjust.
    pub id: ProcId,
    /// The new share.
    pub share: u64,
}

/// Tuning knobs for [`SloController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloConfig {
    /// Proportional gain on the relative error. Higher converges faster
    /// but overshoots; 0.5 is a sane default for per-second control
    /// periods.
    pub gain: f64,
    /// Relative errors within `±deadband` produce no adjustment
    /// (hysteresis). Must be `>= 0`.
    pub deadband: f64,
    /// Largest multiplicative change per period (`factor` is clamped to
    /// `[1/max_step, max_step]`). Must be `> 1`.
    pub max_step: f64,
    /// Shares never drop below this (a tenant must keep *some* CPU or it
    /// can never generate the samples that would raise it back).
    pub min_share: u64,
    /// Shares never exceed this (bounds one tenant's ability to squeeze
    /// the rest).
    pub max_share: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            gain: 0.5,
            deadband: 0.1,
            max_step: 2.0,
            min_share: 1,
            max_share: 64,
        }
    }
}

/// The proportional SLO controller: close the loop from observed tail
/// latency back to ALPS shares.
///
/// ALPS apportions CPU *time*; services care about *latency*. The paper's
/// motivating web-hosting scenario (§5) assigns static shares per user,
/// which guarantees a CPU fraction but not a response-time target. The
/// controller bridges that gap at the application level, in the same
/// spirit as ALPS itself — no kernel help, just observation and
/// feedback: each control period it compares every tenant's observed p95
/// latency against its SLO target and nudges the tenant's share
/// multiplicatively toward the target.
///
/// The law is deliberately simple (proportional, multiplicative,
/// clamped):
///
/// ```text
/// error  = (p95 - target) / target          // >0 ⇒ missing the SLO
/// factor = clamp(1 + gain·error, 1/max_step, max_step)
/// share' = clamp(round(share · factor), min_share, max_share)
/// ```
///
/// with a *deadband*: errors within `±deadband` produce no change, so the
/// controller is quiet at equilibrium (hysteresis against share
/// oscillation). A tenant with no samples in the window (starved into
/// silence) is treated as infinitely late and pushed up by the full
/// `max_step`.
///
/// The controller is pure: it computes [`ShareAdjustment`]s from
/// observations, and [`run_slo`] applies each through
/// [`AlpsHandle::set_share`](crate::AlpsHandle::set_share) and counts it.
#[derive(Debug, Clone)]
pub struct SloController {
    cfg: SloConfig,
    targets: Vec<SloTarget>,
}

impl SloController {
    /// A controller over the given tenants.
    pub fn new(cfg: SloConfig, targets: Vec<SloTarget>) -> Self {
        assert!(cfg.gain > 0.0, "gain must be positive");
        assert!(cfg.deadband >= 0.0, "deadband must be non-negative");
        assert!(cfg.max_step > 1.0, "max_step must exceed 1");
        assert!(cfg.min_share >= 1, "min_share must be at least 1");
        assert!(cfg.max_share >= cfg.min_share, "max_share < min_share");
        SloController { cfg, targets }
    }

    /// One control period: fold each tenant's observed window p95 (in
    /// milliseconds; `None` = no samples, treated as unboundedly late)
    /// and current share into the adjustments to apply. Observations are
    /// matched to targets by [`ProcId`]; tenants without an observation
    /// entry are left alone. Returns only *actual* changes — an empty
    /// vector means the controller is in its deadband everywhere.
    pub fn control(&self, observed: &[(ProcId, Option<f64>, u64)]) -> Vec<ShareAdjustment> {
        let mut out = Vec::new();
        for t in &self.targets {
            let Some(&(_, p95_ms, share)) = observed.iter().find(|&&(id, _, _)| id == t.id) else {
                continue;
            };
            let factor = match p95_ms {
                // Starved into silence: no completions at all this
                // window. Push up as hard as allowed.
                None => self.cfg.max_step,
                Some(p95) => {
                    let error = (p95 - t.p95_target_ms) / t.p95_target_ms;
                    if error.abs() <= self.cfg.deadband {
                        continue;
                    }
                    (1.0 + self.cfg.gain * error).clamp(1.0 / self.cfg.max_step, self.cfg.max_step)
                }
            };
            let raw = (share as f64 * factor).round() as u64;
            let new = raw.clamp(self.cfg.min_share, self.cfg.max_share);
            if new != share {
                out.push(ShareAdjustment {
                    id: t.id,
                    share: new,
                });
            }
        }
        out
    }
}

// --- the experiment ----------------------------------------------------

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
    /// Whether the controller runs at all. Off = static shares, and the
    /// engine is never asked to change one.
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
    /// Share changes the controller made. [`SloController::control`]
    /// returns only real changes, so this is also the number of times a
    /// tenant's share moved.
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
    let mut share_adjustments = 0;
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
                alps.set_share(adj.id, adj.share)
                    .expect("principal ids never go stale");
                share_adjustments += 1;
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
        share_adjustments,
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
    use alps_core::AlpsScheduler;

    fn two_tenants() -> (ProcId, ProcId, SloController) {
        let mut s = AlpsScheduler::new(AlpsConfig::new(Nanos::from_millis(10)));
        let a = s.add_process(4, Nanos::ZERO);
        let b = s.add_process(4, Nanos::ZERO);
        let ctl = SloController::new(
            SloConfig::default(),
            vec![
                SloTarget {
                    id: a,
                    p95_target_ms: 100.0,
                },
                SloTarget {
                    id: b,
                    p95_target_ms: 100.0,
                },
            ],
        );
        (a, b, ctl)
    }

    #[test]
    fn within_deadband_is_quiet() {
        let (a, b, ctl) = two_tenants();
        let adj = ctl.control(&[(a, Some(105.0), 4), (b, Some(95.0), 4)]);
        assert!(adj.is_empty(), "±10% deadband, got {adj:?}");
    }

    #[test]
    fn missing_the_slo_raises_the_share() {
        let (a, b, ctl) = two_tenants();
        // 100% over target with gain 0.5: factor 1.5, share 4 -> 6.
        let adj = ctl.control(&[(a, Some(200.0), 4), (b, Some(100.0), 4)]);
        assert_eq!(
            adj,
            vec![ShareAdjustment { id: a, share: 6 }],
            "only the violator moves"
        );
    }

    #[test]
    fn beating_the_slo_lowers_the_share() {
        let (a, _, ctl) = two_tenants();
        // 60% under target: factor 1 - 0.3 = 0.7, share 10 -> 7.
        let adj = ctl.control(&[(a, Some(40.0), 10)]);
        assert_eq!(adj, vec![ShareAdjustment { id: a, share: 7 }]);
    }

    #[test]
    fn step_and_range_clamps_hold() {
        let (a, _, ctl) = two_tenants();
        // Error 100x over: raw factor 1 + 0.5*99 huge, clamped to
        // max_step 2.0; share 40 -> 64 (max_share), not 80.
        let adj = ctl.control(&[(a, Some(10_000.0), 40)]);
        assert_eq!(adj, vec![ShareAdjustment { id: a, share: 64 }]);
        // Far under target at the floor: clamped to min_share.
        let adj = ctl.control(&[(a, Some(0.001), 2)]);
        assert_eq!(adj, vec![ShareAdjustment { id: a, share: 1 }]);
    }

    #[test]
    fn starved_tenant_is_pushed_up_hard() {
        let (a, _, ctl) = two_tenants();
        let adj = ctl.control(&[(a, None, 3)]);
        assert_eq!(adj, vec![ShareAdjustment { id: a, share: 6 }]);
    }

    #[test]
    fn unobserved_tenants_are_left_alone() {
        let (a, _, ctl) = two_tenants();
        let adj = ctl.control(&[(a, Some(100.0), 4)]);
        assert!(adj.is_empty());
    }

    #[test]
    fn no_op_adjustments_are_suppressed() {
        let (a, _, ctl) = two_tenants();
        // Just outside the deadband but rounding lands on the same share.
        let adj = ctl.control(&[(a, Some(112.0), 1)]);
        assert!(adj.is_empty(), "rounded back to 1: {adj:?}");
    }

    /// `share_adjustments` counts exactly the moves the trajectories
    /// show: summed over tenants, the changes along
    /// `[initial_share, share_trajectory…]`.
    #[test]
    fn share_adjustments_match_the_share_trajectories() {
        for enabled in [true, false] {
            let mut p = SloParams::default().quick();
            p.controller_enabled = enabled;
            let r = run_slo(&p);
            let moves: u64 = r
                .tenants
                .iter()
                .map(|t| {
                    let path: Vec<u64> = std::iter::once(t.initial_share)
                        .chain(t.share_trajectory.iter().copied())
                        .collect();
                    path.windows(2).filter(|w| w[0] != w[1]).count() as u64
                })
                .sum();
            assert_eq!(r.share_adjustments, moves, "controller on: {enabled}");
            assert_eq!(moves > 0, enabled, "controller on: {enabled}");
        }
    }

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
