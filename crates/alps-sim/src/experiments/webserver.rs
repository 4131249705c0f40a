//! The §5 shared-web-server experiment.
//!
//! Three bulletin-board sites on one machine, each a pool of worker
//! processes (see [`workloads::webserver`]). First measure throughput under
//! the kernel scheduler alone (paper: {29, 30, 40} req/s — roughly even);
//! then under one ALPS with per-*user* principals, shares {1, 2, 3}, a
//! 100 ms quantum, and 1-second membership refresh (paper: {18, 35, 53}).

use std::rc::Rc;

use alps_core::{AlpsConfig, Nanos};
use kernsim::{Sim, SimConfig};
use serde::{Deserialize, Serialize};
use workloads::{Site, Tenant, Workload};

use crate::cost::CostModel;
use crate::runner::{spawn_alps_principals, MemberList};

/// Parameters of the web-server experiment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WebParams {
    /// Per-site worker pool size (paper: 50).
    pub workers_per_site: usize,
    /// Workers concurrently serving per site (the rest park on accept);
    /// the paper's 325-client load just saturated the CPU, which keeps
    /// the instantaneous active set small.
    pub active_per_site: usize,
    /// Mean CPU per request.
    pub cpu_per_request: Nanos,
    /// Mean database wait per request.
    pub db_wait: Nanos,
    /// ALPS quantum (paper: 100 ms).
    pub quantum: Nanos,
    /// Membership refresh period (paper: 1 s).
    pub refresh: Nanos,
    /// Shares for the three sites.
    pub shares: [u64; 3],
    /// Measurement window (after warm-up).
    pub duration: Nanos,
    /// Warm-up excluded from throughput.
    pub warmup: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WebParams {
    fn default() -> Self {
        WebParams {
            workers_per_site: 50,
            active_per_site: 8,
            cpu_per_request: Nanos::from_millis(10),
            db_wait: Nanos::from_millis(40),
            quantum: Nanos::from_millis(100),
            refresh: Nanos::SECOND,
            shares: [1, 2, 3],
            duration: Nanos::from_secs(60),
            warmup: Nanos::from_secs(5),
            seed: 1,
        }
    }
}

/// Throughputs with and without ALPS.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WebResult {
    /// Requests/second per site under the kernel scheduler alone.
    pub baseline_rps: [f64; 3],
    /// Requests/second per site under ALPS with shares {1,2,3}.
    pub alps_rps: [f64; 3],
    /// ALPS CPU overhead during the controlled run, percent.
    pub overhead_pct: f64,
    /// Each site's fraction of ALPS-run throughput (want ≈ share/6).
    pub alps_fractions: [f64; 3],
    /// Median request latency per site without ALPS, milliseconds.
    pub baseline_p50_ms: [f64; 3],
    /// Median request latency per site under ALPS, milliseconds.
    pub alps_p50_ms: [f64; 3],
    /// 95th-percentile request latency per site under ALPS, milliseconds.
    /// Throttled sites trade latency for the isolation of the others: a
    /// suspended worker holds its in-flight request until its principal is
    /// eligible again.
    pub alps_p95_ms: [f64; 3],
}

fn site_specs(p: &WebParams) -> [Site; 3] {
    let names = ["siteA", "siteB", "siteC"];
    [0u64, 1, 2].map(|i| Site {
        name: names[i as usize].into(),
        workers: p.workers_per_site,
        active: p.active_per_site.min(p.workers_per_site),
        cpu_per_request: p.cpu_per_request,
        db_wait: p.db_wait,
        jitter: 0.3,
        seed: p.seed.wrapping_mul(17).wrapping_add(i),
    })
}

fn measure_throughput(sim: &mut Sim, sites: &[Tenant; 3], p: &WebParams) -> [f64; 3] {
    sim.run_until(sim.now() + p.warmup);
    let base: Vec<u64> = sites.iter().map(|s| s.completed()).collect();
    sim.run_until(sim.now() + p.duration);
    let mut out = [0.0; 3];
    for (i, s) in sites.iter().enumerate() {
        out[i] = Tenant::throughput_rps(s.completed() - base[i], p.duration);
    }
    out
}

/// Run both configurations.
pub fn run_webserver(p: &WebParams) -> WebResult {
    let specs = site_specs(p);

    // Baseline: the kernel scheduler alone.
    let mut sim = Sim::new(SimConfig {
        seed: p.seed,
        spawn_estcpu_jitter: 4.0,
        ..SimConfig::default()
    });
    let sites: [Tenant; 3] = std::array::from_fn(|i| specs[i].spawn(&mut sim));
    let baseline_rps = measure_throughput(&mut sim, &sites, p);
    let warm = 50usize;
    let baseline_p50_ms = std::array::from_fn(|i| {
        sites[i]
            .latency_percentile_ms(0.5, warm)
            .unwrap_or(f64::NAN)
    });

    // Controlled: one ALPS, three user principals.
    let mut sim = Sim::new(SimConfig {
        seed: p.seed,
        spawn_estcpu_jitter: 4.0,
        ..SimConfig::default()
    });
    let sites: [Tenant; 3] = std::array::from_fn(|i| specs[i].spawn(&mut sim));
    let groups: Vec<(u64, MemberList)> = sites
        .iter()
        .zip(p.shares)
        .map(|(site, share)| {
            let members: MemberList = Rc::new(std::cell::RefCell::new(site.members.clone()));
            (share, members)
        })
        .collect();
    let cfg = AlpsConfig::new(p.quantum);
    let alps = spawn_alps_principals(
        &mut sim,
        "alps",
        cfg,
        CostModel::paper(),
        &groups,
        p.refresh,
    );
    let alps_rps = measure_throughput(&mut sim, &sites, p);
    let wall = sim.now();
    let overhead_pct = 100.0 * sim.proc(alps.pid).unwrap().cputime().as_f64() / wall.as_f64();
    let alps_p50_ms = std::array::from_fn(|i| {
        sites[i]
            .latency_percentile_ms(0.5, warm)
            .unwrap_or(f64::NAN)
    });
    let alps_p95_ms = std::array::from_fn(|i| {
        sites[i]
            .latency_percentile_ms(0.95, warm)
            .unwrap_or(f64::NAN)
    });

    let total: f64 = alps_rps.iter().sum();
    let alps_fractions = alps_rps.map(|r| r / total.max(1e-9));
    WebResult {
        baseline_rps,
        alps_rps,
        overhead_pct,
        alps_fractions,
        baseline_p50_ms,
        alps_p50_ms,
        alps_p95_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> WebParams {
        WebParams {
            workers_per_site: 15,
            active_per_site: 6,
            duration: Nanos::from_secs(25),
            warmup: Nanos::from_secs(3),
            ..WebParams::default()
        }
    }

    #[test]
    fn kernel_alone_splits_roughly_evenly() {
        let r = run_webserver(&quick());
        let total: f64 = r.baseline_rps.iter().sum();
        for (i, rps) in r.baseline_rps.iter().enumerate() {
            let frac = rps / total;
            assert!(
                (frac - 1.0 / 3.0).abs() < 0.07,
                "site {i}: baseline fraction {frac}"
            );
        }
    }

    #[test]
    fn alps_imposes_one_two_three_on_throughput() {
        let r = run_webserver(&quick());
        let want = [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0];
        for (i, (&got, &ideal)) in r.alps_fractions.iter().zip(&want).enumerate() {
            assert!(
                (got - ideal).abs() < 0.05,
                "site {i}: fraction {got} want {ideal}"
            );
        }
        // Paper reports ~1% overhead scale for this configuration.
        assert!(r.overhead_pct < 3.0, "overhead {}", r.overhead_pct);
    }

    #[test]
    fn throttled_site_pays_latency_for_isolation() {
        let r = run_webserver(&quick());
        // Site A (1 share) is suspended ~5/6 of the time: its requests
        // stall mid-service, so its latency rises well above the favored
        // site C's.
        assert!(
            r.alps_p50_ms[0] > r.alps_p50_ms[2] * 1.5,
            "throttled p50 {:.1}ms vs favored {:.1}ms",
            r.alps_p50_ms[0],
            r.alps_p50_ms[2]
        );
        // And above its own uncontrolled latency.
        assert!(
            r.alps_p50_ms[0] > r.baseline_p50_ms[0],
            "ALPS p50 {:.1}ms vs baseline {:.1}ms",
            r.alps_p50_ms[0],
            r.baseline_p50_ms[0]
        );
        // Tail latency is finite and ordered by share.
        assert!(r.alps_p95_ms[0] >= r.alps_p95_ms[2]);
    }
}
