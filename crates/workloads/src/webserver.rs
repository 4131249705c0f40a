//! The §5 shared-web-server workload.
//!
//! The paper hosts three instances of the RUBBoS bulletin-board site
//! (Apache + PHP + MySQL) on one machine, each instance running as a
//! different user with a pool of up to 50 worker processes, driven by 325
//! closed-loop clients per site — enough to saturate the server, whose
//! *CPU is the bottleneck* (established by Amza et al., the paper's refs
//! [1, 2]). We model exactly that regime: each worker process serves
//! requests back-to-back, a request costing some CPU on the web server
//! (PHP execution) followed by a blocking wait (the database round trip).
//! Because the client population saturates the pools, a worker always has
//! a next request — the closed-loop clients need not be simulated
//! individually.
//!
//! [`Site`] is the spec; [`Site::spawn`] (the [`Workload`] impl) hands
//! back a [`Tenant`] whose probe counts completions and records
//! per-request latency. Request costs follow the crate's
//! stream-splitting rule: request *k* of a site draws its CPU and DB
//! jitter from `stream(seed, STREAM_CPU|STREAM_DB, k)` against a
//! site-wide request counter — never from a per-worker RNG advanced in
//! service order, which would make costs depend on scheduling and on
//! which co-tenants exist.

use std::cell::Cell;
use std::rc::Rc;

use alps_core::Nanos;
use kernsim::{Behavior, Sim, SimCtl, Step};

use crate::workload::{jitter_factor, stream, LatencyProbe, Tenant, Workload};

/// Stream id for request CPU costs.
pub const STREAM_CPU: u64 = 0x42;
/// Stream id for request blocking (I/O) costs.
pub const STREAM_DB: u64 = 0x43;

/// One hosted site: the spec the §5 experiments spawn per user.
#[derive(Debug, Clone)]
pub struct Site {
    /// Site name (e.g. the user account it runs as).
    pub name: String,
    /// Worker processes in the pool (the paper's Apache `prefork` limit
    /// was 50 per site). All of them exist and are visible to ALPS's
    /// membership scans.
    pub workers: usize,
    /// Workers concurrently *serving* a request. The paper's client count
    /// (325/site) was tuned to just saturate the server, so at any instant
    /// only a handful of each pool's workers hold the CPU or a database
    /// wait; the rest sit blocked on accept. Must be <= `workers`.
    pub active: usize,
    /// Mean CPU cost of one request on the web server (PHP execution).
    /// Calibrated to ~10 ms so a 2.2 GHz-class machine saturates around
    /// 100 requests/s — the paper's observed aggregate.
    pub cpu_per_request: Nanos,
    /// Mean blocking time per request (database round trip).
    pub db_wait: Nanos,
    /// Multiplicative jitter applied to each cost, in `[1-j, 1+j]`.
    pub jitter: f64,
    /// RNG seed for this site's request cost streams.
    pub seed: u64,
}

impl Default for Site {
    fn default() -> Self {
        Site {
            name: "site".into(),
            workers: 50,
            active: 8,
            cpu_per_request: Nanos::from_millis(10),
            db_wait: Nanos::from_millis(40),
            jitter: 0.3,
            seed: 1,
        }
    }
}

impl Workload for Site {
    fn spawn(&self, sim: &mut Sim) -> Tenant {
        assert!(self.workers >= 1, "a site needs at least one worker");
        assert!(
            (1..=self.workers).contains(&self.active),
            "active must be in 1..=workers"
        );
        let probe = LatencyProbe::new();
        let next_request = Rc::new(Cell::new(0u64));
        let mut members = Vec::with_capacity(self.workers);
        for w in 0..self.workers {
            let pid = if w < self.active {
                let behavior = Worker {
                    cpu: self.cpu_per_request,
                    db: self.db_wait,
                    jitter: self.jitter,
                    seed: self.seed,
                    next_request: Rc::clone(&next_request),
                    probe: probe.clone(),
                    phase: WorkerPhase::Cpu,
                    request_started: Nanos::ZERO,
                    request_index: 0,
                };
                sim.spawn(format!("{}-w{w}", self.name), Box::new(behavior))
            } else {
                sim.spawn(format!("{}-idle{w}", self.name), Box::new(IdleWorker))
            };
            members.push(pid);
        }
        Tenant::new(self.name.clone(), members, probe)
    }
}

#[derive(Debug, Clone, Copy)]
enum WorkerPhase {
    /// About to execute the request's CPU part.
    Cpu,
    /// CPU done; about to block on the database.
    Db,
    /// Database reply arrived; request complete.
    Done,
}

struct Worker {
    cpu: Nanos,
    db: Nanos,
    jitter: f64,
    seed: u64,
    /// Site-wide request counter: each request claims the next index and
    /// draws its costs from the indexed streams (stream-splitting rule).
    next_request: Rc<Cell<u64>>,
    probe: LatencyProbe,
    phase: WorkerPhase,
    request_started: Nanos,
    request_index: u64,
}

impl Worker {
    fn claim_request(&mut self) {
        self.request_index = self.next_request.get();
        self.next_request.set(self.request_index + 1);
    }

    fn jittered(&self, base: Nanos, stream_id: u64) -> Nanos {
        let k = jitter_factor(
            stream(self.seed, stream_id, self.request_index),
            self.jitter,
        );
        base.mul_f64(k).max(Nanos::from_micros(10))
    }
}

impl Behavior for Worker {
    fn on_ready(&mut self, ctl: &mut SimCtl<'_>) -> Step {
        match self.phase {
            WorkerPhase::Cpu => {
                self.claim_request();
                self.request_started = ctl.now();
                self.phase = WorkerPhase::Db;
                Step::Compute(self.jittered(self.cpu, STREAM_CPU))
            }
            WorkerPhase::Db => {
                self.phase = WorkerPhase::Done;
                Step::Sleep(self.jittered(self.db, STREAM_DB))
            }
            WorkerPhase::Done => {
                let latency = (ctl.now() - self.request_started).as_nanos();
                // Intrinsic demand: the request's own CPU + DB time.
                let service = (self.jittered(self.cpu, STREAM_CPU)
                    + self.jittered(self.db, STREAM_DB))
                .as_nanos();
                self.probe.record(latency, service);
                self.claim_request();
                self.request_started = ctl.now();
                self.phase = WorkerPhase::Db;
                Step::Compute(self.jittered(self.cpu, STREAM_CPU))
            }
        }
    }

    fn name(&self) -> &str {
        "httpd-worker"
    }
}

/// A pool worker with no request to serve: parked on accept(2). It still
/// exists, is owned by the site's user, and is scanned and measured by a
/// principal-mode ALPS — it just never contends for the CPU.
struct IdleWorker;

impl Behavior for IdleWorker {
    fn on_ready(&mut self, _ctl: &mut SimCtl<'_>) -> Step {
        Step::Sleep(Nanos::from_secs(3600))
    }

    fn name(&self) -> &str {
        "httpd-idle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernsim::SimConfig;

    #[test]
    fn saturated_site_throughput_tracks_cpu_cost() {
        // One site alone: CPU-bound at ~1/cpu_per_request requests/s.
        let mut sim = Sim::new(SimConfig::default());
        let site = Site {
            name: "solo".into(),
            workers: 20,
            active: 20,
            cpu_per_request: Nanos::from_millis(10),
            db_wait: Nanos::from_millis(40),
            jitter: 0.0,
            seed: 7,
        }
        .spawn(&mut sim);
        sim.run_until(Nanos::from_secs(20));
        let rps = site.completed() as f64 / 20.0;
        // 20 workers × 10ms CPU per request with 40ms waits: the CPU is the
        // bottleneck (20 × 10/50 = 4× oversubscribed), so ~100 req/s.
        assert!(rps > 85.0 && rps < 101.0, "got {rps} req/s");
        assert!(sim.idle_time() < Nanos::from_millis(600), "CPU saturated");
    }

    #[test]
    fn three_equal_sites_split_roughly_evenly() {
        let mut sim = Sim::new(SimConfig::default());
        let mut sites = Vec::new();
        for (i, name) in ["alice", "bob", "carol"].iter().enumerate() {
            let site = Site {
                name: name.to_string(),
                workers: 10,
                active: 8,
                seed: i as u64 + 1,
                ..Site::default()
            };
            sites.push(site.spawn(&mut sim));
        }
        sim.run_until(Nanos::from_secs(30));
        let counts: Vec<f64> = sites.iter().map(|s| s.completed() as f64).collect();
        let total: f64 = counts.iter().sum();
        for (s, c) in sites.iter().zip(&counts) {
            let fraction = c / total;
            assert!(
                (fraction - 1.0 / 3.0).abs() < 0.08,
                "{}: fraction {fraction}",
                s.name
            );
        }
    }

    #[test]
    fn underloaded_worker_pool_leaves_idle_cpu() {
        // One worker with long DB waits cannot saturate the CPU.
        let mut sim = Sim::new(SimConfig::default());
        let site = Site {
            name: "tiny".into(),
            workers: 1,
            active: 1,
            cpu_per_request: Nanos::from_millis(5),
            db_wait: Nanos::from_millis(95),
            jitter: 0.0,
            seed: 3,
        }
        .spawn(&mut sim);
        sim.run_until(Nanos::from_secs(10));
        // 5ms CPU per 100ms round trip → ~10 req/s, ~95% idle.
        let rps = site.completed() as f64 / 10.0;
        assert!((rps - 10.0).abs() < 1.0, "got {rps}");
        assert!(sim.idle_time() > Nanos::from_secs(9));
    }

    #[test]
    fn request_costs_are_pure_functions_of_the_spec() {
        // The stream-splitting rule: request k's CPU and DB costs for a
        // site seeded s are stateless indexed draws. Interleaving any
        // number of draws for other sites (the old shared-SmallRng
        // design's failure mode) cannot perturb them.
        let cost = |seed: u64, k: u64| (stream(seed, STREAM_CPU, k), stream(seed, STREAM_DB, k));
        let alone: Vec<_> = (0..200).map(|k| cost(31, k)).collect();
        let mut interleaved = Vec::new();
        for k in 0..200 {
            // Another site (different seed) drawing in between.
            let _ = cost(77, k * 3);
            let _ = cost(77, k * 3 + 1);
            interleaved.push(cost(31, k));
        }
        assert_eq!(alone, interleaved);
        // And the jitter factors they induce are within spec bounds.
        for &(c, d) in &alone {
            assert!((0.6..=1.4).contains(&jitter_factor(c, 0.4)));
            assert!((0.6..=1.4).contains(&jitter_factor(d, 0.4)));
        }
    }
}
