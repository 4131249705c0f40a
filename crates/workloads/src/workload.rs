//! The uniform workload interface: [`Workload`], [`Tenant`], and
//! [`LatencyProbe`].
//!
//! Every workload generator in this crate — web sites, batch stages —
//! is a *spec* struct implementing [`Workload`]: `spawn(&self, sim)`
//! materializes the spec's processes into a simulation and hands back a
//! [`Tenant`], the uniform handle the experiments operate on. A tenant
//! knows its ALPS-visible [`Tenant::members`] (handed to
//! `spawn_alps_principals` / membership scans) and carries a
//! [`LatencyProbe`] that its behaviors feed per-request
//! `(latency, service)` samples; the probe renders
//! [`alps_metrics::LatencySummary`] blocks and exact percentiles.
//!
//! # The stream-splitting rule
//!
//! All randomness a workload consumes MUST come from stateless indexed
//! streams: draw *k* of stream *s* for a tenant seeded *seed* is
//! `stream(seed, s, k)` — a [`splitmix64`] mix of the three values, never
//! a shared RNG advanced in arrival order. Shared-RNG advance order
//! couples tenants to the scheduler: adding a tenant, changing a share,
//! or reordering a sweep would perturb every other tenant's costs.
//! Indexed streams make request *k*'s cost a pure function of the spec,
//! so service demands are byte-identical across thread counts, seed
//! orders, and share changes.

use std::cell::RefCell;
use std::rc::Rc;

use alps_metrics::{LatencyHistogram, LatencySummary};
use kernsim::{Pid, Sim};

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draw `index` of stream `stream_id` for a tenant seeded `seed` — the
/// stream-splitting rule's one entry point (see module docs).
pub fn stream(seed: u64, stream_id: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream_id.wrapping_mul(0xA076_1D64_78BD_642F)).wrapping_add(index))
}

/// Map a raw stream draw to a uniform f64 in `[0, 1)`.
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Map a raw stream draw to a multiplicative jitter factor in
/// `[1-j, 1+j]`; `j <= 0` yields exactly 1.0.
pub fn jitter_factor(bits: u64, jitter: f64) -> f64 {
    if jitter <= 0.0 {
        1.0
    } else {
        1.0 - jitter + 2.0 * jitter * unit_f64(bits)
    }
}

/// Shared per-tenant latency recorder: behaviors push one
/// `(latency, service)` sample per completed request, in completion
/// order; readers render [`LatencySummary`] blocks and percentiles over
/// the samples after a warm-up prefix.
#[derive(Debug, Clone, Default)]
pub struct LatencyProbe {
    samples: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl LatencyProbe {
    /// A fresh, empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed request.
    pub fn record(&self, latency_ns: u64, service_ns: u64) {
        self.samples.borrow_mut().push((latency_ns, service_ns));
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.samples.borrow().len() as u64
    }

    /// Histogram over completions after `skip` warm-up requests.
    pub fn histogram(&self, skip: usize) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &(l, s) in self.samples.borrow().iter().skip(skip) {
            h.record(l, s);
        }
        h
    }

    /// Summary over completions after `skip` warm-up requests.
    pub fn summary(&self, skip: usize) -> LatencySummary {
        LatencySummary::from_histogram(&self.histogram(skip))
    }

    /// A latency percentile (0.0–1.0) over completions after `skip`
    /// warm-up requests, in milliseconds; exact (sorts the raw samples),
    /// `None` if no samples.
    pub fn percentile_ms(&self, pct: f64, skip: usize) -> Option<f64> {
        let samples = self.samples.borrow();
        let mut xs: Vec<u64> = samples.iter().skip(skip).map(|&(l, _)| l).collect();
        if xs.is_empty() {
            return None;
        }
        xs.sort_unstable();
        let idx = ((xs.len() - 1) as f64 * pct.clamp(0.0, 1.0)).round() as usize;
        Some(xs[idx] as f64 / 1e6)
    }
}

/// The uniform handle a spawned workload hands back: its name, its
/// ALPS-visible member pids, and its latency probe.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Tenant name (e.g. the user account the workload runs as).
    pub name: String,
    /// Pids ALPS schedules: hand these to membership scans. For the web
    /// model this includes idle pool workers — they exist and are
    /// measured even though they never contend.
    pub members: Vec<Pid>,
    probe: LatencyProbe,
}

impl Tenant {
    /// Assemble a tenant handle (workload `spawn` implementations call
    /// this).
    pub fn new(name: impl Into<String>, members: Vec<Pid>, probe: LatencyProbe) -> Self {
        Tenant {
            name: name.into(),
            members,
            probe,
        }
    }

    /// Requests completed since spawn.
    pub fn completed(&self) -> u64 {
        self.probe.completed()
    }

    /// A latency percentile (0.0–1.0) over completions after `skip`
    /// warm-up requests, in milliseconds. `None` if no samples.
    pub fn latency_percentile_ms(&self, pct: f64, skip: usize) -> Option<f64> {
        self.probe.percentile_ms(pct, skip)
    }

    /// Latency/stretch/yield summary after `skip` warm-up requests.
    pub fn latency_summary(&self, skip: usize) -> LatencySummary {
        self.probe.summary(skip)
    }

    /// Throughput over a window, given completion counts sampled at the
    /// window's edges.
    pub fn throughput_rps(completed_delta: u64, window: alps_core::Nanos) -> f64 {
        completed_delta as f64 / window.as_secs_f64()
    }
}

/// A workload spec: `spawn` materializes it into a simulation and
/// returns the uniform [`Tenant`] handle.
pub trait Workload {
    /// Spawn this workload's processes into `sim`.
    fn spawn(&self, sim: &mut Sim) -> Tenant;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_stateless_and_distinct() {
        // Same coordinates, same draw; any coordinate change, new draw.
        assert_eq!(stream(1, 2, 3), stream(1, 2, 3));
        assert_ne!(stream(1, 2, 3), stream(1, 2, 4));
        assert_ne!(stream(1, 2, 3), stream(1, 3, 3));
        assert_ne!(stream(1, 2, 3), stream(2, 2, 3));
    }

    #[test]
    fn unit_draws_cover_the_unit_interval() {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for k in 0..10_000 {
            let u = unit_f64(stream(7, 1, k));
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99, "draws span [0,1): {lo}..{hi}");
    }

    #[test]
    fn jitter_factor_bounds() {
        for k in 0..1_000 {
            let f = jitter_factor(stream(9, 2, k), 0.3);
            assert!((0.7..=1.3).contains(&f), "{f}");
        }
        assert_eq!(jitter_factor(12345, 0.0), 1.0);
    }

    #[test]
    fn probe_summary_and_percentiles() {
        let p = LatencyProbe::new();
        for i in 1..=10u64 {
            p.record(i * 1_000_000, 1_000_000);
        }
        assert_eq!(p.completed(), 10);
        let s = p.summary(0);
        assert_eq!(s.count, 10);
        assert!(s.max_ms > 9.0);
        // Exact percentile over raw samples.
        assert_eq!(p.percentile_ms(1.0, 0), Some(10.0));
        assert_eq!(p.percentile_ms(0.0, 9), Some(10.0));
    }
}
