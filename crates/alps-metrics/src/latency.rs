//! Per-request latency recording: fixed-bin histograms and tail
//! summaries.
//!
//! A workload's latency probe (`workloads::LatencyProbe`) records one
//! sample per completed request; this module turns those samples into
//! percentile and stretch summaries.
//!
//! * [`LatencyHistogram`] — a fixed-bin log-scale histogram of latency
//!   nanoseconds. Bins are exact up to [`LIN_BINS`] ns and then keep
//!   [`SUB_BITS`] significant bits per octave, so the percentile
//!   estimator's relative error is bounded by `2^-SUB_BITS` (~3%)
//!   at any magnitude, with a fixed 15 KB footprint.
//! * [`LatencySummary`] — count, mean, p50/p95/p99, max, plus the
//!   DFRS-style *stretch* (latency ÷ intrinsic service demand, ≥ 1 under
//!   contention) and *yield* (service demand ÷ latency, ≤ 1) metrics
//!   from the Dynamic Fractional Resource Scheduling line of work.

use serde::{Deserialize, Serialize};

/// Significant bits kept per octave above the linear range.
pub const SUB_BITS: u32 = 5;

/// Values below this (in ns) get exact 1-ns bins.
pub const LIN_BINS: u64 = 64;

/// Sub-buckets per octave (`2^SUB_BITS`).
const SUB: usize = 1 << SUB_BITS;

/// Total bins: 64 exact + 32 per octave for octaves 6..=63.
const BINS: usize = LIN_BINS as usize + (64 - (SUB_BITS as usize + 1)) * SUB;

/// Bin index of a latency value in nanoseconds.
fn bin_index(v: u64) -> usize {
    if v < LIN_BINS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) as usize - SUB; // 0..SUB
    LIN_BINS as usize + (msb - (SUB_BITS + 1)) as usize * SUB + sub
}

/// Lower bound (inclusive) of a bin, in nanoseconds.
fn bin_lower(i: usize) -> u64 {
    if i < LIN_BINS as usize {
        return i as u64;
    }
    let rel = i - LIN_BINS as usize;
    let octave = (rel / SUB) as u32;
    let sub = (rel % SUB) as u64;
    (SUB as u64 + sub) << (octave + 1)
}

/// Representative value of a bin: the midpoint of `[lower, next_lower)`.
fn bin_value(i: usize) -> u64 {
    let lo = bin_lower(i);
    let hi = if i + 1 < BINS { bin_lower(i + 1) } else { lo };
    lo + (hi.saturating_sub(lo)) / 2
}

/// A fixed-bin log-scale histogram of request latencies, with the
/// stretch/yield accumulators needed for a [`LatencySummary`].
///
/// Recording is O(1) and allocation-free after construction; the bin
/// layout is fixed (independent of the data), so two histograms fed the
/// same samples in any order are identical — the property the
/// sweep-determinism suites rely on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
    sum_stretch: f64,
    max_stretch: f64,
    sum_yield: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BINS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            sum_stretch: 0.0,
            max_stretch: 0.0,
            sum_yield: 0.0,
        }
    }

    /// Record one completed request: its wall-clock latency and its
    /// intrinsic service demand (the time it would have taken alone —
    /// stretch and yield are computed against it). A zero service demand
    /// records the latency but contributes stretch 1 / yield 1.
    pub fn record(&mut self, latency_ns: u64, service_ns: u64) {
        self.counts[bin_index(latency_ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(latency_ns);
        self.min_ns = self.min_ns.min(latency_ns);
        self.max_ns = self.max_ns.max(latency_ns);
        let (stretch, yld) = if service_ns == 0 || latency_ns == 0 {
            (1.0, 1.0)
        } else {
            let s = latency_ns as f64 / service_ns as f64;
            (s.max(1.0), (1.0 / s).min(1.0))
        };
        self.sum_stretch += stretch;
        self.max_stretch = self.max_stretch.max(stretch);
        self.sum_yield += yld;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded latency (ns); `None` when empty.
    pub fn min_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_ns)
    }

    /// Largest recorded latency (ns); `None` when empty.
    pub fn max_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_ns)
    }

    /// Merge another histogram into this one (same fixed layout, so the
    /// merge is bin-wise addition).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.sum_stretch += other.sum_stretch;
        self.max_stretch = self.max_stretch.max(other.max_stretch);
        self.sum_yield += other.sum_yield;
    }

    /// Latency at quantile `q` (0.0–1.0), in nanoseconds; `None` when
    /// empty.
    ///
    /// The estimator walks the cumulative bin counts to the sample of
    /// rank `round(q · (count-1))` and returns that bin's representative
    /// value clamped to the recorded `[min, max]`. It is monotone in `q`,
    /// always within `[min, max]`, and exact whenever all samples share
    /// one bin value (in particular for constant inputs) — the properties
    /// pinned by `tests/latency_properties.rs`.
    pub fn percentile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(bin_value(i).clamp(self.min_ns, self.max_ns));
            }
        }
        Some(self.max_ns)
    }

    /// Latency at quantile `q`, in milliseconds (`NaN` when empty).
    pub fn percentile_ms(&self, q: f64) -> f64 {
        self.percentile_ns(q).map_or(f64::NAN, |ns| ns as f64 / 1e6)
    }
}

/// The tail-latency summary of one tenant over one observation window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Requests completed in the window.
    pub count: u64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Largest latency, milliseconds.
    pub max_ms: f64,
    /// Mean stretch (latency ÷ service demand; DFRS).
    pub mean_stretch: f64,
    /// Largest stretch in the window.
    pub max_stretch: f64,
    /// Mean yield (service demand ÷ latency; DFRS).
    pub mean_yield: f64,
}

impl LatencySummary {
    /// A summary with zero samples (all statistics zero).
    pub fn empty() -> Self {
        LatencySummary {
            count: 0,
            mean_ms: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            max_ms: 0.0,
            mean_stretch: 0.0,
            max_stretch: 0.0,
            mean_yield: 0.0,
        }
    }

    /// Summarize a histogram. An empty histogram yields
    /// [`LatencySummary::empty`].
    pub fn from_histogram(h: &LatencyHistogram) -> Self {
        if h.count == 0 {
            return Self::empty();
        }
        let n = h.count as f64;
        LatencySummary {
            count: h.count,
            mean_ms: h.sum_ns as f64 / n / 1e6,
            p50_ms: h.percentile_ms(0.50),
            p95_ms: h.percentile_ms(0.95),
            p99_ms: h.percentile_ms(0.99),
            max_ms: h.max_ns as f64 / 1e6,
            mean_stretch: h.sum_stretch / n,
            max_stretch: h.max_stretch,
            mean_yield: h.sum_yield / n,
        }
    }

    /// Summarize raw `(latency_ns, service_ns)` samples.
    pub fn from_samples(samples: &[(u64, u64)]) -> Self {
        let mut h = LatencyHistogram::new();
        for &(l, s) in samples {
            h.record(l, s);
        }
        Self::from_histogram(&h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_tile_the_axis() {
        // Every bin's lower bound maps back to that bin, and bounds are
        // strictly increasing.
        for i in 0..BINS {
            let lo = bin_lower(i);
            assert_eq!(bin_index(lo), i, "lower bound of bin {i}");
            if i + 1 < BINS {
                assert!(bin_lower(i + 1) > lo);
            }
        }
        // Representatives stay inside their bin.
        for i in 0..BINS - 1 {
            let v = bin_value(i);
            assert!(v >= bin_lower(i) && v < bin_lower(i + 1), "bin {i}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 1000, 123_456, 10_000_000, 987_654_321] {
            h = LatencyHistogram::new();
            h.record(v, v);
            let got = h.percentile_ns(0.5).unwrap();
            let err = (got as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / SUB as f64, "v={v} got={got} err={err}");
        }
        let _ = h;
    }

    #[test]
    fn constant_input_is_exact() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(123_456_789, 1_000_000);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile_ns(q), Some(123_456_789));
        }
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 10_000, 10_000);
        }
        let p50 = h.percentile_ns(0.5).unwrap();
        let p95 = h.percentile_ns(0.95).unwrap();
        let p99 = h.percentile_ns(0.99).unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.max_ns().unwrap());
        assert!(h.percentile_ns(0.0).unwrap() >= h.min_ns().unwrap());
        // p50 of a uniform ramp lands near the middle (3% bins).
        let mid = 500 * 10_000;
        assert!((p50 as f64 - mid as f64).abs() / (mid as f64) < 0.05);
    }

    #[test]
    fn stretch_and_yield_track_contention() {
        let mut h = LatencyHistogram::new();
        // Uncontended: latency == service.
        h.record(1_000_000, 1_000_000);
        // 4x stretched.
        h.record(4_000_000, 1_000_000);
        let s = LatencySummary::from_histogram(&h);
        assert_eq!(s.count, 2);
        assert!((s.mean_stretch - 2.5).abs() < 1e-9);
        assert!((s.max_stretch - 4.0).abs() < 1e-9);
        assert!((s.mean_yield - 0.625).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for i in 0..100u64 {
            let v = (i + 1) * 77_777;
            if i % 2 == 0 {
                a.record(v, 50_000);
            } else {
                b.record(v, 50_000);
            }
            both.record(v, 50_000);
        }
        a.merge(&b);
        // Integer state merges exactly.
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min_ns(), both.min_ns());
        assert_eq!(a.max_ns(), both.max_ns());
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(a.percentile_ns(q), both.percentile_ns(q));
        }
        // Stretch/yield accumulators merge up to f64 summation order.
        let (sa, sb) = (
            LatencySummary::from_histogram(&a),
            LatencySummary::from_histogram(&both),
        );
        assert!((sa.mean_stretch - sb.mean_stretch).abs() < 1e-9);
        assert!((sa.max_stretch - sb.max_stretch).abs() < 1e-12);
        assert!((sa.mean_yield - sb.mean_yield).abs() < 1e-9);
        assert!((sa.mean_ms - sb.mean_ms).abs() < 1e-12);
    }

    #[test]
    fn summary_serde_round_trip() {
        let mut h = LatencyHistogram::new();
        h.record(5_000_000, 2_000_000);
        let s = LatencySummary::from_histogram(&h);
        let json = serde_json::to_string(&s).unwrap();
        let back: LatencySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
