//! Measurement plumbing: the clocks, the memory reader, the counting
//! allocator and the percentile helper every workload shares.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`; the in-tree libc stub only
/// declares the monotonic clock.
pub const CLOCK_THREAD_CPUTIME_ID: libc::clockid_t = 3;

fn clock_ns(id: libc::clockid_t) -> u64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer for clock_gettime.
    let rc = unsafe { libc::clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system) consumed so far by the calling thread. Sleeping
/// and being descheduled cost nothing on this clock, which is why every
/// timing in the benchmark uses it: the box is shared, and wall time would
/// measure the neighbours.
#[inline]
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Monotonic wall clock, for cadence checks only.
#[inline]
pub fn mono_ns() -> u64 {
    clock_ns(libc::CLOCK_MONOTONIC)
}

/// Median cost of one `thread_cpu_ns` call as seen by a surrounding pair
/// of calls: what a span's raw duration overstates its content by.
pub fn clock_cost_ns() -> u64 {
    let mut deltas: Vec<u64> = (0..2001)
        .map(|_| {
            let a = thread_cpu_ns();
            thread_cpu_ns() - a
        })
        .collect();
    deltas.sort_unstable();
    deltas[deltas.len() / 2]
}

/// The system allocator with a call counter, so a traced run can report
/// allocations per quantum. Counting is one relaxed add; the allocator
/// itself is the one every other binary in the repository gets.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Heap allocations (including reallocations) made by this process so far.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {field} line in /proc/self/status"));
    kb / 1024.0
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Exact-rank (nearest-rank) percentile of an ascending slice: the
/// smallest sample with at least `pct` percent of the samples at or below
/// it. No interpolation, so the result is always a value that was measured.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&pct));
    sorted[rank(sorted.len(), pct).clamp(1, sorted.len()) - 1]
}

/// Nearest rank of `pct` among `n` samples, in integer hundredths of a
/// percent so that 99.9 % of 10 000 is 9 990 and not 9 991.
fn rank(n: usize, pct: f64) -> usize {
    let hundredths = (pct * 100.0).round() as usize;
    (n * hundredths).div_ceil(10_000)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` below 100 samples.
pub fn tail_pct(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| n - rank(n, p) >= 10)
}

/// Median, tail and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50: u64,
    /// `(percentile, value)` per [`tail_pct`].
    pub tail: Option<(f64, u64)>,
}

impl Dist {
    /// Sorts `samples` in place.
    pub fn of(samples: &mut [u64]) -> Dist {
        samples.sort_unstable();
        Dist {
            n: samples.len(),
            p50: percentile(samples, 50.0),
            tail: tail_pct(samples.len()).map(|p| (p, percentile(samples, p))),
        }
    }
}

/// The fastest repeat of each piece of work: `repeats[r][i]` is how long
/// piece `i` took the `r`-th time it ran, and every repeat ran the same
/// pieces.
///
/// This is how the unpaced workloads reject interference. The box is one
/// of many small VMs on a host: a busy neighbour on the sibling hardware
/// thread, or a stolen time slice, stretches whatever was running for tens
/// of milliseconds to seconds, by up to a half, and the thread CPU clock
/// cannot tell. Such bursts only ever add time, and they are shorter than
/// a run, so with enough repeats each piece is seen undisturbed at least
/// once even when no whole repeat is. Summing the per-piece minima gave a
/// run-to-run spread about half that of the median over whole repeats,
/// on the same samples (see README.md, "Why the fastest repeat").
pub fn fastest(repeats: &[Vec<u64>]) -> Vec<u64> {
    assert!(!repeats.is_empty(), "at least one repeat");
    let mut best = Vec::new();
    for r in repeats {
        keep_fastest(&mut best, r);
    }
    best
}

/// [`fastest`] one repeat at a time, for a workload with too many repeats
/// to hold: `best` starts empty and ends as `fastest` of all it was shown.
pub fn keep_fastest(best: &mut Vec<u64>, repeat: &[u64]) {
    if best.is_empty() {
        best.extend_from_slice(repeat);
        return;
    }
    assert_eq!(repeat.len(), best.len(), "repeats ran different pieces");
    for (b, &v) in best.iter_mut().zip(repeat) {
        *b = (*b).min(v);
    }
}

/// `samples` as consecutive repeats of `period` pieces each; a trailing
/// partial repeat is dropped. For work that recurs with a known period.
pub fn fold(samples: &[u64], period: usize) -> Vec<Vec<u64>> {
    samples.chunks_exact(period).map(<[u64]>::to_vec).collect()
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Mean of nanosecond samples, in microseconds.
pub fn mean_us(ns: &[u64]) -> f64 {
    us(ns.iter().sum()) / ns.len() as f64
}

/// Median (nearest rank) of nanosecond samples, in microseconds; 0 for
/// none, which is what a layer that was never entered reports.
pub fn p50_us(mut ns: Vec<u64>) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    us(Dist::of(&mut ns).p50)
}

/// Conventional median (mean of the middle pair for an even count), for
/// the few per-round or per-run values a metric is reduced from.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive), which is what the acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Deterministic 64-bit mixer (splitmix64): the benchmark's only source of
/// pseudo-randomness, so inputs are a pure function of `--seed`. Its own
/// copy, not `workloads::splitmix64`: the inputs must not move when the
/// code under test does.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shares `1 + i % 20` for `i < n`, shuffled by `seed` (Fisher-Yates).
/// The multiset is the same for every seed, so totals that depend only on
/// the shares present (cycle length, reads per cycle) do not move with it.
pub fn shares(n: usize, seed: u64) -> Vec<u64> {
    let mut s: Vec<u64> = (0..n as u64).map(|i| 1 + i % 20).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64(state);
        s.swap(i, (state % (i as u64 + 1)) as usize);
    }
    s
}

/// Like [`shares`], but shuffled only within each aligned block of 20, so
/// any whole number of blocks holds each share equally often whatever the
/// seed. `core-mix-4k` replaces its longest-enrolled members in whole
/// blocks; with this the members that leave, and so every count the engine
/// keeps, are the same for every seed.
pub fn shares_in_blocks(n: usize, seed: u64) -> Vec<u64> {
    let mut s = Vec::with_capacity(n);
    for block in 0..n.div_ceil(20) {
        let len = (n - block * 20).min(20);
        s.extend(shares(len, splitmix64(seed ^ (block as u64) << 20)));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 90.0), 9);
        assert_eq!(percentile(&v, 91.0), 10);
        assert_eq!(percentile(&v, 100.0), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 50.0), 7);
        // Odd count: the true middle.
        assert_eq!(percentile(&[1, 2, 3], 50.0), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_pct(99), None);
        assert_eq!(tail_pct(100), Some(90.0));
        assert_eq!(tail_pct(199), Some(90.0));
        assert_eq!(tail_pct(200), Some(95.0));
        assert_eq!(tail_pct(1000), Some(99.0));
        assert_eq!(tail_pct(9_999), Some(99.0));
        assert_eq!(tail_pct(10_000), Some(99.9));
        assert_eq!(tail_pct(100_000), Some(99.99));
    }

    #[test]
    fn dist_reports_count_median_and_tail() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        let d = Dist::of(&mut v);
        assert_eq!(d.n, 1000);
        assert_eq!(d.p50, 500);
        assert_eq!(d.tail, Some((99.0, 990)));
        let mut few = vec![3, 1, 2];
        assert_eq!(Dist::of(&mut few).tail, None);
    }

    #[test]
    fn fastest_takes_each_piece_from_its_best_repeat() {
        let repeats = vec![vec![5, 9, 3], vec![4, 10, 8], vec![6, 7, 3]];
        assert_eq!(fastest(&repeats), vec![4, 7, 3]);
        assert_eq!(fastest(&repeats[..1]), repeats[0]);
        let folded = fold(&[5, 9, 3, 4, 10, 8, 6, 7], 3);
        assert_eq!(folded, vec![vec![5, 9, 3], vec![4, 10, 8]]);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn shares_are_a_seeded_permutation_of_one_to_twenty() {
        let a = shares(256, 1);
        assert_eq!(a, shares(256, 1));
        assert_ne!(a, shares(256, 2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let mut expect: Vec<u64> = (0..256u64).map(|i| 1 + i % 20).collect();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn every_block_of_twenty_holds_every_share() {
        let a = shares_in_blocks(1000, 3);
        assert_ne!(a, shares_in_blocks(1000, 4));
        assert_ne!(a[..20], a[20..40]);
        for block in a.chunks(20) {
            let mut b = block.to_vec();
            b.sort_unstable();
            assert_eq!(b, (1..=20).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn thread_cpu_clock_ignores_sleep() {
        let c0 = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_ns() - c0;
        assert!(slept < 10_000_000, "sleep charged {slept} ns of CPU");
    }
}
