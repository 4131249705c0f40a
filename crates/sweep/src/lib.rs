//! Deterministic parallel sweep executor.
//!
//! Every multi-run code path in this repo — seed averaging, share-model ×
//! N grids, the seven `repro verify` claims — is a set of *independent*
//! jobs: each one is a pure function of its parameters (every simulation
//! builds its own `Sim` from a seed).
//! [`sweep_map`] fans such jobs across a pool of scoped worker threads
//! and returns the results **in input order**, so the output of a sweep
//! is byte-identical at any thread count; parallelism changes only the
//! wall clock.
//!
//! The thread count is the [`set_threads`] override — the process-wide
//! setting behind the `--threads` CLI flags — else [`host_cores`]
//! (`std::thread::available_parallelism`).
//!
//! A count of 1 forces the serial path: jobs run inline on the caller's
//! thread with no pool at all. Sweeps may nest (e.g. a grid of
//! `run_workload_mean` calls, each fanning its seeds); each level caps
//! its pool at its own job count, so oversubscription is bounded by the
//! small inner fan-outs.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide `--threads` override; 0 means unset.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Install (or with `None` clear) the process-wide thread-count
/// override. This is what the `--threads N` CLI flags call; it takes
/// precedence over [`host_cores`].
///
/// # Panics
///
/// Panics on `Some(0)`: a sweep always needs at least the caller's
/// thread.
pub fn set_threads(n: Option<usize>) {
    if let Some(n) = n {
        assert!(n >= 1, "thread count must be at least 1");
    }
    OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Number of hardware threads on this host (1 if unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The thread count sweeps run at right now: the [`set_threads`]
/// override, else [`host_cores`].
pub fn threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => host_cores(),
        over => over,
    }
}

/// Apply `f` to every item on a pool of [`threads`] workers and return
/// the results in input order. See [`sweep_map_threads`].
pub fn sweep_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    sweep_map_threads(threads(), items, f)
}

/// Run a batch of heterogeneous jobs (e.g. the `repro verify` claim
/// blocks) on the sweep pool, returning their results in input order.
pub fn sweep_run<R: Send>(jobs: Vec<Box<dyn FnOnce() -> R + Send>>) -> Vec<R> {
    sweep_map(jobs, |job| job())
}

/// [`sweep_map`] with an explicit thread count (used by the determinism
/// tests, which must not touch the process-wide knobs).
///
/// The pool never exceeds the number of items; `threads <= 1` (or a
/// single item) runs everything inline on the caller's thread. Workers
/// claim items from a shared atomic cursor, so an expensive item does
/// not serialize the cheap ones behind it; each result lands back in
/// its item's input slot regardless of completion order. A panicking
/// job propagates its panic to the caller after the scope unwinds.
pub fn sweep_map_threads<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Items move out through per-slot mutexes (each claimed exactly once,
    // so the locks never contend); results come back tagged with their
    // input index and are scattered into place below.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("slot lock")
                            .take()
                            .expect("each index is claimed once");
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(done) => done,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        debug_assert!(results[i].is_none(), "index {i} produced twice");
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_thread_count() {
        let items: Vec<usize> = (0..100).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 7).collect();
        for t in [1, 2, 3, 8, 64] {
            assert_eq!(sweep_map_threads(t, items.clone(), |x| x * 7), expect);
        }
    }

    #[test]
    fn handles_empty_and_single_item_batches() {
        assert_eq!(sweep_map_threads(8, Vec::<u32>::new(), |x| x), vec![]);
        assert_eq!(sweep_map_threads(8, vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn uneven_job_costs_still_land_in_order() {
        // The first item is by far the slowest; its result must still
        // come back first.
        let items = vec![400u64, 1, 1, 1, 1, 1, 1, 1];
        let got = sweep_map_threads(4, items.clone(), |us| {
            std::thread::sleep(std::time::Duration::from_micros(us));
            us
        });
        assert_eq!(got, items);
    }

    #[test]
    fn sweep_run_keeps_job_order() {
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = (0..10)
            .map(|i| Box::new(move || format!("job{i}")) as Box<dyn FnOnce() -> String + Send>)
            .collect();
        let got = sweep_run(jobs);
        assert_eq!(got[0], "job0");
        assert_eq!(got[9], "job9");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate_to_the_caller() {
        sweep_map_threads(4, (0..16).collect(), |i: u32| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn override_beats_host_cores() {
        assert_eq!(threads(), host_cores());
        set_threads(Some(host_cores() + 2));
        assert_eq!(threads(), host_cores() + 2);
        set_threads(None);
        assert_eq!(threads(), host_cores());
    }
}
