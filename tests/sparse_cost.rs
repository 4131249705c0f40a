//! The paper's scaling argument (§2.3 lazy measurement, §3.2 overhead): a
//! quantum costs in proportion to the members that are *due*, not to all
//! registered members. The deadline wheel is what makes that true, so this
//! suite fails if the per-quantum cost grows with N at a fixed due load.
//!
//! The layout: 1 000 active members at share 5 (due every fifth quantum)
//! plus idle members at shares `1000 + i`, whose §2.3 re-measure deadlines
//! all fall beyond the drive. Every due member reports zero consumption, so
//! no allowance drains, no cycle ends and no transition fires: the loop
//! body is the bare control path. The wall clock compares the fastest of
//! three repeats at each N, and the repeats alternate between the two N.
//!
//! The same holds one layer up, for the [`Engine`] over a substrate that
//! reads zero consumption and takes every signal: its fault handling
//! (retries, repair of lost signals) costs in proportion to the faults,
//! so a fault-free quantum sends nothing and grows with the due load only.
//!
//! The §3.2 eager baseline (lazy measurement off) measures every eligible
//! member every quantum, so its quantum costs in proportion to the
//! eligible members: a suspended member costs nothing until a cycle
//! boundary credits it.
//!
//! The tests take turns on one lock, so no timing runs beside another.

use std::convert::Infallible;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use alps_core::{
    AlpsConfig, AlpsScheduler, Engine, Instrumentation, Nanos, NullSink, Observation, ProcId,
    QuantumOutcome, Signal, Substrate,
};

const ACTIVE: usize = 1_000;
const ACTIVE_SHARE: u64 = 5;
/// Share of the eager drive's active members: enough that their zero
/// readings never let a cycle end.
const EAGER_ACTIVE_SHARE: u64 = 1_000;
const IDLE_BASE_SHARE: u64 = 1_000;
const QUANTA: u64 = 300;
const SMALL_N: usize = 2_000;
const LARGE_N: usize = 200_000;
const REPEATS: usize = 3;

static TIMING: Mutex<()> = Mutex::new(());

/// One drive over `n` registered members: the due members measured and
/// the wall clock of the `QUANTA` quanta after the warm-up quantum.
fn drive(n: usize) -> (u64, Duration) {
    let mut alps = AlpsScheduler::new(AlpsConfig::new(Nanos::from_millis(10)));
    for i in 0..n - ACTIVE {
        alps.add_process(IDLE_BASE_SHARE + i as u64, Nanos::ZERO);
    }
    for _ in 0..ACTIVE {
        alps.add_process(ACTIVE_SHARE, Nanos::ZERO);
    }

    // Every member starts ineligible with a forced measurement, so the
    // warm-up quantum resumes all n and parks each on its deadline.
    let mut due = Vec::new();
    let mut obs: Vec<(ProcId, Observation)> = Vec::new();
    let mut out = QuantumOutcome::default();
    alps.begin_quantum_into(&mut due);
    alps.complete_quantum_into(&[], &mut out);
    assert_eq!(out.transitions.len(), n, "warm-up resumes everyone");

    let mut total_due = 0;
    let start = Instant::now();
    for _ in 0..QUANTA {
        alps.begin_quantum_into(&mut due);
        total_due += due.len() as u64;
        obs.clear();
        obs.extend(due.iter().map(|&id| {
            let reading = Observation {
                total_cpu: Nanos::ZERO,
                blocked: false,
            };
            (id, reading)
        }));
        alps.complete_quantum_into(&obs, &mut out);
        assert!(out.transitions.is_empty() && !out.cycle_completed);
    }
    (total_due, start.elapsed())
}

/// Every member reads zero consumption; every signal lands.
struct Idle;

impl Substrate for Idle {
    type Member = u32;
    type Error = Infallible;

    fn now(&mut self) -> Nanos {
        Nanos::ZERO
    }

    fn read(&mut self, _: u32) -> Result<Option<Observation>, Infallible> {
        Ok(Some(Observation {
            total_cpu: Nanos::ZERO,
            blocked: false,
        }))
    }

    fn deliver(&mut self, _: u32, _: Signal) -> Result<bool, Infallible> {
        Ok(true)
    }
}

/// [`drive`] through an [`Engine`], member `i` in slot `i`: the due
/// members measured and the wall clock of the `QUANTA` quanta after the
/// warm-up quantum, which resumes all `n` members.
fn drive_engine(n: usize) -> (u64, Duration) {
    let cfg = AlpsConfig::new(Nanos::from_millis(10));
    let mut engine: Engine<u32> = Engine::new(cfg, Instrumentation::Exact);
    for i in 0..n - ACTIVE {
        engine.add_member(i as u32, IDLE_BASE_SHARE + i as u64, Nanos::ZERO);
    }
    for i in n - ACTIVE..n {
        engine.add_member(i as u32, ACTIVE_SHARE, Nanos::ZERO);
    }
    let warm_up = engine.run_quantum(&mut Idle, &mut NullSink).unwrap();
    assert_eq!(warm_up.len(), n, "warm-up resumes everyone");
    let before = engine.stats();
    let start = Instant::now();
    for _ in 0..QUANTA {
        engine.run_quantum(&mut Idle, &mut NullSink).unwrap();
    }
    let took = start.elapsed();
    let after = engine.stats();
    assert_eq!(
        after.signals, before.signals,
        "n = {n}: a signal after warm-up"
    );
    assert!(!engine.last_cycle_completed());
    (after.measurements - before.measurements, took)
}

/// [`drive`] with lazy measurement off: `n - ACTIVE` members at share 1
/// spend their whole share in the second quantum and stay suspended, and
/// `ACTIVE` members at [`EAGER_ACTIVE_SHARE`] read zero consumption. The
/// due members measured and the wall clock of the `QUANTA` quanta after
/// those two.
fn drive_eager(n: usize) -> (u64, Duration) {
    let cfg = AlpsConfig::new(Nanos::from_millis(10)).with_lazy_measurement(false);
    let mut alps = AlpsScheduler::new(cfg);
    let spenders = n - ACTIVE;
    for _ in 0..spenders {
        alps.add_process(1, Nanos::ZERO);
    }
    for _ in 0..ACTIVE {
        alps.add_process(EAGER_ACTIVE_SHARE, Nanos::ZERO);
    }
    let (mut due, mut obs) = (Vec::new(), Vec::new());
    let mut out = QuantumOutcome::default();
    let mut quantum = |alps: &mut AlpsScheduler, spent: Nanos| {
        alps.begin_quantum_into(&mut due);
        obs.clear();
        obs.extend(due.iter().map(|&id| {
            let total_cpu = if id.index() < spenders {
                spent
            } else {
                Nanos::ZERO
            };
            let blocked = false;
            (id, Observation { total_cpu, blocked })
        }));
        alps.complete_quantum_into(&obs, &mut out);
        assert!(!out.cycle_completed);
        (due.len(), out.transitions.len())
    };
    assert_eq!(
        quantum(&mut alps, Nanos::ZERO),
        (0, n),
        "warm-up resumes everyone"
    );
    let q = Nanos::from_millis(10);
    assert_eq!(quantum(&mut alps, q), (n, spenders), "the spenders stop");

    let mut total_due = 0;
    let start = Instant::now();
    for _ in 0..QUANTA {
        let (measured, transitions) = quantum(&mut alps, q);
        assert_eq!(transitions, 0);
        total_due += measured as u64;
    }
    (total_due, start.elapsed())
}

/// The fastest of `REPEATS` drives at each N, alternating, with the check
/// that exactly `want_due` members came due at each.
fn fastest(drive: fn(usize) -> (u64, Duration), want_due: u64) -> (Duration, Duration) {
    let _turn = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (mut small, mut large) = (Duration::MAX, Duration::MAX);
    for _ in 0..REPEATS {
        for (n, fastest) in [(SMALL_N, &mut small), (LARGE_N, &mut large)] {
            let (total_due, took) = drive(n);
            assert_eq!(
                total_due, want_due,
                "n = {n}: only the active members come due"
            );
            *fastest = (*fastest).min(took);
        }
    }
    (small, large)
}

#[test]
fn quantum_cost_tracks_due_members_not_registered_members() {
    let (small, large) = fastest(drive, QUANTA / ACTIVE_SHARE * ACTIVE as u64);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio < 4.0,
        "a quantum over {LARGE_N} members took {ratio:.2}x one over {SMALL_N} \
         ({large:?} vs {small:?} for {QUANTA} quanta) at the same due load"
    );
}

#[test]
fn engine_quantum_cost_tracks_due_members_not_registered_members() {
    let (small, large) = fastest(drive_engine, QUANTA / ACTIVE_SHARE * ACTIVE as u64);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio < 4.0,
        "an engine quantum over {LARGE_N} members took {ratio:.2}x one over {SMALL_N} \
         ({large:?} vs {small:?} for {QUANTA} quanta) at the same due load"
    );
}

#[test]
fn eager_quantum_cost_tracks_eligible_members_not_registered_members() {
    let (small, large) = fastest(drive_eager, QUANTA * ACTIVE as u64);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio < 4.0,
        "an eager quantum over {LARGE_N} members took {ratio:.2}x one over {SMALL_N} \
         ({large:?} vs {small:?} for {QUANTA} quanta) at the same eligible load"
    );
}
