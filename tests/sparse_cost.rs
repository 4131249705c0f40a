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

use std::time::{Duration, Instant};

use alps_core::{AlpsConfig, AlpsScheduler, Nanos, Observation, ProcId, QuantumOutcome};

const ACTIVE: usize = 1_000;
const ACTIVE_SHARE: u64 = 5;
const IDLE_BASE_SHARE: u64 = 1_000;
const QUANTA: u64 = 300;
const SMALL_N: usize = 2_000;
const LARGE_N: usize = 200_000;
const REPEATS: usize = 3;

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

#[test]
fn quantum_cost_tracks_due_members_not_registered_members() {
    let (mut small, mut large) = (Duration::MAX, Duration::MAX);
    for _ in 0..REPEATS {
        for (n, fastest) in [(SMALL_N, &mut small), (LARGE_N, &mut large)] {
            let (total_due, took) = drive(n);
            assert_eq!(
                total_due,
                QUANTA / ACTIVE_SHARE * ACTIVE as u64,
                "n = {n}: only the active members come due"
            );
            *fastest = (*fastest).min(took);
        }
    }
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio < 4.0,
        "a quantum over {LARGE_N} members took {ratio:.2}x one over {SMALL_N} \
         ({large:?} vs {small:?} for {QUANTA} quanta) at the same due load"
    );
}
