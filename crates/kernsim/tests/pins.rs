//! Pinned default-configuration behavior of the simulated kernel.
//!
//! Each test drives one scripted run — workloads plus `SIGSTOP`/`SIGCONT`/
//! terminate churn between 100 ms slices — on a default [`SimConfig`] and
//! folds everything observable about it (the full trace, per-process
//! accounting, context switches, idle time, events handled, live count)
//! into one FNV-style word that must equal a committed constant. A change
//! to the event queue, the run queue, or the dispatch path that alters a
//! single scheduling decision moves the word.
//!
//! To re-pin after an *intended* behavior change, run the suite and copy
//! the `got` values from the failure messages.

use alps_core::Nanos;
use kernsim::trace::TraceKind;
use kernsim::{ComputeBound, ComputeThenSleep, FaultPlan, FaultRates, Pid, Sim, SimConfig};

/// Deterministic churn driver (split-mix style; the sequence must not
/// depend on the simulation being driven).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Fold one word into an FNV-style fingerprint (the same fold the
/// conformance harness uses for `DriveReport::fingerprint`).
fn fold(fp: &mut u64, word: u64) {
    *fp = fp.wrapping_mul(0x0000_0100_0000_01B3) ^ word;
}

/// Fold a [`TraceKind`] as its discriminant tag and two zero words. The
/// zeros keep the committed fingerprints: the words once carried a CPU
/// index, which was always 0 on the one CPU.
fn fold_kind(fp: &mut u64, kind: TraceKind) {
    let tag = match kind {
        TraceKind::Dispatch => 0,
        TraceKind::Preempt => 1,
        TraceKind::Block => 3,
        TraceKind::Wake => 4,
        TraceKind::Stop => 5,
        TraceKind::Continue => 6,
        TraceKind::Exit => 7,
    };
    fold(fp, tag);
    fold(fp, 0);
    fold(fp, 0);
}

/// Fingerprint a finished run.
fn fingerprint(sim: &Sim, pids: &[Pid], events_handled: u64) -> u64 {
    let trace = sim.trace().expect("enabled").events();
    let mut fp = 0u64;
    for e in trace {
        fold(&mut fp, e.at.0);
        fold(&mut fp, e.pid.0 as u64);
        fold_kind(&mut fp, e.kind);
    }
    for &p in pids {
        let v = sim.proc(p).expect("spawned");
        fold(&mut fp, v.cputime().0);
        fold(&mut fp, v.visible_cputime().0);
        fold(&mut fp, v.dispatches());
        fold(&mut fp, v.state_code() as u64);
    }
    fold(&mut fp, sim.context_switches());
    fold(&mut fp, sim.idle_time().0);
    fold(&mut fp, events_handled);
    fold(&mut fp, sim.live_count() as u64);
    fp
}

/// Spawn `cpu` compute-bound processes and `io` processes of the §3.3
/// I/O shape (80 ms of CPU, 240 ms blocked).
fn spawn_mix(sim: &mut Sim, cpu: usize, io: usize) -> Vec<Pid> {
    let mut pids = Vec::new();
    for i in 0..cpu {
        pids.push(sim.spawn(format!("cpu{i}"), Box::new(ComputeBound)));
    }
    for i in 0..io {
        pids.push(sim.spawn(
            format!("io{i}"),
            Box::new(ComputeThenSleep::new(
                Nanos::from_millis(80),
                Nanos::from_millis(240),
                Nanos::ZERO,
            )),
        ));
    }
    pids
}

/// 30 simulated seconds of LCG-driven stop/cont/terminate churn over ten
/// compute-bound and four I/O processes, then everyone continued and the
/// machine run on to `end`. With `far_sleeper`, one extra process sleeps
/// 90 s, so the queue holds (and, given a late enough `end`, pops) an
/// event far beyond every other pending time.
fn churn(seed: u64, far_sleeper: bool, rng_seed: u64, end: Nanos) -> u64 {
    let cfg = SimConfig {
        seed,
        spawn_estcpu_jitter: 8.0,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(cfg);
    sim.enable_trace(1 << 20);
    let mut pids = spawn_mix(&mut sim, 10, 4);
    if far_sleeper {
        pids.push(sim.spawn(
            "far".to_string(),
            Box::new(ComputeThenSleep::new(
                Nanos::from_millis(5),
                Nanos::from_secs(90),
                Nanos::ZERO,
            )),
        ));
    }

    let mut rng = Lcg(rng_seed);
    let mut events_handled = 0;
    for slice in 1..=300u64 {
        events_handled += sim.run_until(Nanos::from_millis(100 * slice));
        let pid = pids[(rng.next() as usize) % pids.len()];
        match rng.next() % 4 {
            0 => sim.sigstop(pid),
            1 => sim.sigcont(pid),
            // Terminate sparingly so the machine stays busy.
            2 if slice % 37 == 0 => sim.terminate(pid),
            _ => {}
        }
        sim.assert_index_consistent();
    }
    for &p in &pids {
        sim.sigcont(p);
    }
    events_handled += sim.run_until(end);
    sim.assert_index_consistent();

    let trace = sim.trace().expect("enabled").events();
    assert!(
        trace.len() > 1000,
        "the fixture must exercise a real schedule, got {} trace events",
        trace.len()
    );
    assert!(
        trace.iter().any(|e| matches!(e.kind, TraceKind::Exit)),
        "churn must include terminations"
    );
    fingerprint(&sim, &pids, events_handled)
}

#[track_caller]
fn assert_pinned(got: u64, want: u64, what: &str) {
    assert_eq!(
        got, want,
        "{what}: fingerprint moved — got {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn supervised_churn_with_a_far_sleeper_is_pinned_on_one_cpu() {
    let got = churn(23, true, 0x5EED_0E41, Nanos::from_secs(100));
    assert_pinned(got, 0x3edc_016e_7a23_6151, "churn with a far sleeper");
}

#[test]
fn uniprocessor_churn_is_pinned() {
    let got = churn(11, false, 0xA1B2_C3D4, Nanos::from_secs(31));
    assert_pinned(got, 0x450f_c4bb_4242_a9fb, "churn");
}

/// Churn driven by a chaotic [`FaultPlan`] instead of a plain LCG: slice
/// deadlines come from the plan's monotonic jittered clock and stop/cont/
/// terminate decisions from its fault draws — the regression guard for
/// injected delays re-minting the clock forward rather than leaning on
/// the event queue to reorder a backwards timestamp.
#[test]
fn fault_plan_churn_is_pinned() {
    let cfg = SimConfig {
        seed: 31,
        spawn_estcpu_jitter: 8.0,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(cfg);
    sim.enable_trace(1 << 20);
    let pids = spawn_mix(&mut sim, 8, 3);

    let mut plan = FaultPlan::seeded(0xFA57, FaultRates::chaotic());
    let mut rng = Lcg(0x0DD5_EED5);
    let mut deadline = Nanos::ZERO;
    let mut events_handled = 0;
    for slice in 1..=200u64 {
        // Monotonicity is load-bearing: a raw `now + jitter` can regress
        // between fires, and a regressed deadline would silently skip
        // the slice.
        let next = plan.jittered_now(Nanos::from_millis(100 * slice));
        assert!(next >= deadline, "jittered deadline regressed");
        deadline = next;
        events_handled += sim.run_until(deadline);
        let pid = pids[(rng.next() as usize) % pids.len()];
        if plan.lose_signal() {
            sim.sigstop(pid);
        }
        if plan.delay_signal() {
            sim.sigcont(pid);
        }
        if plan.exit_mid_quantum() {
            sim.terminate(pid);
        }
        sim.assert_index_consistent();
    }
    for &p in &pids {
        sim.sigcont(p);
    }
    events_handled += sim.run_until(deadline + Nanos::from_secs(1));
    sim.assert_index_consistent();

    assert!(plan.log().total() > 0, "chaotic plan never fired");
    assert!(
        plan.log().jittered_ticks > 0,
        "no deadline was ever jittered"
    );
    let got = fingerprint(&sim, &pids, events_handled);
    assert_pinned(got, 0xd7f1_2516_d7f5_9eb7, "fault-plan churn");
}
