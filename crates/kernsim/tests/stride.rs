//! Tests of the in-kernel stride scheduling policy (the baseline
//! comparator of `repro baseline`; Waldspurger & Weihl, the paper's
//! reference [26]).

use alps_core::Nanos;
use kernsim::{Behavior, ComputeBound, KernelPolicy, Sim, SimConfig, SimCtl, Step};

fn stride_sim() -> Sim {
    Sim::new(SimConfig {
        policy: KernelPolicy::Stride,
        ..SimConfig::default()
    })
}

#[test]
fn tickets_apportion_cpu_exactly() {
    let mut sim = stride_sim();
    let a = sim.spawn_tickets("a", 1, Box::new(ComputeBound));
    let b = sim.spawn_tickets("b", 2, Box::new(ComputeBound));
    let c = sim.spawn_tickets("c", 3, Box::new(ComputeBound));
    sim.run_until(Nanos::from_secs(12));
    let (ca, cb, cc) = (
        sim.proc(a).unwrap().cputime().as_secs_f64(),
        sim.proc(b).unwrap().cputime().as_secs_f64(),
        sim.proc(c).unwrap().cputime().as_secs_f64(),
    );
    // In-kernel stride is deterministic: ratios accurate to within one
    // tick per process over the whole run.
    assert!((ca - 2.0).abs() < 0.05, "a {ca}");
    assert!((cb - 4.0).abs() < 0.05, "b {cb}");
    assert!((cc - 6.0).abs() < 0.05, "c {cc}");
}

#[test]
fn equal_tickets_fair_and_work_conserving() {
    let mut sim = stride_sim();
    let pids: Vec<_> = (0..5)
        .map(|i| sim.spawn_tickets(format!("w{i}"), 7, Box::new(ComputeBound)))
        .collect();
    sim.run_until(Nanos::from_secs(10));
    assert_eq!(sim.idle_time(), Nanos::ZERO);
    for &p in &pids {
        let c = sim.proc(p).unwrap().cputime().as_secs_f64();
        assert!(
            (c - 2.0).abs() < 0.05,
            "{}: {c}",
            sim.proc(p).unwrap().name()
        );
    }
}

#[test]
fn sleeper_rejoins_at_global_pass_without_hoarding() {
    struct NapThenSpin {
        napped: bool,
    }
    impl Behavior for NapThenSpin {
        fn on_ready(&mut self, _: &mut SimCtl<'_>) -> Step {
            if self.napped {
                Step::ComputeForever
            } else {
                self.napped = true;
                Step::Sleep(Nanos::from_secs(5))
            }
        }
    }
    let mut sim = stride_sim();
    let spinner = sim.spawn_tickets("spin", 1, Box::new(ComputeBound));
    let napper = sim.spawn_tickets("nap", 1, Box::new(NapThenSpin { napped: false }));
    sim.run_until(Nanos::from_secs(15));
    // The napper slept 5s; if it kept its low pass it would monopolize the
    // CPU afterwards to "catch up". The re-join rule forbids that: from
    // t=5s they split evenly, so spinner ≈ 5+5 = 10s, napper ≈ 5s.
    let cs = sim.proc(spinner).unwrap().cputime().as_secs_f64();
    let cn = sim.proc(napper).unwrap().cputime().as_secs_f64();
    assert!((cs - 10.0).abs() < 0.2, "spinner {cs}");
    assert!((cn - 5.0).abs() < 0.2, "napper {cn}");
}

#[test]
fn late_joiner_starts_at_global_pass() {
    let mut sim = stride_sim();
    let a = sim.spawn_tickets("a", 1, Box::new(ComputeBound));
    sim.run_until(Nanos::from_secs(5));
    let b = sim.spawn_tickets("b", 1, Box::new(ComputeBound));
    sim.run_until(Nanos::from_secs(15));
    // b must not replay a's 5s head start: from t=5 they split evenly.
    let cb = sim.proc(b).unwrap().cputime().as_secs_f64();
    assert!((cb - 5.0).abs() < 0.2, "b {cb}");
    assert!((sim.proc(a).unwrap().cputime().as_secs_f64() - 10.0).abs() < 0.2);
}

#[test]
fn job_control_works_under_stride() {
    let mut sim = stride_sim();
    let a = sim.spawn_tickets("a", 1, Box::new(ComputeBound));
    let b = sim.spawn_tickets("b", 1, Box::new(ComputeBound));
    sim.run_until(Nanos::from_secs(2));
    sim.sigstop(a);
    let frozen = sim.proc(a).unwrap().cputime();
    sim.run_until(Nanos::from_secs(4));
    assert_eq!(sim.proc(a).unwrap().cputime(), frozen);
    sim.sigcont(a);
    sim.run_until(Nanos::from_secs(8));
    assert!(sim.proc(a).unwrap().cputime() > frozen);
    // Time is still conserved.
    assert_eq!(
        sim.proc(a).unwrap().cputime() + sim.proc(b).unwrap().cputime() + sim.idle_time(),
        Nanos::from_secs(8)
    );
}

mod stride_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Stride delivers ticket-proportional CPU for arbitrary ticket
        /// vectors, to within a couple of ticks per process.
        #[test]
        fn tickets_proportional_for_arbitrary_vectors(
            tickets in proptest::collection::vec(1u64..20, 2..7),
        ) {
            let mut sim = stride_sim();
            let pids: Vec<_> = tickets
                .iter()
                .enumerate()
                .map(|(i, &t)| sim.spawn_tickets(format!("w{i}"), t, Box::new(ComputeBound)))
                .collect();
            let horizon = Nanos::from_secs(30);
            sim.run_until(horizon);
            let total_tickets: u64 = tickets.iter().sum();
            for (&p, &t) in pids.iter().zip(&tickets) {
                let want = horizon.as_secs_f64() * t as f64 / total_tickets as f64;
                let got = sim.proc(p).unwrap().cputime().as_secs_f64();
                prop_assert!(
                    (got - want).abs() < 0.15,
                    "tickets {}: got {:.3}s want {:.3}s",
                    t, got, want
                );
            }
        }
    }
}
