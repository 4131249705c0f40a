//! Property-based tests of the ALPS core invariants.
//!
//! A synthetic backend drives the scheduler with arbitrary (but
//! physically plausible) consumption patterns: each quantum, the CPU
//! distributes at most one quantum of time among the *eligible* processes
//! with random weights, mirroring the constraint a real kernel imposes.
//! The properties then check the three pillars of the algorithm:
//!
//! 1. **conservation** — `Σ allowanceᵢ ≥ t_c / Q − ε` at all times (the
//!    liveness invariant; equality modulo removals);
//! 2. **eligibility consistency** — after every invocation, a process is
//!    in the eligible group iff its allowance is positive;
//! 3. **long-run fairness** — over any window of completed cycles, each
//!    process's consumption tracks `share/S` of the total within
//!    quantum-granularity error bounds.

use alps_core::{AlpsConfig, AlpsScheduler, IoPolicy, Nanos, Observation, ProcId};
use proptest::prelude::*;

const Q_NS: u64 = 10_000_000; // 10 ms quantum for all properties

#[derive(Debug, Clone)]
struct ProcModel {
    id: ProcId,
    share: u64,
    /// "True" cumulative CPU the backend believes this process consumed.
    cpu: Nanos,
    /// Whether the process reports blocked when measured.
    blocked: bool,
}

/// One simulated quantum: split `busy_frac` of a quantum among eligible
/// processes with the given weights, then run the scheduler invocation.
fn step(sched: &mut AlpsScheduler, procs: &mut [ProcModel], weights: &[u8], busy_frac: f64) {
    let eligible: Vec<usize> = procs
        .iter()
        .enumerate()
        .filter(|(_, p)| sched.is_eligible(p.id) == Some(true))
        .map(|(i, _)| i)
        .collect();
    let wsum: f64 = eligible
        .iter()
        .map(|&i| f64::from(weights[i % weights.len()]) + 1.0)
        .sum();
    if wsum > 0.0 {
        let budget = Q_NS as f64 * busy_frac;
        for &i in &eligible {
            let w = f64::from(weights[i % weights.len()]) + 1.0;
            let share_ns = (budget * w / wsum) as u64;
            if !procs[i].blocked {
                procs[i].cpu += Nanos(share_ns);
            }
        }
    }
    let due = sched.begin_quantum();
    let obs: Vec<(ProcId, Observation)> = due
        .iter()
        .filter_map(|&id| {
            procs.iter().find(|p| p.id == id).map(|p| {
                (
                    id,
                    Observation {
                        total_cpu: p.cpu,
                        blocked: p.blocked,
                    },
                )
            })
        })
        .collect();
    let out = sched.complete_quantum(&obs);
    // Eligibility consistency after every invocation.
    for p in procs.iter() {
        let eligible = sched.is_eligible(p.id).expect("live process");
        let allowance = sched.allowance(p.id).expect("live process");
        assert_eq!(
            eligible,
            allowance > 0.0,
            "process {:?}: eligible={eligible} allowance={allowance}",
            p.id
        );
    }
    // Transitions refer only to live processes.
    for t in &out.transitions {
        assert!(procs.iter().any(|p| p.id == t.proc_id()));
    }
}

fn conservation_holds(sched: &AlpsScheduler, procs: &[ProcModel]) {
    let sum: f64 = procs.iter().filter_map(|p| sched.allowance(p.id)).sum();
    let tc_quanta = sched.cycle_time_remaining() / Q_NS as f64;
    assert!(
        sum >= tc_quanta - 1e-6,
        "conservation violated: sum allowances {sum} < tc/Q {tc_quanta}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation + eligibility + no-stall under arbitrary consumption.
    #[test]
    fn invariants_under_arbitrary_consumption(
        shares in proptest::collection::vec(1u64..20, 1..8),
        weights in proptest::collection::vec(0u8..255, 8),
        busy in proptest::collection::vec(0.0f64..1.0, 200),
    ) {
        let mut sched = AlpsScheduler::new(AlpsConfig::new(Nanos(Q_NS)));
        let mut procs: Vec<ProcModel> = shares
            .iter()
            .map(|&share| ProcModel {
                id: sched.add_process(share, Nanos::ZERO),
                share,
                cpu: Nanos::ZERO,
                blocked: false,
            })
            .collect();
        let mut stall = 0u32;
        for &b in &busy {
            step(&mut sched, &mut procs, &weights, b);
            conservation_holds(&sched, &procs);
            let any_eligible = procs
                .iter()
                .any(|p| sched.is_eligible(p.id) == Some(true));
            if any_eligible {
                stall = 0;
            } else {
                stall += 1;
                prop_assert!(stall <= 2, "no eligible process for {stall} quanta");
            }
        }
        let _ = procs;
    }

    /// Long-run fairness: consumption proportions converge to share
    /// proportions when every eligible process greedily consumes.
    #[test]
    fn long_run_fairness(
        shares in proptest::collection::vec(1u64..10, 2..6),
        weights in proptest::collection::vec(0u8..255, 8),
    ) {
        let mut sched = AlpsScheduler::new(AlpsConfig::new(Nanos(Q_NS)));
        let mut procs: Vec<ProcModel> = shares
            .iter()
            .map(|&share| ProcModel {
                id: sched.add_process(share, Nanos::ZERO),
                share,
                cpu: Nanos::ZERO,
                blocked: false,
            })
            .collect();
        // Run long enough for several cycles: cycle = S quanta of CPU and
        // the backend is fully busy.
        let total_shares: u64 = shares.iter().sum();
        let quanta = (total_shares * 12) as usize;
        for _ in 0..quanta {
            step(&mut sched, &mut procs, &weights, 1.0);
        }
        let cycles = sched.cycles_completed();
        prop_assert!(cycles >= 3, "expected several cycles, got {cycles}");
        let total: f64 = procs.iter().map(|p| p.cpu.as_f64()).sum();
        for p in &procs {
            let want = total * p.share as f64 / total_shares as f64;
            let got = p.cpu.as_f64();
            // Per-process deviation is bounded by a few quanta of carry
            // plus startup transient, not proportional to runtime.
            let slack = 4.0 * Q_NS as f64 + 0.15 * want;
            prop_assert!(
                (got - want).abs() <= slack,
                "share {}: got {:.1}ms want {:.1}ms (total {:.1}ms)",
                p.share,
                got / 1e6,
                want / 1e6,
                total / 1e6
            );
        }
    }

    /// Blocked processes under the paper's policy neither stall the cycle
    /// nor panic the scheduler, for arbitrary block patterns.
    #[test]
    fn blocked_patterns_never_stall(
        shares in proptest::collection::vec(1u64..8, 2..6),
        block_mask in proptest::collection::vec(any::<bool>(), 2..6),
        weights in proptest::collection::vec(0u8..255, 8),
    ) {
        let mut sched = AlpsScheduler::new(
            AlpsConfig::new(Nanos(Q_NS)).with_io_policy(IoPolicy::OneQuantumPenalty),
        );
        let mut procs: Vec<ProcModel> = shares
            .iter()
            .enumerate()
            .map(|(i, &share)| ProcModel {
                id: sched.add_process(share, Nanos::ZERO),
                share,
                cpu: Nanos::ZERO,
                blocked: *block_mask.get(i).unwrap_or(&false),
            })
            .collect();
        // Ensure at least one process can make progress.
        if procs.iter().all(|p| p.blocked) {
            procs[0].blocked = false;
        }
        let total_shares: u64 = shares.iter().sum();
        let before = sched.cycles_completed();
        // A persistently blocked process with share s takes up to
        // s + (s-1) + ... + 1 quanta of lazy-measurement penalties to burn
        // its allowance, so budget quadratically in the largest share.
        let max_share = *shares.iter().max().unwrap();
        let quanta = (total_shares + max_share * max_share) as usize * 8;
        for _ in 0..quanta {
            step(&mut sched, &mut procs, &weights, 1.0);
            conservation_holds(&sched, &procs);
        }
        // Cycles keep completing even with persistent blockers.
        prop_assert!(sched.cycles_completed() > before + 2);
        // Blocked processes consumed nothing; runnable ones did.
        for p in &procs {
            if p.blocked {
                prop_assert_eq!(p.cpu, Nanos::ZERO);
            }
        }
    }

    /// Dynamic membership: adds, removes, and share changes never violate
    /// conservation or stall the scheduler.
    #[test]
    fn membership_churn_is_safe(
        ops in proptest::collection::vec((0u8..4, 1u64..10), 30..120),
        weights in proptest::collection::vec(0u8..255, 8),
    ) {
        let mut sched = AlpsScheduler::new(AlpsConfig::new(Nanos(Q_NS)));
        let mut procs: Vec<ProcModel> = Vec::new();
        for (op, arg) in ops {
            match op {
                0 => {
                    // add
                    if procs.len() < 10 {
                        let id = sched.add_process(arg, Nanos::ZERO);
                        procs.push(ProcModel { id, share: arg, cpu: Nanos::ZERO, blocked: false });
                    }
                }
                1 => {
                    // remove
                    if procs.len() > 1 {
                        let idx = (arg as usize) % procs.len();
                        let p = procs.remove(idx);
                        prop_assert!(sched.remove_process(p.id).is_some());
                    }
                }
                2 => {
                    // set share
                    if !procs.is_empty() {
                        let idx = (arg as usize) % procs.len();
                        let id = procs[idx].id;
                        sched.set_share(id, arg).unwrap();
                        procs[idx].share = arg;
                    }
                }
                _ => {
                    // run a quantum
                    if !procs.is_empty() {
                        step(&mut sched, &mut procs, &weights, 0.9);
                        conservation_holds(&sched, &procs);
                    }
                }
            }
            prop_assert_eq!(sched.len(), procs.len());
            let want_total: u64 = procs.iter().map(|p| p.share).sum();
            prop_assert_eq!(sched.total_shares(), want_total);
        }
    }

    /// Stale ids are always rejected, never misdirected, after arbitrary
    /// slot churn.
    #[test]
    fn stale_ids_never_resolve(
        churn in 1usize..20,
    ) {
        let mut sched = AlpsScheduler::new(AlpsConfig::new(Nanos(Q_NS)));
        let first = sched.add_process(1, Nanos::ZERO);
        sched.remove_process(first);
        let mut later = Vec::new();
        for i in 0..churn {
            let id = sched.add_process(i as u64 + 1, Nanos::ZERO);
            later.push(id);
            if i % 2 == 0 {
                sched.remove_process(id);
            }
        }
        prop_assert!(sched.allowance(first).is_none());
        prop_assert!(sched.share(first).is_none());
        prop_assert!(sched.remove_process(first).is_none());
        prop_assert!(sched.set_share(first, 5).is_err());
    }
}
