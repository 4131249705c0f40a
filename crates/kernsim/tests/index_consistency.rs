//! Property test: arbitrary `SIGSTOP`/`SIGCONT`/terminate sequences, fired
//! at arbitrary times into a mixed workload, must leave the pid→slot map,
//! the live index, and the ready queues exactly consistent with a
//! brute-force scan of every process's state
//! (`Sim::assert_index_consistent`).

use alps_core::Nanos;
use kernsim::{ComputeBound, ComputeThenSleep, Sim, SimConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn signal_churn_keeps_every_index_consistent(
        seed in 0u64..1_000,
        ops in proptest::collection::vec((0u8..4, 0usize..12, 1u64..120), 1..50),
    ) {
        let cfg = SimConfig {
            seed,
            spawn_estcpu_jitter: 4.0,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(cfg);
        let mut pids = Vec::new();
        for i in 0..8 {
            pids.push(sim.spawn(format!("cpu{i}"), Box::new(ComputeBound)));
        }
        for i in 0..4 {
            pids.push(sim.spawn(
                format!("io{i}"),
                Box::new(ComputeThenSleep::new(
                    Nanos::from_millis(30),
                    Nanos::from_millis(90),
                    Nanos::ZERO,
                )),
            ));
        }
        sim.assert_index_consistent();

        let mut t = Nanos::ZERO;
        for (op, target, dt_ms) in ops {
            t += Nanos::from_millis(dt_ms);
            sim.run_until(t);
            let pid = pids[target % pids.len()];
            match op {
                0 => sim.sigstop(pid),
                1 => sim.sigcont(pid),
                2 => sim.terminate(pid),
                _ => {} // just advance time
            }
            sim.assert_index_consistent();
        }

        // Drain the tail: revive everyone and run on; the machine must
        // still be internally consistent and conserve time.
        for &p in &pids {
            sim.sigcont(p);
        }
        let end = t + Nanos::from_secs(2);
        sim.run_until(end);
        sim.assert_index_consistent();
        let total: Nanos = pids
            .iter()
            .map(|&p| sim.proc(p).unwrap().cputime())
            .fold(Nanos::ZERO, |acc, c| acc + c);
        prop_assert_eq!(total + sim.idle_time(), end, "time conservation");
    }
}
