//! Configuration for an ALPS scheduler instance.

use serde::{Deserialize, Serialize};

use crate::time::Nanos;

/// How ALPS accounts for a process it observes to be blocked (§2.4).
///
/// At user level ALPS cannot see block/wake events; it only notices, at a
/// measurement point, that a process currently sits on a wait channel. The
/// paper charges such a process exactly one quantum of its allowance (and
/// shortens the remaining cycle by one quantum), reasoning that the process
/// "gave up" its right to run for that period. Alternative policies are
/// provided for the ablation study (`repro io-policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum IoPolicy {
    /// The paper's policy: deduct one quantum from the allowance of a
    /// blocked process each time it is observed blocked, and shorten the
    /// cycle by one quantum.
    #[default]
    OneQuantumPenalty,
    /// Never penalize blocked processes. A process that blocks for a long
    /// time stalls the cycle: other processes exhaust their allowances and
    /// everyone waits for the sleeper to consume its share.
    NoPenalty,
    /// Forfeit the *entire remaining allowance* of a process the first time
    /// it is observed blocked in a cycle. More aggressive than the paper:
    /// reacts faster but over-penalizes processes that block briefly.
    ForfeitAllowance,
}

/// Configuration of one ALPS scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlpsConfig {
    /// The ALPS quantum `Q`: the period between scheduler invocations and
    /// the unit in which allowances are denominated. The paper evaluates
    /// 10–40 ms for synthetic workloads and 100 ms for the web server.
    pub quantum: Nanos,
    /// Enable the lazy-measurement optimization of §2.3: a process whose
    /// allowance is `a` quanta is not re-measured for `⌈a⌉` invocations.
    /// Disabling this yields the unoptimized baseline used in the §3.2
    /// ablation (every eligible process measured every quantum). Both
    /// find the due set on the same deadline wheel; this switch only sets
    /// how far ahead an eligible process's next measurement is filed.
    pub lazy_measurement: bool,
    /// Blocked-process accounting policy (§2.4).
    pub io_policy: IoPolicy,
    /// Keep the engine's per-cycle consumption log (the instrumentation
    /// the paper used for its accuracy evaluation, §3.1): at each cycle
    /// boundary the engine re-reads every fixed principal's member exactly
    /// and appends one record with an entry per principal. The bare
    /// scheduler keeps no log and ignores this switch.
    pub record_cycles: bool,
}

impl AlpsConfig {
    /// Configuration with the paper's defaults for a given quantum.
    pub fn new(quantum: Nanos) -> Self {
        AlpsConfig {
            quantum,
            lazy_measurement: true,
            io_policy: IoPolicy::OneQuantumPenalty,
            record_cycles: false,
        }
    }

    /// Builder-style choice of quantum.
    pub fn with_quantum(mut self, quantum: Nanos) -> Self {
        self.quantum = quantum;
        self
    }

    /// Builder-style switch for the §2.3 optimization.
    pub fn with_lazy_measurement(mut self, on: bool) -> Self {
        self.lazy_measurement = on;
        self
    }

    /// Builder-style choice of blocked-process policy.
    pub fn with_io_policy(mut self, policy: IoPolicy) -> Self {
        self.io_policy = policy;
        self
    }

    /// Builder-style switch for per-cycle logging.
    pub fn with_cycle_log(mut self, on: bool) -> Self {
        self.record_cycles = on;
        self
    }
}

impl Default for AlpsConfig {
    /// 10 ms quantum, optimization on — the paper's base configuration.
    fn default() -> Self {
        AlpsConfig::new(Nanos::from_millis(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = AlpsConfig::default();
        assert_eq!(cfg.quantum, Nanos::from_millis(10));
        assert!(cfg.lazy_measurement);
        assert_eq!(cfg.io_policy, IoPolicy::OneQuantumPenalty);
        assert!(!cfg.record_cycles);
    }

    #[test]
    fn builders() {
        let cfg = AlpsConfig::default()
            .with_quantum(Nanos::from_millis(40))
            .with_lazy_measurement(false)
            .with_io_policy(IoPolicy::NoPenalty)
            .with_cycle_log(true);
        assert_eq!(cfg.quantum, Nanos::from_millis(40));
        assert!(!cfg.lazy_measurement);
        assert_eq!(cfg.io_policy, IoPolicy::NoPenalty);
        assert!(cfg.record_cycles);
    }
}
