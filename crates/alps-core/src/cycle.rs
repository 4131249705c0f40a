//! Per-cycle consumption records.
//!
//! The paper's accuracy evaluation (§3.1) instruments ALPS "to record a log
//! of the CPU time consumed by each process in every cycle". [`CycleRecord`]
//! is that log entry; `alps-metrics` turns a sequence of them into the RMS
//! relative-error statistic of Figure 4 and the per-cycle share percentages
//! of Figure 6.

use serde::{Deserialize, Serialize};

use crate::sched::ProcId;
use crate::time::Nanos;

/// One process's consumption within one completed cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleEntry {
    /// The process.
    pub id: ProcId,
    /// Its share at the time the cycle completed.
    pub share: u64,
    /// CPU time consumed this cycle: the difference between exact
    /// cumulative readings at this boundary and the previous one (for a
    /// group, the CPU charged to it in between).
    pub consumed: Nanos,
}

impl CycleEntry {
    /// This process's fraction of the cycle's total consumption, as a
    /// percentage (the y-axis of Figure 6). Zero if nothing was consumed.
    pub fn share_percent(&self, total: Nanos) -> f64 {
        if total == Nanos::ZERO {
            0.0
        } else {
            100.0 * self.consumed.as_f64() / total.as_f64()
        }
    }

    /// The CPU time this process *should* have received this cycle:
    /// `share / S × total consumed`.
    pub fn ideal(&self, total_shares: u64, total: Nanos) -> f64 {
        if total_shares == 0 {
            0.0
        } else {
            self.share as f64 / total_shares as f64 * total.as_f64()
        }
    }

    /// Relative error of actual vs ideal consumption for this cycle:
    /// `(actual − ideal) / ideal`. Returns 0 when the ideal is zero.
    pub fn relative_error(&self, total_shares: u64, total: Nanos) -> f64 {
        let ideal = self.ideal(total_shares, total);
        if ideal == 0.0 {
            0.0
        } else {
            (self.consumed.as_f64() - ideal) / ideal
        }
    }
}

/// A completed ALPS cycle: who consumed what.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleRecord {
    /// Zero-based index of the cycle.
    pub index: u64,
    /// Backend wall-clock time at which the cycle-completing invocation ran.
    pub completed_at: Nanos,
    /// Total shares `S` when the cycle completed.
    pub total_shares: u64,
    /// Total CPU consumed by all processes during the cycle.
    pub total_consumed: Nanos,
    /// Per-process breakdown, in process-slot order.
    pub entries: Vec<CycleEntry>,
}

impl CycleRecord {
    /// Consumption of a given process in this cycle, if recorded.
    pub fn consumed_by(&self, id: ProcId) -> Option<Nanos> {
        self.entries.iter().find(|e| e.id == id).map(|e| e.consumed)
    }

    /// Root-mean-square of the per-process relative errors in this cycle —
    /// the paper's per-cycle accuracy statistic.
    pub fn rms_relative_error(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let sum_sq: f64 = self
            .entries
            .iter()
            .map(|e| {
                let re = e.relative_error(self.total_shares, self.total_consumed);
                re * re
            })
            .sum();
        (sum_sq / self.entries.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlpsConfig;
    use crate::sched::AlpsScheduler;

    fn ids(n: usize) -> (AlpsScheduler, Vec<ProcId>) {
        let mut s = AlpsScheduler::new(AlpsConfig::default());
        let ids = (0..n).map(|_| s.add_process(1, Nanos::ZERO)).collect();
        (s, ids)
    }

    fn record(shares: &[u64], consumed_ms: &[u64]) -> CycleRecord {
        let (_, ids) = ids(shares.len());
        let entries: Vec<_> = shares
            .iter()
            .zip(consumed_ms)
            .zip(&ids)
            .map(|((&share, &ms), &id)| CycleEntry {
                id,
                share,
                consumed: Nanos::from_millis(ms),
            })
            .collect();
        let total = entries.iter().map(|e| e.consumed).sum();
        CycleRecord {
            index: 0,
            completed_at: Nanos::ZERO,
            total_shares: shares.iter().sum(),
            total_consumed: total,
            entries,
        }
    }

    #[test]
    fn perfect_cycle_has_zero_error() {
        let rec = record(&[1, 2, 3], &[10, 20, 30]);
        assert!(rec.rms_relative_error().abs() < 1e-12);
        for e in &rec.entries {
            assert!(e.relative_error(rec.total_shares, rec.total_consumed).abs() < 1e-12);
        }
    }

    #[test]
    fn share_percent_sums_to_hundred() {
        let rec = record(&[1, 2, 3], &[7, 23, 30]);
        let sum: f64 = rec
            .entries
            .iter()
            .map(|e| e.share_percent(rec.total_consumed))
            .sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn known_rms_value() {
        // Shares 1:1, consumption 15 and 5 of a 20 total. Ideal 10 each.
        // Relative errors +0.5 and -0.5; RMS = 0.5.
        let rec = record(&[1, 1], &[15, 5]);
        assert!((rec.rms_relative_error() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_cycle_is_zero_error() {
        let rec = record(&[1, 1], &[0, 0]);
        assert_eq!(rec.rms_relative_error(), 0.0);
        assert_eq!(rec.entries[0].share_percent(rec.total_consumed), 0.0);
    }

    #[test]
    fn consumed_by_lookup() {
        let rec = record(&[1, 2], &[4, 6]);
        let id0 = rec.entries[0].id;
        assert_eq!(rec.consumed_by(id0), Some(Nanos::from_millis(4)));
    }
}
