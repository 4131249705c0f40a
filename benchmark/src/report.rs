//! Metric names and units, and the result a run prints.
//!
//! `BENCHMARK.json` lists the same names; `tests::names_match_the_contract`
//! holds the two together.

use std::collections::BTreeMap;

/// The four workloads, in the order they are reported.
pub const WORKLOADS: [&str; 4] = ["os-eager-256", "os-churn-256", "core-mix-4k", "sim-paper"];

/// What the driver passes as `--seconds`; work scales from this.
pub const RUN_SECONDS: u64 = 20;

/// Every workload reports all four (`--trace 0`). The cost of enrolling
/// one member was a fifth and is still measured and printed by every run,
/// but the A/A study could not bring it within any bound (AA.md), so it is
/// a per-layer metric only (`os.supervisor.add_us`, `core.add_member_us`,
/// `sim.spawn_us`); `setup_s` is N enrolments and gates the same code.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("quantum_cpu_us_p50", "us"),
    ("on_time_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// The cost ledger (`--trace 1`). A layer a workload never enters reports 0
/// there: no calls, no time.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("core.begin_us", "us"),
    ("core.complete_self_us", "us"),
    ("core.apply_self_us", "us"),
    ("core.boundary_quantum_us", "us"),
    ("core.add_member_us", "us"),
    ("core.remove_principal_us", "us"),
    ("core.due_per_quantum", "1/quantum"),
    ("core.transitions_per_quantum", "1/quantum"),
    ("core.cycles", "count"),
    ("core.allocs_per_quantum", "1/quantum"),
    ("core.bytes_per_member", "B"),
    ("core.quantum_us_100k", "us"),
    ("os.proc.read_us", "us"),
    ("os.proc.reads_per_quantum", "1/quantum"),
    ("os.signal.kill_us", "us"),
    ("os.signal.kills_per_quantum", "1/quantum"),
    ("os.pidfd.wait_us", "us"),
    ("os.pidfd.watch_us", "us"),
    ("os.clock.wake_late_us_p50", "us"),
    ("os.clock.wake_late_us_p99", "us"),
    ("os.substrate.read_batch_us", "us"),
    ("os.substrate.apply_batch_us", "us"),
    ("os.supervisor.self_us", "us"),
    ("os.supervisor.add_us", "us"),
    ("os.supervisor.remove_us", "us"),
    ("os.syscalls_per_quantum_est", "1/quantum"),
    ("os.allocs_per_quantum", "1/quantum"),
    ("os.quantum_cpu_us_p99", "us"),
    ("os.overruns", "count"),
    ("os.cycle_log_mb", "MB"),
    ("sim.kernel_only_us_per_sim_s", "us/s"),
    ("sim.supervised_us_per_sim_s", "us/s"),
    ("sim.alps_share_pct", "%"),
    ("sim.events_per_sim_s", "1/s"),
    ("sim.context_switches", "count"),
    ("sim.spawn_us", "us"),
    ("sim.metrics_us", "us"),
    ("sim.share_err_rms_pct_mean", "%"),
    ("sim.overhead_pct_n100", "%"),
    ("sim.serviced_pct_n120", "%"),
    ("bench.spawn_children_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.traced_quantum_cpu_us_p50", "us"),
    ("bench.untraced_quantum_cpu_us_p50", "us"),
    ("bench.clock_cost_ns", "ns"),
    ("bench.spans", "count"),
    ("bench.ledger_quanta", "count"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Quanta, enrolments and removals attempted.
    pub attempted: u64,
    /// Those that returned an error, plus failed correctness checks.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the human reader, printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(&PER_LAYER).any(|&(n, _)| n == name);
        assert!(known, "metric {name} is not in the contract");
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.insert(name, value);
    }

    /// Record a failed correctness check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {what}"));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line the driver reads: exactly the metrics of `table`.
    pub fn result_json(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Print notes, then each metric by name with its unit, then the result
    /// line.
    pub fn print(&self, workload: &str, table: &[(&'static str, &'static str)]) {
        for line in &self.notes {
            println!("{line}");
        }
        for &(name, unit) in table {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            println!("{workload} {name} = {v:.4} {unit}");
        }
        println!(
            "{workload} ops_attempted = {} ops_failed = {}",
            self.attempted, self.failed
        );
        println!("{}", self.result_json(table));
    }
}

/// Pull `"name": {"value": V` out of a result line (the A/A study reads its
/// children's output with this; no JSON parser in the dependency set).
pub fn metric_in(result: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result[result.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Pull an integer field such as `"failed": 3` out of a result line.
pub fn field_in(result: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\": ");
    let rest = &result[result.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = contract.find(&format!("\"{key}\"")).expect(key);
            let rest = &contract[start..];
            rest[..rest.find(']').expect("closing bracket")].to_string()
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let text = section(key);
            assert_eq!(
                text.matches("\"name\"").count(),
                table.len(),
                "{key} length"
            );
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(text.contains(&entry), "{key} lacks {entry}");
            }
        }
        let workloads = section("workloads");
        assert_eq!(workloads.matches("\"name\"").count(), WORKLOADS.len());
        for w in WORKLOADS {
            assert!(workloads.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        assert!(contract.contains(&format!("\"run_seconds\": {RUN_SECONDS}")));
    }

    #[test]
    fn result_line_round_trips() {
        let mut o = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        o.set("setup_s", 0.0123456789);
        o.set("on_time_pct", 100.0);
        let line = o.result_json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0,"));
        assert_eq!(metric_in(&line, "setup_s"), Some(0.0123456789));
        assert_eq!(metric_in(&line, "on_time_pct"), Some(100.0));
        assert_eq!(metric_in(&line, "peak_rss_mb"), Some(0.0));
        assert_eq!(field_in(&line, "attempted"), Some(12));
        o.fail("x".into());
        assert!(o
            .result_json(&END_TO_END)
            .starts_with("{\"correct\": false"));
    }
}
