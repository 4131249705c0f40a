//! The shared web server (§5).

use alps_core::Nanos;
use alps_sim::experiments::webserver::{run_webserver, WebParams};

use super::table::Table;
use super::Scale;
use crate::output::{fmt, heading};

/// §5: the shared web server.
pub fn websrv(scale: &Scale) {
    heading("§5: shared web server — throughput (req/s) per site");
    let p = WebParams {
        duration: Nanos::from_secs(scale.web_secs),
        ..WebParams::default()
    };
    let r = run_webserver(&p);
    let table = Table::new(&[-24, 8, 8, 8, 8]);
    table.header(&["configuration", "site A", "site B", "site C", "total"]);
    let total_b: f64 = r.baseline_rps.iter().sum();
    let total_a: f64 = r.alps_rps.iter().sum();
    table.row(&[
        "kernel scheduler alone".into(),
        fmt(r.baseline_rps[0], 1),
        fmt(r.baseline_rps[1], 1),
        fmt(r.baseline_rps[2], 1),
        fmt(total_b, 1),
    ]);
    table.row(&[
        "ALPS, shares {1,2,3}".into(),
        fmt(r.alps_rps[0], 1),
        fmt(r.alps_rps[1], 1),
        fmt(r.alps_rps[2], 1),
        fmt(total_a, 1),
    ]);
    println!(
        "\nALPS throughput fractions: {:.2}/{:.2}/{:.2}  [ideal 0.17/0.33/0.50]",
        r.alps_fractions[0], r.alps_fractions[1], r.alps_fractions[2]
    );
    println!(
        "request p50 latency (ms)  kernel: {}/{}/{}   ALPS: {}/{}/{}",
        fmt(r.baseline_p50_ms[0], 0),
        fmt(r.baseline_p50_ms[1], 0),
        fmt(r.baseline_p50_ms[2], 0),
        fmt(r.alps_p50_ms[0], 0),
        fmt(r.alps_p50_ms[1], 0),
        fmt(r.alps_p50_ms[2], 0)
    );
    println!(
        "request p95 latency (ms)  under ALPS: {}/{}/{}  (throttled sites trade latency for others' isolation)",
        fmt(r.alps_p95_ms[0], 0),
        fmt(r.alps_p95_ms[1], 0),
        fmt(r.alps_p95_ms[2], 0)
    );
    println!("ALPS overhead: {}%", fmt(r.overhead_pct, 2));
    println!("paper: {{29,30,40}} req/s without ALPS; {{18,35,53}} with ALPS.");
}
