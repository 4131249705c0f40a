//! Pinned output of the §5 web-server experiment.
//!
//! `run_webserver` is the one experiment that drives the simulator's group
//! path (`spawn_alps_principals`: per-user principals refreshed once a
//! second, with the refresh's stop/continue reconciliation). The other
//! pins run fixed processes only, so this one holds the group path to
//! what it did when the constant was committed: every `f64` of the result,
//! by bit pattern. A moved pin means a scheduling decision or a signal in
//! the group path changed; the failure prints the new value.

use alps_core::Nanos;
use alps_sim::experiments::webserver::{run_webserver, WebParams, WebResult};

/// FNV-1a over the little-endian bytes of every `f64` in `r`.
fn fingerprint(r: &WebResult) -> u64 {
    let words = (r.baseline_rps.iter())
        .chain(&r.alps_rps)
        .chain([&r.overhead_pct])
        .chain(&r.alps_fractions)
        .chain(&r.baseline_p50_ms)
        .chain(&r.alps_p50_ms)
        .chain(&r.alps_p95_ms);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for x in words {
        for byte in x.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn the_web_server_experiment_is_pinned() {
    // The unit tests' quick parameters (`experiments::webserver`).
    let p = WebParams {
        workers_per_site: 15,
        active_per_site: 6,
        duration: Nanos::from_secs(25),
        warmup: Nanos::from_secs(3),
        ..WebParams::default()
    };
    let got = fingerprint(&run_webserver(&p));
    assert_eq!(
        got, 0x5629_914e_ee0c_1528,
        "web-server result moved — got {got:#018x}"
    );
}
