//! [`AlpsConfig`] and [`IoPolicy`] are part of the persisted experiment
//! surface (bench reports, repro manifests): every field and every policy
//! variant must survive a JSON round trip unchanged.

use alps_core::prelude::*;
use alps_core::IoPolicy;

#[test]
fn io_policy_round_trips_every_variant() {
    for policy in [
        IoPolicy::OneQuantumPenalty,
        IoPolicy::NoPenalty,
        IoPolicy::ForfeitAllowance,
    ] {
        let json = serde_json::to_string(&policy).expect("serialize");
        let back: IoPolicy = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(policy, back, "via {json}");
    }
}

#[test]
fn alps_config_round_trips_all_fields() {
    for policy in [
        IoPolicy::OneQuantumPenalty,
        IoPolicy::NoPenalty,
        IoPolicy::ForfeitAllowance,
    ] {
        for lazy in [false, true] {
            for cycles in [false, true] {
                let cfg = AlpsConfig::new(Nanos::from_millis(40))
                    .with_io_policy(policy)
                    .with_lazy_measurement(lazy)
                    .with_cycle_log(cycles);
                let json = serde_json::to_string(&cfg).expect("serialize");
                let back: AlpsConfig = serde_json::from_str(&json).expect("deserialize");
                assert_eq!(cfg, back, "via {json}");
            }
        }
    }
}

#[test]
fn default_config_survives_with_quantum_builder() {
    let cfg = AlpsConfig::default().with_quantum(Nanos::from_millis(100));
    assert_eq!(cfg.quantum, Nanos::from_millis(100));
    let back: AlpsConfig = serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
    assert_eq!(cfg, back);
}

#[test]
fn config_json_from_before_the_due_index_and_member_store_knobs_were_removed_still_loads() {
    let old = r#"{"quantum":10000000,"lazy_measurement":true,"io_policy":"OneQuantumPenalty","due_index":"Wheel","record_cycles":false,"cpus":1,"member_store":"Chunked"}"#;
    let cfg: AlpsConfig = serde_json::from_str(old).expect("extra keys are ignored");
    assert_eq!(cfg, AlpsConfig::default());
    // A machine size was once part of the config; it loads as the four
    // fields that remain.
    let smp = r#"{"quantum":20000000,"lazy_measurement":false,"io_policy":"NoPenalty","record_cycles":true,"cpus":4}"#;
    let cfg: AlpsConfig = serde_json::from_str(smp).expect("extra keys are ignored");
    assert_eq!(
        cfg,
        AlpsConfig::new(Nanos::from_millis(20))
            .with_lazy_measurement(false)
            .with_io_policy(IoPolicy::NoPenalty)
            .with_cycle_log(true)
    );
}
