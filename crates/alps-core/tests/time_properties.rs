//! Property tests for the `Nanos` time type.

use alps_core::Nanos;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn saturating_ops_never_wrap(a in any::<u64>(), b in any::<u64>()) {
        let (x, y) = (Nanos(a), Nanos(b));
        prop_assert_eq!(x.saturating_sub(y).as_nanos(), a.saturating_sub(b));
        prop_assert_eq!(x.saturating_add(y).as_nanos(), a.saturating_add(b));
    }

    #[test]
    fn float_views_agree(ns in 0u64..1u64 << 52) {
        let t = Nanos(ns);
        // Two f64 roundings each: tolerance is relative (~2^-51).
        let tol = 1.0 + t.as_f64() * 1e-15;
        prop_assert!((t.as_micros_f64() * 1e3 - t.as_f64()).abs() < tol);
        prop_assert!((t.as_millis_f64() * 1e6 - t.as_f64()).abs() < tol);
        prop_assert!((t.as_secs_f64() * 1e9 - t.as_f64()).abs() < tol);
    }

    #[test]
    fn duration_round_trip_is_exact(ns in any::<u64>()) {
        let t = Nanos(ns);
        let d: core::time::Duration = t.into();
        let back: Nanos = d.into();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn serde_round_trips(ns in any::<u64>()) {
        let t = Nanos(ns);
        let json = serde_json::to_string(&t).unwrap();
        // Transparent newtype: serializes as a bare integer.
        prop_assert_eq!(&json, &ns.to_string());
        let back: Nanos = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn mul_f64_is_monotone(ns in 0u64..1u64 << 40, k1 in 0.0f64..10.0, k2 in 0.0f64..10.0) {
        let t = Nanos(ns);
        let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
        prop_assert!(t.mul_f64(lo) <= t.mul_f64(hi));
    }
}
