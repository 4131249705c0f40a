//! Property tests for the `/proc/<pid>/stat` parser: arbitrary input never
//! panics, and well-formed lines round-trip the fields ALPS reads.

use alps_os::proc::{parse_stat, parse_stat_bytes};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parser is total: any string returns Ok or Err, never panics.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = parse_stat(1, &input, 10_000_000);
    }

    /// Well-formed stat lines round-trip state/utime/stime, whatever the
    /// comm field contains (spaces, parens, unicode).
    #[test]
    fn well_formed_lines_round_trip(
        comm in "[a-zA-Z ()<>._-]{1,32}",
        state in prop::sample::select(vec!['R', 'S', 'D', 'T', 'Z', 'I', 'X']),
        utime in 0u64..1_000_000,
        stime in 0u64..1_000_000,
        trailing in 0usize..20,
    ) {
        let tail: String = (0..trailing).map(|i| format!(" {i}")).collect();
        let line = format!(
            "1234 ({comm}) {state} 1 2 3 4 -5 6 7 8 9 10 {utime} {stime} 0 0 20 0 1 0 0 0 0{tail}"
        );
        let s = parse_stat(1234, &line, 10_000_000).expect("well-formed");
        prop_assert_eq!(s.state, state);
        prop_assert_eq!(s.cpu_time.as_nanos(), (utime + stime) * 10_000_000);
        prop_assert_eq!(s.blocked(), matches!(state, 'S' | 'D'));
        prop_assert_eq!(s.dead(), matches!(state, 'Z' | 'X'));
    }

    /// Truncated well-formed lines fail cleanly rather than mis-parsing.
    #[test]
    fn truncation_fails_cleanly(cut in 0usize..40) {
        let full = "1 (x) R 1 2 3 4 -5 6 7 8 9 10 11 12 0 0 20 0 1 0 0 0 0";
        let line = &full[..cut.min(full.len())];
        // Either a clean error or (with enough fields) a successful parse;
        // never a panic, never bogus negatives.
        if let Ok(s) = parse_stat(1, line, 1) {
            prop_assert_eq!(s.pid, 1);
        }
    }

    /// Dropping whole fields from the tail (not just truncating bytes)
    /// either parses with the fields intact or errors cleanly.
    #[test]
    fn missing_fields_fail_cleanly(keep in 0usize..25) {
        let fields = ["R", "1", "2", "3", "4", "-5", "6", "7", "8", "9", "10",
                      "11", "12", "0", "0", "20", "0", "1", "0", "0", "0", "0"];
        let line = format!("7 (x) {}", fields[..keep.min(fields.len())].join(" "));
        match parse_stat(7, &line, 10_000_000) {
            // 13 post-comm fields (state through stime) are the minimum.
            Ok(s) => {
                prop_assert!(keep >= 13);
                prop_assert_eq!(s.state, 'R');
                prop_assert_eq!(s.cpu_time.as_nanos(), 23 * 10_000_000);
            }
            Err(_) => prop_assert!(keep < 13),
        }
    }

    /// An adversarial comm full of `)`/`(`/spaces — a process really can
    /// be named `) R 0 0 0` — must not shift the field anchor: the parse
    /// keys on the *last* closing paren.
    #[test]
    fn hostile_comm_never_confuses_fields(
        comm in "[() RSDZT0-9]{1,48}",
        utime in 0u64..1_000_000,
        stime in 0u64..1_000_000,
    ) {
        let line = format!(
            "42 ({comm}) S 1 2 3 4 -5 6 7 8 9 10 {utime} {stime} 0 0 20 0 1 0 0 0 0"
        );
        let s = parse_stat(42, &line, 1_000_000).expect("comm is quoted by the last paren");
        prop_assert_eq!(s.state, 'S');
        prop_assert_eq!(s.cpu_time.as_nanos(), (utime + stime) * 1_000_000);
    }

    /// Huge tick counts (up to u64::MAX) saturate instead of overflowing —
    /// a hostile or corrupt stat line must clamp, not panic.
    #[test]
    fn huge_values_saturate(
        utime in prop::sample::select(vec![0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX]),
        stime in prop::sample::select(vec![0u64, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX]),
        tick in prop::sample::select(vec![1u64, 10_000_000, u64::MAX]),
    ) {
        let line = format!(
            "9 (big) R 1 2 3 4 -5 6 7 8 9 10 {utime} {stime} 0 0 20 0 1 0 0 0 0"
        );
        let s = parse_stat(9, &line, tick).expect("huge values still parse");
        prop_assert_eq!(
            s.cpu_time.as_nanos(),
            utime.saturating_add(stime).saturating_mul(tick)
        );
    }

    /// Arbitrary token soup after a valid comm never panics.
    #[test]
    fn post_comm_garbage_never_panics(
        tokens in prop::collection::vec("[a-zA-Z0-9()+.-]{1,8}", 0..30),
    ) {
        let line = format!("3 (x) {}", tokens.join(" "));
        let _ = parse_stat(3, &line, 10_000_000);
    }

    /// The byte parser is total too: any bytes return Ok or Err.
    #[test]
    fn byte_parser_never_panics(input in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = parse_stat_bytes(1, &input, 10_000_000);
    }

    /// `comm` is whatever sixteen bytes the process chose: invalid UTF-8
    /// in it (and stray `)` among it) changes nothing about the fields.
    #[test]
    fn comm_bytes_that_are_not_utf8_round_trip(
        comm in prop::collection::vec(prop::sample::select(vec![0xffu8, 0xfe, 0xc3, 0x80, b')', b' ', b'a']), 1..16),
        utime in 0u64..1_000_000,
        stime in 0u64..1_000_000,
    ) {
        let mut line = b"42 (".to_vec();
        line.extend_from_slice(&comm);
        line.extend_from_slice(
            format!(") S 1 2 3 4 -5 6 7 8 9 10 {utime} {stime} 0 0 20 0 1 0 0 0 0\n").as_bytes(),
        );
        let s = parse_stat_bytes(42, &line, 1_000_000).expect("comm is never looked into");
        prop_assert_eq!(s.state, 'S');
        prop_assert_eq!(s.cpu_time.as_nanos(), (utime + stime) * 1_000_000);
    }

    /// Bytes >= 0x80 right after the last `)` are a clean error (a state
    /// is an ASCII letter), and `parse_stat` on the text form of the same
    /// line, where that is text, agrees.
    #[test]
    fn high_bytes_after_the_anchor_fail_cleanly(
        junk in prop::collection::vec(0x80u8..=0xff, 1..6),
        sep in any::<bool>(),
    ) {
        let mut line = b"5 (x)".to_vec();
        line.extend_from_slice(&junk);
        if sep {
            line.push(b' ');
        }
        line.extend_from_slice(b"R 1 2 3 4 -5 6 7 8 9 10 11 12 0 0 20 0 1 0 0 0 0");
        // The first field after `)` starts with a non-ASCII byte: no state.
        prop_assert!(parse_stat_bytes(5, &line, 1).is_err());
        if let Ok(text) = std::str::from_utf8(&line) {
            prop_assert!(parse_stat(5, text, 1).is_err());
        }
    }
}
