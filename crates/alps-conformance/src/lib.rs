//! # alps-conformance — a spec oracle for the ALPS algorithm
//!
//! The production scheduler layers heavy optimizations onto the Figure-3
//! algorithm: slot indexes, a deadline wheel, and an allocation-free
//! quantum loop. This crate is the *independent* reference they are held
//! to: [`OracleScheduler`] is a deliberately naive transcription of
//! Figure 3 — full O(N) scans every quantum, fresh allocations everywhere,
//! no due index, no incremental counters — that performs the *arithmetic*
//! of the spec in exactly the order the production scheduler does, so a
//! differential harness can demand byte-identical results (f64 allowances
//! compared by bit pattern, not by tolerance).
//!
//! Three layers:
//!
//! * [`OracleScheduler`] — flat Figure-3 oracle mirroring
//!   `alps_core::AlpsScheduler`;
//! * a crate-private naive §5 principal layer (member deltas summed per
//!   principal, eligibility fanned out to members), the reference for
//!   the principal rules `alps_core::Engine` keeps itself;
//! * [`OracleEngine`] — a naive replica of the generic engine loop
//!   (overrun detection, reads, reaping, signals, cycle records,
//!   [`alps_core::EngineStats`]) driven over the same
//!   [`alps_core::Substrate`], on top of that principal layer.
//!
//! [`harness`] generates randomized schedules (seeded, deterministic) and
//! drives oracle and production side by side, asserting identical due
//! lists, transitions, signals, events, cycle records, and stats after
//! every step; the engine-level drivers also hold production's mock
//! substrate equal to the oracle's. The suites in `tests/` sweep the full
//! configuration matrix — {lazy, eager} × I/O policies × {flat,
//! principals} — across
//! well over a thousand generated schedules, drive hand-written and
//! property-generated op lists the generator cannot reach
//! (`tests/oracle_inputs.rs`), and pin production's fingerprints to
//! committed constants (`tests/pins.rs`).
//!
//! The one non-naive concession: ids and emission order are part of the
//! observable contract (transitions carry [`alps_core::ProcId`]s and are
//! emitted in registration-scan order), so the oracle reproduces the
//! production id-minting discipline — LIFO slot reuse with generation
//! bumps and the occupied-list compaction rule — in the simplest possible
//! form. Everything *per-quantum* is pure scan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod oracle;

pub mod harness;
pub mod schedule;

pub use engine::OracleEngine;
pub use oracle::OracleScheduler;
