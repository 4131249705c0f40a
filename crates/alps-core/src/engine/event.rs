//! Engine instrumentation: a stream of per-quantum events.
//!
//! The [`Engine`](super::Engine) emits an [`Event`] for every externally
//! visible action it takes — quantum entries, measurements, signal
//! deliveries, cycle boundaries, overruns, and reaps. Consumers implement
//! [`EventSink`]; [`NullSink`] discards everything (the default),
//! [`RecordingSink`] accumulates events for tests, and [`TraceSink`]
//! renders a human-readable line per event (wired to `alps --trace`).

use core::fmt;
use std::io;

use super::substrate::Signal;
use crate::time::Nanos;

/// One externally visible engine action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    /// A scheduler invocation is starting.
    QuantumStart {
        /// Scheduler invocation count *after* this quantum (1-based).
        invocation: u64,
        /// Substrate wall-clock time at quantum entry.
        now: Nanos,
        /// Number of members due for measurement this quantum.
        due: usize,
    },
    /// A member's progress was read from the substrate.
    Measured {
        /// The member that was read.
        member: M,
        /// Its cumulative CPU time.
        cpu: Nanos,
        /// Whether it was blocked on I/O at read time.
        blocked: bool,
    },
    /// A stop/continue signal was delivered (or attempted).
    SignalSent {
        /// The target member.
        member: M,
        /// What was sent.
        signal: Signal,
        /// `false` if the member was gone and the signal went nowhere.
        delivered: bool,
    },
    /// A scheduling cycle (S·Q) completed.
    CycleEnd {
        /// Zero-based index of the completed cycle.
        index: u64,
        /// Substrate wall-clock time at the boundary.
        now: Nanos,
    },
    /// The quantum timer overran: more than one quantum elapsed between
    /// consecutive invocations (coalesced/late timer, §4.2).
    Overrun {
        /// Wall-clock time at the late invocation.
        now: Nanos,
        /// Time elapsed since the previous invocation.
        gap: Nanos,
    },
    /// A member vanished (exited) and its sole-member principal was
    /// removed from scheduling.
    MemberReaped {
        /// The member that disappeared.
        member: M,
    },
    /// A CPU-time read failed with a substrate error and was tolerated
    /// (the member goes unmeasured this quantum).
    ReadFault {
        /// The member whose read failed.
        member: M,
    },
    /// A signal delivery failed with a substrate error and was tolerated
    /// (a managed member's retry is scheduled after a backoff).
    SignalFault {
        /// The target member.
        member: M,
        /// What failed to send.
        signal: Signal,
    },
    /// A previously failed delivery came due after its backoff; it goes
    /// out with this quantum's signals.
    SignalRetried {
        /// The target member.
        member: M,
        /// The principal's intent now, which is what is re-sent.
        signal: Signal,
    },
    /// A member was quarantined out of scheduling after repeated faults.
    Quarantined {
        /// The member removed.
        member: M,
    },
}

/// A consumer of engine [`Event`]s.
pub trait EventSink<M> {
    /// Observe one event. Called synchronously from the engine loop.
    fn on_event(&mut self, event: &Event<M>);
}

/// Discards every event. The default sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl<M> EventSink<M> for NullSink {
    fn on_event(&mut self, _event: &Event<M>) {}
}

/// Accumulates every event in order, for assertions in tests.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink<M> {
    /// All events observed so far, in emission order.
    pub events: Vec<Event<M>>,
}

impl<M> RecordingSink<M> {
    /// An empty recording sink.
    pub fn new() -> Self {
        RecordingSink { events: Vec::new() }
    }
}

impl<M: Clone> EventSink<M> for RecordingSink<M> {
    fn on_event(&mut self, event: &Event<M>) {
        self.events.push(event.clone());
    }
}

/// Renders one human-readable line per event to a writer. Write errors
/// are ignored: tracing must never abort the scheduling loop.
#[derive(Debug)]
pub struct TraceSink<W> {
    out: W,
}

impl<W: io::Write> TraceSink<W> {
    /// Trace to `out` (e.g. `std::io::stderr()`).
    pub fn new(out: W) -> Self {
        TraceSink { out }
    }
}

impl<W: io::Write, M: fmt::Debug> EventSink<M> for TraceSink<W> {
    fn on_event(&mut self, event: &Event<M>) {
        let line = match event {
            Event::QuantumStart {
                invocation,
                now,
                due,
            } => format!(
                "[{:>12.6}] quantum #{invocation}: {due} due",
                now.as_secs_f64()
            ),
            Event::Measured {
                member,
                cpu,
                blocked,
            } => format!(
                "               measure {member:?}: cpu {:.3} ms{}",
                cpu.as_millis_f64(),
                if *blocked { " (blocked)" } else { "" }
            ),
            Event::SignalSent {
                member,
                signal,
                delivered,
            } => {
                let name = match signal {
                    Signal::Stop => "STOP",
                    Signal::Continue => "CONT",
                };
                format!(
                    "               signal  {member:?}: {name}{}",
                    if *delivered { "" } else { " (gone)" }
                )
            }
            Event::CycleEnd { index, now } => {
                format!(
                    "[{:>12.6}] ---- cycle {index} complete ----",
                    now.as_secs_f64()
                )
            }
            Event::Overrun { now, gap } => format!(
                "[{:>12.6}] overrun: {:.3} ms since last quantum",
                now.as_secs_f64(),
                gap.as_millis_f64()
            ),
            Event::MemberReaped { member } => {
                format!("               reaped  {member:?}")
            }
            Event::ReadFault { member } => {
                format!("               fault   {member:?}: read failed")
            }
            Event::SignalFault { member, signal } => {
                let name = match signal {
                    Signal::Stop => "STOP",
                    Signal::Continue => "CONT",
                };
                format!("               fault   {member:?}: {name} failed")
            }
            Event::SignalRetried { member, signal } => {
                let name = match signal {
                    Signal::Stop => "STOP",
                    Signal::Continue => "CONT",
                };
                format!("               retry   {member:?}: {name}")
            }
            Event::Quarantined { member } => {
                format!("               quarantine {member:?}")
            }
        };
        let _ = writeln!(self.out, "{line}");
    }
}
