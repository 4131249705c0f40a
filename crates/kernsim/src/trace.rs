//! Execution tracing: an optional, bounded record of scheduling events.
//!
//! When enabled ([`Sim::enable_trace`](crate::Sim::enable_trace)), the
//! simulator appends one [`TraceEvent`] per dispatch, preemption, block,
//! wake, stop, continue, and exit. The trace is the ground truth the
//! paper's figures summarize — e.g. rendering it as a timeline shows the
//! eligible-group "staircase" of an ALPS cycle directly.

use std::collections::VecDeque;

use alps_core::Nanos;
use serde::{Deserialize, Serialize};

use crate::pid::Pid;

/// One scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// The process was placed on the CPU.
    Dispatch,
    /// The process was taken off the CPU (still runnable).
    Preempt,
    /// The process blocked on a wait channel.
    Block,
    /// The process became runnable after a sleep or stop.
    Wake,
    /// The process was stopped by job control.
    Stop,
    /// The process was continued by job control.
    Continue,
    /// The process exited.
    Exit,
}

/// A timestamped scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When it happened.
    pub at: Nanos,
    /// Which process.
    pub pid: Pid,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded in-memory trace: a ring whose oldest event is dropped, in
/// O(1), when a new one arrives at the cap.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A trace retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Trace {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Append an event (dropping the oldest if at capacity).
    pub fn push(&mut self, at: Nanos, pid: Pid, kind: TraceKind) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { at, pid, kind });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// Number of events evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Reconstruct the per-process busy intervals on the CPU: each
    /// `(pid, start, end)` is one stretch of execution. Unterminated
    /// stretches are closed at `end_of_trace`.
    pub fn busy_intervals(&self, end_of_trace: Nanos) -> Vec<(Pid, Nanos, Nanos)> {
        let mut open: Vec<(Pid, Nanos)> = Vec::new();
        let mut out = Vec::new();
        for e in &self.events {
            match e.kind {
                TraceKind::Dispatch => open.push((e.pid, e.at)),
                TraceKind::Preempt | TraceKind::Block | TraceKind::Stop | TraceKind::Exit => {
                    if let Some(pos) = open.iter().position(|&(p, _)| p == e.pid) {
                        let (pid, start) = open.remove(pos);
                        out.push((pid, start, e.at));
                    }
                }
                _ => {}
            }
        }
        for (pid, start) in open {
            out.push((pid, start, end_of_trace));
        }
        out
    }

    /// Render an ASCII timeline: one row per pid, one column per `step` of
    /// simulated time, `#` where the process held a CPU.
    pub fn render_ascii(
        &self,
        pids: &[(Pid, &str)],
        from: Nanos,
        to: Nanos,
        step: Nanos,
    ) -> String {
        assert!(step > Nanos::ZERO && to > from);
        let cols = ((to - from).as_nanos() / step.as_nanos()) as usize;
        let intervals = self.busy_intervals(to);
        let mut s = String::new();
        for &(pid, name) in pids {
            let mut row = vec![b'.'; cols];
            for &(p, start, end) in &intervals {
                if p != pid {
                    continue;
                }
                let lo = start.max(from);
                let hi = end.min(to);
                if hi <= lo {
                    continue;
                }
                let c0 = ((lo - from).as_nanos() / step.as_nanos()) as usize;
                let c1 = (((hi - from).as_nanos()).div_ceil(step.as_nanos())) as usize;
                for c in row.iter_mut().take(c1.min(cols)).skip(c0) {
                    *c = b'#';
                }
            }
            s.push_str(&format!("{name:>12} |"));
            s.push_str(std::str::from_utf8(&row).expect("ascii"));
            s.push_str("|\n");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_capacity() {
        let mut t = Trace::new(3);
        for i in 0..5 {
            t.push(Nanos(i), Pid(0), TraceKind::Wake);
        }
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.events()[0].at, Nanos(2));
    }

    #[test]
    fn a_full_trace_keeps_the_latest_events_oldest_first() {
        let mut t = Trace::new(3);
        for i in 0..10 {
            t.push(Nanos(i), Pid(i as u32), TraceKind::Wake);
        }
        let at: Vec<Nanos> = t.events().iter().map(|e| e.at).collect();
        assert_eq!(at, [Nanos(7), Nanos(8), Nanos(9)]);
        assert_eq!(t.dropped(), 7);
        // Serialized as a sequence, oldest first, as when it was a `Vec`,
        // each pid as its bare number; the events read back unchanged.
        let json = serde_json::to_string(&t).expect("serialize");
        assert!(json.starts_with(r#"{"events":[{"at":7,"pid":7,"#), "{json}");
        let back: Trace = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.events(), t.events());
        assert_eq!(back.dropped(), t.dropped());
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut t = Trace::new(0);
        t.push(Nanos(1), Pid(0), TraceKind::Exit);
        assert!(t.events().is_empty());
    }

    #[test]
    fn busy_intervals_pair_dispatch_with_offcpu() {
        let mut t = Trace::new(100);
        t.push(Nanos(10), Pid(1), TraceKind::Dispatch);
        t.push(Nanos(30), Pid(1), TraceKind::Preempt);
        t.push(Nanos(30), Pid(2), TraceKind::Dispatch);
        t.push(Nanos(60), Pid(2), TraceKind::Block);
        t.push(Nanos(60), Pid(1), TraceKind::Dispatch);
        let iv = t.busy_intervals(Nanos(100));
        assert_eq!(iv.len(), 3);
        assert!(iv.contains(&(Pid(1), Nanos(10), Nanos(30))));
        assert!(iv.contains(&(Pid(2), Nanos(30), Nanos(60))));
        assert!(iv.contains(&(Pid(1), Nanos(60), Nanos(100))), "open-ended");
    }

    #[test]
    fn ascii_rendering_marks_busy_columns() {
        let mut t = Trace::new(100);
        t.push(Nanos(0), Pid(0), TraceKind::Dispatch);
        t.push(Nanos(50), Pid(0), TraceKind::Block);
        t.push(Nanos(50), Pid(1), TraceKind::Dispatch);
        let s = t.render_ascii(
            &[(Pid(0), "a"), (Pid(1), "b")],
            Nanos(0),
            Nanos(100),
            Nanos(10),
        );
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("#####....."), "{s}");
        assert!(lines[1].contains(".....#####"), "{s}");
    }
}
