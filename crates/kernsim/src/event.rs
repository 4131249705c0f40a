//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`; the sequence number makes the
//! order of simultaneous events deterministic (FIFO by insertion). Events
//! targeting a process carry a *token*; the process bumps its token whenever
//! a previously scheduled event becomes stale (e.g. a wakeup for a sleep
//! that was interrupted by `SIGSTOP`), so stale events are dropped on pop
//! instead of being hunted down inside the queue.
//!
//! The queue is a binary heap keyed on `(time, seq)`, O(log E) per
//! operation. It holds the process events and the once-per-second
//! `schedcpu` pass, never the 100 Hz clock tick: the simulator keeps the
//! next tick as a `(time, seq)` key of its own, takes its sequence number
//! from [`EventQueue::mint`], and runs it whenever that key precedes
//! [`EventQueue::peek_key`], so a tick ties with a queued event exactly as
//! if it were queued. E stays small: a supervised run keeps all but the
//! on-deck member stopped, and nothing in the repository holds more
//! pending events than it has processes.
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use alps_core::Nanos;

use crate::pid::Pid;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The once-per-second `schedcpu` pass: decays every process's `estcpu`,
    /// updates the load average, and ages sleep times.
    SchedCpu,
    /// A sleeping process's wakeup time arrived.
    Wake {
        /// The sleeping process.
        pid: Pid,
        /// Token guarding staleness.
        token: u64,
    },
    /// A process's interval timer expired.
    TimerFire {
        /// The owner of the timer.
        pid: Pid,
        /// Token guarding staleness.
        token: u64,
    },
    /// The running process finished its current CPU burst.
    BurstDone {
        /// The process that was running when this was scheduled.
        pid: Pid,
        /// Token guarding staleness.
        token: u64,
    },
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub at: Nanos,
    /// Tie-break for simultaneous events (insertion order).
    pub seq: u64,
    /// What to do.
    pub kind: EventKind,
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Pending-event queue with deterministic `(time, seq)` ordering.
#[derive(Debug)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(64),
            next_seq: 0,
        }
    }

    /// Take the next sequence number without scheduling anything, for an
    /// event kept outside the queue that must tie-break against queued
    /// ones as if it had been scheduled now.
    pub fn mint(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `kind` to fire at `at`.
    pub fn schedule(&mut self, at: Nanos, kind: EventKind) {
        let seq = self.mint();
        self.heap.push(Reverse(Event { at, seq, kind }));
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// The `(time, seq)` key of the next event, if any: the order
    /// [`Self::pop`] follows.
    pub fn peek_key(&self) -> Option<(Nanos, u64)> {
        self.heap.peek().map(|Reverse(e)| (e.at, e.seq))
    }

    /// Pop the next event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Pop the next event if it fires at or before `deadline`, `None`
    /// otherwise (leaving the queue untouched). This is the event loop's
    /// per-event operation.
    pub fn pop_due(&mut self, deadline: Nanos) -> Option<Event> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process event of no particular meaning, where a test needs a kind
    /// distinct from `SchedCpu` and `Wake`.
    const BURST: EventKind = EventKind::BurstDone {
        pid: Pid(0),
        token: 0,
    };

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(30), BURST);
        q.schedule(Nanos(10), EventKind::SchedCpu);
        q.schedule(Nanos(20), BURST);
        assert_eq!(q.peek_time(), Some(Nanos(10)));
        assert_eq!(q.pop().unwrap().at, Nanos(10));
        assert_eq!(q.pop().unwrap().at, Nanos(20));
        assert_eq!(q.pop().unwrap().at, Nanos(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(5), BURST);
        q.schedule(
            Nanos(5),
            EventKind::Wake {
                pid: Pid(1),
                token: 0,
            },
        );
        q.schedule(Nanos(5), EventKind::SchedCpu);
        assert_eq!(q.pop().unwrap().kind, BURST);
        assert!(matches!(q.pop().unwrap().kind, EventKind::Wake { .. }));
        assert_eq!(q.pop().unwrap().kind, EventKind::SchedCpu);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Nanos(1), BURST);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn insert_at_consumed_time_pops_after_pending_peers() {
        // A handler scheduling at exactly the popped time (e.g. a
        // zero-length burst) must fire after everything already pending
        // at that time.
        let mut q = EventQueue::new();
        q.schedule(Nanos(7), BURST);
        q.schedule(Nanos(7), EventKind::SchedCpu);
        assert_eq!(q.pop().unwrap().kind, BURST);
        q.schedule(
            Nanos(7),
            EventKind::Wake {
                pid: Pid(9),
                token: 0,
            },
        );
        assert_eq!(q.pop().unwrap().kind, EventKind::SchedCpu);
        assert!(matches!(q.pop().unwrap().kind, EventKind::Wake { .. }));
    }

    #[test]
    fn pop_due_stops_at_the_deadline_and_leaves_the_queue_untouched() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(10), BURST);
        q.schedule(Nanos::from_secs(600), EventKind::SchedCpu);
        assert!(q.pop_due(Nanos(9)).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_due(Nanos(10)).unwrap().at, Nanos(10));
        assert!(q.pop_due(Nanos::from_secs(599)).is_none());
        assert_eq!(
            q.pop_due(Nanos(u64::MAX)).unwrap().kind,
            EventKind::SchedCpu
        );
        assert!(q.pop_due(Nanos(u64::MAX)).is_none());
    }

    #[test]
    fn a_minted_key_ties_between_events_scheduled_around_it() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(5), BURST);
        let minted = (Nanos(5), q.mint());
        q.schedule(Nanos(5), EventKind::SchedCpu);
        assert_eq!(q.len(), 2, "minting schedules nothing");
        let first = q.peek_key().unwrap();
        assert!(first < minted);
        assert_eq!(q.pop().unwrap().kind, BURST);
        assert!(minted < q.peek_key().unwrap());
        assert_eq!(q.pop().unwrap().kind, EventKind::SchedCpu);
        assert_eq!(q.peek_key(), None);
    }
}
