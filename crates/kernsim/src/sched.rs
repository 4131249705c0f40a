//! The 4.4BSD decay-usage scheduling policy.
//!
//! This module implements the priority machinery of the scheduler the paper
//! ran on (FreeBSD 4.x, which is the classic 4.4BSD scheduler described in
//! McKusick et al., the paper's reference \[18\]):
//!
//! * every process has an `estcpu` estimate of its recent CPU usage, which
//!   rises while it runs and decays once per second by a load-dependent
//!   factor `(2·load)/(2·load + 1)`;
//! * the *user priority* is `PUSER + estcpu/4 + 2·nice` (larger is worse);
//! * a process that sleeps has its `estcpu` decayed retroactively on wakeup
//!   (`updatepri`), which is how BSD favors interactive processes — the
//!   effect the paper credits for ALPS keeping control past the predicted
//!   breakdown threshold at a 40 ms quantum (§4.2);
//! * the run queue is an array of FIFO queues indexed by priority with a
//!   bitmap for O(1) selection, as in the real kernel.
//!
//! One deliberate fidelity improvement over the historical kernel is that
//! `estcpu` is charged in proportion to CPU time actually consumed rather
//! than by sampling at clock ticks. The real statclock only charges a
//! process if it happens to be running when the tick lands, which lets a
//! short-burst process (exactly like ALPS) consume CPU without ever being
//! charged. Continuous charging preserves the scheduler's documented
//! *intent* — priority reflects recent CPU usage — and is what makes the
//! paper's breakdown analysis (overhead vs. the 1/(N+1) fair share)
//! reproducible in simulation.

use crate::pid::Pid;

/// Baseline user-mode priority (`PUSER` in BSD). Lower is better.
pub const PUSER: u8 = 50;
/// Kernel sleep priority (`PPAUSE`/`PSOCK` territory in BSD): a process
/// waking from a wait channel is dispatched at this priority for its
/// kernel-mode return path, which is how BSD guarantees sleepers (like a
/// user-level scheduler waiting on its interval timer) win the dispatch
/// immediately. The boost evaporates once the process is put on the CPU;
/// its *user-mode* work then competes at the decay-usage user priority.
pub const PSLEEP: u8 = 40;
/// Worst (numerically largest) priority.
pub const MAXPRI: u8 = 127;
/// Upper bound on `estcpu`, chosen so priority saturates exactly at
/// [`MAXPRI`]: `PUSER + ESTCPU_MAX/4 = 127`.
pub const ESTCPU_MAX: f64 = ((MAXPRI - PUSER) as f64) * 4.0;

/// Compute the user priority from `estcpu` and `nice` (−20..=20).
pub fn user_priority(estcpu: f64, nice: i8) -> u8 {
    let p = PUSER as f64 + estcpu / 4.0 + 2.0 * nice as f64;
    p.clamp(PUSER as f64, MAXPRI as f64) as u8
}

/// The per-second decay factor applied to `estcpu`: `(2·load)/(2·load+1)`.
pub fn decay_factor(loadavg: f64) -> f64 {
    let l = loadavg.max(0.0);
    (2.0 * l) / (2.0 * l + 1.0)
}

/// Retroactive decay applied on wakeup after `slptime` whole seconds asleep
/// (`updatepri`): `estcpu · decay^slptime`. BSD caps the exponent; beyond
/// that the estimate is simply zeroed.
pub fn updatepri(estcpu: f64, loadavg: f64, slptime: u32) -> f64 {
    if slptime == 0 {
        return estcpu;
    }
    // BSD zeroes estcpu outright after ~7 load-decays worth of sleep.
    if slptime > 7 {
        return 0.0;
    }
    estcpu * decay_factor(loadavg).powi(slptime as i32)
}

/// Exponential smoothing constant for the 1-minute load average sampled
/// once per second: `exp(-1/60)`.
pub const LOADAVG_EXP: f64 = 0.983_471_453_8;

/// Fold one per-second sample of the runnable count into the load average.
pub fn loadavg_step(loadavg: f64, nrunnable: usize) -> f64 {
    loadavg * LOADAVG_EXP + nrunnable as f64 * (1.0 - LOADAVG_EXP)
}

/// Sentinel for "no node" in the run queue's intrusive lists.
const NIL: u32 = u32::MAX;

/// One per-pid link cell of the intrusive run-queue lists.
#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    prio: u8,
    queued: bool,
}

impl Default for Node {
    fn default() -> Self {
        Node {
            prev: NIL,
            next: NIL,
            prio: 0,
            queued: false,
        }
    }
}

/// FIFO run queues indexed by priority, with a two-word bitmap for O(1)
/// best-priority selection — the `qs`/`whichqs` structure of 4.4BSD.
///
/// Each priority level is an intrusive doubly-linked list threaded
/// through a pid-indexed slab of link cells, so *every* operation —
/// `push`, `pop_best`, and crucially the mid-queue `remove` that
/// `SIGSTOP` and the once-per-second `schedcpu` requeue perform — is
/// O(1).
#[derive(Debug, Clone)]
pub struct RunQueue {
    /// First queued pid index per priority, or [`NIL`].
    head: Vec<u32>,
    /// Last queued pid index per priority, or [`NIL`].
    tail: Vec<u32>,
    /// Per-pid link cells, grown on demand (pids are dense).
    nodes: Vec<Node>,
    bitmap: [u64; 2],
    len: usize,
}

impl Default for RunQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl RunQueue {
    /// An empty run queue.
    pub fn new() -> Self {
        RunQueue {
            head: vec![NIL; 128],
            tail: vec![NIL; 128],
            nodes: Vec::new(),
            bitmap: [0; 2],
            len: 0,
        }
    }

    /// Number of queued processes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is runnable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether a specific process is queued. O(1).
    pub fn contains(&self, pid: Pid) -> bool {
        self.nodes.get(pid.index()).is_some_and(|n| n.queued)
    }

    /// Enqueue at the tail of the priority's FIFO (`setrunqueue`). O(1).
    pub fn push(&mut self, pid: Pid, priority: u8) {
        let p = priority.min(MAXPRI) as usize;
        let i = pid.index();
        if i >= self.nodes.len() {
            self.nodes.resize(i + 1, Node::default());
        }
        debug_assert!(!self.nodes[i].queued, "{pid} queued twice");
        let t = self.tail[p];
        self.nodes[i] = Node {
            prev: t,
            next: NIL,
            prio: p as u8,
            queued: true,
        };
        if t == NIL {
            self.head[p] = i as u32;
        } else {
            self.nodes[t as usize].next = i as u32;
        }
        self.tail[p] = i as u32;
        self.bitmap[p / 64] |= 1u64 << (p % 64);
        self.len += 1;
    }

    /// Best (numerically smallest) occupied priority, if any. O(1).
    pub fn best_priority(&self) -> Option<u8> {
        if self.bitmap[0] != 0 {
            Some(self.bitmap[0].trailing_zeros() as u8)
        } else if self.bitmap[1] != 0 {
            Some(64 + self.bitmap[1].trailing_zeros() as u8)
        } else {
            None
        }
    }

    /// Dequeue the process at the head of the best priority queue. O(1).
    pub fn pop_best(&mut self) -> Option<(Pid, u8)> {
        let p = self.best_priority()? as usize;
        let i = self.head[p];
        debug_assert_ne!(i, NIL, "bitmap said non-empty");
        self.unlink(i as usize, p);
        Some((Pid(i), p as u8))
    }

    /// Remove a specific process wherever it is queued (`remrq`). Returns
    /// true if it was present. O(1).
    pub fn remove(&mut self, pid: Pid) -> bool {
        let i = pid.index();
        let Some(node) = self.nodes.get(i) else {
            return false;
        };
        if !node.queued {
            return false;
        }
        let p = node.prio as usize;
        self.unlink(i, p);
        true
    }

    /// Detach node `i` from the priority-`p` list and reset it.
    fn unlink(&mut self, i: usize, p: usize) {
        let Node { prev, next, .. } = self.nodes[i];
        if prev == NIL {
            self.head[p] = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail[p] = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        if self.head[p] == NIL {
            self.bitmap[p / 64] &= !(1u64 << (p % 64));
        }
        self.nodes[i] = Node::default();
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    /// Reference model for `indexed_and_linear_agree_on_interleaved_ops`:
    /// one `VecDeque` per priority, O(n) `remove`.
    struct LinearRunQueue {
        queues: Vec<VecDeque<Pid>>,
        bitmap: [u64; 2],
        len: usize,
    }

    impl LinearRunQueue {
        fn new() -> Self {
            LinearRunQueue {
                queues: (0..128).map(|_| VecDeque::new()).collect(),
                bitmap: [0; 2],
                len: 0,
            }
        }

        fn len(&self) -> usize {
            self.len
        }

        fn push(&mut self, pid: Pid, priority: u8) {
            let p = priority.min(MAXPRI) as usize;
            self.queues[p].push_back(pid);
            self.bitmap[p / 64] |= 1u64 << (p % 64);
            self.len += 1;
        }

        fn best_priority(&self) -> Option<u8> {
            if self.bitmap[0] != 0 {
                Some(self.bitmap[0].trailing_zeros() as u8)
            } else if self.bitmap[1] != 0 {
                Some(64 + self.bitmap[1].trailing_zeros() as u8)
            } else {
                None
            }
        }

        fn pop_best(&mut self) -> Option<(Pid, u8)> {
            let p = self.best_priority()? as usize;
            let pid = self.queues[p].pop_front().expect("bitmap said non-empty");
            if self.queues[p].is_empty() {
                self.bitmap[p / 64] &= !(1u64 << (p % 64));
            }
            self.len -= 1;
            Some((pid, p as u8))
        }

        fn remove(&mut self, pid: Pid) -> bool {
            for p in 0..self.queues.len() {
                if let Some(pos) = self.queues[p].iter().position(|&q| q == pid) {
                    self.queues[p].remove(pos);
                    if self.queues[p].is_empty() {
                        self.bitmap[p / 64] &= !(1u64 << (p % 64));
                    }
                    self.len -= 1;
                    return true;
                }
            }
            false
        }
    }

    #[test]
    fn priority_formula() {
        assert_eq!(user_priority(0.0, 0), PUSER);
        assert_eq!(user_priority(40.0, 0), PUSER + 10);
        assert_eq!(user_priority(1e9, 0), MAXPRI);
        assert_eq!(user_priority(0.0, 10), PUSER + 20);
        // Negative nice cannot go below PUSER in this model.
        assert_eq!(user_priority(0.0, -20), PUSER);
    }

    #[test]
    fn decay_factor_ranges() {
        assert_eq!(decay_factor(0.0), 0.0);
        let d1 = decay_factor(1.0);
        assert!((d1 - 2.0 / 3.0).abs() < 1e-12);
        let d10 = decay_factor(10.0);
        assert!(d10 > d1 && d10 < 1.0, "higher load decays more slowly");
    }

    #[test]
    fn updatepri_decays_and_zeroes() {
        let e = updatepri(100.0, 1.0, 1);
        assert!((e - 100.0 * (2.0 / 3.0)).abs() < 1e-9);
        assert_eq!(updatepri(100.0, 1.0, 0), 100.0);
        assert_eq!(updatepri(100.0, 1.0, 8), 0.0);
    }

    #[test]
    fn loadavg_converges_toward_sample() {
        let mut l = 0.0;
        for _ in 0..3000 {
            l = loadavg_step(l, 4);
        }
        assert!((l - 4.0).abs() < 1e-6);
    }

    #[test]
    fn runqueue_fifo_within_priority() {
        let mut rq = RunQueue::new();
        rq.push(Pid(1), 60);
        rq.push(Pid(2), 60);
        rq.push(Pid(3), 55);
        assert_eq!(rq.best_priority(), Some(55));
        assert_eq!(rq.pop_best(), Some((Pid(3), 55)));
        assert_eq!(rq.pop_best(), Some((Pid(1), 60)));
        assert_eq!(rq.pop_best(), Some((Pid(2), 60)));
        assert_eq!(rq.pop_best(), None);
        assert!(rq.is_empty());
    }

    #[test]
    fn runqueue_remove_clears_bitmap() {
        let mut rq = RunQueue::new();
        rq.push(Pid(1), 70);
        assert!(rq.remove(Pid(1)));
        assert!(!rq.remove(Pid(1)));
        assert_eq!(rq.best_priority(), None);
        assert_eq!(rq.len(), 0);
    }

    #[test]
    fn runqueue_priorities_above_63() {
        let mut rq = RunQueue::new();
        rq.push(Pid(1), 127);
        rq.push(Pid(2), 64);
        assert_eq!(rq.best_priority(), Some(64));
        assert_eq!(rq.pop_best(), Some((Pid(2), 64)));
        assert_eq!(rq.pop_best(), Some((Pid(1), 127)));
    }

    #[test]
    fn estcpu_cap_matches_maxpri() {
        assert_eq!(user_priority(ESTCPU_MAX, 0), MAXPRI);
    }

    #[test]
    fn runqueue_contains_tracks_membership() {
        let mut rq = RunQueue::new();
        assert!(!rq.contains(Pid(5)));
        rq.push(Pid(5), 60);
        assert!(rq.contains(Pid(5)));
        rq.pop_best();
        assert!(!rq.contains(Pid(5)));
        rq.push(Pid(5), 60);
        assert!(rq.remove(Pid(5)));
        assert!(!rq.contains(Pid(5)));
    }

    #[test]
    fn indexed_and_linear_agree_on_interleaved_ops() {
        let mut a = RunQueue::new();
        let mut b = LinearRunQueue::new();
        // Deterministic interleaving of pushes, removes, and pops across
        // both bitmap words, with re-pushes after pops.
        let mut next = 0u32;
        for round in 0..6 {
            for k in 0..20u32 {
                let pid = Pid(next);
                next += 1;
                let prio = ((k * 13 + round * 7) % 128) as u8;
                a.push(pid, prio);
                b.push(pid, prio);
            }
            for k in (0..next).step_by(3) {
                assert_eq!(a.remove(Pid(k)), b.remove(Pid(k)), "remove {k}");
            }
            for _ in 0..10 {
                assert_eq!(a.best_priority(), b.best_priority());
                let (x, y) = (a.pop_best(), b.pop_best());
                assert_eq!(x, y);
                if let Some((pid, prio)) = x {
                    // Requeue at a shifted priority to churn the lists.
                    a.push(pid, prio.wrapping_add(11) & 127);
                    b.push(pid, prio.wrapping_add(11) & 127);
                }
            }
            assert_eq!(a.len(), b.len());
        }
        loop {
            let (x, y) = (a.pop_best(), b.pop_best());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }
}
