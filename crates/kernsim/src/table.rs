//! The process table: a dense pid→slot map with a live-process index.
//!
//! Pids are minted densely and never reused, so the table is a plain
//! `Vec<Process>` indexed by [`Pid::index`]. On top of it sits a *live
//! index* — the set of not-yet-exited pids, maintained with O(1)
//! swap-removal — so the once-per-second `schedcpu` pass (and any other
//! whole-table walk) touches only live processes. A long-dead process
//! costs nothing per tick, per second, or per event.

use crate::pid::Pid;
use crate::process::Process;

/// Position sentinel for a pid that is not in the live index.
const DEAD: u32 = u32::MAX;

/// The simulated machine's process table.
#[derive(Default)]
pub struct ProcTable {
    slots: Vec<Process>,
    /// Pids of live (not exited) processes, unordered (swap-removal).
    live: Vec<Pid>,
    /// Per-pid position in `live`, or [`DEAD`].
    live_pos: Vec<u32>,
    /// Pid-indexed bitmap of processes the once-per-second `schedcpu`
    /// pass must visit: everything live except processes that have been
    /// asleep for more than one whole second (their decay is deferred to
    /// `updatepri` at wakeup, so `schedcpu` need not touch them at all).
    decay_active: Vec<u64>,
}

impl ProcTable {
    /// An empty table.
    pub fn new() -> Self {
        ProcTable::default()
    }

    /// The pid the next [`ProcTable::push`] will occupy.
    pub fn next_pid(&self) -> Pid {
        Pid(self.slots.len() as u32)
    }

    /// Number of processes ever spawned (including exited ones).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no process was ever spawned.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Insert a freshly spawned process. Its pid must be the next slot;
    /// it starts decay-active.
    pub fn push(&mut self, p: Process) {
        assert_eq!(p.pid, self.next_pid(), "pids are minted densely");
        self.live_pos.push(self.live.len() as u32);
        self.live.push(p.pid);
        let idx = p.pid.index();
        self.slots.push(p);
        if idx / 64 >= self.decay_active.len() {
            self.decay_active.push(0);
        }
        self.decay_active[idx / 64] |= 1 << (idx % 64);
    }

    /// Shared access by pid; `None` for a pid this table never minted.
    #[inline]
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.slots.get(pid.index())
    }

    /// Whether the process exists and has not exited.
    pub fn is_live(&self, pid: Pid) -> bool {
        self.live_pos
            .get(pid.index())
            .is_some_and(|&pos| pos != DEAD)
    }

    /// Number of live processes.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The live pids, unordered.
    pub fn live(&self) -> &[Pid] {
        &self.live
    }

    /// Drop a process from the live index (on exit). Idempotent. O(1).
    pub fn mark_dead(&mut self, pid: Pid) {
        let i = pid.index();
        let pos = self.live_pos[i];
        if pos == DEAD {
            return;
        }
        self.live.swap_remove(pos as usize);
        if let Some(&moved) = self.live.get(pos as usize) {
            self.live_pos[moved.index()] = pos;
        }
        self.live_pos[i] = DEAD;
        self.set_decay_active(pid, false);
    }

    /// Mark whether `schedcpu` must visit this process. O(1).
    pub fn set_decay_active(&mut self, pid: Pid, active: bool) {
        let i = pid.index();
        let mask = 1u64 << (i % 64);
        if active {
            self.decay_active[i / 64] |= mask;
        } else {
            self.decay_active[i / 64] &= !mask;
        }
    }

    /// Whether `schedcpu` currently visits this process.
    pub fn is_decay_active(&self, pid: Pid) -> bool {
        let i = pid.index();
        self.decay_active
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Number of 64-bit words in the decay-active bitmap.
    pub fn decay_words(&self) -> usize {
        self.decay_active.len()
    }

    /// The `wi`-th word of the decay-active bitmap: bit `b` set means pid
    /// `wi*64 + b` is decay-active. Callers copy the word and iterate its
    /// set bits (`trailing_zeros` / `bits &= bits - 1`), so a pass that
    /// deactivates processes as it goes stays sound.
    pub fn decay_word(&self, wi: usize) -> u64 {
        self.decay_active[wi]
    }

    /// Brute-force check of the live index against the slot states;
    /// panics on any inconsistency (test support).
    pub fn assert_live_index_consistent(&self) {
        assert_eq!(self.live_pos.len(), self.slots.len());
        for (pos, &pid) in self.live.iter().enumerate() {
            assert_eq!(
                self.live_pos[pid.index()],
                pos as u32,
                "{pid} live position out of sync"
            );
        }
        let live_by_scan = self
            .slots
            .iter()
            .filter(|p| self.live_pos[p.pid.index()] != DEAD)
            .count();
        assert_eq!(live_by_scan, self.live.len(), "duplicate live entries");
        for p in &self.slots {
            if self.is_decay_active(p.pid) {
                assert!(
                    self.live_pos[p.pid.index()] != DEAD,
                    "{} decay-active but dead",
                    p.pid
                );
            }
        }
    }
}

impl std::ops::Index<Pid> for ProcTable {
    type Output = Process;

    fn index(&self, pid: Pid) -> &Process {
        &self.slots[pid.index()]
    }
}

impl std::ops::IndexMut<Pid> for ProcTable {
    fn index_mut(&mut self, pid: Pid) -> &mut Process {
        &mut self.slots[pid.index()]
    }
}

impl std::fmt::Debug for ProcTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcTable")
            .field("len", &self.slots.len())
            .field("live", &self.live.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{IntervalTimer, PState};
    use alps_core::Nanos;

    fn proc_named(pid: Pid) -> Process {
        Process {
            pid,
            name: format!("p{}", pid.0),
            state: PState::Runnable,
            nice: 0,
            estcpu: 0.0,
            priority: 50,
            slptime: 0,
            sleep_epoch: 0,
            cputime: Nanos::ZERO,
            visible_cputime: Nanos::ZERO,
            burst_remaining: None,
            dispatched_at: Nanos::ZERO,
            kernel_boost: false,
            wake_token: 0,
            burst_token: 0,
            timer: IntervalTimer::default(),
            behavior: None,
            dispatches: 0,
            voluntary_switches: 0,
        }
    }

    #[test]
    fn push_get_and_live_tracking() {
        let mut t = ProcTable::new();
        for i in 0..5 {
            let pid = t.next_pid();
            assert_eq!(pid, Pid(i));
            t.push(proc_named(pid));
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.live_count(), 5);
        assert!(t.is_live(Pid(3)));
        assert!(t.get(Pid(9)).is_none());

        t.mark_dead(Pid(1));
        t.mark_dead(Pid(3));
        t.mark_dead(Pid(3)); // idempotent
        assert_eq!(t.live_count(), 3);
        assert!(!t.is_live(Pid(3)));
        assert!(t.get(Pid(3)).is_some(), "dead slots stay readable");
        let mut live: Vec<u32> = t.live().iter().map(|p| p.0).collect();
        live.sort_unstable();
        assert_eq!(live, vec![0, 2, 4]);
        // A push starts decay-active; exit clears the bit.
        assert_eq!(t.decay_words(), 1);
        assert_eq!(t.decay_word(0), 0b10101);
        t.assert_live_index_consistent();
    }
}
