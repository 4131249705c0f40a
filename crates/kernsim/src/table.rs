//! The process table: a dense pid→slot map with a live-process index.
//!
//! Pids are minted densely and never reused, so the table is a plain
//! `Vec<Process>` indexed by [`Pid::index`]. On top of it sits a *live
//! index* — the set of not-yet-exited pids, maintained with O(1)
//! swap-removal — so the once-per-second `schedcpu` pass (and any other
//! whole-table walk) touches only live processes. A long-dead process
//! costs nothing per tick, per second, or per event.
//!
//! The decay-active bitmap is partitioned per CPU: a process's bit lives
//! in the bitmap of its *home* CPU ([`crate::process::Process::home`]),
//! so the per-CPU `schedcpu` pass walks exactly the processes whose run
//! queue it owns. A steal moves the bit along with the process
//! ([`ProcTable::set_home`]). With one CPU there is a single bitmap and
//! the walk order is identical to the pre-SMP table.

use crate::cpu::CpuId;
use crate::pid::Pid;
use crate::process::Process;

/// Position sentinel for a pid that is not in the live index.
const DEAD: u32 = u32::MAX;

/// The simulated machine's process table.
pub struct ProcTable {
    slots: Vec<Process>,
    /// Pids of live (not exited) processes, unordered (swap-removal).
    live: Vec<Pid>,
    /// Per-pid position in `live`, or [`DEAD`].
    live_pos: Vec<u32>,
    /// Per-CPU, pid-indexed bitmaps of processes the once-per-second
    /// `schedcpu` pass must visit: everything live except processes that
    /// have been asleep for more than one whole second (their decay is
    /// deferred to `updatepri` at wakeup, so `schedcpu` need not touch
    /// them at all). A process's bit is set in exactly one bitmap — its
    /// home CPU's — or in none.
    decay_active: Vec<Vec<u64>>,
}

impl Default for ProcTable {
    fn default() -> Self {
        Self::new(1)
    }
}

impl ProcTable {
    /// An empty table for a machine with `cpus` CPUs.
    pub fn new(cpus: usize) -> Self {
        assert!(cpus >= 1, "need at least one CPU");
        ProcTable {
            slots: Vec::new(),
            live: Vec::new(),
            live_pos: Vec::new(),
            decay_active: vec![Vec::new(); cpus],
        }
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
    /// its decay-active bit is set in its home CPU's bitmap.
    pub fn push(&mut self, p: Process) {
        assert_eq!(p.pid, self.next_pid(), "pids are minted densely");
        assert!(
            p.home.index() < self.decay_active.len(),
            "home CPU out of range"
        );
        self.live_pos.push(self.live.len() as u32);
        self.live.push(p.pid);
        let idx = p.pid.index();
        let home = p.home.index();
        self.slots.push(p);
        for bitmap in &mut self.decay_active {
            if idx / 64 >= bitmap.len() {
                bitmap.push(0);
            }
        }
        self.decay_active[home][idx / 64] |= 1 << (idx % 64);
    }

    /// Shared access by pid; `None` for a pid this table never minted.
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

    /// Move a process to a new home CPU (a work steal), carrying its
    /// decay-active bit to the new home's bitmap. O(1).
    pub fn set_home(&mut self, pid: Pid, home: CpuId) {
        let old = self.slots[pid.index()].home;
        if old == home {
            return;
        }
        let active = self.is_decay_active(pid);
        if active {
            self.set_decay_active(pid, false);
        }
        self.slots[pid.index()].home = home;
        if active {
            self.set_decay_active(pid, true);
        }
    }

    /// Mark whether `schedcpu` must visit this process (in its home
    /// CPU's bitmap). O(1).
    pub fn set_decay_active(&mut self, pid: Pid, active: bool) {
        let i = pid.index();
        let home = self.slots[i].home.index();
        let mask = 1u64 << (i % 64);
        if active {
            self.decay_active[home][i / 64] |= mask;
        } else {
            self.decay_active[home][i / 64] &= !mask;
        }
    }

    /// Whether `schedcpu` currently visits this process.
    pub fn is_decay_active(&self, pid: Pid) -> bool {
        let i = pid.index();
        let home = self.slots[i].home.index();
        self.decay_active[home]
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Number of 64-bit words in one CPU's decay-active bitmap (every
    /// CPU's bitmap has the same length).
    pub fn decay_words(&self, cpu: CpuId) -> usize {
        self.decay_active[cpu.index()].len()
    }

    /// The `wi`-th word of one CPU's decay-active bitmap: bit `b` set
    /// means pid `wi*64 + b` is decay-active and homed on `cpu`. Callers
    /// copy the word and iterate its set bits (`trailing_zeros` /
    /// `bits &= bits - 1`), so a pass that deactivates processes as it
    /// goes stays sound.
    pub fn decay_word(&self, cpu: CpuId, wi: usize) -> u64 {
        self.decay_active[cpu.index()][wi]
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
            // The bit may live only in the home CPU's bitmap.
            let i = p.pid.index();
            for (cpu, bitmap) in self.decay_active.iter().enumerate() {
                if cpu != p.home.index() {
                    assert!(
                        bitmap.get(i / 64).is_none_or(|w| w & (1 << (i % 64)) == 0),
                        "{} decay bit set on cpu{cpu}, but home is {}",
                        p.pid,
                        p.home
                    );
                }
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

    fn proc_homed(pid: Pid, home: CpuId) -> Process {
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
            cputime_per_cpu: vec![Nanos::ZERO; home.index() + 1],
            home,
            migrations: 0,
            visible_cputime: Nanos::ZERO,
            tickets: 1,
            pass: 0.0,
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

    fn proc_named(pid: Pid) -> Process {
        proc_homed(pid, CpuId(0))
    }

    #[test]
    fn push_get_and_live_tracking() {
        let mut t = ProcTable::new(1);
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
        t.assert_live_index_consistent();
    }

    #[test]
    fn set_home_moves_the_decay_bit_between_cpu_bitmaps() {
        let mut t = ProcTable::new(2);
        let pid = t.next_pid();
        t.push(proc_homed(pid, CpuId(0)));
        assert!(t.is_decay_active(pid));
        assert_eq!(t.decay_word(CpuId(0), 0) & 1, 1);
        assert_eq!(t.decay_word(CpuId(1), 0) & 1, 0);

        t.set_home(pid, CpuId(1));
        assert_eq!(t[pid].home, CpuId(1));
        assert!(t.is_decay_active(pid));
        assert_eq!(t.decay_word(CpuId(0), 0) & 1, 0);
        assert_eq!(t.decay_word(CpuId(1), 0) & 1, 1);
        t.assert_live_index_consistent();

        // An inactive bit stays inactive across a move.
        t.set_decay_active(pid, false);
        t.set_home(pid, CpuId(0));
        assert!(!t.is_decay_active(pid));
        assert_eq!(t.decay_word(CpuId(0), 0) & 1, 0);
        assert_eq!(t.decay_word(CpuId(1), 0) & 1, 0);
        t.assert_live_index_consistent();
    }
}
