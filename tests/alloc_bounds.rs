//! Allocation bounds on the registration path and the quantum loop.
//!
//! Registering a process with the engine costs no allocation of its own,
//! so 10 000 `add_member` calls allocate only when one of the engine's
//! vectors or its member index grows (under a hundred times), not once or
//! more per member. And the scheduler's memory follows what it holds, not
//! the largest burst it has seen: a lazy scheduler under churn retains a
//! bounded number of bytes per member and, once warm, allocates nothing.
//! Neither does a lazy engine whose principals are fixed and grouped, nor
//! one whose members' deadlines lie far ahead.
//!
//! A counting global allocator sees every thread of this test binary, so
//! it counts only while the calling thread has switched counting on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use alps_core::{
    AlpsConfig, AlpsScheduler, Engine, Instrumentation, Nanos, NullSink, Observation, ProcId,
    QuantumOutcome, Signal, Substrate,
};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations (fresh or grown) counted on this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed while counting on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Record an allocation (`fresh`) or a free or resize (`!fresh`) that
/// changes this thread's live heap by `bytes`.
fn note(fresh: bool, bytes: isize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + usize::from(fresh)));
        let _ = LIVE.try_with(|l| l.set(l.get() + bytes));
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, so the
// caller's guarantees are exactly the ones `System` requires; the counter
// neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` did to this thread's heap: the allocations it made (fresh or
/// grown), and the bytes it left allocated (negative if it freed more).
fn heap_use_of(f: impl FnOnce()) -> (usize, isize) {
    let (allocs, live) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get) - allocs, LIVE.with(Cell::get) - live)
}

#[test]
fn ten_thousand_registrations_allocate_only_to_grow() {
    const MEMBERS: u32 = 10_000;
    let mut engine: Engine<u32> = Engine::new(
        AlpsConfig::new(Nanos::from_millis(10)),
        Instrumentation::Exact,
    );
    let (allocs, _) = heap_use_of(|| {
        for m in 0..MEMBERS {
            engine.add_member(m, 1 + u64::from(m % 20), Nanos(u64::from(m)));
        }
    });
    assert_eq!(engine.proc_ids().len(), MEMBERS as usize);
    assert!(
        allocs < 1_000,
        "{MEMBERS} add_member calls made {allocs} allocations; registration must not allocate per member"
    );
}

/// Heap a lazy scheduler under churn may retain per member, beyond what
/// registration allocated. The deadline wheel's buckets are bitmaps over
/// registration positions, sized once at the first quantum: the drive
/// below retains 39 B per member (27 B when the wheel pooled its entries
/// in fixed-size blocks), against 299 B when every bucket is a `Vec` that
/// keeps the largest capacity any bucket has held.
const RETAINED_BYTES_PER_MEMBER: isize = 64;

/// A drive of a bare lazy scheduler: members with shares 1 to 20, nine in
/// ten of them sleepers that block on every reading, the tenth compute-
/// bound; at every cycle boundary the longest-registered tenth leaves and
/// as many newcomers join. All buffers are reused, so any allocation is
/// the scheduler's own.
struct Drive {
    sched: AlpsScheduler,
    /// Live ids, longest-registered first.
    live: VecDeque<ProcId>,
    /// Per slot: cumulative CPU and the invocation of the last reading.
    cpu: Vec<(Nanos, u64)>,
    joined: u64,
    due: Vec<ProcId>,
    obs: Vec<(ProcId, Observation)>,
    out: QuantumOutcome,
    cycles: u64,
}

impl Drive {
    const MEMBERS: usize = 20_000;
    const QUANTUM: Nanos = Nanos::from_millis(10);

    fn new() -> Drive {
        let mut d = Drive {
            sched: AlpsScheduler::new(AlpsConfig::new(Self::QUANTUM)),
            live: VecDeque::with_capacity(Self::MEMBERS),
            cpu: vec![(Nanos::ZERO, 0); Self::MEMBERS],
            joined: 0,
            due: Vec::with_capacity(Self::MEMBERS),
            obs: Vec::with_capacity(Self::MEMBERS),
            out: QuantumOutcome {
                transitions: Vec::with_capacity(Self::MEMBERS),
                cycle_completed: false,
            },
            cycles: 0,
        };
        for _ in 0..Self::MEMBERS {
            d.join();
        }
        d
    }

    fn join(&mut self) {
        let n = self.joined;
        self.joined += 1;
        let id = self.sched.add_process(1 + n % 20, Nanos::ZERO);
        self.cpu[id.index()] = (Nanos::ZERO, self.sched.invocations());
        self.live.push_back(id);
    }

    fn compute_bound(id: ProcId) -> bool {
        id.index().is_multiple_of(10)
    }

    fn quantum(&mut self) {
        self.sched.begin_quantum_into(&mut self.due);
        let now = self.sched.invocations();
        self.obs.clear();
        for &id in &self.due {
            let (cpu, read_at) = &mut self.cpu[id.index()];
            // A compute-bound member ran the whole time since its last
            // reading; a sleeper ran a tenth of a quantum and is blocked.
            let ran = if Self::compute_bound(id) {
                Self::QUANTUM.0 * (now - *read_at)
            } else {
                Self::QUANTUM.0 / 10
            };
            *cpu = Nanos(cpu.0 + ran);
            *read_at = now;
            let blocked = !Self::compute_bound(id);
            self.obs.push((
                id,
                Observation {
                    total_cpu: *cpu,
                    blocked,
                },
            ));
        }
        self.sched.complete_quantum_into(&self.obs, &mut self.out);
        if self.out.cycle_completed {
            self.cycles += 1;
            for _ in 0..Self::MEMBERS / 10 {
                let id = self.live.pop_front().expect("members are live");
                self.sched.remove_process(id).expect("live id");
                self.join();
            }
        }
    }
}

#[test]
fn a_lazy_scheduler_under_churn_retains_bounded_memory_and_stops_allocating() {
    const QUANTA: usize = 600;
    let mut d = Drive::new();
    let (_, first_half) = heap_use_of(|| (0..QUANTA / 2).for_each(|_| d.quantum()));
    let (late_allocs, second_half) = heap_use_of(|| (0..QUANTA / 2).for_each(|_| d.quantum()));
    assert!(d.cycles >= 2, "only {} cycle boundaries crossed", d.cycles);
    let retained = first_half + second_half;
    let per_member = retained / Drive::MEMBERS as isize;
    assert!(
        per_member <= RETAINED_BYTES_PER_MEMBER,
        "{QUANTA} quanta at {} members retained {retained} B, {per_member} B per member (limit {RETAINED_BYTES_PER_MEMBER})",
        Drive::MEMBERS
    );
    assert_eq!(
        late_allocs,
        0,
        "the second {} quanta allocated {late_allocs} times",
        QUANTA / 2
    );
}

/// A world of `n` members, pid `m` at index `m`: a stopped member is
/// charged nothing, a running one a whole quantum per quantum, or a tenth
/// of one and blocked if it is a sleeper (every third pid). Reading and
/// signalling touch only fixed-size vectors.
struct Members {
    now: Nanos,
    cpu: Vec<Nanos>,
    stopped: Vec<bool>,
}

impl Members {
    const Q: Nanos = Nanos::from_millis(10);

    fn new(n: usize) -> Members {
        Members {
            now: Nanos::ZERO,
            cpu: vec![Nanos::ZERO; n],
            stopped: vec![true; n],
        }
    }

    fn sleeper(m: u32) -> bool {
        m.is_multiple_of(3)
    }

    fn tick(&mut self) {
        self.now += Self::Q;
        for (m, cpu) in self.cpu.iter_mut().enumerate() {
            if !self.stopped[m] {
                let ran = if Self::sleeper(m as u32) {
                    Self::Q.0 / 10
                } else {
                    Self::Q.0
                };
                *cpu += Nanos(ran);
            }
        }
    }
}

impl Substrate for Members {
    type Member = u32;
    type Error = core::convert::Infallible;

    fn now(&mut self) -> Nanos {
        self.now
    }

    fn read(&mut self, m: u32) -> Result<Option<Observation>, Self::Error> {
        Ok(Some(Observation {
            total_cpu: self.cpu[m as usize],
            blocked: Self::sleeper(m),
        }))
    }

    fn deliver(&mut self, m: u32, signal: Signal) -> Result<bool, Self::Error> {
        self.stopped[m as usize] = signal == Signal::Stop;
        Ok(true)
    }
}

/// A lazy engine with 40 fixed principals and 8 groups of 4 members each:
/// once warm, its quanta allocate nothing on the fixed side of the due
/// walk or on the group side. The engine's scratch vectors keep the
/// capacity of the largest due set and signal batch seen so far, and this
/// drive first reaches its largest due set in quantum 343, so the first
/// 600 quanta are the warm-up.
#[test]
fn a_lazy_engine_with_fixed_and_group_principals_stops_allocating() {
    const QUANTA: usize = 1200;
    const FIXED: u32 = 40;
    const GROUPS: u32 = 8;
    const PER_GROUP: u32 = 4;
    let mut engine: Engine<u32> = Engine::new(AlpsConfig::new(Members::Q), Instrumentation::Exact);
    let mut sub = Members::new((FIXED + GROUPS * PER_GROUP) as usize);
    for m in 0..FIXED {
        engine.add_member(m, 1 + u64::from(m % 5), Nanos::ZERO);
    }
    let mut groups = Vec::new();
    for g in 0..GROUPS {
        let id = engine.add_principal(1 + u64::from(g % 3));
        let first = FIXED + g * PER_GROUP;
        let listing: Vec<(u32, Nanos)> = (first..first + PER_GROUP)
            .map(|m| (m, Nanos::ZERO))
            .collect();
        engine.set_membership(&mut sub, id, &listing, &mut NullSink);
        groups.push(id);
    }
    let mut drive = |engine: &mut Engine<u32>| {
        let mut group_transitions = 0;
        for _ in 0..QUANTA / 2 {
            sub.tick();
            let Ok(transitions) = engine.run_quantum(&mut sub, &mut NullSink);
            group_transitions += transitions
                .iter()
                .filter(|t| groups.contains(&t.proc_id()))
                .count();
        }
        group_transitions
    };
    heap_use_of(|| {
        drive(&mut engine);
    });
    let before = engine.stats();
    let mut group_transitions = 0;
    let (late_allocs, _) = heap_use_of(|| group_transitions = drive(&mut engine));
    let after = engine.stats();
    assert!(
        after.measurements > before.measurements && after.cycles > before.cycles,
        "the second half read members and crossed cycles: {before:?} -> {after:?}"
    );
    assert!(
        group_transitions > 0,
        "no group was suspended or resumed in the second half"
    );
    assert_eq!(
        late_allocs,
        0,
        "the second {} quanta allocated {late_allocs} times",
        QUANTA / 2
    );
}

/// A lazy engine of 300 fixed principals at shares 1 to 300: a share
/// past 63 is measured more than 63 quanta ahead, so its deadline is filed
/// above the deadline wheel's level 0 and cascades down as its window
/// opens, and both keep happening through the measured second half.
/// Neither allocates: the wheel's upper levels are laid out with level 0.
#[test]
fn a_lazy_engine_with_far_deadlines_stops_allocating() {
    const QUANTA: usize = 1200;
    const MEMBERS: u32 = 300;
    let mut engine: Engine<u32> = Engine::new(AlpsConfig::new(Members::Q), Instrumentation::Exact);
    let mut sub = Members::new(MEMBERS as usize);
    for m in 0..MEMBERS {
        engine.add_member(m, 1 + u64::from(m), Nanos::ZERO);
    }
    let mut drive = |engine: &mut Engine<u32>| {
        for _ in 0..QUANTA / 2 {
            sub.tick();
            let Ok(_) = engine.run_quantum(&mut sub, &mut NullSink);
        }
    };
    heap_use_of(|| drive(&mut engine));
    let before = engine.stats();
    let (late_allocs, _) = heap_use_of(|| drive(&mut engine));
    let after = engine.stats();
    assert!(
        after.measurements > before.measurements,
        "the second half read members: {before:?} -> {after:?}"
    );
    assert_eq!(
        late_allocs,
        0,
        "the second {} quanta allocated {late_allocs} times",
        QUANTA / 2
    );
}
