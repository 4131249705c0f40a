//! Allocation bound on the registration path: registering a process with
//! the engine costs no allocation of its own, so 10 000 `add_member` calls
//! allocate only when one of the engine's vectors or its member index
//! grows (under a hundred times), not once or more per member.
//!
//! A counting global allocator sees every thread of this test binary, so
//! it counts only while the calling thread has switched counting on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use alps_core::{AlpsConfig, Engine, Instrumentation, Nanos};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, so the
// caller's guarantees are exactly the ones `System` requires; the counter
// neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (fresh or grown) made on this thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn ten_thousand_registrations_allocate_only_to_grow() {
    const MEMBERS: u32 = 10_000;
    let mut engine: Engine<u32> = Engine::new(
        AlpsConfig::new(Nanos::from_millis(10)),
        Instrumentation::Exact,
    );
    let allocs = allocations_in(|| {
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
