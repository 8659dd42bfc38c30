//! Allocation pin for the event scheduler, counted by a global allocator
//! that this test binary alone installs.
//!
//! The scheduler's only allocation is its heap buffer, which doubles up
//! to the peak queue length and is then reused. A queue of 64 pending
//! events driven through 10,000 `pop` + `schedule` pairs — the engines'
//! steady state, with think times and arrival gaps from 1 µs to ~134 ms
//! ahead — therefore allocates only while it fills, and nothing per pair
//! once warm.
//!
//! The file holds a single test so no other test's allocations land in
//! the shared counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use faultstudy_sim::time::{Duration, SimTime};
use faultstudy_sim::wheel::TimingWheel;

/// Allocation calls (alloc, alloc_zeroed, realloc) since start-up.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a call counter.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocation calls it made.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = f();
    (result, ALLOCS.load(Ordering::Relaxed) - before)
}

/// A deterministic offset between 1 µs and ~134 ms for step `i`.
fn offset(i: u64) -> Duration {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Duration::from_nanos(1_000 + (z ^ (z >> 31)) % (1 << 27))
}

/// Pops the earliest event and schedules it again `offset(i)` later.
fn pop_and_reschedule(wheel: &mut TimingWheel<u64>, i: u64) {
    let (at, item) = wheel.pop().expect("the scheduler stays populated");
    wheel.schedule(at.saturating_add(offset(i)), item);
}

#[test]
fn scheduler_allocates_only_while_its_heap_grows() {
    const PENDING: u64 = 64;
    const PAIRS: u64 = 10_000;
    let (mut wheel, total) = allocs_in(|| {
        let mut wheel = TimingWheel::new();
        for i in 0..PENDING {
            wheel.schedule(SimTime::ZERO.saturating_add(offset(i)), i);
        }
        for i in 0..PAIRS {
            pop_and_reschedule(&mut wheel, PENDING + i);
        }
        wheel
    });
    assert!(
        total <= 8,
        "{total} allocations for {PENDING} pending events and {PAIRS} pop + schedule pairs; \
         only the heap's capacity doublings may allocate"
    );

    let ((), warm) = allocs_in(|| {
        for i in 0..PAIRS {
            pop_and_reschedule(&mut wheel, PENDING + PAIRS + i);
        }
    });
    assert_eq!(warm, 0, "a warm scheduler's pop + schedule pairs must not allocate");
    assert_eq!(wheel.len(), PENDING as usize);
}
