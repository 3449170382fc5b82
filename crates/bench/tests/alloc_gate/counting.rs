//! The counting global allocator behind the alloc gate (DESIGN.md §5f).
//!
//! It wraps the system allocator and counts every allocation and
//! reallocation on **the current thread**. The counter is thread-local so
//! the test harness's parallel tests cannot pollute a measurement running
//! on another thread. Only this test target installs it: no binary links
//! a counting allocator.
//!
//! The measured quantity is *allocations started*, not bytes live:
//! `dealloc` is free for the steady-state contract (returning memory to
//! a pool costs nothing we gate on) and `realloc` counts once (it may
//! move the block — the cost the contract forbids on the hot path).
//!
//! Usage: [`reset`] at a phase boundary, run the phase, then read
//! [`allocs`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The counting wrapper around the system allocator.
///
/// `try_with` (not `with`) everywhere: the allocator runs during
/// thread teardown after the thread-local has been destroyed, where
/// `with` would abort the process.
struct CountingAlloc;

// SAFETY: every method forwards verbatim to the `System` allocator
// after bumping the thread-local counter, so `System` upholds the
// allocator contracts exactly as if it were installed directly.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: counts, then forwards the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller handed us, forwarded once.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: passthrough; `ptr` was produced by `System` above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which always
        // forwards to `System`, so the pair matches.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: counts, then forwards the caller's contract unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` pair originated from `System` via
        // this wrapper; `new_size` is the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Zeroes this thread's counter (phase boundary).
pub fn reset() {
    let _ = ALLOCS.try_with(|c| c.set(0));
}

/// Allocations and reallocations on this thread since the last [`reset`].
pub fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}
