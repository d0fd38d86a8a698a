//! The one counting allocator.
//!
//! [`Census`] defers every operation to [`System`] and counts, per
//! thread, each allocation and reallocation and the bytes each one
//! requests. A test binary installs it with
//! `#[global_allocator] static CENSUS: Census = Census;` and reads
//! [`count`] around the work it measures. The counters are the calling
//! thread's own, so work on other threads — the test harness, a second
//! test running beside it — is never counted, and the count of a
//! single-threaded operation is exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A [`GlobalAlloc`] that counts the calling thread's allocations.
pub struct Census;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    // No destructor and a const initializer: never unavailable, never
    // allocating.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

fn totals() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

// SAFETY: defers every operation to `System` unchanged; the only
// addition is two thread-local counters that publish no other data.
unsafe impl GlobalAlloc for Census {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// The `(allocations, requested bytes)` `op` makes on this thread, and
/// what it returns. A reallocation counts once, with its new size.
/// Counts nothing unless [`Census`] is the global allocator.
pub fn count<T>(op: impl FnOnce() -> T) -> ((u64, u64), T) {
    let (allocs, bytes) = totals();
    let out = op();
    let (allocs_after, bytes_after) = totals();
    ((allocs_after - allocs, bytes_after - bytes), out)
}
