//! A reclaimed buffer freezes in place: [`Bytes::try_into_mut`] keeps the
//! storage's reference-counted block, and the next `freeze` refills it
//! instead of allocating a new one.
//!
//! One `#[test]` only: the counter is process-wide, so a second test
//! running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{BufMut, BytesMut};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the only
// addition is a relaxed counter that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn freeze_after_a_reclaim_reuses_the_storage_and_allocates_nothing() {
    let mut m = BytesMut::with_capacity(64);
    m.put_slice(b"first message");
    let before = allocs();
    let mut b = m.freeze();
    assert_eq!(allocs() - before, 1, "a fresh buffer freezes into one new block");
    let data = b.as_ptr();

    for round in 0..100u32 {
        let before = allocs();
        let mut m = b.try_into_mut().expect("sole handle");
        m.clear();
        m.put_u32(round);
        m.put_slice(b"reply");
        b = m.freeze();
        assert_eq!(allocs() - before, 0, "round {round}: reclaim, write and freeze allocate");
        assert_eq!(b.as_ptr(), data, "round {round}: the bytes moved");
        assert_eq!((&b[..4], &b[4..]), (&round.to_be_bytes()[..], &b"reply"[..]));
    }
}
