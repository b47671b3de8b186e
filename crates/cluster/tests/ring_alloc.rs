//! Proof that the hot routing path is allocation-free.
//!
//! The router resolves every relayed request through
//! [`HashRing::successors_into`] with a per-connection buffer. This test
//! binary installs a counting global allocator and asserts that, once the
//! buffer is warmed, repeated successor lookups perform **zero** heap
//! allocations — the property the `successors_into` fast path exists for.
//! It lives in its own integration-test binary so the instrumented
//! allocator cannot skew any other test. The count is per thread: the
//! test harness runs these tests concurrently, and one of them allocates
//! on purpose.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nrpm_cluster::HashRing;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warmed_successor_lookups_do_not_allocate() {
    let ring = HashRing::new(0..8, 64);
    let mut buf: Vec<u32> = Vec::new();
    // Warm the buffer: the first fill may grow it to the shard count.
    ring.successors_into(0, &mut buf);
    assert_eq!(buf.len(), 8);

    let before = allocations();
    for key in 0..50_000u64 {
        ring.successors_into(key, &mut buf);
        std::hint::black_box(&buf);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "successors_into allocated on the hot path"
    );
}

#[test]
fn route_does_not_allocate() {
    let ring = HashRing::new(0..8, 64);
    let before = allocations();
    let mut acc = 0u64;
    for key in 0..50_000u64 {
        acc ^= u64::from(ring.route(key).unwrap());
    }
    std::hint::black_box(acc);
    assert_eq!(allocations() - before, 0, "route allocated on the hot path");
}

#[test]
fn the_allocating_successors_path_is_observable() {
    // Sanity-check the counter itself: the Vec-returning variant must
    // trip it, otherwise the zero assertions above prove nothing.
    let ring = HashRing::new(0..8, 64);
    let before = allocations();
    std::hint::black_box(ring.successors(1));
    assert!(allocations() > before, "counting allocator is not wired up");
}
