//! Proof that reading and writing a checkpoint holds no value tree.
//!
//! A tree of one `serde::Value` per number is about four times the size of
//! the weights it describes. This binary installs a counting global
//! allocator that tracks live heap bytes and their peak, and asserts that
//! inside [`Network::from_json`] the peak stays near the weights being
//! built, and inside [`Network::to_json`] near the text being written. It
//! lives in its own integration-test binary so the instrumented allocator
//! cannot skew any other test; the counts are per thread, as the harness
//! runs tests concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nrpm_nn::{Network, NetworkConfig};

struct CountingAlloc;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the allocator may carry it out: the new block is live
        // before the old one is freed.
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the peak of live heap bytes the
/// calling thread reached during it, above the level it started at.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, PEAK.with(Cell::get) - start)
}

/// Room for the bookkeeping around the numbers: the layer list, keys,
/// growing bias vectors and error-free formatting.
const SLACK: usize = 64 * 1024;

/// A mid-size network (~140 k parameters, ~3 MB of text): large enough
/// that a tree would dwarf the slack, small enough for a quick debug run.
fn network() -> Network {
    Network::new(&NetworkConfig::new(&[11, 400, 300, 43]), 7)
}

#[test]
fn reading_holds_little_more_than_the_weights() {
    let json = network().to_json();
    let (net, peak) = peak_during(|| Network::from_json(&json).unwrap());
    let weight_bytes = net.num_parameters() * std::mem::size_of::<f64>();
    assert!(
        peak <= weight_bytes + weight_bytes / 10 + SLACK,
        "from_json peaked at {peak} live bytes for {weight_bytes} bytes of weights"
    );
}

#[test]
fn writing_holds_little_more_than_the_text() {
    let net = network();
    let (json, peak) = peak_during(|| net.to_json());
    assert!(
        peak <= json.capacity() + SLACK,
        "to_json peaked at {peak} live bytes for a {}-byte buffer",
        json.capacity()
    );
}
