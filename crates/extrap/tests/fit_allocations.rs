//! Heap allocations of the hypothesis fit.
//!
//! Every solve of a fit (the full fit, the pruned refit, each
//! leave-one-out fold) reuses one set of buffers, so the number of
//! allocations of a fit does not grow with its number of folds, and a
//! candidate selection does not allocate per fold or per losing candidate.
//! A binary of its own: the counting allocator below sees every allocation
//! of the process, and counts those of the calling thread.

use nrpm_extrap::{
    combine_candidate_pairs, fit_hypothesis, Aggregation, ExponentPair, Hypothesis, MeasurementSet,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) the calling thread makes in `f`.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `n` points of `3 + 2x` with a deterministic ±1 % wobble.
fn linear_points(n: usize) -> Vec<(Vec<f64>, f64)> {
    (0..n)
        .map(|i| {
            let x = 2.0 + 3.0 * i as f64;
            let wobble = 1.0 + 0.01 * ((i * 7 % 5) as f64 - 2.0) / 2.0;
            (vec![x], (3.0 + 2.0 * x) * wobble)
        })
        .collect()
}

#[test]
fn a_fit_allocates_the_same_whatever_its_fold_count() {
    let hypothesis = Hypothesis::single(ExponentPair::from_parts(1, 1, 0));
    let (five, forty) = (linear_points(5), linear_points(40));
    let count = |points: &[(Vec<f64>, f64)]| {
        allocations(|| {
            black_box(fit_hypothesis(&hypothesis, points).expect("the linear data fit"));
        })
    };
    let (on_five, on_forty) = (count(&five), count(&forty));
    println!("fit_hypothesis(x^1): {on_five} allocations on 5 points, {on_forty} on 40");
    assert_eq!(on_five, on_forty, "allocations grow with the folds");
    assert!(on_five <= 10, "{on_five} allocations for one fit");
}

#[test]
fn a_selection_does_not_allocate_per_fold() {
    let mut set = MeasurementSet::new(1);
    for (point, value) in linear_points(5) {
        set.add(&point, value);
    }
    let per_param = vec![vec![
        ExponentPair::from_parts(1, 1, 0),
        ExponentPair::from_parts(1, 2, 0),
        ExponentPair::from_parts(2, 1, 0),
        ExponentPair::from_parts(1, 1, 1),
    ]];
    // A tie tolerance of 200 (SMAPE's ceiling) keeps every candidate within
    // reach of the winner, so each one is cross-validated in full.
    let count = allocations(|| {
        black_box(
            combine_candidate_pairs(&set, &per_param, Aggregation::Median, 200.0)
                .expect("the linear data model"),
        );
    });
    println!("combine_candidate_pairs (m = 1, 4 candidates, 5 points): {count} allocations");
    assert!(count <= 60, "{count} allocations for one selection");
}
