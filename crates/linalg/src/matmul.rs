//! Multi-threaded matrix multiplication over the register-blocked
//! micro-kernels in [`crate::kernel`].
//!
//! This layer owns shape validation, the thread-stripe partition and the
//! minimum-work-per-thread floor; the actual arithmetic lives in the
//! kernel module. Output rows are split into contiguous stripes, one per
//! worker, and every stripe accumulates each element in the same fixed
//! order (see the kernel module's determinism notes) — so results are
//! bitwise identical at any thread count, on either compute path.

use crate::kernel::{self, choose_path, AView, GemmPath, PackedGemmB};
use crate::{dot, LinalgError, Matrix, Result, ThreadBudget};
use std::cell::RefCell;

/// Minimum floating-point operations (`2*m*k*n` scale) a worker thread
/// must have before the parallel path will fan out to it. Spawning and
/// joining a scoped thread costs tens of microseconds; at current kernel
/// throughput this floor keeps that overhead under a few percent.
///
/// Without it, training slows down at 4–8 threads: the trainer's
/// per-layer products are small enough that fanning them across the whole
/// thread budget costs more than the compute itself.
pub const MIN_FLOPS_PER_THREAD: usize = 4_000_000;

/// Threading options for [`matmul`].
#[derive(Debug, Clone, Copy)]
pub struct MatmulOptions {
    /// Number of worker threads. `1` means fully sequential.
    pub threads: usize,
    /// Minimum number of output elements per thread before the parallel path
    /// is taken; tiny products stay sequential to avoid spawn overhead.
    pub parallel_threshold: usize,
    /// Work floor per worker thread (see [`MIN_FLOPS_PER_THREAD`]). The
    /// effective thread count is capped at `total_flops / this`. Tests pin
    /// it to `1` to force the parallel path on small inputs.
    pub min_flops_per_thread: usize,
}

impl Default for MatmulOptions {
    fn default() -> Self {
        MatmulOptions {
            threads: default_threads(),
            parallel_threshold: 64 * 64,
            min_flops_per_thread: MIN_FLOPS_PER_THREAD,
        }
    }
}

/// Default worker count for matmul: the process-wide [`ThreadBudget`].
///
/// Components that share cores with other parallel layers (serve workers,
/// the data-parallel trainer) size themselves from the same budget, so the
/// pieces compose without oversubscribing the machine.
pub fn default_threads() -> usize {
    ThreadBudget::get()
}

/// Caps the requested thread count by the available work: each worker must
/// have at least `min_flops` worth of multiply-adds, and at least one
/// output row.
pub(crate) fn effective_threads(
    threads: usize,
    m: usize,
    k: usize,
    n: usize,
    min_flops: usize,
) -> usize {
    let t = threads.max(1);
    if t == 1 {
        return 1;
    }
    let flops = 2u128 * m as u128 * k as u128 * n as u128;
    let by_work = (flops / min_flops.max(1) as u128).max(1);
    let by_work = usize::try_from(by_work).unwrap_or(usize::MAX);
    t.min(by_work).min(m.max(1))
}

/// `C = A * B` with default options.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul_threaded(a, b, MatmulOptions::default())
}

/// `C = A * B` with explicit tuning options.
pub fn matmul_threaded(a: &Matrix, b: &Matrix, opts: MatmulOptions) -> Result<Matrix> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut c, opts)?;
    Ok(c)
}

/// `C = A * B`, writing into a preallocated output (contents are
/// overwritten). Reusing the output avoids reallocation in training loops.
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix, opts: MatmulOptions) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if c.shape() != (a.rows(), b.cols()) {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul (output)",
            lhs: c.shape(),
            rhs: (a.rows(), b.cols()),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let view = AView {
        data: a.as_slice(),
        rs: k,
        ks: 1,
    };
    run_gemm(view, b.as_slice(), c.as_mut_slice(), m, k, n, opts);
    Ok(())
}

/// `C = Aᵀ * B`, writing into a preallocated output, without materializing
/// the transpose of `A`.
///
/// `A` is `k x m`, `B` is `k x n`, and `C` must be `m x n`. The kernels
/// read `A` through a strided view (output row `r` walks column `r` of
/// `A`), so no transpose copy is ever made. This is the backward-pass
/// shape `dW = Xᵀ · dZ`: the training loop calls it every step.
///
/// Each output element accumulates over the shared dimension in the same
/// fixed order regardless of how output rows are partitioned across
/// threads, so results are bitwise identical at any thread count.
pub fn matmul_at_into(a: &Matrix, b: &Matrix, c: &mut Matrix, opts: MatmulOptions) -> Result<()> {
    if a.rows() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_at",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if c.shape() != (a.cols(), b.cols()) {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_at (output)",
            lhs: c.shape(),
            rhs: (a.cols(), b.cols()),
        });
    }
    let k = a.rows();
    let m = a.cols();
    let n = b.cols();
    let view = AView {
        data: a.as_slice(),
        rs: 1,
        ks: m,
    };
    run_gemm(view, b.as_slice(), c.as_mut_slice(), m, k, n, opts);
    Ok(())
}

thread_local! {
    /// Reused buffer for the packed-path copy of `B`, so steady-state
    /// sequential callers (the trainer's per-chunk products, serve workers)
    /// stop allocating once warm.
    static PACKED_B_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

fn run_gemm(
    a: AView<'_>,
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    opts: MatmulOptions,
) {
    c.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let isa = kernel::kernel_isa();
    let path = choose_path(isa, m, k, n);
    let threads = stripe_count(&opts, m, k, n);

    PACKED_B_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let packed_b: Option<&[f64]> = if path == GemmPath::Packed {
            kernel::pack_b_full(b, k, n, &mut scratch);
            Some(&scratch[..])
        } else {
            None
        };
        run_stripes(c, m, n, threads, |stripe, row0, rows| {
            kernel::gemm_stripe(isa, a, b, packed_b, stripe, row0, rows, k, n, path);
        });
    });
}

/// How many row stripes an `m x k * k x n` product runs in: its thread
/// budget capped by the work floor, or one below the parallel threshold.
fn stripe_count(opts: &MatmulOptions, m: usize, k: usize, n: usize) -> usize {
    let threads = effective_threads(opts.threads, m, k, n, opts.min_flops_per_thread);
    if threads > 1 && m * n >= opts.parallel_threshold && m > 1 {
        threads
    } else {
        1
    }
}

/// Runs `stripe(c_rows, row0, rows)` over `threads` contiguous row stripes
/// of the `m x n` output, rounded to the micro-tile height so tiles never
/// straddle a stripe boundary. Stripes are disjoint `&mut` slices, so no
/// synchronization is needed; one thread runs the whole product inline.
fn run_stripes(
    c: &mut [f64],
    m: usize,
    n: usize,
    threads: usize,
    stripe: impl Fn(&mut [f64], usize, usize) + Sync,
) {
    if threads <= 1 {
        stripe(c, 0, m);
        return;
    }
    let rows_per_thread = m.div_ceil(threads).div_ceil(kernel::MR) * kernel::MR;
    let stripe = &stripe;
    std::thread::scope(|scope| {
        for (t, part) in c.chunks_mut(rows_per_thread * n).enumerate() {
            scope.spawn(move || stripe(part, t * rows_per_thread, part.len() / n));
        }
    });
}

/// `C = A * B` against a right operand packed once by
/// [`PackedGemmB::pack`](kernel::PackedGemmB::pack), writing into a
/// preallocated output (contents are overwritten).
///
/// Nothing is packed per call. Up to [`kernel::STATIONARY_MAX_M`] rows,
/// each panel of `B` streams from memory once with every row of `A`
/// resident; larger products run the packed loop nest over the same
/// panels, split into row stripes as [`matmul_into`] splits them. Every
/// output element accumulates in the same order as [`matmul_into`], so the
/// two are bitwise equal at any thread count.
pub fn matmul_prepacked_into(
    a: &Matrix,
    b: &PackedGemmB,
    c: &mut Matrix,
    opts: MatmulOptions,
) -> Result<()> {
    if a.cols() != b.k() {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_prepacked",
            lhs: a.shape(),
            rhs: (b.k(), b.n()),
        });
    }
    if c.shape() != (a.rows(), b.n()) {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_prepacked (output)",
            lhs: c.shape(),
            rhs: (a.rows(), b.n()),
        });
    }
    let (m, k) = a.shape();
    let n = b.n();
    let c = c.as_mut_slice();
    c.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return Ok(());
    }
    let isa = kernel::kernel_isa();
    let view = AView {
        data: a.as_slice(),
        rs: k,
        ks: 1,
    };
    run_stripes(
        c,
        m,
        n,
        stripe_count(&opts, m, k, n),
        |stripe, row0, rows| {
            kernel::prepacked_stripe(isa, view, b, stripe, row0, rows);
        },
    );
    Ok(())
}

/// Matrix-vector product `y = A * x`.
pub fn matvec(a: &Matrix, x: &[f64]) -> Result<Vec<f64>> {
    if a.cols() != x.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "matvec",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    Ok((0..a.rows()).map(|r| dot(a.row(r), x)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for kk in 0..a.cols() {
                    s += a[(i, kk)] * b[(kk, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    fn pseudo_random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        // xorshift so the test has no RNG dependency
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        })
    }

    #[test]
    fn identity_is_neutral() {
        let a = pseudo_random_matrix(5, 5, 42);
        let i = Matrix::identity(5);
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn matches_naive_for_odd_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 7, 2), (17, 5, 13), (8, 8, 8), (2, 100, 3)] {
            let a = pseudo_random_matrix(m, k, 7);
            let b = pseudo_random_matrix(k, n, 11);
            let expected = naive_matmul(&a, &b);
            let got = matmul(&a, &b).unwrap();
            for (x, y) in got.as_slice().iter().zip(expected.as_slice()) {
                assert!((x - y).abs() < 1e-9, "mismatch {x} vs {y}");
            }
        }
    }

    #[test]
    fn parallel_path_matches_sequential() {
        let a = pseudo_random_matrix(97, 64, 3);
        let b = pseudo_random_matrix(64, 83, 5);
        let seq = matmul_threaded(
            &a,
            &b,
            MatmulOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let par = matmul_threaded(
            &a,
            &b,
            MatmulOptions {
                threads: 4,
                parallel_threshold: 1,
                min_flops_per_thread: 1,
            },
        )
        .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matches!(
            matmul(&a, &b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn output_shape_is_validated() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let mut c = Matrix::zeros(2, 3);
        assert!(matmul_into(&a, &b, &mut c, MatmulOptions::default()).is_err());
    }

    #[test]
    fn empty_dimensions_yield_empty_products() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 2));

        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let a = pseudo_random_matrix(6, 4, 23);
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let y = matvec(&a, &x).unwrap();
        let via_matmul = matmul(&a, &Matrix::column_vector(&x)).unwrap();
        for (i, v) in y.iter().enumerate() {
            assert!((v - via_matmul[(i, 0)]).abs() < 1e-12);
        }
        assert!(matvec(&a, &[1.0]).is_err());
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        for &(k, m, n) in &[(1, 1, 1), (7, 3, 2), (5, 17, 13), (64, 32, 43), (100, 2, 3)] {
            let a = pseudo_random_matrix(k, m, 29);
            let b = pseudo_random_matrix(k, n, 37);
            let expected = matmul(&a.transpose(), &b).unwrap();
            let mut c = Matrix::zeros(m, n);
            matmul_at_into(
                &a,
                &b,
                &mut c,
                MatmulOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            for (x, y) in c.as_slice().iter().zip(expected.as_slice()) {
                assert!((x - y).abs() < 1e-9, "mismatch {x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_at_parallel_is_bitwise_equal_to_sequential() {
        let a = pseudo_random_matrix(53, 96, 41);
        let b = pseudo_random_matrix(53, 71, 43);
        let mut seq = Matrix::zeros(96, 71);
        matmul_at_into(
            &a,
            &b,
            &mut seq,
            MatmulOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for threads in 2..=8 {
            let mut par = Matrix::zeros(96, 71);
            matmul_at_into(
                &a,
                &b,
                &mut par,
                MatmulOptions {
                    threads,
                    parallel_threshold: 1,
                    min_flops_per_thread: 1,
                },
            )
            .unwrap();
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn matmul_at_validates_shapes() {
        let a = Matrix::zeros(4, 3);
        let b = Matrix::zeros(5, 2);
        let mut c = Matrix::zeros(3, 2);
        assert!(matmul_at_into(&a, &b, &mut c, MatmulOptions::default()).is_err());
        let b = Matrix::zeros(4, 2);
        let mut wrong = Matrix::zeros(2, 2);
        assert!(matmul_at_into(&a, &b, &mut wrong, MatmulOptions::default()).is_err());
        assert!(matmul_at_into(&a, &b, &mut c, MatmulOptions::default()).is_ok());
    }

    #[test]
    fn matmul_into_reuses_buffer_and_overwrites() {
        let a = Matrix::identity(3);
        let b = pseudo_random_matrix(3, 3, 31);
        let mut c = Matrix::filled(3, 3, 99.0);
        matmul_into(&a, &b, &mut c, MatmulOptions::default()).unwrap();
        assert_eq!(c, b);
    }

    #[test]
    fn effective_threads_floors_small_work() {
        // 16x16x16 = 8192 flops: never worth more than one thread.
        assert_eq!(effective_threads(8, 16, 16, 16, MIN_FLOPS_PER_THREAD), 1);
        // 512x512x512 = 268M flops: the full budget is justified.
        assert_eq!(effective_threads(8, 512, 512, 512, MIN_FLOPS_PER_THREAD), 8);
        // Intermediate sizes get a partial fan-out.
        let mid = effective_threads(8, 128, 128, 128, MIN_FLOPS_PER_THREAD);
        assert!((1..8).contains(&mid), "got {mid}");
        // Floor of one row per thread, and floor override for tests.
        assert_eq!(effective_threads(8, 2, 1000, 1000, 1), 2);
        assert_eq!(effective_threads(4, 16, 16, 16, 1), 4);
    }

    #[test]
    fn parallel_threshold_and_floor_compose_bitwise() {
        // Large-ish product across every thread count, both orientations:
        // all results must be bit-identical to sequential.
        let a = pseudo_random_matrix(130, 300, 3);
        let b = pseudo_random_matrix(300, 90, 5);
        let seq = matmul_threaded(
            &a,
            &b,
            MatmulOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for threads in 2..=8 {
            let par = matmul_threaded(
                &a,
                &b,
                MatmulOptions {
                    threads,
                    parallel_threshold: 1,
                    min_flops_per_thread: 1,
                },
            )
            .unwrap();
            assert_eq!(seq, par, "threads = {threads}");
        }
    }
}
