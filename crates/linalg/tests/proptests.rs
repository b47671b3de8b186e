//! Property-based tests for the linear-algebra substrate.

use nrpm_linalg::{
    dot, gemm_i8, kernel, kernel_isa, lstsq, matmul, matmul_threaded, stats, MatmulOptions, Matrix,
    QuantizedGemmB,
};
use proptest::prelude::*;

fn small_matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-100.0..100.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #[test]
    fn matmul_is_associative_with_identity(m in small_matrix(1..6, 1..6)) {
        let left = matmul(&Matrix::identity(m.rows()), &m).unwrap();
        let right = matmul(&m, &Matrix::identity(m.cols())).unwrap();
        for ((a, b), c) in left.as_slice().iter().zip(right.as_slice()).zip(m.as_slice()) {
            prop_assert!((a - c).abs() < 1e-9);
            prop_assert!((b - c).abs() < 1e-9);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in small_matrix(1..5, 1..5),
        seed in 0u64..1000,
    ) {
        // Build b, c with the same inner dimension as a's cols.
        let k = a.cols();
        let n = 3;
        let mut s = seed | 1;
        let mut gen = || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 1000) as f64 / 100.0 - 5.0
        };
        let b = Matrix::from_fn(k, n, |_, _| gen());
        let c = Matrix::from_fn(k, n, |_, _| gen());
        let mut bc = b.clone();
        bc.add_assign(&c).unwrap();
        let lhs = matmul(&a, &bc).unwrap();
        let mut rhs = matmul(&a, &b).unwrap();
        rhs.add_assign(&matmul(&a, &c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn parallel_matmul_agrees_with_sequential(
        a in small_matrix(1..20, 1..20),
        seed in 0u64..1000,
    ) {
        let k = a.cols();
        let mut s = seed | 1;
        let b = Matrix::from_fn(k, 7, |_, _| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 1000) as f64 / 100.0 - 5.0
        });
        let seq = matmul_threaded(&a, &b, MatmulOptions { threads: 1, ..Default::default() }).unwrap();
        let par = matmul_threaded(&a, &b, MatmulOptions { threads: 3, parallel_threshold: 1, ..Default::default() }).unwrap();
        for (x, y) in seq.as_slice().iter().zip(par.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn threaded_matmul_is_bitwise_identical_to_sequential(
        a in small_matrix(1..24, 1..24),
        n in 1usize..16,
        threads in 1usize..=8,
        seed in 0u64..1000,
    ) {
        // Row-panel parallelism hands each thread disjoint output rows and
        // every row accumulates in the same k order, so the parallel product
        // must equal the sequential one bit for bit — not just within an
        // epsilon. This is what makes threaded training seed-reproducible.
        let k = a.cols();
        let mut s = seed | 1;
        let b = Matrix::from_fn(k, n, |_, _| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 1000) as f64 / 100.0 - 5.0
        });
        let seq = matmul_threaded(&a, &b, MatmulOptions {
            threads: 1,
            ..Default::default()
        }).unwrap();
        let par = matmul_threaded(&a, &b, MatmulOptions {
            threads,
            parallel_threshold: 1,
            min_flops_per_thread: 1,
        }).unwrap();
        prop_assert_eq!(seq.as_slice(), par.as_slice());
    }

    #[test]
    fn micro_kernel_paths_match_reference_bitwise(
        m in 1usize..40,
        k in 1usize..300,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        // The direct (no-pack) and packed paths, and the scalar KC-chunked
        // reference, must agree bit for bit on every ragged shape — this is
        // the invariant that makes the path heuristic and the autotuner
        // pure performance knobs.
        let mut s = seed | 1;
        let mut gen = || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 1000) as f64 / 500.0 - 1.0
        };
        let a: Vec<f64> = (0..m * k).map(|_| gen()).collect();
        let b: Vec<f64> = (0..k * n).map(|_| gen()).collect();
        let direct = kernel::testing::gemm_forced(&a, &b, m, k, n, kernel::GemmPath::Direct);
        let packed = kernel::testing::gemm_forced(&a, &b, m, k, n, kernel::GemmPath::Packed);
        let reference = kernel::testing::gemm_reference(&a, &b, m, k, n, kernel_isa().uses_fma());
        prop_assert_eq!(&direct, &packed, "direct vs packed at {}x{}x{}", m, k, n);
        prop_assert_eq!(&direct, &reference, "kernel vs reference at {}x{}x{}", m, k, n);
    }

    #[test]
    fn prepacked_path_matches_reference_bitwise(
        m in 1usize..40,
        k in 1usize..300,
        n in 1usize..40,
        threads in 1usize..=3,
        seed in 0u64..1000,
    ) {
        // The pre-packed product (weight-stationary up to 16 rows, the
        // packed loop nest above) accumulates in the reference order at
        // every thread budget.
        let mut s = seed | 1;
        let mut gen = || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 1000) as f64 / 500.0 - 1.0
        };
        let a: Vec<f64> = (0..m * k).map(|_| gen()).collect();
        let b: Vec<f64> = (0..k * n).map(|_| gen()).collect();
        let got = kernel::testing::gemm_prepacked(&a, &b, m, k, n, threads);
        let reference = kernel::testing::gemm_reference(&a, &b, m, k, n, kernel_isa().uses_fma());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&reference), "prepacked vs reference at {}x{}x{}", m, k, n);
    }

    #[test]
    fn micro_kernel_edge_shapes_match_naive(
        k in 1usize..600,
        n in 1usize..64,
        seed in 0u64..1000,
    ) {
        // 1xN row-vector products, Nx1 column outputs, and empty dims.
        let mut s = seed | 1;
        let mut gen = || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 1000) as f64 / 500.0 - 1.0
        };
        for (m, k, n) in [(1usize, k, n), (n, k, 1usize), (1, k, 1), (0, k, n), (n, k, 0)] {
            let a: Vec<f64> = (0..m * k).map(|_| gen()).collect();
            let b: Vec<f64> = (0..k * n).map(|_| gen()).collect();
            for path in [kernel::GemmPath::Direct, kernel::GemmPath::Packed] {
                let got = kernel::testing::gemm_forced(&a, &b, m, k, n, path);
                prop_assert_eq!(got.len(), m * n);
                for i in 0..m {
                    for j in 0..n {
                        let mut want = 0.0;
                        for kk in 0..k {
                            want += a[i * k + kk] * b[kk * n + j];
                        }
                        prop_assert!(
                            (got[i * n + j] - want).abs() < 1e-9 * (1.0 + want.abs()),
                            "{}x{}x{} {:?}: {} vs {}", m, k, n, path, got[i * n + j], want
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn int8_gemm_matches_exact_reference(
        m in 1usize..24,
        k in 1usize..200,
        n in 1usize..48,
        seed in 0u64..1000,
    ) {
        let mut s = seed | 1;
        let mut gen = || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s % 255) as i8
        };
        let a: Vec<i8> = (0..m * k).map(|_| gen()).collect();
        let b: Vec<i8> = (0..k * n).map(|_| gen()).collect();
        let packed = QuantizedGemmB::pack(&b, k, n);
        let mut c = vec![0i32; m * n];
        gemm_i8(&a, m, k, &packed, &mut c);
        for i in 0..m {
            for j in 0..n {
                let mut want = 0i32;
                for kk in 0..k {
                    want += a[i * k + kk] as i32 * b[kk * n + j] as i32;
                }
                prop_assert_eq!(c[i * n + j], want, "at ({}, {})", i, j);
            }
        }
    }

    #[test]
    fn transpose_preserves_dot_products(m in small_matrix(2..6, 2..6)) {
        // (A^T)_{ji} == A_{ij}
        let t = m.transpose();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                prop_assert_eq!(m[(r, c)], t[(c, r)]);
            }
        }
    }

    #[test]
    fn lstsq_recovers_exact_linear_models(
        intercept in -50.0..50.0f64,
        slope in -50.0..50.0f64,
        n in 3usize..20,
    ) {
        let a = Matrix::from_fn(n, 2, |r, c| if c == 0 { 1.0 } else { (r + 1) as f64 });
        let y: Vec<f64> = (0..n).map(|r| intercept + slope * (r + 1) as f64).collect();
        let x = lstsq(&a, &y).unwrap();
        prop_assert!((x[0] - intercept).abs() < 1e-6, "intercept {} vs {}", x[0], intercept);
        prop_assert!((x[1] - slope).abs() < 1e-6, "slope {} vs {}", x[1], slope);
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_columns(
        ys in prop::collection::vec(-100.0..100.0f64, 6),
    ) {
        // Normal-equation optimality: A^T (Ax - y) = 0.
        let a = Matrix::from_fn(6, 2, |r, c| if c == 0 { 1.0 } else { ((r + 1) * (r + 1)) as f64 });
        let x = lstsq(&a, &ys).unwrap();
        for c in 0..2 {
            let col = a.col(c);
            let resid: Vec<f64> = (0..6).map(|r| dot(a.row(r), &x) - ys[r]).collect();
            prop_assert!(dot(&col, &resid).abs() < 1e-6);
        }
    }

    #[test]
    fn median_is_within_min_max(xs in prop::collection::vec(-1e6..1e6f64, 1..50)) {
        let med = stats::median(&xs);
        let lo = stats::min(&xs);
        let hi = stats::max(&xs);
        prop_assert!(med >= lo && med <= hi);
    }

    #[test]
    fn quantiles_are_monotone(xs in prop::collection::vec(-1e3..1e3f64, 1..40)) {
        let q25 = stats::quantile(&xs, 0.25);
        let q50 = stats::quantile(&xs, 0.5);
        let q75 = stats::quantile(&xs, 0.75);
        prop_assert!(q25 <= q50 && q50 <= q75);
    }

    #[test]
    fn variance_is_translation_invariant(
        xs in prop::collection::vec(-100.0..100.0f64, 2..30),
        shift in -1e3..1e3f64,
    ) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let v0 = stats::variance(&xs);
        let v1 = stats::variance(&shifted);
        prop_assert!((v0 - v1).abs() < 1e-6 * (1.0 + v0.abs()));
    }
}
