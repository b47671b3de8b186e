//! Bitwise guard for the in-place Householder QR core.
//!
//! The reference below is the row-major formulation `lstsq` had before the
//! Householder arithmetic moved onto caller-owned buffers: equilibrate the
//! columns into a fresh matrix, factorize a clone of it, apply `Qᵀ`, test
//! the rank, back-substitute, rescale. Every model the regression and DNN
//! modelers fit depends on these bits, so `lstsq`, `lstsq_into` and
//! `QrDecomposition` must reproduce them exactly, error variants and pivots
//! included.

use nrpm_linalg::{lstsq, lstsq_into, LinalgError, Matrix, QrDecomposition};
use proptest::prelude::*;

// ---------------------------------------------------------------- reference

const RANK_TOL: f64 = 1e-12;

#[derive(Debug)]
struct RefQr {
    qr: Matrix,
    taus: Vec<f64>,
}

impl RefQr {
    fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                op: "qr (need rows >= cols)",
                lhs: (m, n),
                rhs: (n, n),
            });
        }
        if !a.all_finite() {
            return Err(LinalgError::NonFinite);
        }
        let mut qr = a.clone();
        let mut taus = vec![0.0; n];

        for k in 0..n {
            let mut norm = 0.0_f64;
            for i in k..m {
                norm = norm.hypot(qr[(i, k)]);
            }
            if norm == 0.0 {
                taus[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            let tau = -v0 / alpha;
            for i in k + 1..m {
                qr[(i, k)] /= v0;
            }
            qr[(k, k)] = alpha;
            taus[k] = tau;

            for j in k + 1..n {
                let mut s = qr[(k, j)];
                for i in k + 1..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= tau;
                qr[(k, j)] -= s;
                for i in k + 1..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }

        Ok(RefQr { qr, taus })
    }

    fn r_diagonal(&self) -> Vec<f64> {
        (0..self.qr.cols()).map(|k| self.qr[(k, k)]).collect()
    }

    fn q_transpose_mul(&self, y: &[f64]) -> Vec<f64> {
        let (m, n) = self.qr.shape();
        let mut out = y.to_vec();
        for k in 0..n {
            let tau = self.taus[k];
            if tau == 0.0 {
                continue;
            }
            let mut s = out[k];
            for (i, &o) in out.iter().enumerate().take(m).skip(k + 1) {
                s += self.qr[(i, k)] * o;
            }
            s *= tau;
            out[k] -= s;
            for (i, o) in out.iter_mut().enumerate().take(m).skip(k + 1) {
                *o -= s * self.qr[(i, k)];
            }
        }
        out
    }

    fn solve(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.qr.cols();
        let qty = self.q_transpose_mul(y);
        let diag = self.r_diagonal();
        let max_diag = diag.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        if max_diag == 0.0 {
            return Err(LinalgError::RankDeficient { pivot: 0 });
        }
        for (k, d) in diag.iter().enumerate() {
            if d.abs() <= RANK_TOL * max_diag {
                return Err(LinalgError::RankDeficient { pivot: k });
            }
        }
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut s = qty[k];
            for (j, &xj) in x.iter().enumerate().take(n).skip(k + 1) {
                s -= self.qr[(k, j)] * xj;
            }
            x[k] = s / self.qr[(k, k)];
        }
        Ok(x)
    }
}

fn ref_lstsq(a: &Matrix, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if a.rows() != y.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "lstsq",
            lhs: a.shape(),
            rhs: (y.len(), 1),
        });
    }
    if a.rows() == 0 {
        return Err(LinalgError::EmptyInput);
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::NonFinite);
    }
    if !a.all_finite() {
        return Err(LinalgError::NonFinite);
    }
    let (m, n) = a.shape();
    let mut col_norms = vec![0.0f64; n];
    for c in 0..n {
        let mut s = 0.0;
        for r in 0..m {
            s += a[(r, c)] * a[(r, c)];
        }
        col_norms[c] = s.sqrt();
        if col_norms[c] == 0.0 {
            return Err(LinalgError::RankDeficient { pivot: c });
        }
    }
    let scaled = Matrix::from_fn(m, n, |r, c| a[(r, c)] / col_norms[c]);
    let mut x = RefQr::new(&scaled)?.solve(y)?;
    for (xi, norm) in x.iter_mut().zip(col_norms.iter()) {
        *xi /= norm;
    }
    Ok(x)
}

// ------------------------------------------------------------------ checks

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same(
    got: Result<Vec<f64>, LinalgError>,
    want: Result<Vec<f64>, LinalgError>,
    what: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_eq!(bits(&g), bits(&w), "{what}: {g:?} vs {w:?}"),
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}"),
        (g, w) => panic!("{what}: got {g:?}, reference {w:?}"),
    }
}

/// `lstsq`, and `lstsq_into` on a scratch dirtied by an unrelated system,
/// against the reference.
fn check_lstsq(a: &Matrix, y: &[f64], what: &str) {
    let want = ref_lstsq(a, y);
    assert_same(lstsq(a, y), want.clone(), &format!("{what}: lstsq"));
    if a.rows() == y.len() {
        let mut scratch = vec![f64::NAN; 3 * a.cols() + 7];
        let mut x = vec![f64::NAN; a.cols()];
        let got = lstsq_into(a.as_slice(), y, &mut x, &mut scratch).map(|()| x);
        assert_same(got, want, &format!("{what}: lstsq_into"));
    }
}

/// A random system: columns scaled by `10^e`, `e` drawn per column.
fn system() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (1usize..=130, 1usize..=5, 0u64..u64::MAX).prop_map(|(rows, cols, seed)| {
        let mut s = seed | 1;
        let mut uniform = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let scales: Vec<f64> = (0..cols)
            .map(|_| 10f64.powf(-8.0 + 16.0 * uniform()))
            .collect();
        let mut a = Matrix::from_fn(rows, cols, |_, c| (2.0 * uniform() - 1.0) * scales[c]);
        // One system in five makes its last column a near copy of the first,
        // which lands the rank test on either side of its threshold.
        if cols > 1 && uniform() < 0.2 {
            let (factor, eps) = (2.0 * uniform() - 1.0, 10f64.powf(-16.0 + 8.0 * uniform()));
            for r in 0..rows {
                a[(r, cols - 1)] = factor * a[(r, 0)] * (1.0 + eps * (2.0 * uniform() - 1.0));
            }
        }
        let y_scale = 10f64.powf(-6.0 + 12.0 * uniform());
        let y = (0..rows)
            .map(|_| (2.0 * uniform() - 1.0) * y_scale)
            .collect();
        (a, y)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn lstsq_matches_the_reference_bitwise(sys in system()) {
        let (a, y) = sys;
        check_lstsq(&a, &y, &format!("{}x{}", a.rows(), a.cols()));
    }

    #[test]
    fn qr_decomposition_matches_the_reference_bitwise(sys in system()) {
        let (a, y) = sys;
        match (QrDecomposition::new(&a), RefQr::new(&a)) {
            (Ok(qr), Ok(reference)) => {
                prop_assert_eq!(bits(&qr.r_diagonal()), bits(&reference.r_diagonal()));
                prop_assert_eq!(
                    bits(&qr.q_transpose_mul(&y).unwrap()),
                    bits(&reference.q_transpose_mul(&y))
                );
                assert_same(qr.solve(&y), reference.solve(&y), "solve");
            }
            (Err(e), Err(r)) => prop_assert_eq!(e, r),
            (e, r) => panic!("new: {e:?} vs {r:?}"),
        }
    }
}

#[test]
fn edge_cases_match_the_reference() {
    let y3 = [1.0, 2.0, 4.0];
    // A zero column.
    let zero = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0], &[3.0, 0.0]]);
    check_lstsq(&zero, &y3, "zero column");
    assert_eq!(
        lstsq(&zero, &y3),
        Err(LinalgError::RankDeficient { pivot: 1 })
    );
    // A duplicated column: the same variant and pivot.
    let dup = Matrix::from_rows(&[&[1.0, 3.0, 3.0], &[2.0, 5.0, 5.0], &[3.0, 1.0, 1.0]]);
    check_lstsq(&dup, &y3, "duplicated column");
    assert!(matches!(
        lstsq(&dup, &y3),
        Err(LinalgError::RankDeficient { .. })
    ));
    // Non-finite input, in A or in y.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        check_lstsq(&a, &[1.0, bad, 3.0], "non-finite y");
        a[(1, 1)] = bad;
        check_lstsq(&a, &y3, "non-finite A");
        assert_eq!(lstsq(&a, &y3), Err(LinalgError::NonFinite));
    }
    // Fewer rows than columns, with and without a zero column.
    let wide = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 7.0]]);
    check_lstsq(&wide, &[1.0, 2.0], "rows < cols");
    assert!(matches!(
        lstsq(&wide, &[1.0, 2.0]),
        Err(LinalgError::ShapeMismatch { .. })
    ));
    let wide_zero = Matrix::from_rows(&[&[1.0, 0.0, 3.0], &[4.0, 0.0, 7.0]]);
    check_lstsq(&wide_zero, &[1.0, 2.0], "rows < cols, zero column");
    // Empty input, and no columns at all.
    check_lstsq(&Matrix::zeros(0, 0), &[], "0x0");
    check_lstsq(&Matrix::zeros(0, 2), &[], "0x2");
    check_lstsq(&Matrix::zeros(3, 0), &y3, "3x0");
    // Mismatched right-hand side.
    check_lstsq(&zero, &[1.0, 2.0], "short y");
    // Column norms that overflow or underflow their sum of squares.
    let extreme = Matrix::from_rows(&[&[1.0, 1e200], &[1.0, 2e200], &[1.0, 3e200]]);
    check_lstsq(&extreme, &y3, "overflowing column");
    let tiny = Matrix::from_rows(&[&[1.0, 1e-200], &[1.0, 2e-200], &[1.0, 3e-162]]);
    check_lstsq(&tiny, &y3, "underflowing column");
    // Exactly determined and single-row systems.
    let square = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
    check_lstsq(&square, &[5.0, 10.0], "square");
    check_lstsq(&Matrix::from_rows(&[&[-4.0]]), &[3.0], "1x1");
}

#[test]
fn lstsq_into_validates_the_slice_shape() {
    let mut x = [0.0; 2];
    assert!(matches!(
        lstsq_into(&[1.0; 5], &[1.0; 3], &mut x, &mut Vec::new()),
        Err(LinalgError::ShapeMismatch { op: "lstsq", .. })
    ));
}
