//! Householder QR decomposition and least-squares solving.
//!
//! The regression modeler fits PMNF coefficients by solving overdetermined
//! systems `min ||A c - y||`; QR with column-norm safeguards is numerically
//! far more robust than normal equations when the design matrix mixes
//! columns like `1`, `x^{5/2}` and `log2(x)^2` whose scales differ by many
//! orders of magnitude.
//!
//! There is one Householder implementation: `factor`, `apply_qt` and
//! `back_substitute` work in place on a column-major buffer the caller
//! owns. [`QrDecomposition`] keeps that buffer; [`lstsq_into`] borrows a
//! scratch vector for it, so a caller that solves many small systems (every
//! leave-one-out fold of every hypothesis) allocates once.

use crate::{dot, LinalgError, Matrix, Result};

/// Relative pivot threshold below which a column is declared dependent.
const RANK_TOL: f64 = 1e-12;

/// Factorizes the column-major `m × taus.len()` matrix `qr` (`m >= cols`)
/// in place: the upper triangle becomes `R`, the strict lower triangle the
/// Householder vectors (normalized so `v[0] = 1`), and `taus` their scalar
/// factors.
fn factor(qr: &mut [f64], m: usize, taus: &mut [f64]) {
    for k in 0..taus.len() {
        let (head, trailing) = qr.split_at_mut((k + 1) * m);
        let column = &mut head[k * m..];
        // The norm of the k-th column below the diagonal; `hypot` keeps it
        // free of overflow and underflow.
        let mut norm = 0.0_f64;
        for &a in &column[k..] {
            norm = norm.hypot(a);
        }
        if norm == 0.0 {
            taus[k] = 0.0;
            continue;
        }
        // Choose the sign that avoids cancellation.
        let alpha = if column[k] >= 0.0 { -norm } else { norm };
        let v0 = column[k] - alpha;
        // tau = -v0 / alpha per the LAPACK convention with v normalized so
        // v[0] = 1.
        let tau = -v0 / alpha;
        for a in &mut column[k + 1..] {
            *a /= v0;
        }
        column[k] = alpha;
        taus[k] = tau;

        // Apply the reflector to the trailing columns.
        let v = &column[k + 1..];
        for col in trailing.chunks_exact_mut(m) {
            let (top, below) = col[k..].split_first_mut().expect("k < m");
            let mut s = *top;
            for (&vi, &a) in v.iter().zip(below.iter()) {
                s += vi * a;
            }
            s *= tau;
            *top -= s;
            for (&vi, a) in v.iter().zip(below) {
                *a -= s * vi;
            }
        }
    }
}

/// Overwrites `y` (length `m`) with `Qᵀ y` for the factorization [`factor`]
/// left in `qr` and `taus`.
fn apply_qt(qr: &[f64], m: usize, taus: &[f64], y: &mut [f64]) {
    for (k, &tau) in taus.iter().enumerate() {
        if tau == 0.0 {
            continue;
        }
        let v = &qr[k * m + k + 1..(k + 1) * m];
        let (top, below) = y[k..].split_first_mut().expect("k < m");
        let mut s = *top;
        for (&vi, &o) in v.iter().zip(below.iter()) {
            s += vi * o;
        }
        s *= tau;
        *top -= s;
        for (&vi, o) in v.iter().zip(below) {
            *o -= s * vi;
        }
    }
}

/// Solves `R x = (Qᵀ y)[..n]` into `x` (length `n`) by back substitution.
///
/// Returns [`LinalgError::RankDeficient`] when a diagonal entry of `R` is
/// negligible relative to the largest one.
fn back_substitute(qr: &[f64], m: usize, qty: &[f64], x: &mut [f64]) -> Result<()> {
    let n = x.len();
    let diag = |k: usize| qr[k * m + k];
    let max_diag = (0..n).fold(0.0_f64, |acc, k| acc.max(diag(k).abs()));
    if max_diag == 0.0 {
        return Err(LinalgError::RankDeficient { pivot: 0 });
    }
    if let Some(pivot) = (0..n).find(|&k| diag(k).abs() <= RANK_TOL * max_diag) {
        return Err(LinalgError::RankDeficient { pivot });
    }
    for k in (0..n).rev() {
        let mut s = qty[k];
        for j in k + 1..n {
            s -= qr[j * m + k] * x[j];
        }
        x[k] = s / diag(k);
    }
    Ok(())
}

/// The result of a Householder QR factorization `A = Q R`.
///
/// `Q` is stored implicitly as a sequence of Householder reflectors; only the
/// operations needed for least squares (`Qᵀ y` and the triangular solve) are
/// exposed.
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    /// Packed column-major factorization: the upper triangle holds `R`, the
    /// strict lower triangle plus `taus` hold the reflectors.
    qr: Vec<f64>,
    /// Number of rows of the original matrix.
    rows: usize,
    /// Scalar factors of the Householder reflectors, one per column.
    taus: Vec<f64>,
}

impl QrDecomposition {
    /// Factorizes `a` (must have `rows >= cols`).
    pub fn new(a: &Matrix) -> Result<Self> {
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
        let mut qr = Vec::with_capacity(m * n);
        for c in 0..n {
            qr.extend((0..m).map(|r| a[(r, c)]));
        }
        let mut taus = vec![0.0; n];
        factor(&mut qr, m, &mut taus);
        Ok(QrDecomposition { qr, rows: m, taus })
    }

    /// Number of rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.taus.len()
    }

    /// The diagonal of `R`, whose magnitudes signal (near-)rank deficiency.
    pub fn r_diagonal(&self) -> Vec<f64> {
        (0..self.cols())
            .map(|k| self.qr[k * self.rows + k])
            .collect()
    }

    /// Applies `Qᵀ` to a vector of length `rows`.
    pub fn q_transpose_mul(&self, y: &[f64]) -> Result<Vec<f64>> {
        if y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "q_transpose_mul",
                lhs: (self.rows, self.cols()),
                rhs: (y.len(), 1),
            });
        }
        let mut out = y.to_vec();
        apply_qt(&self.qr, self.rows, &self.taus, &mut out);
        Ok(out)
    }

    /// Solves `min ||A x - y||` using the stored factorization.
    ///
    /// Returns [`LinalgError::RankDeficient`] when a diagonal entry of `R`
    /// is negligible relative to the largest one.
    pub fn solve(&self, y: &[f64]) -> Result<Vec<f64>> {
        let qty = self.q_transpose_mul(y)?;
        let mut x = vec![0.0; self.cols()];
        back_substitute(&self.qr, self.rows, &qty, &mut x)?;
        Ok(x)
    }

    /// Squared residual norm `||A x - y||²` for the least-squares solution:
    /// the tail of `Qᵀ y` beyond the first `cols` entries.
    pub fn residual_norm_squared(&self, y: &[f64]) -> Result<f64> {
        let n = self.cols();
        let qty = self.q_transpose_mul(y)?;
        Ok(qty[n..].iter().map(|v| v * v).sum())
    }
}

/// One-shot least-squares solve `min ||A c - y||`.
///
/// Columns are equilibrated to unit Euclidean norm before factorization, so
/// the rank test remains meaningful for design matrices whose columns span
/// many orders of magnitude (e.g. `1` next to `x^3` at `x = 32768`); the
/// solution is rescaled back afterwards. An exactly zero column is reported
/// as rank deficient.
pub fn lstsq(a: &Matrix, y: &[f64]) -> Result<Vec<f64>> {
    if a.rows() != y.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "lstsq",
            lhs: a.shape(),
            rhs: (y.len(), 1),
        });
    }
    let mut x = vec![0.0; a.cols()];
    lstsq_into(a.as_slice(), y, &mut x, &mut Vec::new())?;
    Ok(x)
}

/// [`lstsq`] without allocating: `a` is the row-major `y.len() × x.len()`
/// system, the coefficients are written to `x`, and `scratch` holds the
/// factorization (it grows to `rows · cols + 2 · cols + rows` values once and
/// is reused by later calls).
pub fn lstsq_into(a: &[f64], y: &[f64], x: &mut [f64], scratch: &mut Vec<f64>) -> Result<()> {
    let (m, n) = (y.len(), x.len());
    if a.len() != m * n {
        return Err(LinalgError::ShapeMismatch {
            op: "lstsq",
            lhs: (a.len() / n.max(1), n),
            rhs: (m, 1),
        });
    }
    if m == 0 {
        return Err(LinalgError::EmptyInput);
    }
    if y.iter().chain(a).any(|v| !v.is_finite()) {
        return Err(LinalgError::NonFinite);
    }
    scratch.clear();
    scratch.resize(m * n + 2 * n + m, 0.0);
    let (qr, rest) = scratch.split_at_mut(m * n);
    let (norms, rest) = rest.split_at_mut(n);
    let (taus, qty) = rest.split_at_mut(n);
    for (c, norm) in norms.iter_mut().enumerate() {
        let mut s = 0.0;
        for r in 0..m {
            s += a[r * n + c] * a[r * n + c];
        }
        *norm = s.sqrt();
        if *norm == 0.0 {
            return Err(LinalgError::RankDeficient { pivot: c });
        }
    }
    if m < n {
        return Err(LinalgError::ShapeMismatch {
            op: "qr (need rows >= cols)",
            lhs: (m, n),
            rhs: (n, n),
        });
    }
    // Finite values over positive norms stay finite, so the equilibrated
    // copy needs no second finiteness check.
    for (c, (column, &norm)) in qr.chunks_exact_mut(m).zip(norms.iter()).enumerate() {
        for (r, q) in column.iter_mut().enumerate() {
            *q = a[r * n + c] / norm;
        }
    }
    factor(qr, m, taus);
    qty.copy_from_slice(y);
    apply_qt(qr, m, taus, qty);
    back_substitute(qr, m, qty, x)?;
    for (xi, norm) in x.iter_mut().zip(norms.iter()) {
        *xi /= norm;
    }
    Ok(())
}

/// Solves the upper-triangular system `R x = b` by back substitution.
pub fn solve_upper_triangular(r: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = r.cols();
    if r.rows() < n || b.len() < n {
        return Err(LinalgError::ShapeMismatch {
            op: "solve_upper_triangular",
            lhs: r.shape(),
            rhs: (b.len(), 1),
        });
    }
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let mut s = b[k];
        for j in k + 1..n {
            s -= r[(k, j)] * x[j];
        }
        if r[(k, k)] == 0.0 {
            return Err(LinalgError::RankDeficient { pivot: k });
        }
        x[k] = s / r[(k, k)];
    }
    Ok(x)
}

#[allow(dead_code)]
fn residual(a: &Matrix, x: &[f64], y: &[f64]) -> f64 {
    (0..a.rows())
        .map(|r| (dot(a.row(r), x) - y[r]).powi(2))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_exact_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let y = [5.0, 10.0];
        let x = lstsq(&a, &y).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solves_overdetermined_consistent_system() {
        // y = 3 + 2 t over five points, no noise -> exact recovery.
        let ts = [1.0, 2.0, 3.0, 4.0, 5.0];
        let a = Matrix::from_fn(5, 2, |r, c| if c == 0 { 1.0 } else { ts[r] });
        let y: Vec<f64> = ts.iter().map(|t| 3.0 + 2.0 * t).collect();
        let x = lstsq(&a, &y).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-9);
        assert!((x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Inconsistent system: solution must beat nearby perturbations.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0], &[1.0, 4.0]]);
        let y = [1.0, 3.0, 2.0, 5.0];
        let x = lstsq(&a, &y).unwrap();
        let base = residual(&a, &x, &y);
        for dx in [-1e-3, 1e-3] {
            for dim in 0..2 {
                let mut xp = x.clone();
                xp[dim] += dx;
                assert!(residual(&a, &xp, &y) >= base - 1e-12);
            }
        }
    }

    #[test]
    fn residual_norm_squared_matches_direct_computation() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let y = [1.0, 2.0, 2.0];
        let qr = QrDecomposition::new(&a).unwrap();
        let x = qr.solve(&y).unwrap();
        let direct = residual(&a, &x, &y).powi(2);
        let via_qr = qr.residual_norm_squared(&y).unwrap();
        assert!((direct - via_qr).abs() < 1e-10);
    }

    #[test]
    fn detects_rank_deficiency() {
        // Second column is a multiple of the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let y = [1.0, 2.0, 3.0];
        assert!(matches!(
            lstsq(&a, &y),
            Err(LinalgError::RankDeficient { .. })
        ));
    }

    #[test]
    fn rejects_underdetermined_systems() {
        let a = Matrix::zeros(2, 3);
        assert!(QrDecomposition::new(&a).is_err());
    }

    #[test]
    fn rejects_non_finite_input() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(
            QrDecomposition::new(&a),
            Err(LinalgError::NonFinite)
        ));

        let a = Matrix::identity(2);
        assert!(matches!(
            lstsq(&a, &[1.0, f64::INFINITY]),
            Err(LinalgError::NonFinite)
        ));
    }

    #[test]
    fn handles_wildly_scaled_columns() {
        // Columns that differ by ~12 orders of magnitude, like 1 vs x^{5/2}
        // at x = 65536 in a PMNF design matrix.
        let xs: [f64; 5] = [16.0, 64.0, 256.0, 1024.0, 65536.0];
        let a = Matrix::from_fn(5, 2, |r, c| if c == 0 { 1.0 } else { xs[r].powf(2.5) });
        let y: Vec<f64> = xs.iter().map(|x: &f64| 7.0 + 0.003 * x.powf(2.5)).collect();
        let x = lstsq(&a, &y).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-4, "intercept {}", x[0]);
        assert!((x[1] - 0.003).abs() < 1e-10, "slope {}", x[1]);
    }

    #[test]
    fn upper_triangular_solve_round_trips() {
        let r = Matrix::from_rows(&[&[2.0, 1.0, 3.0], &[0.0, 4.0, -1.0], &[0.0, 0.0, 5.0]]);
        let x_true = [1.0, -2.0, 3.0];
        let b: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| r[(i, j)] * x_true[j]).sum())
            .collect();
        let x = solve_upper_triangular(&r, &b).unwrap();
        for (a, b) in x.iter().zip(x_true.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn upper_triangular_zero_pivot_is_error() {
        let r = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 0.0]]);
        assert!(matches!(
            solve_upper_triangular(&r, &[1.0, 1.0]),
            Err(LinalgError::RankDeficient { pivot: 1 })
        ));
    }

    #[test]
    fn lstsq_validates_shapes() {
        let a = Matrix::identity(3);
        assert!(lstsq(&a, &[1.0, 2.0]).is_err());
        let empty = Matrix::zeros(0, 0);
        assert!(matches!(lstsq(&empty, &[]), Err(LinalgError::EmptyInput)));
    }
}
