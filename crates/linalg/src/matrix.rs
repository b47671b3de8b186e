use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// This is the workhorse container for the whole workspace: design matrices
/// in the regression modeler, weight matrices and activation batches in the
/// neural network. Storage is a single contiguous `Vec<f64>` so row panels
/// can be handed to worker threads as disjoint slices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a slice of equally sized row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (idx, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "row {idx} has length {} != {cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Packs owned rows into one matrix — the batched-inference entry
    /// point: callers that would otherwise run many single-row forward
    /// passes stack their inputs here and push the whole batch through one
    /// blocked [`crate::matmul`] chain instead.
    ///
    /// Unlike [`Matrix::from_rows`] this accepts an empty batch (yielding a
    /// `0 x cols` matrix) and reports ragged rows as a [`LinalgError`]
    /// instead of panicking, since batch contents typically come from
    /// untrusted request payloads.
    pub fn from_row_vecs(rows: &[Vec<f64>], cols: usize) -> Result<Self> {
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (idx, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    op: "from_row_vecs",
                    lhs: (idx, row.len()),
                    rhs: (rows.len(), cols),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a single-column matrix from a slice.
    pub fn column_vector(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "column index {c} out of bounds ({})",
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Writes the transpose of `self` into a preallocated matrix, keeping
    /// `out`'s allocation. The training loop uses this to refresh cached
    /// transposed weight panels once per optimizer step instead of
    /// allocating a fresh [`Matrix::transpose`] in every backward pass.
    pub fn transpose_into(&self, out: &mut Matrix) -> Result<()> {
        if out.shape() != (self.cols, self.rows) {
            return Err(LinalgError::ShapeMismatch {
                op: "transpose_into",
                lhs: out.shape(),
                rhs: (self.cols, self.rows),
            });
        }
        for r in 0..self.rows {
            let src = &self.data[r * self.cols..(r + 1) * self.cols];
            for (c, &v) in src.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        Ok(())
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise addition: `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<()> {
        self.zip_assign(other, "add_assign", |a, b| a + b)
    }

    /// Element-wise subtraction: `self -= other`.
    pub fn sub_assign(&mut self, other: &Matrix) -> Result<()> {
        self.zip_assign(other, "sub_assign", |a, b| a - b)
    }

    /// Element-wise product (Hadamard): `self *= other`.
    pub fn hadamard_assign(&mut self, other: &Matrix) -> Result<()> {
        self.zip_assign(other, "hadamard_assign", |a, b| a * b)
    }

    fn zip_assign(
        &mut self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
        Ok(())
    }

    /// Multiplies every entry by `alpha`.
    pub fn scale_inplace(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes the matrix to `rows x cols` in place, reusing the existing
    /// allocation whenever the capacity suffices. Entry values after a
    /// resize are unspecified (a mix of old data and zeros) — this is a
    /// scratch-buffer primitive for training arenas that overwrite the
    /// contents anyway, not a data operation.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Maximum absolute entry; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// `true` if every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Splits the matrix into mutable row panels of at most `panel_rows`
    /// rows each. Useful for handing disjoint chunks to worker threads.
    pub fn row_panels_mut(&mut self, panel_rows: usize) -> Vec<&mut [f64]> {
        assert!(panel_rows > 0, "panel_rows must be positive");
        self.data.chunks_mut(panel_rows * self.cols).collect()
    }

    /// Extracts a contiguous block as a new matrix.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix bounds.
    pub fn block(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(
            row0 + rows <= self.rows && col0 + cols <= self.cols,
            "block out of bounds"
        );
        Matrix::from_fn(rows, cols, |r, c| self[(row0 + r, col0 + c)])
    }

    /// Stacks `self` on top of `other` (they must have equal column counts).
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>12.5} ", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_row_vecs_packs_rows_in_order() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = Matrix::from_row_vecs(&rows, 2).unwrap();
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(
            m,
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])
        );
    }

    #[test]
    fn from_row_vecs_accepts_an_empty_batch() {
        let m = Matrix::from_row_vecs(&[], 4).unwrap();
        assert_eq!(m.shape(), (0, 4));
        assert!(m.is_empty());
    }

    #[test]
    fn from_row_vecs_rejects_ragged_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            Matrix::from_row_vecs(&rows, 2),
            Err(LinalgError::ShapeMismatch {
                op: "from_row_vecs",
                ..
            })
        ));
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_round_trips_data() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "row 1")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn transpose_is_involutive() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn transpose_into_matches_transpose_and_validates_shape() {
        let m = Matrix::from_fn(4, 7, |r, c| (r * 7 + c) as f64);
        let mut out = Matrix::filled(7, 4, -1.0);
        m.transpose_into(&mut out).unwrap();
        assert_eq!(out, m.transpose());
        let mut wrong = Matrix::zeros(4, 7);
        assert!(matches!(
            m.transpose_into(&mut wrong),
            Err(LinalgError::ShapeMismatch {
                op: "transpose_into",
                ..
            })
        ));
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Matrix::filled(2, 2, 2.0);
        let b = Matrix::filled(2, 2, 3.0);
        a.add_assign(&b).unwrap();
        assert_eq!(a[(0, 0)], 5.0);
        a.sub_assign(&b).unwrap();
        assert_eq!(a[(1, 1)], 2.0);
        a.hadamard_assign(&b).unwrap();
        assert_eq!(a[(0, 1)], 6.0);
        a.scale_inplace(0.5);
        assert_eq!(a[(0, 1)], 3.0);
    }

    #[test]
    fn elementwise_shape_mismatch_is_reported() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let err = a.add_assign(&b).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::ShapeMismatch {
                op: "add_assign",
                ..
            }
        ));
    }

    #[test]
    fn row_panels_cover_all_rows_disjointly() {
        let mut m = Matrix::from_fn(7, 3, |r, c| (r * 3 + c) as f64);
        let panels = m.row_panels_mut(3);
        assert_eq!(panels.len(), 3);
        assert_eq!(panels[0].len(), 9);
        assert_eq!(panels[1].len(), 9);
        assert_eq!(panels[2].len(), 3);
    }

    #[test]
    fn block_extracts_submatrix() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let b = m.block(1, 2, 2, 2);
        assert_eq!(b, Matrix::from_rows(&[&[6.0, 7.0], &[10.0, 11.0]]));
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = a.vstack(&b).unwrap();
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5.0, 6.0]);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn resize_reshapes_and_keeps_capacity_when_shrinking() {
        use crate::{matmul_into, MatmulOptions};
        let mut m = Matrix::filled(4, 4, 1.0);
        m.resize(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        m.resize(5, 2);
        assert_eq!(m.shape(), (5, 2));
        assert_eq!(m.len(), 10);
        // Still usable as a matmul output after resizing.
        let a = Matrix::identity(5);
        let b = Matrix::filled(5, 2, 2.0);
        matmul_into(&a, &b, &mut m, MatmulOptions::default()).unwrap();
        assert_eq!(m, b);
    }

    #[test]
    fn map_and_fill() {
        let m = Matrix::filled(2, 2, 4.0).map(f64::sqrt);
        assert_eq!(m[(1, 1)], 2.0);
        let mut m2 = m;
        m2.fill_zero();
        assert_eq!(m2.max_abs(), 0.0);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.all_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_fn(3, 2, |r, c| r as f64 - c as f64);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn display_does_not_panic_on_large_matrices() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m}");
        assert!(s.contains("Matrix 20x20"));
    }
}
