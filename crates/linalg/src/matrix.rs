//! Dense row-major matrices.

use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::error::LinalgError;
use crate::lu::LuDecomposition;
use crate::qr::QrDecomposition;
use crate::vector::Vector;
use crate::Result;

/// A dense, row-major matrix of `f64` entries.
///
/// ```
/// use vamor_linalg::Matrix;
/// let a = Matrix::identity(3);
/// let b = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
/// assert_eq!(a.matmul(&b), b);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
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

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the rows have unequal
    /// lengths, or [`LinalgError::InvalidArgument`] if `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "from_rows: no rows given".into(),
            ));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch(format!(
                    "from_rows: row {i} has length {} but row 0 has length {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a generating function of the (row, column) index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix whose columns are the given vectors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the columns have unequal
    /// lengths, or [`LinalgError::InvalidArgument`] if `cols` is empty.
    pub fn from_columns(cols: &[Vector]) -> Result<Self> {
        if cols.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "from_columns: no columns given".into(),
            ));
        }
        let rows = cols[0].len();
        for (j, c) in cols.iter().enumerate() {
            if c.len() != rows {
                return Err(LinalgError::DimensionMismatch(format!(
                    "from_columns: column {j} has length {} but column 0 has length {rows}",
                    c.len()
                )));
            }
        }
        let mut m = Matrix::zeros(rows, cols.len());
        for (j, c) in cols.iter().enumerate() {
            for i in 0..rows {
                m[(i, j)] = c[i];
            }
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the underlying row-major storage mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrows row `i` mutably as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of range");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn col(&self, j: usize) -> Vector {
        assert!(j < self.cols, "column index {j} out of range");
        Vector::from_fn(self.rows, |i| self[(i, j)])
    }

    /// Overwrites column `j` with the entries of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds or `v.len() != self.rows()`.
    pub fn set_col(&mut self, j: usize, v: &Vector) {
        assert!(j < self.cols, "column index {j} out of range");
        assert_eq!(v.len(), self.rows, "set_col: length mismatch");
        for i in 0..self.rows {
            self[(i, j)] = v[i];
        }
    }

    /// Swaps rows `a` and `b` in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        let mut y = Vector::zeros(self.rows);
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix-vector product `A x` written into a caller-provided buffer,
    /// avoiding the output allocation of [`Matrix::matvec`] in inner loops.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_into(&self, x: &Vector, y: &mut Vector) {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec_into: output length mismatch");
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            y[i] = acc;
        }
    }

    /// Transposed matrix-vector product `Aᵀ x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transpose(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.rows, "matvec_transpose: dimension mismatch");
        let mut y = Vector::zeros(self.cols);
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (j, a) in row.iter().enumerate() {
                y[j] += a * xi;
            }
        }
        y
    }

    /// Matrix-matrix product `A B`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix-matrix product `A B` written into a caller-provided buffer,
    /// avoiding the output allocation of [`Matrix::matmul`] in inner loops.
    ///
    /// The loop order streams rows of `A` and `out` while keeping the active
    /// rows of `B` hot, and the contiguous row-pair inner loop is written so
    /// the compiler can vectorize it.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or `out` has the wrong shape.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul_into: output shape mismatch"
        );
        out.data.fill(0.0);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(brow.iter()) {
                    *o += aik * b;
                }
            }
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Returns `self * k`.
    pub fn scaled(&self, k: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * k).collect(),
        }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += alpha * y;
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// Copies the block `self[r0..r1, c0..c1]` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are out of bounds or reversed.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Writes `block` into `self` starting at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols);
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(r0 + i, c0 + j)] = block[(i, j)];
            }
        }
    }

    /// Horizontal concatenation `[self  other]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "hstack: {}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        out.set_block(0, 0, self);
        out.set_block(0, self.cols, other);
        Ok(out)
    }

    /// LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is not square or is singular.
    pub fn lu(&self) -> Result<LuDecomposition> {
        LuDecomposition::new(self)
    }

    /// Householder QR decomposition.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix has more columns than rows.
    pub fn qr(&self) -> Result<QrDecomposition> {
        QrDecomposition::new(self)
    }

    /// Solves `A x = b` via LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is not square or is singular.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        self.lu()?.solve(b)
    }

    /// Matrix inverse via LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is not square or is singular.
    pub fn inverse(&self) -> Result<Matrix> {
        self.lu()?.inverse()
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Symmetric part `(A + Aᵀ)/2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetric_part(&self) -> Matrix {
        assert!(self.is_square(), "symmetric_part requires a square matrix");
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            0.5 * (self[(i, j)] + self[(j, i)])
        })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let mut out = self.clone();
        out.axpy(1.0, rhs);
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        let mut out = self.clone();
        out.axpy(-1.0, rhs);
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_neutral() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn from_rows_validates_shapes() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let x = Vector::from_slice(&[1.0, -1.0]);
        assert_eq!(a.matvec(&x).as_slice(), &[-1.0, -1.0, -1.0]);
        let y = Vector::from_slice(&[1.0, 0.0, 1.0]);
        assert_eq!(a.matvec_transpose(&y).as_slice(), &[6.0, 8.0]);
    }

    #[test]
    fn transpose_involution_and_matmul_transpose_identity() {
        let a = Matrix::from_fn(2, 4, |i, j| (i + 2 * j) as f64);
        assert_eq!(a.transpose().transpose(), a);
        let b = Matrix::from_fn(4, 3, |i, j| (i * j) as f64 + 1.0);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        assert!((&left - &right).max_abs() < 1e-14);
    }

    #[test]
    fn block_and_stack_operations() {
        let a = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        let b = Matrix::identity(2);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h[(0, 2)], 1.0);
        let sub = h.submatrix(0, 2, 2, 4);
        assert_eq!(sub, b);
        let mut z = Matrix::zeros(3, 3);
        z.set_block(1, 1, &b);
        assert_eq!(z[(2, 2)], 1.0);
        assert!(a.hstack(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn columns_and_rows_access() {
        let mut a = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let c1 = a.col(1);
        assert_eq!(c1.as_slice(), &[1.0, 2.0, 3.0]);
        a.set_col(0, &Vector::from_slice(&[7.0, 8.0, 9.0]));
        assert_eq!(a.col(0).as_slice(), &[7.0, 8.0, 9.0]);
        assert_eq!(a.row(2), &[9.0, 3.0]);
        a.swap_rows(0, 2);
        assert_eq!(a.row(0), &[9.0, 3.0]);
    }

    #[test]
    fn norms_and_trace() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]).unwrap();
        assert_eq!(a.norm_fro(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.norm_inf(), 4.0);
        assert_eq!(a.trace(), -1.0);
    }

    #[test]
    fn from_columns_round_trips() {
        let cols = vec![
            Vector::from_slice(&[1.0, 2.0]),
            Vector::from_slice(&[3.0, 4.0]),
        ];
        let m = Matrix::from_columns(&cols).unwrap();
        assert_eq!(m.col(0), cols[0]);
        assert_eq!(m.col(1), cols[1]);
        assert!(Matrix::from_columns(&[]).is_err());
    }
}
