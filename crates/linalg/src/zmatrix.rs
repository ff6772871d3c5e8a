//! Complex dense vectors and matrices with LU solves.
//!
//! These are used for two purposes in the MOR flow:
//!
//! 1. evaluating Volterra transfer functions `H_n(jω_1, …, jω_n)` on the
//!    imaginary axis to validate reduced models in the frequency domain, and
//! 2. the complex-shifted inner solves that appear when a real Schur factor
//!    has 2×2 (complex-pair) diagonal blocks during the Bartels–Stewart
//!    recursions.

use std::ops::{Index, IndexMut};

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::Result;

/// A dense complex vector.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ZVector {
    data: Vec<Complex>,
}

impl ZVector {
    /// Creates a zero vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        ZVector {
            data: vec![Complex::ZERO; len],
        }
    }

    /// Creates a complex vector from a real vector (zero imaginary parts).
    pub fn from_real(v: &Vector) -> Self {
        ZVector {
            data: v.iter().map(|&x| Complex::from_real(x)).collect(),
        }
    }

    /// Creates a complex vector from its real and imaginary parts.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn from_parts(re: &Vector, im: &Vector) -> Self {
        assert_eq!(re.len(), im.len(), "from_parts: length mismatch");
        ZVector {
            data: re
                .iter()
                .zip(im.iter())
                .map(|(&r, &i)| Complex::new(r, i))
                .collect(),
        }
    }

    /// Creates a vector from a slice of complex entries.
    pub fn from_slice(values: &[Complex]) -> Self {
        ZVector {
            data: values.to_vec(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the entries.
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Mutably borrows the entries.
    pub fn as_mut_slice(&mut self) -> &mut [Complex] {
        &mut self.data
    }

    /// The real parts as a [`Vector`].
    pub fn real(&self) -> Vector {
        Vector::from_fn(self.len(), |i| self.data[i].re)
    }

    /// The imaginary parts as a [`Vector`].
    pub fn imag(&self) -> Vector {
        Vector::from_fn(self.len(), |i| self.data[i].im)
    }

    /// Euclidean norm.
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: Complex, other: &ZVector) {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += alpha * *y;
        }
    }

    /// Scales every entry by `k`.
    pub fn scale_mut(&mut self, k: Complex) {
        for x in &mut self.data {
            *x *= k;
        }
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, Complex> {
        self.data.iter()
    }
}

impl Index<usize> for ZVector {
    type Output = Complex;
    fn index(&self, i: usize) -> &Complex {
        &self.data[i]
    }
}

impl IndexMut<usize> for ZVector {
    fn index_mut(&mut self, i: usize) -> &mut Complex {
        &mut self.data[i]
    }
}

impl From<Vec<Complex>> for ZVector {
    fn from(data: Vec<Complex>) -> Self {
        ZVector { data }
    }
}

/// A dense, row-major complex matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ZMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl ZMatrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        ZMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = ZMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Creates a complex matrix from a real one.
    pub fn from_real(a: &Matrix) -> Self {
        ZMatrix {
            rows: a.rows(),
            cols: a.cols(),
            data: a
                .as_slice()
                .iter()
                .map(|&x| Complex::from_real(x))
                .collect(),
        }
    }

    /// Builds `s I - A` for a complex frequency `s` and a real matrix `A`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn shifted_identity_minus(s: Complex, a: &Matrix) -> Self {
        assert!(
            a.is_square(),
            "shifted_identity_minus requires a square matrix"
        );
        let n = a.rows();
        let mut m = ZMatrix::from_real(&a.scaled(-1.0));
        for i in 0..n {
            m[(i, i)] += s;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &ZVector) -> ZVector {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut y = ZVector::zeros(self.rows);
        for i in 0..self.rows {
            let mut acc = Complex::ZERO;
            for j in 0..self.cols {
                acc += self[(i, j)] * x[j];
            }
            y[i] = acc;
        }
        y
    }

    /// Solves `A x = b` by complex LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if the matrix is not square.
    /// * [`LinalgError::DimensionMismatch`] if `b.len() != self.rows()`.
    /// * [`LinalgError::Singular`] if a pivot vanishes.
    pub fn solve(&self, b: &ZVector) -> Result<ZVector> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "complex solve: rhs has length {}, expected {}",
                b.len(),
                self.rows
            )));
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<Complex> = b.as_slice().to_vec();
        // Gaussian elimination with partial pivoting on the augmented system.
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val == 0.0 {
                return Err(LinalgError::Singular(format!(
                    "complex lu: zero pivot at column {k}"
                )));
            }
            if pivot_row != k {
                for j in 0..n {
                    a.swap(k * n + j, pivot_row * n + j);
                }
                x.swap(k, pivot_row);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let factor = a[i * n + k] / pivot;
                if factor.abs() == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    let akj = a[k * n + j];
                    a[i * n + j] -= factor * akj;
                }
                a[i * n + k] = Complex::ZERO;
                let xk = x[k];
                x[i] -= factor * xk;
            }
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= a[i * n + j] * x[j];
            }
            x[i] = acc / a[i * n + i];
        }
        Ok(ZVector::from(x))
    }

    /// Maximum entry modulus.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Complex LU decomposition with partial pivoting, for reuse across many
    /// right-hand sides (the one-shot [`ZMatrix::solve`] refactorizes on every
    /// call).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if the matrix is not square.
    /// * [`LinalgError::Singular`] if a pivot vanishes.
    pub fn lu(&self) -> Result<ZLuDecomposition> {
        ZLuDecomposition::new(self)
    }
}

/// Packed complex LU factors `P A = L U` with partial pivoting.
#[derive(Debug, Clone)]
pub struct ZLuDecomposition {
    /// Packed `L` (strictly lower, unit diagonal implicit) and `U` (upper).
    lu: Vec<Complex>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    n: usize,
}

impl ZLuDecomposition {
    /// Factors the square complex matrix `a`.
    ///
    /// # Errors
    ///
    /// See [`ZMatrix::lu`].
    pub fn new(a: &ZMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows,
                cols: a.cols,
            });
        }
        let n = a.rows;
        let mut lu = a.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val == 0.0 {
                return Err(LinalgError::Singular(format!(
                    "complex lu: zero pivot at column {k}"
                )));
            }
            if pivot_row != k {
                for j in 0..n {
                    lu.swap(k * n + j, pivot_row * n + j);
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                if factor.abs() != 0.0 {
                    for j in (k + 1)..n {
                        let u_kj = lu[k * n + j];
                        lu[i * n + j] -= factor * u_kj;
                    }
                }
            }
        }
        Ok(ZLuDecomposition { lu, perm, n })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` using the cached factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &ZVector) -> Result<ZVector> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch(format!(
                "complex lu solve: rhs has length {}, expected {}",
                b.len(),
                self.n
            )));
        }
        let n = self.n;
        let mut x: Vec<Complex> = (0..n).map(|i| b[self.perm[i]]).collect();
        for i in 1..n {
            let row = &self.lu[i * n..i * n + i];
            let mut acc = x[i];
            for (l, xv) in row.iter().zip(x.iter()) {
                acc -= *l * *xv;
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let row = &self.lu[i * n..(i + 1) * n];
            let mut acc = x[i];
            for (l, xv) in row.iter().zip(x.iter()).skip(i + 1) {
                acc -= *l * *xv;
            }
            x[i] = acc / row[i];
        }
        Ok(ZVector::from(x))
    }
}

impl Index<(usize, usize)> for ZMatrix {
    type Output = Complex;
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for ZMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_solve_round_trips() {
        let n = 6;
        let mut state = 12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut a = ZMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = Complex::new(next(), next());
            }
            a[(i, i)] += Complex::from_real(4.0);
        }
        let xref = ZVector::from_slice(
            &(0..n)
                .map(|i| Complex::new(i as f64, -(i as f64) / 2.0))
                .collect::<Vec<_>>(),
        );
        let b = a.matvec(&xref);
        let x = a.solve(&b).unwrap();
        let mut err: f64 = 0.0;
        for i in 0..n {
            err = err.max((x[i] - xref[i]).abs());
        }
        assert!(err < 1e-10);
    }

    #[test]
    fn resolvent_matches_real_solve_at_zero_frequency() {
        let a = Matrix::from_rows(&[&[-1.0, 0.5], &[0.0, -2.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, 1.0]);
        // (0*I - A) x = b  <=>  -A x = b.
        let z = ZMatrix::shifted_identity_minus(Complex::ZERO, &a);
        let x = z.solve(&ZVector::from_real(&b)).unwrap();
        let xr = a.scaled(-1.0).solve(&b).unwrap();
        assert!((&x.real() - &xr).norm_inf() < 1e-12);
        assert!(x.imag().norm_inf() < 1e-15);
    }

    #[test]
    fn frequency_response_of_first_order_system() {
        // H(s) = 1 / (s + 1): |H(j1)| = 1/sqrt(2).
        let a = Matrix::from_rows(&[&[-1.0]]).unwrap();
        let b = ZVector::from_slice(&[Complex::ONE]);
        let z = ZMatrix::shifted_identity_minus(Complex::new(0.0, 1.0), &a);
        let h = z.solve(&b).unwrap();
        assert!((h[0].abs() - 1.0 / 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn singular_complex_matrix_rejected() {
        let mut a = ZMatrix::zeros(2, 2);
        a[(0, 0)] = Complex::ONE;
        a[(0, 1)] = Complex::ONE;
        a[(1, 0)] = Complex::ONE;
        a[(1, 1)] = Complex::ONE;
        assert!(a.solve(&ZVector::zeros(2)).is_err());
        assert!(ZMatrix::zeros(2, 3).solve(&ZVector::zeros(3)).is_err());
    }

    #[test]
    fn zvector_parts_and_norms() {
        let v = ZVector::from_slice(&[Complex::new(3.0, 4.0), Complex::ZERO]);
        assert_eq!(v.real().as_slice(), &[3.0, 0.0]);
        assert_eq!(v.imag().as_slice(), &[4.0, 0.0]);
        assert_eq!(v.norm2(), 5.0);
        let mut w = ZVector::zeros(2);
        w.axpy(Complex::from_real(2.0), &v);
        assert_eq!(w[0], Complex::new(6.0, 8.0));
    }
}
