//! LU decomposition with partial pivoting.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::Result;

/// LU decomposition `P A = L U` with partial (row) pivoting.
///
/// The factors are stored packed in a single matrix; `L` has an implicit unit
/// diagonal.
///
/// ```
/// use vamor_linalg::{Matrix, Vector};
/// # fn main() -> Result<(), vamor_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = a.lu()?;
/// let x = lu.solve(&Vector::from_slice(&[3.0, 5.0]))?;
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// assert!((lu.det() - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Packed L (strictly lower, unit diagonal implicit) and U (upper).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0).
    perm_sign: f64,
    n: usize,
}

impl LuDecomposition {
    /// Factors the square matrix `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot is exactly zero (the matrix is
    ///   singular to working precision).
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Find pivot.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val == 0.0 {
                return Err(LinalgError::Singular(format!("zero pivot at column {k}")));
            }
            if pivot_row != k {
                lu.swap_rows(pivot_row, k);
                perm.swap(pivot_row, k);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let u_kj = lu[(k, j)];
                        lu[(i, j)] -= factor * u_kj;
                    }
                }
            }
        }
        Ok(LuDecomposition {
            lu,
            perm,
            perm_sign,
            n,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let mut x = Vector::zeros(self.n);
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-provided buffer (`x` must not alias
    /// `b`), avoiding the output allocation of [`LuDecomposition::solve`] in
    /// recursion hot loops.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if either length is not
    /// `self.dim()`.
    pub fn solve_into(&self, b: &Vector, x: &mut Vector) -> Result<()> {
        if b.len() != self.n || x.len() != self.n {
            return Err(LinalgError::DimensionMismatch(format!(
                "lu solve: rhs/out have lengths {}/{}, expected {}",
                b.len(),
                x.len(),
                self.n
            )));
        }
        // Apply permutation.
        for i in 0..self.n {
            x[i] = b[self.perm[i]];
        }
        // Forward substitution with unit lower triangular L.
        for i in 1..self.n {
            let row = self.lu.row(i);
            let mut acc = x[i];
            for j in 0..i {
                acc -= row[j] * x[j];
            }
            x[i] = acc;
        }
        // Backward substitution with U.
        for i in (0..self.n).rev() {
            let row = self.lu.row(i);
            let mut acc = x[i];
            for j in (i + 1)..self.n {
                acc -= row[j] * x[j];
            }
            x[i] = acc / row[i];
        }
        Ok(())
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `B.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if b.rows() != self.n {
            return Err(LinalgError::DimensionMismatch(format!(
                "lu solve_matrix: rhs has {} rows, expected {}",
                b.rows(),
                self.n
            )));
        }
        let mut out = Matrix::zeros(self.n, b.cols());
        for j in 0..b.cols() {
            let x = self.solve(&b.col(j))?;
            out.set_col(j, &x);
        }
        Ok(out)
    }

    /// Solves `Aᵀ x = b` using the same factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    #[cfg(test)]
    fn solve_transpose(&self, b: &Vector) -> Result<Vector> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch(format!(
                "lu solve_transpose: rhs has length {}, expected {}",
                b.len(),
                self.n
            )));
        }
        // Aᵀ = (P⁻¹ L U)ᵀ = Uᵀ Lᵀ P, so solve Uᵀ y = b, Lᵀ z = y, x = Pᵀ z.
        let mut y = b.clone();
        // Forward substitution with Uᵀ (lower triangular).
        for i in 0..self.n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= self.lu[(j, i)] * y[j];
            }
            y[i] = acc / self.lu[(i, i)];
        }
        // Backward substitution with Lᵀ (upper triangular, unit diagonal).
        for i in (0..self.n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..self.n {
                acc -= self.lu[(j, i)] * y[j];
            }
            y[i] = acc;
        }
        // Undo permutation: x[perm[i]] = z[i].
        let mut x = Vector::zeros(self.n);
        for i in 0..self.n {
            x[self.perm[i]] = y[i];
        }
        Ok(x)
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.n {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Inverse of the factored matrix.
    ///
    /// # Errors
    ///
    /// Propagates errors from the underlying solves.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.n))
    }

    /// Crude reciprocal condition estimate `1 / (‖A‖∞ ‖A⁻¹‖∞)` based on the
    /// explicit inverse. Intended for diagnostics on small/medium matrices.
    ///
    /// # Errors
    ///
    /// Propagates errors from the inverse computation.
    #[cfg(test)]
    fn rcond_estimate(&self, a: &Matrix) -> Result<f64> {
        let inv = self.inverse()?;
        let denom = a.norm_inf() * inv.norm_inf();
        if denom == 0.0 {
            return Ok(0.0);
        }
        Ok(1.0 / denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_like(n: usize, seed: u64) -> Matrix {
        // Simple deterministic pseudo-random fill (xorshift) to avoid a rand
        // dependency inside unit tests.
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let mut m = Matrix::from_fn(n, n, |_, _| next());
        for i in 0..n {
            m[(i, i)] += n as f64; // diagonally dominant => well conditioned
        }
        m
    }

    #[test]
    fn solve_reproduces_rhs() {
        for n in [1, 2, 5, 17] {
            let a = random_like(n, 42 + n as u64);
            let xref = Vector::from_fn(n, |i| (i as f64).sin() + 1.0);
            let b = a.matvec(&xref);
            let x = a.lu().unwrap().solve(&b).unwrap();
            assert!((&x - &xref).norm_inf() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn solve_transpose_matches_transposed_solve() {
        let a = random_like(8, 7);
        let b = Vector::from_fn(8, |i| i as f64 + 0.5);
        let x1 = a.lu().unwrap().solve_transpose(&b).unwrap();
        let x2 = a.transpose().lu().unwrap().solve(&b).unwrap();
        assert!((&x1 - &x2).norm_inf() < 1e-9);
    }

    #[test]
    fn determinant_of_triangular_matrix() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[0.0, 3.0, 5.0], &[0.0, 0.0, 4.0]]).unwrap();
        let det = a.lu().unwrap().det();
        assert!((det - 24.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_changes_sign_with_row_swap() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((a.lu().unwrap().det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular(_))));
        let r = Matrix::zeros(2, 3).lu();
        assert!(matches!(r, Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = random_like(6, 3);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        assert!((&prod - &Matrix::identity(6)).max_abs() < 1e-9);
    }

    #[test]
    fn rcond_is_small_for_nearly_singular() {
        let good = random_like(5, 11);
        let lu = good.lu().unwrap();
        assert!(lu.rcond_estimate(&good).unwrap() > 1e-6);
        let mut bad = Matrix::identity(3);
        bad[(2, 2)] = 1e-13;
        let r = bad.lu().unwrap().rcond_estimate(&bad).unwrap();
        assert!(r < 1e-10);
    }

    #[test]
    fn rhs_dimension_is_validated() {
        let a = Matrix::identity(3);
        let lu = a.lu().unwrap();
        assert!(lu.solve(&Vector::zeros(2)).is_err());
        assert!(lu.solve_matrix(&Matrix::zeros(2, 2)).is_err());
    }
}
