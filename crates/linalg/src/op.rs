//! Abstract linear operators.
//!
//! Krylov subspace construction in the MOR flow operates on matrices that are
//! never formed explicitly (Kronecker sums, block realizations of associated
//! transfer functions). The [`LinearOp`] trait is the minimal interface those
//! algorithms need; shifted inverses are served by [`crate::ShiftCache`]
//! through the [`crate::ShiftedSolve`] trait.

use crate::matrix::Matrix;
use crate::vector::Vector;

/// A real square linear operator `y = A x` of dimension [`LinearOp::dim`].
///
/// The trait is object safe so operators can be chosen at runtime (a dense
/// matrix, a CSR stamp, or a structured Kronecker-sum operator).
pub trait LinearOp {
    /// Dimension of the operator (both row and column count).
    fn dim(&self) -> usize;

    /// Applies the operator to `x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.dim()`.
    fn apply(&self, x: &Vector) -> Vector;
}

/// A dense matrix viewed as a [`LinearOp`].
///
/// ```
/// use vamor_linalg::{DenseOp, LinearOp, Matrix, Vector};
/// let a = Matrix::identity(3);
/// let op = DenseOp::new(a);
/// assert_eq!(op.apply(&Vector::from_slice(&[1.0, 2.0, 3.0])).as_slice(), &[1.0, 2.0, 3.0]);
/// ```
#[derive(Debug, Clone)]
pub struct DenseOp {
    a: Matrix,
}

impl DenseOp {
    /// Wraps a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn new(a: Matrix) -> Self {
        assert!(a.is_square(), "DenseOp requires a square matrix");
        DenseOp { a }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.a
    }
}

impl LinearOp for DenseOp {
    fn dim(&self) -> usize {
        self.a.rows()
    }

    fn apply(&self, x: &Vector) -> Vector {
        self.a.matvec(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_op_applies_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let op = DenseOp::new(a.clone());
        assert_eq!(op.dim(), 2);
        let x = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(op.apply(&x), a.matvec(&x));
    }
}
