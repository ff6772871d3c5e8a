//! Incremental orthonormal bases (modified Gram–Schmidt with
//! re-orthogonalization and deflation).
//!
//! Projection-based MOR accumulates candidate vectors from several moment /
//! Krylov sequences (one per Volterra order, per input, per expansion point)
//! into a single orthonormal projection matrix `V`. [`OrthoBasis`] is that
//! accumulator: vectors that are numerically dependent on the existing basis
//! are *deflated* (rejected) so the projection stays well conditioned and as
//! compact as possible.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::Result;

/// An orthonormal basis built incrementally by modified Gram–Schmidt.
///
/// ```
/// use vamor_linalg::{OrthoBasis, Vector};
/// # fn main() -> Result<(), vamor_linalg::LinalgError> {
/// let mut basis = OrthoBasis::new(3);
/// assert!(basis.insert(Vector::from_slice(&[1.0, 0.0, 0.0]))?);
/// assert!(basis.insert(Vector::from_slice(&[1.0, 1.0, 0.0]))?);
/// // A dependent vector is deflated.
/// assert!(!basis.insert(Vector::from_slice(&[2.0, 2.0, 0.0]))?);
/// assert_eq!(basis.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OrthoBasis {
    dim: usize,
    columns: Vec<Vector>,
    deflation_tol: f64,
    deflated: usize,
    nonfinite: usize,
}

impl OrthoBasis {
    /// Default relative deflation tolerance.
    pub const DEFAULT_TOL: f64 = 1e-10;

    /// Creates an empty basis for vectors of length `dim`.
    pub fn new(dim: usize) -> Self {
        OrthoBasis {
            dim,
            columns: Vec::new(),
            deflation_tol: Self::DEFAULT_TOL,
            deflated: 0,
            nonfinite: 0,
        }
    }

    /// Creates an empty basis with a custom relative deflation tolerance.
    pub fn with_tolerance(dim: usize, tol: f64) -> Self {
        OrthoBasis {
            dim,
            columns: Vec::new(),
            deflation_tol: tol,
            deflated: 0,
            nonfinite: 0,
        }
    }

    /// Dimension of the ambient space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of orthonormal vectors currently in the basis.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the basis has no vectors yet.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Number of candidate vectors that were rejected as numerically
    /// dependent (including the non-finite ones counted by
    /// [`OrthoBasis::nonfinite_count`]).
    pub fn deflated_count(&self) -> usize {
        self.deflated
    }

    /// Number of candidate vectors rejected because they carried non-finite
    /// entries (overflowed late-chain moments, see
    /// [`OrthoBasis::extend_from`]).
    pub fn nonfinite_count(&self) -> usize {
        self.nonfinite
    }

    /// The orthonormal vectors.
    pub fn columns(&self) -> &[Vector] {
        &self.columns
    }

    /// Orthogonalizes `v` against the basis (twice, for numerical safety) and
    /// appends it if its remaining norm exceeds the deflation tolerance.
    ///
    /// Returns `true` if the vector was added, `false` if it was deflated.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.dim()`
    /// and [`LinalgError::InvalidArgument`] if `v` has non-finite entries.
    pub fn insert(&mut self, mut v: Vector) -> Result<bool> {
        if v.len() != self.dim {
            return Err(LinalgError::DimensionMismatch(format!(
                "orthobasis insert: vector of length {} into basis of dimension {}",
                v.len(),
                self.dim
            )));
        }
        if !v.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "orthobasis insert: vector has non-finite entries".into(),
            ));
        }
        let original_norm = v.norm2();
        if original_norm == 0.0 {
            self.deflated += 1;
            return Ok(false);
        }
        // Two passes of modified Gram-Schmidt ("twice is enough").
        for _ in 0..2 {
            for q in &self.columns {
                let coeff = q.dot(&v);
                if coeff != 0.0 {
                    v.axpy(-coeff, q);
                }
            }
        }
        let remaining = v.norm2();
        if remaining <= self.deflation_tol * original_norm || remaining == 0.0 {
            self.deflated += 1;
            return Ok(false);
        }
        v.scale_mut(1.0 / remaining);
        self.columns.push(v);
        Ok(true)
    }

    /// Inserts every vector of an iterator, returning how many were kept.
    ///
    /// Unlike [`OrthoBasis::insert`], a vector with non-finite entries does
    /// **not** abort the whole extension: moment chains can overflow in their
    /// late iterations, and losing the entire reduction to one overflowed
    /// trailing candidate is strictly worse than deflating it. Such vectors
    /// are counted as deflated and tracked by
    /// [`OrthoBasis::nonfinite_count`].
    ///
    /// # Errors
    ///
    /// Propagates the first dimension-mismatch error.
    pub fn extend_from<I: IntoIterator<Item = Vector>>(&mut self, vectors: I) -> Result<usize> {
        let mut kept = 0;
        for v in vectors {
            if v.len() == self.dim && !v.is_finite() {
                self.deflated += 1;
                self.nonfinite += 1;
                continue;
            }
            if self.insert(v)? {
                kept += 1;
            }
        }
        Ok(kept)
    }

    /// Assembles the basis into a `dim x len` matrix `V` with orthonormal
    /// columns.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the basis is empty.
    pub fn to_matrix(&self) -> Result<Matrix> {
        if self.columns.is_empty() {
            return Err(LinalgError::InvalidArgument("orthobasis is empty".into()));
        }
        Matrix::from_columns(&self.columns)
    }

    /// Coefficients of the orthogonal projection of `v` onto the basis.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    #[cfg(test)]
    fn project_coefficients(&self, v: &Vector) -> Vector {
        assert_eq!(v.len(), self.dim, "project: dimension mismatch");
        Vector::from_fn(self.columns.len(), |k| self.columns[k].dot(v))
    }

    /// Norm of the component of `v` orthogonal to the basis (residual after
    /// projection), useful to check that a vector is (approximately) captured.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn residual_norm(&self, v: &Vector) -> f64 {
        let mut r = v.clone();
        for q in &self.columns {
            let c = q.dot(&r);
            r.axpy(-c, q);
        }
        r.norm2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orthonormality_is_maintained() {
        let mut basis = OrthoBasis::new(4);
        let vs = [
            Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]),
            Vector::from_slice(&[0.0, 1.0, 1.0, 0.0]),
            Vector::from_slice(&[1.0, 0.0, 0.0, -1.0]),
        ];
        for v in vs {
            assert!(basis.insert(v).unwrap());
        }
        let m = basis.to_matrix().unwrap();
        let gram = m.transpose().matmul(&m);
        assert!((&gram - &Matrix::identity(3)).max_abs() < 1e-12);
    }

    #[test]
    fn dependent_vectors_are_deflated() {
        let mut basis = OrthoBasis::new(3);
        basis.insert(Vector::from_slice(&[1.0, 0.0, 0.0])).unwrap();
        basis.insert(Vector::from_slice(&[0.0, 1.0, 0.0])).unwrap();
        let added = basis.insert(Vector::from_slice(&[0.3, -0.7, 0.0])).unwrap();
        assert!(!added);
        assert_eq!(basis.len(), 2);
        assert_eq!(basis.deflated_count(), 1);
        // Zero vectors deflate too.
        assert!(!basis.insert(Vector::zeros(3)).unwrap());
    }

    #[test]
    fn projection_and_residual() {
        let mut basis = OrthoBasis::new(3);
        basis.insert(Vector::from_slice(&[1.0, 0.0, 0.0])).unwrap();
        basis.insert(Vector::from_slice(&[0.0, 1.0, 0.0])).unwrap();
        let v = Vector::from_slice(&[2.0, 3.0, 4.0]);
        let c = basis.project_coefficients(&v);
        assert_eq!(c.as_slice(), &[2.0, 3.0]);
        assert!((basis.residual_norm(&v) - 4.0).abs() < 1e-12);
        // A vector inside the span has zero residual.
        assert!(basis.residual_norm(&Vector::from_slice(&[1.0, -5.0, 0.0])) < 1e-12);
    }

    #[test]
    fn dimension_and_finiteness_are_validated() {
        let mut basis = OrthoBasis::new(2);
        assert!(basis.insert(Vector::zeros(3)).is_err());
        assert!(basis.insert(Vector::from_slice(&[f64::NAN, 0.0])).is_err());
        assert!(basis.to_matrix().is_err());
    }

    #[test]
    fn extend_counts_kept_vectors() {
        let mut basis = OrthoBasis::new(3);
        let kept = basis
            .extend_from(vec![
                Vector::from_slice(&[1.0, 0.0, 0.0]),
                Vector::from_slice(&[2.0, 0.0, 0.0]),
                Vector::from_slice(&[0.0, 0.0, 5.0]),
            ])
            .unwrap();
        assert_eq!(kept, 2);
        assert_eq!(basis.len(), 2);
    }

    #[test]
    fn extend_deflates_nonfinite_candidates_instead_of_failing() {
        let mut basis = OrthoBasis::new(3);
        let kept = basis
            .extend_from(vec![
                Vector::from_slice(&[1.0, 0.0, 0.0]),
                Vector::from_slice(&[f64::INFINITY, 0.0, 0.0]),
                Vector::from_slice(&[f64::NAN, 1.0, 0.0]),
                Vector::from_slice(&[0.0, 0.0, 2.0]),
            ])
            .unwrap();
        assert_eq!(kept, 2);
        assert_eq!(basis.len(), 2);
        assert_eq!(basis.nonfinite_count(), 2);
        assert_eq!(basis.deflated_count(), 2);
        // Dimension mismatches still abort.
        assert!(basis.extend_from(vec![Vector::zeros(4)]).is_err());
        // Direct insert keeps its strict contract.
        assert!(basis
            .insert(Vector::from_slice(&[f64::NAN, 0.0, 0.0]))
            .is_err());
    }

    #[test]
    fn nearly_dependent_vector_handled_by_reorthogonalization() {
        // A vector that is almost in the span but with a tiny independent
        // component above the tolerance should still be accepted and produce
        // an orthonormal basis.
        let mut basis = OrthoBasis::with_tolerance(3, 1e-12);
        basis.insert(Vector::from_slice(&[1.0, 0.0, 0.0])).unwrap();
        let v = Vector::from_slice(&[1.0, 1e-6, 0.0]);
        assert!(basis.insert(v).unwrap());
        let m = basis.to_matrix().unwrap();
        let gram = m.transpose().matmul(&m);
        assert!((&gram - &Matrix::identity(2)).max_abs() < 1e-10);
    }
}
