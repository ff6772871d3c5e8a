//! Eigenvalue helpers built on the real Schur decomposition.

use crate::complex::Complex;
use crate::matrix::Matrix;
use crate::schur::SchurDecomposition;
use crate::Result;

/// Eigenvalues of a real square matrix, with convenience queries used by the
/// MOR flow (stability checks, spectral abscissa, Sylvester solvability).
#[derive(Debug, Clone)]
pub struct Eigenvalues {
    values: Vec<Complex>,
}

impl Eigenvalues {
    /// All eigenvalues (complex pairs appear as conjugates).
    pub fn values(&self) -> &[Complex] {
        &self.values
    }

    /// Largest real part (spectral abscissa).
    pub fn spectral_abscissa(&self) -> f64 {
        self.values
            .iter()
            .map(|z| z.re)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Largest modulus (spectral radius).
    pub fn spectral_radius(&self) -> f64 {
        self.values.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// True if every eigenvalue has a strictly negative real part
    /// (Hurwitz-stable system matrix).
    pub fn is_hurwitz(&self) -> bool {
        self.values.iter().all(|z| z.re < 0.0)
    }

    /// True if no pair (or triple) of eigenvalues sums to zero within `tol`.
    ///
    /// This is the solvability condition of the Sylvester equation
    /// `G₁ Π + G₂ = Π (G₁ ⊕ G₁)` used by the associated-transform decoupling
    /// (it always holds for Hurwitz `G₁`).
    #[cfg(test)]
    fn kron_sum_solvable(&self, tol: f64) -> bool {
        for a in &self.values {
            for b in &self.values {
                for c in &self.values {
                    if (*a + *b + *c).abs() < tol {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Number of eigenvalues.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if there are no eigenvalues (empty matrix).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Computes the eigenvalues of `a` via the real Schur decomposition.
///
/// # Errors
///
/// Propagates errors from [`SchurDecomposition::new`] (non-square input or
/// QR non-convergence).
///
/// ```
/// use vamor_linalg::{eigenvalues, Matrix};
/// # fn main() -> Result<(), vamor_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -3.0]])?;
/// let eig = eigenvalues(&a)?;
/// assert!(eig.is_hurwitz());
/// assert_eq!(eig.spectral_abscissa(), -1.0);
/// # Ok(())
/// # }
/// ```
pub fn eigenvalues(a: &Matrix) -> Result<Eigenvalues> {
    let schur = SchurDecomposition::new(a)?;
    Ok(Eigenvalues {
        values: schur.eigenvalues(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stability_queries() {
        let a = Matrix::from_rows(&[&[-2.0, 1.0], &[0.0, -0.5]]).unwrap();
        let e = eigenvalues(&a).unwrap();
        assert!(e.is_hurwitz());
        assert!((e.spectral_abscissa() + 0.5).abs() < 1e-12);
        assert!((e.spectral_radius() - 2.0).abs() < 1e-12);
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
    }

    #[test]
    fn unstable_matrix_detected() {
        let a = Matrix::from_rows(&[&[0.1, 0.0], &[0.0, -1.0]]).unwrap();
        assert!(!eigenvalues(&a).unwrap().is_hurwitz());
    }

    #[test]
    fn kron_sum_solvability_for_stable_and_marginal() {
        let stable = Matrix::from_diagonal(&[-1.0, -2.0]);
        assert!(eigenvalues(&stable).unwrap().kron_sum_solvable(1e-12));
        // Eigenvalues 1 and -2: 1 + 1 + (-2) = 0 violates the condition.
        let marginal = Matrix::from_diagonal(&[1.0, -2.0]);
        assert!(!eigenvalues(&marginal).unwrap().kron_sum_solvable(1e-9));
    }
}
