//! # vamor-system
//!
//! State-space system representations used throughout the `vamor` workspace:
//!
//! * [`LtiSystem`] — a plain linear time-invariant system `ẋ = A x + B u`,
//!   `y = C x`, used for the first-order Volterra kernel and frequency-domain
//!   validation.
//! * [`Qldae`] — the one polynomial form of the DAC 2012 paper: the
//!   quadratic-linear differential(-algebraic) equation of Eq. 2 with the
//!   optional cubic term of §3.4,
//!   `ẋ = G₁ x + G₂ (x ⊗ x) + G₃ (x ⊗ x ⊗ x) + Σ_k D₁ᵏ x u_k + B u`,
//!   `y = C x`, where any of the higher-order terms may be absent.
//!
//! All polynomial systems implement [`PolynomialStateSpace`], the interface
//! the transient simulator (`vamor-sim`) and the reduction engines
//! (`vamor-core`) program against.
//!
//! ```
//! use vamor_linalg::{CooMatrix, Matrix, Vector};
//! use vamor_system::{PolynomialStateSpace, Qldae};
//!
//! # fn main() -> Result<(), vamor_system::SystemError> {
//! // A 1-state QLDAE:  x' = -x + 0.5 x² + u.
//! let g1 = Matrix::from_rows(&[&[-1.0]])?;
//! let mut g2 = CooMatrix::new(1, 1);
//! g2.push(0, 0, 0.5);
//! let qldae = Qldae::new(
//!     g1,
//!     g2.to_csr(),
//!     Vec::new(),
//!     Matrix::from_rows(&[&[1.0]])?,
//!     Matrix::from_rows(&[&[1.0]])?,
//! )?;
//! let dx = qldae.rhs(&Vector::from_slice(&[2.0]), &[0.0]);
//! assert_eq!(dx[0], -2.0 + 0.5 * 4.0);
//! # Ok(())
//! # }
//! ```

#[cfg(test)]
mod cubic;
mod error;
mod lti;
mod qldae;
mod traits;

pub use error::SystemError;
pub use lti::LtiSystem;
pub use qldae::{Qldae, QldaeBuilder};
pub use traits::PolynomialStateSpace;

/// Result alias for system construction and evaluation.
pub type Result<T> = std::result::Result<T, SystemError>;

impl From<vamor_linalg::LinalgError> for SystemError {
    fn from(e: vamor_linalg::LinalgError) -> Self {
        SystemError::Linalg(e)
    }
}
