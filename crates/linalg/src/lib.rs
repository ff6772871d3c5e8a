//! # vamor-linalg
//!
//! Self-contained dense and sparse linear algebra for the `vamor` workspace.
//!
//! The crate intentionally has **no external math dependencies**: every
//! factorization used by the associated-transform model order reduction flow
//! is implemented here, including the less common pieces EDA-style MOR needs:
//!
//! * dense [`Matrix`] / [`Vector`] arithmetic, [`LuDecomposition`],
//!   Householder [`QrDecomposition`] (plus the column-pivoted [`PivotedQr`])
//!   and [`CholeskyDecomposition`],
//! * complex scalars ([`Complex`]) and complex dense solves ([`ZMatrix`]),
//! * Hessenberg reduction and the real [`SchurDecomposition`] (Francis
//!   double-shift QR) with eigenvalue extraction,
//! * Sylvester / Lyapunov solvers (Bartels–Stewart) in real and
//!   complex-shifted forms ([`sylvester`]),
//! * explicit Kronecker product / Kronecker sum constructions and the `vec`
//!   reshaping identities ([`kron`](mod@kron)),
//! * Krylov machinery: modified Gram–Schmidt orthonormalization with
//!   deflation ([`orth`]), Arnoldi iteration over abstract linear operators
//!   ([`arnoldi`](mod@arnoldi), [`op`]),
//! * sparse COO/CSR matrices ([`sparse`]),
//! * a sparse direct LU ([`sparse_lu`]): reverse Cuthill–McKee symbolic
//!   analysis reused across shifts, Gilbert–Peierls left-looking numeric
//!   factorization with threshold pivoting, and real and complex-shift
//!   variants,
//! * the memoizing [`ShiftCache`] of shifted factorizations in either
//!   backend, with an optional LRU capacity bound for one-shot ADI shift
//!   sweeps,
//! * low-rank Lyapunov machinery ([`lowrank`]): heuristic Penzl/Wachspress
//!   ADI shift selection from Arnoldi + inverse-Arnoldi Ritz sweeps, the
//!   LR-ADI solver producing `X ≈ Z Zᵀ` Cholesky-style factors, factored ADI
//!   for indefinite right-hand sides, rational-Krylov bases and factored-rank
//!   compression — every shifted solve served by the cache above.
//!
//! ## Example
//!
//! ```
//! use vamor_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), vamor_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let x = a.lu()?.solve(&b)?;
//! let r = &a.matvec(&x) - &b;
//! assert!(r.norm2() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod arnoldi;
pub mod blockdiag;
pub mod budget;
pub mod cholesky;
pub mod complex;
pub mod control;
pub mod eig;
pub mod error;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod hessenberg;
#[cfg(loom)]
pub mod interleave;
pub mod kron;
pub mod lowrank;
pub mod lu;
pub mod matrix;
pub mod op;
pub mod orth;
pub mod qr;
pub mod schur;
pub mod shift_cache;
pub mod sparse;
pub mod sparse_lu;
pub mod sylvester;
pub mod vector;
pub mod zmatrix;

pub use arnoldi::{arnoldi, ArnoldiResult};
pub use blockdiag::{BlockDiagonalSchur, DiagBlock};
pub use budget::{BudgetError, EvictionRecord, MemoryBudget, PinGuard};
pub use cholesky::CholeskyDecomposition;
pub use complex::Complex;
pub use control::{ProgressEvent, RunControl, StopCause};
pub use eig::{eigenvalues, Eigenvalues};
pub use error::LinalgError;
pub use hessenberg::HessenbergDecomposition;
pub use kron::{kron, kron_sum, kron_vec};
pub use lowrank::{
    compress_factors, fadi_lyapunov, heuristic_adi_shift_pairs, heuristic_adi_shifts,
    lr_adi_lyapunov, rational_krylov_basis, AdiShift, AdiShiftOptions, FadiSolution, LrAdiOptions,
    LrAdiSolution, LrAdiStats, ShiftedSolve,
};
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use op::{DenseOp, LinearOp};
pub use orth::OrthoBasis;
pub use qr::{PivotedQr, QrDecomposition};
pub use schur::SchurDecomposition;
pub use shift_cache::ShiftCache;
pub use sparse::{CooMatrix, CsrMatrix};
pub use sparse_lu::{
    LuFactor, PivotRecovery, SolverBackend, SparseLu, SparseLuSymbolic, SparseZLu,
};
pub use sylvester::{lyapunov_weight, solve_sylvester, SylvesterSolver};
pub use vector::Vector;
pub use zmatrix::{ZLuDecomposition, ZMatrix, ZVector};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
