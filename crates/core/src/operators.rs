//! Structured operators for the associated-transform realizations.
//!
//! The single-`s` realizations of the associated transfer functions involve
//! the matrices
//!
//! * `G₁ ⊕ G₁` (dimension `n²`), and
//! * `G̃₂ = [[G₁, G₂], [0, G₁ ⊕ G₁]]` (dimension `n + n²`, Eq. 17 of the
//!   paper),
//!
//! which must never be formed explicitly. Both implement
//! [`vamor_linalg::ShiftedSolve`] — the minimal interface (`apply`,
//! real/complex shifted solves) the big-left/small-right Sylvester solver in
//! [`crate::bigsmall`] needs. The moment chains of both engines no longer
//! use them (they solve in block-diagonalized coordinates, see
//! [`crate::assoc`]); the operators stay public for the benchmark's
//! per-layer probes and serve as the test oracle of those chains.

use vamor_linalg::{
    Complex, CsrMatrix, Matrix, SchurDecomposition, ShiftCache, ShiftedSolve, SolverBackend,
    SylvesterSolver, Vector,
};

use crate::error::MorError;
use crate::Result;

/// Reshapes a length-`rows*cols` vector into a `rows x cols` matrix
/// (column-major), panicking on mismatch. Internal helper.
fn unvec(x: &Vector, rows: usize, cols: usize) -> Matrix {
    // vamor: allow(panic-freedom, reason = "doc-stated panic contract of an internal helper; every caller passes rows*cols == x.len() by construction")
    vamor_linalg::kron::unvec(x, rows, cols).expect("internal reshape mismatch")
}

fn vec_of(m: &Matrix) -> Vector {
    vamor_linalg::kron::vec_of(m)
}

/// The Kronecker sum `A ⊕ A` of a square matrix with itself, with shifted
/// solves on one Schur form of `A`. [`BlockH2Op`] wraps one for `G₁ ⊕ G₁`.
#[derive(Debug, Clone)]
pub struct KronSumOp2 {
    a: Matrix,
    solver: SylvesterSolver,
    n: usize,
}

impl KronSumOp2 {
    /// Builds the operator for `A ⊕ A` on a single Schur factorization of
    /// `A`, which serves both coefficients of the Lyapunov-shaped Sylvester
    /// solver.
    ///
    /// # Errors
    ///
    /// Returns an error if `a` is not square or its Schur factorization
    /// fails.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(MorError::Invalid(format!(
                "kronecker sum operand must be square, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let schur = SchurDecomposition::new(a).map_err(MorError::Linalg)?;
        let solver = SylvesterSolver::lyapunov(schur);
        Ok(KronSumOp2 {
            a: a.clone(),
            solver,
            n: a.rows(),
        })
    }

    /// The factor `A`.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// The Schur decomposition of `A` the solver holds, cloned out for
    /// reuse by other recursions over the spectrum of `A` (e.g. the
    /// big-left/small-right Sylvester solves of [`crate::bigsmall`]).
    pub fn a_schur(&self) -> SchurDecomposition {
        self.solver.schur().clone()
    }
}

impl ShiftedSolve for KronSumOp2 {
    fn dim(&self) -> usize {
        self.n * self.n
    }

    fn apply(&self, x: &Vector) -> Vector {
        let xm = unvec(x, self.n, self.n);
        let mut y = self.a.matmul(&xm);
        y.axpy(1.0, &xm.matmul(&self.a.transpose()));
        vec_of(&y)
    }

    fn solve_shifted(&self, sigma: f64, rhs: &Vector) -> vamor_linalg::Result<Vector> {
        // (A ⊕ A + σI) x = rhs  <=>  (A + σI) X + X Aᵀ = unvec(rhs).
        let r = unvec(rhs, self.n, self.n);
        Ok(vec_of(&self.solver.solve_shifted(sigma, &r)?))
    }

    fn solve_shifted_complex(
        &self,
        lambda: Complex,
        re: &Vector,
        im: &Vector,
    ) -> vamor_linalg::Result<(Vector, Vector)> {
        let r_re = unvec(re, self.n, self.n);
        let r_im = unvec(im, self.n, self.n);
        let (x_re, x_im) = self.solver.solve_shifted_complex(lambda, &r_re, &r_im)?;
        Ok((vec_of(&x_re), vec_of(&x_im)))
    }
}

/// The block realization matrix `G̃₂ = [[G₁, G₂], [0, G₁ ⊕ G₁]]` of the
/// associated second-order transfer function (Eq. 17), as a structured
/// operator of dimension `n + n²`.
#[derive(Debug, Clone)]
pub struct BlockH2Op {
    g1: Matrix,
    g2: CsrMatrix,
    kron: KronSumOp2,
    g1_shifted: ShiftCache,
    n: usize,
}

impl BlockH2Op {
    /// Builds the operator from the QLDAE coefficient matrices, with shifted
    /// solves against `G₁` memoized in a dense [`ShiftCache`].
    ///
    /// # Errors
    ///
    /// Returns an error if `G₁` is singular (required for the `σ = 0`
    /// expansion used throughout) or the shapes mismatch.
    pub fn new(g1: &Matrix, g2: &CsrMatrix) -> Result<Self> {
        let kron = KronSumOp2::new(g1)?;
        Self::with_kron(g1, g2, kron, true)
    }

    /// Builds the operator reusing an already-constructed `G₁ ⊕ G₁` operator
    /// (avoiding a redundant Schur factorization) and selecting whether
    /// shifted top-block solves are cached or refactorized per call (a
    /// dense [`ShiftCache`] of capacity 0).
    ///
    /// # Errors
    ///
    /// Same contract as [`BlockH2Op::new`].
    pub fn with_kron(
        g1: &Matrix,
        g2: &CsrMatrix,
        kron: KronSumOp2,
        cache_shifts: bool,
    ) -> Result<Self> {
        let mut cache = ShiftCache::new(&CsrMatrix::from_dense(g1, 0.0), SolverBackend::Dense);
        if !cache_shifts {
            cache = cache.with_capacity_bound(0);
        }
        Self::with_kron_cache(g1, g2, kron, cache)
    }

    /// Builds the operator reusing an already-constructed `G₁ ⊕ G₁` operator
    /// with the top-block shifted solves served by `g1_shifted` — a
    /// [`ShiftCache`] over `G₁` in either backend (the sparse one runs one
    /// symbolic analysis and a numeric refactorization per distinct shift).
    /// The dense `g1` is still required for the `G₁ ⊕ G₁` Schur machinery of
    /// the bottom block.
    ///
    /// # Errors
    ///
    /// Same contract as [`BlockH2Op::new`], plus [`MorError::Invalid`] for a
    /// cache of the wrong dimension.
    pub fn with_kron_cache(
        g1: &Matrix,
        g2: &CsrMatrix,
        kron: KronSumOp2,
        g1_shifted: ShiftCache,
    ) -> Result<Self> {
        let n = g1.rows();
        if g1_shifted.dim() != n {
            return Err(MorError::Invalid(format!(
                "shift cache of dimension {} for a {n}-state G1",
                g1_shifted.dim()
            )));
        }
        if g2.rows() != n || g2.cols() != n * n {
            return Err(MorError::Invalid(format!(
                "G2 must be {n}x{}, got {}x{}",
                n * n,
                g2.rows(),
                g2.cols()
            )));
        }
        // Fail fast (as the pre-cache constructor did) if G1 itself is
        // singular: the σ = 0 expansion point requires a regular G1.
        g1_shifted.factor(0.0).map_err(MorError::Linalg)?;
        Ok(BlockH2Op {
            g1: g1.clone(),
            g2: g2.clone(),
            kron,
            g1_shifted,
            n,
        })
    }

    /// The shifted-solve cache for `G₁` (exposed for diagnostics and tests).
    pub fn shift_cache(&self) -> &ShiftCache {
        &self.g1_shifted
    }

    /// The state dimension `n` of the underlying QLDAE.
    #[cfg(test)]
    fn state_dim(&self) -> usize {
        self.n
    }

    /// Splits a block vector into its `(top, bottom)` halves.
    fn split(&self, x: &Vector) -> (Vector, Vector) {
        (
            x.slice(0, self.n),
            x.slice(self.n, self.n + self.n * self.n),
        )
    }

    /// Builds the input vector `b̃₂ = [D₁ b; b ⊗ b]` of the realization for a
    /// given input column `b` and optional bilinear term `D₁ b`.
    pub fn btilde(&self, b: &Vector, d1b: Option<&Vector>) -> Vector {
        let top = match d1b {
            Some(v) => v.clone(),
            None => Vector::zeros(self.n),
        };
        top.concat(&vamor_linalg::kron_vec(b, b))
    }

    /// Applies the output map `c̃₂ = [Iₙ 0]` (keeps the first `n` entries).
    #[cfg(test)]
    fn apply_ctilde(&self, x: &Vector) -> Vector {
        x.slice(0, self.n)
    }
}

impl ShiftedSolve for BlockH2Op {
    fn dim(&self) -> usize {
        self.n + self.n * self.n
    }

    fn apply(&self, x: &Vector) -> Vector {
        let (v1, v2) = self.split(x);
        let mut top = self.g1.matvec(&v1);
        top.axpy(1.0, &self.g2.matvec(&v2));
        let bottom = self.kron.apply(&v2);
        top.concat(&bottom)
    }

    fn solve_shifted(&self, sigma: f64, rhs: &Vector) -> vamor_linalg::Result<Vector> {
        let (r1, r2) = self.split(rhs);
        // Bottom block first: (G1⊕G1 + σI) v2 = r2.
        let v2 = self.kron.solve_shifted(sigma, &r2)?;
        // Top block: (G1 + σI) v1 = r1 − G2 v2, via the memoized shifted LU.
        let mut top_rhs = r1.clone();
        top_rhs.axpy(-1.0, &self.g2.matvec(&v2));
        let v1 = self.g1_shifted.solve_shifted(sigma, &top_rhs)?;
        Ok(v1.concat(&v2))
    }

    fn solve_shifted_complex(
        &self,
        lambda: Complex,
        re: &Vector,
        im: &Vector,
    ) -> vamor_linalg::Result<(Vector, Vector)> {
        let (r1_re, r2_re) = self.split(re);
        let (r1_im, r2_im) = self.split(im);
        let (v2_re, v2_im) = self.kron.solve_shifted_complex(lambda, &r2_re, &r2_im)?;
        // Top block complex solve: (G1 + λ I) v1 = r1 − G2 v2.
        let mut rhs_re = r1_re;
        rhs_re.axpy(-1.0, &self.g2.matvec(&v2_re));
        let mut rhs_im = r1_im;
        rhs_im.axpy(-1.0, &self.g2.matvec(&v2_im));
        let (v1_re, v1_im) = self
            .g1_shifted
            .solve_shifted_complex(lambda, &rhs_re, &rhs_im)?;
        Ok((v1_re.concat(&v2_re), v1_im.concat(&v2_im)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamor_linalg::{kron_sum, CooMatrix};

    fn stable(n: usize, seed: u64) -> Matrix {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let mut m = Matrix::from_fn(n, n, |_, _| next() * 0.6);
        for i in 0..n {
            m[(i, i)] -= 1.5 + 0.2 * i as f64;
        }
        m
    }

    fn sparse_g2(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n * n);
        coo.push(0, 0, 0.4);
        coo.push(1, n + 1, -0.3);
        if n > 2 {
            coo.push(2, 2 * n, 0.2);
        }
        coo.to_csr()
    }

    #[test]
    fn kron_sum_op_matches_dense() {
        let a = stable(4, 3);
        let op = KronSumOp2::new(&a).unwrap();
        let dense = kron_sum(&a, &a);
        let x = Vector::from_fn(16, |i| (i as f64 * 0.37).sin());
        assert!((&op.apply(&x) - &dense.matvec(&x)).norm_inf() < 1e-12);
        // Shifted solve.
        let sigma = 0.8;
        let y = op.solve_shifted(sigma, &x).unwrap();
        let mut shifted = dense.clone();
        for i in 0..16 {
            shifted[(i, i)] += sigma;
        }
        assert!((&shifted.matvec(&y) - &x).norm_inf() < 1e-9);
    }

    #[test]
    fn kron_sum_complex_shift_residual_is_small() {
        let a = stable(3, 9);
        let op = KronSumOp2::new(&a).unwrap();
        let dense = kron_sum(&a, &a);
        let lambda = Complex::new(0.4, 1.1);
        let re = Vector::from_fn(9, |i| i as f64 - 4.0);
        let im = Vector::from_fn(9, |i| 0.5 * i as f64);
        let (x_re, x_im) = op.solve_shifted_complex(lambda, &re, &im).unwrap();
        // Residual: (M + λI)(x_re + i x_im) − (re + i im).
        let mut res_re = dense.matvec(&x_re);
        res_re.axpy(lambda.re, &x_re);
        res_re.axpy(-lambda.im, &x_im);
        res_re.axpy(-1.0, &re);
        let mut res_im = dense.matvec(&x_im);
        res_im.axpy(lambda.re, &x_im);
        res_im.axpy(lambda.im, &x_re);
        res_im.axpy(-1.0, &im);
        assert!(
            res_re.norm_inf() < 1e-9,
            "re residual {}",
            res_re.norm_inf()
        );
        assert!(
            res_im.norm_inf() < 1e-9,
            "im residual {}",
            res_im.norm_inf()
        );
    }

    #[test]
    fn block_h2_op_matches_dense_block_matrix() {
        let n = 3;
        let g1 = stable(n, 5);
        let g2 = sparse_g2(n);
        let op = BlockH2Op::new(&g1, &g2).unwrap();
        assert_eq!(op.dim(), n + n * n);
        // Dense G̃2.
        let mut dense = Matrix::zeros(n + n * n, n + n * n);
        dense.set_block(0, 0, &g1);
        dense.set_block(0, n, &g2.to_dense());
        dense.set_block(n, n, &kron_sum(&g1, &g1));
        let x = Vector::from_fn(op.dim(), |i| ((i * 7 % 5) as f64) - 2.0);
        assert!((&op.apply(&x) - &dense.matvec(&x)).norm_inf() < 1e-12);
        // Real shifted solve.
        let sigma = 0.3;
        let y = op.solve_shifted(sigma, &x).unwrap();
        let mut shifted = dense.clone();
        for i in 0..op.dim() {
            shifted[(i, i)] += sigma;
        }
        assert!((&shifted.matvec(&y) - &x).norm_inf() < 1e-9);
        // Zero-shift solve uses the cached LU path.
        let y0 = op.solve_shifted(0.0, &x).unwrap();
        assert!((&dense.matvec(&y0) - &x).norm_inf() < 1e-9);
    }

    #[test]
    fn block_h2_complex_shift_residual_is_small() {
        let n = 3;
        // Give G1 a complex eigenvalue pair to make the test representative.
        let mut g1 = stable(n, 13);
        g1[(0, 1)] += 1.5;
        g1[(1, 0)] -= 1.5;
        let g2 = sparse_g2(n);
        let op = BlockH2Op::new(&g1, &g2).unwrap();
        let mut dense = Matrix::zeros(n + n * n, n + n * n);
        dense.set_block(0, 0, &g1);
        dense.set_block(0, n, &g2.to_dense());
        dense.set_block(n, n, &kron_sum(&g1, &g1));
        let lambda = Complex::new(0.2, 0.9);
        let re = Vector::from_fn(op.dim(), |i| (i as f64 * 0.11).cos());
        let im = Vector::from_fn(op.dim(), |i| (i as f64 * 0.07).sin());
        let (x_re, x_im) = op.solve_shifted_complex(lambda, &re, &im).unwrap();
        let mut res_re = dense.matvec(&x_re);
        res_re.axpy(lambda.re, &x_re);
        res_re.axpy(-lambda.im, &x_im);
        res_re.axpy(-1.0, &re);
        let mut res_im = dense.matvec(&x_im);
        res_im.axpy(lambda.re, &x_im);
        res_im.axpy(lambda.im, &x_re);
        res_im.axpy(-1.0, &im);
        assert!(res_re.norm_inf() < 1e-9);
        assert!(res_im.norm_inf() < 1e-9);
    }

    #[test]
    fn sparse_backed_block_op_matches_dense_backend() {
        let n = 4;
        let mut g1 = stable(n, 17);
        g1[(0, 1)] += 1.2;
        g1[(1, 0)] -= 1.2;
        let g2 = sparse_g2(n);
        let g1_csr = CsrMatrix::from_dense(&g1, 0.0);
        let dense_op = BlockH2Op::new(&g1, &g2).unwrap();
        let sparse_cache = ShiftCache::new(&g1_csr, vamor_linalg::SolverBackend::Sparse);
        let sparse_op =
            BlockH2Op::with_kron_cache(&g1, &g2, KronSumOp2::new(&g1).unwrap(), sparse_cache)
                .unwrap();
        assert!(sparse_op.shift_cache().is_sparse());
        assert!(!dense_op.shift_cache().is_sparse());

        let x = Vector::from_fn(dense_op.dim(), |i| ((i * 5 % 7) as f64) - 3.0);
        let lambda = Complex::new(0.3, 0.8);
        let re = Vector::from_fn(dense_op.dim(), |i| (i as f64 * 0.13).sin());
        let im = Vector::from_fn(dense_op.dim(), |i| (i as f64 * 0.19).cos());
        for sigma in [0.0, 0.5, 0.0, -0.25] {
            let a = dense_op.solve_shifted(sigma, &x).unwrap();
            let b = sparse_op.solve_shifted(sigma, &x).unwrap();
            assert!((&a - &b).norm_inf() < 1e-8, "sigma {sigma}");
        }
        let (ar, ai) = dense_op.solve_shifted_complex(lambda, &re, &im).unwrap();
        let (br, bi) = sparse_op.solve_shifted_complex(lambda, &re, &im).unwrap();
        assert!((&ar - &br).norm_inf() < 1e-8);
        assert!((&ai - &bi).norm_inf() < 1e-8);
        // Identical solve sequences must produce identical cache statistics
        // on both backends (the constructor's regularity probe included).
        assert_eq!(
            dense_op.shift_cache().hits(),
            sparse_op.shift_cache().hits()
        );
        assert_eq!(
            dense_op.shift_cache().misses(),
            sparse_op.shift_cache().misses()
        );
        assert_eq!(dense_op.shift_cache().len(), sparse_op.shift_cache().len());
        assert!(!sparse_op.shift_cache().is_empty());
    }

    #[test]
    fn btilde_and_ctilde_layout() {
        let n = 2;
        let g1 = stable(n, 21);
        let g2 = CooMatrix::new(n, n * n).to_csr();
        let op = BlockH2Op::new(&g1, &g2).unwrap();
        let b = Vector::from_slice(&[1.0, 2.0]);
        let d1b = Vector::from_slice(&[5.0, 6.0]);
        let bt = op.btilde(&b, Some(&d1b));
        assert_eq!(bt.len(), 6);
        assert_eq!(bt.as_slice()[..2], [5.0, 6.0]);
        assert_eq!(bt.as_slice()[2..], [1.0, 2.0, 2.0, 4.0]);
        let bt0 = op.btilde(&b, None);
        assert_eq!(bt0.as_slice()[..2], [0.0, 0.0]);
        assert_eq!(op.apply_ctilde(&bt).as_slice(), &[5.0, 6.0]);
        assert_eq!(op.state_dim(), 2);
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        let g1 = stable(3, 2);
        let g2 = CooMatrix::new(3, 5).to_csr();
        assert!(BlockH2Op::new(&g1, &g2).is_err());
        assert!(KronSumOp2::new(&Matrix::zeros(2, 3)).is_err());
        let wrong = ShiftCache::new(
            &CsrMatrix::from_dense(&stable(2, 4), 0.0),
            Default::default(),
        );
        let kron = KronSumOp2::new(&g1).unwrap();
        assert!(
            BlockH2Op::with_kron_cache(&g1, &CooMatrix::new(3, 9).to_csr(), kron, wrong).is_err()
        );
    }
}
