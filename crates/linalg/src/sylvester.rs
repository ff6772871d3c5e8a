//! Sylvester and Lyapunov equation solvers (Bartels–Stewart).
//!
//! The associated-transform MOR flow leans heavily on the fact that the
//! Kronecker-sum resolvent solves `(σ I − G₁ ⊕ G₁) y = r` appearing in the
//! single-`s` realizations of `H₂(s)` and `H₃(s)` are Sylvester equations in
//! disguise: with `Y = unvec(y)` the solve becomes
//! `(G₁ − σI) Y + Y G₁ᵀ = −R`, which Bartels–Stewart handles in `O(n³)` using
//! only the `n × n` Schur factorization of `G₁`.
//!
//! [`SylvesterSolver`] holds the Schur factorizations of its coefficient
//! matrices — one, for the Lyapunov shape `A X + X Aᵀ` — so that the many
//! repeated solves of moment generation cost a single quasi-triangular
//! back-substitution each. Complex-shifted solves (needed when an outer
//! recursion walks over 2×2 Schur blocks of another matrix) are supported
//! as well.

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::schur::SchurDecomposition;
use crate::Result;

/// Cached Bartels–Stewart solver for `A X + X B = C` with fixed `A`, `B`.
///
/// The solver holds its coefficients as Schur forms: `A`'s, and `Bᵀ`'s
/// unless `B = Aᵀ` (the Lyapunov shape of every Kronecker-sum operator),
/// where `Bᵀ`'s Schur form is `A`'s own and is held once.
///
/// ```
/// use vamor_linalg::{Matrix, SylvesterSolver};
/// # fn main() -> Result<(), vamor_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[-3.0, 1.0], &[0.0, -2.0]])?;
/// let b = Matrix::from_rows(&[&[-1.0, 0.0], &[2.0, -4.0]])?;
/// let c = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])?;
/// let solver = SylvesterSolver::new(&a, &b)?;
/// let x = solver.solve(&c)?;
/// let residual = &(&a.matmul(&x) + &x.matmul(&b)) - &c;
/// assert!(residual.max_abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SylvesterSolver {
    /// Schur form of `A`: `A = Qa Ta Qaᵀ`.
    a: SchurDecomposition,
    /// Schur form of `Bᵀ`: `Bᵀ = Qb Tb Qbᵀ` (so `Qbᵀ B Qb = Tbᵀ`); `None`
    /// for the Lyapunov shape `B = Aᵀ`, whose `Bᵀ` is `A`.
    b: Option<SchurDecomposition>,
}

impl SylvesterSolver {
    /// Builds the solver from the coefficient matrices of `A X + X B = C`.
    ///
    /// # Errors
    ///
    /// Returns an error if either matrix is not square or a Schur
    /// factorization fails to converge.
    pub fn new(a: &Matrix, b: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !b.is_square() {
            return Err(LinalgError::NotSquare {
                rows: b.rows(),
                cols: b.cols(),
            });
        }
        Ok(SylvesterSolver {
            a: SchurDecomposition::new(a)?,
            b: Some(SchurDecomposition::new(&b.transpose())?),
        })
    }

    /// The solver of the Lyapunov-shaped equation `A X + X Aᵀ = C` on the
    /// Schur form of `A`, which it takes over: one Schur form serves both
    /// coefficients, and building the solver costs nothing beyond it.
    pub fn lyapunov(schur: SchurDecomposition) -> Self {
        SylvesterSolver { a: schur, b: None }
    }

    /// The Schur form of the `A` coefficient.
    pub fn schur(&self) -> &SchurDecomposition {
        &self.a
    }

    /// The Schur form of `Bᵀ`.
    fn schur_bt(&self) -> &SchurDecomposition {
        self.b.as_ref().unwrap_or(&self.a)
    }

    /// `(na, nb)`: the row count of `X` (`A` side) and its column count
    /// (`B` side).
    fn dims(&self) -> (usize, usize) {
        (self.a.dim(), self.schur_bt().dim())
    }

    /// Solves `A X + X B = C`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for a wrongly shaped `C`
    /// and [`LinalgError::Singular`] if `λ_i(A) + λ_j(B) = 0` for some pair.
    pub fn solve(&self, c: &Matrix) -> Result<Matrix> {
        self.solve_shifted(0.0, c)
    }

    /// Solves `(A + σ I) X + X B = C` for a real shift `σ`.
    ///
    /// # Errors
    ///
    /// Same as [`SylvesterSolver::solve`], with singularity now meaning
    /// `λ_i(A) + σ + λ_j(B) = 0`.
    ///
    /// The right-hand side is moved into Schur coordinates, solved there by
    /// a quasi-triangular back-substitution and moved back.
    pub fn solve_shifted(&self, shift: f64, c: &Matrix) -> Result<Matrix> {
        let (na, nb) = self.dims();
        if c.rows() != na || c.cols() != nb {
            return Err(LinalgError::DimensionMismatch(format!(
                "sylvester solve: rhs is {}x{}, expected {na}x{nb}",
                c.rows(),
                c.cols(),
            )));
        }
        let (qa, qb) = (self.a.q(), self.schur_bt().q());
        // C̃ᵀ = (Qaᵀ C Qb)ᵀ = Qbᵀ Cᵀ Qa, rows of `yt` are columns of C̃ (and,
        // after the solve, of Y).
        let mut yt = qb.transpose().matmul(&c.transpose()).matmul(qa);
        self.solve_schur_shifted_into(shift, yt.as_mut_slice())?;
        // X = Qa Y Qbᵀ = (Qb Yt Qaᵀ)ᵀ with Y = Ytᵀ.
        Ok(qb.matmul(&yt).matmul(&qa.transpose()).transpose())
    }

    /// Solves `(Ta + σ I) Y + Y Tbᵀ = C̃` in Schur coordinates, in place:
    /// `yt` holds `C̃` on entry and `Y` on return, both *transposed* —
    /// row `j` of the `nb × na` row-major buffer is column `j`, so `yt` is
    /// `vec(C̃)` in column-major order. For the Lyapunov-shaped solvers
    /// (`Ta = Tb`) this is the `(T ⊕ T + σI) vec(Y) = vec(C̃)` solve of a
    /// Kronecker-sum operator that stays in `T`'s Schur basis.
    ///
    /// Every coupling update is a contiguous slice operation, the ≤4×4
    /// block systems are solved on the stack, and nothing is allocated.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for a buffer that is not
    /// `na · nb` long, [`LinalgError::Singular`] when
    /// `λ_i(A) + σ + λ_j(B) = 0`.
    fn solve_schur_shifted_into(&self, shift: f64, yt: &mut [f64]) -> Result<()> {
        let (na, nb) = self.dims();
        self.check_schur_len("sylvester schur solve", yt.len())?;
        let (ta, tb) = (self.a.t(), self.schur_bt().t());
        for jb in self.schur_bt().blocks().iter().rev() {
            let (j0, sj) = (jb.start, jb.size);
            // Rows ≥ j0+sj are solved columns; rows j0..j0+sj still hold
            // the right-hand side of the current column block.
            let (head, solved) = yt.split_at_mut((j0 + sj) * na);
            // rhs row cl = C̃ᵀ row (j0+cl) − Σ_{k ≥ j0+sj} Tb[j0+cl, k] · Y col k.
            for cl in 0..sj {
                let j = j0 + cl;
                let row = &mut head[j * na..(j + 1) * na];
                for k in (j0 + sj)..nb {
                    let coef = tb[(j, k)];
                    if coef != 0.0 {
                        let ycol = &solved[(k - j0 - sj) * na..(k - j0 - sj + 1) * na];
                        for (r, &v) in row.iter_mut().zip(ycol.iter()) {
                            *r -= coef * v;
                        }
                    }
                }
            }
            let cols = &mut head[j0 * na..];
            // S is the transposed diagonal block of Tb (acts from the right).
            let mut s_block = [[0.0f64; 2]; 2];
            for (p, row) in s_block.iter_mut().enumerate().take(sj) {
                for (q, v) in row.iter_mut().enumerate().take(sj) {
                    *v = tb[(j0 + q, j0 + p)];
                }
            }

            for ib in self.a.blocks().iter().rev() {
                let (i0, si) = (ib.start, ib.size);
                let dim = si * sj;
                // Local RHS minus coupling with already-solved row blocks;
                // both the Ta row and the Y column are contiguous slices.
                let mut w = [0.0f64; 4];
                for cl in 0..sj {
                    let ycol = &cols[cl * na..(cl + 1) * na];
                    for rl in 0..si {
                        let i = i0 + rl;
                        let ta_row = ta.row(i);
                        let mut acc = ycol[i];
                        for (t, v) in ta_row[(i0 + si)..].iter().zip(ycol[(i0 + si)..].iter()) {
                            acc -= t * v;
                        }
                        w[cl * si + rl] = acc;
                    }
                }
                // Small system (I ⊗ (Ta_ii + σI) + Sᵀ ⊗ I) vec(W) = vec(local).
                let mut m = [[0.0f64; 4]; 4];
                for p in 0..si {
                    for q in 0..si {
                        let mut v = ta[(i0 + p, i0 + q)];
                        if p == q {
                            v += shift;
                        }
                        if v != 0.0 {
                            for cc in 0..sj {
                                m[cc * si + p][cc * si + q] += v;
                            }
                        }
                    }
                }
                for p in 0..sj {
                    for q in 0..sj {
                        let v = s_block[q][p];
                        if v != 0.0 {
                            for rr in 0..si {
                                m[p * si + rr][q * si + rr] += v;
                            }
                        }
                    }
                }
                solve_small_real(dim, &mut m, &mut w).ok_or_else(|| sylvester_singular(shift))?;
                for cl in 0..sj {
                    for rl in 0..si {
                        cols[cl * na + i0 + rl] = w[cl * si + rl];
                    }
                }
            }
        }
        Ok(())
    }

    /// Solves `(A + λ I) X + X B = C` with a complex shift `λ` and a complex
    /// right-hand side `C = C_re + i C_im`. Returns `(X_re, X_im)`.
    ///
    /// This is used when an outer Bartels–Stewart recursion over *another*
    /// matrix hits a 2×2 (complex-pair) Schur block and the per-eigenvalue
    /// shifted solves become complex. The solve itself is a complex
    /// quasi-triangular back-substitution between the transforms into and
    /// out of Schur coordinates.
    ///
    /// # Errors
    ///
    /// Same as [`SylvesterSolver::solve_shifted`], with the shifted pencil
    /// being singular when `λ_i(A) + λ + λ_j(B) = 0`.
    pub fn solve_shifted_complex(
        &self,
        shift: Complex,
        c_re: &Matrix,
        c_im: &Matrix,
    ) -> Result<(Matrix, Matrix)> {
        let (na, nb) = self.dims();
        if c_re.rows() != na || c_re.cols() != nb || c_im.rows() != na || c_im.cols() != nb {
            return Err(LinalgError::DimensionMismatch(format!(
                "sylvester complex solve: rhs is {}x{} / {}x{}, expected {na}x{nb}",
                c_re.rows(),
                c_re.cols(),
                c_im.rows(),
                c_im.cols(),
            )));
        }
        let (qa, qb) = (self.a.q(), self.schur_bt().q());
        let (qat, qbt) = (qa.transpose(), qb.transpose());
        let mut yt_re = qat.matmul(c_re).matmul(qb).transpose();
        let mut yt_im = qat.matmul(c_im).matmul(qb).transpose();
        self.solve_schur_shifted_complex_into(shift, yt_re.as_mut_slice(), yt_im.as_mut_slice())?;
        let x_re = qa.matmul(&yt_re.transpose()).matmul(&qbt);
        let x_im = qa.matmul(&yt_im.transpose()).matmul(&qbt);
        Ok((x_re, x_im))
    }

    /// Complex analogue of `solve_schur_shifted_into`:
    /// solves `(Ta + λ I) Y + Y Tbᵀ = C̃` in place on the split real and
    /// imaginary parts, each in the same transposed (column-major `vec`)
    /// layout. The coefficients of `Ta`/`Tb` are real, so every coupling
    /// update is a pair of real contiguous slice operations.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for buffers that are not
    /// `na · nb` long, [`LinalgError::Singular`] when
    /// `λ_i(A) + λ + λ_j(B) = 0`.
    fn solve_schur_shifted_complex_into(
        &self,
        shift: Complex,
        yt_re: &mut [f64],
        yt_im: &mut [f64],
    ) -> Result<()> {
        let (na, nb) = self.dims();
        self.check_schur_len("sylvester complex schur solve", yt_re.len())?;
        self.check_schur_len("sylvester complex schur solve", yt_im.len())?;
        let (ta, tb) = (self.a.t(), self.schur_bt().t());
        for jb in self.schur_bt().blocks().iter().rev() {
            let (j0, sj) = (jb.start, jb.size);
            let (head_re, solved_re) = yt_re.split_at_mut((j0 + sj) * na);
            let (head_im, solved_im) = yt_im.split_at_mut((j0 + sj) * na);
            for cl in 0..sj {
                let j = j0 + cl;
                let row_re = &mut head_re[j * na..(j + 1) * na];
                let row_im = &mut head_im[j * na..(j + 1) * na];
                for k in (j0 + sj)..nb {
                    let coef = tb[(j, k)];
                    if coef != 0.0 {
                        let off = (k - j0 - sj) * na;
                        let (y_re, y_im) = (&solved_re[off..off + na], &solved_im[off..off + na]);
                        for (r, &v) in row_re.iter_mut().zip(y_re.iter()) {
                            *r -= coef * v;
                        }
                        for (r, &v) in row_im.iter_mut().zip(y_im.iter()) {
                            *r -= coef * v;
                        }
                    }
                }
            }
            let cols_re = &mut head_re[j0 * na..];
            let cols_im = &mut head_im[j0 * na..];
            let mut s_block = [[0.0f64; 2]; 2];
            for (p, row) in s_block.iter_mut().enumerate().take(sj) {
                for (q, v) in row.iter_mut().enumerate().take(sj) {
                    *v = tb[(j0 + q, j0 + p)];
                }
            }

            for ib in self.a.blocks().iter().rev() {
                let (i0, si) = (ib.start, ib.size);
                let dim = si * sj;
                let mut w = [Complex::ZERO; 4];
                let cols = (&*cols_re, &*cols_im);
                match (si, sj) {
                    (1, 1) => block_coupling::<1, 1>(ta, i0, cols, na, &mut w),
                    (1, _) => block_coupling::<1, 2>(ta, i0, cols, na, &mut w),
                    (_, 1) => block_coupling::<2, 1>(ta, i0, cols, na, &mut w),
                    _ => block_coupling::<2, 2>(ta, i0, cols, na, &mut w),
                }
                let mut m = [[Complex::ZERO; 4]; 4];
                for p in 0..si {
                    for q in 0..si {
                        let mut v = Complex::from_real(ta[(i0 + p, i0 + q)]);
                        if p == q {
                            v += shift;
                        }
                        if v.abs() != 0.0 {
                            for cc in 0..sj {
                                m[cc * si + p][cc * si + q] += v;
                            }
                        }
                    }
                }
                for p in 0..sj {
                    for q in 0..sj {
                        let v = s_block[q][p];
                        if v != 0.0 {
                            for rr in 0..si {
                                m[p * si + rr][q * si + rr] += Complex::from_real(v);
                            }
                        }
                    }
                }
                solve_small_complex(dim, &mut m, &mut w)
                    .ok_or_else(|| sylvester_singular(shift.re))?;
                for cl in 0..sj {
                    for rl in 0..si {
                        cols_re[cl * na + i0 + rl] = w[cl * si + rl].re;
                        cols_im[cl * na + i0 + rl] = w[cl * si + rl].im;
                    }
                }
            }
        }
        Ok(())
    }

    fn check_schur_len(&self, what: &str, len: usize) -> Result<()> {
        let (na, nb) = self.dims();
        if len == na * nb {
            Ok(())
        } else {
            Err(LinalgError::DimensionMismatch(format!(
                "{what}: buffer has {len} entries, expected {nb}x{na}"
            )))
        }
    }
}

/// The local right-hand sides of one `SI × SJ` block of the complex
/// back-substitution: `w[cl·SI + rl] = Y[i0+rl, cl] − Σ_{k ≥ i0+SI}
/// Ta[i0+rl, k] · Y[k, cl]` over the column block's split parts `cols`
/// (`SJ` rows of `na` entries each). Every accumulator sums its terms in
/// ascending `k`, as a one-entry-at-a-time loop would; running all
/// `2·SI·SJ` of them in one pass only hides the add latency.
#[inline(always)]
fn block_coupling<const SI: usize, const SJ: usize>(
    ta: &Matrix,
    i0: usize,
    (cols_re, cols_im): (&[f64], &[f64]),
    na: usize,
    w: &mut [Complex; 4],
) {
    let from = i0 + SI;
    let len = na - from;
    let rows: [&[f64]; SI] = std::array::from_fn(|rl| &ta.row(i0 + rl)[from..na]);
    let y_re: [&[f64]; SJ] = std::array::from_fn(|cl| &cols_re[cl * na..(cl + 1) * na]);
    let y_im: [&[f64]; SJ] = std::array::from_fn(|cl| &cols_im[cl * na..(cl + 1) * na]);
    let mut re = [[0.0f64; SI]; SJ];
    let mut im = [[0.0f64; SI]; SJ];
    for cl in 0..SJ {
        for rl in 0..SI {
            re[cl][rl] = y_re[cl][i0 + rl];
            im[cl][rl] = y_im[cl][i0 + rl];
        }
    }
    let tail_re: [&[f64]; SJ] = std::array::from_fn(|cl| &y_re[cl][from..na]);
    let tail_im: [&[f64]; SJ] = std::array::from_fn(|cl| &y_im[cl][from..na]);
    for k in 0..len {
        for cl in 0..SJ {
            let (vr, vi) = (tail_re[cl][k], tail_im[cl][k]);
            for rl in 0..SI {
                let t = rows[rl][k];
                re[cl][rl] -= t * vr;
                im[cl][rl] -= t * vi;
            }
        }
    }
    for cl in 0..SJ {
        for rl in 0..SI {
            w[cl * SI + rl] = Complex::new(re[cl][rl], im[cl][rl]);
        }
    }
}

/// Solves an at-most-4×4 real system in place by Gaussian elimination with
/// partial pivoting, entirely on the stack. Returns `None` on a zero pivot.
#[allow(clippy::needless_range_loop)] // rows i and k of `a` are borrowed simultaneously
fn solve_small_real(dim: usize, a: &mut [[f64; 4]; 4], b: &mut [f64; 4]) -> Option<()> {
    for k in 0..dim {
        let mut piv = k;
        for i in (k + 1)..dim {
            if a[i][k].abs() > a[piv][k].abs() {
                piv = i;
            }
        }
        if a[piv][k] == 0.0 {
            return None;
        }
        if piv != k {
            a.swap(piv, k);
            b.swap(piv, k);
        }
        for i in (k + 1)..dim {
            let f = a[i][k] / a[k][k];
            if f != 0.0 {
                for j in (k + 1)..dim {
                    a[i][j] -= f * a[k][j];
                }
                b[i] -= f * b[k];
            }
        }
    }
    for i in (0..dim).rev() {
        let mut acc = b[i];
        for j in (i + 1)..dim {
            acc -= a[i][j] * b[j];
        }
        b[i] = acc / a[i][i];
    }
    Some(())
}

/// Complex analogue of [`solve_small_real`].
#[allow(clippy::needless_range_loop)] // rows i and k of `a` are borrowed simultaneously
fn solve_small_complex(dim: usize, a: &mut [[Complex; 4]; 4], b: &mut [Complex; 4]) -> Option<()> {
    for k in 0..dim {
        let mut piv = k;
        for i in (k + 1)..dim {
            if a[i][k].abs() > a[piv][k].abs() {
                piv = i;
            }
        }
        if a[piv][k].abs() == 0.0 {
            return None;
        }
        if piv != k {
            a.swap(piv, k);
            b.swap(piv, k);
        }
        for i in (k + 1)..dim {
            let f = a[i][k] / a[k][k];
            if f.abs() != 0.0 {
                for j in (k + 1)..dim {
                    let akj = a[k][j];
                    a[i][j] -= f * akj;
                }
                let bk = b[k];
                b[i] -= f * bk;
            }
        }
    }
    for i in (0..dim).rev() {
        let mut acc = b[i];
        for j in (i + 1)..dim {
            acc -= a[i][j] * b[j];
        }
        b[i] = acc / a[i][i];
    }
    Some(())
}

fn sylvester_singular(shift: f64) -> LinalgError {
    LinalgError::Singular(format!(
        "sylvester equation is singular (eigenvalue sum hits zero, shift {shift})"
    ))
}

/// One-shot solve of `A X + X B = C`.
///
/// # Errors
///
/// See [`SylvesterSolver::solve`].
pub fn solve_sylvester(a: &Matrix, b: &Matrix, c: &Matrix) -> Result<Matrix> {
    SylvesterSolver::new(a, b)?.solve(c)
}

/// Gram matrix `M` of the energy inner product of a Hurwitz matrix `A`,
/// from the Schur form of `A`: the unique symmetric positive definite
/// solution of
///
/// ```text
/// Aᵀ M + M A = −I.
/// ```
///
/// In the inner product `⟨u, v⟩_M = uᵀ M v`, `A` is *dissipative*: for any
/// basis `V` with `Vᵀ M V = I`, the Galerkin-reduced matrix
/// `A_r = Vᵀ M A V` satisfies `A_r + A_rᵀ = Vᵀ (M A + Aᵀ M) V = −VᵀV ≺ 0`
/// and is therefore Hurwitz — the stability guarantee behind the stabilized
/// projection of the MOR flow. The equation is Lyapunov-shaped in `Aᵀ`,
/// whose Schur form ([`SchurDecomposition::adjoint`]) is derived in
/// `O(n²)` and is the solver's only copy.
///
/// # Errors
///
/// Propagates Sylvester failures; for a non-Hurwitz `A` the solution exists
/// but is not positive definite, which only the downstream Cholesky reports.
pub fn lyapunov_weight(schur_of_a: &SchurDecomposition) -> Result<Matrix> {
    let n = schur_of_a.dim();
    let solver = SylvesterSolver::lyapunov(schur_of_a.adjoint());
    let mut neg_i = Matrix::zeros(n, n);
    for i in 0..n {
        neg_i[(i, i)] = -1.0;
    }
    let m = solver.solve(&neg_i)?;
    // The analytic solution is symmetric; symmetrize away solver roundoff so
    // downstream Cholesky sees an exactly symmetric matrix.
    Ok(m.symmetric_part())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stable_matrix(n: usize, seed: u64) -> Matrix {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut m = Matrix::from_fn(n, n, |_, _| next() * 0.5);
        for i in 0..n {
            m[(i, i)] -= 2.0 + i as f64 * 0.1;
        }
        m
    }

    fn residual(a: &Matrix, b: &Matrix, c: &Matrix, x: &Matrix) -> f64 {
        (&(&a.matmul(x) + &x.matmul(b)) - c).max_abs()
    }

    #[test]
    fn solves_random_stable_equations() {
        for (na, nb, seed) in [(3, 3, 1), (5, 4, 2), (8, 6, 3), (12, 12, 4), (1, 5, 5)] {
            let a = stable_matrix(na, seed);
            let b = stable_matrix(nb, seed + 100);
            let c = Matrix::from_fn(na, nb, |i, j| ((i + 1) * (j + 2)) as f64 / 7.0);
            let x = solve_sylvester(&a, &b, &c).unwrap();
            assert!(residual(&a, &b, &c, &x) < 1e-9, "na={na}, nb={nb}");
        }
    }

    #[test]
    fn lyapunov_solution_of_stable_system_is_found() {
        let a = stable_matrix(7, 42);
        let c = Matrix::identity(7).scaled(-1.0);
        let x = SylvesterSolver::lyapunov(SchurDecomposition::new(&a).unwrap())
            .solve(&c)
            .unwrap();
        let res = (&(&a.matmul(&x) + &x.matmul(&a.transpose())) - &c).max_abs();
        assert!(res < 1e-9);
        // For a Hurwitz A and C = -I the solution is symmetric positive definite.
        assert!((&x - &x.transpose()).max_abs() < 1e-8);
        for i in 0..7 {
            assert!(x[(i, i)] > 0.0);
        }
    }

    #[test]
    fn lyapunov_weight_is_spd_and_satisfies_the_equation() {
        for (n, seed) in [(5usize, 11u64), (9, 12)] {
            let a = stable_matrix(n, seed);
            let schur = SchurDecomposition::new(&a).unwrap();
            let m = lyapunov_weight(&schur).unwrap();
            // Aᵀ M + M A = -I.
            let res = &(&a.transpose().matmul(&m) + &m.matmul(&a)) + &Matrix::identity(n);
            assert!(res.max_abs() < 1e-9, "residual {}", res.max_abs());
            // Exactly symmetric (post-symmetrization) and positive definite.
            assert!((&m - &m.transpose()).max_abs() == 0.0);
            assert!(crate::cholesky::CholeskyDecomposition::new(&m).is_ok());
            // The general two-Schur-form solver on `(Aᵀ, A)` agrees.
            let m2 =
                solve_sylvester(&a.transpose(), &a, &Matrix::identity(n).scaled(-1.0)).unwrap();
            assert!((&m - &m2.symmetric_part()).max_abs() < 1e-10);
        }
    }

    #[test]
    fn lyapunov_from_schur_matches_fresh_factorization() {
        // The one-Schur-form solver agrees with the general one, which
        // factors `A` and `(Aᵀ)ᵀ` separately.
        let a = stable_matrix(6, 31);
        let c = Matrix::from_fn(6, 6, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
        let fresh = SylvesterSolver::new(&a, &a.transpose())
            .unwrap()
            .solve(&c)
            .unwrap();
        let schur = SchurDecomposition::new(&a).unwrap();
        let reused = SylvesterSolver::lyapunov(schur).solve(&c).unwrap();
        assert!((&fresh - &reused).max_abs() < 1e-10);
    }

    #[test]
    fn complex_pair_blocks_are_handled() {
        // A with complex eigenvalues (-1 ± 2i) and (-3 ± 1i).
        let a = Matrix::from_rows(&[
            &[-1.0, 2.0, 0.3, 0.0],
            &[-2.0, -1.0, 0.0, 0.1],
            &[0.0, 0.0, -3.0, 1.0],
            &[0.0, 0.0, -1.0, -3.0],
        ])
        .unwrap();
        let b = stable_matrix(5, 9);
        let c = Matrix::from_fn(4, 5, |i, j| (i as f64 - j as f64) / 3.0 + 1.0);
        let x = solve_sylvester(&a, &b, &c).unwrap();
        assert!(residual(&a, &b, &c, &x) < 1e-9);
    }

    #[test]
    fn shifted_solve_matches_explicitly_shifted_matrix() {
        let a = stable_matrix(6, 11);
        let b = stable_matrix(4, 12);
        let c = Matrix::from_fn(6, 4, |i, j| (i * j) as f64 + 1.0);
        let sigma = 0.75;
        let solver = SylvesterSolver::new(&a, &b).unwrap();
        let x1 = solver.solve_shifted(sigma, &c).unwrap();
        let mut a_shift = a.clone();
        for i in 0..6 {
            a_shift[(i, i)] += sigma;
        }
        let x2 = solve_sylvester(&a_shift, &b, &c).unwrap();
        assert!((&x1 - &x2).max_abs() < 1e-9);
    }

    #[test]
    fn complex_shifted_solve_has_small_residual() {
        let a = stable_matrix(5, 21);
        let b = stable_matrix(3, 22);
        let c_re = Matrix::from_fn(5, 3, |i, j| (i + j) as f64);
        let c_im = Matrix::from_fn(5, 3, |i, j| (i as f64 - j as f64) * 0.5);
        let shift = Complex::new(0.3, 1.7);
        let solver = SylvesterSolver::new(&a, &b).unwrap();
        let (x_re, x_im) = solver.solve_shifted_complex(shift, &c_re, &c_im).unwrap();
        // Residual of (A + λI) X + X B - C in real/imag parts.
        let res_re = &(&(&a.matmul(&x_re) + &x_re.matmul(&b))
            + &(&x_re.scaled(shift.re) - &x_im.scaled(shift.im)))
            - &c_re;
        let res_im = &(&(&a.matmul(&x_im) + &x_im.matmul(&b))
            + &(&x_im.scaled(shift.re) + &x_re.scaled(shift.im)))
            - &c_im;
        assert!(res_re.max_abs() < 1e-9, "re residual {}", res_re.max_abs());
        assert!(res_im.max_abs() < 1e-9, "im residual {}", res_im.max_abs());
    }

    #[test]
    fn singular_equation_is_reported() {
        // λ(A) = {1, -1}, λ(B) = {1, -1}: sums hit zero.
        let a = Matrix::from_diagonal(&[1.0, -1.0]);
        let b = Matrix::from_diagonal(&[1.0, -1.0]);
        let c = Matrix::identity(2);
        assert!(matches!(
            solve_sylvester(&a, &b, &c),
            Err(LinalgError::Singular(_))
        ));
    }

    #[test]
    fn shape_validation() {
        let a = stable_matrix(3, 1);
        let b = stable_matrix(2, 2);
        let solver = SylvesterSolver::new(&a, &b).unwrap();
        assert!(solver.solve(&Matrix::zeros(2, 3)).is_err());
        assert!(solver.solve(&Matrix::zeros(3, 2)).is_ok());
        let lyap = SylvesterSolver::lyapunov(SchurDecomposition::new(&a).unwrap());
        assert!(lyap.solve(&Matrix::zeros(3, 2)).is_err());
        assert!(lyap.solve_schur_shifted_into(0.0, &mut [0.0; 6]).is_err());
        assert!(SylvesterSolver::new(&Matrix::zeros(2, 3), &b).is_err());
    }

    #[test]
    fn kron_sum_equivalence() {
        // Solving A X + X B = C is the same as (Bᵀ ⊕ A) vec(X) = vec(C).
        let a = stable_matrix(3, 31);
        let b = stable_matrix(3, 32);
        let c = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 - 4.0);
        let x = solve_sylvester(&a, &b, &c).unwrap();
        let big = crate::kron::kron_sum(&b.transpose(), &a);
        let lhs = big.matvec(&crate::kron::vec_of(&x));
        let rhs = crate::kron::vec_of(&c);
        assert!((&lhs - &rhs).norm_inf() < 1e-9);
    }
}
