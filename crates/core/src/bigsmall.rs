//! Sylvester solver for equations with a *structured* (large) left coefficient
//! and a small dense right coefficient:
//!
//! ```text
//! Op · X + X · B = R,        Op: m×m structured, B: p×p dense, X, R: m×p.
//! ```
//!
//! The resolvent `(sI − G₁ ⊕ G̃₂)⁻¹` of the third-order associated transform
//! is, in `vec` space, a Sylvester equation of this shape: its *left*
//! coefficient is the huge block matrix `G̃₂` (never formed) and its *right*
//! coefficient the small `G₁ᵀ`. This generic solver serves the low-rank
//! engine's Tucker core (`Op = H ⊕ H` for the small projected `H`) and the
//! public API; the dense moment generator runs the same back-substitution
//! with every mode held in `G₁`'s Schur coordinates instead
//! ([`crate::assoc`]).
//!
//! The right coefficient is reduced to real Schur form; the left coefficient
//! only needs shifted solves, which [`ShiftedSolve`] provides. Columns are
//! recovered by back-substitution over the Schur blocks; 2×2 blocks
//! (complex-conjugate eigenvalue pairs of `B`) lead to a single complex
//! shifted solve per block.

use vamor_linalg::{Complex, Matrix, SchurDecomposition, ShiftedSolve, Vector};

use crate::error::MorError;
use crate::Result;

/// Solves `Op · X + X · B = R` for `X` (`Op.dim() × B.rows()`), given the
/// real Schur decomposition `schur` of `Bᵀ`.
///
/// The moment recursions call the solver repeatedly with the *same* small
/// coefficient, whose Schur form already exists inside the cached
/// Kronecker-sum machinery; taking it as an argument keeps the Francis-QR
/// iteration out of every call.
///
/// # Errors
///
/// * [`MorError::Invalid`] if the shapes are inconsistent.
/// * [`MorError::Linalg`] if a shifted solve encounters a singular pencil
///   (an eigenvalue of `Op` plus an eigenvalue of `B` hits zero).
pub fn solve_sylvester_big_small_with_schur(
    op: &dyn ShiftedSolve,
    schur: &SchurDecomposition,
    r: &Matrix,
) -> Result<Matrix> {
    let m = op.dim();
    let p = schur.dim();
    if r.rows() != m || r.cols() != p {
        return Err(MorError::Invalid(format!(
            "right-hand side must be {m}x{p}, got {}x{}",
            r.rows(),
            r.cols()
        )));
    }

    let q = schur.q();
    let s = schur.t();
    // Transformed equation: Op X̃ + X̃ Sᵀ = R Q, with X = X̃ Qᵀ. Both R̃ and X̃
    // are held *transposed* (p × m) so that every per-column operation of the
    // back-substitution touches a contiguous row instead of a stride-p column.
    let rt_tilde = q.transpose().matmul(&r.transpose());
    let mut xt_tilde = Matrix::zeros(p, m);

    for block in schur.blocks().iter().rev() {
        let j = block.start;
        match block.size {
            1 => {
                let rhs = column_minus_coupling(&rt_tilde, &xt_tilde, s, j, j + 1);
                let col = op.solve_shifted(s[(j, j)], &rhs)?;
                xt_tilde.row_mut(j).copy_from_slice(col.as_slice());
            }
            2 => {
                let rhs_a = column_minus_coupling(&rt_tilde, &xt_tilde, s, j, j + 2);
                let rhs_b = column_minus_coupling(&rt_tilde, &xt_tilde, s, j + 1, j + 2);
                // Coupled 2-column equation: Op Xb + Xb M = [rhs_a rhs_b]
                // with M = (S block)ᵀ.
                let m00 = s[(j, j)];
                let m01 = s[(j + 1, j)];
                let m10 = s[(j, j + 1)];
                let m11 = s[(j + 1, j + 1)];
                let (col_a, col_b) =
                    solve_two_column_block(op, m00, m01, m10, m11, &rhs_a, &rhs_b)?;
                xt_tilde.row_mut(j).copy_from_slice(col_a.as_slice());
                xt_tilde.row_mut(j + 1).copy_from_slice(col_b.as_slice());
            }
            other => {
                return Err(MorError::Invalid(format!(
                    "unexpected schur block size {other}"
                )))
            }
        }
    }

    // X = X̃ Qᵀ = (Q X̃ᵀ)ᵀ.
    Ok(q.matmul(&xt_tilde).transpose())
}

/// `R̃[:, col] − Σ_{k ≥ from} S[col, k] · X̃[:, k]`, on the transposed storage
/// (columns are rows, so both operands are contiguous slices).
fn column_minus_coupling(
    rt_tilde: &Matrix,
    xt_tilde: &Matrix,
    s: &Matrix,
    col: usize,
    from: usize,
) -> Vector {
    let p = s.rows();
    let mut rhs = Vector::from_slice(rt_tilde.row(col));
    for k in from..p {
        let coef = s[(col, k)];
        if coef != 0.0 {
            let xrow = xt_tilde.row(k);
            for (r, &x) in rhs.as_mut_slice().iter_mut().zip(xrow.iter()) {
                *r -= coef * x;
            }
        }
    }
    rhs
}

/// The diagonalization `M = W Λ W⁻¹` of a 2×2 Schur block
/// `M = [[m00, m01], [m10, m11]]` that couples two columns of a
/// back-substitution: `Op X + X M = R` splits into the shifted solves
/// `(Op + λᵢ I) yᵢ = R wᵢ`, and `X = Y W⁻¹`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PairSplit {
    /// Real eigenvalues (rare after Schur standardization, but possible on
    /// the margin): the two shifts, their eigenvectors and `W⁻¹`.
    Real {
        shifts: [f64; 2],
        w: [(f64, f64); 2],
        inv: [[f64; 2]; 2],
    },
    /// A complex-conjugate pair `λ = mean ± i·nu`: one complex shift, its
    /// eigenvector `(w0, w1)` and the first row of `W⁻¹` for
    /// `W = [w, conj(w)]` — the columns of `X` are `2·Re(inv0ₚ · y)`.
    Complex {
        lambda: Complex,
        w: (Complex, Complex),
        inv0: (Complex, Complex),
    },
}

impl PairSplit {
    /// Diagonalizes `M`.
    ///
    /// # Errors
    ///
    /// [`MorError::Invalid`] for a defective block.
    pub(crate) fn new(m00: f64, m01: f64, m10: f64, m11: f64) -> Result<Self> {
        let mean = 0.5 * (m00 + m11);
        let disc = 0.25 * (m00 - m11) * (m00 - m11) + m01 * m10;
        if disc >= 0.0 {
            let sq = disc.sqrt();
            let l1 = mean + sq;
            let l2 = mean - sq;
            let w1 = real_eigenvector(m00, m01, m10, m11, l1);
            let w2 = real_eigenvector(m00, m01, m10, m11, l2);
            let det = w1.0 * w2.1 - w1.1 * w2.0;
            if det.abs() < 1e-14 {
                return Err(MorError::Invalid(
                    "defective 2x2 block in sylvester back-substitution".into(),
                ));
            }
            Ok(PairSplit::Real {
                shifts: [l1, l2],
                w: [w1, w2],
                inv: [[w2.1 / det, -w2.0 / det], [-w1.1 / det, w1.0 / det]],
            })
        } else {
            let nu = (-disc).sqrt();
            let lambda = Complex::new(mean, nu);
            // Eigenvector of M for λ (choose the better-conditioned expression).
            let (w0, w1): (Complex, Complex) = if m01.abs() >= m10.abs() {
                (Complex::from_real(m01), lambda - Complex::from_real(m00))
            } else {
                (lambda - Complex::from_real(m11), Complex::from_real(m10))
            };
            // W⁻¹ first row = [conj(w1), -conj(w0)] / det with
            // det = w0 conj(w1) − conj(w0) w1 (purely imaginary).
            let det = w0 * w1.conj() - w0.conj() * w1;
            if det.abs() < 1e-300 {
                return Err(MorError::Invalid(
                    "defective complex 2x2 block in sylvester back-substitution".into(),
                ));
            }
            Ok(PairSplit::Complex {
                lambda,
                w: (w0, w1),
                inv0: (w1.conj() / det, -w0.conj() / det),
            })
        }
    }
}

/// Solves the coupled two-column system `Op [x_a x_b] + [x_a x_b] M = [r_a r_b]`
/// for a 2×2 matrix `M = [[m00, m01], [m10, m11]]` by diagonalizing `M`.
fn solve_two_column_block(
    op: &dyn ShiftedSolve,
    m00: f64,
    m01: f64,
    m10: f64,
    m11: f64,
    r_a: &Vector,
    r_b: &Vector,
) -> Result<(Vector, Vector)> {
    match PairSplit::new(m00, m01, m10, m11)? {
        PairSplit::Real {
            shifts: [l1, l2],
            w: [w1, w2],
            inv,
        } => {
            // Y = X W, columns satisfy (Op + λ_i I) y_i = (R W)_i.
            let mut rw1 = r_a.scaled(w1.0);
            rw1.axpy(w1.1, r_b);
            let mut rw2 = r_a.scaled(w2.0);
            rw2.axpy(w2.1, r_b);
            let y1 = op.solve_shifted(l1, &rw1)?;
            let y2 = op.solve_shifted(l2, &rw2)?;
            // X = Y W⁻¹ with W = [w1 w2] (columns).
            let mut x_a = y1.scaled(inv[0][0]);
            x_a.axpy(inv[1][0], &y2);
            let mut x_b = y1.scaled(inv[0][1]);
            x_b.axpy(inv[1][1], &y2);
            Ok((x_a, x_b))
        }
        PairSplit::Complex {
            lambda,
            w: (w0, w1),
            inv0: (inv00, inv01),
        } => {
            // Complex right-hand side (R W)_1 = w0 r_a + w1 r_b.
            let mut rhs_re = r_a.scaled(w0.re);
            rhs_re.axpy(w1.re, r_b);
            let mut rhs_im = r_a.scaled(w0.im);
            rhs_im.axpy(w1.im, r_b);
            let (y_re, y_im) = op.solve_shifted_complex(lambda, &rhs_re, &rhs_im)?;
            // X columns are 2·Re(inv0p · y).
            let combine = |c: Complex| {
                let mut out = y_re.scaled(2.0 * c.re);
                out.axpy(-2.0 * c.im, &y_im);
                out
            };
            Ok((combine(inv00), combine(inv01)))
        }
    }
}

fn real_eigenvector(m00: f64, m01: f64, m10: f64, m11: f64, lambda: f64) -> (f64, f64) {
    if m01.abs() + (m00 - lambda).abs() >= m10.abs() + (m11 - lambda).abs() {
        (m01, lambda - m00)
    } else {
        (lambda - m11, m10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::KronSumOp2;
    use vamor_linalg::{kron_sum, solve_sylvester};

    /// `Op · X + X · B = R` through a locally built Schur form of `Bᵀ`.
    fn solve_big_small(op: &dyn ShiftedSolve, b: &Matrix, r: &Matrix) -> Result<Matrix> {
        let schur = SchurDecomposition::new(&b.transpose()).map_err(MorError::Linalg)?;
        solve_sylvester_big_small_with_schur(op, &schur, r)
    }

    fn stable(n: usize, seed: u64) -> Matrix {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let mut m = Matrix::from_fn(n, n, |_, _| next());
        for i in 0..n {
            m[(i, i)] -= 2.0 + 0.3 * i as f64;
        }
        m
    }

    #[test]
    fn matches_dense_bartels_stewart_real_spectrum() {
        let a = stable(3, 7);
        let op = KronSumOp2::new(&a).unwrap();
        // B with real, well-separated eigenvalues.
        let b =
            Matrix::from_rows(&[&[-1.0, 0.4, 0.0], &[0.0, -2.5, 0.1], &[0.0, 0.0, -4.0]]).unwrap();
        let r = Matrix::from_fn(9, 3, |i, j| ((i + 1) * (j + 2)) as f64 / 5.0);
        let x = solve_big_small(&op, &b, &r).unwrap();
        let dense_op = kron_sum(&a, &a);
        let x_ref = solve_sylvester(&dense_op, &b, &r).unwrap();
        assert!(
            (&x - &x_ref).max_abs() < 1e-8,
            "difference {}",
            (&x - &x_ref).max_abs()
        );
    }

    #[test]
    fn matches_dense_bartels_stewart_complex_spectrum() {
        let a = stable(3, 11);
        let op = KronSumOp2::new(&a).unwrap();
        // B with a complex-conjugate pair (-1 ± 2i) and a real eigenvalue.
        let b =
            Matrix::from_rows(&[&[-1.0, 2.0, 0.3], &[-2.0, -1.0, 0.5], &[0.0, 0.0, -3.0]]).unwrap();
        let r = Matrix::from_fn(9, 3, |i, j| (i as f64 - j as f64) * 0.3 + 1.0);
        let x = solve_big_small(&op, &b, &r).unwrap();
        let dense_op = kron_sum(&a, &a);
        let x_ref = solve_sylvester(&dense_op, &b, &r).unwrap();
        assert!(
            (&x - &x_ref).max_abs() < 1e-8,
            "difference {}",
            (&x - &x_ref).max_abs()
        );
    }

    #[test]
    fn residual_check_on_larger_right_coefficient() {
        let a = stable(4, 19);
        let op = KronSumOp2::new(&a).unwrap();
        let b = {
            let mut b = stable(5, 23);
            // Introduce a rotation block to force complex eigenvalues.
            b[(0, 1)] += 2.0;
            b[(1, 0)] -= 2.0;
            b
        };
        let r = Matrix::from_fn(16, 5, |i, j| ((i * 3 + j * 7) % 11) as f64 - 5.0);
        let x = solve_big_small(&op, &b, &r).unwrap();
        // Residual via structured apply.
        let mut residual: f64 = 0.0;
        let xb = x.matmul(&b);
        for j in 0..5 {
            let col = x.col(j);
            let op_col = op.apply(&col);
            for i in 0..16 {
                residual = residual.max((op_col[i] + xb[(i, j)] - r[(i, j)]).abs());
            }
        }
        assert!(residual < 1e-8, "residual {residual}");
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = stable(2, 3);
        let op = KronSumOp2::new(&a).unwrap();
        let b = stable(3, 4);
        assert!(solve_big_small(&op, &Matrix::zeros(2, 3), &Matrix::zeros(4, 2)).is_err());
        assert!(solve_big_small(&op, &b, &Matrix::zeros(4, 2)).is_err());
    }
}
