//! Polynomial (quadratic-linear, optionally cubic) state-space systems.

use std::sync::OnceLock;

use vamor_linalg::{CooMatrix, CsrMatrix, Matrix, Vector};

use crate::error::SystemError;
use crate::lti::LtiSystem;
use crate::traits::PolynomialStateSpace;
use crate::Result;

/// The polynomial form of the DAC 2012 paper — the quadratic-linear QLDAE of
/// Eq. 2 with the optional cubic term of §3.4:
///
/// ```text
/// ẋ = G₁ x + G₂ (x ⊗ x) + G₃ (x ⊗ x ⊗ x) + Σ_k D₁ᵏ x u_k + B u,     y = C x,
/// ```
///
/// with `x ∈ ℝⁿ`, `u ∈ ℝᵐ`, `y ∈ ℝᵖ`. `G₂` has shape `n × n²` and is stored
/// sparsely (an all-zero `G₂` means no quadratic term); the optional bilinear
/// input matrices `D₁ᵏ` (one per input) are sparse `n × n`; the optional
/// cubic coupling `G₃` (`n × n³`, sparse) is attached with
/// [`Qldae::with_g3`]. The varistor of §3.4 is the case `G₂ = 0`. An absent
/// term costs no allocation and no flop in the right-hand side and the
/// Jacobians.
///
/// A regular descriptor matrix `E` (`E ẋ = …`) can be folded in with
/// [`Qldae::from_descriptor`], mirroring the paper's assumption of an
/// invertible `C` matrix in Eq. (1).
///
/// `G₁` is stored **sparsely** (circuit MNA stamps are ~tridiagonal, and the
/// dense `n × n` matrix of a 10⁴-state line would not even fit in memory);
/// the dense view needed by the dense reduction machinery (Schur forms,
/// Lyapunov weights) is materialized lazily on first use of [`Qldae::g1`]
/// and cached, so purely sparse consumers (the implicit transient at scale)
/// never pay for it.
#[derive(Debug, Clone)]
pub struct Qldae {
    g1: CsrMatrix,
    g1_dense: OnceLock<Matrix>,
    g2: CsrMatrix,
    g3: Option<CsrMatrix>,
    d1: Vec<CsrMatrix>,
    b: Matrix,
    c: Matrix,
}

impl Qldae {
    /// Creates a QLDAE system from a dense `G₁`, validating all shapes.
    ///
    /// `d1` must either be empty (no bilinear term) or contain exactly one
    /// `n × n` matrix per input column of `b`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Dimension`] on any shape mismatch and
    /// [`SystemError::Invalid`] for an empty state space.
    pub fn new(
        g1: Matrix,
        g2: CsrMatrix,
        d1: Vec<CsrMatrix>,
        b: Matrix,
        c: Matrix,
    ) -> Result<Self> {
        if !g1.is_square() {
            return Err(SystemError::Dimension(format!(
                "G1 must be square, got {}x{}",
                g1.rows(),
                g1.cols()
            )));
        }
        let g1_csr = CsrMatrix::from_dense(&g1, 0.0);
        let dense = OnceLock::new();
        let _ = dense.set(g1);
        Self::from_parts(g1_csr, dense, g2, d1, b, c)
    }

    /// Creates a QLDAE system from a sparse `G₁` stamp. The dense view is
    /// only materialized if a consumer asks for it via [`Qldae::g1`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Qldae::new`].
    pub fn new_sparse(
        g1: CsrMatrix,
        g2: CsrMatrix,
        d1: Vec<CsrMatrix>,
        b: Matrix,
        c: Matrix,
    ) -> Result<Self> {
        Self::from_parts(g1, OnceLock::new(), g2, d1, b, c)
    }

    fn from_parts(
        g1: CsrMatrix,
        g1_dense: OnceLock<Matrix>,
        g2: CsrMatrix,
        d1: Vec<CsrMatrix>,
        b: Matrix,
        c: Matrix,
    ) -> Result<Self> {
        if g1.rows() != g1.cols() {
            return Err(SystemError::Dimension(format!(
                "G1 must be square, got {}x{}",
                g1.rows(),
                g1.cols()
            )));
        }
        let n = g1.rows();
        if n == 0 {
            return Err(SystemError::Invalid(
                "QLDAE must have at least one state".into(),
            ));
        }
        if g2.rows() != n || g2.cols() != n * n {
            return Err(SystemError::Dimension(format!(
                "G2 must be {n}x{}, got {}x{}",
                n * n,
                g2.rows(),
                g2.cols()
            )));
        }
        if b.rows() != n {
            return Err(SystemError::Dimension(format!(
                "B has {} rows, expected {n}",
                b.rows()
            )));
        }
        if c.cols() != n {
            return Err(SystemError::Dimension(format!(
                "C has {} columns, expected {n}",
                c.cols()
            )));
        }
        if !d1.is_empty() && d1.len() != b.cols() {
            return Err(SystemError::Dimension(format!(
                "expected one D1 matrix per input ({}), got {}",
                b.cols(),
                d1.len()
            )));
        }
        for (k, dk) in d1.iter().enumerate() {
            if dk.rows() != n || dk.cols() != n {
                return Err(SystemError::Dimension(format!(
                    "D1[{k}] must be {n}x{n}, got {}x{}",
                    dk.rows(),
                    dk.cols()
                )));
            }
        }
        Ok(Qldae {
            g1,
            g1_dense,
            g2,
            g3: None,
            d1,
            b,
            c,
        })
    }

    /// Attaches the cubic coupling `G₃` (`n × n³`, sparse; column
    /// `p·n² + q·n + r` holds the coefficient of `x_p x_q x_r`). A `G₃`
    /// without a nonzero entry leaves the system without a cubic term.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Dimension`] when `G₃` is not `n × n³`.
    pub fn with_g3(mut self, g3: CsrMatrix) -> Result<Self> {
        let n = self.order();
        if g3.rows() != n || g3.cols() != n * n * n {
            return Err(SystemError::Dimension(format!(
                "G3 must be {n}x{}, got {}x{}",
                n * n * n,
                g3.rows(),
                g3.cols()
            )));
        }
        self.g3 = (g3.nnz() > 0).then_some(g3);
        Ok(self)
    }

    /// Builds a QLDAE from descriptor form `E ẋ = G₁ x + …` by folding the
    /// inverse of a *regular* (invertible) `E` into all coefficient matrices,
    /// as the paper does to go from Eq. (1) to Eq. (2).
    ///
    /// # Errors
    ///
    /// Returns an error if `E` is singular or the shapes mismatch.
    pub fn from_descriptor(
        e: &Matrix,
        g1: &Matrix,
        g2: &CsrMatrix,
        d1: &[CsrMatrix],
        b: &Matrix,
        c: &Matrix,
    ) -> Result<Self> {
        if !e.is_square() || e.rows() != g1.rows() {
            return Err(SystemError::Dimension(format!(
                "descriptor E must be square of order {}, got {}x{}",
                g1.rows(),
                e.rows(),
                e.cols()
            )));
        }
        let lu = e.lu().map_err(|err| match err {
            vamor_linalg::LinalgError::Singular(_) => SystemError::Invalid(
                "descriptor matrix E is singular; extract the regular part first".into(),
            ),
            other => SystemError::Linalg(other),
        })?;
        let n = g1.rows();
        let g1_new = lu.solve_matrix(g1)?;
        let b_new = lu.solve_matrix(b)?;
        // E⁻¹ applied to the sparse G2 / D1 columns: scatter through dense solves
        // on the (few) nonzero columns.
        let g2_new = apply_inverse_to_sparse(&lu, g2, n)?;
        let mut d1_new = Vec::with_capacity(d1.len());
        for dk in d1 {
            d1_new.push(apply_inverse_to_sparse(&lu, dk, n)?);
        }
        Qldae::new(g1_new, g2_new, d1_new, b_new, c.clone())
    }

    /// The linear state matrix `G₁` as a dense matrix, materialized from the
    /// sparse stamp on first use and cached. The dense reduction machinery
    /// (Schur, Lyapunov weights) goes through this; `O(n²)` memory, so avoid
    /// it for very large systems — the transient solvers use
    /// [`Qldae::g1_csr`] instead.
    pub fn g1(&self) -> &Matrix {
        self.g1_dense.get_or_init(|| self.g1.to_dense())
    }

    /// The linear state matrix `G₁` as the sparse stamp it was built from.
    pub fn g1_csr(&self) -> &CsrMatrix {
        &self.g1
    }

    /// The quadratic coupling matrix `G₂` (`n × n²`, sparse; no nonzero
    /// entry when the system has no quadratic term).
    pub fn g2(&self) -> &CsrMatrix {
        &self.g2
    }

    /// The cubic coupling matrix `G₃` (`n × n³`, sparse), if the system has
    /// a cubic term.
    pub fn g3(&self) -> Option<&CsrMatrix> {
        self.g3.as_ref()
    }

    /// The bilinear input matrices `D₁ᵏ` (empty slice if absent).
    pub fn d1(&self) -> &[CsrMatrix] {
        &self.d1
    }

    /// The input matrix `B` (`n × m`).
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// The output matrix `C` (`p × n`).
    pub fn c(&self) -> &Matrix {
        &self.c
    }

    /// Column `k` of the input matrix as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.num_inputs()`.
    pub fn input_column(&self, k: usize) -> Vector {
        self.b.col(k)
    }

    /// True if the system has a (nonzero) bilinear `D₁` term.
    pub fn has_d1(&self) -> bool {
        self.d1.iter().any(|d| d.nnz() > 0)
    }

    /// True if the system has a second-order part — a nonzero `G₂` or a
    /// bilinear `D₁` term — and hence a nonzero `H₂`.
    pub fn has_quadratic(&self) -> bool {
        self.g2.nnz() > 0 || self.has_d1()
    }

    /// Evaluates the quadratic term `G₂ (x ⊗ x)` without forming `x ⊗ x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.order()`.
    pub fn quadratic_term(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.order(), "quadratic_term: dimension mismatch");
        self.g2.matvec_kron(x, x)
    }

    /// Evaluates `G₃ (x ⊗ x ⊗ x)` without forming the Kronecker cube.
    fn cubic_term(g3: &CsrMatrix, x: &Vector) -> Vector {
        let n = x.len();
        let mut out = Vector::zeros(n);
        for (i, col, g) in g3.iter() {
            let p = col / (n * n);
            let q = (col / n) % n;
            let r = col % n;
            out[i] += g * x[p] * x[q] * x[r];
        }
        out
    }

    /// The linearization around the origin as an [`LtiSystem`]
    /// (`A = G₁`, same `B` and `C`).
    ///
    /// # Errors
    ///
    /// Propagates construction errors (which cannot occur for a valid QLDAE).
    pub fn linearized(&self) -> Result<LtiSystem> {
        LtiSystem::new(self.g1().clone(), self.b.clone(), self.c.clone())
    }
}

fn apply_inverse_to_sparse(
    lu: &vamor_linalg::LuDecomposition,
    m: &CsrMatrix,
    n: usize,
) -> Result<CsrMatrix> {
    // Collect the set of columns that actually hold nonzeros, solve E x = col
    // for each, and rebuild the sparse matrix.
    let mut coo = vamor_linalg::CooMatrix::new(m.rows(), m.cols());
    let mut touched: Vec<usize> = m.iter().map(|(_, c, _)| c).collect();
    touched.sort_unstable();
    touched.dedup();
    for col in touched {
        let mut dense_col = Vector::zeros(n);
        for (r, c, v) in m.iter() {
            if c == col {
                dense_col[r] += v;
            }
        }
        let solved = lu.solve(&dense_col)?;
        for r in 0..n {
            if solved[r] != 0.0 {
                coo.push(r, col, solved[r]);
            }
        }
    }
    Ok(coo.into_csr())
}

impl PolynomialStateSpace for Qldae {
    fn order(&self) -> usize {
        self.g1.rows()
    }

    fn num_inputs(&self) -> usize {
        self.b.cols()
    }

    fn num_outputs(&self) -> usize {
        self.c.rows()
    }

    fn rhs(&self, x: &Vector, u: &[f64]) -> Vector {
        assert_eq!(x.len(), self.order(), "qldae rhs: state dimension mismatch");
        assert_eq!(
            u.len(),
            self.num_inputs(),
            "qldae rhs: input dimension mismatch"
        );
        let mut dx = self.g1.matvec(x);
        if self.g2.nnz() > 0 {
            dx.axpy(1.0, &self.quadratic_term(x));
        }
        if let Some(g3) = &self.g3 {
            dx.axpy(1.0, &Self::cubic_term(g3, x));
        }
        for (k, &uk) in u.iter().enumerate() {
            if uk != 0.0 {
                dx.axpy(uk, &self.b.col(k));
                if let Some(dk) = self.d1.get(k) {
                    dx.axpy(uk, &dk.matvec(x));
                }
            }
        }
        dx
    }

    fn jacobian_x(&self, x: &Vector, u: &[f64]) -> Matrix {
        assert_eq!(
            x.len(),
            self.order(),
            "qldae jacobian: state dimension mismatch"
        );
        assert_eq!(
            u.len(),
            self.num_inputs(),
            "qldae jacobian: input dimension mismatch"
        );
        let n = self.order();
        let mut jac = Matrix::zeros(n, n);
        for (i, j, v) in self.g1.iter() {
            jac[(i, j)] += v;
        }
        // d/dx_j [G2 (x⊗x)]_i = Σ_{(i, p*n+q)} g * (δ_{pj} x_q + x_p δ_{qj}).
        for (i, col, g) in self.g2.iter() {
            let p = col / n;
            let q = col % n;
            jac[(i, p)] += g * x[q];
            jac[(i, q)] += g * x[p];
        }
        for (i, col, g) in self.g3.iter().flat_map(CsrMatrix::iter) {
            let p = col / (n * n);
            let q = (col / n) % n;
            let r = col % n;
            jac[(i, p)] += g * x[q] * x[r];
            jac[(i, q)] += g * x[p] * x[r];
            jac[(i, r)] += g * x[p] * x[q];
        }
        for (k, &uk) in u.iter().enumerate() {
            if uk != 0.0 {
                if let Some(dk) = self.d1.get(k) {
                    for (i, j, v) in dk.iter() {
                        jac[(i, j)] += uk * v;
                    }
                }
            }
        }
        jac
    }

    fn jacobian_csr(&self, x: &Vector, u: &[f64]) -> Option<CsrMatrix> {
        assert_eq!(
            x.len(),
            self.order(),
            "qldae jacobian: state dimension mismatch"
        );
        assert_eq!(
            u.len(),
            self.num_inputs(),
            "qldae jacobian: input dimension mismatch"
        );
        let n = self.order();
        let mut coo = CooMatrix::new(n, n);
        for (i, j, v) in self.g1.iter() {
            coo.push(i, j, v);
        }
        for (i, col, g) in self.g2.iter() {
            let p = col / n;
            let q = col % n;
            coo.push(i, p, g * x[q]);
            coo.push(i, q, g * x[p]);
        }
        for (i, col, g) in self.g3.iter().flat_map(CsrMatrix::iter) {
            let p = col / (n * n);
            let q = (col / n) % n;
            let r = col % n;
            coo.push(i, p, g * x[q] * x[r]);
            coo.push(i, q, g * x[p] * x[r]);
            coo.push(i, r, g * x[p] * x[q]);
        }
        for (k, &uk) in u.iter().enumerate() {
            if uk != 0.0 {
                if let Some(dk) = self.d1.get(k) {
                    for (i, j, v) in dk.iter() {
                        coo.push(i, j, uk * v);
                    }
                }
            }
        }
        Some(coo.into_csr())
    }

    fn output(&self, x: &Vector) -> Vector {
        self.c.matvec(x)
    }
}

/// Builder for [`Qldae`] systems assembled piece by piece (used by the
/// circuit generators).
///
/// ```
/// use vamor_linalg::Matrix;
/// use vamor_system::QldaeBuilder;
/// # fn main() -> Result<(), vamor_system::SystemError> {
/// let qldae = QldaeBuilder::new(2, 1)
///     .g1_entry(0, 0, -1.0)
///     .g1_entry(1, 1, -2.0)
///     .g2_entry(0, 1, 1, 0.25)
///     .b_entry(0, 0, 1.0)
///     .output_state(0)
///     .build()?;
/// assert_eq!(qldae.g1()[(1, 1)], -2.0);
/// assert_eq!(qldae.g2().get(0, 1 * 2 + 1), 0.25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QldaeBuilder {
    n: usize,
    m: usize,
    g1: CooMatrix,
    g2: CooMatrix,
    d1: Vec<CooMatrix>,
    b: Matrix,
    c_rows: Vec<Vector>,
}

impl QldaeBuilder {
    /// Starts a builder for an `n`-state, `m`-input system. All coefficient
    /// stamps accumulate sparsely, so building a 10⁴-state circuit never
    /// allocates an `n × n` dense matrix.
    pub fn new(n: usize, m: usize) -> Self {
        QldaeBuilder {
            n,
            m,
            g1: CooMatrix::new(n, n),
            g2: CooMatrix::new(n, n * n),
            d1: vec![CooMatrix::new(n, n); m],
            b: Matrix::zeros(n, m),
            c_rows: Vec::new(),
        }
    }

    /// Adds `value` to `G₁[row, col]`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn g1_entry(mut self, row: usize, col: usize, value: f64) -> Self {
        self.g1.push(row, col, value);
        self
    }

    /// Adds `value` to the coefficient of `x_p · x_q` in equation `row`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn g2_entry(mut self, row: usize, p: usize, q: usize, value: f64) -> Self {
        assert!(
            p < self.n && q < self.n,
            "g2_entry: state index out of range"
        );
        self.g2.push(row, p * self.n + q, value);
        self
    }

    /// Adds `value` to the coefficient of `x_col · u_input` in equation `row`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn d1_entry(mut self, input: usize, row: usize, col: usize, value: f64) -> Self {
        self.d1[input].push(row, col, value);
        self
    }

    /// Adds `value` to `B[row, input]`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn b_entry(mut self, row: usize, input: usize, value: f64) -> Self {
        self.b[(row, input)] += value;
        self
    }

    /// Appends an output row selecting the single state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn output_state(mut self, index: usize) -> Self {
        self.c_rows.push(Vector::unit(self.n, index));
        self
    }

    /// Appends an arbitrary output row.
    ///
    /// # Panics
    ///
    /// Panics if the row has the wrong length.
    pub fn output_row(mut self, row: Vector) -> Self {
        assert_eq!(row.len(), self.n, "output_row: wrong length");
        self.c_rows.push(row);
        self
    }

    /// Finalizes the system. The bilinear matrices are dropped entirely when
    /// none of them received an entry.
    ///
    /// # Errors
    ///
    /// Returns the underlying construction error (e.g. when no output row was
    /// added).
    pub fn build(self) -> Result<Qldae> {
        if self.c_rows.is_empty() {
            return Err(SystemError::Invalid(
                "QLDAE builder: at least one output is required".into(),
            ));
        }
        let c = Matrix::from_columns(&self.c_rows)?.transpose();
        let d1_csr: Vec<CsrMatrix> = self.d1.into_iter().map(|c| c.into_csr()).collect();
        let d1 = if d1_csr.iter().all(|d| d.nnz() == 0) {
            Vec::new()
        } else {
            d1_csr
        };
        let _ = self.m;
        Qldae::new_sparse(self.g1.into_csr(), self.g2.into_csr(), d1, self.b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamor_linalg::CooMatrix;

    fn toy() -> Qldae {
        // x1' = -x1 + 0.3 x1 x2 + u + 0.1 x2 u
        // x2' = -2 x2 + 0.5 x1^2
        // y = x2
        QldaeBuilder::new(2, 1)
            .g1_entry(0, 0, -1.0)
            .g1_entry(1, 1, -2.0)
            .g2_entry(0, 0, 1, 0.3)
            .g2_entry(1, 0, 0, 0.5)
            .d1_entry(0, 0, 1, 0.1)
            .b_entry(0, 0, 1.0)
            .output_state(1)
            .build()
            .unwrap()
    }

    #[test]
    fn rhs_matches_hand_computation() {
        let q = toy();
        let x = Vector::from_slice(&[2.0, 3.0]);
        let dx = q.rhs(&x, &[4.0]);
        // x1' = -2 + 0.3*2*3 + 4 + 0.1*3*4 = -2 + 1.8 + 4 + 1.2 = 5.0
        // x2' = -6 + 0.5*4 = -4
        assert!((dx[0] - 5.0).abs() < 1e-14);
        assert!((dx[1] + 4.0).abs() < 1e-14);
        assert_eq!(q.output(&x).as_slice(), &[3.0]);
        assert!(q.has_d1());
        assert!(q.g3().is_none());
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let q = toy();
        let x = Vector::from_slice(&[0.7, -1.3]);
        let u = [0.4];
        let jac = q.jacobian_x(&x, &u);
        let h = 1e-6;
        for j in 0..2 {
            let mut xp = x.clone();
            xp[j] += h;
            let mut xm = x.clone();
            xm[j] -= h;
            let df = &q.rhs(&xp, &u) - &q.rhs(&xm, &u);
            for i in 0..2 {
                let fd = df[i] / (2.0 * h);
                assert!(
                    (jac[(i, j)] - fd).abs() < 1e-6,
                    "jac[{i},{j}] = {} vs fd {}",
                    jac[(i, j)],
                    fd
                );
            }
        }
    }

    #[test]
    fn sparse_jacobian_matches_dense_jacobian() {
        let q = toy();
        let x = Vector::from_slice(&[0.7, -1.3]);
        let u = [0.4];
        let sparse = q.jacobian_csr(&x, &u).expect("qldae provides CSR stamps");
        let dense = q.jacobian_x(&x, &u);
        assert!((&sparse.to_dense() - &dense).max_abs() < 1e-14);
        // The sparse stamp is available without ever materializing G₁ densely.
        let sq = Qldae::new_sparse(
            q.g1_csr().clone(),
            q.g2().clone(),
            q.d1().to_vec(),
            q.b().clone(),
            q.c().clone(),
        )
        .unwrap();
        assert!((&sq.rhs(&x, &u) - &q.rhs(&x, &u)).norm_inf() < 1e-14);
        assert!((sq.g1() - q.g1()).max_abs() < 1e-14);
    }

    #[test]
    fn shape_validation_errors() {
        let g1 = Matrix::identity(2);
        let g2_bad = CooMatrix::new(2, 3).to_csr();
        assert!(Qldae::new(
            g1.clone(),
            g2_bad,
            Vec::new(),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2)
        )
        .is_err());
        let g2 = CooMatrix::new(2, 4).to_csr();
        assert!(Qldae::new(
            g1.clone(),
            g2.clone(),
            vec![CooMatrix::new(3, 3).to_csr()],
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2)
        )
        .is_err());
        assert!(Qldae::new(g1, g2, Vec::new(), Matrix::zeros(3, 1), Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn descriptor_fold_in_matches_scaled_system() {
        // E = diag(2, 4): folding E⁻¹ must halve / quarter the rows.
        let e = Matrix::from_diagonal(&[2.0, 4.0]);
        let g1 = Matrix::from_rows(&[&[-2.0, 0.0], &[0.0, -8.0]]).unwrap();
        let mut g2 = CooMatrix::new(2, 4);
        g2.push(1, 0, 4.0);
        let b = Matrix::from_rows(&[&[2.0], &[0.0]]).unwrap();
        let c = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        let q = Qldae::from_descriptor(&e, &g1, &g2.to_csr(), &[], &b, &c).unwrap();
        assert!((q.g1()[(0, 0)] + 1.0).abs() < 1e-14);
        assert!((q.g1()[(1, 1)] + 2.0).abs() < 1e-14);
        assert!((q.g2().get(1, 0) - 1.0).abs() < 1e-14);
        assert!((q.b()[(0, 0)] - 1.0).abs() < 1e-14);
        // Singular descriptors are rejected.
        let singular = Matrix::from_diagonal(&[1.0, 0.0]);
        assert!(Qldae::from_descriptor(
            &singular,
            &g1,
            &CooMatrix::new(2, 4).to_csr(),
            &[],
            &b,
            &c
        )
        .is_err());
    }

    #[test]
    fn linearization_drops_nonlinear_terms() {
        let q = toy();
        let lti = q.linearized().unwrap();
        assert_eq!(lti.a(), q.g1());
        assert!(lti.is_stable().unwrap());
    }

    #[test]
    fn builder_without_output_fails() {
        assert!(QldaeBuilder::new(1, 1)
            .g1_entry(0, 0, -1.0)
            .build()
            .is_err());
    }

    #[test]
    fn builder_drops_empty_d1() {
        let q = QldaeBuilder::new(1, 1)
            .g1_entry(0, 0, -1.0)
            .b_entry(0, 0, 1.0)
            .output_state(0)
            .build()
            .unwrap();
        assert!(!q.has_d1());
        assert!(q.d1().is_empty());
    }
}
