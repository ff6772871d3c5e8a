//! Polynomial (quadratic-linear, optionally cubic) state-space systems.

use std::sync::OnceLock;

use vamor_linalg::{Complex, CooMatrix, CsrMatrix, Matrix, Vector, ZVector};

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
///
/// The time-domain evaluation ([`PolynomialStateSpace::rhs`] and both
/// Jacobians) reads `G₂` and `G₃` in a *symmetric-packed* form when that is
/// no larger than their CSR: one dense `n`-vector per monomial — `M₂ =
/// n(n+1)/2` rows, row `(p ≤ q)` holding `G₂[:, pn+q] + G₂[:, qn+p]`, and
/// `M₃ = n(n+1)(n+2)/6` rows, row `(p ≤ q ≤ r)` holding the sum of every
/// distinct permutation's `G₃` column. Each monomial is then formed once
/// and added as one contiguous axpy. A coupling is packed exactly when
/// `n·M ≤ nnz`, which the dense couplings of a projected ROM meet and the
/// sparse stamps of a circuit do not, so full models keep the CSR
/// evaluation. The packed form is built lazily on first evaluation;
/// [`Qldae::g2`] and [`Qldae::g3`] always return the CSR.
#[derive(Debug, Clone)]
pub struct Qldae {
    g1: CsrMatrix,
    g1_dense: OnceLock<Matrix>,
    g2: CsrMatrix,
    g3: Option<CsrMatrix>,
    packed: OnceLock<PackedCouplings>,
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
            packed: OnceLock::new(),
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
        self.packed = OnceLock::new();
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

    /// Adds `G₂ (a ⊗ b + b ⊗ a)` into `out` for complex `a`, `b` — the
    /// quadratic coupling of the Volterra transfer functions. A packed `G₂`
    /// forms each monomial's symmetric coefficient `a_p b_q + a_q b_p` once
    /// and adds its row with one complex axpy; a CSR `G₂` applies the
    /// structured real kernel to the real/imaginary parts, `a ⊗ b` first,
    /// then `b ⊗ a`, each added into `out` as it is formed.
    ///
    /// # Panics
    ///
    /// Panics if a vector's length is not [`PolynomialStateSpace::order`].
    pub fn symmetric_quadratic(&self, a: &ZVector, b: &ZVector, out: &mut ZVector) {
        let n = self.order();
        assert!(
            a.len() == n && b.len() == n && out.len() == n,
            "symmetric_quadratic: dimension mismatch"
        );
        match &self.packed().g2 {
            Some(rows) => {
                let (a, b) = (a.as_slice(), b.as_slice());
                for ((p, q), row) in pairs(n).zip(rows.chunks_exact(n)) {
                    zaxpy_row(a[p] * b[q] + a[q] * b[p], row, out.as_mut_slice());
                }
            }
            None if self.g2.nnz() > 0 => {
                out.axpy(Complex::ONE, &kron_complex(&self.g2, a, b));
                out.axpy(Complex::ONE, &kron_complex(&self.g2, b, a));
            }
            None => {}
        }
    }

    /// Adds `G₃ Σ_σ (x_σ₁ ⊗ x_σ₂ ⊗ x_σ₃)` into `out`, the sum over the six
    /// orderings of `(x₁, x₂, x₃) = (a, b, c)` — the cubic coupling of the
    /// Volterra transfer functions. A packed `G₃` forms each monomial's
    /// symmetric coefficient once and adds its row with one complex axpy; a
    /// CSR `G₃` applies the structured real triple-Kronecker kernel to the
    /// real/imaginary parts of each ordering in turn, `a ⊗ b ⊗ c` first,
    /// each added into `out` as it is formed. A system without a `G₃` adds
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if a vector's length is not [`PolynomialStateSpace::order`].
    pub fn symmetric_cubic(&self, a: &ZVector, b: &ZVector, c: &ZVector, out: &mut ZVector) {
        let n = self.order();
        assert!(
            a.len() == n && b.len() == n && c.len() == n && out.len() == n,
            "symmetric_cubic: dimension mismatch"
        );
        match (&self.packed().g3, &self.g3) {
            (Some(rows), _) => {
                let (a, b, c) = (a.as_slice(), b.as_slice(), c.as_slice());
                for ((p, q, r), row) in triples(n).zip(rows.chunks_exact(n)) {
                    let coefficient = a[p] * (b[q] * c[r] + b[r] * c[q])
                        + a[q] * (b[p] * c[r] + b[r] * c[p])
                        + a[r] * (b[p] * c[q] + b[q] * c[p]);
                    zaxpy_row(coefficient, row, out.as_mut_slice());
                }
            }
            (None, Some(g3)) => {
                for (x, y, z) in [
                    (a, b, c),
                    (a, c, b),
                    (b, a, c),
                    (b, c, a),
                    (c, a, b),
                    (c, b, a),
                ] {
                    out.axpy(Complex::ONE, &kron3_complex(g3, x, y, z));
                }
            }
            (None, None) => {}
        }
    }

    /// The symmetric-packed couplings, built on first use.
    fn packed(&self) -> &PackedCouplings {
        self.packed
            .get_or_init(|| PackedCouplings::new(&self.g2, self.g3.as_ref(), self.order()))
    }

    /// Accumulates `G₂ (x ⊗ x) + G₃ (x ⊗ x ⊗ x)` into `out`, each coupling
    /// from its packed form when it has one and from its CSR otherwise.
    fn polynomial_terms_into(&self, x: &Vector, out: &mut Vector) {
        let packed = self.packed();
        match &packed.g2 {
            Some(rows) => packed_quadratic_into(rows, x.as_slice(), out.as_mut_slice()),
            None if self.g2.nnz() > 0 => self.g2.matvec_kron_add_into(x, x, out),
            None => {}
        }
        match (&packed.g3, &self.g3) {
            (Some(rows), _) => packed_cubic_into(rows, x.as_slice(), out.as_mut_slice()),
            (None, Some(g3)) => g3.matvec_kron3_add_into(x, x, x, out),
            (None, None) => {}
        }
    }

    /// Calls `add(i, j, v)` for every contribution `v` to `∂f/∂x[i, j]` at
    /// `(x, u)`: the `G₁` stamp, then the `G₂`, `G₃` (packed or CSR) and
    /// `D₁` terms. One entry may be reported several times; the caller sums.
    fn for_each_jacobian_entry(
        &self,
        x: &Vector,
        u: &[f64],
        mut add: impl FnMut(usize, usize, f64),
    ) {
        let n = self.order();
        for (i, j, v) in self.g1.iter() {
            add(i, j, v);
        }
        let packed = self.packed();
        // d/dx_j [G₂ (x⊗x)]_i = Σ_{(i, p*n+q)} g * (δ_{pj} x_q + x_p δ_{qj});
        // a packed row (p ≤ q) contributes the same two terms.
        match &packed.g2 {
            Some(rows) => {
                for ((p, q), row) in pairs(n).zip(rows.chunks_exact(n)) {
                    for (i, &g) in row.iter().enumerate() {
                        add(i, p, g * x[q]);
                        add(i, q, g * x[p]);
                    }
                }
            }
            None => {
                for (i, col, g) in self.g2.iter() {
                    let (p, q) = (col / n, col % n);
                    add(i, p, g * x[q]);
                    add(i, q, g * x[p]);
                }
            }
        }
        match &packed.g3 {
            Some(rows) => {
                for ((p, q, r), row) in triples(n).zip(rows.chunks_exact(n)) {
                    for (i, &g) in row.iter().enumerate() {
                        add(i, p, g * x[q] * x[r]);
                        add(i, q, g * x[p] * x[r]);
                        add(i, r, g * x[p] * x[q]);
                    }
                }
            }
            None => {
                for (i, col, g) in self.g3.iter().flat_map(CsrMatrix::iter) {
                    let (p, q, r) = (col / (n * n), (col / n) % n, col % n);
                    add(i, p, g * x[q] * x[r]);
                    add(i, q, g * x[p] * x[r]);
                    add(i, r, g * x[p] * x[q]);
                }
            }
        }
        for (k, &uk) in u.iter().enumerate() {
            if uk != 0.0 {
                if let Some(dk) = self.d1.get(k) {
                    for (i, j, v) in dk.iter() {
                        add(i, j, uk * v);
                    }
                }
            }
        }
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

/// The symmetric-packed time-domain form of `G₂` and `G₃` (see [`Qldae`]):
/// row-major, one `n`-row per monomial in lexicographic order of its sorted
/// indices. `None` means the coupling is evaluated from its CSR.
#[derive(Debug, Clone)]
struct PackedCouplings {
    g2: Option<Vec<f64>>,
    g3: Option<Vec<f64>>,
}

impl PackedCouplings {
    fn new(g2: &CsrMatrix, g3: Option<&CsrMatrix>, n: usize) -> Self {
        let m2 = n.checked_mul(n + 1).map(|v| v / 2);
        let m3 = n
            .checked_mul(n + 1)
            .and_then(|v| v.checked_mul(n + 2))
            .map(|v| v / 6);
        PackedCouplings {
            g2: pack(g2, n, m2, |col| {
                let (p, q) = (col / n, col % n);
                pair_index(n, p.min(q), p.max(q))
            }),
            g3: g3.and_then(|g3| {
                pack(g3, n, m3, |col| {
                    let mut idx = [col / (n * n), (col / n) % n, col % n];
                    idx.sort_unstable();
                    triple_index(n, idx[0], idx[1], idx[2])
                })
            }),
        }
    }
}

/// Sums each column of the coupling `g` into the packed row `row_of(col)`,
/// or returns `None` when the `monomials × n` rows would hold more numbers
/// than `g` stores (or their count overflows).
fn pack(
    g: &CsrMatrix,
    n: usize,
    monomials: Option<usize>,
    row_of: impl Fn(usize) -> usize,
) -> Option<Vec<f64>> {
    let len = monomials?.checked_mul(n)?;
    if g.nnz() == 0 || len > g.nnz() {
        return None;
    }
    let mut rows = vec![0.0; len];
    for (i, col, v) in g.iter() {
        rows[row_of(col) * n + i] += v;
    }
    Some(rows)
}

/// Row of the monomial `x_p x_q` (`p ≤ q < n`) in lexicographic order:
/// the pairs with a first index below `p`, then `q − p`.
fn pair_index(n: usize, p: usize, q: usize) -> usize {
    let below = |k: usize| k * (k + 1) / 2;
    below(n) - below(n - p) + (q - p)
}

/// Row of the monomial `x_p x_q x_r` (`p ≤ q ≤ r < n`) in lexicographic
/// order: the triples with a first index below `p`, then the pairs
/// `(q', r')` of `[p, n)` with `q' < q`, then `r − q`.
fn triple_index(n: usize, p: usize, q: usize, r: usize) -> usize {
    let pairs_below = |k: usize| k * (k + 1) / 2;
    let triples_below = |k: usize| k * (k + 1) * (k + 2) / 6;
    triples_below(n) - triples_below(n - p) + pairs_below(n - p) - pairs_below(n - q) + (r - q)
}

/// The monomials `x_p x_q` (`p ≤ q < n`) in packed-row order.
fn pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |p| (p..n).map(move |q| (p, q)))
}

/// The monomials `x_p x_q x_r` (`p ≤ q ≤ r < n`) in packed-row order.
fn triples(n: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    pairs(n).flat_map(move |(p, q)| (q..n).map(move |r| (p, q, r)))
}

/// Accumulates `Σ_{p≤q} x_p x_q · row(p, q)` into `out`: each monomial
/// once, then one contiguous axpy of its packed row.
fn packed_quadratic_into(rows: &[f64], x: &[f64], out: &mut [f64]) {
    for ((p, q), row) in pairs(x.len()).zip(rows.chunks_exact(x.len())) {
        axpy_into(x[p] * x[q], row, out);
    }
}

/// Accumulates `Σ_{p≤q≤r} x_p x_q x_r · row(p, q, r)` into `out`, as
/// [`packed_quadratic_into`] does for the pairs.
fn packed_cubic_into(rows: &[f64], x: &[f64], out: &mut [f64]) {
    for ((p, q, r), row) in triples(x.len()).zip(rows.chunks_exact(x.len())) {
        axpy_into(x[p] * x[q] * x[r], row, out);
    }
}

fn axpy_into(c: f64, row: &[f64], out: &mut [f64]) {
    for (o, &g) in out.iter_mut().zip(row) {
        *o += c * g;
    }
}

/// `out += c · row` for a complex `c` and a real packed row.
fn zaxpy_row(c: Complex, row: &[f64], out: &mut [Complex]) {
    for (o, &g) in out.iter_mut().zip(row) {
        *o += c * g;
    }
}

/// `G (a ⊗ b)` for complex vectors through the structured real kernel
/// (four real Kronecker matvecs, never forming the `n²` vector).
fn kron_complex(g: &CsrMatrix, a: &ZVector, b: &ZVector) -> ZVector {
    let (ar, ai) = (a.real(), a.imag());
    let (br, bi) = (b.real(), b.imag());
    let mut re = g.matvec_kron(&ar, &br);
    re.axpy(-1.0, &g.matvec_kron(&ai, &bi));
    let mut im = g.matvec_kron(&ar, &bi);
    im.axpy(1.0, &g.matvec_kron(&ai, &br));
    ZVector::from_parts(&re, &im)
}

/// `G (a ⊗ b ⊗ c)` for complex vectors through the structured real kernel:
/// the multilinear expansion over real/imaginary parts (eight real
/// triple-Kronecker matvecs, never forming the `n³` vector).
fn kron3_complex(g: &CsrMatrix, a: &ZVector, b: &ZVector, c: &ZVector) -> ZVector {
    let k = |x: &Vector, y: &Vector, z: &Vector| g.matvec_kron3(x, y, z);
    let (ar, ai) = (a.real(), a.imag());
    let (br, bi) = (b.real(), b.imag());
    let (cr, ci) = (c.real(), c.imag());
    let mut re = k(&ar, &br, &cr);
    re.axpy(-1.0, &k(&ar, &bi, &ci));
    re.axpy(-1.0, &k(&ai, &br, &ci));
    re.axpy(-1.0, &k(&ai, &bi, &cr));
    let mut im = k(&ar, &br, &ci);
    im.axpy(1.0, &k(&ar, &bi, &cr));
    im.axpy(1.0, &k(&ai, &br, &cr));
    im.axpy(-1.0, &k(&ai, &bi, &ci));
    ZVector::from_parts(&re, &im)
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
        self.polynomial_terms_into(x, &mut dx);
        for (k, &uk) in u.iter().enumerate() {
            if uk != 0.0 {
                for (i, d) in dx.iter_mut().enumerate() {
                    *d += uk * self.b[(i, k)];
                }
                if let Some(dk) = self.d1.get(k) {
                    dk.matvec_add_into(uk, x, &mut dx);
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
        self.for_each_jacobian_entry(x, u, |i, j, v| jac[(i, j)] += v);
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
        self.for_each_jacobian_entry(x, u, |i, j, v| coo.push(i, j, v));
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
    use vamor_linalg::{kron_vec, CooMatrix};

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

    /// Deterministic values in `[-1, 1)` (a 64-bit LCG).
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// `G₁ x + G₂ (x⊗x) + G₃ (x⊗x⊗x) + Σ_k u_k (b_k + D₁ᵏ x)` and its
    /// Jacobian `G₁ + G₂ (I⊗x + x⊗I) + G₃ (I⊗x⊗x + x⊗I⊗x + x⊗x⊗I) + Σ_k u_k
    /// D₁ᵏ`, every Kronecker product formed explicitly.
    fn explicit(q: &Qldae, x: &Vector, u: &[f64]) -> (Vector, Matrix) {
        let n = q.order();
        let x2 = kron_vec(x, x);
        let mut f = q.g1().matvec(x);
        f.axpy(1.0, &q.g2().matvec(&x2));
        let mut jac = q.g1().clone();
        for j in 0..n {
            let e = Vector::unit(n, j);
            let mut col = q.g2().matvec(&kron_vec(&e, x));
            col.axpy(1.0, &q.g2().matvec(&kron_vec(x, &e)));
            if let Some(g3) = q.g3() {
                for term in [
                    kron_vec(&e, &x2),
                    kron_vec(x, &kron_vec(&e, x)),
                    kron_vec(&x2, &e),
                ] {
                    col.axpy(1.0, &g3.matvec(&term));
                }
            }
            for i in 0..n {
                jac[(i, j)] += col[i];
            }
        }
        if let Some(g3) = q.g3() {
            f.axpy(1.0, &g3.matvec(&kron_vec(x, &x2)));
        }
        for (k, &uk) in u.iter().enumerate() {
            f.axpy(uk, &q.b().col(k));
            if let Some(dk) = q.d1().get(k) {
                f.axpy(uk, &dk.matvec(x));
                jac.axpy(uk, &dk.to_dense());
            }
        }
        (f, jac)
    }

    fn assert_matches_explicit(q: &Qldae, x: &Vector, u: &[f64]) {
        let (f, jac) = explicit(q, x, u);
        let rhs_err = (&q.rhs(x, u) - &f).norm_inf() / f.norm_inf();
        assert!(rhs_err <= 1e-12, "rhs relative error {rhs_err:.3e}");
        let scale = jac.max_abs();
        let dense_err = (&q.jacobian_x(x, u) - &jac).max_abs() / scale;
        assert!(
            dense_err <= 1e-12,
            "jacobian_x relative error {dense_err:.3e}"
        );
        let csr = q.jacobian_csr(x, u).expect("qldae provides CSR stamps");
        let csr_err = (&csr.to_dense() - &jac).max_abs() / scale;
        assert!(
            csr_err <= 1e-12,
            "jacobian_csr relative error {csr_err:.3e}"
        );
    }

    /// A dense `n`-state system whose `G₂[i, pq] ≠ G₂[i, qp]` and whose six
    /// `G₃` permutation columns all differ, with one bilinear input.
    fn dense_random(n: usize) -> Qldae {
        let mut next = lcg(7);
        let g1 = Matrix::from_fn(n, n, |i, j| if i == j { -4.0 } else { 0.3 * next() });
        let g2 = CsrMatrix::from_dense(&Matrix::from_fn(n, n * n, |_, _| next()), 0.0);
        let g3 = CsrMatrix::from_dense(&Matrix::from_fn(n, n * n * n, |_, _| next()), 0.0);
        let d1 = CsrMatrix::from_dense(&Matrix::from_fn(n, n, |_, _| 0.2 * next()), 0.0);
        let b = Matrix::from_fn(n, 2, |_, _| next());
        let c = Matrix::from_fn(1, n, |_, _| next());
        Qldae::new(g1, g2, vec![d1, CsrMatrix::zeros(n, n)], b, c)
            .unwrap()
            .with_g3(g3)
            .unwrap()
    }

    #[test]
    fn packed_evaluation_matches_explicit_kronecker_products() {
        let n = 7;
        let q = dense_random(n);
        assert_eq!(q.g2().nnz(), n * n * n);
        assert_eq!(q.g3().map(CsrMatrix::nnz), Some(n * n * n * n));
        let mut next = lcg(11);
        let x = Vector::from_fn(n, |_| next());
        assert_matches_explicit(&q, &x, &[0.6, -1.3]);
        assert_matches_explicit(&q, &x, &[0.0, 0.0]);
        let packed = q.packed();
        assert_eq!(
            packed.g2.as_ref().map(Vec::len),
            Some(n * (n * (n + 1) / 2))
        );
        assert_eq!(
            packed.g3.as_ref().map(Vec::len),
            Some(n * (n * (n + 1) * (n + 2) / 6))
        );
    }

    /// A system like [`dense_random`] whose `G₂`/`G₃` keep one entry in
    /// five: still asymmetric, and sparse enough to stay in CSR form.
    fn sparse_random(n: usize) -> Qldae {
        let mut next = lcg(13);
        let mut thinned = |cols: usize| {
            let mut g = CooMatrix::new(n, cols);
            for i in 0..n {
                for j in (0..cols).filter(|j| (i + j) % 5 == 0) {
                    g.push(i, j, next());
                }
            }
            g.into_csr()
        };
        let (g2, g3) = (thinned(n * n), thinned(n * n * n));
        let g1 = Matrix::from_fn(n, n, |i, j| if i == j { -4.0 } else { 0.0 });
        let b = Matrix::from_fn(n, 1, |i, _| 1.0 / (1.0 + i as f64));
        let c = Matrix::from_fn(1, n, |_, j| if j == 0 { 1.0 } else { 0.0 });
        Qldae::new(g1, g2, Vec::new(), b, c)
            .unwrap()
            .with_g3(g3)
            .unwrap()
    }

    /// `G (x₁ ⊗ … ⊗ x_k)` for complex factors, the Kronecker vector formed
    /// explicitly and its real and imaginary parts applied separately.
    fn explicit_complex(g: &CsrMatrix, factors: &[&ZVector]) -> ZVector {
        let kron = factors
            .iter()
            .fold(ZVector::from_slice(&[Complex::ONE]), |acc, f| {
                ZVector::from(
                    acc.iter()
                        .flat_map(|&x| f.iter().map(move |&y| x * y))
                        .collect::<Vec<_>>(),
                )
            });
        ZVector::from_parts(&g.matvec(&kron.real()), &g.matvec(&kron.imag()))
    }

    #[test]
    fn symmetric_couplings_match_explicit_complex_kronecker_products() {
        let n = 6;
        let mut next = lcg(5);
        let mut random = || {
            ZVector::from(
                (0..n)
                    .map(|_| Complex::new(next(), next()))
                    .collect::<Vec<_>>(),
            )
        };
        let (a, b, c, base) = (random(), random(), random(), random());
        // `H₁(−iω)` is the conjugate of `H₁(iω)`: the (s, s, −s) sample.
        let a_conj = ZVector::from(a.iter().map(|z| z.conj()).collect::<Vec<_>>());
        let rel_err = |ours: &ZVector, expected: &ZVector| {
            let scale = expected.iter().map(|z| z.abs()).fold(0.0, f64::max);
            let diff = ours
                .iter()
                .zip(expected.iter())
                .map(|(&x, &y)| (x - y).abs())
                .fold(0.0, f64::max);
            diff / scale
        };
        for (q, packed) in [(dense_random(n), true), (sparse_random(n), false)] {
            assert_eq!(q.packed().g2.is_some(), packed);
            assert_eq!(q.packed().g3.is_some(), packed);
            let g3 = q.g3().expect("cubic coupling");
            for (x, y, z) in [(&a, &b, &c), (&a, &a, &a), (&a, &a, &a_conj)] {
                // Both kernels add into what `out` already holds.
                let mut expected = base.clone();
                expected.axpy(Complex::ONE, &explicit_complex(q.g2(), &[x, y]));
                expected.axpy(Complex::ONE, &explicit_complex(q.g2(), &[y, x]));
                let mut ours = base.clone();
                q.symmetric_quadratic(x, y, &mut ours);
                let err = rel_err(&ours, &expected);
                assert!(err <= 1e-12, "quadratic (packed: {packed}) error {err:.3e}");

                let mut expected = base.clone();
                for order in [
                    [x, y, z],
                    [x, z, y],
                    [y, x, z],
                    [y, z, x],
                    [z, x, y],
                    [z, y, x],
                ] {
                    expected.axpy(Complex::ONE, &explicit_complex(g3, &order));
                }
                let mut ours = base.clone();
                q.symmetric_cubic(x, y, z, &mut ours);
                let err = rel_err(&ours, &expected);
                assert!(err <= 1e-12, "cubic (packed: {packed}) error {err:.3e}");
            }
        }
    }

    #[test]
    fn couplings_are_packed_exactly_when_no_larger_than_their_csr() {
        // n = 2: M₂ = 3 monomials (n·M₂ = 6 numbers), M₃ = 4 (n·M₃ = 8).
        let n = 2;
        let mut next = lcg(3);
        let x = Vector::from_slice(&[0.8, -1.7]);
        for (g2_nnz, g3_nnz) in [(6, 8), (5, 7), (6, 7), (5, 8), (0, 8), (6, 0)] {
            let mut g2 = CooMatrix::new(n, n * n);
            for k in 0..g2_nnz {
                g2.push(k % n, k / n, 0.5 + next().abs());
            }
            let mut g3 = CooMatrix::new(n, n * n * n);
            for k in 0..g3_nnz {
                g3.push(k % n, k / n, 0.5 + next().abs());
            }
            let g1 = Matrix::from_rows(&[&[-1.0, 0.2], &[0.1, -2.0]]).unwrap();
            let b = Matrix::from_rows(&[&[1.0], &[0.5]]).unwrap();
            let c = Matrix::from_rows(&[&[0.0, 1.0]]).unwrap();
            let plain = Qldae::new(g1, g2.into_csr(), Vec::new(), b, c).unwrap();
            // Evaluating before `with_g3` builds a packed form without G₃,
            // which attaching G₃ must discard.
            let _ = plain.rhs(&x, &[0.3]);
            let q = plain.with_g3(g3.into_csr()).unwrap();
            assert_matches_explicit(&q, &x, &[0.3]);
            let packed = q.packed();
            assert_eq!(packed.g2.is_some(), g2_nnz == 6, "G₂ with {g2_nnz} entries");
            assert_eq!(packed.g3.is_some(), g3_nnz == 8, "G₃ with {g3_nnz} entries");
        }
    }

    #[test]
    fn packed_index_maps_enumerate_monomials_in_row_order() {
        let n = 5;
        for (m, (p, q)) in pairs(n).enumerate() {
            assert_eq!(pair_index(n, p, q), m);
        }
        for (m, (p, q, r)) in triples(n).enumerate() {
            assert_eq!(triple_index(n, p, q, r), m);
        }
        assert_eq!(pairs(n).count(), n * (n + 1) / 2);
        assert_eq!(triples(n).count(), n * (n + 1) * (n + 2) / 6);
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
