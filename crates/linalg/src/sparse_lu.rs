//! Sparse direct LU factorization for circuit-shaped matrices.
//!
//! Modified-nodal-analysis Jacobians are ~tridiagonal-plus-coupling: a dense
//! LU spends `O(n³)` on a matrix with `O(n)` nonzeros. This module provides a
//! sparse direct solver with the classic two-phase split:
//!
//! * **Symbolic analysis** ([`SparseLuSymbolic`]) — a fill-reducing
//!   elimination ordering (reverse Cuthill–McKee over the symmetrized
//!   pattern). The ordering depends only on the *pattern*, so one analysis is
//!   reused across arbitrarily many shifted/numeric refactorizations — the
//!   access pattern of the shifted-solve caches and the frozen-Jacobian
//!   transient integrator.
//! * **Numeric factorization** ([`SparseLu`], [`SparseZLu`]) — left-looking
//!   Gilbert–Peierls elimination: the pattern of each `L⁻¹ aⱼ` column is
//!   discovered by a depth-first reach over the partially built `L`, so the
//!   total work is proportional to the number of floating-point operations
//!   actually performed, `O(n)` for banded systems. Threshold partial
//!   pivoting (`|a_dd| ≥ τ·max`) prefers the structural diagonal, preserving
//!   the bandedness the ordering produced, while still bounding element
//!   growth.
//!
//! The complex variant factors `(A + λI)` for a *real* CSR matrix `A` and a
//! complex shift `λ` — exactly the `(G₁ + λI)` systems the Bartels–Stewart
//! back-substitution walks along complex eigenvalue pairs.

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::lu::LuDecomposition;
use crate::sparse::CsrMatrix;
use crate::vector::Vector;
use crate::Result;

/// Dense-vs-sparse break-even of every `Auto` backend decision in the
/// workspace (reducers and implicit integrators alike): below this order the
/// dense factorization wins on constant factors, from it on the sparse
/// direct solver takes over. Single-sourced here so the consumers cannot
/// drift apart.
pub const SPARSE_AUTO_THRESHOLD: usize = 256;

/// Which linear-solver implementation a consumer should use for structurally
/// sparse systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Pick automatically: sparse once the dimension crosses the consumer's
    /// break-even threshold (dense factorization wins for small systems).
    #[default]
    Auto,
    /// Always use the dense direct solver — the one `Auto` picks below
    /// [`SPARSE_AUTO_THRESHOLD`] states.
    Dense,
    /// Always use the sparse path.
    Sparse,
}

impl SolverBackend {
    /// Resolves the backend choice for a system of dimension `n` given the
    /// consumer's `Auto` break-even threshold.
    pub fn use_sparse(self, n: usize, auto_threshold: usize) -> bool {
        match self {
            SolverBackend::Dense => false,
            SolverBackend::Sparse => true,
            SolverBackend::Auto => n >= auto_threshold,
        }
    }
}

/// Sentinel for "row not yet chosen as a pivot".
const UNPIVOTED: usize = usize::MAX;

/// Default threshold-pivoting relaxation: the structural diagonal is accepted
/// as the pivot whenever it is within this factor of the column maximum.
const PIVOT_TAU: f64 = 0.1;

/// The reusable symbolic part of a sparse factorization: a fill-reducing
/// elimination ordering. Because the numeric phase (Gilbert–Peierls)
/// discovers each column's fill pattern on the fly, *any* permutation is
/// valid here — reusing one analysis across shifts or slightly changed
/// numerical patterns is always correct, only the fill quality varies.
#[derive(Debug, Clone)]
pub struct SparseLuSymbolic {
    n: usize,
    /// `order[k]` = original column eliminated at step `k`.
    order: Vec<usize>,
}

impl SparseLuSymbolic {
    /// Computes a reverse Cuthill–McKee ordering of the symmetrized pattern
    /// `A + Aᵀ`, which keeps banded circuit matrices banded under
    /// elimination.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `a` is not square.
    pub fn analyze(a: &CsrMatrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        // Symmetrized adjacency, diagonal excluded.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, j, _) in a.iter() {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }

        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::new();
        // Start each component from an unvisited vertex of minimum degree,
        // refined to a pseudo-peripheral vertex by one extra BFS.
        while let Some(start) = (0..n)
            .filter(|&i| !visited[i])
            .min_by_key(|&i| adj[i].len())
        {
            let root = pseudo_peripheral(start, &adj);
            queue.push_back(root);
            visited[root] = true;
            let mut neighbors = Vec::new();
            while let Some(v) = queue.pop_front() {
                order.push(v);
                neighbors.clear();
                neighbors.extend(adj[v].iter().copied().filter(|&w| !visited[w]));
                neighbors.sort_unstable_by_key(|&w| adj[w].len());
                for &w in &neighbors {
                    visited[w] = true;
                    queue.push_back(w);
                }
            }
        }
        order.reverse();
        Ok(SparseLuSymbolic { n, order })
    }

    /// The identity ordering (no fill reduction) — useful as a baseline and
    /// for matrices that are already well ordered.
    pub fn natural(n: usize) -> Self {
        SparseLuSymbolic {
            n,
            order: (0..n).collect(),
        }
    }

    /// Dimension the analysis was computed for.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The elimination ordering (`order[k]` = original index at step `k`).
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

/// BFS twice from `start` to approximate a peripheral vertex (the classic
/// George–Liu heuristic: the ends of long graph paths make good RCM roots).
fn pseudo_peripheral(start: usize, adj: &[Vec<usize>]) -> usize {
    let mut root = start;
    for _ in 0..2 {
        let far = bfs_farthest(root, adj);
        if far == root {
            break;
        }
        root = far;
    }
    root
}

/// Returns a minimum-degree vertex of the last BFS level reached from `root`
/// (or `root` itself for an isolated vertex).
fn bfs_farthest(root: usize, adj: &[Vec<usize>]) -> usize {
    let n = adj.len();
    let mut seen = vec![false; n];
    let mut level = vec![root];
    seen[root] = true;
    let mut last = vec![root];
    while !level.is_empty() {
        last = level.clone();
        let mut next = Vec::new();
        for &v in &level {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    next.push(w);
                }
            }
        }
        level = next;
    }
    last.into_iter()
        .min_by_key(|&v| adj[v].len())
        .unwrap_or(root)
}

/// Scalar abstraction shared by the real and complex factorizations.
trait LuScalar: Copy + std::fmt::Debug {
    const ZERO: Self;
    const ONE: Self;
    fn from_f64(v: f64) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    fn modulus(self) -> f64;
    fn is_zero(self) -> bool;
}

impl LuScalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    fn from_f64(v: f64) -> Self {
        v
    }
    fn add(self, o: Self) -> Self {
        self + o
    }
    fn sub(self, o: Self) -> Self {
        self - o
    }
    fn mul(self, o: Self) -> Self {
        self * o
    }
    fn div(self, o: Self) -> Self {
        self / o
    }
    fn modulus(self) -> f64 {
        self.abs()
    }
    fn is_zero(self) -> bool {
        self == 0.0
    }
}

impl LuScalar for Complex {
    const ZERO: Self = Complex::ZERO;
    const ONE: Self = Complex::ONE;
    fn from_f64(v: f64) -> Self {
        Complex::from_real(v)
    }
    fn add(self, o: Self) -> Self {
        self + o
    }
    fn sub(self, o: Self) -> Self {
        self - o
    }
    fn mul(self, o: Self) -> Self {
        self * o
    }
    fn div(self, o: Self) -> Self {
        self / o
    }
    fn modulus(self) -> f64 {
        self.abs()
    }
    fn is_zero(self) -> bool {
        self.re == 0.0 && self.im == 0.0
    }
}

/// Column-compressed `L`/`U` factors with a row permutation (`pinv`) and the
/// column elimination order (`q`): `P (A + shift·I) Q = L U`.
#[derive(Debug, Clone)]
struct Factors<T> {
    n: usize,
    /// `L` by columns in elimination order; the unit diagonal is the first
    /// entry of each column. Row indices are in pivot (permuted) numbering.
    lp: Vec<usize>,
    li: Vec<usize>,
    lx: Vec<T>,
    /// `U` by columns; the diagonal is the last entry of each column. Row
    /// indices are in pivot numbering (`< k` for column `k`).
    up: Vec<usize>,
    ui: Vec<usize>,
    ux: Vec<T>,
    /// `pinv[original_row]` = pivot position.
    pinv: Vec<usize>,
    /// `q[k]` = original column eliminated at step `k`.
    q: Vec<usize>,
}

impl<T: LuScalar> Factors<T> {
    fn nnz(&self) -> usize {
        self.li.len() + self.ui.len()
    }

    /// Solves `(A + shift·I) x = b` given `b` and `out` in original ordering.
    fn solve(&self, b: &[T], out: &mut [T]) {
        let n = self.n;
        let mut y = vec![T::ZERO; n];
        for (i, &bi) in b.iter().enumerate() {
            y[self.pinv[i]] = bi;
        }
        // Forward substitution with unit-lower-triangular L (diag skipped).
        for k in 0..n {
            let yk = y[k];
            if yk.is_zero() {
                continue;
            }
            for p in (self.lp[k] + 1)..self.lp[k + 1] {
                let upd = self.lx[p].mul(yk);
                let r = self.li[p];
                y[r] = y[r].sub(upd);
            }
        }
        // Backward substitution with U (diag last in each column).
        for k in (0..n).rev() {
            let diag = self.ux[self.up[k + 1] - 1];
            let xk = y[k].div(diag);
            y[k] = xk;
            if xk.is_zero() {
                continue;
            }
            for p in self.up[k]..(self.up[k + 1] - 1) {
                let upd = self.ux[p].mul(xk);
                let r = self.ui[p];
                y[r] = y[r].sub(upd);
            }
        }
        for k in 0..n {
            out[self.q[k]] = y[k];
        }
    }
}

/// Gilbert–Peierls left-looking sparse LU with threshold partial pivoting on
/// a CSC matrix (`colptr` / `rowind` / `vals`), eliminating columns in the
/// given `order`.
fn factor_core<T: LuScalar>(
    n: usize,
    colptr: &[usize],
    rowind: &[usize],
    vals: &[T],
    order: &[usize],
    tau: f64,
) -> Result<Factors<T>> {
    let _span = vamor_obs::span!("sparse_lu_factor");
    let mut lp = Vec::with_capacity(n + 1);
    lp.push(0usize);
    let mut li: Vec<usize> = Vec::new();
    let mut lx: Vec<T> = Vec::new();
    let mut up = Vec::with_capacity(n + 1);
    up.push(0usize);
    let mut ui: Vec<usize> = Vec::new();
    let mut ux: Vec<T> = Vec::new();
    let mut pinv = vec![UNPIVOTED; n];
    let mut x = vec![T::ZERO; n];
    let mut mark = vec![0usize; n];
    let mut xi = vec![0usize; n];
    let mut node_stack: Vec<usize> = Vec::new();
    let mut ptr_stack: Vec<usize> = Vec::new();

    for (k, &col) in order.iter().enumerate() {
        let stamp = k + 1;

        // Symbolic step: depth-first reach of A(:,col) over the graph of the
        // already-built L columns. `xi[top..n]` receives the pattern in
        // topological (reverse post-) order.
        let mut top = n;
        for &i in &rowind[colptr[col]..colptr[col + 1]] {
            if mark[i] == stamp {
                continue;
            }
            mark[i] = stamp;
            node_stack.push(i);
            ptr_stack.push(0);
            while let Some(&j) = node_stack.last() {
                let jpos = pinv[j];
                let (astart, aend) = if jpos == UNPIVOTED {
                    (0, 0)
                } else {
                    (lp[jpos] + 1, lp[jpos + 1])
                };
                // vamor: allow(panic-freedom, reason = "lockstep invariant: ptr_stack is pushed and popped in step with node_stack in this DFS, and the while-let guard proves node_stack is non-empty")
                let p = ptr_stack.last_mut().expect("stacks stay in lockstep");
                let mut descended = false;
                while astart + *p < aend {
                    let child = li[astart + *p];
                    *p += 1;
                    if mark[child] != stamp {
                        mark[child] = stamp;
                        node_stack.push(child);
                        ptr_stack.push(0);
                        descended = true;
                        break;
                    }
                }
                if !descended {
                    node_stack.pop();
                    ptr_stack.pop();
                    top -= 1;
                    xi[top] = j;
                }
            }
        }

        // Numeric step: scatter the column, then the sparse triangular solve
        // x = L⁻¹ A(:,col) walking the pattern in topological order.
        for &i in &xi[top..n] {
            x[i] = T::ZERO;
        }
        for p in colptr[col]..colptr[col + 1] {
            x[rowind[p]] = vals[p];
        }
        for &j in &xi[top..n] {
            let jpos = pinv[j];
            if jpos == UNPIVOTED {
                continue;
            }
            let xj = x[j];
            if xj.is_zero() {
                continue;
            }
            for p in (lp[jpos] + 1)..lp[jpos + 1] {
                let upd = lx[p].mul(xj);
                let r = li[p];
                x[r] = x[r].sub(upd);
            }
        }

        // Pivot among the not-yet-pivoted rows, preferring the structural
        // diagonal when it is within `tau` of the column maximum.
        let mut best = UNPIVOTED;
        let mut best_mag = 0.0_f64;
        let mut diag_mag = -1.0_f64;
        for &i in &xi[top..n] {
            if pinv[i] != UNPIVOTED {
                continue;
            }
            let m = x[i].modulus();
            if i == col {
                diag_mag = m;
            }
            if m > best_mag {
                best_mag = m;
                best = i;
            }
        }
        if best == UNPIVOTED || best_mag == 0.0 || !best_mag.is_finite() {
            return Err(LinalgError::Singular(format!(
                "sparse lu: no usable pivot for column {col} (elimination step {k})"
            )));
        }
        let ipiv = if diag_mag > 0.0 && diag_mag >= tau * best_mag {
            col
        } else {
            best
        };
        let udiag = x[ipiv];

        // U column k: the already-pivoted rows, diagonal last.
        for &i in &xi[top..n] {
            if pinv[i] != UNPIVOTED && !x[i].is_zero() {
                ui.push(pinv[i]);
                ux.push(x[i]);
            }
        }
        ui.push(k);
        ux.push(udiag);
        up.push(ui.len());

        // L column k: unit diagonal first, then the remaining rows scaled by
        // the pivot. Row indices stay in original numbering until the final
        // renumber pass (later pivots are unknown at this point).
        pinv[ipiv] = k;
        li.push(ipiv);
        lx.push(T::ONE);
        for &i in &xi[top..n] {
            if pinv[i] == UNPIVOTED {
                let v = x[i].div(udiag);
                if !v.is_zero() {
                    li.push(i);
                    lx.push(v);
                }
            }
        }
        lp.push(li.len());
    }

    // Renumber L's row indices into pivot order so the solves are plain
    // triangular sweeps.
    for r in li.iter_mut() {
        *r = pinv[*r];
    }
    Ok(Factors {
        n,
        lp,
        li,
        lx,
        up,
        ui,
        ux,
        pinv,
        q: order.to_vec(),
    })
}

/// Builds the CSC arrays of `A + shift·I` from a CSR matrix, guaranteeing an
/// explicit diagonal entry in every column (so the shifted pattern is
/// identical for every shift and the symbolic analysis can be shared).
fn csc_with_shift<T: LuScalar>(a: &CsrMatrix, shift: T) -> (Vec<usize>, Vec<usize>, Vec<T>) {
    let n = a.rows();
    let mut counts = vec![0usize; n];
    let mut diag_present = vec![false; n];
    for (r, present) in diag_present.iter_mut().enumerate() {
        let (cols, _) = a.row_entries(r);
        for &c in cols {
            counts[c] += 1;
            if c == r {
                *present = true;
            }
        }
    }
    for (r, present) in diag_present.iter().enumerate() {
        if !present {
            counts[r] += 1;
        }
    }
    let mut colptr = vec![0usize; n + 1];
    for c in 0..n {
        colptr[c + 1] = colptr[c] + counts[c];
    }
    let nnz = colptr[n];
    let mut next = colptr[..n].to_vec();
    let mut rowind = vec![0usize; nnz];
    let mut vals = vec![T::ZERO; nnz];
    // Rows are visited in increasing order, so each column receives its row
    // indices already sorted.
    for (r, &has_diag) in diag_present.iter().enumerate() {
        let (cols, values) = a.row_entries(r);
        for (&c, &v) in cols.iter().zip(values.iter()) {
            let val = if c == r {
                T::from_f64(v).add(shift)
            } else {
                T::from_f64(v)
            };
            let pos = next[c];
            next[c] += 1;
            rowind[pos] = r;
            vals[pos] = val;
        }
        if !has_diag {
            let pos = next[r];
            next[r] += 1;
            rowind[pos] = r;
            vals[pos] = shift;
        }
    }
    (colptr, rowind, vals)
}

/// A sparse LU factorization `P (A + σI) Q = L U` of a real CSR matrix.
///
/// ```
/// use vamor_linalg::{CooMatrix, SparseLu, Vector};
/// # fn main() -> Result<(), vamor_linalg::LinalgError> {
/// let mut coo = CooMatrix::new(3, 3);
/// for i in 0..3 {
///     coo.push(i, i, 4.0);
///     if i + 1 < 3 {
///         coo.push(i, i + 1, -1.0);
///         coo.push(i + 1, i, -1.0);
///     }
/// }
/// let a = coo.to_csr();
/// let lu = SparseLu::factor(&a)?;
/// let xref = Vector::from_slice(&[1.0, -2.0, 0.5]);
/// let x = lu.solve(&a.matvec(&xref))?;
/// assert!((&x - &xref).norm_inf() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    f: Factors<f64>,
}

impl SparseLu {
    /// Factors `a`, running a fresh symbolic analysis.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Singular`] if no usable pivot exists at some step.
    pub fn factor(a: &CsrMatrix) -> Result<Self> {
        let symbolic = SparseLuSymbolic::analyze(a)?;
        Self::factor_with(&symbolic, a)
    }

    /// Factors `a` reusing an existing symbolic analysis.
    ///
    /// # Errors
    ///
    /// Same contract as [`SparseLu::factor`], plus a dimension check against
    /// the analysis.
    pub fn factor_with(symbolic: &SparseLuSymbolic, a: &CsrMatrix) -> Result<Self> {
        Self::factor_shifted(symbolic, a, 0.0)
    }

    /// Factors `A + σI` reusing an existing symbolic analysis. The diagonal
    /// is always kept structurally present, so the factor pattern is stable
    /// across shifts.
    ///
    /// # Errors
    ///
    /// Same contract as [`SparseLu::factor_with`].
    pub fn factor_shifted(symbolic: &SparseLuSymbolic, a: &CsrMatrix, sigma: f64) -> Result<Self> {
        Self::factor_shifted_with_threshold(symbolic, a, sigma, PIVOT_TAU)
    }

    /// [`SparseLu::factor_shifted`] with an explicit relative pivot
    /// threshold `tau ∈ (0, 1]`: the structural diagonal is kept as pivot
    /// only while `|diag| ≥ tau · |best|`. `tau = 1` is full partial
    /// pivoting (maximum stability, maximum fill) — the last sparse rung of
    /// [`LuFactor::build_with_recovery`].
    fn factor_shifted_with_threshold(
        symbolic: &SparseLuSymbolic,
        a: &CsrMatrix,
        sigma: f64,
        tau: f64,
    ) -> Result<Self> {
        check_shape(symbolic, a)?;
        let (colptr, rowind, vals) = csc_with_shift(a, sigma);
        let f = factor_core(a.rows(), &colptr, &rowind, &vals, symbolic.order(), tau)?;
        Ok(SparseLu { f })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.f.n
    }

    /// Stored nonzeros in `L` plus `U` (a direct measure of fill).
    pub fn factor_nnz(&self) -> usize {
        self.f.nnz()
    }

    /// Solves `(A + σI) x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let mut x = Vector::zeros(self.f.n);
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `(A + σI) x = b` into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if either length is not
    /// `self.dim()`.
    pub fn solve_into(&self, b: &Vector, x: &mut Vector) -> Result<()> {
        if b.len() != self.f.n || x.len() != self.f.n {
            return Err(LinalgError::DimensionMismatch(format!(
                "sparse lu solve: rhs/out have lengths {}/{}, expected {}",
                b.len(),
                x.len(),
                self.f.n
            )));
        }
        self.f.solve(b.as_slice(), x.as_mut_slice());
        Ok(())
    }
}

/// A sparse LU factorization of `A + λI` for real `A` and a complex shift.
#[derive(Debug, Clone)]
pub struct SparseZLu {
    f: Factors<Complex>,
}

impl SparseZLu {
    /// Factors `A + λI` reusing an existing symbolic analysis.
    ///
    /// # Errors
    ///
    /// Same contract as [`SparseLu::factor_shifted`].
    pub fn factor_shifted(
        symbolic: &SparseLuSymbolic,
        a: &CsrMatrix,
        lambda: Complex,
    ) -> Result<Self> {
        check_shape(symbolic, a)?;
        let (colptr, rowind, vals) = csc_with_shift(a, lambda);
        let f = factor_core(
            a.rows(),
            &colptr,
            &rowind,
            &vals,
            symbolic.order(),
            PIVOT_TAU,
        )?;
        Ok(SparseZLu { f })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.f.n
    }

    /// Stored nonzeros in `L` plus `U`.
    pub fn factor_nnz(&self) -> usize {
        self.f.nnz()
    }

    /// Solves `(A + λI)(x_re + i·x_im) = re + i·im`, returning the real and
    /// imaginary parts.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on a length mismatch.
    pub fn solve_parts(&self, re: &Vector, im: &Vector) -> Result<(Vector, Vector)> {
        let n = self.f.n;
        if re.len() != n || im.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "sparse complex lu solve: rhs lengths {}/{}, expected {n}",
                re.len(),
                im.len()
            )));
        }
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(re[i], im[i])).collect();
        let mut x = vec![Complex::ZERO; n];
        self.f.solve(&b, &mut x);
        let x_re = Vector::from_fn(n, |i| x[i].re);
        let x_im = Vector::from_fn(n, |i| x[i].im);
        Ok((x_re, x_im))
    }
}

fn check_shape(symbolic: &SparseLuSymbolic, a: &CsrMatrix) -> Result<()> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if symbolic.dim() != a.rows() {
        return Err(LinalgError::DimensionMismatch(format!(
            "sparse lu: symbolic analysis is for dimension {}, matrix is {}",
            symbolic.dim(),
            a.rows()
        )));
    }
    Ok(())
}

/// The sparse pivot thresholds of the degradation ladder, tried in order
/// (each at most once) before the dense fallback.
const PIVOT_LADDER: [f64; 3] = [PIVOT_TAU, 0.5, 1.0];

/// What the pivot-degradation ladder of [`LuFactor::build_with_recovery`]
/// did to produce a factorization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PivotRecovery {
    /// Pivot-threshold escalations taken in the sparse backend (at most 2:
    /// `τ = 0.1 → 0.5 → 1.0`).
    pub escalations: usize,
    /// True when the sparse backend was abandoned for the dense one.
    pub dense_fallback: bool,
}

impl PivotRecovery {
    /// The recovery rungs taken, `escalations + dense_fallback`: one per
    /// degradation event the ladder emitted (0 = healthy first try, 3 = a
    /// dense fallback after both escalations).
    pub fn rungs(&self) -> usize {
        self.escalations + usize::from(self.dense_fallback)
    }
}

/// A factorization of a square matrix in either the dense or the sparse
/// backend, with uniform solves. Every stamp factorization of the reducers
/// (`G₁`, `G₁ᵀ`) and of the implicit integrators' sparse iteration matrices
/// goes through [`LuFactor::build_with_recovery`], the one pivot
/// degradation ladder — solves agree to floating-point roundoff across
/// backends.
#[derive(Debug)]
pub enum LuFactor {
    /// Dense partial-pivoting LU.
    Dense(LuDecomposition),
    /// Sparse Gilbert–Peierls LU.
    Sparse(SparseLu),
}

impl LuFactor {
    /// Factors the stamp `a_csr` walking the pivot degradation ladder — the
    /// one ladder of the workspace. A sparse request tries the pivot
    /// thresholds `τ = 0.1, 0.5, 1.0` once each on `symbolic` (or on a fresh
    /// analysis of `a_csr` when `None`), then falls back to the dense
    /// backend. Each rung taken emits exactly one degradation event — a
    /// `PivotEscalation` (detail: the threshold escalated to) or the one
    /// `DenseFallback` (detail: the escalations before it) — and is counted
    /// in the returned [`PivotRecovery`]. A dense request factors the dense
    /// view directly and never recovers; the dense view is materialized only
    /// there or on the dense-fallback rung.
    ///
    /// # Errors
    ///
    /// Shape errors of the symbolic analysis, and [`LinalgError::Singular`]
    /// only when every rung — including the dense fallback — fails.
    pub fn build_with_recovery(
        a_csr: &CsrMatrix,
        sparse: bool,
        symbolic: Option<&SparseLuSymbolic>,
    ) -> Result<(Self, PivotRecovery)> {
        let mut recovery = PivotRecovery::default();
        if sparse {
            let analysed;
            let symbolic = match symbolic {
                Some(s) => s,
                None => {
                    analysed = SparseLuSymbolic::analyze(a_csr)?;
                    &analysed
                }
            };
            for (rung, &tau) in PIVOT_LADDER.iter().enumerate() {
                match SparseLu::factor_shifted_with_threshold(symbolic, a_csr, 0.0, tau) {
                    Ok(lu) => return Ok((LuFactor::Sparse(lu), recovery)),
                    Err(LinalgError::Singular(_)) => {}
                    Err(e) => return Err(e),
                }
                if let Some(&next) = PIVOT_LADDER.get(rung + 1) {
                    recovery.escalations += 1;
                    vamor_obs::event!(vamor_obs::Event::Degradation {
                        rung: vamor_obs::event::DegradationRung::PivotEscalation,
                        detail: next,
                    });
                }
            }
            recovery.dense_fallback = true;
            vamor_obs::event!(vamor_obs::Event::Degradation {
                rung: vamor_obs::event::DegradationRung::DenseFallback,
                detail: recovery.escalations as f64,
            });
        }
        let dense = LuDecomposition::new(&a_csr.to_dense())?;
        Ok((LuFactor::Dense(dense), recovery))
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on a length mismatch.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        match self {
            LuFactor::Dense(lu) => lu.solve(b),
            LuFactor::Sparse(lu) => lu.solve(b),
        }
    }

    /// Solves `A x = b` into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on a length mismatch.
    pub fn solve_into(&self, b: &Vector, x: &mut Vector) -> Result<()> {
        match self {
            LuFactor::Dense(lu) => lu.solve_into(b, x),
            LuFactor::Sparse(lu) => lu.solve_into(b, x),
        }
    }

    /// True when this is the sparse backend.
    pub fn is_sparse(&self) -> bool {
        matches!(self, LuFactor::Sparse(_))
    }

    /// Approximate heap footprint of the factor in bytes, for the session
    /// memory-budget governor: `n²` coefficients plus the pivot vector on
    /// the dense backend, the stored L/U nonzeros with their column indices
    /// plus the permutation vectors on the sparse one.
    pub fn approx_bytes(&self) -> usize {
        match self {
            LuFactor::Dense(lu) => {
                let n = lu.dim();
                n * n * 8 + n * 8
            }
            LuFactor::Sparse(lu) => lu.factor_nnz() * (8 + 8) + lu.dim() * 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::sparse::CooMatrix;
    use crate::zmatrix::{ZMatrix, ZVector};

    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.max(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        }
    }

    /// Banded diagonally dominant matrix with `band` off-diagonals.
    fn banded(n: usize, band: usize, seed: u64) -> CsrMatrix {
        let mut next = xorshift(seed);
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + next().abs());
            for d in 1..=band {
                if i + d < n {
                    coo.push(i, i + d, next());
                    coo.push(i + d, i, next());
                }
            }
        }
        coo.to_csr()
    }

    /// MNA-style stamp: a tridiagonal conductance ladder plus a few
    /// long-range coupling entries (like the receiver's cross-stage paths).
    fn mna_like(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, -2.5 - 0.01 * i as f64);
            if i + 1 < n {
                coo.push(i, i + 1, 1.0);
                coo.push(i + 1, i, 1.0);
            }
        }
        // Long-range coupling breaks pure bandedness.
        coo.push(0, n - 1, 0.3);
        coo.push(n - 1, 0, 0.2);
        coo.push(n / 2, n / 4, -0.4);
        coo.to_csr()
    }

    #[test]
    fn solves_match_dense_lu_on_random_banded_matrices() {
        for (n, band, seed) in [(1, 0, 3), (5, 1, 7), (40, 2, 11), (73, 3, 19)] {
            let a = banded(n, band, seed);
            let xref = Vector::from_fn(n, |i| ((i * 13 % 7) as f64) - 3.0);
            let b = a.matvec(&xref);
            let sparse = SparseLu::factor(&a).unwrap();
            let x = sparse.solve(&b).unwrap();
            let dense = a.to_dense().lu().unwrap().solve(&b).unwrap();
            assert!((&x - &xref).norm_inf() < 1e-9, "n={n}");
            assert!((&x - &dense).norm_inf() < 1e-9, "n={n} vs dense");
        }
    }

    #[test]
    fn shifted_factors_reuse_one_symbolic_analysis() {
        let a = mna_like(30);
        let symbolic = SparseLuSymbolic::analyze(&a).unwrap();
        let b = Vector::from_fn(30, |i| (i as f64 * 0.37).sin());
        for sigma in [0.0, 0.4, -0.7, 2.0] {
            let lu = SparseLu::factor_shifted(&symbolic, &a, sigma).unwrap();
            let x = lu.solve(&b).unwrap();
            let mut shifted = a.to_dense();
            for i in 0..30 {
                shifted[(i, i)] += sigma;
            }
            let reference = shifted.lu().unwrap().solve(&b).unwrap();
            assert!((&x - &reference).norm_inf() < 1e-9, "sigma={sigma}");
        }
    }

    #[test]
    fn complex_shift_matches_dense_complex_solve() {
        let a = mna_like(24);
        let symbolic = SparseLuSymbolic::analyze(&a).unwrap();
        let lambda = Complex::new(0.3, 1.1);
        let lu = SparseZLu::factor_shifted(&symbolic, &a, lambda).unwrap();
        let re = Vector::from_fn(24, |i| 0.5 * i as f64 - 4.0);
        let im = Vector::from_fn(24, |i| (i as f64 * 0.21).cos());
        let (x_re, x_im) = lu.solve_parts(&re, &im).unwrap();

        let mut dense = ZMatrix::from_real(&a.to_dense());
        for i in 0..24 {
            dense[(i, i)] += lambda;
        }
        let rhs = ZVector::from(
            (0..24)
                .map(|i| Complex::new(re[i], im[i]))
                .collect::<Vec<_>>(),
        );
        let reference = dense.lu().unwrap().solve(&rhs).unwrap();
        assert!((&x_re - &reference.real()).norm_inf() < 1e-9);
        assert!((&x_im - &reference.imag()).norm_inf() < 1e-9);
        assert!(lu.factor_nnz() > 0);
        assert_eq!(lu.dim(), 24);
    }

    #[test]
    fn tridiagonal_fill_stays_linear_under_rcm() {
        let n = 200;
        let a = banded(n, 1, 5);
        let lu = SparseLu::factor(&a).unwrap();
        // A tridiagonal matrix factors with at most 3 entries per column in
        // L+U under an RCM ordering with diagonal-preferring pivoting.
        assert!(
            lu.factor_nnz() <= 4 * n,
            "fill blew up: {} nnz for n={n}",
            lu.factor_nnz()
        );
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0, 1], [1, 0]] has no usable diagonal pivots but is regular.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a = coo.to_csr();
        let lu = SparseLu::factor(&a).unwrap();
        let x = lu.solve(&Vector::from_slice(&[3.0, 5.0])).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-14 && (x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrices_are_rejected() {
        // Exactly singular: second row is twice the first.
        let dense = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let a = CsrMatrix::from_dense(&dense, 0.0);
        assert!(matches!(
            SparseLu::factor(&a),
            Err(LinalgError::Singular(_))
        ));
        // Structurally singular: an all-zero column.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 0, 1.0);
        assert!(matches!(
            SparseLu::factor(&coo.to_csr()),
            Err(LinalgError::Singular(_))
        ));
        // Complex variant reports singularity too.
        let symbolic = SparseLuSymbolic::analyze(&a).unwrap();
        assert!(SparseZLu::factor_shifted(&symbolic, &a, Complex::ZERO).is_err());
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let rect = CooMatrix::new(2, 3).to_csr();
        assert!(matches!(
            SparseLuSymbolic::analyze(&rect),
            Err(LinalgError::NotSquare { .. })
        ));
        let a = banded(4, 1, 2);
        let wrong = SparseLuSymbolic::natural(5);
        assert!(SparseLu::factor_with(&wrong, &a).is_err());
        let lu = SparseLu::factor(&a).unwrap();
        assert!(lu.solve(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn natural_ordering_is_also_correct() {
        let a = mna_like(16);
        let symbolic = SparseLuSymbolic::natural(16);
        let xref = Vector::from_fn(16, |i| 1.0 + (i % 3) as f64);
        let x = SparseLu::factor_with(&symbolic, &a)
            .unwrap()
            .solve(&a.matvec(&xref))
            .unwrap();
        assert!((&x - &xref).norm_inf() < 1e-10);
        assert_eq!(symbolic.order().len(), 16);
    }

    #[test]
    fn solver_backend_resolution() {
        assert!(!SolverBackend::Dense.use_sparse(10_000, 0));
        assert!(SolverBackend::Sparse.use_sparse(2, 1_000));
        assert!(SolverBackend::Auto.use_sparse(300, 256));
        assert!(!SolverBackend::Auto.use_sparse(100, 256));
        assert_eq!(SolverBackend::default(), SolverBackend::Auto);
    }
}
