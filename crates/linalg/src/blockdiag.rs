//! Block diagonalization of a real Schur form (Bavely & Stewart 1979, "An
//! algorithm for computing reducing subspaces by block diagonalization").
//!
//! From `A = Q T Qᵀ` the similarity `T = Y D Y⁻¹` with a unit upper
//! block-triangular `Y` splits off one cluster of `T`'s diagonal blocks at a
//! time: the cluster's rows are decoupled from all trailing rows by one
//! Sylvester solve `T₁₁ X − X T₂₂ = −T₁₂`. A cluster starts as one Schur
//! block and takes in the next one only where the decoupling would make `Y`
//! ill-conditioned (a column of `Y` longer than 100),
//! so clusters form only around close or defective eigenvalues; their block
//! of `D` is `T`'s own, quasi-triangular. A lone 2×2 block is then
//! standardized by its eigenvectors: a complex pair `α ± iβ` to
//! `[[α, β], [−β, α]]`, a real pair to two 1×1 blocks.
//!
//! In the coordinates of `V = Q Y` the Kronecker sums of `A` fall apart into
//! independent block pairs and triples: the two-mode solve
//! `(A ⊕ A) vec(W) = vec(R)` costs `O(n²)`, the three-mode solve
//! `(A ⊕ A ⊕ A) x = r` costs `O(n³)`.

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::schur::{SchurBlock, SchurDecomposition};
use crate::vector::Vector;
use crate::Result;

/// A diagonal block of the decoupled form `D`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiagBlock {
    /// A real eigenvalue `λ` at row `start`.
    Real {
        /// Row of the block.
        start: usize,
        /// The eigenvalue.
        lambda: f64,
    },
    /// A complex pair `α ± iβ` in the standardized form `[[α, β], [−β, α]]`
    /// at rows `start` and `start + 1`.
    Complex {
        /// First row of the block.
        start: usize,
        /// Real part of the pair.
        alpha: f64,
        /// Imaginary part of the pair.
        beta: f64,
    },
    /// A merged cluster of Schur blocks, rows `start..start + size`: `D`
    /// holds `T`'s diagonal block there, upper quasi-triangular.
    Cluster {
        /// First row of the block.
        start: usize,
        /// Rows of the block.
        size: usize,
    },
}

impl DiagBlock {
    /// First row of the block.
    pub fn start(&self) -> usize {
        match *self {
            DiagBlock::Real { start, .. }
            | DiagBlock::Complex { start, .. }
            | DiagBlock::Cluster { start, .. } => start,
        }
    }

    /// Rows of the block.
    pub fn size(&self) -> usize {
        match *self {
            DiagBlock::Real { .. } => 1,
            DiagBlock::Complex { .. } => 2,
            DiagBlock::Cluster { size, .. } => size,
        }
    }

    fn end(&self) -> usize {
        self.start() + self.size()
    }
}

/// A real Schur form `A = Q T Qᵀ` together with its block diagonalization
/// `A = V D V⁻¹`, `V = Q Y` (see the module docs).
#[derive(Debug, Clone)]
pub struct BlockDiagonalSchur {
    schur: SchurDecomposition,
    v: Matrix,
    v_inv: Matrix,
    blocks: Vec<DiagBlock>,
}

/// The outer block of a two-mode solve: a 1×1 block that adds nothing.
const NO_MODE: DiagBlock = DiagBlock::Real {
    start: 0,
    lambda: 0.0,
};

/// Longest column of `Y` (and so of `V = Q Y`) a decoupling may leave; a
/// step that would exceed it merges the next Schur block into the cluster
/// instead, and a 2×2 block whose eigenvector basis has a larger condition
/// number stays a cluster.
const GROWTH_BOUND: f64 = 100.0;

impl BlockDiagonalSchur {
    /// Block-diagonalizes `schur`, which it takes over.
    ///
    /// A Schur form whose eigenvalues are all close ends as one cluster,
    /// `D = T`, so this cannot fail.
    pub fn new(schur: SchurDecomposition) -> Self {
        let n = schur.dim();
        let mut v = schur.q().clone();
        let mut v_inv = schur.q().transpose();
        let t = schur.t();
        let sblocks = schur.blocks();
        let mut blocks = Vec::with_capacity(sblocks.len() + 1);
        let mut k = 0;
        while k < sblocks.len() {
            let r0 = sblocks[k].start;
            let mut end = k + 1;
            while end < sblocks.len() {
                let r1 = sblocks[end].start;
                if decouple(t, r0, r1, &sblocks[end..])
                    .is_some_and(|x| apply_decoupling(&mut v, &mut v_inv, r0, r1, &x))
                {
                    break;
                }
                end += 1;
            }
            let r1 = sblocks.get(end).map_or(n, |b| b.start);
            if end == k + 1 {
                standardize(t, sblocks[k], &mut v, &mut v_inv, &mut blocks);
            } else {
                blocks.push(DiagBlock::Cluster {
                    start: r0,
                    size: r1 - r0,
                });
            }
            k = end;
        }
        blocks.shrink_to_fit();
        BlockDiagonalSchur {
            schur,
            v,
            v_inv,
            blocks,
        }
    }

    /// The Schur form the decoupling was built from.
    pub fn schur(&self) -> &SchurDecomposition {
        &self.schur
    }

    /// The decoupling basis `V = Q Y`.
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// `V⁻¹ = Y⁻¹ Qᵀ`.
    pub fn v_inv(&self) -> &Matrix {
        &self.v_inv
    }

    /// The diagonal blocks of `D`, in order.
    pub fn blocks(&self) -> &[DiagBlock] {
        &self.blocks
    }

    fn dim(&self) -> usize {
        self.schur.dim()
    }

    /// `V⁻¹ x`: a vector in the decoupled coordinates.
    pub fn to_coords(&self, x: &Vector) -> Vector {
        self.v_inv.matvec(x)
    }

    /// Heap bytes held: the Schur pair with its block list, `V`, `V⁻¹` and
    /// the block list of `D`.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(self.schur.q().as_slice())
            + std::mem::size_of_val(self.schur.t().as_slice())
            + std::mem::size_of_val(self.schur.blocks())
            + std::mem::size_of_val(self.v.as_slice())
            + std::mem::size_of_val(self.v_inv.as_slice())
            + std::mem::size_of_val(self.blocks.as_slice())
    }

    /// Entry `(r, c)` of `D`, both inside `block`.
    fn d_entry(&self, block: &DiagBlock, r: usize, c: usize) -> f64 {
        match *block {
            DiagBlock::Real { lambda, .. } => lambda,
            DiagBlock::Complex {
                start, alpha, beta, ..
            } => match (r - start, c - start) {
                (0, 1) => beta,
                (1, 0) => -beta,
                _ => alpha,
            },
            DiagBlock::Cluster { .. } => self.schur.t()[(r, c)],
        }
    }

    /// The Schur blocks inside `block`: itself unless it is a cluster.
    fn sub_blocks(&self, block: &DiagBlock) -> Vec<SchurBlock> {
        match *block {
            DiagBlock::Cluster { start, size } => self
                .schur
                .blocks()
                .iter()
                .filter(|b| b.start >= start && b.start < start + size)
                .copied()
                .collect(),
            _ => vec![SchurBlock {
                start: block.start(),
                size: block.size(),
            }],
        }
    }

    /// Solves `(D ⊕ D) vec(W) = vec(R)`, i.e. `D W + W Dᵀ = R`, in place on
    /// the column-major `vec(R)`, which holds `vec(W)` on return: one
    /// independent block pair per diagonal block pair of `D`, `O(n²)` in all.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for a buffer that is not `n²`
    /// long, [`LinalgError::Singular`] when two eigenvalues sum to zero.
    pub fn solve_kron2_into(&self, w: &mut [f64]) -> Result<()> {
        let n = self.dim();
        check_len("two-mode solve", w.len(), n * n)?;
        for j in &self.blocks {
            self.solve_pair(w, 0, &NO_MODE, j)?;
        }
        Ok(())
    }

    /// Solves `(D ⊕ D ⊕ D) x = r` in place on the `n × n²` row-major buffer
    /// whose row `e` is `vec(R_e)` (column-major): `D X_e + X_e Dᵀ +
    /// Σ_f D[e, f] X_f = R_e` for every `e`. One independent block triple
    /// per diagonal block triple of `D`, `O(n³)` in all.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for a buffer that is not `n³`
    /// long, [`LinalgError::Singular`] when three eigenvalues sum to zero.
    pub fn solve_kron3_into(&self, x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        check_len("three-mode solve", x.len(), n * n * n)?;
        for e in &self.blocks {
            for j in &self.blocks {
                self.solve_pair(x, n * n, e, j)?;
            }
        }
        Ok(())
    }

    /// Solves the runs of the outer block pair `(e, j)` along the inner
    /// mode. Run `(e', j')` is the `n` entries from `e'·stride + j'·n`.
    ///
    /// A complex outer block is the real and imaginary part of one complex
    /// run on which `D`'s block acts as `μ = α − iβ`; with two complex outer
    /// blocks the second is split by its eigenvectors `(1, ±i)` into two
    /// complex runs. Each complex run is then one shifted solve with `D`
    /// along the inner mode. A cluster among the outer blocks takes
    /// [`BlockDiagonalSchur::solve_pair_generic`].
    fn solve_pair(&self, x: &mut [f64], stride: usize, e: &DiagBlock, j: &DiagBlock) -> Result<()> {
        let n = self.dim();
        let run = |ei: usize, ji: usize| {
            let off = ei * stride + ji * n;
            off..off + n
        };
        match (*e, *j) {
            (
                DiagBlock::Real {
                    start: e0,
                    lambda: le,
                },
                DiagBlock::Real {
                    start: j0,
                    lambda: lj,
                },
            ) => self.solve_run_real(le + lj, &mut x[run(e0, j0)]),
            (
                DiagBlock::Real { start: e0, lambda },
                DiagBlock::Complex {
                    start: j0,
                    alpha,
                    beta,
                },
            ) => {
                let [re, im] = disjoint(x, [run(e0, j0), run(e0, j0 + 1)])?;
                self.solve_run_complex(Complex::new(lambda + alpha, -beta), re, im)
            }
            (
                DiagBlock::Complex {
                    start: e0,
                    alpha,
                    beta,
                },
                DiagBlock::Real { start: j0, lambda },
            ) => {
                let [re, im] = disjoint(x, [run(e0, j0), run(e0 + 1, j0)])?;
                self.solve_run_complex(Complex::new(lambda + alpha, -beta), re, im)
            }
            (
                DiagBlock::Complex {
                    start: e0,
                    alpha: ea,
                    beta: eb,
                },
                DiagBlock::Complex {
                    start: j0,
                    alpha: ja,
                    beta: jb,
                },
            ) => {
                let [x00, x01, x10, x11] = disjoint(
                    x,
                    [
                        run(e0, j0),
                        run(e0, j0 + 1),
                        run(e0 + 1, j0),
                        run(e0 + 1, j0 + 1),
                    ],
                )?;
                // z_b = x_0b + i x_1b; c± = z_0 ∓ i z_1 (twice the
                // coordinates along (1, ±i)) go to (x00, x10) and (x11, x01).
                for k in 0..n {
                    let (a, b, c, d) = (x00[k], x01[k], x10[k], x11[k]);
                    x00[k] = a + d;
                    x10[k] = c - b;
                    x11[k] = a - d;
                    x01[k] = c + b;
                }
                let mu_e = Complex::new(ea, -eb);
                self.solve_run_complex(mu_e + Complex::new(ja, jb), x00, x10)?;
                self.solve_run_complex(mu_e + Complex::new(ja, -jb), x11, x01)?;
                // z_0 = (c₊ + c₋)/2, z_1 = i(c₊ − c₋)/2.
                for k in 0..n {
                    let (pr, pi, mr, mi) = (x00[k], x10[k], x11[k], x01[k]);
                    x00[k] = 0.5 * (pr + mr);
                    x10[k] = 0.5 * (pi + mi);
                    x01[k] = 0.5 * (mi - pi);
                    x11[k] = 0.5 * (pr - mr);
                }
                Ok(())
            }
            _ => self.solve_pair_generic(x, stride, e, j),
        }
    }

    /// `(s + D) y = r` along the inner mode for a real run.
    fn solve_run_real(&self, s: f64, x: &mut [f64]) -> Result<()> {
        for block in &self.blocks {
            match *block {
                DiagBlock::Real { start: i, lambda } => {
                    x[i] /= nonzero(s + lambda)?;
                }
                DiagBlock::Complex {
                    start: i,
                    alpha,
                    beta,
                } => {
                    let a = s + alpha;
                    let det = nonzero(a * a + beta * beta)?;
                    let (r0, r1) = (x[i], x[i + 1]);
                    x[i] = (a * r0 - beta * r1) / det;
                    x[i + 1] = (beta * r0 + a * r1) / det;
                }
                DiagBlock::Cluster { start, size } => {
                    let mut im = vec![0.0; x.len()];
                    self.solve_cluster_run(Complex::from_real(s), start, size, x, &mut im)?;
                }
            }
        }
        Ok(())
    }

    /// `(s + D) y = r` along the inner mode for the complex run `re + i·im`.
    fn solve_run_complex(&self, s: Complex, re: &mut [f64], im: &mut [f64]) -> Result<()> {
        for block in &self.blocks {
            match *block {
                DiagBlock::Real { start: i, lambda } => {
                    let y = Complex::new(re[i], im[i]) * recip(s + Complex::from_real(lambda))?;
                    (re[i], im[i]) = (y.re, y.im);
                }
                DiagBlock::Complex {
                    start: i,
                    alpha,
                    beta,
                } => {
                    let a = s + Complex::from_real(alpha);
                    let inv = recip(a * a + Complex::from_real(beta * beta))?;
                    let (r0, r1) = (
                        Complex::new(re[i], im[i]),
                        Complex::new(re[i + 1], im[i + 1]),
                    );
                    let y0 = (a * r0 - r1 * beta) * inv;
                    let y1 = (r0 * beta + a * r1) * inv;
                    (re[i], im[i]) = (y0.re, y0.im);
                    (re[i + 1], im[i + 1]) = (y1.re, y1.im);
                }
                DiagBlock::Cluster { start, size } => {
                    self.solve_cluster_run(s, start, size, re, im)?;
                }
            }
        }
        Ok(())
    }

    /// `(s + T_cc) y = r` on the rows of a cluster, by back-substitution
    /// over its Schur blocks.
    fn solve_cluster_run(
        &self,
        s: Complex,
        start: usize,
        size: usize,
        re: &mut [f64],
        im: &mut [f64],
    ) -> Result<()> {
        let t = self.schur.t();
        let end = start + size;
        let sub = self.sub_blocks(&DiagBlock::Cluster { start, size });
        for b in sub.iter().rev() {
            let mut r = [Complex::ZERO; 2];
            for (l, rl) in r.iter_mut().enumerate().take(b.size) {
                let k = b.start + l;
                *rl = Complex::new(re[k], im[k]);
                for c in b.start + b.size..end {
                    *rl -= Complex::new(re[c], im[c]) * t[(k, c)];
                }
            }
            let k = b.start;
            let y = if b.size == 1 {
                [
                    r[0] * recip(s + Complex::from_real(t[(k, k)]))?,
                    Complex::ZERO,
                ]
            } else {
                let (m00, m01) = (
                    s + Complex::from_real(t[(k, k)]),
                    Complex::from_real(t[(k, k + 1)]),
                );
                let (m10, m11) = (
                    Complex::from_real(t[(k + 1, k)]),
                    s + Complex::from_real(t[(k + 1, k + 1)]),
                );
                let inv = recip(m00 * m11 - m01 * m10)?;
                [
                    (m11 * r[0] - m01 * r[1]) * inv,
                    (m00 * r[1] - m10 * r[0]) * inv,
                ]
            };
            for (l, yl) in y.iter().enumerate().take(b.size) {
                (re[k + l], im[k + l]) = (yl.re, yl.im);
            }
        }
        Ok(())
    }

    /// The runs of the outer block pair `(e, j)` by back-substitution over
    /// the Schur blocks of every mode, each block triple a dense solve of at
    /// most 8 unknowns: the path of any pair with a cluster.
    fn solve_pair_generic(
        &self,
        x: &mut [f64],
        stride: usize,
        e: &DiagBlock,
        j: &DiagBlock,
    ) -> Result<()> {
        let n = self.dim();
        let at = |ei: usize, ji: usize| ei * stride + ji * n;
        let inner: Vec<(DiagBlock, SchurBlock)> = self
            .blocks
            .iter()
            .flat_map(|blk| self.sub_blocks(blk).into_iter().map(|sb| (*blk, sb)))
            .collect();
        for a in self.sub_blocks(e).iter().rev() {
            for b in self.sub_blocks(j).iter().rev() {
                // Couplings to the solved runs of the same outer blocks.
                for ei in a.start..a.start + a.size {
                    for ji in b.start..b.start + b.size {
                        for e2 in a.start + a.size..e.end() {
                            let coef = self.d_entry(e, ei, e2);
                            axpy_run(x, at(ei, ji), at(e2, ji), n, -coef)?;
                        }
                        for j2 in b.start + b.size..j.end() {
                            let coef = self.d_entry(j, ji, j2);
                            axpy_run(x, at(ei, ji), at(ei, j2), n, -coef)?;
                        }
                    }
                }
                for (blk, c) in inner.iter().rev() {
                    let (sa, sb, sc) = (a.size, b.size, c.size);
                    let dim = sa * sb * sc;
                    let index = |ea: usize, jb: usize, ic: usize| (ea * sb + jb) * sc + ic;
                    let mut rhs = [0.0; 8];
                    let mut m = [0.0; 64];
                    for ea in 0..sa {
                        for jb in 0..sb {
                            let base = at(a.start + ea, b.start + jb);
                            for ic in 0..sc {
                                let i = c.start + ic;
                                let mut acc = x[base + i];
                                for i2 in c.start + c.size..blk.end() {
                                    acc -= self.d_entry(blk, i, i2) * x[base + i2];
                                }
                                let row = index(ea, jb, ic);
                                rhs[row] = acc;
                                for k in 0..sa {
                                    m[row * dim + index(k, jb, ic)] +=
                                        self.d_entry(e, a.start + ea, a.start + k);
                                }
                                for k in 0..sb {
                                    m[row * dim + index(ea, k, ic)] +=
                                        self.d_entry(j, b.start + jb, b.start + k);
                                }
                                for k in 0..sc {
                                    m[row * dim + index(ea, jb, k)] +=
                                        self.d_entry(blk, i, c.start + k);
                                }
                            }
                        }
                    }
                    if !solve_dense(dim, &mut m[..dim * dim], &mut rhs[..dim]) {
                        return Err(singular());
                    }
                    for ea in 0..sa {
                        for jb in 0..sb {
                            let base = at(a.start + ea, b.start + jb);
                            for ic in 0..sc {
                                x[base + c.start + ic] = rhs[index(ea, jb, ic)];
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// `X` with `T₁₁ X − X T₂₂ = −T₁₂` for the rows `r0..r1` of `T` against
/// the trailing rows `r1..n` (whose Schur blocks are `trailing`), column
/// block by column block; `None` where the equation is singular.
fn decouple(t: &Matrix, r0: usize, r1: usize, trailing: &[SchurBlock]) -> Option<Matrix> {
    let (p, m) = (r1 - r0, t.rows() - r1);
    let mut x = Matrix::zeros(p, m);
    for cb in trailing {
        let (c0, s) = (cb.start - r1, cb.size);
        let dim = p * s;
        let mut rhs = vec![0.0; dim];
        let mut a = vec![0.0; dim * dim];
        for i in 0..p {
            for cc in 0..s {
                let col = r1 + c0 + cc;
                let row = i * s + cc;
                let mut acc = -t[(r0 + i, col)];
                for l in 0..c0 {
                    acc += x[(i, l)] * t[(r1 + l, col)];
                }
                rhs[row] = acc;
                for i2 in 0..p {
                    a[row * dim + i2 * s + cc] += t[(r0 + i, r0 + i2)];
                }
                for cc2 in 0..s {
                    a[row * dim + i * s + cc2] -= t[(r1 + c0 + cc2, col)];
                }
            }
        }
        if !solve_dense(dim, &mut a, &mut rhs) {
            return None;
        }
        for i in 0..p {
            for cc in 0..s {
                x[(i, c0 + cc)] = rhs[i * s + cc];
            }
        }
    }
    Some(x)
}

/// Folds the decoupling `X` of rows `r0..r1` into `V ← V [[I, X], [0, I]]`
/// and `V⁻¹ ← [[I, −X], [0, I]] V⁻¹`, unless a column of the new `V` would
/// be longer than [`GROWTH_BOUND`] (or `X` is not finite): then nothing
/// changes and the call returns `false`.
fn apply_decoupling(v: &mut Matrix, v_inv: &mut Matrix, r0: usize, r1: usize, x: &Matrix) -> bool {
    if !x.is_finite() {
        return false;
    }
    let n = v.rows();
    let m = n - r1;
    let mut update = Matrix::zeros(n, m);
    for r in 0..n {
        let row = update.row_mut(r);
        for (i, &vi) in v.row(r)[r0..r1].iter().enumerate() {
            if vi != 0.0 {
                for (u, &xi) in row.iter_mut().zip(x.row(i)) {
                    *u += vi * xi;
                }
            }
        }
    }
    let mut norms = vec![0.0; m];
    for r in 0..n {
        for ((nrm, &u), &vr) in norms.iter_mut().zip(update.row(r)).zip(&v.row(r)[r1..]) {
            *nrm += (vr + u) * (vr + u);
        }
    }
    if !norms.iter().all(|&s| s <= GROWTH_BOUND * GROWTH_BOUND) {
        return false;
    }
    for r in 0..n {
        for (vr, &u) in v.row_mut(r)[r1..].iter_mut().zip(update.row(r)) {
            *vr += u;
        }
    }
    for i in 0..r1 - r0 {
        for (l, &xil) in x.row(i).iter().enumerate() {
            if xil != 0.0 {
                for c in 0..n {
                    let sub = xil * v_inv[(r1 + l, c)];
                    v_inv[(r0 + i, c)] -= sub;
                }
            }
        }
    }
    true
}

/// Pushes the block(s) of `D` for the lone Schur block `b`, standardizing
/// a 2×2 block by its eigenvectors `S` (`V ← V S`, `V⁻¹ ← S⁻¹ V⁻¹` on its
/// two columns/rows) unless `S` is worse conditioned than
/// [`GROWTH_BOUND`]; such a block stays a cluster.
fn standardize(
    t: &Matrix,
    b: SchurBlock,
    v: &mut Matrix,
    v_inv: &mut Matrix,
    out: &mut Vec<DiagBlock>,
) {
    let k = b.start;
    if b.size == 1 {
        out.push(DiagBlock::Real {
            start: k,
            lambda: t[(k, k)],
        });
        return;
    }
    let (a, bq, c, d) = (t[(k, k)], t[(k, k + 1)], t[(k + 1, k)], t[(k + 1, k + 1)]);
    let mean = 0.5 * (a + d);
    let disc = 0.25 * (a - d) * (a - d) + bq * c;
    // The columns of S; a real pair's two eigenvalues.
    let (cols, real_pair) = if disc < 0.0 {
        // T (u + iw) = (α + iβ)(u + iw)  ⇔  T [u w] = [u w] [[α, β], [−β, α]].
        let beta = (-disc).sqrt();
        let uw = if bq.abs() >= c.abs() {
            [[bq, mean - a], [0.0, beta]]
        } else {
            [[mean - d, c], [beta, 0.0]]
        };
        (uw, None)
    } else {
        let sq = disc.sqrt();
        let (l1, l2) = (mean + sq, mean - sq);
        let eig = |l: f64| {
            if bq.abs() + (a - l).abs() >= c.abs() + (d - l).abs() {
                [bq, l - a]
            } else {
                [l - d, c]
            }
        };
        ([eig(l1), eig(l2)], Some((l1, l2)))
    };
    // S = [s0 s1] as columns, scaled so that its columns average unit length.
    let fro2: f64 = cols.iter().flatten().map(|x| x * x).sum();
    let scale = (2.0 / fro2).sqrt();
    let sm = [
        [cols[0][0] * scale, cols[1][0] * scale],
        [cols[0][1] * scale, cols[1][1] * scale],
    ];
    let det = sm[0][0] * sm[1][1] - sm[0][1] * sm[1][0];
    // cond₂(S) + 1/cond₂(S) = ‖S‖_F² / |det S|, and ‖S‖_F² = 2.
    let conditioned = det.abs() > 0.0 && 2.0 / det.abs() <= GROWTH_BOUND;
    if !conditioned {
        out.push(DiagBlock::Cluster { start: k, size: 2 });
        return;
    }
    let inv = [
        [sm[1][1] / det, -sm[0][1] / det],
        [-sm[1][0] / det, sm[0][0] / det],
    ];
    for r in 0..v.rows() {
        let row = &mut v.row_mut(r)[k..k + 2];
        let (p, q) = (row[0], row[1]);
        row[0] = p * sm[0][0] + q * sm[1][0];
        row[1] = p * sm[0][1] + q * sm[1][1];
    }
    for c in 0..v_inv.cols() {
        let (p, q) = (v_inv[(k, c)], v_inv[(k + 1, c)]);
        v_inv[(k, c)] = inv[0][0] * p + inv[0][1] * q;
        v_inv[(k + 1, c)] = inv[1][0] * p + inv[1][1] * q;
    }
    match real_pair {
        Some((l1, l2)) => out.extend([
            DiagBlock::Real {
                start: k,
                lambda: l1,
            },
            DiagBlock::Real {
                start: k + 1,
                lambda: l2,
            },
        ]),
        None => out.push(DiagBlock::Complex {
            start: k,
            alpha: mean,
            beta: (-disc).sqrt(),
        }),
    }
}

/// `x[dst..dst+n] += alpha · x[src..src+n]` for two disjoint runs.
fn axpy_run(x: &mut [f64], dst: usize, src: usize, n: usize, alpha: f64) -> Result<()> {
    if alpha != 0.0 {
        let [d, s] = disjoint(x, [dst..dst + n, src..src + n])?;
        for (d, &s) in d.iter_mut().zip(s.iter()) {
            *d += alpha * s;
        }
    }
    Ok(())
}

/// Disjoint mutable runs of one buffer (the runs of distinct index pairs
/// never overlap; the buffer length is checked on entry).
fn disjoint<const K: usize>(
    x: &mut [f64],
    runs: [std::ops::Range<usize>; K],
) -> Result<[&mut [f64]; K]> {
    x.get_disjoint_mut(runs)
        .map_err(|e| LinalgError::DimensionMismatch(format!("kronecker-sum solve: runs {e}")))
}

/// Solves the `dim × dim` row-major system `a y = b` in place by Gaussian
/// elimination with partial pivoting; `false` on a zero pivot.
fn solve_dense(dim: usize, a: &mut [f64], b: &mut [f64]) -> bool {
    for k in 0..dim {
        let piv = (k..dim)
            .max_by(|&p, &q| a[p * dim + k].abs().total_cmp(&a[q * dim + k].abs()))
            .unwrap_or(k);
        if a[piv * dim + k] == 0.0 {
            return false;
        }
        if piv != k {
            for c in 0..dim {
                a.swap(piv * dim + c, k * dim + c);
            }
            b.swap(piv, k);
        }
        for i in k + 1..dim {
            let f = a[i * dim + k] / a[k * dim + k];
            if f != 0.0 {
                for c in k + 1..dim {
                    a[i * dim + c] -= f * a[k * dim + c];
                }
                b[i] -= f * b[k];
            }
        }
    }
    for i in (0..dim).rev() {
        let mut acc = b[i];
        for c in i + 1..dim {
            acc -= a[i * dim + c] * b[c];
        }
        b[i] = acc / a[i * dim + i];
    }
    true
}

fn nonzero(d: f64) -> Result<f64> {
    if d == 0.0 {
        Err(singular())
    } else {
        Ok(d)
    }
}

fn recip(d: Complex) -> Result<Complex> {
    if d.norm_sqr() == 0.0 {
        Err(singular())
    } else {
        Ok(d.recip())
    }
}

fn singular() -> LinalgError {
    LinalgError::Singular("kronecker-sum solve: eigenvalues sum to zero".into())
}

fn check_len(what: &str, len: usize, expected: usize) -> Result<()> {
    if len == expected {
        Ok(())
    } else {
        Err(LinalgError::DimensionMismatch(format!(
            "{what}: buffer has {len} entries, expected {expected}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schur::tests::{fig4_cluster_matrix, jordan_matrix};

    /// `D` assembled densely from the block list.
    fn dense_d(bd: &BlockDiagonalSchur) -> Matrix {
        let n = bd.dim();
        let mut d = Matrix::zeros(n, n);
        for blk in bd.blocks() {
            for r in blk.start()..blk.end() {
                for c in blk.start()..blk.end() {
                    d[(r, c)] = bd.d_entry(blk, r, c);
                }
            }
        }
        d
    }

    /// `D X_e + X_e Dᵀ + Σ_f D[e, f] X_f` for every row `e` = `vec(X_e)`.
    fn kron3_apply(d: &Matrix, x: &[f64]) -> Vec<f64> {
        let n = d.rows();
        let at = |e: usize, i: usize, j: usize| e * n * n + j * n + i;
        let mut out = vec![0.0; n * n * n];
        for e in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let mut acc = 0.0;
                    for k in 0..n {
                        acc += d[(e, k)] * x[at(k, i, j)]
                            + d[(i, k)] * x[at(e, k, j)]
                            + d[(j, k)] * x[at(e, i, k)];
                    }
                    out[at(e, i, j)] = acc;
                }
            }
        }
        out
    }

    fn rel_residual(applied: &[f64], rhs: &[f64]) -> f64 {
        let peak = rhs.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
        let diff = applied
            .iter()
            .zip(rhs)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
        diff / peak
    }

    /// `V D V⁻¹` rebuilds `A`, `V V⁻¹ = I`, the blocks tile the diagonal
    /// and `V`'s columns respect the growth bound; then both solves have
    /// small residuals, and the closed-form path agrees with the generic
    /// back-substitution on every block pair.
    fn check(a: &Matrix) -> BlockDiagonalSchur {
        let n = a.rows();
        let bd = BlockDiagonalSchur::new(SchurDecomposition::new(a).unwrap());
        let d = dense_d(&bd);
        let back = bd.v().matmul(&d).matmul(bd.v_inv());
        let scale = a.max_abs().max(1e-300);
        assert!(
            (&back - a).max_abs() < 1e-12 * scale * n as f64,
            "reconstruction error {:.3e}",
            (&back - a).max_abs()
        );
        let eye = bd.v().matmul(bd.v_inv());
        assert!((&eye - &Matrix::identity(n)).max_abs() < 1e-10);
        assert_eq!(bd.blocks().iter().map(DiagBlock::size).sum::<usize>(), n);
        for c in 0..n {
            let len = bd.v().col(c).norm2();
            assert!(len <= GROWTH_BOUND * 1.5, "column {c}: {len}");
        }

        let rhs2: Vec<f64> = (0..n * n).map(|k| ((k * 7) % 11) as f64 - 5.0).collect();
        let mut w = rhs2.clone();
        bd.solve_kron2_into(&mut w).unwrap();
        let wm = Matrix::from_fn(n, n, |i, j| w[i + j * n]);
        let applied = &d.matmul(&wm) + &wm.matmul(&d.transpose());
        let applied: Vec<f64> = (0..n * n).map(|k| applied[(k % n, k / n)]).collect();
        let res2 = rel_residual(&applied, &rhs2);
        assert!(res2 < 1e-12, "two-mode residual {res2:.3e}");

        let rhs3: Vec<f64> = (0..n * n * n)
            .map(|k| ((k * 11 + 3) % 13) as f64 - 6.0)
            .collect();
        let mut x = rhs3.clone();
        bd.solve_kron3_into(&mut x).unwrap();
        let res3 = rel_residual(&kron3_apply(&d, &x), &rhs3);
        assert!(res3 < 1e-12, "three-mode residual {res3:.3e}");
        let mut generic = rhs3.clone();
        for e in bd.blocks() {
            for j in bd.blocks() {
                bd.solve_pair_generic(&mut generic, n * n, e, j).unwrap();
            }
        }
        let gap = rel_residual(&generic, &x);
        assert!(gap < 1e-12, "closed form vs back-substitution {gap:.3e}");
        // Wrong shapes are typed errors, not panics.
        assert!(bd.solve_kron3_into(&mut x[1..]).is_err());
        assert!(bd.solve_kron2_into(&mut w[1..]).is_err());
        bd
    }

    fn kinds(bd: &BlockDiagonalSchur) -> (usize, usize, usize) {
        let mut k = (0, 0, 0);
        for b in bd.blocks() {
            match b {
                DiagBlock::Real { .. } => k.0 += 1,
                DiagBlock::Complex { .. } => k.1 += 1,
                DiagBlock::Cluster { .. } => k.2 += 1,
            }
        }
        k
    }

    #[test]
    fn random_matrices_decouple_into_small_blocks() {
        for (n, seed) in [(1, 3u64), (2, 5), (5, 7), (9, 11), (14, 13)] {
            let mut state = seed;
            let a = Matrix::from_fn(n, n, |_, _| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) * 2.0 - 1.0
            });
            let bd = check(&a);
            assert_eq!(kinds(&bd).2, 0, "n = {n}: no cluster expected");
        }
    }

    /// The 18-state receiver matrix: its repeated poles at −0.01 are
    /// uncoupled to ~1e-11, so they split into 1×1 and 2×2 blocks like the
    /// rest of the spectrum, with a well-conditioned `V`.
    #[test]
    fn fig4_repeated_poles_decouple() {
        let bd = check(&fig4_cluster_matrix());
        let (real, complex, cluster) = kinds(&bd);
        assert_eq!((real + 2 * complex, cluster), (18, 0));
    }

    /// A Jordan block among other blocks, scrambled by a non-orthogonal
    /// similarity: its three eigenvalues merge into one cluster, the complex
    /// pair and the real eigenvalue split off, and the cluster's pairs with
    /// them take the back-substitution paths.
    #[test]
    fn jordan_cluster_merges_among_other_blocks() {
        let a0 = Matrix::from_rows(&[
            &[-1.0, 1.0, 0.0, 0.3, 0.2, 0.1],
            &[0.0, -1.0, 1.0, 0.1, -0.2, 0.4],
            &[0.0, 0.0, -1.0, 0.5, 0.1, 0.2],
            &[0.0, 0.0, 0.0, -2.0, 3.0, 0.3],
            &[0.0, 0.0, 0.0, -1.0, -2.0, 0.1],
            &[0.0, 0.0, 0.0, 0.0, 0.0, -0.5],
        ])
        .unwrap();
        let p = Matrix::from_fn(6, 6, |i, j| {
            (i == j) as u8 as f64 + 0.3 * (((i * 5 + j * 3) % 7) as f64 / 7.0 - 0.5)
        });
        let a = p.matmul(&a0).matmul(&p.inverse().unwrap());
        let bd = check(&a);
        let (real, complex, cluster) = kinds(&bd);
        assert_eq!((real, complex, cluster), (1, 1, 1));
        assert!(bd.blocks().contains(&DiagBlock::Cluster {
            start: bd.blocks().iter().find(|b| b.size() == 3).unwrap().start(),
            size: 3
        }));
    }

    /// A defective Jordan block cannot be diagonalized: it stays one
    /// cluster, `D = T`.
    #[test]
    fn defective_jordan_block_is_one_cluster() {
        let bd = check(&jordan_matrix());
        assert_eq!(bd.blocks(), &[DiagBlock::Cluster { start: 0, size: 3 }]);
    }

    /// A complex 2×2 block with real-eigenvalue 2×2 neighbours, as
    /// `from_parts` can hand in: the real pairs split into 1×1 blocks, the
    /// complex pair is standardized, and a near-defective real pair stays a
    /// cluster.
    #[test]
    fn two_by_two_blocks_are_standardized() {
        let t = Matrix::from_rows(&[
            &[-1.0, 2.0, 0.3, 0.1, 0.2, -0.4],
            &[-1.5, -1.2, 0.2, -0.3, 0.5, 0.1],
            &[0.0, 0.0, -3.0, 0.5, 0.4, 0.2],
            &[0.0, 0.0, 0.4, -2.0, -0.1, 0.3],
            &[0.0, 0.0, 0.0, 0.0, -5.0, 1.0],
            &[0.0, 0.0, 0.0, 0.0, 1e-12, -5.0],
        ])
        .unwrap();
        let blocks = [(0, 2), (2, 2), (4, 2)]
            .map(|(start, size)| SchurBlock { start, size })
            .to_vec();
        let schur = SchurDecomposition::from_parts(Matrix::identity(6), t.clone(), blocks);
        let bd = BlockDiagonalSchur::new(schur);
        let d = dense_d(&bd);
        let back = bd.v().matmul(&d).matmul(bd.v_inv());
        assert!((&back - &t).max_abs() < 1e-12);
        assert!(matches!(
            bd.blocks()[0],
            DiagBlock::Complex { start: 0, .. }
        ));
        assert!(matches!(bd.blocks()[1], DiagBlock::Real { start: 2, .. }));
        assert!(matches!(bd.blocks()[2], DiagBlock::Real { start: 3, .. }));
        assert_eq!(bd.blocks()[3], DiagBlock::Cluster { start: 4, size: 2 });
        let mut x: Vec<f64> = (0..216).map(|k| (k % 5) as f64 - 2.0).collect();
        let rhs = x.clone();
        bd.solve_kron3_into(&mut x).unwrap();
        assert!(rel_residual(&kron3_apply(&d, &x), &rhs) < 1e-12);
    }

    #[test]
    fn singular_sums_are_reported() {
        // 2 + (−2) = 0 and 2 + (−1) + (−1) = 0.
        let a = Matrix::from_diagonal(&[2.0, -1.0, -2.0]);
        let bd = BlockDiagonalSchur::new(SchurDecomposition::new(&a).unwrap());
        assert!(matches!(
            bd.solve_kron2_into(&mut [1.0; 9]),
            Err(LinalgError::Singular(_))
        ));
        assert!(matches!(
            bd.solve_kron3_into(&mut [1.0; 27]),
            Err(LinalgError::Singular(_))
        ));
    }
}
