//! Sparse matrices (COO / CSR).
//!
//! Circuit Jacobians and the quadratic/cubic coupling tensors `G₂`, `G₃`
//! produced by modified nodal analysis are extremely sparse; `G₂` in
//! particular has shape `n × n²` and must never be stored densely for
//! realistic `n`. [`CsrMatrix`] supports the rectangular shapes and the
//! `matvec` / `mat-times-Kronecker-column` products the MOR flow needs.

use crate::matrix::Matrix;
use crate::op::LinearOp;
use crate::vector::Vector;

/// A coordinate-format (triplet) sparse matrix builder.
///
/// ```
/// use vamor_linalg::CooMatrix;
/// let mut coo = CooMatrix::new(2, 3);
/// coo.push(0, 0, 1.0);
/// coo.push(1, 2, -4.0);
/// coo.push(1, 2, 1.0); // duplicates accumulate
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(1, 2), -3.0);
/// assert_eq!(csr.nnz(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty builder with the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            triplets: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (possibly duplicate) triplets.
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// True if no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    /// Appends an entry; duplicates are summed on conversion, in push order.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "coo push ({row},{col}) out of bounds"
        );
        if value != 0.0 {
            self.triplets.push((row, col, value));
        }
    }

    /// Converts to compressed sparse row format, summing duplicates in the
    /// order they were pushed and dropping explicit zeros. The triplet list
    /// itself is not cloned: only a permutation of indices into it is
    /// sorted. Prefer [`CooMatrix::into_csr`] when the builder is no longer
    /// needed.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut order: Vec<usize> = (0..self.triplets.len()).collect();
        // The push index breaks ties, so duplicates keep their push order.
        order.sort_unstable_by_key(|&k| {
            let (r, c, _) = self.triplets[k];
            (r, c, k)
        });
        assemble_csr(
            self.rows,
            self.cols,
            order.into_iter().map(|k| self.triplets[k]),
        )
    }

    /// Consumes the builder and converts to CSR, sorting the triplet storage
    /// in place with a stable sort, so duplicates are summed in push order
    /// as by [`CooMatrix::to_csr`].
    pub fn into_csr(mut self) -> CsrMatrix {
        self.triplets.sort_by_key(|&(r, c, _)| (r, c));
        let (rows, cols) = (self.rows, self.cols);
        assemble_csr(rows, cols, self.triplets.into_iter())
    }
}

/// Builds a CSR matrix from triplets already sorted by `(row, col)`,
/// accumulating duplicates and dropping entries that sum to zero.
fn assemble_csr(
    rows: usize,
    cols: usize,
    sorted: impl Iterator<Item = (usize, usize, f64)>,
) -> CsrMatrix {
    let mut indptr = vec![0usize; rows + 1];
    let mut indices = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut current: Option<(usize, usize, f64)> = None;
    fn flush(
        entry: Option<(usize, usize, f64)>,
        indptr: &mut [usize],
        indices: &mut Vec<usize>,
        values: &mut Vec<f64>,
    ) {
        if let Some((r, c, v)) = entry {
            if v != 0.0 {
                indices.push(c);
                values.push(v);
                indptr[r + 1] += 1;
            }
        }
    }
    for (r, c, v) in sorted {
        match current {
            Some((cr, cc, ref mut cv)) if cr == r && cc == c => *cv += v,
            _ => {
                flush(current.take(), &mut indptr, &mut indices, &mut values);
                current = Some((r, c, v));
            }
        }
    }
    flush(current, &mut indptr, &mut indices, &mut values);
    // The pushes leave up to twice the stored entries allocated; a matrix
    // kept for a system's lifetime (a projected ROM's dense `G₃ᵣ`) would
    // hold that slack for good.
    indices.shrink_to_fit();
    values.shrink_to_fit();
    for r in 0..rows {
        indptr[r + 1] += indptr[r];
    }
    CsrMatrix {
        rows,
        cols,
        indptr,
        indices,
        values,
    }
}

/// A compressed sparse row matrix.
///
/// Invariant maintained by every constructor in this crate: the column
/// indices within each row are strictly increasing (duplicates are summed on
/// assembly), so row lookups can binary-search.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// An all-zero sparse matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The sparse identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds a CSR matrix from a dense one, dropping entries with
    /// `|a_ij| <= drop_tol`.
    pub fn from_dense(a: &Matrix, drop_tol: f64) -> Self {
        let mut coo = CooMatrix::new(a.rows(), a.cols());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let v = a[(i, j)];
                if v.abs() > drop_tol {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(row, col)` (zero if not stored). Binary-searches the row's
    /// sorted column indices, so a lookup is `O(log nnz_row)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "csr get ({row},{col}) out of bounds"
        );
        let range = self.indptr[row]..self.indptr[row + 1];
        match self.indices[range.clone()].binary_search(&col) {
            Ok(k) => self.values[range.start + k],
            Err(_) => 0.0,
        }
    }

    /// The sorted column indices and values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_entries(&self, r: usize) -> (&[usize], &[f64]) {
        assert!(r < self.rows, "csr row_entries: row {r} out of bounds");
        let range = self.indptr[r]..self.indptr[r + 1];
        (&self.indices[range.clone()], &self.values[range])
    }

    /// Iterates over `(row, col, value)` of the stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            (self.indptr[r]..self.indptr[r + 1]).map(move |k| (r, self.indices[k], self.values[k]))
        })
    }

    /// Sparse matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        let mut y = Vector::zeros(self.rows);
        self.matvec_into(x, &mut y);
        y
    }

    /// Sparse matrix-vector product written into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_into(&self, x: &Vector, y: &mut Vector) {
        assert_eq!(x.len(), self.cols, "csr matvec: dimension mismatch");
        assert_eq!(
            y.len(),
            self.rows,
            "csr matvec_into: output length mismatch"
        );
        for r in 0..self.rows {
            let mut acc = 0.0;
            for k in self.indptr[r]..self.indptr[r + 1] {
                acc += self.values[k] * x[self.indices[k]];
            }
            y[r] = acc;
        }
    }

    /// Transposed sparse matrix-vector product `Aᵀ x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transpose(&self, x: &Vector) -> Vector {
        assert_eq!(
            x.len(),
            self.rows,
            "csr matvec_transpose: dimension mismatch"
        );
        let mut y = Vector::zeros(self.cols);
        for r in 0..self.rows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for k in self.indptr[r]..self.indptr[r + 1] {
                y[self.indices[k]] += self.values[k] * xr;
            }
        }
        y
    }

    /// Transposed sparse matrix-vector product `y = Aᵀ x` written into a
    /// caller-provided buffer — the allocation-free kernel the
    /// column-by-column bilinear projections loop over.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()` or `y.len() != self.cols()`.
    pub fn matvec_transpose_into(&self, x: &Vector, y: &mut Vector) {
        assert_eq!(
            x.len(),
            self.rows,
            "csr matvec_transpose_into: dimension mismatch"
        );
        assert_eq!(
            y.len(),
            self.cols,
            "csr matvec_transpose_into: output length mismatch"
        );
        // Overwrite (not scale): 0.0 * NaN/Inf would keep stale non-finite
        // buffer contents alive across reuses.
        y.as_mut_slice().fill(0.0);
        for r in 0..self.rows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for k in self.indptr[r]..self.indptr[r + 1] {
                y[self.indices[k]] += self.values[k] * xr;
            }
        }
    }

    /// Returns `I + alpha·A` as a new CSR matrix with an explicit diagonal in
    /// every row (kept even when the sum is numerically zero, so the pattern
    /// — and therefore a shared symbolic factorization — is stable across
    /// step-size changes). This is the `I − θh·J` assembly of the implicit
    /// integrators.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn identity_plus_scaled(&self, alpha: f64) -> CsrMatrix {
        assert_eq!(
            self.rows, self.cols,
            "identity_plus_scaled requires a square matrix"
        );
        let n = self.rows;
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(self.nnz() + n);
        let mut values = Vec::with_capacity(self.nnz() + n);
        indptr.push(0);
        for r in 0..n {
            let mut placed_diag = false;
            for k in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[k];
                let v = alpha * self.values[k];
                if !placed_diag && c >= r {
                    placed_diag = true;
                    if c == r {
                        indices.push(r);
                        values.push(1.0 + v);
                        continue;
                    }
                    indices.push(r);
                    values.push(1.0);
                }
                indices.push(c);
                values.push(v);
            }
            if !placed_diag {
                indices.push(r);
                values.push(1.0);
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: n,
            cols: n,
            indptr,
            indices,
            values,
        }
    }

    /// Product with a *Kronecker-structured* column `x ⊗ y` of length
    /// `x.len() * y.len()`, without materializing the Kronecker vector.
    ///
    /// This is the core primitive for projecting the quadratic coupling
    /// matrix `G₂` (shape `n × p·q`): computes `A (x ⊗ y)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() * y.len() != self.cols()`.
    pub fn matvec_kron(&self, x: &Vector, y: &Vector) -> Vector {
        let mut out = Vector::zeros(self.rows);
        self.matvec_kron_add_into(x, y, &mut out);
        out
    }

    /// Accumulates `out += A (x ⊗ y)`, the allocation-free form of
    /// [`CsrMatrix::matvec_kron`]: each row's sum is formed in the same order
    /// and then added, so `out + matvec_kron(x, y)` is bit-equal.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() * y.len() != self.cols()` or
    /// `out.len() != self.rows()`.
    pub fn matvec_kron_add_into(&self, x: &Vector, y: &Vector, out: &mut Vector) {
        assert_eq!(
            x.len() * y.len(),
            self.cols,
            "csr matvec_kron: dimension mismatch"
        );
        assert_eq!(
            out.len(),
            self.rows,
            "csr matvec_kron: output length mismatch"
        );
        let ny = y.len();
        for r in 0..self.rows {
            let mut acc = 0.0;
            for k in self.indptr[r]..self.indptr[r + 1] {
                let col = self.indices[k];
                acc += self.values[k] * x[col / ny] * y[col % ny];
            }
            out[r] += acc;
        }
    }

    /// Product with the triple Kronecker column `x ⊗ y ⊗ z` without forming
    /// it: `G₃ (x ⊗ y ⊗ z)` for a cubic coupling `G₃` (shape `m × n³`, column
    /// `p·n² + q·n + r` multiplying `x_p y_q z_r`).
    ///
    /// # Panics
    ///
    /// Panics if `x`, `y`, `z` do not all have the same length `n` with
    /// `self.cols() == n³`.
    pub fn matvec_kron3(&self, x: &Vector, y: &Vector, z: &Vector) -> Vector {
        let mut out = Vector::zeros(self.rows);
        self.matvec_kron3_add_into(x, y, z, &mut out);
        out
    }

    /// Accumulates `out += A (x ⊗ y ⊗ z)`, the allocation-free form of
    /// [`CsrMatrix::matvec_kron3`] (bit-equal to adding its result).
    ///
    /// # Panics
    ///
    /// As [`CsrMatrix::matvec_kron3`], and if `out.len() != self.rows()`.
    pub fn matvec_kron3_add_into(&self, x: &Vector, y: &Vector, z: &Vector, out: &mut Vector) {
        let n = x.len();
        assert_eq!(
            y.len(),
            n,
            "csr matvec_kron3: x has length {n} but y has length {}",
            y.len()
        );
        assert_eq!(
            z.len(),
            n,
            "csr matvec_kron3: x has length {n} but z has length {}",
            z.len()
        );
        assert_eq!(
            self.cols,
            n * n * n,
            "csr matvec_kron3: {} columns, expected {n}^3 = {}",
            self.cols,
            n * n * n
        );
        assert_eq!(
            out.len(),
            self.rows,
            "csr matvec_kron3: output length mismatch"
        );
        for r in 0..self.rows {
            let mut acc = 0.0;
            for k in self.indptr[r]..self.indptr[r + 1] {
                let col = self.indices[k];
                acc += self.values[k] * x[col / (n * n)] * y[(col / n) % n] * z[col % n];
            }
            out[r] += acc;
        }
    }

    /// Accumulates `y += alpha · A x`, the allocation-free form of
    /// `y.axpy(alpha, &A.matvec(x))` (bit-equal to it).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_add_into(&self, alpha: f64, x: &Vector, y: &mut Vector) {
        assert_eq!(x.len(), self.cols, "csr matvec: dimension mismatch");
        assert_eq!(
            y.len(),
            self.rows,
            "csr matvec_add_into: output length mismatch"
        );
        for r in 0..self.rows {
            let mut acc = 0.0;
            for k in self.indptr[r]..self.indptr[r + 1] {
                acc += self.values[k] * x[self.indices[k]];
            }
            y[r] += alpha * acc;
        }
    }

    /// Converts to a dense matrix (intended for tests / small problems).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            m[(r, c)] += v;
        }
        m
    }

    /// Transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.cols, self.rows);
        for (r, c, v) in self.iter() {
            coo.push(c, r, v);
        }
        coo.to_csr()
    }

    /// Returns `self * k` as a new matrix.
    pub fn scaled(&self, k: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= k;
        }
        out
    }

    /// Frobenius norm of the stored entries.
    pub fn norm_fro(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl LinearOp for CsrMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(
            self.rows, self.cols,
            "LinearOp requires a square CSR matrix"
        );
        self.rows
    }

    fn apply(&self, x: &Vector) -> Vector {
        self.matvec(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kron::kron_vec;

    fn ladder(n: usize) -> CsrMatrix {
        // Symmetric positive definite tridiagonal matrix.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.5);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn coo_to_csr_accumulates_duplicates_and_drops_zeros() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.0);
        coo.push(1, 2, 5.0);
        coo.push(1, 2, -5.0);
        coo.push(2, 1, 0.0);
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.get(1, 2), 0.0);
        assert_eq!(csr.nnz(), 1);
        assert!(!coo.is_empty());
    }

    /// Duplicates are summed in push order: `1e16 + 1 − 1e16` is 0 there
    /// (the entry is dropped) while `1e16 − 1e16 + 1` is 1, and the pushes
    /// of 64 positions are interleaved in a scrambled order so that an
    /// unstable sort would reorder some of them.
    #[test]
    fn duplicates_sum_in_push_order() {
        let mut coo = CooMatrix::new(8, 8);
        // Round k pushes entry k of [1e16, 1, −1e16] at even positions and
        // of [1e16, −1e16, 1] at odd ones.
        for round in [[1e16, 1e16], [1.0, -1e16], [-1e16, 1.0]] {
            for pos in (0..64).map(|p| (p * 37 + 11) % 64) {
                coo.push(pos % 8, pos / 8, round[pos % 2]);
            }
        }
        for csr in [coo.to_csr(), coo.into_csr()] {
            assert_eq!(csr.nnz(), 32);
            for pos in 0..64 {
                let expected = if pos % 2 == 0 { 0.0 } else { 1.0 };
                assert_eq!(csr.get(pos % 8, pos / 8), expected, "position {pos}");
            }
        }
    }

    #[test]
    fn matvec_matches_dense() {
        let csr = ladder(7);
        let dense = csr.to_dense();
        let x = Vector::from_fn(7, |i| (i as f64) - 3.0);
        assert!((&csr.matvec(&x) - &dense.matvec(&x)).norm_inf() < 1e-14);
        assert!((&csr.matvec_transpose(&x) - &dense.transpose().matvec(&x)).norm_inf() < 1e-14);
    }

    #[test]
    fn kron_structured_matvec_matches_explicit() {
        // Rectangular 3 x 6 matrix acting on x ⊗ y with |x|=3... cols = 2*3.
        let mut coo = CooMatrix::new(3, 6);
        coo.push(0, 0, 1.0);
        coo.push(0, 5, 2.0);
        coo.push(1, 3, -1.0);
        coo.push(2, 4, 4.0);
        let a = coo.to_csr();
        let x = Vector::from_slice(&[1.0, -2.0]);
        let y = Vector::from_slice(&[3.0, 0.5, -1.0]);
        let explicit = a.matvec(&kron_vec(&x, &y));
        let structured = a.matvec_kron(&x, &y);
        assert!((&explicit - &structured).norm_inf() < 1e-14);
    }

    #[test]
    fn kron3_structured_matvec_matches_explicit() {
        let n = 2;
        let mut coo = CooMatrix::new(n, n * n * n);
        coo.push(0, 3, 2.0);
        coo.push(1, 6, -1.5);
        coo.push(1, 0, 0.5);
        let g3 = coo.to_csr();
        let x = Vector::from_slice(&[1.0, -2.0]);
        let y = Vector::from_slice(&[0.5, 3.0]);
        let z = Vector::from_slice(&[-1.0, 0.25]);
        let explicit = g3.matvec(&kron_vec(&x, &kron_vec(&y, &z)));
        let structured = g3.matvec_kron3(&x, &y, &z);
        assert!((&explicit - &structured).norm_inf() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "csr matvec_kron3: 8 columns")]
    fn kron3_matvec_rejects_dimension_mismatch_in_release_too() {
        // G3 sized for n = 2 but fed n = 3 vectors: a debug-only check would
        // let release builds read garbage indices.
        let mut coo = CooMatrix::new(2, 8);
        coo.push(0, 3, 1.0);
        let x = Vector::zeros(3);
        let _ = coo.to_csr().matvec_kron3(&x, &x, &x);
    }

    #[test]
    #[should_panic(expected = "csr matvec_kron3: x has length")]
    fn kron3_matvec_rejects_mixed_operand_lengths() {
        let mut coo = CooMatrix::new(2, 8);
        coo.push(0, 3, 1.0);
        let _ = coo
            .to_csr()
            .matvec_kron3(&Vector::zeros(2), &Vector::zeros(3), &Vector::zeros(2));
    }

    #[test]
    fn add_into_kernels_equal_adding_the_allocating_products_bitwise() {
        let mut coo = CooMatrix::new(3, 27);
        for (r, c, v) in [
            (0, 0, 0.3),
            (0, 13, -1.1),
            (1, 5, 2.7),
            (2, 26, 0.9),
            (2, 7, -0.4),
        ] {
            coo.push(r, c, v);
        }
        let a3 = coo.to_csr();
        let mut coo = CooMatrix::new(3, 9);
        for (r, c, v) in [(0, 1, 0.7), (0, 3, -0.2), (2, 8, 1.3), (1, 4, 0.6)] {
            coo.push(r, c, v);
        }
        let a2 = coo.to_csr();
        let a1 = ladder(3);
        let x = Vector::from_slice(&[0.37, -1.9, 0.011]);
        let y = Vector::from_slice(&[1.3, 0.25, -0.7]);
        let base = Vector::from_slice(&[0.1, -3.3, 2.2]);

        let mut expected = base.clone();
        expected.axpy(1.0, &a2.matvec_kron(&x, &y));
        let mut got = base.clone();
        a2.matvec_kron_add_into(&x, &y, &mut got);
        assert_eq!(got, expected);

        let mut expected = base.clone();
        expected.axpy(1.0, &a3.matvec_kron3(&x, &y, &x));
        let mut got = base.clone();
        a3.matvec_kron3_add_into(&x, &y, &x, &mut got);
        assert_eq!(got, expected);

        let mut expected = base.clone();
        expected.axpy(-0.35, &a1.matvec(&x));
        let mut got = base;
        a1.matvec_add_into(-0.35, &x, &mut got);
        assert_eq!(got, expected);
    }

    #[test]
    fn transpose_and_round_trip() {
        let csr = ladder(5);
        let t = csr.transpose();
        assert_eq!(t.to_dense(), csr.to_dense().transpose());
        let back = CsrMatrix::from_dense(&csr.to_dense(), 0.0);
        assert_eq!(back, csr);
        assert_eq!(CsrMatrix::identity(4).to_dense(), Matrix::identity(4));
    }

    #[test]
    fn get_binary_search_matches_dense_lookup() {
        let csr = ladder(9);
        let dense = csr.to_dense();
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(csr.get(i, j), dense[(i, j)], "({i},{j})");
            }
        }
    }

    #[test]
    fn matvec_transpose_into_matches_allocating_variant() {
        let mut coo = CooMatrix::new(4, 3);
        coo.push(0, 0, 2.0);
        coo.push(1, 2, -1.5);
        coo.push(3, 1, 0.25);
        coo.push(2, 0, 4.0);
        let a = coo.to_csr();
        let x = Vector::from_slice(&[1.0, -2.0, 0.5, 3.0]);
        let mut y = Vector::filled(3, 7.0); // stale contents must be cleared
        a.matvec_transpose_into(&x, &mut y);
        assert!((&y - &a.matvec_transpose(&x)).norm_inf() < 1e-15);
    }

    #[test]
    fn identity_plus_scaled_matches_dense_and_keeps_diagonal() {
        // Matrix with one missing diagonal entry (row 1) and entries on both
        // sides of the diagonal.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(0, 2, 1.0);
        coo.push(1, 0, -3.0);
        coo.push(1, 2, 0.5);
        coo.push(2, 1, 4.0);
        coo.push(2, 2, -8.0);
        let a = coo.to_csr();
        let alpha = -0.25;
        let m = a.identity_plus_scaled(alpha);
        let mut expected = a.to_dense().scaled(alpha);
        for i in 0..3 {
            expected[(i, i)] += 1.0;
        }
        assert!((&m.to_dense() - &expected).max_abs() < 1e-15);
        // Every diagonal entry is structurally present, even the one that is
        // numerically 1 + alpha*(-8) ... and the zero-sum case below.
        for i in 0..3 {
            assert!(m.row_entries(i).0.contains(&i), "diag {i} missing");
        }
        // Exact cancellation: 1 + 1.0*(-1.0) = 0 stays stored.
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, -1.0);
        let z = coo.to_csr().identity_plus_scaled(1.0);
        assert_eq!(z.nnz(), 1);
        assert_eq!(z.get(0, 0), 0.0);
    }

    #[test]
    fn scaled_and_norm() {
        let a = ladder(3);
        let s = a.scaled(2.0);
        assert_eq!(s.get(0, 0), 5.0);
        assert!(a.norm_fro() > 0.0);
    }
}
