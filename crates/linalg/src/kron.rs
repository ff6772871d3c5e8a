//! Kronecker product and Kronecker sum algebra.
//!
//! The associated-transform MOR flow manipulates operators such as
//! `G₁ ⊕ G₁ = G₁ ⊗ I + I ⊗ G₁` whose explicit form is `n² × n²`. This module
//! provides the explicit (small-scale / test) constructions and the `vec`
//! reshaping helpers. The production reduction path never forms a Kronecker
//! sum: it applies and solves one through `n × n` factors (the
//! [`SylvesterSolver`](crate::SylvesterSolver) image below).
//!
//! ## Conventions
//!
//! `vec(·)` stacks matrix **columns** (column-major), so the fundamental
//! identity is `(A ⊗ B) vec(X) = vec(B X Aᵀ)` and consequently
//! `(A ⊕ B) vec(X) = vec(B X + X Aᵀ)` for `X` of shape `rows(B) × rows(A)`.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::Result;

/// Explicit Kronecker product `A ⊗ B`.
///
/// Intended for tests and small problems; the result has
/// `A.rows()*B.rows()` rows and `A.cols()*B.cols()` columns.
///
/// ```
/// use vamor_linalg::{kron, Matrix};
/// let a = Matrix::identity(2);
/// let b = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 3.0]]).unwrap();
/// let k = kron(&a, &b);
/// assert_eq!(k.shape(), (4, 4));
/// assert_eq!(k[(2, 2)], 0.0);
/// assert_eq!(k[(3, 2)], 2.0);
/// ```
pub fn kron(a: &Matrix, b: &Matrix) -> Matrix {
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    let mut out = Matrix::zeros(ar * br, ac * bc);
    for i in 0..ar {
        for j in 0..ac {
            let aij = a[(i, j)];
            if aij == 0.0 {
                continue;
            }
            for p in 0..br {
                for q in 0..bc {
                    out[(i * br + p, j * bc + q)] = aij * b[(p, q)];
                }
            }
        }
    }
    out
}

/// Explicit Kronecker sum `A ⊕ B = A ⊗ I + I ⊗ B` for square `A`, `B`.
///
/// # Panics
///
/// Panics if either matrix is not square.
pub fn kron_sum(a: &Matrix, b: &Matrix) -> Matrix {
    assert!(
        a.is_square() && b.is_square(),
        "kron_sum requires square matrices"
    );
    let mut out = kron(a, &Matrix::identity(b.rows()));
    let other = kron(&Matrix::identity(a.rows()), b);
    out.axpy(1.0, &other);
    out
}

/// Kronecker product of two vectors: `(a ⊗ b)[i*len(b)+j] = a[i] * b[j]`.
///
/// ```
/// use vamor_linalg::{kron_vec, Vector};
/// let a = Vector::from_slice(&[1.0, 2.0]);
/// let b = Vector::from_slice(&[10.0, 20.0]);
/// assert_eq!(kron_vec(&a, &b).as_slice(), &[10.0, 20.0, 20.0, 40.0]);
/// ```
pub fn kron_vec(a: &Vector, b: &Vector) -> Vector {
    let mut out = Vector::zeros(a.len() * b.len());
    for i in 0..a.len() {
        let ai = a[i];
        if ai == 0.0 {
            continue;
        }
        for j in 0..b.len() {
            out[i * b.len() + j] = ai * b[j];
        }
    }
    out
}

/// Column-major `vec(X)`.
pub fn vec_of(x: &Matrix) -> Vector {
    let (r, c) = x.shape();
    Vector::from_fn(r * c, |k| x[(k % r, k / r)])
}

/// Inverse of [`vec_of`]: reshapes a vector of length `rows*cols` into a
/// `rows x cols` matrix using column-major ordering.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if the length does not match.
pub fn unvec(x: &Vector, rows: usize, cols: usize) -> Result<Matrix> {
    if x.len() != rows * cols {
        return Err(LinalgError::DimensionMismatch(format!(
            "unvec: vector of length {} cannot be reshaped to {rows}x{cols}",
            x.len()
        )));
    }
    Ok(Matrix::from_fn(rows, cols, |i, j| x[j * rows + i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sylvester::SylvesterSolver;

    fn small(seed: u64, n: usize) -> Matrix {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut m = Matrix::from_fn(n, n, |_, _| next());
        for i in 0..n {
            m[(i, i)] -= 2.0; // keep it stable / well separated from singularity
        }
        m
    }

    #[test]
    fn kron_of_identities_is_identity() {
        let k = kron(&Matrix::identity(3), &Matrix::identity(2));
        assert_eq!(k, Matrix::identity(6));
    }

    #[test]
    fn mixed_product_property() {
        // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD)
        let a = small(1, 2);
        let b = small(2, 3);
        let c = small(3, 2);
        let d = small(4, 3);
        let left = kron(&a, &b).matmul(&kron(&c, &d));
        let right = kron(&a.matmul(&c), &b.matmul(&d));
        assert!((&left - &right).max_abs() < 1e-12);
    }

    #[test]
    fn vec_identity_holds() {
        // (A ⊗ B) vec(X) = vec(B X Aᵀ)
        let a = small(5, 3);
        let b = small(6, 2);
        let x = Matrix::from_fn(2, 3, |i, j| (i + 2 * j) as f64 + 0.5);
        let lhs = kron(&a, &b).matvec(&vec_of(&x));
        let rhs = vec_of(&b.matmul(&x).matmul(&a.transpose()));
        assert!((&lhs - &rhs).norm_inf() < 1e-12);
    }

    #[test]
    fn kron_vec_matches_matrix_kron() {
        let a = Vector::from_slice(&[1.0, -2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, 5.0]);
        let am = Matrix::from_columns(std::slice::from_ref(&a)).unwrap();
        let bm = Matrix::from_columns(std::slice::from_ref(&b)).unwrap();
        let kv = kron_vec(&a, &b);
        let km = kron(&am, &bm);
        for i in 0..kv.len() {
            assert_eq!(kv[i], km[(i, 0)]);
        }
    }

    #[test]
    fn unvec_round_trips() {
        let x = Matrix::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        let v = vec_of(&x);
        let back = unvec(&v, 3, 4).unwrap();
        assert_eq!(back, x);
        assert!(unvec(&v, 4, 4).is_err());
    }

    /// `(A ⊕ B) vec(X) = vec(B X + X Aᵀ)`: the explicit Kronecker sum agrees
    /// with its Sylvester image, and a Sylvester solve inverts it.
    #[test]
    fn kron_sum_matches_dense_and_solves() {
        let a = small(7, 3);
        let b = small(8, 2);
        let dense = kron_sum(&a, &b);
        assert_eq!(dense.rows(), 6);
        let xm = Matrix::from_fn(2, 3, |i, j| ((2 * j + i) as f64).cos());
        let x = vec_of(&xm);
        let image = &b.matmul(&xm) + &xm.matmul(&a.transpose());
        assert!((&vec_of(&image) - &dense.matvec(&x)).norm_inf() < 1e-12);
        let solver = SylvesterSolver::new(&b, &a.transpose()).unwrap();
        let y = vec_of(&solver.solve(&xm).unwrap());
        assert!((&dense.matvec(&y) - &x).norm_inf() < 1e-9);
    }

    /// `(σ I − A ⊕ A) y = x` is the shifted Sylvester equation
    /// `(A − σI) Y + Y Aᵀ = −X`.
    #[test]
    fn shifted_resolvent_solve_matches_dense() {
        let a = small(11, 3);
        let dense = kron_sum(&a, &a);
        let sigma = 0.7;
        let xm = Matrix::from_fn(3, 3, |i, j| ((3 * j + i) as f64 + 1.0).sin());
        let solver = SylvesterSolver::new(&a, &a.transpose()).unwrap();
        let y = vec_of(&solver.solve_shifted(-sigma, &xm.scaled(-1.0)).unwrap());
        let mut shifted = dense.scaled(-1.0);
        for i in 0..9 {
            shifted[(i, i)] += sigma;
        }
        assert!((&shifted.matvec(&y) - &vec_of(&xm)).norm_inf() < 1e-9);
    }

    #[test]
    fn eigenvalues_of_kron_sum_are_pairwise_sums() {
        let a = Matrix::from_diagonal(&[-1.0, -3.0]);
        let b = Matrix::from_diagonal(&[-2.0, -5.0]);
        let ks = kron_sum(&a, &b);
        let eig = crate::eig::eigenvalues(&ks).unwrap();
        let mut got: Vec<f64> = eig.values().iter().map(|z| z.re).collect();
        got.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let mut expect = [-3.0, -6.0, -5.0, -8.0];
        expect.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-10);
        }
    }
}
