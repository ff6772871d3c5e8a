//! Galerkin / Petrov–Galerkin projection of polynomial systems onto a
//! reduced basis.
//!
//! The classic one-sided flow uses `W = V` with Euclidean-orthonormal `V`.
//! The *stabilized* flow of [`crate::AssocReducer`] instead orthonormalizes
//! `V` in an energy inner product `⟨u, v⟩_M` and projects with `W = M V`
//! (so `Wᵀ V = I`); [`project_qldae_petrov`] implements that oblique
//! projection. Moment matching only depends on the
//! *column span* of `V`, so the associated-transform matching properties are
//! unaffected by the choice of `W`.

use vamor_linalg::{CooMatrix, CsrMatrix, Matrix, Vector};
use vamor_system::Qldae;

use crate::error::MorError;
use crate::Result;

/// Projects a QLDAE onto the column space of `V` (`n × q`, orthonormal
/// columns):
///
/// ```text
/// G₁ᵣ = Vᵀ G₁ V,   G₂ᵣ = Vᵀ G₂ (V ⊗ V),   G₃ᵣ = Vᵀ G₃ (V ⊗ V ⊗ V),
/// D₁ᵣ = Vᵀ D₁ V,   Bᵣ = Vᵀ B,             Cᵣ = C V.
/// ```
///
/// # Errors
///
/// Returns [`MorError::Invalid`] if `V` has the wrong row count or more
/// columns than rows, and propagates construction errors of the reduced
/// system.
pub fn project_qldae(qldae: &Qldae, v: &Matrix) -> Result<Qldae> {
    project_qldae_petrov(qldae, v, v)
}

/// Oblique (Petrov–Galerkin) projection of a QLDAE with test basis `W`
/// (`Wᵀ V = I` is the caller's responsibility):
///
/// ```text
/// G₁ᵣ = Wᵀ G₁ V,   G₂ᵣ = Wᵀ G₂ (V ⊗ V),   G₃ᵣ = Wᵀ G₃ (V ⊗ V ⊗ V),
/// D₁ᵣ = Wᵀ D₁ V,   Bᵣ = Wᵀ B,             Cᵣ = C V.
/// ```
///
/// The reduced quadratic and cubic couplings are assembled column-by-column
/// through the Kronecker-structured products `G₂ (v_p ⊗ v_q)` and
/// `G₃ (v_p ⊗ v_q ⊗ v_r)` ([`CsrMatrix::matvec_kron3`]) so neither `n × n²` nor
/// `n × n³` matrix is densified, and each reduced bilinear term `D₁ₖ` is
/// likewise built one sparse matvec per basis column — no `O(n²)`
/// densification. An absent `G₂`/`G₃` stays absent and costs nothing.
///
/// # Errors
///
/// Same contract as [`project_qldae`], plus a shape check on `W`.
pub fn project_qldae_petrov(qldae: &Qldae, v: &Matrix, w: &Matrix) -> Result<Qldae> {
    let n = qldae.g1_csr().rows();
    validate_basis_pair(v, w, n)?;
    let q = v.cols();

    // G₁V through the CSR stamp: sorted-row CSR adds the same nonzero terms
    // in the same order as the dense row sweep, so the result is bit-equal
    // to the dense product — and a 10⁴-state reduction never materializes
    // the 800 MB dense G₁ just to project it.
    let g1r = w
        .transpose()
        .matmul(&crate::lowrank::csr_matmul(qldae.g1_csr(), v));
    let br = w.transpose().matmul(qldae.b());
    let cr = qldae.c().matmul(v);

    // Reduced quadratic term.
    let mut g2r = CooMatrix::new(q, q * q);
    let columns: Vec<Vector> = (0..q).map(|j| v.col(j)).collect();
    if qldae.g2().nnz() > 0 {
        for (p, vp) in columns.iter().enumerate() {
            for (r, vr) in columns.iter().enumerate() {
                let col = qldae.g2().matvec_kron(vp, vr);
                let reduced = w.matvec_transpose(&col);
                for i in 0..q {
                    if reduced[i] != 0.0 {
                        g2r.push(i, p * q + r, reduced[i]);
                    }
                }
            }
        }
    }

    // Reduced cubic term.
    let g3r = qldae.g3().map(|g3| {
        let mut g3r = CooMatrix::new(q, q * q * q);
        for (p, vp) in columns.iter().enumerate() {
            for (r, vr) in columns.iter().enumerate() {
                for (s, vs) in columns.iter().enumerate() {
                    let col = g3.matvec_kron3(vp, vr, vs);
                    let reduced = w.matvec_transpose(&col);
                    for i in 0..q {
                        if reduced[i] != 0.0 {
                            g3r.push(i, p * q * q + r * q + s, reduced[i]);
                        }
                    }
                }
            }
        }
        g3r.into_csr()
    });

    // Reduced bilinear terms, row-by-row via the allocation-free transposed
    // sparse matvec: (D₁ᵣ)ᵢⱼ = wᵢᵀ D₁ vⱼ = (D₁ᵀ wᵢ)·vⱼ, with one shared
    // buffer for every D₁ᵀ wᵢ product (the old implementation densified
    // every D₁ₖ into an n×n matrix, then allocated a fresh vector per
    // column).
    let mut d1r = Vec::with_capacity(qldae.d1().len());
    if !qldae.d1().is_empty() {
        let w_columns: Vec<Vector> = (0..q).map(|i| w.col(i)).collect();
        let mut buf = Vector::zeros(n);
        for dk in qldae.d1() {
            let mut reduced = Matrix::zeros(q, q);
            for (i, wi) in w_columns.iter().enumerate() {
                dk.matvec_transpose_into(wi, &mut buf);
                for (j, vj) in columns.iter().enumerate() {
                    reduced[(i, j)] = buf.dot(vj);
                }
            }
            d1r.push(CsrMatrix::from_dense(&reduced, 0.0));
        }
    }

    let reduced = Qldae::new(g1r, g2r.into_csr(), d1r, br, cr).map_err(MorError::System)?;
    match g3r {
        Some(g3r) => reduced.with_g3(g3r).map_err(MorError::System),
        None => Ok(reduced),
    }
}

fn validate_basis_pair(v: &Matrix, w: &Matrix, n: usize) -> Result<()> {
    if v.rows() != n {
        return Err(MorError::Invalid(format!(
            "projection basis has {} rows, expected {n}",
            v.rows()
        )));
    }
    if v.cols() == 0 || v.cols() > n {
        return Err(MorError::Invalid(format!(
            "projection basis has {} columns for an order-{n} system",
            v.cols()
        )));
    }
    if w.shape() != v.shape() {
        return Err(MorError::Invalid(format!(
            "left projection basis is {}x{}, expected {}x{}",
            w.rows(),
            w.cols(),
            v.rows(),
            v.cols()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamor_linalg::OrthoBasis;
    use vamor_system::{PolynomialStateSpace, QldaeBuilder};

    fn toy_qldae() -> Qldae {
        QldaeBuilder::new(3, 1)
            .g1_entry(0, 0, -1.0)
            .g1_entry(1, 1, -2.0)
            .g1_entry(2, 2, -3.0)
            .g1_entry(0, 1, 0.5)
            .g2_entry(0, 1, 2, 0.7)
            .g2_entry(2, 0, 0, -0.4)
            .d1_entry(0, 1, 0, 0.2)
            .b_entry(0, 0, 1.0)
            .b_entry(1, 0, 0.3)
            .output_state(2)
            .build()
            .unwrap()
    }

    fn identity_basis(n: usize) -> Matrix {
        Matrix::identity(n)
    }

    #[test]
    fn projection_with_identity_basis_is_lossless() {
        let q = toy_qldae();
        let reduced = project_qldae(&q, &identity_basis(3)).unwrap();
        let x = Vector::from_slice(&[0.3, -0.2, 0.5]);
        let u = [0.7];
        assert!((&q.rhs(&x, &u) - &reduced.rhs(&x, &u)).norm_inf() < 1e-12);
        assert!((&q.output(&x) - &reduced.output(&x)).norm_inf() < 1e-12);
    }

    #[test]
    fn projected_rhs_is_galerkin_consistent() {
        // For any x_r, the reduced RHS equals Vᵀ f(V x_r) restricted to
        // quadratic + linear terms (the Galerkin identity for polynomial
        // systems).
        let q = toy_qldae();
        let mut basis = OrthoBasis::new(3);
        basis.insert(Vector::from_slice(&[1.0, 1.0, 0.0])).unwrap();
        basis.insert(Vector::from_slice(&[0.0, 1.0, 1.0])).unwrap();
        let v = basis.to_matrix().unwrap();
        let reduced = project_qldae(&q, &v).unwrap();
        let xr = Vector::from_slice(&[0.4, -0.3]);
        let u = [0.25];
        let x_full = v.matvec(&xr);
        let expected = v.matvec_transpose(&q.rhs(&x_full, &u));
        let got = reduced.rhs(&xr, &u);
        assert!((&expected - &got).norm_inf() < 1e-12);
        // Output consistency.
        assert!((&q.output(&x_full) - &reduced.output(&xr)).norm_inf() < 1e-12);
    }

    #[test]
    fn petrov_projection_is_oblique_galerkin_consistent() {
        // Any W with the right shape: the reduced RHS must equal Wᵀ f(V x_r).
        let q = toy_qldae();
        let mut basis = OrthoBasis::new(3);
        basis.insert(Vector::from_slice(&[1.0, 0.5, 0.0])).unwrap();
        basis.insert(Vector::from_slice(&[0.0, 0.5, 1.0])).unwrap();
        let v = basis.to_matrix().unwrap();
        let w = Matrix::from_fn(3, 2, |i, j| 0.3 * (i as f64 + 1.0) - 0.7 * j as f64);
        let reduced = project_qldae_petrov(&q, &v, &w).unwrap();
        let xr = Vector::from_slice(&[0.2, -0.4]);
        let u = [0.3];
        let x_full = v.matvec(&xr);
        let expected = w.matvec_transpose(&q.rhs(&x_full, &u));
        let got = reduced.rhs(&xr, &u);
        assert!((&expected - &got).norm_inf() < 1e-12);
        // The output side only involves V.
        assert!((&q.output(&x_full) - &reduced.output(&xr)).norm_inf() < 1e-12);
        // Shape mismatch on W is rejected.
        assert!(project_qldae_petrov(&q, &v, &Matrix::zeros(3, 1)).is_err());
        assert!(project_qldae_petrov(&q, &v, &Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn cubic_projection_is_galerkin_consistent() {
        let n = 3;
        let g1 =
            Matrix::from_rows(&[&[-1.0, 0.0, 0.2], &[0.0, -2.0, 0.0], &[0.0, 0.3, -1.5]]).unwrap();
        let mut g3 = CooMatrix::new(n, n * n * n);
        g3.push(0, 0, 0.4);
        g3.push(1, 14, -0.2);
        g3.push(2, 5, 0.1);
        let ode = Qldae::new(
            g1,
            CooMatrix::new(n, n * n).to_csr(),
            Vec::new(),
            Matrix::from_rows(&[&[1.0], &[0.0], &[0.5]]).unwrap(),
            Matrix::from_rows(&[&[0.0, 0.0, 1.0]]).unwrap(),
        )
        .unwrap()
        .with_g3(g3.to_csr())
        .unwrap();
        let mut basis = OrthoBasis::new(3);
        basis.insert(Vector::from_slice(&[1.0, 0.5, 0.0])).unwrap();
        basis.insert(Vector::from_slice(&[0.0, 0.5, 1.0])).unwrap();
        let v = basis.to_matrix().unwrap();
        let reduced = project_qldae(&ode, &v).unwrap();
        assert!(reduced.g3().is_some() && reduced.g2().nnz() == 0);
        let xr = Vector::from_slice(&[0.2, -0.6]);
        let x_full = v.matvec(&xr);
        let expected = v.matvec_transpose(&ode.rhs(&x_full, &[0.1]));
        let got = reduced.rhs(&xr, &[0.1]);
        assert!((&expected - &got).norm_inf() < 1e-12);
    }

    #[test]
    fn reduced_d1_matches_dense_reference() {
        // The sparse column-by-column D1 projection must agree with the old
        // densified computation Vᵀ (D1_dense) V.
        let q = toy_qldae();
        let mut basis = OrthoBasis::new(3);
        basis.insert(Vector::from_slice(&[1.0, -1.0, 0.5])).unwrap();
        basis.insert(Vector::from_slice(&[0.2, 0.9, -0.3])).unwrap();
        let v = basis.to_matrix().unwrap();
        let reduced = project_qldae(&q, &v).unwrap();
        let dense_ref = v.transpose().matmul(&q.d1()[0].to_dense().matmul(&v));
        assert!((&reduced.d1()[0].to_dense() - &dense_ref).max_abs() < 1e-13);
    }

    #[test]
    fn invalid_bases_are_rejected() {
        let q = toy_qldae();
        assert!(project_qldae(&q, &Matrix::zeros(2, 1)).is_err());
        assert!(project_qldae(&q, &Matrix::zeros(3, 4)).is_err());
    }
}
