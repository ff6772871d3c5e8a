//! Tests of the cubic case of [`crate::Qldae`]: the `G₃ (x ⊗ x ⊗ x)` term of
//! the paper's §3.4, alone and next to a quadratic part.

#[cfg(test)]
mod tests {
    use vamor_linalg::{CooMatrix, Matrix, Vector};

    use crate::{PolynomialStateSpace, Qldae, QldaeBuilder};

    fn toy() -> Qldae {
        // x1' = -x1 - 0.2 x1^3 + u
        // x2' = -3 x2 + 0.1 x1 x2^2
        // y = x1
        let n = 2;
        let mut g3 = CooMatrix::new(n, n * n * n);
        g3.push(0, 0, -0.2); // x1*x1*x1 -> index (0,0,0)
        g3.push(1, n + 1, 0.1); // x1*x2*x2 -> index (0,1,1)
        QldaeBuilder::new(n, 1)
            .g1_entry(0, 0, -1.0)
            .g1_entry(1, 1, -3.0)
            .b_entry(0, 0, 1.0)
            .output_state(0)
            .build()
            .unwrap()
            .with_g3(g3.to_csr())
            .unwrap()
    }

    #[test]
    fn rhs_matches_hand_computation() {
        let sys = toy();
        let x = Vector::from_slice(&[2.0, -1.0]);
        let dx = sys.rhs(&x, &[3.0]);
        assert!((dx[0] - (-2.0 - 0.2 * 8.0 + 3.0)).abs() < 1e-14);
        assert!((dx[1] - (3.0 + 0.1 * 2.0 * 1.0)).abs() < 1e-14);
        assert_eq!(sys.output(&x).as_slice(), &[2.0]);
        assert!(!sys.has_quadratic());
        assert_eq!(sys.quadratic_term(&x), Vector::zeros(2));
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let sys = toy();
        let x = Vector::from_slice(&[0.9, -0.4]);
        let u = [0.2];
        let jac = sys.jacobian_x(&x, &u);
        let h = 1e-6;
        for j in 0..2 {
            let mut xp = x.clone();
            xp[j] += h;
            let mut xm = x.clone();
            xm[j] -= h;
            let df = &sys.rhs(&xp, &u) - &sys.rhs(&xm, &u);
            for i in 0..2 {
                let fd = df[i] / (2.0 * h);
                assert!((jac[(i, j)] - fd).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn sparse_jacobian_matches_dense_jacobian() {
        let sys = toy();
        let x = Vector::from_slice(&[0.9, -0.4]);
        let u = [0.2];
        let sparse = sys.jacobian_csr(&x, &u).expect("Qldae provides CSR stamps");
        assert!((&sparse.to_dense() - &sys.jacobian_x(&x, &u)).max_abs() < 1e-14);
    }

    #[test]
    fn shape_validation() {
        let q = Qldae::new(
            Matrix::identity(2),
            CooMatrix::new(2, 4).to_csr(),
            Vec::new(),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2),
        )
        .unwrap();
        assert!(q.clone().with_g3(CooMatrix::new(2, 4).to_csr()).is_err());
        assert!(q.clone().with_g3(CooMatrix::new(3, 8).to_csr()).is_err());
        // An all-zero G3 is no cubic term.
        let plain = q.with_g3(CooMatrix::new(2, 8).to_csr()).unwrap();
        assert!(plain.g3().is_none());
    }

    #[test]
    fn optional_quadratic_part_contributes() {
        // x' = -x + 2x² - x³ + u
        let mut g3 = CooMatrix::new(1, 1);
        g3.push(0, 0, -1.0);
        let sys = QldaeBuilder::new(1, 1)
            .g1_entry(0, 0, -1.0)
            .g2_entry(0, 0, 0, 2.0)
            .b_entry(0, 0, 1.0)
            .output_state(0)
            .build()
            .unwrap()
            .with_g3(g3.to_csr())
            .unwrap();
        let dx = sys.rhs(&Vector::from_slice(&[2.0]), &[0.0]);
        // -2 + 2*4 - 8 = -2
        assert!((dx[0] + 2.0).abs() < 1e-14);
        assert!(sys.has_quadratic() && sys.g3().is_some());
        assert!(sys.linearized().unwrap().is_stable().unwrap());
    }
}
