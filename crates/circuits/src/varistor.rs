//! ZnO varistor surge-protection circuit (paper §3.4).

use vamor_linalg::{CooMatrix, Matrix};
use vamor_system::{Qldae, SystemError};

/// A surge-protection circuit with a ZnO varistor, described by an ODE with a
/// cubic Kronecker term `G₃ (x ⊗ x ⊗ x)` as in the paper's §3.4 — a
/// [`Qldae`] with `G₂ = 0` and a `G₃`.
///
/// The equivalent circuit follows the paper's Fig. 5(a): a high-voltage surge
/// source with internal resistance `Rᵢ` feeds an `L₁/R₁ — L₂/R₂ — C` filter;
/// the ZnO varistor (modelled by its odd polynomial I–V law
/// `i = k₁ v + k₃ v³`, the cubic truncation of the IEEE varistor model) clamps
/// the filter node; the protected consumer circuit is a distributed RC ladder
/// hanging off the clamped node. With the default ladder length the state
/// count is 102, matching the paper.
///
/// All element values are normalized so that a 9.8 kV double-exponential
/// surge at the input clamps to a few hundred volts at the consumer side,
/// reproducing the qualitative behaviour of Fig. 5(b).
///
/// ```
/// use vamor_circuits::VaristorCircuit;
/// use vamor_system::PolynomialStateSpace;
/// # fn main() -> Result<(), vamor_system::SystemError> {
/// let circuit = VaristorCircuit::paper_size()?;
/// assert_eq!(circuit.qldae().order(), 102);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VaristorCircuit {
    qldae: Qldae,
    ladder_nodes: usize,
}

impl VaristorCircuit {
    /// Source internal resistance (normalized ohms).
    const R_I: f64 = 1500.0;
    /// First filter inductance.
    const L_1: f64 = 1.0;
    /// First filter series resistance.
    const R_1: f64 = 5.0;
    /// Second filter inductance.
    const L_2: f64 = 1.0;
    /// Second filter series resistance.
    const R_2: f64 = 5.0;
    /// Filter capacitance at the varistor node.
    const C_V: f64 = 0.02;
    /// Varistor linear leakage conductance.
    const K_1: f64 = 1.0e-3;
    /// Varistor cubic conductance coefficient.
    const K_3: f64 = 4.0e-7;
    /// Consumer-ladder section resistance.
    const R_LADDER: f64 = 2.0;
    /// Consumer-ladder section capacitance.
    const C_LADDER: f64 = 0.01;
    /// Consumer load conductance at the far end of the ladder.
    const G_LOAD: f64 = 0.02;

    /// Builds the circuit with `ladder_nodes` consumer-side RC nodes. The
    /// total state count is `ladder_nodes + 4`.
    ///
    /// # Errors
    ///
    /// Returns an error if `ladder_nodes < 1`.
    pub fn new(ladder_nodes: usize) -> Result<Self, SystemError> {
        if ladder_nodes == 0 {
            return Err(SystemError::Invalid(
                "varistor circuit needs at least one consumer ladder node".into(),
            ));
        }
        // State layout:
        //   x[0] = i_L1, x[1] = v_A (first filter node, varistor V1),
        //   x[2] = i_L2, x[3] = v_B (second filter node, varistor V2),
        //   x[4..4+ladder_nodes] = consumer ladder node voltages.
        let n = 4 + ladder_nodes;
        let mut g1 = Matrix::zeros(n, n);
        let mut g3 = CooMatrix::new(n, n * n * n);
        let mut b = Matrix::zeros(n, 1);
        let cube = |i: usize| i * n * n + i * n + i;

        // L1 i̇_L1 = u − (Rᵢ + R₁) i_L1 − v_A.
        g1[(0, 0)] = -(Self::R_I + Self::R_1) / Self::L_1;
        g1[(0, 1)] = -1.0 / Self::L_1;
        b[(0, 0)] = 1.0 / Self::L_1;

        // C_V v̇_A = i_L1 − i_L2 − k₁ v_A − k₃ v_A³.
        g1[(1, 0)] = 1.0 / Self::C_V;
        g1[(1, 2)] = -1.0 / Self::C_V;
        g1[(1, 1)] = -Self::K_1 / Self::C_V;
        g3.push(1, cube(1), -Self::K_3 / Self::C_V);

        // L2 i̇_L2 = v_A − v_B − R₂ i_L2.
        g1[(2, 1)] = 1.0 / Self::L_2;
        g1[(2, 3)] = -1.0 / Self::L_2;
        g1[(2, 2)] = -Self::R_2 / Self::L_2;

        // C_V v̇_B = i_L2 − k₁ v_B − k₃ v_B³ − (v_B − v_ladder_0)/R_ladder.
        g1[(3, 2)] = 1.0 / Self::C_V;
        g1[(3, 3)] = -(Self::K_1 + 1.0 / Self::R_LADDER) / Self::C_V;
        g1[(3, 4)] = 1.0 / (Self::R_LADDER * Self::C_V);
        g3.push(3, cube(3), -Self::K_3 / Self::C_V);

        // Consumer RC ladder.
        for k in 0..ladder_nodes {
            let i = 4 + k;
            let left = if k == 0 { 3 } else { i - 1 };
            g1[(i, left)] += 1.0 / (Self::R_LADDER * Self::C_LADDER);
            g1[(i, i)] += -1.0 / (Self::R_LADDER * Self::C_LADDER);
            if k + 1 < ladder_nodes {
                g1[(i, i)] += -1.0 / (Self::R_LADDER * Self::C_LADDER);
                g1[(i, i + 1)] += 1.0 / (Self::R_LADDER * Self::C_LADDER);
            } else {
                g1[(i, i)] += -Self::G_LOAD / Self::C_LADDER;
            }
        }

        // Output: the protected bus voltage (second varistor node), which is
        // what the surge-protection experiment observes clamping.
        let mut c = Matrix::zeros(1, n);
        c[(0, 3)] = 1.0;

        let no_g2 = CooMatrix::new(n, n * n).into_csr();
        let qldae = Qldae::new(g1, no_g2, Vec::new(), b, c)?.with_g3(g3.into_csr())?;
        Ok(VaristorCircuit {
            qldae,
            ladder_nodes,
        })
    }

    /// The 102-state instance matching the paper (98 consumer ladder nodes).
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates builder errors.
    pub fn paper_size() -> Result<Self, SystemError> {
        Self::new(98)
    }

    /// The assembled polynomial system (`G₂ = 0`, cubic `G₃`).
    pub fn qldae(&self) -> &Qldae {
        &self.qldae
    }

    /// Forwarding name of [`VaristorCircuit::qldae`].
    pub fn ode(&self) -> &Qldae {
        self.qldae()
    }

    /// Number of consumer-side ladder nodes.
    pub fn ladder_nodes(&self) -> usize {
        self.ladder_nodes
    }

    /// The nominal surge amplitude used in the paper's experiment (volts).
    pub fn surge_amplitude() -> f64 {
        9.8e3
    }

    /// Static clamping estimate: solves the DC balance at the varistor node
    /// for a constant source voltage `u`, which is where the output settles
    /// once the surge has charged the filter. Useful for sanity checks.
    pub fn dc_clamp_voltage(u: f64) -> f64 {
        // Solve (u - v) / (Rᵢ + R₁) = k₁ v + k₃ v³ by bisection on v ≥ 0.
        let f =
            |v: f64| (u - v) / (Self::R_I + Self::R_1) - (Self::K_1 * v + Self::K_3 * v * v * v);
        let (mut lo, mut hi) = (0.0, u.abs().max(1.0));
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if f(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamor_linalg::{eigenvalues, Vector};
    use vamor_system::PolynomialStateSpace;

    #[test]
    fn paper_size_is_102_states() {
        let c = VaristorCircuit::paper_size().unwrap();
        assert_eq!(c.qldae().order(), 102);
        assert_eq!(c.ladder_nodes(), 98);
        assert_eq!(c.qldae().num_inputs(), 1);
        assert!(VaristorCircuit::new(0).is_err());
    }

    #[test]
    fn linear_part_is_stable() {
        let c = VaristorCircuit::new(20).unwrap();
        assert!(eigenvalues(c.qldae().g1()).unwrap().is_hurwitz());
    }

    #[test]
    fn origin_is_an_equilibrium() {
        let c = VaristorCircuit::new(10).unwrap();
        let n = c.qldae().order();
        assert!(c.qldae().rhs(&Vector::zeros(n), &[0.0]).norm_inf() < 1e-14);
    }

    #[test]
    fn clamping_voltage_is_in_the_expected_range() {
        // With a 9.8 kV surge the varistor should clamp the protected side to
        // a few hundred volts, as in the paper's Fig. 5(b).
        let v = VaristorCircuit::dc_clamp_voltage(VaristorCircuit::surge_amplitude());
        assert!(v > 150.0 && v < 400.0, "clamp voltage {v} out of range");
        // Without the cubic term the same divider would sit much higher.
        let linear_only = VaristorCircuit::surge_amplitude()
            / (1.0 + (VaristorCircuit::R_I + VaristorCircuit::R_1) * VaristorCircuit::K_1);
        assert!(linear_only > 2.0 * v);
    }

    #[test]
    fn cubic_term_only_touches_the_varistor_nodes() {
        let c = VaristorCircuit::new(30).unwrap();
        let rows: Vec<usize> = c
            .qldae()
            .g3()
            .expect("cubic term")
            .iter()
            .map(|(r, _, _)| r)
            .collect();
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|&r| r == 1 || r == 3));
    }

    #[test]
    fn cubic_term_opposes_large_voltages() {
        let c = VaristorCircuit::new(5).unwrap();
        let n = c.qldae().order();
        let mut x = Vector::zeros(n);
        x[1] = 300.0;
        let dx = c.qldae().rhs(&x, &[0.0]);
        // The varistor discharges the node strongly at 300 V, and the cubic
        // branch dominates the linear leakage by an order of magnitude.
        assert!(dx[1] < -100.0);
        let cubic = VaristorCircuit::K_3 * 300.0_f64.powi(3);
        let linear = VaristorCircuit::K_1 * 300.0;
        assert!(cubic > 10.0 * linear);
    }
}
