//! A projected ROM's dense couplings are evaluated in the symmetric-packed
//! form; its transients must match the CSR Kronecker evaluation of the same
//! couplings to ≤1e-10.

use vamor_circuits::{RfReceiver, VaristorCircuit};
use vamor_core::{AssocReducer, MomentSpec};
use vamor_linalg::{CsrMatrix, Matrix, Vector};
use vamor_sim::{
    simulate, ExpPulse, InputSignal, IntegrationMethod, MultiChannel, SinePulse, TransientOptions,
};
use vamor_system::{PolynomialStateSpace, Qldae};

/// A QLDAE evaluated through its CSR couplings: `G₂ (x ⊗ x)` and
/// `G₃ (x ⊗ x ⊗ x)` as Kronecker matvecs, the Jacobian from the same
/// entries.
struct CsrEvaluated<'a>(&'a Qldae);

impl PolynomialStateSpace for CsrEvaluated<'_> {
    fn order(&self) -> usize {
        self.0.order()
    }
    fn num_inputs(&self) -> usize {
        self.0.num_inputs()
    }
    fn num_outputs(&self) -> usize {
        self.0.num_outputs()
    }
    fn rhs(&self, x: &Vector, u: &[f64]) -> Vector {
        let q = self.0;
        let mut f = q.g1_csr().matvec(x);
        f.axpy(1.0, &q.g2().matvec_kron(x, x));
        if let Some(g3) = q.g3() {
            f.axpy(1.0, &g3.matvec_kron3(x, x, x));
        }
        for (k, &uk) in u.iter().enumerate() {
            f.axpy(uk, &q.b().col(k));
            if let Some(dk) = q.d1().get(k) {
                f.axpy(uk, &dk.matvec(x));
            }
        }
        f
    }
    fn jacobian_x(&self, x: &Vector, u: &[f64]) -> Matrix {
        let q = self.0;
        let n = q.order();
        let mut jac = q.g1().clone();
        for (i, col, g) in q.g2().iter() {
            let (p, r) = (col / n, col % n);
            jac[(i, p)] += g * x[r];
            jac[(i, r)] += g * x[p];
        }
        for (i, col, g) in q.g3().iter().flat_map(|g3| g3.iter()) {
            let (p, r, s) = (col / (n * n), (col / n) % n, col % n);
            jac[(i, p)] += g * x[r] * x[s];
            jac[(i, r)] += g * x[p] * x[s];
            jac[(i, s)] += g * x[p] * x[r];
        }
        for (k, &uk) in u.iter().enumerate() {
            if let Some(dk) = q.d1().get(k) {
                jac.axpy(uk, &dk.to_dense());
            }
        }
        jac
    }
    fn output(&self, x: &Vector) -> Vector {
        self.0.output(x)
    }
}

fn assert_trajectories_match(rom: &Qldae, input: &dyn InputSignal, t_end: f64, dt: f64) {
    let opts =
        TransientOptions::new(0.0, t_end, dt).with_method(IntegrationMethod::ImplicitTrapezoidal);
    let packed = simulate(rom, input, &opts).expect("packed ROM transient");
    let csr = simulate(&CsrEvaluated(rom), input, &opts).expect("CSR ROM transient");
    assert_eq!(packed.times, csr.times);
    let scale = csr
        .outputs
        .iter()
        .map(Vector::norm_inf)
        .fold(0.0_f64, f64::max);
    assert!(scale > 0.0, "the input must excite the ROM");
    let gap = packed
        .outputs
        .iter()
        .zip(&csr.outputs)
        .map(|(a, b)| (a - b).norm_inf())
        .fold(0.0_f64, f64::max);
    assert!(
        gap <= 1e-10 * scale,
        "packed and CSR ROM trajectories differ by {gap:.3e} (scale {scale:.3e})"
    );
}

#[test]
fn fig4_shape_rom_trajectory_matches_the_csr_evaluation() {
    let rx = RfReceiver::new(40).expect("receiver");
    let rom = AssocReducer::new(MomentSpec::new(8, 4, 2))
        .with_markov_moments(2)
        .reduce(rx.qldae())
        .expect("fig4-shape reduction");
    let g2r: &CsrMatrix = rom.system().g2();
    let k = rom.order();
    // Dense enough that the ROM takes the packed form (n·k(k+1)/2 ≤ nnz).
    assert!(
        k * (k * (k + 1) / 2) <= g2r.nnz(),
        "order {k}, nnz {}",
        g2r.nnz()
    );
    let input = MultiChannel::new(vec![
        Box::new(SinePulse::damped(0.3, 0.06, 0.05)),
        Box::new(SinePulse::new(0.12, 0.11)),
    ]);
    assert_trajectories_match(rom.system(), &input, 20.0, 0.02);
}

#[test]
fn cubic_rom_trajectory_matches_the_csr_evaluation() {
    let circuit = VaristorCircuit::new(40).expect("varistor");
    let rom = AssocReducer::new(MomentSpec::new(6, 0, 2))
        .with_stabilized_projection(false)
        .reduce(circuit.qldae())
        .expect("fig5-shape reduction");
    let k = rom.order();
    let g3r = rom
        .system()
        .g3()
        .expect("the varistor ROM keeps its cubic term");
    assert!(k * (k * (k + 1) * (k + 2) / 6) <= g3r.nnz());
    let input = ExpPulse::new(VaristorCircuit::surge_amplitude(), 0.5, 6.0);
    assert_trajectories_match(rom.system(), &input, 30.0, 0.05);
}
