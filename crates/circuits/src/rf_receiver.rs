//! Multi-input RF receiver chain (paper §3.3).

use vamor_system::{Qldae, QldaeBuilder, SystemError};

/// A synthetic RF receiver front-end in MISO QLDAE form.
///
/// The paper's §3.3 experiment reduces a 173-unknown receiver excited by an
/// input signal `u₁` and an interfering noise source `u₂` coupled from the
/// environment, with `D₁ = 0`. The original netlist is not public, so this
/// generator builds a behaviourally equivalent surrogate:
///
/// * a cascade of damped LC resonator sections (two states each: a node
///   voltage and an inductor current), giving the complex pole pairs of a
///   band-pass receive chain; the sections past the front end are lightly
///   lossy, so the in-band signal propagates to the far end of the cascade
///   (arrival after roughly `sections·√(LC)` time units) instead of being
///   annihilated on the way — the observed output must carry a usable
///   signal for the fig. 4 full-vs-reduced comparison to be meaningful;
/// * the desired signal drives section 1, the interferer couples into a
///   configurable later section;
/// * three "active" stages (LNA, mixer and PA surrogates) carry quadratic
///   compressive / intermodulation nonlinearities, populating `G₂`;
/// * a final RC envelope node provides the observed output and makes the
///   default state count odd (2·86 + 1 = 173, matching the paper).
///
/// ```
/// use vamor_circuits::RfReceiver;
/// use vamor_system::PolynomialStateSpace;
/// # fn main() -> Result<(), vamor_system::SystemError> {
/// let rx = RfReceiver::paper_size()?;
/// assert_eq!(rx.qldae().order(), 173);
/// assert_eq!(rx.qldae().num_inputs(), 2);
/// assert!(!rx.qldae().has_d1());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RfReceiver {
    qldae: Qldae,
    sections: usize,
}

impl RfReceiver {
    /// Default damping conductance of each section. Kept small so the
    /// desired signal still reaches the end of the long cascade.
    const DAMPING_G: f64 = 0.01;
    /// Series loss of the damped front-end resonator sections.
    const DAMPING_R_FRONT: f64 = 0.3;
    /// Series loss of the IF/baseband chain sections. Light enough that the
    /// in-band signal survives all ~83 sections: the per-section attenuation
    /// is `≈ exp(−(R/Z + gZ)/2)` against the chain impedance `Z = √(L/C)`,
    /// so `R` must stay well below `Z` for the cascade to be observable at
    /// its far end. (The seed used `R = 2.0`, which attenuated even DC by
    /// eight orders of magnitude and made the fig. 4 benchmark compare
    /// numerical noise.)
    const DAMPING_R_CHAIN: f64 = 0.01;
    /// Series inductance of the chain sections. Sets the propagation speed
    /// `1/√(LC) ≈ 7` sections per time unit, so the ~86-section cascade
    /// responds well inside the experiment's transient window.
    const L_CHAIN: f64 = 0.02;
    /// Number of lightly damped (complex-pole) front-end sections.
    const FRONT_SECTIONS: usize = 3;
    /// Strength of the quadratic nonlinearities at the active stages.
    const NONLINEAR_GAIN: f64 = 0.35;

    /// Builds a receiver with the given number of resonator sections
    /// (the state count is `2 * sections + 1`).
    ///
    /// # Errors
    ///
    /// Returns an error if `sections < 3` (the active stages need room).
    pub fn new(sections: usize) -> Result<Self, SystemError> {
        if sections < 3 {
            return Err(SystemError::Invalid(format!(
                "rf receiver needs at least 3 sections, got {sections}"
            )));
        }
        let n = 2 * sections + 1;
        // State layout: section k owns v_k = x[2k], i_k = x[2k+1]; the output
        // envelope node is x[n-1].
        let vidx = |k: usize| 2 * k;
        let iidx = |k: usize| 2 * k + 1;
        let out = n - 1;

        let mut b = QldaeBuilder::new(n, 2);
        let g = Self::DAMPING_G;

        for k in 0..sections {
            let v = vidx(k);
            let i = iidx(k);
            let (r, l) = if k < Self::FRONT_SECTIONS {
                (Self::DAMPING_R_FRONT, 1.0)
            } else {
                (Self::DAMPING_R_CHAIN, Self::L_CHAIN)
            };
            // C v̇_k = i_{k-1} − i_k − g v_k   (C = 1)
            b = b.g1_entry(v, v, -g).g1_entry(v, i, -1.0);
            if k > 0 {
                b = b.g1_entry(v, iidx(k - 1), 1.0);
            }
            // L i̇_k = v_k − v_{k+1} − r i_k
            b = b.g1_entry(i, v, 1.0 / l).g1_entry(i, i, -r / l);
            if k + 1 < sections {
                b = b.g1_entry(i, vidx(k + 1), -1.0 / l);
            } else {
                b = b.g1_entry(i, out, -1.0 / l);
            }
        }
        // Output envelope node: C v̇_out = i_last − v_out.
        b = b
            .g1_entry(out, iidx(sections - 1), 1.0)
            .g1_entry(out, out, -1.0);

        // Inputs: the signal drives section 1; the interferer couples into a
        // section roughly a third of the way down the chain.
        let interferer_section = (sections / 3).max(1);
        b = b
            .b_entry(vidx(0), 0, 1.0)
            .b_entry(vidx(interferer_section), 1, 0.6);

        // Active stages: LNA right after the input filter, a mixer surrogate
        // mid-chain, a PA surrogate near the end, and a mild compression term
        // at every amplifying section in between (real receiver chains have a
        // gain stage every few sections, each with its own weak nonlinearity).
        // Each stage compresses its own node (−γ v²); the mixer additionally
        // multiplies the two paths it sees (intermodulation term v_a · v_b).
        let gamma = Self::NONLINEAR_GAIN;
        let lna = 1.min(sections - 1);
        let mixer = (sections / 2).max(2).min(sections - 1);
        let pa = sections - 1;
        b = b.g2_entry(vidx(lna), vidx(lna), vidx(lna), -gamma);
        b = b.g2_entry(vidx(pa), vidx(pa), vidx(pa), -gamma);
        b = b.g2_entry(vidx(mixer), vidx(lna), vidx(mixer), gamma * 0.5);
        b = b.g2_entry(
            vidx(mixer),
            vidx(interferer_section),
            vidx(mixer),
            gamma * 0.25,
        );
        let mut stage = 3;
        while stage + 1 < sections {
            b = b
                .g2_entry(vidx(stage), vidx(stage), vidx(stage), -0.2 * gamma)
                .g2_entry(vidx(stage), vidx(stage - 1), vidx(stage), 0.1 * gamma);
            stage += 4;
        }

        let qldae = b.output_state(out).build()?;
        Ok(RfReceiver { qldae, sections })
    }

    /// The 173-state instance matching the paper's experiment size
    /// (86 sections plus the output node).
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates builder errors.
    pub fn paper_size() -> Result<Self, SystemError> {
        Self::new(86)
    }

    /// The assembled MISO QLDAE.
    pub fn qldae(&self) -> &Qldae {
        &self.qldae
    }

    /// Number of resonator sections.
    pub fn sections(&self) -> usize {
        self.sections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamor_linalg::{eigenvalues, Vector};
    use vamor_system::PolynomialStateSpace;

    #[test]
    fn paper_size_is_173_states_two_inputs_no_d1() {
        let rx = RfReceiver::paper_size().unwrap();
        assert_eq!(rx.qldae().order(), 173);
        assert_eq!(rx.qldae().num_inputs(), 2);
        assert_eq!(rx.qldae().num_outputs(), 1);
        assert!(!rx.qldae().has_d1());
        assert_eq!(rx.sections(), 86);
    }

    #[test]
    fn linear_part_is_stable_with_complex_poles() {
        let rx = RfReceiver::new(12).unwrap();
        let eig = eigenvalues(rx.qldae().g1()).unwrap();
        assert!(eig.is_hurwitz());
        // The resonator chain must contribute genuinely complex pole pairs —
        // this is what exercises the 2x2 Schur blocks in the MOR machinery.
        let complex_count = eig.values().iter().filter(|z| z.im.abs() > 1e-6).count();
        assert!(
            complex_count >= 4,
            "expected complex poles, got {complex_count}"
        );
    }

    #[test]
    fn origin_is_an_equilibrium() {
        let rx = RfReceiver::new(8).unwrap();
        let n = rx.qldae().order();
        assert!(rx.qldae().rhs(&Vector::zeros(n), &[0.0, 0.0]).norm_inf() < 1e-14);
    }

    #[test]
    fn both_inputs_reach_the_output_through_the_linear_part() {
        let rx = RfReceiver::new(10).unwrap();
        let lti = rx.qldae().linearized().unwrap();
        let dc = lti.dc_gain().unwrap();
        assert!(dc[(0, 0)].abs() > 1e-8, "signal path is dead");
        assert!(dc[(0, 1)].abs() > 1e-8, "interferer path is dead");
    }

    #[test]
    fn quadratic_coupling_is_present_but_sparse() {
        let rx = RfReceiver::new(20).unwrap();
        let nnz = rx.qldae().g2().nnz();
        // A handful of entries per active stage — far sparser than n².
        assert!(nnz >= 6, "unexpected G2 sparsity: {nnz}");
        assert!(nnz < 2 * rx.qldae().order(), "G2 should stay sparse: {nnz}");
        assert!(RfReceiver::new(2).is_err());
    }

    #[test]
    fn sparse_full_model_keeps_the_csr_evaluation_bit_for_bit() {
        // The symmetric-packed evaluation would hold n·n(n+1)/2 numbers for a
        // G₂ with a handful of entries, so the stamp is evaluated as CSR and
        // its rhs is the plain CSR sum, bit for bit.
        let rx = RfReceiver::new(20).unwrap();
        let q = rx.qldae();
        let n = q.order();
        let x = Vector::from_fn(n, |i| ((i as f64) * 0.37).sin() * 0.8);
        let u = [0.45, -0.2];
        let mut expected = q.g1_csr().matvec(&x);
        expected.axpy(1.0, &q.g2().matvec_kron(&x, &x));
        for (k, &uk) in u.iter().enumerate() {
            expected.axpy(uk, &q.b().col(k));
        }
        let got = q.rhs(&x, &u);
        let bits = |v: &Vector| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&expected));
        let unforced = q.rhs(&x, &[0.0, 0.0]);
        let mut expected = q.g1_csr().matvec(&x);
        expected.axpy(1.0, &q.g2().matvec_kron(&x, &x));
        assert_eq!(bits(&unforced), bits(&expected));
    }
}
