//! The paper's moment-matching property, checked independently of how the
//! moment chains are computed: a dense ROM built from `k₁` `H₁` moments per
//! input reproduces the full model's `H₁` Taylor moments `c G₁⁻⁽ʲ⁺¹⁾ b` at
//! `s = 0` for `j < k₁`.

use vamor_circuits::{RfReceiver, TransmissionLine};
use vamor_core::{AssocReducer, MomentSpec, ReductionEngine};
use vamor_linalg::Vector;
use vamor_system::Qldae;

/// `c G₁⁻⁽ʲ⁺¹⁾ b` for `j < count`, first output, input `input`.
fn h1_moments(q: &Qldae, input: usize, count: usize) -> Vec<f64> {
    let lu = q.g1().lu().unwrap();
    let c = Vector::from_slice(q.c().row(0));
    let mut v = q.b().col(input);
    (0..count)
        .map(|_| {
            v = lu.solve(&v).unwrap();
            c.dot(&v)
        })
        .collect()
}

/// The relative mismatch of each of the first `count` moments of `rom`
/// against `full`, per input.
fn mismatches(full: &Qldae, rom: &Qldae, count: usize) -> Vec<Vec<f64>> {
    (0..full.b().cols())
        .map(|input| {
            let want = h1_moments(full, input, count);
            let got = h1_moments(rom, input, count);
            want.iter()
                .zip(&got)
                .map(|(w, g)| (w - g).abs() / w.abs())
                .collect()
        })
        .collect()
}

fn dense_rom(q: &Qldae, deflation_tol: Option<f64>) -> Qldae {
    let mut reducer = AssocReducer::new(MomentSpec::new(8, 4, 2))
        .with_markov_moments(2)
        .with_engine(ReductionEngine::DenseSchur);
    if let Some(tol) = deflation_tol {
        reducer = reducer.with_deflation_tol(tol);
    }
    reducer.reduce(q).unwrap().system().clone()
}

fn assert_matches(name: &str, full: &Qldae, rom: &Qldae) {
    for (input, rel) in mismatches(full, rom, 8).iter().enumerate() {
        for (j, &err) in rel.iter().enumerate() {
            assert!(
                err <= 1e-8,
                "{name} input {input}: H1 moment {j} off by {err:.3e} relative"
            );
        }
    }
}

/// The fig. 2 line (100 stages, with `D₁`) at its pinned 8/4/2 spec.
#[test]
fn fig2_line_rom_matches_eight_h1_moments() {
    let line = TransmissionLine::voltage_driven(100).unwrap();
    let rom = dense_rom(line.qldae(), Some(1e-12));
    assert_matches("fig2 line", line.qldae(), &rom);
}

/// The 55-section receiver (111 states, two inputs) at the fig. 4 spec.
#[test]
fn receiver_rom_matches_eight_h1_moments_on_both_inputs() {
    let rx = RfReceiver::new(55).unwrap();
    assert_eq!(rx.qldae().b().cols(), 2);
    let rom = dense_rom(rx.qldae(), None);
    assert_matches("receiver", rx.qldae(), &rom);
    // The check itself is sharp: a ROM of the receiver built from fewer
    // H₁ moments misses the later ones.
    let short = AssocReducer::new(MomentSpec::new(2, 0, 0))
        .with_engine(ReductionEngine::DenseSchur)
        .reduce(rx.qldae())
        .unwrap();
    let worst = mismatches(rx.qldae(), short.system(), 8)
        .iter()
        .flatten()
        .fold(0.0_f64, |m, &e| m.max(e));
    assert!(
        worst > 1e-6,
        "a two-moment ROM matched eight moments ({worst:.3e})"
    );
}
