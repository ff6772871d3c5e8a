//! End-to-end integration tests spanning all workspace crates: circuit
//! generation → associated-transform / NORM reduction → transient simulation
//! → error metrics, on scaled-down versions of the paper's four experiments.

use vamor::circuits::{RfReceiver, TransmissionLine, VaristorCircuit};
use vamor::core::{AssocReducer, MomentSpec, NormReducer, VolterraKernels};
use vamor::linalg::Complex;
use vamor::sim::{
    max_relative_error, simulate, ExpPulse, IntegrationMethod, MultiChannel, SinePulse,
    TransientOptions,
};
use vamor::system::PolynomialStateSpace;

fn trapezoidal(t_end: f64, dt: f64) -> TransientOptions {
    TransientOptions::new(0.0, t_end, dt).with_method(IntegrationMethod::ImplicitTrapezoidal)
}

#[test]
fn voltage_driven_line_with_d1_is_reduced_accurately() {
    let line = TransmissionLine::voltage_driven(30).expect("circuit");
    let full = line.qldae();
    let rom = AssocReducer::new(MomentSpec::paper_default())
        .reduce(full)
        .expect("reduce");
    assert!(rom.order() <= 12, "rom order {}", rom.order());

    let input = SinePulse::damped(0.02, 0.3, 0.05);
    let opts = trapezoidal(30.0, 0.02);
    let y_full = simulate(full, &input, &opts)
        .expect("full sim")
        .output_channel(0);
    let y_rom = simulate(rom.system(), &input, &opts)
        .expect("rom sim")
        .output_channel(0);
    let err = max_relative_error(&y_full, &y_rom);
    assert!(err < 0.02, "voltage-driven line error too large: {err}");
}

#[test]
fn current_driven_line_proposed_and_norm_agree_with_full_model() {
    let line = TransmissionLine::current_driven(35).expect("circuit");
    let full = line.qldae();
    let spec = MomentSpec::paper_default();
    let proposed = AssocReducer::new(spec).reduce(full).expect("proposed");
    let baseline = NormReducer::new(spec).reduce(full).expect("norm");
    assert!(proposed.order() < full.order() / 2);
    assert!(baseline.order() < full.order() / 2);
    assert!(baseline.stats().total_candidates() > proposed.stats().total_candidates());

    let input = SinePulse::damped(0.5, 0.4, 0.08);
    let opts = trapezoidal(30.0, 0.02);
    let y_full = simulate(full, &input, &opts)
        .expect("full")
        .output_channel(0);
    let y_prop = simulate(proposed.system(), &input, &opts)
        .expect("prop")
        .output_channel(0);
    let y_norm = simulate(baseline.system(), &input, &opts)
        .expect("norm")
        .output_channel(0);
    assert!(max_relative_error(&y_full, &y_prop) < 0.03);
    assert!(max_relative_error(&y_full, &y_norm) < 0.03);
}

#[test]
fn reduced_models_match_volterra_kernels_of_the_original_near_dc() {
    let line = TransmissionLine::current_driven(25).expect("circuit");
    let full = line.qldae();
    let rom = AssocReducer::new(MomentSpec::new(5, 3, 2))
        .reduce(full)
        .expect("reduce");
    let kern_full = VolterraKernels::new(full, 0).expect("kernels");
    let kern_rom = VolterraKernels::new(rom.system(), 0).expect("kernels");

    for s in [Complex::new(0.0, 0.02), Complex::new(0.01, 0.05)] {
        let a = kern_full.output_h1(s).unwrap();
        let b = kern_rom.output_h1(s).unwrap();
        assert!((a - b).abs() < 1e-5 * (1.0 + a.abs()), "H1 mismatch at {s}");
    }
    let (s1, s2) = (Complex::new(0.0, 0.03), Complex::new(0.01, 0.02));
    let a = kern_full.output_h2(s1, s2).unwrap();
    let b = kern_rom.output_h2(s1, s2).unwrap();
    assert!(
        (a - b).abs() < 1e-4 * (1.0 + a.abs()),
        "H2 mismatch: {a} vs {b}"
    );
}

#[test]
fn miso_receiver_reduction_handles_two_inputs() {
    let rx = RfReceiver::new(16).expect("circuit");
    let full = rx.qldae();
    let spec = MomentSpec::paper_default();
    let rom = AssocReducer::new(spec).reduce(full).expect("reduce");
    assert!(rom.order() < full.order());

    let excitation = MultiChannel::new(vec![
        Box::new(SinePulse::damped(0.3, 0.06, 0.05)),
        Box::new(SinePulse::new(0.12, 0.11)),
    ]);
    let opts = trapezoidal(20.0, 0.02);
    let y_full = simulate(full, &excitation, &opts)
        .expect("full")
        .output_channel(0);
    let y_rom = simulate(rom.system(), &excitation, &opts)
        .expect("rom")
        .output_channel(0);
    let err = max_relative_error(&y_full, &y_rom);
    assert!(err < 0.05, "receiver ROM error {err}");
}

#[test]
fn varistor_surge_is_clamped_and_reproduced_by_the_cubic_rom() {
    let circuit = VaristorCircuit::new(20).expect("circuit");
    let full = circuit.qldae();
    let rom = AssocReducer::new(MomentSpec::new(6, 0, 2))
        .reduce(full)
        .expect("reduce");
    assert!(rom.order() <= 8, "rom order {}", rom.order());

    let surge = ExpPulse::new(VaristorCircuit::surge_amplitude(), 0.5, 6.0);
    let opts = trapezoidal(30.0, 0.01);
    let y_full = simulate(full, &surge, &opts)
        .expect("full")
        .output_channel(0);
    let y_rom = simulate(rom.system(), &surge, &opts)
        .expect("rom")
        .output_channel(0);

    let peak = y_full.iter().cloned().fold(0.0_f64, f64::max);
    assert!(peak > 100.0 && peak < 1500.0, "clamped peak {peak}");
    // The cubic term is what clamps: the linear-only divider would sit much
    // higher than the observed output.
    assert!(peak < 0.2 * VaristorCircuit::surge_amplitude());
    let err = max_relative_error(&y_full, &y_rom);
    assert!(err < 0.05, "varistor ROM error {err}");
}

#[test]
fn reduction_is_deterministic() {
    let line = TransmissionLine::current_driven(20).expect("circuit");
    let spec = MomentSpec::new(4, 2, 1);
    let a = AssocReducer::new(spec).reduce(line.qldae()).expect("first");
    let b = AssocReducer::new(spec)
        .reduce(line.qldae())
        .expect("second");
    assert_eq!(a.order(), b.order());
    let diff = (a.projection() - b.projection()).max_abs();
    assert!(diff < 1e-14, "projections differ by {diff}");
}
