//! Regression tests for the low-rank reduction engine (rational-Krylov
//! chains + LR-ADI weight) and the two-sided output-Krylov mode.
//!
//! At these sizes the rational-Krylov chain bases saturate the state space,
//! so the low-rank chains are *exact* and the two engines must produce
//! reduced models with matching Volterra kernels near the expansion point —
//! the ≤ 1e-9 agreement the PR-4 acceptance demands on the line.

use vamor_circuits::{TransmissionLine, VaristorCircuit};
use vamor_core::{AssocReducer, MomentSpec, NormReducer, ReductionEngine, VolterraKernels};
use vamor_linalg::Complex;
use vamor_sim::{max_relative_error, simulate, ExpPulse, IntegrationMethod, TransientOptions};

const S_POINTS: [Complex; 3] = [
    Complex::new(0.0, 0.05),
    Complex::new(0.02, 0.01),
    Complex::new(-0.01, 0.15),
];

/// The satellite property test: low-rank rational-Krylov chains against the
/// dense Bartels–Stewart machinery, compared at the level that matters —
/// the Volterra kernels of the reduced models (≤ 1e-9 on the line).
#[test]
fn lowrank_and_dense_engines_agree_on_the_transmission_line() {
    let line = TransmissionLine::current_driven(35).expect("circuit");
    let full = line.qldae();
    let spec = MomentSpec::paper_default();
    let dense = AssocReducer::new(spec)
        .with_engine(ReductionEngine::DenseSchur)
        .reduce(full)
        .expect("dense reduction");
    let low = AssocReducer::new(spec)
        .with_engine(ReductionEngine::LowRank)
        .reduce(full)
        .expect("low-rank reduction");
    assert!(!dense.stats().lowrank_engine);
    assert!(low.stats().lowrank_engine);
    assert!(low.stats().is_stable(), "low-rank ROM must be Hurwitz");
    assert!(low.stats().chain_basis_dim >= 1);

    let kern_full = VolterraKernels::new(full, 0).expect("kernels");
    let kern_dense = VolterraKernels::new(dense.system(), 0).expect("kernels");
    let kern_low = VolterraKernels::new(low.system(), 0).expect("kernels");
    for s in S_POINTS {
        let f = kern_full.output_h1(s).unwrap();
        let d = kern_dense.output_h1(s).unwrap();
        let l = kern_low.output_h1(s).unwrap();
        assert!(
            (d - l).abs() <= 1e-9 * (1.0 + f.abs()),
            "H1 dense-vs-lowrank at {s}: {d} vs {l}"
        );
        let f2 = kern_full.output_h2(s, S_POINTS[0]).unwrap();
        let d2 = kern_dense.output_h2(s, S_POINTS[0]).unwrap();
        let l2 = kern_low.output_h2(s, S_POINTS[0]).unwrap();
        assert!(
            (d2 - l2).abs() <= 1e-9 * (1.0 + f2.abs()),
            "H2 dense-vs-lowrank at {s}: {d2} vs {l2}"
        );
        let f3 = kern_full.output_h3(s, S_POINTS[0], S_POINTS[1]).unwrap();
        let d3 = kern_dense.output_h3(s, S_POINTS[0], S_POINTS[1]).unwrap();
        let l3 = kern_low.output_h3(s, S_POINTS[0], S_POINTS[1]).unwrap();
        assert!(
            (d3 - l3).abs() <= 1e-9 * (1.0 + f3.abs()),
            "H3 dense-vs-lowrank at {s}: {d3} vs {l3}"
        );
    }
}

#[test]
fn lowrank_engine_handles_the_bilinear_voltage_line() {
    let line = TransmissionLine::voltage_driven(24).expect("circuit");
    let full = line.qldae();
    let spec = MomentSpec::new(6, 3, 2);
    // Plain Galerkin on both engines: the dense engine weights with the −I
    // Lyapunov solution, the low-rank engine with the −CᵀC Gramian — both
    // valid oblique projections, but only the unweighted flow compares the
    // *chains* one-to-one.
    let dense = AssocReducer::new(spec)
        .with_stabilized_projection(false)
        .with_engine(ReductionEngine::DenseSchur)
        .reduce(full)
        .expect("dense reduction");
    let low = AssocReducer::new(spec)
        .with_stabilized_projection(false)
        .with_engine(ReductionEngine::LowRank)
        .reduce(full)
        .expect("low-rank reduction");
    let kern_dense = VolterraKernels::new(dense.system(), 0).expect("kernels");
    let kern_low = VolterraKernels::new(low.system(), 0).expect("kernels");
    for s in S_POINTS {
        let d = kern_dense.output_h1(s).unwrap();
        let l = kern_low.output_h1(s).unwrap();
        assert!(
            (d - l).abs() <= 1e-8 * (1.0 + d.abs()),
            "H1 dense-vs-lowrank at {s}: {d} vs {l}"
        );
        let d2 = kern_dense.output_h2(s, S_POINTS[1]).unwrap();
        let l2 = kern_low.output_h2(s, S_POINTS[1]).unwrap();
        assert!(
            (d2 - l2).abs() <= 1e-8 * (1.0 + d2.abs()),
            "H2 dense-vs-lowrank at {s}: {d2} vs {l2}"
        );
    }
}

#[test]
fn lowrank_engine_reduces_the_varistor_cubic_ode() {
    let circuit = VaristorCircuit::new(16).expect("circuit");
    let full = circuit.qldae();
    let spec = MomentSpec::new(6, 0, 2);
    let dense = AssocReducer::new(spec)
        .with_stabilized_projection(false)
        .with_engine(ReductionEngine::DenseSchur)
        .reduce(full)
        .expect("dense reduction");
    let low = AssocReducer::new(spec)
        .with_stabilized_projection(false)
        .with_engine(ReductionEngine::LowRank)
        .reduce(full)
        .expect("low-rank reduction");
    assert!(low.stats().lowrank_engine);
    // Same surge transient through both reduced models.
    let input = ExpPulse::new(VaristorCircuit::surge_amplitude(), 0.5, 6.0);
    let opts =
        TransientOptions::new(0.0, 30.0, 0.01).with_method(IntegrationMethod::ImplicitTrapezoidal);
    let yd = simulate(dense.system(), &input, &opts).expect("dense transient");
    let yl = simulate(low.system(), &input, &opts).expect("low-rank transient");
    let diff = max_relative_error(&yd.output_channel(0), &yl.output_channel(0));
    assert!(
        diff <= 1e-6,
        "dense-vs-lowrank varistor ROM diff {diff:.3e}"
    );
}

#[test]
fn auto_engine_stays_dense_below_the_threshold() {
    let line = TransmissionLine::current_driven(30).expect("circuit");
    let rom = AssocReducer::new(MomentSpec::new(4, 2, 1))
        .reduce(line.qldae())
        .expect("reduction");
    assert!(!rom.stats().lowrank_engine);
    assert_eq!(rom.stats().adi_iterations, 0);
}

#[test]
fn norm_reducer_runs_on_the_lowrank_engine() {
    let line = TransmissionLine::current_driven(35).expect("circuit");
    let full = line.qldae();
    let spec = MomentSpec::new(4, 2, 1);
    let dense = NormReducer::new(spec)
        .with_engine(ReductionEngine::DenseSchur)
        .reduce(full)
        .expect("dense NORM reduction");
    let low = NormReducer::new(spec)
        .with_engine(ReductionEngine::LowRank)
        .reduce(full)
        .expect("low-rank NORM reduction");
    assert!(low.stats().lowrank_engine);
    assert!(low.stats().is_stable());
    let kern_dense = VolterraKernels::new(dense.system(), 0).expect("kernels");
    let kern_low = VolterraKernels::new(low.system(), 0).expect("kernels");
    for s in S_POINTS {
        let d = kern_dense.output_h1(s).unwrap();
        let l = kern_low.output_h1(s).unwrap();
        assert!(
            (d - l).abs() <= 1e-7 * (1.0 + d.abs()),
            "NORM H1 dense-vs-lowrank at {s}: {d} vs {l}"
        );
    }
}

/// The two-sided satellite: with `q` input moments and `q` output-Krylov
/// vectors, the reduced `H₁` matches `2q` Taylor moments about `s = 0` —
/// double the one-sided count per basis vector.
#[test]
fn output_krylov_doubles_the_matched_moment_count() {
    // A *non-symmetric, non-reciprocal* stable system: on the symmetric
    // transmission line one-sided Galerkin already matches 2q moments
    // (the classic Lanczos result), which would hide the doubling.
    let mut builder = vamor_system::QldaeBuilder::new(8, 1);
    for i in 0..8 {
        builder = builder.g1_entry(i, i, -1.0 - 0.02 * i as f64);
        if i + 1 < 8 {
            builder = builder.g1_entry(i, i + 1, 0.9).g1_entry(i + 1, i, 0.35);
        }
        if i + 2 < 8 {
            builder = builder.g1_entry(i, i + 2, -0.25);
        }
    }
    let full = builder
        .g2_entry(0, 1, 2, 0.2)
        .b_entry(0, 0, 1.0)
        .b_entry(3, 0, 0.6)
        .output_state(7)
        .build()
        .expect("system");
    let full = &full;
    // Pure H1 spec: q = 2 input moments, 2 output moments.
    let spec = MomentSpec::new(2, 0, 0);
    let two_sided = AssocReducer::new(spec)
        .with_output_krylov(2)
        .reduce(full)
        .expect("two-sided reduction");
    assert_eq!(two_sided.stats().output_candidates, 2);
    assert_eq!(two_sided.order(), 2, "order stays q = 2");

    // Taylor moments of H1 about s = 0: m_j = c G₁⁻⁽ʲ⁺¹⁾ b.
    let moments = |g1: &vamor_linalg::Matrix,
                   b: &vamor_linalg::Vector,
                   c: &vamor_linalg::Matrix,
                   count: usize| {
        let lu = g1.lu().expect("lu");
        let mut v = b.clone();
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            v = lu.solve(&v).expect("solve");
            let mut acc = 0.0;
            for j in 0..c.cols() {
                acc += c[(0, j)] * v[j];
            }
            out.push(acc);
        }
        out
    };
    let full_m = moments(full.g1(), &full.b().col(0), full.c(), 4);
    let sys = two_sided.system();
    let red_m = moments(sys.g1(), &sys.b().col(0), sys.c(), 4);
    // All four moments match with a 2-dimensional ROM: the one-sided bound
    // would be two.
    for (j, (f, r)) in full_m.iter().zip(red_m.iter()).enumerate() {
        assert!(
            (f - r).abs() <= 1e-8 * (1.0 + f.abs()),
            "moment {j}: full {f:.6e} vs reduced {r:.6e}"
        );
    }

    // The one-sided reduction at the same order does NOT match moments 2/3.
    let one_sided = AssocReducer::new(spec)
        .with_stabilized_projection(false)
        .reduce(full)
        .expect("one-sided reduction");
    assert_eq!(one_sided.order(), 2);
    let sys1 = one_sided.system();
    let one_m = moments(sys1.g1(), &sys1.b().col(0), sys1.c(), 4);
    let tail_err: f64 = (2..4)
        .map(|j| (full_m[j] - one_m[j]).abs() / (1.0 + full_m[j].abs()))
        .fold(0.0, f64::max);
    assert!(
        tail_err > 1e-6,
        "one-sided ROM unexpectedly matched the doubled moments ({tail_err:.3e})"
    );
}

#[test]
fn output_krylov_rejects_the_lowrank_engine() {
    let line = TransmissionLine::current_driven(20).expect("circuit");
    let err = AssocReducer::new(MomentSpec::new(2, 0, 0))
        .with_output_krylov(2)
        .with_engine(ReductionEngine::LowRank)
        .reduce(line.qldae());
    assert!(err.is_err());
}

/// Both engines factor `G₁` through the one pivot ladder
/// (`LuFactor::build_with_recovery`), so on the same stamp and backend they
/// report the same recovery — and a singular stamp fails both.
#[test]
fn dense_and_lowrank_generators_report_the_same_pivot_recovery() {
    use vamor_core::{
        AssocMomentGenerator, LowRankAssocMomentGenerator, LowRankOptions, SharedAssocArtifacts,
    };
    use vamor_linalg::SolverBackend;

    let line = TransmissionLine::voltage_driven(8).expect("circuit");
    let varistor = VaristorCircuit::new(12).expect("circuit");
    let opts = LowRankOptions::default();
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let stamp = SharedAssocArtifacts::build(line.qldae(), backend).expect("stamp");
        let dense = AssocMomentGenerator::with_shared(line.qldae(), &stamp).expect("dense");
        let low = LowRankAssocMomentGenerator::new(line.qldae(), backend, opts).expect("low");
        assert_eq!(dense.pivot_recovery(), low.pivot_recovery(), "{backend:?}");
        let stamp = SharedAssocArtifacts::build(varistor.qldae(), backend).expect("stamp");
        let dense = AssocMomentGenerator::with_shared(varistor.qldae(), &stamp).expect("dense");
        let low = LowRankAssocMomentGenerator::new(varistor.qldae(), backend, opts).expect("low");
        assert_eq!(dense.pivot_recovery(), low.pivot_recovery(), "{backend:?}");
    }

    // State 1 has no conductance: G₁ is exactly singular on every rung.
    let singular = vamor_system::QldaeBuilder::new(2, 1)
        .g1_entry(0, 0, -1.0)
        .g1_entry(0, 1, 0.5)
        .b_entry(0, 0, 1.0)
        .output_state(0)
        .build()
        .expect("singular stamp still builds");
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        assert!(SharedAssocArtifacts::build(&singular, backend).is_err());
        assert!(LowRankAssocMomentGenerator::new(&singular, backend, opts).is_err());
    }
}
