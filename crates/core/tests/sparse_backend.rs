//! Regression tests for the sparse linear-solver backend of the reducers:
//! forcing `SolverBackend::Sparse` must reproduce the dense reduction to
//! floating-point roundoff — same reduced orders, same transfer behaviour —
//! while actually exercising the sparse code path.

use vamor_circuits::{TransmissionLine, VaristorCircuit};
use vamor_core::{AssocReducer, MomentSpec, NormReducer, SolverBackend, VolterraKernels};
use vamor_linalg::Complex;

const S_POINTS: [Complex; 3] = [
    Complex::new(0.0, 0.05),
    Complex::new(0.02, 0.01),
    Complex::new(-0.01, 0.15),
];

#[test]
fn assoc_reducer_sparse_and_dense_backends_agree() {
    let line = TransmissionLine::current_driven(35).expect("circuit");
    let full = line.qldae();
    let spec = MomentSpec::paper_default();
    let dense = AssocReducer::new(spec)
        .with_solver_backend(SolverBackend::Dense)
        .reduce(full)
        .expect("dense reduction");
    let sparse = AssocReducer::new(spec)
        .with_solver_backend(SolverBackend::Sparse)
        .reduce(full)
        .expect("sparse reduction");
    assert_eq!(dense.order(), sparse.order(), "reduced orders diverged");
    assert_eq!(
        dense.stats().total_candidates(),
        sparse.stats().total_candidates()
    );

    let kd = VolterraKernels::new(dense.system(), 0).expect("dense kernels");
    let ks = VolterraKernels::new(sparse.system(), 0).expect("sparse kernels");
    for s in S_POINTS {
        let a = kd.output_h1(s).expect("h1 dense");
        let b = ks.output_h1(s).expect("h1 sparse");
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
            "H1 mismatch at {s}: {a} vs {b}"
        );
        let a2 = kd.output_h2(s, s).expect("h2 dense");
        let b2 = ks.output_h2(s, s).expect("h2 sparse");
        assert!(
            (a2 - b2).abs() <= 1e-9 * (1.0 + a2.abs()),
            "H2 mismatch at {s}: {a2} vs {b2}"
        );
    }
}

#[test]
fn assoc_reducer_sparse_backend_handles_the_d1_line() {
    // The voltage-driven line exercises the D₁ chains and the complex
    // shifted solves of the H₃ realization through the sparse cache.
    let line = TransmissionLine::voltage_driven(24).expect("circuit");
    let spec = MomentSpec::new(4, 2, 2);
    let dense = AssocReducer::new(spec)
        .with_solver_backend(SolverBackend::Dense)
        .reduce(line.qldae())
        .expect("dense reduction");
    let sparse = AssocReducer::new(spec)
        .with_solver_backend(SolverBackend::Sparse)
        .reduce(line.qldae())
        .expect("sparse reduction");
    assert_eq!(dense.order(), sparse.order());
    let kd = VolterraKernels::new(dense.system(), 0).expect("dense kernels");
    let ks = VolterraKernels::new(sparse.system(), 0).expect("sparse kernels");
    for s in S_POINTS {
        let a = kd.output_h1(s).expect("h1 dense");
        let b = ks.output_h1(s).expect("h1 sparse");
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
            "H1 mismatch at {s}"
        );
    }
}

#[test]
fn norm_reducer_sparse_and_dense_backends_agree() {
    let line = TransmissionLine::current_driven(30).expect("circuit");
    let spec = MomentSpec::new(3, 2, 1);
    let dense = NormReducer::new(spec)
        .with_solver_backend(SolverBackend::Dense)
        .reduce(line.qldae())
        .expect("dense reduction");
    let sparse = NormReducer::new(spec)
        .with_solver_backend(SolverBackend::Sparse)
        .reduce(line.qldae())
        .expect("sparse reduction");
    assert_eq!(dense.order(), sparse.order());
    let kd = VolterraKernels::new(dense.system(), 0).expect("dense kernels");
    let ks = VolterraKernels::new(sparse.system(), 0).expect("sparse kernels");
    for s in S_POINTS {
        let a = kd.output_h1(s).expect("h1 dense");
        let b = ks.output_h1(s).expect("h1 sparse");
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
            "H1 mismatch at {s}"
        );
    }
}

#[test]
fn cubic_reducer_sparse_and_dense_backends_agree() {
    let circuit = VaristorCircuit::new(28).expect("circuit");
    let spec = MomentSpec::new(4, 0, 2);
    let dense = AssocReducer::new(spec)
        .with_stabilized_projection(false)
        .with_solver_backend(SolverBackend::Dense)
        .reduce(circuit.qldae())
        .expect("dense reduction");
    let sparse = AssocReducer::new(spec)
        .with_stabilized_projection(false)
        .with_solver_backend(SolverBackend::Sparse)
        .reduce(circuit.qldae())
        .expect("sparse reduction");
    assert_eq!(dense.order(), sparse.order());
    // The projection basis is only determined up to tiny roundoff-driven
    // rotations, so compare the basis-invariant linearized transfer function
    // instead of raw matrix entries.
    let hd = dense.system().linearized().expect("dense linearization");
    let hs = sparse.system().linearized().expect("sparse linearization");
    for w in [0.0_f64, 0.05, 0.3, 1.0] {
        let s = Complex::new(0.0, w);
        let a = hd.transfer_function(s).expect("dense H")[(0, 0)];
        let b = hs.transfer_function(s).expect("sparse H")[(0, 0)];
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
            "linearized transfer mismatch at w={w}: {a} vs {b}"
        );
    }
}
