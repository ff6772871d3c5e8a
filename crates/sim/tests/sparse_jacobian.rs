//! Regression tests for the sparse frozen-Jacobian path of the implicit
//! integrators: forcing the sparse backend must reproduce the dense
//! trajectory to ≤ 1e-9 with the same factorization schedule, and the `Auto`
//! backend must keep small systems on the dense path.

use vamor_circuits::{TransmissionLine, VaristorCircuit};
use vamor_sim::{
    max_relative_error, simulate, ExpPulse, IntegrationMethod, SinePulse, SolverBackend,
    TransientOptions,
};

fn implicit(t_end: f64, dt: f64) -> TransientOptions {
    TransientOptions::new(0.0, t_end, dt).with_method(IntegrationMethod::ImplicitTrapezoidal)
}

#[test]
fn varistor_sparse_and_dense_transients_agree_to_1e9() {
    let circuit = VaristorCircuit::paper_size().expect("circuit");
    let surge = ExpPulse::new(VaristorCircuit::surge_amplitude(), 0.5, 6.0);
    let opts = implicit(30.0, 0.01);

    let dense = simulate(
        circuit.qldae(),
        &surge,
        &opts.with_linear_solver(SolverBackend::Dense),
    )
    .expect("dense run");
    let sparse = simulate(
        circuit.qldae(),
        &surge,
        &opts.with_linear_solver(SolverBackend::Sparse),
    )
    .expect("sparse run");

    assert_eq!(dense.stats.sparse_factorizations, 0);
    assert!(sparse.stats.sparse_factorizations > 0);
    assert_eq!(
        sparse.stats.sparse_factorizations, sparse.stats.jacobian_factorizations,
        "every sparse-run factorization must go through the sparse solver"
    );
    // Same refresh schedule: the backend only changes how `I − θh·J` is
    // factored, not when.
    assert_eq!(
        dense.stats.jacobian_factorizations,
        sparse.stats.jacobian_factorizations
    );
    let diff = max_relative_error(&dense.output_channel(0), &sparse.output_channel(0));
    assert!(diff <= 1e-9, "trajectory diff {diff:.3e} exceeds 1e-9");
}

#[test]
fn voltage_line_with_d1_matches_on_both_backends() {
    // The D₁ bilinear term makes the Jacobian input-dependent; both backends
    // must track it identically.
    let line = TransmissionLine::voltage_driven(40).expect("circuit");
    let input = SinePulse::damped(0.02, 0.3, 0.05);
    let opts = implicit(10.0, 0.02);
    let dense = simulate(
        line.qldae(),
        &input,
        &opts.with_linear_solver(SolverBackend::Dense),
    )
    .expect("dense run");
    let sparse = simulate(
        line.qldae(),
        &input,
        &opts.with_linear_solver(SolverBackend::Sparse),
    )
    .expect("sparse run");
    let diff = max_relative_error(&dense.output_channel(0), &sparse.output_channel(0));
    assert!(diff <= 1e-9, "trajectory diff {diff:.3e} exceeds 1e-9");
    assert!(sparse.stats.sparse_factorizations > 0);
}

#[test]
fn auto_backend_keeps_small_systems_dense_and_backward_euler_works_sparse() {
    let line = TransmissionLine::current_driven(20).expect("circuit");
    let input = SinePulse::damped(0.5, 0.4, 0.08);
    // Auto on a 20-state system: dense (below the break-even threshold).
    let auto = simulate(line.qldae(), &input, &implicit(5.0, 0.02)).expect("auto run");
    assert_eq!(auto.stats.sparse_factorizations, 0);
    // Forced sparse with backward Euler still reproduces the dense result.
    let opts = TransientOptions::new(0.0, 5.0, 0.02).with_method(IntegrationMethod::BackwardEuler);
    let dense = simulate(
        line.qldae(),
        &input,
        &opts.with_linear_solver(SolverBackend::Dense),
    )
    .expect("dense BE run");
    let sparse = simulate(
        line.qldae(),
        &input,
        &opts.with_linear_solver(SolverBackend::Sparse),
    )
    .expect("sparse BE run");
    let diff = max_relative_error(&dense.output_channel(0), &sparse.output_channel(0));
    assert!(diff <= 1e-9, "BE trajectory diff {diff:.3e}");
}
