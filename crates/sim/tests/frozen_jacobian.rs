//! Regression tests for the frozen-Jacobian (modified Newton) policy of the
//! implicit integrators: the trajectory must match the per-step
//! refactorization policy to high accuracy, while the factorization count
//! drops from one-per-step to one-per-refresh.

use vamor_circuits::VaristorCircuit;
use vamor_sim::{
    max_relative_error, simulate, ExpPulse, IntegrationMethod, JacobianPolicy, Step,
    TransientOptions,
};
use vamor_system::QldaeBuilder;

fn implicit(t_end: f64, dt: f64) -> TransientOptions {
    TransientOptions::new(0.0, t_end, dt).with_method(IntegrationMethod::ImplicitTrapezoidal)
}

#[test]
fn varistor_surge_needs_at_most_five_factorizations() {
    let circuit = VaristorCircuit::new(16).expect("circuit");
    let surge = ExpPulse::new(VaristorCircuit::surge_amplitude(), 0.5, 6.0);
    let opts = implicit(30.0, 0.01);

    let every = simulate(
        circuit.qldae(),
        &surge,
        &opts.with_jacobian_policy(JacobianPolicy::EveryStep),
    )
    .expect("every-step run");
    let frozen = simulate(
        circuit.qldae(),
        &surge,
        &opts.with_jacobian_policy(JacobianPolicy::FrozenReuse),
    )
    .expect("frozen run");

    // Legacy policy factors once per step; the frozen policy only on the
    // initial step plus convergence-failure refreshes.
    assert_eq!(every.stats.jacobian_factorizations, every.stats.steps);
    assert!(
        frozen.stats.jacobian_factorizations <= 5,
        "expected O(refreshes) factorizations, got {}",
        frozen.stats.jacobian_factorizations
    );

    let err = max_relative_error(&every.output_channel(0), &frozen.output_channel(0));
    assert!(
        err <= 1e-8,
        "frozen-Jacobian trajectory diverged: {err:.3e}"
    );
}

#[test]
fn frozen_policy_is_default_and_factors_once_for_smooth_runs() {
    // x' = -x + u, step input: mildly nonlinear-free, one factorization total.
    let sys = QldaeBuilder::new(1, 1)
        .g1_entry(0, 0, -1.0)
        .b_entry(0, 0, 1.0)
        .output_state(0)
        .build()
        .unwrap();
    let r = simulate(&sys, &Step::new(1.0, 0.0), &implicit(5.0, 0.01)).unwrap();
    assert_eq!(r.stats.jacobian_factorizations, 1);
    assert_eq!(r.stats.steps, 500);
}

#[test]
fn quadratic_system_trajectories_agree_across_policies() {
    // x' = -x^2 + 1 from zero: solution tanh(t); strongly nonlinear enough
    // that the frozen matrix must refresh at least the stagnation check.
    let sys = QldaeBuilder::new(1, 1)
        .g1_entry(0, 0, 0.0)
        .g2_entry(0, 0, 0, -1.0)
        .b_entry(0, 0, 1.0)
        .output_state(0)
        .build()
        .unwrap();
    let input = vamor_sim::Constant::new(1.0);
    // Tight Newton tolerance: both policies converge each step to the same
    // root, so the trajectories agree to the tolerance (times step count).
    let opts = implicit(2.0, 0.001).with_newton(1e-13, 50);
    let every = simulate(
        &sys,
        &input,
        &opts.with_jacobian_policy(JacobianPolicy::EveryStep),
    )
    .unwrap();
    let frozen = simulate(
        &sys,
        &input,
        &opts.with_jacobian_policy(JacobianPolicy::FrozenReuse),
    )
    .unwrap();
    let err = max_relative_error(&every.output_channel(0), &frozen.output_channel(0));
    assert!(err <= 1e-8, "policy trajectories diverged: {err:.3e}");
    assert!(frozen.stats.jacobian_factorizations < every.stats.jacobian_factorizations / 10);
    let y_end = frozen.outputs.last().unwrap()[0];
    assert!((y_end - 2.0_f64.tanh()).abs() < 1e-5);
}
