//! Rung parity of the one pivot degradation ladder: the reducers' `G₁`
//! factorization and the implicit integrator's sparse iteration matrix walk
//! the same rungs on an exactly singular stamp, report them as the same
//! event sequence — two pivot escalations, then one dense fallback — and
//! fail with a typed `Singular` error.
//!
//! The event subscriber is process-global, so both capture windows live in
//! this file's one `#[test]`.

use vamor_core::{AssocReducer, MomentSpec, MorError};
use vamor_linalg::{LinalgError, SolverBackend};
use vamor_obs::event::{self, DegradationRung};
use vamor_obs::Event;
use vamor_sim::{simulate, IntegrationMethod, SimError, Step, TransientOptions};
use vamor_system::{Qldae, QldaeBuilder};

/// States of both stamps: the integrator's `Auto` backend factors sparsely
/// from 256 states on.
const N: usize = 256;
/// The state whose column of the stamp is made zero.
const DEAD: usize = N / 2;
/// Trapezoidal step: `θh = 1/4`, so a `G₁` diagonal of 4 zeroes the
/// matching diagonal of `I − θh·G₁` exactly.
const DT: f64 = 0.5;

/// A tridiagonal chain driven at state 0 whose column `DEAD` holds only
/// `dead_diag` on the diagonal (nothing at all for `None`).
fn chain(dead_diag: Option<f64>) -> Qldae {
    let mut builder = QldaeBuilder::new(N, 1)
        .b_entry(0, 0, 1.0)
        .output_state(N - 1);
    for i in 0..N {
        let entries = [(i, i, -2.0), (i, i + 1, 1.0), (i + 1, i, 1.0)];
        for (r, c, v) in entries {
            if r < N && c < N && c != DEAD {
                builder = builder.g1_entry(r, c, v);
            }
        }
    }
    if let Some(v) = dead_diag {
        builder = builder.g1_entry(DEAD, DEAD, v);
    }
    builder.build().unwrap()
}

/// The degradation rungs of the captured log, in emission order.
fn rungs(log: &event::EventLog) -> Vec<DegradationRung> {
    log.records
        .iter()
        .filter_map(|r| match r.event {
            Event::Degradation { rung, .. } => Some(rung),
            _ => None,
        })
        .collect()
}

#[test]
fn g1_and_integrator_ladders_emit_the_same_rungs_on_a_singular_stamp() {
    let expected = vec![
        DegradationRung::PivotEscalation,
        DegradationRung::PivotEscalation,
        DegradationRung::DenseFallback,
    ];

    // The reducers' G₁ path: column DEAD of G₁ is empty.
    let singular_g1 = chain(None);
    event::install();
    let reduced = AssocReducer::new(MomentSpec::new(4, 0, 0))
        .with_solver_backend(SolverBackend::Sparse)
        .reduce(&singular_g1);
    let g1_rungs = rungs(&event::take());
    assert!(
        matches!(reduced, Err(MorError::Linalg(LinalgError::Singular(_)))),
        "G₁ path: expected a typed Singular error, got {:?}",
        reduced.err()
    );
    assert_eq!(g1_rungs, expected, "G₁ path rungs");

    // The integrator: G₁ is regular, but column DEAD of I − θh·J is zero.
    let system = chain(Some(1.0 / (0.5 * DT)));
    let opts =
        TransientOptions::new(0.0, 1.0, DT).with_method(IntegrationMethod::ImplicitTrapezoidal);
    event::install();
    let run = simulate(&system, &Step::new(1.0, 0.0), &opts);
    let integrator_rungs = rungs(&event::take());
    assert!(
        matches!(run, Err(SimError::Linalg(LinalgError::Singular(_)))),
        "integrator: expected a typed Singular error, got {:?}",
        run.err()
    );
    assert_eq!(integrator_rungs, expected, "integrator rungs");
}
