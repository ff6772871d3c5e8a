//! Chaos coverage of the integrator seams under an armed fault plan.
//!
//! The armed plan and the event subscriber are process-global, so this
//! test lives in its own binary: no unarmed test shares its process and
//! could hit an injected fault.
#![cfg(feature = "fault-injection")]

use vamor_linalg::fault::{arm, disarm, injected, FaultKind, FaultPlan};
use vamor_obs::event;
use vamor_obs::Event;
use vamor_sim::{simulate, IntegrationMethod, JacobianPolicy, SimError, Step, TransientOptions};
use vamor_system::{Qldae, QldaeBuilder};

fn decay_system(lambda: f64) -> Qldae {
    QldaeBuilder::new(1, 1)
        .g1_entry(0, 0, lambda)
        .b_entry(0, 0, 1.0)
        .output_state(0)
        .build()
        .unwrap()
}

/// Injected factorization and solve faults must end in a finite trajectory
/// plus a recovery count, or a typed error — never a panic, never silent NaN
/// output. Every counted recovery is on the event stream.
#[test]
fn injected_integrator_faults_recover_or_fail_typed() {
    let sys = decay_system(-1000.0);
    let opts = TransientOptions::new(0.0, 1.0, 0.01)
        .with_method(IntegrationMethod::ImplicitTrapezoidal)
        .with_jacobian_policy(JacobianPolicy::EveryStep);
    for kind in [
        FaultKind::SingularFactor,
        FaultKind::NanSolve,
        FaultKind::AdiStall,
    ] {
        for seed in [1u64, 7, 42] {
            event::install();
            arm(FaultPlan::new(seed, kind));
            let outcome = simulate(&sys, &Step::new(1.0, 0.0), &opts);
            let fired = injected();
            disarm();
            let degradations = event::take()
                .records
                .iter()
                .filter(|r| matches!(r.event, Event::Degradation { .. }))
                .count();
            match outcome {
                Ok(r) => {
                    assert!(
                        r.output_channel(0).iter().all(|v| v.is_finite()),
                        "{kind:?}/{seed}: non-finite output leaked through"
                    );
                    // Factor faults land on the dense path here (1-state
                    // system), each one a counted recovery.
                    if kind == FaultKind::SingularFactor && fired > 0 {
                        assert!(
                            r.stats.pivot_recoveries > 0,
                            "{kind:?}/{seed}: recovery went uncounted"
                        );
                    }
                    assert_eq!(
                        degradations, r.stats.pivot_recoveries,
                        "{kind:?}/{seed}: every counted recovery emits one degradation event"
                    );
                }
                Err(
                    SimError::NewtonFailed { .. } | SimError::Diverged { .. } | SimError::Linalg(_),
                ) => {}
                Err(e) => panic!("{kind:?}/{seed}: unexpected error shape {e}"),
            }
        }
    }
}
