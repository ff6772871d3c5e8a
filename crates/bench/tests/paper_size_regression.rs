//! Paper-size regression tests for the stabilized projection pipeline.
//!
//! `BENCH_PR1.json` recorded the seed's reduced models *diverging* at the
//! paper's full sizes (fig. 2 max relative error ≈ 4.9, fig. 4 ≈ 2·10²⁷ on
//! both solver paths). These tests pin the fix: the paper-size reductions
//! must produce Hurwitz reduced linear parts and transient errors below the
//! acceptance thresholds, on every run, in CI.
//!
//! (The workspace dev profile builds with optimizations precisely so these
//! full-size cases stay inside the CI budget.)

use vamor_bench::{fig2_voltage_line, fig4_rf_receiver};
use vamor_circuits::RfReceiver;
use vamor_core::{AssocReducer, MomentSpec};
use vamor_linalg::eigenvalues;

#[test]
fn fig2_paper_size_rom_is_stable_and_accurate() {
    let cmp = fig2_voltage_line(100, 0.01).expect("fig2 run");
    assert_eq!(cmp.full_order, 100);
    assert!(
        cmp.proposed_hurwitz(),
        "fig2 reduced G1r lost stability (abscissa {:.3e})",
        cmp.proposed_abscissa
    );
    let err = cmp.max_error_proposed();
    assert!(err.is_finite(), "fig2 error is not finite");
    assert!(
        err <= 5e-2,
        "fig2 paper-size relative error {err:.3e} exceeds the 5e-2 acceptance bound \
         (the seed diverged at ~4.9 here)"
    );
}

#[test]
fn fig4_paper_size_rom_is_stable_and_accurate() {
    let cmp = fig4_rf_receiver(86, 0.01).expect("fig4 run");
    assert_eq!(cmp.full_order, 173);
    assert!(
        cmp.proposed_hurwitz(),
        "fig4 reduced G1r lost stability (abscissa {:.3e})",
        cmp.proposed_abscissa
    );
    let err = cmp.max_error_proposed();
    assert!(err.is_finite(), "fig4 error is not finite");
    assert!(
        err <= 1e-1,
        "fig4 paper-size relative error {err:.3e} exceeds the 1e-1 acceptance bound \
         (the seed diverged at ~2e27 here)"
    );
    // The NORM baseline runs through the same stabilized pipeline and must be
    // stable and finite as well.
    let norm_abscissa = cmp.norm_abscissa.expect("fig4 includes the NORM baseline");
    assert!(
        norm_abscissa < 0.0,
        "fig4 NORM reduced G1r lost stability (abscissa {norm_abscissa:.3e})"
    );
    let norm_err = cmp.max_error_norm().expect("NORM error");
    assert!(norm_err.is_finite(), "fig4 NORM error is not finite");
}

#[test]
fn spectral_guard_restores_stability_on_plain_galerkin() {
    // The receiver's non-normal LC cascade is exactly the case where plain
    // one-sided Galerkin produces an unstable reduced matrix: the guard
    // drops trailing candidates until the reduced spectrum is clean, and
    // its restart count proves the full basis was unstable.
    let rx = RfReceiver::new(16).expect("circuit");
    let guarded = AssocReducer::new(MomentSpec::new(8, 4, 2))
        .with_markov_moments(2)
        .with_stabilized_projection(false)
        .reduce(rx.qldae())
        .expect("guarded reduce");
    assert!(
        eigenvalues(guarded.system().g1()).unwrap().is_hurwitz(),
        "the spectral guard failed to restore stability"
    );
    assert!(guarded.stats().restarts > 0, "guard should have restarted");
    assert!(guarded.stats().is_stable());
}

#[test]
fn stabilized_projection_needs_no_guard_restarts() {
    // With the energy inner product active the reduced matrix is Hurwitz by
    // construction: the guard must verify without dropping anything.
    let rx = RfReceiver::new(16).expect("circuit");
    let rom = AssocReducer::new(MomentSpec::new(8, 4, 2))
        .with_markov_moments(2)
        .reduce(rx.qldae())
        .expect("stabilized reduce");
    assert_eq!(rom.stats().restarts, 0);
    assert!(rom.stats().is_stable());
    assert!(eigenvalues(rom.system().g1()).unwrap().is_hurwitz());
}
