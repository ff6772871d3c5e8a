//! Direct tests of the `G₁` pivot degradation ladder,
//! [`LuFactor::build_with_recovery`]: which backend each request ends in,
//! what the returned [`PivotRecovery`] reports, and the degradation event
//! the dense-fallback rung emits.

use vamor_linalg::{CooMatrix, CsrMatrix, LinalgError, LuFactor, PivotRecovery, Vector};
use vamor_obs::event::{self, DegradationRung};
use vamor_obs::Event;

/// A diagonally dominant tridiagonal stamp (healthy on every rung).
fn tridiagonal(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, -4.0 - 0.1 * i as f64);
        if i + 1 < n {
            coo.push(i, i + 1, 1.0);
            coo.push(i + 1, i, 0.5);
        }
    }
    coo.to_csr()
}

#[test]
fn healthy_sparse_stamp_stays_sparse_without_recovery() {
    let csr = tridiagonal(12);
    let (lu, recovery) = LuFactor::build_with_recovery(&csr, true).unwrap();
    assert!(lu.is_sparse());
    assert_eq!(recovery, PivotRecovery::default());
    assert!(!recovery.any());
    let b = Vector::from_fn(12, |i| 1.0 + i as f64);
    let x = lu.solve(&b).unwrap();
    assert!((&csr.matvec(&x) - &b).norm_inf() < 1e-12);
}

#[test]
fn dense_request_builds_the_dense_factor() {
    let csr = tridiagonal(7);
    let (lu, recovery) = LuFactor::build_with_recovery(&csr, false).unwrap();
    assert!(!lu.is_sparse());
    assert_eq!(recovery, PivotRecovery::default());
    let (sparse, _) = LuFactor::build_with_recovery(&csr, true).unwrap();
    let b = Vector::from_fn(7, |i| (i as f64 * 0.7).sin());
    let diff = &lu.solve(&b).unwrap() - &sparse.solve(&b).unwrap();
    assert!(diff.norm_inf() < 1e-12);
}

#[test]
fn singular_stamp_fails_typed_after_one_dense_fallback() {
    // Row and column 2 are empty: singular on every rung of both backends.
    let mut coo = CooMatrix::new(3, 3);
    coo.push(0, 0, -1.0);
    coo.push(0, 1, 0.5);
    coo.push(1, 1, -2.0);
    let csr = coo.to_csr();

    event::install();
    let result = LuFactor::build_with_recovery(&csr, true);
    let log = event::take();
    assert!(
        matches!(result, Err(LinalgError::Singular(_))),
        "expected a typed Singular error, got {result:?}"
    );
    let fallbacks = log
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                Event::Degradation {
                    rung: DegradationRung::DenseFallback,
                    ..
                }
            )
        })
        .count();
    assert_eq!(fallbacks, 1, "exactly one dense-fallback rung");

    // A dense request never enters the sparse rungs: same typed error.
    assert!(matches!(
        LuFactor::build_with_recovery(&csr, false),
        Err(LinalgError::Singular(_))
    ));
}
