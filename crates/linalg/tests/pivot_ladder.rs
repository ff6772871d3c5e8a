//! Direct tests of the pivot degradation ladder,
//! [`LuFactor::build_with_recovery`]: which backend each request ends in,
//! what the returned [`PivotRecovery`] reports, and the degradation events
//! its rungs emit.

use std::sync::Mutex;

use vamor_linalg::{
    CooMatrix, CsrMatrix, LinalgError, LuFactor, PivotRecovery, SparseLuSymbolic, Vector,
};
use vamor_obs::event::{self, DegradationRung, EventLog};
use vamor_obs::Event;

/// The event subscriber is process-global: tests that install it take
/// this lock so their capture windows never interleave.
static EVENTS: Mutex<()> = Mutex::new(());

/// How many degradation events of `rung` the log holds.
fn count(log: &EventLog, rung: DegradationRung) -> usize {
    log.records
        .iter()
        .filter(|r| matches!(r.event, Event::Degradation { rung: got, .. } if got == rung))
        .count()
}

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
    let (lu, recovery) = LuFactor::build_with_recovery(&csr, true, None).unwrap();
    assert!(lu.is_sparse());
    assert_eq!(recovery, PivotRecovery::default());
    assert_eq!(recovery.rungs(), 0);
    let b = Vector::from_fn(12, |i| 1.0 + i as f64);
    let x = lu.solve(&b).unwrap();
    assert!((&csr.matvec(&x) - &b).norm_inf() < 1e-12);
}

#[test]
fn dense_request_builds_the_dense_factor() {
    let csr = tridiagonal(7);
    let (lu, recovery) = LuFactor::build_with_recovery(&csr, false, None).unwrap();
    assert!(!lu.is_sparse());
    assert_eq!(recovery, PivotRecovery::default());
    let (sparse, _) = LuFactor::build_with_recovery(&csr, true, None).unwrap();
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

    let _events = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
    event::install();
    let result = LuFactor::build_with_recovery(&csr, true, None);
    let log = event::take();
    assert!(
        matches!(result, Err(LinalgError::Singular(_))),
        "expected a typed Singular error, got {result:?}"
    );
    assert_eq!(
        count(&log, DegradationRung::DenseFallback),
        1,
        "exactly one dense-fallback rung"
    );
    assert_eq!(
        count(&log, DegradationRung::PivotEscalation),
        2,
        "each threshold rung is tried once: two escalations"
    );

    // A dense request never enters the sparse rungs: same typed error.
    assert!(matches!(
        LuFactor::build_with_recovery(&csr, false, None),
        Err(LinalgError::Singular(_))
    ));
}

/// A stamp the default threshold cannot factor but the next rung can: the
/// returned rung count is exactly the number of events emitted.
#[test]
fn recovered_factor_reports_one_rung_per_event() {
    // [[3, 1], [11, 11/3]] in natural order: τ = 0.1 keeps the diagonal 3
    // and the Schur complement 11/3 − (11/3)·1 cancels to exactly 0; τ = 0.5
    // pivots on 11 and the complement 1 − (3/11)·(11/3) is 1 ulp, not 0.
    let mut coo = CooMatrix::new(2, 2);
    coo.push(0, 0, 3.0);
    coo.push(0, 1, 1.0);
    coo.push(1, 0, 11.0);
    coo.push(1, 1, 11.0 / 3.0);
    let csr = coo.to_csr();
    let natural = SparseLuSymbolic::natural(2);

    let _events = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
    event::install();
    let (lu, recovery) = LuFactor::build_with_recovery(&csr, true, Some(&natural)).unwrap();
    let log = event::take();
    assert!(
        lu.is_sparse(),
        "the escalated threshold recovers the sparse factor"
    );
    assert_eq!(
        recovery,
        PivotRecovery {
            escalations: 1,
            dense_fallback: false,
        }
    );
    let events =
        count(&log, DegradationRung::PivotEscalation) + count(&log, DegradationRung::DenseFallback);
    assert_eq!(recovery.rungs(), events);
    assert_eq!(events, 1);
}
