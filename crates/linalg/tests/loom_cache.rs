//! Exhaustive-interleaving models of the LRU shift cache
//! (`RUSTFLAGS="--cfg loom" cargo test -p vamor-linalg --test loom_cache`).
//!
//! The cache synchronizes through one coarse mutex over its factor map and
//! monotone atomics. Each model applies every order-preserving merge of the
//! per-thread op sequences to a fresh cache — once per backend, dense and
//! sparse, with the same capacity — and checks the bookkeeping invariants
//! that hold in *every* schedule, not just the sequential ones the unit
//! tests exercise; see [`vamor_linalg::interleave`] for why enumerating
//! those merges covers the schedule space of complete API calls.
//!
//! A solve is not one critical section, though: a lookup that misses
//! releases the lock, factors outside it, and re-acquires it to insert, so
//! two calls that miss the same shift can overlap between lookup and
//! insert. Merges of whole calls never produce that overlap. The unit test
//! `shift_cache::tests::a_factor_that_loses_the_insert_race_counts_a_hit`
//! replays it deterministically on one thread and checks the same ledger.
#![cfg(loom)]

use vamor_linalg::interleave::{explore_named, interleaving_count};
use vamor_linalg::{Complex, CooMatrix, CsrMatrix, ShiftCache, SolverBackend, Vector};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// `solve_shifted(sigma)` — real get-or-insert (+ LRU touch / evict).
    Real(f64),
    /// `solve_shifted_complex(lambda)` — complex get-or-insert.
    Cplx(f64, f64),
    /// `clone()` — snapshot under the map lock.
    Clone,
}

fn base_csr() -> CsrMatrix {
    let mut coo = CooMatrix::new(3, 3);
    coo.push(0, 0, -2.0);
    coo.push(0, 1, 0.7);
    coo.push(1, 1, -3.0);
    coo.push(1, 2, 0.4);
    coo.push(2, 2, -1.5);
    coo.to_csr()
}

/// The two backends every model runs against.
const BACKENDS: [SolverBackend; 2] = [SolverBackend::Dense, SolverBackend::Sparse];

/// Applies a schedule to a fresh bounded cache on each backend.
fn run_schedule(ops: &[Op], capacity: usize) -> Result<(), String> {
    for backend in BACKENDS {
        run_schedule_on(ops, capacity, backend).map_err(|e| format!("{backend:?}: {e}"))?;
    }
    Ok(())
}

/// Applies a schedule to a fresh bounded cache and checks the invariants
/// that must survive any interleaving:
///   1. `len() <= capacity` at every step (eviction is never deferred);
///   2. every solve is exactly one hit or one miss (`hits + misses == ops`);
///   3. entries enter on miss and leave only by eviction
///      (`len == misses - evictions`);
///   4. the solution is the true shifted solve regardless of schedule.
fn run_schedule_on(ops: &[Op], capacity: usize, backend: SolverBackend) -> Result<(), String> {
    let cache = ShiftCache::new(&base_csr(), backend).with_capacity_bound(capacity);
    let rhs = Vector::from_slice(&[1.0, -2.0, 0.5]);
    let mut solves = 0usize;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Real(sigma) => {
                let x = cache
                    .solve_shifted(sigma, &rhs)
                    .map_err(|e| format!("step {step}: {e}"))?;
                solves += 1;
                let mut shifted = base_csr().to_dense();
                for i in 0..3 {
                    shifted[(i, i)] += sigma;
                }
                let fresh = shifted
                    .solve(&rhs)
                    .map_err(|e| format!("step {step} reference: {e}"))?;
                if (&x - &fresh).norm_inf() > 1e-10 {
                    return Err(format!("step {step}: wrong solution for sigma {sigma}"));
                }
            }
            Op::Cplx(re, im) => {
                cache
                    .solve_shifted_complex(Complex::new(re, im), &rhs, &rhs)
                    .map_err(|e| format!("step {step}: {e}"))?;
                solves += 1;
            }
            Op::Clone => {
                let snap = cache.clone();
                if snap.len() > capacity {
                    return Err(format!(
                        "step {step}: clone snapshot over capacity ({} > {capacity})",
                        snap.len()
                    ));
                }
                if snap.len() != snap.misses() - snap.evictions() {
                    return Err(format!("step {step}: clone snapshot accounting torn"));
                }
            }
        }
        if cache.len() > capacity {
            return Err(format!(
                "step {step}: len {} exceeds capacity {capacity}",
                cache.len()
            ));
        }
        if cache.hits() + cache.misses() != solves {
            return Err(format!(
                "step {step}: {} hits + {} misses != {solves} solves",
                cache.hits(),
                cache.misses()
            ));
        }
        if cache.len() != cache.misses() - cache.evictions() {
            return Err(format!(
                "step {step}: len {} != misses {} - evictions {}",
                cache.len(),
                cache.misses(),
                cache.evictions()
            ));
        }
    }
    Ok(())
}

/// Two workers hammer get/insert on overlapping real shifts through a
/// capacity-2 cache: every merge keeps the LRU bound and the hit/miss/evict
/// ledger consistent.
#[test]
fn model_real_get_insert_evict() {
    let t0 = vec![Op::Real(0.0), Op::Real(0.5), Op::Real(0.0)];
    let t1 = vec![Op::Real(1.0), Op::Real(0.5)];
    assert_eq!(interleaving_count(&[3, 2]), 10);
    explore_named("real-get-insert-evict", &[t0, t1], |ops| {
        run_schedule(ops, 2)
    });
}

/// Real and complex factors share one LRU budget in one map: a worker of
/// each kind, every merge, combined len never exceeds the bound.
#[test]
fn model_real_and_complex_share_budget() {
    let t0 = vec![Op::Real(0.0), Op::Real(0.25), Op::Real(0.75)];
    let t1 = vec![Op::Cplx(0.2, 0.7), Op::Cplx(0.4, 1.3)];
    explore_named("real-complex-shared-budget", &[t0, t1], |ops| {
        run_schedule(ops, 2)
    });
}

/// A snapshotting reader (`clone`) races two writers: every snapshot
/// observed in every merge is internally consistent (never over capacity,
/// ledger balanced).
#[test]
fn model_clone_races_inserts() {
    let t0 = vec![Op::Real(0.0), Op::Real(0.5), Op::Real(1.0)];
    let t1 = vec![Op::Clone, Op::Clone];
    explore_named("clone-races-inserts", &[t0, t1], |ops| run_schedule(ops, 2));
}

/// Unbounded mode: no eviction in any schedule, and repeated shifts always
/// hit after their first miss no matter how the threads were merged.
#[test]
fn model_unbounded_never_evicts() {
    let t0 = vec![Op::Real(0.0), Op::Real(0.5)];
    let t1 = vec![Op::Real(0.5), Op::Real(0.0)];
    explore_named("unbounded-never-evicts", &[t0, t1], |ops| {
        for backend in BACKENDS {
            let cache = ShiftCache::new(&base_csr(), backend);
            let rhs = Vector::from_slice(&[1.0, 1.0, 1.0]);
            for op in ops {
                if let Op::Real(sigma) = *op {
                    cache
                        .solve_shifted(sigma, &rhs)
                        .map_err(|e| e.to_string())?;
                }
            }
            if cache.evictions() != 0 {
                return Err(format!("{backend:?}: unbounded cache evicted"));
            }
            // Two distinct shifts solved twice each: exactly two misses.
            if cache.misses() != 2 || cache.hits() != 2 || cache.len() != 2 {
                return Err(format!(
                    "{backend:?}: ledger {}h/{}m/{}len, expected 2/2/2",
                    cache.hits(),
                    cache.misses(),
                    cache.len()
                ));
            }
        }
        Ok(())
    });
}
