//! Regression tests for the solver-cache layer: the cached moment chains
//! (shifted-LU memoization, shared Schur forms, single-factorization
//! Lyapunov setup) must reproduce brute-force dense references built from
//! fresh factorizations, while demonstrably serving repeated shifts from the
//! cache.

use vamor_circuits::TransmissionLine;
use vamor_core::{AssocMomentGenerator, BlockH2Op, ScaledMoments};
use vamor_linalg::kron::{unvec, vec_of};
use vamor_linalg::{kron_sum, kron_vec, ShiftedSolve, Vector};
use vamor_system::Qldae;

/// The raw moments a scaled chain stands for: `vectors[k] · 10^mag[k]`.
fn rebuild(scaled: &ScaledMoments) -> Vec<Vector> {
    scaled
        .vectors
        .iter()
        .zip(&scaled.log10_magnitudes)
        .map(|(v, &mag)| v.scaled(10.0_f64.powf(mag)))
        .collect()
}

/// `H₂` moments of input 0 from the explicit dense realization of Eq. 17,
/// by repeated dense solves: `c̃ G̃₂^{-(k+1)} b̃` (sign dropped).
fn dense_h2_moments(q: &Qldae, count: usize) -> Vec<Vector> {
    let generator = AssocMomentGenerator::new(q).expect("generator");
    let (a, btilde, c) = generator.dense_h2_realization(0).expect("realization");
    let lu = a.lu().expect("dense lu");
    let mut v = btilde;
    (0..count)
        .map(|_| {
            v = lu.solve(&v).expect("dense solve");
            c.matvec(&v)
        })
        .collect()
}

/// `H₃` moments of input 0 from the explicit `G₁ ⊕ G̃₂` Kronecker sum.
fn dense_h3_moments(q: &Qldae, count: usize) -> Vec<Vector> {
    let n = q.g1().rows();
    let generator = AssocMomentGenerator::new(q).expect("generator");
    let (gt2, btilde, ctilde) = generator.dense_h2_realization(0).expect("realization");
    let b = q.b().col(0);
    let big_lu = kron_sum(q.g1(), &gt2).lu().expect("kron-sum lu");
    let g1_lu = q.g1().lu().expect("g1 lu");
    let mut d_chain = match q.d1().first() {
        Some(d1) => d1.matvec(&d1.matvec(&b)),
        None => Vector::zeros(n),
    };
    let mut z = kron_vec(&b, &btilde);
    let mut acc: Vec<Vector> = Vec::new();
    let mut out = Vec::new();
    for _ in 0..count {
        z = big_lu.solve(&z).expect("kron-sum solve");
        let s = ctilde.matmul(&unvec(&z, n + n * n, n).expect("reshape"));
        let mut nu = vec_of(&s);
        nu.axpy(1.0, &vec_of(&s.transpose()));
        for a in acc.iter_mut() {
            *a = g1_lu.solve(a).expect("g1 solve");
        }
        acc.push(g1_lu.solve(&q.g2().matvec(&nu)).expect("g1 solve"));
        d_chain = g1_lu.solve(&d_chain).expect("g1 solve");
        let mut m_k = Vector::zeros(n);
        for a in &acc {
            m_k.axpy(1.0, a);
        }
        m_k.axpy(-1.0, &d_chain);
        out.push(m_k);
    }
    out
}

fn assert_moments_close(ours: &[Vector], reference: &[Vector], what: &str) {
    assert_eq!(ours.len(), reference.len(), "{what}: chain length");
    for (k, (x, y)) in ours.iter().zip(reference).enumerate() {
        // Taylor coefficients of the same function up to sign convention.
        let diff = (x - y).norm_inf().min((&x.scaled(-1.0) - y).norm_inf());
        assert!(
            diff <= 1e-9 * (1.0 + y.norm_inf()),
            "{what} moment {k} diff {diff:.3e}"
        );
    }
}

#[test]
fn cached_moments_match_fresh_factorization_moments() {
    // Small enough that the explicit (n·(n + n²))-dimensional H3
    // realization stays cheap to factor densely.
    for stages in [3usize, 4] {
        let line = TransmissionLine::voltage_driven(stages).expect("circuit");
        let q = line.qldae();
        let cached = AssocMomentGenerator::new(q).expect("cached generator");
        assert_moments_close(
            &rebuild(&cached.h2_moments_scaled(0, 0, 3).expect("cached h2")),
            &dense_h2_moments(q, 3),
            &format!("h2 ({stages} stages)"),
        );
        assert_moments_close(
            &rebuild(&cached.h3_moments_scaled(0, 2).expect("cached h3")),
            &dense_h3_moments(q, 2),
            &format!("h3 ({stages} stages)"),
        );
    }
}

#[test]
fn repeated_shifted_solves_hit_the_cache() {
    let line = TransmissionLine::current_driven(10).expect("circuit");
    let q = line.qldae();
    let op = BlockH2Op::new(q.g1(), q.g2()).expect("block op");
    let rhs = Vector::from_fn(op.dim(), |i| (i % 7) as f64 - 3.0);
    let a = op.solve_shifted(0.25, &rhs).expect("first solve");
    let hits_before = op.shift_cache().hits();
    let b = op.solve_shifted(0.25, &rhs).expect("second solve");
    assert!(
        op.shift_cache().hits() > hits_before,
        "second solve must reuse the cached LU"
    );
    assert_eq!(
        a.as_slice(),
        b.as_slice(),
        "cached solve must be bit-identical"
    );

    // Smoke check on the same circuit: the H3 moment chain no longer goes
    // through the block operator or any shift cache (it runs in G1's Schur
    // coordinates and factors no shifted G1), but it must still run.
    let generator = AssocMomentGenerator::new(q).expect("generator");
    generator.h3_moments_scaled(0, 2).expect("h3 moments");
}
