//! Ablation — §2.3 of the paper points out that running Arnoldi directly on
//! the explicit `(n + n²)`-dimensional realization of the associated `H₂(s)`
//! (Eq. 17) costs `O((n + n²)²)` per step and scales poorly, which is why the
//! structured Kronecker-sum solves (and the Sylvester decoupling) matter.
//!
//! This bench compares, on a line small enough that the dense realization can
//! be formed at all, the structured moment generation used by the library
//! against the brute-force dense path (explicit `G̃₂`, dense LU, repeated
//! solves).

use std::hint::black_box;
use vamor_bench::harness::{BenchmarkId, Criterion};
use vamor_bench::{criterion_group, criterion_main};

use vamor_circuits::TransmissionLine;
use vamor_core::AssocMomentGenerator;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_structured_vs_dense");
    group.sample_size(10);
    for stages in [8usize, 16, 24] {
        let line = TransmissionLine::current_driven(stages).expect("circuit");
        let qldae = line.qldae().clone();
        group.bench_with_input(
            BenchmarkId::new("structured_h2_moments", stages),
            &qldae,
            |b, q| {
                b.iter(|| {
                    let generator = AssocMomentGenerator::new(black_box(q)).unwrap();
                    generator.h2_moments_scaled(0, 0, 3).unwrap().vectors.len()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dense_h2_realization", stages),
            &qldae,
            |b, q| {
                b.iter(|| {
                    let generator = AssocMomentGenerator::new(black_box(q)).unwrap();
                    let (a, btilde, c_out) = generator.dense_h2_realization(0).unwrap();
                    let lu = a.lu().unwrap();
                    let mut v = btilde;
                    let mut acc = 0.0;
                    for _ in 0..3 {
                        v = lu.solve(&v).unwrap();
                        acc += c_out.matvec(&v).norm2();
                    }
                    acc
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
