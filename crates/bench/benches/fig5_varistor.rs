//! Fig. 5 — ZnO varistor surge-protection circuit (cubic ODE): reduction of
//! the 102-state model to ~8 states and the surge-transient cost of the full
//! model versus the ROM.
//!
//! Set `VAMOR_BENCH_PAPER_SIZE=1` for the paper's 102-state instance.

use std::hint::black_box;
use vamor_bench::harness::Criterion;
use vamor_bench::{criterion_group, criterion_main};

use vamor_circuits::VaristorCircuit;
use vamor_core::{AssocReducer, MomentSpec};
use vamor_sim::{simulate, ExpPulse, IntegrationMethod, TransientOptions};

fn ladder_nodes() -> usize {
    if std::env::var("VAMOR_BENCH_PAPER_SIZE").is_ok() {
        98
    } else {
        26
    }
}

fn bench_fig5(c: &mut Criterion) {
    let circuit = VaristorCircuit::new(ladder_nodes()).expect("circuit");
    let full = circuit.qldae();
    let spec = MomentSpec::new(6, 0, 2);
    let rom = AssocReducer::new(spec).reduce(full).expect("reduction");
    let input = ExpPulse::new(VaristorCircuit::surge_amplitude(), 0.5, 6.0);
    let opts =
        TransientOptions::new(0.0, 30.0, 0.02).with_method(IntegrationMethod::ImplicitTrapezoidal);

    let mut group = c.benchmark_group("fig5_varistor");
    group.sample_size(10);
    group.bench_function("projection_build_proposed", |b| {
        b.iter(|| {
            AssocReducer::new(spec)
                .reduce(black_box(full))
                .unwrap()
                .order()
        })
    });
    group.bench_function("transient_full_model", |b| {
        b.iter(|| {
            simulate(black_box(full), &input, &opts)
                .unwrap()
                .stats
                .steps
        })
    });
    group.bench_function("transient_proposed_rom", |b| {
        b.iter(|| {
            simulate(black_box(rom.system()), &input, &opts)
                .unwrap()
                .stats
                .steps
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
