//! Integration tests of the adaptive reduction driver (ISSUE 5): estimator
//! agreement against the brute-force dense kernels at paper sizes, the
//! greedy-move monotonicity property, and the driver on both reduction
//! engines.

use vamor_circuits::{RfReceiver, TransmissionLine, VaristorCircuit};
use vamor_core::{
    AdaptiveReducer, AdaptiveSpec, AssocReducer, BandSampler, BandSamplerOptions, FrequencyBand,
    MomentSpec, ReductionEngine, SolverBackend, StopReason,
};

/// The issue's estimator acceptance: the cache-backed band sampler against
/// the brute-force dense `VolterraKernels` evaluation, agreement ≤ 1e-8 at
/// paper sizes.
///
/// Evaluating the *full model's own* band residual is exactly that
/// comparison: the cached full-model samples (shift-cache resolvents) are
/// matched against a fresh dense per-call evaluation of the same system via
/// `ReducedVolterra` — any backend disagreement shows up as a non-zero
/// residual.
#[test]
fn band_sampler_matches_brute_force_dense_kernels_at_paper_sizes() {
    let band = FrequencyBand::new(0.05, 6.0).unwrap();
    let opts = BandSamplerOptions::default();

    // Fig. 3's 70-state line (dense cache path).
    let line = TransmissionLine::current_driven(70).unwrap();
    let sampler = BandSampler::for_qldae(line.qldae(), band, SolverBackend::Dense, opts).unwrap();
    let self_res = sampler.residual_qldae(line.qldae()).unwrap();
    assert!(
        self_res.max() <= 1e-8,
        "dense-cache sampler vs brute force disagree by {:.3e}",
        self_res.max()
    );

    // The same system through the sparse complex factorization path.
    let sampler = BandSampler::for_qldae(line.qldae(), band, SolverBackend::Sparse, opts).unwrap();
    let self_res = sampler.residual_qldae(line.qldae()).unwrap();
    assert!(
        self_res.max() <= 1e-8,
        "sparse-cache sampler vs brute force disagree by {:.3e}",
        self_res.max()
    );

    // Fig. 4's 173-state receiver (two inputs, non-normal).
    let rx = RfReceiver::new(86).unwrap();
    let sampler = BandSampler::for_qldae(
        rx.qldae(),
        FrequencyBand::new(0.02, 2.5).unwrap(),
        SolverBackend::Auto,
        opts,
    )
    .unwrap();
    let self_res = sampler.residual_qldae(rx.qldae()).unwrap();
    assert!(
        self_res.max() <= 1e-8,
        "receiver sampler vs brute force disagree by {:.3e}",
        self_res.max()
    );

    // Fig. 5's 102-state varistor (cubic path, structured-Kronecker H₃).
    let circuit = VaristorCircuit::new(98).unwrap();
    let sampler = BandSampler::for_qldae(
        circuit.qldae(),
        FrequencyBand::new(0.02, 4.0).unwrap(),
        SolverBackend::Auto,
        opts,
    )
    .unwrap();
    let self_res = sampler.residual_qldae(circuit.qldae()).unwrap();
    assert!(
        self_res.max() <= 1e-8,
        "cubic sampler vs brute force disagree by {:.3e}",
        self_res.max()
    );
}

/// A faithful paper-spec ROM scores a small band residual; a crippled one
/// scores a large one, with the argmax frequency inside the band.
#[test]
fn band_residual_separates_faithful_from_crippled_roms() {
    let line = TransmissionLine::current_driven(70).unwrap();
    let band = FrequencyBand::new(0.05, 7.5).unwrap();
    let sampler = BandSampler::for_qldae(
        line.qldae(),
        band,
        SolverBackend::Auto,
        BandSamplerOptions::default(),
    )
    .unwrap();
    let good = AssocReducer::new(MomentSpec::paper_default())
        .reduce(line.qldae())
        .unwrap();
    let crippled = AssocReducer::new(MomentSpec::new(1, 0, 0))
        .reduce(line.qldae())
        .unwrap();
    let res_good = sampler.residual_qldae(good.system()).unwrap();
    let res_bad = sampler.residual_qldae(crippled.system()).unwrap();
    assert!(
        res_good.max() < 1e-2,
        "good ROM residual {:.3e}",
        res_good.max()
    );
    assert!(
        res_bad.max() > 20.0 * res_good.max(),
        "estimator failed to separate: good {:.3e} vs crippled {:.3e}",
        res_good.max(),
        res_bad.max()
    );
    assert!(res_bad.worst_frequency >= band.omega_min - 1e-12);
    assert!(res_bad.worst_frequency <= band.omega_max + 1e-12);
}

/// The driver works under both engines and the traces obey the greedy
/// contract: monotone residual descent, non-decreasing requested moment
/// budget, Hurwitz all along.
#[test]
fn driver_runs_under_both_engines_with_monotone_traces() {
    let line = TransmissionLine::current_driven(60).unwrap();
    let spec =
        AdaptiveSpec::new(FrequencyBand::new(0.05, 7.5).unwrap(), 1e-4).with_max_iterations(8);
    for engine in [ReductionEngine::DenseSchur, ReductionEngine::LowRank] {
        let outcome = AdaptiveReducer::new(spec)
            .with_engine(engine)
            .reduce(line.qldae())
            .unwrap();
        let trace = &outcome.trace;
        assert!(trace.steps.len() > 1, "{engine:?}: no moves accepted");
        for w in trace.steps.windows(2) {
            assert!(
                w[1].residual.max() < w[0].residual.max(),
                "{engine:?}: accepted move did not improve"
            );
            assert!(
                w[1].config.requested_candidates() >= w[0].config.requested_candidates(),
                "{engine:?}: move shrank the requested moment budget"
            );
        }
        assert!(outcome.rom.stats().is_stable(), "{engine:?}: unstable ROM");
        assert!(
            trace.final_residual() < trace.initial_residual(),
            "{engine:?}: no net improvement"
        );
        assert_eq!(
            outcome.rom.stats().lowrank_engine,
            engine == ReductionEngine::LowRank
        );
    }
}

/// The varistor (cubic) driver reaches a band-faithful ROM from a band +
/// tolerance alone and the stop reason is a real verdict.
#[test]
fn cubic_driver_reaches_tolerance_on_the_varistor() {
    let circuit = VaristorCircuit::new(40).unwrap();
    let spec = AdaptiveSpec::new(FrequencyBand::new(0.02, 4.0).unwrap(), 1e-3);
    let outcome = AdaptiveReducer::new(spec).reduce(circuit.qldae()).unwrap();
    assert!(
        matches!(
            outcome.trace.stop,
            StopReason::ToleranceReached | StopReason::Saturated
        ),
        "unexpected stop {:?}",
        outcome.trace.stop
    );
    assert!(outcome.trace.final_residual() <= 1e-2);
    assert!(outcome.rom.order() < circuit.qldae().g1_csr().rows());
    assert!(outcome.rom.stats().is_stable());
}
