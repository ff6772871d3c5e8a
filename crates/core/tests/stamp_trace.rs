//! One stamp per run: a greedy adaptive run factors its system once and
//! solves its energy weight once, however many probes it reduces. The span
//! subscriber is process-global, so both traced runs live in one `#[test]`.

use vamor_circuits::{TransmissionLine, VaristorCircuit};
use vamor_core::{AdaptiveReducer, AdaptiveSpec, FrequencyBand, ReductionEngine};
use vamor_obs::SpanRecord;

fn count(trace: &[SpanRecord], name: &str) -> usize {
    trace.iter().filter(|r| r.name == name).count()
}

#[test]
fn a_greedy_run_builds_one_stamp_and_one_energy_weight() {
    // Dense engine, on the small fig3 line with the fig3 band.
    let line = TransmissionLine::current_driven(20).unwrap();
    let band = FrequencyBand::new(0.05, 7.5).unwrap();
    let spec = AdaptiveSpec::new(band, 2e-4).with_max_order(40);
    vamor_obs::install();
    let outcome = AdaptiveReducer::new(spec).reduce(line.qldae()).unwrap();
    let trace = vamor_obs::take_trace();
    assert!(outcome.trace.evaluations > 1, "the run probed no move");
    assert_eq!(count(&trace, "adaptive_reduce"), 1);
    assert_eq!(count(&trace, "stamp_build"), 1, "dense run");
    assert_eq!(count(&trace, "energy_weight"), 1, "dense run");
    assert_eq!(count(&trace, "assoc_reduce"), outcome.trace.evaluations);

    // Low-rank engine, on a small varistor with the fig5 band.
    let varistor = VaristorCircuit::new(12).unwrap();
    let band = FrequencyBand::new(0.02, 4.0).unwrap();
    let spec = AdaptiveSpec::new(band, 2e-4)
        .with_max_order(32)
        .with_max_iterations(3);
    vamor_obs::install();
    let outcome = AdaptiveReducer::new(spec)
        .with_engine(ReductionEngine::LowRank)
        .reduce(varistor.qldae())
        .unwrap();
    let trace = vamor_obs::take_trace();
    assert!(outcome.rom.stats().lowrank_engine);
    assert!(outcome.trace.evaluations > 1, "the run probed no move");
    assert_eq!(count(&trace, "stamp_build"), 1, "low-rank run");
    assert_eq!(count(&trace, "energy_weight"), 1, "low-rank run");
}
