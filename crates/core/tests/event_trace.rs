//! Event↔trace consistency: the adaptive driver's `AdaptiveTrace` and the
//! numerical-health event stream describe the same run — every accepted
//! move in the trace appears as a `greedy_accept` event (same move name,
//! same order), and the probe events account for every evaluation the
//! trace counted. Every reduction path also publishes its `reduce.*`
//! metrics, and the spectral guard reports each restart it counts as an
//! event, on both engines.
//!
//! The event subscriber and the metrics registry are process-global; this
//! file keeps all event-installing and counter-reading assertions inside
//! one `#[test]` so the harness's test threads cannot interleave two
//! capture windows.

use vamor_circuits::{RfReceiver, TransmissionLine};
use vamor_core::{
    AdaptiveReducer, AdaptiveSpec, AssocReducer, FrequencyBand, MomentSpec, NormReducer,
    ReductionEngine,
};
use vamor_obs::Event;

#[test]
fn accepted_moves_appear_in_the_event_stream() {
    let line = TransmissionLine::current_driven(35).unwrap();
    let band = FrequencyBand::new(0.05, 6.0).unwrap();
    let spec = AdaptiveSpec::new(band, 1e-3).with_max_order(30);

    vamor_obs::event::install();
    let outcome = AdaptiveReducer::new(spec).reduce(line.qldae()).unwrap();
    let log = vamor_obs::event::take();
    assert_eq!(log.dropped, 0, "default sink bound must fit a tline35 run");

    let accepts: Vec<(&str, u32)> = log
        .records
        .iter()
        .filter_map(|r| match &r.event {
            Event::GreedyAccept { mv, order, .. } => Some((*mv, *order)),
            _ => None,
        })
        .collect();
    let probes = log
        .records
        .iter()
        .filter(|r| matches!(r.event, Event::GreedyProbe { .. }))
        .count();

    // Every trace step (including the Initial head entry) has its accept
    // event, in the same order with the same move names and orders.
    let trace = &outcome.trace;
    assert_eq!(
        accepts.len(),
        trace.steps.len(),
        "trace has {} steps but the stream carries {} greedy_accept events",
        trace.steps.len(),
        accepts.len()
    );
    for (step, (mv, order)) in trace.steps.iter().zip(&accepts) {
        assert_eq!(step.mv.name(), *mv, "move-name mismatch");
        assert_eq!(step.order as u32, *order, "order mismatch for {mv}");
    }

    // The trace counts the initial reduction plus every probe as an
    // evaluation; probe events cover exactly the probes.
    assert_eq!(
        probes + 1,
        trace.evaluations,
        "probe events must account for every evaluation"
    );

    // Residuals on the accept events reproduce the trace's descent.
    let accept_residuals: Vec<f64> = log
        .records
        .iter()
        .filter_map(|r| match &r.event {
            Event::GreedyAccept { residual, .. } => Some(*residual),
            _ => None,
        })
        .collect();
    for (step, res) in trace.steps.iter().zip(&accept_residuals) {
        assert!(
            (step.residual.max() - res).abs() <= 1e-12 * step.residual.max().abs().max(1.0),
            "residual mismatch: trace {:.6e} vs event {:.6e}",
            step.residual.max(),
            res
        );
    }

    // The NORM baseline publishes its run like every other reduction.
    let line30 = TransmissionLine::current_driven(30).unwrap();
    let runs_before = vamor_obs::counter("reduce.runs").get();
    NormReducer::new(MomentSpec::new(4, 2, 1))
        .reduce(line30.qldae())
        .unwrap();
    assert_eq!(
        vamor_obs::counter("reduce.runs").get() - runs_before,
        1,
        "a NORM reduction must publish exactly one reduce.* run"
    );

    // Every guard restart is reported as an event, on both engines: the
    // plain-Galerkin receiver reduction needs dozens of them.
    let receiver = RfReceiver::new(16).unwrap();
    for engine in [ReductionEngine::DenseSchur, ReductionEngine::LowRank] {
        vamor_obs::event::install();
        let rom = AssocReducer::new(MomentSpec::new(8, 4, 2))
            .with_markov_moments(2)
            .with_stabilized_projection(false)
            .with_engine(engine)
            .reduce(receiver.qldae())
            .unwrap();
        let log = vamor_obs::event::take();
        assert_eq!(log.dropped, 0);
        let restart_events = log
            .records
            .iter()
            .filter(|r| matches!(r.event, Event::SpectralRestart { .. }))
            .count();
        assert!(rom.stats().restarts > 0, "{engine:?}: the guard never ran");
        assert_eq!(
            restart_events,
            rom.stats().restarts,
            "{engine:?}: restart events vs stats().restarts"
        );
    }
}
