//! Experiment drivers, one per table/figure of the paper.

use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

use vamor_circuits::{RfReceiver, TransmissionLine, VaristorCircuit};
use vamor_core::{
    AdaptiveCheckpoint, AdaptiveReducer, AdaptiveSpec, AdaptiveTrace, AssocMomentGenerator,
    AssocReducer, BandSampler, BandSamplerOptions, CheckpointPlan, FrequencyBand, MomentSpec,
    MorError, NormReducer, ReducerKind, ReductionEngine, ReductionSession, RunControl,
    SessionError, SolverBackend, StopReason, VolterraKernels,
};
use vamor_linalg::{Complex, CsrMatrix, Matrix, SparseLu, SparseLuSymbolic, Vector};
use vamor_sim::{
    max_relative_error, relative_error_series, simulate, ExpPulse, IntegrationMethod, MultiChannel,
    SimError, SinePulse, TransientOptions,
};
use vamor_system::{PolynomialStateSpace, SystemError};

/// Error produced by an experiment driver.
#[derive(Debug)]
pub enum ExperimentError {
    /// Circuit construction failed.
    Circuit(SystemError),
    /// Model order reduction failed.
    Reduction(MorError),
    /// Transient simulation failed.
    Simulation(SimError),
    /// A session request failed (budget backpressure, contained panic,
    /// quarantined corruption, checkpoint trouble).
    Session(SessionError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Circuit(e) => write!(f, "circuit construction failed: {e}"),
            ExperimentError::Reduction(e) => write!(f, "model order reduction failed: {e}"),
            ExperimentError::Simulation(e) => write!(f, "transient simulation failed: {e}"),
            ExperimentError::Session(e) => write!(f, "session request failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<SystemError> for ExperimentError {
    fn from(e: SystemError) -> Self {
        ExperimentError::Circuit(e)
    }
}
impl From<MorError> for ExperimentError {
    fn from(e: MorError) -> Self {
        ExperimentError::Reduction(e)
    }
}
impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Simulation(e)
    }
}
impl From<SessionError> for ExperimentError {
    fn from(e: SessionError) -> Self {
        ExperimentError::Session(e)
    }
}

/// Result alias for experiment drivers.
pub type Result<T> = std::result::Result<T, ExperimentError>;

/// Wall-clock timings of the pipeline stages reported in Table 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Projection construction for the proposed (associated-transform) method
    /// — the "Arnoldi" row of Table 1.
    pub reduce_proposed: Duration,
    /// Projection construction for the NORM baseline.
    pub reduce_norm: Duration,
    /// Transient solve of the original full-order model.
    pub sim_full: Duration,
    /// Transient solve of the proposed reduced model.
    pub sim_proposed: Duration,
    /// Transient solve of the NORM reduced model.
    pub sim_norm: Duration,
}

/// Condensed record of an adaptive reduction run, carried alongside the
/// transient comparison (and into the JSON baseline) when an experiment ran
/// with the adaptive driver instead of a pinned configuration.
#[derive(Debug, Clone)]
pub struct AdaptiveSummary {
    /// Accepted greedy moves.
    pub moves: usize,
    /// Candidate reductions evaluated (accepted + probes).
    pub evaluations: usize,
    /// Full-model factorizations of the band estimator.
    pub full_model_solves: usize,
    /// Band residual of the initial minimal configuration.
    pub initial_residual: f64,
    /// Band residual of the accepted configuration.
    pub final_residual: f64,
    /// The configuration the search settled on (`describe()` format).
    pub config: String,
    /// The accepted move sequence, e.g. `h1,h2,markov`.
    pub move_list: String,
    /// Why the search stopped.
    pub stop: String,
}

impl AdaptiveSummary {
    fn from_trace(trace: &AdaptiveTrace) -> Self {
        AdaptiveSummary {
            moves: trace.steps.len().saturating_sub(1),
            evaluations: trace.evaluations,
            full_model_solves: trace.full_model_solves,
            initial_residual: trace.initial_residual(),
            final_residual: trace.final_residual(),
            config: trace
                .steps
                .last()
                .map(|s| s.config.describe())
                .unwrap_or_default(),
            move_list: trace.move_list(),
            stop: format!("{:?}", trace.stop),
        }
    }
}

/// A full-vs-reduced transient comparison, the data behind Figs. 2–5.
#[derive(Debug, Clone)]
pub struct TransientComparison {
    /// Human-readable experiment name.
    pub name: &'static str,
    /// Order of the original model.
    pub full_order: usize,
    /// Order of the proposed reduced model.
    pub proposed_order: usize,
    /// Spectral abscissa of the proposed reduced `G₁ᵣ` (negative = Hurwitz),
    /// as recorded by the reducer's spectral guard.
    pub proposed_abscissa: f64,
    /// Spectral-guard restarts the proposed reduction needed (0 = the first
    /// projection was already stable).
    pub proposed_restarts: usize,
    /// Order of the NORM reduced model (when the experiment includes the
    /// baseline).
    pub norm_order: Option<usize>,
    /// Spectral abscissa of the NORM reduced `G₁ᵣ`, when present.
    pub norm_abscissa: Option<f64>,
    /// Sample times.
    pub times: Vec<f64>,
    /// Output of the full model.
    pub y_full: Vec<f64>,
    /// Output of the proposed reduced model.
    pub y_proposed: Vec<f64>,
    /// Output of the NORM reduced model.
    pub y_norm: Option<Vec<f64>>,
    /// Stage timings.
    pub timings: Timings,
    /// Adaptive-driver record of the proposed reduction (present only when
    /// the experiment ran with `--adaptive`).
    pub adaptive: Option<AdaptiveSummary>,
    /// Adaptive-driver record of the NORM baseline, when both apply.
    pub adaptive_norm: Option<AdaptiveSummary>,
}

impl TransientComparison {
    /// True when the proposed reduced linear part is Hurwitz.
    pub fn proposed_hurwitz(&self) -> bool {
        self.proposed_abscissa < 0.0
    }

    /// Relative error series of the proposed ROM (Fig. 2(c)/3(b)/4(c) style).
    pub fn relative_error_proposed(&self) -> Vec<f64> {
        relative_error_series(&self.y_full, &self.y_proposed)
    }

    /// Maximum relative error of the proposed ROM.
    pub fn max_error_proposed(&self) -> f64 {
        max_relative_error(&self.y_full, &self.y_proposed)
    }

    /// Maximum relative error of the NORM ROM, if present.
    pub fn max_error_norm(&self) -> Option<f64> {
        self.y_norm
            .as_ref()
            .map(|y| max_relative_error(&self.y_full, y))
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Best wall time of `repeats` runs of `f`, with the last run's value. A
/// millisecond-scale stage timed once reads mostly scheduler noise.
fn best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let (mut value, mut best) = timed(&mut f);
    for _ in 1..repeats {
        let (v, t) = timed(&mut f);
        value = v;
        best = best.min(t);
    }
    (value, best)
}

/// The adaptive configuration of each experiment: an input band (covering
/// the excitation spectrum with headroom on both sides) plus a residual
/// tolerance — nothing else. Under `--adaptive` these replace the pinned
/// moment depths, Markov counts, output-Krylov widths and deflation
/// tolerances entirely.
///
/// Fig. 2 drives the line with a damped 0.3 Hz tone (ω ≈ 1.9 rad); the band
/// covers the passband through three harmonics of the drive, and the
/// difference-frequency `H₂`/`H₃` samples cover the rectified (near-DC)
/// response the tone generates.
pub fn fig2_adaptive_spec() -> AdaptiveSpec {
    let band = FrequencyBand::new(0.05, 6.0).expect("static band");
    AdaptiveSpec::new(band, 1.2e-3).with_max_order(40)
}

/// Fig. 3 drives the line with a damped 0.4 Hz tone (ω ≈ 2.5 rad).
pub fn fig3_adaptive_spec() -> AdaptiveSpec {
    let band = FrequencyBand::new(0.05, 7.5).expect("static band");
    AdaptiveSpec::new(band, 2e-4).with_max_order(40)
}

/// Fig. 4 mixes a 0.06 Hz signal with a 0.11 Hz interferer
/// (ω ≈ 0.38 / 0.69 rad) into the receiver cascade. The order budget must
/// accommodate the NORM baseline's multivariate expansion (its faithful
/// configurations live near order 60 on this 173-state system).
pub fn fig4_adaptive_spec() -> AdaptiveSpec {
    let band = FrequencyBand::new(0.02, 2.5).expect("static band");
    AdaptiveSpec::new(band, 2e-4).with_max_order(72)
}

/// Fig. 5's double-exponential surge (τ_rise 0.5, τ_fall 6) concentrates
/// below ~2 rad.
pub fn fig5_adaptive_spec() -> AdaptiveSpec {
    let band = FrequencyBand::new(0.02, 4.0).expect("static band");
    AdaptiveSpec::new(band, 2e-4).with_max_order(32)
}

/// Fig. 2 — the voltage-driven nonlinear transmission line (QLDAE *with* the
/// `D₁` term). The paper uses 100 stages and reaches a ~13th-order ROM whose
/// transient response overlays the original with a relative error below 1 %.
///
/// The reducer runs the stabilized pipeline with two Markov vectors and a
/// slightly deeper moment spec (8/4/2 instead of the paper's 6/3/2) at a
/// tight deflation tolerance: moment matching about `s = 0` alone leaves the
/// broadband onset of the response free, which at 100 stages made the seed's
/// ROM leak an `O(10⁻⁴)` spurious signal over a `3·10⁻⁵` true response.
pub fn fig2_voltage_line(stages: usize, dt: f64) -> Result<TransientComparison> {
    fig2_voltage_line_with(
        stages,
        dt,
        SolverBackend::Auto,
        ReductionEngine::Auto,
        false,
    )
}

/// [`fig2_voltage_line`] with an explicit linear-solver backend for the
/// reduction and the full-model transient (the `reproduce --sparse/--dense`
/// toggle) and the adaptive-driver switch (`--adaptive`: the configuration
/// is discovered by [`AdaptiveReducer`] from [`fig2_adaptive_spec`] alone).
pub fn fig2_voltage_line_with(
    stages: usize,
    dt: f64,
    backend: SolverBackend,
    engine: ReductionEngine,
    adaptive: bool,
) -> Result<TransientComparison> {
    let line = TransmissionLine::voltage_driven(stages)?;
    let full = line.qldae();

    let (rom, t_reduce, adaptive_summary) = if adaptive {
        let (out, t) = timed(|| {
            AdaptiveReducer::new(fig2_adaptive_spec())
                .with_solver_backend(backend)
                .with_engine(engine)
                .reduce(full)
        });
        let out = out?;
        (out.rom, t, Some(AdaptiveSummary::from_trace(&out.trace)))
    } else {
        // The legacy pinned configuration, kept as the reference the
        // adaptive-vs-pinned regression compares against.
        let (rom, t) = timed(|| {
            AssocReducer::new(MomentSpec::new(8, 4, 2))
                .with_markov_moments(2)
                .with_deflation_tol(1e-12)
                .with_solver_backend(backend)
                .with_engine(engine)
                .reduce(full)
        });
        (rom?, t, None)
    };

    let input = SinePulse::damped(0.02, 0.3, 0.05);
    let opts =
        TransientOptions::new(0.0, 30.0, dt).with_method(IntegrationMethod::ImplicitTrapezoidal);
    let (full_run, t_full) = timed(|| simulate(full, &input, &opts.with_linear_solver(backend)));
    let full_run = full_run?;
    let (rom_run, t_rom) = timed(|| simulate(rom.system(), &input, &opts));
    let rom_run = rom_run?;

    Ok(TransientComparison {
        name: "fig2: voltage-driven nonlinear transmission line (with D1)",
        full_order: full.order(),
        proposed_order: rom.order(),
        proposed_abscissa: rom.stats().spectral_abscissa,
        proposed_restarts: rom.stats().restarts,
        norm_order: None,
        norm_abscissa: None,
        times: full_run.times.clone(),
        y_full: full_run.output_channel(0),
        y_proposed: rom_run.output_channel(0),
        y_norm: None,
        timings: Timings {
            reduce_proposed: t_reduce,
            sim_full: t_full,
            sim_proposed: t_rom,
            ..Timings::default()
        },
        adaptive: adaptive_summary,
        adaptive_norm: None,
    })
}

/// Fig. 3 + the "Sect 3.2 Ex." rows of Table 1 — the current-driven line
/// (no `D₁` term), reduced with both the proposed method and the NORM
/// baseline at the same moment orders.
pub fn fig3_current_line(stages: usize, dt: f64) -> Result<TransientComparison> {
    fig3_current_line_with(
        stages,
        dt,
        SolverBackend::Auto,
        ReductionEngine::Auto,
        false,
    )
}

/// [`fig3_current_line`] with an explicit linear-solver backend and the
/// adaptive-driver switch (both the proposed reducer and the NORM baseline
/// are driven from [`fig3_adaptive_spec`] under `--adaptive`).
pub fn fig3_current_line_with(
    stages: usize,
    dt: f64,
    backend: SolverBackend,
    engine: ReductionEngine,
    adaptive: bool,
) -> Result<TransientComparison> {
    let line = TransmissionLine::current_driven(stages)?;
    let full = line.qldae();

    let (rom, t_reduce, adaptive_summary) = if adaptive {
        let (out, t) = timed(|| {
            AdaptiveReducer::new(fig3_adaptive_spec())
                .with_solver_backend(backend)
                .with_engine(engine)
                .reduce(full)
        });
        let out = out?;
        (out.rom, t, Some(AdaptiveSummary::from_trace(&out.trace)))
    } else {
        let (rom, t) = timed(|| {
            AssocReducer::new(MomentSpec::paper_default())
                .with_solver_backend(backend)
                .with_engine(engine)
                .reduce(full)
        });
        (rom?, t, None)
    };
    // The line's G₁ is symmetric negative definite, so plain Galerkin is
    // already stability-preserving; the pinned NORM baseline stays on the
    // plain path (the spectral guard still verifies the reduced spectrum) —
    // the adaptive driver discovers the stabilization choice itself.
    let (norm_rom, t_norm, adaptive_norm) = if adaptive {
        let (out, t) = timed(|| {
            AdaptiveReducer::new(fig3_adaptive_spec())
                .with_baseline(ReducerKind::Norm)
                .with_solver_backend(backend)
                .with_engine(engine)
                .reduce(full)
        });
        let out = out?;
        (out.rom, t, Some(AdaptiveSummary::from_trace(&out.trace)))
    } else {
        // A millisecond-scale reduction at paper size: best of five.
        let (rom, t) = best_of(5, || {
            NormReducer::new(MomentSpec::paper_default())
                .with_stabilized_projection(false)
                .with_solver_backend(backend)
                .with_engine(engine)
                .reduce(full)
        });
        (rom?, t, None)
    };

    let input = SinePulse::damped(0.5, 0.4, 0.08);
    let opts =
        TransientOptions::new(0.0, 30.0, dt).with_method(IntegrationMethod::ImplicitTrapezoidal);
    let (full_run, t_full) = timed(|| simulate(full, &input, &opts.with_linear_solver(backend)));
    let full_run = full_run?;
    let (rom_run, t_rom) = timed(|| simulate(rom.system(), &input, &opts));
    let rom_run = rom_run?;
    let (norm_run, t_norm_sim) = timed(|| simulate(norm_rom.system(), &input, &opts));
    let norm_run = norm_run?;

    Ok(TransientComparison {
        name: "fig3/table1: current-driven nonlinear transmission line (no D1)",
        full_order: full.order(),
        proposed_order: rom.order(),
        proposed_abscissa: rom.stats().spectral_abscissa,
        proposed_restarts: rom.stats().restarts,
        norm_order: Some(norm_rom.order()),
        norm_abscissa: Some(norm_rom.stats().spectral_abscissa),
        times: full_run.times.clone(),
        y_full: full_run.output_channel(0),
        y_proposed: rom_run.output_channel(0),
        y_norm: Some(norm_run.output_channel(0)),
        timings: Timings {
            reduce_proposed: t_reduce,
            reduce_norm: t_norm,
            sim_full: t_full,
            sim_proposed: t_rom,
            sim_norm: t_norm_sim,
        },
        adaptive: adaptive_summary,
        adaptive_norm,
    })
}

/// Fig. 4 + the "Sect 3.3 Ex." rows of Table 1 — the MISO RF receiver
/// (signal + interferer, `D₁ = 0`), reduced with both methods.
pub fn fig4_rf_receiver(sections: usize, dt: f64) -> Result<TransientComparison> {
    fig4_rf_receiver_with(
        sections,
        dt,
        SolverBackend::Auto,
        ReductionEngine::Auto,
        false,
    )
}

/// [`fig4_rf_receiver`] with an explicit linear-solver backend and the
/// adaptive-driver switch.
pub fn fig4_rf_receiver_with(
    sections: usize,
    dt: f64,
    backend: SolverBackend,
    engine: ReductionEngine,
    adaptive: bool,
) -> Result<TransientComparison> {
    let rx = RfReceiver::new(sections)?;
    let full = rx.qldae();
    // The receiver's G₁ is strongly non-normal (an LC cascade), and plain
    // one-sided Galerkin reliably produces an unstable reduced matrix at
    // paper size — this experiment is the reason the stabilized
    // (energy-inner-product) projection exists. The pinned reference keeps
    // it on with spec 8/4/2 and two Markov vectors; the adaptive driver
    // starts stabilized and discovers the rest.
    let (rom, t_reduce, adaptive_summary) = if adaptive {
        let (out, t) = timed(|| {
            AdaptiveReducer::new(fig4_adaptive_spec())
                .with_solver_backend(backend)
                .with_engine(engine)
                .reduce(full)
        });
        let out = out?;
        (out.rom, t, Some(AdaptiveSummary::from_trace(&out.trace)))
    } else {
        let (rom, t) = timed(|| {
            AssocReducer::new(MomentSpec::new(8, 4, 2))
                .with_markov_moments(2)
                .with_solver_backend(backend)
                .with_engine(engine)
                .reduce(full)
        });
        (rom?, t, None)
    };
    let (norm_rom, t_norm, adaptive_norm) = if adaptive {
        let (out, t) = timed(|| {
            AdaptiveReducer::new(fig4_adaptive_spec())
                .with_baseline(ReducerKind::Norm)
                .with_solver_backend(backend)
                .with_engine(engine)
                .reduce(full)
        });
        let out = out?;
        (out.rom, t, Some(AdaptiveSummary::from_trace(&out.trace)))
    } else {
        let (rom, t) = timed(|| {
            NormReducer::new(MomentSpec::new(8, 4, 2))
                .with_solver_backend(backend)
                .with_engine(engine)
                .reduce(full)
        });
        (rom?, t, None)
    };

    // Desired signal plus an interfering tone coupled from the environment.
    let input = MultiChannel::new(vec![
        Box::new(SinePulse::damped(0.3, 0.06, 0.05)),
        Box::new(SinePulse::new(0.12, 0.11)),
    ]);
    let opts =
        TransientOptions::new(0.0, 20.0, dt).with_method(IntegrationMethod::ImplicitTrapezoidal);
    let (full_run, t_full) = timed(|| simulate(full, &input, &opts.with_linear_solver(backend)));
    let full_run = full_run?;
    let (rom_run, t_rom) = timed(|| simulate(rom.system(), &input, &opts));
    let rom_run = rom_run?;
    let (norm_run, t_norm_sim) = timed(|| simulate(norm_rom.system(), &input, &opts));
    let norm_run = norm_run?;

    Ok(TransientComparison {
        name: "fig4/table1: MISO RF receiver (signal + interferer)",
        full_order: full.order(),
        proposed_order: rom.order(),
        proposed_abscissa: rom.stats().spectral_abscissa,
        proposed_restarts: rom.stats().restarts,
        norm_order: Some(norm_rom.order()),
        norm_abscissa: Some(norm_rom.stats().spectral_abscissa),
        times: full_run.times.clone(),
        y_full: full_run.output_channel(0),
        y_proposed: rom_run.output_channel(0),
        y_norm: Some(norm_run.output_channel(0)),
        timings: Timings {
            reduce_proposed: t_reduce,
            reduce_norm: t_norm,
            sim_full: t_full,
            sim_proposed: t_rom,
            sim_norm: t_norm_sim,
        },
        adaptive: adaptive_summary,
        adaptive_norm,
    })
}

/// Fig. 5 — the ZnO varistor surge-protection circuit (cubic ODE, 102 states
/// reduced to ~8). The input is a 9.8 kV double-exponential surge; the
/// protected output clamps to a few hundred volts.
pub fn fig5_varistor(ladder_nodes: usize, dt: f64) -> Result<TransientComparison> {
    fig5_varistor_with(
        ladder_nodes,
        dt,
        SolverBackend::Auto,
        ReductionEngine::Auto,
        false,
    )
}

/// [`fig5_varistor`] with an explicit linear-solver backend and the
/// adaptive-driver switch.
pub fn fig5_varistor_with(
    ladder_nodes: usize,
    dt: f64,
    backend: SolverBackend,
    engine: ReductionEngine,
    adaptive: bool,
) -> Result<TransientComparison> {
    let circuit = VaristorCircuit::new(ladder_nodes)?;
    let full = circuit.qldae();

    // Pinned reference: the varistor system has no quadratic term; 6
    // first-order and 2 third-order moments on plain Galerkin reproduce the
    // paper's order-8 ROM (the energy reweighting costs a little accuracy on
    // the clamp front — a trade-off the adaptive driver's stabilization
    // toggle discovers on its own).
    let (rom, t_reduce, adaptive_summary) = if adaptive {
        let (out, t) = timed(|| {
            AdaptiveReducer::new(fig5_adaptive_spec())
                .with_solver_backend(backend)
                .with_engine(engine)
                .reduce(full)
        });
        let out = out?;
        (out.rom, t, Some(AdaptiveSummary::from_trace(&out.trace)))
    } else {
        let (rom, t) = timed(|| {
            AssocReducer::new(MomentSpec::new(6, 0, 2))
                .with_stabilized_projection(false)
                .with_solver_backend(backend)
                .with_engine(engine)
                .reduce(full)
        });
        (rom?, t, None)
    };

    let input = ExpPulse::new(VaristorCircuit::surge_amplitude(), 0.5, 6.0);
    let opts =
        TransientOptions::new(0.0, 30.0, dt).with_method(IntegrationMethod::ImplicitTrapezoidal);
    let (full_run, t_full) = timed(|| simulate(full, &input, &opts.with_linear_solver(backend)));
    let full_run = full_run?;
    let (rom_run, t_rom) = timed(|| simulate(rom.system(), &input, &opts));
    let rom_run = rom_run?;

    Ok(TransientComparison {
        name: "fig5: ZnO varistor surge protection (cubic ODE)",
        full_order: full.order(),
        proposed_order: rom.order(),
        proposed_abscissa: rom.stats().spectral_abscissa,
        proposed_restarts: rom.stats().restarts,
        norm_order: None,
        norm_abscissa: None,
        times: full_run.times.clone(),
        y_full: full_run.output_channel(0),
        y_proposed: rom_run.output_channel(0),
        y_norm: None,
        timings: Timings {
            reduce_proposed: t_reduce,
            sim_full: t_full,
            sim_proposed: t_rom,
            ..Timings::default()
        },
        adaptive: adaptive_summary,
        adaptive_norm: None,
    })
}

/// The acceptance measurements: the best-of-N projection build on the
/// transmission line and the frozen-Jacobian factorization counts of the
/// implicit transient, with the cross-check that guards them.
#[derive(Debug, Clone, Copy)]
pub struct AcceptanceMetrics {
    /// Transmission-line stages of the reduction benchmark.
    pub tline_stages: usize,
    /// Reduced order of the transmission-line reduction.
    pub reduced_order: usize,
    /// Best-of-N wall time of `AssocReducer::reduce`.
    pub reduce_best: Duration,
    /// Ladder nodes of the varistor transient benchmark.
    pub varistor_nodes: usize,
    /// Steps taken by the implicit varistor run.
    pub varistor_steps: usize,
    /// Jacobian factorizations under `JacobianPolicy::EveryStep`.
    pub factorizations_every_step: usize,
    /// Jacobian factorizations under `JacobianPolicy::FrozenReuse`.
    pub factorizations_frozen: usize,
    /// Max relative output difference between the two policies.
    pub trajectory_diff: f64,
}

/// Measures the acceptance metrics (see [`AcceptanceMetrics`]).
///
/// # Errors
///
/// Propagates circuit construction, reduction and simulation failures.
pub fn acceptance_metrics(
    tline_stages: usize,
    varistor_nodes: usize,
    dt: f64,
) -> Result<AcceptanceMetrics> {
    use vamor_sim::JacobianPolicy;

    let line = TransmissionLine::current_driven(tline_stages)?;
    let full = line.qldae();
    let spec = MomentSpec::paper_default();
    let reps = 5;
    let mut reduce_best = Duration::MAX;
    let mut reduced_order = 0;
    for _ in 0..reps {
        let (rom, t) = timed(|| AssocReducer::new(spec).reduce(full));
        reduced_order = rom?.order();
        reduce_best = reduce_best.min(t);
    }

    let circuit = VaristorCircuit::new(varistor_nodes)?;
    let surge = ExpPulse::new(VaristorCircuit::surge_amplitude(), 0.5, 6.0);
    let opts =
        TransientOptions::new(0.0, 30.0, dt).with_method(IntegrationMethod::ImplicitTrapezoidal);
    let every = simulate(
        circuit.qldae(),
        &surge,
        &opts.with_jacobian_policy(JacobianPolicy::EveryStep),
    )?;
    let frozen = simulate(
        circuit.qldae(),
        &surge,
        &opts.with_jacobian_policy(JacobianPolicy::FrozenReuse),
    )?;

    Ok(AcceptanceMetrics {
        tline_stages,
        reduced_order,
        reduce_best,
        varistor_nodes,
        varistor_steps: frozen.stats.steps,
        factorizations_every_step: every.stats.jacobian_factorizations,
        factorizations_frozen: frozen.stats.jacobian_factorizations,
        trajectory_diff: max_relative_error(&every.output_channel(0), &frozen.output_channel(0)),
    })
}

/// Walls of batches of the tline35 acceptance reduce with the span
/// subscriber off and on, timed in back-to-back pairs (see
/// [`trace_overhead_guard`]).
#[derive(Debug, Clone, Copy)]
pub struct TraceOverheadReport {
    /// Back-to-back reduces per timed batch.
    pub batch: usize,
    /// Timed pairs of one uninstrumented and one instrumented batch.
    pub pairs: usize,
    /// Median batch wall with tracing disabled.
    pub uninstrumented: Duration,
    /// Median batch wall with the subscriber installed and recording.
    pub instrumented: Duration,
    /// The tracing tax on the hot path: the median over the pairs of
    /// instrumented / uninstrumented batch wall.
    pub ratio: f64,
    /// Spans recorded during the instrumented batches (sanity: must be > 0,
    /// otherwise the "instrumented" phase measured nothing).
    pub spans_recorded: usize,
    /// Numerical-health events recorded during the instrumented batches —
    /// the event subscriber is armed alongside the span subscriber, so the
    /// overhead ratio bounds both layers at once.
    pub events_recorded: usize,
}

/// The tracing tax [`trace_overhead_guard`] allows: an instrumented batch
/// may take at most this multiple of an uninstrumented one.
const TRACE_OVERHEAD_BOUND: f64 = 1.05;

/// Attempts [`trace_overhead_guard`] makes before it reports a failure.
const TRACE_OVERHEAD_ATTEMPTS: usize = 2;

/// The shortest wall of one timed batch. A single tline35 reduce takes a
/// few milliseconds, where one scheduler hiccup moves a sample by more than
/// the bound; a batch of about ten averages such hiccups out.
const TRACE_OVERHEAD_BATCH_WALL: Duration = Duration::from_millis(50);

/// Timed pairs per attempt: odd, so the median is one pair's ratio.
const TRACE_OVERHEAD_PAIRS: usize = 11;

/// The tracing-tax guard: the instrumented tline35 reduce (spans and
/// numerical-health events recording) stays within 1.05× the
/// uninstrumented one. Each attempt times 11 back-to-back pairs of reduce
/// batches of at least 50 ms ([`TraceOverheadReport`]); the guard passes
/// on the first attempt within the bound and makes two. `observe` sees
/// every attempt's report, in order. Toggles the process-global tracer, so
/// a caller running under `--trace` loses its subscriber.
///
/// # Errors
///
/// A message with the last ratio when no attempt is within the bound, or
/// when the instrumented phase recorded no spans or a reduce failed.
pub fn trace_overhead_guard(
    mut observe: impl FnMut(&TraceOverheadReport),
) -> std::result::Result<TraceOverheadReport, String> {
    let mut ratio = f64::NAN;
    for _ in 0..TRACE_OVERHEAD_ATTEMPTS {
        let report = trace_overhead().map_err(|e| e.to_string())?;
        observe(&report);
        if report.spans_recorded == 0 {
            return Err("instrumented phase recorded no spans".into());
        }
        ratio = report.ratio;
        if ratio <= TRACE_OVERHEAD_BOUND {
            return Ok(report);
        }
    }
    Err(format!(
        "instrumented reduce is {ratio:.3}x uninstrumented (bound {TRACE_OVERHEAD_BOUND}) \
         after {TRACE_OVERHEAD_ATTEMPTS} attempts"
    ))
}

/// Measures the observability overhead on the tline35 acceptance reduce:
/// [`TRACE_OVERHEAD_PAIRS`] pairs of one batch of back-to-back reduces with
/// tracing disabled and one with both the span subscriber and the
/// numerical-health event subscriber installed and recording, alternating
/// which side of a pair runs first. The batch holds as many reduces as the
/// warm-up says fill [`TRACE_OVERHEAD_BATCH_WALL`]. The ratio is the median
/// of the pairs' ratios, not a ratio of best walls: the host switches
/// between a fast and a slow state that last about a second and differ by
/// up to 1.5×, so the best wall per side compares whichever side caught a
/// rare fast dip, while the two batches of one pair mostly share a state
/// and the median drops the pairs a switch splits. The previous trace
/// buffer is drained before and after.
fn trace_overhead() -> Result<TraceOverheadReport> {
    let line = TransmissionLine::current_driven(35)?;
    let spec = MomentSpec::paper_default();
    let reduce_batch = |batch: usize| -> Result<f64> {
        let start = Instant::now();
        for _ in 0..batch {
            AssocReducer::new(spec).reduce(line.qldae())?;
        }
        Ok(start.elapsed().as_secs_f64())
    };
    // Warm-up: first-touch allocation and lazy statics land outside the
    // measured pairs, and the best single reduce sizes the batch.
    let mut single = f64::INFINITY;
    for _ in 0..5 {
        single = single.min(reduce_batch(1)?);
    }
    let batch =
        ((TRACE_OVERHEAD_BATCH_WALL.as_secs_f64() / single.max(1e-9)).ceil() as usize).max(1);
    let _ = vamor_obs::take_trace();
    let (mut uninstrumented, mut instrumented, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut spans_recorded = 0;
    let mut events_recorded = 0;
    for pair in 0..TRACE_OVERHEAD_PAIRS {
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            if traced {
                vamor_obs::install();
                vamor_obs::event::install();
                instrumented.push(reduce_batch(batch)?);
                spans_recorded += vamor_obs::take_trace().len();
                events_recorded += vamor_obs::event::take().records.len();
            } else {
                uninstrumented.push(reduce_batch(batch)?);
            }
        }
        ratios.push(instrumented[pair] / uninstrumented[pair].max(1e-12));
    }
    Ok(TraceOverheadReport {
        batch,
        pairs: TRACE_OVERHEAD_PAIRS,
        uninstrumented: Duration::from_secs_f64(median_f64(&uninstrumented)),
        instrumented: Duration::from_secs_f64(median_f64(&instrumented)),
        ratio: median_f64(&ratios),
        spans_recorded,
        events_recorded,
    })
}

/// The PR-3 sparse-solver scaling measurements on the current-driven
/// transmission line: dense-vs-sparse factorization and transient wall
/// times at a mid size (dense still feasible), sparse-only numbers at a
/// large size (`10⁴` states at paper scale, where the dense `n × n` matrix
/// would not even fit in memory), and the dense/sparse agreement checks the
/// acceptance criteria require.
#[derive(Debug, Clone, Copy)]
pub struct SparseScalingReport {
    /// States of the mid-size line (dense path still measured).
    pub mid_states: usize,
    /// States of the large line (sparse only).
    pub big_states: usize,
    /// Dense factorization + solve of `I − θh·J` at the mid size.
    pub dense_factor_mid: Duration,
    /// Sparse symbolic analysis + numeric factorization + solve at the mid
    /// size, best of [`FACTOR_REPEATS`].
    pub sparse_factor_mid: Duration,
    /// Sparse factorization + solve at the large size, best of
    /// [`FACTOR_REPEATS`].
    pub sparse_factor_big: Duration,
    /// `dense_factor_mid / sparse_factor_mid`.
    pub factor_speedup_mid: f64,
    /// `dense_factor_mid / sparse_factor_big` — the acceptance ratio: the
    /// sparse path at the *large* size against the dense path at the mid
    /// size.
    pub factor_speedup_big_vs_dense_mid: f64,
    /// Max-norm relative difference of the dense and sparse solutions of the
    /// factor benchmark system.
    pub factor_solution_diff: f64,
    /// Implicit transient wall time at the mid size, dense backend.
    pub dense_transient_mid: Duration,
    /// Implicit transient wall time at the mid size, sparse backend.
    pub sparse_transient_mid: Duration,
    /// Implicit transient wall time at the large size, sparse backend.
    pub sparse_transient_big: Duration,
    /// Steps of the transient runs (mid and big use the same count).
    pub transient_steps: usize,
    /// Max relative dense-vs-sparse trajectory difference at the mid size.
    pub trajectory_diff_mid: f64,
    /// `L + U` nonzeros of the sparse factorization at the large size (the
    /// fill stays `O(n)` on the line).
    pub sparse_lu_nnz_big: usize,
    /// Empirical exponent `p` of `t_factor ∝ n^p` fitted between the mid and
    /// large sparse factorizations (≈ 1 for near-linear work). Median of the
    /// per-repeat fits in [`factor_exponent_repeats`] — a single-shot timing
    /// can be off by 0.5 on a noisy box.
    ///
    /// [`factor_exponent_repeats`]: SparseScalingReport::factor_exponent_repeats
    pub factor_scaling_exponent: f64,
    /// The exponent fitted independently on each of the 5 timing repeats
    /// (repeat `i` pairs the `i`-th mid-size and large-size factorizations).
    pub factor_exponent_repeats: [f64; FACTOR_REPEATS],
    /// `max − min` of [`factor_exponent_repeats`] — how much the fit moves
    /// under timing noise.
    ///
    /// [`factor_exponent_repeats`]: SparseScalingReport::factor_exponent_repeats
    pub factor_exponent_spread: f64,
    /// Reduced order of the mid-scale-free ROM check, dense backend.
    pub rom_order_dense: usize,
    /// Reduced order of the ROM check, sparse backend.
    pub rom_order_sparse: usize,
    /// Max relative transient difference of the two ROMs (must be ≤ 1e-9).
    pub rom_trajectory_diff: f64,
}

impl SparseScalingReport {
    /// Transient speedup of the sparse backend at the mid size.
    pub fn transient_speedup_mid(&self) -> f64 {
        self.dense_transient_mid.as_secs_f64() / self.sparse_transient_mid.as_secs_f64().max(1e-12)
    }
}

/// Timing repeats of the sparse factorization pipelines in
/// [`sparse_scaling`]: the millisecond-scale walls report the best repeat,
/// and the scaling exponent is fitted per repeat and the median reported,
/// so one scheduler hiccup cannot move either number.
pub const FACTOR_REPEATS: usize = 5;

/// The median of an odd number of samples (the upper one of an even).
fn median_f64(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Runs the PR-3 sparse-scaling benchmark (see [`SparseScalingReport`]).
/// `mid` must be small enough for the dense `O(n³)` factorization to be
/// affordable (2 000 at paper scale); `big` is sparse-only (10 000).
///
/// # Errors
///
/// Propagates circuit construction, factorization and simulation failures.
pub fn sparse_scaling(mid: usize, big: usize, dt: f64) -> Result<SparseScalingReport> {
    let theta_h = 0.5 * dt; // trapezoidal θ·h
    let steps = 100usize;
    let input = SinePulse::damped(0.5, 0.4, 0.08);
    let opts = TransientOptions::new(0.0, steps as f64 * dt, dt)
        .with_method(IntegrationMethod::ImplicitTrapezoidal);

    // --- mid size: dense vs sparse factorization of I − θh·J. Both timed
    // blocks cover the full pipeline symmetrically — Jacobian stamp,
    // iteration-matrix assembly, factorization, solve — so the reported
    // speedups compare like against like. ---
    let line_mid = TransmissionLine::current_driven(mid)?;
    let q_mid = line_mid.qldae();
    let x0 = Vector::zeros(mid);
    let rhs = Vector::from_fn(mid, |i| ((i % 11) as f64) - 5.0);

    let mut sparse_mid_repeats = [Duration::ZERO; FACTOR_REPEATS];
    let mut sparse_solution: Option<Vector> = None;
    for slot in &mut sparse_mid_repeats {
        let (solution, elapsed) = timed(|| -> Result<Vector> {
            let jac = q_mid
                .jacobian_csr(&x0, &[0.0])
                .expect("transmission line provides CSR stamps");
            let m = jac.identity_plus_scaled(-theta_h);
            let symbolic = SparseLuSymbolic::analyze(&m).map_err(MorError::Linalg)?;
            let lu = SparseLu::factor_with(&symbolic, &m).map_err(MorError::Linalg)?;
            lu.solve(&rhs).map_err(MorError::Linalg).map_err(Into::into)
        });
        sparse_solution.get_or_insert(solution?);
        *slot = elapsed;
    }
    let sparse_solution = sparse_solution.expect("FACTOR_REPEATS > 0");
    let sparse_factor_mid = sparse_mid_repeats.iter().copied().min().unwrap_or_default();

    let (dense_solution, dense_factor_mid) = timed(|| -> Result<Vector> {
        let jac = q_mid.jacobian_x(&x0, &[0.0]);
        let mut m = Matrix::identity(mid);
        m.axpy(-theta_h, &jac);
        let lu = m.lu().map_err(MorError::Linalg)?;
        lu.solve(&rhs).map_err(MorError::Linalg).map_err(Into::into)
    });
    let dense_solution = dense_solution?;
    let scale = dense_solution.norm_inf().max(1e-30);
    let factor_solution_diff = (&sparse_solution - &dense_solution).norm_inf() / scale;

    // --- mid size: dense vs sparse implicit transient ---
    let (dense_run, dense_transient_mid) = timed(|| {
        simulate(
            q_mid,
            &input,
            &opts.with_linear_solver(SolverBackend::Dense),
        )
    });
    let dense_run = dense_run?;
    let (sparse_run, sparse_transient_mid) = timed(|| {
        simulate(
            q_mid,
            &input,
            &opts.with_linear_solver(SolverBackend::Sparse),
        )
    });
    let sparse_run = sparse_run?;
    let trajectory_diff_mid =
        max_relative_error(&dense_run.output_channel(0), &sparse_run.output_channel(0));
    let transient_steps = sparse_run.stats.steps;

    // --- large size: sparse only (the dense n × n matrix at 10⁴ states is
    // 800 MB and O(n³) to factor — skipped by design) ---
    let line_big = TransmissionLine::current_driven(big)?;
    let q_big = line_big.qldae();
    let x0_big = Vector::zeros(big);
    let rhs_big = Vector::from_fn(big, |i| ((i % 7) as f64) - 3.0);
    // Timed block mirrors the mid-size sparse pipeline (stamp + assembly +
    // analysis + factor + solve) so the scaling exponent compares equals.
    let mut sparse_big_repeats = [Duration::ZERO; FACTOR_REPEATS];
    let mut big_first: Option<(usize, Vector, CsrMatrix)> = None;
    for slot in &mut sparse_big_repeats {
        let (outcome, elapsed) = timed(|| -> Result<(usize, Vector, CsrMatrix)> {
            let jac = q_big
                .jacobian_csr(&x0_big, &[0.0])
                .expect("transmission line provides CSR stamps");
            let m = jac.identity_plus_scaled(-theta_h);
            let symbolic = SparseLuSymbolic::analyze(&m).map_err(MorError::Linalg)?;
            let lu = SparseLu::factor_with(&symbolic, &m).map_err(MorError::Linalg)?;
            let x = lu.solve(&rhs_big).map_err(MorError::Linalg)?;
            Ok((lu.factor_nnz(), x, m))
        });
        big_first.get_or_insert(outcome?);
        *slot = elapsed;
    }
    let (sparse_lu_nnz_big, big_solution, m_big) = big_first.expect("FACTOR_REPEATS > 0");
    let sparse_factor_big = sparse_big_repeats.iter().copied().min().unwrap_or_default();
    // Verify the large solve actually solved the system.
    let mut residual = m_big.matvec(&big_solution);
    residual.axpy(-1.0, &rhs_big);
    assert!(
        residual.norm_inf() <= 1e-8 * rhs_big.norm_inf(),
        "large sparse solve residual {:.3e}",
        residual.norm_inf()
    );
    let (big_run, sparse_transient_big) = timed(|| {
        simulate(
            q_big,
            &input,
            &opts.with_linear_solver(SolverBackend::Sparse),
        )
    });
    let big_run = big_run?;
    assert_eq!(big_run.stats.steps, transient_steps);

    // Fit the exponent independently on each timing repeat: the headline
    // value is the median fit, and the spread records how far one noisy
    // repeat could have dragged a single-shot measurement.
    let log_ratio = (big as f64 / mid as f64).ln();
    let mut factor_exponent_repeats = [0.0; FACTOR_REPEATS];
    for (i, exp) in factor_exponent_repeats.iter_mut().enumerate() {
        *exp = (sparse_big_repeats[i].as_secs_f64()
            / sparse_mid_repeats[i].as_secs_f64().max(1e-12))
        .ln()
            / log_ratio;
    }
    let factor_scaling_exponent = median_f64(&factor_exponent_repeats);
    let factor_exponent_spread = factor_exponent_repeats
        .iter()
        .fold(f64::NEG_INFINITY, |a, &b| a.max(b))
        - factor_exponent_repeats
            .iter()
            .fold(f64::INFINITY, |a, &b| a.min(b));

    // --- dense/sparse ROM agreement (scale-free check at 35 stages) ---
    let line35 = TransmissionLine::current_driven(35)?;
    let spec = MomentSpec::paper_default();
    let rom_dense = AssocReducer::new(spec)
        .with_solver_backend(SolverBackend::Dense)
        .reduce(line35.qldae())?;
    let rom_sparse = AssocReducer::new(spec)
        .with_solver_backend(SolverBackend::Sparse)
        .reduce(line35.qldae())?;
    let rom_opts = TransientOptions::new(0.0, 30.0, dt.max(0.01))
        .with_method(IntegrationMethod::ImplicitTrapezoidal);
    let yd = simulate(rom_dense.system(), &input, &rom_opts)?;
    let ys = simulate(rom_sparse.system(), &input, &rom_opts)?;
    let rom_trajectory_diff = max_relative_error(&yd.output_channel(0), &ys.output_channel(0));

    Ok(SparseScalingReport {
        mid_states: mid,
        big_states: big,
        dense_factor_mid,
        sparse_factor_mid,
        sparse_factor_big,
        factor_speedup_mid: dense_factor_mid.as_secs_f64()
            / sparse_factor_mid.as_secs_f64().max(1e-12),
        factor_speedup_big_vs_dense_mid: dense_factor_mid.as_secs_f64()
            / sparse_factor_big.as_secs_f64().max(1e-12),
        factor_solution_diff,
        dense_transient_mid,
        sparse_transient_mid,
        sparse_transient_big,
        transient_steps,
        trajectory_diff_mid,
        sparse_lu_nnz_big,
        factor_scaling_exponent,
        factor_exponent_repeats,
        factor_exponent_spread,
        rom_order_dense: rom_dense.order(),
        rom_order_sparse: rom_sparse.order(),
        rom_trajectory_diff,
    })
}

/// The PR-4 low-rank reduction scaling measurements: end-to-end *reductions*
/// (not just transients) of the current-driven transmission line at sizes
/// the dense Schur engine cannot reach, plus the paper-size
/// dense-vs-low-rank agreement checks the acceptance criteria require.
#[derive(Debug, Clone, Copy)]
pub struct LowRankScalingReport {
    /// States of the mid-size line.
    pub mid_states: usize,
    /// States of the large line (10⁴ at paper scale).
    pub big_states: usize,
    /// Wall time of the low-rank `AssocReducer::reduce` at the mid size.
    pub reduce_mid: Duration,
    /// Wall time of the low-rank reduction at the large size.
    pub reduce_big: Duration,
    /// Reduced order at the mid size.
    pub rom_order_mid: usize,
    /// Reduced order at the large size.
    pub rom_order_big: usize,
    /// Spectral abscissa of the mid-size reduced `G₁ᵣ`.
    pub mid_abscissa: f64,
    /// Spectral abscissa of the large reduced `G₁ᵣ`.
    pub big_abscissa: f64,
    /// Total ADI sweeps of the large reduction (weight + `H₃` top blocks).
    pub adi_iterations_big: usize,
    /// LR-ADI weight residual of the large reduction.
    pub adi_residual_big: f64,
    /// Largest rational-Krylov chain basis of the large reduction.
    pub chain_basis_dim_big: usize,
    /// Max relative transient error of the mid-size ROM against the full
    /// (sparse) model.
    pub rom_error_mid: f64,
    /// Max relative transient error of the large ROM against the full model.
    pub rom_error_big: f64,
    /// Empirical exponent `p` of `t_reduce ∝ n^p` between the two sizes.
    pub reduce_scaling_exponent: f64,
    /// Paper-size (fig3 line) dense-vs-low-rank engine agreement: max
    /// relative difference of the reduced Volterra kernels `H₁`/`H₂`/`H₃`
    /// over the sample points (must be ≤ 1e-6).
    pub fig3_kernel_diff: f64,
    /// Paper-size (fig5 varistor) dense-vs-low-rank agreement: max relative
    /// difference of the reduced surge transients (must be ≤ 1e-6).
    pub fig5_rom_diff: f64,
    /// States of the scaled-up *voltage-driven* line variant (`D₁`-heavy:
    /// every stage carries a bilinear input term — the fADI top-block path
    /// runs with a dense `D₁b` right-hand side every `H₃` step).
    pub voltage_states: usize,
    /// Wall time of the low-rank reduction of the voltage-driven variant.
    pub voltage_reduce: Duration,
    /// Reduced order of the voltage-driven variant.
    pub voltage_order: usize,
    /// Spectral abscissa of the voltage-driven variant's reduced `G₁ᵣ`.
    pub voltage_abscissa: f64,
    /// Band residual of the voltage-driven variant's ROM (the far-end
    /// transient of a 2 000-stage line is numerically zero inside any
    /// reasonable window, so fidelity is checked in the frequency domain —
    /// the estimator this PR introduces).
    pub voltage_band_residual: f64,
    /// States of the scaled-up RF-receiver variant (strongly non-normal LC
    /// cascade, two inputs — the oscillatory spectrum the complex-conjugate
    /// ADI shift pairs exist for).
    pub receiver_states: usize,
    /// Wall time of the low-rank reduction of the receiver variant.
    pub receiver_reduce: Duration,
    /// Reduced order of the receiver variant.
    pub receiver_order: usize,
    /// Spectral abscissa of the receiver variant's reduced `G₁ᵣ`.
    pub receiver_abscissa: f64,
    /// Band residual of the receiver variant's ROM.
    pub receiver_band_residual: f64,
}

/// Reduces the line end-to-end on the low-rank engine and measures the
/// transient error of the resulting ROM against the full sparse model.
fn lowrank_line_reduction(
    stages: usize,
    dt: f64,
) -> Result<(Duration, vamor_core::ReducedQldae, f64)> {
    let line = TransmissionLine::current_driven(stages)?;
    let full = line.qldae();
    // Two Markov vectors pin the broadband onset that DC moment matching
    // leaves free — at 10⁴ states the unmatched onset dominates the ROM
    // error exactly as it did for the paper-size fig2 line.
    let (rom, t_reduce) = timed(|| {
        AssocReducer::new(MomentSpec::paper_default())
            .with_markov_moments(2)
            .with_engine(ReductionEngine::LowRank)
            .reduce(full)
    });
    let rom = rom?;
    let input = SinePulse::damped(0.5, 0.4, 0.08);
    let opts = TransientOptions::new(0.0, 30.0, dt)
        .with_method(IntegrationMethod::ImplicitTrapezoidal)
        .with_linear_solver(SolverBackend::Sparse);
    let full_run = simulate(full, &input, &opts)?;
    let rom_run = simulate(
        rom.system(),
        &input,
        &TransientOptions::new(0.0, 30.0, dt).with_method(IntegrationMethod::ImplicitTrapezoidal),
    )?;
    let err = max_relative_error(&full_run.output_channel(0), &rom_run.output_channel(0));
    Ok((t_reduce, rom, err))
}

/// Runs the PR-4 low-rank scaling benchmark (see [`LowRankScalingReport`]).
/// `mid`/`big` are the line sizes (2 000 / 10 000 at paper scale);
/// `fig3_stages`/`fig5_ladder` set the paper-size agreement checks.
///
/// # Errors
///
/// Propagates circuit construction, reduction and simulation failures.
pub fn lowrank_scaling(
    mid: usize,
    big: usize,
    fig3_stages: usize,
    fig5_ladder: usize,
    dt: f64,
) -> Result<LowRankScalingReport> {
    // --- scaled-up voltage-line variant (D₁-heavy) at the mid size: the
    // far-end transient is numerically zero at this length, so the ROM is
    // validated with the PR-5 band estimator instead of a transient ---
    let vline = TransmissionLine::voltage_driven(mid)?;
    let vfull = vline.qldae();
    let (vrom, voltage_reduce) = timed(|| {
        AssocReducer::new(MomentSpec::paper_default())
            .with_markov_moments(2)
            .with_engine(ReductionEngine::LowRank)
            .reduce(vfull)
    });
    let vrom = vrom?;
    let variant_band = FrequencyBand::new(0.05, 6.0).map_err(ExperimentError::Reduction)?;
    let variant_points = BandSamplerOptions {
        h1_points: 9,
        h2_points: 3,
        h3_points: 2,
    };
    let vsampler =
        BandSampler::for_qldae(vfull, variant_band, SolverBackend::Sparse, variant_points)
            .map_err(ExperimentError::Reduction)?;
    let voltage_band_residual = vsampler
        .residual_qldae(vrom.system())
        .map_err(ExperimentError::Reduction)?
        .max();

    // --- scaled-up RF-receiver variant (non-normal, two inputs) at the mid
    // size (sections ≈ mid/2 → ≈ mid states) ---
    let rx = RfReceiver::new(mid / 2)?;
    let rfull = rx.qldae();
    // A bounded stress workload: the lightly damped LC spectrum stalls the
    // real-shift factored-ADI top block (the open ROADMAP item on complex
    // chain shifts), so the `H₃` depth and the per-solve ADI budget are kept
    // small — the point is exercising the path at size, not polishing an
    // unreachable tolerance.
    let receiver_opts = vamor_core::lowrank::LowRankOptions {
        adi_max_iterations: 48,
        ..Default::default()
    };
    let (rrom, receiver_reduce) = timed(|| {
        AssocReducer::new(MomentSpec::new(4, 2, 1))
            .with_markov_moments(2)
            .with_engine(ReductionEngine::LowRank)
            .with_lowrank_options(receiver_opts)
            .reduce(rfull)
    });
    let rrom = rrom?;
    let rsampler = BandSampler::for_qldae(
        rfull,
        FrequencyBand::new(0.02, 2.5).map_err(ExperimentError::Reduction)?,
        SolverBackend::Sparse,
        variant_points,
    )
    .map_err(ExperimentError::Reduction)?;
    let receiver_band_residual = rsampler
        .residual_qldae(rrom.system())
        .map_err(ExperimentError::Reduction)?
        .max();

    let (reduce_mid, rom_mid, rom_error_mid) = lowrank_line_reduction(mid, dt)?;
    let (reduce_big, rom_big, rom_error_big) = lowrank_line_reduction(big, dt)?;
    let reduce_scaling_exponent = (reduce_big.as_secs_f64() / reduce_mid.as_secs_f64().max(1e-12))
        .ln()
        / (big as f64 / mid as f64).ln();

    // --- paper-size agreement: fig3 line, dense vs low-rank engines, at the
    // Volterra-kernel level ---
    let line = TransmissionLine::current_driven(fig3_stages)?;
    let full = line.qldae();
    let spec = MomentSpec::paper_default();
    let dense = AssocReducer::new(spec)
        .with_engine(ReductionEngine::DenseSchur)
        .reduce(full)?;
    let low = AssocReducer::new(spec)
        .with_engine(ReductionEngine::LowRank)
        .reduce(full)?;
    let kd = VolterraKernels::new(dense.system(), 0)?;
    let kl = VolterraKernels::new(low.system(), 0)?;
    let points = [
        Complex::new(0.0, 0.05),
        Complex::new(0.02, 0.01),
        Complex::new(-0.01, 0.15),
    ];
    let mut fig3_kernel_diff = 0.0_f64;
    let mut track = |a: Complex, b: Complex| {
        fig3_kernel_diff = fig3_kernel_diff.max((a - b).abs() / (1.0 + a.abs()));
    };
    for s in points {
        track(kd.output_h1(s)?, kl.output_h1(s)?);
        track(kd.output_h2(s, points[0])?, kl.output_h2(s, points[0])?);
        track(
            kd.output_h3(s, points[0], points[1])?,
            kl.output_h3(s, points[0], points[1])?,
        );
    }

    // --- paper-size agreement: fig5 varistor, dense vs low-rank reduced
    // surge transients ---
    let circuit = VaristorCircuit::new(fig5_ladder)?;
    let ode = circuit.qldae();
    let vspec = MomentSpec::new(6, 0, 2);
    let vdense = AssocReducer::new(vspec)
        .with_stabilized_projection(false)
        .with_engine(ReductionEngine::DenseSchur)
        .reduce(ode)?;
    let vlow = AssocReducer::new(vspec)
        .with_stabilized_projection(false)
        .with_engine(ReductionEngine::LowRank)
        .reduce(ode)?;
    let surge = ExpPulse::new(VaristorCircuit::surge_amplitude(), 0.5, 6.0);
    let vopts =
        TransientOptions::new(0.0, 30.0, dt).with_method(IntegrationMethod::ImplicitTrapezoidal);
    let yd = simulate(vdense.system(), &surge, &vopts)?;
    let yl = simulate(vlow.system(), &surge, &vopts)?;
    let fig5_rom_diff = max_relative_error(&yd.output_channel(0), &yl.output_channel(0));

    Ok(LowRankScalingReport {
        mid_states: mid,
        big_states: big,
        reduce_mid,
        reduce_big,
        rom_order_mid: rom_mid.order(),
        rom_order_big: rom_big.order(),
        mid_abscissa: rom_mid.stats().spectral_abscissa,
        big_abscissa: rom_big.stats().spectral_abscissa,
        adi_iterations_big: rom_big.stats().adi_iterations,
        adi_residual_big: rom_big.stats().adi_residual,
        chain_basis_dim_big: rom_big.stats().chain_basis_dim,
        rom_error_mid,
        rom_error_big,
        reduce_scaling_exponent,
        fig3_kernel_diff,
        fig5_rom_diff,
        voltage_states: vfull.order(),
        voltage_reduce,
        voltage_order: vrom.order(),
        voltage_abscissa: vrom.stats().spectral_abscissa,
        voltage_band_residual,
        receiver_states: rfull.order(),
        receiver_reduce,
        receiver_order: rrom.order(),
        receiver_abscissa: rrom.stats().spectral_abscissa,
        receiver_band_residual,
    })
}

/// Adaptive-vs-pinned record of one figure experiment inside the
/// `adaptive` bench (the driver must reproduce or beat the hand-tuned
/// reference from a band + tolerance alone).
#[derive(Debug, Clone)]
pub struct AdaptiveFigReport {
    /// Figure label.
    pub name: &'static str,
    /// Full model order.
    pub full_order: usize,
    /// Order the adaptive driver settled on.
    pub order: usize,
    /// Wall time of the whole adaptive search.
    pub wall: Duration,
    /// Spectral abscissa of the adaptive ROM's `G₁ᵣ`.
    pub abscissa: f64,
    /// Max relative transient error of the adaptive ROM.
    pub adaptive_error: f64,
    /// Max relative transient error of the pinned reference ROM.
    pub pinned_error: f64,
    /// Search record.
    pub summary: AdaptiveSummary,
}

/// The `adaptive` bench: the greedy driver against the pinned references on
/// the fig3 line (dense engine) and the fig5 varistor, a low-rank engine
/// smoke at ≥ 2000 states, plus the embedded-error step-controller
/// demonstration on the varistor surge.
#[derive(Debug, Clone)]
pub struct AdaptiveExperimentReport {
    /// Fig. 3 line, adaptive vs pinned (dense engine at paper size).
    pub fig3: AdaptiveFigReport,
    /// Fig. 5 varistor (cubic path), adaptive vs pinned.
    pub fig5: AdaptiveFigReport,
    /// States of the low-rank engine smoke (the current-driven line).
    pub lowrank_states: usize,
    /// Wall time of the low-rank adaptive search.
    pub lowrank_wall: Duration,
    /// Order of the low-rank adaptive ROM.
    pub lowrank_order: usize,
    /// Spectral abscissa of the low-rank adaptive ROM.
    pub lowrank_abscissa: f64,
    /// Max relative transient error of the low-rank adaptive ROM.
    pub lowrank_rom_error: f64,
    /// Search record of the low-rank smoke.
    pub lowrank_summary: AdaptiveSummary,
    /// Steps of the fixed-grid varistor surge transient.
    pub step_fixed_steps: usize,
    /// Steps of the embedded-error adaptive transient (same model/span).
    pub step_adaptive_steps: usize,
    /// Steps the controller rejected and re-took at half size.
    pub step_rejected: usize,
    /// Max relative difference of the adaptive trajectory against the fixed
    /// grid (adaptive output linearly interpolated onto the fixed times).
    pub step_trajectory_diff: f64,
}

/// Linear interpolation of `(ts, ys)` onto `t`.
fn interp_at(ts: &[f64], ys: &[f64], t: f64) -> f64 {
    let j = ts.partition_point(|&x| x < t);
    if j == 0 {
        ys[0]
    } else if j >= ts.len() {
        *ys.last().expect("non-empty series")
    } else {
        let (t0, t1) = (ts[j - 1], ts[j]);
        let w = (t - t0) / (t1 - t0).max(1e-300);
        ys[j - 1] * (1.0 - w) + ys[j] * w
    }
}

/// Runs the `adaptive` bench (see [`AdaptiveExperimentReport`]).
///
/// # Errors
///
/// Propagates circuit construction, reduction and simulation failures.
pub fn adaptive_report(
    fig3_stages: usize,
    fig5_ladder: usize,
    lowrank_states: usize,
    dt: f64,
) -> Result<AdaptiveExperimentReport> {
    // --- fig3 line: adaptive vs pinned, dense engine at paper size ---
    let line = TransmissionLine::current_driven(fig3_stages)?;
    let full = line.qldae();
    let (out, wall) = timed(|| AdaptiveReducer::new(fig3_adaptive_spec()).reduce(full));
    let out = out?;
    let pinned = AssocReducer::new(MomentSpec::paper_default()).reduce(full)?;
    let input = SinePulse::damped(0.5, 0.4, 0.08);
    let opts =
        TransientOptions::new(0.0, 30.0, dt).with_method(IntegrationMethod::ImplicitTrapezoidal);
    let full_run = simulate(full, &input, &opts)?;
    let adaptive_run = simulate(out.rom.system(), &input, &opts)?;
    let pinned_run = simulate(pinned.system(), &input, &opts)?;
    let fig3 = AdaptiveFigReport {
        name: "fig3 current-driven line",
        full_order: full.order(),
        order: out.rom.order(),
        wall,
        abscissa: out.rom.stats().spectral_abscissa,
        adaptive_error: max_relative_error(
            &full_run.output_channel(0),
            &adaptive_run.output_channel(0),
        ),
        pinned_error: max_relative_error(
            &full_run.output_channel(0),
            &pinned_run.output_channel(0),
        ),
        summary: AdaptiveSummary::from_trace(&out.trace),
    };

    // --- fig5 varistor: adaptive vs pinned on the cubic path, plus the
    // embedded-error step controller against the fixed grid ---
    let circuit = VaristorCircuit::new(fig5_ladder)?;
    let ode = circuit.qldae();
    let (vout, vwall) = timed(|| AdaptiveReducer::new(fig5_adaptive_spec()).reduce(ode));
    let vout = vout?;
    let vpinned = AssocReducer::new(MomentSpec::new(6, 0, 2))
        .with_stabilized_projection(false)
        .reduce(ode)?;
    let surge = ExpPulse::new(VaristorCircuit::surge_amplitude(), 0.5, 6.0);
    let vopts =
        TransientOptions::new(0.0, 30.0, dt).with_method(IntegrationMethod::ImplicitTrapezoidal);
    let v_full = simulate(ode, &surge, &vopts)?;
    let v_adaptive = simulate(vout.rom.system(), &surge, &vopts)?;
    let v_pinned = simulate(vpinned.system(), &surge, &vopts)?;
    let fig5 = AdaptiveFigReport {
        name: "fig5 varistor surge (cubic)",
        full_order: ode.order(),
        order: vout.rom.order(),
        wall: vwall,
        abscissa: vout.rom.stats().spectral_abscissa,
        adaptive_error: max_relative_error(
            &v_full.output_channel(0),
            &v_adaptive.output_channel(0),
        ),
        pinned_error: max_relative_error(&v_full.output_channel(0), &v_pinned.output_channel(0)),
        summary: AdaptiveSummary::from_trace(&vout.trace),
    };

    let v_stepped = simulate(
        ode,
        &surge,
        &vopts.with_adaptive_steps(1e-4, dt / 8.0, 64.0 * dt),
    )?;
    let fixed_y = v_full.output_channel(0);
    let adaptive_y = v_stepped.output_channel(0);
    let peak = fixed_y
        .iter()
        .fold(0.0_f64, |m, &v| m.max(v.abs()))
        .max(1e-30);
    let mut step_trajectory_diff = 0.0_f64;
    for (i, &t) in v_full.times.iter().enumerate() {
        let y = interp_at(&v_stepped.times, &adaptive_y, t);
        step_trajectory_diff = step_trajectory_diff.max((y - fixed_y[i]).abs() / peak);
    }

    // --- low-rank engine smoke at ≥ 2000 states: the adaptive driver on
    // the rational-Krylov + LR-ADI machinery ---
    let big_line = TransmissionLine::current_driven(lowrank_states)?;
    let big_full = big_line.qldae();
    // Smoke budgets: a handful of moves at a looser tolerance — the point
    // is that the driver runs end-to-end on the low-rank machinery, not to
    // polish the last digit at benchmark cost.
    let (big_out, lowrank_wall) = timed(|| {
        AdaptiveReducer::new(
            fig3_adaptive_spec()
                .with_max_iterations(4)
                .with_min_gain(0.05),
        )
        .with_engine(ReductionEngine::LowRank)
        .reduce(big_full)
    });
    let big_out = big_out?;
    let big_input = SinePulse::damped(0.5, 0.4, 0.08);
    let big_opts = TransientOptions::new(0.0, 30.0, dt)
        .with_method(IntegrationMethod::ImplicitTrapezoidal)
        .with_linear_solver(SolverBackend::Sparse);
    let big_full_run = simulate(big_full, &big_input, &big_opts)?;
    let big_rom_run = simulate(
        big_out.rom.system(),
        &big_input,
        &TransientOptions::new(0.0, 30.0, dt).with_method(IntegrationMethod::ImplicitTrapezoidal),
    )?;
    let lowrank_rom_error = max_relative_error(
        &big_full_run.output_channel(0),
        &big_rom_run.output_channel(0),
    );

    Ok(AdaptiveExperimentReport {
        fig3,
        fig5,
        lowrank_states: big_full.order(),
        lowrank_wall,
        lowrank_order: big_out.rom.order(),
        lowrank_abscissa: big_out.rom.stats().spectral_abscissa,
        lowrank_rom_error,
        lowrank_summary: AdaptiveSummary::from_trace(&big_out.trace),
        step_fixed_steps: v_full.stats.steps,
        step_adaptive_steps: v_stepped.stats.steps,
        step_rejected: v_stepped.stats.rejected_steps,
        step_trajectory_diff,
    })
}

/// One row of the §4 size-scaling comparison.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Moment orders (k1 = k2 = k3 = k).
    pub k: usize,
    /// Projection dimension of the proposed method.
    pub proposed_dim: usize,
    /// Candidate count of the proposed method (before deflation).
    pub proposed_candidates: usize,
    /// Projection dimension of the NORM baseline.
    pub norm_dim: usize,
    /// Candidate count of the NORM baseline (before deflation).
    pub norm_candidates: usize,
}

/// §4 remark — projection-size scaling of the proposed method
/// (`O(k₁+k₂+k₃)`) versus NORM (`O(k₁+k₂³+k₃⁴)`) on a current-driven line.
pub fn scaling_subspace_dims(stages: usize, orders: &[usize]) -> Result<Vec<ScalingRow>> {
    let line = TransmissionLine::current_driven(stages)?;
    let full = line.qldae();
    let mut rows = Vec::with_capacity(orders.len());
    for &k in orders {
        let spec = MomentSpec::new(k, k, k);
        let proposed = AssocReducer::new(spec).reduce(full)?;
        let baseline = NormReducer::new(spec).reduce(full)?;
        rows.push(ScalingRow {
            k,
            proposed_dim: proposed.order(),
            proposed_candidates: proposed.stats().total_candidates(),
            norm_dim: baseline.order(),
            norm_candidates: baseline.stats().total_candidates(),
        });
    }
    Ok(rows)
}

/// One line size of the §2.3 ablation (see [`ablation_structured_vs_dense`]).
#[derive(Debug, Clone, Copy)]
pub struct AblationRow {
    /// Transmission-line stages.
    pub stages: usize,
    /// State dimension `n` of the line; the explicit realization has
    /// `n + n²` states.
    pub states: usize,
    /// Best wall time of the structured path: three `H₂` moments from the
    /// Kronecker-sum solves.
    pub structured: Duration,
    /// Best wall time of the brute-force path: the explicit Eq. 17
    /// realization, one dense LU of it and three solves.
    pub dense: Duration,
}

/// §2.3 ablation: the structured `H₂` moment generation against Arnoldi-style
/// solves on the explicit `(n + n²)`-state realization of the associated
/// `H₂(s)` (Eq. 17), whose `O((n + n²)³)` factorization is why the paper
/// decouples the Kronecker sums. Each path runs `repeats` times per line
/// size and keeps its best wall time; both include building the generator.
///
/// # Errors
///
/// Propagates circuit construction, moment generation and dense
/// factorization failures.
pub fn ablation_structured_vs_dense(
    stage_sizes: &[usize],
    repeats: usize,
) -> Result<Vec<AblationRow>> {
    let mut rows = Vec::with_capacity(stage_sizes.len());
    for &stages in stage_sizes {
        let line = TransmissionLine::current_driven(stages)?;
        let qldae = line.qldae();
        let (moments, structured) = best_of(repeats, || {
            AssocMomentGenerator::new(qldae).and_then(|g| g.h2_moments_scaled(0, 0, 3))
        });
        moments?;
        let (solves, dense) = best_of(repeats, || -> std::result::Result<(), MorError> {
            let generator = AssocMomentGenerator::new(qldae)?;
            let (a, btilde, _) = generator.dense_h2_realization(0)?;
            let lu = a.lu()?;
            let mut v = btilde;
            for _ in 0..3 {
                v = lu.solve(&v)?;
            }
            Ok(())
        });
        solves?;
        rows.push(AblationRow {
            stages,
            states: qldae.order(),
            structured,
            dense,
        });
    }
    Ok(rows)
}

/// Record of a deadline-bounded adaptive run (`reproduce --timeout-secs`).
///
/// The preemption contract under test: once the initial ROM exists, an
/// expiring wall-clock deadline degrades the greedy search to its best
/// configuration so far (with [`vamor_core::StopReason::DeadlineExceeded`]
/// in the trace) instead of erroring; a deadline that expires *before* any
/// ROM exists surfaces as a typed reduction error.
#[derive(Debug, Clone)]
pub struct DeadlineRunReport {
    /// Full model order.
    pub states: usize,
    /// Order of the returned best-so-far ROM.
    pub order: usize,
    /// Spectral abscissa of the returned ROM's `G₁ᵣ`.
    pub abscissa: f64,
    /// Whether the returned ROM is Hurwitz-stable.
    pub hurwitz: bool,
    /// Why the search stopped (`Debug` form of `StopReason`).
    pub stop: String,
    /// True iff the wall-clock deadline cut the search short.
    pub deadline_hit: bool,
    /// Search record.
    pub summary: AdaptiveSummary,
    /// Wall time actually spent in the search.
    pub wall: Duration,
}

/// Runs the fig3-band adaptive search on a `stages`-state current-driven
/// line under a wall-clock deadline ([`RunControl::with_deadline`]) — the
/// `--timeout-secs` path of the `reproduce` binary. With
/// [`ReductionEngine::LowRank`] this exercises the preemption contract at
/// the 10⁴-state scale of the acceptance criteria.
///
/// # Errors
///
/// Propagates circuit construction failures, and
/// [`MorError::Linalg`]/`Interrupted` when the deadline expires before the
/// first ROM exists (there is no best-so-far result to degrade to yet).
pub fn adaptive_deadline_run(
    stages: usize,
    engine: ReductionEngine,
    timeout: Duration,
) -> Result<DeadlineRunReport> {
    let line = TransmissionLine::current_driven(stages)?;
    let full = line.qldae();
    let control = RunControl::new().with_deadline(timeout);
    let (out, wall) = timed(|| {
        AdaptiveReducer::new(fig3_adaptive_spec())
            .with_engine(engine)
            .reduce_controlled(full, &control)
    });
    let out = out?;
    let abscissa = out.rom.stats().spectral_abscissa;
    Ok(DeadlineRunReport {
        states: full.order(),
        order: out.rom.order(),
        abscissa,
        hurwitz: abscissa < 0.0,
        stop: format!("{:?}", out.trace.stop),
        deadline_hit: out.trace.stop == StopReason::DeadlineExceeded,
        summary: AdaptiveSummary::from_trace(&out.trace),
        wall,
    })
}

/// Record of a kill-and-resume adaptive run (`reproduce --resume`): a
/// deadline-killed search left a checkpoint behind; resuming from it must
/// converge to the same accepted-move list and final band residual as an
/// uninterrupted run, without re-factoring the shared stamp.
#[derive(Debug, Clone)]
pub struct ResumeReport {
    /// Full model order.
    pub states: usize,
    /// True iff the deadline actually cut the first attempt short (a
    /// generous deadline lets it complete; the resume then replays the whole
    /// move list, which must still reproduce the reference).
    pub deadline_hit: bool,
    /// True iff a checkpoint existed on disk when the resume started. False
    /// means the kill landed before the first accepted move — the resumed
    /// run starts fresh, which is the `--resume` contract for a run killed
    /// at `t ≈ 0`.
    pub resumed_from_checkpoint: bool,
    /// Accepted moves recorded in the on-disk checkpoint at resume time.
    pub checkpoint_moves: usize,
    /// Move list of the uninterrupted reference run.
    pub reference_moves: String,
    /// Move list of the resumed run.
    pub resumed_moves: String,
    /// True iff the two move lists are identical.
    pub moves_match: bool,
    /// Final band residual of the reference run.
    pub reference_residual: f64,
    /// Final band residual of the resumed run.
    pub resumed_residual: f64,
    /// `|reference − resumed|` residual difference.
    pub residual_delta: f64,
    /// Full-model band-estimator solves spent by the resumed run (0 when the
    /// session's shared sampler cache is warm).
    pub resumed_full_solves: usize,
    /// Order of the resumed ROM.
    pub order: usize,
    /// Stamp factorizations across all three runs (reference, killed,
    /// resumed) — 1 when the session shares as designed.
    pub stamp_builds: usize,
    /// Stamp-cache hits across the three runs.
    pub stamp_hits: usize,
}

/// Runs the fig3-band adaptive search three times through one
/// [`ReductionSession`]: an uninterrupted reference, a deadline-killed
/// attempt checkpointing to `checkpoint`, and a resume from that checkpoint —
/// the `reproduce --timeout-secs … --checkpoint-dir …` / `--resume` path.
/// The resumed run must reach the reference's accepted-move list and final
/// residual, and the session must have factored the shared stamp exactly
/// once across all three runs.
///
/// # Errors
///
/// Propagates circuit construction failures and [`SessionError`]s from the
/// reference or resumed runs (a torn or mismatched checkpoint surfaces as
/// the typed [`SessionError::Checkpoint`], never a silent restart). The
/// killed attempt's interrupt is expected, not an error.
pub fn adaptive_resume_run(
    stages: usize,
    timeout: Duration,
    checkpoint: &Path,
) -> Result<ResumeReport> {
    let line = TransmissionLine::current_driven(stages)?;
    let full = line.qldae();
    let session = ReductionSession::unbounded();
    let reducer = AdaptiveReducer::new(fig3_adaptive_spec());

    // Uninterrupted reference (factors the stamp; later runs share it).
    let reference = session.reduce_adaptive(full, &reducer, &RunControl::new(), None)?;

    // Deadline-killed attempt: only its checkpoint side effect matters.
    // Both a degraded best-so-far outcome and a typed interrupt honor the
    // run-control contract.
    let killed_control = RunControl::new().with_deadline(timeout);
    let killed = session.reduce_adaptive(
        full,
        &reducer,
        &killed_control,
        Some(&CheckpointPlan::write_to(checkpoint)),
    );
    let deadline_hit = match &killed {
        Ok(out) => out.trace.stop == StopReason::DeadlineExceeded,
        Err(_) => true,
    };

    let resumed_from_checkpoint = checkpoint.exists();
    let checkpoint_moves = if resumed_from_checkpoint {
        AdaptiveCheckpoint::load(checkpoint)
            .map(|ck| ck.moves.len())
            .unwrap_or(0)
    } else {
        0
    };
    let plan = if resumed_from_checkpoint {
        CheckpointPlan::resume_from(checkpoint)
    } else {
        CheckpointPlan::write_to(checkpoint)
    };
    let resumed = session.reduce_adaptive(full, &reducer, &RunControl::new(), Some(&plan))?;

    let reference_moves = reference.trace.move_list();
    let resumed_moves = resumed.trace.move_list();
    let reference_residual = reference.trace.final_residual();
    let resumed_residual = resumed.trace.final_residual();
    let stats = session.stats();
    Ok(ResumeReport {
        states: full.order(),
        deadline_hit,
        resumed_from_checkpoint,
        checkpoint_moves,
        moves_match: reference_moves == resumed_moves,
        reference_moves,
        resumed_moves,
        reference_residual,
        resumed_residual,
        residual_delta: (reference_residual - resumed_residual).abs(),
        resumed_full_solves: resumed.trace.full_model_solves,
        order: resumed.rom.order(),
        stamp_builds: stats.stamp_builds,
        stamp_hits: stats.stamp_hits,
    })
}

/// One run of the chaos sweep: a figure experiment executed under an armed
/// [`vamor_linalg::fault::FaultPlan`].
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// Experiment label (`fig2`..`fig5`).
    pub experiment: &'static str,
    /// Injected failure mode.
    pub kind: &'static str,
    /// Seed of the injection schedule.
    pub seed: u64,
    /// Faults actually injected during the run.
    pub injected: usize,
    /// What happened: recovery, typed error text, or a contract violation.
    pub outcome: String,
    /// True iff the run honored the degradation contract — a recovered ROM
    /// with finite trajectories, or a typed error; never a panic, never a
    /// silently non-finite output.
    pub ok: bool,
}

/// Outcome of [`chaos_sweep`].
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Every (experiment, fault kind, seed) combination run.
    pub cases: Vec<ChaosCase>,
}

#[cfg(feature = "fault-injection")]
impl ChaosReport {
    /// True iff every case honored the degradation contract.
    pub fn all_ok(&self) -> bool {
        self.cases.iter().all(|c| c.ok)
    }

    /// The cases that violated the contract.
    pub fn violations(&self) -> Vec<&ChaosCase> {
        self.cases.iter().filter(|c| !c.ok).collect()
    }

    /// Total faults injected across the sweep.
    pub fn total_injected(&self) -> usize {
        self.cases.iter().map(|c| c.injected).sum()
    }
}

/// The chaos suite: sweeps seeded [`vamor_linalg::fault::FaultPlan`]s
/// (every [`vamor_linalg::fault::FaultKind`] × several seeds) over the
/// fig2–fig5 experiments at the given sizes and records, for each run,
/// whether the degradation ladder held — a recovered ROM with finite
/// trajectories or a typed error, never a panic and never a silently
/// non-finite result.
///
/// The fault plan is process-global; callers running concurrently with
/// other fault-injection users must serialize externally.
#[cfg(feature = "fault-injection")]
pub fn chaos_sweep(
    fig2_stages: usize,
    fig3_stages: usize,
    fig4_sections: usize,
    fig5_ladder: usize,
    dt: f64,
) -> ChaosReport {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use vamor_linalg::fault::{arm, disarm, injected, FaultKind, FaultPlan};

    type Run = Box<dyn Fn() -> Result<TransientComparison>>;
    let experiments: Vec<(&'static str, Run)> = vec![
        ("fig2", Box::new(move || fig2_voltage_line(fig2_stages, dt))),
        ("fig3", Box::new(move || fig3_current_line(fig3_stages, dt))),
        (
            "fig4",
            Box::new(move || fig4_rf_receiver(fig4_sections, dt)),
        ),
        ("fig5", Box::new(move || fig5_varistor(fig5_ladder, dt))),
    ];
    let kinds = [
        ("singular-factor", FaultKind::SingularFactor),
        ("nan-solve", FaultKind::NanSolve),
        ("adi-stall", FaultKind::AdiStall),
    ];
    let seeds = [1_u64, 7, 42];
    let mut cases = Vec::new();
    for (name, run) in &experiments {
        for (kind_name, kind) in kinds {
            for seed in seeds {
                arm(FaultPlan::new(seed, kind));
                let result = catch_unwind(AssertUnwindSafe(run));
                let fired = injected();
                disarm();
                let (ok, outcome) = match result {
                    Err(panic) => (false, format!("PANIC: {}", panic_message(panic.as_ref()))),
                    Ok(Ok(cmp)) => match first_non_finite(&cmp) {
                        Some(series) => (false, format!("silently non-finite {series}")),
                        None => (true, "recovered: finite trajectories".to_string()),
                    },
                    Ok(Err(e)) => (true, format!("typed error: {e}")),
                };
                cases.push(ChaosCase {
                    experiment: name,
                    kind: kind_name,
                    seed,
                    injected: fired,
                    outcome,
                    ok,
                });
            }
        }
    }
    ChaosReport { cases }
}

/// The concurrent chaos suite: every [`vamor_linalg::fault::FaultKind`]
/// (solver-seam *and* session-era kinds) × three seeds, each armed cycle
/// driving three threads — distinct transmission-line stamps — through ONE
/// shared, byte-budgeted [`ReductionSession`] running checkpointed adaptive
/// reductions (6 kinds × 3 seeds × 3 threads = 54 cases). The budget is
/// sized from measured stamp footprints to hold two of the three stamps, so
/// every cycle also churns the cross-cache LRU eviction path.
///
/// Contract per case: a recovered outcome with a finite band residual or a
/// typed [`SessionError`] — never a panic, never a silently non-finite
/// result. After each cycle a fault-free probe per stamp through the *same*
/// session must reproduce the fault-free reference ROM bit for bit; any
/// divergence is recorded as a cross-request contamination violation.
///
/// The fault plan is process-global; callers running concurrently with
/// other fault-injection users must serialize externally.
#[cfg(feature = "fault-injection")]
pub fn chaos_sweep_concurrent(checkpoint_dir: &Path) -> Result<ChaosReport> {
    use vamor_linalg::fault::{arm, disarm, injected, FaultKind, FaultPlan};

    let sizes = [12_usize, 14, 16];
    let labels = ["line12", "line14", "line16"];
    let lines = sizes
        .iter()
        .map(|&s| TransmissionLine::current_driven(s))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let spec = AdaptiveSpec::new(FrequencyBand::new(0.05, 6.0).expect("static band"), 1e-6)
        .with_max_order(24)
        .with_max_iterations(2);
    let reducer = AdaptiveReducer::new(spec);

    // Fault-free reference ROMs, one per stamp, computed through a measuring
    // session that also reveals each stamp's byte footprint. The adaptive
    // search is deterministic, so clean probes must reproduce these bits.
    let measure = ReductionSession::unbounded();
    let mut reference = Vec::new();
    let mut stamp_bytes = Vec::new();
    for line in &lines {
        let before = measure.budget().used();
        let out = measure.reduce_adaptive(line.qldae(), &reducer, &RunControl::new(), None)?;
        reference.push(out.rom.system().g1().as_slice().to_vec());
        stamp_bytes.push(measure.budget().used().saturating_sub(before));
    }
    let max_stamp = stamp_bytes.iter().copied().max().unwrap_or(0).max(1);
    // Two-and-a-half stamps: concurrent requests contend and evict, while a
    // serial clean probe (everything else unpinned) always fits.
    let capacity = max_stamp * 5 / 2;
    let session = ReductionSession::new(capacity);

    std::fs::create_dir_all(checkpoint_dir)
        .map_err(|e| SessionError::Checkpoint(vamor_core::CheckpointError::Io(e.to_string())))?;

    let kinds = [
        ("singular-factor", FaultKind::SingularFactor),
        ("nan-solve", FaultKind::NanSolve),
        ("adi-stall", FaultKind::AdiStall),
        ("cache-corrupt", FaultKind::CacheCorrupt),
        ("budget-pressure", FaultKind::BudgetPressure),
        ("checkpoint-torn", FaultKind::CheckpointTorn),
    ];
    let seeds = [1_u64, 7, 42];
    let mut cases = Vec::new();
    for (kind_name, kind) in kinds {
        for seed in seeds {
            arm(FaultPlan::new(seed, kind));
            let mut outcomes = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = lines
                    .iter()
                    .enumerate()
                    .map(|(t, line)| {
                        let session = &session;
                        let reducer = &reducer;
                        let path =
                            checkpoint_dir.join(format!("chaos-{kind_name}-{seed}-{t}.ckpt"));
                        scope.spawn(move || {
                            session
                                .reduce_adaptive(
                                    line.qldae(),
                                    reducer,
                                    &RunControl::new(),
                                    Some(&CheckpointPlan::write_to(path)),
                                )
                                .map(|out| out.trace.final_residual())
                        })
                    })
                    .collect();
                for handle in handles {
                    outcomes.push(handle.join());
                }
            });
            let fired = injected();
            disarm();
            for (t, result) in outcomes.into_iter().enumerate() {
                let (ok, outcome) = match result {
                    Err(p) => (false, format!("PANIC: {}", panic_message(p.as_ref()))),
                    Ok(Ok(residual)) if residual.is_finite() => {
                        (true, "recovered: finite band residual".to_string())
                    }
                    Ok(Ok(residual)) => (false, format!("silently non-finite residual {residual}")),
                    Ok(Err(e)) => (true, format!("typed error: {e}")),
                };
                cases.push(ChaosCase {
                    experiment: labels[t],
                    kind: kind_name,
                    seed,
                    injected: fired,
                    outcome,
                    ok,
                });
            }
            // Cross-request contamination probe: with faults disarmed, a
            // clean request through the *same* session must reproduce the
            // fault-free reference exactly; anything else means the faulted
            // cycle leaked corrupted shared state.
            for (t, line) in lines.iter().enumerate() {
                let probe =
                    session.reduce_adaptive(line.qldae(), &reducer, &RunControl::new(), None);
                let contaminated = match &probe {
                    Ok(out) => {
                        if out.rom.system().g1().as_slice() == reference[t].as_slice() {
                            None
                        } else {
                            Some(
                                "CONTAMINATED: clean probe diverged from fault-free reference"
                                    .to_string(),
                            )
                        }
                    }
                    Err(e) => Some(format!("CONTAMINATED: clean probe failed: {e}")),
                };
                if let Some(outcome) = contaminated {
                    cases.push(ChaosCase {
                        experiment: labels[t],
                        kind: kind_name,
                        seed,
                        injected: fired,
                        outcome,
                        ok: false,
                    });
                }
            }
        }
    }
    Ok(ChaosReport { cases })
}

/// Names the first non-finite series of a comparison, if any.
#[cfg(feature = "fault-injection")]
fn first_non_finite(cmp: &TransientComparison) -> Option<&'static str> {
    if !cmp.y_full.iter().all(|v| v.is_finite()) {
        return Some("full-model trajectory");
    }
    if !cmp.y_proposed.iter().all(|v| v.is_finite()) {
        return Some("proposed-ROM trajectory");
    }
    if let Some(y) = &cmp.y_norm {
        if !y.iter().all(|v| v.is_finite()) {
            return Some("NORM-ROM trajectory");
        }
    }
    if !cmp.proposed_abscissa.is_finite() {
        return Some("spectral abscissa");
    }
    None
}

#[cfg(feature = "fault-injection")]
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_small_instance_runs_and_is_accurate() {
        let cmp = fig3_current_line(40, 0.05).unwrap();
        assert_eq!(cmp.full_order, 40);
        // Both reduced models are far smaller than the original and both
        // track its transient closely at the matched moment orders.
        assert!(cmp.proposed_order <= cmp.full_order / 3);
        assert!(cmp.norm_order.unwrap() <= cmp.full_order / 3);
        assert!(
            cmp.max_error_proposed() < 0.05,
            "error {}",
            cmp.max_error_proposed()
        );
        assert!(cmp.max_error_norm().unwrap() < 0.05);
        assert_eq!(cmp.times.len(), cmp.y_full.len());
    }

    #[test]
    fn fig5_small_instance_clamps_the_surge() {
        let cmp = fig5_varistor(16, 0.01).unwrap();
        let peak_out = cmp.y_full.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
        // Clamped well below the 9.8 kV input.
        assert!(peak_out < 1000.0, "peak output {peak_out}");
        assert!(peak_out > 50.0, "output did not rise: {peak_out}");
        assert!(
            cmp.max_error_proposed() < 0.1,
            "error {}",
            cmp.max_error_proposed()
        );
    }

    #[test]
    fn sparse_scaling_reports_per_repeat_exponents() {
        let r = sparse_scaling(200, 400, 0.02).unwrap();
        assert_eq!(r.factor_exponent_repeats.len(), FACTOR_REPEATS);
        // The headline value is the median of the repeats, so it lies
        // between their extremes.
        let min = r
            .factor_exponent_repeats
            .iter()
            .fold(f64::INFINITY, |a, &b| a.min(b));
        let max = r
            .factor_exponent_repeats
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        assert!(r.factor_scaling_exponent >= min && r.factor_scaling_exponent <= max);
        assert!((r.factor_exponent_spread - (max - min)).abs() < 1e-12);
        assert!(r.factor_exponent_spread >= 0.0);
    }

    #[test]
    fn deadline_run_with_a_generous_budget_completes_unpreempted() {
        let r = adaptive_deadline_run(14, ReductionEngine::Auto, Duration::from_secs(600)).unwrap();
        assert!(r.hurwitz, "abscissa {}", r.abscissa);
        assert!(!r.deadline_hit, "stop {}", r.stop);
        assert!(r.order < r.states);
    }

    #[test]
    fn an_already_expired_deadline_is_a_typed_error_not_a_panic() {
        // Duration::ZERO expires before the band sampler finishes — no ROM
        // exists yet, so the contract is a typed error, not best-so-far.
        let err = adaptive_deadline_run(14, ReductionEngine::Auto, Duration::ZERO).unwrap_err();
        assert!(matches!(err, ExperimentError::Reduction(_)), "{err}");
    }

    #[test]
    fn scaling_rows_show_the_dimensionality_gap() {
        let rows = scaling_subspace_dims(48, &[1, 2, 3]).unwrap();
        assert_eq!(rows.len(), 3);
        // The NORM candidate count must grow much faster with k.
        let growth_norm = rows[2].norm_candidates as f64 / rows[0].norm_candidates as f64;
        let growth_prop = rows[2].proposed_candidates as f64 / rows[0].proposed_candidates as f64;
        assert!(growth_norm > growth_prop);
        assert!(rows[2].norm_dim >= rows[2].proposed_dim);
    }
}
