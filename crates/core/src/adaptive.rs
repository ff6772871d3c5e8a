//! The adaptive reduction driver: a frequency-band residual estimator plus a
//! greedy spec search that replaces the hand-tuned experiment configurations.
//!
//! Every fig2–fig5 experiment used to pin moment depths, Markov counts,
//! output-Krylov widths and deflation tolerances found by hand. This module
//! closes that loop with the classic greedy-MOR recipe:
//!
//! 1. **Estimate** — [`BandSampler`] evaluates the full-model and ROM
//!    transfer functions `H₁(iω)` / `H₂(iω, iω)` / `H₃(iω, iω, iω)` on a
//!    sample grid over a user-declared input [`FrequencyBand`]. Full-model
//!    solves are routed through the resolvent hook of one [`ShiftCache`]
//!    ([`ShiftCache::solve_resolvent`]) so every frequency is factored
//!    exactly once for the whole adaptive run, and the full-model samples
//!    themselves are computed once at construction. The ROM side is a
//!    [`VolterraKernels`] evaluator with dense per-call resolvents — `k × k`
//!    complex solves, negligible next to a reduction. The estimator reports per-band
//!    relative residuals plus the argmax frequency
//!    ([`BandResidual::worst_frequency`]).
//! 2. **Enrich** — [`AdaptiveReducer`] wraps [`AssocReducer`] /
//!    [`NormReducer`] and grows the configuration move-by-move
//!    ([`AdaptiveMove`]): deepen an `H₁`/`H₂`/`H₃` chain, add a Markov
//!    vector, add an output-Krylov dual chain, loosen/tighten the deflation
//!    tolerance, or toggle the energy-weighted projection. Each candidate
//!    move is scored by residual decrease per added basis column and the
//!    best one is taken.
//! 3. **Stop** — when the band residual reaches the tolerance, stops
//!    improving ([`StopReason::Saturated`]), or an order/iteration budget is
//!    hit. Every step is recorded in an [`AdaptiveTrace`].
//!
//! A run reads one stamp ([`crate::SharedAssocArtifacts`]), its own or a
//! [`crate::ReductionSession`]'s: the estimator and every probe borrow its
//! factorizations and energy weight, each built once per run, and the
//! probes share every moment chain they have in common (see
//! [`AdaptiveReducer`]).
//!
//! The driver runs under both reduction engines
//! ([`crate::ReductionEngine::DenseSchur`] and
//! [`crate::ReductionEngine::LowRank`]), so adaptivity works at 10⁴ states:
//! the band estimator is built exclusively from shifted solves and
//! structured Kronecker matvecs — no `n²` object is ever formed.

use vamor_linalg::{Complex, LinalgError, RunControl, ShiftCache, SolverBackend, StopCause};
use vamor_system::Qldae;

use crate::error::MorError;
use crate::lowrank::{LowRankOptions, ReductionEngine};
use crate::norm::NormReducer;
use crate::reduce::{AssocReducer, ChainMemo, MomentSpec, ReducedQldae};
use crate::stamp::{SharedAssocArtifacts, StampConfig};
use crate::volterra::VolterraKernels;
use crate::Result;

/// A user-declared input frequency band `[ω_min, ω_max]` (rad per unit
/// time) — together with a tolerance, the *entire* per-experiment
/// configuration the adaptive driver needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyBand {
    /// Lower band edge (≥ 0).
    pub omega_min: f64,
    /// Upper band edge (> `omega_min`).
    pub omega_max: f64,
}

impl FrequencyBand {
    /// Creates a band after validating the edges.
    ///
    /// # Errors
    ///
    /// Returns [`MorError::Invalid`] for non-finite or inverted edges.
    pub fn new(omega_min: f64, omega_max: f64) -> Result<Self> {
        if !omega_min.is_finite() || !omega_max.is_finite() || omega_min < 0.0 {
            return Err(MorError::Invalid(format!(
                "frequency band edges must be finite and non-negative, got [{omega_min}, {omega_max}]"
            )));
        }
        if omega_max <= omega_min {
            return Err(MorError::Invalid(format!(
                "empty frequency band [{omega_min}, {omega_max}]"
            )));
        }
        Ok(FrequencyBand {
            omega_min,
            omega_max,
        })
    }

    /// Sample frequencies over the band: logarithmically spaced when the
    /// band spans more than a decade ratio (and starts above zero),
    /// linearly otherwise; the edges are always included.
    pub fn grid(&self, points: usize) -> Vec<f64> {
        let points = points.max(2);
        if self.omega_min > 0.0 && self.omega_max / self.omega_min >= 16.0 {
            let ratio = (self.omega_max / self.omega_min).ln();
            (0..points)
                .map(|i| self.omega_min * (ratio * i as f64 / (points - 1) as f64).exp())
                .collect()
        } else {
            (0..points)
                .map(|i| {
                    self.omega_min
                        + (self.omega_max - self.omega_min) * i as f64 / (points - 1) as f64
                })
                .collect()
        }
    }
}

/// Grid sizes of the band residual estimator. `H₂`/`H₃` points are sparser
/// than `H₁` — the higher kernels cost several resolvent solves per sample.
#[derive(Debug, Clone, Copy)]
pub struct BandSamplerOptions {
    /// `H₁` sample frequencies.
    pub h1_points: usize,
    /// `H₂(iω, iω)` sample frequencies (0 disables the kernel).
    pub h2_points: usize,
    /// `H₃(iω, iω, iω)` sample frequencies (0 disables the kernel).
    pub h3_points: usize,
}

impl Default for BandSamplerOptions {
    fn default() -> Self {
        BandSamplerOptions {
            h1_points: 17,
            h2_points: 7,
            h3_points: 3,
        }
    }
}

/// Per-band relative residuals of a ROM against the full model, with the
/// frequency where the worst mismatch occurred. Each kernel's residual is
/// the *RMS* mismatch over its sample grid — a single stubborn sample (the
/// band edge of a stopband `H₃` is often irreducible) must not blind the
/// greedy search to progress everywhere else, which is exactly what a
/// max-aggregated residual does. All kernels are normalized by the *shared*
/// peak kernel magnitude over the band, so a numerically negligible kernel
/// (e.g. a chain whose linear response is roundoff next to its quadratic
/// one) cannot drown the residual in its own noise.
#[derive(Debug, Clone, Copy)]
pub struct BandResidual {
    /// Relative `H₁` residual over the band (`NaN`-free; 0 when the kernel
    /// was not sampled).
    pub h1: f64,
    /// Relative `H₂` residual.
    pub h2: f64,
    /// Relative `H₃` residual.
    pub h3: f64,
    /// Frequency (rad) of the worst relative mismatch across all kernels.
    pub worst_frequency: f64,
}

impl BandResidual {
    /// The combined (worst-kernel) band residual the greedy driver descends.
    pub fn max(&self) -> f64 {
        self.h1.max(self.h2).max(self.h3)
    }
}

/// One cached full-model sample. `diff` marks the mixed-sign
/// (difference-frequency) variant of an `H₂`/`H₃` sample.
#[derive(Debug, Clone, Copy)]
struct FullSample {
    input: usize,
    omega: f64,
    diff: bool,
    value: Complex,
}

/// The frequency-band residual estimator (see the module docs): full-model
/// `H₁`/`H₂`/`H₃` band samples computed once through the shift-cache
/// resolvent hooks, compared against any candidate ROM via
/// [`VolterraKernels`]. The `H₂` grid is sampled only for a system with a
/// quadratic part, the `H₃` grid for one with a quadratic or a cubic part.
#[derive(Debug)]
pub struct BandSampler {
    band: FrequencyBand,
    num_inputs: usize,
    h1: Vec<FullSample>,
    h2: Vec<FullSample>,
    h3: Vec<FullSample>,
    scale_h1: f64,
    scale_h2: f64,
    scale_h3: f64,
    full_solves: usize,
}

impl BandSampler {
    /// Builds the estimator for a full model: one shifted cache over
    /// `G₁`, every band frequency factored exactly once, all full-model
    /// samples evaluated up front.
    ///
    /// # Errors
    ///
    /// Returns an error when a resolvent is singular on the band (a Hurwitz
    /// `G₁` never is on the imaginary axis).
    pub fn for_qldae(
        qldae: &Qldae,
        band: FrequencyBand,
        backend: SolverBackend,
        opts: BandSamplerOptions,
    ) -> Result<Self> {
        let cache = ShiftCache::new(qldae.g1_csr(), backend);
        Self::build(qldae, band, opts, &cache, &RunControl::new())
    }

    /// The estimator build against a resolvent cache over `G₁` (a stamp's,
    /// shared by every estimator over that stamp): `full_solves` reports
    /// only the factorizations *this* build added, so a second build over a
    /// warm cache reports zero. The per-frequency full-model solves
    /// checkpoint as `band-sample`; a stop returns the typed
    /// [`LinalgError::Interrupted`] error, because no ROM exists yet to
    /// degrade to.
    fn build(
        qldae: &Qldae,
        band: FrequencyBand,
        opts: BandSamplerOptions,
        cache: &ShiftCache,
        control: &RunControl,
    ) -> Result<Self> {
        let _span = vamor_obs::span!("band_solve");
        let misses_before = cache.misses();
        let num_inputs = qldae.b().cols();
        let has_quadratic = qldae.has_quadratic();
        let has_h3 = has_quadratic || qldae.g3().is_some();
        let mut sampler = BandSampler {
            band,
            num_inputs,
            h1: Vec::new(),
            h2: Vec::new(),
            h3: Vec::new(),
            scale_h1: 0.0,
            scale_h2: 0.0,
            scale_h3: 0.0,
            full_solves: 0,
        };
        for input in 0..num_inputs {
            let kernels = VolterraKernels::with_cache(qldae, input, cache)?;
            for &omega in &band.grid(opts.h1_points) {
                control.checkpoint("band-sample")?;
                let s = Complex::new(0.0, omega);
                sampler.push_h1(input, omega, kernels.output_h1(s)?);
            }
            if has_quadratic && opts.h2_points > 0 {
                for &omega in &band.grid(opts.h2_points) {
                    control.checkpoint("band-sample")?;
                    let s = Complex::new(0.0, omega);
                    // Sum (2ω, second harmonic) and difference (0,
                    // rectification/envelope) products both land back in the
                    // response — a band-faithful ROM must match both.
                    sampler.push_h2(input, omega, false, kernels.output_h2(s, s)?);
                    sampler.push_h2(input, omega, true, kernels.output_h2(s, -s)?);
                }
            }
            if has_h3 && opts.h3_points > 0 {
                for &omega in &band.grid(opts.h3_points) {
                    control.checkpoint("band-sample")?;
                    let s = Complex::new(0.0, omega);
                    // Third harmonic (3ω) and in-band compression (ω).
                    sampler.push_h3(input, omega, false, kernels.output_h3(s, s, s)?);
                    sampler.push_h3(input, omega, true, kernels.output_h3(s, s, -s)?);
                }
            }
        }
        sampler.full_solves = cache.misses() - misses_before;
        Ok(sampler)
    }

    /// Forwarding name of [`BandSampler::for_qldae`], which covers cubic
    /// systems.
    ///
    /// # Errors
    ///
    /// Same contract as [`BandSampler::for_qldae`].
    pub fn for_cubic(
        qldae: &Qldae,
        band: FrequencyBand,
        backend: SolverBackend,
        opts: BandSamplerOptions,
    ) -> Result<Self> {
        Self::for_qldae(qldae, band, backend, opts)
    }

    fn push_h1(&mut self, input: usize, omega: f64, value: Complex) {
        self.scale_h1 = self.scale_h1.max(value.abs());
        self.h1.push(FullSample {
            input,
            omega,
            diff: false,
            value,
        });
    }

    fn push_h2(&mut self, input: usize, omega: f64, diff: bool, value: Complex) {
        self.scale_h2 = self.scale_h2.max(value.abs());
        self.h2.push(FullSample {
            input,
            omega,
            diff,
            value,
        });
    }

    fn push_h3(&mut self, input: usize, omega: f64, diff: bool, value: Complex) {
        self.scale_h3 = self.scale_h3.max(value.abs());
        self.h3.push(FullSample {
            input,
            omega,
            diff,
            value,
        });
    }

    /// The declared band.
    pub fn band(&self) -> FrequencyBand {
        self.band
    }

    /// True when the band response is carried almost entirely by `H₁`
    /// (higher kernels below 10 % of its peak). The two-sided output-Krylov
    /// move is only rational then: it doubles the matched `H₁` moments per
    /// column but restricts the ROM to the dual-chain span, abandoning the
    /// `H₂`/`H₃` subspaces.
    pub fn h1_dominated(&self) -> bool {
        self.scale_h2.max(self.scale_h3) <= 0.1 * self.scale_h1
    }

    /// Full-model factorizations the construction needed (each band
    /// frequency once — the memoized cache deduplicates the `H₂`/`H₃`
    /// sub-frequencies that coincide with `H₁` points).
    pub fn full_solves(&self) -> usize {
        self.full_solves
    }

    /// Band residual of a reduced model against the cached full-model
    /// samples.
    ///
    /// # Errors
    ///
    /// Returns an error when a ROM resolvent is singular on the band.
    pub fn residual_qldae(&self, rom: &Qldae) -> Result<BandResidual> {
        let evaluators: Vec<VolterraKernels<'_>> = (0..self.num_inputs.min(rom.b().cols()))
            .map(|input| VolterraKernels::new(rom, input))
            .collect::<Result<_>>()?;
        self.residual_with(&evaluators)
    }

    /// Forwarding name of [`BandSampler::residual_qldae`].
    ///
    /// # Errors
    ///
    /// Same contract as [`BandSampler::residual_qldae`].
    pub fn residual_cubic(&self, rom: &Qldae) -> Result<BandResidual> {
        self.residual_qldae(rom)
    }

    fn residual_with(&self, evaluators: &[VolterraKernels<'_>]) -> Result<BandResidual> {
        let _span = vamor_obs::span!("band_residual");
        let mut out = BandResidual {
            h1: 0.0,
            h2: 0.0,
            h3: 0.0,
            worst_frequency: self.band.omega_min,
        };
        // One shared normalization across kernels: mismatches are weighed by
        // how much they can move the band-limited output, not by the (possibly
        // vanishing) magnitude of their own kernel.
        let scale = self
            .scale_h1
            .max(self.scale_h2)
            .max(self.scale_h3)
            .max(1e-300);
        let mut worst = 0.0_f64;
        let mut track = |acc: &mut (f64, usize), sample: &FullSample, rom_value: Complex| {
            let err = (sample.value - rom_value).abs() / scale;
            acc.0 += err * err;
            acc.1 += 1;
            if err > worst {
                worst = err;
                out.worst_frequency = sample.omega;
            }
        };
        let mut acc1 = (0.0, 0usize);
        let mut acc2 = (0.0, 0usize);
        let mut acc3 = (0.0, 0usize);
        for sample in &self.h1 {
            let Some(eval) = evaluators.get(sample.input) else {
                continue;
            };
            let s = Complex::new(0.0, sample.omega);
            track(&mut acc1, sample, eval.output_h1(s)?);
        }
        for sample in &self.h2 {
            let Some(eval) = evaluators.get(sample.input) else {
                continue;
            };
            let s = Complex::new(0.0, sample.omega);
            let s2 = if sample.diff { -s } else { s };
            track(&mut acc2, sample, eval.output_h2(s, s2)?);
        }
        for sample in &self.h3 {
            let Some(eval) = evaluators.get(sample.input) else {
                continue;
            };
            let s = Complex::new(0.0, sample.omega);
            let s3 = if sample.diff { -s } else { s };
            track(&mut acc3, sample, eval.output_h3(s, s, s3)?);
        }
        let rms = |(sq, count): (f64, usize)| {
            if count == 0 {
                0.0
            } else {
                (sq / count as f64).sqrt()
            }
        };
        out.h1 = rms(acc1);
        out.h2 = rms(acc2);
        out.h3 = rms(acc3);
        Ok(out)
    }
}

/// The whole per-experiment configuration of the adaptive driver — a band
/// plus a tolerance (and safety budgets).
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveSpec {
    /// The input band the ROM must be faithful on.
    pub band: FrequencyBand,
    /// Target combined band residual.
    pub tol: f64,
    /// Hard cap on the reduced order.
    pub max_order: usize,
    /// Hard cap on accepted greedy moves.
    pub max_iterations: usize,
    /// Minimum relative residual improvement an accepted move must deliver;
    /// below it the search reports [`StopReason::Saturated`].
    pub min_gain: f64,
}

impl AdaptiveSpec {
    /// Creates a spec with the default budgets (order ≤ 64, ≤ 24 moves,
    /// 2 % minimum relative improvement).
    pub fn new(band: FrequencyBand, tol: f64) -> Self {
        AdaptiveSpec {
            band,
            tol,
            max_order: 64,
            max_iterations: 24,
            min_gain: 0.02,
        }
    }

    /// Overrides the order budget.
    pub fn with_max_order(mut self, max_order: usize) -> Self {
        self.max_order = max_order.max(1);
        self
    }

    /// Overrides the move budget.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Overrides the saturation threshold.
    pub fn with_min_gain(mut self, min_gain: f64) -> Self {
        self.min_gain = min_gain.max(0.0);
        self
    }
}

/// The moves of the greedy spec search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveMove {
    /// Starting configuration (the head entry of every trace).
    Initial,
    /// Two more `H₁` moments.
    DeepenH1,
    /// Two more `H₂` moments. The jump matters: on the `D₁`-carrying line
    /// the intermediate `k₂ = 2` basis is a residual *valley* (the lone
    /// extra chain direction perturbs the oblique projection before the
    /// deeper moments stabilize it again), and a one-step move strands the
    /// greedy search in front of it.
    DeepenH2,
    /// One more `H₃` moment.
    DeepenH3,
    /// One more Markov (high-frequency) vector per input.
    AddMarkov,
    /// One more output-Krylov dual chain per output (two-sided mode; dense
    /// engine, QLDAE, [`ReducerKind::Assoc`] only).
    AddOutputKrylov,
    /// Deflation tolerance × 100 (smaller basis, cheaper ROM).
    LoosenDeflation,
    /// Deflation tolerance ÷ 100 (richer basis — deep chains deflate long
    /// before they stop carrying band information, so the useful jumps are
    /// decades, not notches).
    TightenDeflation,
    /// Flip the energy-weighted (stabilized) projection.
    ToggleStabilization,
    /// Composite plateau escape: deepen every active chain at once (`k₁+2`,
    /// `k₂+1`, `k₃+1` where legal) and add a Markov vector. Narrow bands
    /// (stopband leaks) often need a *combined* enrichment before any single
    /// chain shows measurable progress — without this move the greedy search
    /// saturates on the first plateau.
    Boost,
}

impl AdaptiveMove {
    /// Short human-readable name (used in trace summaries).
    pub fn name(&self) -> &'static str {
        match self {
            AdaptiveMove::Initial => "init",
            AdaptiveMove::DeepenH1 => "h1",
            AdaptiveMove::DeepenH2 => "h2",
            AdaptiveMove::DeepenH3 => "h3",
            AdaptiveMove::AddMarkov => "markov",
            AdaptiveMove::AddOutputKrylov => "okrylov",
            AdaptiveMove::LoosenDeflation => "loosen",
            AdaptiveMove::TightenDeflation => "tighten",
            AdaptiveMove::ToggleStabilization => "stab",
            AdaptiveMove::Boost => "boost",
        }
    }

    /// Inverse of [`AdaptiveMove::name`] — the checkpoint parser of
    /// [`crate::session`] round-trips moves through their names.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "init" => AdaptiveMove::Initial,
            "h1" => AdaptiveMove::DeepenH1,
            "h2" => AdaptiveMove::DeepenH2,
            "h3" => AdaptiveMove::DeepenH3,
            "markov" => AdaptiveMove::AddMarkov,
            "okrylov" => AdaptiveMove::AddOutputKrylov,
            "loosen" => AdaptiveMove::LoosenDeflation,
            "tighten" => AdaptiveMove::TightenDeflation,
            "stab" => AdaptiveMove::ToggleStabilization,
            "boost" => AdaptiveMove::Boost,
            _ => return None,
        })
    }
}

/// Markov (high-frequency) enrichment cap of the greedy search, per input.
/// A couple of Markov vectors pin the broadband onset that DC moment
/// matching leaves free (the PR-2 finding this knob encodes); past that the
/// `G₁ᵏb` chains add ever-stiffer, weakly controlled directions whose band
/// residual keeps creeping down while the transient fidelity *degrades* —
/// the one divergence between the frequency-domain estimator and the time
/// domain observed on the fig2 line. The cap keeps the search out of that
/// regime; `Boost` ignores it deliberately (it adds at most one per plateau
/// escape alongside real chain deepening).
const MARKOV_CAP: usize = 3;

const ALL_MOVES: [AdaptiveMove; 9] = [
    AdaptiveMove::DeepenH1,
    AdaptiveMove::DeepenH2,
    AdaptiveMove::DeepenH3,
    AdaptiveMove::AddMarkov,
    AdaptiveMove::AddOutputKrylov,
    AdaptiveMove::LoosenDeflation,
    AdaptiveMove::TightenDeflation,
    AdaptiveMove::ToggleStabilization,
    AdaptiveMove::Boost,
];

/// Which reducer family the driver wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducerKind {
    /// The paper's associated-transform reducer ([`AssocReducer`]).
    Assoc,
    /// The multivariate NORM baseline ([`NormReducer`]; QLDAE only, no
    /// Markov/output-Krylov moves).
    Norm,
}

/// One reducer configuration the greedy search can hold — everything the
/// hand-tuned experiment configs used to pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Moment depths.
    pub spec: MomentSpec,
    /// Markov vectors per input.
    pub markov: usize,
    /// Output-Krylov dual chains per output (two-sided mode when > 0).
    pub output_krylov: usize,
    /// Deflation tolerance of the candidate orthonormalization.
    pub deflation_tol: f64,
    /// Energy-weighted (stabilized) projection on/off.
    pub stabilized: bool,
}

impl AdaptiveConfig {
    /// Total requested candidate directions per input — the "matched-moment
    /// budget" the property tests track (never decreased by a greedy move).
    pub fn requested_candidates(&self) -> usize {
        self.spec.total() + self.markov + self.output_krylov
    }

    fn apply(mut self, mv: AdaptiveMove) -> Self {
        match mv {
            AdaptiveMove::Initial => {}
            AdaptiveMove::DeepenH1 => self.spec.k1 += 2,
            AdaptiveMove::DeepenH2 => self.spec.k2 += 2,
            AdaptiveMove::DeepenH3 => self.spec.k3 += 1,
            AdaptiveMove::AddMarkov => self.markov += 1,
            AdaptiveMove::AddOutputKrylov => self.output_krylov += 1,
            AdaptiveMove::LoosenDeflation => self.deflation_tol *= 100.0,
            AdaptiveMove::TightenDeflation => self.deflation_tol /= 100.0,
            AdaptiveMove::ToggleStabilization => self.stabilized = !self.stabilized,
            AdaptiveMove::Boost => {
                self.spec.k1 += 2;
                // Only chains the system actually has (k = 0 marks an
                // absent nonlinear order in the initial config).
                if self.spec.k2 > 0 {
                    self.spec.k2 += 1;
                }
                if self.spec.k3 > 0 {
                    self.spec.k3 += 1;
                }
                self.markov += 1;
            }
        }
        self
    }

    /// Compact description, e.g. `6/3/2 +2mk ok1 defl 1e-10 stab`.
    pub fn describe(&self) -> String {
        format!(
            "{}/{}/{}{}{} defl {:.0e}{}",
            self.spec.k1,
            self.spec.k2,
            self.spec.k3,
            if self.markov > 0 {
                format!(" +{}mk", self.markov)
            } else {
                String::new()
            },
            if self.output_krylov > 0 {
                format!(" ok{}", self.output_krylov)
            } else {
                String::new()
            },
            self.deflation_tol,
            if self.stabilized { " stab" } else { " plain" }
        )
    }
}

/// Why the greedy search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The band residual reached the tolerance.
    ToleranceReached,
    /// No legal move improved the residual by at least
    /// [`AdaptiveSpec::min_gain`].
    Saturated,
    /// Every improving move would exceed the order budget.
    OrderBudget,
    /// The accepted-move budget ran out.
    IterationBudget,
    /// A [`RunControl`] token was cancelled mid-search; the outcome carries
    /// the best ROM seen up to that point.
    Cancelled,
    /// A [`RunControl`] wall-clock deadline passed mid-search; the outcome
    /// carries the best ROM seen up to that point.
    DeadlineExceeded,
}

impl StopReason {
    fn from_cause(cause: Option<StopCause>) -> Self {
        match cause {
            Some(StopCause::DeadlineExceeded) => StopReason::DeadlineExceeded,
            _ => StopReason::Cancelled,
        }
    }
}

/// One accepted step of the greedy search (the first entry is the initial
/// configuration).
#[derive(Debug, Clone)]
pub struct AdaptiveStep {
    /// The move taken ([`AdaptiveMove::Initial`] for the head entry).
    pub mv: AdaptiveMove,
    /// Configuration after the move.
    pub config: AdaptiveConfig,
    /// Reduced order reached.
    pub order: usize,
    /// Band residual of the ROM.
    pub residual: BandResidual,
    /// Residual decrease per added basis column that earned the move its
    /// acceptance (0 for the head entry).
    pub gain_per_column: f64,
}

/// Record of a whole adaptive reduction run.
#[derive(Debug, Clone)]
pub struct AdaptiveTrace {
    /// Accepted steps, head entry first.
    pub steps: Vec<AdaptiveStep>,
    /// Total candidate reductions evaluated (accepted + rejected probes).
    pub evaluations: usize,
    /// Full-model solves of the band estimator (each band frequency factored
    /// once).
    pub full_model_solves: usize,
    /// Moment chains the run built, each `(chain, depth)` once.
    pub chain_builds: usize,
    /// Chain requests of the run's reductions answered without a build.
    pub chain_reuses: usize,
    /// Why the search stopped.
    pub stop: StopReason,
}

impl AdaptiveTrace {
    /// Band residual of the initial configuration.
    pub fn initial_residual(&self) -> f64 {
        self.steps.first().map(|s| s.residual.max()).unwrap_or(0.0)
    }

    /// Band residual of the final (best) configuration.
    pub fn final_residual(&self) -> f64 {
        self.steps.last().map(|s| s.residual.max()).unwrap_or(0.0)
    }

    /// Accepted moves, e.g. `h1,h1,markov,h2`.
    pub fn move_list(&self) -> String {
        self.steps
            .iter()
            .skip(1)
            .map(|s| s.mv.name())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// One-line summary for logs and the bench JSON.
    pub fn summary(&self) -> String {
        let cfg = self
            .steps
            .last()
            .map(|s| s.config.describe())
            .unwrap_or_default();
        format!(
            "spec {cfg}; residual {:.2e} -> {:.2e} in {} moves ({} evals, {:?})",
            self.initial_residual(),
            self.final_residual(),
            self.steps.len().saturating_sub(1),
            self.evaluations,
            self.stop
        )
    }
}

/// Checkpoint/resume plumbing of the greedy loop (see [`crate::session`]
/// for the on-disk format). `replay` re-applies the accepted moves of a
/// prior run deterministically — `AdaptiveConfig::apply` transitions plus
/// one reduction per move — before the greedy loop continues, so a resumed
/// run converges to exactly the configuration an uninterrupted run reaches.
/// `on_accept` fires after the initial reduction and after every accepted
/// move with the trace so far; a checkpoint writer hangs off it.
#[derive(Default)]
pub struct AdaptiveHooks<'a> {
    /// Accepted moves of a prior run, each with the gain-per-column it had
    /// earned (restored verbatim into the replayed trace).
    pub replay: &'a [(AdaptiveMove, f64)],
    /// Probe evaluations the prior run had spent (restored into the trace —
    /// replayed moves cost one evaluation each on top of this).
    pub resume_evaluations: usize,
    /// Accepted-move callback (initial reduction included).
    pub on_accept: Option<&'a dyn Fn(&AdaptiveTrace)>,
}

impl std::fmt::Debug for AdaptiveHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveHooks")
            .field("replay", &self.replay.len())
            .field("resume_evaluations", &self.resume_evaluations)
            .field("on_accept", &self.on_accept.is_some())
            .finish()
    }
}

/// A reduced model together with the trace that produced it.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome<R> {
    /// The best ROM found (lowest band residual seen).
    pub rom: R,
    /// The search record.
    pub trace: AdaptiveTrace,
}

/// The greedy driver (see the module docs). Wraps [`AssocReducer`] /
/// [`NormReducer`] behind an [`AdaptiveSpec`] — band plus tolerance — and
/// grows the configuration until the band residual saturates or a budget is
/// hit.
///
/// A probe pays only for what its move changes. Every probe reduces against
/// the run's one stamp, and an associated-transform run also holds the
/// moment chains its probes built, keyed by chain and depth (no other knob
/// changes a chain over a fixed stamp): a probe builds only the chains its
/// move deepened, each `(chain, depth)` is built once per run
/// ([`AdaptiveTrace::chain_builds`]), and after each accepted move the run
/// drops the chains no later probe can read. The memoized chains replay
/// their own diagnostics, so every ROM is bit-identical to a fresh
/// [`AssocReducer`] run of its configuration. The NORM baseline's chains
/// are rebuilt per probe.
///
/// ```
/// use vamor_circuits::TransmissionLine;
/// use vamor_core::{AdaptiveReducer, AdaptiveSpec, FrequencyBand};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let line = TransmissionLine::current_driven(24)?;
/// let spec = AdaptiveSpec::new(FrequencyBand::new(0.1, 4.0)?, 1e-4);
/// let outcome = AdaptiveReducer::new(spec).reduce(line.qldae())?;
/// assert!(outcome.rom.order() < 24);
/// assert!(outcome.trace.final_residual() <= outcome.trace.initial_residual());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveReducer {
    spec: AdaptiveSpec,
    kind: ReducerKind,
    engine: ReductionEngine,
    backend: SolverBackend,
    lowrank_opts: LowRankOptions,
}

impl AdaptiveReducer {
    /// Creates a driver for the given band/tolerance spec (associated
    /// reducer, automatic engine and backend).
    pub fn new(spec: AdaptiveSpec) -> Self {
        AdaptiveReducer {
            spec,
            kind: ReducerKind::Assoc,
            engine: ReductionEngine::Auto,
            backend: SolverBackend::Auto,
            lowrank_opts: LowRankOptions::default(),
        }
    }

    /// Selects the wrapped reducer family.
    pub fn with_baseline(mut self, kind: ReducerKind) -> Self {
        self.kind = kind;
        self
    }

    /// Selects the reduction engine (see [`AssocReducer::with_engine`]).
    pub fn with_engine(mut self, engine: ReductionEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the linear-solver backend (see
    /// [`AssocReducer::with_solver_backend`]).
    pub fn with_solver_backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the low-rank engine knobs.
    pub fn with_lowrank_options(mut self, opts: LowRankOptions) -> Self {
        self.lowrank_opts = opts;
        self
    }

    /// The driver's spec.
    pub fn spec(&self) -> AdaptiveSpec {
        self.spec
    }

    /// Adaptively reduces a polynomial system (see the module docs). The
    /// initial spec and the legal moves follow the system's terms: `H₂`
    /// moves only with a quadratic part, `H₃` moves with a quadratic or a
    /// cubic part, and no output-Krylov move for a system with a `G₃`.
    ///
    /// # Errors
    ///
    /// Returns an error when even the initial minimal reduction fails, or
    /// the band estimator hits a singular resolvent, and
    /// [`MorError::Invalid`] for the NORM baseline on a system with a `G₃`
    /// ([`NormReducer`] has no cubic path).
    pub fn reduce(&self, qldae: &Qldae) -> Result<AdaptiveOutcome<ReducedQldae>> {
        self.reduce_controlled(qldae, &RunControl::new())
    }

    /// [`AdaptiveReducer::reduce`] under a [`RunControl`] token.
    ///
    /// Cancellation/deadline semantics are *best-so-far*, never an error
    /// once a first ROM exists: the token is checked before the estimator's
    /// full-model solves (`band-sample`), before every moment chain inside
    /// the wrapped reducers, and at the head of every greedy iteration
    /// (`adaptive-move`). A stop during the estimator build or the initial
    /// reduction — before any ROM exists — returns the typed
    /// [`LinalgError::Interrupted`] error; any later stop returns
    /// `Ok` with the best ROM seen and
    /// [`StopReason::Cancelled`]/[`StopReason::DeadlineExceeded`] in the
    /// trace.
    ///
    /// # Errors
    ///
    /// Same contract as [`AdaptiveReducer::reduce`], plus
    /// [`LinalgError::Interrupted`] when the token stops the run before the
    /// first ROM is available.
    pub fn reduce_controlled(
        &self,
        qldae: &Qldae,
        control: &RunControl,
    ) -> Result<AdaptiveOutcome<ReducedQldae>> {
        self.reduce_with_hooks(qldae, control, &AdaptiveHooks::default())
    }

    /// [`AdaptiveReducer::reduce`] with checkpoint/resume hooks: the
    /// `replay` moves are re-applied deterministically before the greedy
    /// loop continues (counting against the iteration budget), and
    /// `on_accept` fires after every accepted move — see [`AdaptiveHooks`].
    ///
    /// # Errors
    ///
    /// Same contract as [`AdaptiveReducer::reduce_controlled`]; a replayed
    /// move whose reduction fails (a checkpoint from a different system or
    /// spec) surfaces the underlying error.
    pub fn reduce_with_hooks(
        &self,
        qldae: &Qldae,
        control: &RunControl,
        hooks: &AdaptiveHooks<'_>,
    ) -> Result<AdaptiveOutcome<ReducedQldae>> {
        let stamp = {
            let _span = vamor_obs::span!("stamp_build");
            SharedAssocArtifacts::new(qldae, self.stamp_config(qldae))?
        };
        self.reduce_on(qldae, &stamp, control, hooks)
    }

    /// The stamp configuration every probe of a run reads.
    pub(crate) fn stamp_config(&self, qldae: &Qldae) -> StampConfig {
        let n = qldae.g1_csr().rows();
        StampConfig::resolve(
            n,
            self.backend,
            self.engine.use_lowrank(n),
            self.lowrank_opts,
        )
    }

    /// One adaptive run over `stamp` (the run's own, or a session's): the
    /// band estimator samples through the stamp's resolvent cache and every
    /// probe reduces against the stamp's factorizations and energy weight.
    pub(crate) fn reduce_on(
        &self,
        qldae: &Qldae,
        stamp: &SharedAssocArtifacts,
        control: &RunControl,
        hooks: &AdaptiveHooks<'_>,
    ) -> Result<AdaptiveOutcome<ReducedQldae>> {
        let quadratic = qldae.has_quadratic();
        let cubic = qldae.g3().is_some();
        let sampler = BandSampler::build(
            qldae,
            self.spec.band,
            BandSamplerOptions::default(),
            stamp.sampler(qldae),
            control,
        )?;
        let initial = AdaptiveConfig {
            spec: MomentSpec::new(2, usize::from(quadratic), usize::from(quadratic || cubic)),
            markov: 0,
            output_krylov: 0,
            deflation_tol: vamor_linalg::OrthoBasis::DEFAULT_TOL,
            stabilized: true,
        };
        let legal = |mv: AdaptiveMove, cfg: &AdaptiveConfig| match mv {
            AdaptiveMove::Initial => false,
            AdaptiveMove::DeepenH1 => true,
            AdaptiveMove::DeepenH2 => quadratic,
            AdaptiveMove::DeepenH3 => quadratic || cubic,
            AdaptiveMove::AddMarkov => cfg.markov < MARKOV_CAP,
            AdaptiveMove::AddOutputKrylov => {
                // The two-sided mode needs the dense machinery, and it only
                // makes sense on an H₁-dominated band response: the dual
                // chains double the matched H₁ moments per column but the
                // ROM is restricted to their span, so on a
                // nonlinearity-dominated response the move is a dead end the
                // greedy search cannot leave. The mode has no cubic path.
                self.kind == ReducerKind::Assoc
                    && !cubic
                    && !stamp.config().lowrank
                    && sampler.h1_dominated()
            }
            AdaptiveMove::LoosenDeflation => cfg.deflation_tol < 1e-8,
            AdaptiveMove::TightenDeflation => cfg.deflation_tol > 1e-14,
            AdaptiveMove::ToggleStabilization => cfg.output_krylov == 0,
            AdaptiveMove::Boost => true,
        };
        // Every probe reduces against the run's one stamp and builds only
        // the moment chains no earlier probe of the run built.
        let memo = ChainMemo::default();
        let reduce = |cfg: &AdaptiveConfig| -> Result<ReducedQldae> {
            match self.kind {
                ReducerKind::Assoc => AssocReducer::new(cfg.spec)
                    .with_markov_moments(cfg.markov)
                    .with_output_krylov(cfg.output_krylov)
                    .with_deflation_tol(cfg.deflation_tol)
                    .with_stabilized_projection(cfg.stabilized)
                    .with_engine(self.engine)
                    .with_solver_backend(self.backend)
                    .with_lowrank_options(self.lowrank_opts)
                    .reduce_on(qldae, stamp, &memo, control),
                ReducerKind::Norm => NormReducer::new(cfg.spec)
                    .with_deflation_tol(cfg.deflation_tol)
                    .with_stabilized_projection(cfg.stabilized)
                    .with_engine(self.engine)
                    .with_solver_backend(self.backend)
                    .with_lowrank_options(self.lowrank_opts)
                    .reduce_on(qldae, stamp, control),
            }
        };
        // The NORM baseline has no Markov or output-Krylov knobs. `Boost`
        // stays legal: its Markov component is inert there, but the combined
        // chain deepening is exactly the plateau escape the fast-growing
        // multivariate expansion needs.
        let legal_norm = |mv: AdaptiveMove, cfg: &AdaptiveConfig| {
            legal(mv, cfg)
                && !(self.kind == ReducerKind::Norm
                    && matches!(mv, AdaptiveMove::AddMarkov | AdaptiveMove::AddOutputKrylov))
        };
        let mut out = self.run(
            initial,
            &legal_norm,
            &reduce,
            &sampler,
            &memo,
            control,
            hooks,
        )?;
        out.trace.chain_builds = memo.builds();
        out.trace.chain_reuses = memo.reuses();
        Ok(out)
    }

    /// Forwarding name of [`AdaptiveReducer::reduce`], which covers cubic
    /// systems.
    ///
    /// # Errors
    ///
    /// Same contract as [`AdaptiveReducer::reduce`].
    pub fn reduce_cubic(&self, qldae: &Qldae) -> Result<AdaptiveOutcome<ReducedQldae>> {
        self.reduce(qldae)
    }

    /// The greedy loop: estimate, probe every legal move, accept the best
    /// residual-decrease-per-added-column, stop on
    /// tolerance/saturation/budget. Returns the best ROM *seen* (which is
    /// the final one — moves are only accepted when they improve). After
    /// every accepted move `memo` drops the chains no later probe can read.
    #[allow(clippy::too_many_arguments)] // private loop with one call site; a config struct would just rename the arguments
    fn run(
        &self,
        initial: AdaptiveConfig,
        legal: &dyn Fn(AdaptiveMove, &AdaptiveConfig) -> bool,
        reduce: &dyn Fn(&AdaptiveConfig) -> Result<ReducedQldae>,
        sampler: &BandSampler,
        memo: &ChainMemo,
        control: &RunControl,
        hooks: &AdaptiveHooks<'_>,
    ) -> Result<AdaptiveOutcome<ReducedQldae>> {
        let _span = vamor_obs::span!("adaptive_reduce");
        let mut cfg = initial;
        let mut rom = reduce(&cfg)?;
        let mut res = sampler.residual_qldae(rom.system())?;
        let replay = hooks.replay;
        let mut trace = AdaptiveTrace {
            steps: vec![AdaptiveStep {
                mv: AdaptiveMove::Initial,
                config: cfg,
                order: rom.order(),
                residual: res,
                gain_per_column: 0.0,
            }],
            // A resumed run restores the prior run's probe count (the
            // replayed re-reductions are resume overhead, not new probes).
            evaluations: match hooks.resume_evaluations {
                0 => 1,
                prior => prior,
            },
            full_model_solves: sampler.full_solves(),
            chain_builds: 0,
            chain_reuses: 0,
            stop: StopReason::IterationBudget,
        };
        vamor_obs::event!(vamor_obs::Event::GreedyAccept {
            mv: AdaptiveMove::Initial.name(),
            order: rom.order() as u32,
            residual: res.max(),
            gain: 0.0,
        });
        let on_accept = hooks.on_accept;
        // Resume-by-replay: the accepted moves of the checkpointed run are
        // pure `apply` transitions plus one deterministic reduction each, so
        // the replayed state is exactly what the uninterrupted run held
        // after its last checkpoint. Replayed moves consume the iteration
        // budget like freshly accepted ones.
        // vamor: allow(checkpoint-coverage, reason = "each replayed move runs one reduce(), which checkpoints internally and surfaces Interrupted as a best-so-far return two lines below")
        for &(mv, gain) in replay {
            if mv == AdaptiveMove::Initial {
                continue;
            }
            cfg = cfg.apply(mv);
            memo.retain(cfg.spec);
            rom = match reduce(&cfg) {
                Ok(rom2) => rom2,
                Err(MorError::Linalg(LinalgError::Interrupted(cause))) => {
                    trace.stop = StopReason::from_cause(Some(cause));
                    return Ok(AdaptiveOutcome { rom, trace });
                }
                Err(e) => return Err(e),
            };
            res = sampler.residual_qldae(rom.system())?;
            trace.steps.push(AdaptiveStep {
                mv,
                config: cfg,
                order: rom.order(),
                residual: res,
                gain_per_column: gain,
            });
            vamor_obs::event!(vamor_obs::Event::GreedyAccept {
                mv: mv.name(),
                order: rom.order() as u32,
                residual: res.max(),
                gain,
            });
        }
        if let Some(f) = on_accept {
            f(&trace);
        }
        let remaining = self.spec.max_iterations.saturating_sub(
            replay
                .iter()
                .filter(|(m, _)| *m != AdaptiveMove::Initial)
                .count(),
        );
        for _ in 0..remaining {
            if res.max() <= self.spec.tol {
                trace.stop = StopReason::ToleranceReached;
                break;
            }
            // Preemption point of the greedy search: from here on a ROM
            // always exists, so a stop degrades to best-so-far instead of
            // erroring.
            if control.checkpoint_with("adaptive-move", res.max()).is_err() {
                trace.stop = StopReason::from_cause(control.stop_cause());
                return Ok(AdaptiveOutcome { rom, trace });
            }
            let order = rom.order();
            let mut best: Option<(
                AdaptiveMove,
                AdaptiveConfig,
                ReducedQldae,
                BandResidual,
                f64,
            )> = None;
            let mut saw_over_budget = false;
            let mut saw_valid_probe = false;
            for mv in ALL_MOVES {
                if !legal(mv, &cfg) {
                    continue;
                }
                let _probe = vamor_obs::span!("greedy_move_eval");
                let cfg2 = cfg.apply(mv);
                // A failing probe (e.g. every extra candidate deflated, or an
                // illegal engine combination) is simply not taken — but an
                // *interrupted* probe means the whole run was told to stop,
                // and the current `rom` is the best seen.
                let rom2 = match reduce(&cfg2) {
                    Ok(rom2) => rom2,
                    Err(MorError::Linalg(LinalgError::Interrupted(cause))) => {
                        trace.evaluations += 1;
                        vamor_obs::event!(vamor_obs::Event::GreedyProbe {
                            mv: mv.name(),
                            order: 0,
                            residual: f64::INFINITY,
                            gain: 0.0,
                            outcome: vamor_obs::event::ProbeOutcome::Interrupted,
                        });
                        trace.stop = StopReason::from_cause(Some(cause));
                        return Ok(AdaptiveOutcome { rom, trace });
                    }
                    Err(_) => {
                        trace.evaluations += 1;
                        vamor_obs::event!(vamor_obs::Event::GreedyProbe {
                            mv: mv.name(),
                            order: 0,
                            residual: f64::INFINITY,
                            gain: 0.0,
                            outcome: vamor_obs::event::ProbeOutcome::Failed,
                        });
                        continue;
                    }
                };
                trace.evaluations += 1;
                let order2 = rom2.order();
                if order2 > self.spec.max_order {
                    saw_over_budget = true;
                    vamor_obs::event!(vamor_obs::Event::GreedyProbe {
                        mv: mv.name(),
                        order: order2 as u32,
                        residual: f64::INFINITY,
                        gain: 0.0,
                        outcome: vamor_obs::event::ProbeOutcome::OverBudget,
                    });
                    continue;
                }
                // Hurwitz is enforced along the whole accepted path: a probe
                // whose reduced spectrum the guard could not clean (e.g. a
                // two-sided pairing collapsing to a marginal 1-dim ROM) is
                // never taken, however good its band residual looks.
                if !rom2.stats().is_stable() {
                    vamor_obs::event!(vamor_obs::Event::GreedyProbe {
                        mv: mv.name(),
                        order: order2 as u32,
                        residual: f64::INFINITY,
                        gain: 0.0,
                        outcome: vamor_obs::event::ProbeOutcome::Unstable,
                    });
                    continue;
                }
                saw_valid_probe = true;
                let res2 = sampler.residual_qldae(rom2.system())?;
                let added = order2.saturating_sub(order).max(1);
                let gain = (res.max() - res2.max()) / added as f64;
                vamor_obs::event!(vamor_obs::Event::GreedyProbe {
                    mv: mv.name(),
                    order: order2 as u32,
                    residual: res2.max(),
                    gain,
                    outcome: vamor_obs::event::ProbeOutcome::Viable,
                });
                let better = match &best {
                    None => true,
                    Some((_, _, _, best_res, best_gain)) => {
                        gain > *best_gain || (gain == *best_gain && res2.max() < best_res.max())
                    }
                };
                if better {
                    best = Some((mv, cfg2, rom2, res2, gain));
                }
            }
            let Some((mv, cfg2, rom2, res2, gain)) = best else {
                // Only blame the order budget when it actually pruned probes
                // and nothing else survived — failed reductions or unstable
                // probes are a saturation verdict, not a budget one.
                trace.stop = if saw_over_budget && !saw_valid_probe {
                    StopReason::OrderBudget
                } else {
                    StopReason::Saturated
                };
                break;
            };
            if res2.max() >= res.max() * (1.0 - self.spec.min_gain) {
                trace.stop = StopReason::Saturated;
                break;
            }
            cfg = cfg2;
            rom = rom2;
            res = res2;
            memo.retain(cfg.spec);
            trace.steps.push(AdaptiveStep {
                mv,
                config: cfg,
                order: rom.order(),
                residual: res,
                gain_per_column: gain,
            });
            vamor_obs::event!(vamor_obs::Event::GreedyAccept {
                mv: mv.name(),
                order: rom.order() as u32,
                residual: res.max(),
                gain,
            });
            // Greedy-move checkpoint: the accepted path so far is durable
            // before the next (expensive, killable) probe round starts.
            if let Some(f) = on_accept {
                f(&trace);
            }
        }
        if res.max() <= self.spec.tol {
            trace.stop = StopReason::ToleranceReached;
        }
        vamor_obs::counter("adaptive.runs").inc();
        vamor_obs::counter("adaptive.evaluations").add(trace.evaluations as u64);
        vamor_obs::counter("adaptive.chain_builds").add(memo.builds() as u64);
        vamor_obs::counter("adaptive.chain_reuses").add(memo.reuses() as u64);
        vamor_obs::counter("adaptive.moves_accepted")
            .add(trace.steps.len().saturating_sub(1) as u64);
        Ok(AdaptiveOutcome { rom, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::Chain;
    use std::collections::HashSet;
    use vamor_system::QldaeBuilder;

    fn chain_qldae(n: usize) -> Qldae {
        let mut b = QldaeBuilder::new(n, 1);
        for i in 0..n {
            b = b.g1_entry(i, i, -(1.0 + 0.15 * i as f64));
            if i + 1 < n {
                b = b.g1_entry(i, i + 1, 0.4).g1_entry(i + 1, i, 0.3);
            }
        }
        b = b
            .g2_entry(0, 0, 1, 0.3)
            .g2_entry(n - 1, 0, 0, -0.2)
            .g2_entry(1, 2, 2, 0.1);
        b.b_entry(0, 0, 1.0)
            .b_entry(2, 0, 0.4)
            .output_state(n - 1)
            .build()
            .unwrap()
    }

    #[test]
    fn band_validation_rejects_bad_edges() {
        assert!(FrequencyBand::new(1.0, 0.5).is_err());
        assert!(FrequencyBand::new(-1.0, 2.0).is_err());
        assert!(FrequencyBand::new(0.0, f64::NAN).is_err());
        let band = FrequencyBand::new(0.01, 10.0).unwrap();
        let grid = band.grid(9);
        assert_eq!(grid.len(), 9);
        assert!((grid[0] - 0.01).abs() < 1e-12);
        assert!((grid[8] - 10.0).abs() < 1e-9);
        assert!(grid.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn a_faithful_rom_has_a_small_band_residual_and_a_poor_one_does_not() {
        let q = chain_qldae(16);
        let band = FrequencyBand::new(0.05, 2.0).unwrap();
        let sampler =
            BandSampler::for_qldae(&q, band, SolverBackend::Auto, BandSamplerOptions::default())
                .unwrap();
        let good = AssocReducer::new(MomentSpec::new(6, 3, 2))
            .with_markov_moments(2)
            .reduce(&q)
            .unwrap();
        let poor = AssocReducer::new(MomentSpec::new(1, 0, 0))
            .reduce(&q)
            .unwrap();
        let res_good = sampler.residual_qldae(good.system()).unwrap();
        let res_poor = sampler.residual_qldae(poor.system()).unwrap();
        assert!(
            res_good.max() < 1e-3,
            "faithful ROM residual {:.3e}",
            res_good.max()
        );
        assert!(res_poor.max() > 10.0 * res_good.max());
        assert!(res_poor.worst_frequency >= band.omega_min);
        assert!(res_poor.worst_frequency <= band.omega_max);
    }

    #[test]
    fn greedy_driver_descends_the_band_residual() {
        let q = chain_qldae(20);
        let spec = AdaptiveSpec::new(FrequencyBand::new(0.05, 2.0).unwrap(), 1e-6);
        let outcome = AdaptiveReducer::new(spec).reduce(&q).unwrap();
        let trace = &outcome.trace;
        assert!(trace.steps.len() > 1, "no moves accepted");
        // Residuals are strictly decreasing along accepted steps.
        for w in trace.steps.windows(2) {
            assert!(
                w[1].residual.max() < w[0].residual.max(),
                "accepted move did not improve: {:.3e} -> {:.3e}",
                w[0].residual.max(),
                w[1].residual.max()
            );
        }
        assert!(trace.final_residual() < trace.initial_residual() / 10.0);
        assert!(outcome.rom.stats().is_stable());
        assert!(trace.evaluations >= trace.steps.len());
    }

    /// The issue's property test: no greedy move ever *decreases* the
    /// requested moment budget — the matched-moment count deficit is
    /// non-increasing along the accepted path.
    #[test]
    fn greedy_moves_never_shrink_the_requested_moment_budget() {
        for n in [12usize, 18, 24] {
            let q = chain_qldae(n);
            let spec = AdaptiveSpec::new(FrequencyBand::new(0.1, 3.0).unwrap(), 1e-8)
                .with_max_iterations(10);
            let outcome = AdaptiveReducer::new(spec).reduce(&q).unwrap();
            for w in outcome.trace.steps.windows(2) {
                let before = w[0].config;
                let after = w[1].config;
                assert!(
                    after.requested_candidates() >= before.requested_candidates(),
                    "move {:?} shrank the budget: {} -> {}",
                    w[1].mv,
                    before.requested_candidates(),
                    after.requested_candidates()
                );
                assert!(after.spec.k1 >= before.spec.k1);
                assert!(after.spec.k2 >= before.spec.k2);
                assert!(after.spec.k3 >= before.spec.k3);
                assert!(after.markov >= before.markov);
                assert!(after.output_krylov >= before.output_krylov);
            }
        }
    }

    #[test]
    fn order_budget_is_respected() {
        let q = chain_qldae(24);
        let spec = AdaptiveSpec::new(FrequencyBand::new(0.05, 2.0).unwrap(), 1e-12)
            .with_max_order(6)
            .with_max_iterations(12);
        let outcome = AdaptiveReducer::new(spec).reduce(&q).unwrap();
        assert!(outcome.rom.order() <= 6);
        for step in &outcome.trace.steps {
            assert!(step.order <= 6);
        }
    }

    #[test]
    fn norm_baseline_driver_works_and_skips_assoc_only_moves() {
        let q = chain_qldae(16);
        let spec =
            AdaptiveSpec::new(FrequencyBand::new(0.1, 2.0).unwrap(), 1e-5).with_max_iterations(6);
        let outcome = AdaptiveReducer::new(spec)
            .with_baseline(ReducerKind::Norm)
            .reduce(&q)
            .unwrap();
        assert!(outcome.trace.final_residual() <= outcome.trace.initial_residual());
        for step in &outcome.trace.steps {
            assert_eq!(step.config.markov, 0);
            assert_eq!(step.config.output_krylov, 0);
        }
    }

    #[test]
    fn cubic_driver_rejects_norm_and_reduces_with_assoc() {
        use vamor_linalg::CooMatrix;
        let n = 12;
        let mut builder = QldaeBuilder::new(n, 1);
        for i in 0..n {
            builder = builder.g1_entry(i, i, -(1.0 + 0.2 * i as f64)).b_entry(
                i,
                0,
                if i == 0 { 1.0 } else { 0.1 },
            );
            if i + 1 < n {
                builder = builder.g1_entry(i, i + 1, 0.3).g1_entry(i + 1, i, 0.2);
            }
        }
        let mut g3 = CooMatrix::new(n, n * n * n);
        g3.push(0, 0, 0.4);
        g3.push(1, n * n + n + 1, -0.2);
        let ode = builder
            .output_state(n - 1)
            .build()
            .unwrap()
            .with_g3(g3.to_csr())
            .unwrap();
        let spec =
            AdaptiveSpec::new(FrequencyBand::new(0.1, 2.0).unwrap(), 1e-6).with_max_iterations(8);
        assert!(AdaptiveReducer::new(spec)
            .with_baseline(ReducerKind::Norm)
            .reduce(&ode)
            .is_err());
        // The NORM baseline itself refuses a G₃ instead of projecting
        // without it.
        let norm = NormReducer::new(MomentSpec::new(2, 0, 1));
        assert!(matches!(norm.reduce(&ode), Err(MorError::Invalid(_))));
        assert!(matches!(
            norm.reduce_controlled(&ode, &RunControl::new()),
            Err(MorError::Invalid(_))
        ));
        // So does the two-sided mode, which has no cubic path either.
        assert!(matches!(
            AssocReducer::new(MomentSpec::new(2, 0, 1))
                .with_output_krylov(1)
                .reduce(&ode),
            Err(MorError::Invalid(_))
        ));
        let outcome = AdaptiveReducer::new(spec).reduce(&ode).unwrap();
        assert!(outcome.rom.order() < n);
        assert!(outcome.rom.system().g3().is_some());
        assert!(outcome.trace.final_residual() <= outcome.trace.initial_residual());
        for step in &outcome.trace.steps {
            assert_eq!(step.config.spec.k2, 0);
            assert_eq!(step.config.output_krylov, 0);
        }
    }

    #[test]
    fn zero_deadline_interrupts_before_the_first_rom_with_a_typed_error() {
        let q = chain_qldae(16);
        let spec = AdaptiveSpec::new(FrequencyBand::new(0.05, 2.0).unwrap(), 1e-6);
        let control = RunControl::new().with_deadline(std::time::Duration::ZERO);
        let err = AdaptiveReducer::new(spec)
            .reduce_controlled(&q, &control)
            .unwrap_err();
        assert!(
            matches!(
                err,
                MorError::Linalg(LinalgError::Interrupted(StopCause::DeadlineExceeded))
            ),
            "expected a typed deadline interrupt, got {err}"
        );
    }

    /// The issue's cancellation property test: cancelling the token at an
    /// arbitrary checkpoint yields either the typed interrupt (stop landed
    /// before the first ROM existed) or a best-so-far outcome whose ROM is
    /// Hurwitz and whose trace says [`StopReason::Cancelled`] — never a
    /// panic, never a silent non-finite result.
    #[test]
    fn cancelling_at_any_checkpoint_yields_best_so_far_or_a_typed_error() {
        let q = chain_qldae(18);
        let spec =
            AdaptiveSpec::new(FrequencyBand::new(0.05, 2.0).unwrap(), 1e-9).with_max_iterations(8);
        // Deterministic pseudo-random cancellation points spanning "inside
        // the sampler build" through "deep in the greedy search".
        for cancel_at in [1usize, 3, 7, 19, 41, 97, 211, 463] {
            let control = RunControl::new();
            let handle = control.clone();
            let probe = control.clone();
            let control = control.with_progress(move |event| {
                if event.sequence >= cancel_at {
                    handle.cancel();
                }
            });
            match AdaptiveReducer::new(spec).reduce_controlled(&q, &control) {
                Ok(outcome) => {
                    // A cancellation point past the run's total checkpoint
                    // count never fires — the search is allowed to finish
                    // for its own reasons then.
                    if probe.is_cancelled() {
                        assert_eq!(
                            outcome.trace.stop,
                            StopReason::Cancelled,
                            "cancel_at={cancel_at}"
                        );
                    }
                    assert!(
                        outcome.rom.stats().is_stable(),
                        "best-so-far ROM not Hurwitz at cancel_at={cancel_at}"
                    );
                    assert!(outcome.trace.final_residual().is_finite());
                }
                Err(MorError::Linalg(LinalgError::Interrupted(StopCause::Cancelled))) => {}
                Err(other) => panic!("unexpected error at cancel_at={cancel_at}: {other}"),
            }
        }
    }

    #[test]
    fn cancelling_after_the_initial_rom_returns_it_with_a_cancelled_stop() {
        let q = chain_qldae(18);
        let spec =
            AdaptiveSpec::new(FrequencyBand::new(0.05, 2.0).unwrap(), 1e-9).with_max_iterations(8);
        let control = RunControl::new();
        let handle = control.clone();
        // Cancel the moment the greedy loop announces its first move — the
        // initial reduction and residual are already in hand then.
        let control = control.with_progress(move |event| {
            if event.stage == "adaptive-move" {
                handle.cancel();
            }
        });
        let outcome = AdaptiveReducer::new(spec)
            .reduce_controlled(&q, &control)
            .unwrap();
        assert_eq!(outcome.trace.stop, StopReason::Cancelled);
        assert_eq!(outcome.trace.steps.len(), 1, "no move can have been taken");
        assert!(outcome.rom.stats().is_stable());
        let uncancelled = AdaptiveReducer::new(spec).reduce(&q).unwrap();
        assert!(
            outcome.trace.final_residual() >= uncancelled.trace.final_residual(),
            "the full run must do at least as well as the preempted one"
        );
    }

    /// The distinct `(chain, depth)` keys a finished run's reductions asked
    /// for: the initial configuration's, and every move's from each round
    /// the run probed. Only the depth moves change a key, and a move of an
    /// order the system lacks plans no chain of that order.
    fn visited_chain_keys(q: &Qldae, trace: &AdaptiveTrace) -> HashSet<(Chain, usize)> {
        let keys = |cfg: AdaptiveConfig| {
            Chain::plan(q, cfg.spec)
                .into_iter()
                .map(move |chain| (chain, chain.depth(cfg.spec)))
        };
        // A run that stopped at the head of a round (tolerance reached or
        // iterations spent) did not probe from its last accepted step.
        let probed_last = matches!(trace.stop, StopReason::Saturated | StopReason::OrderBudget);
        let rounds = trace.steps.len() - usize::from(!probed_last);
        let mut visited: HashSet<_> = keys(trace.steps[0].config).collect();
        for step in &trace.steps[..rounds] {
            for mv in ALL_MOVES {
                visited.extend(keys(step.config.apply(mv)));
            }
        }
        visited
    }

    /// Runs the driver on `engine`, then rebuilds its final configuration
    /// with a plain reducer on a fresh stamp: the memoized chains must give
    /// the same ROM bit for bit, and every chain the run visited must have
    /// been built exactly once.
    fn assert_memoized_run_matches_a_fresh_reduction(
        q: &Qldae,
        spec: AdaptiveSpec,
        engine: ReductionEngine,
    ) {
        let outcome = AdaptiveReducer::new(spec)
            .with_engine(engine)
            .reduce(q)
            .unwrap();
        let trace = &outcome.trace;
        assert!(trace.steps.len() > 1, "the run must accept a move");
        assert_eq!(
            trace.chain_builds,
            visited_chain_keys(q, trace).len(),
            "each visited (chain, depth) is built exactly once"
        );
        assert!(trace.chain_reuses > 0);

        let cfg = trace.steps[trace.steps.len() - 1].config;
        let fresh = AssocReducer::new(cfg.spec)
            .with_markov_moments(cfg.markov)
            .with_output_krylov(cfg.output_krylov)
            .with_deflation_tol(cfg.deflation_tol)
            .with_stabilized_projection(cfg.stabilized)
            .with_engine(engine)
            .reduce(q)
            .unwrap();
        let bits = |m: &vamor_linalg::Matrix| -> Vec<u64> {
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        let rom = &outcome.rom;
        assert_eq!(bits(rom.projection()), bits(fresh.projection()));
        assert_eq!(bits(rom.system().g1()), bits(fresh.system().g1()));
        let (ours, theirs) = (rom.stats(), fresh.stats());
        assert_eq!(ours.lowrank_engine, engine == ReductionEngine::LowRank);
        assert_eq!(ours.adi_iterations, theirs.adi_iterations);
        assert_eq!(ours.chain_basis_dim, theirs.chain_basis_dim);
        assert_eq!(ours.degradation, theirs.degradation);
    }

    #[test]
    fn memoized_chains_give_a_fresh_reductions_rom_on_the_dense_engine() {
        let q = chain_qldae(20);
        let spec =
            AdaptiveSpec::new(FrequencyBand::new(0.05, 2.0).unwrap(), 1e-9).with_max_iterations(4);
        assert_memoized_run_matches_a_fresh_reduction(&q, spec, ReductionEngine::DenseSchur);
    }

    #[test]
    fn memoized_chains_give_a_fresh_reductions_rom_on_the_lowrank_engine() {
        let circuit = vamor_circuits::VaristorCircuit::new(16).unwrap();
        let spec =
            AdaptiveSpec::new(FrequencyBand::new(0.02, 4.0).unwrap(), 1e-9).with_max_iterations(3);
        assert_memoized_run_matches_a_fresh_reduction(
            circuit.qldae(),
            spec,
            ReductionEngine::LowRank,
        );
    }
}
