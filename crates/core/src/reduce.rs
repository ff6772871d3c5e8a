//! The reduction engines: the proposed associated-transform reducer and the
//! shared reduced-model containers.
//!
//! # The stabilized projection pipeline
//!
//! At paper sizes (the 100-stage line of Fig. 2, the 173-state receiver of
//! Fig. 4) the naive one-sided Galerkin projection of the seed went unstable
//! in transient. [`AssocReducer`] now runs a three-stage stabilization
//! pipeline (only the energy inner product can be switched off):
//!
//! 1. **Moment scaling** — the `H₁`/`H₂`/`H₃` chains are generated by the
//!    `*_moments_scaled` variants of [`crate::AssocMomentGenerator`]: every
//!    candidate reaches the orthonormalization at unit norm, the geometric
//!    norm growth of the chains is split off into `log10` bookkeeping
//!    ([`ReductionStats::moment_log10_peak`]), and overflowed late-chain
//!    candidates deflate instead of aborting the reduction.
//! 2. **Energy inner product + final re-orthogonalization** — with
//!    [`AssocReducer::with_stabilized_projection`] (the default), candidates
//!    are orthonormalized in the inner product `⟨u,v⟩_M` induced by the
//!    Lyapunov weight `Gᵀ₁M + MG₁ = −I` and projected obliquely with
//!    `W = MV`, which makes the reduced `G₁ᵣ` *provably* Hurwitz whenever the
//!    full `G₁` is (see [`vamor_linalg::lyapunov_weight`]). The accumulated
//!    basis is then re-factored with a column-pivoted QR and columns whose
//!    pivot falls below `1 /` [`AssocReducer::DEFAULT_QR_CONDITION_CAP`] of
//!    the leading one are dropped, so the working frame is orthonormal to
//!    machine precision even when incremental Gram–Schmidt drifted.
//! 3. **Spectral guard with restart** — after projection the reduced `G₁ᵣ`
//!    spectrum is checked ([`ReductionStats::spectral_abscissa`]); if it is
//!    not Hurwitz while the full `G₁` is, candidates are dropped one at a
//!    time and the projection rebuilt until stability is restored
//!    ([`ReductionStats::restarts`]): the trailing-most candidate whose
//!    removal restores it, else the one whose removal moves the abscissa
//!    furthest left. With the energy inner product active
//!    this is a pure backstop; it is what rescues the plain-Galerkin mode.
//!
//! Optionally the basis is enriched with a few *Markov* vectors
//! (`B, G₁B, …`, [`AssocReducer::with_markov_moments`]) which pin the
//! early-time/high-frequency response that moment matching about `s = 0`
//! leaves free — this is what removes the broadband "leak" the paper-size
//! Fig. 2 ROM exhibited at its input frequency.
//!
//! # One pipeline, two stages
//!
//! Every reduction — with or without a cubic term, dense and low-rank
//! engine, and the NORM baseline — runs the same two stages and differs only
//! in how it generates candidates. **Collect** enriches with Markov vectors,
//! fans the chain plan out over the worker threads and inserts the chains
//! into the basis in plan order. **Finish** settles the basis (deflation record,
//! pivoted QR), applies the energy weight where the engine defers it, runs
//! the spectral guard, projects, and publishes [`ReductionStats`]. The
//! engine split lives in one private frame type: the dense engine weights
//! candidates with the Cholesky factor of its Schur Lyapunov weight before
//! insertion; the low-rank engine accumulates Euclidean candidates and
//! applies its LR-ADI factored weight after re-orthogonalization.
//! Both stages read every factorization, the energy weight included, off
//! one stamp ([`SharedAssocArtifacts`]): a private one for
//! [`AssocReducer::reduce`], a whole greedy run's, or a session's.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use vamor_linalg::{
    eigenvalues, CholeskyDecomposition, Eigenvalues, Matrix, OrthoBasis, PivotRecovery, PivotedQr,
    RunControl, SolverBackend, Vector,
};
use vamor_system::Qldae;

use crate::assoc::{AssocMomentGenerator, ScaledMoments};
use crate::error::MorError;
use crate::lowrank::{
    csr_matmul, lowrank_vw, LowRankAssocMomentGenerator, LowRankDiagnostics, LowRankOptions,
    ReductionEngine,
};
use crate::project::project_qldae_petrov;
use crate::stamp::{EnergyWeight, SharedAssocArtifacts, StampConfig};
use crate::Result;

/// How many moments of each Volterra order the reduced model must match.
///
/// `k1`, `k2`, `k3` are the moment counts for the first-, second- and
/// third-order (associated) transfer functions; the paper's transmission-line
/// experiment uses `MomentSpec::new(6, 3, 2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MomentSpec {
    /// Moments of `H₁(s)`.
    pub k1: usize,
    /// Moments of the associated `H₂(s)`.
    pub k2: usize,
    /// Moments of the associated `H₃(s)`.
    pub k3: usize,
}

impl MomentSpec {
    /// Creates a moment specification.
    pub fn new(k1: usize, k2: usize, k3: usize) -> Self {
        MomentSpec { k1, k2, k3 }
    }

    /// The specification used in the paper's §3.1/3.2 experiments
    /// (6 / 3 / 2 moments of `H₁` / `H₂` / `H₃`).
    pub fn paper_default() -> Self {
        MomentSpec {
            k1: 6,
            k2: 3,
            k3: 2,
        }
    }

    /// Total number of requested moments (upper bound on the projection size
    /// per input for the associated-transform method).
    pub fn total(&self) -> usize {
        self.k1 + self.k2 + self.k3
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.total() == 0 {
            return Err(MorError::Invalid(
                "at least one moment must be requested".into(),
            ));
        }
        Ok(())
    }
}

/// What the degradation ladders did during one reduction run: every silent
/// recovery the engines took instead of erroring out is counted here, so a
/// result that needed rescue is distinguishable from a healthy one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Pivot-threshold escalations the sparse LU took on near-singular
    /// pivots in the factorizations of the stamp the run read, both through
    /// `LuFactor::build_with_recovery`: `LU(G₁)`, and on a two-sided run
    /// `LU(G₁ᵀ)`. The stamp factors each once, and every ROM over it
    /// counts what its ladder did.
    pub pivot_escalations: usize,
    /// Sparse factorizations abandoned for the dense backend after the
    /// escalation ladder was exhausted.
    pub dense_fallbacks: usize,
    /// ADI stall-ladder shift perturbation/reselection rounds (low-rank
    /// engine only).
    pub adi_shift_reselections: usize,
    /// ADI solves that finished above their residual target (the chains
    /// still complete; the energy weight degrades to plain Galerkin).
    pub adi_nonconverged: usize,
}

impl DegradationReport {
    /// True when any recovery action was taken.
    pub fn any(&self) -> bool {
        self.pivot_escalations > 0
            || self.dense_fallbacks > 0
            || self.adi_shift_reselections > 0
            || self.adi_nonconverged > 0
    }

    pub(crate) fn absorb_pivot(&mut self, recovery: PivotRecovery) {
        self.pivot_escalations += recovery.escalations;
        self.dense_fallbacks += usize::from(recovery.dense_fallback);
    }
}

/// Size and health statistics of a reduction run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReductionStats {
    /// Candidate vectors generated from first-order moments.
    pub h1_candidates: usize,
    /// Candidate vectors generated from second-order moments.
    pub h2_candidates: usize,
    /// Candidate vectors generated from third-order moments.
    pub h3_candidates: usize,
    /// Markov (high-frequency) enrichment vectors `B, G₁B, …`.
    pub markov_candidates: usize,
    /// True when the energy (Lyapunov-weighted) inner product was actually
    /// in effect — `false` either because the stabilized projection was
    /// disabled, or because it was requested but the weight could not be
    /// built (non-Hurwitz `G₁`: the run degraded to plain Galerkin and only
    /// the spectral guard protects stability).
    pub energy_weighted: bool,
    /// Candidates rejected as numerically dependent (includes the non-finite
    /// ones).
    pub deflated: usize,
    /// Candidates rejected because they overflowed to non-finite values.
    pub nonfinite_deflated: usize,
    /// Columns dropped by the final pivoted-QR re-orthogonalization.
    pub qr_dropped: usize,
    /// Basis columns dropped by the spectral guard before the reduced `G₁ᵣ`
    /// became Hurwitz (0 when the first projection was already stable).
    pub restarts: usize,
    /// Largest `log10` candidate magnitude discarded by the per-chain moment
    /// scaling (0 when no chain grew beyond unit scale).
    pub moment_log10_peak: f64,
    /// Spectral abscissa (largest real part) of the reduced `G₁ᵣ`, as the
    /// spectral guard last computed it.
    pub spectral_abscissa: f64,
    /// Final projection dimension (reduced order).
    pub projection_dim: usize,
    /// True when the run went through the low-rank (rational-Krylov + ADI)
    /// engine instead of the dense Schur machinery.
    pub lowrank_engine: bool,
    /// Total ADI sweeps of the low-rank engine (weight + `H₃` top blocks);
    /// 0 on the dense engine.
    pub adi_iterations: usize,
    /// Relative residual of the LR-ADI energy-weight solve (`NaN` when no
    /// weight was built).
    pub adi_residual: f64,
    /// Largest rational-Krylov chain-basis dimension of the low-rank engine.
    pub chain_basis_dim: usize,
    /// Output (dual) Krylov candidates generated for the two-sided
    /// Petrov–Galerkin test basis (0 in one-sided modes).
    pub output_candidates: usize,
    /// Every recovery the degradation ladders took during the run
    /// (`DegradationReport::default()` = nothing needed rescue).
    pub degradation: DegradationReport,
}

impl Default for ReductionStats {
    fn default() -> Self {
        ReductionStats {
            h1_candidates: 0,
            h2_candidates: 0,
            h3_candidates: 0,
            markov_candidates: 0,
            energy_weighted: false,
            deflated: 0,
            nonfinite_deflated: 0,
            qr_dropped: 0,
            restarts: 0,
            moment_log10_peak: 0.0,
            spectral_abscissa: f64::NAN,
            projection_dim: 0,
            lowrank_engine: false,
            adi_iterations: 0,
            adi_residual: f64::NAN,
            chain_basis_dim: 0,
            output_candidates: 0,
            degradation: DegradationReport::default(),
        }
    }
}

impl ReductionStats {
    /// Total number of candidate vectors generated.
    pub fn total_candidates(&self) -> usize {
        self.h1_candidates + self.h2_candidates + self.h3_candidates + self.markov_candidates
    }

    /// True when the reduced `G₁ᵣ` was verified Hurwitz by the spectral
    /// guard.
    pub fn is_stable(&self) -> bool {
        self.spectral_abscissa < 0.0
    }

    /// Publishes the run into the process-wide metrics registry (`reduce.*`
    /// counters and gauges), called once per completed reduction — the
    /// registry face of this struct for `MetricsSnapshot` consumers.
    pub fn publish(&self) {
        vamor_obs::counter("reduce.runs").inc();
        vamor_obs::counter("reduce.candidates").add(self.total_candidates() as u64);
        vamor_obs::counter("reduce.deflated").add(self.deflated as u64);
        vamor_obs::counter("reduce.qr_dropped").add(self.qr_dropped as u64);
        vamor_obs::counter("reduce.restarts").add(self.restarts as u64);
        vamor_obs::counter("reduce.adi_iterations").add(self.adi_iterations as u64);
        vamor_obs::gauge("reduce.projection_dim").set(self.projection_dim as f64);
        vamor_obs::gauge("reduce.spectral_abscissa").set(self.spectral_abscissa);
        vamor_obs::gauge("reduce.moment_log10_peak").set(self.moment_log10_peak);
    }

    /// Folds the low-rank chain generator's ADI cost and recoveries in.
    fn absorb_chain_diagnostics(&mut self, diag: LowRankDiagnostics) {
        self.adi_iterations += diag.adi_iterations;
        self.chain_basis_dim = diag.chain_basis_dim;
        self.degradation.adi_shift_reselections += diag.adi_shift_reselections;
        self.degradation.adi_nonconverged += diag.adi_nonconverged;
    }
}

/// A reduced polynomial system together with its projection basis and
/// statistics.
#[derive(Debug, Clone)]
pub struct ReducedQldae {
    system: Qldae,
    projection: Matrix,
    stats: ReductionStats,
}

impl ReducedQldae {
    /// The reduced-order system.
    pub fn system(&self) -> &Qldae {
        &self.system
    }

    /// The projection basis `V` (`n × q`). In the stabilized flow the columns
    /// are orthonormal in the *energy* inner product of the full system, not
    /// the Euclidean one; the spanned subspace is what carries the moment
    /// matching.
    pub fn projection(&self) -> &Matrix {
        &self.projection
    }

    /// Reduction statistics.
    pub fn stats(&self) -> &ReductionStats {
        &self.stats
    }

    /// Order of the reduced model.
    pub fn order(&self) -> usize {
        self.projection.cols()
    }

    /// Lifts a reduced state back to the full space: `x ≈ V x_r`.
    #[cfg(test)]
    fn lift(&self, xr: &vamor_linalg::Vector) -> vamor_linalg::Vector {
        self.projection.matvec(xr)
    }
}

/// Forwarding name of [`ReducedQldae`], which covers cubic systems.
pub type ReducedCubicOde = ReducedQldae;

/// One independent moment chain of a reduction run (the unit of work
/// distributed over the scoped worker threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Chain {
    H1 { input: usize },
    H2 { a: usize, b: usize },
    H3 { input: usize },
}

impl Chain {
    /// The number of moments `spec` asks of this chain.
    pub(crate) fn depth(self, spec: MomentSpec) -> usize {
        match self {
            Chain::H1 { .. } => spec.k1,
            Chain::H2 { .. } => spec.k2,
            Chain::H3 { .. } => spec.k3,
        }
    }

    /// The chains of one run in basis-insertion order: every `H₁` chain,
    /// then the `H₂` input pairs `a ≤ b`, then every `H₃` chain. `H₂` runs
    /// only when the system has a quadratic part (a nonzero `G₂` or a `D₁`),
    /// `H₃` when it has a quadratic or a cubic part.
    pub(crate) fn plan(qldae: &Qldae, spec: MomentSpec) -> Vec<Chain> {
        let num_inputs = qldae.b().cols();
        let quadratic = qldae.has_quadratic();
        let h1 = (0..num_inputs).map(|input| Chain::H1 { input });
        let h2 = (0..num_inputs)
            .filter(|_| spec.k2 > 0 && quadratic)
            .flat_map(|a| (a..num_inputs).map(move |b| Chain::H2 { a, b }));
        let h3 = (0..num_inputs)
            .filter(|_| spec.k3 > 0 && (quadratic || qldae.g3().is_some()))
            .map(|input| Chain::H3 { input });
        h1.chain(h2).chain(h3).collect()
    }
}

/// A built moment chain: its scaled moments and the low-rank ADI/basis
/// diagnostics its build recorded (empty on the dense engine).
#[derive(Debug, Clone)]
struct BuiltChain {
    moments: ScaledMoments,
    diagnostics: LowRankDiagnostics,
}

/// The moment chains already built over one stamp, keyed by chain and
/// depth. Nothing else a reducer is configured with changes a chain over a
/// fixed stamp, so a greedy run holds one memo and every probe builds only
/// the chains its move changed; a plain reduction passes a fresh one. Only
/// chains that finished with finite candidates are held: an interrupted or
/// faulted chain is built again by the next reduction that asks for it.
#[derive(Debug, Default)]
pub(crate) struct ChainMemo {
    chains: RefCell<HashMap<(Chain, usize), BuiltChain>>,
    builds: Cell<usize>,
    reuses: Cell<usize>,
}

impl ChainMemo {
    /// Chains built through this memo.
    pub(crate) fn builds(&self) -> usize {
        self.builds.get()
    }

    /// Chain requests answered from this memo without a build.
    pub(crate) fn reuses(&self) -> usize {
        self.reuses.get()
    }

    /// Drops every chain shallower than `spec` asks for. A greedy move
    /// never lowers a depth, so once a run holds `spec` no later probe reads
    /// those; a deeper chain a rejected probe built stays for the next round
    /// of probes.
    pub(crate) fn retain(&self, spec: MomentSpec) {
        self.chains
            .borrow_mut()
            .retain(|&(chain, depth), _| depth >= chain.depth(spec));
    }

    /// The keys of `keys` this memo does not hold; the others count as
    /// reuses.
    fn missing(&self, keys: &[(Chain, usize)]) -> Vec<(Chain, usize)> {
        let chains = self.chains.borrow();
        let missing: Vec<_> = keys
            .iter()
            .copied()
            .filter(|key| !chains.contains_key(key))
            .collect();
        self.reuses
            .set(self.reuses.get() + keys.len() - missing.len());
        missing
    }

    fn insert(&self, key: (Chain, usize), built: BuiltChain) {
        self.builds.set(self.builds.get() + 1);
        if built
            .moments
            .vectors
            .iter()
            .all(|v| v.iter().all(|x| x.is_finite()))
        {
            self.chains.borrow_mut().insert(key, built);
        }
    }

    fn get(&self, key: &(Chain, usize)) -> Option<BuiltChain> {
        self.chains.borrow().get(key).cloned()
    }
}

/// Runs independent moment chains on the scoped worker threads, with two
/// robustness layers on top of the raw `parallel_map`: a panicking chain
/// worker surfaces as a typed [`MorError::ChainPanicked`] for this reduction
/// only, and a cooperative `control` token is checked once per chain so a
/// cancellation or passed deadline stops the fan-out with a typed
/// `Interrupted` error instead of finishing the remaining chains. Results
/// come back in input order.
pub(crate) fn run_chains<T, R, F>(items: Vec<T>, control: &RunControl, compute: F) -> Result<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> Result<R> + Sync,
{
    crate::par::try_parallel_map(items, |item| {
        control.checkpoint("moment-chain")?;
        compute(item)
    })
    .into_iter()
    .map(|task| task.map_err(MorError::ChainPanicked).and_then(|r| r))
    .collect()
}

/// The energy weight a frame projects with, borrowed from the stamp.
#[derive(Clone, Copy)]
enum FrameWeight<'a> {
    /// Plain Galerkin: not requested, or the weight could not be built.
    Plain,
    /// The dense engine's congruence frame: candidates are mapped through
    /// `v ↦ Lᵀv` (with `M = LLᵀ` the Lyapunov weight of `G₁`) before
    /// insertion, orthonormalized in Euclidean coordinates there, and
    /// mapped back as `V = L⁻ᵀQ̃`, `W = LQ̃` — so `WᵀV = I` and
    /// `G₁ᵣ = WᵀG₁V` inherits the dissipativity of the full matrix.
    Dense(&'a CholeskyDecomposition),
    /// The low-rank engine's LR-ADI factor `M ≈ ZZᵀ`, applied after
    /// re-orthogonalization; the oblique pair comes from [`lowrank_vw`].
    LowRank(&'a Matrix),
}

/// The engine-specific half of the projection pipeline, read off the stamp:
/// where the energy weight lives, how candidates enter the working frame,
/// how the projection pair is recovered from it, and how `G₁` is applied
/// (the dense view on the dense engine, the CSR stamp on the low-rank
/// engine, which never materializes the dense `G₁`).
pub(crate) struct StabilizationFrame<'a> {
    qldae: &'a Qldae,
    stamp: &'a SharedAssocArtifacts,
    weight: FrameWeight<'a>,
}

impl<'a> StabilizationFrame<'a> {
    /// The unweighted frame of `stamp`'s engine.
    pub(crate) fn new(qldae: &'a Qldae, stamp: &'a SharedAssocArtifacts) -> Self {
        StabilizationFrame {
            qldae,
            stamp,
            weight: FrameWeight::Plain,
        }
    }

    /// True on the low-rank engine, which weighs the basis after
    /// re-orthogonalization instead of the candidates on insertion.
    pub(crate) fn is_lowrank(&self) -> bool {
        self.stamp.config().lowrank
    }

    /// Puts the stamp's energy weight into effect (built on the stamp's
    /// first stabilized use) and copies its ADI record into `stats`.
    pub(crate) fn weigh(&mut self, control: &RunControl, stats: &mut ReductionStats) -> Result<()> {
        self.weight = match self.stamp.weight(self.qldae, control)? {
            EnergyWeight::Dense(chol) => {
                chol.as_ref().map_or(FrameWeight::Plain, FrameWeight::Dense)
            }
            EnergyWeight::LowRank(w) => {
                stats.adi_iterations += w.adi_iterations;
                stats.adi_residual = w.adi_residual;
                stats.degradation.adi_shift_reselections += w.shift_reselections;
                stats.degradation.adi_nonconverged += usize::from(w.nonconverged);
                w.z.as_ref()
                    .map_or(FrameWeight::Plain, FrameWeight::LowRank)
            }
        };
        Ok(())
    }

    /// True when the energy inner product is in effect.
    fn is_active(&self) -> bool {
        !matches!(self.weight, FrameWeight::Plain)
    }

    /// Markov vectors `b, G₁b, …` for one input column, unit-normalized.
    fn markov(&self, b: Vector, count: usize) -> Vec<Vector> {
        let mut out = Vec::with_capacity(count);
        let mut v = b;
        for _ in 0..count {
            let norm = v.norm2();
            if norm == 0.0 || !norm.is_finite() {
                break;
            }
            v.scale_mut(1.0 / norm);
            out.push(v.clone());
            v = if self.is_lowrank() {
                self.qldae.g1_csr().matvec(&v)
            } else {
                self.qldae.g1().matvec(&v)
            };
        }
        out
    }

    /// Maps candidates into the working frame (re-normalized so the
    /// deflation test stays scale-free) and appends them to `basis` in order.
    pub(crate) fn insert(
        &self,
        basis: &mut OrthoBasis,
        candidates: impl IntoIterator<Item = Vector>,
    ) -> Result<()> {
        basis
            .extend_from(candidates.into_iter().map(|v| match self.weight {
                FrameWeight::Dense(chol) => {
                    let mut t = chol.lt_matvec(&v);
                    let norm = t.norm2();
                    if norm > 0.0 && norm.is_finite() {
                        t.scale_mut(1.0 / norm);
                    }
                    t
                }
                FrameWeight::Plain | FrameWeight::LowRank(_) => v,
            }))
            .map_err(MorError::Linalg)?;
        Ok(())
    }

    /// Recovers the projection pair `(V, W)` from the orthonormal working
    /// basis.
    fn recover(&self, qtil: &Matrix) -> Result<(Matrix, Matrix)> {
        match self.weight {
            FrameWeight::Dense(chol) => {
                let v = chol.solve_lt_matrix(qtil).map_err(MorError::Linalg)?;
                let w = chol.l_matmul(qtil).map_err(MorError::Linalg)?;
                Ok((v, w))
            }
            FrameWeight::LowRank(z) => lowrank_vw(
                qtil,
                Some(z),
                self.stamp.config().opts.weight_regularization,
            ),
            FrameWeight::Plain => Ok((qtil.clone(), qtil.clone())),
        }
    }

    /// The guard's trial product `G₁ᵣ = Wᵀ G₁ V`.
    fn reduced_g1(&self, v: &Matrix, w: &Matrix) -> Matrix {
        let g1v = if self.is_lowrank() {
            csr_matmul(self.qldae.g1_csr(), v)
        } else {
            self.qldae.g1().matmul(v)
        };
        w.transpose().matmul(&g1v)
    }

    /// Whether dropping columns can restore a stable reduction: on the dense
    /// engine only when the full `G₁` is Hurwitz (a full model with an
    /// unstable `G₁` legitimately produces unstable reductions); the
    /// low-rank engine cannot afford that `O(n³)` check, so on a genuinely
    /// unstable full model its guard stops at one column.
    fn restartable(&self) -> bool {
        self.is_lowrank() || self.stamp.g1_hurwitz(self.qldae)
    }
}

/// Re-factors a Gram–Schmidt basis with a column-pivoted QR, dropping
/// columns whose pivot falls below `1 /`
/// [`AssocReducer::DEFAULT_QR_CONDITION_CAP`] of the leading one.
fn reorthogonalize(accumulated: &Matrix) -> Result<Matrix> {
    let _span = vamor_obs::span!("qr_reorth");
    let qr = PivotedQr::new(accumulated).map_err(MorError::Linalg)?;
    let rank = qr.rank(1.0 / AssocReducer::DEFAULT_QR_CONDITION_CAP).max(1);
    Ok(qr.orthonormal_prefix(rank))
}

/// One trial of the spectral guard: the re-orthogonalized basis of the
/// kept accumulated candidates, its projection pair and the spectrum of
/// `Wᵀ G₁ V`.
struct GuardTrial {
    qtil: Matrix,
    v: Matrix,
    w: Matrix,
    eig: Eigenvalues,
}

impl GuardTrial {
    fn new(accumulated: &Matrix, kept: &[usize], frame: &StabilizationFrame) -> Result<Self> {
        let sub = Matrix::from_fn(accumulated.rows(), kept.len(), |i, j| {
            accumulated[(i, kept[j])]
        });
        let qtil = reorthogonalize(&sub)?;
        let (v, w) = frame.recover(&qtil)?;
        let eig = eigenvalues(&frame.reduced_g1(&v, &w)).map_err(MorError::Linalg)?;
        Ok(GuardTrial { qtil, v, w, eig })
    }
}

/// Drops one candidate from `kept` (at least two): the trailing-most one
/// whose removal makes `G₁ᵣ` Hurwitz, or, when no single removal does, the
/// one whose removal moves the spectral abscissa furthest left (a leading
/// candidate must win by more than a relative `√ε`, so near-ties go to the
/// trailing one). Returns the trial without it.
fn drop_candidate(
    accumulated: &Matrix,
    kept: &mut Vec<usize>,
    frame: &StabilizationFrame,
) -> Result<GuardTrial> {
    let margin = f64::EPSILON.sqrt();
    let mut best: Option<(usize, GuardTrial)> = None;
    for slot in (0..kept.len()).rev() {
        let mut rest = kept.clone();
        rest.remove(slot);
        let trial = GuardTrial::new(accumulated, &rest, frame)?;
        if trial.eig.is_hurwitz() {
            best = Some((slot, trial));
            break;
        }
        let abscissa = trial.eig.spectral_abscissa();
        let better = best.as_ref().is_none_or(|(_, b)| {
            let leader = b.eig.spectral_abscissa();
            abscissa < leader - margin * leader.abs()
        });
        if better {
            best = Some((slot, trial));
        }
    }
    let (slot, trial) = best.ok_or(MorError::EmptyProjection)?;
    kept.remove(slot);
    Ok(trial)
}

/// The spectral guard: re-orthogonalizes the accumulated basis and, while
/// the reduced linear part `Wᵀ G₁ V` is unstable and the frame is
/// restartable, drops one accumulated candidate ([`drop_candidate`]) and
/// re-orthogonalizes the rest. Candidates are judged in insertion (plan)
/// order, never in the pivoted QR's column order: the accumulated columns
/// are orthonormal, so every QR pivot is a tie among unit norms and the
/// column the QR puts last is decided by rounding. Only the cheap `G₁ᵣ`
/// trial products are formed per dropped candidate; the expensive full
/// nonlinear projection (`O(q²)`/`O(q³)` structured matvecs for `G₂`/`G₃`)
/// runs exactly once, on the final basis. Returns the projected system
/// together with the right basis used.
fn project_guarded(
    qldae: &Qldae,
    accumulated: &Matrix,
    frame: &StabilizationFrame,
    stats: &mut ReductionStats,
) -> Result<(Qldae, Matrix)> {
    let _span = vamor_obs::span!("project");
    let mut kept: Vec<usize> = (0..accumulated.cols()).collect();
    let mut trial = GuardTrial::new(accumulated, &kept, frame)?;
    stats.qr_dropped = kept.len() - trial.qtil.cols();
    stats.spectral_abscissa = trial.eig.spectral_abscissa();
    while !trial.eig.is_hurwitz() && kept.len() > 1 && frame.restartable() {
        let abscissa = trial.eig.spectral_abscissa();
        trial = drop_candidate(accumulated, &mut kept, frame)?;
        stats.restarts += 1;
        vamor_obs::event!(vamor_obs::Event::SpectralRestart {
            restart: stats.restarts as u32,
            abscissa,
            dim: trial.qtil.cols() as u32,
        });
        stats.spectral_abscissa = trial.eig.spectral_abscissa();
    }
    let system = project_qldae_petrov(qldae, &trial.v, &trial.w)?;
    Ok((system, trial.v))
}

/// The paper's method: projection onto the moment spaces of the *associated*
/// single-`s` transfer functions `H₁(s)`, `H₂(s)`, `H₃(s)`, run through the
/// stabilized projection pipeline (see the module docs).
///
/// The projection dimension grows as `O(k₁ + k₂ + k₃)` per input, in contrast
/// to the multivariate (NORM-style) moment matching implemented by
/// [`crate::NormReducer`].
///
/// ```
/// use vamor_circuits::TransmissionLine;
/// use vamor_core::{AssocReducer, MomentSpec};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let line = TransmissionLine::current_driven(20)?;
/// let rom = AssocReducer::new(MomentSpec::new(4, 2, 1)).reduce(line.qldae())?;
/// assert!(rom.order() <= 7);
/// assert!(rom.stats().is_stable());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AssocReducer {
    spec: MomentSpec,
    pub(crate) deflation_tol: f64,
    markov_moments: usize,
    pub(crate) stabilized: bool,
    backend: SolverBackend,
    engine: ReductionEngine,
    lowrank_opts: LowRankOptions,
    output_krylov: usize,
}

impl AssocReducer {
    /// Default condition cap of the final pivoted-QR re-orthogonalization.
    pub const DEFAULT_QR_CONDITION_CAP: f64 = 1e12;

    /// Creates a reducer for the given moment specification.
    pub fn new(spec: MomentSpec) -> Self {
        AssocReducer {
            spec,
            deflation_tol: OrthoBasis::DEFAULT_TOL,
            markov_moments: 0,
            stabilized: true,
            backend: SolverBackend::Auto,
            engine: ReductionEngine::Auto,
            lowrank_opts: LowRankOptions::default(),
            output_krylov: 0,
        }
    }

    /// Selects the reduction engine: `DenseSchur` is the exact `O(n³)`
    /// Bartels–Stewart machinery, `LowRank` the rational-Krylov + LR-ADI
    /// engine of [`crate::lowrank`], and `Auto` (the default) switches to
    /// the low-rank engine from [`crate::LOWRANK_AUTO_THRESHOLD`] states.
    pub fn with_engine(mut self, engine: ReductionEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the tuning knobs of the low-rank engine (shift counts, ADI
    /// tolerances, chain-basis caps).
    pub fn with_lowrank_options(mut self, opts: LowRankOptions) -> Self {
        self.lowrank_opts = opts;
        self
    }

    /// Enables the **two-sided (true Petrov–Galerkin)** mode: the test basis
    /// `W` spans `count` *output* Krylov vectors `G₁⁻ᵀcᵀ, G₁⁻²ᵀcᵀ, …` per
    /// output and is bi-orthonormalized against `V` (`WᵀV = I`), which
    /// doubles the matched `H₁` moments per basis vector (`2q` instead of
    /// `q`). Choosing `W` this way replaces the energy-weighted `W = MV`, so
    /// this mode runs the plain (unweighted) frame and relies on the
    /// spectral guard for stability; it requires the dense engine and is
    /// not implemented for systems with a cubic `G₃` (the reduction rejects
    /// those with [`MorError::Invalid`]).
    pub fn with_output_krylov(mut self, count: usize) -> Self {
        self.output_krylov = count;
        self
    }

    /// Selects the linear-solver backend for the structurally sparse solves
    /// of the moment generation (`G₁⁻¹` chains, shifted top-block solves).
    /// `Auto` (the default) switches to the sparse direct solver for systems
    /// of order ≥ 256; `Dense`/`Sparse` force a backend — the two agree to
    /// floating-point roundoff and are cross-checked by the regression
    /// tests. The dense `G₁ ⊕ G₁` Schur machinery is unaffected.
    pub fn with_solver_backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the relative deflation tolerance used when orthonormalizing
    /// the candidate moment vectors.
    pub fn with_deflation_tol(mut self, tol: f64) -> Self {
        self.deflation_tol = tol;
        self
    }

    /// Enriches the basis with `count` Markov vectors `B, G₁B, …, G₁^{count-1}B`
    /// per input. Moment matching about `s = 0` controls the late-time
    /// response only; a couple of Markov vectors pin the `s → ∞` behaviour
    /// and remove the spurious broadband response of DC-matched ROMs.
    /// Default 0 (pure paper behaviour).
    pub fn with_markov_moments(mut self, count: usize) -> Self {
        self.markov_moments = count;
        self
    }

    /// Enables the energy-inner-product (Lyapunov-weighted) oblique
    /// projection that makes the reduced `G₁ᵣ` provably Hurwitz whenever the
    /// full `G₁` is. On by default; `false` restores plain one-sided
    /// Galerkin (then only the spectral guard protects stability).
    pub fn with_stabilized_projection(mut self, enabled: bool) -> Self {
        self.stabilized = enabled;
        self
    }

    /// The moment specification.
    pub fn spec(&self) -> MomentSpec {
        self.spec
    }

    /// Reduces a polynomial system. The `H₂` chains run only when the
    /// system has a quadratic part (a nonzero `G₂` or a `D₁`) and the `H₃`
    /// chains when it has a quadratic or a cubic part, so `k₂` is ignored
    /// for a purely cubic system such as the varistor.
    ///
    /// # Errors
    ///
    /// Returns an error if `G₁` is singular, a Kronecker-sum pencil is
    /// singular, or every candidate vector deflates, and
    /// [`MorError::Invalid`] for the two-sided mode on a system with a `G₃`.
    pub fn reduce(&self, qldae: &Qldae) -> Result<ReducedQldae> {
        self.reduce_controlled(qldae, &RunControl::new())
    }

    /// [`AssocReducer::reduce`] under a cooperative [`RunControl`]: the token
    /// is checked once per moment chain (and, on the low-rank engine, once
    /// per chain step and ADI sweep). A cancellation or passed deadline
    /// surfaces as a typed
    /// [`LinalgError::Interrupted`](vamor_linalg::LinalgError::Interrupted) —
    /// a plain reducer has no partial result worth returning, unlike
    /// [`crate::AdaptiveReducer`], which answers a stop with the best ROM
    /// seen so far.
    ///
    /// # Errors
    ///
    /// Same contract as [`AssocReducer::reduce`], plus `Interrupted` on a
    /// stop.
    pub fn reduce_controlled(&self, qldae: &Qldae, control: &RunControl) -> Result<ReducedQldae> {
        self.validate(qldae)?;
        let stamp = SharedAssocArtifacts::new(qldae, self.stamp_config(qldae))?;
        self.reduce_on(qldae, &stamp, &ChainMemo::default(), control)
    }

    /// The stamp configuration this reducer reads: its backend and
    /// low-rank options, and the low-rank engine where it resolves to it
    /// (never in the two-sided mode, which needs the dense machinery).
    pub(crate) fn stamp_config(&self, qldae: &Qldae) -> StampConfig {
        let n = qldae.g1_csr().rows();
        let lowrank = self.engine.use_lowrank(n) && self.output_krylov == 0;
        StampConfig::resolve(n, self.backend, lowrank, self.lowrank_opts)
    }

    /// Rejects configurations no engine can run, before anything is
    /// factored.
    fn validate(&self, qldae: &Qldae) -> Result<()> {
        self.spec.validate()?;
        if self.output_krylov > 0 && qldae.g3().is_some() {
            // Reject loudly rather than silently returning a one-sided
            // reduction the caller believes is two-sided.
            return Err(MorError::Invalid(
                "the two-sided output-Krylov mode is not implemented for systems with a cubic term"
                    .into(),
            ));
        }
        // The two-sided mode needs the dense machinery: `Auto` simply
        // resolves to it; an *explicit* low-rank selection is a
        // contradiction and fails loudly.
        if self.output_krylov > 0 && self.engine == ReductionEngine::LowRank {
            return Err(MorError::Invalid(
                "the two-sided output-Krylov mode requires the dense engine".into(),
            ));
        }
        Ok(())
    }

    /// The reduce core every reduction runs, borrowing the factorizations
    /// of `stamp` (private to this reduction, one greedy run's, or a
    /// session's), which must be of [`AssocReducer::stamp_config`], and the
    /// moment chains `memo` holds over that stamp (a fresh memo for a plain
    /// reduction, the run's own for a greedy probe).
    ///
    /// # Errors
    ///
    /// Same contract as [`AssocReducer::reduce_controlled`].
    pub(crate) fn reduce_on(
        &self,
        qldae: &Qldae,
        stamp: &SharedAssocArtifacts,
        memo: &ChainMemo,
        control: &RunControl,
    ) -> Result<ReducedQldae> {
        let _span = vamor_obs::span!("assoc_reduce");
        self.validate(qldae)?;
        let spec = self.spec;
        let plan = Chain::plan(qldae, spec);
        let mut stats = ReductionStats::default();
        stats.degradation.absorb_pivot(stamp.recovery());
        let mut frame = StabilizationFrame::new(qldae, stamp);
        // The two-sided mode chooses W from the output Krylov spaces, which
        // replaces the energy-weighted W = MV — it runs the plain frame.
        if self.stabilized && self.output_krylov == 0 && !frame.is_lowrank() {
            frame.weigh(control, &mut stats)?;
        }
        let basis = if frame.is_lowrank() {
            // The stamp's chain shift pool is built once, before the
            // fan-out. Each chain then runs its own generator, so its
            // diagnostics are its own and a memoized chain replays exactly
            // what its build recorded.
            stamp.chain(qldae)?;
            self.collect(
                &frame,
                qldae.b(),
                plan,
                control,
                memo,
                &mut stats,
                |chain| {
                    let generator = LowRankAssocMomentGenerator::with_stamp(qldae, stamp)?
                        .with_control(control.clone());
                    let moments = match chain {
                        Chain::H1 { input } => generator.h1_moments_scaled(input, spec.k1),
                        Chain::H2 { a, b } => generator.h2_moments_scaled(a, b, spec.k2),
                        Chain::H3 { input } => generator.h3_moments_scaled(input, spec.k3),
                    }?;
                    Ok(BuiltChain {
                        moments,
                        diagnostics: generator.diagnostics(),
                    })
                },
            )?
        } else {
            let generator = AssocMomentGenerator::with_shared(qldae, stamp)?;
            self.collect(
                &frame,
                qldae.b(),
                plan,
                control,
                memo,
                &mut stats,
                |chain| {
                    let moments = match chain {
                        Chain::H1 { input } => generator.h1_moments_scaled(input, spec.k1),
                        Chain::H2 { a, b } => generator.h2_moments_scaled(a, b, spec.k2),
                        Chain::H3 { input } => generator.h3_moments_scaled(input, spec.k3),
                    }?;
                    Ok(BuiltChain {
                        moments,
                        diagnostics: LowRankDiagnostics::default(),
                    })
                },
            )?
        };
        if self.output_krylov > 0 {
            let accumulated = self.settle(basis, &mut stats)?;
            let qtil = reorthogonalize(&accumulated)?;
            stats.qr_dropped = accumulated.cols() - qtil.cols();
            return self.finish_two_sided(qldae, stamp, qtil, stats);
        }
        self.finish(qldae, basis, frame, stats, control)
    }

    /// Finishes a two-sided (output-Krylov Petrov–Galerkin) reduction: the
    /// right basis `V` is the accumulated input-side frame, the test basis
    /// spans the dual chains `G₁⁻ᵀcᵀ, G₁⁻²ᵀcᵀ, …` per output row, and the
    /// pair is bi-orthonormalized to `WᵀV = I`. With `q` columns a side, the
    /// reduced `H₁` matches `2q` moments (`q` from the input space, `q` more
    /// from the output space) — double the one-sided count per basis vector.
    /// The dual chains solve against the stamp's `LU(G₁ᵀ)`.
    fn finish_two_sided(
        &self,
        qldae: &Qldae,
        stamp: &SharedAssocArtifacts,
        qtil: Matrix,
        mut stats: ReductionStats,
    ) -> Result<ReducedQldae> {
        let csr = qldae.g1_csr();
        let n = csr.rows();
        let (gt_lu, recovery) = stamp.g1t_lu(qldae)?;
        stats.degradation.absorb_pivot(*recovery);
        let mut wbasis = OrthoBasis::with_tolerance(n, self.deflation_tol);
        for row in 0..qldae.c().rows() {
            let mut y = Vector::from_fn(n, |j| qldae.c()[(row, j)]);
            for _ in 0..self.output_krylov {
                y = gt_lu.solve(&y).map_err(MorError::Linalg)?;
                let norm = y.norm2();
                if norm <= 0.0 || !norm.is_finite() {
                    break;
                }
                y.scale_mut(1.0 / norm);
                stats.output_candidates += 1;
                wbasis.extend_from([y.clone()]).map_err(MorError::Linalg)?;
            }
        }
        if wbasis.is_empty() {
            return Err(MorError::EmptyProjection);
        }
        let wtil = wbasis.to_matrix().map_err(MorError::Linalg)?;
        let mut q = qtil.cols().min(wtil.cols());
        let (system, v) = loop {
            if q == 0 {
                return Err(MorError::EmptyProjection);
            }
            let vq = qtil.submatrix(0, n, 0, q);
            let wq = wtil.submatrix(0, n, 0, q);
            // Bi-orthonormalize: W = W̃ M⁻ᵀ with M = W̃ᵀV, so WᵀV = I.
            let m = wq.transpose().matmul(&vq);
            let w = match m.inverse() {
                Ok(minv) => wq.matmul(&minv.transpose()),
                Err(_) => {
                    // Singular pairing: the subspaces are (numerically)
                    // orthogonal in the trailing direction — drop it.
                    q -= 1;
                    stats.restarts += 1;
                    vamor_obs::event!(vamor_obs::Event::SpectralRestart {
                        restart: stats.restarts as u32,
                        abscissa: f64::NAN,
                        dim: q as u32,
                    });
                    continue;
                }
            };
            let g1r = w.transpose().matmul(&csr_matmul(csr, &vq));
            let eig = eigenvalues(&g1r).map_err(MorError::Linalg)?;
            stats.spectral_abscissa = eig.spectral_abscissa();
            if !eig.is_hurwitz() && q > 1 {
                q -= 1;
                stats.restarts += 1;
                vamor_obs::event!(vamor_obs::Event::SpectralRestart {
                    restart: stats.restarts as u32,
                    abscissa: eig.spectral_abscissa(),
                    dim: q as u32,
                });
                continue;
            }
            break (project_qldae_petrov(qldae, &vq, &w)?, vq);
        };
        stats.projection_dim = v.cols();
        stats.publish();
        Ok(ReducedQldae {
            system,
            projection: v,
            stats,
        })
    }

    /// The collect stage of the reduction pipeline: Markov enrichment, then
    /// the chain `plan` fanned out over [`run_chains`] (one `compute` call
    /// per chain `memo` does not hold yet), then insertion of every chain
    /// into the basis through `frame`, in plan order, folding each chain's
    /// diagnostics into `stats`.
    #[allow(clippy::too_many_arguments)] // private stage with two call sites; a config struct would just rename the arguments
    fn collect(
        &self,
        frame: &StabilizationFrame,
        b: &Matrix,
        plan: Vec<Chain>,
        control: &RunControl,
        memo: &ChainMemo,
        stats: &mut ReductionStats,
        compute: impl Fn(Chain) -> Result<BuiltChain> + Sync,
    ) -> Result<OrthoBasis> {
        let mut basis = OrthoBasis::with_tolerance(b.rows(), self.deflation_tol);

        // Markov enrichment first: these vectors carry the high-frequency
        // behaviour and must not be relegated behind deep moment chains.
        for input in 0..b.cols() {
            let _span = vamor_obs::span!("markov_enrich");
            control.checkpoint("markov-enrich")?;
            let markov = frame.markov(b.col(input), self.markov_moments);
            stats.markov_candidates += markov.len();
            frame.insert(&mut basis, markov)?;
        }

        // The chains are independent given the generator's immutable cached
        // factorizations, so the ones the memo lacks run on scoped worker
        // threads; every chain is inserted in plan order, which keeps the
        // basis deterministic.
        let keys: Vec<(Chain, usize)> = plan
            .into_iter()
            .map(|chain| (chain, chain.depth(self.spec)))
            .collect();
        let mut built: HashMap<(Chain, usize), BuiltChain> =
            run_chains(memo.missing(&keys), control, |key| {
                let _span = vamor_obs::span!(match key.0 {
                    Chain::H1 { .. } => "chain_h1",
                    Chain::H2 { .. } => "chain_h2",
                    Chain::H3 { .. } => "chain_h3",
                });
                Ok((key, compute(key.0)?))
            })?
            .into_iter()
            .collect();
        let mut diagnostics = LowRankDiagnostics::default();
        for key in keys {
            control.checkpoint("basis-insert")?;
            let BuiltChain {
                moments,
                diagnostics: own,
            } = match built.remove(&key) {
                Some(chain) => {
                    memo.insert(key, chain.clone());
                    chain
                }
                None => memo.get(&key).ok_or_else(|| {
                    MorError::Invalid(format!("moment chain {key:?} was neither built nor held"))
                })?,
            };
            *match key.0 {
                Chain::H1 { .. } => &mut stats.h1_candidates,
                Chain::H2 { .. } => &mut stats.h2_candidates,
                Chain::H3 { .. } => &mut stats.h3_candidates,
            } += moments.vectors.len();
            stats.moment_log10_peak = stats.moment_log10_peak.max(moments.log10_peak());
            diagnostics.merge(&own);
            frame.insert(&mut basis, moments.vectors)?;
        }
        stats.absorb_chain_diagnostics(diagnostics);
        Ok(basis)
    }

    /// Settles a collected basis: rejects an empty one, records deflation,
    /// and returns the accumulated columns in insertion order.
    fn settle(&self, basis: OrthoBasis, stats: &mut ReductionStats) -> Result<Matrix> {
        if basis.is_empty() {
            return Err(MorError::EmptyProjection);
        }
        stats.deflated = basis.deflated_count();
        stats.nonfinite_deflated = basis.nonfinite_count();
        if stats.deflated > 0 {
            vamor_obs::event!(vamor_obs::Event::Deflation {
                context: "basis",
                dropped: stats.deflated as u32,
                tol: self.deflation_tol,
            });
        }
        basis.to_matrix().map_err(MorError::Linalg)
    }

    /// The finish stage of the reduction pipeline (shared with the NORM
    /// baseline): settles the basis, puts the low-rank energy weight into
    /// effect, runs the spectral guard, projects, and publishes the run's
    /// statistics.
    pub(crate) fn finish(
        &self,
        qldae: &Qldae,
        basis: OrthoBasis,
        mut frame: StabilizationFrame,
        mut stats: ReductionStats,
        control: &RunControl,
    ) -> Result<ReducedQldae> {
        let accumulated = self.settle(basis, &mut stats)?;
        if self.stabilized && frame.is_lowrank() {
            frame.weigh(control, &mut stats)?;
        }
        stats.energy_weighted = frame.is_active();
        stats.lowrank_engine = frame.is_lowrank();
        let (system, projection) = project_guarded(qldae, &accumulated, &frame, &mut stats)?;
        stats.projection_dim = projection.cols();
        stats.publish();
        Ok(ReducedQldae {
            system,
            projection,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volterra::VolterraKernels;
    use vamor_linalg::Complex;
    use vamor_system::QldaeBuilder;

    fn small_qldae() -> Qldae {
        qldae_with_g33(-3.0)
    }

    fn qldae_with_g33(g33: f64) -> Qldae {
        QldaeBuilder::new(4, 1)
            .g1_entry(0, 0, -1.0)
            .g1_entry(0, 1, 0.4)
            .g1_entry(1, 1, -2.0)
            .g1_entry(1, 2, 0.3)
            .g1_entry(2, 2, -1.4)
            .g1_entry(2, 3, 0.2)
            .g1_entry(3, 3, g33)
            .g1_entry(3, 0, 0.1)
            .g2_entry(0, 1, 1, 0.3)
            .g2_entry(2, 0, 3, -0.2)
            .g2_entry(3, 2, 2, 0.15)
            .d1_entry(0, 2, 1, 0.1)
            .b_entry(0, 0, 1.0)
            .b_entry(2, 0, 0.4)
            .output_state(3)
            .build()
            .unwrap()
    }

    #[test]
    fn moment_spec_helpers() {
        let spec = MomentSpec::paper_default();
        assert_eq!((spec.k1, spec.k2, spec.k3), (6, 3, 2));
        assert_eq!(spec.total(), 11);
        assert!(AssocReducer::new(MomentSpec::new(0, 0, 0))
            .reduce(&small_qldae())
            .is_err());
    }

    /// The cancellation contract of the plain reducers: a stop surfaces as
    /// the typed `Interrupted` error on both engines and on NORM — there is
    /// no partial ROM to return.
    #[test]
    fn zero_deadline_interrupts_every_plain_reducer_with_a_typed_error() {
        use crate::norm::NormReducer;
        use vamor_linalg::{LinalgError, StopCause};
        let q = small_qldae();
        let control = RunControl::new().with_deadline(std::time::Duration::ZERO);
        let spec = MomentSpec::new(2, 1, 1);
        let results = [
            AssocReducer::new(spec)
                .with_engine(ReductionEngine::DenseSchur)
                .reduce_controlled(&q, &control),
            AssocReducer::new(spec)
                .with_engine(ReductionEngine::LowRank)
                .reduce_controlled(&q, &control),
            NormReducer::new(spec).reduce_controlled(&q, &control),
        ];
        for (run, result) in ["assoc dense", "assoc low-rank", "norm"]
            .iter()
            .zip(results)
        {
            match result {
                Err(MorError::Linalg(LinalgError::Interrupted(StopCause::DeadlineExceeded))) => {}
                other => panic!("{run}: expected a typed deadline interrupt, got {other:?}"),
            }
        }
    }

    /// A dense stamp without a Schur form (an unstabilized NORM reduction
    /// factors none) answers the guard's Hurwitz question on demand, with
    /// the verdict a stamp holding its Schur form reads off the eigenvalues.
    #[test]
    fn schur_free_dense_frame_decides_restartability_lazily() {
        for (g33, hurwitz) in [(-3.0, true), (0.5, false)] {
            let q = qldae_with_g33(g33);
            let config = AssocReducer::new(MomentSpec::new(2, 1, 0)).stamp_config(&q);
            let lazy = SharedAssocArtifacts::new(&q, config).unwrap();
            let eager = SharedAssocArtifacts::new(&q, config).unwrap();
            eager.decoupled(&q).unwrap();
            let lazy_frame = StabilizationFrame::new(&q, &lazy);
            let eager_frame = StabilizationFrame::new(&q, &eager);
            assert!(!lazy_frame.is_active() && !eager_frame.is_active());
            assert_eq!(eager_frame.restartable(), hurwitz);
            assert_eq!(lazy_frame.restartable(), hurwitz);
            // The verdict built no Schur form into the lazy stamp.
            assert!(lazy.approx_bytes() < eager.approx_bytes());
        }
        // An unstabilized NORM reduction factors no Schur form into its
        // stamp; a stabilized frame reads the weight off the Schur form.
        let q = small_qldae();
        let spec = MomentSpec::new(2, 1, 0);
        let stamp =
            SharedAssocArtifacts::new(&q, AssocReducer::new(spec).stamp_config(&q)).unwrap();
        crate::NormReducer::new(spec)
            .with_stabilized_projection(false)
            .reduce_on(&q, &stamp, &RunControl::new())
            .unwrap();
        assert_eq!(stamp.approx_bytes(), stamp.g1_lu().approx_bytes());
        let mut frame = StabilizationFrame::new(&q, &stamp);
        frame
            .weigh(&RunControl::new(), &mut ReductionStats::default())
            .unwrap();
        assert!(frame.is_active());
    }

    /// The spectral guard is a function of the candidates' span, not of
    /// their last bits. The accumulated columns are orthonormal, so the
    /// pivoted QR orders them by rounding; a guard that cut in that order
    /// kept a different basis after a rounding-level perturbation. The
    /// plain-Galerkin receiver basis (Markov, `H₁`, `H₂`, `H₃` candidates)
    /// needs restarts, and five perturbations of the candidates at 1e-14
    /// keep the same restarts and the same span.
    #[test]
    fn spectral_guard_keeps_its_cut_under_rounding_noise() {
        let rx = vamor_circuits::RfReceiver::new(16).unwrap();
        let q = rx.qldae();
        let n = q.g1_csr().rows();
        let reducer = AssocReducer::new(MomentSpec::new(8, 4, 2)).with_stabilized_projection(false);
        let stamp = SharedAssocArtifacts::new(q, reducer.stamp_config(q)).unwrap();
        let frame = StabilizationFrame::new(q, &stamp);
        let gen = AssocMomentGenerator::new(q).unwrap();
        let mut candidates = Vec::new();
        for input in 0..2 {
            candidates.extend(frame.markov(q.b().col(input), 2));
        }
        for input in 0..2 {
            candidates.extend(gen.h1_moments_scaled(input, 8).unwrap().vectors);
        }
        for (a, b) in [(0, 0), (0, 1), (1, 1)] {
            candidates.extend(gen.h2_moments_scaled(a, b, 4).unwrap().vectors);
        }
        for input in 0..2 {
            candidates.extend(gen.h3_moments_scaled(input, 2).unwrap().vectors);
        }
        let guard = |seed: u64| {
            let mut state = seed;
            let mut basis = OrthoBasis::new(n);
            for c in &candidates {
                let noisy = Vector::from_fn(n, |j| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                    let eps = if seed == 0 { 0.0 } else { 1e-14 };
                    c[j] * (1.0 + eps * (2.0 * unit - 1.0))
                });
                basis.insert(noisy).unwrap();
            }
            let mut stats = ReductionStats::default();
            let accumulated = basis.to_matrix().unwrap();
            let (rom, v) = project_guarded(q, &accumulated, &frame, &mut stats).unwrap();
            assert!(eigenvalues(rom.g1()).unwrap().is_hurwitz());
            (v, stats.restarts)
        };
        let (reference, restarts) = guard(0);
        assert!(
            restarts > 0,
            "the plain-Galerkin receiver basis must need the guard"
        );
        for seed in 1..=5 {
            let (v, got) = guard(seed);
            assert_eq!((v.cols(), got), (reference.cols(), restarts), "seed {seed}");
            let overlap = v.transpose().matmul(&reference);
            let off_span = (0..v.cols())
                .map(|j| (1.0 - overlap.col(j).norm2().powi(2)).abs())
                .fold(0.0, f64::max);
            // Nearly dependent candidates amplify the noise to ~1e-6 here;
            // a different cut leaves a whole direction out (~1).
            assert!(
                off_span < 1e-3,
                "seed {seed}: spans differ by {off_span:.2e}"
            );
        }
    }

    /// Two-sided reductions over one stamp factor `G₁ᵀ` once: the first
    /// grows the stamp by the decoupled Schur form and the `G₁ᵀ` factor,
    /// the second by nothing; both ROMs are bit-equal to a solo reduction's,
    /// and each ROM's degradation report counts the ladders of `LU(G₁)` and
    /// `LU(G₁ᵀ)`.
    #[test]
    fn two_sided_reductions_over_one_stamp_factor_g1t_once() {
        let line = vamor_circuits::TransmissionLine::current_driven(20).unwrap();
        let q = line.qldae();
        let reducer = AssocReducer::new(MomentSpec::new(4, 2, 0)).with_output_krylov(2);
        let solo = reducer.reduce(q).unwrap();
        let stamp = SharedAssocArtifacts::new(q, reducer.stamp_config(q)).unwrap();
        let before = stamp.approx_bytes();
        let control = RunControl::new();
        let roms = [
            reducer
                .reduce_on(q, &stamp, &ChainMemo::default(), &control)
                .unwrap(),
            reducer
                .reduce_on(q, &stamp, &ChainMemo::default(), &control)
                .unwrap(),
        ];
        let n = stamp.n();
        let dec = stamp.decoupled(q).unwrap();
        let schur = 4 * n * n * std::mem::size_of::<f64>()
            + std::mem::size_of_val(dec.schur().blocks())
            + std::mem::size_of_val(dec.blocks());
        let (g1t, g1t_recovery) = stamp.g1t_lu(q).unwrap();
        assert_eq!(stamp.approx_bytes(), before + schur + g1t.approx_bytes());
        let mut ladders = DegradationReport::default();
        ladders.absorb_pivot(stamp.recovery());
        ladders.absorb_pivot(*g1t_recovery);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for rom in &roms {
            assert_eq!(bits(rom.projection()), bits(solo.projection()));
            assert_eq!(bits(rom.system().g1()), bits(solo.system().g1()));
            // `Debug`, since the plain-Galerkin `adi_residual` is NaN.
            assert_eq!(format!("{:?}", rom.stats()), format!("{:?}", solo.stats()));
            let got = rom.stats().degradation;
            assert_eq!(
                (got.pivot_escalations, got.dense_fallbacks),
                (ladders.pivot_escalations, ladders.dense_fallbacks)
            );
        }
    }

    #[test]
    fn reduction_shrinks_the_system_and_tracks_stats() {
        let q = small_qldae();
        let rom = AssocReducer::new(MomentSpec::new(2, 1, 1))
            .with_stabilized_projection(false)
            .reduce(&q)
            .unwrap();
        assert!(rom.order() <= 4);
        assert!(rom.order() >= 1);
        assert_eq!(rom.projection().rows(), 4);
        assert_eq!(rom.stats().h1_candidates, 2);
        assert_eq!(rom.stats().h2_candidates, 1);
        assert_eq!(rom.stats().h3_candidates, 1);
        assert_eq!(rom.stats().markov_candidates, 0);
        assert!(!rom.stats().energy_weighted);
        assert_eq!(rom.stats().projection_dim, rom.order());
        assert_eq!(rom.stats().total_candidates(), 4);
        // In plain-Galerkin mode the projection has Euclidean-orthonormal
        // columns.
        let v = rom.projection();
        let gram = v.transpose().matmul(v);
        assert!((&gram - &Matrix::identity(rom.order())).max_abs() < 1e-10);
        // The spectral guard ran and found a stable reduced matrix.
        assert!(rom.stats().is_stable());
        assert_eq!(rom.stats().restarts, 0);
    }

    #[test]
    fn stabilized_projection_is_energy_orthonormal_and_stable() {
        let q = small_qldae();
        let rom = AssocReducer::new(MomentSpec::new(2, 1, 1))
            .reduce(&q)
            .unwrap();
        // V is M-orthonormal for the Lyapunov weight of G₁.
        let schur = vamor_linalg::SchurDecomposition::new(q.g1()).unwrap();
        let m = vamor_linalg::lyapunov_weight(&schur).unwrap();
        let v = rom.projection();
        let gram = v.transpose().matmul(&m.matmul(v));
        assert!(
            (&gram - &Matrix::identity(rom.order())).max_abs() < 1e-8,
            "V is not M-orthonormal: {:.3e}",
            (&gram - &Matrix::identity(rom.order())).max_abs()
        );
        // Stability is guaranteed by construction.
        assert!(rom.stats().energy_weighted);
        assert!(rom.stats().is_stable());
        assert!(vamor_linalg::eigenvalues(rom.system().g1())
            .unwrap()
            .is_hurwitz());
    }

    #[test]
    fn markov_enrichment_adds_high_frequency_directions() {
        let q = small_qldae();
        let plain = AssocReducer::new(MomentSpec::new(2, 1, 0))
            .reduce(&q)
            .unwrap();
        let enriched = AssocReducer::new(MomentSpec::new(2, 1, 0))
            .with_markov_moments(2)
            .reduce(&q)
            .unwrap();
        assert_eq!(enriched.stats().markov_candidates, 2);
        assert!(enriched.order() >= plain.order());
        // The input column b must now be (numerically) inside the span.
        let b = q.b().col(0);
        let v = enriched.projection();
        // Solve the least-squares problem min ||V c - b|| and check residual.
        let coeffs = v.qr().unwrap().solve_least_squares(&b).unwrap();
        let residual = &v.matvec(&coeffs) - &b;
        assert!(
            residual.norm2() < 1e-8 * b.norm2(),
            "b not captured: {:.3e}",
            residual.norm2()
        );
    }

    #[test]
    fn reduced_model_matches_first_order_transfer_function_near_dc() {
        let q = small_qldae();
        let rom = AssocReducer::new(MomentSpec::new(3, 2, 1))
            .reduce(&q)
            .unwrap();
        let full = VolterraKernels::new(&q, 0).unwrap();
        let red = VolterraKernels::new(rom.system(), 0).unwrap();
        for s in [
            Complex::new(0.0, 0.05),
            Complex::new(0.02, 0.01),
            Complex::new(0.0, 0.2),
        ] {
            let a = full.output_h1(s).unwrap();
            let b = red.output_h1(s).unwrap();
            assert!(
                (a - b).abs() < 1e-4 * (1.0 + a.abs()),
                "H1 mismatch at {s}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn reduced_model_matches_second_order_kernel_near_dc() {
        let q = small_qldae();
        let rom = AssocReducer::new(MomentSpec::new(4, 3, 2))
            .reduce(&q)
            .unwrap();
        let full = VolterraKernels::new(&q, 0).unwrap();
        let red = VolterraKernels::new(rom.system(), 0).unwrap();
        for (s1, s2) in [
            (Complex::new(0.0, 0.05), Complex::new(0.0, 0.03)),
            (Complex::new(0.01, 0.02), Complex::new(-0.01, 0.04)),
        ] {
            let a = full.output_h2(s1, s2).unwrap();
            let b = red.output_h2(s1, s2).unwrap();
            assert!(
                (a - b).abs() < 1e-4 * (1.0 + a.abs()),
                "H2 mismatch at ({s1},{s2}): {a} vs {b}"
            );
        }
    }

    #[test]
    fn lift_maps_reduced_states_back_to_full_space() {
        let q = small_qldae();
        let rom = AssocReducer::new(MomentSpec::new(2, 1, 0))
            .reduce(&q)
            .unwrap();
        let xr = vamor_linalg::Vector::from_fn(rom.order(), |i| i as f64 + 1.0);
        let x = rom.lift(&xr);
        assert_eq!(x.len(), 4);
    }

    #[test]
    fn deflation_tolerance_controls_basis_growth() {
        let q = small_qldae();
        let loose = AssocReducer::new(MomentSpec::new(4, 4, 2)).with_deflation_tol(1e-2);
        let tight = AssocReducer::new(MomentSpec::new(4, 4, 2)).with_deflation_tol(1e-14);
        let rom_loose = loose.reduce(&q).unwrap();
        let rom_tight = tight.reduce(&q).unwrap();
        assert!(rom_loose.order() <= rom_tight.order());
        assert!(rom_loose.stats().deflated >= rom_tight.stats().deflated);
    }
}
