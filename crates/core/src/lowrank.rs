//! The low-rank reduction engine: rational-Krylov moment chains and the
//! LR-ADI energy weight, carrying the *reduction itself* (not just the
//! transient) to 10⁴-state systems.
//!
//! # Why a second engine
//!
//! The dense flow ([`crate::AssocMomentGenerator`]) block-diagonalizes a
//! real Schur form of `G₁` and runs its Kronecker-sum solves in those
//! decoupled coordinates — `O(n³)` setup and `O(n³)` per `H₃` moment, plus a
//! dense `n × n` Lyapunov weight for the stabilized projection. All of it
//! stops scaling near 10³ states. This module provides the same moment
//! chains and the same oblique projection built exclusively from **shifted
//! sparse solves** `(G₁ + σI)⁻¹` (near-linear via the PR-3 sparse LU):
//!
//! * **Chains** — every Kronecker-sum recursion runs in a small frame: the
//!   orthonormal *rational Krylov* basis `Q` of `(G₁, b)`
//!   ([`vamor_linalg::rational_krylov_basis`]), whose inverse-power block
//!   reproduces the Taylor directions about `s = 0` and whose ADI-shift
//!   block provides the spectral coverage. The projected `H = Qᵀ G₁ Q` is
//!   block-diagonalized once per chain, `H = V_H D V_H⁻¹`
//!   ([`vamor_linalg::BlockDiagonalSchur`]), and the dense engine's own
//!   recursion then runs in the decoupled frame `V = Q V_H` (`n × k`,
//!   coordinates `x̂ = V_H⁻¹ Qᵀ x`): the `n²`- and `n³`-dimensional iterates
//!   are `k × k` and `k × k²` arrays solved block by block, and the `G₂`/`G₃`
//!   read-outs back-transform through `V` only the entries they touch, with
//!   `k ≪ n`. When `k` saturates the state dimension the projection is
//!   exact, so at test sizes the low-rank chains reproduce the dense chains
//!   to roundoff. `H₃`'s top block is the one engine-specific step: it is
//!   recovered by factored ADI ([`vamor_linalg::fadi_lyapunov`]) on `G₁`
//!   with rank compression after every step.
//! * **Weight** — the energy inner product is the LR-ADI observability
//!   Gramian `M ≈ Z Zᵀ` of `G₁ᵀ M + M G₁ = −CᵀC`
//!   ([`vamor_linalg::lr_adi_lyapunov`]), consumed *in factored form*: the
//!   reduced Gram matrix `Γ = Q̃ᵀ M Q̃ = SᵀS + εI` (`S = Zᵀ Q̃`, small) is
//!   Cholesky-factored and the oblique pair becomes `V = Q̃ L⁻ᵀ`,
//!   `W = M V = Z (Zᵀ V) + ε V`, never materializing the dense `M`.
//! * **Shifts** — one heuristic Penzl/Wachspress sweep
//!   ([`vamor_linalg::heuristic_adi_shifts`]: Arnoldi + inverse-Arnoldi Ritz
//!   values, greedy selection) is shared by the chain bases, the fADI top
//!   blocks and the weight; every shifted factorization is memoized in a
//!   capacity-bounded [`ShiftCache`].
//!
//! # When `Auto` picks it
//!
//! [`ReductionEngine::Auto`] switches from the dense Schur engine to this
//! one at `n ≥ 512` ([`LOWRANK_AUTO_THRESHOLD`]): below that the dense
//! `O(n³)` kernels are faster than the ADI sweeps; above it the dense Schur
//! factorization dominates the reduction wall-time and the low-rank engine's
//! near-linear scaling wins (at 10⁴ states the dense engine would need an
//! 800 MB `G₁` and a multi-hour Schur iteration; the low-rank engine reduces
//! the same line in seconds).

use std::sync::Mutex;

use vamor_linalg::lowrank::{
    compress_factors, fadi_lyapunov, heuristic_adi_shift_pairs, heuristic_adi_shifts,
    lr_adi_lyapunov, rational_krylov_basis, AdiShift, AdiShiftOptions, LrAdiOptions, LrAdiStats,
    ShiftedSolve,
};
use vamor_linalg::{
    CholeskyDecomposition, CsrMatrix, LinalgError, Matrix, PivotRecovery, RunControl, ShiftCache,
    SolverBackend, Vector,
};
use vamor_system::Qldae;

use crate::assoc::{
    h1_chain, h2_d1_seed, h2_recursion, h3_recursion, input_column, CauchyAccumulator, ChainFrame,
    ScaledMoments, TopBlock,
};
use crate::error::MorError;
use crate::stamp::{SharedAssocArtifacts, StampConfig};
use crate::Result;

/// State dimension from which [`ReductionEngine::Auto`] selects the
/// low-rank engine.
pub const LOWRANK_AUTO_THRESHOLD: usize = 512;

/// Default capacity bound of the shifted-LU caches backing ADI sweeps (the
/// sweeps cycle a small shift pool, so a small LRU window suffices).
const ADI_CACHE_CAPACITY: usize = 48;

/// Which reduction engine [`crate::AssocReducer`] / [`crate::NormReducer`]
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReductionEngine {
    /// Dense Schur below [`LOWRANK_AUTO_THRESHOLD`] states, low-rank above.
    #[default]
    Auto,
    /// The dense Schur/Bartels–Stewart engine (exact, `O(n³)`).
    DenseSchur,
    /// The rational-Krylov + LR-ADI engine of this module.
    LowRank,
}

impl ReductionEngine {
    /// Resolves the engine choice for an `n`-state system.
    pub fn use_lowrank(self, n: usize) -> bool {
        match self {
            ReductionEngine::DenseSchur => false,
            ReductionEngine::LowRank => true,
            ReductionEngine::Auto => n >= LOWRANK_AUTO_THRESHOLD,
        }
    }
}

/// Tuning knobs of the low-rank engine.
#[derive(Debug, Clone, Copy)]
pub struct LowRankOptions {
    /// Shifts the Penzl selection keeps (shared by chains, fADI, weight).
    pub shift_count: usize,
    /// Relative residual target of the ADI iterations.
    pub adi_tol: f64,
    /// Iteration cap of the ADI iterations (shifts are cycled).
    pub adi_max_iterations: usize,
    /// Column cap of the rational-Krylov chain bases (per chain).
    pub chain_basis_cap: usize,
    /// Relative truncation tolerance of the factored-rank compression.
    pub compress_tol: f64,
    /// Relative Tikhonov regularization of the reduced weight Gram matrix
    /// (keeps the factored `Z Zᵀ` inner product invertible on directions the
    /// low-rank Gramian barely observes).
    pub weight_regularization: f64,
}

impl Default for LowRankOptions {
    fn default() -> Self {
        LowRankOptions {
            shift_count: 12,
            adi_tol: 1e-11,
            adi_max_iterations: 160,
            chain_basis_cap: 96,
            compress_tol: 1e-13,
            weight_regularization: 1e-10,
        }
    }
}

/// Aggregated health report of the low-rank kernels of one reduction run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowRankDiagnostics {
    /// Total ADI sweeps across all fADI/weight solves.
    pub adi_iterations: usize,
    /// Worst relative ADI residual observed.
    pub adi_peak_residual: f64,
    /// Largest rational-Krylov chain basis dimension.
    pub chain_basis_dim: usize,
    /// Stall-ladder shift perturbation/reselection rounds across all ADI
    /// solves (0 = every sweep healthy).
    pub adi_shift_reselections: usize,
    /// ADI solves that finished above their residual target (the chains
    /// still complete; the weight degrades to plain Galerkin).
    pub adi_nonconverged: usize,
}

impl LowRankDiagnostics {
    fn absorb(&mut self, iterations: usize, residual: f64, basis_dim: usize) {
        self.adi_iterations += iterations;
        if residual.is_finite() {
            self.adi_peak_residual = self.adi_peak_residual.max(residual);
        }
        self.chain_basis_dim = self.chain_basis_dim.max(basis_dim);
    }

    /// Folds another run's diagnostics in: sums the counts, keeps the
    /// larger peak residual and basis dimension.
    pub(crate) fn merge(&mut self, other: &LowRankDiagnostics) {
        self.adi_iterations += other.adi_iterations;
        self.adi_peak_residual = self.adi_peak_residual.max(other.adi_peak_residual);
        self.chain_basis_dim = self.chain_basis_dim.max(other.chain_basis_dim);
        self.adi_shift_reselections += other.adi_shift_reselections;
        self.adi_nonconverged += other.adi_nonconverged;
    }

    fn absorb_adi(&mut self, stats: &LrAdiStats, tol: f64) {
        self.absorb(stats.iterations, stats.residual, 0);
        self.adi_shift_reselections += stats.shift_reselections;
        if !(stats.residual.is_finite() && stats.residual <= tol) {
            // vamor: allow(degradation-events, reason = "aggregation, not detection: the LR-ADI solver already emitted `adi_nonconverged` at its own tail; this re-derives the count from its published stats")
            self.adi_nonconverged += 1;
        }
    }
}

/// `A · M` for a CSR matrix and a (tall, thin) dense factor, column by
/// column — the large-`n` replacement for `g1().matmul(...)` that never
/// materializes the dense `G₁`.
pub(crate) fn csr_matmul(a: &CsrMatrix, m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), m.cols());
    let mut buf = Vector::zeros(a.rows());
    for j in 0..m.cols() {
        a.matvec_into(&m.col(j), &mut buf);
        out.set_col(j, &buf);
    }
    out
}

/// Shared construction of the shift pool: one Ritz sweep over the `G₁`
/// solver, seeded from the input matrix.
fn shift_pool(solver: &dyn ShiftedSolve, b: &Matrix, opts: &LowRankOptions) -> Result<Vec<f64>> {
    heuristic_adi_shifts(
        solver,
        &pool_seed(solver.dim(), b),
        &AdiShiftOptions {
            count: opts.shift_count,
            ..AdiShiftOptions::default()
        },
    )
    .map_err(MorError::Linalg)
}

/// Pair-aware shift pool of the energy-weight LR-ADI solve: keeps the
/// imaginary Ritz parts as complex-conjugate pairs (served through the
/// shifted cache's `SparseZLu` entries). On strongly oscillatory spectra
/// (the LC receiver cascade) pairs converge in far fewer sweeps; on
/// near-real spectra the selection degrades to the classic real shifts.
fn shift_pool_pairs(
    solver: &dyn ShiftedSolve,
    b: &Matrix,
    opts: &LowRankOptions,
) -> Result<Vec<AdiShift>> {
    heuristic_adi_shift_pairs(
        solver,
        &pool_seed(solver.dim(), b),
        &AdiShiftOptions {
            count: opts.shift_count,
            ..AdiShiftOptions::default()
        },
    )
    .map_err(MorError::Linalg)
}

fn pool_seed(n: usize, b: &Matrix) -> Vector {
    let mut seed = Vector::zeros(n);
    for j in 0..b.cols() {
        seed.axpy(1.0, &b.col(j));
    }
    if seed.norm2() == 0.0 || !seed.is_finite() {
        seed = Vector::from_fn(n, |i| 1.0 + (i % 5) as f64);
    }
    seed
}

/// The low-rank engine's chain solver: the shifted cache over `G₁` the
/// rational-Krylov bases and the fADI top blocks solve against, and the
/// heuristic ADI shift pool (positive magnitudes, large to small) one Ritz
/// sweep over it selects.
#[derive(Debug)]
pub(crate) struct ChainShifts {
    pub(crate) cache: ShiftCache,
    pub(crate) shifts: Vec<f64>,
}

impl ChainShifts {
    pub(crate) fn build(
        qldae: &Qldae,
        backend: SolverBackend,
        opts: &LowRankOptions,
    ) -> Result<Self> {
        let cache =
            ShiftCache::new(qldae.g1_csr(), backend).with_capacity_bound(ADI_CACHE_CAPACITY);
        let shifts = shift_pool(&cache, qldae.b(), opts)?;
        Ok(ChainShifts { cache, shifts })
    }

    pub(crate) fn approx_bytes(&self) -> usize {
        self.cache.approx_bytes() + std::mem::size_of_val(self.shifts.as_slice())
    }
}

/// Rational-Krylov moment-vector generator for the associated transfer
/// functions of a polynomial system — the low-rank engine's counterpart of
/// [`crate::AssocMomentGenerator`]. Produces the same `H₁`/`H₂`/`H₃` scaled
/// moment chains, with every `G₁ ⊕ G₁` / `G₁ ⊕ G̃₂` / `G₁⊕G₁⊕G₁` resolvent
/// realized through shifted sparse solves (see the module docs).
#[derive(Debug)]
pub struct LowRankAssocMomentGenerator<'a> {
    qldae: &'a Qldae,
    /// The stamp whose `LU(G₁)`, chain shift cache and shift pool every
    /// chain solves against — possibly shared with other reductions.
    stamp: SharedAssocArtifacts,
    control: RunControl,
    diagnostics: Mutex<LowRankDiagnostics>,
}

impl<'a> LowRankAssocMomentGenerator<'a> {
    /// Prepares the generator: `LU(G₁)`, the shifted cache, and the heuristic
    /// ADI shift pool.
    ///
    /// # Errors
    ///
    /// Returns an error if `G₁` is singular (the `s = 0` expansion point
    /// requires a regular `G₁`, exactly like the dense generator).
    pub fn new(qldae: &'a Qldae, backend: SolverBackend, opts: LowRankOptions) -> Result<Self> {
        let n = qldae.g1_csr().rows();
        let stamp = SharedAssocArtifacts::new(qldae, StampConfig::resolve(n, backend, true, opts))?;
        Self::with_stamp(qldae, &stamp)
    }

    /// The generator over a low-rank stamp; its chain shift cache and shift
    /// pool are built here only if no reduction over the stamp has asked
    /// for them yet.
    pub(crate) fn with_stamp(qldae: &'a Qldae, stamp: &SharedAssocArtifacts) -> Result<Self> {
        stamp.chain(qldae)?;
        Ok(LowRankAssocMomentGenerator {
            qldae,
            stamp: stamp.clone(),
            control: RunControl::new(),
            diagnostics: Mutex::new(LowRankDiagnostics::default()),
        })
    }

    /// Attaches a cooperative [`RunControl`]: every chain step and every ADI
    /// sweep of this generator then runs a checkpoint, so a cancellation or
    /// a passed deadline surfaces as a typed [`LinalgError::Interrupted`]
    /// from the moment routines.
    #[must_use]
    pub fn with_control(mut self, control: RunControl) -> Self {
        self.control = control;
        self
    }

    /// What the pivot degradation ladder did while factoring `G₁`
    /// (`PivotRecovery::default()` = healthy first try).
    pub fn pivot_recovery(&self) -> PivotRecovery {
        self.stamp.recovery()
    }

    /// Aggregated ADI/basis diagnostics of every chain generated so far.
    pub fn diagnostics(&self) -> LowRankDiagnostics {
        *self.diagnostics.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn record(&self, iterations: usize, residual: f64, basis_dim: usize) {
        self.diagnostics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .absorb(iterations, residual, basis_dim);
    }

    /// `H₁` moments about `s = 0` with per-candidate normalization — the
    /// chains are plain `G₁⁻¹` sweeps, identical to the dense generator.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index or a failed solve.
    pub fn h1_moments_scaled(&self, input: usize, count: usize) -> Result<ScaledMoments> {
        h1_chain(self.stamp.g1_lu(), input_column(self.qldae, input)?, count)
    }

    /// The chain's Krylov frame: the orthonormal rational-Krylov basis `Q`
    /// of `seeds`, decoupled by its reduced matrix `H = Qᵀ G₁ Q`. Returns
    /// `Q` too: the factored `H₃` top block's right forcing factor.
    fn chain_frame(&self, seeds: &[Vector], depth: usize) -> Result<(Matrix, ChainFrame<'static>)> {
        let chain = self.stamp.chain(self.qldae)?;
        let q = rational_krylov_basis(
            &chain.cache,
            seeds,
            &chain.shifts,
            depth,
            self.stamp.config().opts.chain_basis_cap,
            &self.control,
        )
        .map_err(MorError::Linalg)?;
        let f = csr_matmul(self.qldae.g1_csr(), &q);
        let h = q.transpose().matmul(&f);
        self.record(0, 0.0, q.cols());
        let frame = ChainFrame::krylov(&q, &h)?;
        Ok((q, frame))
    }

    /// `H₂` scaled moments: the dense engine's recursion
    /// ([`crate::AssocMomentGenerator::h2_moments_scaled`]) run in the
    /// chain's Krylov frame (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid input indices or singular pencils.
    pub fn h2_moments_scaled(
        &self,
        input_a: usize,
        input_b: usize,
        count: usize,
    ) -> Result<ScaledMoments> {
        if count == 0 {
            return Ok(ScaledMoments::with_capacity(0));
        }
        let b_a = input_column(self.qldae, input_a)?;
        let b_b = input_column(self.qldae, input_b)?;
        let d_seed = h2_d1_seed(self.qldae, (input_a, input_b), &b_a, &b_b);
        let mut seeds = vec![b_a.clone()];
        if input_a != input_b {
            seeds.push(b_b.clone());
        }
        let (_, frame) = self.chain_frame(&seeds, count + 1)?;
        let chain = CauchyAccumulator::new(self.stamp.g1_lu(), self.stamp.n(), count, d_seed);
        h2_recursion(
            &frame,
            self.qldae.g2(),
            (&b_a, &b_b),
            chain,
            count,
            &self.control,
        )
    }

    /// `H₃` scaled moments: the dense engine's recursion
    /// ([`crate::AssocMomentGenerator::h3_moments_scaled`]) run in the
    /// chain's Krylov frame, except that with a `G₂` the top block is
    /// recovered by factored ADI on `G₁` with rank compression (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index or singular pencils.
    pub fn h3_moments_scaled(&self, input: usize, count: usize) -> Result<ScaledMoments> {
        if count == 0 {
            return Ok(ScaledMoments::with_capacity(0));
        }
        let n = self.stamp.n();
        let b = input_column(self.qldae, input)?;
        let d1 = self.qldae.d1().get(input);
        let d1b = d1.map(|d| d.matvec(&b));
        let (q, frame) = self.chain_frame(std::slice::from_ref(&b), count + 2)?;
        let opts = self.stamp.config().opts;
        let shifts = self.stamp.chain(self.qldae)?;
        // Non-strict: the chain tolerates a residual above `adi_tol` (the
        // stall ladder still perturbs shifts), and the nonconvergence is
        // recorded in the diagnostics instead of aborting the chain.
        let adi = LrAdiOptions {
            tol: opts.adi_tol,
            max_iterations: opts.adi_max_iterations,
            strict: false,
            ..LrAdiOptions::default()
        };
        let fadi = |u0: &Matrix, w0: &Matrix| {
            let sol = fadi_lyapunov(&shifts.cache, u0, w0, &shifts.shifts, &adi, &self.control)
                .map_err(MorError::Linalg)?;
            self.diagnostics
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .absorb_adi(&sol.stats, adi.tol);
            compress_factors(&sol.u, &sol.v, opts.compress_tol).map_err(MorError::Linalg)
        };
        // Top block Z_t = U Wᵀ, Z_t,₀ = (D₁b) bᵀ — only `G₂` reads it.
        let top = (self.qldae.g2().nnz() > 0).then(|| {
            let (u, w) = match &d1b {
                Some(db) if db.norm2() > 0.0 => (
                    Matrix::from_fn(n, 1, |i, _| db[i]),
                    Matrix::from_fn(n, 1, |i, _| b[i]),
                ),
                _ => (Matrix::zeros(n, 1), Matrix::zeros(n, 1)),
            };
            TopBlock::Factored {
                u,
                w,
                q: &q,
                solve: &fadi,
            }
        });
        let d_chain = d1.zip(d1b.as_ref()).map(|(d, db)| d.matvec(db));
        let chain = CauchyAccumulator::new(self.stamp.g1_lu(), n, count, d_chain);
        h3_recursion(&frame, self.qldae, &b, top, chain, count, &self.control)
    }
}

/// Forwarding name of [`LowRankAssocMomentGenerator`], which covers cubic
/// systems.
pub type LowRankCubicMomentGenerator<'a> = LowRankAssocMomentGenerator<'a>;

/// The LR-ADI energy weight `M ≈ Z Zᵀ` of `G₁ᵀ M + M G₁ = −CᵀC`, or `None`
/// when the ADI run fails or stalls (the caller degrades to plain Galerkin
/// with the spectral guard, mirroring the dense frame's behaviour for
/// non-Hurwitz systems).
#[derive(Debug)]
pub(crate) struct LowRankWeight {
    pub z: Option<Matrix>,
    pub adi_iterations: usize,
    pub adi_residual: f64,
    /// Stall-ladder shift reselections the weight solve took.
    pub shift_reselections: usize,
    /// True when the weight solve finished above its acceptance gate and the
    /// projection degrades to plain Galerkin.
    pub nonconverged: bool,
}

impl LowRankWeight {
    fn degraded() -> Self {
        LowRankWeight {
            z: None,
            adi_iterations: 0,
            adi_residual: f64::NAN,
            shift_reselections: 0,
            nonconverged: true,
        }
    }
}

/// Builds the factored observability weight from the CSR stamp of `G₁` and
/// the output matrix, using a transposed shifted cache (`A = G₁ᵀ`).
///
/// The weight is best-effort: any numerical failure degrades to `z: None`
/// (plain Galerkin with the spectral guard). Only a cooperative stop of the
/// `control` token is propagated as an error.
///
/// # Errors
///
/// [`LinalgError::Interrupted`] (wrapped in [`MorError::Linalg`]) when
/// `control` is cancelled or past its deadline mid-sweep.
pub(crate) fn lowrank_weight(
    g1_csr: &CsrMatrix,
    c: &Matrix,
    backend: SolverBackend,
    opts: &LowRankOptions,
    control: &RunControl,
) -> Result<LowRankWeight> {
    let solver =
        ShiftCache::new(&g1_csr.transpose(), backend).with_capacity_bound(ADI_CACHE_CAPACITY);
    let b = c.transpose();
    let built = shift_pool_pairs(&solver, &b, opts).and_then(|shifts| {
        lr_adi_lyapunov(
            &solver,
            &b,
            &shifts,
            // Non-strict: the 1e-4 acceptance gate below decides whether the
            // factor is usable; a stalled run degrades instead of erroring.
            &LrAdiOptions {
                tol: opts.adi_tol,
                max_iterations: opts.adi_max_iterations,
                strict: false,
                ..LrAdiOptions::default()
            },
            control,
        )
        .map_err(MorError::Linalg)
    });
    match built {
        Ok(sol) => {
            let converged = sol.stats.residual.is_finite() && sol.stats.residual <= 1e-4;
            Ok(LowRankWeight {
                adi_iterations: sol.stats.iterations,
                adi_residual: sol.stats.residual,
                shift_reselections: sol.stats.shift_reselections,
                nonconverged: !converged,
                z: converged.then_some(sol.z),
            })
        }
        Err(MorError::Linalg(e @ LinalgError::Interrupted(_))) => Err(MorError::Linalg(e)),
        Err(_) => Ok(LowRankWeight::degraded()),
    }
}

/// Inverse of a small lower-triangular matrix by forward substitution.
fn lower_triangular_inverse(l: &Matrix) -> Result<Matrix> {
    let q = l.rows();
    let mut inv = Matrix::zeros(q, q);
    for j in 0..q {
        let mut col = Vector::zeros(q);
        col[j] = 1.0;
        for i in 0..q {
            let mut acc = col[i];
            for p in 0..i {
                acc -= l[(i, p)] * col[p];
            }
            if l[(i, i)] == 0.0 {
                return Err(MorError::Invalid(
                    "singular triangular factor in low-rank weight".into(),
                ));
            }
            col[i] = acc / l[(i, i)];
        }
        inv.set_col(j, &col);
    }
    Ok(inv)
}

/// Recovers the oblique pair `(V, W)` from a Euclidean-orthonormal basis
/// prefix and the factored weight: `Γ = SᵀS + εI` with `S = Zᵀ Q̃`,
/// `Γ = L Lᵀ`, `V = Q̃ L⁻ᵀ`, `W = M V = Z (Zᵀ V) + ε V` — so `Wᵀ V = I`
/// exactly and `V` is `M`-orthonormal, all without materializing `M`.
pub(crate) fn lowrank_vw(
    qtil: &Matrix,
    z: Option<&Matrix>,
    regularization: f64,
) -> Result<(Matrix, Matrix)> {
    let Some(z) = z else {
        return Ok((qtil.clone(), qtil.clone()));
    };
    let s = z.transpose().matmul(qtil); // r × q
    let mut gamma = s.transpose().matmul(&s); // q × q
    let mut peak = 0.0_f64;
    for i in 0..gamma.rows() {
        peak = peak.max(gamma[(i, i)]);
    }
    let eps = (peak.max(f64::MIN_POSITIVE)) * regularization.max(f64::EPSILON);
    for i in 0..gamma.rows() {
        gamma[(i, i)] += eps;
    }
    let chol = CholeskyDecomposition::new(&gamma).map_err(MorError::Linalg)?;
    let linv = lower_triangular_inverse(chol.l())?;
    let v = qtil.matmul(&linv.transpose());
    let sv = s.matmul(&linv.transpose()); // Zᵀ V
    let mut w = z.matmul(&sv);
    w.axpy(eps, &v);
    Ok((v, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::AssocMomentGenerator;
    use vamor_linalg::{CooMatrix, SchurDecomposition};
    use vamor_system::QldaeBuilder;

    fn chain_qldae(n: usize, with_d1: bool) -> Qldae {
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
        if with_d1 {
            b = b.d1_entry(0, 1, 1, 0.3).d1_entry(0, 0, 2, -0.2);
        }
        b.b_entry(0, 0, 1.0)
            .b_entry(2, 0, 0.4)
            .output_state(n - 1)
            .build()
            .unwrap()
    }

    fn assert_chains_close(raw: &ScaledMoments, low: &ScaledMoments, tol: f64, label: &str) {
        assert_eq!(
            raw.vectors.len(),
            low.vectors.len(),
            "{label}: chain length"
        );
        for (k, (a, b)) in raw.vectors.iter().zip(low.vectors.iter()).enumerate() {
            let diff = (a - b).norm_inf();
            assert!(
                diff <= tol,
                "{label}: moment {k} differs by {diff:.3e} (unit-norm candidates)"
            );
        }
    }

    /// A damped oscillatory chain with two inputs, a `D₁` on the second, a
    /// `G₂` and a `G₃`: `G₁`'s antisymmetric coupling gives complex pairs
    /// only, so every Krylov frame decouples into standardized 2×2 blocks.
    /// Its spectrum yields a one-shift pool, so a frame of `count` moments
    /// holds `count + 3` columns or fewer; at `n = 6` they span the state
    /// space.
    fn oscillatory_qldae(n: usize) -> Qldae {
        let mut b = QldaeBuilder::new(n, 2);
        for i in 0..n {
            b = b.g1_entry(i, i, -(0.6 + 0.1 * i as f64));
            if i + 1 < n {
                b = b.g1_entry(i, i + 1, 0.9).g1_entry(i + 1, i, -0.9);
            }
        }
        let mut g3 = CooMatrix::new(n, n * n * n);
        g3.push(1, 0, 0.2);
        g3.push(n - 1, n * n + 2 * n + 1, -0.1);
        b.g2_entry(0, 0, 1, 0.3)
            .g2_entry(n - 1, 0, 0, -0.2)
            .g2_entry(2, 3, 1, 0.25)
            .d1_entry(1, 0, 2, 0.2)
            .b_entry(0, 0, 1.0)
            .b_entry(3, 0, 0.5)
            .b_entry(n - 1, 1, 1.0)
            .b_entry(1, 1, -0.4)
            .output_state(n - 1)
            .build()
            .unwrap()
            .with_g3(g3.to_csr())
            .unwrap()
    }

    /// Rational-Krylov chains against the dense chains: at these sizes the
    /// chain bases span all, or on the 12- and 14-state chains 10 columns,
    /// of the state space, and the two generators agree to roundoff or near
    /// it. The oscillatory system's `H₂` cross pair and both inputs' `H₃`
    /// chains check the frames' standardized 2×2 blocks and the
    /// factored-ADI top block.
    #[test]
    fn lowrank_chains_match_dense_chains() {
        let oscillatory = oscillatory_qldae(6);
        let g1 = oscillatory.g1();
        let dec = vamor_linalg::BlockDiagonalSchur::new(SchurDecomposition::new(g1).unwrap());
        assert!(dec
            .blocks()
            .iter()
            .all(|b| matches!(b, vamor_linalg::DiagBlock::Complex { .. })));
        let systems = [
            chain_qldae(14, false),
            chain_qldae(14, true),
            crate::assoc::tests::mixed_qldae(12, 7),
            oscillatory,
        ];
        for q in systems {
            let dense = AssocMomentGenerator::new(&q).unwrap();
            let low = LowRankAssocMomentGenerator::new(
                &q,
                SolverBackend::Dense,
                LowRankOptions::default(),
            )
            .unwrap();
            let inputs = q.b().cols();
            for input in 0..inputs {
                assert_chains_close(
                    &dense.h1_moments_scaled(input, 5).unwrap(),
                    &low.h1_moments_scaled(input, 5).unwrap(),
                    1e-12,
                    &format!("h1 input {input}"),
                );
                for other in input..inputs {
                    assert_chains_close(
                        &dense.h2_moments_scaled(input, other, 4).unwrap(),
                        &low.h2_moments_scaled(input, other, 4).unwrap(),
                        1e-9,
                        &format!("h2 inputs ({input}, {other})"),
                    );
                }
                assert_chains_close(
                    &dense.h3_moments_scaled(input, 3).unwrap(),
                    &low.h3_moments_scaled(input, 3).unwrap(),
                    1e-8,
                    &format!("h3 input {input}"),
                );
            }
            let diag = low.diagnostics();
            assert!(diag.chain_basis_dim >= 1);
            assert!(diag.adi_peak_residual <= 1e-8 || diag.adi_iterations == 0);
        }
    }

    #[test]
    fn lowrank_cubic_chains_match_dense_chains() {
        let n = 10;
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
        g3.push(0, 0, 0.5);
        g3.push(1, n * n + n + 1, -0.3);
        g3.push(2, 2 * n * n, 0.1);
        let ode = builder
            .output_state(n - 1)
            .build()
            .unwrap()
            .with_g3(g3.to_csr())
            .unwrap();
        let dense = AssocMomentGenerator::new(&ode).unwrap();
        let low =
            LowRankAssocMomentGenerator::new(&ode, SolverBackend::Dense, LowRankOptions::default())
                .unwrap();
        assert_chains_close(
            &dense.h1_moments_scaled(0, 4).unwrap(),
            &low.h1_moments_scaled(0, 4).unwrap(),
            1e-12,
            "cubic h1",
        );
        assert_chains_close(
            &dense.h3_moments_scaled(0, 3).unwrap(),
            &low.h3_moments_scaled(0, 3).unwrap(),
            1e-8,
            "cubic h3",
        );
    }

    #[test]
    fn lowrank_weight_produces_biorthonormal_projection_pair() {
        let q = chain_qldae(12, false);
        let weight = lowrank_weight(
            q.g1_csr(),
            q.c(),
            SolverBackend::Dense,
            &LowRankOptions::default(),
            &RunControl::new(),
        )
        .unwrap();
        assert!(weight.z.is_some());
        assert!(!weight.nonconverged);
        assert!(weight.adi_residual <= 1e-8);
        // A Euclidean-orthonormal 3-column basis.
        let mut basis = vamor_linalg::OrthoBasis::new(12);
        basis
            .extend_from((0..3).map(|j| Vector::from_fn(12, |i| ((i + j) % 4) as f64 - 1.0)))
            .unwrap();
        let qtil = basis.to_matrix().unwrap();
        let (v, w) = lowrank_vw(&qtil, weight.z.as_ref(), 1e-10).unwrap();
        let wtv = w.transpose().matmul(&v);
        assert!(
            (&wtv - &Matrix::identity(3)).max_abs() < 1e-8,
            "WᵀV ≠ I: {:.3e}",
            (&wtv - &Matrix::identity(3)).max_abs()
        );
        // V is M-orthonormal up to the ε-regularization: the deviation
        // V'ᵀ(ZZᵀ)V − I equals −ε Γ⁻¹, which only grows along directions the
        // low-rank Gramian barely observes — bound it loosely and check the
        // well-observed diagonal tightly.
        let m = weight.z.as_ref().unwrap();
        let mv = m.transpose().matmul(&v);
        let gram = mv.transpose().matmul(&mv);
        let dev = &gram - &Matrix::identity(3);
        assert!(dev.max_abs() <= 1.0, "deviation {:.3e}", dev.max_abs());
        for i in 0..3 {
            assert!(gram[(i, i)] > 0.5, "diag {} = {:.3e}", i, gram[(i, i)]);
        }
    }

    #[test]
    fn engine_auto_threshold() {
        assert!(!ReductionEngine::Auto.use_lowrank(LOWRANK_AUTO_THRESHOLD - 1));
        assert!(ReductionEngine::Auto.use_lowrank(LOWRANK_AUTO_THRESHOLD));
        assert!(!ReductionEngine::DenseSchur.use_lowrank(10_000));
        assert!(ReductionEngine::LowRank.use_lowrank(4));
    }
}
