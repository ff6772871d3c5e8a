//! Moment generation for the *associated* (single-`s`) Volterra transfer
//! functions — the heart of the paper's method.
//!
//! Applying the association of variables to the multivariate kernels of a
//! QLDAE yields single-variable transfer functions with explicit state-space
//! realizations (Eqs. 15–17 of the paper):
//!
//! ```text
//! H₂(s) = (sI − G₁)⁻¹ [ G₂ (sI − G₁⊕G₁)⁻¹ (b ⊗ b) + D₁ b ]
//! H₃(s) = (sI − G₁)⁻¹ [ G₂ H̃₃(s) + D₁² b ]
//! H̃₃(s) = (Iₙ⊗c̃₂)(sI − G₁⊕G̃₂)⁻¹(b⊗b̃₂) + (c̃₂⊗Iₙ)(sI − G̃₂⊕G₁)⁻¹(b̃₂⊗b)
//! ```
//!
//! The Taylor (moment) expansion of these functions around `s = 0` is what
//! the projection matrix must span. [`AssocMomentGenerator`] computes those
//! moment vectors directly from the structured realizations:
//!
//! * the `G₁⊕G₁` resolvent powers are Lyapunov solves (Bartels–Stewart with
//!   the cached Schur form of `G₁`),
//! * the `G₁⊕G̃₂` resolvent powers are big-left/small-right Sylvester solves
//!   ([`crate::bigsmall`]) against the structured block operator
//!   [`crate::operators::BlockH2Op`], and the two terms of `H̃₃` are
//!   transposes of one another so only one solve sequence is required,
//!
//! exactly the computational structure §2.3 of the paper describes, with the
//! dimension growing as `O(k₁+k₂+k₃)` instead of the `O(k₁+k₂³+k₃⁴)` of
//! multivariate (NORM-style) moment matching.

use std::sync::Arc;

use vamor_linalg::kron::vec_of;
use vamor_linalg::sparse_lu::SPARSE_AUTO_THRESHOLD;
use vamor_linalg::{
    kron_vec, CsrMatrix, Matrix, PivotRecovery, SchurDecomposition, ShiftCache, SolverBackend,
    Vector,
};
use vamor_system::{CubicOde, Qldae};

use crate::bigsmall::solve_sylvester_big_small_with_schur;
use crate::error::MorError;
use crate::operators::{BlockH2Op, KronSumOp2, ShiftedSolveOp};
use crate::Result;

// The factorization of `G₁` the moment recursions solve against, in either
// backend (dense and bit-identical to the pre-PR-3 behaviour below the
// shared `SPARSE_AUTO_THRESHOLD`; sparse and near-linear above it).
pub(crate) use vamor_linalg::LuFactor as G1Factor;

/// A chain of moment candidates with per-candidate scaling split off.
///
/// The raw moment chains grow (or decay) geometrically in norm — `G₁⁻¹`
/// applied `k` times multiplies the magnitude by up to `‖G₁⁻¹‖ᵏ` — so late
/// candidates handed to the orthonormalization at their raw scale are either
/// destroyed by cancellation against the deflation test or overflow outright.
/// The scaled generators keep every candidate at unit Euclidean norm and
/// record the discarded magnitude as `log10`, which the reducers surface via
/// [`crate::ReductionStats::moment_log10_peak`]. Only the *span* of the
/// candidates enters the projection, so the scaling is exact.
#[derive(Debug, Clone)]
pub struct ScaledMoments {
    /// Unit-norm candidate vectors (a trailing vector may be zero or
    /// non-finite if the chain collapsed or overflowed; the basis accumulator
    /// deflates those).
    pub vectors: Vec<Vector>,
    /// `log10` of the Euclidean norm each candidate had before normalization
    /// (`-inf` for an exactly zero candidate).
    pub log10_magnitudes: Vec<f64>,
}

impl ScaledMoments {
    /// Largest recorded magnitude (as `log10`), or `0.0` for an empty chain.
    pub fn log10_peak(&self) -> f64 {
        self.log10_magnitudes
            .iter()
            .copied()
            .filter(|m| m.is_finite())
            .fold(0.0, f64::max)
    }

    pub(crate) fn push(&mut self, mut v: Vector, frame_log10: f64) {
        let mag = v.norm2();
        if mag > 0.0 && mag.is_finite() {
            v.scale_mut(1.0 / mag);
            self.log10_magnitudes.push(frame_log10 + mag.log10());
        } else {
            // Zero or overflowed candidate: hand it through untouched so the
            // basis accumulator can count it as deflated.
            self.log10_magnitudes.push(if mag == 0.0 {
                f64::NEG_INFINITY
            } else {
                mag.log10()
            });
        }
        self.vectors.push(v);
    }

    pub(crate) fn with_capacity(count: usize) -> Self {
        ScaledMoments {
            vectors: Vec::with_capacity(count),
            log10_magnitudes: Vec::with_capacity(count),
        }
    }
}

/// The scaled `H₁` chain shared by every generator (dense and low-rank,
/// QLDAE and cubic): repeated `G₁⁻¹` applications with the running iterate
/// renormalized after every solve, the discarded magnitudes tracked as
/// `log10` frames.
pub(crate) fn h1_chain(g1_lu: &G1Factor, seed: Vector, count: usize) -> Result<ScaledMoments> {
    let mut v = seed;
    let mut out = ScaledMoments::with_capacity(count);
    let mut frame = 0.0;
    for _ in 0..count {
        v = g1_lu.solve(&v).map_err(MorError::Linalg)?;
        out.push(v.clone(), frame);
        let mag = v.norm2();
        if mag > 0.0 && mag.is_finite() {
            frame += mag.log10();
            v.scale_mut(1.0 / mag);
        } else {
            break;
        }
    }
    Ok(out)
}

/// Rescales the recursion state of a moment chain so every stored vector
/// stays `O(1)`; returns the `log10` of the applied factor (to be added to
/// the running frame magnitude).
pub(crate) fn rescale_state(state: &mut [&mut Vector], extra: Option<&mut Matrix>) -> f64 {
    let mut peak = 0.0_f64;
    for v in state.iter() {
        peak = peak.max(v.norm_inf());
    }
    if let Some(m) = &extra {
        peak = peak.max(m.max_abs());
    }
    if peak == 0.0 || !peak.is_finite() {
        return 0.0;
    }
    let inv = 1.0 / peak;
    for v in state.iter_mut() {
        v.scale_mut(inv);
    }
    if let Some(m) = extra {
        for x in m.as_mut_slice() {
            *x *= inv;
        }
    }
    peak.log10()
}

/// The stamp-keyed solver artifacts a [`ReductionSession`](crate::session)
/// shares across requests: the `s = 0` factorization of `G₁`, its Schur
/// form, and the structured `H₂`/`H₃` block operator (which owns the
/// `G₁ ⊕ G₁` operator and the shifted-solve cache). Cheap to clone (all
/// `Arc`s); every artifact is immutable or internally synchronized, so one
/// set serves concurrent requests.
#[derive(Debug, Clone)]
pub struct SharedAssocArtifacts {
    pub(crate) g1_lu: Arc<G1Factor>,
    pub(crate) recovery: PivotRecovery,
    pub(crate) block_op: Arc<BlockH2Op>,
    pub(crate) g1_schur: Arc<SchurDecomposition>,
    pub(crate) n: usize,
}

impl SharedAssocArtifacts {
    /// Factors the shared artifacts for `qldae` once: `LU(G₁)` through the
    /// pivot degradation ladder, one Schur form of `G₁`, and the block
    /// operator with a [`ShiftCache`] in the backend `backend` picks.
    ///
    /// # Errors
    ///
    /// Same contract as [`AssocMomentGenerator::new`] — a singular `G₁` is
    /// reported as a typed error.
    pub fn build(qldae: &Qldae, backend: SolverBackend) -> Result<Self> {
        let n = qldae.g1_csr().rows();
        let sparse = backend.use_sparse(n, SPARSE_AUTO_THRESHOLD);
        let (g1_lu, recovery) =
            G1Factor::build_with_recovery(qldae.g1_csr(), sparse).map_err(MorError::Linalg)?;
        let g1 = qldae.g1();
        let kron_op = KronSumOp2::new(g1)?;
        let g1_schur = Arc::new(kron_op.a_schur());
        let cache = ShiftCache::new(qldae.g1_csr(), backend);
        let block_op = BlockH2Op::with_kron_cache(g1, qldae.g2(), kron_op, cache)?;
        Ok(SharedAssocArtifacts {
            g1_lu: Arc::new(g1_lu),
            recovery,
            block_op: Arc::new(block_op),
            g1_schur,
            n,
        })
    }

    /// System order the artifacts were factored for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The shared `s = 0` factorization of `G₁`.
    pub(crate) fn g1_lu(&self) -> &G1Factor {
        &self.g1_lu
    }

    /// Approximate heap footprint for the session memory-budget governor:
    /// the `G₁` factor, the Schur pair of `G₁`, and the block operator as
    /// built (dense `G₁`, `G₂`, the `G₁ ⊕ G₁` Schur machinery, the
    /// shifted-solve cache's base and `σ = 0` factor — the cache grows
    /// beyond this as shifts accumulate; the estimate covers the fixed part).
    pub fn approx_bytes(&self) -> usize {
        self.g1_lu.approx_bytes()
            + std::mem::size_of_val(self.g1_schur.q().as_slice())
            + std::mem::size_of_val(self.g1_schur.t().as_slice())
            + self.block_op.approx_bytes()
    }
}

/// Moment-vector generator for the associated transfer functions of a QLDAE.
#[derive(Debug)]
pub struct AssocMomentGenerator<'a> {
    qldae: &'a Qldae,
    /// `LU(G₁)`, the Schur form of `G₁` (reused by every big-left/small-right
    /// Sylvester solve) and the block operator — possibly session-shared.
    shared: SharedAssocArtifacts,
}

impl<'a> AssocMomentGenerator<'a> {
    /// Prepares the cached factorizations (`LU(G₁)`, one shared Schur of
    /// `G₁`, the shifted-LU cache of the block realization).
    ///
    /// # Errors
    ///
    /// Returns an error if `G₁` is singular — expansion about `s = 0`
    /// requires a regular `G₁`, as in the paper.
    pub fn new(qldae: &'a Qldae) -> Result<Self> {
        Self::with_options(qldae, SolverBackend::Auto)
    }

    /// Prepares the generator with an explicit linear-solver backend for the
    /// `G₁` solves (the repeated `G₁⁻¹` applications of the moment chains
    /// and the shifted top-block solves of the `H₃` realization). `Auto`
    /// switches to the sparse direct solver at `n ≥ 256`; the `G₁ ⊕ G₁`
    /// Schur machinery of the bottom block is dense in every mode.
    ///
    /// # Errors
    ///
    /// Same contract as [`AssocMomentGenerator::new`].
    pub fn with_options(qldae: &'a Qldae, backend: SolverBackend) -> Result<Self> {
        let shared = SharedAssocArtifacts::build(qldae, backend)?;
        Ok(AssocMomentGenerator { qldae, shared })
    }

    /// Builds a generator on top of session-shared artifacts: no
    /// factorization happens here — the `G₁` LU, the Schur form and the
    /// block operator (with its shifted-solve cache) are the shared ones,
    /// so every request of a session amortizes the same `s = 0` and
    /// eigenvalue-shift factorizations.
    ///
    /// # Errors
    ///
    /// Returns [`MorError::Invalid`] when the artifacts were factored for a
    /// different system order than `qldae`.
    pub fn with_shared(qldae: &'a Qldae, shared: &SharedAssocArtifacts) -> Result<Self> {
        if shared.n != qldae.g1().rows() {
            return Err(MorError::Invalid(format!(
                "shared artifacts were factored for order {} but the system has order {}",
                shared.n,
                qldae.g1().rows()
            )));
        }
        Ok(AssocMomentGenerator {
            qldae,
            shared: shared.clone(),
        })
    }

    /// What the pivot degradation ladder did while factoring `G₁`
    /// (`PivotRecovery::default()` = healthy first try).
    pub fn pivot_recovery(&self) -> PivotRecovery {
        self.shared.recovery
    }

    /// The cached Schur form of `G₁`, so downstream consumers (the
    /// stabilized projection, the spectral guard) can reuse it instead of
    /// refactorizing.
    pub fn g1_schur(&self) -> &SchurDecomposition {
        &self.shared.g1_schur
    }

    fn n(&self) -> usize {
        self.qldae.g1().rows()
    }

    fn b_col(&self, input: usize) -> Result<Vector> {
        if input >= self.qldae.b().cols() {
            return Err(MorError::Invalid(format!(
                "input index {input} out of range for a {}-input system",
                self.qldae.b().cols()
            )));
        }
        Ok(self.qldae.b().col(input))
    }

    fn d1(&self, input: usize) -> Option<&CsrMatrix> {
        self.qldae.d1().get(input)
    }

    /// Moments of `H₁(s) = (sI − G₁)⁻¹ b` about `s = 0`:
    /// `G₁⁻¹ b, G₁⁻² b, …` (signs dropped; only the span matters), with
    /// per-candidate normalization: the running Krylov iterate is rescaled
    /// to unit norm after every solve, so arbitrarily long chains neither
    /// overflow nor poison the deflation test, and the discarded magnitudes
    /// are reported alongside (the raw moment `k` is
    /// `vectors[k] · 10^log10_magnitudes[k]`).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index or a failed solve.
    pub fn h1_moments_scaled(&self, input: usize, count: usize) -> Result<ScaledMoments> {
        h1_chain(&self.shared.g1_lu, self.b_col(input)?, count)
    }

    /// Moments of the associated second-order transfer function `H₂(s)`
    /// about `s = 0` for the input pair `(input_a, input_b)`:
    ///
    /// `m_k = Σ_{i+j=k} G₁^{-(i+1)} G₂ w_j − G₁^{-(k+1)} d`,
    /// with `w_j = (G₁⊕G₁)^{-(j+1)} (b_a ⊗ b_b)` and
    /// `d = D₁ᵃ b_b + D₁ᵇ b_a` (halved for a repeated input so the SISO case
    /// reduces to the paper's `D₁ b`).
    ///
    /// The whole recursion state (the `w_j` Lyapunov iterate, the Cauchy
    /// accumulators and the `D₁` chain) is rescaled by a common factor after
    /// every moment, which is exact on the spanned subspace and keeps every
    /// intermediate `O(1)`; the candidates are unit-norm with their
    /// magnitudes reported as in
    /// [`AssocMomentGenerator::h1_moments_scaled`].
    ///
    /// # Errors
    ///
    /// Returns an error for invalid input indices or a singular Kronecker-sum
    /// pencil.
    pub fn h2_moments_scaled(
        &self,
        input_a: usize,
        input_b: usize,
        count: usize,
    ) -> Result<ScaledMoments> {
        if count == 0 {
            return Ok(ScaledMoments::with_capacity(0));
        }
        let b_a = self.b_col(input_a)?;
        let b_b = self.b_col(input_b)?;
        let mut d_chain = Vector::zeros(self.n());
        if let Some(da) = self.d1(input_a) {
            d_chain.axpy(1.0, &da.matvec(&b_b));
        }
        if let Some(db) = self.d1(input_b) {
            d_chain.axpy(1.0, &db.matvec(&b_a));
        }
        if input_a == input_b {
            d_chain.scale_mut(0.5);
        }

        let mut w = kron_vec(&b_a, &b_b);
        let mut acc: Vec<Vector> = Vec::with_capacity(count);
        let mut scratch = Vector::zeros(self.n());
        let mut out = ScaledMoments::with_capacity(count);
        let mut frame = 0.0;
        for _ in 0..count {
            w = self.shared.block_op.kron().solve_shifted(0.0, &w)?;
            let g2w_k = self.qldae.g2().matvec(&w);
            for a in acc.iter_mut() {
                scratch.copy_from(a);
                self.shared
                    .g1_lu
                    .solve_into(&scratch, a)
                    .map_err(MorError::Linalg)?;
            }
            acc.push(self.shared.g1_lu.solve(&g2w_k).map_err(MorError::Linalg)?);
            scratch.copy_from(&d_chain);
            self.shared
                .g1_lu
                .solve_into(&scratch, &mut d_chain)
                .map_err(MorError::Linalg)?;
            let mut m_k = Vector::zeros(self.n());
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            m_k.axpy(-1.0, &d_chain);
            out.push(m_k, frame);

            let mut state: Vec<&mut Vector> = acc.iter_mut().collect();
            state.push(&mut w);
            state.push(&mut d_chain);
            frame += rescale_state(&mut state, None);
        }
        Ok(out)
    }

    /// Moments of the associated third-order transfer function `H₃(s)` about
    /// `s = 0` for a single input, per the realization in the module docs:
    /// the `Z_j` sequence solves `G̃₂ Z + Z G₁ᵀ = Z_{j−1}` from `b̃₂ bᵀ`
    /// against the cached Schur form of `G₁`, and
    /// `ν_j = vec(c̃₂ Z_j) + vec((c̃₂ Z_j)ᵀ)` feeds the `G₂` Cauchy product.
    /// Chain scaling as in [`AssocMomentGenerator::h2_moments_scaled`]; here
    /// the rescaled state additionally includes the `Z_j` iterate.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index or singular pencils in the
    /// inner Sylvester solves.
    pub fn h3_moments_scaled(&self, input: usize, count: usize) -> Result<ScaledMoments> {
        if count == 0 {
            return Ok(ScaledMoments::with_capacity(0));
        }
        let n = self.n();
        let b = self.b_col(input)?;
        let d1b = self.d1(input).map(|d| d.matvec(&b));
        let btilde = self.shared.block_op.btilde(&b, d1b.as_ref());
        let m = self.shared.block_op.dim();

        let mut z = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                z[(i, j)] = btilde[i] * b[j];
            }
        }
        let mut d_chain = match (self.d1(input), &d1b) {
            (Some(d), Some(db)) => d.matvec(db),
            _ => Vector::zeros(n),
        };

        let mut acc: Vec<Vector> = Vec::with_capacity(count);
        let mut scratch = Vector::zeros(n);
        let mut out = ScaledMoments::with_capacity(count);
        let mut frame = 0.0;
        for _ in 0..count {
            z = solve_sylvester_big_small_with_schur(
                &*self.shared.block_op,
                &self.shared.g1_schur,
                &z,
            )?;
            let s = z.submatrix(0, n, 0, n); // c̃₂ Z_j  (n×n)
            let mut nu = vec_of(&s);
            nu.axpy(1.0, &vec_of(&s.transpose()));
            let g2nu_k = self.qldae.g2().matvec(&nu);
            for a in acc.iter_mut() {
                scratch.copy_from(a);
                self.shared
                    .g1_lu
                    .solve_into(&scratch, a)
                    .map_err(MorError::Linalg)?;
            }
            acc.push(self.shared.g1_lu.solve(&g2nu_k).map_err(MorError::Linalg)?);
            scratch.copy_from(&d_chain);
            self.shared
                .g1_lu
                .solve_into(&scratch, &mut d_chain)
                .map_err(MorError::Linalg)?;
            let mut m_k = Vector::zeros(n);
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            m_k.axpy(-1.0, &d_chain);
            out.push(m_k, frame);

            let mut state: Vec<&mut Vector> = acc.iter_mut().collect();
            state.push(&mut d_chain);
            frame += rescale_state(&mut state, Some(&mut z));
        }
        Ok(out)
    }

    /// Explicit dense realization `(G̃₂, b̃₂, c̃₂)` of the associated `H₂(s)`
    /// (Eq. 17). Intended for validation and small-scale ablation only — the
    /// matrix has dimension `n + n²`.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index.
    pub fn dense_h2_realization(&self, input: usize) -> Result<(Matrix, Vector, Matrix)> {
        let n = self.n();
        let b = self.b_col(input)?;
        let d1b = self.d1(input).map(|d| d.matvec(&b));
        let dim = n + n * n;
        let mut a = Matrix::zeros(dim, dim);
        a.set_block(0, 0, self.qldae.g1());
        a.set_block(0, n, &self.qldae.g2().to_dense());
        a.set_block(
            n,
            n,
            &vamor_linalg::kron_sum(self.qldae.g1(), self.qldae.g1()),
        );
        let btilde = self.shared.block_op.btilde(&b, d1b.as_ref());
        let mut c = Matrix::zeros(n, dim);
        for i in 0..n {
            c[(i, i)] = 1.0;
        }
        Ok((a, btilde, c))
    }
}

/// Moment-vector generator for cubic polynomial ODEs (`G₃` nonlinearity),
/// used for the varistor experiment. The associated third-order transfer
/// function of `ẋ = G₁x + G₃ x^{(3⊗)} + b u` is
/// `H₃(s) = (sI − G₁)⁻¹ G₃ (sI − G₁⊕G₁⊕G₁)⁻¹ (b⊗b⊗b)` (Corollary 1 of the
/// paper applied three ways).
#[derive(Debug)]
pub struct CubicAssocMomentGenerator<'a> {
    ode: &'a CubicOde,
    g1_lu: G1Factor,
    recovery: PivotRecovery,
    kron_op: KronSumOp2,
    g1_schur: SchurDecomposition,
}

impl<'a> CubicAssocMomentGenerator<'a> {
    /// Prepares the cached factorizations.
    ///
    /// # Errors
    ///
    /// Returns an error if `G₁` is singular.
    pub fn new(ode: &'a CubicOde) -> Result<Self> {
        Self::with_options(ode, SolverBackend::Auto)
    }

    /// Prepares the generator with an explicit linear-solver backend for the
    /// `G₁` solves (see [`AssocMomentGenerator::with_options`]).
    ///
    /// # Errors
    ///
    /// Returns an error if `G₁` is singular.
    pub fn with_options(ode: &'a CubicOde, backend: SolverBackend) -> Result<Self> {
        let sparse = backend.use_sparse(ode.g1_csr().rows(), SPARSE_AUTO_THRESHOLD);
        let (g1_lu, recovery) =
            G1Factor::build_with_recovery(ode.g1_csr(), sparse).map_err(MorError::Linalg)?;
        let kron_op = KronSumOp2::new(ode.g1())?;
        let g1_schur = kron_op.a_schur();
        Ok(CubicAssocMomentGenerator {
            ode,
            g1_lu,
            recovery,
            kron_op,
            g1_schur,
        })
    }

    /// What the pivot degradation ladder did while factoring `G₁`.
    pub fn pivot_recovery(&self) -> PivotRecovery {
        self.recovery
    }

    /// The cached Schur form of `G₁`.
    pub fn g1_schur(&self) -> &SchurDecomposition {
        &self.g1_schur
    }

    fn n(&self) -> usize {
        self.ode.g1().rows()
    }

    fn b_col(&self, input: usize) -> Result<Vector> {
        if input >= self.ode.b().cols() {
            return Err(MorError::Invalid(format!(
                "input index {input} out of range for a {}-input system",
                self.ode.b().cols()
            )));
        }
        Ok(self.ode.b().col(input))
    }

    /// Moments of `H₁(s)` about `s = 0`, with per-candidate normalization
    /// (see [`AssocMomentGenerator::h1_moments_scaled`]).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index or a failed solve.
    pub fn h1_moments_scaled(&self, input: usize, count: usize) -> Result<ScaledMoments> {
        h1_chain(&self.g1_lu, self.b_col(input)?, count)
    }

    /// Moments of the associated `H₃(s)` about `s = 0`:
    /// `m_k = Σ_{i+j=k} G₁^{-(i+1)} G₃ w_j` with
    /// `w_j = (G₁⊕G₁⊕G₁)^{-(j+1)} (b⊗b⊗b)`, with chain scaling (see
    /// [`AssocMomentGenerator::h2_moments_scaled`]).
    ///
    /// The triple Kronecker-sum solve is performed as a big-left/small-right
    /// Sylvester solve: `(G₁⊕G₁) X + X G₁ᵀ = unvec(r)` with `X ∈ ℝ^{n²×n}`.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index or singular pencils.
    pub fn h3_moments_scaled(&self, input: usize, count: usize) -> Result<ScaledMoments> {
        if count == 0 {
            return Ok(ScaledMoments::with_capacity(0));
        }
        let n = self.n();
        let b = self.b_col(input)?;
        // w_0 seed: b ⊗ b ⊗ b as an n² x n matrix (column-major unvec).
        let bb = kron_vec(&b, &b);
        let mut w_mat = Matrix::zeros(n * n, n);
        for j in 0..n {
            for i in 0..n * n {
                w_mat[(i, j)] = b[j] * bb[i];
            }
        }
        let mut acc: Vec<Vector> = Vec::with_capacity(count);
        let mut scratch = Vector::zeros(n);
        let mut out = ScaledMoments::with_capacity(count);
        let mut frame = 0.0;
        for _ in 0..count {
            w_mat = solve_sylvester_big_small_with_schur(&self.kron_op, &self.g1_schur, &w_mat)?;
            let w_vec = vec_of(&w_mat);
            let g3w_k = self.ode.g3().matvec(&w_vec);
            for a in acc.iter_mut() {
                scratch.copy_from(a);
                self.g1_lu
                    .solve_into(&scratch, a)
                    .map_err(MorError::Linalg)?;
            }
            acc.push(self.g1_lu.solve(&g3w_k).map_err(MorError::Linalg)?);
            let mut m_k = Vector::zeros(n);
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            out.push(m_k, frame);

            let mut state: Vec<&mut Vector> = acc.iter_mut().collect();
            frame += rescale_state(&mut state, Some(&mut w_mat));
        }
        Ok(out)
    }
}

/// Checks the Kronecker-ordering convention used in the seeds above: the
/// `vec`-space image of `b ⊗ b ⊗ b` as an `n² × n` matrix is `(b⊗b) bᵀ`.
#[cfg(test)]
fn triple_kron_as_matrix(b: &Vector) -> Matrix {
    let n = b.len();
    let bb = kron_vec(b, b);
    Matrix::from_fn(n * n, n, |i, j| b[j] * bb[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamor_linalg::kron::unvec;
    use vamor_linalg::{kron_sum, CooMatrix};
    use vamor_system::QldaeBuilder;

    fn small_qldae(with_d1: bool) -> Qldae {
        let mut builder = QldaeBuilder::new(3, 1)
            .g1_entry(0, 0, -1.0)
            .g1_entry(0, 1, 0.3)
            .g1_entry(1, 1, -2.0)
            .g1_entry(1, 2, 0.2)
            .g1_entry(2, 2, -1.5)
            .g1_entry(2, 0, 0.1)
            .g2_entry(0, 0, 1, 0.4)
            .g2_entry(1, 2, 2, -0.25)
            .g2_entry(2, 0, 0, 0.15)
            .b_entry(0, 0, 1.0)
            .b_entry(2, 0, 0.5)
            .output_state(2);
        if with_d1 {
            builder = builder.d1_entry(0, 1, 1, 0.3).d1_entry(0, 0, 2, -0.2);
        }
        builder.build().unwrap()
    }

    fn small_cubic() -> CubicOde {
        let n = 2;
        let g1 = Matrix::from_rows(&[&[-1.0, 0.2], &[0.0, -3.0]]).unwrap();
        let mut g3 = CooMatrix::new(n, n * n * n);
        g3.push(0, 0, 0.5); // x0^3
        g3.push(1, 7, -0.3); // x1^3 (index 1*4+1*2+1)
        g3.push(1, 1, 0.1); // x0 x0 x1
        let b = Matrix::from_rows(&[&[1.0], &[0.4]]).unwrap();
        let c = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        CubicOde::new(g1, None, g3.to_csr(), b, c).unwrap()
    }

    /// The raw moments a scaled chain stands for: `vectors[k] · 10^mag[k]`.
    fn rebuild(scaled: &ScaledMoments) -> Vec<Vector> {
        scaled
            .vectors
            .iter()
            .zip(&scaled.log10_magnitudes)
            .map(|(v, &mag)| v.scaled(10.0_f64.powf(mag)))
            .collect()
    }

    /// Brute-force reference: `G₁⁻¹ b, G₁⁻² b, …` by repeated dense solves.
    fn dense_h1_moments(g1: &Matrix, b: &Vector, count: usize) -> Vec<Vector> {
        let lu = g1.lu().unwrap();
        let mut v = b.clone();
        (0..count)
            .map(|_| {
                v = lu.solve(&v).unwrap();
                v.clone()
            })
            .collect()
    }

    /// Brute-force reference: moments of the associated H2(s) computed from
    /// the explicit dense realization of Eq. 17 by repeated dense solves.
    fn dense_h2_moments(q: &Qldae, count: usize) -> Vec<Vector> {
        let generator = AssocMomentGenerator::new(q).unwrap();
        let (a, btilde, c) = generator.dense_h2_realization(0).unwrap();
        let lu = a.lu().unwrap();
        let mut v = btilde;
        let mut out = Vec::new();
        for _ in 0..count {
            v = lu.solve(&v).unwrap();
            // Moment of the full realization output = c (A^{-(k+1)}) b̃ (sign dropped).
            out.push(c.matvec(&v));
        }
        out
    }

    /// Brute-force reference for the associated H3(s): build G̃2 densely,
    /// then the (n·(n+n²)) matrix G1 ⊕ G̃2, and compute the H̃3 moments
    /// explicitly.
    fn dense_h3_moments(q: &Qldae, count: usize) -> Vec<Vector> {
        let n = q.g1().rows();
        let generator = AssocMomentGenerator::new(q).unwrap();
        let (gt2, btilde, ctilde) = generator.dense_h2_realization(0).unwrap();
        let g1 = q.g1();
        let b = q.b().col(0);
        let m_dim = n + n * n;
        let big_lu = kron_sum(g1, &gt2).lu().unwrap(); // n·m dimensional
        let g1_lu = g1.lu().unwrap();
        // D₁² b contribution.
        let mut d_chain = match q.d1().first() {
            Some(d1) => d1.matvec(&d1.matvec(&b)),
            None => Vector::zeros(n),
        };

        let mut z = kron_vec(&b, &btilde);
        let mut acc: Vec<Vector> = Vec::new();
        let mut reference = Vec::new();
        for _ in 0..count {
            z = big_lu.solve(&z).unwrap();
            // term1: (I ⊗ c̃2) z ; term2 equals the "transposed" pairing.
            let s = ctilde.matmul(&unvec(&z, m_dim, n).unwrap()); // n×n
            let mut nu = vec_of(&s);
            nu.axpy(1.0, &vec_of(&s.transpose()));
            for a in acc.iter_mut() {
                *a = g1_lu.solve(a).unwrap();
            }
            acc.push(g1_lu.solve(&q.g2().matvec(&nu)).unwrap());
            d_chain = g1_lu.solve(&d_chain).unwrap();
            let mut m_k = Vector::zeros(n);
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            m_k.axpy(-1.0, &d_chain);
            reference.push(m_k);
        }
        reference
    }

    /// Dense reference for the cubic H3(s) with the explicit n³ Kronecker sum.
    fn dense_cubic_h3_moments(ode: &CubicOde, count: usize) -> Vec<Vector> {
        let g1 = ode.g1();
        let n = g1.rows();
        let m3_lu = kron_sum(g1, &kron_sum(g1, g1)).lu().unwrap();
        let g1_lu = g1.lu().unwrap();
        let b = ode.b().col(0);
        let mut w = kron_vec(&b, &kron_vec(&b, &b));
        let mut acc: Vec<Vector> = Vec::new();
        let mut reference = Vec::new();
        for _ in 0..count {
            w = m3_lu.solve(&w).unwrap();
            for a in acc.iter_mut() {
                *a = g1_lu.solve(a).unwrap();
            }
            acc.push(g1_lu.solve(&ode.g3().matvec(&w)).unwrap());
            let mut m_k = Vector::zeros(n);
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            reference.push(m_k);
        }
        reference
    }

    /// Both sequences are the Taylor coefficients of the same rational
    /// function up to sign conventions: compare each coefficient vector up to
    /// sign.
    fn assert_close_up_to_sign(ours: &[Vector], reference: &[Vector], rel: f64, what: &str) {
        assert_eq!(ours.len(), reference.len(), "{what}: chain length");
        for (k, (a, b)) in ours.iter().zip(reference).enumerate() {
            let diff_plus = (a - b).norm_inf();
            let diff_minus = (&a.scaled(-1.0) - b).norm_inf();
            let tol = rel * (1.0 + b.norm_inf());
            assert!(
                diff_plus < tol || diff_minus < tol,
                "{what} moment {k} mismatch: |a-b|={diff_plus:.3e}, |a+b|={diff_minus:.3e}"
            );
        }
    }

    #[test]
    fn h2_moments_match_dense_realization() {
        for with_d1 in [false, true] {
            let q = small_qldae(with_d1);
            let generator = AssocMomentGenerator::new(&q).unwrap();
            let ours = rebuild(&generator.h2_moments_scaled(0, 0, 4).unwrap());
            let what = format!("H2 (d1={with_d1})");
            assert_close_up_to_sign(&ours, &dense_h2_moments(&q, 4), 1e-9, &what);
        }
    }

    #[test]
    fn h1_moments_are_rational_krylov_vectors() {
        let q = small_qldae(false);
        let generator = AssocMomentGenerator::new(&q).unwrap();
        let m = rebuild(&generator.h1_moments_scaled(0, 3).unwrap());
        let g1 = q.g1();
        // G1 * m_0 = b, G1 * m_{k+1} = m_k.
        assert!((&g1.matvec(&m[0]) - &q.b().col(0)).norm_inf() < 1e-12);
        assert!((&g1.matvec(&m[1]) - &m[0]).norm_inf() < 1e-12);
        assert!((&g1.matvec(&m[2]) - &m[1]).norm_inf() < 1e-12);
        assert!(generator.h1_moments_scaled(1, 2).is_err());
    }

    #[test]
    fn h3_moments_match_brute_force_dense_computation() {
        let q = small_qldae(true);
        let generator = AssocMomentGenerator::new(&q).unwrap();
        let ours = rebuild(&generator.h3_moments_scaled(0, 2).unwrap());
        let reference = dense_h3_moments(&q, 2);
        for (k, (a, b)) in ours.iter().zip(reference.iter()).enumerate() {
            assert!(
                (a - b).norm_inf() < 1e-9 * (1.0 + b.norm_inf()),
                "H3 moment {k} mismatch: {:?} vs {:?}",
                a.as_slice(),
                b.as_slice()
            );
        }
    }

    #[test]
    fn cubic_h3_moments_match_dense_triple_kron_sum() {
        let ode = small_cubic();
        let generator = CubicAssocMomentGenerator::new(&ode).unwrap();
        let ours = rebuild(&generator.h3_moments_scaled(0, 3).unwrap());
        let reference = dense_cubic_h3_moments(&ode, 3);
        for (k, (a, b)) in ours.iter().zip(reference.iter()).enumerate() {
            assert!(
                (a - b).norm_inf() < 1e-10 * (1.0 + b.norm_inf()),
                "cubic H3 moment {k} mismatch"
            );
        }
        assert!(generator.h1_moments_scaled(0, 2).unwrap().vectors.len() == 2);
        assert!(generator.h1_moments_scaled(3, 1).is_err());
    }

    #[test]
    fn triple_kron_matrix_matches_vec_convention() {
        let b = Vector::from_slice(&[2.0, -1.0]);
        let m = triple_kron_as_matrix(&b);
        let direct = kron_vec(&b, &kron_vec(&b, &b));
        assert!((&vec_of(&m) - &direct).norm_inf() < 1e-15);
    }

    #[test]
    fn zero_moment_requests_return_empty() {
        let q = small_qldae(false);
        let generator = AssocMomentGenerator::new(&q).unwrap();
        assert!(generator
            .h2_moments_scaled(0, 0, 0)
            .unwrap()
            .vectors
            .is_empty());
        assert!(generator
            .h3_moments_scaled(0, 0)
            .unwrap()
            .vectors
            .is_empty());
    }

    /// The scaled chain must span exactly the directions of the raw moments:
    /// each scaled candidate is the unit-normalized raw moment (up to sign),
    /// and the recorded `log10` magnitude reconstructs the raw norm.
    fn assert_scaled_matches_raw(raw: &[Vector], scaled: &ScaledMoments) {
        assert_eq!(raw.len(), scaled.vectors.len());
        for (k, (r, s)) in raw.iter().zip(scaled.vectors.iter()).enumerate() {
            let mag = r.norm2();
            assert!(
                (s.norm2() - 1.0).abs() < 1e-12,
                "scaled candidate {k} is not unit norm"
            );
            let unit = r.scaled(1.0 / mag);
            assert!(
                (&unit - s).norm_inf() < 1e-9 || (&unit + s).norm_inf() < 1e-9,
                "scaled candidate {k} is not parallel to the raw moment"
            );
            let rec = 10.0_f64.powf(scaled.log10_magnitudes[k]);
            assert!(
                (rec - mag).abs() < 1e-6 * mag,
                "magnitude {k}: raw {mag:.6e}, reconstructed {rec:.6e}"
            );
        }
    }

    #[test]
    fn scaled_chains_match_raw_chains_on_small_systems() {
        for with_d1 in [false, true] {
            let q = small_qldae(with_d1);
            let generator = AssocMomentGenerator::new(&q).unwrap();
            assert_scaled_matches_raw(
                &dense_h1_moments(q.g1(), &q.b().col(0), 5),
                &generator.h1_moments_scaled(0, 5).unwrap(),
            );
            assert_scaled_matches_raw(
                &dense_h2_moments(&q, 4),
                &generator.h2_moments_scaled(0, 0, 4).unwrap(),
            );
            assert_scaled_matches_raw(
                &dense_h3_moments(&q, 3),
                &generator.h3_moments_scaled(0, 3).unwrap(),
            );
        }
    }

    #[test]
    fn scaled_cubic_chains_match_raw_chains() {
        let ode = small_cubic();
        let generator = CubicAssocMomentGenerator::new(&ode).unwrap();
        assert_scaled_matches_raw(
            &dense_h1_moments(ode.g1(), &ode.b().col(0), 4),
            &generator.h1_moments_scaled(0, 4).unwrap(),
        );
        assert_scaled_matches_raw(
            &dense_cubic_h3_moments(&ode, 3),
            &generator.h3_moments_scaled(0, 3).unwrap(),
        );
    }

    #[test]
    fn long_scaled_chains_stay_finite_where_raw_chains_overflow() {
        // G1 with an eigenvalue far inside the unit circle: G1^{-k} b grows
        // like 5^k and the raw chain overflows past ~440 iterations, while
        // the scaled chain keeps every candidate at unit norm.
        let q = QldaeBuilder::new(2, 1)
            .g1_entry(0, 0, -0.2)
            .g1_entry(1, 1, -0.25)
            .g2_entry(0, 0, 1, 0.1)
            .b_entry(0, 0, 1.0)
            .b_entry(1, 0, 1.0)
            .output_state(1)
            .build()
            .unwrap();
        let generator = AssocMomentGenerator::new(&q).unwrap();
        let scaled = generator.h1_moments_scaled(0, 500).unwrap();
        assert_eq!(scaled.vectors.len(), 500);
        assert!(scaled.vectors.iter().all(|v| v.is_finite()));
        // The discarded magnitude is astronomically large and faithfully
        // tracked in log10 space (5^500 ≈ 10^349).
        assert!(scaled.log10_peak() > 300.0);
        // The raw moment cannot represent those magnitudes.
        let raw = rebuild(&scaled);
        assert!(raw
            .last()
            .unwrap()
            .as_slice()
            .iter()
            .any(|x| !x.is_finite()));
    }

    /// The memory-budget estimate covers every matrix the artifacts hold:
    /// the `G₁` factor, the Schur pair, the block operator's dense `G₁`, the
    /// `G₁ ⊕ G₁` factor `A` with its Lyapunov solver (two Schur pairs and
    /// their transposes), and the shifted-solve cache's base and `σ = 0`
    /// factor.
    #[test]
    fn artifact_estimate_covers_every_held_matrix() {
        let rx = vamor_circuits::RfReceiver::new(4).unwrap();
        let q = rx.qldae();
        let shared = SharedAssocArtifacts::build(q, SolverBackend::Auto).unwrap();
        let n = shared.n();
        let dense = n * n * std::mem::size_of::<f64>();
        let held = shared.g1_lu.approx_bytes() // LU(G₁)
            + 2 * dense // Schur Q, T
            + dense // block operator G₁
            + dense // G₁ ⊕ G₁ factor A
            + 6 * dense // Lyapunov solver Qa, Ta, Qb, Tb, Qaᵀ, Qbᵀ
            + 2 * dense; // shift-cache base and its σ = 0 factor
        assert!(
            shared.approx_bytes() >= held,
            "estimate {} < held {held}",
            shared.approx_bytes()
        );
        assert!(shared.approx_bytes() < 2 * held, "estimate overcounts");
    }
}
