//! Moment generation for the *associated* (single-`s`) Volterra transfer
//! functions — the heart of the paper's method.
//!
//! Applying the association of variables to the multivariate kernels of a
//! polynomial system `ẋ = G₁x + G₂(x⊗x) + G₃(x⊗x⊗x) + D₁xu + bu` yields
//! single-variable transfer functions with explicit state-space realizations
//! (Eqs. 15–17 of the paper, and Corollary 1 applied three ways for `G₃`):
//!
//! ```text
//! H₂(s) = (sI − G₁)⁻¹ [ G₂ (sI − G₁⊕G₁)⁻¹ (b ⊗ b) + D₁ b ]
//! H₃(s) = (sI − G₁)⁻¹ [ G₂ H̃₃(s) + G₃ (sI − G₁⊕G₁⊕G₁)⁻¹ (b⊗b⊗b) + D₁² b ]
//! H̃₃(s) = (Iₙ⊗c̃₂)(sI − G₁⊕G̃₂)⁻¹(b⊗b̃₂) + (c̃₂⊗Iₙ)(sI − G̃₂⊕G₁)⁻¹(b̃₂⊗b)
//! ```
//!
//! The Taylor (moment) expansion of these functions around `s = 0` is what
//! the projection matrix must span. [`AssocMomentGenerator`] computes those
//! moment vectors directly from the structured realizations, with every
//! Kronecker mode held in the decoupled coordinates of `G₁ = V D V⁻¹`: the
//! stamp's real Schur form `G₁ = Q T Qᵀ`, block-diagonalized once
//! (`V = Q Y`, `D` block diagonal in 1×1 and standardized 2×2 blocks, see
//! [`vamor_linalg::BlockDiagonalSchur`]). There the Kronecker sums of `G₁`
//! fall apart into independent block pairs and triples of at most 8
//! unknowns:
//!
//! * the `G₁⊕G₁` resolvent powers of `H₂` are Lyapunov solves
//!   `D Ŵ + Ŵ Dᵀ = Ŵ_prev` on `Ŵ = V⁻¹ W V⁻ᵀ`, `O(n²)` per moment;
//! * the `G₁⊕G̃₂` resolvent powers of `H₃` split into the `n²×n` bottom
//!   block — the `G₁⊕G₁⊕G₁` resolvent the `G₃` term reads — and, with a
//!   `G₂`, the `n×n` top block `G₁ Z_t + Z_t G₁ᵀ = Z_t,prev − G₂ Z_b`. The
//!   bottom block stays in the decoupled coordinates for the whole chain:
//!   each moment is one in-place three-mode solve of independent block
//!   triples, `O(n³)`, and the top block one `O(n²)` Lyapunov solve. The
//!   two terms of `H̃₃` are transposes of one another, so one walk serves
//!   both, and one walk serves both nonlinear orders;
//! * the read-outs `G₂ w`, `G₂ Z_b` and `G₃ vec(Z_b)` back-transform through
//!   `V` only the entries their sparse columns touch (`nnz · n²` flops per
//!   column instead of an `n⁴` basis change), so the chain factors no
//!   shifted `G₁` and makes no per-column GEMM,
//!
//! exactly the computational structure §2.3 of the paper describes, with the
//! dimension growing as `O(k₁+k₂+k₃)` instead of the `O(k₁+k₂³+k₃⁴)` of
//! multivariate (NORM-style) moment matching.

use vamor_linalg::{kron_vec, CsrMatrix, Matrix, PivotRecovery, SolverBackend, Vector};
use vamor_system::Qldae;

use crate::error::MorError;
pub use crate::stamp::SharedAssocArtifacts;
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

/// The scaled `H₁` chain shared by both generators (dense and low-rank):
/// repeated `G₁⁻¹` applications with the running iterate
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

/// Column `input` of the input matrix `b`, or a typed error for an index
/// past the system's inputs.
pub(crate) fn input_column(qldae: &Qldae, input: usize) -> Result<Vector> {
    if input >= qldae.b().cols() {
        return Err(MorError::Invalid(format!(
            "input index {input} out of range for a {}-input system",
            qldae.b().cols()
        )));
    }
    Ok(qldae.b().col(input))
}

/// The `D₁` seed of the `H₂` chain of the input pair `(a, b)`:
/// `D₁ᵃ b_b + D₁ᵇ b_a`, halved for a repeated input so the SISO case
/// reduces to the paper's `D₁ b`; `None` for a system without `D₁`.
pub(crate) fn h2_d1_seed(
    qldae: &Qldae,
    (a, b): (usize, usize),
    b_a: &Vector,
    b_b: &Vector,
) -> Option<Vector> {
    let (da, db) = (qldae.d1().get(a), qldae.d1().get(b));
    if da.is_none() && db.is_none() {
        return None;
    }
    let mut d = Vector::zeros(b_a.len());
    if let Some(da) = da {
        d.axpy(1.0, &da.matvec(b_b));
    }
    if let Some(db) = db {
        d.axpy(1.0, &db.matvec(b_a));
    }
    if a == b {
        d.scale_mut(0.5);
    }
    Some(d)
}

/// The forcing of one `H₃` step: the `G₂` read-out of the top block plus the
/// `G₃` read-out of the bottom block, each present only when the system has
/// that term.
pub(crate) fn h3_forcing(quadratic: Option<Vector>, cubic: Option<Vector>, n: usize) -> Vector {
    match (quadratic, cubic) {
        (Some(mut f), Some(c)) => {
            f.axpy(1.0, &c);
            f
        }
        (Some(f), None) | (None, Some(f)) => f,
        (None, None) => Vector::zeros(n),
    }
}

/// The Cauchy accumulator of an `H₂`/`H₃` moment chain, shared by both
/// engines: fed one forcing vector `f_j` per step, it records moment
/// `m_k = Σ_{i+j=k} G₁^{-(i+1)} f_j − G₁^{-(k+1)} d`, where the `d` chain is
/// the `D₁` term (absent without one). After every moment the whole
/// recursion state — the accumulators, the `d` chain and the chain's own
/// iterates — is rescaled by a common factor, which is exact on the spanned
/// subspace and keeps every intermediate `O(1)`; the candidates are
/// unit-norm with their magnitudes reported as in [`h1_chain`].
pub(crate) struct CauchyAccumulator<'a> {
    g1_lu: &'a G1Factor,
    acc: Vec<Vector>,
    d_chain: Option<Vector>,
    scratch: Vector,
    out: ScaledMoments,
    frame: f64,
}

impl<'a> CauchyAccumulator<'a> {
    pub(crate) fn new(
        g1_lu: &'a G1Factor,
        n: usize,
        count: usize,
        d_chain: Option<Vector>,
    ) -> Self {
        CauchyAccumulator {
            g1_lu,
            acc: Vec::with_capacity(count),
            d_chain,
            scratch: Vector::zeros(n),
            out: ScaledMoments::with_capacity(count),
            frame: 0.0,
        }
    }

    /// Feeds the forcing `f_j` of the current step and records the next
    /// moment.
    pub(crate) fn push(&mut self, forcing: &Vector) -> Result<()> {
        for a in self.acc.iter_mut() {
            self.scratch.copy_from(a);
            self.g1_lu
                .solve_into(&self.scratch, a)
                .map_err(MorError::Linalg)?;
        }
        self.acc
            .push(self.g1_lu.solve(forcing).map_err(MorError::Linalg)?);
        if let Some(d) = self.d_chain.as_mut() {
            self.scratch.copy_from(d);
            self.g1_lu
                .solve_into(&self.scratch, d)
                .map_err(MorError::Linalg)?;
        }
        let mut m_k = Vector::zeros(self.scratch.len());
        for a in &self.acc {
            m_k.axpy(1.0, a);
        }
        if let Some(d) = &self.d_chain {
            m_k.axpy(-1.0, d);
        }
        self.out.push(m_k, self.frame);
        Ok(())
    }

    /// Rescales the accumulators, the `d` chain and the chain's iterates
    /// (`vectors`, `matrices`) by their common peak magnitude, adding its
    /// `log10` to the running frame.
    pub(crate) fn rescale(&mut self, vectors: &mut [&mut Vector], matrices: &mut [&mut Matrix]) {
        let mut state: Vec<&mut Vector> = self.acc.iter_mut().collect();
        state.extend(vectors.iter_mut().map(|v| &mut **v));
        state.extend(self.d_chain.as_mut());
        let mut peak = 0.0_f64;
        for v in &state {
            peak = peak.max(v.norm_inf());
        }
        for m in matrices.iter() {
            peak = peak.max(m.max_abs());
        }
        if peak == 0.0 || !peak.is_finite() {
            return;
        }
        let inv = 1.0 / peak;
        for v in state {
            v.scale_mut(inv);
        }
        for m in matrices.iter_mut() {
            for x in m.as_mut_slice() {
                *x *= inv;
            }
        }
        self.frame += peak.log10();
    }

    /// The recorded moments.
    pub(crate) fn finish(self) -> ScaledMoments {
        self.out
    }
}

/// Moment-vector generator for the associated transfer functions of a
/// polynomial system.
#[derive(Debug)]
pub struct AssocMomentGenerator<'a> {
    qldae: &'a Qldae,
    /// The stamp whose `LU(G₁)` and decoupled form of `G₁` every chain
    /// solves against — possibly shared with other reductions.
    stamp: SharedAssocArtifacts,
}

impl<'a> AssocMomentGenerator<'a> {
    /// Prepares the cached factorizations: `LU(G₁)` (in the `Auto`
    /// backend) and one block-diagonalized Schur form of `G₁`.
    ///
    /// # Errors
    ///
    /// Returns an error if `G₁` is singular — expansion about `s = 0`
    /// requires a regular `G₁`, as in the paper.
    pub fn new(qldae: &'a Qldae) -> Result<Self> {
        Self::with_shared(
            qldae,
            &SharedAssocArtifacts::build(qldae, SolverBackend::Auto)?,
        )
    }

    /// Builds a generator on a stamp: `LU(G₁)` is the stamp's, and its
    /// block-diagonalized Schur form of `G₁` is built here only if no
    /// reduction over the stamp has asked for it yet, so every reduction
    /// borrowing one stamp amortizes the same `s = 0` factorization and
    /// decoupling.
    ///
    /// # Errors
    ///
    /// Returns [`MorError::Invalid`] when the stamp was factored for a
    /// different system order than `qldae`, and a typed error when the
    /// Schur iteration fails.
    pub fn with_shared(qldae: &'a Qldae, shared: &SharedAssocArtifacts) -> Result<Self> {
        if shared.n() != qldae.g1().rows() {
            return Err(MorError::Invalid(format!(
                "shared artifacts were factored for order {} but the system has order {}",
                shared.n(),
                qldae.g1().rows()
            )));
        }
        shared.decoupled(qldae)?;
        Ok(AssocMomentGenerator {
            qldae,
            stamp: shared.clone(),
        })
    }

    /// What the pivot degradation ladder did while factoring `G₁`
    /// (`PivotRecovery::default()` = healthy first try).
    pub fn pivot_recovery(&self) -> PivotRecovery {
        self.stamp.recovery()
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
        h1_chain(self.stamp.g1_lu(), input_column(self.qldae, input)?, count)
    }

    /// Moments of the associated second-order transfer function `H₂(s)`
    /// about `s = 0` for the input pair `(input_a, input_b)`:
    ///
    /// `m_k = Σ_{i+j=k} G₁^{-(i+1)} G₂ w_j − G₁^{-(k+1)} d`,
    /// with `w_j = (G₁⊕G₁)^{-(j+1)} (b_a ⊗ b_b)` and
    /// `d = D₁ᵃ b_b + D₁ᵇ b_a` (halved for a repeated input so the SISO case
    /// reduces to the paper's `D₁ b`).
    ///
    /// The `w_j` iterate stays in `G₁`'s decoupled coordinates for the whole
    /// chain (`Ŵ_j = V⁻¹ W_j V⁻ᵀ`, one in-place `O(n²)` Lyapunov solve on
    /// `D` per moment), and `G₂ w_j` back-transforms through `V` only the
    /// entries of `W_j` that `G₂` reads.
    ///
    /// The whole recursion state (the `Ŵ_j` iterate, the Cauchy
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
        let b_a = input_column(self.qldae, input_a)?;
        let b_b = input_column(self.qldae, input_b)?;
        let d_seed = h2_d1_seed(self.qldae, (input_a, input_b), &b_a, &b_b);
        let dec = self.stamp.decoupled(self.qldae)?;
        let mut chain = CauchyAccumulator::new(self.stamp.g1_lu(), self.stamp.n(), count, d_seed);
        let mut read = KronRead::new(self.qldae.g2(), self.stamp.n());
        // vec(Ŵ₀) = vec(V⁻¹ b_b b_aᵀ V⁻ᵀ) = b̂_a ⊗ b̂_b.
        let mut w = kron_vec(&dec.to_coords(&b_a), &dec.to_coords(&b_b));
        for _ in 0..count {
            dec.solve_kron2_into(w.as_mut_slice())
                .map_err(MorError::Linalg)?;
            let forcing = {
                let _span = vamor_obs::span!("chain_readout");
                read.apply2(dec.v(), w.as_slice())
            };
            chain.push(&forcing)?;
            chain.rescale(&mut [&mut w], &mut []);
        }
        Ok(chain.finish())
    }

    /// Moments of the associated third-order transfer function `H₃(s)` about
    /// `s = 0` for a single input, per the realization in the module docs.
    /// One Kronecker walk `Z_j` of `Op Z + Z G₁ᵀ = Z_{j−1}`, split into
    /// blocks that live in `G₁`'s decoupled coordinates (`G₁ = V D V⁻¹`) for
    /// the whole chain:
    ///
    /// * the `n² × n` bottom block `(G₁⊕G₁⊕G₁)^{-(j+1)} (b⊗b⊗b)`, seeded
    ///   with `(b̂⊗b̂) b̂ᵀ` (`b̂ = V⁻¹ b`) and advanced by one in-place
    ///   three-mode solve per moment: `D`'s block triples are independent
    ///   systems of at most 8 unknowns (a merged cluster's by back-substitution
    ///   inside its own triples), `O(n³)` in all; the `G₃` read-out
    ///   back-transforms through `V` only the entries `G₃` reads;
    /// * with a `G₂` (`Op = G̃₂` from `b̃₂ bᵀ`), the `n × n` top block
    ///   `G₁ Z_t + Z_t G₁ᵀ = Z_t,prev − G₂ Z_b`, one `O(n²)` Lyapunov solve
    ///   on `D` per moment whose forcing `V⁻¹ G₂ (V⊗V) X̂` needs only the
    ///   entries of `(V⊗V) X̂` that `G₂` reads; it feeds
    ///   `ν_j = vec(Z_t) + vec(Z_tᵀ)` to `G₂`.
    ///
    /// Both read-outs feed one Cauchy accumulator, and the `D₁² b` chain is
    /// added when the input has a `D₁`. No shifted `G₁` is factored, and the
    /// bottom block is the chain's one `n³` array. Chain scaling as in
    /// [`AssocMomentGenerator::h2_moments_scaled`]; here the rescaled state
    /// additionally includes both blocks of the walk.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index or a singular
    /// Kronecker-sum pencil.
    pub fn h3_moments_scaled(&self, input: usize, count: usize) -> Result<ScaledMoments> {
        if count == 0 {
            return Ok(ScaledMoments::with_capacity(0));
        }
        let n = self.stamp.n();
        let b = input_column(self.qldae, input)?;
        let d1 = self.qldae.d1().get(input);
        let d1b = d1.map(|d| d.matvec(&b));
        let g2 = Some(self.qldae.g2()).filter(|g2| g2.nnz() > 0);
        let dec = self.stamp.decoupled(self.qldae)?;
        let (v, v_inv) = (dec.v(), dec.v_inv());
        let b_hat = dec.to_coords(&b);
        // Bottom block, row e = vec(X̂_e): X̂₀ = (b̂ ⊗ b̂) b̂ᵀ.
        let bb = kron_vec(&b_hat, &b_hat);
        let mut bottom = Matrix::from_fn(n, n * n, |e, r| b_hat[e] * bb[r]);
        // Top block, row c = column c of Ẑ_t: Ẑ_t,₀ = V⁻¹ (D₁b) b̂ᵀ.
        let mut top = g2.map(|_| match &d1b {
            Some(db) => {
                let d_hat = dec.to_coords(db);
                Matrix::from_fn(n, n, |c, r| d_hat[r] * b_hat[c])
            }
            None => Matrix::zeros(n, n),
        });
        let mut read2 = g2.map(|g2| KronRead::new(g2, n));
        let mut read3 = self.qldae.g3().map(|g3| KronRead::new(g3, n));
        let mut nonzero: Vec<(usize, f64)> = Vec::with_capacity(n);
        let d_chain = d1.zip(d1b.as_ref()).map(|(d, db)| d.matvec(db));
        let mut chain = CauchyAccumulator::new(self.stamp.g1_lu(), n, count, d_chain);
        for _ in 0..count {
            {
                let _span = vamor_obs::span!("kron3_solve");
                dec.solve_kron3_into(bottom.as_mut_slice())
                    .map_err(MorError::Linalg)?;
            }
            let forcing = {
                let _span = vamor_obs::span!("chain_readout");
                let quadratic = match (read2.as_mut(), top.as_mut()) {
                    (Some(read), Some(top)) => {
                        // D Ẑ_t + Ẑ_t Dᵀ = Ẑ_t,prev − V⁻¹ G₂ (V⊗V) X̂, where column
                        // e of G₂ (V⊗V) X̂ is G₂ vec(V X̂_e Vᵀ).
                        for e in 0..n {
                            let p = read.apply2(v, bottom.row(e));
                            nonzero.clear();
                            nonzero
                                .extend(p.iter().copied().enumerate().filter(|&(_, pi)| pi != 0.0));
                            for (r, out) in top.row_mut(e).iter_mut().enumerate() {
                                let vr = v_inv.row(r);
                                *out -= nonzero.iter().map(|&(i, pi)| pi * vr[i]).sum::<f64>();
                            }
                        }
                        dec.solve_kron2_into(top.as_mut_slice())
                            .map_err(MorError::Linalg)?;
                        // ν = vec(Z_t) + vec(Z_tᵀ) with Z_t = V Ẑ_t Vᵀ: G₂ reads
                        // V (Ẑ_t + Ẑ_tᵀ) Vᵀ.
                        let zt = top.as_slice();
                        let sym: Vec<f64> = (0..n * n)
                            .map(|k| zt[k] + zt[(k % n) * n + k / n])
                            .collect();
                        Some(read.apply2(v, &sym))
                    }
                    _ => None,
                };
                let cubic = read3.as_mut().map(|read| read.apply3(v, &bottom));
                h3_forcing(quadratic, cubic, n)
            };
            chain.push(&forcing)?;
            let mut matrices: Vec<&mut Matrix> = vec![&mut bottom];
            matrices.extend(top.as_mut());
            chain.rescale(&mut [], &mut matrices);
        }
        Ok(chain.finish())
    }

    /// Explicit dense realization `(G̃₂, b̃₂, c̃₂)` of the associated `H₂(s)`
    /// (Eq. 17). Intended for validation and small-scale ablation only — the
    /// matrix has dimension `n + n²`.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index.
    pub fn dense_h2_realization(&self, input: usize) -> Result<(Matrix, Vector, Matrix)> {
        let n = self.stamp.n();
        let b = input_column(self.qldae, input)?;
        let d1b = self.qldae.d1().get(input).map(|d| d.matvec(&b));
        let dim = n + n * n;
        let mut a = Matrix::zeros(dim, dim);
        a.set_block(0, 0, self.qldae.g1());
        a.set_block(0, n, &self.qldae.g2().to_dense());
        a.set_block(
            n,
            n,
            &vamor_linalg::kron_sum(self.qldae.g1(), self.qldae.g1()),
        );
        let mut c = Matrix::zeros(n, dim);
        for i in 0..n {
            c[(i, i)] = 1.0;
        }
        Ok((a, btilde(&b, d1b.as_ref()), c))
    }
}

/// The input vector `b̃₂ = [D₁ b; b ⊗ b]` of the `H₂` realization (Eq. 17)
/// for an input column `b` and its optional bilinear term `D₁ b`.
fn btilde(b: &Vector, d1b: Option<&Vector>) -> Vector {
    let top = d1b.cloned().unwrap_or_else(|| Vector::zeros(b.len()));
    top.concat(&kron_vec(b, b))
}

/// A sparse read-out `G` (`G₂`, `n × n²`, or `G₃`, `n × n³`) of a Kronecker
/// operand held in `G₁`'s decoupled coordinates (basis `V`). Only the
/// entries of the original-coordinate operand that `G`'s columns touch are
/// back-transformed; the distinct columns are sorted, so they come grouped
/// by their outer modes.
struct KronRead<'g> {
    g: &'g CsrMatrix,
    /// Distinct column indices of `g`, ascending.
    cols: Vec<usize>,
    /// The slot in `cols` of every stored entry of `g`, in CSR order.
    slots: Vec<usize>,
    /// Gathered operand entries, one per `cols` slot.
    values: Vec<f64>,
    /// Scratch of `n` (two-mode inner product) and `n²` (three-mode outer
    /// contraction) entries.
    u: Vec<f64>,
    y: Vec<f64>,
}

impl<'g> KronRead<'g> {
    fn new(g: &'g CsrMatrix, n: usize) -> Self {
        let mut cols: Vec<usize> = g.iter().map(|(_, c, _)| c).collect();
        cols.sort_unstable();
        cols.dedup();
        let slots = g
            .iter()
            .map(|(_, c, _)| cols.binary_search(&c).unwrap_or_else(|slot| slot))
            .collect();
        KronRead {
            g,
            values: vec![0.0; cols.len()],
            cols,
            slots,
            u: vec![0.0; n],
            y: Vec::new(),
        }
    }

    /// `G vec(V Ŵ Vᵀ)` for a two-mode operand `Ŵ` given as `vec(Ŵ)`.
    fn apply2(&mut self, v: &Matrix, w_hat: &[f64]) -> Vector {
        gather2(v, w_hat, &self.cols, &mut self.u, &mut self.values);
        self.spmv()
    }

    /// `G vec(Z)` for the three-mode operand `Z = (V⊗V) X̂ Vᵀ`, with `X̂`
    /// held as the `n × n²` matrix of rows `vec(X̂_e)`: for each outer index
    /// `c` that `G` reads, `Y_c = Σ_e V[c, e] X̂_e`, then the two-mode
    /// entries of `V Y_c Vᵀ`.
    fn apply3(&mut self, v: &Matrix, xt: &Matrix) -> Vector {
        let nn = xt.cols();
        self.y.resize(nn, 0.0);
        let mut lo = 0;
        while lo < self.cols.len() {
            let c = self.cols[lo] / nn;
            let hi = lo + self.cols[lo..].iter().take_while(|&&k| k / nn == c).count();
            self.y.fill(0.0);
            for (e, &vce) in v.row(c).iter().enumerate() {
                if vce != 0.0 {
                    for (y, &x) in self.y.iter_mut().zip(xt.row(e)) {
                        *y += vce * x;
                    }
                }
            }
            gather2(
                v,
                &self.y,
                &self.cols[lo..hi],
                &mut self.u,
                &mut self.values[lo..hi],
            );
            lo = hi;
        }
        self.spmv()
    }

    /// `G` applied to the operand whose entries at `cols` are `values`.
    fn spmv(&self) -> Vector {
        let mut out = Vector::zeros(self.g.rows());
        let mut slot = self.slots.iter();
        for r in 0..self.g.rows() {
            let mut acc = 0.0;
            for (&v, &s) in self.g.row_entries(r).1.iter().zip(slot.by_ref()) {
                acc += v * self.values[s];
            }
            out[r] = acc;
        }
        out
    }
}

/// For each `k` of the ascending `cols`, the entry `(i, j)` of `V Ŵ Vᵀ` with
/// `i = k mod n`, `j = ⌊k / n⌋ mod n`, written to `out`. Each distinct `j`
/// costs one `u = Ŵ V[j, :]ᵀ` (`n²` flops over contiguous columns of
/// `Ŵ`), each entry one `V[i, :] · u`.
fn gather2(v: &Matrix, w_hat: &[f64], cols: &[usize], u: &mut [f64], out: &mut [f64]) {
    let n = v.rows();
    let mut lo = 0;
    while lo < cols.len() {
        let j = (cols[lo] / n) % n;
        let hi = lo + cols[lo..].iter().take_while(|&&k| (k / n) % n == j).count();
        u.fill(0.0);
        for (&vjb, w_col) in v.row(j).iter().zip(w_hat.chunks_exact(n)) {
            if vjb != 0.0 {
                for (x, &w) in u.iter_mut().zip(w_col) {
                    *x += vjb * w;
                }
            }
        }
        for (&k, o) in cols[lo..hi].iter().zip(&mut out[lo..hi]) {
            *o = v.row(k % n).iter().zip(u.iter()).map(|(a, b)| a * b).sum();
        }
        lo = hi;
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
pub(crate) mod tests {
    use super::*;
    use vamor_linalg::kron::{unvec, vec_of};
    use vamor_linalg::{kron_sum, CooMatrix, SchurDecomposition};
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

    fn small_cubic() -> Qldae {
        let n = 2;
        let mut g3 = CooMatrix::new(n, n * n * n);
        g3.push(0, 0, 0.5); // x0^3
        g3.push(1, 7, -0.3); // x1^3 (index 1*4+1*2+1)
        g3.push(1, 1, 0.1); // x0 x0 x1
        QldaeBuilder::new(n, 1)
            .g1_entry(0, 0, -1.0)
            .g1_entry(0, 1, 0.2)
            .g1_entry(1, 1, -3.0)
            .b_entry(0, 0, 1.0)
            .b_entry(1, 0, 0.4)
            .output_state(0)
            .build()
            .unwrap()
            .with_g3(g3.to_csr())
            .unwrap()
    }

    /// A seeded `n`-state system with a quadratic and a cubic part: a
    /// stable banded `G₁` and pseudo-random sparse `G₂`, `G₃` and `b` from a
    /// fixed linear congruential stream.
    pub(crate) fn mixed_qldae(n: usize, seed: u64) -> Qldae {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut builder = QldaeBuilder::new(n, 1);
        let mut g3 = CooMatrix::new(n, n * n * n);
        for i in 0..n {
            builder = builder.g1_entry(i, i, -(1.0 + next()));
            if i + 1 < n {
                builder = builder
                    .g1_entry(i, i + 1, 0.4 * next())
                    .g1_entry(i + 1, i, 0.4 * next());
            }
            let pick = |u: f64| ((u * n as f64) as usize).min(n - 1);
            let (p, q, r) = (pick(next()), pick(next()), pick(next()));
            builder = builder
                .g2_entry(i, p, q, next() - 0.5)
                .b_entry(i, 0, next() - 0.5);
            g3.push(i, p * n * n + q * n + r, next() - 0.5);
        }
        builder
            .output_state(n - 1)
            .build()
            .unwrap()
            .with_g3(g3.to_csr())
            .unwrap()
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

    /// Dense reference for the `G₃` part of H3(s) with the explicit n³
    /// Kronecker sum.
    fn dense_cubic_h3_moments(ode: &Qldae, count: usize) -> Vec<Vector> {
        let g1 = ode.g1();
        let g3 = ode.g3().expect("cubic term");
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
            acc.push(g1_lu.solve(&g3.matvec(&w)).unwrap());
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
        let generator = AssocMomentGenerator::new(&ode).unwrap();
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

    /// A system with both a quadratic and a cubic part: the `H₂` chain and
    /// the one `H₃` recursion (the `G₂(H₁⊗H₂)` cross terms plus the `G₃`
    /// read-out of the same Kronecker walk) match the brute-force dense
    /// references, and the reduction keeps its `H₂` candidates.
    #[test]
    fn mixed_quadratic_cubic_moments_match_dense_references() {
        let q = mixed_qldae(12, 7);
        let generator = AssocMomentGenerator::new(&q).unwrap();
        let assert_rel = |ours: &[Vector], reference: &[Vector], what: &str| {
            assert_eq!(ours.len(), reference.len(), "{what}: chain length");
            // Up to the sign convention of the dense realizations.
            for (k, (a, b)) in ours.iter().zip(reference).enumerate() {
                let err = (a - b).norm_inf().min((a + b).norm_inf()) / b.norm_inf();
                assert!(err <= 1e-8, "{what} moment {k}: relative error {err:.3e}");
            }
        };
        let h2 = rebuild(&generator.h2_moments_scaled(0, 0, 2).unwrap());
        let h2_ref = dense_h2_moments(&q, 2);
        assert_rel(&h2, &h2_ref, "H2");
        // H₃ is linear in its forcing: the G₂/D₁ part plus the G₃ part.
        let h3 = rebuild(&generator.h3_moments_scaled(0, 1).unwrap());
        let h3_ref: Vec<Vector> = dense_h3_moments(&q, 1)
            .iter()
            .zip(dense_cubic_h3_moments(&q, 1))
            .map(|(quadratic, cubic)| quadratic + &cubic)
            .collect();
        assert_rel(&h3, &h3_ref, "H3");
        let rom = crate::AssocReducer::new(crate::MomentSpec::new(2, 2, 1))
            .reduce(&q)
            .unwrap();
        assert!(rom.stats().h2_candidates > 0);
        assert!(rom.system().g3().is_some());
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
        let generator = AssocMomentGenerator::new(&ode).unwrap();
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

    /// The pre-Schur-resident `H₃` walk, kept as the oracle: the big-small
    /// solver on the block operator `G̃₂` (or on `G₁ ⊕ G₁` without a `G₂`),
    /// moving every column into and out of the Schur basis.
    fn oracle_h3_moments(q: &Qldae, input: usize, count: usize) -> ScaledMoments {
        use crate::bigsmall::solve_sylvester_big_small_with_schur;
        use crate::operators::{BlockH2Op, KronSumOp2};
        use vamor_linalg::ShiftedSolve;
        let n = q.g1().rows();
        let b = q.b().col(input);
        let d1 = q.d1().get(input);
        let d1b = d1.map(|d| d.matvec(&b));
        let g2 = Some(q.g2()).filter(|g2| g2.nnz() > 0);
        let kron = KronSumOp2::new(q.g1()).unwrap();
        let schur = kron.a_schur();
        let block = BlockH2Op::with_kron(q.g1(), q.g2(), kron.clone(), true).unwrap();
        let (walk, seed, top): (&dyn ShiftedSolve, Vector, usize) = match g2 {
            Some(_) => (&block, block.btilde(&b, d1b.as_ref()), n),
            None => (&kron, kron_vec(&b, &b), 0),
        };
        let mut z = Matrix::from_fn(seed.len(), n, |i, j| seed[i] * b[j]);
        let lu = G1Factor::build_with_recovery(q.g1_csr(), false, None)
            .unwrap()
            .0;
        let d_chain = d1.zip(d1b.as_ref()).map(|(d, db)| d.matvec(db));
        let mut chain = CauchyAccumulator::new(&lu, n, count, d_chain);
        for _ in 0..count {
            z = solve_sylvester_big_small_with_schur(walk, &schur, &z).unwrap();
            let quadratic = g2.map(|g2| {
                let s = z.submatrix(0, n, 0, n);
                let mut nu = vec_of(&s);
                nu.axpy(1.0, &vec_of(&s.transpose()));
                g2.matvec(&nu)
            });
            let cubic = q.g3().map(|g3| {
                let nn = n * n;
                g3.matvec(&Vector::from_fn(nn * n, |k| z[(top + k % nn, k / nn)]))
            });
            chain.push(&h3_forcing(quadratic, cubic, n)).unwrap();
            chain.rescale(&mut [], &mut [&mut z]);
        }
        chain.finish()
    }

    /// The pre-Schur-resident `H₂` walk: `w_j` solved through
    /// [`crate::operators::KronSumOp2`] in original coordinates.
    fn oracle_h2_moments(q: &Qldae, pair: (usize, usize), count: usize) -> ScaledMoments {
        use crate::operators::KronSumOp2;
        use vamor_linalg::ShiftedSolve;
        let (b_a, b_b) = (q.b().col(pair.0), q.b().col(pair.1));
        let kron = KronSumOp2::new(q.g1()).unwrap();
        let lu = G1Factor::build_with_recovery(q.g1_csr(), false, None)
            .unwrap()
            .0;
        let d_seed = h2_d1_seed(q, pair, &b_a, &b_b);
        let mut chain = CauchyAccumulator::new(&lu, b_a.len(), count, d_seed);
        let mut w = kron_vec(&b_a, &b_b);
        for _ in 0..count {
            w = kron.solve_shifted(0.0, &w).unwrap();
            chain.push(&q.g2().matvec(&w)).unwrap();
            chain.rescale(&mut [&mut w], &mut []);
        }
        chain.finish()
    }

    /// Raw moments `vectors[k] · 10^mag[k]` agree to `tol` relative: the
    /// unit candidates up to sign and the recorded magnitudes.
    fn assert_matches_oracle(ours: &ScaledMoments, oracle: &ScaledMoments, tol: f64, what: &str) {
        assert_eq!(
            ours.vectors.len(),
            oracle.vectors.len(),
            "{what}: chain length"
        );
        for (k, (a, b)) in ours.vectors.iter().zip(&oracle.vectors).enumerate() {
            let dir = (a - b).norm2().min((a + b).norm2());
            let mag = (ours.log10_magnitudes[k] - oracle.log10_magnitudes[k]).abs()
                * std::f64::consts::LN_10;
            assert!(
                dir + mag <= tol,
                "{what} moment {k}: direction {dir:.3e}, magnitude {mag:.3e}"
            );
        }
    }

    /// The Schur-resident chains reproduce the old per-column walk on every
    /// system shape: the 20-section receiver (quadratic, two inputs), a
    /// quadratic-plus-cubic system, a quadratic system with `D₁` and a
    /// cubic-only system.
    #[test]
    fn schur_resident_chains_match_the_big_small_walk() {
        let rx = vamor_circuits::RfReceiver::new(20).unwrap();
        let systems = [
            ("receiver", rx.qldae().clone()),
            ("mixed", mixed_qldae(12, 7)),
            ("small d1", small_qldae(true)),
            ("small cubic", small_cubic()),
        ];
        for (name, q) in &systems {
            let generator = AssocMomentGenerator::new(q).unwrap();
            for input in 0..q.b().cols() {
                let what = format!("{name} H3 input {input}");
                let ours = generator.h3_moments_scaled(input, 3).unwrap();
                assert_matches_oracle(&ours, &oracle_h3_moments(q, input, 3), 1e-10, &what);
                if q.g2().nnz() > 0 {
                    for other in input..q.b().cols() {
                        let what = format!("{name} H2 inputs ({input}, {other})");
                        let ours = generator.h2_moments_scaled(input, other, 3).unwrap();
                        let oracle = oracle_h2_moments(q, (input, other), 3);
                        assert_matches_oracle(&ours, &oracle, 1e-10, &what);
                    }
                }
            }
        }
    }

    /// An orthogonal `Q` and an upper quasi-triangular `T` whose diagonal
    /// repeats, `copies` times, a complex 2×2 block, a 1×1 block and a 2×2
    /// block with *real* eigenvalues (the `disc ≥ 0` branch, which a
    /// standardized Schur form rarely yields).
    fn mixed_block_schur(copies: usize) -> SchurDecomposition {
        let n = 5 * copies;
        let mut t = Matrix::from_fn(n, n, |i, j| {
            if j > i {
                0.3 * ((i * 7 + j * 3) % 5) as f64 - 0.6
            } else {
                0.0
            }
        });
        let mut blocks = Vec::new();
        for c in 0..copies {
            let o = 5 * c;
            let shift = -0.1 * c as f64;
            for (i, j, v) in [
                (0, 0, -1.0 + shift),
                (0, 1, 2.0),
                (1, 0, -1.5),
                (1, 1, -1.2 + shift),
                (2, 2, -2.0 + shift),
                (3, 3, -3.0 + shift),
                (3, 4, 0.5),
                (4, 3, 0.4),
                (4, 4, -2.0 + shift),
            ] {
                t[(o + i, o + j)] = v;
            }
            blocks.extend([(o, 2), (o + 2, 1), (o + 3, 2)]);
        }
        let seed = Matrix::from_fn(n, n, |i, j| {
            ((i * 5 + j * 3) % 7) as f64 - 3.0 + (i == j) as u8 as f64
        });
        let q = SchurDecomposition::new(&seed).unwrap().q().clone();
        let blocks = blocks
            .into_iter()
            .map(|(start, size)| vamor_linalg::schur::SchurBlock { start, size })
            .collect();
        SchurDecomposition::from_parts(q, t, blocks)
    }

    /// `D X̂_e + X̂_e Dᵀ + Σ_f D[e, f] X̂_f` for every row `e` = `vec(X̂_e)`.
    fn kron3_apply(d: &Matrix, x: &Matrix) -> Matrix {
        let n = d.rows();
        let mode = |e: usize| unvec(&Vector::from_slice(x.row(e)), n, n).unwrap();
        let mut out = Matrix::zeros(n, n * n);
        for e in 0..n {
            let xe = mode(e);
            let mut y = &d.matmul(&xe) + &xe.matmul(&d.transpose());
            for f in 0..n {
                y.axpy(d[(e, f)], &mode(f));
            }
            out.row_mut(e).copy_from_slice(vec_of(&y).as_slice());
        }
        out
    }

    /// The three-mode kernel on a Schur form with every block kind — 1×1,
    /// complex 2×2 and real-eigenvalue 2×2 blocks — repeated once and four
    /// times: `D = V⁻¹ G₁ V` is block diagonal with the listed blocks (the
    /// complex pairs standardized, the real pairs split; the four copies'
    /// close eigenvalues merge into clusters, whose block of `D` is `T`'s),
    /// and the solve in its coordinates has a small residual.
    #[test]
    fn three_mode_schur_solve_has_small_residual() {
        use vamor_linalg::{BlockDiagonalSchur, DiagBlock};
        for copies in [1, 4] {
            let schur = mixed_block_schur(copies);
            let g1 = schur.q().matmul(schur.t()).matmul(&schur.q().transpose());
            let dec = BlockDiagonalSchur::new(schur);
            let d = dec.v_inv().matmul(&g1).matmul(dec.v());
            let n = d.rows();
            let mut listed = Matrix::zeros(n, n);
            for block in dec.blocks() {
                let k = block.start();
                match *block {
                    DiagBlock::Real { lambda, .. } => listed[(k, k)] = lambda,
                    DiagBlock::Complex { alpha, beta, .. } => {
                        listed[(k, k)] = alpha;
                        listed[(k, k + 1)] = beta;
                        listed[(k + 1, k)] = -beta;
                        listed[(k + 1, k + 1)] = alpha;
                    }
                    DiagBlock::Cluster { start, size } => {
                        for r in start..start + size {
                            for c in start..start + size {
                                listed[(r, c)] = dec.schur().t()[(r, c)];
                            }
                        }
                    }
                }
            }
            assert!((&d - &listed).max_abs() < 1e-12 * g1.max_abs());
            let clusters = dec
                .blocks()
                .iter()
                .filter(|b| matches!(b, DiagBlock::Cluster { .. }))
                .count();
            if copies == 1 {
                // The complex pair, the 1×1 block and the split real pair.
                assert_eq!(dec.blocks().len(), 4);
                assert_eq!(clusters, 0);
            } else {
                assert!(clusters > 0);
            }
            let rhs = Matrix::from_fn(n, n * n, |e, r| ((e * 11 + r * 5) % 13) as f64 - 6.0);
            let mut x = rhs.clone();
            dec.solve_kron3_into(x.as_mut_slice()).unwrap();
            let residual = (&kron3_apply(&listed, &x) - &rhs).max_abs() / rhs.max_abs();
            assert!(
                residual < 1e-12,
                "n = {n}: relative residual {residual:.3e}"
            );
            // Wrong shapes are typed errors, not panics.
            assert!(dec.solve_kron3_into(&mut x.as_mut_slice()[n..]).is_err());
        }
    }

    /// The memory-budget estimate is exactly what the stamp holds: the
    /// eager `G₁` factor, then each part built on use, once it exists — the
    /// one Schur pair of `G₁` with its block list, the decoupling basis `V`
    /// and `V⁻¹` with the block list of `D`, the energy weight's Cholesky
    /// factor, the band
    /// sampler's cache, and on the low-rank engine the chain shift cache
    /// with its shift pool and the LR-ADI factor. A session's re-price
    /// after a request sees the parts the request built.
    #[test]
    fn artifact_estimate_covers_every_held_matrix() {
        use crate::stamp::{EnergyWeight, StampConfig};
        use vamor_linalg::RunControl;
        let rx = vamor_circuits::RfReceiver::new(4).unwrap();
        let q = rx.qldae();
        let reducer = crate::AssocReducer::new(crate::MomentSpec::new(2, 1, 1));
        let stamp = SharedAssocArtifacts::new(q, reducer.stamp_config(q)).unwrap();
        let n = stamp.n();
        let dense = n * n * std::mem::size_of::<f64>();
        let lu = stamp.g1_lu().approx_bytes();
        assert_eq!(stamp.approx_bytes(), lu);
        let dec = stamp.decoupled(q).unwrap();
        let blocks =
            std::mem::size_of_val(dec.schur().blocks()) + std::mem::size_of_val(dec.blocks());
        // Schur Q, T and blocks once, V, V⁻¹ and D's blocks.
        let with_schur = lu + 4 * dense + blocks;
        assert_eq!(stamp.approx_bytes(), with_schur);
        // `build` is the eager dense stamp: LU(G₁) and the Schur parts.
        let built = SharedAssocArtifacts::build(q, SolverBackend::Auto).unwrap();
        assert_eq!(built.approx_bytes(), with_schur);
        stamp.weight(q, &RunControl::new()).unwrap();
        let weighted = with_schur + dense; // the Cholesky factor L
        assert_eq!(stamp.approx_bytes(), weighted);
        // A moment run leaves the stamp as built.
        let generator = AssocMomentGenerator::with_shared(q, &stamp).unwrap();
        generator.h3_moments_scaled(0, 2).unwrap();
        assert_eq!(stamp.approx_bytes(), weighted);
        // A session prices the parts a stabilized request built.
        let session = crate::ReductionSession::unbounded();
        session.reduce(q, &reducer, &RunControl::new()).unwrap();
        assert_eq!(session.budget().used(), weighted);
        // The sampler's dense G₁, before any frequency is factored.
        stamp.sampler(q);
        assert_eq!(stamp.approx_bytes(), weighted + dense);

        // Low-rank engine: the chain cache and shift pool, then the factor Z.
        let config = StampConfig::resolve(n, SolverBackend::Auto, true, Default::default());
        let stamp = SharedAssocArtifacts::new(q, config).unwrap();
        assert_eq!(stamp.approx_bytes(), lu);
        let chain = stamp.chain(q).unwrap();
        let chained =
            lu + chain.cache.approx_bytes() + chain.shifts.len() * std::mem::size_of::<f64>();
        assert!(
            chain.cache.approx_bytes() > dense,
            "the pool build holds factors"
        );
        assert_eq!(stamp.approx_bytes(), chained);
        let EnergyWeight::LowRank(w) = stamp.weight(q, &RunControl::new()).unwrap() else {
            panic!("a low-rank stamp builds the LR-ADI weight");
        };
        let z = w.z.as_ref().expect("a converged weight on the receiver");
        assert_eq!(
            stamp.approx_bytes(),
            chained + z.rows() * z.cols() * std::mem::size_of::<f64>()
        );
    }
}
