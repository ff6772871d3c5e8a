//! The NORM baseline: projection onto multivariate Volterra moment spaces.
//!
//! NORM (Li & Pileggi, DAC 2003 / TCAD 2005) matches the moments of the
//! *multivariate* transfer functions `H₂(s₁,s₂)`, `H₃(s₁,s₂,s₃)` directly.
//! Every mixed moment direction contributes its own candidate vector, so the
//! subspace for `k₂` second-order and `k₃` third-order moments grows like
//! `O(k₂³)` and `O(k₃⁴)` — the "dimensionality curse" the associated
//! transform removes. This module implements that baseline so the paper's
//! size and runtime comparisons (Table 1, Figs. 3–4) can be reproduced.
//! Only the candidate generation is NORM's own: the chains solve against
//! the same stamp's `LU(G₁)` as the proposed method, and the basis is
//! settled, weighted, guarded and projected by its pipeline (see
//! [`crate::reduce`]). The stamp's Schur form of `G₁` is factored only for
//! a stabilized dense reduction, which needs it for the energy weight.

use vamor_linalg::{OrthoBasis, RunControl, SolverBackend, Vector};
use vamor_system::Qldae;

use crate::assoc::G1Factor;
use crate::error::MorError;
use crate::lowrank::{LowRankOptions, ReductionEngine};
use crate::reduce::{
    run_chains, AssocReducer, MomentSpec, ReducedQldae, ReductionStats, StabilizationFrame,
};
use crate::stamp::SharedAssocArtifacts;
use crate::Result;

/// The multivariate moment-matching (NORM-style) reducer used as the paper's
/// baseline.
///
/// ```
/// use vamor_circuits::TransmissionLine;
/// use vamor_core::{AssocReducer, MomentSpec, NormReducer};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let line = TransmissionLine::current_driven(30)?;
/// let spec = MomentSpec::new(4, 2, 1);
/// let proposed = AssocReducer::new(spec).reduce(line.qldae())?;
/// let baseline = NormReducer::new(spec).reduce(line.qldae())?;
/// // Same moment orders, but the multivariate baseline needs a larger basis.
/// assert!(baseline.order() >= proposed.order());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NormReducer {
    /// The projection-pipeline settings, shared with the proposed method so
    /// both run under the same numerical safeguards.
    pipeline: AssocReducer,
}

impl NormReducer {
    /// Creates a baseline reducer for the given moment specification.
    pub fn new(spec: MomentSpec) -> Self {
        NormReducer {
            pipeline: AssocReducer::new(spec),
        }
    }

    /// Selects the linear-solver backend of the `G₁` resolvent chains (see
    /// [`crate::AssocReducer::with_solver_backend`]).
    pub fn with_solver_backend(mut self, backend: SolverBackend) -> Self {
        self.pipeline = self.pipeline.with_solver_backend(backend);
        self
    }

    /// Selects the reduction engine (see
    /// [`crate::AssocReducer::with_engine`]). The NORM chains are pure `G₁`
    /// resolvent sweeps, so the low-rank engine only changes the *weight*
    /// (LR-ADI factored Gramian instead of the dense Schur Lyapunov solve)
    /// and keeps the dense `G₁` view unmaterialized.
    pub fn with_engine(mut self, engine: ReductionEngine) -> Self {
        self.pipeline = self.pipeline.with_engine(engine);
        self
    }

    /// Overrides the low-rank engine tuning knobs (see
    /// [`crate::AssocReducer::with_lowrank_options`]).
    pub fn with_lowrank_options(mut self, opts: LowRankOptions) -> Self {
        self.pipeline = self.pipeline.with_lowrank_options(opts);
        self
    }

    /// Overrides the deflation tolerance.
    pub fn with_deflation_tol(mut self, tol: f64) -> Self {
        self.pipeline = self.pipeline.with_deflation_tol(tol);
        self
    }

    /// Enables the energy-inner-product stabilized projection (see
    /// [`crate::AssocReducer::with_stabilized_projection`]); on by default so
    /// the baseline is compared against the proposed method under the same
    /// numerical safeguards.
    pub fn with_stabilized_projection(mut self, enabled: bool) -> Self {
        self.pipeline = self.pipeline.with_stabilized_projection(enabled);
        self
    }

    /// The moment specification.
    pub fn spec(&self) -> MomentSpec {
        self.pipeline.spec()
    }

    /// Number of candidate vectors the multivariate expansion generates for a
    /// single-input system (before deflation): `k₁` first-order directions,
    /// `O(k₂³)` second-order directions and `O(k₃⁴)` third-order directions.
    pub fn candidate_count(&self, num_inputs: usize) -> usize {
        let MomentSpec { k1, k2, k3 } = self.spec();
        // Second order: indices (p, a, b) with p + a + b <= k2 - 1.
        let second = if k2 == 0 {
            0
        } else {
            compositions_upto(3, k2 - 1)
        };
        // Third order: indices (p, a) plus a second-order tuple, total degree
        // <= k3 - 1 (two variants: A ⊗ H2 and H2 ⊗ A, plus a D1 chain).
        let third = if k3 == 0 {
            0
        } else {
            2 * compositions_upto(5, k3 - 1) + compositions_upto(4, k3 - 1)
        };
        num_inputs * (k1 + second + third) * if num_inputs > 1 { num_inputs } else { 1 }
    }

    /// Reduces a QLDAE with multivariate moment matching. The baseline has
    /// no cubic path: a system with a `G₃` is refused rather than projected
    /// without it.
    ///
    /// # Errors
    ///
    /// Returns an error if `G₁` is singular or every candidate deflates, and
    /// [`MorError::Invalid`] for a system with a cubic term.
    pub fn reduce(&self, qldae: &Qldae) -> Result<ReducedQldae> {
        self.reduce_controlled(qldae, &RunControl::new())
    }

    /// [`NormReducer::reduce`] under a cooperative [`RunControl`], checked
    /// once per resolvent chain. A cancellation or passed deadline surfaces
    /// as a typed
    /// [`LinalgError::Interrupted`](vamor_linalg::LinalgError::Interrupted).
    ///
    /// # Errors
    ///
    /// Same contract as [`NormReducer::reduce`], plus `Interrupted` on a
    /// stop.
    pub fn reduce_controlled(&self, qldae: &Qldae, control: &RunControl) -> Result<ReducedQldae> {
        self.validate(qldae)?;
        let stamp = SharedAssocArtifacts::new(qldae, self.pipeline.stamp_config(qldae))?;
        self.reduce_on(qldae, &stamp, control)
    }

    fn validate(&self, qldae: &Qldae) -> Result<()> {
        self.spec().validate()?;
        if qldae.g3().is_some() {
            return Err(MorError::Invalid(
                "the NORM baseline has no cubic path; reduce systems with a G3 with AssocReducer"
                    .into(),
            ));
        }
        Ok(())
    }

    /// The NORM reduce core, borrowing the factorizations of `stamp` (of
    /// the pipeline's `stamp_config`): the chains solve against its
    /// `LU(G₁)`, and only a stabilized run asks for its energy weight.
    ///
    /// # Errors
    ///
    /// Same contract as [`NormReducer::reduce_controlled`].
    pub(crate) fn reduce_on(
        &self,
        qldae: &Qldae,
        stamp: &SharedAssocArtifacts,
        control: &RunControl,
    ) -> Result<ReducedQldae> {
        let _span = vamor_obs::span!("norm_reduce");
        self.validate(qldae)?;
        let spec = self.spec();
        let n = stamp.n();
        let g1_lu = stamp.g1_lu();
        let mut stats = ReductionStats::default();
        stats.degradation.absorb_pivot(stamp.recovery());
        let mut frame = StabilizationFrame::new(qldae, stamp);
        if self.pipeline.stabilized && !frame.is_lowrank() {
            frame.weigh(control, &mut stats)?;
        }

        let mut basis = OrthoBasis::with_tolerance(n, self.pipeline.deflation_tol);

        // First-order chains A_a = G1^{-(a+1)} b per input, computed on
        // worker threads (one independent chain per input).
        let max_chain = spec.k1.max(spec.k2).max(spec.k3).max(1);
        let input_columns: Vec<Vector> = (0..qldae.b().cols()).map(|i| qldae.b().col(i)).collect();
        let chains: Vec<Vec<Vector>> = run_chains(input_columns, control, |b| {
            resolvent_chain(g1_lu, b, max_chain - 1)
        })?;

        for chain in &chains {
            control.checkpoint("norm-basis")?;
            stats.h1_candidates += chain.len().min(spec.k1);
            frame.insert(&mut basis, chain.iter().take(spec.k1).cloned())?;
        }

        // Second-order multivariate directions: seeds are cheap structured
        // matvecs gathered in deterministic order; the resolvent chains (the
        // expensive repeated solves) run in parallel, and the results are
        // inserted into the basis in seed order.
        let mut h2_directions: Vec<(usize, Vector)> = Vec::new();
        if spec.k2 > 0 {
            let k2 = spec.k2;
            let mut seeds: Vec<(Vector, usize, usize)> = Vec::new();
            for (ia, chain_a) in chains.iter().enumerate() {
                control.checkpoint("norm-seeds")?;
                for chain_b in chains.iter() {
                    for (a, dir_a) in chain_a.iter().enumerate().take(k2) {
                        for (b, dir_b) in chain_b.iter().enumerate().take(k2) {
                            if a + b + 1 > k2 {
                                continue;
                            }
                            let seed = qldae.g2().matvec_kron(dir_a, dir_b);
                            let degree = a + b;
                            seeds.push((seed, k2 - 1 - degree, degree));
                        }
                    }
                }
                // Bilinear D1 chains.
                if let Some(d1) = qldae.d1().get(ia) {
                    if d1.nnz() > 0 {
                        for (a, dir_a) in chain_a.iter().enumerate().take(k2) {
                            seeds.push((d1.matvec(dir_a), k2 - 1 - a, a));
                        }
                    }
                }
            }
            let degrees: Vec<usize> = seeds.iter().map(|(_, _, degree)| *degree).collect();
            let computed = run_chains(seeds, control, |(seed, extra, _)| {
                resolvent_chain(g1_lu, seed, extra)
            })?;
            for (chain, base_degree) in computed.into_iter().zip(degrees) {
                control.checkpoint("norm-basis")?;
                stats.h2_candidates += chain.len();
                frame.insert(&mut basis, chain.iter().cloned())?;
                h2_directions.extend(
                    chain
                        .into_iter()
                        .enumerate()
                        .map(|(p, v)| (base_degree + p, v)),
                );
            }
        }

        // Third-order multivariate directions: combine first-order chains with
        // the second-order directions (both Kronecker orders), plus D1 chains
        // on the second-order directions.
        if spec.k3 > 0 {
            let k3 = spec.k3;
            let mut seeds: Vec<(Vector, usize, usize)> = Vec::new();
            for (ia, chain_a) in chains.iter().enumerate() {
                control.checkpoint("norm-seeds")?;
                for (a, dir_a) in chain_a.iter().enumerate().take(k3) {
                    for (deg2, dir2) in &h2_directions {
                        if a + deg2 + 1 > k3 {
                            continue;
                        }
                        let degree = a + deg2;
                        seeds.push((qldae.g2().matvec_kron(dir_a, dir2), k3 - 1 - degree, degree));
                        seeds.push((qldae.g2().matvec_kron(dir2, dir_a), k3 - 1 - degree, degree));
                    }
                }
                if let Some(d1) = qldae.d1().get(ia) {
                    if d1.nnz() > 0 {
                        for (deg2, dir2) in &h2_directions {
                            if deg2 + 1 > k3 {
                                continue;
                            }
                            seeds.push((d1.matvec(dir2), k3 - 1 - deg2, *deg2));
                        }
                    }
                }
            }
            let computed = run_chains(seeds, control, |(seed, extra, _)| {
                resolvent_chain(g1_lu, seed, extra)
            })?;
            for chain in computed {
                control.checkpoint("norm-basis")?;
                stats.h3_candidates += chain.len();
                frame.insert(&mut basis, chain)?;
            }
        }

        self.pipeline.finish(qldae, basis, frame, stats, control)
    }
}

/// Applies `G₁⁻¹` repeatedly (`1 + extra` times) to `seed`, returning every
/// iterate at unit norm — the expensive inner kernel of the NORM expansion,
/// run on the worker threads. Normalizing the running iterate is exact on the
/// spanned directions (the chain is linear) and keeps deep multivariate
/// chains from overflowing or drowning the deflation test, mirroring the
/// moment scaling of the associated-transform generator.
fn resolvent_chain(g1_lu: &G1Factor, seed: Vector, extra: usize) -> Result<Vec<Vector>> {
    let mut out = Vec::with_capacity(extra + 1);
    let mut v = seed;
    for _ in 0..=extra {
        v = g1_lu.solve(&v).map_err(MorError::Linalg)?;
        let norm = v.norm2();
        if norm > 0.0 && norm.is_finite() {
            v.scale_mut(1.0 / norm);
        }
        out.push(v.clone());
    }
    Ok(out)
}

/// Number of tuples of `k` non-negative integers with sum at most `max_sum`
/// (used only for the size estimate in [`NormReducer::candidate_count`]).
fn compositions_upto(k: usize, max_sum: usize) -> usize {
    // C(max_sum + k, k)
    let mut num = 1usize;
    for i in 1..=k {
        num = num * (max_sum + i) / i;
    }
    num
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::AssocReducer;
    use crate::volterra::VolterraKernels;
    use vamor_linalg::Complex;
    use vamor_system::QldaeBuilder;

    fn chain_qldae(n: usize) -> Qldae {
        let mut b = QldaeBuilder::new(n, 1);
        for i in 0..n {
            b = b.g1_entry(i, i, -(1.0 + 0.2 * i as f64));
            if i + 1 < n {
                b = b.g1_entry(i, i + 1, 0.4).g1_entry(i + 1, i, 0.3);
            }
        }
        b = b
            .g2_entry(0, 0, 1, 0.3)
            .g2_entry(n - 1, 0, 0, -0.2)
            .g2_entry(1, 2, 2, 0.1);
        b.b_entry(0, 0, 1.0).output_state(n - 1).build().unwrap()
    }

    #[test]
    fn norm_subspace_is_larger_than_associated_subspace() {
        let q = chain_qldae(12);
        let spec = MomentSpec::new(3, 2, 1);
        let proposed = AssocReducer::new(spec).reduce(&q).unwrap();
        let baseline = NormReducer::new(spec).reduce(&q).unwrap();
        assert!(baseline.order() >= proposed.order());
        assert!(
            baseline.stats().total_candidates() > proposed.stats().total_candidates(),
            "NORM should generate more candidate vectors ({} vs {})",
            baseline.stats().total_candidates(),
            proposed.stats().total_candidates()
        );
    }

    #[test]
    fn norm_rom_matches_first_and_second_order_kernels_near_dc() {
        let q = chain_qldae(8);
        let rom = NormReducer::new(MomentSpec::new(3, 2, 1))
            .reduce(&q)
            .unwrap();
        let full = VolterraKernels::new(&q, 0).unwrap();
        let red = VolterraKernels::new(rom.system(), 0).unwrap();
        let s1 = Complex::new(0.0, 0.05);
        let s2 = Complex::new(0.01, 0.02);
        let a1 = full.output_h1(s1).unwrap();
        let b1 = red.output_h1(s1).unwrap();
        assert!((a1 - b1).abs() < 1e-4 * (1.0 + a1.abs()));
        let a2 = full.output_h2(s1, s2).unwrap();
        let b2 = red.output_h2(s1, s2).unwrap();
        assert!((a2 - b2).abs() < 1e-3 * (1.0 + a2.abs()));
    }

    #[test]
    fn candidate_count_grows_much_faster_than_linear() {
        let reducer_small = NormReducer::new(MomentSpec::new(2, 2, 2));
        let reducer_large = NormReducer::new(MomentSpec::new(4, 4, 4));
        let small = reducer_small.candidate_count(1);
        let large = reducer_large.candidate_count(1);
        // Doubling the moment orders must blow the count up by far more than 2x.
        assert!(
            large > 4 * small,
            "expected super-linear growth: {small} -> {large}"
        );
        assert_eq!(reducer_small.spec().k1, 2);
    }

    #[test]
    fn empty_spec_is_rejected() {
        let q = chain_qldae(4);
        assert!(NormReducer::new(MomentSpec::new(0, 0, 0))
            .reduce(&q)
            .is_err());
    }
}
