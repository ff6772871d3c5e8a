//! The stamp: what a reduction of one system factors, decided in one place.
//!
//! A stamp belongs to one system and one engine configuration — the
//! resolved linear-solver backend, the resolved reduction engine and the
//! [`LowRankOptions`]. [`crate::AssocReducer`], [`crate::NormReducer`],
//! every probe of an [`crate::AdaptiveReducer`] run and every
//! [`crate::ReductionSession`] request borrow one, so each part below is
//! built once per stamp, however many reductions read it:
//!
//! * **eagerly** — `LU(G₁)` through the pivot degradation ladder, with its
//!   [`PivotRecovery`];
//! * **on first use** — the band sampler's [`ShiftCache`] (a plain
//!   reduction never samples); `LU(G₁ᵀ)` through the same ladder, with its
//!   [`PivotRecovery`], for the dual chains of a two-sided reduction; on
//!   the dense engine the Schur form `G₁ = Q T Qᵀ` with its block
//!   diagonalization `G₁ = V D V⁻¹` (an unstabilized NORM reduction never
//!   asks for them): the stamp's one copy of the Schur form, which the
//!   energy weight and the Hurwitz verdict read, beside `V = Q Y` and
//!   `V⁻¹` (two more `n × n` matrices, `O(n³)` once), in whose coordinates
//!   the `H₂`/`H₃` chains run; on the low-rank engine the chain
//!   [`ShiftCache`] and the Ritz shift pool;
//! * **the energy weight, on the first stabilized use** — the Cholesky
//!   factor of the dense Schur Lyapunov weight, or the low-rank LR-ADI
//!   factor `Z` together with its ADI record, which every ROM's
//!   [`crate::ReductionStats`] copies. A build that a [`RunControl`] stops
//!   caches nothing.
//!
//! A part is immutable once built (the shift caches memoize factorizations
//! behind their own lock), so one stamp serves concurrent requests, and
//! [`SharedAssocArtifacts::approx_bytes`] counts each part once it exists.

use std::sync::{Arc, OnceLock};

use vamor_linalg::sparse_lu::SPARSE_AUTO_THRESHOLD;
use vamor_linalg::{
    eigenvalues, lyapunov_weight, BlockDiagonalSchur, CholeskyDecomposition, PivotRecovery,
    RunControl, SchurDecomposition, ShiftCache, SolverBackend,
};
use vamor_system::Qldae;

use crate::assoc::G1Factor;
use crate::error::MorError;
use crate::lowrank::{lowrank_weight, ChainShifts, LowRankOptions, LowRankWeight};
use crate::Result;

/// The engine configuration a stamp is factored for, resolved for its
/// system order: two reductions may share a stamp exactly when their
/// configurations are equal (a session keys stamps by its `Debug` form).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StampConfig {
    pub(crate) n: usize,
    /// The sparse direct solver (else dense LU) for every `G₁` solve.
    pub(crate) sparse: bool,
    /// The low-rank engine (else the dense Schur engine).
    pub(crate) lowrank: bool,
    pub(crate) opts: LowRankOptions,
}

impl StampConfig {
    pub(crate) fn resolve(
        n: usize,
        backend: SolverBackend,
        lowrank: bool,
        opts: LowRankOptions,
    ) -> Self {
        StampConfig {
            n,
            sparse: backend.use_sparse(n, SPARSE_AUTO_THRESHOLD),
            lowrank,
            opts,
        }
    }

    /// The resolved backend, for the shift caches.
    pub(crate) fn backend(&self) -> SolverBackend {
        if self.sparse {
            SolverBackend::Sparse
        } else {
            SolverBackend::Dense
        }
    }
}

/// The energy weight of the stabilized projection.
#[derive(Debug)]
pub(crate) enum EnergyWeight {
    /// Cholesky factor of the Schur Lyapunov weight `Gᵀ₁M + MG₁ = −I`;
    /// `None` when `G₁` is not Hurwitz (the weight is then not positive
    /// definite and the projection degrades to plain Galerkin).
    Dense(Option<CholeskyDecomposition>),
    /// The LR-ADI factor and its ADI record.
    LowRank(LowRankWeight),
}

#[derive(Debug)]
struct StampParts {
    config: StampConfig,
    g1_lu: G1Factor,
    recovery: PivotRecovery,
    sampler: OnceLock<ShiftCache>,
    decoupled: OnceLock<BlockDiagonalSchur>,
    g1t_lu: OnceLock<(G1Factor, PivotRecovery)>,
    chain: OnceLock<ChainShifts>,
    weight: OnceLock<EnergyWeight>,
    g1_hurwitz: OnceLock<bool>,
}

/// The stamp of one system and engine configuration (see the module docs):
/// the factorizations every reduction over it borrows. Cheap to clone (one
/// `Arc`); a [`ReductionSession`](crate::ReductionSession) keeps one per
/// system fingerprint and engine configuration.
#[derive(Debug, Clone)]
pub struct SharedAssocArtifacts {
    parts: Arc<StampParts>,
}

impl SharedAssocArtifacts {
    /// The dense-engine stamp of `qldae`, built eagerly: `LU(G₁)` through
    /// the pivot degradation ladder in the backend `backend` picks, and the
    /// Schur form of `G₁` with its block diagonalization. The other parts
    /// are built on first use.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::AssocMomentGenerator::new`] — a singular
    /// `G₁` is reported as a typed error.
    pub fn build(qldae: &Qldae, backend: SolverBackend) -> Result<Self> {
        let n = qldae.g1_csr().rows();
        let config = StampConfig::resolve(n, backend, false, LowRankOptions::default());
        let stamp = Self::new(qldae, config)?;
        stamp.decoupled(qldae)?;
        Ok(stamp)
    }

    /// Factors the eager part of the stamp of `qldae` under `config`.
    pub(crate) fn new(qldae: &Qldae, config: StampConfig) -> Result<Self> {
        let csr = qldae.g1_csr();
        let (g1_lu, recovery) =
            G1Factor::build_with_recovery(csr, config.sparse, None).map_err(MorError::Linalg)?;
        Ok(SharedAssocArtifacts {
            parts: Arc::new(StampParts {
                config,
                g1_lu,
                recovery,
                sampler: OnceLock::new(),
                decoupled: OnceLock::new(),
                g1t_lu: OnceLock::new(),
                chain: OnceLock::new(),
                weight: OnceLock::new(),
                g1_hurwitz: OnceLock::new(),
            }),
        })
    }

    /// System order the stamp was factored for.
    pub fn n(&self) -> usize {
        self.parts.config.n
    }

    pub(crate) fn config(&self) -> StampConfig {
        self.parts.config
    }

    /// The `s = 0` factorization of `G₁`.
    pub(crate) fn g1_lu(&self) -> &G1Factor {
        &self.parts.g1_lu
    }

    /// What the pivot degradation ladder did while factoring `G₁`.
    pub(crate) fn recovery(&self) -> PivotRecovery {
        self.parts.recovery
    }

    /// The band sampler's resolvent cache over `G₁`, built on first use.
    pub(crate) fn sampler(&self, qldae: &Qldae) -> &ShiftCache {
        let backend = self.parts.config.backend();
        self.parts
            .sampler
            .get_or_init(|| ShiftCache::new(qldae.g1_csr(), backend))
    }

    /// The Schur form of `G₁` and its block diagonalization, built on first
    /// use; the `H₂`/`H₃` Kronecker walks run in its decoupled coordinates.
    pub(crate) fn decoupled(&self, qldae: &Qldae) -> Result<&BlockDiagonalSchur> {
        built_once(&self.parts.decoupled, || {
            let schur = SchurDecomposition::new(qldae.g1()).map_err(MorError::Linalg)?;
            let _span = vamor_obs::span!("block_diagonalize");
            Ok(BlockDiagonalSchur::new(schur))
        })
    }

    /// `LU(G₁ᵀ)` through the pivot degradation ladder in the stamp's
    /// backend, with what the ladder did, factored on first use.
    pub(crate) fn g1t_lu(&self, qldae: &Qldae) -> Result<&(G1Factor, PivotRecovery)> {
        let sparse = self.parts.config.sparse;
        built_once(&self.parts.g1t_lu, || {
            G1Factor::build_with_recovery(&qldae.g1_csr().transpose(), sparse, None)
                .map_err(MorError::Linalg)
        })
    }

    /// The low-rank chain shift cache and Ritz shift pool, built on first
    /// use.
    pub(crate) fn chain(&self, qldae: &Qldae) -> Result<&ChainShifts> {
        let config = self.parts.config;
        built_once(&self.parts.chain, || {
            ChainShifts::build(qldae, config.backend(), &config.opts)
        })
    }

    /// The engine's energy weight, built on first use. A build `control`
    /// stops returns the typed `Interrupted` error and caches nothing.
    pub(crate) fn weight(&self, qldae: &Qldae, control: &RunControl) -> Result<&EnergyWeight> {
        let config = self.parts.config;
        built_once(&self.parts.weight, || {
            let _span = vamor_obs::span!("energy_weight");
            if config.lowrank {
                let (backend, opts) = (config.backend(), &config.opts);
                let weight = lowrank_weight(qldae.g1_csr(), qldae.c(), backend, opts, control)?;
                return Ok(EnergyWeight::LowRank(weight));
            }
            let m = lyapunov_weight(self.decoupled(qldae)?.schur());
            Ok(EnergyWeight::Dense(
                m.ok().and_then(|m| CholeskyDecomposition::new(&m).ok()),
            ))
        })
    }

    /// Whether the full `G₁` is Hurwitz: read off the Schur form when the
    /// stamp holds one, else computed (and remembered) without keeping a
    /// Schur form — only a reduction the spectral guard finds unstable asks.
    pub(crate) fn g1_hurwitz(&self, qldae: &Qldae) -> bool {
        *self
            .parts
            .g1_hurwitz
            .get_or_init(|| match self.parts.decoupled.get() {
                Some(d) => d.schur().eigenvalues().iter().all(|z| z.re < 0.0),
                None => eigenvalues(qldae.g1()).is_ok_and(|eig| eig.is_hurwitz()),
            })
    }

    /// Heap footprint for the session memory-budget governor: the `G₁`
    /// factor, plus every part built on use once it exists — the band
    /// sampler's cache, the Schur pair of `G₁` with its block list beside
    /// `V`, `V⁻¹` and the block list of `D`, the `G₁ᵀ` factor, the chain
    /// shift cache with its shift pool, and the energy weight's factor. The
    /// shift caches grow as they memoize, so the estimate is the size held
    /// at the time of the call.
    pub fn approx_bytes(&self) -> usize {
        let p = &self.parts;
        let dense = p
            .decoupled
            .get()
            .map_or(0, BlockDiagonalSchur::approx_bytes);
        let g1t = p.g1t_lu.get().map_or(0, |(lu, _)| lu.approx_bytes());
        let chain = p.chain.get().map_or(0, ChainShifts::approx_bytes);
        let weight = p.weight.get().map_or(0, |w| match w {
            EnergyWeight::Dense(chol) => chol
                .as_ref()
                .map_or(0, |c| std::mem::size_of_val(c.l().as_slice())),
            EnergyWeight::LowRank(w) => {
                w.z.as_ref()
                    .map_or(0, |z| std::mem::size_of_val(z.as_slice()))
            }
        });
        let sampler = p.sampler.get().map_or(0, ShiftCache::approx_bytes);
        p.g1_lu.approx_bytes() + sampler + dense + g1t + chain + weight
    }
}

/// The value in `cell`, built by `build` if the cell is empty; a failed
/// build leaves it empty.
fn built_once<T>(cell: &OnceLock<T>, build: impl FnOnce() -> Result<T>) -> Result<&T> {
    if let Some(value) = cell.get() {
        return Ok(value);
    }
    let value = build()?;
    Ok(cell.get_or_init(|| value))
}
