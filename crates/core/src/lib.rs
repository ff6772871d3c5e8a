//! # vamor-core
//!
//! The paper's contribution: **nonlinear model order reduction via associated
//! transforms of high-order Volterra transfer functions** (Zhang, Liu, Wang,
//! Fong, Wong — DAC 2012), together with the NORM-style multivariate
//! moment-matching baseline it is compared against.
//!
//! The flow is:
//!
//! 1. describe the weakly/strongly nonlinear circuit as one polynomial
//!    system — a QLDAE, optionally with a cubic `G₃` term
//!    (`vamor-system` / `vamor-circuits`);
//! 2. the association of variables collapses each multivariate Volterra
//!    kernel `Hₙ(s₁,…,sₙ)` into a single-`s` transfer function with an
//!    explicit linear realization ([`assoc`], whose dense moment chains run
//!    in `G₁`'s Schur coordinates; [`operators`] and [`bigsmall`] hold the
//!    structured operators and the generic big-small Sylvester solver);
//! 3. Krylov/moment vectors of those single-`s` functions are orthonormalized
//!    into one projection matrix and the QLDAE is projected
//!    ([`AssocReducer`], [`project`]);
//! 4. the same moment orders matched with multivariate expansions give the
//!    NORM baseline ([`NormReducer`]) whose subspace grows as `O(k₂³ + k₃⁴)`
//!    instead of `O(k₂ + k₃)`.
//!
//! ```
//! use vamor_circuits::TransmissionLine;
//! use vamor_core::{AssocReducer, MomentSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let line = TransmissionLine::current_driven(35)?; // the paper's 70-state case, scaled down
//! let rom = AssocReducer::new(MomentSpec::new(4, 2, 1)).reduce(line.qldae())?;
//! println!("reduced {} -> {}", 35, rom.order());
//! assert!(rom.order() < 10);
//! # Ok(())
//! # }
//! ```

pub mod adaptive;
pub mod assoc;
pub mod bigsmall;
pub mod control;
mod error;
pub mod lowrank;
pub mod norm;
pub mod operators;
pub mod par;
pub mod project;
pub mod reduce;
pub mod session;
mod stamp;
pub mod volterra;

pub use adaptive::{
    AdaptiveConfig, AdaptiveHooks, AdaptiveMove, AdaptiveOutcome, AdaptiveReducer, AdaptiveSpec,
    AdaptiveStep, AdaptiveTrace, BandResidual, BandSampler, BandSamplerOptions, FrequencyBand,
    ReducerKind, StopReason,
};
pub use assoc::{AssocMomentGenerator, ScaledMoments, SharedAssocArtifacts};
pub use bigsmall::solve_sylvester_big_small_with_schur;
pub use control::{ProgressEvent, RunControl, StopCause};
pub use error::MorError;
pub use lowrank::{
    LowRankAssocMomentGenerator, LowRankCubicMomentGenerator, LowRankDiagnostics, LowRankOptions,
    ReductionEngine, LOWRANK_AUTO_THRESHOLD,
};
pub use norm::NormReducer;
pub use operators::{BlockH2Op, KronSumOp2};
pub use par::{parallel_map, try_parallel_map};
pub use project::project_qldae_petrov;
pub use reduce::{
    AssocReducer, DegradationReport, MomentSpec, ReducedCubicOde, ReducedQldae, ReductionStats,
};
pub use session::{
    AdaptiveCheckpoint, CheckpointError, CheckpointPlan, ReductionSession, SessionError,
    SessionStats, STAMP_BUDGET_OWNER,
};
pub use vamor_linalg::{MemoryBudget, SolverBackend};
pub use volterra::VolterraKernels;

/// Result alias for reduction routines.
pub type Result<T> = std::result::Result<T, MorError>;
