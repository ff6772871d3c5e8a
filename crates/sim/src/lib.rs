//! # vamor-sim
//!
//! Transient simulation of the polynomial state-space systems defined in
//! `vamor-system`, used both for the "Original" curves of the paper's figures
//! and for the repeated simulation of reduced-order models.
//!
//! The crate provides:
//!
//! * input waveforms ([`input`]): steps, (damped) sinusoids, two-tone
//!   excitations and the double-exponential surge pulse of the varistor
//!   experiment;
//! * fixed-step integrators ([`transient`]): explicit RK4 for non-stiff
//!   reduced models and an implicit trapezoidal rule with (modified) Newton
//!   iterations for the stiff diode-line circuits;
//! * error metrics ([`metrics`]) matching the "relative error" curves of the
//!   paper's figures.
//!
//! ```
//! use vamor_circuits::TransmissionLine;
//! use vamor_sim::{simulate, ExpPulse, IntegrationMethod, TransientOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let line = TransmissionLine::current_driven(10)?;
//! let input = ExpPulse::new(0.5, 0.5, 3.0);
//! let opts = TransientOptions::new(0.0, 5.0, 0.01)
//!     .with_method(IntegrationMethod::ImplicitTrapezoidal);
//! let result = simulate(line.qldae(), &input, &opts)?;
//! assert_eq!(result.times.len(), result.outputs.len());
//! # Ok(())
//! # }
//! ```

mod error;
pub mod input;
pub mod metrics;
pub mod transient;

pub use error::SimError;
pub use input::{Constant, ExpPulse, InputSignal, MultiChannel, SinePulse, Step, TwoTone, Zero};
pub use metrics::{max_relative_error, relative_error_series, rms_error};
pub use transient::{
    simulate, simulate_controlled, AdaptiveStepOptions, IntegrationMethod, JacobianPolicy,
    SolverStats, TransientOptions, TransientResult, INTEGRATOR_BUDGET_OWNER,
};
pub use vamor_linalg::{
    BudgetError, MemoryBudget, ProgressEvent, RunControl, SolverBackend, StopCause,
};

/// Result alias for simulation routines.
pub type Result<T> = std::result::Result<T, SimError>;
