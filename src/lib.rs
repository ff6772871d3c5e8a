//! # vamor — Volterra Associated-transform Model Order Reduction
//!
//! Umbrella crate re-exporting the `vamor` workspace: a from-scratch Rust
//! reproduction of *"Fast Nonlinear Model Order Reduction via Associated
//! Transforms of High-Order Volterra Transfer Functions"* (Zhang, Liu, Wang,
//! Fong, Wong — DAC 2012).
//!
//! The workspace is organized as:
//!
//! * [`linalg`] — dense/sparse linear algebra, Schur, Sylvester/Lyapunov,
//!   Kronecker algebra and Krylov machinery (no external math dependencies).
//! * [`system`] — state-space representations: LTI and the one polynomial
//!   system (QLDAE with an optional cubic term).
//! * [`circuits`] — synthetic circuit generators (nonlinear transmission
//!   line, RF receiver, ZnO varistor surge protector).
//! * [`core`] — the paper's contribution: associated transforms of
//!   high-order Volterra transfer functions, moment/Krylov subspace
//!   generation and projection-based reduction, plus the NORM baseline.
//! * [`sim`] — transient simulation (explicit and implicit integrators),
//!   input waveforms and error metrics.
//!
//! ## Quickstart
//!
//! ```
//! use vamor::circuits::TransmissionLine;
//! use vamor::core::{AssocReducer, MomentSpec};
//! use vamor::sim::{max_relative_error, simulate, SinePulse, TransientOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a small nonlinear transmission line as a QLDAE system.
//! let line = TransmissionLine::current_driven(20)?;
//! let full = line.qldae();
//!
//! // Reduce it with the associated-transform method: 4/2/1 moments of
//! // H1/H2/H3.
//! let rom = AssocReducer::new(MomentSpec::new(4, 2, 1)).reduce(full)?;
//! assert!(rom.order() < 20);
//!
//! // Transiently simulate both and compare the outputs.
//! let input = SinePulse::damped(0.5, 0.4, 0.1);
//! let opts = TransientOptions::new(0.0, 10.0, 0.01);
//! let y_full = simulate(full, &input, &opts)?.output_channel(0);
//! let y_rom = simulate(rom.system(), &input, &opts)?.output_channel(0);
//! assert!(max_relative_error(&y_full, &y_rom) < 0.02);
//! # Ok(())
//! # }
//! ```

pub use vamor_circuits as circuits;
pub use vamor_core as core;
pub use vamor_linalg as linalg;
pub use vamor_sim as sim;
pub use vamor_system as system;
