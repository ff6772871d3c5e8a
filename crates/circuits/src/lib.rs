//! # vamor-circuits
//!
//! Synthetic circuit generators that reproduce the benchmark systems of the
//! DAC 2012 paper *"Fast Nonlinear Model Order Reduction via Associated
//! Transforms of High-Order Volterra Transfer Functions"*:
//!
//! * [`TransmissionLine`] — the nonlinear (diode-loaded) RC transmission line
//!   used in §3.1 (voltage-driven, with a `D₁` bilinear term) and §3.2
//!   (current-driven, without `D₁`).
//! * [`RfReceiver`] — a multi-input (signal + interferer) receiver chain in
//!   QLDAE form, standing in for the 173-unknown RF front-end of §3.3.
//! * [`VaristorCircuit`] — a ZnO varistor surge-protection circuit with a
//!   cubic nonlinearity, standing in for the 102-state ODE of §3.4.
//!
//! The generators assemble the quadratic-linear (QLDAE) or cubic polynomial
//! equations directly via modified-nodal-analysis style stamping; the
//! MOR algorithms in `vamor-core` only ever see the resulting
//! [`vamor_system::Qldae`] systems (the varistor's with `G₂ = 0` and a cubic
//! `G₃`), which is why
//! these synthetic stand-ins preserve the behaviour the paper's experiments
//! probe (sizes, sparsity, nonlinearity type, stability and input coupling).
//!
//! ```
//! use vamor_circuits::TransmissionLine;
//! use vamor_system::PolynomialStateSpace;
//!
//! # fn main() -> Result<(), vamor_system::SystemError> {
//! let line = TransmissionLine::current_driven(35)?;
//! assert_eq!(line.qldae().order(), 35);
//! assert!(!line.qldae().has_d1());
//! # Ok(())
//! # }
//! ```

mod diode;
mod rf_receiver;
mod transmission_line;
mod varistor;

pub use diode::DiodeModel;
pub use rf_receiver::RfReceiver;
pub use transmission_line::TransmissionLine;
pub use varistor::VaristorCircuit;
