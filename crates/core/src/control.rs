//! Run control for long reductions: cooperative cancellation, wall-clock
//! deadlines, and progress callbacks.
//!
//! This is a facade over [`vamor_linalg::control`] so reduction drivers can
//! depend on `vamor_core` alone. A [`RunControl`] is a cheap cloneable handle:
//! hand one clone to the reduction (`AdaptiveReducer::reduce_controlled`,
//! `AssocReducer::reduce_controlled`, ...) and keep another to call
//! [`RunControl::cancel`] from a signal handler or watchdog thread. The
//! engines check the token at chain, band-point, ADI-sweep and greedy-move
//! granularity; the adaptive driver answers a stop with the **best ROM seen
//! so far** and a typed [`StopCause`] in its trace, never a panic.
//!
//! Every long-running kernel takes `&RunControl`; there is no uncontrolled
//! twin. The plain entries (`AssocReducer::reduce`, `NormReducer::reduce`,
//! `BandSampler::for_qldae`, ...) run the same code on an inert
//! [`RunControl::new`] token, which never stops.
//!
//! Panic-freedom here is enforced by the `cargo xtask analyze`
//! `panic-freedom` lint, which replaced the per-module clippy attributes.

pub use vamor_linalg::control::{ProgressEvent, RunControl, StopCause};
