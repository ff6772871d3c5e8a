//! Workspace observability: hierarchical tracing spans, a process-wide
//! metrics registry, and trace exporters — all hand-rolled, with zero
//! external dependencies, in the same style as `vamor_bench::harness` and
//! `cargo xtask analyze`.
//!
//! The crate has two halves:
//!
//! - **Spans** ([`span`](mod@span)): `span!("adi_sweep")`-style RAII guards over a
//!   thread-aware span tree. When no subscriber is installed
//!   ([`span::install`] has not been called), entering a span is a single
//!   relaxed atomic load and the guard's drop is a no-op — solver hot paths
//!   pay nothing. With a subscriber installed, each closed span is recorded
//!   with its folded call path (`"assoc_reduce;chain_h2"`), thread ordinal
//!   and monotonic start/duration, buffered thread-locally and flushed to a
//!   process-wide sink on thread exit (or when the buffer grows large).
//!   Panic unwinding closes spans: the guard's `Drop` runs during unwind,
//!   so a trace never leaks an open frame.
//!
//! - **Metrics** ([`metrics`]): named counters, gauges and log₂-bucket
//!   histograms behind one registry, snapshotted as a
//!   [`metrics::MetricsSnapshot`]. Call sites on hot paths resolve their
//!   [`metrics::CounterHandle`] once (registry lookup takes a mutex) and
//!   then increment a bare atomic.
//!
//! - **Events** ([`event`](mod@event)): `event!(Event::AdiSweep { .. })`-style typed
//!   numerical-health records — per-sweep ADI residuals, greedy move
//!   scores, degradation rungs, Newton accept/reject decisions. Same
//!   no-subscriber design as spans (one relaxed load, payload never built),
//!   per-thread buffers, and a *bounded* sink with dropped-event
//!   accounting. [`report`] folds a drained event log, a metrics snapshot
//!   and a span trace into a per-experiment [`report::RunReport`] rendered
//!   as JSON or a self-contained HTML page with inline SVG charts.
//!
//! [`export`] renders a drained trace as a self-time summary table, Chrome
//! `trace_event` JSON (load in `chrome://tracing` / Perfetto) or folded
//! flamegraph stacks (`inferno` / `flamegraph.pl` compatible).
//!
//! Instrumentation across the workspace rides the existing `RunControl`
//! checkpoint seams: every `*_controlled` loop that checkpoints also opens a
//! span (enforced by the `cargo xtask analyze` `span-coverage` lint), and
//! every degradation-ladder rung also emits its event (the
//! `degradation-events` lint).

pub mod event;
pub mod export;
pub mod metrics;
pub mod report;
pub mod span;

pub use event::{Event, EventLog, EventRecord};
pub use metrics::{
    counter, gauge, histogram, CounterHandle, GaugeHandle, HistogramHandle, MetricsSnapshot,
};
pub use span::{install, take_trace, tracing_enabled, SpanGuard, SpanRecord};

/// Opens a span with a static name, returning the RAII guard that closes it.
///
/// ```
/// let _guard = vamor_obs::span!("adi_sweep");
/// // ... work attributed to "adi_sweep" until the guard drops ...
/// ```
///
/// Bind the guard (`let _span = ...`), never discard it with `_ = ...` —
/// an unbound guard drops immediately and records an empty span.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

/// Records a typed numerical-health event when an event subscriber is
/// installed.
///
/// ```
/// vamor_obs::event!(vamor_obs::Event::Degradation {
///     rung: vamor_obs::event::DegradationRung::DenseFallback,
///     detail: 0.0,
/// });
/// ```
///
/// The payload expression is evaluated only when a subscriber is installed
/// — with events off, a site costs one relaxed atomic load and never
/// constructs the event.
#[macro_export]
macro_rules! event {
    ($event:expr) => {
        if $crate::event::events_enabled() {
            $crate::event::emit($event);
        }
    };
}
