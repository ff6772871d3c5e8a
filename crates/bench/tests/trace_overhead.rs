//! The tracing-overhead gate: instrumented reduce ≤ 1.05× uninstrumented.
//!
//! It times batches of reduces, so it lives in its own test binary: no
//! sibling test threads share the cores while it measures.

use vamor_bench::trace_overhead_guard;

#[test]
fn tracing_overhead_stays_within_five_percent() {
    if let Err(msg) = trace_overhead_guard(|_| {}) {
        panic!("{msg}");
    }
}
