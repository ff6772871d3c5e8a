//! The tracing-overhead gate: instrumented reduce ≤ 1.05× uninstrumented.
//!
//! It times best-of-5 reduce pairs, so it lives in its own test binary: no
//! sibling test threads share the cores while it measures.

use vamor_bench::trace_overhead;

#[test]
fn tracing_overhead_stays_within_five_percent() {
    // Retried because a scheduler hiccup can land on either side of a
    // best-of-5 pair. Three consecutive >5% readings would mean a real
    // hot-path regression.
    let mut ratio = f64::NAN;
    for _ in 0..3 {
        let r = trace_overhead(5).unwrap();
        assert!(r.spans_recorded > 0, "instrumented phase recorded no spans");
        ratio = r.ratio();
        if ratio <= 1.05 {
            return;
        }
    }
    panic!("instrumented reduce is {ratio:.3}x uninstrumented after 3 attempts");
}
