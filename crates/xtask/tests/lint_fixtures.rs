//! Fixture suite: proves each lint fires at the exact span it should, that
//! the `vamor: allow` grammar silences (only) what it covers, and that
//! `--fix-allow` stubs round-trip to a clean gate.

use std::path::{Path, PathBuf};

use xtask::report::Finding;
use xtask::workspace::{analyze, fix_allow, AnalyzeConfig};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_config() -> AnalyzeConfig {
    AnalyzeConfig {
        panic_dirs: vec![PathBuf::from("src")],
        index_file_names: vec!["panic_bad.rs".to_string(), "panic_good.rs".to_string()],
        lock_files: vec![
            PathBuf::from("src/lock_bad.rs"),
            PathBuf::from("src/lock_good.rs"),
        ],
        alloc_files: vec![
            PathBuf::from("src/alloc_bad.rs"),
            PathBuf::from("src/alloc_good.rs"),
        ],
    }
}

fn findings_for(file: &str) -> Vec<Finding> {
    analyze(&fixture_root(), &fixture_config())
        .expect("fixture analyze")
        .into_iter()
        .filter(|f| f.file == Path::new("src").join(file))
        .collect()
}

/// (line, col) spans of the findings, in report order.
fn spans(findings: &[Finding]) -> Vec<(u32, u32)> {
    findings.iter().map(|f| (f.line, f.col)).collect()
}

#[test]
fn panic_freedom_fires_on_each_construct_with_exact_spans() {
    let f = findings_for("panic_bad.rs");
    assert!(f.iter().all(|x| x.lint == "panic-freedom"));
    // unwrap, expect, panic!, then []-indexing inside the Result-returning
    // fn — and nothing for the indexing in the infallible helper.
    assert_eq!(spans(&f), vec![(4, 32), (5, 32), (7, 9), (9, 23)]);
    assert!(f[0].message.contains("`.unwrap()`"));
    assert!(f[1].message.contains("`.expect()`"));
    assert!(f[2].message.contains("`panic!`"));
    assert!(f[3].message.contains("`[]`-indexing in `chain_step`"));
    assert!(f.iter().all(|x| x.allowed.is_none()));
}

#[test]
fn panic_freedom_respects_allows_and_test_code() {
    let f = findings_for("panic_good.rs");
    // Exactly one finding — the allowed indexing. The typed-error fn and
    // the #[test] fn (unwrap + indexing) produce nothing.
    assert_eq!(f.len(), 1);
    assert_eq!((f[0].line, f[0].col), (11, 10));
    assert_eq!(
        f[0].allowed.as_deref(),
        Some("fixture: in-bounds by construction")
    );
}

#[test]
fn checkpoint_coverage_flags_outermost_uncovered_loops() {
    let f = findings_for("checkpoint_bad.rs");
    assert!(f.iter().all(|x| x.lint == "checkpoint-coverage"));
    // One finding per fn: the nested inner loop is covered by its outer
    // finding, not double-reported.
    assert_eq!(spans(&f), vec![(5, 5), (13, 5)]);
    assert!(f[0].message.contains("`sweep`"));
    assert!(f[1].message.contains("`nested`"));
}

#[test]
fn checkpoint_coverage_accepts_checkpoints_helpers_and_allows() {
    let f = findings_for("checkpoint_good.rs");
    // `covered` (direct checkpoint), `helper_covered` (checkpoint_stage),
    // and `no_control` are clean; only the allowed bookkeeping loop shows.
    assert_eq!(f.len(), 1);
    assert_eq!((f[0].line, f[0].col), (36, 5));
    assert_eq!(f[0].allowed.as_deref(), Some("fixture: bookkeeping loop"));
}

#[test]
fn span_coverage_flags_unspanned_hot_loops() {
    let f = findings_for("span_bad.rs");
    assert!(f.iter().all(|x| x.lint == "span-coverage"));
    // Only the checkpoint-carrying loop in `sweep` fires; `bookkeeping`
    // has no checkpoint (and no RunControl) so it is not a hot path.
    assert_eq!(spans(&f), vec![(7, 5)]);
    assert!(f[0].message.contains("`sweep`"));
    assert!(f[0].message.contains("span"));
    assert!(f[0].allowed.is_none());
}

#[test]
fn span_coverage_accepts_spans_and_allows() {
    let f = findings_for("span_good.rs");
    // Entry spans and loop-body spans silence the lint; the delegation
    // case surfaces as an allowed finding with its audit reason.
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!((f[0].line, f[0].col), (27, 5));
    assert_eq!(
        f[0].allowed.as_deref(),
        Some("fixture: caller opens the span")
    );
}

#[test]
fn lock_discipline_catches_inversion_reacquire_and_callbacks() {
    let f = findings_for("lock_bad.rs");
    assert!(f.iter().all(|x| x.lint == "lock-discipline"));
    assert_eq!(spans(&f), vec![(7, 22), (13, 9), (18, 20)]);
    assert!(f[0].message.contains("re-acquired"));
    assert!(f[1].message.contains("caller-supplied `refresh`"));
    // The temporary guard of an `if let` head lives through its block.
    assert!(f[2].message.contains("caller-supplied `refresh`"));
}

#[test]
fn lock_discipline_accepts_sanctioned_patterns() {
    // Statement temporaries, drop-then-callback, and a callback after an
    // `if let` hit path (its temporary guard died with the block): clean.
    assert!(findings_for("lock_good.rs").is_empty());
}

#[test]
fn hot_path_alloc_flags_every_allocation_form_in_into_kernels() {
    let f = findings_for("alloc_bad.rs");
    assert!(f.iter().all(|x| x.lint == "hot-path-alloc"));
    // Vec::new, .to_vec(), .clone(), vec![...], Vec::with_capacity.
    assert_eq!(spans(&f), vec![(4, 23), (5, 20), (6, 25), (7, 18), (8, 17)]);
    assert!(f.iter().all(|x| x.message.contains("`axpy_into`")));
}

#[test]
fn hot_path_alloc_scopes_to_into_kernels_and_respects_allows() {
    let f = findings_for("alloc_good.rs");
    // `gather` allocates freely (not a `*_into` kernel); the one `*_into`
    // allocation is covered by its allow.
    assert_eq!(f.len(), 1);
    assert_eq!((f[0].line, f[0].col), (17, 17));
    assert_eq!(
        f[0].allowed.as_deref(),
        Some("fixture: one-time setup table")
    );
}

#[test]
fn malformed_and_unused_allows_are_blocking_meta_findings() {
    let f = findings_for("annotation_cases.rs");
    assert!(f.iter().all(|x| x.lint == "annotation"));
    assert_eq!(spans(&f), vec![(5, 1), (10, 1)]);
    assert!(f[0].message.contains("malformed"));
    assert!(f[1].message.contains("unused"));
    // Meta-findings are never allowed — the gate must fail loudly.
    assert!(f.iter().all(|x| x.allowed.is_none()));
}

/// `--fix-allow` round trip: stub annotations inserted over a known-bad
/// tree turn every blocking finding into an allowed one on the next run
/// (except `annotation` meta-findings, which must be fixed by hand).
#[test]
fn fix_allow_round_trips_to_a_clean_gate() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fixtures-fix-allow");
    let src_dir = tmp.join("src");
    std::fs::create_dir_all(&src_dir).expect("tmp fixture dir");
    for name in [
        "panic_bad.rs",
        "checkpoint_bad.rs",
        "lock_bad.rs",
        "alloc_bad.rs",
    ] {
        std::fs::copy(fixture_root().join("src").join(name), src_dir.join(name))
            .expect("copy fixture");
    }
    let cfg = AnalyzeConfig {
        panic_dirs: vec![PathBuf::from("src")],
        index_file_names: vec!["panic_bad.rs".to_string()],
        lock_files: vec![PathBuf::from("src/lock_bad.rs")],
        alloc_files: vec![PathBuf::from("src/alloc_bad.rs")],
    };

    let before = analyze(&tmp, &cfg).expect("analyze before");
    let blocking_before = before.iter().filter(|f| f.allowed.is_none()).count();
    assert!(blocking_before >= 12, "fixtures lost their violations");

    let stubs = fix_allow(&tmp, &before).expect("fix-allow");
    assert!(stubs >= 12);

    let after = analyze(&tmp, &cfg).expect("analyze after");
    assert_eq!(
        after.iter().filter(|f| f.allowed.is_none()).count(),
        0,
        "stubbed tree must gate clean"
    );
    // Every stub carries the audit-trail placeholder reason.
    assert!(after
        .iter()
        .all(|f| f.allowed.as_deref().is_some_and(|r| r.contains("audit"))));
}

#[test]
fn degradation_events_fires_on_silent_bumps_with_exact_spans() {
    let f = findings_for("degradation_bad.rs");
    assert!(f.iter().all(|x| x.lint == "degradation-events"));
    // `escalations += 1` in its `if` block, the two fallback assignments,
    // and the bump whose event lives in a *sibling* block. The `let`
    // binding and the bare read on the return line stay silent.
    assert_eq!(spans(&f), vec![(6, 9), (12, 14), (13, 14), (18, 15)]);
    assert!(f[0].message.contains("`escalations`"));
    assert!(f[1].message.contains("`escalations`"));
    assert!(f[2].message.contains("`dense_fallback`"));
    assert!(f[3].message.contains("`adi_shift_reselections`"));
    assert!(f.iter().all(|x| x.allowed.is_none()));
}

#[test]
fn degradation_events_accepts_evented_aggregated_and_allowed_sites() {
    let f = findings_for("degradation_good.rs");
    // Exactly one finding — the annotated derived recount. The evented
    // bump, the aggregation copies, and the #[test] bump produce nothing.
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].lint, "degradation-events");
    assert!(f[0].allowed.is_some());
}
