//! Pins the bench-trend detector against two histories:
//!
//! - the repo's own committed `BENCH_PR*.json` snapshots must analyze
//!   *clean* — a flag on real history means the thresholds drifted and CI
//!   would start crying wolf;
//! - the injected-regression fixtures in `tests/trend_fixtures/` (stable
//!   four-snapshot history, then a 60× error jump plus a solver-cache
//!   speedup collapse in PR5) must *flag*, and must flag those two metrics
//!   specifically — the detector's whole value is that it still fires;
//! - `bench-trend --fresh` gates an uncommitted snapshot as the newest
//!   point, passing a copy of the newest committed one and failing one
//!   whose errors grew.

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::trend::{analyze_trends, find_history, load_history, render_markdown, TrendConfig};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn committed_history_analyzes_clean() {
    let history = load_history(&repo_root()).expect("repo root holds BENCH_PR*.json");
    assert!(
        history.len() >= 9,
        "expected at least the PR1–PR9 snapshots, found {}",
        history.len()
    );
    let rows = analyze_trends(&history, &TrendConfig::default());
    let flagged: Vec<&str> = rows
        .iter()
        .filter(|r| r.regressed)
        .map(|r| r.path.as_str())
        .collect();
    assert!(
        flagged.is_empty(),
        "real history must not flag, got: {flagged:?}"
    );
    // The history is rich enough that the detector is actually armed.
    assert!(
        rows.len() > 100,
        "expected >100 tracked metrics, got {}",
        rows.len()
    );
}

#[test]
fn injected_regression_fixture_flags() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/trend_fixtures");
    let history = load_history(&dir).expect("fixture snapshots parse");
    assert_eq!(history.len(), 5);
    let rows = analyze_trends(&history, &TrendConfig::default());
    let flagged: Vec<&str> = rows
        .iter()
        .filter(|r| r.regressed)
        .map(|r| r.path.as_str())
        .collect();
    assert!(
        flagged.contains(&"experiments.fig3.max_rel_error_proposed"),
        "the injected error jump must flag, got: {flagged:?}"
    );
    assert!(
        flagged.contains(&"acceptance.assoc_reduce_speedup"),
        "the injected speedup collapse must flag, got: {flagged:?}"
    );
    // Nothing else in the fixture moved, so nothing else may flag.
    assert_eq!(
        flagged.len(),
        2,
        "exactly the injected metrics flag: {flagged:?}"
    );

    let md = render_markdown(&history, &rows);
    assert!(md.contains("## Regressions: 2 flagged"));
    assert!(md.contains("experiments.fig3.max_rel_error_proposed"));
}

fn bench_trend_fresh(dir: &Path, fresh: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["bench-trend", "--dir"])
        .arg(dir)
        .arg("--fresh")
        .arg(fresh)
        .output()
        .expect("xtask runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// `bench-trend --fresh` on a copy of the newest committed snapshot: the
/// copy becomes the next PR's point and gates clean against the history.
#[test]
fn fresh_copy_of_the_newest_snapshot_gates_clean() {
    let root = repo_root();
    let (_, newest) = find_history(&root).unwrap().pop().unwrap();
    let (code, stdout) = bench_trend_fresh(&root, &newest);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("## Regressions: none"), "{stdout}");
}

/// The gate can fail: a fresh snapshot whose errors are 100× those of the
/// committed one before it exits 1 and names both error fields; against an
/// unmodified copy of itself it exits 0.
#[test]
fn fresh_snapshot_with_worse_errors_fails_the_gate() {
    let fresh = r#"{"experiments": [{"name": "fig3", "max_rel_error_proposed": 2.047e-7,
        "max_rel_error_norm": 4.913e-6, "g1r_hurwitz": true}]}"#;
    let dir = std::env::temp_dir().join(format!("vamor-bench-trend-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fresh_path = dir.join("fresh.json");
    std::fs::write(&fresh_path, fresh).unwrap();
    let better = fresh.replace("e-7", "e-9").replace("e-6", "e-8");
    std::fs::write(dir.join("BENCH_PR1.json"), better).unwrap();
    let (code, stdout) = bench_trend_fresh(&dir, &fresh_path);
    assert_eq!(code, Some(1), "{stdout}");
    for field in ["max_rel_error_proposed", "max_rel_error_norm"] {
        assert!(
            stdout.contains(&format!("`experiments.fig3.{field}`")),
            "{stdout}"
        );
    }
    std::fs::write(dir.join("BENCH_PR1.json"), fresh).unwrap();
    let (code, stdout) = bench_trend_fresh(&dir, &fresh_path);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(0), "{stdout}");
}
