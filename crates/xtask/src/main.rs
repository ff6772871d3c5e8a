//! CLI entry point: `cargo xtask analyze [--json <path>] [--fix-allow]
//! [--root <dir>]` and `cargo xtask bench-trend [--dir <dir>]
//! [--fresh <path>] [--out <path>] [--expect-regression]`.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::report::{render_human, render_json};
use xtask::trend::{analyze_trends, load_history, load_snapshot, render_markdown, TrendConfig};
use xtask::workspace::{analyze, find_workspace_root, fix_allow, AnalyzeConfig};

const USAGE: &str = "\
xtask — vamor workspace static analysis and bench-history tooling

USAGE:
    cargo xtask analyze [OPTIONS]
    cargo xtask bench-trend [OPTIONS]

ANALYZE OPTIONS:
    --json <path>   Also write the findings as machine-readable JSON
    --fix-allow     Insert `// vamor: allow(...)` stubs above every blocking
                    finding (audit trail mode), then exit 0
    --root <dir>    Workspace root (default: discovered from the cwd)

BENCH-TREND OPTIONS:
    --dir <dir>     Directory holding BENCH_PR*.json (default: the
                    workspace root)
    --fresh <path>  Gate an uncommitted snapshot (`reproduce --json <path>`)
                    as the newest point, numbered after the last committed
                    one
    --out <path>    Write the markdown report to a file (default: stdout)
    --expect-regression
                    Invert the exit status: succeed only when at least one
                    regression is flagged (CI fixture self-test)

EXIT STATUS:
    analyze: 0 when every finding is covered by a well-formed allow
    annotation, 1 when blocking findings remain, 2 on usage errors.
    bench-trend: 0 when the newest snapshot is clean, 1 when a regression
    is flagged — by the change-point test against the metric's history or
    by the step gate against the previous snapshot (error headroom 1.1x,
    error ceiling 0.1, no lost error field, every Hurwitz flag true) —
    inverted under --expect-regression, 2 on usage errors.
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd == "bench-trend" {
        return bench_trend(args);
    }
    if cmd != "analyze" {
        eprintln!("unknown subcommand `{cmd}`\n");
        eprint!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut json_path: Option<PathBuf> = None;
    let mut do_fix_allow = false;
    let mut root_arg: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json requires a path");
                    return ExitCode::from(2);
                }
            },
            "--fix-allow" => do_fix_allow = true,
            "--root" => match args.next() {
                Some(p) => root_arg = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown option `{other}`\n");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = root_arg.or_else(|| find_workspace_root(&cwd)) else {
        eprintln!(
            "error: could not find a workspace root above {}",
            cwd.display()
        );
        return ExitCode::from(2);
    };

    let cfg = AnalyzeConfig::vamor();
    let findings = match analyze(&root, &cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", render_human(&findings));
    let blocking = findings.iter().filter(|f| f.allowed.is_none()).count();
    let allowed = findings.len() - blocking;
    println!(
        "analyze: {} finding(s) — {} blocking, {} allowed",
        findings.len(),
        blocking,
        allowed
    );

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, render_json(&findings)) {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("analyze: wrote {}", path.display());
    }

    if do_fix_allow {
        match fix_allow(&root, &findings) {
            Ok(n) => {
                println!("analyze: inserted {n} allow stub(s); re-run `cargo xtask analyze` and replace each stub reason with a real justification");
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error inserting allow stubs: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if blocking > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `cargo xtask bench-trend`: the regression gate over the committed
/// `BENCH_PR*.json` history, optionally extended by a fresh snapshot (see
/// [`xtask::trend`]).
fn bench_trend(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut dir_arg: Option<PathBuf> = None;
    let mut fresh: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut expect_regression = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => match args.next() {
                Some(p) => dir_arg = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--dir requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--fresh" => match args.next() {
                Some(p) => fresh = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--fresh requires a path");
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::from(2);
                }
            },
            "--expect-regression" => expect_regression = true,
            other => {
                eprintln!("unknown option `{other}`\n");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(dir) = dir_arg.or_else(|| find_workspace_root(&cwd)) else {
        eprintln!(
            "error: could not find a workspace root above {} (pass --dir)",
            cwd.display()
        );
        return ExitCode::from(2);
    };

    let mut history = match load_history(&dir) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &fresh {
        let pr = history.last().map_or(1, |s| s.pr + 1);
        match load_snapshot(pr, path) {
            Ok(snapshot) => history.push(snapshot),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let rows = analyze_trends(&history, &TrendConfig::default());
    let markdown = render_markdown(&history, &rows);
    match &out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &markdown) {
                eprintln!("error writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("bench-trend: wrote {}", path.display());
        }
        None => print!("{markdown}"),
    }
    let regressions = rows.iter().filter(|r| r.regressed).count();
    let newest = history.last().map(|s| s.pr).unwrap_or(0);
    println!(
        "bench-trend: {} snapshot(s), {} metric(s), {} regression(s) in PR{}",
        history.len(),
        rows.len(),
        regressions,
        newest
    );
    if expect_regression {
        if regressions > 0 {
            println!("bench-trend: --expect-regression satisfied");
            ExitCode::SUCCESS
        } else {
            eprintln!("bench-trend: --expect-regression but the history is clean");
            ExitCode::FAILURE
        }
    } else if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
