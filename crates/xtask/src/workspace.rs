//! Workspace discovery, the lint surface configuration, and the analyze
//! driver that maps lints over source files.

use std::path::{Path, PathBuf};

use crate::lints;
use crate::model::FileModel;
use crate::report::{self, Finding};

/// Which lints run where. Paths are workspace-relative; `panic_dirs` are
/// scanned recursively for `.rs` files.
pub struct AnalyzeConfig {
    /// Crates under the panic-freedom and checkpoint-coverage lints (the
    /// solver surface: everything a reduction or transient run executes).
    pub panic_dirs: Vec<PathBuf>,
    /// File *names* within the solver surface where `[]`-indexing is also
    /// flagged (the orchestration/cache/control modules — numeric kernels
    /// index through their bounds-checked `Index` contract instead).
    pub index_file_names: Vec<String>,
    /// Files under the lock-discipline lint (the shift-cache mutex pair).
    pub lock_files: Vec<PathBuf>,
    /// Files whose `*_into` kernels carry the allocation-free contract.
    pub alloc_files: Vec<PathBuf>,
}

impl AnalyzeConfig {
    /// The vamor solver surface (see ISSUE/README): linalg + core + sim +
    /// obs sources, indexing checks on the cache/control/par orchestration
    /// modules, lock discipline on `shift_cache.rs` and the session shared
    /// state (`budget.rs`, `session.rs`), allocation checks on the dense
    /// kernel files, the Schur-coordinate chain kernels (`sylvester.rs`,
    /// `assoc.rs`) and the polynomial-term evaluation (`qldae.rs`).
    pub fn vamor() -> Self {
        AnalyzeConfig {
            panic_dirs: [
                "crates/linalg/src",
                "crates/core/src",
                "crates/sim/src",
                "crates/obs/src",
            ]
            .iter()
            .map(PathBuf::from)
            .collect(),
            index_file_names: ["shift_cache.rs", "control.rs", "fault.rs", "par.rs"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            lock_files: [
                "crates/linalg/src/shift_cache.rs",
                "crates/linalg/src/budget.rs",
                "crates/core/src/session.rs",
            ]
            .iter()
            .map(PathBuf::from)
            .collect(),
            alloc_files: [
                "crates/linalg/src/matrix.rs",
                "crates/linalg/src/vector.rs",
                "crates/linalg/src/sparse.rs",
                "crates/linalg/src/kron.rs",
                "crates/linalg/src/sylvester.rs",
                "crates/core/src/assoc.rs",
                "crates/system/src/qldae.rs",
            ]
            .iter()
            .map(PathBuf::from)
            .collect(),
        }
    }
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files_under(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Runs every configured lint over the workspace rooted at `root`,
/// returning findings with workspace-relative paths, sorted by
/// (file, line, col).
pub fn analyze(root: &Path, cfg: &AnalyzeConfig) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    for dir in &cfg.panic_dirs {
        rust_files_under(&root.join(dir), &mut files);
    }
    for abs in &files {
        let rel = abs.strip_prefix(root).unwrap_or(abs).to_path_buf();
        let src = std::fs::read_to_string(abs)?;
        let model = FileModel::parse(&src);
        let file_name = rel
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        let check_indexing = cfg.index_file_names.contains(&file_name);
        let mut file_findings = lints::panic_freedom(&model, &rel, check_indexing);
        file_findings.extend(lints::checkpoint_coverage(&model, &rel));
        file_findings.extend(lints::span_coverage(&model, &rel));
        file_findings.extend(lints::degradation_events(&model, &rel));
        if cfg.lock_files.contains(&rel) {
            file_findings.extend(lints::lock_discipline(&model, &rel));
        }
        if cfg.alloc_files.contains(&rel) {
            file_findings.extend(lints::hot_path_alloc(&model, &rel));
        }
        report::apply_annotations(&model, &rel, &mut file_findings);
        findings.extend(file_findings);
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint)));
    Ok(findings)
}

/// Inserts `// vamor: allow(<lint>, reason = "...")` stub annotations above
/// every blocking finding, so a strict gate can land while the accepted
/// residue stays greppable and auditable. Returns the number of
/// annotations written. Annotation meta-findings are never stubbed — a
/// malformed or stale annotation must be fixed by hand.
pub fn fix_allow(root: &Path, findings: &[Finding]) -> std::io::Result<usize> {
    use std::collections::BTreeMap;
    let mut by_file: BTreeMap<&PathBuf, Vec<&Finding>> = BTreeMap::new();
    for f in findings {
        if f.allowed.is_none() && f.lint != "annotation" {
            by_file.entry(&f.file).or_default().push(f);
        }
    }
    let mut written = 0usize;
    for (file, file_findings) in by_file {
        let abs = root.join(file);
        let src = std::fs::read_to_string(&abs)?;
        let mut lines: Vec<String> = src.lines().map(str::to_string).collect();
        // One stub per (line, lint); insert bottom-up so line numbers hold.
        let mut targets: Vec<(u32, &'static str)> = file_findings
            .iter()
            .map(|f| (f.line, f.lint))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        targets.sort();
        targets.reverse();
        for (line, lint) in targets {
            let idx = (line as usize).saturating_sub(1);
            if idx >= lines.len() {
                continue;
            }
            let indent: String = lines[idx]
                .chars()
                .take_while(|c| c.is_whitespace())
                .collect();
            lines.insert(
                idx,
                format!(
                    "{indent}// vamor: allow({lint}, reason = \"pre-existing when the analyze \
                     gate landed; audit: fix or justify\")"
                ),
            );
            written += 1;
        }
        let mut out = lines.join("\n");
        if src.ends_with('\n') {
            out.push('\n');
        }
        std::fs::write(&abs, out)?;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vamor_config_names_the_solver_surface() {
        let cfg = AnalyzeConfig::vamor();
        assert_eq!(cfg.panic_dirs.len(), 4);
        assert!(cfg.panic_dirs.contains(&PathBuf::from("crates/obs/src")));
        assert_eq!(cfg.lock_files.len(), 3);
        assert!(cfg
            .lock_files
            .contains(&PathBuf::from("crates/linalg/src/shift_cache.rs")));
        assert!(cfg
            .lock_files
            .contains(&PathBuf::from("crates/linalg/src/budget.rs")));
        assert!(cfg
            .lock_files
            .contains(&PathBuf::from("crates/core/src/session.rs")));
        assert_eq!(cfg.alloc_files.len(), 7);
        assert!(cfg
            .alloc_files
            .contains(&PathBuf::from("crates/linalg/src/sylvester.rs")));
        assert!(cfg
            .alloc_files
            .contains(&PathBuf::from("crates/system/src/qldae.rs")));
    }
}
