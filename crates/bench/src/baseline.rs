//! Machine-readable benchmark baselines (`BENCH_PR<n>.json`) and the
//! perf/accuracy trajectory comparison used by CI.
//!
//! Every `reproduce` run emits a JSON snapshot of the experiment errors,
//! reduced orders, stability verdicts and acceptance metrics. CI (and the
//! PR author) compare the fresh snapshot against the previous PR's committed
//! baseline with [`compare_to_baseline`]: error fields must not worsen
//! (beyond a small headroom for run-to-run noise) and every reduced `G₁ᵣ`
//! must be Hurwitz. The workspace builds without external crates,
//! so the parser below is a purpose-built scanner for the format
//! `reproduce` itself writes — not a general JSON parser.

/// Multiplicative headroom on error fields: a new error above
/// `old · ERROR_HEADROOM` counts as a regression.
pub const ERROR_HEADROOM: f64 = 1.10;

/// Absolute floor of the error gate, at double-precision roundoff. The gate's
/// noise allowance is otherwise scaled to the baseline's own value
/// (`ERROR_HEADROOM ×` it), so a `--small` run's 1e-7 errors are gated as
/// tightly as the paper-size ones; this floor only decides the case of an
/// exactly-zero baseline error.
pub const ERROR_ROUNDOFF_FLOOR: f64 = 1e-15;

/// One experiment entry of a baseline file.
#[derive(Debug, Clone, Default)]
pub struct ExperimentBaseline {
    /// Short experiment name (`fig2` … `fig5`).
    pub name: String,
    /// Max relative transient error of the proposed ROM.
    pub max_rel_error_proposed: Option<f64>,
    /// Max relative transient error of the NORM ROM, if the experiment has
    /// the baseline.
    pub max_rel_error_norm: Option<f64>,
    /// Whether the proposed reduced `G₁ᵣ` was verified Hurwitz (absent in
    /// PR-1 era files).
    pub g1r_hurwitz: Option<bool>,
    /// Spectral abscissa of the proposed reduced `G₁ᵣ`.
    pub g1r_spectral_abscissa: Option<f64>,
}

/// A parsed `BENCH_PR<n>.json` snapshot.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// PR number the snapshot belongs to.
    pub pr: Option<i64>,
    /// Per-experiment entries, in file order.
    pub experiments: Vec<ExperimentBaseline>,
}

impl Baseline {
    /// Parses the subset of the `reproduce` JSON format the comparison
    /// needs. Unknown fields are ignored; missing fields parse as `None`.
    pub fn parse(text: &str) -> Baseline {
        let mut baseline = Baseline {
            pr: extract_number(text, "\"pr\"").map(|v| v as i64),
            experiments: Vec::new(),
        };
        if let Some(start) = text.find("\"experiments\"") {
            let section = &text[start..];
            if let Some(open) = section.find('[') {
                let body = &section[open..];
                for obj in balanced_objects(body) {
                    let name = extract_string(obj, "\"name\"").unwrap_or_default();
                    if name.is_empty() {
                        continue;
                    }
                    baseline.experiments.push(ExperimentBaseline {
                        name,
                        max_rel_error_proposed: extract_number(obj, "\"max_rel_error_proposed\""),
                        max_rel_error_norm: extract_number(obj, "\"max_rel_error_norm\""),
                        g1r_hurwitz: extract_bool(obj, "\"g1r_hurwitz\""),
                        g1r_spectral_abscissa: extract_number(obj, "\"g1r_spectral_abscissa\""),
                    });
                }
            }
        }
        baseline
    }

    /// Looks up an experiment entry by name.
    pub fn experiment(&self, name: &str) -> Option<&ExperimentBaseline> {
        self.experiments.iter().find(|e| e.name == name)
    }
}

/// Compares a fresh snapshot against the previous baseline. Returns the list
/// of violations (empty = the gate passes).
pub fn compare_to_baseline(new: &Baseline, old: &Baseline) -> Vec<String> {
    let mut violations = Vec::new();
    for prev in &old.experiments {
        let Some(cur) = new.experiment(&prev.name) else {
            violations.push(format!(
                "{}: experiment present in the baseline but missing from the new run",
                prev.name
            ));
            continue;
        };
        check_error(
            &mut violations,
            &prev.name,
            "max_rel_error_proposed",
            prev.max_rel_error_proposed,
            cur.max_rel_error_proposed,
        );
        check_error(
            &mut violations,
            &prev.name,
            "max_rel_error_norm",
            prev.max_rel_error_norm,
            cur.max_rel_error_norm,
        );
    }
    // Stability verdicts are only enforced on the new file (older baselines
    // predate the field).
    for cur in &new.experiments {
        if cur.g1r_hurwitz == Some(false) {
            violations.push(format!("{}: reduced G1r is not Hurwitz", cur.name));
        }
    }
    violations
}

fn check_error(
    violations: &mut Vec<String>,
    experiment: &str,
    field: &str,
    old: Option<f64>,
    new: Option<f64>,
) {
    let Some(old) = old else { return };
    let Some(new) = new else {
        violations.push(format!(
            "{experiment}: {field} present in the baseline but missing from the new run"
        ));
        return;
    };
    if !new.is_finite() {
        violations.push(format!("{experiment}: {field} is not finite ({new})"));
        return;
    }
    let bound = (old * ERROR_HEADROOM).max(ERROR_ROUNDOFF_FLOOR);
    if new > bound {
        violations.push(format!(
            "{experiment}: {field} worsened: {new:.6e} > {ERROR_HEADROOM} x {old:.6e}"
        ));
    }
}

/// Yields the top-level `{…}` objects of a `[…]` array body, tracking brace
/// depth so nested objects (e.g. `wall_s`) stay inside their experiment.
fn balanced_objects(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut bracket_depth = 0usize;
    let mut start = None;
    for (i, c) in body.char_indices() {
        match c {
            '[' => bracket_depth += 1,
            ']' => {
                if bracket_depth <= 1 {
                    break;
                }
                bracket_depth -= 1;
            }
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = start.take() {
                        out.push(&body[s..=i]);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

fn extract_number(text: &str, key: &str) -> Option<f64> {
    let pos = text.find(key)?;
    let rest = &text[pos + key.len()..];
    let colon = rest.find(':')?;
    let value = rest[colon + 1..]
        .trim_start()
        .split([',', '}', '\n'])
        .next()?
        .trim();
    value.parse::<f64>().ok()
}

fn extract_bool(text: &str, key: &str) -> Option<bool> {
    let pos = text.find(key)?;
    let rest = &text[pos + key.len()..];
    let colon = rest.find(':')?;
    let value = rest[colon + 1..]
        .trim_start()
        .split([',', '}', '\n'])
        .next()?
        .trim();
    match value {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

fn extract_string(text: &str, key: &str) -> Option<String> {
    let pos = text.find(key)?;
    let rest = &text[pos + key.len()..];
    let colon = rest.find(':')?;
    let after = rest[colon + 1..].trim_start();
    let mut chars = after.chars();
    if chars.next()? != '"' {
        return None;
    }
    let rest = &after[1..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_OLD: &str = r#"{
  "pr": 1,
  "experiments": [
    {"name": "fig2", "full_order": 100, "reduced_order": 11, "max_rel_error_proposed": 4.870609e0, "wall_s": {"reduce_proposed": 0.711746}},
    {"name": "fig3", "full_order": 70, "max_rel_error_proposed": 5.777224e-5, "max_rel_error_norm": 1.746290e-3, "wall_s": {"sim_full": 0.09}}
  ],
  "acceptance": {
    "assoc_reduce_speedup": 2.719
  }
}
"#;

    const SAMPLE_NEW: &str = r#"{
  "pr": 2,
  "experiments": [
    {"name": "fig2", "max_rel_error_proposed": 1.8e-2, "g1r_hurwitz": true, "g1r_spectral_abscissa": -2.3e-2, "wall_s": {"reduce_proposed": 1.0}},
    {"name": "fig3", "max_rel_error_proposed": 3.4e-5, "max_rel_error_norm": 1.75e-3, "g1r_hurwitz": true, "wall_s": {"sim_full": 0.09}}
  ],
  "acceptance": {
    "assoc_reduce_tline35_cached_s": 0.011
  }
}
"#;

    #[test]
    fn parses_the_reproduce_format() {
        let old = Baseline::parse(SAMPLE_OLD);
        assert_eq!(old.pr, Some(1));
        assert_eq!(old.experiments.len(), 2);
        let fig2 = old.experiment("fig2").unwrap();
        assert!((fig2.max_rel_error_proposed.unwrap() - 4.870609).abs() < 1e-9);
        assert!(fig2.max_rel_error_norm.is_none());
        assert!(fig2.g1r_hurwitz.is_none());
        let fig3 = old.experiment("fig3").unwrap();
        assert!((fig3.max_rel_error_norm.unwrap() - 1.746290e-3).abs() < 1e-12);
    }

    #[test]
    fn improvements_and_noise_level_changes_pass() {
        let old = Baseline::parse(SAMPLE_OLD);
        let new = Baseline::parse(SAMPLE_NEW);
        let violations = compare_to_baseline(&new, &old);
        assert!(
            violations.is_empty(),
            "unexpected violations: {violations:?}"
        );
    }

    #[test]
    fn worsened_errors_and_lost_stability_fail() {
        let old = Baseline::parse(SAMPLE_OLD);
        let regressed = SAMPLE_NEW
            .replace(
                "\"max_rel_error_proposed\": 1.8e-2",
                "\"max_rel_error_proposed\": 6.0e0",
            )
            .replace("\"g1r_hurwitz\": true,", "\"g1r_hurwitz\": false,");
        let new = Baseline::parse(&regressed);
        let violations = compare_to_baseline(&new, &old);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("fig2") && v.contains("worsened")),
            "missing error violation: {violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("not Hurwitz")),
            "missing stability violation: {violations:?}"
        );
    }

    /// Errors far below 1e-3 are gated too: a 100× regression at the fig3
    /// `--small` magnitudes fails, the unchanged run passes.
    #[test]
    fn small_errors_are_gated_relative_to_their_baseline() {
        let small = r#"{"pr": 16, "experiments": [
            {"name": "fig3", "max_rel_error_proposed": 2.05e-9, "max_rel_error_norm": 4.91e-8}
        ]}"#;
        let old = Baseline::parse(small);
        assert!(compare_to_baseline(&old, &old).is_empty());
        let regressed = Baseline::parse(
            &small
                .replace("2.05e-9", "2.05e-7")
                .replace("4.91e-8", "4.91e-6"),
        );
        let violations = compare_to_baseline(&regressed, &old);
        for field in ["max_rel_error_proposed", "max_rel_error_norm"] {
            assert!(
                violations
                    .iter()
                    .any(|v| v.contains(field) && v.contains("worsened")),
                "missing {field} violation: {violations:?}"
            );
        }
        // Inside the headroom is noise, not a regression.
        let noisy = Baseline::parse(&small.replace("2.05e-9", "2.2e-9"));
        assert!(compare_to_baseline(&noisy, &old).is_empty());
    }

    #[test]
    fn nonfinite_errors_fail() {
        let old = Baseline::parse(SAMPLE_OLD);
        let broken = SAMPLE_NEW.replace(
            "\"max_rel_error_proposed\": 1.8e-2",
            "\"max_rel_error_proposed\": inf",
        );
        let new = Baseline::parse(&broken);
        let violations = compare_to_baseline(&new, &old);
        assert!(
            violations.iter().any(|v| v.contains("not finite")),
            "missing finite violation: {violations:?}"
        );
    }

    #[test]
    fn missing_experiments_are_flagged() {
        let old = Baseline::parse(SAMPLE_OLD);
        let new = Baseline::parse("{\"pr\": 2, \"experiments\": [{\"name\": \"fig2\", \"max_rel_error_proposed\": 1e-2}]}");
        let violations = compare_to_baseline(&new, &old);
        assert!(violations
            .iter()
            .any(|v| v.contains("fig3") && v.contains("missing")));
    }
}
