//! `cargo xtask bench-trend` — the regression gate over the bench-snapshot
//! history (`BENCH_PR1.json` … `BENCH_PR<n>.json`, plus an optional fresh
//! uncommitted snapshot as the newest point).
//!
//! Every PR commits the machine-readable output of `reproduce all` at the
//! repo root. This module parses the whole history (the workspace carries
//! no third-party crates, so the JSON reader below is hand-rolled),
//! flattens each snapshot into dotted metric paths
//! (`experiments.fig3.max_rel_error_proposed`,
//! `acceptance.assoc_reduce_speedup`, …), and judges the newest point of
//! each metric two ways.
//!
//! The **change-point test** compares it against a robust baseline of its
//! own history:
//!
//! - the baseline is the **median** of the prior points and the scale is
//!   the **MAD** (median absolute deviation, scaled by 1.4826 to estimate
//!   σ) — one wild CI machine in the history cannot shift the baseline;
//! - a metric only flags in its *worse* direction (errors, wall times,
//!   residuals, restart/degradation counts up; speedups and Hurwitz flags
//!   down); metrics with no worse direction (orders, sizes, exponents'
//!   neighbours) are tracked but never flag;
//! - recorded measurement noise is respected: a sibling `*_spread` key
//!   (e.g. `factor_exponent_spread` next to `factor_scaling_exponent`)
//!   raises the tolerance of every metric sharing its leading name token,
//!   and wall-clock metrics carry a generous relative floor because the
//!   history spans different machines.
//!
//! The **step gate** ([`step_gate`]) compares the accuracy and stability
//! fields against the snapshot just before it and an absolute ceiling.
//!
//! The result is a markdown report (stdout, `--out <path>` to write) with
//! the flagged regressions first and the full per-metric trajectories
//! after. Exit status: 0 clean, 1 when a regression is flagged — inverted
//! under `--expect-regression`, which CI uses to prove the detector still
//! fires on an injected-regression fixture.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Minimal JSON value + parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object keys keep their source order so flattening
/// is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view (`Num` or `Bool` as 0/1 — Hurwitz flags are health
    /// metrics too).
    fn as_metric(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }
}

/// Recursive-descent JSON parser for the bench-snapshot dialect: standard
/// JSON plus the bare `NaN`/`Infinity`/`-Infinity` words some tools emit and
/// the `inf`/`-inf` that Rust's float formatting writes.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match c {
        b'{' => parse_object(bytes, pos),
        b'[' => parse_array(bytes, pos),
        b'"' => Ok(Json::Str(parse_string(bytes, pos)?)),
        b't' => parse_word(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_word(bytes, pos, "false", Json::Bool(false)),
        b'n' => parse_word(bytes, pos, "null", Json::Null),
        b'N' => parse_word(bytes, pos, "NaN", Json::Num(f64::NAN)),
        b'I' => parse_word(bytes, pos, "Infinity", Json::Num(f64::INFINITY)),
        b'i' => parse_word(bytes, pos, "inf", Json::Num(f64::INFINITY)),
        b'-' if bytes.get(*pos + 1) == Some(&b'I') => {
            *pos += 1;
            parse_word(bytes, pos, "Infinity", Json::Num(f64::NEG_INFINITY))
        }
        b'-' if bytes.get(*pos + 1) == Some(&b'i') => {
            *pos += 1;
            parse_word(bytes, pos, "inf", Json::Num(f64::NEG_INFINITY))
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(format!("unexpected byte {:?} at {}", other as char, *pos)),
    }
}

fn parse_word(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        *pos += 4;
                        // Surrogate pairs don't occur in bench snapshots;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            _ => {
                // Copy the full UTF-8 sequence starting at c.
                let width = utf8_width(c);
                let seq = bytes
                    .get(*pos - 1..*pos - 1 + width)
                    .ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(seq).map_err(|e| e.to_string())?);
                *pos += width - 1;
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot flattening
// ---------------------------------------------------------------------------

/// One snapshot's metrics: dotted path → value, plus the recorded noise
/// floors (`*_spread` keys mapped onto the sibling metrics they cover).
#[derive(Debug, Default)]
pub struct FlatSnapshot {
    pub pr: u32,
    pub metrics: BTreeMap<String, f64>,
    /// path → recorded measurement spread that applies to it.
    pub noise: BTreeMap<String, f64>,
}

/// Flattens a parsed snapshot into dotted metric paths. Arrays of objects
/// carrying a `"name"` key (the `experiments` list) are keyed by that name;
/// `*_repeats` arrays are raw noise samples, not metrics, and are skipped.
/// A `*_spread` key becomes a noise floor for every numeric sibling whose
/// leading name token matches its own (`factor_exponent_spread` covers
/// `factor_scaling_exponent`, `factor_speedup_mid`, …).
pub fn flatten(pr: u32, root: &Json) -> FlatSnapshot {
    let mut flat = FlatSnapshot {
        pr,
        ..FlatSnapshot::default()
    };
    flatten_into("", root, &mut flat);
    flat.metrics.remove("pr");
    flat
}

fn flatten_into(prefix: &str, value: &Json, out: &mut FlatSnapshot) {
    match value {
        Json::Obj(pairs) => {
            for (key, v) in pairs {
                let path = join(prefix, key);
                flatten_into(&path, v, out);
            }
            // Second pass: `*_spread` keys declare the measurement noise of
            // this object; attach it to siblings sharing the first token.
            for (key, v) in pairs {
                let Some(stem) = key.strip_suffix("_spread") else {
                    continue;
                };
                let Some(spread) = v.as_metric() else {
                    continue;
                };
                let token = stem.split('_').next().unwrap_or(stem);
                for (sib, _) in pairs {
                    if sib != key && sib.split('_').next() == Some(token) {
                        out.noise.insert(join(prefix, sib), spread);
                    }
                }
            }
        }
        Json::Arr(items) => {
            if prefix.ends_with("_repeats") {
                return;
            }
            let named = !items.is_empty()
                && items
                    .iter()
                    .all(|i| matches!(i.get("name"), Some(Json::Str(_))));
            for (idx, item) in items.iter().enumerate() {
                let seg = if named {
                    match item.get("name") {
                        Some(Json::Str(name)) => name.clone(),
                        _ => idx.to_string(),
                    }
                } else {
                    idx.to_string()
                };
                flatten_into(&join(prefix, &seg), item, out);
            }
        }
        _ => {
            if let Some(v) = value.as_metric() {
                if v.is_finite() {
                    out.metrics.insert(prefix.to_string(), v);
                }
            }
        }
    }
}

fn join(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}.{key}")
    }
}

// ---------------------------------------------------------------------------
// Direction classification + robust flagging
// ---------------------------------------------------------------------------

/// Which way a metric degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is worse: errors, wall times, residuals, degradation counts.
    HigherWorse,
    /// Smaller is worse: speedups, Hurwitz flags.
    LowerWorse,
    /// No worse direction (orders, sizes): tracked, never flagged.
    Neutral,
}

/// Classifies a metric path by its last segment. The lists are the
/// workspace's own naming conventions — every bench metric is named so its
/// bad direction is readable from the key.
pub fn direction(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    let higher_worse = [
        "error",
        "err",
        "diff",
        "wall",
        "residual",
        "restart",
        "dropped",
        "rejected",
        "nonconverged",
        "escalation",
        "fallback",
        "evict",
        "quarantine",
        "stall",
        "violation",
    ];
    let lower_worse = ["speedup", "hurwitz"];
    if lower_worse.iter().any(|t| leaf.contains(t)) {
        return Direction::LowerWorse;
    }
    if higher_worse.iter().any(|t| leaf.contains(t))
        || leaf.ends_with("_s")
        || leaf.ends_with("_ns")
        || path.contains("wall_s.")
    {
        return Direction::HigherWorse;
    }
    Direction::Neutral
}

/// Wall-clock metrics get a wide relative floor: the committed history
/// spans different machines and load conditions, and a 2× wall swing
/// between PR snapshots is machine noise, not a regression.
fn is_timing(path: &str) -> bool {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    leaf.ends_with("_s") || path.contains("wall_s.") || leaf.ends_with("_ns")
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median + MAD (scaled to estimate σ under normality) of a sample.
pub fn robust_stats(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let med = median(&sorted);
    let mut dev: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    dev.sort_by(|a, b| a.total_cmp(b));
    (med, 1.4826 * median(&dev))
}

/// One metric's history plus the verdict on its newest point.
#[derive(Debug)]
pub struct TrendRow {
    pub path: String,
    /// `(pr, value)` pairs, ascending by PR; a metric may be absent from
    /// early snapshots (subsystems land over time).
    pub series: Vec<(u32, f64)>,
    pub direction: Direction,
    pub median: f64,
    pub mad: f64,
    /// Tolerance the newest point had to stay inside.
    pub tolerance: f64,
    /// Step-gate violations of the newest point (see [`step_gate`]).
    pub gate: Vec<String>,
    /// The change-point test fired or the step gate found a violation.
    pub regressed: bool,
}

impl TrendRow {
    /// Latest `(pr, value)` point.
    pub fn last(&self) -> (u32, f64) {
        *self.series.last().expect("series is never empty")
    }
}

/// Tuning knobs for the change-point test. Defaults are calibrated so the
/// real PR1–PR9 history runs clean while an order-of-magnitude error jump
/// still flags (see the fixture test).
#[derive(Debug, Clone, Copy)]
pub struct TrendConfig {
    /// Minimum history length (including the newest point) before a metric
    /// is eligible to flag; shorter series lack a baseline.
    pub min_points: usize,
    /// The baseline is the median/MAD of the most recent this-many prior
    /// points, not the whole history: a change-point test asks "did the
    /// newest snapshot jump relative to where the metric *recently* was",
    /// so slow cumulative drift (which every PR's gate already bounds
    /// step-by-step) does not pile up into a false flag.
    pub baseline_window: usize,
    /// MAD multiplier: the newest point must sit this many robust σ beyond
    /// the median.
    pub mad_sigmas: f64,
    /// Relative floor on the tolerance for non-timing metrics.
    pub rel_floor: f64,
    /// Relative floor for wall-clock metrics (cross-machine history).
    pub timing_rel_floor: f64,
    /// Absolute floor — errors at 1e-16 jitter harmlessly in the last bits.
    pub abs_floor: f64,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            min_points: 4,
            baseline_window: 4,
            mad_sigmas: 4.0,
            rel_floor: 0.5,
            timing_rel_floor: 1.5,
            abs_floor: 1e-12,
        }
    }
}

/// Multiplicative headroom of the step gate: a newest error above
/// `previous · ERROR_HEADROOM` is a regression, however small both are, so
/// a `--small` run's 1e-7 errors are gated as tightly as paper-size ones.
pub const ERROR_HEADROOM: f64 = 1.10;

/// Step-gate bound for an exactly-zero previous error (double-precision
/// roundoff); a nonzero previous error is gated by [`ERROR_HEADROOM`] alone.
pub const ERROR_ROUNDOFF_FLOOR: f64 = 1e-15;

/// Absolute ceiling on every `experiments.*.max_rel_error_*`: a ROM this far
/// off the full model fails even when the previous snapshot was as wrong.
pub const ERROR_CEILING: f64 = 0.1;

fn leaf(path: &str) -> &str {
    path.rsplit('.').next().unwrap_or(path)
}

/// `experiments.<name>.max_rel_error_<reducer>`: a ROM's transient error.
fn is_gated_error(path: &str) -> bool {
    path.strip_prefix("experiments.")
        .and_then(|rest| rest.split_once('.'))
        .is_some_and(|(_, field)| field.starts_with("max_rel_error_"))
}

fn is_hurwitz(path: &str) -> bool {
    leaf(path).contains("hurwitz")
}

/// The step gate: checks the newest snapshot against the one before it
/// (`None` when the history has a single point, which leaves only the
/// ceiling and Hurwitz checks). Returns the violations keyed by metric path.
///
/// - A gated error above `ERROR_HEADROOM ×` its previous value (or above
///   [`ERROR_ROUNDOFF_FLOOR`] after an exact zero) fails, as does any gated
///   error above [`ERROR_CEILING`].
/// - A gated error or `*hurwitz*` path of the previous snapshot that is
///   missing from the newest fails; [`flatten`] drops non-finite values, so
///   this also catches a NaN or infinite error.
/// - A `*hurwitz*` leaf of the newest snapshot that is not true fails.
pub fn step_gate(
    previous: Option<&FlatSnapshot>,
    newest: &FlatSnapshot,
) -> BTreeMap<String, Vec<String>> {
    let mut violations: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut flag = |path: &str, reason: String| {
        violations.entry(path.to_string()).or_default().push(reason);
    };
    if let Some(prev) = previous {
        for (path, &old) in &prev.metrics {
            if !(is_gated_error(path) || is_hurwitz(path)) {
                continue;
            }
            let Some(&new) = newest.metrics.get(path) else {
                flag(
                    path,
                    format!(
                        "present in PR{} but missing or not finite in PR{}",
                        prev.pr, newest.pr
                    ),
                );
                continue;
            };
            let bound = if old == 0.0 {
                ERROR_ROUNDOFF_FLOOR
            } else {
                old * ERROR_HEADROOM
            };
            // Hurwitz flags are judged on the newest snapshot alone, below.
            if is_gated_error(path) && new > bound {
                flag(
                    path,
                    format!(
                        "worsened: {new:.6e} > {ERROR_HEADROOM} x {old:.6e} (PR{})",
                        prev.pr
                    ),
                );
            }
        }
    }
    for (path, &value) in &newest.metrics {
        if is_gated_error(path) && value > ERROR_CEILING {
            flag(
                path,
                format!("above the ceiling: {value:.6e} > {ERROR_CEILING}"),
            );
        }
        if is_hurwitz(path) && value != 1.0 {
            flag(path, "reduced G1r is not Hurwitz".to_string());
        }
    }
    violations
}

/// Builds the per-metric trend table over a history of flattened
/// snapshots (ascending PR order) and applies the change-point test and
/// the [`step_gate`] to the newest point of each series.
pub fn analyze_trends(history: &[FlatSnapshot], cfg: &TrendConfig) -> Vec<TrendRow> {
    let mut paths: BTreeMap<&str, Vec<(u32, f64)>> = BTreeMap::new();
    let mut noise: BTreeMap<&str, f64> = BTreeMap::new();
    for snap in history {
        for (path, value) in &snap.metrics {
            paths.entry(path).or_default().push((snap.pr, *value));
        }
        for (path, spread) in &snap.noise {
            let entry = noise.entry(path).or_insert(0.0);
            *entry = entry.max(*spread);
        }
    }
    let last_pr = history.last().map(|s| s.pr).unwrap_or(0);
    let mut gate = match history {
        [.., prev, newest] => step_gate(Some(prev), newest),
        [newest] => step_gate(None, newest),
        [] => BTreeMap::new(),
    };
    paths
        .into_iter()
        .map(|(path, series)| {
            let direction = direction(path);
            let mut prior: Vec<f64> = series
                .iter()
                .filter(|(pr, _)| *pr != last_pr)
                .map(|(_, v)| *v)
                .collect();
            if prior.len() > cfg.baseline_window {
                prior.drain(..prior.len() - cfg.baseline_window);
            }
            let (med, mad) = robust_stats(&prior);
            let rel = if is_timing(path) {
                cfg.timing_rel_floor
            } else {
                cfg.rel_floor
            };
            let tolerance = (cfg.mad_sigmas * mad)
                .max(rel * med.abs())
                .max(noise.get(path).copied().unwrap_or(0.0))
                .max(cfg.abs_floor);
            let newest = series.last().map(|(_, v)| *v).unwrap_or(f64::NAN);
            let has_newest = series.last().map(|(pr, _)| *pr == last_pr).unwrap_or(false);
            let eligible = has_newest
                && series.len() >= cfg.min_points
                && prior.len() >= cfg.min_points - 1
                && direction != Direction::Neutral;
            let change_point = eligible
                && match direction {
                    Direction::HigherWorse => newest - med > tolerance,
                    Direction::LowerWorse => med - newest > tolerance,
                    Direction::Neutral => false,
                };
            let gate = gate.remove(path).unwrap_or_default();
            TrendRow {
                path: path.to_string(),
                series,
                direction,
                median: med,
                mad,
                tolerance,
                regressed: change_point || !gate.is_empty(),
                gate,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// History loading + markdown report
// ---------------------------------------------------------------------------

/// Finds `BENCH_PR<n>.json` files in `dir` and returns them sorted by PR
/// number.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn find_history(dir: &Path) -> Result<Vec<(u32, PathBuf)>, String> {
    let mut files = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix("BENCH_PR") else {
            continue;
        };
        let Some(num) = stem.strip_suffix(".json") else {
            continue;
        };
        if let Ok(pr) = num.parse::<u32>() {
            files.push((pr, entry.path()));
        }
    }
    files.sort_by_key(|(pr, _)| *pr);
    Ok(files)
}

/// Loads and flattens the full snapshot history of a directory.
///
/// # Errors
///
/// Fails when no snapshots are found or any file fails to parse — a
/// corrupt committed snapshot is itself a finding.
pub fn load_history(dir: &Path) -> Result<Vec<FlatSnapshot>, String> {
    let files = find_history(dir)?;
    if files.is_empty() {
        return Err(format!("no BENCH_PR*.json files in {}", dir.display()));
    }
    files
        .into_iter()
        .map(|(pr, path)| load_snapshot(pr, &path))
        .collect()
}

/// Loads and flattens one snapshot file as the point of PR `pr`.
///
/// # Errors
///
/// Fails when the file cannot be read or is not JSON.
pub fn load_snapshot(pr: u32, path: &Path) -> Result<FlatSnapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = parse_json(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
    Ok(flatten(pr, &json))
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if (1e-3..1e6).contains(&v.abs()) {
        let s = format!("{v:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        format!("{v:.3e}")
    }
}

/// Renders the trend analysis as markdown: flagged regressions first, then
/// the complete metric trajectories.
pub fn render_markdown(history: &[FlatSnapshot], rows: &[TrendRow]) -> String {
    let mut out = String::new();
    let prs: Vec<u32> = history.iter().map(|s| s.pr).collect();
    let regressions: Vec<&TrendRow> = rows.iter().filter(|r| r.regressed).collect();
    let _ = writeln!(out, "# Bench trend report");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "History: {} snapshots (PR {}–{}), {} metrics tracked, {} eligible for flagging.",
        prs.len(),
        prs.first().copied().unwrap_or(0),
        prs.last().copied().unwrap_or(0),
        rows.len(),
        rows.iter()
            .filter(|r| r.direction != Direction::Neutral)
            .count(),
    );
    let _ = writeln!(out);
    if regressions.is_empty() {
        let _ = writeln!(out, "## Regressions: none");
    } else {
        let _ = writeln!(out, "## Regressions: {} flagged", regressions.len());
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| metric | median | robust σ | tolerance | PR{} value | drift | why |",
            prs.last().copied().unwrap_or(0)
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|");
        for r in &regressions {
            let (_, newest) = r.last();
            let drift = match r.direction {
                Direction::LowerWorse => r.median - newest,
                _ => newest - r.median,
            };
            let why = if r.gate.is_empty() {
                "change point".to_string()
            } else {
                r.gate.join("; ")
            };
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} | **{}** | {} worse | {why} |",
                r.path,
                fmt_value(r.median),
                fmt_value(r.mad),
                fmt_value(r.tolerance),
                fmt_value(newest),
                fmt_value(drift),
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "## Trajectories");
    let _ = writeln!(out);
    let mut header = String::from("| metric | dir |");
    let mut rule = String::from("|---|---|");
    for pr in &prs {
        let _ = write!(header, " PR{pr} |");
        rule.push_str("---|");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    for r in rows {
        let dir = match r.direction {
            Direction::HigherWorse => "↑bad",
            Direction::LowerWorse => "↓bad",
            Direction::Neutral => "—",
        };
        let mut line = format!("| `{}` | {dir} |", r.path);
        for pr in &prs {
            match r.series.iter().find(|(p, _)| p == pr) {
                Some((_, v)) if r.regressed && *pr == prs[prs.len() - 1] => {
                    let _ = write!(line, " **{}** |", fmt_value(*v));
                }
                Some((_, v)) => {
                    let _ = write!(line, " {} |", fmt_value(*v));
                }
                None => line.push_str(" · |"),
            }
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_the_snapshot_dialect() {
        let json = parse_json(
            r#"{"pr": 3, "neg": -1.5e-3, "flag": true, "s": "a\"b\nA",
                "arr": [1, 2.5, null], "nan": NaN, "inf": -Infinity, "empty": {}}"#,
        )
        .unwrap();
        assert_eq!(json.get("pr"), Some(&Json::Num(3.0)));
        assert_eq!(json.get("neg"), Some(&Json::Num(-1.5e-3)));
        assert_eq!(json.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(json.get("s"), Some(&Json::Str("a\"b\nA".into())));
        assert_eq!(
            json.get("arr"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Null]))
        );
        assert!(matches!(json.get("nan"), Some(Json::Num(v)) if v.is_nan()));
        assert_eq!(json.get("inf"), Some(&Json::Num(f64::NEG_INFINITY)));
        assert_eq!(json.get("empty"), Some(&Json::Obj(vec![])));
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn flatten_names_experiments_and_skips_repeat_arrays() {
        let json = parse_json(
            r#"{"pr": 4,
                "experiments": [
                  {"name": "fig2", "err": 0.01, "wall_s": {"sim_full": 0.5}},
                  {"name": "fig3", "err": 0.02}
                ],
                "scaling": {"factor_scaling_exponent": 1.1,
                            "factor_exponent_repeats": [1.0, 1.2],
                            "factor_exponent_spread": 0.2,
                            "other_metric": 7.0},
                "hurwitz": true,
                "label": "text"}"#,
        )
        .unwrap();
        let flat = flatten(4, &json);
        assert_eq!(flat.pr, 4);
        assert_eq!(flat.metrics.get("experiments.fig2.err"), Some(&0.01));
        assert_eq!(
            flat.metrics.get("experiments.fig2.wall_s.sim_full"),
            Some(&0.5)
        );
        assert_eq!(flat.metrics.get("experiments.fig3.err"), Some(&0.02));
        assert_eq!(flat.metrics.get("hurwitz"), Some(&1.0));
        // `pr`, strings, and repeat arrays are not metrics.
        assert!(!flat.metrics.contains_key("pr"));
        assert!(!flat.metrics.contains_key("label"));
        assert!(!flat
            .metrics
            .keys()
            .any(|k| k.contains("factor_exponent_repeats")));
        // The spread covers `factor_*` siblings but not `other_metric`.
        assert_eq!(
            flat.noise.get("scaling.factor_scaling_exponent"),
            Some(&0.2)
        );
        assert!(!flat.noise.contains_key("scaling.other_metric"));
    }

    #[test]
    fn directions_follow_the_naming_conventions() {
        assert_eq!(
            direction("experiments.fig3.max_rel_error_proposed"),
            Direction::HigherWorse
        );
        assert_eq!(
            direction("experiments.fig2.wall_s.sim_full"),
            Direction::HigherWorse
        );
        assert_eq!(
            direction("acceptance.assoc_reduce_speedup"),
            Direction::LowerWorse
        );
        assert_eq!(
            direction("experiments.fig2.g1r_hurwitz"),
            Direction::LowerWorse
        );
        assert_eq!(
            direction("experiments.fig2.reduced_order"),
            Direction::Neutral
        );
    }

    fn snapshots(values: &[(u32, f64)], path: &str) -> Vec<FlatSnapshot> {
        values
            .iter()
            .map(|(pr, v)| {
                let mut snap = FlatSnapshot {
                    pr: *pr,
                    ..FlatSnapshot::default()
                };
                snap.metrics.insert(path.to_string(), *v);
                snap
            })
            .collect()
    }

    #[test]
    fn change_point_flags_a_jump_but_not_noise() {
        // An error the step gate does not read, so only the change-point
        // test judges it (the gated `experiments.*.max_rel_error_*` fields
        // are tested with the step gate below).
        let path = "lowrank_scaling.rom_error_big";
        let cfg = TrendConfig::default();
        // Stable history with last-point noise inside the relative floor.
        let hist = snapshots(&[(1, 1e-4), (2, 1.1e-4), (3, 0.9e-4), (4, 1.2e-4)], path);
        let rows = analyze_trends(&hist, &cfg);
        assert!(!rows[0].regressed, "in-noise wiggle must not flag");
        // A 100× error jump must flag.
        let hist = snapshots(&[(1, 1e-4), (2, 1.1e-4), (3, 0.9e-4), (4, 1e-2)], path);
        let rows = analyze_trends(&hist, &cfg);
        assert!(rows[0].regressed, "100x error jump must flag");
        // The same jump downwards is an improvement, not a regression.
        let hist = snapshots(&[(1, 1e-4), (2, 1.1e-4), (3, 0.9e-4), (4, 1e-6)], path);
        let rows = analyze_trends(&hist, &cfg);
        assert!(!rows[0].regressed, "improvement must not flag");
    }

    #[test]
    fn speedup_collapse_flags_in_the_lower_direction() {
        let path = "acceptance.assoc_reduce_speedup";
        let cfg = TrendConfig::default();
        let hist = snapshots(&[(1, 2.5), (2, 2.4), (3, 2.6), (4, 0.8)], path);
        let rows = analyze_trends(&hist, &cfg);
        assert!(rows[0].regressed, "speedup collapse must flag");
        let hist = snapshots(&[(1, 2.5), (2, 2.4), (3, 2.6), (4, 3.4)], path);
        let rows = analyze_trends(&hist, &cfg);
        assert!(!rows[0].regressed, "a faster cache is not a regression");
    }

    #[test]
    fn recorded_spread_raises_the_tolerance() {
        let path = "scaling.factor_transient_s";
        let cfg = TrendConfig {
            timing_rel_floor: 0.1,
            mad_sigmas: 1.0,
            ..TrendConfig::default()
        };
        // Without noise metadata this jump would flag under the tight
        // config…
        let hist = snapshots(&[(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.5)], path);
        let rows = analyze_trends(&hist, &cfg);
        assert!(rows[0].regressed);
        // …but a recorded spread of 0.8 absorbs it.
        let mut hist = snapshots(&[(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.5)], path);
        for snap in &mut hist {
            snap.noise.insert(path.to_string(), 0.8);
        }
        let rows = analyze_trends(&hist, &cfg);
        assert!(!rows[0].regressed, "recorded spread must widen tolerance");
    }

    #[test]
    fn short_and_neutral_series_never_flag() {
        let cfg = TrendConfig::default();
        // Three points < min_points: even a huge jump stays quiet (on an
        // error outside the step gate, which needs no history length).
        let hist = snapshots(
            &[(1, 1e-4), (2, 1e-4), (3, 1.0)],
            "lowrank_scaling.rom_error_big",
        );
        assert!(!analyze_trends(&hist, &cfg)[0].regressed);
        // Neutral direction: a reduced-order change is information, not a
        // regression.
        let hist = snapshots(
            &[(1, 11.0), (2, 11.0), (3, 11.0), (4, 30.0)],
            "experiments.fig3.reduced_order",
        );
        assert!(!analyze_trends(&hist, &cfg)[0].regressed);
    }

    #[test]
    fn markdown_report_names_the_regression() {
        let path = "experiments.fig3.max_rel_error_proposed";
        let hist = snapshots(&[(1, 1e-4), (2, 1.1e-4), (3, 0.9e-4), (4, 1e-2)], path);
        let rows = analyze_trends(&hist, &TrendConfig::default());
        let md = render_markdown(&hist, &rows);
        assert!(md.contains("## Regressions: 1 flagged"));
        assert!(md.contains(path));
        assert!(md.contains("## Trajectories"));
        assert!(md.contains("PR4"));
    }

    // --- step gate -------------------------------------------------------

    const SAMPLE_OLD: &str = r#"{"experiments": [
        {"name": "fig2", "full_order": 100, "max_rel_error_proposed": 4.870609e-2, "wall_s": {"reduce_proposed": 0.711746}},
        {"name": "fig3", "max_rel_error_proposed": 5.777224e-5, "max_rel_error_norm": 1.746290e-3}
    ], "acceptance": {"assoc_reduce_speedup": 2.719}}"#;

    const SAMPLE_NEW: &str = r#"{"experiments": [
        {"name": "fig2", "max_rel_error_proposed": 1.8e-2, "g1r_hurwitz": true, "wall_s": {"reduce_proposed": 1.0}},
        {"name": "fig3", "max_rel_error_proposed": 3.4e-5, "max_rel_error_norm": 1.75e-3, "g1r_hurwitz": true, "norm_g1r_hurwitz": true}
    ], "acceptance": {"assoc_reduce_tline35_cached_s": 0.011}}"#;

    fn snapshot(pr: u32, text: &str) -> FlatSnapshot {
        flatten(pr, &parse_json(text).unwrap())
    }

    fn gate(old: &str, new: &str) -> BTreeMap<String, Vec<String>> {
        step_gate(Some(&snapshot(1, old)), &snapshot(2, new))
    }

    /// Asserts a violation on `experiments.<path>` whose reason names `reason`.
    #[track_caller]
    fn assert_flagged(violations: &BTreeMap<String, Vec<String>>, path: &str, reason: &str) {
        let hit = violations
            .get(&format!("experiments.{path}"))
            .is_some_and(|reasons| reasons.iter().any(|r| r.contains(reason)));
        assert!(hit, "no `{reason}` violation on {path}: {violations:?}");
    }

    #[test]
    fn parses_the_reproduce_format() {
        let old = snapshot(1, SAMPLE_OLD);
        assert_eq!(
            old.metrics["experiments.fig2.max_rel_error_proposed"],
            4.870609e-2
        );
        assert_eq!(
            old.metrics["experiments.fig3.max_rel_error_norm"],
            1.746290e-3
        );
        assert_eq!(
            old.metrics["experiments.fig2.wall_s.reduce_proposed"],
            0.711746
        );
        assert!(!old
            .metrics
            .contains_key("experiments.fig2.max_rel_error_norm"));
        // Rust's float formatting writes `inf`; the parser reads it.
        assert_eq!(
            parse_json("[inf, -inf]").unwrap(),
            Json::Arr(vec![Json::Num(f64::INFINITY), Json::Num(f64::NEG_INFINITY)])
        );
    }

    #[test]
    fn improvements_and_noise_level_changes_pass() {
        let violations = gate(SAMPLE_OLD, SAMPLE_NEW);
        assert!(violations.is_empty(), "{violations:?}");
        // Inside the headroom is noise, not a regression.
        assert!(gate(SAMPLE_OLD, &SAMPLE_NEW.replace("3.4e-5", "6.3e-5")).is_empty());
    }

    #[test]
    fn worsened_errors_and_lost_stability_fail() {
        let regressed = SAMPLE_NEW
            .replace("1.8e-2", "6.0e-2")
            .replace(
                "\"g1r_hurwitz\": true, \"wall",
                "\"g1r_hurwitz\": false, \"wall",
            )
            .replace("\"norm_g1r_hurwitz\": true", "\"norm_g1r_hurwitz\": false");
        let violations = gate(SAMPLE_OLD, &regressed);
        assert_flagged(&violations, "fig2.max_rel_error_proposed", "worsened");
        // Any `*hurwitz*` leaf counts, not only the proposed ROM's.
        assert_flagged(&violations, "fig2.g1r_hurwitz", "not Hurwitz");
        assert_flagged(&violations, "fig3.norm_g1r_hurwitz", "not Hurwitz");
        assert_eq!(violations.len(), 3, "{violations:?}");
    }

    /// Errors far below 1e-3 are gated too: a 100× regression at the fig3
    /// `--small` magnitudes fails on both fields, the unchanged run passes.
    #[test]
    fn small_errors_are_gated_relative_to_their_baseline() {
        let small = r#"{"experiments": [
            {"name": "fig3", "max_rel_error_proposed": 2.05e-9, "max_rel_error_norm": 4.91e-8}
        ]}"#;
        assert!(gate(small, small).is_empty());
        let regressed = small
            .replace("2.05e-9", "2.05e-7")
            .replace("4.91e-8", "4.91e-6");
        let violations = gate(small, &regressed);
        assert_flagged(&violations, "fig3.max_rel_error_proposed", "worsened");
        assert_flagged(&violations, "fig3.max_rel_error_norm", "worsened");
        assert!(gate(small, &small.replace("2.05e-9", "2.2e-9")).is_empty());
        // Only an exactly-zero baseline falls back to the roundoff floor.
        let zero = small.replace("2.05e-9", "0.0");
        assert!(gate(&zero, &zero.replace("0.0", "1e-16")).is_empty());
        assert!(!gate(&zero, &zero.replace("0.0", "1e-14")).is_empty());
    }

    #[test]
    fn nonfinite_errors_fail() {
        for word in ["inf", "NaN"] {
            let violations = gate(SAMPLE_OLD, &SAMPLE_NEW.replace("1.8e-2", word));
            assert_flagged(&violations, "fig2.max_rel_error_proposed", "not finite");
        }
    }

    #[test]
    fn missing_experiments_are_flagged() {
        let new = r#"{"experiments": [{"name": "fig2", "max_rel_error_proposed": 1e-2}]}"#;
        let violations = gate(SAMPLE_OLD, new);
        assert_flagged(&violations, "fig3.max_rel_error_proposed", "missing");
        assert_flagged(&violations, "fig3.max_rel_error_norm", "missing");
    }

    /// A ROM as wrong as the 3.055 low-rank fig4 one fails on the absolute
    /// ceiling even when the previous snapshot held the same error.
    #[test]
    fn errors_above_the_ceiling_fail_even_when_unchanged() {
        let wrong = r#"{"experiments": [{"name": "fig4", "max_rel_error_proposed": 3.055}]}"#;
        let path = "fig4.max_rel_error_proposed";
        assert_flagged(&gate(wrong, wrong), path, "ceiling");
        // A single-snapshot history still gets the ceiling.
        assert_flagged(&step_gate(None, &snapshot(1, wrong)), path, "ceiling");
    }
}
