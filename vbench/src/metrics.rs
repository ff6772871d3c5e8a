//! The metric names the binary prints, with units. `BENCHMARK.json` must
//! list exactly these (checked by `tests/contract.rs`).

/// End-to-end metrics of the untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("reduce_s", "s"),
    ("rom_sim_s", "s"),
    ("full_sim_s", "s"),
    ("rom_max_rel_error", "ratio"),
    ("rom_band_residual", "ratio"),
    ("peak_heap_mb", "MB"),
];

/// Per-call layer timings of the traced run. Each prints as three metrics:
/// `<name>` (median), `<name>.p99` and `<name>.n`.
pub const LAYER_TIMINGS: &[&str] = &[
    "circuits.build_s",
    "core.stamp_build_s",
    "core.chain_h1_s",
    "core.chain_h2_s",
    "core.chain_h3_s",
    "core.bigsmall_solve_s",
    "core.band_sample_s",
    "system.rom_rhs_s",
    "system.full_rhs_s",
    "linalg.g1_factor_s",
];

/// Single-valued layer metrics of the traced run: `(name, unit)`.
pub const LAYER_VALUES: &[(&str, &str)] = &[
    ("core.stamp_bytes", "bytes"),
    ("core.reduce_cpu_s", "s"),
    ("core.candidates", "count"),
    ("core.candidate_yield", "ratio"),
    ("core.guard_restarts", "count"),
    ("core.rom_order", "count"),
    ("core.greedy_evals", "count"),
    ("core.greedy_accept_ratio", "ratio"),
    ("core.full_model_solves", "count"),
    ("linalg.adi_iterations", "count"),
    ("system.rom_rhs_allocs", "count"),
    ("sim.rom_newton_iterations", "count"),
    ("sim.full_newton_iterations", "count"),
    ("sim.rom_factorizations", "count"),
    ("sim.full_factorizations", "count"),
    ("acct.chain_stamp_s", "s"),
    ("acct.chain_stamp_cpu_share", "ratio"),
    ("acct.rom_rhs_share", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for name in LAYER_TIMINGS {
        out.push((name.to_string(), "s"));
        out.push((format!("{name}.p99"), "s"));
        out.push((format!("{name}.n"), "count"));
    }
    out.extend(LAYER_VALUES.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// The contract's name grammar: 1–64 characters of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. A non-finite value prints as `null`.
pub fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
