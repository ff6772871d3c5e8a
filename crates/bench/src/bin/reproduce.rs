//! Reproduces the tables and figures of the DAC 2012 paper and prints them as
//! ASCII series / tables.
//!
//! ```text
//! cargo run --release -p vamor-bench --bin reproduce -- all
//! cargo run --release -p vamor-bench --bin reproduce -- fig3 table1 --small
//! ```
//!
//! By default the paper-sized systems are used (100-stage line, 70-state
//! line, 173-state receiver, 102-state varistor circuit, plus the
//! 2 000/10 000-state lines of the `sparse` scaling run). `--small` runs
//! scaled-down instances for a quick smoke test. `--sparse` / `--dense`
//! force the linear-solver backend of every reduction and full-model
//! transient (default: automatic, sparse from 256 states up), so the gate
//! can exercise both backends.
//!
//! `ablation` times the paper's §2.3 argument on 8/16/24-stage lines:
//! structured `H₂` moments against dense solves on the explicit Eq. 17
//! realization. `all` runs every experiment except `overhead`, `chaos` and
//! `resume`, which run only when named. An unknown experiment or option is a
//! usage error (exit 2) before anything runs.
//!
//! `--json <path>` writes a machine-readable snapshot of the run; without it
//! nothing is written. `cargo xtask bench-trend --fresh <path>` gates such a
//! snapshot against the newest committed `BENCH_PR<n>.json`:
//!
//! ```text
//! cargo run --release -p vamor-bench --bin reproduce -- all --json bench-paper.json
//! cargo xtask bench-trend --fresh bench-paper.json
//! ```
//!
//! Robustness controls: `--timeout-secs <v>` bounds the `adaptive`
//! experiment with a wall-clock deadline — once the initial ROM exists the
//! search returns its best configuration so far instead of erroring. The
//! `chaos` experiment (requires building with `--features fault-injection`)
//! sweeps seeded fault plans over fig2–fig5 at the small sizes and fails if
//! any injected fault escapes the degradation ladder (a panic or a silently
//! non-finite result); `chaos --concurrent` additionally drives every fault
//! kind through one shared, byte-budgeted reduction session from three
//! threads at once.
//!
//! Observability: `--trace` turns the workspace span subsystem on for the
//! whole run and prints a per-span self-time table (plus the share of the
//! reduction and transient-simulation wall time the top-level spans
//! account for). `--trace-out <path>` additionally writes the full span
//! tree as Chrome `trace_event` JSON (loadable in `chrome://tracing` /
//! Perfetto) and `--flame-out <path>` writes folded stacks for
//! `flamegraph.pl` / `inferno-flamegraph`; both imply `--trace`.
//! Independently of tracing, every experiment runs inside its own metrics
//! window and the snapshot lands in the JSON under a top-level `"metrics"`
//! object keyed by experiment name.
//!
//! Numerical health: `--report <dir>` captures the convergence event
//! stream (ADI sweeps, greedy probes, degradations, Newton steps, …) per
//! experiment and writes a `RunReport` as `<dir>/<experiment>.json` plus a
//! self-contained `<dir>/<experiment>.html` with inline-SVG convergence
//! curves, a degradation timeline, and health gauges. Because the report
//! exists to explain the production low-rank solve path, `--report`
//! implies the adaptive driver and defaults the figure reductions to the
//! low-rank engine unless `--engine` is given explicitly.
//!
//! Checkpoint/resume: `--checkpoint-dir <dir>` makes the adaptive run write
//! a versioned, checksummed checkpoint after every accepted move, so a
//! deadline-killed run (`--timeout-secs 0.5`) leaves its progress on disk;
//! `--resume <path>` continues from such a checkpoint (a missing, torn, or
//! mismatched file is a typed error, never a silent restart). The `resume`
//! experiment demonstrates the full contract in one invocation: an
//! uninterrupted reference, a deadline-killed run, and a resume that must
//! reach the same accepted-move list and final band residual.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use vamor_bench::{
    ablation_structured_vs_dense, acceptance_metrics, adaptive_deadline_run, adaptive_report,
    adaptive_resume_run, fig2_voltage_line_with, fig3_current_line_with, fig4_rf_receiver_with,
    fig5_varistor_with, lowrank_scaling, scaling_subspace_dims, sparse_scaling, AblationRow,
    AcceptanceMetrics, AdaptiveExperimentReport, AdaptiveSummary, DeadlineRunReport,
    LowRankScalingReport, ResumeReport, SparseScalingReport, TransientComparison,
};
use vamor_core::{ReductionEngine, SolverBackend};

struct Sizes {
    fig2_stages: usize,
    fig3_stages: usize,
    fig4_sections: usize,
    fig5_ladder: usize,
    /// Mid size of the sparse-LU scaling run (dense path still measured).
    sparse_mid: usize,
    /// Large size of the sparse-LU scaling run (sparse only).
    sparse_big: usize,
    dt: f64,
}

impl Sizes {
    fn paper() -> Self {
        Sizes {
            fig2_stages: 100,
            fig3_stages: 70,
            fig4_sections: 86,
            fig5_ladder: 98,
            sparse_mid: 2_000,
            sparse_big: 10_000,
            dt: 0.01,
        }
    }

    fn small() -> Self {
        Sizes {
            fig2_stages: 24,
            fig3_stages: 20,
            fig4_sections: 12,
            fig5_ladder: 16,
            sparse_mid: 500,
            sparse_big: 2_000,
            dt: 0.02,
        }
    }
}

/// Experiments that `all` (or no experiment name) runs, in order.
const ALL_EXPERIMENTS: [&str; 11] = [
    "fig2", "fig3", "fig4", "fig5", "table1", "scaling", "sparse", "lowrank", "adaptive", "perf",
    "ablation",
];

/// Experiments that run only when named: `overhead` toggles the global
/// tracer, `chaos` needs fault injection compiled in, `resume` kills and
/// resumes its own run.
const STANDALONE_EXPERIMENTS: [&str; 3] = ["overhead", "chaos", "resume"];

/// Options that take a value. The one table drives both the value lookup
/// and the scan that tells experiment names from option values.
const VALUE_OPTIONS: [&str; 8] = [
    "--json",
    "--engine",
    "--timeout-secs",
    "--resume",
    "--checkpoint-dir",
    "--trace-out",
    "--flame-out",
    "--report",
];

/// Options without a value.
const SWITCHES: [&str; 6] = [
    "--small",
    "--adaptive",
    "--sparse",
    "--dense",
    "--concurrent",
    "--trace",
];

const USAGE: &str = "\
usage: reproduce [EXPERIMENT...] [OPTION...]

experiments (`all`, the default, runs these):
    fig2 fig3 fig4 fig5 table1 scaling sparse lowrank adaptive perf ablation
run only when named:
    overhead chaos resume

options:
    --small --adaptive --sparse --dense --concurrent --trace
    --json <path> --engine <dense|lowrank|auto> --timeout-secs <seconds>
    --resume <checkpoint> --checkpoint-dir <dir> --trace-out <path>
    --flame-out <path> --report <dir>
";

/// Checks the command line before any experiment runs and returns the
/// experiments it names: every `--option` is one of [`SWITCHES`] or of
/// [`VALUE_OPTIONS`] followed by its value, and every other word names an
/// experiment.
fn experiments(args: &[String]) -> Result<Vec<&str>, String> {
    let mut named = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let arg = arg.as_str();
        if VALUE_OPTIONS.contains(&arg) {
            if args.next().is_none_or(|value| value.starts_with("--")) {
                return Err(format!("{arg} requires a value"));
            }
        } else if arg.starts_with("--") {
            if !SWITCHES.contains(&arg) {
                return Err(format!("unknown option `{arg}`"));
            }
        } else if arg == "all"
            || ALL_EXPERIMENTS.contains(&arg)
            || STANDALONE_EXPERIMENTS.contains(&arg)
        {
            named.push(arg);
        } else {
            return Err(format!("unknown experiment `{arg}`"));
        }
    }
    Ok(named)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let named = match experiments(&args) {
        Ok(named) => named,
        Err(msg) => {
            eprintln!("reproduce: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let has = |switch: &str| args.iter().any(|a| a == switch);
    // The value of a [`VALUE_OPTIONS`] entry; `experiments` checked that
    // one follows it.
    let value = |option: &str| {
        args.iter()
            .position(|a| a == option)
            .map(|i| args[i + 1].as_str())
    };
    let path = |option: &str| value(option).map(PathBuf::from);
    let small = has("--small");
    // `--adaptive` replaces every hand-pinned fig2–fig5 configuration with
    // the adaptive driver: each experiment keeps only its input band and
    // residual tolerance (see `vamor_bench::fig2_adaptive_spec` etc.).
    let mut adaptive = has("--adaptive");
    // Linear-solver backend toggle for the gate: `--sparse` / `--dense`
    // force every reduction and full-model transient onto one backend;
    // the default `Auto` picks dense below 256 states.
    let backend = match (has("--sparse"), has("--dense")) {
        (true, true) => {
            eprintln!("--sparse and --dense are mutually exclusive");
            return ExitCode::FAILURE;
        }
        (true, false) => SolverBackend::Sparse,
        (false, true) => SolverBackend::Dense,
        (false, false) => SolverBackend::Auto,
    };
    // Reduction-engine toggle, mirroring the PR-3 --sparse/--dense pattern:
    // `--engine dense|lowrank|auto` forces the Schur or the rational-Krylov
    // + LR-ADI engine on the fig2–fig5/table1 reductions (default:
    // automatic, low-rank from 512 states). The `lowrank` experiment always
    // runs the low-rank engine and `perf`/`scaling` always measure the
    // dense machinery — they are engine benchmarks, not toggled consumers.
    let engine_forced = value("--engine").is_some();
    let mut engine = match value("--engine") {
        Some("dense") => ReductionEngine::DenseSchur,
        Some("lowrank") => ReductionEngine::LowRank,
        Some("auto") | None => ReductionEngine::Auto,
        Some(other) => {
            eprintln!("--engine requires one of dense|lowrank|auto, got {other:?}");
            return ExitCode::FAILURE;
        }
    };
    // The snapshot is written only where `--json` says.
    let json_path = path("--json");
    // `--timeout-secs <v>`: wall-clock deadline for the adaptive experiment,
    // exercising the preemption contract (best-so-far ROM on expiry).
    let timeout = match value("--timeout-secs").map(str::parse::<f64>) {
        Some(Ok(v)) if v >= 0.0 && v.is_finite() => Some(Duration::from_secs_f64(v)),
        Some(_) => {
            eprintln!("--timeout-secs requires a non-negative number of seconds");
            return ExitCode::FAILURE;
        }
        None => None,
    };
    // `--resume <path>`: continue a killed adaptive run from its checkpoint;
    // `--checkpoint-dir <dir>`: where the adaptive run writes checkpoints.
    let resume_path = path("--resume");
    let checkpoint_dir = path("--checkpoint-dir");
    let concurrent = has("--concurrent");
    // Trace exports: `--trace-out` (Chrome trace_event JSON) and
    // `--flame-out` (folded flamegraph stacks) imply `--trace`.
    let trace_out = path("--trace-out");
    let flame_out = path("--flame-out");
    let trace = has("--trace") || trace_out.is_some() || flame_out.is_some();
    // `--report <dir>`: per-experiment numerical-health run reports (JSON +
    // self-contained HTML) assembled from the event stream, the metrics
    // snapshot, and the span trace. The report documents the production
    // low-rank solve path, so it implies the adaptive driver and — unless
    // the user forced one — the low-rank reduction engine; a dense Schur
    // solve has no ADI sweeps or greedy moves to plot.
    let report_dir = path("--report");
    if report_dir.is_some() {
        adaptive = true;
        if !engine_forced {
            engine = ReductionEngine::LowRank;
        }
    }
    let which: Vec<&str> = if named.is_empty() || named.contains(&"all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        named
    };
    let sizes = if small {
        Sizes::small()
    } else {
        Sizes::paper()
    };

    // Both `--trace` and `--report` need the span subsystem; reports drain
    // it per experiment, so the footer sums over the accumulated records.
    let capture_spans = trace || report_dir.is_some();
    if capture_spans {
        vamor_obs::install();
    }
    if let Some(dir) = &report_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("--report: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut all_spans: Vec<vamor_obs::SpanRecord> = Vec::new();

    let mut table1_rows: Vec<(String, TransientComparison)> = Vec::new();
    let mut snapshot = Snapshot::default();
    for experiment in &which {
        // Each experiment gets its own metrics window; the snapshot taken
        // after the run lands in the JSON under `"metrics".<experiment>`.
        vamor_obs::metrics::reset();
        if report_dir.is_some() {
            vamor_obs::event::install();
        }
        let outcome = match *experiment {
            "fig2" => {
                fig2_voltage_line_with(sizes.fig2_stages, sizes.dt, backend, engine, adaptive).map(
                    |c| {
                        print_figure("Fig. 2", &c);
                        snapshot.rows.push(("fig2".into(), c));
                        None
                    },
                )
            }
            "fig3" => {
                fig3_current_line_with(sizes.fig3_stages, sizes.dt, backend, engine, adaptive).map(
                    |c| {
                        print_figure("Fig. 3", &c);
                        snapshot.rows.push(("fig3".into(), c.clone()));
                        Some(("Sect 3.2 Ex. (transmission line)".to_string(), c))
                    },
                )
            }
            "fig4" => {
                fig4_rf_receiver_with(sizes.fig4_sections, sizes.dt, backend, engine, adaptive).map(
                    |c| {
                        print_figure("Fig. 4", &c);
                        snapshot.rows.push(("fig4".into(), c.clone()));
                        Some(("Sect 3.3 Ex. (RF receiver)".to_string(), c))
                    },
                )
            }
            "fig5" => fig5_varistor_with(sizes.fig5_ladder, sizes.dt, backend, engine, adaptive)
                .map(|c| {
                    print_figure("Fig. 5", &c);
                    snapshot.rows.push(("fig5".into(), c));
                    None
                }),
            "sparse" => match sparse_scaling(sizes.sparse_mid, sizes.sparse_big, sizes.dt) {
                Ok(r) => {
                    print_sparse_scaling(&r);
                    snapshot.sparse = Some(r);
                    Ok(None)
                }
                Err(e) => Err(e),
            },
            "lowrank" => match lowrank_scaling(
                sizes.sparse_mid,
                sizes.sparse_big,
                sizes.fig3_stages,
                sizes.fig5_ladder,
                sizes.dt,
            ) {
                Ok(r) => {
                    print_lowrank_scaling(&r);
                    snapshot.lowrank = Some(r);
                    Ok(None)
                }
                Err(e) => Err(e),
            },
            // Under `--timeout-secs` the adaptive experiment becomes the
            // preemption demonstration: the fig3-band search runs against a
            // wall-clock deadline and reports its best-so-far outcome. With
            // `--engine lowrank` it runs on the large (10⁴-state at paper
            // sizes) line instead of the fig3 line.
            "adaptive" if resume_path.is_some() || checkpoint_dir.is_some() => {
                match run_adaptive_session(
                    sizes.fig3_stages,
                    timeout,
                    resume_path.as_deref(),
                    checkpoint_dir.as_deref(),
                ) {
                    Ok(()) => Ok(None),
                    Err(msg) => {
                        eprintln!("adaptive: {msg}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "adaptive" => match timeout {
                Some(t) => {
                    let stages = if engine == ReductionEngine::LowRank {
                        sizes.sparse_big
                    } else {
                        sizes.fig3_stages
                    };
                    match adaptive_deadline_run(stages, engine, t) {
                        Ok(r) => {
                            print_deadline_run(&r);
                            Ok(None)
                        }
                        Err(e) => Err(e),
                    }
                }
                None => match adaptive_report(
                    sizes.fig3_stages,
                    sizes.fig5_ladder,
                    sizes.sparse_mid,
                    sizes.dt,
                ) {
                    Ok(r) => {
                        print_adaptive_report(&r);
                        snapshot.adaptive = Some(r);
                        Ok(None)
                    }
                    Err(e) => Err(e),
                },
            },
            // The tracing-tax guard: instrumented tline35 reduce must stay
            // within 5% of uninstrumented. Not part of `all` — it toggles
            // the process-global tracer, which would clobber `--trace`.
            "overhead" => match run_overhead_guard() {
                Ok(()) => Ok(None),
                Err(msg) => {
                    eprintln!("overhead: {msg}");
                    return ExitCode::FAILURE;
                }
            },
            "chaos" => match run_chaos(concurrent, checkpoint_dir.as_deref()) {
                Ok(()) => Ok(None),
                Err(msg) => {
                    eprintln!("chaos: {msg}");
                    return ExitCode::FAILURE;
                }
            },
            // The kill-and-resume demonstration: reference run, deadline-
            // killed run leaving a checkpoint, resume from it — the resumed
            // search must reach the reference's move list and residual.
            "resume" => {
                let dir = checkpoint_dir
                    .clone()
                    .unwrap_or_else(|| std::env::temp_dir().join("vamor-resume"));
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("resume: cannot create {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
                let path = dir.join("resume-demo.ckpt");
                // Remove any stale checkpoint so "no file yet" detection is
                // about THIS run's kill point.
                let _ = std::fs::remove_file(&path);
                let kill = timeout.unwrap_or(Duration::from_millis(300));
                match adaptive_resume_run(sizes.fig3_stages, kill, &path) {
                    Ok(r) => {
                        print_resume_report(&r);
                        if !r.moves_match || r.residual_delta > 1e-10 {
                            eprintln!(
                                "resume: resumed run diverged from the uninterrupted reference"
                            );
                            return ExitCode::FAILURE;
                        }
                        Ok(None)
                    }
                    Err(e) => Err(e),
                }
            }
            "perf" => match acceptance_metrics(35, if small { 16 } else { 98 }, sizes.dt) {
                Ok(m) => {
                    print_acceptance(&m);
                    snapshot.acceptance = Some(m);
                    Ok(None)
                }
                Err(e) => Err(e),
            },
            "table1" => {
                // Table 1 is assembled from the fig3/fig4 runs; run them if the
                // user asked only for the table.
                if !which.contains(&"fig3") {
                    match fig3_current_line_with(
                        sizes.fig3_stages,
                        sizes.dt,
                        backend,
                        engine,
                        adaptive,
                    ) {
                        Ok(c) => table1_rows.push(("Sect 3.2 Ex. (transmission line)".into(), c)),
                        Err(e) => {
                            eprintln!("table1: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                if !which.contains(&"fig4") {
                    match fig4_rf_receiver_with(
                        sizes.fig4_sections,
                        sizes.dt,
                        backend,
                        engine,
                        adaptive,
                    ) {
                        Ok(c) => table1_rows.push(("Sect 3.3 Ex. (RF receiver)".into(), c)),
                        Err(e) => {
                            eprintln!("table1: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                Ok(None)
            }
            "scaling" => {
                let stages = if small { 16 } else { 40 };
                match scaling_subspace_dims(stages, &[1, 2, 3, 4]) {
                    Ok(rows) => {
                        println!("\n== Projection-size scaling (Section 4 remark) ==");
                        println!(
                            "{:>3} | {:>14} {:>14} | {:>14} {:>14}",
                            "k", "proposed dim", "candidates", "NORM dim", "candidates"
                        );
                        for r in rows {
                            println!(
                                "{:>3} | {:>14} {:>14} | {:>14} {:>14}",
                                r.k,
                                r.proposed_dim,
                                r.proposed_candidates,
                                r.norm_dim,
                                r.norm_candidates
                            );
                        }
                        Ok(None)
                    }
                    Err(e) => Err(e),
                }
            }
            "ablation" => match ablation_structured_vs_dense(&[8, 16, 24], 5) {
                Ok(rows) => {
                    print_ablation(&rows);
                    snapshot.ablation = rows;
                    Ok(None)
                }
                Err(e) => Err(e),
            },
            other => unreachable!("`experiments` admits no experiment named `{other}`"),
        };
        match outcome {
            Ok(Some(row)) => table1_rows.push(row),
            Ok(None) => {}
            Err(e) => {
                eprintln!("{experiment}: {e}");
                return ExitCode::FAILURE;
            }
        }
        let snap = vamor_obs::MetricsSnapshot::capture();
        if capture_spans {
            // Drain per experiment so each run report only sees its own
            // spans, then re-arm the tracer for the next experiment.
            let mut spans = vamor_obs::take_trace();
            vamor_obs::install();
            if let Some(dir) = &report_dir {
                let log = vamor_obs::event::take();
                let report = vamor_obs::report::RunReport::build(experiment, &log, &snap, &spans);
                let json_file = dir.join(format!("{experiment}.json"));
                let html_file = dir.join(format!("{experiment}.html"));
                if let Err(e) = std::fs::write(&json_file, report.to_json()) {
                    eprintln!("--report: failed to write {}: {e}", json_file.display());
                    return ExitCode::FAILURE;
                }
                if let Err(e) = std::fs::write(&html_file, report.to_html()) {
                    eprintln!("--report: failed to write {}: {e}", html_file.display());
                    return ExitCode::FAILURE;
                }
                println!(
                    "wrote {} + .html ({} events{})",
                    json_file.display(),
                    log.records.len(),
                    if log.dropped > 0 {
                        format!(", {} dropped", log.dropped)
                    } else {
                        String::new()
                    }
                );
            }
            all_spans.append(&mut spans);
        }
        if !(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty()) {
            snapshot
                .metrics
                .push(((*experiment).to_string(), snap.to_json("    ")));
        }
    }

    if which.contains(&"table1") || !table1_rows.is_empty() {
        print_table1(&table1_rows);
    }

    if trace {
        let records = all_spans;
        let rows = vamor_obs::export::summary(&records);
        println!("\n== Span self-time summary (--trace) ==");
        print!("{}", vamor_obs::export::render_summary_table(&rows));
        // How much of the measured reduction wall time the top-level reduce
        // spans account for (their subtree self times sum to exactly this).
        let accounted: u64 = records
            .iter()
            .filter(|r| {
                r.depth == 0 && matches!(r.name, "assoc_reduce" | "adaptive_reduce" | "norm_reduce")
            })
            .map(|r| r.dur_ns)
            .sum();
        let reduce_wall: f64 = snapshot
            .rows
            .iter()
            .map(|(_, c)| {
                c.timings.reduce_proposed.as_secs_f64() + c.timings.reduce_norm.as_secs_f64()
            })
            .sum();
        // The externally-timed reduce wall only covers the figure rows, so
        // the coverage ratio is meaningful only when nothing else traced.
        let figures_only = which
            .iter()
            .all(|e| matches!(*e, "fig2" | "fig3" | "fig4" | "fig5"));
        if reduce_wall > 0.0 && figures_only {
            println!(
                "reduce spans account for {:.1}% of the {:.3} s reduction wall time",
                100.0 * accounted as f64 / 1e9 / reduce_wall,
                reduce_wall
            );
        } else if accounted > 0 {
            println!(
                "reduce spans carry {:.3} s inclusive (run mixes figure and non-figure \
                 experiments, so no wall-coverage ratio is reported)",
                accounted as f64 / 1e9
            );
        }
        // Same attribution for the transient-simulation wall: the
        // externally-timed sim_full/sim_proposed/sim_norm walls must be
        // covered by the top-level `transient_sim` spans.
        let sim_accounted: u64 = records
            .iter()
            .filter(|r| r.depth == 0 && r.name == "transient_sim")
            .map(|r| r.dur_ns)
            .sum();
        let sim_wall: f64 = snapshot
            .rows
            .iter()
            .map(|(_, c)| {
                c.timings.sim_full.as_secs_f64()
                    + c.timings.sim_proposed.as_secs_f64()
                    + c.timings.sim_norm.as_secs_f64()
            })
            .sum();
        if sim_wall > 0.0 && figures_only {
            println!(
                "transient spans account for {:.1}% of the {:.3} s simulation wall time",
                100.0 * sim_accounted as f64 / 1e9 / sim_wall,
                sim_wall
            );
        } else if sim_accounted > 0 {
            println!(
                "transient spans carry {:.3} s inclusive (run mixes figure and non-figure \
                 experiments, so no wall-coverage ratio is reported)",
                sim_accounted as f64 / 1e9
            );
        }
        if let Some(path) = &trace_out {
            let chrome = vamor_obs::export::chrome_trace_json(&records);
            if let Err(e) = std::fs::write(path, &chrome) {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {} ({} span events)", path.display(), records.len());
        }
        if let Some(path) = &flame_out {
            let folded = vamor_obs::export::folded_stacks(&records);
            if let Err(e) = std::fs::write(path, &folded) {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
    }

    let json = render_json(small, &snapshot);
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nwrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Runs [`vamor_bench::trace_overhead_guard`] and prints every attempt.
fn run_overhead_guard() -> Result<(), String> {
    let mut attempt = 0;
    vamor_bench::trace_overhead_guard(|r| {
        println!("\n== Tracing overhead guard (tline35 reduce batches, median of pairs) ==");
        println!(
            "{} pairs of {}-reduce batches: uninstrumented {:.3} ms, instrumented {:.3} ms \
             ({} spans, {} events): ratio {:.3}{}",
            r.pairs,
            r.batch,
            r.uninstrumented.as_secs_f64() * 1e3,
            r.instrumented.as_secs_f64() * 1e3,
            r.spans_recorded,
            r.events_recorded,
            r.ratio,
            if attempt > 0 { " (retry)" } else { "" }
        );
        attempt += 1;
    })
    .map(|_| ())
}

fn print_deadline_run(r: &DeadlineRunReport) {
    println!("\n== Deadline-bounded adaptive run (--timeout-secs) ==");
    println!(
        "fig3 line (n={}): best-so-far ROM order {}, abscissa {:.3e} ({}), stop {}, wall {:.2} s",
        r.states,
        r.order,
        r.abscissa,
        if r.hurwitz { "Hurwitz" } else { "NOT Hurwitz" },
        r.stop,
        r.wall.as_secs_f64()
    );
    println!(
        "  search: {:.2e} -> {:.2e} in {} moves [{}] ({} evals, {} full solves){}",
        r.summary.initial_residual,
        r.summary.final_residual,
        r.summary.moves,
        r.summary.move_list,
        r.summary.evaluations,
        r.summary.full_model_solves,
        if r.deadline_hit {
            " — preempted by the deadline"
        } else {
            " — finished within the deadline"
        }
    );
}

/// The checkpointed adaptive session run behind `--checkpoint-dir` /
/// `--resume`: one fig3-band adaptive search through a [`ReductionSession`](vamor_core::ReductionSession),
/// writing a checkpoint after every accepted move. With `--timeout-secs` a
/// deadline interrupt before the first ROM is the *expected* shape of a kill
/// smoke (the checkpoint written so far is retained), not a failure; on a
/// resume, every error — including a torn or mismatched checkpoint — fails
/// the run with its typed message.
fn run_adaptive_session(
    stages: usize,
    timeout: Option<Duration>,
    resume: Option<&std::path::Path>,
    checkpoint_dir: Option<&std::path::Path>,
) -> Result<(), String> {
    use vamor_core::{AdaptiveReducer, CheckpointPlan, ReductionSession, RunControl, StopReason};

    let plan = match (resume, checkpoint_dir) {
        (Some(path), _) => CheckpointPlan::resume_from(path),
        (None, Some(dir)) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create --checkpoint-dir {}: {e}", dir.display()))?;
            CheckpointPlan::write_to(dir.join("adaptive-fig3.ckpt"))
        }
        (None, None) => unreachable!("caller checked that one flag is present"),
    };
    let line =
        vamor_circuits::TransmissionLine::current_driven(stages).map_err(|e| e.to_string())?;
    let reducer = AdaptiveReducer::new(vamor_bench::fig3_adaptive_spec());
    let session = ReductionSession::unbounded();
    let mut control = RunControl::new();
    if let Some(t) = timeout {
        control = control.with_deadline(t);
    }
    println!(
        "\n== Checkpointed adaptive session run ({} from {}) ==",
        if plan.resume { "resuming" } else { "fresh" },
        plan.path.display()
    );
    match session.reduce_adaptive(line.qldae(), &reducer, &control, Some(&plan)) {
        Ok(out) => {
            let stats = session.stats();
            println!(
                "fig3 line (n={stages}): ROM order {}, residual {:.2e}, stop {:?}{}",
                out.rom.order(),
                out.trace.final_residual(),
                out.trace.stop,
                if out.trace.stop == StopReason::DeadlineExceeded {
                    " — preempted; checkpoint retained for --resume"
                } else {
                    ""
                }
            );
            println!(
                "  moves [{}] ({} evals, {} full solves); session: {} stamp build(s), {} hit(s)",
                out.trace.move_list(),
                out.trace.evaluations,
                out.trace.full_model_solves,
                stats.stamp_builds,
                stats.stamp_hits
            );
            Ok(())
        }
        Err(e) if timeout.is_some() && !plan.resume => {
            println!(
                "run interrupted before the first ROM: {e} (checkpoint, if any, retained at {})",
                plan.path.display()
            );
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

fn print_resume_report(r: &ResumeReport) {
    println!("\n== Kill-and-resume adaptive session (fig3 band) ==");
    println!(
        "fig3 line (n={}): deadline {}, checkpoint {} with {} accepted move(s)",
        r.states,
        if r.deadline_hit {
            "killed the run"
        } else {
            "did not fire (run completed)"
        },
        if r.resumed_from_checkpoint {
            "found"
        } else {
            "absent (killed before the first accepted move)"
        },
        r.checkpoint_moves
    );
    println!(
        "reference: moves [{}], residual {:.3e}",
        r.reference_moves, r.reference_residual
    );
    println!(
        "resumed:   moves [{}], residual {:.3e} (delta {:.1e}), order {}, {} full solves",
        r.resumed_moves, r.resumed_residual, r.residual_delta, r.order, r.resumed_full_solves
    );
    println!(
        "session: {} stamp build(s), {} hit(s) across reference+killed+resumed — move lists {}",
        r.stamp_builds,
        r.stamp_hits,
        if r.moves_match { "MATCH" } else { "DIVERGED" }
    );
}

/// The `chaos` experiment: seeded fault plans swept over fig2–fig5 at the
/// small sizes (chaos probes the degradation ladder, not paper fidelity, so
/// the paper sizes would only add wall time). With `--concurrent` it instead
/// drives every fault kind — solver-seam and session-era — through one
/// shared, byte-budgeted reduction session from three threads at once.
/// Errors with a usage hint when fault injection is not compiled in.
#[cfg(feature = "fault-injection")]
fn run_chaos(concurrent: bool, checkpoint_dir: Option<&std::path::Path>) -> Result<(), String> {
    let report = if concurrent {
        println!(
            "\n== Concurrent chaos suite: all fault kinds x 3 threads through one shared session =="
        );
        let dir = checkpoint_dir
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("vamor-chaos-ckpt"));
        vamor_bench::chaos_sweep_concurrent(&dir).map_err(|e| e.to_string())?
    } else {
        let sizes = Sizes::small();
        println!("\n== Chaos suite: seeded fault injection over fig2-fig5 (small sizes) ==");
        vamor_bench::chaos_sweep(
            sizes.fig2_stages,
            sizes.fig3_stages,
            sizes.fig4_sections,
            sizes.fig5_ladder,
            sizes.dt,
        )
    };
    for c in &report.cases {
        println!(
            "{:<6} {:<16} seed {:>3}: {} injected -> {}{}",
            c.experiment,
            c.kind,
            c.seed,
            c.injected,
            if c.ok { "" } else { "VIOLATION: " },
            c.outcome
        );
    }
    println!(
        "{} cases, {} faults injected, {} violations",
        report.cases.len(),
        report.total_injected(),
        report.violations().len()
    );
    if report.all_ok() {
        Ok(())
    } else {
        Err("injected faults escaped the degradation ladder (see VIOLATION lines)".into())
    }
}

#[cfg(not(feature = "fault-injection"))]
fn run_chaos(_concurrent: bool, _checkpoint_dir: Option<&std::path::Path>) -> Result<(), String> {
    Err("fault injection is not compiled in; rerun with \
         `cargo run --release -p vamor-bench --features fault-injection --bin reproduce -- chaos`"
        .into())
}

fn print_acceptance(m: &AcceptanceMetrics) {
    println!("\n== acceptance: assoc reduce + frozen Jacobian ==");
    println!(
        "assoc reduce (tline {} stages, 6/3/2 moments): best {:.3} ms, order {}",
        m.tline_stages,
        m.reduce_best.as_secs_f64() * 1e3,
        m.reduced_order
    );
    println!(
        "varistor implicit transient ({} nodes, {} steps): {} factorizations frozen vs {} per-step, trajectory diff {:.2e}",
        m.varistor_nodes,
        m.varistor_steps,
        m.factorizations_frozen,
        m.factorizations_every_step,
        m.trajectory_diff
    );
}

fn print_ablation(rows: &[AblationRow]) {
    println!("\n== Ablation (Section 2.3): structured H2 moments vs the Eq. 17 realization ==");
    println!("stages       n | structured [ms] | dense LU [ms] | ratio");
    for r in rows {
        let (structured, dense) = (r.structured.as_secs_f64(), r.dense.as_secs_f64());
        let ratio = dense / structured.max(1e-12);
        let (structured, dense) = (structured * 1e3, dense * 1e3);
        println!(
            "{:>6} {:>7} | {structured:>15.3} | {dense:>13.3} | {ratio:>4.1}x",
            r.stages, r.states
        );
    }
}

fn print_sparse_scaling(r: &SparseScalingReport) {
    println!("\n== PR-3 sparse LU scaling (current-driven transmission line) ==");
    println!(
        "factor+solve of I-θh·J at n={}: dense {:.3} ms, sparse {:.3} ms ({:.0}x), solution diff {:.2e}",
        r.mid_states,
        r.dense_factor_mid.as_secs_f64() * 1e3,
        r.sparse_factor_mid.as_secs_f64() * 1e3,
        r.factor_speedup_mid,
        r.factor_solution_diff
    );
    println!(
        "sparse factor+solve at n={}: {:.3} ms ({:.0}x vs dense at n={}), L+U nnz {}, scaling exponent {:.2} (median of {} repeats, spread {:.2})",
        r.big_states,
        r.sparse_factor_big.as_secs_f64() * 1e3,
        r.factor_speedup_big_vs_dense_mid,
        r.mid_states,
        r.sparse_lu_nnz_big,
        r.factor_scaling_exponent,
        r.factor_exponent_repeats.len(),
        r.factor_exponent_spread
    );
    println!(
        "implicit transient ({} steps) at n={}: dense {:.3} s, sparse {:.3} s ({:.1}x), trajectory diff {:.2e}",
        r.transient_steps,
        r.mid_states,
        r.dense_transient_mid.as_secs_f64(),
        r.sparse_transient_mid.as_secs_f64(),
        r.transient_speedup_mid(),
        r.trajectory_diff_mid
    );
    println!(
        "sparse transient at n={}: {:.3} s (dense skipped by design)",
        r.big_states,
        r.sparse_transient_big.as_secs_f64()
    );
    println!(
        "ROM backend check (35-stage line): dense order {}, sparse order {}, trajectory diff {:.2e}",
        r.rom_order_dense, r.rom_order_sparse, r.rom_trajectory_diff
    );
}

/// What a run records for its JSON snapshot, one field per block.
#[derive(Default)]
struct Snapshot {
    rows: Vec<(String, TransientComparison)>,
    acceptance: Option<AcceptanceMetrics>,
    sparse: Option<SparseScalingReport>,
    lowrank: Option<LowRankScalingReport>,
    adaptive: Option<AdaptiveExperimentReport>,
    ablation: Vec<AblationRow>,
    /// Per-experiment metrics-registry snapshots, already rendered.
    metrics: Vec<(String, String)>,
}

/// Hand-rolled JSON (the workspace builds without external crates): one
/// perf-trajectory entry per reproduced experiment plus one block per
/// non-figure experiment that ran, for `cargo xtask bench-trend` to read.
fn render_json(small: bool, snapshot: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"vamor-bench reproduce\",\n");
    let _ = writeln!(
        out,
        "  \"sizes\": \"{}\",",
        if small { "small" } else { "paper" }
    );
    out.push_str("  \"experiments\": [\n");
    for (i, (name, cmp)) in snapshot.rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{name}\", \"full_order\": {}, \"reduced_order\": {}, ",
            cmp.full_order, cmp.proposed_order
        );
        if let Some(norm_order) = cmp.norm_order {
            let _ = write!(out, "\"norm_order\": {norm_order}, ");
        }
        let _ = write!(
            out,
            "\"max_rel_error_proposed\": {:.6e}, ",
            cmp.max_error_proposed()
        );
        if let Some(e) = cmp.max_error_norm() {
            let _ = write!(out, "\"max_rel_error_norm\": {e:.6e}, ");
        }
        let _ = write!(
            out,
            "\"g1r_hurwitz\": {}, \"g1r_spectral_abscissa\": {:.6e}, \"guard_restarts\": {}, ",
            cmp.proposed_hurwitz(),
            cmp.proposed_abscissa,
            cmp.proposed_restarts
        );
        if let Some(a) = cmp.norm_abscissa {
            let _ = write!(out, "\"norm_g1r_hurwitz\": {}, ", a < 0.0);
        }
        if let Some(a) = &cmp.adaptive {
            let _ = write!(out, "\"adaptive\": {}, ", adaptive_summary_json(a));
        }
        if let Some(a) = &cmp.adaptive_norm {
            let _ = write!(out, "\"adaptive_norm\": {}, ", adaptive_summary_json(a));
        }
        let t = &cmp.timings;
        let _ = write!(
            out,
            "\"wall_s\": {{\"reduce_proposed\": {:.6}, \"reduce_norm\": {:.6}, \"sim_full\": {:.6}, \"sim_proposed\": {:.6}, \"sim_norm\": {:.6}}}}}",
            t.reduce_proposed.as_secs_f64(),
            t.reduce_norm.as_secs_f64(),
            t.sim_full.as_secs_f64(),
            t.sim_proposed.as_secs_f64(),
            t.sim_norm.as_secs_f64()
        );
        out.push_str(if i + 1 < snapshot.rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]");
    if let Some(m) = &snapshot.acceptance {
        let _ = write!(
            out,
            ",\n  \"acceptance\": {{\n    \"assoc_reduce_tline{}_cached_s\": {:.6},\n    \"assoc_reduced_order\": {},\n    \"varistor_nodes\": {},\n    \"varistor_steps\": {},\n    \"varistor_jacobian_factorizations_frozen\": {},\n    \"varistor_jacobian_factorizations_every_step\": {},\n    \"varistor_trajectory_diff\": {:.6e}\n  }}",
            m.tline_stages,
            m.reduce_best.as_secs_f64(),
            m.reduced_order,
            m.varistor_nodes,
            m.varistor_steps,
            m.factorizations_frozen,
            m.factorizations_every_step,
            m.trajectory_diff
        );
    }
    if let Some(r) = &snapshot.sparse {
        let _ = write!(
            out,
            ",\n  \"sparse_scaling\": {{\n    \"mid_states\": {},\n    \"big_states\": {},\n    \"dense_factor_mid_s\": {:.6},\n    \"sparse_factor_mid_s\": {:.6},\n    \"sparse_factor_big_s\": {:.6},\n    \"factor_speedup_mid\": {:.3},\n    \"factor_speedup_big_vs_dense_mid\": {:.3},\n    \"factor_solution_diff\": {:.6e},\n    \"dense_transient_mid_s\": {:.6},\n    \"sparse_transient_mid_s\": {:.6},\n    \"sparse_transient_big_s\": {:.6},\n    \"transient_steps\": {},\n    \"trajectory_diff_mid\": {:.6e},\n    \"sparse_lu_nnz_big\": {},\n    \"factor_scaling_exponent\": {:.3},\n    \"factor_exponent_repeats\": {},\n    \"factor_exponent_spread\": {:.3},\n    \"rom_order_dense\": {},\n    \"rom_order_sparse\": {},\n    \"rom_trajectory_diff\": {:.6e}\n  }}",
            r.mid_states,
            r.big_states,
            r.dense_factor_mid.as_secs_f64(),
            r.sparse_factor_mid.as_secs_f64(),
            r.sparse_factor_big.as_secs_f64(),
            r.factor_speedup_mid,
            r.factor_speedup_big_vs_dense_mid,
            r.factor_solution_diff,
            r.dense_transient_mid.as_secs_f64(),
            r.sparse_transient_mid.as_secs_f64(),
            r.sparse_transient_big.as_secs_f64(),
            r.transient_steps,
            r.trajectory_diff_mid,
            r.sparse_lu_nnz_big,
            r.factor_scaling_exponent,
            json_array(&r.factor_exponent_repeats),
            r.factor_exponent_spread,
            r.rom_order_dense,
            r.rom_order_sparse,
            r.rom_trajectory_diff
        );
    }
    if let Some(r) = &snapshot.lowrank {
        let _ = write!(
            out,
            ",\n  \"lowrank_scaling\": {{\n    \"mid_states\": {},\n    \"big_states\": {},\n    \"reduce_mid_s\": {:.6},\n    \"reduce_big_s\": {:.6},\n    \"rom_order_mid\": {},\n    \"rom_order_big\": {},\n    \"mid_g1r_hurwitz\": {},\n    \"big_g1r_hurwitz\": {},\n    \"mid_spectral_abscissa\": {:.6e},\n    \"big_spectral_abscissa\": {:.6e},\n    \"adi_iterations_big\": {},\n    \"adi_residual_big\": {:.6e},\n    \"chain_basis_dim_big\": {},\n    \"rom_error_mid\": {:.6e},\n    \"rom_error_big\": {:.6e},\n    \"reduce_scaling_exponent\": {:.3},\n    \"fig3_kernel_diff\": {:.6e},\n    \"fig5_rom_diff\": {:.6e}\n  }}",
            r.mid_states,
            r.big_states,
            r.reduce_mid.as_secs_f64(),
            r.reduce_big.as_secs_f64(),
            r.rom_order_mid,
            r.rom_order_big,
            r.mid_abscissa < 0.0,
            r.big_abscissa < 0.0,
            r.mid_abscissa,
            r.big_abscissa,
            r.adi_iterations_big,
            r.adi_residual_big,
            r.chain_basis_dim_big,
            r.rom_error_mid,
            r.rom_error_big,
            r.reduce_scaling_exponent,
            r.fig3_kernel_diff,
            r.fig5_rom_diff
        );
        let _ = write!(
            out,
            ",\n  \"lowrank_variants\": {{\n    \"voltage_states\": {},\n    \"voltage_reduce_s\": {:.6},\n    \"voltage_order\": {},\n    \"voltage_g1r_hurwitz\": {},\n    \"voltage_band_residual\": {:.6e},\n    \"receiver_states\": {},\n    \"receiver_reduce_s\": {:.6},\n    \"receiver_order\": {},\n    \"receiver_g1r_hurwitz\": {},\n    \"receiver_band_residual\": {:.6e}\n  }}",
            r.voltage_states,
            r.voltage_reduce.as_secs_f64(),
            r.voltage_order,
            r.voltage_abscissa < 0.0,
            r.voltage_band_residual,
            r.receiver_states,
            r.receiver_reduce.as_secs_f64(),
            r.receiver_order,
            r.receiver_abscissa < 0.0,
            r.receiver_band_residual
        );
    }
    if let Some(r) = &snapshot.adaptive {
        let _ = write!(
            out,
            ",\n  \"adaptive\": {{\n    \"fig3_order\": {},\n    \"fig3_adaptive_error\": {:.6e},\n    \"fig3_pinned_error\": {:.6e},\n    \"fig3_g1r_hurwitz\": {},\n    \"fig3_wall_s\": {:.6},\n    \"fig3_trace\": {},\n    \"fig5_order\": {},\n    \"fig5_adaptive_error\": {:.6e},\n    \"fig5_pinned_error\": {:.6e},\n    \"fig5_g1r_hurwitz\": {},\n    \"fig5_wall_s\": {:.6},\n    \"fig5_trace\": {},\n    \"lowrank_states\": {},\n    \"lowrank_order\": {},\n    \"lowrank_rom_error\": {:.6e},\n    \"lowrank_g1r_hurwitz\": {},\n    \"lowrank_wall_s\": {:.6},\n    \"lowrank_trace\": {},\n    \"step_fixed_steps\": {},\n    \"step_adaptive_steps\": {},\n    \"step_rejected_steps\": {},\n    \"step_trajectory_diff\": {:.6e}\n  }}",
            r.fig3.order,
            r.fig3.adaptive_error,
            r.fig3.pinned_error,
            r.fig3.abscissa < 0.0,
            r.fig3.wall.as_secs_f64(),
            adaptive_summary_json(&r.fig3.summary),
            r.fig5.order,
            r.fig5.adaptive_error,
            r.fig5.pinned_error,
            r.fig5.abscissa < 0.0,
            r.fig5.wall.as_secs_f64(),
            adaptive_summary_json(&r.fig5.summary),
            r.lowrank_states,
            r.lowrank_order,
            r.lowrank_rom_error,
            r.lowrank_abscissa < 0.0,
            r.lowrank_wall.as_secs_f64(),
            adaptive_summary_json(&r.lowrank_summary),
            r.step_fixed_steps,
            r.step_adaptive_steps,
            r.step_rejected,
            r.step_trajectory_diff
        );
    }
    if !snapshot.ablation.is_empty() {
        out.push_str(",\n  \"ablation\": [");
        for (i, r) in snapshot.ablation.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": \"tline{}\", \"states\": {}, \"structured_h2_s\": {:.6e}, \"dense_h2_realization_s\": {:.6e}}}",
                r.stages,
                r.states,
                r.structured.as_secs_f64(),
                r.dense.as_secs_f64()
            );
        }
        out.push_str("\n  ]");
    }
    if !snapshot.metrics.is_empty() {
        out.push_str(",\n  \"metrics\": {");
        for (i, (name, block)) in snapshot.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {block}");
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// Renders an [`AdaptiveSummary`] as a JSON object.
fn json_array(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", body.join(", "))
}

fn adaptive_summary_json(a: &AdaptiveSummary) -> String {
    format!(
        "{{\"moves\": {}, \"evaluations\": {}, \"full_model_solves\": {}, \"initial_residual\": {:.6e}, \"final_residual\": {:.6e}, \"config\": \"{}\", \"move_list\": \"{}\", \"stop\": \"{}\"}}",
        a.moves,
        a.evaluations,
        a.full_model_solves,
        a.initial_residual,
        a.final_residual,
        a.config,
        a.move_list,
        a.stop
    )
}

fn print_adaptive_report(r: &AdaptiveExperimentReport) {
    println!("\n== PR-5 adaptive driver: band-residual estimator + greedy spec search ==");
    for fig in [&r.fig3, &r.fig5] {
        println!(
            "{}: order {} (full {}), adaptive err {:.2e} vs pinned {:.2e}, abscissa {:.2e}, {:.2} s",
            fig.name,
            fig.order,
            fig.full_order,
            fig.adaptive_error,
            fig.pinned_error,
            fig.abscissa,
            fig.wall.as_secs_f64()
        );
        println!(
            "  search: {} -> {:.2e} in {} moves [{}] ({} evals, {} full solves, stop {})",
            format_args!("{:.2e}", fig.summary.initial_residual),
            fig.summary.final_residual,
            fig.summary.moves,
            fig.summary.move_list,
            fig.summary.evaluations,
            fig.summary.full_model_solves,
            fig.summary.stop
        );
    }
    println!(
        "low-rank engine smoke (n={}): order {}, ROM err {:.2e}, abscissa {:.2e}, {:.2} s, spec {}",
        r.lowrank_states,
        r.lowrank_order,
        r.lowrank_rom_error,
        r.lowrank_abscissa,
        r.lowrank_wall.as_secs_f64(),
        r.lowrank_summary.config
    );
    println!(
        "embedded-error steps on the varistor surge: {} adaptive vs {} fixed ({} rejected), trajectory diff {:.2e}",
        r.step_adaptive_steps, r.step_fixed_steps, r.step_rejected, r.step_trajectory_diff
    );
}

fn print_lowrank_scaling(r: &LowRankScalingReport) {
    println!("\n== PR-4 low-rank reduction scaling (current-driven transmission line) ==");
    println!(
        "end-to-end low-rank reduction at n={}: {:.3} s (order {}, abscissa {:.3e}, ROM transient err {:.2e})",
        r.mid_states,
        r.reduce_mid.as_secs_f64(),
        r.rom_order_mid,
        r.mid_abscissa,
        r.rom_error_mid
    );
    println!(
        "end-to-end low-rank reduction at n={}: {:.3} s (order {}, abscissa {:.3e}, ROM transient err {:.2e})",
        r.big_states,
        r.reduce_big.as_secs_f64(),
        r.rom_order_big,
        r.big_abscissa,
        r.rom_error_big
    );
    println!(
        "reduce-time scaling exponent {:.2}; ADI sweeps {} (weight residual {:.2e}), chain basis dim {}",
        r.reduce_scaling_exponent, r.adi_iterations_big, r.adi_residual_big, r.chain_basis_dim_big
    );
    println!(
        "paper-size dense-vs-lowrank agreement: fig3 Volterra kernels {:.2e}, fig5 ROM transients {:.2e}",
        r.fig3_kernel_diff, r.fig5_rom_diff
    );
    println!(
        "voltage-line variant (D1-heavy) at n={}: {:.3} s (order {}, abscissa {:.3e}, band residual {:.2e})",
        r.voltage_states,
        r.voltage_reduce.as_secs_f64(),
        r.voltage_order,
        r.voltage_abscissa,
        r.voltage_band_residual
    );
    println!(
        "receiver variant (non-normal) at n={}: {:.3} s (order {}, abscissa {:.3e}, band residual {:.2e})",
        r.receiver_states,
        r.receiver_reduce.as_secs_f64(),
        r.receiver_order,
        r.receiver_abscissa,
        r.receiver_band_residual
    );
}

fn print_figure(label: &str, cmp: &TransientComparison) {
    println!("\n== {label}: {} ==", cmp.name);
    println!(
        "full order {} -> proposed ROM order {}{}",
        cmp.full_order,
        cmp.proposed_order,
        cmp.norm_order
            .map(|n| format!(" (NORM ROM order {n})"))
            .unwrap_or_default()
    );
    println!(
        "max relative error: proposed {:.3e}{}",
        cmp.max_error_proposed(),
        cmp.max_error_norm()
            .map(|e| format!(", NORM {e:.3e}"))
            .unwrap_or_default()
    );
    println!(
        "reduced G1r spectral abscissa {:.3e} ({}, {} guard restart{})",
        cmp.proposed_abscissa,
        if cmp.proposed_hurwitz() {
            "Hurwitz"
        } else {
            "NOT Hurwitz"
        },
        cmp.proposed_restarts,
        if cmp.proposed_restarts == 1 { "" } else { "s" }
    );
    if let Some(a) = &cmp.adaptive {
        println!(
            "adaptive driver: spec {} in {} moves [{}] ({} evals, residual {:.2e} -> {:.2e}, stop {})",
            a.config, a.moves, a.move_list, a.evaluations, a.initial_residual, a.final_residual, a.stop
        );
    }
    if let Some(a) = &cmp.adaptive_norm {
        println!(
            "adaptive NORM baseline: spec {} in {} moves ({} evals, residual {:.2e})",
            a.config, a.moves, a.evaluations, a.final_residual
        );
    }
    println!("transient response (downsampled):");
    println!(
        "{:>8} {:>14} {:>14}{}",
        "t",
        "original",
        "proposed ROM",
        if cmp.y_norm.is_some() {
            format!("{:>14}", "NORM ROM")
        } else {
            String::new()
        }
    );
    let step = (cmp.times.len() / 16).max(1);
    let err = cmp.relative_error_proposed();
    for i in (0..cmp.times.len()).step_by(step) {
        let norm_col = cmp
            .y_norm
            .as_ref()
            .map(|y| format!("{:>14.6e}", y[i]))
            .unwrap_or_default();
        println!(
            "{:>8.3} {:>14.6e} {:>14.6e}{}   (rel err {:.2e})",
            cmp.times[i], cmp.y_full[i], cmp.y_proposed[i], norm_col, err[i]
        );
    }
}

fn print_table1(rows: &[(String, TransientComparison)]) {
    if rows.is_empty() {
        return;
    }
    println!("\n== Table 1: runtime comparison (wall-clock seconds on this machine) ==");
    println!(
        "{:<36} {:>12} {:>12} {:>12}",
        "", "Original", "Proposed", "NORM"
    );
    for (label, cmp) in rows {
        println!("{label}");
        println!(
            "{:<36} {:>12} {:>12.3} {:>12.3}",
            "  projection build (\"Arnoldi\")",
            "-",
            cmp.timings.reduce_proposed.as_secs_f64(),
            cmp.timings.reduce_norm.as_secs_f64()
        );
        println!(
            "{:<36} {:>12.3} {:>12.3} {:>12.3}",
            "  transient solve (\"ODE solve\")",
            cmp.timings.sim_full.as_secs_f64(),
            cmp.timings.sim_proposed.as_secs_f64(),
            cmp.timings.sim_norm.as_secs_f64()
        );
        println!(
            "{:<36} {:>12} {:>12} {:>12}",
            "  reduced order",
            cmp.full_order,
            cmp.proposed_order,
            cmp.norm_order
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }
}
