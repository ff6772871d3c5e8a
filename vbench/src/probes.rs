//! The traced run: per-layer timings and counts, taken by calling each
//! layer's public functions from the benchmark's own code (the program's
//! own spans are not used). Runs after the end-to-end phases, on the same
//! circuit, ROM and batch.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use vamor_core::{
    solve_sylvester_big_small_with_schur, AssocMomentGenerator, BandSamplerOptions, BlockH2Op,
    KronSumOp2, LowRankCubicMomentGenerator, LowRankOptions, MorError, ScaledMoments,
    SharedAssocArtifacts,
};
use vamor_linalg::{CsrMatrix, Matrix, SolverBackend, SparseLu, Vector};
use vamor_system::PolynomialStateSpace;

use crate::alloc;
use crate::run::EndToEnd;
use crate::stats::{median, Summary};
use crate::workloads::{self, chain_spec, Circuit, Kind};

/// Times each `rhs` call of a wrapped system and counts the allocations it
/// makes; every other method forwards unchanged, so the simulator takes the
/// same path as in the untraced run.
struct Probed<'a> {
    inner: &'a dyn PolynomialStateSpace,
    rhs_s: RefCell<Vec<f64>>,
    rhs_allocs: Cell<u64>,
}

impl<'a> Probed<'a> {
    fn new(inner: &'a dyn PolynomialStateSpace) -> Self {
        Probed {
            inner,
            rhs_s: RefCell::new(Vec::new()),
            rhs_allocs: Cell::new(0),
        }
    }
}

impl PolynomialStateSpace for Probed<'_> {
    fn order(&self) -> usize {
        self.inner.order()
    }
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }
    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }
    fn rhs(&self, x: &Vector, u: &[f64]) -> Vector {
        let a0 = alloc::allocations();
        let t = Instant::now();
        let f = self.inner.rhs(x, u);
        let dt = t.elapsed().as_secs_f64();
        self.rhs_allocs
            .set(self.rhs_allocs.get() + (alloc::allocations() - a0));
        self.rhs_s.borrow_mut().push(dt);
        f
    }
    fn jacobian_x(&self, x: &Vector, u: &[f64]) -> Matrix {
        self.inner.jacobian_x(x, u)
    }
    fn jacobian_csr(&self, x: &Vector, u: &[f64]) -> Option<CsrMatrix> {
        self.inner.jacobian_csr(x, u)
    }
    fn output(&self, x: &Vector) -> Vector {
        self.inner.output(x)
    }
}

/// Per-layer results.
#[derive(Debug, Default)]
pub struct Layers {
    /// `(name, value)` pairs; a timing `X` contributes `X` (median),
    /// `X.p99` and `X.n`.
    pub values: Vec<(String, f64)>,
    /// Cross-check and accounting lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Layers {
    fn timing(&mut self, name: &str, samples: &[f64]) -> Summary {
        let s = Summary::of(samples);
        self.values.push((name.to_string(), s.median));
        self.values.push((format!("{name}.p99"), s.p99));
        self.values.push((format!("{name}.n"), s.n as f64));
        s
    }
    fn value(&mut self, name: &str, v: f64) {
        self.values.push((name.to_string(), v));
    }
}

fn time<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    samples.push(t.elapsed().as_secs_f64());
    v
}

/// Chain-call timings, one sample per input (per input pair for `H₂`),
/// single-threaded.
#[derive(Default)]
struct Chains {
    h1: Vec<f64>,
    h2: Vec<f64>,
    h3: Vec<f64>,
}

type Moments = Result<ScaledMoments, MorError>;

/// Times one call of each chain at the reduction's depths `(k1, k2, k3)`:
/// `h1(input, k)`, `h2(input_a, input_b, k)`, `h3(input, k)`.
fn run_chains(
    inputs: usize,
    (k1, k2, k3): (usize, usize, usize),
    h1: &dyn Fn(usize, usize) -> Moments,
    h2: &dyn Fn(usize, usize, usize) -> Moments,
    h3: &dyn Fn(usize, usize) -> Moments,
) -> Result<Chains, MorError> {
    let mut c = Chains::default();
    for i in 0..inputs {
        time(&mut c.h1, || h1(i, k1))?;
    }
    if k2 > 0 {
        for a in 0..inputs {
            for b in a..inputs {
                time(&mut c.h2, || h2(a, b, k2))?;
            }
        }
    }
    if k3 > 0 {
        for i in 0..inputs {
            time(&mut c.h3, || h3(i, k3))?;
        }
    }
    Ok(c)
}

const STAMP_REPEATS: usize = 3;

/// Builds a stamp `STAMP_REPEATS` times, each timed; returns the last build,
/// the timings and the live-heap growth of one build.
fn build_stamp<T>(
    build: impl Fn() -> Result<T, MorError>,
) -> Result<(T, Vec<f64>, usize), MorError> {
    let mut samples = Vec::new();
    let mut last = None;
    let mut bytes = 0;
    for _ in 0..STAMP_REPEATS {
        drop(last.take());
        let live0 = alloc::live_bytes();
        last = Some(time(&mut samples, &build)?);
        bytes = alloc::live_bytes().saturating_sub(live0);
    }
    Ok((last.expect("STAMP_REPEATS > 0"), samples, bytes))
}

/// The workload's stamp artifacts (built `STAMP_REPEATS` times) and one pass
/// of its chains on the last build. Returns the stamp timings, the
/// live-heap growth of one build, the structural estimate where the layer
/// has one, and the chain timings.
fn stamp_and_chains(
    circuit: &Circuit,
    spec: (usize, usize, usize),
) -> Result<(Vec<f64>, usize, Option<usize>, Chains), MorError> {
    let (backend, opts) = (SolverBackend::Auto, LowRankOptions::default());
    let n_in = circuit.system().num_inputs();
    match circuit {
        Circuit::Receiver(rx) => {
            let (shared, build_s, bytes) =
                build_stamp(|| SharedAssocArtifacts::build(rx.qldae(), backend))?;
            let g = AssocMomentGenerator::with_shared(rx.qldae(), &shared)?;
            let chains = run_chains(
                n_in,
                spec,
                &|i, k| g.h1_moments_scaled(i, k),
                &|a, b, k| g.h2_moments_scaled(a, b, k),
                &|i, k| g.h3_moments_scaled(i, k),
            )?;
            Ok((build_s, bytes, Some(shared.approx_bytes()), chains))
        }
        Circuit::Varistor(v) => {
            let (g, build_s, bytes) =
                build_stamp(|| LowRankCubicMomentGenerator::new(v.ode(), backend, opts))?;
            let chains = run_chains(
                n_in,
                spec,
                &|i, k| g.h1_moments_scaled(i, k),
                &|_, _, _| Err(MorError::Invalid("a cubic system has no H2 chain".into())),
                &|i, k| g.h3_moments_scaled(i, k),
            )?;
            Ok((build_s, bytes, None, chains))
        }
    }
}

/// Two chained big-small Sylvester solves of the dense `H₃` chain
/// (`BlockH2Op · Z + Z · G₁ᵀ = R`), starting from `b̃ ⊗ b` of input 0 — the
/// solves the receiver's reduction spends most of its time in. Only the
/// dense receiver runs this path.
fn bigsmall(circuit: &Circuit) -> Result<Vec<f64>, MorError> {
    let Circuit::Receiver(rx) = circuit else {
        return Ok(Vec::new());
    };
    let q = rx.qldae();
    let kron = KronSumOp2::new(q.g1())?;
    let schur = kron.a_schur();
    let block = BlockH2Op::with_kron(q.g1(), q.g2(), kron, true)?;
    let b = q.b().col(0);
    let bt = block.btilde(&b, None);
    let n = b.len();
    let mut z = Matrix::zeros(bt.len(), n);
    for i in 0..bt.len() {
        for j in 0..n {
            z[(i, j)] = bt[i] * b[j];
        }
    }
    let mut samples = Vec::new();
    for _ in 0..2 {
        z = time(&mut samples, || {
            solve_sylvester_big_small_with_schur(&block, &schur, &z)
        })?;
        // Keep the iterate O(1), as the chain's rescaling does.
        let peak = z.as_slice().iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        if peak > 0.0 {
            z.as_mut_slice().iter_mut().for_each(|v| *v /= peak);
        }
    }
    Ok(samples)
}

fn g1_csr(circuit: &Circuit) -> &CsrMatrix {
    match circuit {
        Circuit::Receiver(rx) => rx.qldae().g1_csr(),
        Circuit::Varistor(v) => v.ode().g1_csr(),
    }
}

/// Runs every probe. Errors are layer failures the end-to-end run did not
/// see; they are reported as such.
pub fn probe(kind: Kind, e2e: &EndToEnd) -> Result<Layers, MorError> {
    let mut l = Layers::default();
    let circuit = &e2e.circuit;
    let rom = &e2e.reduction.rom;
    let greedy = e2e.reduction.greedy;

    l.timing("circuits.build_s", &e2e.setup_samples);

    let spec = chain_spec(kind, greedy.as_ref());
    let (stamp_s, stamp_bytes, estimate, chains) = stamp_and_chains(circuit, spec)?;
    let stamp = l.timing("core.stamp_build_s", &stamp_s);
    l.timing("core.chain_h1_s", &chains.h1);
    l.timing("core.chain_h2_s", &chains.h2);
    l.timing("core.chain_h3_s", &chains.h3);
    l.timing("core.bigsmall_solve_s", &bigsmall(circuit)?);
    if let Some(est) = estimate {
        l.notes.push(format!(
            "stamp bytes: {stamp_bytes} live-heap growth vs {est} structural estimate (ratio {:.3})",
            stamp_bytes as f64 / est as f64
        ));
    }

    let mut band_s = Vec::new();
    for _ in 0..2 {
        time(&mut band_s, || {
            circuit.band_sampler(kind, BandSamplerOptions::default())
        })?;
    }
    l.timing("core.band_sample_s", &band_s);

    // Traced transient pass: same batch, both models behind the probe.
    let traced = Instant::now();
    let rom_probe = Probed::new(rom.system());
    let full_probe = Probed::new(circuit.system());
    for drive in &e2e.drives {
        let input = drive.signal();
        // Failures were already counted by the end-to-end pass.
        let _ = workloads::transient(kind, &rom_probe, &*input);
        let _ = workloads::transient(kind, &full_probe, &*input);
    }
    let traced_s = traced.elapsed().as_secs_f64();
    let rom_rhs = l.timing("system.rom_rhs_s", &rom_probe.rhs_s.borrow());
    l.timing("system.full_rhs_s", &full_probe.rhs_s.borrow());

    let g1 = g1_csr(circuit);
    let mut factor_s = Vec::new();
    let t0 = Instant::now();
    while factor_s.len() < 5 || (factor_s.len() < 50 && t0.elapsed().as_secs_f64() < 0.2) {
        time(&mut factor_s, || SparseLu::factor(g1)).map_err(MorError::Linalg)?;
    }
    l.timing("linalg.g1_factor_s", &factor_s);

    let stats = rom.stats();
    let order = rom.system().order();
    let candidates = stats.total_candidates();
    l.value("core.stamp_bytes", stamp_bytes as f64);
    l.value("core.reduce_cpu_s", e2e.reduce_cpu_s);
    l.value("core.candidates", candidates as f64);
    l.value(
        "core.candidate_yield",
        order as f64 / candidates.max(1) as f64,
    );
    l.value("core.guard_restarts", stats.restarts as f64);
    l.value("core.rom_order", order as f64);
    let g = greedy.unwrap_or_default();
    l.value("core.greedy_evals", g.evaluations as f64);
    l.value(
        "core.greedy_accept_ratio",
        g.moves as f64 / g.evaluations.max(1) as f64,
    );
    l.value("core.full_model_solves", g.full_model_solves as f64);
    l.value("linalg.adi_iterations", stats.adi_iterations as f64);
    let rhs_calls = rom_probe.rhs_s.borrow().len().max(1) as f64;
    l.value(
        "system.rom_rhs_allocs",
        rom_probe.rhs_allocs.get() as f64 / rhs_calls,
    );
    l.value("sim.rom_newton_iterations", e2e.rom_newton as f64);
    l.value("sim.full_newton_iterations", e2e.full_newton as f64);
    l.value("sim.rom_factorizations", e2e.rom_factorizations as f64);
    l.value("sim.full_factorizations", e2e.full_factorizations as f64);

    // Accounting: where the reduction's CPU time and the ROM transient's
    // wall time go, so a later change can show which share it moved.
    let chain_total: f64 = chains.h1.iter().chain(&chains.h2).chain(&chains.h3).sum();
    let chain_stamp = chain_total + stamp.median;
    l.value("acct.chain_stamp_s", chain_stamp);
    l.value("acct.chain_stamp_cpu_share", chain_stamp / e2e.reduce_cpu_s);
    l.notes.push(format!(
        "reduce: chains {chain_total:.4} s + stamp {:.4} s = {chain_stamp:.4} s single-threaded vs {:.4} s CPU ({:.4} s wall, median)",
        stamp.median,
        e2e.reduce_cpu_s,
        median(&e2e.reduce_samples),
    ));
    // Both ratios divide by the run's untraced per-transient medians, taken
    // over the whole run, so a traced pass that lands in a slow or fast
    // stretch of the machine is compared with the run's typical speed, not
    // with one earlier pass.
    let k = e2e.drives.len() as f64;
    let rom_batch_s = k * median(&e2e.rom_samples);
    let rhs_share = e2e.rom_newton as f64 * rom_rhs.median / rom_batch_s;
    l.value("acct.rom_rhs_share", rhs_share);
    l.notes.push(format!(
        "rom transient: {} Newton iterations x {:.3e} s per rhs = {:.4} s of {rom_batch_s:.4} s batch ROM wall ({k} x median, {:.1} %)",
        e2e.rom_newton,
        rom_rhs.median,
        e2e.rom_newton as f64 * rom_rhs.median,
        100.0 * rhs_share
    ));
    let untraced_s = rom_batch_s + k * median(&e2e.full_samples);
    l.value("trace_overhead", traced_s / untraced_s);
    l.notes.push(format!(
        "trace overhead: traced batch {traced_s:.4} s / untraced batch {untraced_s:.4} s ({k} x median ROM + full transient)"
    ));
    Ok(l)
}
