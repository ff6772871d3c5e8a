//! Low-rank Lyapunov/ADI machinery for large-scale model order reduction.
//!
//! The dense reduction flow factors `G₁` with a Schur decomposition and walks
//! Bartels–Stewart back-substitutions — `O(n³)` setup that stops scaling near
//! 10³ states. Everything in this module replaces those dense kernels with
//! operations built from **shifted sparse solves** `(G₁ + σI)⁻¹`, the
//! near-linear primitive the sparse-LU subsystem already provides:
//!
//! * [`heuristic_adi_shifts`] — ADI shift selection. A small Arnoldi sweep
//!   over `A` estimates the outer (large-magnitude) end of the spectrum and an
//!   inverse-Arnoldi sweep over `A⁻¹` estimates the inner (near-origin) end;
//!   the union of Ritz magnitudes seeds **Penzl's greedy heuristic**, which
//!   picks the shift subset minimizing the ADI rational function
//!   `max_t ∏ |t−pᵢ|/|t+pᵢ|` over the sampled spectrum. For symmetric
//!   spectra this reproduces Wachspress-optimal geometric spacing; for
//!   non-normal matrices it is the standard large-scale-MOR fallback.
//! * [`lr_adi_lyapunov`] — the low-rank alternating-direction-implicit
//!   iteration for `A X + X Aᵀ = −B Bᵀ` (`A` Hurwitz), producing a
//!   Cholesky-style factor `X ≈ Z Zᵀ` one `(A − pᵢI)⁻¹`-solve block at a
//!   time, with the exact low-rank residual factor tracked alongside so the
//!   iteration stops the moment `‖AX + XAᵀ + BBᵀ‖₂ ≤ tol·‖BBᵀ‖₂`.
//! * [`fadi_lyapunov`] — the two-factor (factored-ADI) variant for
//!   *indefinite* right-hand sides `A X + X Aᵀ = U Vᵀ`, the building block of
//!   the rational-Krylov moment chains (their iterates are sign-indefinite).
//! * [`rational_krylov_basis`] — an orthonormal basis of the rational Krylov
//!   space `span{b, A⁻¹b, …, ∏(A − pᵢ)⁻¹b}` used by the chain generators to
//!   project Kronecker-sum recursions onto a small dense core.
//! * [`compress_factors`] — rank truncation of a product `U Vᵀ` via two thin
//!   pivoted QRs and a pivoted QR of the small core, keeping chained factored
//!   iterates from growing without bound.
//!
//! All shifted solves go through the [`ShiftedSolve`] trait, implemented by
//! [`crate::ShiftCache`], which factors each shift densely or through one
//! symbolic analysis with a numeric refactorization per shift — so a
//! consumer picks the backend once and every ADI sweep reuses the memoized
//! factors.

use crate::arnoldi::arnoldi;
use crate::control::RunControl;
use crate::eig::eigenvalues;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::op::LinearOp;
use crate::orth::OrthoBasis;
use crate::qr::PivotedQr;
use crate::shift_cache::ShiftCache;
use crate::vector::Vector;
use crate::Result;

/// A square operator offering applications of the base matrix and memoized
/// solves against real or complex shifts of it — the contract every
/// ADI/rational-Krylov routine in this module is written against.
pub trait ShiftedSolve: Sync {
    /// Operator dimension.
    fn dim(&self) -> usize;

    /// Applies the base matrix: `y = A x`.
    fn apply(&self, x: &Vector) -> Vector;

    /// Solves `(A + σ I) x = rhs`.
    ///
    /// # Errors
    ///
    /// Returns an error when the shifted matrix is singular or the dimensions
    /// mismatch.
    fn solve_shifted(&self, sigma: f64, rhs: &Vector) -> Result<Vector>;

    /// Solves `(A + λ I)(x_re + i·x_im) = re + i·im` for a complex shift —
    /// the kernel of the complex-conjugate ADI double-steps. Both cache
    /// backends serve it from their memoized `ZLu`/`SparseZLu` entries.
    ///
    /// # Errors
    ///
    /// Returns an error when the shifted matrix is singular or the dimensions
    /// mismatch.
    fn solve_shifted_complex(
        &self,
        lambda: crate::Complex,
        re: &Vector,
        im: &Vector,
    ) -> Result<(Vector, Vector)>;
}

impl ShiftedSolve for ShiftCache {
    fn dim(&self) -> usize {
        ShiftCache::dim(self)
    }

    fn apply(&self, x: &Vector) -> Vector {
        ShiftCache::apply(self, x)
    }

    fn solve_shifted(&self, sigma: f64, rhs: &Vector) -> Result<Vector> {
        ShiftCache::solve_shifted(self, sigma, rhs)
    }

    fn solve_shifted_complex(
        &self,
        lambda: crate::Complex,
        re: &Vector,
        im: &Vector,
    ) -> Result<(Vector, Vector)> {
        ShiftCache::solve_shifted_complex(self, lambda, re, im)
    }
}

/// An ADI shift: a positive real magnitude `p` (driving a `(A − pI)⁻¹`
/// solve), or a complex-conjugate *pair* `μ, μ̄` represented by its
/// upper-half-plane member (`Re μ > 0`, `Im μ > 0`). Pairs are processed as
/// a single real-arithmetic double-step (Benner–Kürschner–Saak), so the
/// low-rank factors stay real; the one complex solve per double-step is
/// served from the shifted cache's `SparseZLu`/`ZLu` entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdiShift {
    /// A real shift magnitude `p > 0`.
    Real(f64),
    /// A conjugate pair `μ, μ̄` with `Re μ > 0`, `Im μ > 0`.
    ComplexPair(crate::Complex),
}

impl AdiShift {
    /// Magnitude of the shift (used when a consumer needs a real-only pool,
    /// e.g. the factored-ADI chain right-hand sides).
    pub fn magnitude(&self) -> f64 {
        match self {
            AdiShift::Real(p) => *p,
            AdiShift::ComplexPair(mu) => mu.abs(),
        }
    }

    /// True for a well-formed shift (finite, positive real part, and for
    /// pairs a strictly positive imaginary part).
    pub fn is_valid(&self) -> bool {
        match self {
            AdiShift::Real(p) => p.is_finite() && *p > 0.0,
            AdiShift::ComplexPair(mu) => {
                mu.re.is_finite() && mu.im.is_finite() && mu.re > 0.0 && mu.im > 0.0
            }
        }
    }

    /// ADI sweeps this shift accounts for (a pair is two classical steps).
    fn steps(&self) -> usize {
        match self {
            AdiShift::Real(_) => 1,
            AdiShift::ComplexPair(_) => 2,
        }
    }
}

/// Options of the Ritz sweep behind [`heuristic_adi_shifts`].
#[derive(Debug, Clone, Copy)]
pub struct AdiShiftOptions {
    /// Arnoldi steps on `A` (outer-spectrum Ritz values).
    pub arnoldi_steps: usize,
    /// Arnoldi steps on `A⁻¹` (near-origin Ritz values).
    pub inverse_steps: usize,
    /// Number of shifts the Penzl selection keeps.
    pub count: usize,
}

impl Default for AdiShiftOptions {
    fn default() -> Self {
        AdiShiftOptions {
            arnoldi_steps: 16,
            inverse_steps: 12,
            count: 12,
        }
    }
}

/// Wraps the base application of a [`ShiftedSolve`] as a [`LinearOp`] for the
/// Arnoldi sweep.
struct ApplyOp<'a>(&'a dyn ShiftedSolve);

impl LinearOp for ApplyOp<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn apply(&self, x: &Vector) -> Vector {
        self.0.apply(x)
    }
}

/// Wraps the zero-shift solve of a [`ShiftedSolve`] as a [`LinearOp`] (the
/// inverse-Arnoldi operator). [`LinearOp::apply`] is infallible, so a failed
/// solve is recorded in the flag and a zero direction returned — the sweep
/// driver converts the flag into a typed error instead of panicking.
struct InverseOp<'a> {
    op: &'a dyn ShiftedSolve,
    failed: std::sync::atomic::AtomicBool,
}

impl<'a> InverseOp<'a> {
    fn new(op: &'a dyn ShiftedSolve) -> Self {
        InverseOp {
            op,
            failed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    fn check(&self) -> Result<()> {
        if self.failed.load(std::sync::atomic::Ordering::SeqCst) {
            Err(LinalgError::Singular(
                "inverse arnoldi sweep: zero-shift solve failed on the base matrix".into(),
            ))
        } else {
            Ok(())
        }
    }
}

impl LinearOp for InverseOp<'_> {
    fn dim(&self) -> usize {
        self.op.dim()
    }

    fn apply(&self, x: &Vector) -> Vector {
        match self.op.solve_shifted(0.0, x) {
            Ok(v) => v,
            Err(_) => {
                self.failed.store(true, std::sync::atomic::Ordering::SeqCst);
                Vector::zeros(self.op.dim())
            }
        }
    }
}

/// Ritz values of `op` restricted to the Krylov space of `start`: eigenvalues
/// of the leading square block of the Arnoldi Hessenberg matrix.
fn ritz_values(op: &dyn LinearOp, start: &Vector, steps: usize) -> Result<Vec<crate::Complex>> {
    let res = arnoldi(op, start, steps)?;
    let m = res.steps();
    let h = res.hessenberg.submatrix(0, m, 0, m);
    Ok(eigenvalues(&h)?.values().to_vec())
}

/// The ADI rational factor `∏ᵢ |t − pᵢ| / |t + pᵢ|` evaluated at a sample
/// `t > 0` (spectrum and shifts both represented by positive magnitudes).
fn penzl_factor(t: f64, shifts: &[f64]) -> f64 {
    shifts.iter().map(|&p| ((t - p) / (t + p)).abs()).product()
}

/// Penzl's greedy shift selection over a sampled (positive-magnitude)
/// spectrum: the first shift minimizes the worst-case single-shift factor,
/// each following shift is placed where the current rational function is
/// largest.
fn penzl_select(candidates: &[f64], count: usize) -> Vec<f64> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let first = candidates
        .iter()
        .copied()
        .min_by(|&a, &b| {
            let fa = candidates
                .iter()
                .map(|&t| penzl_factor(t, &[a]))
                .fold(0.0_f64, f64::max);
            let fb = candidates
                .iter()
                .map(|&t| penzl_factor(t, &[b]))
                .fold(0.0_f64, f64::max);
            fa.total_cmp(&fb)
        })
        // vamor: allow(panic-freedom, reason = "guarded: an empty candidate set gets a fallback entry pushed just above, so the selection iterator is provably non-empty")
        .expect("non-empty candidate set");
    let mut shifts = vec![first];
    while shifts.len() < count.min(candidates.len()) {
        let next = candidates
            .iter()
            .copied()
            .max_by(|&a, &b| penzl_factor(a, &shifts).total_cmp(&penzl_factor(b, &shifts)))
            // vamor: allow(panic-freedom, reason = "guarded: an empty candidate set gets a fallback entry pushed just above, so the selection iterator is provably non-empty")
            .expect("non-empty candidate set");
        // Adding a shift we already hold means the rational function is
        // already minimal on the sample set; further shifts cannot help.
        if shifts.iter().any(|&p| (p - next).abs() <= 1e-12 * next) {
            break;
        }
        shifts.push(next);
    }
    shifts
}

/// Heuristic ADI shifts for a Hurwitz base matrix: positive magnitudes `pᵢ`
/// such that the solves `(A − pᵢ I)⁻¹` drive the ADI iteration (see the
/// module docs for the Arnoldi/Penzl construction).
///
/// The returned list is sorted large-to-small so a truncated prefix still
/// covers the outer spectrum, and is never empty for a valid operator.
///
/// # Errors
///
/// Returns an error when the base matrix is singular (the inverse sweep
/// requires the `σ = 0` factorization, exactly like the moment chains).
pub fn heuristic_adi_shifts(
    op: &dyn ShiftedSolve,
    seed: &Vector,
    opts: &AdiShiftOptions,
) -> Result<Vec<f64>> {
    let n = op.dim();
    if seed.len() != n {
        return Err(LinalgError::DimensionMismatch(format!(
            "adi shifts: seed of length {} for operator of dimension {n}",
            seed.len()
        )));
    }
    // Fail fast (and deterministically) on a singular base before Arnoldi
    // panics inside the inverse sweep.
    op.solve_shifted(0.0, seed)?;
    let mut start = seed.clone();
    if start.norm2() == 0.0 || !start.is_finite() {
        start = Vector::from_fn(n, |i| 1.0 + (i % 7) as f64);
    }
    let direct = ritz_values(&ApplyOp(op), &start, opts.arnoldi_steps.max(1))?;
    let inverse_op = InverseOp::new(op);
    let inverse = ritz_values(&inverse_op, &start, opts.inverse_steps.max(1))?;
    inverse_op.check()?;

    let mut candidates: Vec<f64> = Vec::new();
    for z in &direct {
        let mag = z.re.abs().max(z.abs() * 1e-2);
        if mag.is_finite() && mag > 0.0 {
            candidates.push(mag);
        }
    }
    for z in &inverse {
        // Ritz values of A⁻¹ approximate 1/λ for the eigenvalues closest to
        // the origin.
        let m = z.abs();
        if m > 0.0 && m.is_finite() {
            let mag = (z.re / (m * m)).abs().max(1.0 / m * 1e-2);
            if mag.is_finite() && mag > 0.0 {
                candidates.push(mag);
            }
        }
    }
    candidates.retain(|m| m.is_finite() && *m > 0.0);
    if candidates.is_empty() {
        candidates.push(1.0);
    }
    candidates.sort_by(f64::total_cmp);
    // Wachspress-style geometric fill-in: the Ritz sweeps sample the *ends*
    // of the spectrum well but leave the interior of wide spectra unsampled
    // (a 10⁴-state RC line spans ~8 decades), which starves the Penzl
    // selection and stalls the ADI iteration. Log-spaced interpolants
    // between the sampled extremes give the greedy selection real coverage.
    // vamor: allow(panic-freedom, reason = "guarded: an empty candidate set gets a fallback entry pushed just above, so the selection iterator is provably non-empty")
    let (lo, hi) = (candidates[0], *candidates.last().expect("non-empty"));
    if hi > lo * 1e2 {
        let fill = 24;
        let ratio = (hi / lo).ln();
        for i in 1..fill {
            candidates.push(lo * ((i as f64 / fill as f64) * ratio).exp());
        }
        candidates.sort_by(f64::total_cmp);
    }
    candidates.dedup_by(|a, b| (*a - *b).abs() <= 1e-10 * b.abs());

    let mut shifts = penzl_select(&candidates, opts.count.max(1));
    shifts.sort_by(|a, b| b.total_cmp(a));
    Ok(shifts)
}

/// The complex ADI rational factor `∏ᵢ |t − pᵢ| / |t + p̄ᵢ|` over a
/// (right-half-plane-mirrored) complex sample `t`, with conjugate pairs
/// contributing both members.
fn penzl_factor_complex(t: crate::Complex, shifts: &[AdiShift]) -> f64 {
    let term = |t: crate::Complex, mu: crate::Complex| {
        let num = (t - mu).abs();
        let den = (t + crate::Complex::new(mu.re, -mu.im)).abs();
        if den == 0.0 {
            return 1.0;
        }
        num / den
    };
    shifts
        .iter()
        .map(|s| match s {
            AdiShift::Real(p) => term(t, crate::Complex::from_real(*p)),
            AdiShift::ComplexPair(mu) => term(t, *mu) * term(t, crate::Complex::new(mu.re, -mu.im)),
        })
        .product()
}

/// Penzl's greedy selection over complex (mirrored) spectrum samples: same
/// strategy as [`penzl_select`], with each strongly complex candidate placed
/// as a conjugate pair.
fn penzl_select_pairs(candidates: &[crate::Complex], count: usize) -> Vec<AdiShift> {
    /// Relative imaginary part above which a candidate becomes a pair: below
    /// it the real shift already damps the mode at essentially the pair rate.
    const PAIR_THRESHOLD: f64 = 0.1;
    let as_shift = |t: crate::Complex| {
        if t.im > PAIR_THRESHOLD * t.re {
            AdiShift::ComplexPair(t)
        } else {
            AdiShift::Real(t.re.max(t.abs() * 1e-2))
        }
    };
    if candidates.is_empty() {
        return Vec::new();
    }
    let worst = |shifts: &[AdiShift]| {
        candidates
            .iter()
            .map(|&t| penzl_factor_complex(t, shifts))
            .fold(0.0_f64, f64::max)
    };
    let first = candidates
        .iter()
        .copied()
        .min_by(|&a, &b| worst(&[as_shift(a)]).total_cmp(&worst(&[as_shift(b)])))
        // vamor: allow(panic-freedom, reason = "guarded: an empty candidate set gets a fallback entry pushed just above, so the selection iterator is provably non-empty")
        .expect("non-empty candidate set");
    let mut shifts = vec![as_shift(first)];
    while shifts.len() < count.min(candidates.len()) {
        let next = candidates
            .iter()
            .copied()
            .max_by(|&a, &b| {
                penzl_factor_complex(a, &shifts).total_cmp(&penzl_factor_complex(b, &shifts))
            })
            // vamor: allow(panic-freedom, reason = "guarded: an empty candidate set gets a fallback entry pushed just above, so the selection iterator is provably non-empty")
            .expect("non-empty candidate set");
        let cand = as_shift(next);
        // A repeated shift means the rational function is already minimal on
        // the sample set.
        let dup = shifts.iter().any(|s| match (s, &cand) {
            (AdiShift::Real(p), AdiShift::Real(q)) => (p - q).abs() <= 1e-12 * q.abs(),
            (AdiShift::ComplexPair(a), AdiShift::ComplexPair(b)) => {
                (*a - *b).abs() <= 1e-12 * b.abs()
            }
            _ => false,
        });
        if dup {
            break;
        }
        shifts.push(cand);
    }
    shifts
}

/// Heuristic ADI shifts that keep the *imaginary parts* of the Ritz sweep:
/// strongly oscillatory spectra (lightly damped LC cascades) yield
/// complex-conjugate [`AdiShift::ComplexPair`]s, which converge in far fewer
/// sweeps than their real-magnitude projections; near-real spectra degrade
/// to the classic real selection of [`heuristic_adi_shifts`].
///
/// # Errors
///
/// Same contract as [`heuristic_adi_shifts`].
pub fn heuristic_adi_shift_pairs(
    op: &dyn ShiftedSolve,
    seed: &Vector,
    opts: &AdiShiftOptions,
) -> Result<Vec<AdiShift>> {
    let n = op.dim();
    if seed.len() != n {
        return Err(LinalgError::DimensionMismatch(format!(
            "adi shift pairs: seed of length {} for operator of dimension {n}",
            seed.len()
        )));
    }
    op.solve_shifted(0.0, seed)?;
    let mut start = seed.clone();
    if start.norm2() == 0.0 || !start.is_finite() {
        start = Vector::from_fn(n, |i| 1.0 + (i % 7) as f64);
    }
    let direct = ritz_values(&ApplyOp(op), &start, opts.arnoldi_steps.max(1))?;
    let inverse_op = InverseOp::new(op);
    let inverse = ritz_values(&inverse_op, &start, opts.inverse_steps.max(1))?;
    inverse_op.check()?;

    // Mirror every Ritz value into the right half-plane: t = (|Re λ|, |Im λ|).
    let mut candidates: Vec<crate::Complex> = Vec::new();
    for z in &direct {
        let re = z.re.abs().max(z.abs() * 1e-2);
        if re.is_finite() && re > 0.0 && z.im.is_finite() {
            candidates.push(crate::Complex::new(re, z.im.abs()));
        }
    }
    for z in &inverse {
        // Ritz values of A⁻¹ approximate 1/λ near the origin: λ = z̄ / |z|².
        let m2 = z.abs() * z.abs();
        if m2 > 0.0 && m2.is_finite() {
            let re = (z.re / m2).abs().max(1e-2 / m2.sqrt());
            let im = (z.im / m2).abs();
            if re.is_finite() && re > 0.0 && im.is_finite() {
                candidates.push(crate::Complex::new(re, im));
            }
        }
    }
    candidates.retain(|t| t.re.is_finite() && t.re > 0.0 && t.im.is_finite());
    if candidates.is_empty() {
        candidates.push(crate::Complex::from_real(1.0));
    }
    candidates.sort_by(|a, b| a.re.total_cmp(&b.re));
    // The same Wachspress-style geometric fill-in as the real selection,
    // added on the real axis between the sampled magnitude extremes.
    let lo = candidates[0].re;
    // vamor: allow(panic-freedom, reason = "guarded: an empty candidate set gets a fallback entry pushed just above, so the selection iterator is provably non-empty")
    let hi = candidates.last().expect("non-empty").re;
    if hi > lo * 1e2 {
        let fill = 24;
        let ratio = (hi / lo).ln();
        for i in 1..fill {
            candidates.push(crate::Complex::from_real(
                lo * ((i as f64 / fill as f64) * ratio).exp(),
            ));
        }
        candidates.sort_by(|a, b| a.re.total_cmp(&b.re));
    }
    candidates.dedup_by(|a, b| (*a - *b).abs() <= 1e-10 * b.abs());

    let mut shifts = penzl_select_pairs(&candidates, opts.count.max(1));
    shifts.sort_by(|a, b| b.magnitude().total_cmp(&a.magnitude()));
    Ok(shifts)
}

/// Convergence controls of the ADI iterations.
#[derive(Debug, Clone, Copy)]
pub struct LrAdiOptions {
    /// Relative residual target `‖R‖₂ ≤ tol · ‖rhs‖₂`.
    pub tol: f64,
    /// Hard iteration cap (shifts are cycled past their count).
    pub max_iterations: usize,
    /// Sweeps without residual improvement before the stall ladder fires
    /// (the effective window never drops below one full cycle of the shift
    /// pool, so slow-but-live cycles are not mistaken for stalls). `0`
    /// disables stall detection.
    pub stall_sweeps: usize,
    /// Shift-pool perturbation/reselection rounds the stall ladder may take
    /// before giving up on the run.
    pub stall_recoveries: usize,
    /// When `true` (the default), finishing above `tol` — cap hit or stall
    /// ladder exhausted — returns [`LinalgError::AdiNonConvergence`] carrying
    /// the stats instead of a factor that merely *looks* converged. Callers
    /// with their own acceptance gate (e.g. the reduction weight solves) opt
    /// out and read [`LrAdiStats::residual`] themselves.
    pub strict: bool,
}

impl Default for LrAdiOptions {
    fn default() -> Self {
        LrAdiOptions {
            tol: 1e-10,
            max_iterations: 160,
            stall_sweeps: 8,
            stall_recoveries: 2,
            strict: true,
        }
    }
}

/// Health report of an ADI run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrAdiStats {
    /// Shifted-solve sweeps performed.
    pub iterations: usize,
    /// Final relative residual `‖A X + X Aᵀ − rhs‖₂ / ‖rhs‖₂`.
    pub residual: f64,
    /// Columns of the returned factor(s).
    pub rank: usize,
    /// Distinct shifts in the cycled pool.
    pub shift_count: usize,
    /// Stall-ladder shift perturbation rounds taken (0 = healthy run).
    pub shift_reselections: usize,
}

impl LrAdiStats {
    /// Publishes the run into the process-wide metrics registry (`adi.*`),
    /// called once per completed ADI/FADI run — including non-converged runs,
    /// whose stats ride the typed error.
    pub fn publish(&self) {
        vamor_obs::counter("adi.runs").inc();
        vamor_obs::counter("adi.iterations").add(self.iterations as u64);
        vamor_obs::counter("adi.shift_reselections").add(self.shift_reselections as u64);
        vamor_obs::gauge("adi.residual").set(self.residual);
        vamor_obs::gauge("adi.rank").set(self.rank as f64);
    }
}

/// A factored solution `X ≈ Z Zᵀ` of a stable Lyapunov equation.
#[derive(Debug, Clone)]
pub struct LrAdiSolution {
    /// The low-rank Cholesky-style factor (`n × rank`).
    pub z: Matrix,
    /// Convergence report.
    pub stats: LrAdiStats,
}

/// Largest eigenvalue of the small symmetric PSD Gram matrix `MᵀM` — the
/// squared spectral norm of `M`.
fn gram_sq_norm(m: &Matrix) -> f64 {
    if m.cols() == 0 {
        return 0.0;
    }
    let gram = m.transpose().matmul(m);
    match eigenvalues(&gram) {
        Ok(eig) => eig.spectral_radius().max(0.0),
        Err(_) => gram.norm_fro().powi(2),
    }
}

/// `‖U Vᵀ‖₂²` via the small product `(UᵀU)(VᵀV)` (similar to the symmetric
/// positive semidefinite `VᵀU UᵀV`, hence a real non-negative spectrum).
fn product_sq_norm(u: &Matrix, v: &Matrix) -> f64 {
    if u.cols() == 0 || v.cols() == 0 {
        return 0.0;
    }
    let prod = u.transpose().matmul(u).matmul(&v.transpose().matmul(v));
    match eigenvalues(&prod) {
        Ok(eig) => eig.spectral_radius().max(0.0),
        Err(_) => u.norm_fro().powi(2) * v.norm_fro().powi(2),
    }
}

fn solve_columns(op: &dyn ShiftedSolve, sigma: f64, m: &Matrix) -> Result<Matrix> {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for j in 0..m.cols() {
        out.set_col(j, &op.solve_shifted(sigma, &m.col(j))?);
    }
    Ok(out)
}

/// Deterministic stall-recovery perturbation: spread the pool geometrically
/// by a factor growing with the recovery round (alternating expansion and
/// contraction across the pool), re-covering a spectrum the stalled rational
/// function missed.
fn perturb_shift_pool(pool: &mut [AdiShift], round: usize) {
    let f = 1.0 + 0.5 * round as f64;
    for (k, s) in pool.iter_mut().enumerate() {
        let scale = if k % 2 == 0 { f } else { 1.0 / f };
        *s = match *s {
            AdiShift::Real(p) => AdiShift::Real(p * scale),
            AdiShift::ComplexPair(mu) => {
                AdiShift::ComplexPair(crate::Complex::new(mu.re * scale, mu.im * scale))
            }
        };
    }
}

/// Solves the complex double-step columns `V = (A − μI)⁻¹ M` of a conjugate
/// pair, returning the real and imaginary parts.
fn solve_columns_complex(
    op: &dyn ShiftedSolve,
    mu: crate::Complex,
    m: &Matrix,
) -> Result<(Matrix, Matrix)> {
    let mut re = Matrix::zeros(m.rows(), m.cols());
    let mut im = Matrix::zeros(m.rows(), m.cols());
    let zero = Vector::zeros(m.rows());
    for j in 0..m.cols() {
        let (xr, xi) =
            op.solve_shifted_complex(crate::Complex::new(-mu.re, -mu.im), &m.col(j), &zero)?;
        re.set_col(j, &xr);
        im.set_col(j, &xi);
    }
    Ok((re, im))
}

/// Low-rank ADI for the stable Lyapunov equation
///
/// ```text
/// A X + X Aᵀ = −B Bᵀ,   X ≈ Z Zᵀ ⪰ 0,
/// ```
///
/// with every `(A − pᵢ I)⁻¹` block-solve served by the shifted cache. The
/// low-rank residual factor `W` (`W₀ = B`, `Wᵢ = Wᵢ₋₁ + 2pᵢ Zᵢ`) makes the
/// true residual `‖Wᵢ Wᵢᵀ‖₂` available at every step for the stopping test —
/// no `n × n` matrix is ever formed.
///
/// The shift pool mixes real shifts and complex-conjugate pairs. Real shifts
/// run the classic one-solve step. A [`AdiShift::ComplexPair`]
/// `μ, μ̄` runs the Benner–Kürschner–Saak real-arithmetic double-step: one
/// complex solve `V = (A − μI)⁻¹ W` (served from the shifted cache's
/// `SparseZLu`/`ZLu` entries), then with `δ = Re μ / Im μ` the two *real*
/// factor blocks `√(2 Re μ)·(Re V + δ·Im V)` and
/// `√(2 Re μ (δ²+1))·Im V` are appended and the residual factor is updated
/// as `W ← W + 4 Re μ·(Re V + δ·Im V)` — the iterate `Z Zᵀ` stays real and
/// the exact low-rank residual tracking carries over unchanged.
///
/// The [`RunControl`] is checked once per ADI sweep.
///
/// # Errors
///
/// Returns an error when a shifted solve fails or the dimensions mismatch.
/// With [`LrAdiOptions::strict`] (the default), finishing above tolerance —
/// after the stall ladder has perturbed and reselected shifts up to its
/// recovery budget — returns [`LinalgError::AdiNonConvergence`] carrying the
/// [`LrAdiStats`]; with `strict: false` the achieved residual is reported
/// via [`LrAdiStats::residual`] and the caller decides. A stopped token
/// returns [`LinalgError::Interrupted`].
pub fn lr_adi_lyapunov(
    op: &dyn ShiftedSolve,
    b: &Matrix,
    shifts: &[AdiShift],
    opts: &LrAdiOptions,
    control: &RunControl,
) -> Result<LrAdiSolution> {
    let n = op.dim();
    if b.rows() != n {
        return Err(LinalgError::DimensionMismatch(format!(
            "lr-adi: rhs factor has {} rows for dimension {n}",
            b.rows()
        )));
    }
    if shifts.is_empty() || shifts.iter().any(|s| !s.is_valid()) {
        return Err(LinalgError::InvalidArgument(
            "lr-adi: shifts must be a non-empty list of positive magnitudes or \
             upper-half-plane conjugate pairs"
                .into(),
        ));
    }
    let rhs_norm = gram_sq_norm(b).sqrt().max(f64::MIN_POSITIVE);
    let mut pool: Vec<AdiShift> = shifts.to_vec();
    // A stall only counts after a full cycle of the pool went by without
    // improvement — a cycle parked on its large shifts is not yet stalled.
    let cycle_sweeps: usize = pool.iter().map(AdiShift::steps).sum();
    let stall_window = if opts.stall_sweeps == 0 {
        usize::MAX
    } else {
        opts.stall_sweeps.max(cycle_sweeps)
    };
    let mut w = b.clone();
    let mut blocks: Vec<Matrix> = Vec::new();
    let mut iterations = 0;
    let mut residual = 1.0;
    let mut cursor = 0usize;
    let mut best_residual = f64::INFINITY;
    let mut stalled_for = 0usize;
    let mut reselections = 0usize;
    let mut sweep_no = 0u32;
    let mut cols_so_far = 0usize;
    while iterations < opts.max_iterations {
        let _sweep = vamor_obs::span!("adi_sweep");
        control.checkpoint_with("lr-adi-sweep", residual)?;
        let shift = pool[cursor % pool.len()];
        // A conjugate pair counts as two sweeps: respect the cap exactly
        // (the first step always runs so a cap of 1 still makes progress).
        if iterations > 0 && iterations + shift.steps() > opts.max_iterations {
            break;
        }
        cursor += 1;
        match shift {
            AdiShift::Real(p) => {
                let zi = solve_columns(op, -p, &w)?;
                let mut scaled = zi.clone();
                for x in scaled.as_mut_slice() {
                    *x *= (2.0 * p).sqrt();
                }
                blocks.push(scaled);
                w.axpy(2.0 * p, &zi);
            }
            AdiShift::ComplexPair(mu) => {
                let (vr, vi) = solve_columns_complex(op, mu, &w)?;
                let delta = mu.re / mu.im;
                // y = Re V + δ·Im V carries both the factor block and the
                // residual update of the conjugate double-step.
                let mut y = vr;
                y.axpy(delta, &vi);
                // Pair blocks scale with γ = 2√(Re μ): the two real blocks
                // must carry the contribution of *both* conjugate steps,
                // −2 Re μ (VᵢVᵢᴴ + Vᵢ₊₁Vᵢ₊₁ᴴ) = γ²[(ReV+δImV)(·)ᵀ + (δ²+1)ImV(·)ᵀ].
                let gamma = 2.0 * mu.re.sqrt();
                let mut z1 = y.clone();
                for x in z1.as_mut_slice() {
                    *x *= gamma;
                }
                let mut z2 = vi;
                let g2 = gamma * (delta * delta + 1.0).sqrt();
                for x in z2.as_mut_slice() {
                    *x *= g2;
                }
                blocks.push(z1);
                blocks.push(z2);
                w.axpy(4.0 * mu.re, &y);
            }
        }
        iterations += shift.steps();
        cols_so_far += shift.steps() * b.cols();
        residual = gram_sq_norm(&w).sqrt() / rhs_norm;
        let (shift_re, shift_im) = match shift {
            AdiShift::Real(p) => (p, 0.0),
            AdiShift::ComplexPair(mu) => (mu.re, mu.im),
        };
        vamor_obs::event!(vamor_obs::Event::AdiSweep {
            solver: "lr_adi",
            sweep: sweep_no,
            rank: cols_so_far as u32,
            residual,
            shift_re,
            shift_im,
        });
        sweep_no += 1;
        if residual <= opts.tol {
            break;
        }
        // Stall ladder: residual non-decrease across a full window perturbs
        // and reselects the shift pool; an exhausted recovery budget ends
        // the run (strict mode turns that into a typed error below).
        if residual.is_finite() && residual < best_residual * (1.0 - 1e-9) {
            best_residual = residual;
            stalled_for = 0;
        } else {
            stalled_for += shift.steps();
            if stalled_for >= stall_window {
                if reselections < opts.stall_recoveries {
                    reselections += 1;
                    vamor_obs::event!(vamor_obs::Event::Degradation {
                        rung: vamor_obs::event::DegradationRung::AdiShiftReselection,
                        detail: residual,
                    });
                    stalled_for = 0;
                    perturb_shift_pool(&mut pool, reselections);
                    cursor = 0;
                } else {
                    break;
                }
            }
        }
    }
    let rank = blocks.iter().map(Matrix::cols).sum::<usize>();
    let mut z = Matrix::zeros(n, rank);
    let mut at = 0;
    // vamor: allow(checkpoint-coverage, reason = "final factor assembly is a column memcopy; the ADI sweep loop above checkpoints once per sweep")
    for blk in &blocks {
        for j in 0..blk.cols() {
            z.set_col(at, &blk.col(j));
            at += 1;
        }
    }
    let stats = LrAdiStats {
        iterations,
        residual,
        rank,
        shift_count: shifts.len(),
        shift_reselections: reselections,
    };
    stats.publish();
    if !residual.is_finite() || residual > opts.tol {
        vamor_obs::event!(vamor_obs::Event::Degradation {
            rung: vamor_obs::event::DegradationRung::AdiNonConverged,
            detail: residual,
        });
        if opts.strict {
            return Err(LinalgError::AdiNonConvergence { stats });
        }
    }
    Ok(LrAdiSolution { z, stats })
}

/// A factored (possibly indefinite, possibly nonsymmetric-rank) matrix
/// `X = U Vᵀ` produced by [`fadi_lyapunov`].
#[derive(Debug, Clone)]
pub struct FadiSolution {
    /// Left factor (`n × rank`).
    pub u: Matrix,
    /// Right factor (`n × rank`).
    pub v: Matrix,
    /// Convergence report.
    pub stats: LrAdiStats,
}

/// Factored ADI for the *general right-hand side* Lyapunov-structured
/// equation
///
/// ```text
/// A X + X Aᵀ = U₀ V₀ᵀ,   X ≈ U Vᵀ,
/// ```
///
/// the kernel of the rational-Krylov moment chains (whose iterates alternate
/// sign, so the symmetric `Z Zᵀ` form of [`lr_adi_lyapunov`] does not apply).
/// Because the right coefficient is `−Aᵀ`, *both* factor recursions solve
/// against shifted copies of `A` itself — no transposed factorization is
/// needed and the same shifted cache serves both sides. The [`RunControl`]
/// is checked once per sweep.
///
/// # Errors
///
/// Same contract as [`lr_adi_lyapunov`].
pub fn fadi_lyapunov(
    op: &dyn ShiftedSolve,
    u0: &Matrix,
    v0: &Matrix,
    shifts: &[f64],
    opts: &LrAdiOptions,
    control: &RunControl,
) -> Result<FadiSolution> {
    let n = op.dim();
    if u0.rows() != n || v0.rows() != n || u0.cols() != v0.cols() {
        return Err(LinalgError::DimensionMismatch(format!(
            "fadi: rhs factors are {}x{} / {}x{} for dimension {n}",
            u0.rows(),
            u0.cols(),
            v0.rows(),
            v0.cols()
        )));
    }
    if shifts.is_empty() || shifts.iter().any(|&p| !p.is_finite() || p <= 0.0) {
        return Err(LinalgError::InvalidArgument(
            "fadi: shifts must be a non-empty list of positive magnitudes".into(),
        ));
    }
    let rhs_norm = product_sq_norm(u0, v0).sqrt().max(f64::MIN_POSITIVE);
    let mut wu = u0.clone();
    let mut wv = v0.clone();
    let mut ublocks: Vec<Matrix> = Vec::new();
    let mut vblocks: Vec<Matrix> = Vec::new();
    // Accumulated factor ranks grow by `r` columns per sweep; past this
    // width the blocks are merged and recompressed so long runs stay
    // near the true solution rank instead of `r × iterations`.
    let compress_threshold = (4 * u0.cols()).max(64);
    let concat = |blocks: &[Matrix]| {
        let rank = blocks.iter().map(Matrix::cols).sum::<usize>();
        let mut m = Matrix::zeros(n, rank);
        let mut at = 0;
        // vamor: allow(checkpoint-coverage, reason = "block concatenation is a column memcopy; the FADI sweep loop checkpoints once per sweep")
        for blk in blocks {
            for j in 0..blk.cols() {
                m.set_col(at, &blk.col(j));
                at += 1;
            }
        }
        m
    };
    let mut pool: Vec<f64> = shifts.to_vec();
    let stall_window = if opts.stall_sweeps == 0 {
        usize::MAX
    } else {
        opts.stall_sweeps.max(pool.len())
    };
    let mut iterations = 0;
    let mut residual = 1.0;
    let mut cursor = 0usize;
    let mut best_residual = f64::INFINITY;
    let mut stalled_for = 0usize;
    let mut reselections = 0usize;
    while iterations < opts.max_iterations {
        let _sweep = vamor_obs::span!("fadi_sweep");
        control.checkpoint_with("fadi-sweep", residual)?;
        let p = pool[cursor % pool.len()];
        cursor += 1;
        let zi = solve_columns(op, -p, &wu)?;
        let yi = solve_columns(op, -p, &wv)?;
        let s = (2.0 * p).sqrt();
        let mut zb = zi.clone();
        for x in zb.as_mut_slice() {
            *x *= s;
        }
        // X = −Σ 2pᵢ Zᵢ Yᵢᵀ: fold the sign into the right factor block.
        let mut yb = yi.clone();
        for x in yb.as_mut_slice() {
            *x *= -s;
        }
        ublocks.push(zb);
        vblocks.push(yb);
        wu.axpy(2.0 * p, &zi);
        wv.axpy(2.0 * p, &yi);
        iterations += 1;
        residual = product_sq_norm(&wu, &wv).sqrt() / rhs_norm;
        vamor_obs::event!(vamor_obs::Event::AdiSweep {
            solver: "fadi",
            sweep: (iterations - 1) as u32,
            rank: ublocks.iter().map(Matrix::cols).sum::<usize>() as u32,
            residual,
            shift_re: p,
            shift_im: 0.0,
        });
        if residual <= opts.tol {
            break;
        }
        if residual.is_finite() && residual < best_residual * (1.0 - 1e-9) {
            best_residual = residual;
            stalled_for = 0;
        } else {
            stalled_for += 1;
            if stalled_for >= stall_window {
                if reselections < opts.stall_recoveries {
                    reselections += 1;
                    vamor_obs::event!(vamor_obs::Event::Degradation {
                        rung: vamor_obs::event::DegradationRung::AdiShiftReselection,
                        detail: residual,
                    });
                    stalled_for = 0;
                    let f = 1.0 + 0.5 * reselections as f64;
                    for (k, q) in pool.iter_mut().enumerate() {
                        *q *= if k % 2 == 0 { f } else { 1.0 / f };
                    }
                    cursor = 0;
                } else {
                    break;
                }
            }
        }
        if ublocks.iter().map(Matrix::cols).sum::<usize>() > compress_threshold {
            let (cu, cv) = compress_factors(&concat(&ublocks), &concat(&vblocks), 1e-15)?;
            ublocks = vec![cu];
            vblocks = vec![cv];
        }
    }
    let u = concat(&ublocks);
    let v = concat(&vblocks);
    let rank = u.cols();
    let stats = LrAdiStats {
        iterations,
        residual,
        rank,
        shift_count: shifts.len(),
        shift_reselections: reselections,
    };
    stats.publish();
    if !residual.is_finite() || residual > opts.tol {
        vamor_obs::event!(vamor_obs::Event::Degradation {
            rung: vamor_obs::event::DegradationRung::AdiNonConverged,
            detail: residual,
        });
        if opts.strict {
            return Err(LinalgError::AdiNonConvergence { stats });
        }
    }
    Ok(FadiSolution { u, v, stats })
}

/// Orthonormalizes the columns of `m` by modified Gram–Schmidt with
/// deflation, returning `(Q, QᵀM)` — works for any column count (unlike a
/// Householder QR, which needs `rows ≥ cols`).
fn thin_orth(m: &Matrix) -> Result<Option<(Matrix, Matrix)>> {
    let mut basis = OrthoBasis::with_tolerance(m.rows(), 1e-14);
    basis.extend_from((0..m.cols()).map(|j| m.col(j)))?;
    if basis.is_empty() {
        return Ok(None);
    }
    let q = basis.to_matrix()?;
    let a = q.transpose().matmul(m);
    Ok(Some((q, a)))
}

/// Splits a small core matrix (`rows ≥ cols`) as `core ≈ L Rᵀ` with `L`
/// orthonormal and rank revealed by a pivoted QR at relative tolerance
/// `tol`.
fn split_core(core: &Matrix, tol: f64) -> Result<(Matrix, Matrix)> {
    let qr = PivotedQr::new(core)?;
    let k = qr.rank(tol).max(1);
    let l = qr.q().submatrix(0, core.rows(), 0, k);
    // core · P = Q · R  =>  core ≈ Q[:, :k] · Sᵀ with S scattering the
    // truncated R rows back through the column permutation.
    let r = qr.r();
    let perm = qr.permutation();
    let mut s = Matrix::zeros(core.cols(), k);
    for (j, &pj) in perm.iter().enumerate() {
        for i in 0..k.min(r.rows()) {
            s[(pj, i)] = r[(i, j)];
        }
    }
    Ok((l, s))
}

/// Rank-truncates a factored product `U Vᵀ` (both `n × r`, any `r`) to the
/// requested relative tolerance: thin Gram–Schmidt frames orthogonalize each
/// factor, a pivoted QR of the small core reveals the numerical rank, and
/// the truncated core is folded back into the frames. Returns the compressed
/// pair (`n × k`); a numerically zero product compresses to a single zero
/// column so downstream shapes stay valid.
///
/// # Errors
///
/// Propagates QR failures (non-finite input).
pub fn compress_factors(u: &Matrix, v: &Matrix, tol: f64) -> Result<(Matrix, Matrix)> {
    let zero = |u_rows: usize, v_rows: usize| (Matrix::zeros(u_rows, 1), Matrix::zeros(v_rows, 1));
    if u.cols() == 0 || v.cols() == 0 {
        return Ok(zero(u.rows(), v.rows()));
    }
    let Some((qu, au)) = thin_orth(u)? else {
        return Ok(zero(u.rows(), v.rows()));
    };
    let Some((qv, av)) = thin_orth(v)? else {
        return Ok(zero(u.rows(), v.rows()));
    };
    let core = au.matmul(&av.transpose()); // ru × rv
    if core.rows() >= core.cols() {
        let (l, s) = split_core(&core, tol)?;
        Ok((qu.matmul(&l), qv.matmul(&s)))
    } else {
        // Pivoted QR needs rows ≥ cols: factor the transposed core and swap
        // the roles back (core ≈ S Lᵀ).
        let (l, s) = split_core(&core.transpose(), tol)?;
        Ok((qu.matmul(&s), qv.matmul(&l)))
    }
}

/// Orthonormal basis of the rational Krylov space
///
/// ```text
/// span{ b, A⁻¹b, …, A⁻ᵈb,  (A − p₁)⁻¹b,  (A − p₂)⁻¹(A − p₁)⁻¹b, … }
/// ```
///
/// per seed column, where `d = inverse_powers` and the `pᵢ` cycle through the
/// ADI shifts. The inverse-power block reproduces the Taylor (moment)
/// directions about `s = 0`; the shifted products carry the spectral coverage
/// that makes Galerkin-projected Lyapunov solves converge at the ADI rate.
/// Basis growth stops at `cap` columns (or full dimension, whichever is
/// smaller) — at saturation the Galerkin projection becomes exact. The
/// [`RunControl`] is checked once per shifted solve.
///
/// # Errors
///
/// Returns an error if a solve fails, or [`LinalgError::Interrupted`] when
/// the token stops the run; deflated (dependent) directions are skipped
/// silently.
pub fn rational_krylov_basis(
    op: &dyn ShiftedSolve,
    seeds: &[Vector],
    shifts: &[f64],
    inverse_powers: usize,
    cap: usize,
    control: &RunControl,
) -> Result<Matrix> {
    let _span = vamor_obs::span!("rk_basis");
    let n = op.dim();
    let cap = cap.min(n).max(1);
    let mut basis = OrthoBasis::new(n);
    for seed in seeds {
        if basis.len() >= cap {
            break;
        }
        basis.extend_from([seed.clone()])?;
        // Inverse-power (moment) chain, renormalized each step so long chains
        // neither overflow nor collapse.
        let mut w = seed.clone();
        for _ in 0..inverse_powers {
            if basis.len() >= cap {
                break;
            }
            control.checkpoint("rk-basis-solve")?;
            w = op.solve_shifted(0.0, &w)?;
            let norm = w.norm2();
            if norm <= 0.0 || !norm.is_finite() {
                break;
            }
            w.scale_mut(1.0 / norm);
            basis.extend_from([w.clone()])?;
        }
        // Shifted rational chain (the ADI directions).
        let mut w = seed.clone();
        for &p in shifts {
            if basis.len() >= cap {
                break;
            }
            control.checkpoint("rk-basis-solve")?;
            w = op.solve_shifted(-p, &w)?;
            let norm = w.norm2();
            if norm <= 0.0 || !norm.is_finite() {
                break;
            }
            w.scale_mut(1.0 / norm);
            basis.extend_from([w.clone()])?;
        }
    }
    if basis.is_empty() {
        return Err(LinalgError::InvalidArgument(
            "rational krylov basis: every seed direction deflated".into(),
        ));
    }
    basis.to_matrix()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::StopCause;
    use crate::schur::SchurDecomposition;
    use crate::sparse::CsrMatrix;
    use crate::sparse_lu::SolverBackend;
    use crate::sylvester::lyapunov_weight;

    fn stable_matrix(n: usize, seed: u64) -> Matrix {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut m = Matrix::from_fn(n, n, |_, _| next() * 0.4);
        for i in 0..n {
            m[(i, i)] -= 2.0 + 0.15 * i as f64;
        }
        m
    }

    fn real(shifts: &[f64]) -> Vec<AdiShift> {
        shifts.iter().map(|&p| AdiShift::Real(p)).collect()
    }

    fn lyap_residual(a: &Matrix, x: &Matrix, rhs: &Matrix) -> f64 {
        (&(&a.matmul(x) + &x.matmul(&a.transpose())) - rhs).max_abs()
    }

    fn dense_cache(a: &Matrix) -> ShiftCache {
        ShiftCache::new(&CsrMatrix::from_dense(a, 0.0), SolverBackend::Dense)
    }

    fn sparse_cache(a: &Matrix) -> ShiftCache {
        ShiftCache::new(&CsrMatrix::from_dense(a, 0.0), SolverBackend::Sparse)
    }

    #[test]
    fn heuristic_shifts_cover_the_spectral_interval() {
        let a = Matrix::from_diagonal(&[-0.1, -0.5, -2.0, -10.0, -60.0, -300.0]);
        let cache = dense_cache(&a);
        let seed = Vector::filled(6, 1.0);
        let shifts = heuristic_adi_shifts(&cache, &seed, &AdiShiftOptions::default()).unwrap();
        assert!(!shifts.is_empty());
        assert!(shifts.iter().all(|&p| p > 0.0));
        // Sorted large-to-small, spanning the outer decades of the spectrum.
        assert!(shifts.windows(2).all(|w| w[0] >= w[1]));
        assert!(shifts[0] > 30.0, "largest shift {:.3e}", shifts[0]);
        assert!(
            *shifts.last().unwrap() < 5.0,
            "smallest shift {:.3e}",
            shifts.last().unwrap()
        );
    }

    /// The issue's property test: LR-ADI `Z Zᵀ` against the dense
    /// `lyapunov_weight` on random stable systems — identity right-hand side,
    /// residual ≤ 1e-8.
    #[test]
    fn lr_adi_matches_dense_lyapunov_weight_on_random_stable_systems() {
        for (n, seed) in [(8usize, 3u64), (24, 5), (48, 7), (64, 11)] {
            let a = stable_matrix(n, seed);
            // Weight equation: G₁ᵀ M + M G₁ = −I, i.e. ADI over A = G₁ᵀ.
            let at = a.transpose();
            let cache = dense_cache(&at);
            let seed_vec = Vector::filled(n, 1.0);
            let shifts =
                heuristic_adi_shifts(&cache, &seed_vec, &AdiShiftOptions::default()).unwrap();
            let sol = lr_adi_lyapunov(
                &cache,
                &Matrix::identity(n),
                &real(&shifts),
                &LrAdiOptions {
                    tol: 1e-10,
                    max_iterations: 200,
                    ..LrAdiOptions::default()
                },
                &RunControl::new(),
            )
            .unwrap();
            let m = sol.z.matmul(&sol.z.transpose());
            let neg_i = Matrix::identity(n).scaled(-1.0);
            let res = lyap_residual(&at, &m, &neg_i);
            assert!(
                res <= 1e-8,
                "n={n}: ADI residual {res:.3e} (reported {:.3e}, {} iters)",
                sol.stats.residual,
                sol.stats.iterations
            );
            let dense = lyapunov_weight(&SchurDecomposition::new(&a).unwrap()).unwrap();
            assert!(
                (&m - &dense).max_abs() <= 1e-7 * (1.0 + dense.max_abs()),
                "n={n}: ZZᵀ vs dense weight diff {:.3e}",
                (&m - &dense).max_abs()
            );
        }
    }

    #[test]
    fn lr_adi_handles_low_rank_output_weights() {
        let n = 30;
        let a = stable_matrix(n, 21);
        let at = a.transpose();
        let cache = dense_cache(&at);
        let c = Matrix::from_fn(1, n, |_, j| if j == n - 1 { 1.0 } else { 0.0 });
        let b = c.transpose(); // RHS −CᵀC
        let shifts =
            heuristic_adi_shifts(&cache, &Vector::filled(n, 1.0), &AdiShiftOptions::default())
                .unwrap();
        let sol = lr_adi_lyapunov(
            &cache,
            &b,
            &real(&shifts),
            &LrAdiOptions::default(),
            &RunControl::new(),
        )
        .unwrap();
        assert!(sol.stats.residual <= 1e-8);
        let m = sol.z.matmul(&sol.z.transpose());
        let rhs = b.matmul(&b.transpose()).scaled(-1.0);
        assert!(lyap_residual(&at, &m, &rhs) <= 1e-8);
        // Rank stays far below n for a rank-1 right-hand side.
        assert!(sol.z.cols() < n, "rank {}", sol.z.cols());
    }

    #[test]
    fn fadi_solves_indefinite_right_hand_sides() {
        let n = 26;
        let a = stable_matrix(n, 31);
        let cache = dense_cache(&a);
        let u0 = Matrix::from_fn(n, 2, |i, j| ((i + 2 * j) % 5) as f64 - 2.0);
        let v0 = Matrix::from_fn(n, 2, |i, j| ((i * 3 + j) % 7) as f64 / 3.0 - 1.0);
        let shifts =
            heuristic_adi_shifts(&cache, &Vector::filled(n, 1.0), &AdiShiftOptions::default())
                .unwrap();
        let sol = fadi_lyapunov(
            &cache,
            &u0,
            &v0,
            &shifts,
            &LrAdiOptions::default(),
            &RunControl::new(),
        )
        .unwrap();
        assert!(sol.stats.residual <= 1e-9, "{:.3e}", sol.stats.residual);
        let x = sol.u.matmul(&sol.v.transpose());
        let rhs = u0.matmul(&v0.transpose());
        assert!(
            lyap_residual(&a, &x, &rhs) <= 1e-8 * (1.0 + rhs.max_abs()),
            "residual {:.3e}",
            lyap_residual(&a, &x, &rhs)
        );
    }

    #[test]
    fn sparse_and_dense_backends_agree() {
        let n = 20;
        let a = stable_matrix(n, 41);
        let dense = dense_cache(&a);
        let sparse = sparse_cache(&a);
        let b = Matrix::from_fn(n, 1, |i, _| 1.0 / (1.0 + i as f64));
        let shifts = real(&[8.0, 2.0, 0.5]);
        let opts = LrAdiOptions {
            tol: 1e-12,
            max_iterations: 60,
            // Legacy loose-exit contract: this test compares backends, not
            // convergence to the (aggressive) tolerance.
            strict: false,
            ..LrAdiOptions::default()
        };
        let zd = lr_adi_lyapunov(&dense, &b, &shifts, &opts, &RunControl::new()).unwrap();
        let zs = lr_adi_lyapunov(&sparse, &b, &shifts, &opts, &RunControl::new()).unwrap();
        let md = zd.z.matmul(&zd.z.transpose());
        let ms = zs.z.matmul(&zs.z.transpose());
        assert!((&md - &ms).max_abs() <= 1e-9 * (1.0 + md.max_abs()));
        assert_eq!(zd.stats.iterations, zs.stats.iterations);
    }

    #[test]
    fn compression_preserves_the_product() {
        let n = 18;
        // Build a deliberately redundant rank-3 product stored with 9 columns.
        let base_u = Matrix::from_fn(n, 3, |i, j| ((i + j) % 4) as f64 - 1.5);
        let base_v = Matrix::from_fn(n, 3, |i, j| ((i * 2 + j) % 5) as f64 / 2.0 - 1.0);
        let mix = Matrix::from_fn(3, 9, |i, j| ((i * 5 + j * 3) % 7) as f64 - 3.0);
        let u = base_u.matmul(&mix);
        let v = base_v.matmul(&Matrix::from_fn(
            3,
            9,
            |i, j| if i == j % 3 { 1.0 } else { 0.0 },
        ));
        let before = u.matmul(&v.transpose());
        let (cu, cv) = compress_factors(&u, &v, 1e-12).unwrap();
        assert!(cu.cols() <= 3, "compressed rank {}", cu.cols());
        let after = cu.matmul(&cv.transpose());
        assert!(
            (&before - &after).max_abs() <= 1e-10 * (1.0 + before.max_abs()),
            "compression changed the product by {:.3e}",
            (&before - &after).max_abs()
        );
    }

    #[test]
    fn rational_krylov_basis_spans_moment_directions() {
        let n = 16;
        let a = stable_matrix(n, 51);
        let cache = dense_cache(&a);
        let b = Vector::from_fn(n, |i| 1.0 + (i % 3) as f64);
        let q = rational_krylov_basis(
            &cache,
            std::slice::from_ref(&b),
            &[4.0, 1.0],
            3,
            40,
            &RunControl::new(),
        )
        .unwrap();
        // Orthonormal columns.
        let gram = q.transpose().matmul(&q);
        assert!((&gram - &Matrix::identity(q.cols())).max_abs() < 1e-10);
        // A⁻¹b and A⁻²b lie in the span.
        let lu = a.lu().unwrap();
        let mut w = b;
        for _ in 0..2 {
            w = lu.solve(&w).unwrap();
            let coeffs = q.matvec_transpose(&w);
            let mut resid = w.clone();
            resid.axpy(-1.0, &q.matvec(&coeffs));
            assert!(resid.norm2() <= 1e-9 * w.norm2());
        }
    }

    /// Block-diagonal lightly damped oscillator cascade — an LC-receiver-like
    /// spectrum with eigenvalues `−aₖ ± i·wₖ`, `wₖ ≫ aₖ`.
    fn oscillatory_matrix(blocks: usize) -> Matrix {
        let n = 2 * blocks;
        let mut m = Matrix::zeros(n, n);
        for k in 0..blocks {
            let a = 0.05 + 0.02 * k as f64;
            let w = 2.0 + 3.0 * k as f64;
            m[(2 * k, 2 * k)] = -a;
            m[(2 * k + 1, 2 * k + 1)] = -a;
            m[(2 * k, 2 * k + 1)] = w;
            m[(2 * k + 1, 2 * k)] = -w;
            if 2 * k + 2 < n {
                m[(2 * k, 2 * k + 2)] = 0.1;
            }
        }
        m
    }

    /// The conjugate-pair satellite: on a strongly oscillatory spectrum the
    /// pair selection produces complex shifts, the BKS double-step keeps the
    /// factor real, the Lyapunov residual meets the dense reference, and the
    /// complex solves were served from the sparse cache's `SparseZLu`
    /// entries.
    #[test]
    fn complex_pair_adi_matches_dense_weight_on_oscillatory_spectra() {
        let a = oscillatory_matrix(5);
        let at = a.transpose();
        let sparse = sparse_cache(&at);
        let seed = Vector::filled(10, 1.0);
        let shifts =
            heuristic_adi_shift_pairs(&sparse, &seed, &AdiShiftOptions::default()).unwrap();
        assert!(
            shifts.iter().any(|s| matches!(s, AdiShift::ComplexPair(_))),
            "no pairs selected for an LC-like spectrum: {shifts:?}"
        );
        let sol = lr_adi_lyapunov(
            &sparse,
            &Matrix::identity(10),
            &shifts,
            &LrAdiOptions {
                tol: 1e-11,
                max_iterations: 240,
                strict: false,
                ..LrAdiOptions::default()
            },
            &RunControl::new(),
        )
        .unwrap();
        assert!(
            sol.stats.residual <= 1e-9,
            "pair ADI residual {:.3e}",
            sol.stats.residual
        );
        let m = sol.z.matmul(&sol.z.transpose());
        let dense = lyapunov_weight(&SchurDecomposition::new(&a).unwrap()).unwrap();
        assert!(
            (&m - &dense).max_abs() <= 1e-7 * (1.0 + dense.max_abs()),
            "pair ZZᵀ vs dense weight diff {:.3e}",
            (&m - &dense).max_abs()
        );
        // The double-steps hit the complex factor path of the sparse cache.
        assert!(!sparse.is_empty());
        assert!(sparse.misses() > 0);
    }

    /// Pairs converge no slower than their real-magnitude projections on the
    /// oscillatory spectrum (the reason the satellite exists).
    #[test]
    fn complex_pairs_beat_real_magnitudes_on_oscillatory_spectra() {
        let a = oscillatory_matrix(6).transpose();
        let cache = dense_cache(&a);
        let seed = Vector::filled(12, 1.0);
        let opts = LrAdiOptions {
            tol: 1e-10,
            max_iterations: 200,
            // The real-magnitude run is *expected* to converge worse here.
            strict: false,
            ..LrAdiOptions::default()
        };
        let pairs = heuristic_adi_shift_pairs(&cache, &seed, &AdiShiftOptions::default()).unwrap();
        let reals: Vec<f64> = pairs.iter().map(AdiShift::magnitude).collect();
        let b = Matrix::identity(12);
        let with_pairs = lr_adi_lyapunov(&cache, &b, &pairs, &opts, &RunControl::new()).unwrap();
        let with_reals =
            lr_adi_lyapunov(&cache, &b, &real(&reals), &opts, &RunControl::new()).unwrap();
        assert!(
            with_pairs.stats.residual <= with_reals.stats.residual * 1.01
                || with_pairs.stats.iterations <= with_reals.stats.iterations,
            "pairs: {:.3e} in {} sweeps, reals: {:.3e} in {} sweeps",
            with_pairs.stats.residual,
            with_pairs.stats.iterations,
            with_reals.stats.residual,
            with_reals.stats.iterations
        );
    }

    #[test]
    fn pair_selection_degrades_to_real_shifts_on_symmetric_spectra() {
        let a = Matrix::from_diagonal(&[-0.2, -1.0, -4.0, -20.0, -90.0, -400.0]);
        let cache = dense_cache(&a);
        let seed = Vector::filled(6, 1.0);
        let shifts = heuristic_adi_shift_pairs(&cache, &seed, &AdiShiftOptions::default()).unwrap();
        assert!(!shifts.is_empty());
        assert!(
            shifts.iter().all(|s| matches!(s, AdiShift::Real(_))),
            "spurious pairs on a real spectrum: {shifts:?}"
        );
    }

    /// A solve that makes no progress (returns the right-hand side
    /// unchanged) — the shape of the injected `AdiStall` fault.
    struct StallOp<'a>(&'a ShiftCache);

    impl ShiftedSolve for StallOp<'_> {
        fn dim(&self) -> usize {
            self.0.dim()
        }

        fn apply(&self, x: &Vector) -> Vector {
            self.0.apply(x)
        }

        fn solve_shifted(&self, _sigma: f64, rhs: &Vector) -> Result<Vector> {
            Ok(rhs.clone())
        }

        fn solve_shifted_complex(
            &self,
            _lambda: crate::Complex,
            re: &Vector,
            im: &Vector,
        ) -> Result<(Vector, Vector)> {
            Ok((re.clone(), im.clone()))
        }
    }

    /// The non-convergence satellite: a stalled iteration walks the
    /// perturb-and-reselect ladder, then surfaces a typed error carrying the
    /// stats — it neither loops to the cap nor returns a factor that looks
    /// converged.
    #[test]
    fn stalled_adi_perturbs_shifts_then_surfaces_a_typed_error() {
        let a = stable_matrix(8, 71);
        let cache = dense_cache(&a);
        let op = StallOp(&cache);
        let opts = LrAdiOptions {
            tol: 1e-10,
            max_iterations: 400,
            ..LrAdiOptions::default()
        };
        let err = lr_adi_lyapunov(
            &op,
            &Matrix::identity(8),
            &real(&[1.0, 4.0]),
            &opts,
            &RunControl::new(),
        )
        .unwrap_err();
        match err {
            LinalgError::AdiNonConvergence { stats } => {
                assert!(stats.residual > opts.tol);
                assert_eq!(stats.shift_reselections, opts.stall_recoveries);
                assert!(
                    stats.iterations < opts.max_iterations,
                    "exhausted ladder ends the run early ({} sweeps)",
                    stats.iterations
                );
            }
            other => panic!("expected AdiNonConvergence, got {other:?}"),
        }
        let err = fadi_lyapunov(
            &op,
            &Matrix::identity(8),
            &Matrix::identity(8),
            &[1.0, 4.0],
            &opts,
            &RunControl::new(),
        )
        .unwrap_err();
        assert!(matches!(err, LinalgError::AdiNonConvergence { .. }));
    }

    /// Opting out of strict mode preserves the legacy loose-exit contract,
    /// with the ladder's work reported in the stats.
    #[test]
    fn non_strict_stalled_adi_reports_instead_of_erroring() {
        let a = stable_matrix(8, 73);
        let cache = dense_cache(&a);
        let op = StallOp(&cache);
        let sol = lr_adi_lyapunov(
            &op,
            &Matrix::identity(8),
            &real(&[1.0, 4.0]),
            &LrAdiOptions {
                tol: 1e-10,
                max_iterations: 400,
                strict: false,
                ..LrAdiOptions::default()
            },
            &RunControl::new(),
        )
        .unwrap();
        assert!(sol.stats.residual > 1e-10);
        assert_eq!(sol.stats.shift_reselections, 2);
    }

    #[test]
    fn cancelled_adi_run_is_interrupted_not_panicked() {
        let a = stable_matrix(10, 81);
        let cache = dense_cache(&a);
        let control = RunControl::new();
        control.cancel();
        let err = lr_adi_lyapunov(
            &cache,
            &Matrix::identity(10),
            &[AdiShift::Real(1.0)],
            &LrAdiOptions::default(),
            &control,
        )
        .unwrap_err();
        assert_eq!(err, LinalgError::Interrupted(StopCause::Cancelled));
        let err = rational_krylov_basis(&cache, &[Vector::filled(10, 1.0)], &[1.0], 2, 8, &control)
            .unwrap_err();
        assert_eq!(err, LinalgError::Interrupted(StopCause::Cancelled));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let a = stable_matrix(4, 61);
        let cache = dense_cache(&a);
        let b = Matrix::identity(4);
        let opts = LrAdiOptions::default();
        let go = RunControl::new();
        assert!(lr_adi_lyapunov(&cache, &b, &[], &opts, &go).is_err());
        assert!(lr_adi_lyapunov(&cache, &b, &real(&[-1.0]), &opts, &go).is_err());
        assert!(lr_adi_lyapunov(&cache, &Matrix::identity(3), &real(&[1.0]), &opts, &go).is_err());
        assert!(fadi_lyapunov(
            &cache,
            &Matrix::zeros(4, 2),
            &Matrix::zeros(4, 1),
            &[1.0],
            &opts,
            &go
        )
        .is_err());
        let seed = Vector::zeros(3);
        assert!(heuristic_adi_shifts(&cache, &seed, &AdiShiftOptions::default()).is_err());
        assert!(lr_adi_lyapunov(
            &cache,
            &b,
            &[AdiShift::ComplexPair(crate::Complex::new(1.0, -0.5))],
            &opts,
            &go
        )
        .is_err());
    }
}
