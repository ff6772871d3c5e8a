//! Memoized LU factorizations of shifted matrices `(G + σI)` / `(G + λI)`.
//!
//! The associated-transform moment recursions, the ADI sweeps and the band
//! samplers solve against the *same* base matrix `G₁` over and over, with
//! shifts drawn from a small set (spectrum walks, ADI shift sets, band
//! frequencies). [`ShiftCache`] keys the LU factors by the shift's bit
//! pattern (with the one normalization that both IEEE zero encodings,
//! `+0.0` and `-0.0`, share a single entry — they denote the same shifted
//! matrix) so each distinct shift is factored once while it is retained.
//!
//! The base is either a dense matrix (one dense LU per shift) or a CSR stamp
//! with one symbolic analysis (fill-reducing ordering) shared by every
//! shift, so each miss is a numeric-only refactorization through
//! [`crate::sparse_lu::SparseLu`]. Real and complex factors live in one map
//! under one mutex, and one optional LRU capacity bound
//! ([`ShiftCache::with_capacity_bound`]) governs both backends: ADI sweeps
//! generate many one-shot shifts, and without a bound every factor would be
//! retained for the cache's lifetime. A capacity of 0 retains nothing.
//!
//! The cache is `Sync` (a mutex-guarded map of `Arc`-shared factors) so
//! moment chains running on scoped threads can share one instance.

use std::collections::{hash_map, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use vamor_obs::{span, CounterHandle};

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;
use crate::sparse_lu::{
    LuFactor, SolverBackend, SparseLu, SparseLuSymbolic, SparseZLu, SPARSE_AUTO_THRESHOLD,
};
use crate::vector::Vector;
use crate::zmatrix::{ZLuDecomposition, ZMatrix, ZVector};
use crate::Result;

/// Consults the armed fault plan at the shifted-solve seam: maps the planned
/// [`crate::fault::FaultKind`] onto this seam's failure shapes (typed
/// singular error, NaN-poisoned solution, or a no-progress "stall" solve).
#[cfg(feature = "fault-injection")]
fn injected_real_solve(rhs: &Vector) -> Option<Result<Vector>> {
    use crate::fault::{maybe, FaultKind, FaultSite};
    Some(match maybe(FaultSite::ShiftedSolve)? {
        FaultKind::SingularFactor => Err(LinalgError::Singular(
            "fault injection: forced singular shifted factor".into(),
        )),
        FaultKind::NanSolve => Ok(Vector::from_fn(rhs.len(), |_| f64::NAN)),
        FaultKind::AdiStall => Ok(rhs.clone()),
        // Session-level kinds fire at the session seams, not here.
        FaultKind::CacheCorrupt | FaultKind::BudgetPressure | FaultKind::CheckpointTorn => {
            return None
        }
    })
}

/// Complex-solve twin of [`injected_real_solve`].
#[cfg(feature = "fault-injection")]
fn injected_complex_solve(re: &Vector, im: &Vector) -> Option<Result<(Vector, Vector)>> {
    use crate::fault::{maybe, FaultKind, FaultSite};
    Some(match maybe(FaultSite::ShiftedSolve)? {
        FaultKind::SingularFactor => Err(LinalgError::Singular(
            "fault injection: forced singular shifted factor".into(),
        )),
        FaultKind::NanSolve => Ok((
            Vector::from_fn(re.len(), |_| f64::NAN),
            Vector::from_fn(im.len(), |_| f64::NAN),
        )),
        FaultKind::AdiStall => Ok((re.clone(), im.clone())),
        // Session-level kinds fire at the session seams, not here.
        FaultKind::CacheCorrupt | FaultKind::BudgetPressure | FaultKind::CheckpointTorn => {
            return None
        }
    })
}

/// Normalizes a shift component for use as a cache key: both zero encodings
/// map to the `+0.0` bit pattern; every other value is keyed exactly.
fn shift_bits(v: f64) -> u64 {
    if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    }
}

/// A cache key. A real shift `σ` and the complex shift `σ + 0i` are
/// distinct keys: they hold different factor types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ShiftKey {
    Real(u64),
    Complex(u64, u64),
}

/// The matrix every shift is applied to.
#[derive(Debug, Clone)]
enum Base {
    /// Dense LU per shift.
    Dense(Matrix),
    /// One symbolic analysis of the stamp, numeric refactorization per shift.
    Sparse {
        csr: CsrMatrix,
        symbolic: Arc<SparseLuSymbolic>,
    },
}

/// One cached factorization: the real LU of `base + σI`, or the complex LU
/// of `base + λI` in the base's backend.
#[derive(Debug)]
enum Factor {
    Real(LuFactor),
    DenseComplex(ZLuDecomposition),
    SparseComplex(SparseZLu),
}

impl Factor {
    /// Resident bytes of the factor: coefficients plus pivot/index vectors.
    fn approx_bytes(&self) -> usize {
        match self {
            Factor::Real(lu) => lu.approx_bytes(),
            Factor::DenseComplex(lu) => {
                let n = lu.dim();
                n * n * 16 + n * 8
            }
            Factor::SparseComplex(lu) => lu.factor_nnz() * (16 + 8) + lu.dim() * 16,
        }
    }
}

/// A cached factor stamped with its last-use tick (for LRU eviction).
#[derive(Debug, Clone)]
struct Entry {
    factor: Arc<Factor>,
    last_used: usize,
}

/// Registry handles mirroring the per-instance hit/miss/eviction counters
/// into the process-wide metrics registry (`shift_cache.dense.*` /
/// `shift_cache.sparse.*`), plus the backend's factorization span name.
/// Resolved once at cache construction so the hot paths pay one relaxed
/// atomic add, never a registry lookup.
#[derive(Clone)]
struct CacheCounters {
    hits: CounterHandle,
    misses: CounterHandle,
    evictions: CounterHandle,
    span: &'static str,
}

impl CacheCounters {
    fn for_backend(sparse: bool) -> Self {
        if sparse {
            CacheCounters {
                hits: vamor_obs::counter("shift_cache.sparse.hits"),
                misses: vamor_obs::counter("shift_cache.sparse.misses"),
                evictions: vamor_obs::counter("shift_cache.sparse.evictions"),
                span: "shift_factor_sparse",
            }
        } else {
            CacheCounters {
                hits: vamor_obs::counter("shift_cache.dense.hits"),
                misses: vamor_obs::counter("shift_cache.dense.misses"),
                evictions: vamor_obs::counter("shift_cache.dense.evictions"),
                span: "shift_factor_dense",
            }
        }
    }
}

impl fmt::Debug for CacheCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheCounters").finish_non_exhaustive()
    }
}

/// One memoized shifted-solve cache over a `G₁` stamp, in the backend a
/// [`SolverBackend`] picks for its dimension: one symbolic analysis of the
/// CSR stamp with a numeric refactorization per shift, or a dense LU per
/// shift over the stamp's dense view (built only in dense mode, so
/// 10⁴-state systems never allocate it). Key quantization, hit/miss
/// accounting and the capacity bound are identical on both backends.
///
/// ```
/// use vamor_linalg::{CooMatrix, ShiftCache, SolverBackend, Vector};
/// # fn main() -> Result<(), vamor_linalg::LinalgError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, -2.0);
/// coo.push(1, 1, -3.0);
/// let cache = ShiftCache::new(&coo.to_csr(), SolverBackend::Auto);
/// assert!(!cache.is_sparse()); // `Auto` stays dense below 256 states
/// let b = Vector::from_slice(&[1.0, 2.0]);
/// cache.solve_shifted(0.5, &b)?;
/// cache.solve_shifted(0.5, &b)?;
/// assert_eq!((cache.misses(), cache.hits()), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShiftCache {
    base: Base,
    entries: Mutex<HashMap<ShiftKey, Entry>>,
    /// Maximum number of cached factorizations (real + complex combined).
    /// `None` = unbounded; `Some(0)` retains nothing.
    capacity: Option<usize>,
    /// Logical clock driving least-recently-used eviction.
    tick: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    metrics: CacheCounters,
}

impl ShiftCache {
    /// Builds an unbounded cache over `stamp`, sparse when `backend`
    /// resolves to sparse at this dimension ([`SPARSE_AUTO_THRESHOLD`] for
    /// `Auto`).
    ///
    /// # Panics
    ///
    /// Panics if `stamp` is not square.
    pub fn new(stamp: &CsrMatrix, backend: SolverBackend) -> Self {
        let sparse = backend.use_sparse(stamp.rows(), SPARSE_AUTO_THRESHOLD);
        let base = if sparse {
            let symbolic = SparseLuSymbolic::analyze(stamp)
                // vamor: allow(panic-freedom, reason = "doc-stated panic contract of `new` on a non-square stamp")
                .expect("ShiftCache requires a square base matrix");
            Base::Sparse {
                csr: stamp.clone(),
                symbolic: Arc::new(symbolic),
            }
        } else {
            assert!(
                stamp.rows() == stamp.cols(),
                "ShiftCache requires a square base matrix"
            );
            Base::Dense(stamp.to_dense())
        };
        ShiftCache {
            base,
            entries: Mutex::new(HashMap::new()),
            capacity: None,
            tick: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            metrics: CacheCounters::for_backend(sparse),
        }
    }

    /// Bounds the number of retained factorizations (real + complex
    /// combined) and evicts least-recently-used entries beyond it. A
    /// capacity of 0 retains nothing: every solve factors afresh.
    pub fn with_capacity_bound(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// The configured capacity bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// True when this is the sparse backend.
    pub fn is_sparse(&self) -> bool {
        matches!(self.base, Base::Sparse { .. })
    }

    /// Dimension of the base matrix.
    pub fn dim(&self) -> usize {
        match &self.base {
            Base::Dense(g) => g.rows(),
            Base::Sparse { csr, .. } => csr.rows(),
        }
    }

    /// Applies the base matrix: `y = G x`.
    pub fn apply(&self, x: &Vector) -> Vector {
        match &self.base {
            Base::Dense(g) => g.matvec(x),
            Base::Sparse { csr, .. } => csr.matvec(x),
        }
    }

    /// Number of solves served from cached factors. A call whose own
    /// factorization lost the insert race to a concurrent call for the same
    /// shift is served the winner's factor and counts here.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of factorizations inserted into the cache, so that
    /// `len() == misses() − evictions()` holds at every quiescent point.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of factorizations evicted by the capacity bound.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct cached factorizations (real + complex).
    pub fn len(&self) -> usize {
        self.lock_entries().len()
    }

    /// True if no factorization is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of the cache — the base matrix (with the
    /// symbolic ordering on the sparse backend) plus every held factor's own
    /// size. The unit the session memory-budget governor accounts in; a
    /// sizing estimate, not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        let base = match &self.base {
            Base::Dense(g) => std::mem::size_of_val(g.as_slice()),
            Base::Sparse { csr, .. } => csr.nnz() * (8 + 8) + (2 * csr.rows() + 1) * 8,
        };
        let held: usize = self
            .lock_entries()
            .values()
            .map(|e| e.factor.approx_bytes())
            .sum();
        base + held
    }

    /// Locks the factor map, recovering from mutex poisoning: factors are
    /// built *outside* the lock and entries are only ever inserted whole, so
    /// a map observed after a sibling worker's panic is still internally
    /// consistent — discarding it would only throw away valid
    /// factorizations. The single acquisition point the `lock-discipline`
    /// lint tracks.
    fn lock_entries(&self) -> MutexGuard<'_, HashMap<ShiftKey, Entry>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn next_tick(&self) -> usize {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Counts one solve served from a cached factor.
    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.metrics.hits.inc();
    }

    /// The cached factor under `key`, or `build()`'s, inserted.
    ///
    /// The miss is counted by the call whose insert fills the vacant entry,
    /// not by every call that found it vacant: a call whose factor lost the
    /// race counts a hit, and a failed `build()` counts neither.
    fn get_or_insert(
        &self,
        key: ShiftKey,
        build: impl FnOnce() -> Result<Factor>,
    ) -> Result<Arc<Factor>> {
        if let Some(entry) = self.lock_entries().get_mut(&key) {
            entry.last_used = self.next_tick();
            self.count_hit();
            return Ok(Arc::clone(&entry.factor));
        }
        // Factor OUTSIDE the lock: holding the map mutex across an O(n³)
        // factorization would serialize the parallel moment chains during
        // their warm-up sweep over the spectrum. A racing thread may factor
        // the same shift concurrently; both produce identical factors and the
        // first insert wins.
        let factor = {
            let _span = span!(self.metrics.span);
            Arc::new(build()?)
        };
        let tick = self.next_tick();
        let mut entries = self.lock_entries();
        let held = match entries.entry(key) {
            hash_map::Entry::Occupied(mut won) => {
                won.get_mut().last_used = tick;
                self.count_hit();
                Arc::clone(&won.get().factor)
            }
            hash_map::Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.metrics.misses.inc();
                Arc::clone(
                    &slot
                        .insert(Entry {
                            factor,
                            last_used: tick,
                        })
                        .factor,
                )
            }
        };
        self.enforce_capacity(&mut entries);
        Ok(held)
    }

    /// Evicts least-recently-used entries until the map fits the capacity
    /// bound.
    fn enforce_capacity(&self, entries: &mut HashMap<ShiftKey, Entry>) {
        let Some(cap) = self.capacity else { return };
        while entries.len() > cap {
            let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            entries.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.metrics.evictions.inc();
        }
    }

    fn real_factor(&self, sigma: f64) -> Result<Arc<Factor>> {
        self.get_or_insert(ShiftKey::Real(shift_bits(sigma)), || {
            Ok(Factor::Real(match &self.base {
                Base::Dense(g) => LuFactor::Dense(shifted(g, sigma).lu()?),
                Base::Sparse { csr, symbolic } => {
                    LuFactor::Sparse(SparseLu::factor_shifted(symbolic, csr, sigma)?)
                }
            }))
        })
    }

    fn complex_factor(&self, lambda: Complex) -> Result<Arc<Factor>> {
        let key = ShiftKey::Complex(shift_bits(lambda.re), shift_bits(lambda.im));
        self.get_or_insert(key, || {
            Ok(match &self.base {
                Base::Dense(g) => Factor::DenseComplex(shifted_complex(g, lambda).lu()?),
                Base::Sparse { csr, symbolic } => {
                    Factor::SparseComplex(SparseZLu::factor_shifted(symbolic, csr, lambda)?)
                }
            })
        })
    }

    /// Factors `base + σI` into the cache (at most once per retained shift).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the shifted matrix is singular.
    pub fn factor(&self, sigma: f64) -> Result<()> {
        self.real_factor(sigma).map(|_| ())
    }

    /// Solves `(base + σI) x = rhs` through the cache.
    ///
    /// # Errors
    ///
    /// Propagates singular pencils and dimension mismatches.
    pub fn solve_shifted(&self, sigma: f64, rhs: &Vector) -> Result<Vector> {
        #[cfg(feature = "fault-injection")]
        if let Some(injected) = injected_real_solve(rhs) {
            return injected;
        }
        match &*self.real_factor(sigma)? {
            Factor::Real(lu) => lu.solve(rhs),
            Factor::DenseComplex(_) | Factor::SparseComplex(_) => Err(key_mismatch()),
        }
    }

    /// Solves `(base + λI)(x_re + i·x_im) = re + i·im`, returning the real
    /// and imaginary parts.
    ///
    /// # Errors
    ///
    /// Propagates singular pencils and dimension mismatches.
    pub fn solve_shifted_complex(
        &self,
        lambda: Complex,
        re: &Vector,
        im: &Vector,
    ) -> Result<(Vector, Vector)> {
        if re.len() != self.dim() || im.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch(format!(
                "shifted complex solve: rhs lengths {}/{} for dimension {}",
                re.len(),
                im.len(),
                self.dim()
            )));
        }
        #[cfg(feature = "fault-injection")]
        if let Some(injected) = injected_complex_solve(re, im) {
            return injected;
        }
        match &*self.complex_factor(lambda)? {
            Factor::DenseComplex(lu) => {
                let rhs = ZVector::from(
                    re.as_slice()
                        .iter()
                        .zip(im.as_slice())
                        .map(|(&r, &i)| Complex::new(r, i))
                        .collect::<Vec<_>>(),
                );
                let x = lu.solve(&rhs)?;
                Ok((x.real(), x.imag()))
            }
            Factor::SparseComplex(lu) => lu.solve_parts(re, im),
            Factor::Real(_) => Err(key_mismatch()),
        }
    }

    /// Solves the *resolvent* system `(sI − base) x = re + i·im`.
    ///
    /// The factorization is the cached `(base + λI)` entry with `λ = −s`, so
    /// transfer-function samplers hitting the same frequencies as the
    /// Bartels–Stewart eigenvalue walks share their factors — and every
    /// repeated frequency of a band sweep is factored once while retained.
    ///
    /// # Errors
    ///
    /// Propagates singular pencils and dimension mismatches.
    pub fn solve_resolvent(
        &self,
        s: Complex,
        re: &Vector,
        im: &Vector,
    ) -> Result<(Vector, Vector)> {
        let (mut xr, mut xi) = self.solve_shifted_complex(-s, re, im)?;
        // (sI − G) = −(G − sI): negate the shifted solution.
        xr.scale_mut(-1.0);
        xi.scale_mut(-1.0);
        Ok((xr, xi))
    }
}

/// `g + σI`.
fn shifted(g: &Matrix, sigma: f64) -> Matrix {
    let mut m = g.clone();
    for i in 0..m.rows() {
        m[(i, i)] += sigma;
    }
    m
}

/// `g + λI` for a complex shift.
fn shifted_complex(g: &Matrix, lambda: Complex) -> ZMatrix {
    let mut m = ZMatrix::from_real(g);
    for i in 0..g.rows() {
        m[(i, i)] += lambda;
    }
    m
}

/// A real key always holds a real factor and a complex key a complex one;
/// this error marks the unreachable crossing.
fn key_mismatch() -> LinalgError {
    LinalgError::InvalidArgument("shift cache: factor kind does not match its key".into())
}

impl Clone for ShiftCache {
    /// Snapshots the cached factors, the bound and the counters. Cloning
    /// recovers from a poisoned map (a sibling worker panicked while holding
    /// the guard) instead of propagating the panic: entries are only ever
    /// inserted whole, so the snapshot is always a consistent — if possibly
    /// slightly stale — view.
    fn clone(&self) -> Self {
        ShiftCache {
            base: self.base.clone(),
            entries: Mutex::new(self.lock_entries().clone()),
            capacity: self.capacity,
            tick: AtomicUsize::new(self.tick.load(Ordering::Relaxed)),
            hits: AtomicUsize::new(self.hits()),
            misses: AtomicUsize::new(self.misses()),
            evictions: AtomicUsize::new(self.evictions()),
            metrics: self.metrics.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Matrix {
        Matrix::from_rows(&[&[-2.0, 0.7, 0.0], &[0.1, -3.0, 0.4], &[0.0, 0.2, -1.5]]).unwrap()
    }

    fn base_csr() -> CsrMatrix {
        CsrMatrix::from_dense(&base(), 0.0)
    }

    fn dense(g: &Matrix) -> ShiftCache {
        ShiftCache::new(&CsrMatrix::from_dense(g, 0.0), SolverBackend::Dense)
    }

    fn sparse(g: &Matrix) -> ShiftCache {
        ShiftCache::new(&CsrMatrix::from_dense(g, 0.0), SolverBackend::Sparse)
    }

    #[test]
    fn cached_and_fresh_real_solves_agree() {
        let g = base();
        let cache = dense(&g);
        let rhs = Vector::from_slice(&[1.0, -2.0, 0.5]);
        for sigma in [0.0, 0.3, -0.8, 0.3, 0.0] {
            let cached = cache.solve_shifted(sigma, &rhs).unwrap();
            let mut shifted = g.clone();
            for i in 0..3 {
                shifted[(i, i)] += sigma;
            }
            let fresh = shifted.solve(&rhs).unwrap();
            assert!((&cached - &fresh).norm_inf() < 1e-10, "sigma {sigma}");
        }
        // Five solves over three distinct shifts: three misses, two hits.
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn cached_and_fresh_complex_solves_agree() {
        let g = base();
        let cache = dense(&g);
        let re = Vector::from_slice(&[0.3, 1.0, -0.4]);
        let im = Vector::from_slice(&[-1.0, 0.2, 0.9]);
        let lambda = Complex::new(0.4, 1.3);
        let (x_re, x_im) = cache.solve_shifted_complex(lambda, &re, &im).unwrap();
        let (y_re, y_im) = cache.solve_shifted_complex(lambda, &re, &im).unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(x_re.as_slice(), y_re.as_slice());
        assert_eq!(x_im.as_slice(), y_im.as_slice());
        // Residual check against the explicitly shifted complex system.
        let mut res_re = g.matvec(&x_re);
        res_re.axpy(lambda.re, &x_re);
        res_re.axpy(-lambda.im, &x_im);
        res_re.axpy(-1.0, &re);
        let mut res_im = g.matvec(&x_im);
        res_im.axpy(lambda.re, &x_im);
        res_im.axpy(lambda.im, &x_re);
        res_im.axpy(-1.0, &im);
        assert!(res_re.norm_inf() < 1e-10 && res_im.norm_inf() < 1e-10);
    }

    /// The merged map must keep a real shift `σ` and the complex shift
    /// `σ + 0i` apart: each solve matches a fresh factorization of its own
    /// kind, on both backends.
    #[test]
    fn real_and_complex_zero_imaginary_shifts_are_distinct_entries() {
        let g = base();
        let rhs = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let im = Vector::from_slice(&[0.25, 0.0, -1.0]);
        let mut shifted = g.clone();
        for i in 0..3 {
            shifted[(i, i)] += 0.3;
        }
        let fresh_re = shifted.solve(&rhs).unwrap();
        let fresh_im = shifted.solve(&im).unwrap();
        for cache in [dense(&g), sparse(&g)] {
            for _ in 0..2 {
                let x = cache.solve_shifted(0.3, &rhs).unwrap();
                assert!((&x - &fresh_re).norm_inf() < 1e-10);
                let (xr, xi) = cache
                    .solve_shifted_complex(Complex::new(0.3, 0.0), &rhs, &im)
                    .unwrap();
                assert!((&xr - &fresh_re).norm_inf() < 1e-10);
                assert!((&xi - &fresh_im).norm_inf() < 1e-10);
            }
            assert_eq!((cache.len(), cache.misses(), cache.hits()), (2, 2, 2));
        }
    }

    /// The lookup/insert race, replayed on one thread: the build closure
    /// re-enters the cache on the same shift before returning, as a racing
    /// call would. The racer's insert fills the entry and counts the one
    /// miss; the outer call's factor loses and counts a hit.
    #[test]
    fn a_factor_that_loses_the_insert_race_counts_a_hit() {
        let g = base();
        let cache = dense(&g);
        let rhs = Vector::from_slice(&[1.0, -1.0, 2.0]);
        let sigma = 0.25;
        cache
            .get_or_insert(ShiftKey::Real(shift_bits(sigma)), || {
                cache.solve_shifted(sigma, &rhs)?;
                Ok(Factor::Real(LuFactor::Dense(shifted(&g, sigma).lu()?)))
            })
            .unwrap();
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (1, 1, 1));
        assert_eq!(cache.len(), cache.misses() - cache.evictions());
    }

    #[test]
    fn capacity_zero_retains_nothing() {
        let cache = dense(&base()).with_capacity_bound(0);
        let rhs = Vector::from_slice(&[1.0, 0.0, 0.0]);
        cache.solve_shifted(0.5, &rhs).unwrap();
        cache.solve_shifted(0.5, &rhs).unwrap();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), Some(0));
    }

    #[test]
    fn negative_zero_shift_shares_the_zero_entry() {
        let cache = dense(&base());
        let rhs = Vector::from_slice(&[1.0, 1.0, 1.0]);
        cache.solve_shifted(0.0, &rhs).unwrap();
        cache.solve_shifted(-0.0, &rhs).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn singular_shift_is_reported_not_cached() {
        // base + 2I makes the first row zero for this matrix.
        let g = Matrix::from_rows(&[&[-2.0, 0.0], &[0.0, -1.0]]).unwrap();
        let cache = dense(&g);
        let rhs = Vector::from_slice(&[1.0, 1.0]);
        assert!(cache.solve_shifted(2.0, &rhs).is_err());
        assert!(cache.is_empty());
    }

    /// Both backends quantize shift keys the same way, so an identical solve
    /// sequence produces identical hit/miss/len statistics.
    #[test]
    fn sparse_and_dense_caches_count_hits_and_misses_identically() {
        let dense = dense(&base());
        let sparse = sparse(&base());
        let rhs = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let re = Vector::from_slice(&[0.3, 1.0, -0.4]);
        let im = Vector::from_slice(&[-1.0, 0.2, 0.9]);
        let lambda = Complex::new(0.4, 1.3);
        for sigma in [0.0, 0.3, -0.0, 0.3, -0.8, 0.0] {
            let a = dense.solve_shifted(sigma, &rhs).unwrap();
            let b = sparse.solve_shifted(sigma, &rhs).unwrap();
            assert!((&a - &b).norm_inf() < 1e-10, "sigma {sigma}");
        }
        for _ in 0..2 {
            let (ar, ai) = dense.solve_shifted_complex(lambda, &re, &im).unwrap();
            let (br, bi) = sparse.solve_shifted_complex(lambda, &re, &im).unwrap();
            assert!((&ar - &br).norm_inf() < 1e-10);
            assert!((&ai - &bi).norm_inf() < 1e-10);
        }
        assert_eq!(dense.hits(), sparse.hits());
        assert_eq!(dense.misses(), sparse.misses());
        assert_eq!(dense.len(), sparse.len());
        // Six real solves over three distinct shifts (with -0.0 folded into
        // 0.0) plus two complex solves over one shift.
        assert_eq!(sparse.misses(), 4);
        assert_eq!(sparse.hits(), 4);
    }

    #[test]
    fn sparse_singular_shift_is_reported_not_cached() {
        let g = Matrix::from_rows(&[&[-2.0, 0.0], &[0.0, -1.0]]).unwrap();
        let cache = sparse(&g);
        let rhs = Vector::from_slice(&[1.0, 1.0]);
        assert!(cache.solve_shifted(2.0, &rhs).is_err());
        assert!(cache.is_empty());
        // Cloning carries cached factors.
        cache.solve_shifted(0.5, &rhs).unwrap();
        let cloned = cache.clone();
        cloned.solve_shifted(0.5, &rhs).unwrap();
        assert_eq!(cloned.hits(), 1);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used_factors() {
        let cache = sparse(&base()).with_capacity_bound(2);
        assert_eq!(cache.capacity(), Some(2));
        let rhs = Vector::from_slice(&[1.0, 1.0, 1.0]);
        cache.solve_shifted(0.0, &rhs).unwrap(); // cache {0.0}
        cache.solve_shifted(0.5, &rhs).unwrap(); // cache {0.0, 0.5}
        cache.solve_shifted(0.0, &rhs).unwrap(); // hit, refreshes 0.0
        assert_eq!(cache.evictions(), 0);
        cache.solve_shifted(1.0, &rhs).unwrap(); // evicts 0.5 (LRU)
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // 0.0 survived the eviction (it was refreshed by the hit).
        let hits = cache.hits();
        cache.solve_shifted(0.0, &rhs).unwrap();
        assert_eq!(cache.hits(), hits + 1);
        // 0.5 was evicted: re-solving refactors (a miss) and evicts again.
        let misses = cache.misses();
        cache.solve_shifted(0.5, &rhs).unwrap();
        assert_eq!(cache.misses(), misses + 1);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 2);
        // Complex factors share the same budget.
        cache
            .solve_shifted_complex(Complex::new(0.2, 0.7), &rhs, &rhs)
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 3);
        // Clones carry the bound and counters.
        let cloned = cache.clone();
        assert_eq!(cloned.capacity(), Some(2));
        assert_eq!(cloned.evictions(), 3);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = sparse(&base());
        assert_eq!(cache.capacity(), None);
        let rhs = Vector::from_slice(&[1.0, 1.0, 1.0]);
        for sigma in [0.0, 0.25, 0.5, 0.75, 1.0] {
            cache.solve_shifted(sigma, &rhs).unwrap();
        }
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.dim(), 3);
        assert!(cache.is_sparse());
    }

    #[test]
    fn shift_cache_picks_the_backend_from_the_stamp() {
        let csr = base_csr();
        let rhs = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let dense = ShiftCache::new(&csr, SolverBackend::Auto).with_capacity_bound(1);
        let sparse = ShiftCache::new(&csr, SolverBackend::Sparse).with_capacity_bound(1);
        assert!(!dense.is_sparse() && sparse.is_sparse());
        assert_eq!((dense.dim(), sparse.dim()), (3, 3));
        for sigma in [0.0, 0.3, 0.0] {
            let a = dense.solve_shifted(sigma, &rhs).unwrap();
            let b = sparse.solve_shifted(sigma, &rhs).unwrap();
            assert!((&a - &b).norm_inf() < 1e-10);
        }
        // The bound applies to both backends: 0.0 was evicted by 0.3.
        assert_eq!((dense.hits(), dense.misses(), dense.len()), (0, 3, 1));
        assert_eq!((sparse.hits(), sparse.misses(), sparse.len()), (0, 3, 1));
        assert!(dense.approx_bytes() > 0 && sparse.approx_bytes() > 0);
        assert!((&dense.apply(&rhs) - &base().matvec(&rhs)).norm_inf() == 0.0);
    }

    /// Resolvent solves go through the same complex `(G + λI)` entries
    /// (keyed at `λ = −s`), on both backends.
    #[test]
    fn resolvent_solves_share_the_shifted_complex_entries() {
        let g = base();
        let dense = dense(&g);
        let sparse = sparse(&g);
        let re = Vector::from_slice(&[1.0, 0.5, -0.25]);
        let im = Vector::from_slice(&[0.0, -0.3, 0.1]);
        let s = Complex::new(0.2, 0.7);
        for cache_solve in [
            dense.solve_resolvent(s, &re, &im).unwrap(),
            sparse.solve_resolvent(s, &re, &im).unwrap(),
        ] {
            let (xr, xi) = cache_solve;
            // Residual of (sI − G)(xr + i·xi) = re + i·im.
            let mut res_re = g.matvec(&xr);
            res_re.scale_mut(-1.0);
            res_re.axpy(s.re, &xr);
            res_re.axpy(-s.im, &xi);
            res_re.axpy(-1.0, &re);
            let mut res_im = g.matvec(&xi);
            res_im.scale_mut(-1.0);
            res_im.axpy(s.re, &xi);
            res_im.axpy(s.im, &xr);
            res_im.axpy(-1.0, &im);
            assert!(
                res_re.norm_inf() < 1e-10 && res_im.norm_inf() < 1e-10,
                "resolvent residual {:.3e}/{:.3e}",
                res_re.norm_inf(),
                res_im.norm_inf()
            );
        }
        // A direct complex solve at λ = −s is a cache *hit*: the factor is
        // shared with the resolvent entry.
        let hits = dense.hits();
        dense.solve_shifted_complex(-s, &re, &im).unwrap();
        assert_eq!(dense.hits(), hits + 1);
        let hits = sparse.hits();
        sparse.solve_resolvent(s, &re, &im).unwrap();
        assert_eq!(sparse.hits(), hits + 1);
    }

    #[test]
    fn clone_carries_cached_factors() {
        let cache = dense(&base());
        let rhs = Vector::from_slice(&[1.0, 2.0, 3.0]);
        cache.solve_shifted(0.7, &rhs).unwrap();
        let cloned = cache.clone();
        assert_eq!(cloned.len(), 1);
        cloned.solve_shifted(0.7, &rhs).unwrap();
        assert_eq!(cloned.hits(), 1);
    }
}
