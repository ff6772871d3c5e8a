//! Memoized LU factorizations of shifted matrices `(G + σI)` / `(G + λI)`.
//!
//! The associated-transform moment recursions solve against the *same* base
//! matrix `G₁` over and over, with shifts drawn from a small fixed set (the
//! eigenvalues of a Schur factor walked by the Bartels–Stewart
//! back-substitution, plus `σ = 0` for the expansion point itself). Before
//! this cache existed every such solve cloned `G₁` and refactorized it;
//! [`ShiftedLuCache`] keys the LU factors by the shift's bit pattern (with
//! the one normalization that both IEEE zero encodings, `+0.0` and `-0.0`,
//! share a single entry — they denote the same shifted matrix) so each
//! distinct shift is factored exactly once per operator lifetime.
//!
//! [`ShiftedSparseLuCache`] is the structurally sparse twin: one symbolic
//! analysis (fill-reducing ordering) is computed for the base pattern and
//! every shift is a *numeric-only* refactorization through
//! [`crate::sparse_lu::SparseLu`]. Key quantization and the hit/miss
//! accounting are identical on both backends, so cache statistics can be
//! compared across backends one-for-one. The sparse cache additionally
//! supports an LRU capacity bound
//! ([`ShiftedSparseLuCache::with_capacity_bound`]): ADI sweeps generate many
//! one-shot shifts, and without a bound every factor would be retained for
//! the operator's lifetime; evictions are counted
//! ([`ShiftedSparseLuCache::evictions`]).
//!
//! [`ShiftCache`] holds one of the two, picked once from a
//! [`SolverBackend`] and the CSR stamp; it is the type every consumer of
//! memoized shifted solves (the structured block operator, the low-rank
//! engine, the band sampler) holds.
//!
//! The caches are `Sync` (mutex-guarded maps, `Arc`-shared factors) so
//! moment chains running on scoped threads can share one instance. The
//! dense cache keeps a passthrough mode ([`ShiftedLuCache::new_uncached`])
//! that factors afresh on every solve, reached only through
//! `BlockH2Op::with_kron(.., false)` in `vamor-core`.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use vamor_obs::{span, CounterHandle};

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::lu::LuDecomposition;
use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;
use crate::sparse_lu::{
    SolverBackend, SparseLu, SparseLuSymbolic, SparseZLu, SPARSE_AUTO_THRESHOLD,
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
fn shift_key(v: f64) -> u64 {
    if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    }
}

/// LRU-stamped map of cached real-shift factors.
type RealLruMap = HashMap<u64, LruEntry<Arc<SparseLu>>>;
/// LRU-stamped map of cached complex-shift factors.
type ComplexLruMap = HashMap<(u64, u64), LruEntry<Arc<SparseZLu>>>;

/// A cached factor stamped with its last-use tick (for LRU eviction).
#[derive(Debug, Clone)]
struct LruEntry<T> {
    value: T,
    last_used: usize,
}

/// A cache of LU factorizations of `base + shift·I`, keyed by shift.
///
/// ```
/// use vamor_linalg::{Matrix, ShiftedLuCache, Vector};
/// # fn main() -> Result<(), vamor_linalg::LinalgError> {
/// let g = Matrix::from_rows(&[&[-2.0, 1.0], &[0.0, -3.0]])?;
/// let cache = ShiftedLuCache::new(g.clone());
/// let b = Vector::from_slice(&[1.0, 2.0]);
/// let x1 = cache.solve_shifted(0.5, &b)?;
/// let x2 = cache.solve_shifted(0.5, &b)?; // served from the cache
/// assert_eq!(x1.as_slice(), x2.as_slice());
/// assert_eq!(cache.misses(), 1);
/// assert_eq!(cache.hits(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShiftedLuCache {
    base: Matrix,
    enabled: bool,
    real: Mutex<HashMap<u64, Arc<LuDecomposition>>>,
    complex: Mutex<HashMap<(u64, u64), Arc<ZLuDecomposition>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    metrics: CacheCounters,
}

/// Registry handles mirroring the per-instance hit/miss counters into the
/// process-wide metrics registry (`shift_cache.dense.*` /
/// `shift_cache.sparse.*`). Resolved once at cache construction so the hot
/// paths pay one relaxed atomic add, never a registry lookup.
#[derive(Clone)]
struct CacheCounters {
    hits: CounterHandle,
    misses: CounterHandle,
    evictions: CounterHandle,
}

impl CacheCounters {
    fn dense() -> Self {
        CacheCounters {
            hits: vamor_obs::counter("shift_cache.dense.hits"),
            misses: vamor_obs::counter("shift_cache.dense.misses"),
            evictions: vamor_obs::counter("shift_cache.dense.evictions"),
        }
    }

    fn sparse() -> Self {
        CacheCounters {
            hits: vamor_obs::counter("shift_cache.sparse.hits"),
            misses: vamor_obs::counter("shift_cache.sparse.misses"),
            evictions: vamor_obs::counter("shift_cache.sparse.evictions"),
        }
    }
}

impl fmt::Debug for CacheCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheCounters").finish_non_exhaustive()
    }
}

impl ShiftedLuCache {
    /// Creates a cache over the given base matrix.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not square.
    pub fn new(base: Matrix) -> Self {
        Self::with_mode(base, true)
    }

    /// Creates a passthrough instance that factors afresh on every solve
    /// (the behaviour of `BlockH2Op::with_kron(.., false)`).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not square.
    pub fn new_uncached(base: Matrix) -> Self {
        Self::with_mode(base, false)
    }

    fn with_mode(base: Matrix, enabled: bool) -> Self {
        assert!(
            base.is_square(),
            "ShiftedLuCache requires a square base matrix"
        );
        ShiftedLuCache {
            base,
            enabled,
            real: Mutex::new(HashMap::new()),
            complex: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            metrics: CacheCounters::dense(),
        }
    }

    /// Locks the real-shift map, recovering from mutex poisoning: factors
    /// are built *outside* the lock and entries are only ever inserted
    /// whole, so a map observed after a sibling worker's panic is still
    /// internally consistent — discarding it would only throw away valid
    /// factorizations.
    ///
    /// This is also the single sanctioned real-map acquisition point for the
    /// `lock-discipline` lint (lock order: real before complex).
    fn lock_real(&self) -> MutexGuard<'_, HashMap<u64, Arc<LuDecomposition>>> {
        self.real.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Complex-map twin of [`ShiftedLuCache::lock_real`]; must never be held
    /// when `lock_real` is called (lock order: real before complex).
    fn lock_complex(&self) -> MutexGuard<'_, HashMap<(u64, u64), Arc<ZLuDecomposition>>> {
        self.complex.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The base matrix `G`.
    pub fn base(&self) -> &Matrix {
        &self.base
    }

    /// Dimension of the base matrix.
    pub fn dim(&self) -> usize {
        self.base.rows()
    }

    /// True when memoization is active (false for the passthrough mode).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of solves served from cached factors.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of fresh factorizations performed.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct cached factorizations (real + complex).
    pub fn len(&self) -> usize {
        self.lock_real().len() + self.lock_complex().len()
    }

    /// True if nothing has been factored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of the cache (base matrix plus every
    /// retained factorization) — the unit the session memory-budget governor
    /// accounts in. Dense factors are exact up to bookkeeping; this is a
    /// sizing estimate, not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        let n = self.dim();
        let dense = n * n * std::mem::size_of::<f64>();
        let real_entries = self.lock_real().len();
        let complex_entries = self.lock_complex().len();
        dense + real_entries * dense + complex_entries * 2 * dense
    }

    fn shifted(&self, sigma: f64) -> Matrix {
        let mut m = self.base.clone();
        for i in 0..m.rows() {
            m[(i, i)] += sigma;
        }
        m
    }

    fn shifted_complex(&self, lambda: Complex) -> ZMatrix {
        let mut m = ZMatrix::from_real(&self.base);
        for i in 0..self.base.rows() {
            m[(i, i)] += lambda;
        }
        m
    }

    /// The LU factorization of `base + σI`, computed at most once per shift.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the shifted matrix is singular.
    pub fn factor(&self, sigma: f64) -> Result<Arc<LuDecomposition>> {
        if !self.enabled {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.metrics.misses.inc();
            let _span = span!("shift_factor_dense");
            return Ok(Arc::new(self.shifted(sigma).lu()?));
        }
        let key = shift_key(sigma);
        if let Some(lu) = self.lock_real().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.hits.inc();
            return Ok(Arc::clone(lu));
        }
        // Factor OUTSIDE the lock: holding the map mutex across an O(n³)
        // factorization would serialize the parallel moment chains during
        // their warm-up sweep over the spectrum. A racing thread may factor
        // the same shift concurrently; both produce identical factors and the
        // first insert wins.
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.inc();
        let lu = {
            let _span = span!("shift_factor_dense");
            Arc::new(self.shifted(sigma).lu()?)
        };
        let mut map = self.lock_real();
        Ok(Arc::clone(map.entry(key).or_insert(lu)))
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
        self.factor(sigma)?.solve(rhs)
    }

    /// The LU factorization of `base + λI` for a complex shift.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the shifted matrix is singular.
    pub fn factor_complex(&self, lambda: Complex) -> Result<Arc<ZLuDecomposition>> {
        if !self.enabled {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.metrics.misses.inc();
            let _span = span!("shift_factor_dense");
            return Ok(Arc::new(self.shifted_complex(lambda).lu()?));
        }
        let key = (shift_key(lambda.re), shift_key(lambda.im));
        if let Some(lu) = self.lock_complex().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.hits.inc();
            return Ok(Arc::clone(lu));
        }
        // Factor outside the lock (see `factor` for the rationale).
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.inc();
        let lu = {
            let _span = span!("shift_factor_dense");
            Arc::new(self.shifted_complex(lambda).lu()?)
        };
        let mut map = self.lock_complex();
        Ok(Arc::clone(map.entry(key).or_insert(lu)))
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
        let lu = self.factor_complex(lambda)?;
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

    /// Solves the *resolvent* system `(sI − base) x = re + i·im`.
    ///
    /// The factorization is the cached `(base + λI)` entry with `λ = −s`, so
    /// transfer-function samplers hitting the same frequencies as the
    /// Bartels–Stewart eigenvalue walks share their factors — and every
    /// repeated frequency of a band sweep is factored exactly once.
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

impl Clone for ShiftedLuCache {
    /// Snapshots the cached factors. Cloning recovers from a poisoned map
    /// (a sibling worker panicked while holding a guard) instead of
    /// propagating the panic: entries are only ever inserted whole, so the
    /// snapshot is always a consistent — if possibly slightly stale — view.
    fn clone(&self) -> Self {
        ShiftedLuCache {
            base: self.base.clone(),
            enabled: self.enabled,
            real: Mutex::new(self.lock_real().clone()),
            complex: Mutex::new(self.lock_complex().clone()),
            hits: AtomicUsize::new(self.hits()),
            misses: AtomicUsize::new(self.misses()),
            metrics: self.metrics.clone(),
        }
    }
}

/// The sparse twin of [`ShiftedLuCache`]: memoized [`SparseLu`] /
/// [`SparseZLu`] factorizations of `base + σI` / `base + λI` over a CSR base
/// matrix. One symbolic analysis (fill-reducing ordering of the base
/// pattern) is shared by every shift — each cache miss is a numeric-only
/// refactorization.
///
/// Shift-key quantization and hit/miss accounting are deliberately identical
/// to the dense cache: running the same solve sequence against either
/// backend produces the same `hits()` / `misses()` / `len()` trajectory.
///
/// ```
/// use vamor_linalg::{CooMatrix, ShiftedSparseLuCache, Vector};
/// # fn main() -> Result<(), vamor_linalg::LinalgError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, -2.0);
/// coo.push(0, 1, 1.0);
/// coo.push(1, 1, -3.0);
/// let cache = ShiftedSparseLuCache::new(coo.to_csr());
/// let b = Vector::from_slice(&[1.0, 2.0]);
/// let x1 = cache.solve_shifted(0.5, &b)?;
/// let x2 = cache.solve_shifted(0.5, &b)?; // served from the cache
/// assert_eq!(x1.as_slice(), x2.as_slice());
/// assert_eq!((cache.misses(), cache.hits()), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShiftedSparseLuCache {
    base: CsrMatrix,
    symbolic: Arc<SparseLuSymbolic>,
    real: Mutex<RealLruMap>,
    complex: Mutex<ComplexLruMap>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Maximum number of cached factorizations (real + complex combined).
    /// `None` = unbounded (the historical behaviour).
    capacity: Option<usize>,
    /// Logical clock driving least-recently-used eviction.
    tick: AtomicUsize,
    evictions: AtomicUsize,
    metrics: CacheCounters,
}

impl ShiftedSparseLuCache {
    /// Creates a cache over the given base matrix, running the symbolic
    /// analysis once.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not square (use [`ShiftedSparseLuCache::try_new`]
    /// for a typed error instead).
    pub fn new(base: CsrMatrix) -> Self {
        Self::try_new(base)
            // vamor: allow(panic-freedom, reason = "doc-stated panic contract of `new` on a non-square base; `try_new` is the typed-error path")
            .expect("ShiftedSparseLuCache requires a square base matrix")
    }

    /// Fallible twin of [`ShiftedSparseLuCache::new`] for callers handling
    /// user-supplied systems: a non-square base is a typed error, not a
    /// panic.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `base` is not square.
    pub fn try_new(base: CsrMatrix) -> Result<Self> {
        let symbolic = Arc::new(SparseLuSymbolic::analyze(&base)?);
        Ok(ShiftedSparseLuCache {
            base,
            symbolic,
            real: Mutex::new(HashMap::new()),
            complex: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            capacity: None,
            tick: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            metrics: CacheCounters::sparse(),
        })
    }

    /// Bounds the number of retained factorizations (real + complex combined)
    /// and evicts least-recently-used entries beyond it. ADI shift sweeps
    /// generate many one-shot shifts; without a bound the cache holds every
    /// factor for the operator's lifetime. A capacity of 0 is clamped to 1.
    pub fn with_capacity_bound(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// The configured capacity bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of factorizations evicted by the LRU capacity bound.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    fn next_tick(&self) -> usize {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Evicts least-recently-used entries until the combined map size fits
    /// the capacity bound. Both maps must be passed locked so the combined
    /// size is consistent.
    fn enforce_capacity(&self, real: &mut RealLruMap, complex: &mut ComplexLruMap) {
        let Some(cap) = self.capacity else { return };
        while real.len() + complex.len() > cap {
            let oldest_real = real
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (*k, e.last_used));
            let oldest_complex = complex
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (*k, e.last_used));
            match (oldest_real, oldest_complex) {
                (Some((rk, rt)), Some((_, ct))) if rt <= ct => {
                    real.remove(&rk);
                }
                (Some(_), Some((ck, _))) => {
                    complex.remove(&ck);
                }
                (Some((rk, _)), None) => {
                    real.remove(&rk);
                }
                (None, Some((ck, _))) => {
                    complex.remove(&ck);
                }
                (None, None) => break,
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.metrics.evictions.inc();
        }
    }

    /// Locks the real-shift map, recovering from mutex poisoning (see
    /// [`ShiftedLuCache::lock_real`]: factors are built outside the lock and
    /// inserted whole, so a post-panic map is still consistent). The single
    /// sanctioned real-map acquisition point for the `lock-discipline` lint;
    /// lock order is real before complex.
    fn lock_real(&self) -> MutexGuard<'_, RealLruMap> {
        self.real.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Complex-map twin of [`ShiftedSparseLuCache::lock_real`]; must never
    /// be held when `lock_real` is called (lock order: real before complex).
    fn lock_complex(&self) -> MutexGuard<'_, ComplexLruMap> {
        self.complex.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The base matrix `G`.
    pub fn base(&self) -> &CsrMatrix {
        &self.base
    }

    /// The shared symbolic analysis.
    pub fn symbolic(&self) -> &Arc<SparseLuSymbolic> {
        &self.symbolic
    }

    /// Dimension of the base matrix.
    pub fn dim(&self) -> usize {
        self.base.rows()
    }

    /// Number of solves served from cached factors.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of fresh (numeric) factorizations performed.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct cached factorizations (real + complex).
    pub fn len(&self) -> usize {
        self.lock_real().len() + self.lock_complex().len()
    }

    /// True if nothing has been factored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of the cache (base + symbolic analysis +
    /// retained numeric factors, sized from the base sparsity with a nominal
    /// 4× fill factor) — the unit the session memory-budget governor
    /// accounts in. An estimate for eviction ordering, not an allocator
    /// measurement.
    pub fn approx_bytes(&self) -> usize {
        let n = self.dim();
        let per_factor = (self.base.nnz() * 4 + 2 * n)
            * (std::mem::size_of::<f64>() + std::mem::size_of::<usize>());
        let base = self.base.nnz() * (std::mem::size_of::<f64>() + std::mem::size_of::<usize>());
        let real_entries = self.lock_real().len();
        let complex_entries = self.lock_complex().len();
        base + per_factor + real_entries * per_factor + complex_entries * 2 * per_factor
    }

    /// The sparse LU of `base + σI`, computed (numerically) at most once per
    /// shift.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the shifted matrix is singular.
    pub fn factor(&self, sigma: f64) -> Result<Arc<SparseLu>> {
        let key = shift_key(sigma);
        if let Some(entry) = self.lock_real().get_mut(&key) {
            entry.last_used = self.next_tick();
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.hits.inc();
            return Ok(Arc::clone(&entry.value));
        }
        // Factor outside the lock (see `ShiftedLuCache::factor`).
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.inc();
        let lu = {
            let _span = span!("shift_factor_sparse");
            Arc::new(SparseLu::factor_shifted(&self.symbolic, &self.base, sigma)?)
        };
        let tick = self.next_tick();
        // Lock order real → complex everywhere capacity is enforced.
        let mut real = self.lock_real();
        let arc = Arc::clone(
            &real
                .entry(key)
                .or_insert(LruEntry {
                    value: lu,
                    last_used: tick,
                })
                .value,
        );
        if self.capacity.is_some() {
            let mut complex = self.lock_complex();
            self.enforce_capacity(&mut real, &mut complex);
        }
        Ok(arc)
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
        self.factor(sigma)?.solve(rhs)
    }

    /// The sparse LU of `base + λI` for a complex shift.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the shifted matrix is singular.
    pub fn factor_complex(&self, lambda: Complex) -> Result<Arc<SparseZLu>> {
        let key = (shift_key(lambda.re), shift_key(lambda.im));
        if let Some(entry) = self.lock_complex().get_mut(&key) {
            entry.last_used = self.next_tick();
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.hits.inc();
            return Ok(Arc::clone(&entry.value));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.inc();
        let lu = {
            let _span = span!("shift_factor_sparse");
            Arc::new(SparseZLu::factor_shifted(
                &self.symbolic,
                &self.base,
                lambda,
            )?)
        };
        let tick = self.next_tick();
        let insert = |complex: &mut ComplexLruMap| {
            Arc::clone(
                &complex
                    .entry(key)
                    .or_insert(LruEntry {
                        value: lu,
                        last_used: tick,
                    })
                    .value,
            )
        };
        if self.capacity.is_some() {
            // Lock order real → complex, matching `factor` — only eviction
            // needs the combined view.
            let mut real = self.lock_real();
            let mut complex = self.lock_complex();
            let arc = insert(&mut complex);
            self.enforce_capacity(&mut real, &mut complex);
            Ok(arc)
        } else {
            // Unbounded mode never touches the real map, so complex
            // factorizations cannot contend with concurrent real-shift hits.
            let mut complex = self.lock_complex();
            Ok(insert(&mut complex))
        }
    }

    /// Solves `(base + λI)(x_re + i·x_im) = re + i·im`.
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
                "sparse shifted complex solve: rhs lengths {}/{} for dimension {}",
                re.len(),
                im.len(),
                self.dim()
            )));
        }
        #[cfg(feature = "fault-injection")]
        if let Some(injected) = injected_complex_solve(re, im) {
            return injected;
        }
        self.factor_complex(lambda)?.solve_parts(re, im)
    }

    /// Solves the resolvent system `(sI − base) x = re + i·im` through the
    /// cached `(base − sI)` factor (see [`ShiftedLuCache::solve_resolvent`] —
    /// key quantization is identical on both backends).
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
        xr.scale_mut(-1.0);
        xi.scale_mut(-1.0);
        Ok((xr, xi))
    }
}

impl Clone for ShiftedSparseLuCache {
    /// Snapshots the cached factors, recovering from a poisoned map instead
    /// of propagating a sibling worker's panic (see
    /// [`ShiftedLuCache::clone`]).
    fn clone(&self) -> Self {
        ShiftedSparseLuCache {
            base: self.base.clone(),
            symbolic: Arc::clone(&self.symbolic),
            real: Mutex::new(self.lock_real().clone()),
            complex: Mutex::new(self.lock_complex().clone()),
            hits: AtomicUsize::new(self.hits()),
            misses: AtomicUsize::new(self.misses()),
            capacity: self.capacity,
            tick: AtomicUsize::new(self.tick.load(Ordering::Relaxed)),
            evictions: AtomicUsize::new(self.evictions()),
            metrics: self.metrics.clone(),
        }
    }
}

/// One memoized shifted-solve cache over a `G₁` stamp, in the backend a
/// [`SolverBackend`] picks for its dimension: a [`ShiftedSparseLuCache`]
/// over the CSR stamp, or a [`ShiftedLuCache`] over its dense view (built
/// only in dense mode, so 10⁴-state systems never allocate it). Key
/// quantization and hit/miss accounting are identical on both backends.
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
#[derive(Debug, Clone)]
pub enum ShiftCache {
    /// Dense LU per shift over the dense view of the stamp.
    Dense(ShiftedLuCache),
    /// One symbolic analysis of the stamp, numeric refactorization per shift.
    Sparse(ShiftedSparseLuCache),
}

impl ShiftCache {
    /// Builds the cache over `stamp`, sparse when `backend` resolves to
    /// sparse at this dimension ([`SPARSE_AUTO_THRESHOLD`] for `Auto`).
    ///
    /// # Panics
    ///
    /// Panics if `stamp` is not square.
    pub fn new(stamp: &CsrMatrix, backend: SolverBackend) -> Self {
        if backend.use_sparse(stamp.rows(), SPARSE_AUTO_THRESHOLD) {
            ShiftCache::Sparse(ShiftedSparseLuCache::new(stamp.clone()))
        } else {
            ShiftCache::Dense(ShiftedLuCache::new(stamp.to_dense()))
        }
    }

    /// Bounds the number of retained sparse factorizations (see
    /// [`ShiftedSparseLuCache::with_capacity_bound`]); a dense cache stays
    /// unbounded.
    pub fn with_capacity_bound(self, capacity: usize) -> Self {
        match self {
            ShiftCache::Sparse(c) => ShiftCache::Sparse(c.with_capacity_bound(capacity)),
            dense => dense,
        }
    }

    /// True when this is the sparse backend.
    pub fn is_sparse(&self) -> bool {
        matches!(self, ShiftCache::Sparse(_))
    }

    /// Dimension of the base matrix.
    pub fn dim(&self) -> usize {
        match self {
            ShiftCache::Dense(c) => c.dim(),
            ShiftCache::Sparse(c) => c.dim(),
        }
    }

    /// Applies the base matrix: `y = G x`.
    pub fn apply(&self, x: &Vector) -> Vector {
        match self {
            ShiftCache::Dense(c) => c.base().matvec(x),
            ShiftCache::Sparse(c) => c.base().matvec(x),
        }
    }

    /// Number of solves served from cached factors.
    pub fn hits(&self) -> usize {
        match self {
            ShiftCache::Dense(c) => c.hits(),
            ShiftCache::Sparse(c) => c.hits(),
        }
    }

    /// Number of fresh factorizations performed.
    pub fn misses(&self) -> usize {
        match self {
            ShiftCache::Dense(c) => c.misses(),
            ShiftCache::Sparse(c) => c.misses(),
        }
    }

    /// Number of distinct cached factorizations (real + complex).
    pub fn len(&self) -> usize {
        match self {
            ShiftCache::Dense(c) => c.len(),
            ShiftCache::Sparse(c) => c.len(),
        }
    }

    /// True if nothing has been factored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes (base plus retained factors).
    pub fn approx_bytes(&self) -> usize {
        match self {
            ShiftCache::Dense(c) => c.approx_bytes(),
            ShiftCache::Sparse(c) => c.approx_bytes(),
        }
    }

    /// Factors `base + σI` into the cache (at most once per shift).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the shifted matrix is singular.
    pub fn factor(&self, sigma: f64) -> Result<()> {
        match self {
            ShiftCache::Dense(c) => c.factor(sigma).map(|_| ()),
            ShiftCache::Sparse(c) => c.factor(sigma).map(|_| ()),
        }
    }

    /// Solves `(base + σI) x = rhs` through the cache.
    ///
    /// # Errors
    ///
    /// Propagates singular pencils and dimension mismatches.
    pub fn solve_shifted(&self, sigma: f64, rhs: &Vector) -> Result<Vector> {
        match self {
            ShiftCache::Dense(c) => c.solve_shifted(sigma, rhs),
            ShiftCache::Sparse(c) => c.solve_shifted(sigma, rhs),
        }
    }

    /// Solves `(base + λI)(x_re + i·x_im) = re + i·im`.
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
        match self {
            ShiftCache::Dense(c) => c.solve_shifted_complex(lambda, re, im),
            ShiftCache::Sparse(c) => c.solve_shifted_complex(lambda, re, im),
        }
    }

    /// Solves the resolvent system `(sI − base) x = re + i·im` (see
    /// [`ShiftedLuCache::solve_resolvent`]).
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
        match self {
            ShiftCache::Dense(c) => c.solve_resolvent(s, re, im),
            ShiftCache::Sparse(c) => c.solve_resolvent(s, re, im),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Matrix {
        Matrix::from_rows(&[&[-2.0, 0.7, 0.0], &[0.1, -3.0, 0.4], &[0.0, 0.2, -1.5]]).unwrap()
    }

    #[test]
    fn cached_and_fresh_real_solves_agree() {
        let g = base();
        let cache = ShiftedLuCache::new(g.clone());
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
        let cache = ShiftedLuCache::new(g.clone());
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

    #[test]
    fn passthrough_mode_never_caches() {
        let cache = ShiftedLuCache::new_uncached(base());
        let rhs = Vector::from_slice(&[1.0, 0.0, 0.0]);
        cache.solve_shifted(0.5, &rhs).unwrap();
        cache.solve_shifted(0.5, &rhs).unwrap();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert!(cache.is_empty());
        assert!(!cache.is_enabled());
    }

    #[test]
    fn negative_zero_shift_shares_the_zero_entry() {
        let cache = ShiftedLuCache::new(base());
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
        let cache = ShiftedLuCache::new(g);
        let rhs = Vector::from_slice(&[1.0, 1.0]);
        assert!(cache.solve_shifted(2.0, &rhs).is_err());
        assert!(cache.is_empty());
    }

    fn base_csr() -> CsrMatrix {
        CsrMatrix::from_dense(&base(), 0.0)
    }

    /// The satellite guarantee: both backends quantize shift keys the same
    /// way, so an identical solve sequence produces identical hit/miss/len
    /// statistics.
    #[test]
    fn sparse_and_dense_caches_count_hits_and_misses_identically() {
        let dense = ShiftedLuCache::new(base());
        let sparse = ShiftedSparseLuCache::new(base_csr());
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
        let cache = ShiftedSparseLuCache::new(CsrMatrix::from_dense(&g, 0.0));
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
        let cache = ShiftedSparseLuCache::new(base_csr()).with_capacity_bound(2);
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
        let cache = ShiftedSparseLuCache::new(base_csr());
        assert_eq!(cache.capacity(), None);
        let rhs = Vector::from_slice(&[1.0, 1.0, 1.0]);
        for sigma in [0.0, 0.25, 0.5, 0.75, 1.0] {
            cache.solve_shifted(sigma, &rhs).unwrap();
        }
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.dim(), 3);
        assert_eq!(cache.base().rows(), 3);
        assert_eq!(cache.symbolic().dim(), 3);
    }

    #[test]
    fn shift_cache_picks_the_backend_from_the_stamp() {
        let csr = base_csr();
        let rhs = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let dense = ShiftCache::new(&csr, SolverBackend::Auto);
        let sparse = ShiftCache::new(&csr, SolverBackend::Sparse).with_capacity_bound(1);
        assert!(!dense.is_sparse() && sparse.is_sparse());
        assert_eq!((dense.dim(), sparse.dim()), (3, 3));
        for sigma in [0.0, 0.3, 0.0] {
            let a = dense.solve_shifted(sigma, &rhs).unwrap();
            let b = sparse.solve_shifted(sigma, &rhs).unwrap();
            assert!((&a - &b).norm_inf() < 1e-10);
        }
        // The bound applies to the sparse cache only: 0.0 was evicted by 0.3.
        assert_eq!((dense.hits(), dense.misses(), dense.len()), (1, 2, 2));
        assert_eq!((sparse.hits(), sparse.misses(), sparse.len()), (0, 3, 1));
        assert!(dense.approx_bytes() > 0 && sparse.approx_bytes() > 0);
        assert!((&dense.apply(&rhs) - &base().matvec(&rhs)).norm_inf() == 0.0);
    }

    /// The PR-5 reuse hook: resolvent solves go through the same complex
    /// `(G + λI)` entries (keyed at `λ = −s`), on both backends.
    #[test]
    fn resolvent_solves_share_the_shifted_complex_entries() {
        let g = base();
        let dense = ShiftedLuCache::new(g.clone());
        let sparse = ShiftedSparseLuCache::new(base_csr());
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
        let cache = ShiftedLuCache::new(base());
        let rhs = Vector::from_slice(&[1.0, 2.0, 3.0]);
        cache.solve_shifted(0.7, &rhs).unwrap();
        let cloned = cache.clone();
        assert_eq!(cloned.len(), 1);
        cloned.solve_shifted(0.7, &rhs).unwrap();
        assert_eq!(cloned.hits(), 1);
    }
}
