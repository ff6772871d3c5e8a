//! Multivariate Volterra transfer functions of polynomial systems.
//!
//! These are the frequency-domain objects the paper starts from (Eq. 14,
//! derived by harmonic probing / growing exponentials):
//!
//! ```text
//! H₁(s)          = (sI − G₁)⁻¹ b
//! H₂(s₁,s₂)      = ½ ((s₁+s₂)I − G₁)⁻¹ { G₂ [H₁(s₁)⊗H₁(s₂) + H₁(s₂)⊗H₁(s₁)]
//!                                        + D₁ (H₁(s₁) + H₁(s₂)) }
//! H₃(s₁,s₂,s₃)   = ⅓ ((s₁+s₂+s₃)I − G₁)⁻¹ { G₂ [sym(H₁ ⊗ H₂)] + D₁ [sym(H₂)]
//!                                          + G₃ [sym(H₁ ⊗ H₁ ⊗ H₁)] }
//! ```
//!
//! The `G₂`/`D₁` terms are evaluated only when the system has a quadratic
//! part, the `G₃` term only when it has a cubic one.
//!
//! They serve as the ground truth for validating the associated-transform
//! machinery and the reduced-order models: a correct reduction reproduces the
//! output-level values of these kernels near the expansion point.

use vamor_linalg::{Complex, CsrMatrix, Matrix, ShiftCache, Vector, ZMatrix, ZVector};
use vamor_system::Qldae;

use crate::error::MorError;
use crate::Result;

/// How the kernel evaluators solve the resolvent systems `(sI − G₁) x = r`.
///
/// `Dense` rebuilds and factors the shifted complex matrix per call — the
/// brute-force reference. `Cached` routes every solve through a
/// [`ShiftCache`] over `G₁` ([`ShiftCache::solve_resolvent`]), so a band
/// sweep hitting the same frequencies over and over factors each one exactly
/// once — and shares the complex `(G₁ + λI)` entries with any moment
/// machinery holding the same cache.
#[derive(Debug)]
enum Resolvent<'a> {
    Dense(&'a Matrix),
    Cached(&'a ShiftCache),
}

impl Resolvent<'_> {
    fn solve(&self, s: Complex, rhs: &ZVector) -> Result<ZVector> {
        match self {
            Resolvent::Dense(g1) => {
                let m = ZMatrix::shifted_identity_minus(s, g1);
                m.solve(rhs).map_err(MorError::Linalg)
            }
            Resolvent::Cached(cache) => {
                let (re, im) = cache
                    .solve_resolvent(s, &rhs.real(), &rhs.imag())
                    .map_err(MorError::Linalg)?;
                Ok(ZVector::from_parts(&re, &im))
            }
        }
    }
}

/// Shared guard of the cache-backed constructors: the memoized cache must be
/// built over this system's `G₁`.
fn check_cache_dim(cache_dim: usize, n: usize) -> Result<()> {
    if cache_dim != n {
        return Err(MorError::Invalid(format!(
            "resolvent cache of dimension {cache_dim} for a {n}-state system"
        )));
    }
    Ok(())
}

/// Evaluator for the first three Volterra transfer functions of a
/// polynomial system, with all frequencies referring to a single chosen
/// input channel. The symmetrized couplings `G₂ (a⊗b + b⊗a)` and
/// `G₃ Σ_σ (a⊗b⊗c)` go through [`Qldae::symmetric_quadratic`] and
/// [`Qldae::symmetric_cubic`], so the `n²`/`n³` vectors are never formed: a
/// ROM's dense couplings are read in their symmetric-packed form (one
/// coefficient and one complex axpy per monomial), a sparse full model's
/// through the structured CSR Kronecker matvecs on the real/imaginary split.
#[derive(Debug)]
pub struct VolterraKernels<'a> {
    qldae: &'a Qldae,
    input: usize,
    resolvent: Resolvent<'a>,
}

impl<'a> VolterraKernels<'a> {
    /// Creates an evaluator for input channel `input` (dense per-call
    /// resolvent factorizations — the brute-force reference).
    ///
    /// # Errors
    ///
    /// Returns [`MorError::Invalid`] if the input index is out of range.
    pub fn new(qldae: &'a Qldae, input: usize) -> Result<Self> {
        Self::check_input(qldae, input)?;
        Ok(VolterraKernels {
            qldae,
            input,
            resolvent: Resolvent::Dense(qldae.g1()),
        })
    }

    /// Creates an evaluator whose resolvent solves go through a memoized
    /// shift cache over `G₁` (must be built on this system's `G₁`; a sparse
    /// cache never touches the dense `G₁` view — the 10⁴-state path).
    ///
    /// # Errors
    ///
    /// Returns [`MorError::Invalid`] for an out-of-range input or a cache of
    /// the wrong dimension.
    pub fn with_cache(qldae: &'a Qldae, input: usize, cache: &'a ShiftCache) -> Result<Self> {
        Self::check_input(qldae, input)?;
        check_cache_dim(cache.dim(), qldae.g1_csr().rows())?;
        Ok(VolterraKernels {
            qldae,
            input,
            resolvent: Resolvent::Cached(cache),
        })
    }

    fn check_input(qldae: &Qldae, input: usize) -> Result<()> {
        if input >= qldae.b().cols() {
            return Err(MorError::Invalid(format!(
                "input index {input} out of range for a {}-input system",
                qldae.b().cols()
            )));
        }
        Ok(())
    }

    fn n(&self) -> usize {
        self.qldae.g1_csr().rows()
    }

    fn b(&self) -> Vector {
        self.qldae.b().col(self.input)
    }

    fn d1(&self) -> Option<&CsrMatrix> {
        self.qldae.d1().get(self.input)
    }

    fn resolvent_solve(&self, s: Complex, rhs: &ZVector) -> Result<ZVector> {
        self.resolvent.solve(s, rhs)
    }

    /// First-order kernel `H₁(s)` (an `n`-vector).
    ///
    /// # Errors
    ///
    /// Returns an error if `sI − G₁` is singular at the requested frequency.
    pub fn h1(&self, s: Complex) -> Result<ZVector> {
        self.resolvent_solve(s, &ZVector::from_real(&self.b()))
    }

    /// Second-order kernel `H₂(s₁, s₂)` (an `n`-vector). The Kronecker
    /// products are applied through [`Qldae::symmetric_quadratic`] — the
    /// `n²` vector is never formed, so band sweeps stay affordable at
    /// 10⁴ states.
    ///
    /// # Errors
    ///
    /// Returns an error if any involved resolvent is singular.
    pub fn h2(&self, s1: Complex, s2: Complex) -> Result<ZVector> {
        self.h2_from(s1 + s2, &self.h1(s1)?, &self.h1(s2)?)
    }

    /// `H₂` at the frequency sum `s` from its two `H₁` samples.
    fn h2_from(&self, s: Complex, h1_a: &ZVector, h1_b: &ZVector) -> Result<ZVector> {
        let mut rhs = ZVector::zeros(self.n());
        self.qldae.symmetric_quadratic(h1_a, h1_b, &mut rhs);
        if let Some(d1) = self.d1() {
            let mut sum = h1_a.clone();
            zaxpy(&mut sum, Complex::ONE, h1_b);
            zaxpy(&mut rhs, Complex::ONE, &sparse_times_complex(d1, &sum));
        }
        let mut h2 = self.resolvent_solve(s, &rhs)?;
        h2.scale_mut(Complex::from_real(0.5));
        Ok(h2)
    }

    /// Third-order kernel `H₃(s₁, s₂, s₃)` (an `n`-vector): the
    /// `G₂`/`D₁`-mediated `H₁⊗H₂` terms when the system has a quadratic
    /// part, plus the direct cubic contribution
    /// `G₃ Σ_perms H₁(s_{σ1})⊗H₁(s_{σ2})⊗H₁(s_{σ3})` when it has a `G₃`.
    /// Each distinct frequency's `H₁` is solved once and serves all three
    /// `H₂` partners, so a sample costs at most three `H₁` solves, three
    /// `H₂` solves and the `H₃` solve.
    ///
    /// # Errors
    ///
    /// Returns an error if any involved resolvent is singular.
    pub fn h3(&self, s1: Complex, s2: Complex, s3: Complex) -> Result<ZVector> {
        let freqs = [s1, s2, s3];
        let mut h1: Vec<ZVector> = Vec::with_capacity(3);
        for (k, &s) in freqs.iter().enumerate() {
            let sample = match freqs[..k].iter().position(|&p| p == s) {
                Some(same) => h1[same].clone(),
                None => self.h1(s)?,
            };
            h1.push(sample);
        }
        let n = self.n();
        let mut rhs = ZVector::zeros(n);
        if self.qldae.has_quadratic() {
            let h2 = [
                self.h2_from(s2 + s3, &h1[1], &h1[2])?, // partner of s1
                self.h2_from(s1 + s3, &h1[0], &h1[2])?, // partner of s2
                self.h2_from(s1 + s2, &h1[0], &h1[1])?, // partner of s3
            ];
            for (h1k, h2k) in h1.iter().zip(&h2) {
                self.qldae.symmetric_quadratic(h1k, h2k, &mut rhs);
            }
            if let Some(d1) = self.d1() {
                for h2k in &h2 {
                    zaxpy(&mut rhs, Complex::ONE, &sparse_times_complex(d1, h2k));
                }
            }
        }
        // All six orderings of H₁(s₁)⊗H₁(s₂)⊗H₁(s₃).
        self.qldae.symmetric_cubic(&h1[0], &h1[1], &h1[2], &mut rhs);
        let mut h3 = self.resolvent_solve(s1 + s2 + s3, &rhs)?;
        h3.scale_mut(Complex::from_real(1.0 / 3.0));
        Ok(h3)
    }

    /// Output-level first-order response `C H₁(s)` (first output channel).
    ///
    /// # Errors
    ///
    /// See [`VolterraKernels::h1`].
    pub fn output_h1(&self, s: Complex) -> Result<Complex> {
        Ok(output_row(self.qldae.c(), &self.h1(s)?))
    }

    /// Output-level second-order response `C H₂(s₁, s₂)` (first output
    /// channel).
    ///
    /// # Errors
    ///
    /// See [`VolterraKernels::h2`].
    pub fn output_h2(&self, s1: Complex, s2: Complex) -> Result<Complex> {
        Ok(output_row(self.qldae.c(), &self.h2(s1, s2)?))
    }

    /// Output-level third-order response `C H₃(s₁, s₂, s₃)` (first output
    /// channel).
    ///
    /// # Errors
    ///
    /// See [`VolterraKernels::h3`].
    pub fn output_h3(&self, s1: Complex, s2: Complex, s3: Complex) -> Result<Complex> {
        Ok(output_row(self.qldae.c(), &self.h3(s1, s2, s3)?))
    }
}

/// Real sparse matrix times complex vector.
pub(crate) fn sparse_times_complex(m: &CsrMatrix, x: &ZVector) -> ZVector {
    ZVector::from_parts(&m.matvec(&x.real()), &m.matvec(&x.imag()))
}

fn zaxpy(y: &mut ZVector, alpha: Complex, x: &ZVector) {
    y.axpy(alpha, x);
}

fn output_row(c: &Matrix, x: &ZVector) -> Complex {
    let mut acc = Complex::ZERO;
    for j in 0..c.cols() {
        acc += Complex::from_real(c[(0, j)]) * x[j];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamor_linalg::CooMatrix;
    use vamor_system::QldaeBuilder;

    /// A scalar QLDAE x' = a x + g x² + d x u + b u with known analytic
    /// kernels:
    ///   H1(s) = b/(s-a)
    ///   H2(s1,s2) = [g H1(s1)H1(s2) + d (H1(s1)+H1(s2))/2] / (s1+s2-a)
    fn scalar_system(a: f64, g: f64, d: f64, b: f64) -> Qldae {
        QldaeBuilder::new(1, 1)
            .g1_entry(0, 0, a)
            .g2_entry(0, 0, 0, g)
            .d1_entry(0, 0, 0, d)
            .b_entry(0, 0, b)
            .output_state(0)
            .build()
            .unwrap()
    }

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + b.abs())
    }

    #[test]
    fn scalar_kernels_match_analytic_formulas() {
        let (a, g, d, b) = (-1.3, 0.7, 0.4, 2.0);
        let sys = scalar_system(a, g, d, b);
        let kern = VolterraKernels::new(&sys, 0).unwrap();
        let s1 = Complex::new(0.2, 0.5);
        let s2 = Complex::new(-0.1, 0.3);
        let h1 = |s: Complex| Complex::from_real(b) / (s - Complex::from_real(a));
        assert!(close(kern.output_h1(s1).unwrap(), h1(s1), 1e-12));
        let h2_expect = (Complex::from_real(g) * h1(s1) * h1(s2)
            + Complex::from_real(d) * (h1(s1) + h1(s2)) * Complex::from_real(0.5))
            / (s1 + s2 - Complex::from_real(a));
        assert!(close(kern.output_h2(s1, s2).unwrap(), h2_expect, 1e-12));
    }

    #[test]
    fn scalar_h3_matches_analytic_formula() {
        let (a, g, d, b) = (-0.8, 0.5, 0.0, 1.0);
        let sys = scalar_system(a, g, d, b);
        let kern = VolterraKernels::new(&sys, 0).unwrap();
        let s = [
            Complex::new(0.1, 0.2),
            Complex::new(0.05, -0.3),
            Complex::new(-0.2, 0.1),
        ];
        let h1 = |s: Complex| Complex::from_real(b) / (s - Complex::from_real(a));
        let h2 = |s1: Complex, s2: Complex| {
            Complex::from_real(g) * h1(s1) * h1(s2) / (s1 + s2 - Complex::from_real(a))
        };
        // H3 = (1/3) (s1+s2+s3-a)^{-1} * 2g * [H1(s1)H2(s2,s3)+H1(s2)H2(s1,s3)+H1(s3)H2(s1,s2)]
        let num = h1(s[0]) * h2(s[1], s[2]) + h1(s[1]) * h2(s[0], s[2]) + h1(s[2]) * h2(s[0], s[1]);
        let expect =
            Complex::from_real(2.0 * g / 3.0) * num / (s[0] + s[1] + s[2] - Complex::from_real(a));
        assert!(close(
            kern.output_h3(s[0], s[1], s[2]).unwrap(),
            expect,
            1e-12
        ));
    }

    #[test]
    fn scalar_cubic_h3_matches_analytic_formula() {
        // x' = a x + g x³ + b u:  H₃ = 2 g H₁(s₁)H₁(s₂)H₁(s₃)/(s₁+s₂+s₃ − a).
        let (a, g, b) = (-1.1, 0.6, 1.4);
        let mut g3 = CooMatrix::new(1, 1);
        g3.push(0, 0, g);
        let ode = QldaeBuilder::new(1, 1)
            .g1_entry(0, 0, a)
            .b_entry(0, 0, b)
            .output_state(0)
            .build()
            .unwrap()
            .with_g3(g3.to_csr())
            .unwrap();
        let kern = VolterraKernels::new(&ode, 0).unwrap();
        let s = [
            Complex::new(0.1, 0.3),
            Complex::new(-0.05, 0.2),
            Complex::new(0.02, -0.15),
        ];
        let h1 = |s: Complex| Complex::from_real(b) / (s - Complex::from_real(a));
        assert!(close(kern.output_h1(s[0]).unwrap(), h1(s[0]), 1e-12));
        assert!(close(
            kern.output_h2(s[0], s[1]).unwrap(),
            Complex::ZERO,
            1e-15
        ));
        let expect = Complex::from_real(2.0 * g) * h1(s[0]) * h1(s[1]) * h1(s[2])
            / (s[0] + s[1] + s[2] - Complex::from_real(a));
        assert!(close(
            kern.output_h3(s[0], s[1], s[2]).unwrap(),
            expect,
            1e-12
        ));
        // Cached resolvent variant agrees with the brute-force path.
        let cache = ShiftCache::new(ode.g1_csr(), vamor_linalg::SolverBackend::Auto);
        let cached = VolterraKernels::with_cache(&ode, 0, &cache).unwrap();
        assert!(close(
            cached.output_h3(s[0], s[1], s[2]).unwrap(),
            expect,
            1e-12
        ));
        assert!(cache.misses() > 0);
    }

    #[test]
    fn h2_is_symmetric_in_its_arguments() {
        let sys = {
            let mut g2 = CooMatrix::new(2, 4);
            g2.push(0, 1, 0.3);
            g2.push(1, 2, -0.2);
            Qldae::new(
                Matrix::from_rows(&[&[-1.0, 0.2], &[0.0, -2.0]]).unwrap(),
                g2.to_csr(),
                Vec::new(),
                Matrix::from_rows(&[&[1.0], &[0.5]]).unwrap(),
                Matrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
            )
            .unwrap()
        };
        let kern = VolterraKernels::new(&sys, 0).unwrap();
        let s1 = Complex::new(0.3, 1.0);
        let s2 = Complex::new(-0.2, 0.4);
        let a = kern.output_h2(s1, s2).unwrap();
        let b = kern.output_h2(s2, s1).unwrap();
        assert!(close(a, b, 1e-12));
        assert!(VolterraKernels::new(&sys, 1).is_err());
    }

    #[test]
    fn first_kernel_matches_lti_transfer_function() {
        let sys = scalar_system(-2.0, 0.3, 0.0, 1.5);
        let kern = VolterraKernels::new(&sys, 0).unwrap();
        let lti = sys.linearized().unwrap();
        let s = Complex::new(0.0, 2.0);
        let h_lti = lti.transfer_function(s).unwrap()[(0, 0)];
        assert!(close(kern.output_h1(s).unwrap(), h_lti, 1e-12));
    }

    fn zkron(a: &ZVector, b: &ZVector) -> ZVector {
        ZVector::from(
            a.iter()
                .flat_map(|&x| b.iter().map(move |&y| x * y))
                .collect::<Vec<_>>(),
        )
    }

    /// `M v` for a real CSR `M` and a complex `v`.
    fn zmatvec(m: &CsrMatrix, v: &ZVector) -> ZVector {
        ZVector::from_parts(&m.matvec(&v.real()), &m.matvec(&v.imag()))
    }

    /// `H₂`/`H₃` at `(s, s)`, `(s, −s)`, `(s, s, s)` and `(s, s, −s)` with
    /// every Kronecker vector formed explicitly and dense resolvents.
    fn explicit_kernels(q: &Qldae, s: Complex) -> Vec<ZVector> {
        let b = ZVector::from_real(&q.b().col(0));
        let d1 = q.d1().first();
        let solve = |s: Complex, rhs: &ZVector| {
            ZMatrix::shifted_identity_minus(s, q.g1())
                .solve(rhs)
                .unwrap()
        };
        let h1 = |s: Complex| solve(s, &b);
        let h2 = |s1: Complex, s2: Complex| {
            let (a, c) = (h1(s1), h1(s2));
            let mut rhs = zmatvec(q.g2(), &zkron(&a, &c));
            rhs.axpy(Complex::ONE, &zmatvec(q.g2(), &zkron(&c, &a)));
            if let Some(d1) = d1 {
                rhs.axpy(Complex::ONE, &zmatvec(d1, &a));
                rhs.axpy(Complex::ONE, &zmatvec(d1, &c));
            }
            let mut h = solve(s1 + s2, &rhs);
            h.scale_mut(Complex::from_real(0.5));
            h
        };
        let h3 = |s: [Complex; 3]| {
            let ones = [h1(s[0]), h1(s[1]), h1(s[2])];
            let twos = [h2(s[1], s[2]), h2(s[0], s[2]), h2(s[0], s[1])];
            let mut rhs = ZVector::zeros(q.g1().rows());
            for (a, c) in ones.iter().zip(&twos) {
                rhs.axpy(Complex::ONE, &zmatvec(q.g2(), &zkron(a, c)));
                rhs.axpy(Complex::ONE, &zmatvec(q.g2(), &zkron(c, a)));
                if let Some(d1) = d1 {
                    rhs.axpy(Complex::ONE, &zmatvec(d1, c));
                }
            }
            let g3 = q.g3().unwrap();
            for [i, j, k] in [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ] {
                let v = zkron(&ones[i], &zkron(&ones[j], &ones[k]));
                rhs.axpy(Complex::ONE, &zmatvec(g3, &v));
            }
            let mut h = solve(s[0] + s[1] + s[2], &rhs);
            h.scale_mut(Complex::from_real(1.0 / 3.0));
            h
        };
        vec![h2(s, s), h2(s, -s), h3([s, s, s]), h3([s, s, -s])]
    }

    /// The same four samples through [`VolterraKernels`].
    fn kernel_samples(kern: &VolterraKernels<'_>, s: Complex) -> Vec<ZVector> {
        vec![
            kern.h2(s, s).unwrap(),
            kern.h2(s, -s).unwrap(),
            kern.h3(s, s, s).unwrap(),
            kern.h3(s, s, -s).unwrap(),
        ]
    }

    #[test]
    fn packed_kernels_match_explicit_kronecker_products() {
        // A dense ROM-like system: asymmetric G₂, a G₃ whose six
        // permutation columns differ, a bilinear D₁ — packed couplings.
        let n = 6;
        let mut state = 17_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let g1 = Matrix::from_fn(n, n, |i, j| if i == j { -3.0 } else { 0.3 * next() });
        let g2 = CsrMatrix::from_dense(&Matrix::from_fn(n, n * n, |_, _| next()), 0.0);
        let g3 = CsrMatrix::from_dense(&Matrix::from_fn(n, n * n * n, |_, _| next()), 0.0);
        let d1 = CsrMatrix::from_dense(&Matrix::from_fn(n, n, |_, _| 0.2 * next()), 0.0);
        let b = Matrix::from_fn(n, 1, |_, _| next());
        let c = Matrix::from_fn(1, n, |_, _| next());
        let q = Qldae::new(g1, g2, vec![d1], b, c)
            .unwrap()
            .with_g3(g3)
            .unwrap();
        let kern = VolterraKernels::new(&q, 0).unwrap();
        for s in [Complex::new(0.0, 0.7), Complex::new(0.1, -1.9)] {
            for (ours, expected) in kernel_samples(&kern, s)
                .iter()
                .zip(&explicit_kernels(&q, s))
            {
                let scale = expected.norm2();
                let mut diff = ours.clone();
                diff.axpy(-Complex::ONE, expected);
                assert!(
                    diff.norm2() <= 1e-12 * scale,
                    "kernel at {s} off by {:.3e} of {scale:.3e}",
                    diff.norm2()
                );
            }
        }
    }

    /// The real/imaginary-split CSR arithmetic of the sparse full-model
    /// samples, term by term in its fixed order: `G₂ (a⊗b)` then
    /// `G₂ (b⊗a)`, the three `H₁⊗H₂` pairs, the `D₁` terms, then the six
    /// `G₃` orderings.
    fn csr_split_samples(kern: &VolterraKernels<'_>, q: &Qldae, s: Complex) -> Vec<ZVector> {
        let kron = |a: &ZVector, b: &ZVector| {
            let (ar, ai, br, bi) = (a.real(), a.imag(), b.real(), b.imag());
            let mut re = q.g2().matvec_kron(&ar, &br);
            re.axpy(-1.0, &q.g2().matvec_kron(&ai, &bi));
            let mut im = q.g2().matvec_kron(&ar, &bi);
            im.axpy(1.0, &q.g2().matvec_kron(&ai, &br));
            ZVector::from_parts(&re, &im)
        };
        let kron3 = |g3: &CsrMatrix, a: &ZVector, b: &ZVector, c: &ZVector| {
            let k = |x: &Vector, y: &Vector, z: &Vector| g3.matvec_kron3(x, y, z);
            let (ar, ai, br, bi, cr, ci) =
                (a.real(), a.imag(), b.real(), b.imag(), c.real(), c.imag());
            let mut re = k(&ar, &br, &cr);
            re.axpy(-1.0, &k(&ar, &bi, &ci));
            re.axpy(-1.0, &k(&ai, &br, &ci));
            re.axpy(-1.0, &k(&ai, &bi, &cr));
            let mut im = k(&ar, &br, &ci);
            im.axpy(1.0, &k(&ar, &bi, &cr));
            im.axpy(1.0, &k(&ai, &br, &cr));
            im.axpy(-1.0, &k(&ai, &bi, &ci));
            ZVector::from_parts(&re, &im)
        };
        let h2 = |s1: Complex, s2: Complex| {
            let (a, b) = (kern.h1(s1).unwrap(), kern.h1(s2).unwrap());
            let mut rhs = kron(&a, &b);
            rhs.axpy(Complex::ONE, &kron(&b, &a));
            if let Some(d1) = q.d1().first() {
                let mut sum = a.clone();
                sum.axpy(Complex::ONE, &b);
                rhs.axpy(Complex::ONE, &sparse_times_complex(d1, &sum));
            }
            let mut h = kern.resolvent_solve(s1 + s2, &rhs).unwrap();
            h.scale_mut(Complex::from_real(0.5));
            h
        };
        let h3 = |s: [Complex; 3]| {
            let ones = s.map(|si| kern.h1(si).unwrap());
            let mut rhs = ZVector::zeros(q.g1_csr().rows());
            if q.has_quadratic() {
                let twos = [h2(s[1], s[2]), h2(s[0], s[2]), h2(s[0], s[1])];
                for (a, c) in ones.iter().zip(&twos) {
                    rhs.axpy(Complex::ONE, &kron(a, c));
                    rhs.axpy(Complex::ONE, &kron(c, a));
                }
                if let Some(d1) = q.d1().first() {
                    for c in &twos {
                        rhs.axpy(Complex::ONE, &sparse_times_complex(d1, c));
                    }
                }
            }
            if let Some(g3) = q.g3() {
                for [i, j, k] in [
                    [0, 1, 2],
                    [0, 2, 1],
                    [1, 0, 2],
                    [1, 2, 0],
                    [2, 0, 1],
                    [2, 1, 0],
                ] {
                    rhs.axpy(Complex::ONE, &kron3(g3, &ones[i], &ones[j], &ones[k]));
                }
            }
            let mut h = kern.resolvent_solve(s[0] + s[1] + s[2], &rhs).unwrap();
            h.scale_mut(Complex::from_real(1.0 / 3.0));
            h
        };
        vec![h2(s, s), h2(s, -s), h3([s, s, s]), h3([s, s, -s])]
    }

    #[test]
    fn sparse_full_model_samples_keep_the_csr_arithmetic_bit_for_bit() {
        use vamor_circuits::{RfReceiver, TransmissionLine, VaristorCircuit};
        let line = TransmissionLine::voltage_driven(12).unwrap();
        let rx = RfReceiver::new(6).unwrap();
        let varistor = VaristorCircuit::new(10).unwrap();
        assert!(line.qldae().has_d1());
        let bits = |v: &ZVector| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for q in [line.qldae(), rx.qldae(), varistor.qldae()] {
            let cache = ShiftCache::new(q.g1_csr(), vamor_linalg::SolverBackend::Auto);
            let kern = VolterraKernels::with_cache(q, 0, &cache).unwrap();
            for s in [Complex::new(0.0, 0.3), Complex::new(0.0, 2.1)] {
                let ours = kernel_samples(&kern, s);
                let reference = csr_split_samples(&kern, q, s);
                for (x, y) in ours.iter().zip(&reference) {
                    assert_eq!(bits(x), bits(y), "sample at {s} moved");
                }
            }
        }
    }

    /// `H₃` composed as before the `H₁` reuse: three `H₁` solves, then each
    /// `H₂` partner through [`VolterraKernels::h2`] with its own two.
    fn nine_solve_h3(kern: &VolterraKernels<'_>, s: [Complex; 3]) -> ZVector {
        let q = kern.qldae;
        let h1 = s.map(|si| kern.h1(si).unwrap());
        let mut rhs = ZVector::zeros(kern.n());
        if q.has_quadratic() {
            let h2 = [
                kern.h2(s[1], s[2]).unwrap(),
                kern.h2(s[0], s[2]).unwrap(),
                kern.h2(s[0], s[1]).unwrap(),
            ];
            for (h1k, h2k) in h1.iter().zip(&h2) {
                q.symmetric_quadratic(h1k, h2k, &mut rhs);
            }
            if let Some(d1) = kern.d1() {
                for h2k in &h2 {
                    zaxpy(&mut rhs, Complex::ONE, &sparse_times_complex(d1, h2k));
                }
            }
        }
        q.symmetric_cubic(&h1[0], &h1[1], &h1[2], &mut rhs);
        let mut h3 = kern.resolvent_solve(s[0] + s[1] + s[2], &rhs).unwrap();
        h3.scale_mut(Complex::from_real(1.0 / 3.0));
        h3
    }

    /// Reusing each distinct frequency's `H₁` changes no bit of an `H₃`
    /// sample: on full models (quadratic with `D₁`, quadratic, cubic) and
    /// on a projected ROM, through the dense and the cached resolvent, at
    /// repeated and at distinct frequencies.
    #[test]
    fn h3_reuses_its_h1_solves_bit_for_bit() {
        use vamor_circuits::{RfReceiver, TransmissionLine, VaristorCircuit};
        let line = TransmissionLine::voltage_driven(8).unwrap();
        let rx = RfReceiver::new(4).unwrap();
        let varistor = VaristorCircuit::new(8).unwrap();
        let rom = crate::AssocReducer::new(crate::MomentSpec::new(4, 2, 1))
            .reduce(rx.qldae())
            .unwrap();
        let bits = |v: &ZVector| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let (s, t) = (Complex::new(0.0, 0.4), Complex::new(0.05, 1.3));
        let triples = [[s, s, s], [s, s, -s], [s, t, -t], [t, s, Complex::ZERO]];
        for q in [line.qldae(), rx.qldae(), varistor.qldae(), rom.system()] {
            let cache = ShiftCache::new(q.g1_csr(), vamor_linalg::SolverBackend::Auto);
            for kern in [
                VolterraKernels::new(q, 0).unwrap(),
                VolterraKernels::with_cache(q, 0, &cache).unwrap(),
            ] {
                for [s1, s2, s3] in triples {
                    let ours = kern.h3(s1, s2, s3).unwrap();
                    let before = nine_solve_h3(&kern, [s1, s2, s3]);
                    assert_eq!(bits(&ours), bits(&before), "H3({s1}, {s2}, {s3}) moved");
                }
            }
        }
    }
}
