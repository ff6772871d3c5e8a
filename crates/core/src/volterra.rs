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
                Ok(zvector_from_parts(&re, &im))
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

fn zvector_from_parts(re: &Vector, im: &Vector) -> ZVector {
    ZVector::from(
        (0..re.len())
            .map(|i| Complex::new(re[i], im[i]))
            .collect::<Vec<_>>(),
    )
}

/// Evaluator for the first three Volterra transfer functions of a
/// polynomial system, with all frequencies referring to a single chosen
/// input channel. The Kronecker products are applied through the structured
/// `G₂ (x ⊗ y)` and [`crate::project::cubic_matvec_kron`] matvecs
/// (real/imaginary split), so the `n²`/`n³` vectors are never formed.
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
    /// products are applied through the structured `G₂ (x ⊗ y)` matvec — the
    /// `n²` vector is never formed, so band sweeps stay affordable at
    /// 10⁴ states.
    ///
    /// # Errors
    ///
    /// Returns an error if any involved resolvent is singular.
    pub fn h2(&self, s1: Complex, s2: Complex) -> Result<ZVector> {
        let h1_a = self.h1(s1)?;
        let h1_b = self.h1(s2)?;
        let mut rhs = g2_kron_complex(self.qldae.g2(), &h1_a, &h1_b);
        zaxpy(
            &mut rhs,
            Complex::ONE,
            &g2_kron_complex(self.qldae.g2(), &h1_b, &h1_a),
        );
        if let Some(d1) = self.d1() {
            let mut sum = h1_a.clone();
            zaxpy(&mut sum, Complex::ONE, &h1_b);
            zaxpy(&mut rhs, Complex::ONE, &sparse_times_complex(d1, &sum));
        }
        let mut h2 = self.resolvent_solve(s1 + s2, &rhs)?;
        h2.scale_mut(Complex::from_real(0.5));
        Ok(h2)
    }

    /// Third-order kernel `H₃(s₁, s₂, s₃)` (an `n`-vector): the
    /// `G₂`/`D₁`-mediated `H₁⊗H₂` terms when the system has a quadratic
    /// part, plus the direct cubic contribution
    /// `G₃ Σ_perms H₁(s_{σ1})⊗H₁(s_{σ2})⊗H₁(s_{σ3})` when it has a `G₃`.
    ///
    /// # Errors
    ///
    /// Returns an error if any involved resolvent is singular.
    pub fn h3(&self, s1: Complex, s2: Complex, s3: Complex) -> Result<ZVector> {
        let h1 = [self.h1(s1)?, self.h1(s2)?, self.h1(s3)?];
        let n = self.n();
        let mut rhs = ZVector::zeros(n);
        if self.qldae.has_quadratic() {
            let h2 = [
                self.h2(s2, s3)?, // partner of s1
                self.h2(s1, s3)?, // partner of s2
                self.h2(s1, s2)?, // partner of s3
            ];
            for k in 0..3 {
                let g2_term = g2_kron_complex(self.qldae.g2(), &h1[k], &h2[k]);
                zaxpy(&mut rhs, Complex::ONE, &g2_term);
                let g2_term_rev = g2_kron_complex(self.qldae.g2(), &h2[k], &h1[k]);
                zaxpy(&mut rhs, Complex::ONE, &g2_term_rev);
            }
            if let Some(d1) = self.d1() {
                for h2k in &h2 {
                    zaxpy(&mut rhs, Complex::ONE, &sparse_times_complex(d1, h2k));
                }
            }
        }
        if let Some(g3) = self.qldae.g3() {
            // All six orderings of H₁(s₁)⊗H₁(s₂)⊗H₁(s₃).
            for (a, b, c) in [
                (0usize, 1usize, 2usize),
                (0, 2, 1),
                (1, 0, 2),
                (1, 2, 0),
                (2, 0, 1),
                (2, 1, 0),
            ] {
                zaxpy(
                    &mut rhs,
                    Complex::ONE,
                    &cubic_times_complex(g3, &h1[a], &h1[b], &h1[c]),
                );
            }
        }
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

/// `G₂ (a ⊗ b)` for complex vectors through the structured real kernel
/// (four real Kronecker matvecs, never forming the `n²` vector).
fn g2_kron_complex(g2: &CsrMatrix, a: &ZVector, b: &ZVector) -> ZVector {
    let (ar, ai) = (a.real(), a.imag());
    let (br, bi) = (b.real(), b.imag());
    let mut re = g2.matvec_kron(&ar, &br);
    re.axpy(-1.0, &g2.matvec_kron(&ai, &bi));
    let mut im = g2.matvec_kron(&ar, &bi);
    im.axpy(1.0, &g2.matvec_kron(&ai, &br));
    zvector_from_parts(&re, &im)
}

/// `G₃ (a ⊗ b ⊗ c)` for complex vectors through the structured real kernel:
/// the multilinear expansion over real/imaginary parts (eight real
/// triple-Kronecker matvecs, never forming the `n³` vector).
fn cubic_times_complex(g3: &CsrMatrix, a: &ZVector, b: &ZVector, c: &ZVector) -> ZVector {
    use crate::project::cubic_matvec_kron as k;
    let (ar, ai) = (a.real(), a.imag());
    let (br, bi) = (b.real(), b.imag());
    let (cr, ci) = (c.real(), c.imag());
    let mut re = k(g3, &ar, &br, &cr);
    re.axpy(-1.0, &k(g3, &ar, &bi, &ci));
    re.axpy(-1.0, &k(g3, &ai, &br, &ci));
    re.axpy(-1.0, &k(g3, &ai, &bi, &cr));
    let mut im = k(g3, &ar, &br, &ci);
    im.axpy(1.0, &k(g3, &ar, &bi, &cr));
    im.axpy(1.0, &k(g3, &ai, &br, &cr));
    im.axpy(-1.0, &k(g3, &ai, &bi, &ci));
    zvector_from_parts(&re, &im)
}

/// Real sparse matrix times complex vector.
pub(crate) fn sparse_times_complex(m: &CsrMatrix, x: &ZVector) -> ZVector {
    let re = m.matvec(&x.real());
    let im = m.matvec(&x.imag());
    let mut out = ZVector::zeros(m.rows());
    for i in 0..m.rows() {
        out[i] = Complex::new(re[i], im[i]);
    }
    out
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
}
