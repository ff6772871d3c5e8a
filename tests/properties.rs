//! Property-style tests on the public API: randomized small QLDAE systems
//! must be reduced consistently (Galerkin identities, moment matching of the
//! linearized transfer function, bounded transient error) and the Kronecker /
//! Sylvester algebra must satisfy its defining identities.
//!
//! The container this workspace builds in has no crates.io access, so instead
//! of `proptest` the cases are drawn from a deterministic xorshift generator:
//! every run exercises the same fixed set of pseudo-random systems.

use vamor::core::{AssocReducer, MomentSpec, VolterraKernels};
use vamor::linalg::{
    kron_sum, kron_vec, Complex, CooMatrix, Matrix, SchurDecomposition, SylvesterSolver, Vector,
};
use vamor::sim::{max_relative_error, simulate, SinePulse, TransientOptions};
use vamor::system::{PolynomialStateSpace, Qldae};

/// Deterministic xorshift64* pseudo-random stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() as f64 / u64::MAX as f64) * (hi - lo)
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Builds a random but well-behaved QLDAE: strictly diagonally dominant
/// Hurwitz `G₁`, a few bounded quadratic couplings, input on the first state.
fn random_qldae(rng: &mut Rng, n: usize) -> Qldae {
    let mut g1 = Matrix::zeros(n, n);
    for _ in 0..(2 * n) {
        let (i, j) = (rng.index(n), rng.index(n));
        g1[(i, j)] += 0.3 * rng.uniform(-1.0, 1.0);
    }
    for i in 0..n {
        let row_sum: f64 = (0..n).filter(|&j| j != i).map(|j| g1[(i, j)].abs()).sum();
        g1[(i, i)] = -(row_sum + 1.0 + 0.1 * i as f64);
    }
    let mut g2 = CooMatrix::new(n, n * n);
    for _ in 0..(1 + rng.index(5)) {
        let (r, p, q) = (rng.index(n), rng.index(n), rng.index(n));
        g2.push(r, p * n + q, 0.2 * rng.uniform(-1.0, 1.0));
    }
    let mut b = Matrix::zeros(n, 1);
    b[(0, 0)] = 1.0;
    let mut c = Matrix::zeros(1, n);
    c[(0, n - 1)] = 1.0;
    Qldae::new(g1, g2.into_csr(), Vec::new(), b, c).expect("valid random qldae")
}

/// The reduced model reproduces the linearized transfer function of the
/// original near the expansion point (first-order moment matching).
#[test]
fn reduction_matches_h1_near_dc() {
    let mut rng = Rng::new(0xA11CE);
    for case in 0..12 {
        let n = 4 + rng.index(4);
        let q = random_qldae(&mut rng, n);
        let rom = AssocReducer::new(MomentSpec::new(3, 2, 1))
            .reduce(&q)
            .unwrap();
        let full = VolterraKernels::new(&q, 0).unwrap();
        let red = VolterraKernels::new(rom.system(), 0).unwrap();
        let s = Complex::new(0.0, 0.05);
        let a = full.output_h1(s).unwrap();
        let b = red.output_h1(s).unwrap();
        assert!(
            (a - b).abs() < 1e-4 * (1.0 + a.abs()),
            "case {case} (n={n}): H1 mismatch {a} vs {b}"
        );
    }
}

/// Galerkin consistency: the reduced right-hand side equals the projected
/// full right-hand side on lifted states. This is the one-sided (`W = V`)
/// identity, so the stabilized oblique projection is switched off here; the
/// oblique counterpart (`Wᵀ f(V x)`) is covered by the `project` unit tests.
#[test]
fn reduced_rhs_is_projection_of_full_rhs() {
    let mut rng = Rng::new(0xB0B);
    for case in 0..12 {
        let n = 4 + rng.index(4);
        let q = random_qldae(&mut rng, n);
        let rom = AssocReducer::new(MomentSpec::new(2, 1, 1))
            .with_stabilized_projection(false)
            .reduce(&q)
            .unwrap();
        let v = rom.projection();
        let xr = Vector::from_fn(rom.order(), |_| rng.uniform(-0.5, 0.5));
        let u = rng.uniform(-0.5, 0.5);
        let x_full = v.matvec(&xr);
        let expected = v.matvec_transpose(&q.rhs(&x_full, &[u]));
        let got = rom.system().rhs(&xr, &[u]);
        assert!(
            (&expected - &got).norm_inf() < 1e-10,
            "case {case} (n={n}): Galerkin residual {}",
            (&expected - &got).norm_inf()
        );
    }
}

/// The reduced transient stays close to the full transient for weak
/// excitations (the regime where the Volterra expansion is valid).
#[test]
fn reduced_transient_tracks_full_transient() {
    let mut rng = Rng::new(0xCAFE);
    for case in 0..8 {
        let n = 4 + rng.index(3);
        let q = random_qldae(&mut rng, n);
        let amplitude = rng.uniform(0.05, 0.3);
        let rom = AssocReducer::new(MomentSpec::new(3, 2, 1))
            .reduce(&q)
            .unwrap();
        let input = SinePulse::damped(amplitude, 0.2, 0.1);
        let opts = TransientOptions::new(0.0, 10.0, 0.02);
        let y_full = simulate(&q, &input, &opts).unwrap().output_channel(0);
        let y_rom = simulate(rom.system(), &input, &opts)
            .unwrap()
            .output_channel(0);
        let peak = y_full.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
        if peak > 1e-9 {
            let err = max_relative_error(&y_full, &y_rom);
            assert!(
                err < 0.05,
                "case {case} (n={n}, amp={amplitude:.3}): error {err}"
            );
        }
    }
}

/// Kronecker algebra identity: (A ⊕ A) vec(xyᵀ-style products) matches the
/// explicit Kronecker-sum matrix, and the Lyapunov solver inverts it.
#[test]
fn kron_sum_and_lyapunov_are_inverse_operations() {
    let mut rng = Rng::new(0xD1CE);
    for case in 0..12 {
        let n = 3 + rng.index(2);
        let diag: Vec<f64> = (0..n).map(|_| rng.uniform(-3.0, -0.5)).collect();
        let mut a = Matrix::from_diagonal(&diag);
        // Mild off-diagonal coupling keeps the matrix non-normal but stable.
        for i in 0..n - 1 {
            a[(i, i + 1)] = 0.2;
        }
        let c = Matrix::from_fn(n, n, |_, _| rng.uniform(-1.0, 1.0));
        let lyap = SylvesterSolver::lyapunov(SchurDecomposition::new(&a).unwrap());
        let x = lyap.solve(&c).unwrap();
        let residual = (&(&a.matmul(&x) + &x.matmul(&a.transpose())) - &c).max_abs();
        assert!(
            residual < 1e-8,
            "case {case} (n={n}): Lyapunov residual {residual}"
        );
        // Explicit Kronecker-sum check on a vectorized sample.
        let ks = kron_sum(&a, &a);
        let v1 = Vector::from_fn(n, |i| diag[i] + 1.5);
        let v2 = Vector::from_fn(n, |i| 0.5 - 0.1 * i as f64);
        let w = kron_vec(&v1, &v2);
        assert_eq!(ks.matvec(&w).len(), n * n);
    }
}
