//! Real Schur decomposition via the Francis implicit double-shift QR
//! iteration.

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::hessenberg::HessenbergDecomposition;
use crate::matrix::Matrix;
use crate::Result;

/// A diagonal block of the real Schur form.
///
/// Blocks are either `1x1` (a real eigenvalue) or `2x2` (a complex-conjugate
/// eigenvalue pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchurBlock {
    /// Row/column index at which the block starts.
    pub start: usize,
    /// Block size: 1 or 2.
    pub size: usize,
}

/// Real Schur decomposition `A = Q T Qᵀ` with orthogonal `Q` and upper
/// quasi-triangular `T` (1×1 and 2×2 diagonal blocks).
///
/// The decomposition is the workhorse behind the Bartels–Stewart
/// Sylvester/Lyapunov solvers in [`crate::sylvester`], which in turn implement
/// the structured Kronecker-sum solves of the associated-transform MOR flow.
///
/// ```
/// use vamor_linalg::{Matrix, SchurDecomposition};
/// # fn main() -> Result<(), vamor_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]])?; // rotation: eigenvalues ±i
/// let schur = SchurDecomposition::new(&a)?;
/// let eig = schur.eigenvalues();
/// assert!((eig[0].im.abs() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SchurDecomposition {
    q: Matrix,
    t: Matrix,
    blocks: Vec<SchurBlock>,
}

impl SchurDecomposition {
    /// Computes the real Schur form of the square matrix `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NotConverged`] if the QR iteration fails to converge
    ///   (extremely rare for finite input).
    pub fn new(a: &Matrix) -> Result<Self> {
        let hess = HessenbergDecomposition::new(a)?;
        let (mut q, mut t) = hess.into_parts();
        francis_qr(&mut t, &mut q)?;
        standardize_blocks(&mut t, &mut q);
        let blocks = scan_blocks(&t);
        Ok(SchurDecomposition { q, t, blocks })
    }

    /// Reassembles a decomposition from previously computed factors.
    ///
    /// The caller is trusted to pass a consistent triple: `q` orthogonal, `t`
    /// upper quasi-triangular and `blocks` its diagonal block structure.
    pub fn from_parts(q: Matrix, t: Matrix, blocks: Vec<SchurBlock>) -> Self {
        SchurDecomposition { q, t, blocks }
    }

    /// The orthogonal factor `Q`.
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// The quasi-upper-triangular factor `T`.
    pub fn t(&self) -> &Matrix {
        &self.t
    }

    /// The diagonal block structure of `T`, in order.
    pub fn blocks(&self) -> &[SchurBlock] {
        &self.blocks
    }

    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.t.rows()
    }

    /// Eigenvalues read off the diagonal blocks of `T`, in block order.
    pub fn eigenvalues(&self) -> Vec<Complex> {
        let mut out = Vec::with_capacity(self.dim());
        for b in &self.blocks {
            if b.size == 1 {
                out.push(Complex::from_real(self.t[(b.start, b.start)]));
            } else {
                let i = b.start;
                let a = self.t[(i, i)];
                let bq = self.t[(i, i + 1)];
                let c = self.t[(i + 1, i)];
                let d = self.t[(i + 1, i + 1)];
                let mean = 0.5 * (a + d);
                let disc = 0.25 * (a - d) * (a - d) + bq * c;
                let imag = (-disc).max(0.0).sqrt();
                out.push(Complex::new(mean, imag));
                out.push(Complex::new(mean, -imag));
            }
        }
        out
    }

    /// The Schur decomposition of `Aᵀ`, derived in `O(n²)` from this one
    /// (no new QR iteration).
    ///
    /// If `A = Q T Qᵀ` then `Aᵀ = (QJ) (J Tᵀ J) (QJ)ᵀ`, where `J` is the
    /// anti-diagonal flip: `J Tᵀ J` is again upper quasi-triangular with the
    /// diagonal blocks in reversed order. This lets the stabilized-projection
    /// flow solve transposed Lyapunov equations against a Schur form that was
    /// already computed for the forward problem.
    pub fn adjoint(&self) -> SchurDecomposition {
        let n = self.dim();
        // Q' = Q J (columns reversed).
        let q = Matrix::from_fn(n, n, |i, j| self.q[(i, n - 1 - j)]);
        // T' = J Tᵀ J.
        let t = Matrix::from_fn(n, n, |i, j| self.t[(n - 1 - j, n - 1 - i)]);
        let blocks = self
            .blocks
            .iter()
            .rev()
            .map(|b| SchurBlock {
                start: n - b.start - b.size,
                size: b.size,
            })
            .collect();
        SchurDecomposition { q, t, blocks }
    }
}

/// Householder reflector data for a 3-vector: returns the normalized `v` and
/// whether a reflection is actually needed.
fn house3(x: f64, y: f64, z: f64) -> Option<[f64; 3]> {
    let norm = (x * x + y * y + z * z).sqrt();
    if norm == 0.0 || (y == 0.0 && z == 0.0) {
        return None;
    }
    let alpha = if x >= 0.0 { -norm } else { norm };
    let mut v = [x - alpha, y, z];
    let vnorm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    if vnorm == 0.0 {
        return None;
    }
    v[0] /= vnorm;
    v[1] /= vnorm;
    v[2] /= vnorm;
    Some(v)
}

/// Givens rotation `(c, s)` such that `[c s; -s c] [x; y] = [r; 0]`.
fn givens(x: f64, y: f64) -> Option<(f64, f64)> {
    if y == 0.0 {
        return None;
    }
    let r = x.hypot(y);
    Some((x / r, y / r))
}

/// In-place Francis double-shift QR iteration on an upper Hessenberg matrix
/// `h`, accumulating the orthogonal transformations into `q`.
fn francis_qr(h: &mut Matrix, q: &mut Matrix) -> Result<()> {
    let n = h.rows();
    if n <= 2 {
        return Ok(());
    }
    let eps = f64::EPSILON;
    let max_iter_per_eig = 60;
    let mut m = n - 1;
    let mut iter = 0usize;
    let mut guard = 0usize;
    let guard_limit = 200 * n * max_iter_per_eig;

    loop {
        guard += 1;
        if guard > guard_limit {
            return Err(LinalgError::NotConverged {
                algorithm: "francis qr",
                iterations: guard,
            });
        }
        // Find the start `l` of the active block ending at `m`.
        let mut l = m;
        while l > 0 {
            let s = h[(l - 1, l - 1)].abs() + h[(l, l)].abs();
            let s = if s == 0.0 { 1.0 } else { s };
            if h[(l, l - 1)].abs() <= eps * s {
                h[(l, l - 1)] = 0.0;
                break;
            }
            l -= 1;
        }

        if l == m {
            // 1x1 block converged.
            if m == 0 {
                break;
            }
            m -= 1;
            iter = 0;
            continue;
        }
        if l + 1 == m {
            // 2x2 block converged.
            if m <= 1 {
                break;
            }
            m -= 2;
            iter = 0;
            continue;
        }

        iter += 1;
        if iter > max_iter_per_eig {
            return Err(LinalgError::NotConverged {
                algorithm: "francis qr",
                iterations: iter,
            });
        }

        // Shift source: the trailing 2x2 block of the active window, or the
        // Wilkinson ad-hoc exceptional shift (LAPACK dlahqr constants) every
        // 10 stalled iterations, offset by the trailing diagonal entry so it
        // stays effective when the spectrum is not centred at the origin.
        let (h33, h44, h43h34) = if iter.is_multiple_of(10) {
            let w = h[(m, m - 1)].abs() + h[(m - 1, m - 2)].abs();
            let d = 0.75 * w + h[(m, m)];
            (d, d, -0.4375 * w * w)
        } else {
            (h[(m - 1, m - 1)], h[(m, m)], h[(m, m - 1)] * h[(m - 1, m)])
        };

        // First column of (H - σ₁I)(H - σ₂I) e₁, in the difference form of
        // LAPACK dlahqr: subtracting the local diagonal entry BEFORE any
        // multiplication keeps the shift transmission accurate when the
        // active block carries a tight eigenvalue cluster (h² - s·h + t
        // cancels catastrophically there, leaving pure rounding noise and a
        // stalled iteration). Walking the start position down the block
        // (two-consecutive-small-subdiagonal test) lets the bulge skip an
        // already-converged leading portion.
        let mut bulge_start = l;
        let (mut x, mut y, mut z) = (0.0, 0.0, 0.0);
        for cand in (l..=(m - 2)).rev() {
            let h11 = h[(cand, cand)];
            let h21 = h[(cand + 1, cand)];
            let h33s = h33 - h11;
            let h44s = h44 - h11;
            let v1 = (h33s * h44s - h43h34) / h21 + h[(cand, cand + 1)];
            let v2 = h[(cand + 1, cand + 1)] - h11 - h33s - h44s;
            let v3 = h[(cand + 2, cand + 1)];
            let scale = v1.abs() + v2.abs() + v3.abs();
            let (v1, v2, v3) = if scale > 0.0 {
                (v1 / scale, v2 / scale, v3 / scale)
            } else {
                (v1, v2, v3)
            };
            (x, y, z) = (v1, v2, v3);
            bulge_start = cand;
            if cand == l {
                break;
            }
            let tst = h[(cand - 1, cand - 1)].abs() + h11.abs() + h[(cand + 1, cand + 1)].abs();
            if h[(cand, cand - 1)].abs() * (v2.abs() + v3.abs()) <= eps * v1.abs() * tst {
                break;
            }
        }

        for k in bulge_start..=(m - 2) {
            if let Some(v) = house3(x, y, z) {
                if k == bulge_start && bulge_start > l {
                    // The reflector also acts on column `bulge_start - 1`,
                    // whose only nonzero entry in rows k..k+2 is the
                    // subdiagonal. The fill it would create below is
                    // negligible by the start-position test above; drop it
                    // and apply the surviving diagonal update.
                    h[(k, k - 1)] *= 1.0 - 2.0 * v[0] * v[0];
                }
                let col_start = if k > bulge_start { k - 1 } else { bulge_start };
                // Left: rows k..k+2, columns col_start..n.
                for j in col_start..n {
                    let dot = v[0] * h[(k, j)] + v[1] * h[(k + 1, j)] + v[2] * h[(k + 2, j)];
                    if dot != 0.0 {
                        h[(k, j)] -= 2.0 * dot * v[0];
                        h[(k + 1, j)] -= 2.0 * dot * v[1];
                        h[(k + 2, j)] -= 2.0 * dot * v[2];
                    }
                }
                // Right: columns k..k+2, rows 0..=min(k+3, m).
                let row_end = (k + 3).min(m);
                for i in 0..=row_end {
                    let dot = v[0] * h[(i, k)] + v[1] * h[(i, k + 1)] + v[2] * h[(i, k + 2)];
                    if dot != 0.0 {
                        h[(i, k)] -= 2.0 * dot * v[0];
                        h[(i, k + 1)] -= 2.0 * dot * v[1];
                        h[(i, k + 2)] -= 2.0 * dot * v[2];
                    }
                }
                // Accumulate into Q: columns k..k+2, all rows.
                for i in 0..n {
                    let dot = v[0] * q[(i, k)] + v[1] * q[(i, k + 1)] + v[2] * q[(i, k + 2)];
                    if dot != 0.0 {
                        q[(i, k)] -= 2.0 * dot * v[0];
                        q[(i, k + 1)] -= 2.0 * dot * v[1];
                        q[(i, k + 2)] -= 2.0 * dot * v[2];
                    }
                }
            }
            x = h[(k + 1, k)];
            y = h[(k + 2, k)];
            z = if k + 3 <= m { h[(k + 3, k)] } else { 0.0 };
        }

        // Final 2-row rotation annihilating the last bulge entry.
        if let Some((c, s)) = givens(x, y) {
            let col_start = m - 2;
            for j in col_start..n {
                let t1 = h[(m - 1, j)];
                let t2 = h[(m, j)];
                h[(m - 1, j)] = c * t1 + s * t2;
                h[(m, j)] = -s * t1 + c * t2;
            }
            for i in 0..=m {
                let t1 = h[(i, m - 1)];
                let t2 = h[(i, m)];
                h[(i, m - 1)] = c * t1 + s * t2;
                h[(i, m)] = -s * t1 + c * t2;
            }
            for i in 0..n {
                let t1 = q[(i, m - 1)];
                let t2 = q[(i, m)];
                q[(i, m - 1)] = c * t1 + s * t2;
                q[(i, m)] = -s * t1 + c * t2;
            }
        }

        // Hygiene: entries more than one position below the diagonal within
        // the active block are numerically zero by construction; force them.
        for i in (l + 2)..=m {
            for j in l..(i - 1) {
                h[(i, j)] = 0.0;
            }
        }
    }

    // Global hygiene after convergence.
    for i in 2..n {
        for j in 0..(i - 1) {
            h[(i, j)] = 0.0;
        }
    }
    Ok(())
}

/// Rotates 2x2 diagonal blocks with *real* eigenvalues into upper triangular
/// form so that remaining 2x2 blocks always carry complex-conjugate pairs.
fn standardize_blocks(t: &mut Matrix, q: &mut Matrix) {
    let n = t.rows();
    let mut i = 0;
    while i + 1 < n {
        if t[(i + 1, i)] == 0.0 {
            i += 1;
            continue;
        }
        let a = t[(i, i)];
        let b = t[(i, i + 1)];
        let c = t[(i + 1, i)];
        let d = t[(i + 1, i + 1)];
        let disc = 0.25 * (a - d) * (a - d) + b * c;
        if disc < 0.0 {
            // Genuine complex pair; leave the block as is.
            i += 2;
            continue;
        }
        // Real eigenvalues: rotate so the block becomes upper triangular.
        let sq = disc.sqrt();
        let mean = 0.5 * (a + d);
        // Pick the eigenvalue farther from `a` for a better conditioned
        // eigenvector, then form it from the first row of (A - lambda I).
        let lambda = if (mean + sq - a).abs() > (mean - sq - a).abs() {
            mean + sq
        } else {
            mean - sq
        };
        // Eigenvector w satisfies (a - lambda) w0 + b w1 = 0 and
        // c w0 + (d - lambda) w1 = 0; pick the better-scaled expression.
        let (w0, w1) = if b.abs() + (a - lambda).abs() >= c.abs() + (d - lambda).abs() {
            (b, lambda - a)
        } else {
            (lambda - d, c)
        };
        let norm = w0.hypot(w1);
        if norm == 0.0 {
            i += 2;
            continue;
        }
        let cs = w0 / norm;
        let sn = w1 / norm;
        // Apply G = [cs -sn; sn cs] as similarity: T <- Gᵀ T G, Q <- Q G.
        for j in 0..n {
            let t1 = t[(i, j)];
            let t2 = t[(i + 1, j)];
            t[(i, j)] = cs * t1 + sn * t2;
            t[(i + 1, j)] = -sn * t1 + cs * t2;
        }
        for r in 0..n {
            let t1 = t[(r, i)];
            let t2 = t[(r, i + 1)];
            t[(r, i)] = cs * t1 + sn * t2;
            t[(r, i + 1)] = -sn * t1 + cs * t2;
        }
        for r in 0..n {
            let q1 = q[(r, i)];
            let q2 = q[(r, i + 1)];
            q[(r, i)] = cs * q1 + sn * q2;
            q[(r, i + 1)] = -sn * q1 + cs * q2;
        }
        t[(i + 1, i)] = 0.0;
        i += 1;
    }
}

/// Determines the 1x1/2x2 diagonal block layout of a quasi-triangular matrix.
fn scan_blocks(t: &Matrix) -> Vec<SchurBlock> {
    let n = t.rows();
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < n {
        if i + 1 < n && t[(i + 1, i)] != 0.0 {
            blocks.push(SchurBlock { start: i, size: 2 });
            i += 2;
        } else {
            blocks.push(SchurBlock { start: i, size: 1 });
            i += 1;
        }
    }
    blocks
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn test_matrix(n: usize, seed: u64) -> Matrix {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        Matrix::from_fn(n, n, |_, _| next())
    }

    fn check_schur(a: &Matrix, tol: f64) -> SchurDecomposition {
        let s = SchurDecomposition::new(a).unwrap();
        let n = a.rows();
        // Similarity: Q T Qᵀ = A.
        let back = s.q().matmul(s.t()).matmul(&s.q().transpose());
        assert!(
            (&back - a).max_abs() < tol,
            "reconstruction error {}",
            (&back - a).max_abs()
        );
        // Orthogonality.
        let qtq = s.q().transpose().matmul(s.q());
        assert!((&qtq - &Matrix::identity(n)).max_abs() < 1e-10);
        // Quasi-triangular structure.
        for i in 0..n {
            for j in 0..i.saturating_sub(1) {
                assert!(s.t()[(i, j)].abs() < 1e-9, "T[{i},{j}] = {}", s.t()[(i, j)]);
            }
        }
        // Blocks tile the diagonal.
        let total: usize = s.blocks().iter().map(|b| b.size).sum();
        assert_eq!(total, n);
        s
    }

    /// An 18x18 state matrix from the fig4 RF-receiver flow whose trailing
    /// 4x4 block is a tight eigenvalue cluster at -0.01 (repeated RC poles,
    /// couplings ~1e-11).
    pub(crate) fn fig4_cluster_matrix() -> Matrix {
        const DUMP: &str = "-1.01366258488708103e-2 -1.41309195195805427e-3 -5.91795126024863543e-3 8.55044800601433355e-4 -1.06361001016497549e-4 -1.55698754706209676e-4 -4.06093777702382520e-3 -3.15865553702587799e-3 -4.42996371530615923e-3 8.01754743797025769e-5 -9.35268433038435572e-4 -3.55524364775763435e-4 -1.13498259038051028e-2 1.58740789734017427e-5 2.73589643673707427e-3 -8.59533208644736035e-5 -7.23430740119615674e-3 -2.57545456415514103e-3\n4.21930144103164692e-3 -1.63261169863934026e-2 4.52789352364442281e-3 -2.49832140329095962e-4 -3.57863904532993197e-4 3.34079085932901523e-3 7.23014861242112644e-3 2.41672418723707120e-3 1.64285576989687300e-2 3.22718802822752554e-4 5.03868591835111759e-3 -3.85808122325089278e-3 8.07176052529012464e-3 6.75222788157673216e-3 -3.08135298152476846e-3 4.05902709820016305e-3 -1.14731374154576713e-3 1.70884601099121555e-2\n6.36327037638713816e-2 -1.33728761312704975e-1 -3.02240849136802235e-2 7.26110772561773532e-2 6.75548156070047284e-3 4.78292188320619122e-2 -2.22857938333283490e-2 -1.61318451210380499e-2 -1.04104795145379833e-1 3.03143818983627996e-3 5.73792205078235903e-2 -1.01360566283113684e-1 3.46727431690669552e-1 1.21658082050157546e-1 7.80325660815288202e-1 6.24610450723018656e-2 -2.71213817979505500e-1 -2.68437938478617855e-1\n-6.76213181958501552e-2 9.33900893131649201e-2 -1.29561545275971770e-2 -7.73976685457770930e-2 4.32908396473108675e-3 -5.22306390868268328e-2 -1.34392541912477896e-2 -6.91523593850201703e-3 3.52704768357912663e-3 -2.50090179984694370e-3 -7.38205910227291984e-2 5.87040639635969669e-2 -2.41728369445848683e-2 -1.09228807992584553e-1 2.62266943034574970e-2 -6.55031252535936137e-2 -3.87633472058256309e-2 -4.31854793341305936e-3\n-1.83181352423186859e-4 -3.81680128606792484e-5 -1.85565631844794598e-3 -9.35565098830974076e-4 -1.00644730148595728e-2 -1.31054151991834614e-4 3.66467151552721314e-4 -9.90440584473690567e-4 2.09036251098264992e-4 -9.51930156163566482e-4 -2.34762402151638907e-4 1.66020102369418917e-4 -3.80235040017153688e-3 -3.19014100960450183e-4 -2.05853754548828522e-3 -1.76624758257041745e-4 -1.35972594390729672e-3 3.31030937580448724e-4\n1.35809722437463167e-3 -3.19261063419761480e-3 -4.45639509754347952e-3 2.08962692750786026e-3 -1.81543882250544423e-4 -8.99090585978257889e-3 -2.91433703111424044e-3 -2.37856251784132437e-3 -3.36840997484732585e-3 -3.57186155100527912e-4 8.47398167681071143e-4 -1.57149340106009982e-3 -8.56808971484169547e-3 2.38628142470755219e-3 1.68477300327382336e-3 1.35264259306165082e-3 -5.13545145924862879e-3 -1.67605858311583168e-3\n1.88211624553648260e-1 -2.96885439361981140e-1 3.50921276467803340e-3 1.91644782613804132e-1 -4.88635799086608019e-3 1.44407434861417411e-1 -4.89695858894432373e-3 1.87301210204440121e-3 -5.95266934930821986e-2 7.76964655579813306e-3 1.95376967261014806e-1 -1.97146483933200833e-1 2.79634887607430604e-1 3.17775344603559440e-1 4.94783773618352296e-1 1.82981934446872024e-1 -1.30668407726441699e-1 -1.48257673231092485e-1\n-5.42862016683450660e-2 5.20857076213387046e-2 9.77927909191705566e-3 -3.06012372585127181e-2 1.18332500077358883e-2 -4.30331215508395759e-2 -3.66822833461995859e-2 -2.17855992631097103e-2 -7.27912877218360871e-2 -1.83237448237972699e-3 -6.65317906377522333e-2 1.80870992894616549e-2 2.54835346166858323e-1 -7.53304204864094357e-2 5.70181739431605994e-1 -5.20802850553101424e-2 -1.98206675760826095e-1 -1.89042049445392157e-1\n4.22389116468205386e-2 -5.25444538321633431e-2 -5.66058505713394784e-3 4.99730588877262544e-2 -2.28419331905925331e-3 3.25789758540237367e-2 8.85143021882398191e-3 -3.02128854180110616e-3 -9.99599779976779457e-2 1.98756157274119659e-3 4.72794203804179913e-2 -3.45604017855819304e-2 -1.27470192348726752e-2 6.76309579550802287e-2 -2.34415320985334151e-2 4.08644664016975523e-2 5.42567417837185803e-2 -1.07649160098973740e-1\n-1.68810277934811537e-4 1.69811842239606635e-4 -2.86463937291807466e-4 -1.36083566361715289e-4 2.42149613542654733e-5 -1.22716147766280286e-4 -1.84555515665505045e-4 -1.52897660339120146e-4 -2.07963120469256452e-4 -1.01686791452903404e-2 -2.18517807040337982e-4 1.27415350929871587e-4 -5.51183102929260829e-4 -2.82456383884803876e-4 1.07054531530115964e-4 -1.66671066460281740e-4 -3.50418261185491005e-4 -1.50775877993485579e-4\n1.12571161000473915e-2 -1.87255119142814598e-2 -7.91721738494506090e-3 1.09645939408804637e-2 -9.97360802481099019e-4 8.64162865853411108e-3 -2.39255385629496241e-3 -4.22574661923713537e-3 -2.31148706357281811e-3 7.99804492412351008e-4 1.03307097404036667e-3 -1.06811719138854393e-2 -1.56355170006412837e-2 1.85690102292796477e-2 -1.26851663690750452e-3 1.09778704012261901e-2 -8.20249668998294067e-3 2.45623413686191444e-3\n1.80731428877957753e-4 7.85298866793388288e-4 8.19475055020628743e-3 -6.39913026516022868e-4 1.62687341068716248e-4 1.73393899484404072e-4 3.74157665718111458e-3 4.37387755688901491e-3 9.24161402717361621e-3 1.70813995038307872e-4 7.83604320981214184e-4 -1.00831017131057746e-2 1.59957822005864538e-2 2.20584818396482921e-4 3.01614831890835997e-3 1.40061192002460453e-4 3.97119501984054442e-3 8.30480084733921028e-3\n3.90653042242765924e-2 -7.50078550173161468e-2 -1.11297374702578292e-1 8.17892960657401989e-3 -6.20153261991426581e-3 3.04522234670179873e-2 1.29966635355782765e-2 -5.94040155792250682e-2 -4.63764488793206378e-2 1.35192998770286153e-3 3.76701176958629813e-2 -3.67008751645072073e-2 -2.26721302796723478e-1 6.35301060107090476e-2 -8.01258185150423019e-2 3.81272424490128603e-2 -7.19912094495350069e-2 -4.27196738522816269e-2\n-2.36654138321003814e-3 8.95416648681195354e-4 -1.09199361465902745e-2 -7.71267659095462303e-4 -5.73417929973855765e-5 -1.90313605946639897e-3 -6.95325322616272608e-3 -5.82842190761142555e-3 -9.08575915374047229e-3 8.96695279307378203e-4 -3.78421864535141922e-3 1.44274951423206937e-3 -2.10231346333471375e-2 -1.35014908666841217e-2 3.03494203213358410e-3 -2.22029845389841744e-3 -1.16445207274424364e-2 -6.67395247582021518e-3\n-1.42909285186897002e-2 1.39414907887383168e-2 -9.02634579059350683e-2 -3.34821815659908373e-2 -2.05602842577570126e-3 -1.07005382765996537e-2 5.48019588089125858e-4 -4.81773435717392090e-2 -5.49134049678050920e-2 -7.56625925247980907e-4 -1.63949713092847241e-2 1.56858293360164804e-2 -1.82390095046915141e-1 -2.48457454642873679e-2 -1.16900544884586469e-1 -1.38025155667214437e-2 -2.45194161105476358e-2 -5.68445141598583822e-2\n-7.99757378203942671e-4 -3.67140350955617173e-4 -5.66000861837280371e-3 2.36364587406315025e-4 -5.20702509283209086e-5 -6.66095923265142735e-4 -4.05305522659994179e-3 -3.02098087257689002e-3 -4.42712088017421790e-3 2.83663468637144307e-4 -1.61166540691166905e-3 2.57252639371265482e-4 -1.08300190461549616e-2 -1.06961577781311307e-3 2.88569221860488639e-3 -1.07305224073916683e-2 -7.00422423868288929e-3 -2.78557104835171860e-3\n-1.39139598021190201e-3 -9.80411241078381519e-3 -9.48530358617876400e-3 -1.24670213825250793e-2 -6.45772554659886457e-4 -1.07429192681855962e-3 2.06756251083655123e-3 -5.06269912936098930e-3 5.42983016715137060e-2 9.14139057870369016e-5 -4.50781134033641749e-3 -3.14174812387332325e-3 -1.94648050647580895e-2 -7.82241233876561056e-4 2.62001831048578222e-2 -1.18249296358395421e-3 -7.04610378247390035e-2 6.70759188385748606e-2\n-3.74904095440815252e-2 6.74172306094158597e-2 1.48624102664612900e-2 -1.79700161511234802e-2 4.34122486476039293e-3 -2.90690560117857696e-2 -3.91454841464009863e-3 7.93268352800840897e-3 -1.06935510673376935e-1 -1.61243728170897276e-3 -3.71036761902476947e-2 3.63403075106278478e-2 3.05993722700894505e-2 -6.15669186953638412e-2 3.02730231017914325e-2 -3.65137066140388405e-2 5.32275362173038891e-2 -1.57314378655912579e-1";
        let rows: Vec<Vec<f64>> = DUMP
            .lines()
            .map(|l| l.split_whitespace().map(|t| t.parse().unwrap()).collect())
            .collect();
        let n = rows.len();
        assert_eq!(n, 18);
        assert!(rows.iter().all(|r| r.len() == n));
        Matrix::from_fn(n, n, |i, j| rows[i][j])
    }

    /// A defective 3x3 Jordan block at eigenvalue 2.
    pub(crate) fn jordan_matrix() -> Matrix {
        Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[0.0, 2.0, 1.0], &[0.0, 0.0, 2.0]]).unwrap()
    }

    /// Regression: the fig4 cluster matrix. The naive first column
    /// h^2 - s*h + t cancels to pure rounding noise at its repeated-pole
    /// cluster, breaking shift transmission and stalling the QR iteration
    /// at the per-eigenvalue limit; the difference-form first column must
    /// converge it.
    #[test]
    fn clustered_spectrum_from_fig4_rf_receiver_converges() {
        let a = fig4_cluster_matrix();
        let s = check_schur(&a, 1e-10);
        // The cluster: at least 8 eigenvalues within 1e-8 of -0.01.
        let near = s
            .eigenvalues()
            .iter()
            .filter(|z| (z.re + 0.01).abs() < 1e-8 && z.im.abs() < 1e-8)
            .count();
        assert!(near >= 8, "expected the repeated-pole cluster, got {near}");
    }

    #[test]
    fn random_matrices_of_various_sizes() {
        for n in [1, 2, 3, 4, 5, 8, 13, 20] {
            let a = test_matrix(n, 1000 + n as u64);
            let scale = a.max_abs().max(1.0);
            check_schur(&a, 1e-8 * scale * n as f64);
        }
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_exact() {
        let a = Matrix::from_diagonal(&[3.0, -1.0, 2.5, 7.0]);
        let s = SchurDecomposition::new(&a).unwrap();
        let mut eig: Vec<f64> = s.eigenvalues().iter().map(|z| z.re).collect();
        eig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect = [-1.0, 2.5, 3.0, 7.0];
        for (e, x) in eig.iter().zip(expect.iter()) {
            assert!((e - x).abs() < 1e-12);
        }
        assert!(s.eigenvalues().iter().all(|z| z.im == 0.0));
    }

    #[test]
    fn rotation_matrix_gives_complex_pair() {
        let theta = 0.7_f64;
        let a = Matrix::from_rows(&[&[theta.cos(), -theta.sin()], &[theta.sin(), theta.cos()]])
            .unwrap();
        let s = check_schur(&a, 1e-12);
        let eig = s.eigenvalues();
        assert_eq!(eig.len(), 2);
        assert!((eig[0].re - theta.cos()).abs() < 1e-12);
        assert!((eig[0].im.abs() - theta.sin()).abs() < 1e-12);
    }

    #[test]
    fn eigenvalue_sum_matches_trace_and_product_matches_det() {
        for n in [3, 5, 9] {
            let a = test_matrix(n, 77 + n as u64);
            let s = SchurDecomposition::new(&a).unwrap();
            let eig = s.eigenvalues();
            let sum: Complex = eig.iter().cloned().sum();
            assert!(
                (sum.re - a.trace()).abs() < 1e-8,
                "trace mismatch for n={n}"
            );
            assert!(sum.im.abs() < 1e-8);
            let det = a.lu().map(|lu| lu.det()).unwrap_or(0.0);
            let prod = eig.iter().fold(Complex::ONE, |p, &z| p * z);
            assert!(
                (prod.re - det).abs() < 1e-6 * det.abs().max(1.0),
                "det mismatch for n={n}"
            );
        }
    }

    #[test]
    fn companion_matrix_of_known_polynomial() {
        // x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
        let a =
            Matrix::from_rows(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]).unwrap();
        let s = SchurDecomposition::new(&a).unwrap();
        let mut eig: Vec<f64> = s.eigenvalues().iter().map(|z| z.re).collect();
        eig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (e, x) in eig.iter().zip([1.0, 2.0, 3.0].iter()) {
            assert!((e - x).abs() < 1e-8, "eigenvalue {e} vs {x}");
        }
    }

    #[test]
    fn stable_rc_ladder_matrix_has_negative_real_eigenvalues() {
        // Tridiagonal -2/1 ladder: all eigenvalues real and negative.
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                -2.0
            } else if i.abs_diff(j) == 1 {
                1.0
            } else {
                0.0
            }
        });
        let s = check_schur(&a, 1e-10);
        for z in s.eigenvalues() {
            assert!(z.re < 0.0);
            assert!(z.im.abs() < 1e-9);
        }
        // All blocks are 1x1 after standardization.
        assert!(s.blocks().iter().all(|b| b.size == 1));
    }

    #[test]
    fn defective_jordan_block_converges() {
        let a = jordan_matrix();
        let s = check_schur(&a, 1e-10);
        for z in s.eigenvalues() {
            assert!((z.re - 2.0).abs() < 1e-7);
            assert!(z.im.abs() < 1e-7);
        }
    }

    #[test]
    fn adjoint_is_a_valid_schur_form_of_the_transpose() {
        for n in [3usize, 5, 8] {
            let a = test_matrix(n, 77 + n as u64);
            let s = SchurDecomposition::new(&a).unwrap();
            let adj = s.adjoint();
            // Q' T' Q'ᵀ reconstructs Aᵀ.
            let back = adj.q().matmul(&adj.t().matmul(&adj.q().transpose()));
            assert!(
                (&back - &a.transpose()).max_abs() < 1e-8 * n as f64,
                "adjoint reconstruction error {}",
                (&back - &a.transpose()).max_abs()
            );
            // T' quasi-triangular, blocks tile the diagonal.
            for i in 0..n {
                for j in 0..i.saturating_sub(1) {
                    assert!(adj.t()[(i, j)].abs() < 1e-9);
                }
            }
            let total: usize = adj.blocks().iter().map(|b| b.size).sum();
            assert_eq!(total, n);
            // Same spectrum.
            let mut e1: Vec<(i64, i64)> = s
                .eigenvalues()
                .iter()
                .map(|z| ((z.re * 1e6) as i64, (z.im.abs() * 1e6) as i64))
                .collect();
            let mut e2: Vec<(i64, i64)> = adj
                .eigenvalues()
                .iter()
                .map(|z| ((z.re * 1e6) as i64, (z.im.abs() * 1e6) as i64))
                .collect();
            e1.sort_unstable();
            e2.sort_unstable();
            assert_eq!(e1, e2);
        }
    }
}
