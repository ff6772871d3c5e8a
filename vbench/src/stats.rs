//! Order statistics of timing samples and the seeded generator of inputs.

/// Median (mean of the middle pair for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` (the `numpy` default); 0 for
/// no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Smallest sample; 0 for no samples. On a machine that is sometimes slowed
/// by other tenants, the best of repeats spread over a run is the steadiest
/// estimate of a deterministic computation's cost.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median over `groups` interleaved repeats of each repeat's best sample:
/// sample `j` belongs to repeat `j % groups`, so every repeat draws on the
/// whole run. 0 for no samples.
pub fn median_of_bests(samples: &[f64], groups: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let groups = groups.clamp(1, samples.len());
    let bests: Vec<f64> = (0..groups)
        .map(|g| {
            samples[g..]
                .iter()
                .step_by(groups)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    median(&bests)
}

/// Per-call timing summary: median, 99th percentile and sample count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p99: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        Summary {
            median: median(samples),
            p99: quantile(samples, 0.99),
            n: samples.len(),
        }
    }
}

/// SplitMix64: a tiny, well-mixed 64-bit generator, so a seed fixes every
/// input without an external crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn bests_take_the_smallest_sample_of_each_interleaved_repeat() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(best(&[]), 0.0);
        // Repeats {5, 1, 9}, {2, 8, 7} and {6, 3, 4} have bests 1, 2 and 3.
        let s = [5.0, 2.0, 6.0, 1.0, 8.0, 3.0, 9.0, 7.0, 4.0];
        assert_eq!(median_of_bests(&s, 3), 2.0);
        assert_eq!(median_of_bests(&s, 1), 1.0);
        assert_eq!(median_of_bests(&[4.0, 2.0], 5), 3.0);
        assert_eq!(median_of_bests(&[], 3), 0.0);
    }

    #[test]
    fn generator_is_a_function_of_the_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7);
        assert_ne!(r.next_u64(), r.next_u64());
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }
}
