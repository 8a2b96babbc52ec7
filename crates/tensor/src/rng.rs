//! A thin, seedable RNG facade used across the workspace.
//!
//! Every experiment in the reproduction is seeded so that tables and figures
//! are regenerable bit-for-bit.  [`TensorRng`] is a self-contained
//! xoshiro256** generator (seeded through SplitMix64, so any 64-bit seed
//! gives a well-mixed state) with the sampling helpers the rest of the
//! workspace needs (normal variates via Box–Muller, categorical sampling,
//! Dirichlet-ish simplex noise and matrix initialisers).

use crate::Matrix;

/// Seedable random number generator with matrix-initialisation helpers.
#[derive(Clone, Debug)]
pub struct TensorRng {
    state: [u64; 4],
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro256** state.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self { state: [next(), next(), next(), next()] }
    }

    /// Next raw 64-bit output (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Derives an independent child generator; handy for giving each
    /// repetition / component its own stream while staying reproducible.
    pub fn fork(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        // 24 high-quality bits -> [0, 1) with full f32 mantissa coverage.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.  Panics if `n == 0`.
    pub fn usize_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "usize_below: n must be positive");
        // Modulo with zone rejection against modulo bias: a draw at or above
        // `zone = MAX - MAX % n` is redrawn.  `MAX % n < n`, so the zone is
        // at least `MAX - n + 1` and any draw `v <= MAX - n` is accepted
        // without computing it; only the rare draws above pay the division.
        let n64 = n as u64;
        loop {
            let v = self.next_u64();
            if v <= u64::MAX - n64 || v < u64::MAX - u64::MAX % n64 {
                return (v % n64) as usize;
            }
        }
    }

    /// Bernoulli draw with success probability `p`.
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.uniform() < p
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn normal(&mut self) -> f32 {
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1 = (1.0 - self.uniform()).max(f32::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Samples an index from an (unnormalised, non-negative) weight vector.
    /// Falls back to a uniform draw when the weights sum to zero.
    pub fn categorical(&mut self, weights: &[f32]) -> usize {
        self.categorical_with_total(weights, weights.iter().sum())
    }

    /// [`TensorRng::categorical`] for a caller that already holds `total`,
    /// the left-to-right sum of `weights`, so the weights are not summed a
    /// second time.
    pub fn categorical_with_total(&mut self, weights: &[f32], total: f32) -> usize {
        assert!(!weights.is_empty(), "categorical: empty weights");
        if total <= 0.0 || !total.is_finite() {
            return self.usize_below(weights.len());
        }
        let mut threshold = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            threshold -= w;
            if threshold <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Random point on the probability simplex obtained by normalising
    /// independent Gamma(alpha, 1) draws — i.e. a symmetric Dirichlet sample.
    /// Gamma variates are generated with the Marsaglia–Tsang method (with
    /// the standard boost for alpha < 1).
    pub fn dirichlet(&mut self, k: usize, alpha: f32) -> Vec<f32> {
        assert!(k > 0, "dirichlet: k must be positive");
        let mut draws: Vec<f32> = (0..k).map(|_| self.gamma(alpha)).collect();
        let sum: f32 = draws.iter().sum();
        if sum <= 0.0 {
            return vec![1.0 / k as f32; k];
        }
        draws.iter_mut().for_each(|v| *v /= sum);
        draws
    }

    /// Gamma(alpha, 1) sample (Marsaglia & Tsang).
    pub fn gamma(&mut self, alpha: f32) -> f32 {
        if alpha < 1.0 {
            // boost: Gamma(a) = Gamma(a+1) * U^(1/a)
            let u = self.uniform().max(f32::MIN_POSITIVE);
            return self.gamma(alpha + 1.0) * u.powf(1.0 / alpha);
        }
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.uniform().max(f32::MIN_POSITIVE);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, values: &mut [T]) {
        if values.len() < 2 {
            return;
        }
        for i in (1..values.len()).rev() {
            let j = self.usize_below(i + 1);
            values.swap(i, j);
        }
    }

    /// Samples `count` distinct indices from `[0, n)` (count must be <= n).
    pub fn sample_indices(&mut self, n: usize, count: usize) -> Vec<usize> {
        assert!(count <= n, "sample_indices: count {count} exceeds population {n}");
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(count);
        all
    }

    /// Matrix with entries drawn uniformly from `[-bound, bound]`.
    pub fn uniform_matrix(&mut self, rows: usize, cols: usize, bound: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.uniform_range(-bound, bound))
    }

    /// Matrix with normal(0, std) entries.
    pub fn normal_matrix(&mut self, rows: usize, cols: usize, std: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.normal_with(0.0, std))
    }

    /// Glorot/Xavier-uniform initialisation for a `fan_in x fan_out` weight.
    pub fn xavier_uniform(&mut self, fan_in: usize, fan_out: usize) -> Matrix {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        self.uniform_matrix(fan_in, fan_out, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = TensorRng::seed_from_u64(42);
        let mut b = TensorRng::seed_from_u64(42);
        for _ in 0..32 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TensorRng::seed_from_u64(1);
        let mut b = TensorRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 16);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn usize_below_matches_the_two_division_form() {
        fn two_division(rng: &mut TensorRng, n: usize) -> usize {
            let n64 = n as u64;
            let zone = u64::MAX - (u64::MAX % n64);
            loop {
                let v = rng.next_u64();
                if v < zone {
                    return (v % n64) as usize;
                }
            }
        }
        // near 2^63 about half of all draws land above the zone, so the
        // rejection path is exercised as often as the fast path
        let half = 1usize << 63;
        for n in [1, 2, 3, 7, 10, 203, 1000, half - 1, half, half + 1, half + 12345, usize::MAX - 1, usize::MAX] {
            let mut fast = TensorRng::seed_from_u64(n as u64);
            let mut reference = fast.clone();
            for _ in 0..2000 {
                assert_eq!(fast.usize_below(n), two_division(&mut reference, n), "n = {n}");
            }
            assert_eq!(fast.next_u64(), reference.next_u64(), "n = {n}: generator states diverged");
        }
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = TensorRng::seed_from_u64(7);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let mut rng = TensorRng::seed_from_u64(3);
        let samples: Vec<f32> = (0..20_000).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / samples.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = TensorRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.categorical(&[0.1, 0.6, 0.3])] += 1;
        }
        assert!(counts[1] > counts[2] && counts[2] > counts[0]);
        let p1 = counts[1] as f32 / 30_000.0;
        assert!((p1 - 0.6).abs() < 0.03);
    }

    #[test]
    fn categorical_zero_weights_falls_back_to_uniform() {
        let mut rng = TensorRng::seed_from_u64(5);
        let idx = rng.categorical(&[0.0, 0.0, 0.0]);
        assert!(idx < 3);
    }

    #[test]
    fn dirichlet_is_on_the_simplex() {
        let mut rng = TensorRng::seed_from_u64(9);
        for alpha in [0.3f32, 1.0, 5.0] {
            let p = rng.dirichlet(4, alpha);
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn gamma_is_positive_with_right_mean() {
        let mut rng = TensorRng::seed_from_u64(13);
        let samples: Vec<f32> = (0..20_000).map(|_| rng.gamma(3.0)).collect();
        assert!(samples.iter().all(|&v| v > 0.0));
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        assert!((mean - 3.0).abs() < 0.1, "gamma(3) mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = TensorRng::seed_from_u64(21);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = TensorRng::seed_from_u64(17);
        let idx = rng.sample_indices(20, 10);
        let mut dedup = idx.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        assert!(idx.iter().all(|&i| i < 20));
    }

    #[test]
    fn xavier_bound_respected() {
        let mut rng = TensorRng::seed_from_u64(23);
        let w = rng.xavier_uniform(10, 20);
        let bound = (6.0 / 30.0f32).sqrt();
        assert!(w.as_slice().iter().all(|&v| v.abs() <= bound + 1e-6));
    }

    #[test]
    fn fork_produces_independent_reproducible_streams() {
        let mut parent_a = TensorRng::seed_from_u64(100);
        let mut parent_b = TensorRng::seed_from_u64(100);
        let mut child_a = parent_a.fork();
        let mut child_b = parent_b.fork();
        assert_eq!(child_a.uniform().to_bits(), child_b.uniform().to_bits());
    }
}
