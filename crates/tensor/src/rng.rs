//! Deterministic random number generation.
//!
//! Every stochastic decision in the workspace (weight init, synthetic token
//! streams, RBD pilot selection, congestion sampling) draws from [`DetRng`],
//! a splitmix64-based generator. Determinism matters doubly here: the
//! correctness tests compare pipelines that must see identical routing, and
//! simulated ranks must be reproducible independent of thread scheduling.

/// A small, fast, deterministic PRNG (splitmix64 core).
///
/// Not cryptographic; statistically adequate for simulation workloads. The
/// `rand` crate is used where distributions are needed; `DetRng` is the
/// cheap default for hot paths and for seeding.
#[derive(Clone, Debug)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Create a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zeros fixed point by mixing in a constant.
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Snapshot the raw generator state for checkpointing.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuild a generator from a [`DetRng::state`] snapshot. Unlike
    /// [`DetRng::new`] this performs no seed mixing: the restored stream
    /// continues exactly where the snapshot was taken.
    pub fn from_state(state: u64) -> Self {
        Self { state }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        // 24 high-quality mantissa bits.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn next_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_below(0)");
        // Multiply-shift rejection-free mapping; bias negligible for n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Sample an index from unnormalized non-negative weights.
    pub fn sample_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "sample_weighted with zero total weight");
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Standard normal via Box-Muller.
    pub fn next_gaussian(&mut self) -> f64 {
        let u1 = self.next_f64().max(1e-12);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut r = DetRng::new(7);
        for _ in 0..10_000 {
            let v = r.next_f32();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut r = DetRng::new(9);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            let v = r.next_below(8);
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn weighted_sampling_respects_zero_weights() {
        let mut r = DetRng::new(3);
        for _ in 0..200 {
            let i = r.sample_weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(11);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut r = DetRng::new(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
