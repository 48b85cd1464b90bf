//! Seeded input generation. `--seed` drives tokens, corpus seeds and
//! traffic seeds only; model weights use fixed seeds, and the program never
//! sees the seed of a token batch — only the generated values. The
//! generator is the benchmark's own (SplitMix64), so inputs do not move
//! when the library's `DetRng` does.

use xmoe_tensor::Tensor;

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state, full period.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)` with 24 bits of mantissa.
    pub fn next_sym_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// Derive an independent seed for stream `(tag, a, b)` of a run.
pub fn sub_seed(seed: u64, tag: &str, a: u64, b: u64) -> u64 {
    let mut h = SplitMix::new(seed);
    let mut acc = h.next_u64();
    for byte in tag.bytes() {
        acc = SplitMix::new(acc ^ u64::from(byte)).next_u64();
    }
    acc = SplitMix::new(acc ^ a.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64();
    SplitMix::new(acc ^ b.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// A `[rows, cols]` batch of activations, uniform in `[-1, 1)`.
pub fn tokens(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut g = SplitMix::new(seed);
    Tensor::from_fn(rows, cols, |_, _| g.next_sym_f32())
}

/// A ring of `n` token batches for stream `(tag, rank)`.
pub fn token_ring(
    n: usize,
    rows: usize,
    cols: usize,
    seed: u64,
    tag: &str,
    rank: usize,
) -> Vec<Tensor> {
    (0..n)
        .map(|i| tokens(rows, cols, sub_seed(seed, tag, rank as u64, i as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tokens_different_seed_different_tokens() {
        let a = token_ring(3, 8, 4, 11, "t", 0);
        let b = token_ring(3, 8, 4, 11, "t", 0);
        let c = token_ring(3, 8, 4, 12, "t", 0);
        let other_rank = token_ring(3, 8, 4, 11, "t", 1);
        for i in 0..3 {
            assert_eq!(a[i].as_slice(), b[i].as_slice());
            assert_ne!(a[i].as_slice(), c[i].as_slice());
            assert_ne!(a[i].as_slice(), other_rank[i].as_slice());
        }
        assert_ne!(a[0].as_slice(), a[1].as_slice());
        assert!(a[0].as_slice().iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
