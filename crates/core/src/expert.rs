//! Expert FFNs and per-rank expert shards.
//!
//! Each expert is the two-matrix FFN of the paper's MLP stage (`w1`, `w2` in
//! Listing 1 `mlp`), with a SiLU nonlinearity between — the DeepSeek-style
//! fine-grained expert. Under expert parallelism each rank owns a contiguous
//! block of `E / W` experts ([`ExpertShard`]).

use xmoe_tensor::{gemm_grouped, silu_into, Tensor, Workspace};

/// One expert FFN: `y = silu(x @ w1) @ w2`.
#[derive(Clone, Debug)]
pub struct Expert {
    /// `[H, H_FFN]`.
    pub w1: Tensor,
    /// `[H_FFN, H]`.
    pub w2: Tensor,
}

impl Expert {
    /// Randomly initialized expert.
    pub fn new(hidden: usize, ffn: usize, seed: u64) -> Self {
        Self {
            w1: Tensor::rand_init(hidden, ffn, hidden, seed),
            w2: Tensor::rand_init(ffn, hidden, ffn, seed ^ 0xFFFF_0000),
        }
    }
}

/// The expert FFN, written once (paper §B.4's sequential per-expert GEMM):
/// over the expert-major segments `counts` of `input` (`[Σ counts, H]`),
/// segment `e` through `experts[e]`, `h_pre = input·W1`,
/// `h_act = silu(h_pre)` and `y = h_act·W2`. The whole set is two
/// [`gemm_grouped`] batches on the persistent worker pool, so many small
/// segments fill the machine instead of running back-to-back, and the bits
/// are the sequential per-expert loop's at any worker count. All three
/// outputs are overwritten whole (every row belongs to exactly one segment,
/// which is also why one SiLU pass equals the per-segment ones), so they may
/// be for-overwrite leases. The forward-only callers drop `h_pre`/`h_act`;
/// training saves them for the backward.
pub fn expert_ffn(
    experts: &[Expert],
    counts: &[usize],
    input: &[f32],
    h_pre: &mut [f32],
    h_act: &mut [f32],
    y: &mut [f32],
) {
    assert_eq!(
        counts.len(),
        experts.len(),
        "segment count must equal local expert count"
    );
    let (h, f) = experts.first().map_or((0, 0), |e| e.w1.shape());
    gemm_grouped(input, counts, h, |e| experts[e].w1.as_slice(), f, h_pre);
    silu_into(h_pre, h_act);
    gemm_grouped(h_act, counts, f, |e| experts[e].w2.as_slice(), h, y);
}

/// The contiguous block of experts owned by one EP rank.
#[derive(Clone, Debug)]
pub struct ExpertShard {
    /// Global index of the first owned expert.
    pub first_expert: usize,
    pub experts: Vec<Expert>,
}

impl ExpertShard {
    /// Deterministically initialize the shard for `rank` of `world` ranks,
    /// over `num_experts` total experts. All ranks derive the same expert
    /// weights from `seed`, so distributed runs can be checked against a
    /// single-rank reference holding all experts.
    pub fn for_rank(
        rank: usize,
        world: usize,
        num_experts: usize,
        hidden: usize,
        ffn: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(
            num_experts % world,
            0,
            "experts {num_experts} not divisible by world {world}"
        );
        let per = num_experts / world;
        let first_expert = rank * per;
        let experts = (first_expert..first_expert + per)
            .map(|e| Expert::new(hidden, ffn, seed.wrapping_add(e as u64 * 7919)))
            .collect();
        Self {
            first_expert,
            experts,
        }
    }

    /// All experts on a single rank (the reference configuration).
    pub fn full(num_experts: usize, hidden: usize, ffn: usize, seed: u64) -> Self {
        Self::for_rank(0, 1, num_experts, hidden, ffn, seed)
    }

    pub fn len(&self) -> usize {
        self.experts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.experts.is_empty()
    }

    /// Expert FFN width (0 for an empty shard).
    pub fn ffn(&self) -> usize {
        self.experts.first().map_or(0, |e| e.w1.cols())
    }

    /// Does this shard own global expert `e`?
    pub fn owns(&self, e: usize) -> bool {
        e >= self.first_expert && e < self.first_expert + self.experts.len()
    }

    /// [`expert_ffn`] over the whole shard (paper §B.4): `input` rows are
    /// grouped by local expert with lengths `tokens_per_local_expert`; each
    /// segment runs through its expert with no padding. The pooled forward
    /// on a throwaway arena.
    pub fn forward_segments(&self, input: &Tensor, tokens_per_local_expert: &[usize]) -> Tensor {
        self.forward_segments_pooled(input, tokens_per_local_expert, &mut Workspace::new())
    }

    /// [`Self::forward_segments`] on workspace leases: one `[total, 2·ffn]`
    /// strip split into `h_pre | h_act` (one lease, so the arena holds as
    /// many buffers as with an in-place SiLU) and the output come from `ws`,
    /// and the grouped GEMMs write straight into them instead of
    /// materialising per-segment tensors. The caller recycles the returned
    /// tensor.
    pub fn forward_segments_pooled(
        &self,
        input: &Tensor,
        tokens_per_local_expert: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        let total: usize = tokens_per_local_expert.iter().sum();
        assert_eq!(total, input.rows(), "segment sum != input rows");
        let (hidden, ffn) = self.experts.first().map_or((0, 0), |e| e.w1.shape());
        // For-overwrite: `expert_ffn` writes all of both whole.
        let mut h = ws.take_for_overwrite(total, 2 * ffn);
        let mut out = ws.take_for_overwrite(total, hidden);
        let (h_pre, h_act) = h.as_mut_slice().split_at_mut(total * ffn);
        expert_ffn(
            &self.experts,
            tokens_per_local_expert,
            input.as_slice(),
            h_pre,
            h_act,
            out.as_mut_slice(),
        );
        ws.recycle(h);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmoe_tensor::{matmul, silu};

    impl Expert {
        /// The reference the grouped body is checked against: one expert's
        /// `silu(x @ w1) @ w2` on owned tensors.
        pub(crate) fn forward(&self, x: &Tensor) -> Tensor {
            let mut h = matmul(x, &self.w1);
            silu(&mut h);
            matmul(&h, &self.w2)
        }
    }

    #[test]
    fn expert_forward_shapes() {
        let e = Expert::new(8, 16, 1);
        let x = Tensor::rand_uniform(5, 8, 1.0, 2);
        let y = e.forward(&x);
        assert_eq!(y.shape(), (5, 8));
    }

    #[test]
    fn expert_forward_is_deterministic_in_seed() {
        let x = Tensor::rand_uniform(3, 8, 1.0, 2);
        let y1 = Expert::new(8, 16, 7).forward(&x);
        let y2 = Expert::new(8, 16, 7).forward(&x);
        assert!(y1.allclose(&y2, 0.0));
    }

    #[test]
    fn sharded_experts_match_full_set() {
        // 8 experts over 4 ranks: rank r owns experts 2r, 2r+1 with weights
        // identical to the full single-rank shard.
        let full = ExpertShard::full(8, 8, 16, 99);
        for rank in 0..4 {
            let shard = ExpertShard::for_rank(rank, 4, 8, 8, 16, 99);
            assert_eq!(shard.first_expert, rank * 2);
            assert_eq!(shard.len(), 2);
            for (i, ex) in shard.experts.iter().enumerate() {
                let global = shard.first_expert + i;
                assert!(ex.w1.allclose(&full.experts[global].w1, 0.0));
                assert!(shard.owns(global));
            }
        }
    }

    #[test]
    fn forward_segments_matches_manual_loop() {
        let shard = ExpertShard::full(3, 8, 4, 5);
        let input = Tensor::rand_uniform(6, 8, 1.0, 6);
        let out = shard.forward_segments(&input, &[2, 0, 4]);
        let y0 = shard.experts[0].forward(&input.slice_rows(0, 2));
        let y2 = shard.experts[2].forward(&input.slice_rows(2, 6));
        assert!(out.slice_rows(0, 2).allclose(&y0, 0.0));
        assert!(out.slice_rows(2, 6).allclose(&y2, 0.0));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn shard_requires_divisible_expert_count() {
        let _ = ExpertShard::for_rank(0, 3, 8, 4, 4, 1);
    }

    #[test]
    fn forward_segments_handles_all_zero_segments() {
        // Every expert idle: a [0, H] input must produce a [0, H] output on
        // both the owned and pooled paths.
        let shard = ExpertShard::full(3, 8, 4, 5);
        let input = Tensor::zeros(0, 8);
        let out = shard.forward_segments(&input, &[0, 0, 0]);
        assert_eq!(out.shape(), (0, 8));
        let mut ws = Workspace::new();
        let pooled = shard.forward_segments_pooled(&input, &[0, 0, 0], &mut ws);
        assert_eq!(pooled.shape(), (0, 8));
        ws.recycle(pooled);
    }

    #[test]
    fn forward_segments_pooled_is_bitwise_identical() {
        let shard = ExpertShard::full(4, 12, 7, 15);
        let input = Tensor::rand_uniform(11, 12, 1.0, 16);
        let segs = [3usize, 0, 6, 2];
        let expected = shard.forward_segments(&input, &segs);
        let mut ws = Workspace::new();
        // Two rounds: second reuses warm (dirty) buffers.
        for _ in 0..2 {
            let pooled = shard.forward_segments_pooled(&input, &segs, &mut ws);
            assert!(pooled.allclose(&expected, 0.0), "pooled output diverged");
            ws.recycle(pooled);
        }
        assert_eq!(ws.stats().pool_misses, 2, "steady state allocates");
    }
}
