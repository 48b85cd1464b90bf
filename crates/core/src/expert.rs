//! Expert FFNs and per-rank expert shards.
//!
//! Each expert is the two-matrix FFN of the paper's MLP stage (`w1`, `w2` in
//! Listing 1 `mlp`), with a SiLU nonlinearity between — the DeepSeek-style
//! fine-grained expert. Under expert parallelism each rank owns a contiguous
//! block of `E / W` experts ([`ExpertShard`]).

use xmoe_tensor::{gemm_grouped, silu_into, silu_slice, RowSink, RowSource, Tensor, Workspace};

use crate::pipeline::padding_free::{run_experts, ExpertKernel};
use crate::price::Meter;

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

/// Where [`expert_ffn`] reads its `[Σ counts, H]` input rows and puts its
/// output rows — and where the training backward reads their gradients and
/// puts the input's: one argument, so neither adds a routed-row buffer of
/// its own.
pub enum FfnRows<'a> {
    /// Rows read by the first product and then overwritten with the outputs
    /// by the last — the rows that arrived over a wire, or a padded copy.
    InPlace(&'a mut [f32]),
    /// Input rows from a [`RowSource`] (under `Local`, the tokens — or the
    /// output gradients — read by id), outputs through a [`RowSink`]:
    /// a buffer of their own, or the combine straight into the layer output
    /// (or its input gradient).
    Apart(RowSource<'a>, RowSink<'a>),
}

impl<'a> FfnRows<'a> {
    /// Where the input rows are read.
    pub fn source(&self) -> RowSource<'_> {
        match self {
            FfnRows::InPlace(xy) => RowSource::Contiguous(xy),
            FfnRows::Apart(x, _) => *x,
        }
    }

    /// Where the output rows go, once the input has been read.
    pub fn sink(self) -> RowSink<'a> {
        match self {
            FfnRows::InPlace(xy) => RowSink::Rows(xy),
            FfnRows::Apart(_, y) => y,
        }
    }
}

/// The expert FFN, written once (paper §B.4's sequential per-expert GEMM):
/// over the expert-major segments `counts` of `rows`, segment `e` through
/// `experts[e]`, `h_pre = x·W1`, `h_act = silu(h_pre)` and then
/// `y = h_act·W2`, where [`FfnRows`] says — the first product has read all
/// of its input before the second writes. The whole set is two
/// [`gemm_grouped`] batches on the persistent worker pool, so many small
/// segments fill the machine instead of running back-to-back, and the bits
/// are the sequential per-expert loop's at any worker count. `h_pre` is
/// overwritten whole (every row belongs to exactly one segment, which is
/// also why one SiLU pass equals the per-segment ones), so it may be a
/// for-overwrite lease; so may `h_act`. Training passes `h_act` and saves
/// both (its backward's combine-weight gradient is `⟨d_out·W2ᵀ, h_act⟩`, so
/// no pass keeps `y`); the forward-only callers pass `None`, and the SiLU
/// runs in place over `h_pre` (the same expression, so the same bits),
/// which the second product then reads.
pub fn expert_ffn(
    experts: &[Expert],
    counts: &[usize],
    rows: FfnRows,
    h_pre: &mut [f32],
    h_act: Option<&mut [f32]>,
) {
    assert_eq!(
        counts.len(),
        experts.len(),
        "segment count must equal local expert count"
    );
    let (h, f) = widths(experts);
    let x = rows.source();
    gemm_grouped(x, counts, h, |e| experts[e].w1.as_slice(), f, &mut *h_pre);
    let h_act: &[f32] = match h_act {
        Some(h_act) => {
            silu_into(h_pre, h_act);
            h_act
        }
        None => {
            silu_slice(h_pre);
            h_pre
        }
    };
    let w2 = |e: usize| experts[e].w2.as_slice();
    gemm_grouped(h_act, counts, f, w2, h, rows.sink());
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

    /// [`expert_ffn`] over the whole shard (paper §B.4): `input` rows are
    /// grouped by local expert with lengths `tokens_per_local_expert`; each
    /// segment runs through its expert with no padding. The pooled forward
    /// on a throwaway arena.
    pub fn forward_segments(&self, input: &Tensor, tokens_per_local_expert: &[usize]) -> Tensor {
        self.forward_segments_pooled(input, tokens_per_local_expert, &mut Workspace::new())
    }

    /// [`Self::forward_segments`] on workspace leases: the layer pass's
    /// expert stage ([`run_experts`]) with the plain kernel and no clock,
    /// reading `input` and writing one lease, which the caller recycles.
    pub fn forward_segments_pooled(
        &self,
        input: &Tensor,
        tokens_per_local_expert: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        // For-overwrite: the second product writes every row.
        let mut y = ws.take_for_overwrite(input.rows(), input.cols());
        let rows = FfnRows::Apart(input.as_slice().into(), y.as_mut_slice().into());
        let (counts, plain) = (tokens_per_local_expert, ExpertKernel::Plain);
        let quiet = Meter::default();
        run_experts(&self.experts, counts, rows, plain, None, ws, quiet);
        y
    }
}

/// `(hidden, ffn)` widths of a shard's experts (0s for an empty shard).
pub(crate) fn widths(experts: &[Expert]) -> (usize, usize) {
    experts.first().map_or((0, 0), |e| e.w1.shape())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmoe_tensor::{matmul, silu_slice};

    impl Expert {
        /// The reference the grouped body is checked against: one expert's
        /// `silu(x @ w1) @ w2` on owned tensors.
        pub(crate) fn forward(&self, x: &Tensor) -> Tensor {
            let mut h = matmul(x, &self.w1);
            silu_slice(h.as_mut_slice());
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
