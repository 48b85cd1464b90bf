//! The dense zero-padded baseline pipeline (GShard / DeepSpeed-MoE style,
//! paper §3.1 and Appendix B.1).
//!
//! Gating constructs a dispatch mask equivalent to `[S, E, C]`; the dispatch
//! stage fills fixed-capacity `[E, C, H]` expert buffers, zero-padding unused
//! slots; an **even** all-to-all exchanges the full padded buffers; experts
//! process `C` rows each (padding included); a second even all-to-all and a
//! masked combine produce the output. The padding is physically allocated
//! and communicated — exactly the inefficiency PFT removes.

use xmoe_collectives::{CommError, Communicator, SimClock};
use xmoe_tensor::{argsort_desc_by, Tensor};

use crate::expert::{ffn_width, ExpertShard};
use crate::gating::{DropPolicy, GatingOutput, Router};
use crate::pipeline::MoeLayerSpec;
use crate::price::{self, Meter, F32};

/// Which routed entries win buffer slots when an expert overflows capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DenseDropOrder {
    /// GShard/DeepSpeed-MoE: first-come in token order.
    TokenOrder,
    /// Rank globally by combine weight — matches X-MoE's PFT retention, so
    /// the two pipelines become bit-comparable under overflow.
    WeightRanked,
}

/// The dense dispatch structure: padded buffers plus the (sparse view of
/// the) dispatch mask.
#[derive(Clone, Debug)]
pub struct DenseDispatch {
    /// `[E * C, H]` zero-padded expert input buffers (row `e * C + c`).
    pub buffers: Tensor,
    /// Mask entries `(token, expert, slot, weight)` — the nonzeros of the
    /// `[S, E, C]` dispatch mask.
    pub entries: Vec<(usize, usize, usize, f32)>,
    pub capacity: usize,
    pub dropped: usize,
}

/// Build the padded dispatch buffers from gating output (Appendix B.1).
pub fn build_dense_dispatch(
    tokens: &Tensor,
    gating: &GatingOutput,
    spec: &MoeLayerSpec,
    order: DenseDropOrder,
) -> DenseDispatch {
    let (e, c) = (spec.num_experts, spec.capacity);
    let s = gating.tokens();
    let k = gating.k();
    let mut buffers = Tensor::zeros(e * c, tokens.cols());
    let mut entries = Vec::with_capacity(s * k);
    let mut fill = vec![0usize; e];
    let mut dropped = 0usize;

    // Candidate (token, slot-in-k) pairs in the configured priority order.
    let mut cands: Vec<(usize, usize)> = Vec::with_capacity(s * k);
    for t in 0..s {
        for j in 0..k {
            cands.push((t, j));
        }
    }
    if order == DenseDropOrder::WeightRanked {
        let weights: Vec<f32> = cands
            .iter()
            .map(|&(t, j)| gating.combine_weights[t * k + j])
            .collect();
        let perm = argsort_desc_by(&weights);
        cands = perm.into_iter().map(|i| cands[i]).collect();
    }

    for (t, j) in cands {
        if spec.policy == DropPolicy::CapacityAndNegativeLogit && gating.top_logits[t * k + j] < 0.0
        {
            dropped += 1;
            continue;
        }
        let expert = gating.top_experts[t * k + j];
        if fill[expert] >= c {
            dropped += 1;
            continue;
        }
        let slot = fill[expert];
        fill[expert] += 1;
        buffers
            .row_mut(expert * c + slot)
            .copy_from_slice(tokens.row(t));
        entries.push((t, expert, slot, gating.combine_weights[t * k + j]));
    }

    DenseDispatch {
        buffers,
        entries,
        capacity: c,
        dropped,
    }
}

/// Single-rank dense baseline: all experts local.
pub(crate) fn forward_single_dense(
    tokens: &Tensor,
    router: &Router,
    experts: &ExpertShard,
    spec: &MoeLayerSpec,
    order: DenseDropOrder,
) -> Tensor {
    assert_eq!(experts.len(), spec.num_experts);
    let gating = router.gate(tokens);
    let d = build_dense_dispatch(tokens, &gating, spec, order);
    let c = d.capacity;
    // Experts process their full padded [C, H] slab.
    let per_expert = vec![c; spec.num_experts];
    let out_buffers = experts.forward_segments(&d.buffers, &per_expert);
    combine_dense(tokens.rows(), tokens.cols(), &out_buffers, &d.entries, c)
}

fn combine_dense(
    s: usize,
    hidden: usize,
    out_buffers: &Tensor,
    entries: &[(usize, usize, usize, f32)],
    capacity: usize,
) -> Tensor {
    let mut out = Tensor::zeros(s, hidden);
    for &(t, e, slot, w) in entries {
        let src = out_buffers.row(e * capacity + slot);
        let dst = out.row_mut(t);
        for (d, v) in dst.iter_mut().zip(src) {
            *d += w * v;
        }
    }
    out
}

/// Distributed dense baseline over an expert-parallel group: even
/// all-to-alls exchanging full padded slabs (padding included).
///
/// Stage labels match the padding-free forward's so the Fig 11 breakdown
/// can compare the two directly.
pub(crate) fn forward_ep_dense(
    tokens: &Tensor,
    router: &Router,
    shard: &ExpertShard,
    spec: &MoeLayerSpec,
    order: DenseDropOrder,
    ep: &Communicator,
    clock: &mut SimClock,
) -> Result<Tensor, CommError> {
    let w = ep.size();
    assert_eq!(spec.num_experts % w, 0);
    let e_local = spec.num_experts / w;
    let c = spec.capacity;
    let hidden = tokens.cols();
    let (s, e) = (tokens.rows() as f64, spec.num_experts);
    let padded = (e * c) as f64;

    // --- Gating + dense mask construction ------------------------------
    // The [S, E, C] one-hot mask is materialized (f32).
    let gating = router.gate(tokens);
    Meter::new(ep, clock).charge("gating", |cost| {
        price::router(cost, s, hidden, e) + price::dense_mask(cost, s, e, c as f64)
    });

    // --- Buffer dispatch: einsum("sec,sm->ecm") ------------------------
    let d = build_dense_dispatch(tokens, &gating, spec, order);
    let einsum = price::einsum(ep.cost(), s, padded, hidden, F32, 1.0);
    Meter::new(ep, clock).charge("buffer_dispatch", |_| einsum);

    // --- Even dispatch all-to-all (padding travels too) ----------------
    let send: Vec<Vec<f32>> = (0..w)
        .map(|dst| {
            crate::pipeline::rows_to_vec(&d.buffers, dst * e_local * c, (dst + 1) * e_local * c)
        })
        .collect();
    let recv = ep.all_to_all(send, clock)?;
    clock.commit("dispatch_a2a");

    // Arrange expert input: for local expert e, concatenate every source's
    // C-row slab (total W*C rows per expert).
    let mut expert_input = Tensor::zeros(w * e_local * c, hidden);
    {
        let dst_slice = expert_input.as_mut_slice();
        for e in 0..e_local {
            for (src, chunk) in recv.iter().enumerate() {
                let src_off = e * c * hidden;
                let dst_off = (e * w + src) * c * hidden;
                dst_slice[dst_off..dst_off + c * hidden]
                    .copy_from_slice(&chunk[src_off..src_off + c * hidden]);
            }
        }
    }

    // --- Expert computation over padded slabs --------------------------
    let per_expert = vec![w * c; e_local];
    let out_buffers = shard.forward_segments(&expert_input, &per_expert);
    let rows = (w * e_local * c) as f64;
    Meter::new(ep, clock).charge("expert", |cost| {
        price::expert_padded(cost, rows, hidden, ffn_width(&shard.experts), 1.0)
    });

    // --- Even combine all-to-all ----------------------------------------
    let send_back: Vec<Vec<f32>> = (0..w)
        .map(|src| {
            let mut v = Vec::with_capacity(e_local * c * hidden);
            for e in 0..e_local {
                let off = (e * w + src) * c * hidden;
                v.extend_from_slice(&out_buffers.as_slice()[off..off + c * hidden]);
            }
            v
        })
        .collect();
    let recv_back = ep.all_to_all(send_back, clock)?;
    clock.commit("combine_a2a");

    // Reassemble the [E*C, H] output buffer in global-expert order.
    let mut full_out = Tensor::zeros(spec.num_experts * c, hidden);
    {
        let dst_slice = full_out.as_mut_slice();
        for (owner, chunk) in recv_back.iter().enumerate() {
            let base = owner * e_local * c * hidden;
            dst_slice[base..base + chunk.len()].copy_from_slice(chunk);
        }
    }

    // --- Masked combine (einsum over the [S, E, C] weight mask) --------
    let out = combine_dense(tokens.rows(), hidden, &full_out, &d.entries, c);
    Meter::new(ep, clock).charge("buffer_combine", |_| einsum);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ExecCtx, PaddingFreePipeline, Pipeline};
    use xmoe_collectives::SimCluster;

    /// The padding-free pipeline under `ctx`, the thing dense is compared to.
    fn pf(
        tokens: &Tensor,
        router: &Router,
        experts: &ExpertShard,
        sp: &MoeLayerSpec,
        mut ctx: ExecCtx,
    ) -> Tensor {
        PaddingFreePipeline
            .forward(tokens, router, experts, sp, &mut ctx)
            .unwrap()
    }

    fn spec(e: usize, cap: usize) -> MoeLayerSpec {
        MoeLayerSpec::new(e, cap)
    }

    #[test]
    fn dense_buffers_contain_routed_tokens_and_padding() {
        let router = Router::new(8, 4, 2, 1);
        let tokens = Tensor::rand_uniform(6, 8, 1.0, 2);
        let gating = router.gate(&tokens);
        let sp = spec(4, 5);
        let d = build_dense_dispatch(&tokens, &gating, &sp, DenseDropOrder::TokenOrder);
        assert_eq!(d.buffers.shape(), (4 * 5, 8));
        assert_eq!(d.entries.len(), 12); // 6 tokens * k=2, no overflow
        for &(t, e, slot, _) in &d.entries {
            assert_eq!(d.buffers.row(e * 5 + slot), tokens.row(t));
        }
        // 20 slots, 12 filled: the rest must be zero padding.
        let filled: std::collections::HashSet<usize> =
            d.entries.iter().map(|&(_, e, s, _)| e * 5 + s).collect();
        for r in 0..20 {
            if !filled.contains(&r) {
                assert!(
                    d.buffers.row(r).iter().all(|&v| v == 0.0),
                    "slot {r} not padded"
                );
            }
        }
    }

    #[test]
    fn token_order_dropping_keeps_earlier_tokens() {
        let g = GatingOutput {
            top_experts: vec![0, 0, 0],
            combine_weights: vec![0.2, 0.9, 0.5],
            top_logits: vec![1.0; 3],
            k: 1,
            scores: Tensor::zeros(3, 1),
        };
        let tokens = Tensor::rand_uniform(3, 4, 1.0, 3);
        let sp = spec(1, 2);
        let d = build_dense_dispatch(&tokens, &g, &sp, DenseDropOrder::TokenOrder);
        let kept: Vec<usize> = d.entries.iter().map(|&(t, ..)| t).collect();
        assert_eq!(kept, vec![0, 1]); // token 2 dropped despite higher weight than 0
        assert_eq!(d.dropped, 1);
    }

    #[test]
    fn weight_ranked_dropping_matches_pft_retention() {
        let g = GatingOutput {
            top_experts: vec![0, 0, 0],
            combine_weights: vec![0.2, 0.9, 0.5],
            top_logits: vec![1.0; 3],
            k: 1,
            scores: Tensor::zeros(3, 1),
        };
        let tokens = Tensor::rand_uniform(3, 4, 1.0, 3);
        let sp = spec(1, 2);
        let d = build_dense_dispatch(&tokens, &g, &sp, DenseDropOrder::WeightRanked);
        let mut kept: Vec<usize> = d.entries.iter().map(|&(t, ..)| t).collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![1, 2]); // highest weights win, like the PFT
    }

    #[test]
    fn dense_single_matches_padding_free_single_without_drops() {
        let (s, h, f, e, k) = (20, 12, 8, 4, 2);
        let router = Router::new(h, e, k, 7);
        let experts = ExpertShard::full(e, h, f, 8);
        let tokens = Tensor::rand_uniform(s, h, 1.0, 9);
        let sp = spec(e, 1000);
        let dense =
            forward_single_dense(&tokens, &router, &experts, &sp, DenseDropOrder::TokenOrder);
        let pf = pf(&tokens, &router, &experts, &sp, ExecCtx::single());
        assert!(
            dense.allclose(&pf, 1e-4),
            "max diff {}",
            dense.max_abs_diff(&pf)
        );
    }

    #[test]
    fn dense_single_matches_padding_free_under_weight_ranked_drops() {
        let (s, h, f, e, k) = (40, 12, 8, 4, 2);
        let router = Router::new(h, e, k, 17);
        let experts = ExpertShard::full(e, h, f, 18);
        let tokens = Tensor::rand_uniform(s, h, 1.0, 19);
        let sp = spec(e, 9); // tight capacity forces drops
        let dense = forward_single_dense(
            &tokens,
            &router,
            &experts,
            &sp,
            DenseDropOrder::WeightRanked,
        );
        let pf = pf(&tokens, &router, &experts, &sp, ExecCtx::single());
        assert!(
            dense.allclose(&pf, 1e-4),
            "max diff {}",
            dense.max_abs_diff(&pf)
        );
    }

    #[test]
    fn distributed_dense_matches_single_rank() {
        let (s, h, f, e, k) = (16, 8, 4, 8, 2);
        let router = Router::new(h, e, k, 27);
        let experts_full = ExpertShard::full(e, h, f, 28);
        let tokens = Tensor::rand_uniform(s, h, 1.0, 29);
        let sp = spec(e, 6);
        let reference = forward_single_dense(
            &tokens,
            &router,
            &experts_full,
            &sp,
            DenseDropOrder::TokenOrder,
        );
        let out = SimCluster::frontier(4).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 4, e, h, f, 28);
            forward_ep_dense(
                &tokens,
                &router,
                &shard,
                &sp,
                DenseDropOrder::TokenOrder,
                &ctx.world,
                &mut ctx.clock,
            )
            .unwrap()
        });
        for d in &out {
            assert!(
                d.allclose(&reference, 1e-4),
                "max diff {}",
                d.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn dense_even_a2a_costs_more_than_padding_free_uneven() {
        // With capacity padding, the dense pipeline must move more bytes and
        // thus more simulated time in the dispatch all-to-all.
        let (s, h, f, e, k) = (16, 8, 4, 8, 2);
        let router = Router::new(h, e, k, 37);
        let sp = spec(e, 16); // generous capacity = lots of padding
        let tokens = Tensor::rand_uniform(s, h, 1.0, 39);
        let dense_t = SimCluster::frontier(4).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 4, e, h, f, 38);
            let _ = forward_ep_dense(
                &tokens,
                &router,
                &shard,
                &sp,
                DenseDropOrder::TokenOrder,
                &ctx.world,
                &mut ctx.clock,
            )
            .unwrap();
            ctx.clock.bucket("dispatch_a2a")
        });
        let pf_t = SimCluster::frontier(4).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 4, e, h, f, 38);
            let ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            let _ = pf(&tokens, &router, &shard, &sp, ex);
            ctx.clock.bucket("dispatch_a2a")
        });
        assert!(
            dense_t[0] > pf_t[0],
            "dense a2a {} should exceed padding-free {}",
            dense_t[0],
            pf_t[0]
        );
    }
}
