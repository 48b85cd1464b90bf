//! Megablocks-style block-sparse pipeline (paper §2, Related Work).
//!
//! Megablocks casts the MoE layer as block-sparse matrix multiplication
//! with no token dropping, but its kernels require each expert's token
//! segment padded **up to a multiple of the tile size** (e.g. 128 rows).
//! For conventional MoEs (few large experts) the per-expert remainder is
//! negligible; for expert-specialized MoEs with hundreds of small experts
//! the remainders add up — the paper: "incurring serious zero-paddings on
//! the emerging MoE workload".
//!
//! This module implements the block-padded execution (functionally
//! equivalent — zero rows contribute nothing) plus the padding-waste
//! accounting the `ablation_blocksparse` bench sweeps.

use xmoe_tensor::Workspace;

use crate::expert::{widths, Expert, FfnRows};
use crate::pipeline::padding_free::{run_experts, ExpertKernel};
use crate::price::{self, Meter};

/// Round `n` up to a multiple of `block`.
pub fn round_up(n: usize, block: usize) -> usize {
    assert!(block > 0);
    n.div_ceil(block) * block
}

/// Fraction of rows in the block-padded buffer that are padding, for the
/// given per-expert token counts.
pub fn block_padding_waste(tokens_per_expert: &[usize], block: usize) -> f64 {
    let real: usize = tokens_per_expert.iter().sum();
    let padded: usize = tokens_per_expert.iter().map(|&c| round_up(c, block)).sum();
    if padded == 0 {
        return 0.0;
    }
    1.0 - real as f64 / padded as f64
}

/// Expected block-padding waste under balanced routing: each expert gets
/// `tokens * k / E` rows; padding rounds each up to the tile size.
pub fn expected_block_waste(tokens: usize, k: usize, num_experts: usize, block: usize) -> f64 {
    let per_expert = (tokens * k) as f64 / num_experts as f64;
    let padded = round_up(per_expert.ceil() as usize, block) as f64;
    1.0 - per_expert / padded
}

/// The block-padded expert kernel: pad each expert segment of `rows`'
/// input to a multiple of `block` rows, run the segment GEMMs over the
/// padded tiles in place, strip the padding again into `rows`' outputs (in
/// place, a buffer, or the combine into the layer output). Functionally
/// equal to the plain kernel (zero rows contribute nothing), but the
/// pad/strip copies and the padded rows' FLOPs are charged — the waste the
/// paper measures. Every scratch buffer is leased from `ws`.
pub(crate) fn forward_block_padded(
    experts: &[Expert],
    rows: FfnRows,
    counts: &[usize],
    block: usize,
    ws: &mut Workspace,
    mut meter: Meter,
) {
    let (hidden, f) = widths(experts);
    let mut padded_counts = ws.take_idx(counts.len());
    for (p, &c) in padded_counts.iter_mut().zip(counts) {
        *p = round_up(c, block);
    }
    let padded: usize = padded_counts.iter().sum();
    // take() zero-fills, so the pad rows are zero even on a reused buffer.
    let mut padded_buf = ws.take(padded, hidden);
    let src = rows.source();
    for_real_rows(counts, &padded_counts, |i, p| {
        src.copy_row(i, padded_buf.row_mut(p));
    });
    meter.charge("buffer_dispatch", |c| price::gather(c, padded, hidden));

    let (plain, quiet) = (ExpertKernel::Plain, Meter::default());
    let padded_rows = FfnRows::InPlace(padded_buf.as_mut_slice());
    run_experts(experts, &padded_counts, padded_rows, plain, None, ws, quiet);
    let n = padded as f64;
    meter.charge("expert", |c| price::expert_padded(c, n, hidden, f, 1.0));

    // Every output row is a real row of one segment: the strip writes each
    // once, in order.
    let mut sink = rows.sink();
    for_real_rows(counts, &padded_counts, |i, p| {
        sink.put(i, padded_buf.row(p))
    });
    let real = counts.iter().sum();
    meter.charge("buffer_combine", |c| price::gather(c, real, hidden));
    ws.recycle(padded_buf);
    ws.recycle_idx(padded_counts);
}

/// `f(i, p)` for every real row, in order: row `i` of the `counts` segments
/// sits at row `p` of the `padded_counts` ones (each segment's real rows
/// first, then its zero padding).
fn for_real_rows(counts: &[usize], padded_counts: &[usize], mut f: impl FnMut(usize, usize)) {
    let (mut row, mut padded_row) = (0usize, 0usize);
    for (&real, &padded) in counts.iter().zip(padded_counts) {
        for j in 0..real {
            f(row + j, padded_row + j);
        }
        row += real;
        padded_row += padded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::ExpertShard;
    use crate::gating::{DropPolicy, Router};
    use crate::pipeline::{
        BlockSparsePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline,
        PooledSingleState,
    };
    use xmoe_collectives::SimCluster;
    use xmoe_tensor::Tensor;

    #[test]
    fn round_up_basics() {
        assert_eq!(round_up(0, 128), 0);
        assert_eq!(round_up(1, 128), 128);
        assert_eq!(round_up(128, 128), 128);
        assert_eq!(round_up(129, 128), 256);
    }

    #[test]
    fn block_sparse_matches_padding_free() {
        let (s, h, f, e, k) = (64usize, 16usize, 8usize, 8usize, 3usize);
        let router = Router::new(h, e, k, 201);
        let experts = ExpertShard::full(e, h, f, 202);
        let tokens = Tensor::rand_uniform(s, h, 1.0, 203);
        let spec = MoeLayerSpec::new(e, 10_000);
        let reference = PaddingFreePipeline
            .forward(&tokens, &router, &experts, &spec, &mut ExecCtx::single())
            .unwrap();
        for block in [1usize, 4, 16, 128] {
            let out = BlockSparsePipeline { block }
                .forward(&tokens, &router, &experts, &spec, &mut ExecCtx::single())
                .unwrap();
            assert!(
                out.allclose(&reference, 1e-4),
                "block {block}: max diff {}",
                out.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn pooled_block_sparse_is_bitwise_identical_across_steps() {
        let (s, h, f, e, k) = (32usize, 16usize, 8usize, 8usize, 3usize);
        let router = Router::new(h, e, k, 211);
        let experts = ExpertShard::full(e, h, f, 212);
        let spec = MoeLayerSpec::new(e, 9); // drops exercised
        let mut state = PooledSingleState::default();
        for block in [1usize, 4, 16] {
            for step in 0..2 {
                let tokens = Tensor::rand_uniform(s, h, 1.0, 220 + step);
                let pipe = BlockSparsePipeline { block };
                let expected = pipe
                    .forward(&tokens, &router, &experts, &spec, &mut ExecCtx::single())
                    .unwrap();
                let out = pipe
                    .forward(
                        &tokens,
                        &router,
                        &experts,
                        &spec,
                        &mut ExecCtx::pooled(&mut state),
                    )
                    .unwrap();
                assert!(
                    out.allclose(&expected, 0.0),
                    "block {block} step {step} diverged"
                );
                state.ws.recycle(out);
            }
        }
        let misses = state.ws.stats().pool_misses;
        assert!(misses <= 6, "arena kept allocating: {misses} misses");
    }

    #[test]
    fn waste_zero_at_block_one() {
        assert_eq!(block_padding_waste(&[3, 7, 0, 12], 1), 0.0);
    }

    #[test]
    fn waste_counts_remainders() {
        // Counts 3 and 5 with block 4 -> padded 4 + 8 = 12 for 8 real rows.
        let w = block_padding_waste(&[3, 5], 4);
        assert!((w - (1.0 - 8.0 / 12.0)).abs() < 1e-12);
    }

    #[test]
    fn distributed_block_sparse_matches_padding_free_ep() {
        let (s, h, f, e, k) = (24usize, 16usize, 8usize, 8usize, 3usize);
        let world = 4usize;
        let router = Router::new(h, e, k, 301);
        let sp = MoeLayerSpec::new(e, 10_000).with_policy(DropPolicy::CapacityOnly);
        let reference = SimCluster::frontier(world).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 302);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 303 + ctx.rank as u64);
            PaddingFreePipeline
                .forward(
                    &tokens,
                    &router,
                    &shard,
                    &sp,
                    &mut ExecCtx::ep(&ctx.world, &mut ctx.clock),
                )
                .unwrap()
        });
        for block in [1usize, 4, 64] {
            let outs = SimCluster::frontier(world).run(|ctx| {
                let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 302);
                let tokens = Tensor::rand_uniform(s, h, 1.0, 303 + ctx.rank as u64);
                BlockSparsePipeline { block }
                    .forward(
                        &tokens,
                        &router,
                        &shard,
                        &sp,
                        &mut ExecCtx::ep(&ctx.world, &mut ctx.clock),
                    )
                    .unwrap()
            });
            for (r, (a, b)) in reference.iter().zip(&outs).enumerate() {
                assert!(
                    a.allclose(b, 1e-4),
                    "block {block} rank {r}: max diff {}",
                    a.max_abs_diff(b)
                );
            }
        }
    }

    #[test]
    fn distributed_block_sparse_charges_stages_and_padded_flops() {
        let (s, h, f, e, k) = (16usize, 8usize, 4usize, 4usize, 2usize);
        let router = Router::new(h, e, k, 311);
        let sp = MoeLayerSpec::new(e, 1000).with_policy(DropPolicy::CapacityOnly);
        let run = |block: usize| {
            let router = &router;
            let sp = &sp;
            SimCluster::frontier(4).run(move |ctx| {
                let shard = ExpertShard::for_rank(ctx.rank, 4, e, h, f, 312);
                let tokens = Tensor::rand_uniform(s, h, 1.0, 313);
                let _ = BlockSparsePipeline { block }
                    .forward(
                        &tokens,
                        router,
                        &shard,
                        sp,
                        &mut ExecCtx::ep(&ctx.world, &mut ctx.clock),
                    )
                    .unwrap();
                (ctx.clock.bucket("expert"), ctx.clock.buckets().to_vec())
            })
        };
        let fine = run(1);
        let padded = run(128);
        for ((e1, labels), (e128, _)) in fine.iter().zip(&padded) {
            let names: Vec<&str> = labels.iter().map(|(l, _)| l.as_str()).collect();
            for want in [
                "gating",
                "buffer_dispatch",
                "dispatch_a2a",
                "expert",
                "combine_a2a",
                "buffer_combine",
            ] {
                assert!(names.contains(&want), "missing stage {want}: {names:?}");
            }
            // Padding to 128-row tiles must charge strictly more expert time.
            assert!(e128 > e1, "padded expert {e128} must exceed unpadded {e1}");
        }
    }

    #[test]
    fn fine_grained_experts_waste_more() {
        // Same total routed volume spread over more, smaller experts:
        // remainder padding grows with the expert count (the paper's
        // argument against block-sparse kernels for DeepSeek-style MoEs).
        // A per-GPU micro-batch: 2048 tokens. Coarse experts get 512 rows
        // each (an exact tile multiple); fine-grained ones get 64 rows,
        // padded to a full 128-row tile.
        let tokens = 2048usize;
        let block = 128usize;
        let coarse = expected_block_waste(tokens, 2, 8, block); // Mixtral-ish
        let fine = expected_block_waste(tokens, 8, 256, block); // DeepSeek-ish
        assert!(
            fine > coarse + 0.2,
            "fine-grained waste {fine:.3} must far exceed coarse {coarse:.3}"
        );
    }
}
