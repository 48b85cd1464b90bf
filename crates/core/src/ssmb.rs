//! SSMB — hybrid parallelism with Sequence-Sharded MoE Blocks (paper §4.3,
//! Fig 8).
//!
//! Dense (attention) blocks run tensor parallelism, which **replicates the
//! full input sequence on every TP rank**. Entering the MoE block with those
//! replicas means the dominant activations (`A_dispatch`, `A_combine`) are
//! duplicated TP-fold. The SSMB insight: every MoE-block op (gating,
//! dispatch, expert FFN, combine) is token-wise, so each TP rank can keep
//! only its `S / TP` slice of the sequence, act as an EP rank over the
//! shard, and an all-gather after combine restores the replicated layout the
//! next TP block expects. Activation memory for the MoE block drops by the
//! TP degree; the only extra communication is one all-gather of `[S, H]`
//! per layer (and one in backward).

use xmoe_collectives::Communicator;
use xmoe_tensor::Tensor;

use crate::expert::ExpertShard;
use crate::gating::Router;
use crate::pipeline::{vecs_to_tensor, ExecCtx, MoeLayerSpec, Pipeline, PipelineError};

/// The `S / TP` slice of the replicated sequence this TP rank keeps inside
/// the MoE block (step ① of Fig 8: "drop a fraction of the tokens").
pub fn shard_range(seq_len: usize, tp_size: usize, tp_rank: usize) -> (usize, usize) {
    assert_eq!(seq_len % tp_size, 0, "sequence length must divide TP size");
    let per = seq_len / tp_size;
    (tp_rank * per, (tp_rank + 1) * per)
}

/// Forward one MoE block under SSMB, around any [`Pipeline`].
///
/// `tokens` is the full replicated `[S, H]` sequence every rank of the TP
/// group `tp` holds coming out of the dense block. Each rank keeps its
/// shard, runs `pipeline` over it under `ctx` (this worker is an EP rank of
/// `ctx.comm`; transport, overlap and pooling are the context's, so SSMB
/// composes with flat EP, overlap and RBD alike), then all-gathers the
/// shard outputs over `tp` to restore the full `[S, H]` sequence. The
/// all-gather stays serial (it is a layout restore, not part of the
/// dispatch–compute critical path) and is charged as `ssmb_allgather`.
///
/// `capacity` inside `spec` applies per shard: the per-expert retention
/// budget scales with the local token count, consistent with how each DP
/// rank already applies capacity to its own local batch.
pub fn forward_ssmb(
    pipeline: &dyn Pipeline,
    tokens: &Tensor,
    router: &Router,
    shard: &ExpertShard,
    spec: &MoeLayerSpec,
    tp: &Communicator,
    ctx: &mut ExecCtx,
) -> Result<Tensor, PipelineError> {
    let (start, end) = shard_range(tokens.rows(), tp.size(), tp.rank());
    // ① drop the other TP ranks' token slices.
    let my_slice = tokens.slice_rows(start, end);
    // ② run the MoE block over the shard.
    let local_out = pipeline.forward(&my_slice, router, shard, spec, ctx)?;
    // ③ all-gather the shard outputs to restore the replicated sequence.
    let clock = ctx
        .clock
        .as_deref_mut()
        .ok_or(PipelineError::MissingCtx("ssmb all-gather needs a clock"))?;
    let gathered = tp.all_gather(local_out.into_vec(), clock)?;
    clock.commit("ssmb_allgather");
    Ok(vecs_to_tensor(gathered, tokens.cols()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PaddingFreePipeline, RbdPipeline};
    use crate::rbd::{PilotPolicy, RbdComms};
    use xmoe_collectives::{RankCtx, SimCluster};
    use xmoe_tensor::DetRng;

    /// The TP group of consecutive ranks this rank belongs to.
    fn tp_group(ctx: &mut RankCtx, tp: usize) -> Communicator {
        ctx.world.split(ctx.rank / tp, &mut ctx.clock).unwrap()
    }

    /// Padding-free SSMB forward over the whole world as the EP group.
    fn pft_ssmb(
        tokens: &Tensor,
        router: &Router,
        shard: &ExpertShard,
        spec: &MoeLayerSpec,
        tp: usize,
        ctx: &mut RankCtx,
    ) -> Tensor {
        let tp = tp_group(ctx, tp);
        let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
        forward_ssmb(
            &PaddingFreePipeline,
            tokens,
            router,
            shard,
            spec,
            &tp,
            &mut ex,
        )
        .unwrap()
    }

    #[test]
    fn shard_ranges_partition_the_sequence() {
        assert_eq!(shard_range(8, 2, 0), (0, 4));
        assert_eq!(shard_range(8, 2, 1), (4, 8));
        assert_eq!(shard_range(12, 4, 2), (6, 9));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn shard_range_requires_divisibility() {
        let _ = shard_range(10, 4, 0);
    }

    #[test]
    fn ssmb_wraps_any_pipeline_and_matches_its_unsharded_run() {
        // 4 ranks: TP=2, DP=2; every rank holds the same replicated
        // sequence per DP group. With ample capacity, sharding the sequence
        // must not change the MoE block output (token-wise ops) — whatever
        // pipeline and execution mode the block runs.
        let (s, h, f, e, k) = (16, 12, 8, 8, 3);
        let (world, tp) = (4, 2);
        let router = Router::new(h, e, k, 61);
        let spec = MoeLayerSpec::new(e, 10_000);
        let rbd = RbdPipeline {
            policy: PilotPolicy::Random,
        };
        let run = |pipeline: &(dyn Pipeline + Sync), overlap: Option<usize>, sharded: bool| {
            let (router, spec) = (&router, &spec);
            SimCluster::frontier(world).run(move |ctx| {
                let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 62);
                // DP group = rank / tp; same sequence within a TP group.
                let tokens = Tensor::rand_uniform(s, h, 1.0, 400 + (ctx.rank / tp) as u64);
                let tp_comm = tp_group(ctx, tp);
                let hier = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
                let mut rng = DetRng::new(63 + ctx.rank as u64);
                let mut ex = ExecCtx::hier(&hier, &mut ctx.clock).with_rng(&mut rng);
                ex.overlap_chunks = overlap;
                if sharded {
                    forward_ssmb(pipeline, &tokens, router, &shard, spec, &tp_comm, &mut ex)
                } else {
                    pipeline.forward(&tokens, router, &shard, spec, &mut ex)
                }
                .unwrap()
            })
        };
        let pft_serial = run(&PaddingFreePipeline, None, true);
        let cases: [(&str, &(dyn Pipeline + Sync), Option<usize>); 3] = [
            ("pft", &PaddingFreePipeline, None),
            ("pft overlap", &PaddingFreePipeline, Some(2)),
            ("rbd", &rbd, None),
        ];
        for (name, pipeline, overlap) in cases {
            let ssmb = run(pipeline, overlap, true);
            let unsharded = run(pipeline, overlap, false);
            for (r, (a, b)) in ssmb.iter().zip(&unsharded).enumerate() {
                assert!(
                    a.allclose(b, 1e-4),
                    "{name} rank {r}: SSMB output diverges, max diff {}",
                    a.max_abs_diff(b)
                );
            }
            if overlap.is_some() {
                for (r, (a, b)) in ssmb.iter().zip(&pft_serial).enumerate() {
                    assert!(
                        a.allclose(b, 0.0),
                        "{name} rank {r}: SSMB overlap not bitwise identical to serial"
                    );
                }
            }
        }
    }

    #[test]
    fn ssmb_output_is_replicated_within_tp_group() {
        let (s, h, f, e, k) = (8, 8, 4, 4, 2);
        let router = Router::new(h, e, k, 71);
        let spec = MoeLayerSpec::new(e, 10_000);
        let out = SimCluster::frontier(4).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 4, e, h, f, 72);
            let dp_group = ctx.rank / 2;
            let tokens = Tensor::rand_uniform(s, h, 1.0, 500 + dp_group as u64);
            pft_ssmb(&tokens, &router, &shard, &spec, 2, ctx)
        });
        assert!(out[0].allclose(&out[1], 1e-6), "TP group 0 replicas differ");
        assert!(out[2].allclose(&out[3], 1e-6), "TP group 1 replicas differ");
    }

    #[test]
    fn ssmb_charges_the_allgather() {
        let (s, h, f, e, k) = (8, 8, 4, 4, 2);
        let router = Router::new(h, e, k, 81);
        let spec = MoeLayerSpec::new(e, 10_000);
        let buckets = SimCluster::frontier(4).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 4, e, h, f, 82);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 83);
            let _ = pft_ssmb(&tokens, &router, &shard, &spec, 2, ctx);
            ctx.clock.bucket("ssmb_allgather")
        });
        assert!(
            buckets.iter().all(|&t| t > 0.0),
            "all-gather must be charged: {buckets:?}"
        );
    }

    #[test]
    fn ssmb_without_a_clock_is_a_typed_error() {
        let router = Router::new(8, 4, 2, 85);
        let spec = MoeLayerSpec::new(4, 10_000);
        let experts = ExpertShard::full(4, 8, 4, 86);
        let tokens = Tensor::rand_uniform(8, 8, 1.0, 87);
        let errs = SimCluster::frontier(1).run(|ctx| {
            let tp = tp_group(ctx, 1);
            forward_ssmb(
                &PaddingFreePipeline,
                &tokens,
                &router,
                &experts,
                &spec,
                &tp,
                &mut ExecCtx::single(),
            )
            .unwrap_err()
        });
        assert!(matches!(errs[0], PipelineError::MissingCtx(_)));
    }

    #[test]
    fn tp1_ssmb_degenerates_to_plain_ep() {
        let (s, h, f, e, k) = (8, 8, 4, 4, 2);
        let router = Router::new(h, e, k, 91);
        let spec = MoeLayerSpec::new(e, 10_000);
        let out = SimCluster::frontier(2).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 2, e, h, f, 92);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 93 + ctx.rank as u64);
            let ssmb = pft_ssmb(&tokens, &router, &shard, &spec, 1, ctx);
            let plain = PaddingFreePipeline
                .forward(
                    &tokens,
                    &router,
                    &shard,
                    &spec,
                    &mut ExecCtx::ep(&ctx.world, &mut ctx.clock),
                )
                .unwrap();
            ssmb.allclose(&plain, 1e-6)
        });
        assert!(out.iter().all(|&ok| ok));
    }
}
