//! Trainable SSMB block: sequence-sharded MoE forward **and backward**
//! (paper §4.3, including the backward description: "it first drops the
//! gradients corresponding to the partial sequences retained during
//! forward. It then performs expert-specific gradient computation and
//! alltoall communications, mirroring the forward process. Finally, SSMB
//! uses an all-gather operation to reconstruct the full input gradient
//! across TP ranks").
//!
//! Wraps [`DistMoe`] (which already implements the mirrored gradient
//! all-to-alls) with the sequence shard/gather boundary.

use xmoe_collectives::{CommError, Communicator, SimClock};
use xmoe_core::ssmb::shard_range;
use xmoe_tensor::{Tensor, Workspace};

use crate::dist::{DistMoe, DistMoeScratch};

/// A sequence-sharded trainable MoE block bound to a TP group.
pub struct SsmbMoe {
    pub inner: DistMoe,
}

impl SsmbMoe {
    pub fn new(inner: DistMoe) -> Self {
        Self { inner }
    }

    /// Forward: keep this TP rank's `S/TP` slice (①), run the MoE block as
    /// an EP rank over it (②), all-gather the slices back to the full
    /// replicated sequence (③). `st` and `ws` are the inner layer's.
    pub fn forward(
        &self,
        tokens: &Tensor,
        st: &mut DistMoeScratch,
        ws: &mut Workspace,
        ep: &Communicator,
        tp: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        let (start, end) = shard_range(tokens.rows(), tp.size(), tp.rank());
        let my_slice = tokens.slice_rows(start, end);
        let local_out = self.inner.forward(&my_slice, st, ws, ep, clock)?;
        let full = gather_shards(local_out, tokens.rows(), ws, tp, clock)?;
        clock.commit("ssmb_allgather");
        Ok(full)
    }

    /// Backward: drop the other shards' gradient rows, mirror the MoE
    /// backward over the shard, all-gather the input gradient.
    ///
    /// `d_out` is the replicated full-sequence gradient coming from the
    /// next (replicated-input) block; each token's gradient is complete on
    /// every TP rank, so slicing (not reduce-scattering) is the correct
    /// adjoint of the replication boundary.
    pub fn backward(
        &mut self,
        st: &mut DistMoeScratch,
        d_out: &Tensor,
        ws: &mut Workspace,
        ep: &Communicator,
        tp: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        // ① drop gradients outside this rank's shard.
        let (start, end) = shard_range(d_out.rows(), tp.size(), tp.rank());
        assert_eq!(
            end - start,
            st.tokens(),
            "gradient must cover the full sequence"
        );
        let d_slice = d_out.slice_rows(start, end);
        // ② expert-specific gradient computation + mirrored all-to-alls.
        let d_local = self.inner.backward(st, &d_slice, ws, ep, clock)?;
        // ③ all-gather the full input gradient across TP ranks.
        let full = gather_shards(d_local, d_out.rows(), ws, tp, clock)?;
        clock.commit("ssmb_bwd_allgather");
        Ok(full)
    }
}

/// All-gather every TP rank's `local` rows into the full `[rows, hidden]`
/// sequence. `local` is a lease of `ws` and comes back to it: the gather
/// returns this rank's own contribution in its slot.
fn gather_shards(
    local: Tensor,
    rows: usize,
    ws: &mut Workspace,
    tp: &Communicator,
    clock: &mut SimClock,
) -> Result<Tensor, CommError> {
    let (own_rows, hidden) = local.shape();
    let mut gathered = tp.all_gather(local.into_vec(), clock)?;
    let mut data = Vec::with_capacity(rows * hidden);
    for chunk in &gathered {
        data.extend_from_slice(chunk);
    }
    let own = std::mem::take(&mut gathered[tp.rank()]);
    ws.recycle(Tensor::from_vec(own_rows, hidden, own));
    Ok(Tensor::from_vec(rows, hidden, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmoe_collectives::SimCluster;
    use xmoe_core::gating::DropPolicy;
    use xmoe_tensor::add_assign;

    use crate::moe_layer::TrainableMoe;

    fn full_layer(seed: u64) -> TrainableMoe {
        TrainableMoe::new(8, 6, 8, 2, 100_000, DropPolicy::CapacityOnly, seed)
    }

    #[test]
    fn ssmb_forward_matches_unsharded() {
        // TP = world = 2, one DP group: both ranks hold the same sequence.
        let full = full_layer(91);
        let world = 2;
        let outs = SimCluster::frontier(world).run(|ctx| {
            let layer = SsmbMoe::new(DistMoe::from_trainable(&full, ctx.rank, world));
            let tp = ctx.world.split(0, &mut ctx.clock).unwrap(); // whole world is one TP group
            let tokens = Tensor::rand_uniform(12, 8, 1.0, 910);
            let (st, ws) = (&mut DistMoeScratch::default(), &mut Workspace::new());
            layer
                .forward(&tokens, st, ws, &ctx.world, &tp, &mut ctx.clock)
                .unwrap()
        });
        // Reference: single-rank full layer on the full sequence.
        let tokens = Tensor::rand_uniform(12, 8, 1.0, 910);
        let (want, _) = full.forward(&tokens);
        for (rank, out) in outs.iter().enumerate() {
            assert!(
                out.allclose(&want, 1e-4),
                "rank {rank} SSMB fwd diff {}",
                out.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn ssmb_backward_matches_unsharded_gradients() {
        let full = full_layer(93);
        let world = 2;
        let tokens = Tensor::rand_uniform(12, 8, 1.0, 930);
        let d_out = Tensor::rand_uniform(12, 8, 1.0, 931);
        let results = {
            let (tokens, d_out, full) = (&tokens, &d_out, &full);
            SimCluster::frontier(world).run(move |ctx| {
                let mut layer = SsmbMoe::new(DistMoe::from_trainable(full, ctx.rank, world));
                let tp = ctx.world.split(0, &mut ctx.clock).unwrap();
                let (st, ws) = (&mut DistMoeScratch::default(), &mut Workspace::new());
                let _ = layer
                    .forward(tokens, st, ws, &ctx.world, &tp, &mut ctx.clock)
                    .unwrap();
                let d_x = layer
                    .backward(st, d_out, ws, &ctx.world, &tp, &mut ctx.clock)
                    .unwrap();
                (d_x, layer.inner.g_shard.clone(), layer.inner.g_gate.clone())
            })
        };
        // Reference: single-rank full layer, full sequence.
        let mut reference = full.clone();
        let (_, c) = reference.forward(&tokens);
        let ref_dx = reference.backward(&c, &d_out);

        for (rank, (d_x, g_shard, _)) in results.iter().enumerate() {
            assert!(
                d_x.allclose(&ref_dx, 1e-4),
                "rank {rank} d_x diff {}",
                d_x.max_abs_diff(&ref_dx)
            );
            // Expert grads (each expert's full gradient lives on its rank).
            for (e_local, g) in g_shard.iter().enumerate() {
                let global = rank * 4 + e_local;
                let want = &reference.g_experts[global];
                assert!(
                    g.w1.allclose(&want.w1, 1e-3),
                    "expert {global} dW1 diff {}",
                    g.w1.max_abs_diff(&want.w1)
                );
                assert!(g.w2.allclose(&want.w2, 1e-3));
            }
        }
        // Router grads: the sequence is split across ranks, so per-rank
        // router grads cover disjoint token slices; their sum must equal
        // the reference.
        let mut summed = xmoe_tensor::Tensor::zeros(8, 8);
        for (_, _, g_gate) in &results {
            add_assign(&mut summed, g_gate);
        }
        assert!(
            summed.allclose(&reference.g_gate, 1e-3),
            "router grad diff {}",
            summed.max_abs_diff(&reference.g_gate)
        );
    }

    #[test]
    fn ssmb_charges_both_allgathers() {
        let full = full_layer(95);
        let world = 2;
        let buckets = SimCluster::frontier(world).run(|ctx| {
            let mut layer = SsmbMoe::new(DistMoe::from_trainable(&full, ctx.rank, world));
            let tp = ctx.world.split(0, &mut ctx.clock).unwrap();
            let tokens = Tensor::rand_uniform(8, 8, 1.0, 950);
            let (st, ws) = (&mut DistMoeScratch::default(), &mut Workspace::new());
            let out = layer
                .forward(&tokens, st, ws, &ctx.world, &tp, &mut ctx.clock)
                .unwrap();
            let _ = layer
                .backward(st, &out, ws, &ctx.world, &tp, &mut ctx.clock)
                .unwrap();
            (
                ctx.clock.bucket("ssmb_allgather"),
                ctx.clock.bucket("ssmb_bwd_allgather"),
            )
        });
        for (f, b) in buckets {
            assert!(f > 0.0 && b > 0.0, "both all-gathers must be charged");
        }
    }
}
