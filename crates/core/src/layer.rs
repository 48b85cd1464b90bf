//! High-level MoE layer handle: bundles router, expert shard and layer
//! spec behind one constructor — the entry point a downstream user reaches
//! for first.

use xmoe_tensor::Tensor;

use crate::config::MoeModelConfig;
use crate::expert::ExpertShard;
use crate::gating::{DropPolicy, Router};
use crate::pipeline::{self, ExecCtx, MoeLayerSpec, PaddingFreePipeline};

/// One MoE layer instantiated from a [`MoeModelConfig`].
///
/// ```
/// use xmoe_core::config::MoeModelConfig;
/// use xmoe_core::layer::MoeLayer;
/// use xmoe_core::pipeline::{ExecCtx, PaddingFreePipeline};
/// use xmoe_tensor::Tensor;
///
/// // A scaled-down DeepSeek-style layer: 16 experts, top-4.
/// let cfg = MoeModelConfig::custom("demo", 64, 32, 16, 16, 4, 1);
/// let layer = MoeLayer::single_rank(&cfg, 42);
/// let tokens = Tensor::rand_uniform(64, 32, 1.0, 7);
/// let out = layer
///     .forward_with(&tokens, &PaddingFreePipeline, &mut ExecCtx::single())
///     .unwrap();
/// assert_eq!(out.shape(), (64, 32));
/// ```
pub struct MoeLayer {
    pub router: Router,
    pub experts: ExpertShard,
    pub spec: MoeLayerSpec,
}

impl MoeLayer {
    /// All experts on one rank — the reference configuration.
    pub fn single_rank(cfg: &MoeModelConfig, seed: u64) -> Self {
        Self::for_rank(cfg, 0, 1, seed)
    }

    /// The shard of the layer owned by `rank` of an EP group of `world`
    /// ranks. All ranks derive identical router weights and consistent
    /// expert weights from `seed`.
    pub fn for_rank(cfg: &MoeModelConfig, rank: usize, world: usize, seed: u64) -> Self {
        let router = Router::new(cfg.hidden, cfg.num_experts, cfg.top_k, seed);
        let experts = ExpertShard::for_rank(
            rank,
            world,
            cfg.num_experts,
            cfg.hidden,
            cfg.ffn_hidden,
            seed ^ 0xE0,
        );
        let spec = MoeLayerSpec::new(cfg.num_experts, cfg.expert_capacity(cfg.seq_len))
            .with_policy(DropPolicy::CapacityOnly);
        Self {
            router,
            experts,
            spec,
        }
    }

    /// Override the per-expert capacity (e.g. for a different local batch).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.spec.capacity = capacity;
        self
    }

    /// Override the drop policy.
    pub fn with_policy(mut self, policy: DropPolicy) -> Self {
        self.spec = self.spec.with_policy(policy);
        self
    }

    /// Single-rank padding-free forward, the convenience form of
    /// [`forward_with`](Self::forward_with). Panics unless this layer holds
    /// the full expert set ([`single_rank`](Self::single_rank)).
    pub fn forward(&self, tokens: &Tensor) -> Tensor {
        self.forward_with(tokens, &PaddingFreePipeline, &mut ExecCtx::single())
            .expect("MoeLayer::forward is the single-rank form")
    }

    /// Forward through any [`pipeline::Pipeline`] under an explicit
    /// execution context — pooling, transport and overlap are properties
    /// of the `ctx`, not of the entry point (example on [`MoeLayer`]).
    pub fn forward_with(
        &self,
        tokens: &Tensor,
        pipeline: &dyn pipeline::Pipeline,
        ctx: &mut pipeline::ExecCtx,
    ) -> Result<Tensor, pipeline::PipelineError> {
        pipeline.forward(tokens, &self.router, &self.experts, &self.spec, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RbdPipeline;
    use crate::rbd::{PilotPolicy, RbdComms};
    use xmoe_collectives::SimCluster;
    use xmoe_tensor::DetRng;

    fn demo_cfg() -> MoeModelConfig {
        MoeModelConfig::custom("demo", 32, 16, 8, 8, 3, 1)
    }

    #[test]
    fn single_rank_forward_shapes() {
        let cfg = demo_cfg();
        let layer = MoeLayer::single_rank(&cfg, 1);
        let tokens = Tensor::rand_uniform(32, 16, 1.0, 2);
        assert_eq!(layer.forward(&tokens).shape(), (32, 16));
    }

    #[test]
    fn sharded_layers_match_single_rank() {
        let cfg = demo_cfg();
        let reference = MoeLayer::single_rank(&cfg, 3).with_capacity(10_000);
        let tokens = Tensor::rand_uniform(32, 16, 1.0, 4);
        let want = reference.forward(&tokens);
        let got = {
            let cfg = &cfg;
            let tokens = &tokens;
            SimCluster::frontier(4).run(move |ctx| {
                let layer = MoeLayer::for_rank(cfg, ctx.rank, 4, 3).with_capacity(10_000);
                let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
                layer
                    .forward_with(tokens, &PaddingFreePipeline, &mut ex)
                    .unwrap()
            })
        };
        for g in &got {
            assert!(g.allclose(&want, 1e-4));
        }
    }

    #[test]
    fn rbd_variant_matches_plain() {
        let cfg = demo_cfg();
        let tokens = Tensor::rand_uniform(24, 16, 1.0, 6);
        let outs = {
            let cfg = &cfg;
            let tokens = &tokens;
            SimCluster::frontier(8).run(move |ctx| {
                let layer = MoeLayer::for_rank(cfg, ctx.rank, 8, 5).with_capacity(10_000);
                let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
                let plain = layer
                    .forward_with(tokens, &PaddingFreePipeline, &mut ex)
                    .unwrap();
                let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
                let mut rng = DetRng::new(60 + ctx.rank as u64);
                let rbd = RbdPipeline {
                    policy: PilotPolicy::Random,
                };
                let mut ex = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
                let with_rbd = layer.forward_with(tokens, &rbd, &mut ex).unwrap();
                plain.allclose(&with_rbd, 1e-4)
            })
        };
        assert!(outs.iter().all(|&ok| ok));
    }
}
