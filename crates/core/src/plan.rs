//! Auto-mapping planner: price every legal 4D folding and keep the Pareto
//! frontier.
//!
//! The paper fixes one mapping (EP×TP with SSMB inside the MoE block);
//! this module turns that into a *search*. For a model and cluster it
//! enumerates the legal (PP, TP, EP, DP) foldings
//! ([`xmoe_topology::enumerate_foldings`]), bounds each with the analytic
//! memory model ([`crate::memory::folded_per_gpu`]), prices the survivors
//! with the stage lists and layer composition of [`crate::price`] and the
//! step composition that [`PerfModel::step`] uses — dense blocks under
//! the attention fold, MoE blocks under the expert fold with the dispatch
//! priced by [`CostModel::sparse_exchange_time`], 1F1B stage boundaries by
//! [`xmoe_topology::stage_boundary_p2p_time`] — and marks the (step time,
//! memory) Pareto-optimal points.

use xmoe_topology::{
    enumerate_foldings, stage_boundary_p2p_time, CostModel, FoldSearchSpace, ParallelMapping,
};

use crate::config::{MoeModelConfig, ParallelConfig};
use crate::memory::{folded_per_gpu, GpuMemory, MoeSystem};
use crate::perf::{PerfModel, PerfOpts};
use crate::price::StageTimes;

/// One priced candidate folding.
#[derive(Clone, Debug)]
pub struct MappingPlan {
    pub mapping: ParallelMapping,
    /// Modelled seconds per optimizer step (all microbatches + 1F1B ramps
    /// + gradient sync + optimizer).
    pub step_time: f64,
    /// Achieved model TFLOP/s per GPU at this step time.
    pub tflops_per_gpu: f64,
    /// Analytic 1F1B bubble fraction of this fold.
    pub bubble: f64,
    /// Per-microbatch MoE stage breakdown under the expert fold.
    pub moe_stages: StageTimes,
    /// One stage-boundary activation hop (paid twice per microbatch per
    /// boundary: forward activation + backward gradient).
    pub p2p_time: f64,
    /// Gradient synchronization per step.
    pub dp_sync: f64,
    /// Per-GPU memory picture.
    pub mem: GpuMemory,
    /// Fits in the machine's usable HBM.
    pub fits: bool,
    /// On the (step_time, memory) Pareto frontier among fitting plans.
    pub pareto: bool,
}

/// Price one mapping. Exposed for tests and the CLI `step --pp` path;
/// [`plan_mappings`] drives it over the whole enumeration.
pub fn price_mapping(
    perf: &PerfModel,
    cfg: &MoeModelConfig,
    mapping: &ParallelMapping,
    micro_batch: usize,
) -> MappingPlan {
    let cost: &CostModel = perf.cost();
    let world = cost.topology().n_ranks();
    let stage_ranks = world / mapping.pp;
    let layers_per_stage = (cfg.num_layers / mapping.pp).max(1) as f64;
    let d = cfg.dtype.bytes() as f64;
    let tokens = (micro_batch * cfg.seq_len) as f64;
    let sequences = mapping.microbatches * micro_batch * mapping.attn.dp;

    // Dense blocks run under the attention fold of one stage's ranks.
    let par_attn = ParallelConfig::new(stage_ranks, 1)
        .with_tp(mapping.attn.tp)
        .with_batch(micro_batch, sequences);
    let dense_time = perf.dense_block_time(cfg, &par_attn);

    // MoE blocks run under the expert fold with SSMB; replace the perf
    // model's dense-collective all-to-all price with the sparse exchange
    // over this mapping's actual EP group (balanced routing: each rank
    // ships its routed volume evenly to the other EP peers).
    let par_moe = ParallelConfig::new(stage_ranks, mapping.moe.ep)
        .with_tp(mapping.moe.tp)
        .with_ssmb(true)
        .with_batch(
            micro_batch,
            mapping.microbatches * micro_batch * mapping.moe.dp,
        );
    let mut moe = perf.moe_stage_times(cfg, MoeSystem::XMoe, &par_moe, &PerfOpts::xmoe());
    let ep_group = mapping.ep_group(world, 0, 0);
    if ep_group.len() > 1 {
        let routed = cfg.top_k as f64 * tokens / mapping.moe.tp as f64;
        let per_pair = (routed * cfg.hidden as f64 * d / ep_group.len() as f64) as u64;
        let a2a = cost.sparse_exchange_time(&ep_group, &|i, j| if i == j { 0 } else { per_pair });
        moe.dispatch_a2a = a2a;
        moe.combine_a2a = a2a;
    }

    // Stage-boundary activation hop: [tokens, H] once forward, once back.
    let act_bytes = (tokens * cfg.hidden as f64 * d) as u64;
    let p2p = stage_boundary_p2p_time(cost, mapping, act_bytes);

    // One microbatch through one pipeline rank's layers (all its virtual
    // chunks), forward + backward, including its boundary hops.
    let per_boundary = 2.0 * mapping.virtual_chunks as f64 * p2p;
    let (fwd, bwd) = moe.layer(dense_time, false);
    let t_mb = (layers_per_stage * fwd + per_boundary) + (layers_per_stage * bwd + per_boundary);

    // 1F1B makespan: m microbatches plus the (p-1)/v fill/drain ramp.
    let bubble_slots = (mapping.pp as f64 - 1.0) / mapping.virtual_chunks as f64;
    let pipeline_time = (mapping.microbatches as f64 + bubble_slots) * t_mb;

    // Gradient sync over one stage's share of the layer stack.
    let mut stage_cfg = cfg.clone();
    stage_cfg.num_layers = (cfg.num_layers / mapping.pp).max(1);
    let placement = PerfOpts::xmoe().placement;
    let dp_sync = perf.dp_sync_time(&stage_cfg, &par_moe, MoeSystem::XMoe, placement);
    // Optimizer update over this rank's ZeRO shard (fp32 master + m + v).
    let opt_params = (cfg.total_params()
        / mapping.pp as u64
        / (mapping.moe.ep * mapping.moe.tp) as u64
        / mapping.moe.dp.max(1) as u64) as f64;
    let times = (pipeline_time, dp_sync, opt_params);
    let (step_time, tflops_per_gpu) = perf.compose_step(cfg, times, (sequences, world));

    let mem = folded_per_gpu(cfg, mapping, micro_batch);
    let fits = mem.fits(cost.topology().spec().hbm_bytes);
    MappingPlan {
        mapping: *mapping,
        step_time,
        tflops_per_gpu,
        bubble: mapping.analytic_bubble(),
        moe_stages: moe,
        p2p_time: p2p,
        dp_sync,
        mem,
        fits,
        pareto: false,
    }
}

/// Enumerate, price and rank every legal folding of `perf`'s cluster for
/// `cfg`. Plans come back sorted by step time with the (step time, total
/// memory) Pareto frontier of the *fitting* plans marked.
pub fn plan_mappings(
    perf: &PerfModel,
    cfg: &MoeModelConfig,
    micro_batch: usize,
    microbatches: usize,
) -> Vec<MappingPlan> {
    let world = perf.cost().topology().n_ranks();
    let space = FoldSearchSpace::new(world, cfg.num_experts, cfg.num_layers, microbatches);
    let mut plans: Vec<MappingPlan> = enumerate_foldings(&space)
        .iter()
        .map(|m| price_mapping(perf, cfg, m, micro_batch))
        .collect();
    plans.sort_by(|a, b| a.step_time.total_cmp(&b.step_time));
    // Pareto over (step_time, memory): a fitting plan is dominated if some
    // other fitting plan is no worse on both axes and better on one.
    for i in 0..plans.len() {
        if !plans[i].fits {
            continue;
        }
        let (t_i, m_i) = (plans[i].step_time, plans[i].mem.total());
        let dominated = plans.iter().enumerate().any(|(j, p)| {
            j != i
                && p.fits
                && p.step_time <= t_i
                && p.mem.total() <= m_i
                && (p.step_time < t_i || p.mem.total() < m_i)
        });
        plans[i].pareto = !dominated;
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MoeModelConfig {
        // Small-ish expert-specialized model: 32 experts, 8 layers.
        MoeModelConfig::custom("plan-demo", 2048, 1024, 704, 32, 4, 8)
    }

    #[test]
    fn planner_finds_a_rich_legal_frontier() {
        let perf = PerfModel::frontier_clean(16);
        let plans = plan_mappings(&perf, &model(), 1, 8);
        assert!(plans.len() >= 8, "only {} plans", plans.len());
        assert!(plans.iter().any(|p| p.mapping.pp > 1));
        let pareto: Vec<_> = plans.iter().filter(|p| p.pareto).collect();
        assert!(!pareto.is_empty());
        for p in &pareto {
            assert!(p.fits);
            assert!(p.step_time.is_finite() && p.step_time > 0.0);
            assert!(p.mem.total() > 0);
        }
        // The frontier is actually a frontier: sorted by time, memory must
        // be non-increasing.
        for w in pareto.windows(2) {
            assert!(w[0].step_time <= w[1].step_time);
            assert!(w[0].mem.total() >= w[1].mem.total());
        }
    }

    #[test]
    fn pipelining_reduces_memory_pressure() {
        let perf = PerfModel::frontier_clean(16);
        let cfg = model();
        let plans = plan_mappings(&perf, &cfg, 1, 8);
        let unsharded = |p: &&MappingPlan| {
            p.mapping.attn.tp == 1 && p.mapping.moe.ep == 1 && p.mapping.moe.tp == 1
        };
        let flat = plans
            .iter()
            .filter(unsharded)
            .find(|p| p.mapping.pp == 1)
            .unwrap();
        let piped = plans
            .iter()
            .filter(unsharded)
            .find(|p| p.mapping.pp == 4)
            .unwrap();
        // 4 stages hold a quarter of the layer stack each, so parameter
        // bytes must drop by at least half even with the full embedding
        // charged per stage. (Optimizer state does not follow: its ZeRO
        // shard divides by a 4x smaller DP group.)
        assert!(piped.mem.states.params < flat.mem.states.params / 2);
    }

    #[test]
    fn sparse_exchange_prices_the_moe_a2a() {
        let perf = PerfModel::frontier_clean(16);
        let cfg = model();
        let ep8 = ParallelMapping {
            pp: 1,
            virtual_chunks: 1,
            microbatches: 8,
            attn: xmoe_topology::AttnFold { tp: 1, dp: 16 },
            moe: xmoe_topology::MoeFold {
                ep: 8,
                tp: 1,
                dp: 2,
            },
        };
        let plan = price_mapping(&perf, &cfg, &ep8, 1);
        assert!(plan.moe_stages.dispatch_a2a > 0.0);
        // EP crossing more ranks must cost more than a node-local EP=2.
        let ep2 = ParallelMapping {
            moe: xmoe_topology::MoeFold {
                ep: 2,
                tp: 1,
                dp: 8,
            },
            ..ep8
        };
        let plan2 = price_mapping(&perf, &cfg, &ep2, 1);
        assert!(plan.moe_stages.dispatch_a2a > plan2.moe_stages.dispatch_a2a);
    }

    #[test]
    fn unfolded_plan_prices_the_step_the_perf_model_prices() {
        // No pipeline, tensor or expert split: the fold is PerfModel::step's
        // configuration, so the same layer composition and the same Adam
        // price must give the same step time.
        let perf = PerfModel::frontier_clean(16);
        let cfg = model();
        let flat = ParallelMapping {
            pp: 1,
            virtual_chunks: 1,
            microbatches: 8,
            attn: xmoe_topology::AttnFold { tp: 1, dp: 16 },
            moe: xmoe_topology::MoeFold {
                ep: 1,
                tp: 1,
                dp: 16,
            },
        };
        let plan = price_mapping(&perf, &cfg, &flat, 1);
        let par = ParallelConfig::new(16, 1)
            .with_ssmb(true)
            .with_batch(1, 8 * 16);
        let step = perf.step(&cfg, &par, MoeSystem::XMoe, &PerfOpts::xmoe());
        let rel = (plan.step_time - step.step_time).abs() / step.step_time;
        assert!(
            rel < 1e-12,
            "planner {} s vs PerfModel {} s",
            plan.step_time,
            step.step_time
        );
    }

    #[test]
    fn deeper_pipelines_have_bigger_bubbles_and_interleaving_shrinks_them() {
        let perf = PerfModel::frontier_clean(16);
        let plans = plan_mappings(&perf, &model(), 1, 8);
        let b = |pp: usize, v: usize| {
            plans
                .iter()
                .find(|p| p.mapping.pp == pp && p.mapping.virtual_chunks == v)
                .map(|p| p.bubble)
                .unwrap()
        };
        assert!(b(4, 1) > b(2, 1));
        assert!(b(4, 2) < b(4, 1));
        assert_eq!(b(1, 1), 0.0);
    }
}
