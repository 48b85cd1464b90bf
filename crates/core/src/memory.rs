//! Analytic memory accounting (paper §3.2, §4.3, Table 2/4, Fig 3/13,
//! Appendix C.2).
//!
//! The paper's trainability results (Fig 9, Table 5) are memory-accounting
//! outcomes: a configuration "trains" iff per-GPU model states + activations
//! fit in HBM. This module reproduces that accounting for each system:
//!
//! * **DeepSpeed-MoE** — dense `[S, E, C]` dispatch/combine masks (f32) plus
//!   zero-padded `[E, C, H]` buffers and padded intermediates;
//! * **DeepSpeed-TED** — same activations (TP does *not* reduce the MoE
//!   activations, §4.3), expert weights additionally sharded by TP;
//! * **Tutel** — no giant masks (sparse kernels) but padded buffers, a fused
//!   single intermediate, and the fp32 `A_combine` the paper observes on
//!   AMD GPUs (§5.4.1);
//! * **X-MoE** — PFT: only routed tokens, ERI-array metadata, optional SSMB
//!   sequence sharding dividing MoE activations by the TP degree.
//!
//! All byte quantities are exact formula evaluations; a single documented
//! allocator-slack constant covers fragmentation (the gap between the
//! paper's "theoretical" 1.125 GiB and measured 1.21 GiB in Table 4).

use crate::config::{MoeModelConfig, ParallelConfig};

/// Which training system's data layout to account for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoeSystem {
    DsMoe,
    DsTed,
    Tutel,
    XMoe,
}

impl MoeSystem {
    pub const ALL: [MoeSystem; 4] = [
        MoeSystem::DsMoe,
        MoeSystem::DsTed,
        MoeSystem::Tutel,
        MoeSystem::XMoe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MoeSystem::DsMoe => "DeepSpeed-MoE",
            MoeSystem::DsTed => "DeepSpeed-TED",
            MoeSystem::Tutel => "Tutel",
            MoeSystem::XMoe => "X-MoE",
        }
    }
}

/// Allocator slack on top of exact tensor bytes for X-MoE's dynamically
/// sized PFT buffers (uneven per-step shapes fragment the caching
/// allocator). Calibrated from Table 4's measured 1.21 GiB vs theoretical
/// 1.125 GiB; the padded baselines allocate statically shaped buffers whose
/// measured values match the formulas directly (2.81 / 1.95 GiB).
pub const ALLOCATOR_SLACK: f64 = 1.075;

/// Per-system allocator slack (see [`ALLOCATOR_SLACK`]).
pub fn allocator_slack(sys: MoeSystem) -> f64 {
    match sys {
        MoeSystem::XMoe => ALLOCATOR_SLACK,
        _ => 1.0,
    }
}

/// Fixed per-GPU framework overhead (runtime, RCCL buffers, CUDA/HIP
/// context): a flat reserve subtracted from HBM.
pub const FRAMEWORK_OVERHEAD_BYTES: u64 = 1_500_000_000;

/// One GiB in bytes (Table 4 is reported in GiB).
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Fraction of HBM a training job can actually use: the caching allocator's
/// fragmentation headroom, RCCL channel buffers and cudagraph/hipgraph pools
/// make the last ~6% unusable in practice. A configuration within this
/// margin of the device capacity OOMs intermittently on real systems — the
/// paper's Tutel-at-128-GPUs failure (Fig 10b) sits exactly in this band.
pub const USABLE_HBM_FRACTION: f64 = 0.94;

/// Per-MoE-layer activation breakdown in bytes (Table 2's four tensors plus
/// the baseline's mask/metadata overhead).
#[derive(Clone, Copy, Debug, Default)]
pub struct ActBreakdown {
    /// `A_dispatch` — dispatched expert inputs.
    pub dispatch: u64,
    /// `A_combine` — expert outputs awaiting combine.
    pub combine: u64,
    /// `A_interm` — intermediate activations between the expert FFN layers.
    pub interm: u64,
    /// Dispatch-mask / ERI-array metadata.
    pub mask_meta: u64,
}

impl ActBreakdown {
    pub fn total(&self) -> u64 {
        self.dispatch + self.combine + self.interm + self.mask_meta
    }
}

/// Activation memory of one MoE layer on one rank.
///
/// ```
/// use xmoe_core::config::MoeModelConfig;
/// use xmoe_core::memory::{moe_layer_activation, MoeSystem, GIB};
/// let cfg = MoeModelConfig::large();
/// let x = moe_layer_activation(&cfg, MoeSystem::XMoe, 4096, 1);
/// let ds = moe_layer_activation(&cfg, MoeSystem::DsMoe, 4096, 1);
/// // Table 4's ordering: the padded baseline needs over twice the memory.
/// assert!(ds.total() as f64 > 2.0 * x.total() as f64);
/// assert!((x.total() as f64 / GIB - 1.13).abs() < 0.05);
/// ```
///
/// * `tokens` — tokens entering the MoE block on this rank (micro-batch x
///   sequence length). Under SSMB pass the *full* token count and the
///   sharding divisor in `seq_shard`; padded systems always see the full
///   count (that is the §4.3 bottleneck).
/// * `seq_shard` — SSMB TP divisor (1 = no sequence sharding). Only X-MoE
///   honours it.
pub fn moe_layer_activation(
    cfg: &MoeModelConfig,
    sys: MoeSystem,
    tokens: usize,
    seq_shard: usize,
) -> ActBreakdown {
    let d = cfg.dtype.bytes();
    let h = cfg.hidden as u64;
    let f = cfg.ffn_hidden as u64;
    let k = cfg.top_k as u64;
    let c = cfg.expert_capacity(tokens) as u64;
    let e = cfg.num_experts as u64;
    let s = tokens as u64;
    match sys {
        MoeSystem::DsMoe | MoeSystem::DsTed => {
            // Padded slots across all experts: E * C (= c k S by construction).
            let padded = e * c;
            ActBreakdown {
                dispatch: padded * h * d,
                combine: padded * h * d,
                interm: 2 * padded * f * d,
                // Two dense [S, E, C] f32 masks: the one-hot dispatch mask
                // and the combine-weights mask (§3.1: these dominate,
                // > 70% of activation memory for expert-specialized MoEs).
                mask_meta: 2 * s * e * c * 4,
            }
        }
        MoeSystem::Tutel => {
            let padded = e * c;
            ActBreakdown {
                dispatch: padded * h * d,
                // Tutel's kernel forces fp32 on A_combine on AMD (§5.4.1).
                combine: padded * h * 4,
                // Fused expert FFN: a single intermediate buffer.
                interm: padded * f * d,
                // Sparse index metadata, not dense masks.
                mask_meta: padded * 8,
            }
        }
        MoeSystem::XMoe => {
            let local = s / seq_shard.max(1) as u64;
            // PFT stores only routed entries; balanced routing => B = k*S.
            let b = k * local;
            ActBreakdown {
                dispatch: b * h * d,
                combine: b * h * d,
                interm: 2 * b * f * d,
                // ERI-arrays: token_ids + expert_ids (8B) + weights (4B) +
                // per-expert counts.
                mask_meta: b * 20 + e * 8,
            }
        }
    }
}

/// Theoretical minimum (paper Table 4 "Theoretical"): the four Table 2
/// tensors at `B = k * S`, nothing else.
pub fn theoretical_activation(cfg: &MoeModelConfig, tokens: usize) -> u64 {
    let d = cfg.dtype.bytes();
    let b = cfg.top_k as u64 * tokens as u64;
    2 * b * cfg.hidden as u64 * d + 2 * b * cfg.ffn_hidden as u64 * d
}

/// Dense (attention) activation bytes per layer per rank. The standard
/// Megatron estimate is ~`S * H * (10 + fraction of attention map)` bytes at
/// bf16 with selective recompute; we use a flat `8 * S * H * dtype`, divided
/// by TP (Megatron TP shards most dense activations).
pub fn dense_activation_per_layer(cfg: &MoeModelConfig, tokens: usize, tp: usize) -> u64 {
    8 * tokens as u64 * cfg.hidden as u64 * cfg.dtype.bytes() / tp.max(1) as u64
}

/// Per-GPU model-state breakdown in bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct StateBreakdown {
    pub params: u64,
    pub grads: u64,
    pub optimizer: u64,
}

impl StateBreakdown {
    pub fn total(&self) -> u64 {
        self.params + self.grads + self.optimizer
    }
}

/// Mixed-precision optimizer bytes per parameter (fp32 master + Adam m/v).
const OPT_BYTES_PER_PARAM: u64 = 12;

/// Model states per GPU under the given system/parallel config.
///
/// Sharding rules:
/// * expert parameters: divided by EP, and additionally by TP under TED
///   (tensor-sliced experts); replicated over the expert-DP group
///   `world / (EP * expert_tp)`;
/// * dense parameters: divided by TP, replicated over `world / TP`;
/// * ZeRO-1 shards optimizer states over each parameter's DP group;
///   ZeRO-2 also shards gradients.
pub fn model_states_per_gpu(
    cfg: &MoeModelConfig,
    par: &ParallelConfig,
    sys: MoeSystem,
) -> StateBreakdown {
    let d = cfg.dtype.bytes();
    let expert_tp = if sys == MoeSystem::DsTed { par.tp } else { 1 };
    let expert_shard = (par.ep * expert_tp).min(par.world) as u64;
    let expert_params_total =
        cfg.num_layers as u64 * (cfg.expert_params_per_layer() + cfg.router_params_per_layer());
    let expert_params = expert_params_total / expert_shard;
    let expert_dp = (par.world as u64 / expert_shard).max(1);

    let dense_total = cfg.num_layers as u64 * cfg.dense_params_per_layer()
        + 2 * cfg.vocab as u64 * cfg.hidden as u64;
    let dense_params = dense_total / par.tp as u64;
    let dense_dp = (par.world / par.tp).max(1) as u64;

    let params = (expert_params + dense_params) * d;
    let grads = match par.zero_stage {
        0 | 1 => (expert_params + dense_params) * d,
        _ => (expert_params / expert_dp + dense_params / dense_dp) * d,
    };
    let optimizer = match par.zero_stage {
        0 => (expert_params + dense_params) * OPT_BYTES_PER_PARAM,
        _ => {
            expert_params * OPT_BYTES_PER_PARAM / expert_dp
                + dense_params * OPT_BYTES_PER_PARAM / dense_dp
        }
    };
    StateBreakdown {
        params,
        grads,
        optimizer,
    }
}

/// Complete per-GPU memory picture for one configuration.
#[derive(Clone, Copy, Debug)]
pub struct GpuMemory {
    pub states: StateBreakdown,
    /// All layers' MoE activations live at the forward-pass peak.
    pub moe_activations: u64,
    pub dense_activations: u64,
    pub overhead: u64,
}

impl GpuMemory {
    pub fn total(&self) -> u64 {
        self.states.total() + self.moe_activations + self.dense_activations + self.overhead
    }

    /// Does this configuration fit in `hbm_bytes` of device memory,
    /// accounting for the unusable allocator margin
    /// ([`USABLE_HBM_FRACTION`])?
    pub fn fits(&self, hbm_bytes: u64) -> bool {
        (self.total() as f64) <= hbm_bytes as f64 * USABLE_HBM_FRACTION
    }
}

/// Assemble the full per-GPU memory picture.
///
/// `tokens` is the per-rank MoE-block token count (micro-batch sequences x
/// sequence length). SSMB (X-MoE with `par.ssmb`) divides the MoE
/// activations by the TP degree.
pub fn total_per_gpu(cfg: &MoeModelConfig, par: &ParallelConfig, sys: MoeSystem) -> GpuMemory {
    let tokens = par.micro_batch * cfg.seq_len;
    let seq_shard = if sys == MoeSystem::XMoe && par.ssmb {
        par.tp
    } else {
        1
    };
    let per_layer = moe_layer_activation(cfg, sys, tokens, seq_shard).total() as f64;
    let moe_act = (per_layer * cfg.num_layers as f64 * allocator_slack(sys)) as u64;
    let dense_act = dense_activation_per_layer(cfg, tokens, par.tp) * cfg.num_layers as u64;
    GpuMemory {
        states: model_states_per_gpu(cfg, par, sys),
        moe_activations: moe_act,
        dense_activations: dense_act,
        overhead: FRAMEWORK_OVERHEAD_BYTES,
    }
}

/// Per-GPU memory picture of an X-MoE run under a heterogeneous 4D
/// [`ParallelMapping`](xmoe_topology::ParallelMapping): pipeline stages
/// shard the layer stack, attention states shard over its TP×DP fold,
/// expert states over the independent EP×TP×DP fold, and 1F1B keeps
/// `min(microbatches, pp)` microbatches of activations in flight on the
/// deepest rank.
///
/// `micro_batch` is sequences per microbatch per stage-rank. ZeRO-1 is
/// assumed (optimizer states sharded over each parameter's own DP group)
/// — the X-MoE default the planner searches under.
pub fn folded_per_gpu(
    cfg: &MoeModelConfig,
    mapping: &xmoe_topology::ParallelMapping,
    micro_batch: usize,
) -> GpuMemory {
    let d = cfg.dtype.bytes();
    let layers_per_rank = cfg.num_layers.div_ceil(mapping.pp) as u64;

    // Expert states shard over EP x TP of the MoE fold; dense states over
    // the attention fold's TP. The embedding term is charged in full (the
    // first/last stage's worst rank holds it).
    let expert_params = layers_per_rank
        * (cfg.expert_params_per_layer() + cfg.router_params_per_layer())
        / (mapping.moe.ep * mapping.moe.tp) as u64;
    let dense_params = layers_per_rank * cfg.dense_params_per_layer() / mapping.attn.tp as u64
        + 2 * cfg.vocab as u64 * cfg.hidden as u64 / mapping.attn.tp as u64;
    let expert_dp = mapping.moe.dp.max(1) as u64;
    let dense_dp = mapping.attn.dp.max(1) as u64;
    let states = StateBreakdown {
        params: (expert_params + dense_params) * d,
        // ZeRO-1: full grads, sharded optimizer.
        grads: (expert_params + dense_params) * d,
        optimizer: expert_params * OPT_BYTES_PER_PARAM / expert_dp
            + dense_params * OPT_BYTES_PER_PARAM / dense_dp,
    };

    // 1F1B in-flight activations: the first pipeline rank buffers up to
    // min(m, pp) microbatches of its layers' forward state.
    let tokens = micro_batch * cfg.seq_len;
    let in_flight = mapping.microbatches.min(mapping.pp).max(1) as u64;
    let per_layer =
        moe_layer_activation(cfg, MoeSystem::XMoe, tokens, mapping.moe.tp).total() as f64;
    let moe_act = (per_layer
        * (layers_per_rank * in_flight) as f64
        * allocator_slack(MoeSystem::XMoe)) as u64;
    let dense_act =
        dense_activation_per_layer(cfg, tokens, mapping.attn.tp) * layers_per_rank * in_flight;
    GpuMemory {
        states,
        moe_activations: moe_act,
        dense_activations: dense_act,
        overhead: FRAMEWORK_OVERHEAD_BYTES,
    }
}

/// Sweep EP (and TP for TED) choices the way the paper's methodology does
/// (§5.2) and report whether *any* swept configuration fits in HBM;
/// returns the best-fitting config if so.
pub fn best_trainable_config(
    cfg: &MoeModelConfig,
    world: usize,
    sys: MoeSystem,
    hbm_bytes: u64,
) -> Option<ParallelConfig> {
    // The paper's sweep (§5.2) is EP in {32, 64, 128, 256}; on clusters
    // smaller than 32 GPUs the EP size is the world size.
    let mut ep_choices: Vec<usize> = [32usize, 64, 128, 256]
        .into_iter()
        .filter(|&ep| ep <= world && ep <= cfg.num_experts && cfg.num_experts.is_multiple_of(ep))
        .collect();
    if ep_choices.is_empty() {
        ep_choices.push(world.min(cfg.num_experts));
    }
    let tp_choices: &[usize] = match sys {
        MoeSystem::DsTed => &[1, 2, 4, 8],
        MoeSystem::XMoe => &[1, 2, 4],
        _ => &[1],
    };
    let mut best: Option<(u64, ParallelConfig)> = None;
    for &ep in &ep_choices {
        for &tp in tp_choices {
            if tp * ep > world || !world.is_multiple_of(tp * ep) {
                continue;
            }
            for zero in [1u8, 2] {
                let par = ParallelConfig::new(world, ep)
                    .with_tp(tp)
                    .with_zero(zero)
                    .with_ssmb(sys == MoeSystem::XMoe);
                let mem = total_per_gpu(cfg, &par, sys);
                if mem.fits(hbm_bytes) {
                    let t = mem.total();
                    if best.as_ref().is_none_or(|(bt, _)| t < *bt) {
                        best = Some((t, par));
                    }
                }
            }
        }
    }
    best.map(|(_, p)| p)
}

// ---------------------------------------------------------------------
// SSMB vs TED trade-off (paper §4.3 and Appendix C.2, Fig 17)
// ---------------------------------------------------------------------

/// Activation bytes SSMB saves per device at TP degree `g` (Appendix C.2
/// Eq. 1): `4 c k S H (g-1)/g`.
pub fn ssmb_activation_saving(cfg: &MoeModelConfig, tokens: usize, g: usize) -> f64 {
    let gf = g as f64;
    4.0 * cfg.capacity_factor * cfg.top_k as f64 * tokens as f64 * cfg.hidden as f64 * (gf - 1.0)
        / gf
}

/// Minimum extra model-state bytes SSMB pays versus TED at TP degree `g`
/// (Appendix C.2 Eq. 2, with EP maximized): `8 H_FFN H (g-1)/g`.
pub fn ssmb_min_model_cost(cfg: &MoeModelConfig, g: usize) -> f64 {
    let gf = g as f64;
    8.0 * cfg.ffn_hidden as f64 * cfg.hidden as f64 * (gf - 1.0) / gf
}

// ---------------------------------------------------------------------
// Inference-serving accounting: KV cache and per-rank admission budget.
// ---------------------------------------------------------------------

/// KV-cache bytes one token occupies for the whole model on one rank: a K
/// and a V vector of `hidden` per layer at the model dtype. (No GQA/MLA
/// compression modeled; attention heads are unsharded in serving.)
pub fn kv_bytes_per_token(cfg: &MoeModelConfig) -> u64 {
    2 * cfg.num_layers as u64 * cfg.hidden as u64 * cfg.dtype.bytes()
}

/// Model states per GPU for inference: parameters only — no gradients, no
/// optimizer. Experts are EP-sharded over `ep` ranks; dense weights are
/// replicated (serving runs TP=1 per replica in this simulation).
pub fn inference_states_per_gpu(cfg: &MoeModelConfig, ep: usize) -> u64 {
    let d = cfg.dtype.bytes();
    let expert_params =
        cfg.num_layers as u64 * (cfg.expert_params_per_layer() + cfg.router_params_per_layer());
    let dense_params = cfg.num_layers as u64 * cfg.dense_params_per_layer()
        + 2 * cfg.vocab as u64 * cfg.hidden as u64;
    (expert_params / ep.max(1) as u64 + dense_params) * d
}

/// Per-rank KV-cache budget for serving: usable HBM minus inference model
/// states, one layer's worth of forward activations for `batch_tokens`
/// in-flight tokens (forward-only, so layer activations are transient),
/// and the flat framework reserve. Saturates to zero when the model alone
/// exceeds the device.
pub fn serving_kv_budget(
    cfg: &MoeModelConfig,
    ep: usize,
    hbm_bytes: u64,
    batch_tokens: usize,
) -> u64 {
    let usable = hbm_bytes as f64 * USABLE_HBM_FRACTION;
    let states = inference_states_per_gpu(cfg, ep);
    let act = moe_layer_activation(cfg, MoeSystem::XMoe, batch_tokens, 1).total() as f64
        * allocator_slack(MoeSystem::XMoe);
    let budget = usable - states as f64 - act - FRAMEWORK_OVERHEAD_BYTES as f64;
    if budget <= 0.0 {
        0
    } else {
        budget as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn large() -> MoeModelConfig {
        MoeModelConfig::large()
    }

    #[test]
    fn table4_activation_memory_matches_paper() {
        // Paper Table 4 (Large, 256 GPUs, EP=64, per-MoE-layer, GiB):
        // DS-MoE 2.81, Tutel 1.95, X-MoE 1.21, theoretical 1.125.
        let cfg = large();
        let tokens = cfg.seq_len; // micro-batch 1
        let ds = moe_layer_activation(&cfg, MoeSystem::DsMoe, tokens, 1).total() as f64 / GIB;
        let tutel = moe_layer_activation(&cfg, MoeSystem::Tutel, tokens, 1).total() as f64 / GIB;
        let xmoe = moe_layer_activation(&cfg, MoeSystem::XMoe, tokens, 1).total() as f64
            * ALLOCATOR_SLACK
            / GIB;
        let theory = theoretical_activation(&cfg, tokens) as f64 / GIB;
        assert!((ds - 2.81).abs() < 0.25, "DS-MoE {ds:.3} GiB vs paper 2.81");
        assert!(
            (tutel - 1.95).abs() < 0.20,
            "Tutel {tutel:.3} GiB vs paper 1.95"
        );
        assert!(
            (xmoe - 1.21).abs() < 0.10,
            "X-MoE {xmoe:.3} GiB vs paper 1.21"
        );
        assert!(
            (theory - 1.125).abs() < 0.01,
            "theory {theory:.4} GiB vs paper 1.125"
        );
        // Ordering is the headline: DS > Tutel > X-MoE > theory.
        assert!(ds > tutel && tutel > xmoe && xmoe >= theory);
    }

    #[test]
    fn masks_dominate_baseline_activation_memory() {
        // §3.1: dispatch mask + intermediates consume > 70% of DS-MoE's
        // activation memory on DeepSeek-style configs... the mask share
        // alone must be large.
        let cfg = large();
        let a = moe_layer_activation(&cfg, MoeSystem::DsMoe, cfg.seq_len, 1);
        let mask_share = a.mask_meta as f64 / a.total() as f64;
        assert!(mask_share > 0.40, "mask share {mask_share}");
        // And X-MoE's metadata is negligible.
        let x = moe_layer_activation(&cfg, MoeSystem::XMoe, cfg.seq_len, 1);
        assert!((x.mask_meta as f64 / x.total() as f64) < 0.01);
    }

    #[test]
    fn bottleneck_shifts_from_interm_to_dispatch_combine() {
        // §3.2 Fig 3: in M_conv the FFN intermediates dominate; in the
        // size-equivalent M_spec the dispatch/combine tensors dominate.
        let conv = MoeModelConfig::conv_pair(4096, 16384, 16, 28);
        let spec = MoeModelConfig::spec_pair(4096, 16384, 16, 8, 28);
        let tokens = 2048;
        let ac = moe_layer_activation(&conv, MoeSystem::XMoe, tokens, 1);
        let as_ = moe_layer_activation(&spec, MoeSystem::XMoe, tokens, 1);
        assert!(
            ac.interm > ac.dispatch + ac.combine,
            "conv: interm should dominate"
        );
        assert!(
            as_.dispatch + as_.combine > as_.interm,
            "spec: dispatch/combine should dominate"
        );
        // Table 2: dispatch/combine grow ~m-fold; intermediates constant.
        let ratio = (as_.dispatch as f64) / (ac.dispatch as f64);
        assert!((ratio - 8.0).abs() < 0.2, "dispatch growth {ratio} vs m=8");
        let interm_ratio = as_.interm as f64 / ac.interm as f64;
        assert!(
            (interm_ratio - 1.0).abs() < 0.05,
            "interm ratio {interm_ratio}"
        );
    }

    #[test]
    fn ssmb_divides_moe_activations_by_tp() {
        let cfg = large();
        let base = moe_layer_activation(&cfg, MoeSystem::XMoe, 4096, 1);
        let sharded = moe_layer_activation(&cfg, MoeSystem::XMoe, 4096, 4);
        let r = base.dispatch as f64 / sharded.dispatch as f64;
        assert!((r - 4.0).abs() < 0.01, "SSMB sharding ratio {r}");
    }

    #[test]
    fn fig9_trainability_matrix_matches_paper() {
        // 256 Frontier GPUs, 64 GB HBM: Small trainable by all four; Medium
        // only TED / Tutel / X-MoE; Large only X-MoE (Fig 9).
        let hbm = 64_000_000_000u64;
        let fits = |cfg: &MoeModelConfig, sys| best_trainable_config(cfg, 256, sys, hbm).is_some();
        let small = MoeModelConfig::small();
        let medium = MoeModelConfig::medium();
        let lg = large();
        for sys in MoeSystem::ALL {
            assert!(fits(&small, sys), "{} must train Small", sys.name());
        }
        assert!(
            !fits(&medium, MoeSystem::DsMoe),
            "DS-MoE must OOM on Medium"
        );
        assert!(fits(&medium, MoeSystem::DsTed), "TED must train Medium");
        assert!(fits(&medium, MoeSystem::Tutel), "Tutel must train Medium");
        assert!(fits(&medium, MoeSystem::XMoe), "X-MoE must train Medium");
        for sys in [MoeSystem::DsMoe, MoeSystem::DsTed, MoeSystem::Tutel] {
            assert!(!fits(&lg, sys), "{} must OOM on Large", sys.name());
        }
        assert!(fits(&lg, MoeSystem::XMoe), "X-MoE must train Large");
    }

    #[test]
    fn super_model_trains_only_with_xmoe_at_1024() {
        // §5.2: X-MoE enables the 545B Super model on 1024 GPUs while all
        // prior systems OOM.
        let hbm = 64_000_000_000u64;
        let sup = MoeModelConfig::super_();
        for sys in [MoeSystem::DsMoe, MoeSystem::DsTed, MoeSystem::Tutel] {
            assert!(
                best_trainable_config(&sup, 1024, sys, hbm).is_none(),
                "{} must OOM on Super",
                sys.name()
            );
        }
        assert!(best_trainable_config(&sup, 1024, MoeSystem::XMoe, hbm).is_some());
    }

    #[test]
    fn table5_a100_trainability_matches_paper() {
        // 8x A100 40 GB (§5.5): Small OOMs DS-MoE and Tutel but trains on
        // X-MoE; Small-SR and Small-LR train on all three.
        let hbm = 40_000_000_000u64;
        let fits = |cfg: &MoeModelConfig, sys| best_trainable_config(cfg, 8, sys, hbm).is_some();
        let small = MoeModelConfig::small();
        assert!(
            !fits(&small, MoeSystem::DsMoe),
            "DS-MoE must OOM on Small@A100"
        );
        assert!(fits(&small, MoeSystem::XMoe), "X-MoE must train Small@A100");
        // Known deviation (EXPERIMENTS.md): the paper observed Tutel OOM on
        // Small@A100; our formula-level accounting places Tutel below the
        // 40 GB boundary but clearly above X-MoE — the direction and the
        // DS-MoE/X-MoE cells reproduce; the Tutel gap is Tutel-version
        // allocator behaviour we do not model.
        let tutel = total_per_gpu(
            &small,
            &ParallelConfig::new(8, 8).with_zero(2),
            MoeSystem::Tutel,
        )
        .total();
        let xmoe = total_per_gpu(
            &small,
            &ParallelConfig::new(8, 8).with_zero(2).with_ssmb(true),
            MoeSystem::XMoe,
        )
        .total();
        assert!(tutel > xmoe, "Tutel must need more memory than X-MoE");
        for cfg in [MoeModelConfig::small_sr(), MoeModelConfig::small_lr()] {
            for sys in [MoeSystem::DsMoe, MoeSystem::Tutel, MoeSystem::XMoe] {
                assert!(
                    fits(&cfg, sys),
                    "{} must train {}@A100",
                    sys.name(),
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn ssmb_memory_advantage_grows_with_tp() {
        // Fig 13: with SSMB on, total memory decreases as TP grows, and the
        // gap to the unsharded variant widens.
        let cfg = large();
        let mut prev_gap = 0i64;
        for tp in [2usize, 4] {
            let with = total_per_gpu(
                &cfg,
                &ParallelConfig::new(256, 64).with_tp(tp).with_ssmb(true),
                MoeSystem::XMoe,
            )
            .total() as i64;
            let without = total_per_gpu(
                &cfg,
                &ParallelConfig::new(256, 64).with_tp(tp).with_ssmb(false),
                MoeSystem::XMoe,
            )
            .total() as i64;
            let gap = without - with;
            assert!(gap > 0, "SSMB must save memory at TP={tp}");
            assert!(gap > prev_gap, "gap must grow with TP");
            prev_gap = gap;
        }
    }

    /// SSMB's activation saving beats its extra model state (at TP 2).
    fn saving_beats_cost(cfg: &MoeModelConfig, tokens: usize) -> bool {
        ssmb_activation_saving(cfg, tokens, 2) > ssmb_min_model_cost(cfg, 2)
    }

    #[test]
    fn fig17_ssmb_vs_ted_regions() {
        // Appendix C.2 Fig 17: DeepSeek models prefer SSMB at all sequence
        // lengths; Mixtral prefers TED; Arctic flips with sequence length.
        for s in [2048usize, 4096, 8192] {
            assert!(
                saving_beats_cost(&MoeModelConfig::deepseek_moe(), s),
                "DeepSeek-MoE S={s}"
            );
            assert!(
                saving_beats_cost(&MoeModelConfig::deepseek_v3(), s),
                "DeepSeek-v3 S={s}"
            );
            assert!(
                !saving_beats_cost(&MoeModelConfig::mixtral_8x7b(), s),
                "Mixtral-8x7b S={s}"
            );
            assert!(
                !saving_beats_cost(&MoeModelConfig::mixtral_8x22b(), s),
                "Mixtral-8x22b S={s}"
            );
        }
        let arctic = MoeModelConfig::arctic();
        let short = saving_beats_cost(&arctic, 2048);
        let long = saving_beats_cost(&arctic, 8192);
        assert!(
            !short && long,
            "Arctic must flip with sequence length: {short} {long}"
        );
    }

    #[test]
    fn saving_and_cost_formulas_reduce_to_criterion() {
        let cfg = large();
        let tokens = 4096;
        for g in [2usize, 4, 8] {
            let saving = ssmb_activation_saving(&cfg, tokens, g);
            let cost = ssmb_min_model_cost(&cfg, g);
            let criterion = cfg.ssmb_ratio() > 2.0 / (cfg.capacity_factor * tokens as f64);
            assert_eq!(saving > cost, criterion, "g={g}");
        }
    }

    #[test]
    fn kv_bytes_scale_with_layers_and_hidden() {
        let cfg = large();
        let per_tok = kv_bytes_per_token(&cfg);
        assert_eq!(
            per_tok,
            2 * cfg.num_layers as u64 * cfg.hidden as u64 * cfg.dtype.bytes()
        );
        // A 4k-token request on Large must cost hundreds of MiB, not KiB —
        // KV is the serving bottleneck the admission controller manages.
        assert!(per_tok * 4096 > 100 * 1024 * 1024);
    }

    #[test]
    fn inference_states_are_params_only_and_ep_sharded() {
        let cfg = large();
        let train = model_states_per_gpu(&cfg, &ParallelConfig::new(64, 64), MoeSystem::XMoe);
        let infer = inference_states_per_gpu(&cfg, 64);
        assert_eq!(
            infer, train.params,
            "inference = training params, nothing else"
        );
        assert!(infer < train.total() / 3, "no grads/optimizer at inference");
        let wide = inference_states_per_gpu(&cfg, 8);
        assert!(
            wide > infer,
            "narrower EP holds more expert params per rank"
        );
    }

    #[test]
    fn serving_budget_is_positive_and_monotone() {
        let cfg = MoeModelConfig::small();
        let hbm = 64_000_000_000u64;
        let b = serving_kv_budget(&cfg, 8, hbm, 4096);
        assert!(b > 0, "Small must leave KV room on Frontier HBM");
        assert!(b < hbm, "budget is a remainder, not the device");
        assert!(
            serving_kv_budget(&cfg, 8, hbm, 16384) < b,
            "more in-flight tokens shrink the budget"
        );
        // A model bigger than the device saturates to zero instead of wrapping.
        assert_eq!(
            serving_kv_budget(&MoeModelConfig::super_(), 1, 8_000_000_000, 4096),
            0
        );
    }

    #[test]
    fn zero2_shards_gradients() {
        let cfg = large();
        let z1 = model_states_per_gpu(
            &cfg,
            &ParallelConfig::new(256, 64).with_zero(1),
            MoeSystem::XMoe,
        );
        let z2 = model_states_per_gpu(
            &cfg,
            &ParallelConfig::new(256, 64).with_zero(2),
            MoeSystem::XMoe,
        );
        assert_eq!(z1.params, z2.params);
        assert!(z2.grads < z1.grads);
        assert_eq!(z1.optimizer, z2.optimizer);
    }

    #[test]
    fn ted_shards_expert_params_by_tp() {
        let cfg = large();
        let p1 = ParallelConfig::new(256, 64).with_tp(1);
        let p4 = ParallelConfig::new(256, 64).with_tp(4);
        let ted1 = model_states_per_gpu(&cfg, &p1, MoeSystem::DsTed);
        let ted4 = model_states_per_gpu(&cfg, &p4, MoeSystem::DsTed);
        assert!(ted4.params < ted1.params);
        // X-MoE keeps experts EP-sharded only: TP reduces just dense params.
        let x1 = model_states_per_gpu(&cfg, &p1, MoeSystem::XMoe);
        let x4 = model_states_per_gpu(&cfg, &p4, MoeSystem::XMoe);
        assert!(x4.params < x1.params && x4.params > ted4.params);
    }
}
