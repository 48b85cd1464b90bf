//! The price list: the simulated time of every MoE stage, written once.
//!
//! Each function prices one stage of one MoE layer on one rank from the
//! [`CostModel`]'s machine and the stage's shape. The analytic model
//! ([`crate::perf::PerfModel`], paper dimensions), the mapping planner
//! ([`crate::plan`]), the four live pipelines and the distributed train step
//! all charge these, so an analytic figure and a live clock are one model:
//! on balanced routing a live Fig-11 stage equals its analytic twin.
//! Collectives are not here — the communicator prices them from their byte
//! matrices with the same cost model.
//!
//! ## Calibration constants
//!
//! The constants below are the model's only free parameters. They are set
//! once, against the paper's published absolute numbers (Table 5's A100
//! TFLOP/s, §5.2's 10.44 PFLOPS aggregate) and the quoted stage ratios
//! (Fig 11), then *everything else* — orderings, crossovers, scaling
//! shapes — is emergent. EXPERIMENTS.md records paper-vs-model for every
//! figure.

use xmoe_collectives::{Communicator, SimClock};
use xmoe_topology::CostModel;

/// Fraction of `mem_bw` a fused, coalesced kernel achieves (X-MoE's
/// Triton-style gather/scatter and gating).
pub const FUSED: f64 = 0.65;
/// Tutel's sparse kernels, driven from the framework.
pub const TUTEL: f64 = FUSED * 0.8;
/// DeepSpeed's tuned CUDA kernels.
const VENDOR: f64 = FUSED * 0.6;
/// Fraction of `mem_bw` an unfused chain of framework ops achieves (the
/// baselines' mask construction and PyTorch-level dispatch).
const UNFUSED: f64 = 0.12;
/// Relative efficiency of the sequential (per-expert, uneven) GEMM versus
/// the machine's batched-GEMM efficiency — the "extra data transformations"
/// the paper observes for X-MoE's expert stage (§5.4.1).
const EFF_SEQ_GEMM: f64 = 0.80;
/// Efficiency derating for fine-grained expert GEMMs: DeepSeek-style
/// experts have small inner dimensions that no library runs at full tilt.
fn gemm_dim_derate(inner_dim: usize) -> f64 {
    // 0.45 of the spec efficiency at inner dims <= 1024, rising to 1.0 by 8192.
    let x = (inner_dim as f64 / 8192.0).min(1.0);
    0.45 + 0.55 * x
}
/// Fixed kernel-launch/synchronization overhead charged per layer per pass
/// (forward or backward); dominated by the many small kernels of an MoE
/// block.
pub const LAYER_OVERHEAD_S: f64 = 350e-6;
/// Backward compute is ~2x forward for GEMM-dominated work.
pub const BWD_COMPUTE_FACTOR: f64 = 2.0;
/// Bytes per element of the live runtime's tensors.
pub const F32: f64 = 4.0;

/// A GEMM of `flops` whose inner dimension is `inner_dim`.
pub fn gemm(cost: &CostModel, flops: f64, inner_dim: usize) -> f64 {
    let spec = cost.topology().spec();
    flops / (spec.peak_flops * spec.gemm_efficiency * gemm_dim_derate(inner_dim))
}

/// A bandwidth-bound kernel touching `bytes` of HBM at `eff` of its peak.
pub fn membound(cost: &CostModel, bytes: f64, eff: f64) -> f64 {
    bytes / (cost.topology().spec().mem_bw * eff)
}

/// The router GEMM `[tokens, hidden] · [hidden, experts]`.
pub fn router(cost: &CostModel, tokens: f64, hidden: usize, experts: usize) -> f64 {
    gemm(cost, 2.0 * tokens * hidden as f64 * experts as f64, hidden)
}

/// PFT construction: one pass over the `[tokens, experts]` scores plus the
/// sort and transposed cumsum of `top_k` routed entries per token.
pub fn pft(cost: &CostModel, tokens: f64, experts: usize, top_k: usize, eff: f64) -> f64 {
    let bytes = tokens * experts as f64 * 4.0 + top_k as f64 * tokens * 24.0 * 3.0;
    membound(cost, bytes, eff)
}

/// X-MoE's gating stage (Fig 11 `gating`): the router GEMM plus a fused PFT.
pub fn gating(cost: &CostModel, tokens: f64, hidden: usize, experts: usize, top_k: usize) -> f64 {
    router(cost, tokens, hidden, experts) + pft(cost, tokens, experts, top_k, FUSED)
}

/// The baselines' dense `[tokens, experts, capacity]` f32 dispatch mask
/// (one-hot, cumsum, dropping): DeepSpeed's tuned kernels on CUDA, unfused
/// framework ops over the whole mask on ROCm (§3.1).
pub fn dense_mask(cost: &CostModel, tokens: f64, experts: usize, capacity: f64) -> f64 {
    let eff = if cost.topology().spec().vendor_moe_kernels {
        VENDOR
    } else {
        UNFUSED
    };
    membound(cost, tokens * experts as f64 * capacity * 4.0, eff)
}

/// Read and write `rows` rows of `hidden` elements of `dtype` bytes once at
/// `eff`: a gather, scatter, pad, strip or replica copy.
pub fn copy(cost: &CostModel, rows: f64, hidden: usize, dtype: f64, eff: f64) -> f64 {
    membound(cost, 2.0 * rows * hidden as f64 * dtype, eff)
}

/// A live gather or scatter: `rows` f32 rows of `hidden`, fused.
pub fn gather(cost: &CostModel, rows: usize, hidden: usize) -> f64 {
    copy(cost, rows as f64, hidden, F32, FUSED)
}

/// X-MoE's sequential expert GEMM over `rows` routed rows (Fig 11 `expert`):
/// the two-matrix FFN at the uneven per-expert GEMMs' efficiency, plus the
/// input-assembly copy.
pub fn expert_seq(cost: &CostModel, rows: f64, hidden: usize, ffn: usize, dtype: f64) -> f64 {
    gemm(cost, 4.0 * rows * hidden as f64 * ffn as f64, ffn) / EFF_SEQ_GEMM
        + copy(cost, rows, hidden, dtype, FUSED)
}

/// A batched expert GEMM over `rows` padded rows, its FFN tensor-sliced `tp`
/// ways (TED; 1 elsewhere).
pub fn expert_padded(cost: &CostModel, rows: f64, hidden: usize, ffn: usize, tp: f64) -> f64 {
    gemm(cost, 4.0 * rows * hidden as f64 * ffn as f64 / tp, ffn)
}

/// The baselines' dispatch (or combine) einsum `sec,sm->ecm` over `padded`
/// buffer rows: a dense contraction over the tokens on ROCm, sliced `tp`
/// ways; a sparse copy of the padded volume on CUDA.
pub fn einsum(cost: &CostModel, tokens: f64, padded: f64, hidden: usize, d: f64, tp: f64) -> f64 {
    if cost.topology().spec().vendor_moe_kernels {
        copy(cost, padded, hidden, d, VENDOR)
    } else {
        gemm(cost, 2.0 * tokens * padded * hidden as f64 / tp, hidden)
    }
}

/// RBD pilot selection (S0): sort and group `entries` routed entries by
/// (token, destination node).
pub fn rbd_plan(cost: &CostModel, entries: f64) -> f64 {
    membound(cost, entries * 24.0, FUSED)
}

/// Adam over `params` parameters: read and write the fp32 master weights
/// and both moments.
pub fn optimizer(cost: &CostModel, params: f64) -> f64 {
    membound(cost, params * 24.0, FUSED)
}

/// Per-stage forward times of one MoE layer on one rank, in seconds
/// (labels match Fig 11).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub gating: f64,
    pub buffer_dispatch: f64,
    pub dispatch_a2a: f64,
    pub expert: f64,
    pub combine_a2a: f64,
    pub buffer_combine: f64,
}

impl StageTimes {
    pub fn total(&self) -> f64 {
        self.entries().iter().map(|(_, t)| t).sum()
    }

    pub fn a2a(&self) -> f64 {
        self.dispatch_a2a + self.combine_a2a
    }

    /// (label, seconds) pairs in pipeline order.
    pub fn entries(&self) -> [(&'static str, f64); 6] {
        [
            ("gating", self.gating),
            ("buffer_dispatch", self.buffer_dispatch),
            ("dispatch_a2a", self.dispatch_a2a),
            ("expert", self.expert),
            ("combine_a2a", self.combine_a2a),
            ("buffer_combine", self.buffer_combine),
        ]
    }

    /// One layer's (forward, backward) time per micro-batch beside a dense
    /// block of `dense` seconds: the backward re-runs every compute stage
    /// [`BWD_COMPUTE_FACTOR`]× and both all-to-alls once (the gradients
    /// travel the same volume).
    pub fn layer(&self, dense: f64) -> (f64, f64) {
        let compute = self.gating + self.buffer_dispatch + self.expert + self.buffer_combine;
        (
            self.total() + dense + LAYER_OVERHEAD_S,
            BWD_COMPUTE_FACTOR * (compute + dense) + self.a2a() + LAYER_OVERHEAD_S,
        )
    }
}

/// Charges prices to one rank's clock under stage labels, stretched by the
/// rank's straggler factor ([`FaultPlan::slowdown`] at the communicator's
/// step; exactly 1 without faults). The default meter charges nowhere: the
/// clockless single-rank reference.
///
/// [`FaultPlan::slowdown`]: xmoe_topology::FaultPlan::slowdown
#[derive(Default)]
pub struct Meter<'a> {
    clock: Option<(&'a CostModel, &'a mut SimClock)>,
    slowdown: f64,
}

impl<'a> Meter<'a> {
    pub fn new(comm: &'a Communicator, clock: &'a mut SimClock) -> Self {
        let plan = comm.fault_plan();
        Self {
            slowdown: plan.map_or(1.0, |p| p.slowdown(comm.global_rank(), comm.step())),
            clock: Some((comm.cost(), clock)),
        }
    }

    /// Advance the clock by `price(cost)` under `label`.
    pub fn charge(&mut self, label: &str, price: impl FnOnce(&CostModel) -> f64) {
        if let Some((cost, clock)) = &mut self.clock {
            clock.charge(label, price(cost) * self.slowdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmoe_collectives::SimCluster;
    use xmoe_topology::FaultPlan;

    #[test]
    fn slowdown_fault_stretches_compute_charges() {
        let plan = FaultPlan::new(7).slow(1, 4.0, 0, u64::MAX);
        let cluster = SimCluster::frontier(2).with_faults(plan);
        let times = cluster.run(|ctx| {
            Meter::new(&ctx.world, &mut ctx.clock).charge("gemm", |c| gemm(c, 1e12, 4096));
            ctx.clock.now()
        });
        assert!(
            (times[1] / times[0] - 4.0).abs() < 1e-9,
            "straggler must run 4x slower: {times:?}"
        );
        // Without faults a charge is the price, to the bit.
        let clean = SimCluster::frontier(1).run(|ctx| {
            Meter::new(&ctx.world, &mut ctx.clock).charge("gemm", |c| gemm(c, 1e12, 4096));
            (ctx.clock.now(), gemm(ctx.cost(), 1e12, 4096))
        });
        assert_eq!(clean[0].0.to_bits(), clean[0].1.to_bits());
    }
}
