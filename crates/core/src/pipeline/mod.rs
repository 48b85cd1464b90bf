//! The MoE layer pipelines.
//!
//! [`padding_free`] implements X-MoE's PFT pipeline (§4.1): gather →
//! uneven all-to-all → sequential GEMM → uneven all-to-all → weighted
//! scatter, with no zero padding anywhere. It is the one MoE layer pass, over
//! a transport: single-rank, flat expert-parallel, or RBD's hierarchical
//! dispatch and combine (§4.2, [`crate::rbd`]); the [`block_sparse`] kernel
//! runs inside it too.
//!
//! [`dense`] implements the GShard/DeepSpeed-MoE baseline (Appendix B.1):
//! a `[S, E, C]` dispatch mask, zero-padded `[E, C, H]` expert buffers, and
//! **even** all-to-alls that carry the padding, single-rank or over an
//! expert-parallel communicator. Cross-pipeline equivalence is enforced by
//! tests at the workspace level.
//!
//! [`engine`] puts all of them behind one [`Pipeline`] trait: pooling,
//! transport and dispatch–compute overlap are properties of the [`ExecCtx`] a
//! forward runs under, not separate hand-cloned entry points.

pub mod block_sparse;
pub mod dense;
pub mod engine;
pub mod padding_free;
pub mod schedule;

pub use block_sparse::block_padding_waste;
pub use dense::{build_dense_dispatch, DenseDispatch, DenseDropOrder};
pub use engine::{
    BlockSparsePipeline, CommCtx, DensePipeline, ExecCtx, PaddingFreePipeline, Pipeline,
    PipelineError, RbdPipeline,
};
pub use padding_free::PooledSingleState;
pub use schedule::{
    bubble_fraction, rank_work, reference_forward, run_1f1b, MoeStageChunk, PipeOp, ScheduleSpec,
    StageChunk,
};

use crate::gating::DropPolicy;

/// Static description of one MoE layer shared by both pipelines.
#[derive(Clone, Copy, Debug)]
pub struct MoeLayerSpec {
    /// Total routed experts `E`.
    pub num_experts: usize,
    /// Per-expert capacity `C` (see
    /// [`crate::MoeModelConfig::expert_capacity`]).
    pub capacity: usize,
    /// Token-drop policy (§5.6).
    pub policy: DropPolicy,
}

impl MoeLayerSpec {
    pub fn new(num_experts: usize, capacity: usize) -> Self {
        Self {
            num_experts,
            capacity,
            policy: DropPolicy::CapacityOnly,
        }
    }

    pub fn with_policy(mut self, policy: DropPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Copy rows `[start, end)` of a row-major tensor into a flat `Vec<f32>`
/// (the wire format of the simulated all-to-all).
pub(crate) fn rows_to_vec(t: &xmoe_tensor::Tensor, start: usize, end: usize) -> Vec<f32> {
    let h = t.cols();
    t.as_slice()[start * h..end * h].to_vec()
}

/// Rebuild a `[rows, hidden]` tensor from concatenated flat chunks.
pub(crate) fn vecs_to_tensor(chunks: Vec<Vec<f32>>, hidden: usize) -> xmoe_tensor::Tensor {
    let total: usize = chunks.iter().map(Vec::len).sum();
    debug_assert_eq!(total % hidden.max(1), 0);
    let mut data = Vec::with_capacity(total);
    for c in chunks {
        data.extend_from_slice(&c);
    }
    xmoe_tensor::Tensor::from_vec(total / hidden.max(1), hidden, data)
}
