//! Training substrate for the loss-validation experiment (paper §5.6,
//! Fig 15).
//!
//! The paper verifies X-MoE's numerical correctness by training the same
//! MoE model under X-MoE and DeepSpeed-MoE and showing the loss curves
//! track each other, with X-MoE slightly lower because of its gentler
//! token-dropping policy (capacity-only, versus DeepSpeed's "drop on
//! negative routing logit regardless of capacity").
//!
//! This crate reproduces that experiment end to end in Rust:
//!
//! * [`data::MarkovCorpus`] — a synthetic corpus with learnable next-token
//!   structure (a random sparse Markov chain), replacing the paper's text
//!   corpus;
//! * [`layers`] — embedding, dense MLP block and softmax-cross-entropy
//!   head with hand-written backward passes;
//! * [`moe_layer::TrainableMoe`] — the full MoE layer forward/backward:
//!   router softmax + top-k, PFT construction with either
//!   [`xmoe_core::DropPolicy`], gather/dispatch, per-expert FFN, weighted
//!   scatter/combine, and exact gradients for every weight including the
//!   router (via the combine-weight path);
//! * [`adam::Adam`] — Adam with global-norm gradient clipping;
//! * [`dist::DistMoeLm`] — the assembled language model, data + expert
//!   parallel over any world (one rank is the single-process model), with
//!   its one parameter walk ([`dist::ParamId`]); [`model`] holds its
//!   configuration and the Fig 15 training loop.
//!
//! Gradient correctness is enforced by finite-difference tests on every
//! parameter group.

// Backward passes index several parallel row-slices at once; explicit
// index loops are clearer than zipped iterator pyramids there.
#![allow(clippy::needless_range_loop)]

pub mod adam;
pub mod attention;
pub mod chaos;
pub mod checkpoint;
pub mod data;
pub mod dist;
pub mod elastic;
pub mod guard;
pub mod layers;
pub mod model;
pub mod moe_layer;
mod moe_math;
pub mod ssmb_train;
pub mod stages;

pub use adam::Adam;
pub use attention::Attention;
pub use chaos::{run_chaos_rank, step_batch, ChaosConfig, ChaosReport, JoinStats};
pub use checkpoint::{Checkpoint, CkptError};
pub use data::{HigherOrderCorpus, MarkovCorpus};
pub use dist::{DistMoe, DistMoeLm, DistMoeScratch, ParamId};
pub use elastic::{
    assignment_cost, ExpertAssignment, RebalanceConfig, RebalanceDecision, RebalancePolicy,
};
pub use guard::{
    Divergence, GuardConfig, GuardEvent, LossScale, LossScaleCfg, PolicyAction, PolicyCfg,
    PolicyEngine, SpikeDetector, Verdict,
};
pub use model::{build_moe_layers, TrainConfig};
pub use moe_layer::{MoeCtx, MoeTrainScratch, TrainableMoe};
pub use ssmb_train::SsmbMoe;
pub use stages::StagePartition;
