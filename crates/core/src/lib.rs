//! X-MoE core: the paper's contribution and its baselines.
//!
//! Modules map one-to-one onto the paper's design sections:
//!
//! * [`config`] — model/parallelism configurations, including the Table 3
//!   evaluation presets and the size-equivalent conventional vs
//!   expert-specialized model pairs of §3.2.
//! * [`gating`] — top-k softmax router with the two token-drop policies
//!   distinguished in §5.6 (capacity-only for X-MoE, negative-logit +
//!   capacity for DeepSpeed-MoE).
//! * [`pft`] — the Padding-Free Token buffer and its construction routine
//!   (Listing 1 / Appendix B.2).
//! * [`expert`] — fine-grained expert FFNs and per-rank expert shards.
//! * [`pipeline`] — the padding-free MoE layer (§4.1) and the dense
//!   zero-padded GShard/DeepSpeed-MoE baseline (Appendix B.1), both in
//!   single-rank and distributed (expert-parallel) forms.
//! * [`rbd`] — hierarchical Redundancy-Bypassing Dispatch (§4.2).
//! * [`route`] — the uneven expert exchange of §4.1 for any expert→rank
//!   map, serial or chunk-pipelined, forward and backward.
//! * [`ssmb`] — hybrid parallelism with sequence-sharded MoE blocks (§4.3).
//! * [`layer`] — the ergonomic [`MoeLayer`] bundle (router + experts +
//!   spec) most callers start from.
//! * [`analysis`] — routing analytics: load balance, entropy,
//!   co-activation, realized expert combinations.
//! * [`memory`] — analytic activation/model-state memory accounting
//!   (§3.2, Table 2/4, Fig 3/13, Appendix C.2).
//! * [`price`] — the simulated time of every MoE stage, written once.
//! * [`perf`] — the analytic performance model behind the throughput and
//!   scaling experiments (Fig 9/10/11/12/14/20, Table 5).
//! * [`plan`] — the auto-mapping planner: enumerate legal (PP, TP, EP, DP)
//!   foldings, bound them with the memory model, price them with the cost
//!   model, keep the Pareto frontier.

pub mod analysis;
pub mod config;
pub mod expert;
pub mod gating;
pub mod layer;
pub mod memory;
pub mod perf;
pub mod pft;
pub mod pipeline;
pub mod plan;
pub mod price;
pub mod rbd;
pub mod route;
pub mod ssmb;

pub use config::{DType, MoeModelConfig, ParallelConfig};
pub use expert::{Expert, ExpertShard};
pub use gating::{DropPolicy, GatingOutput, Router, RouterGuard};
pub use layer::MoeLayer;
pub use pft::Pft;
