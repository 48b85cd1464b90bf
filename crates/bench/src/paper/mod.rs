//! The paper's evaluation, one module per table or figure, each exporting
//! `BENCH` for the spine's registry ([`crate::spine::PAPER`] fixes the
//! order). Every experiment is analytic, seeded or simulated-clock, so its
//! records are pinned byte for byte in `bench/paper/<name>.json` and
//! `tests/paper_claims.rs` gates every claim in tier-1. `recovery` (the
//! checkpoint-interval sweep of the chaos engine) lives here too but is not
//! part of the paper's list.

pub mod ablation_blocksparse;
pub mod ablation_capacity;
pub mod ablation_pilot;
pub mod ablation_skew;
pub mod appc_placement;
pub mod fig03_memory;
pub mod fig04_redundancy;
pub mod fig09_main;
pub mod fig10_scaling;
pub mod fig11_breakdown;
pub mod fig12_rbd;
pub mod fig13_ssmb_memory;
pub mod fig14_ssmb_vs_ckpt;
pub mod fig15_loss;
pub mod fig17_ssmb_vs_ted;
pub mod fig18_alltoall_scale;
pub mod fig20_depth_topk;
pub mod recovery;
pub mod tab04_activation_memory;
pub mod tab05_a100;
