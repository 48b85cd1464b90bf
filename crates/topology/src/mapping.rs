//! Heterogeneous parallelism foldings: a 4D (PP, TP, EP, DP) mapping in
//! which attention and MoE blocks use *different* decompositions of the
//! same per-stage rank set.
//!
//! The fold grammar follows "MoE Parallel Folding": the world is first cut
//! into `pp` contiguous pipeline stages of `R = world / pp` ranks; inside
//! a stage, attention runs TP×DP over those `R` ranks while the MoE block
//! independently runs EP×TP×DP over the *same* ranks. Both products must
//! equal `R` — that is the only coupling between the two sub-mappings.
//!
//! This module is pure topology: it enumerates legal foldings, assigns
//! global ranks to groups, and prices the stage-boundary activation hops.
//! What a folding *costs in time and memory* for a concrete model is the
//! planner's job (`xmoe_core::plan`), which layers the perf and memory
//! models on top of these types.

use crate::cost::CostModel;

/// TP×DP fold of one pipeline stage's ranks for the dense/attention path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttnFold {
    pub tp: usize,
    pub dp: usize,
}

/// EP×TP×DP fold of the same ranks for the MoE path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoeFold {
    pub ep: usize,
    pub tp: usize,
    pub dp: usize,
}

/// One complete 4D folding of a `world`-rank cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelMapping {
    /// Pipeline stages (contiguous rank blocks).
    pub pp: usize,
    /// Virtual chunks per pipeline rank (interleaved 1F1B when > 1).
    pub virtual_chunks: usize,
    /// Microbatches in flight per step.
    pub microbatches: usize,
    /// Attention-block fold of each stage's ranks.
    pub attn: AttnFold,
    /// MoE-block fold of the same ranks.
    pub moe: MoeFold,
}

/// Why a candidate folding is illegal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MappingError {
    /// Some factor is zero or the per-stage products disagree with world.
    Shape(String),
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::Shape(why) => write!(f, "illegal parallel mapping: {why}"),
        }
    }
}

impl std::error::Error for MappingError {}

impl ParallelMapping {
    /// The trivial mapping: everything on one rank.
    pub fn single() -> Self {
        Self {
            pp: 1,
            virtual_chunks: 1,
            microbatches: 1,
            attn: AttnFold { tp: 1, dp: 1 },
            moe: MoeFold {
                ep: 1,
                tp: 1,
                dp: 1,
            },
        }
    }

    /// Ranks per pipeline stage.
    pub fn stage_ranks(&self) -> usize {
        self.attn.tp * self.attn.dp
    }

    /// Check internal consistency against a world size (and optionally the
    /// model shape via [`legal_for_model`](Self::legal_for_model)).
    pub fn validate(&self, world: usize) -> Result<(), MappingError> {
        let fail = |why: String| Err(MappingError::Shape(why));
        if self.pp == 0
            || self.virtual_chunks == 0
            || self.microbatches == 0
            || self.attn.tp == 0
            || self.attn.dp == 0
            || self.moe.ep == 0
            || self.moe.tp == 0
            || self.moe.dp == 0
        {
            return fail("every parallel degree must be >= 1".into());
        }
        if !world.is_multiple_of(self.pp) {
            return fail(format!("pp={} does not divide world={world}", self.pp));
        }
        let r = world / self.pp;
        if self.attn.tp * self.attn.dp != r {
            return fail(format!(
                "attention fold tp{}xdp{} != {r} ranks per stage",
                self.attn.tp, self.attn.dp
            ));
        }
        if self.moe.ep * self.moe.tp * self.moe.dp != r {
            return fail(format!(
                "moe fold ep{}xtp{}xdp{} != {r} ranks per stage",
                self.moe.ep, self.moe.tp, self.moe.dp
            ));
        }
        if self.virtual_chunks > 1 && !self.microbatches.is_multiple_of(self.pp) {
            return fail(format!(
                "interleaved schedule needs microbatches={} divisible by pp={}",
                self.microbatches, self.pp
            ));
        }
        Ok(())
    }

    /// Model-shape legality on top of [`validate`](Self::validate): stages
    /// must split the layer stack evenly and experts must shard over EP.
    pub fn legal_for_model(
        &self,
        world: usize,
        num_layers: usize,
        num_experts: usize,
    ) -> Result<(), MappingError> {
        self.validate(world)?;
        let stages = self.pp * self.virtual_chunks;
        if !num_layers.is_multiple_of(stages) {
            return Err(MappingError::Shape(format!(
                "{num_layers} layers do not split into {stages} virtual stages"
            )));
        }
        if !num_experts.is_multiple_of(self.moe.ep) {
            return Err(MappingError::Shape(format!(
                "{num_experts} experts do not shard over ep={}",
                self.moe.ep
            )));
        }
        Ok(())
    }

    /// Compact human label, e.g. `pp2·v2·m8·(tp2×dp2 | ep4×tp1×dp1)`.
    pub fn label(&self) -> String {
        format!(
            "pp{}.v{}.m{}.attn(tp{}xdp{}).moe(ep{}xtp{}xdp{})",
            self.pp,
            self.virtual_chunks,
            self.microbatches,
            self.attn.tp,
            self.attn.dp,
            self.moe.ep,
            self.moe.tp,
            self.moe.dp
        )
    }

    /// Analytic 1F1B bubble fraction `(p-1)/(v·m + p-1)`.
    pub fn analytic_bubble(&self) -> f64 {
        let p = self.pp as f64;
        (p - 1.0) / (self.virtual_chunks as f64 * self.microbatches as f64 + p - 1.0)
    }

    /// Global ranks of the MoE EP group containing stage-local rank `j` of
    /// stage `s`. EP is laid out TP-innermost: EP peer `e` of local rank
    /// `j` is `base + e·tp_moe + (j % tp_moe)` within the stage's slice of
    /// `dp` replica `j / (ep·tp_moe)`.
    pub fn ep_group(&self, world: usize, s: usize, j: usize) -> Vec<usize> {
        let r = world / self.pp;
        debug_assert!(j < r);
        let base = s * r;
        let replica = j / (self.moe.ep * self.moe.tp);
        let tp_slot = j % self.moe.tp;
        (0..self.moe.ep)
            .map(|e| base + replica * self.moe.ep * self.moe.tp + e * self.moe.tp + tp_slot)
            .collect()
    }
}

/// Worst-case stage-boundary activation hop time for `bytes` per
/// microbatch: the max over all adjacent-stage rank pairs `(s·R + j,
/// (s+1)·R + j)` of the point-to-point price. This is the term the 1F1B
/// executor pays twice per microbatch per boundary (forward activation +
/// backward gradient).
pub fn stage_boundary_p2p_time(cost: &CostModel, mapping: &ParallelMapping, bytes: u64) -> f64 {
    let world = cost.topology().n_ranks();
    if mapping.pp <= 1 {
        return 0.0;
    }
    let r = world / mapping.pp;
    let mut worst: f64 = 0.0;
    for s in 0..mapping.pp - 1 {
        for j in 0..r {
            worst = worst.max(cost.p2p_time(s * r + j, (s + 1) * r + j, bytes));
        }
    }
    worst
}

/// Search space for [`enumerate_foldings`].
#[derive(Clone, Copy, Debug)]
pub struct FoldSearchSpace {
    /// Total ranks to fold.
    pub world: usize,
    /// Experts per MoE layer (EP must divide it).
    pub num_experts: usize,
    /// Transformer layers (virtual stages must divide it).
    pub num_layers: usize,
    /// Microbatches per step (fixed across candidates so step times
    /// compare like-for-like).
    pub microbatches: usize,
    /// Cap on either tensor-parallel degree (TP beyond one node is never
    /// competitive on the machines modelled here).
    pub max_tp: usize,
}

impl FoldSearchSpace {
    pub fn new(world: usize, num_experts: usize, num_layers: usize, microbatches: usize) -> Self {
        Self {
            world,
            num_experts,
            num_layers,
            microbatches,
            max_tp: 8,
        }
    }
}

fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

/// Enumerate every legal folding of the space: `pp` over divisors of both
/// world and the layer stack, independent TP×DP and EP×TP×DP folds of the
/// per-stage ranks, and the deepest interleaving `v` the layer count
/// admits (plus the non-interleaved `v = 1` variant when they differ).
pub fn enumerate_foldings(space: &FoldSearchSpace) -> Vec<ParallelMapping> {
    let mut out = Vec::new();
    for &pp in &divisors(space.world) {
        if !space.num_layers.is_multiple_of(pp) {
            continue;
        }
        let r = space.world / pp;
        let mut vs = vec![1];
        if pp > 1 && space.microbatches.is_multiple_of(pp) {
            // Deepest interleaving the layer stack allows, capped at 2:
            // deeper chunking multiplies p2p traffic for little extra
            // bubble shrink at these depths.
            if space.num_layers.is_multiple_of(pp * 2) {
                vs.push(2);
            }
        }
        for &v in &vs {
            for &tp_attn in &divisors(r) {
                if tp_attn > space.max_tp {
                    continue;
                }
                for &ep in &divisors(r) {
                    if !space.num_experts.is_multiple_of(ep) {
                        continue;
                    }
                    for &tp_moe in &divisors(r / ep) {
                        if tp_moe > space.max_tp {
                            continue;
                        }
                        let m = ParallelMapping {
                            pp,
                            virtual_chunks: v,
                            microbatches: space.microbatches,
                            attn: AttnFold {
                                tp: tp_attn,
                                dp: r / tp_attn,
                            },
                            moe: MoeFold {
                                ep,
                                tp: tp_moe,
                                dp: r / (ep * tp_moe),
                            },
                        };
                        debug_assert!(m
                            .legal_for_model(space.world, space.num_layers, space.num_experts)
                            .is_ok());
                        out.push(m);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterTopology, CongestionModel, MachineSpec};

    #[test]
    fn validate_catches_bad_products() {
        let mut m = ParallelMapping::single();
        assert!(m.validate(1).is_ok());
        m.attn = AttnFold { tp: 2, dp: 1 };
        assert!(m.validate(1).is_err());
        let m = ParallelMapping {
            pp: 2,
            virtual_chunks: 1,
            microbatches: 4,
            attn: AttnFold { tp: 2, dp: 4 },
            moe: MoeFold {
                ep: 4,
                tp: 2,
                dp: 1,
            },
        };
        assert!(m.validate(16).is_ok());
        assert!(m.validate(32).is_err());
    }

    #[test]
    fn interleaving_requires_divisible_microbatches() {
        let mut m = ParallelMapping {
            pp: 4,
            virtual_chunks: 2,
            microbatches: 6,
            attn: AttnFold { tp: 1, dp: 1 },
            moe: MoeFold {
                ep: 1,
                tp: 1,
                dp: 1,
            },
        };
        assert!(m.validate(4).is_err());
        m.microbatches = 8;
        assert!(m.validate(4).is_ok());
    }

    #[test]
    fn enumeration_is_legal_and_heterogeneous() {
        let space = FoldSearchSpace::new(16, 32, 8, 8);
        let folds = enumerate_foldings(&space);
        assert!(folds.len() >= 8, "only {} foldings", folds.len());
        assert!(folds.iter().any(|m| m.pp > 1), "need a PP>1 candidate");
        // The point of folding: at least one candidate where attention and
        // MoE decompose the stage differently.
        assert!(folds.iter().any(|m| m.attn.tp != m.moe.tp || m.moe.ep > 1));
        for m in &folds {
            m.legal_for_model(16, 8, 32).unwrap();
        }
    }

    #[test]
    fn ep_groups_partition_each_stage() {
        let m = ParallelMapping {
            pp: 2,
            virtual_chunks: 1,
            microbatches: 4,
            attn: AttnFold { tp: 4, dp: 2 },
            moe: MoeFold {
                ep: 2,
                tp: 2,
                dp: 2,
            },
        };
        m.validate(16).unwrap();
        for s in 0..2 {
            let stage: Vec<usize> = (s * 8..(s + 1) * 8).collect();
            for &j in &[0usize, 3, 5, 7] {
                let g = m.ep_group(16, s, j);
                assert_eq!(g.len(), 2);
                assert!(g.contains(&(s * 8 + j)), "{g:?} must contain rank {j}");
                for r in g {
                    assert!(stage.contains(&r));
                }
            }
        }
    }

    #[test]
    fn boundary_p2p_prices_the_worst_pair() {
        let topo = ClusterTopology::new(MachineSpec::frontier(), 16);
        let cost = CostModel::new(topo).with_congestion(CongestionModel::none());
        let m = ParallelMapping {
            pp: 2,
            virtual_chunks: 1,
            microbatches: 4,
            attn: AttnFold { tp: 1, dp: 8 },
            moe: MoeFold {
                ep: 8,
                tp: 1,
                dp: 1,
            },
        };
        // Stage 0 = ranks 0..8 (node 0), stage 1 = ranks 8..16 (node 1):
        // every boundary pair crosses nodes.
        let t = stage_boundary_p2p_time(&cost, &m, 1 << 20);
        let spec = MachineSpec::frontier();
        let want = spec.inter_latency + (1u64 << 20) as f64 / spec.inter_node_bw;
        assert!((t - want).abs() < 1e-12, "got {t}, want {want}");
        // pp = 1 has no boundary.
        assert_eq!(
            stage_boundary_p2p_time(&cost, &ParallelMapping::single(), 123),
            0.0
        );
    }
}
