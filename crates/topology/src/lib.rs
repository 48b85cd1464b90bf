//! Hierarchical HPC cluster model for the X-MoE reproduction.
//!
//! The paper's wins hinge on *which bytes cross which links* of a machine
//! with strongly asymmetric bandwidth: Frontier nodes carry 8 effective GPUs
//! (MI250X GCDs) joined by Infinity Fabric (~200 GB/s), while nodes talk over
//! Slingshot NICs (~25 GB/s per GCD share), and traffic beyond one 256-GPU
//! rack suffers congestion from co-scheduled jobs (paper Appendix D).
//!
//! This crate supplies:
//! * [`MachineSpec`] — link bandwidths/latencies, per-GPU peak TFLOP/s and
//!   HBM capacity, with [`MachineSpec::frontier`] and
//!   [`MachineSpec::dgx_a100`] presets;
//! * [`ClusterTopology`] — global rank → (rack, node, local slot) mapping;
//! * [`CostModel`] — prices point-to-point transfers and collectives
//!   (all-to-all(v), all-gather, all-reduce, reduce-scatter) from exact byte
//!   counts, used both by the live simulated runtime and the analytic
//!   performance model;
//! * [`congestion`] — the stochastic cross-rack outlier injector that
//!   reproduces the paper's Fig 18 latency regions;
//! * [`fault`] — deterministic fault schedules ([`FaultPlan`]): rank
//!   slowdowns, link degradation/flaps, and permanent rank failures that the
//!   cost model and the simulated runtime consult per training step;
//! * [`placement`] — EP-first vs DP-first process-grid placement
//!   (paper Appendix C).

pub mod congestion;
pub mod cost;
pub mod fault;
pub mod mapping;
pub mod placement;

pub use congestion::CongestionModel;
pub use cost::CostModel;
pub use fault::{FaultEvent, FaultPlan, LinkTier, SdcBitFlip, SdcSite};
pub use mapping::{
    enumerate_foldings, stage_boundary_p2p_time, AttnFold, FoldSearchSpace, MappingError, MoeFold,
    ParallelMapping,
};
pub use placement::{
    assignment_cost, build_grid, build_grid_excluding, build_grid_including, build_grid_tp,
    optimize_placement, placement_cost, ExpertAssignment, ExpertPlacement, PlacementCost,
    PlacementPolicy, ProcessGrid, RouteSample, RoutingHistogram,
};

/// Gigabyte (10^9 bytes), the unit vendors quote link bandwidth in.
pub const GB: f64 = 1e9;

/// Hardware description of one machine family.
///
/// Bandwidths are *effective per-GPU* unidirectional bandwidths in bytes/s;
/// latencies are per-message startup costs in seconds.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Human-readable name (shows up in experiment printouts).
    pub name: &'static str,
    /// Effective GPUs per node (Frontier: 8 GCDs; DGX: 8 GPUs).
    pub gpus_per_node: usize,
    /// Nodes per rack/dragonfly-group; traffic beyond a rack congests.
    pub nodes_per_rack: usize,
    /// Intra-node GPU-to-GPU bandwidth (bytes/s per GPU).
    pub intra_node_bw: f64,
    /// Inter-node bandwidth available to one GPU (bytes/s).
    pub inter_node_bw: f64,
    /// Per-message startup latency for intra-node transfers (s).
    pub intra_latency: f64,
    /// Per-message startup latency for inter-node transfers (s).
    pub inter_latency: f64,
    /// Peak dense throughput of one GPU in FLOP/s.
    pub peak_flops: f64,
    /// Fraction of peak a well-tuned GEMM achieves on this machine.
    pub gemm_efficiency: f64,
    /// HBM capacity per GPU in bytes.
    pub hbm_bytes: u64,
    /// Memory bandwidth per GPU (bytes/s) — prices bandwidth-bound kernels
    /// such as gather/scatter and gating.
    pub mem_bw: f64,
    /// Whether vendor-tuned MoE kernels exist for this platform (true on
    /// NVIDIA/CUDA, false on AMD/ROCm). The paper's motivating observation
    /// (§3.1): DeepSpeed-MoE and Tutel run optimized CUDA kernels on NVIDIA
    /// but fall back to inefficient framework-level einsum pipelines on
    /// AMD, and Tutel's kernel additionally forces fp32 `A_combine` there.
    pub vendor_moe_kernels: bool,
}

impl MachineSpec {
    /// Frontier (OLCF): 4x MI250X per node = 8 GCDs ("effective GPUs").
    ///
    /// Numbers from the paper (§5.1, Appendix A): Infinity Fabric up to
    /// 200 GB/s within a node, Slingshot 25 GB/s NICs, 191.5 TFLOP/s peak
    /// per GCD, 64 GB HBM per GCD, 32 nodes (256 GCDs) per rack — the scale
    /// beyond which the paper observes congestion.
    pub fn frontier() -> Self {
        Self {
            name: "frontier",
            gpus_per_node: 8,
            nodes_per_rack: 32,
            intra_node_bw: 200.0 * GB,
            inter_node_bw: 25.0 * GB,
            intra_latency: 8e-6,
            inter_latency: 20e-6,
            peak_flops: 191.5e12,
            gemm_efficiency: 0.45,
            hbm_bytes: 64 * 1_000_000_000,
            mem_bw: 1.6e12,
            vendor_moe_kernels: false,
        }
    }

    /// A single DGX-A100 40 GB node (paper §5.5, Table 5): 8 GPUs over
    /// NVLink/NVSwitch (~300 GB/s per GPU), 312 TFLOP/s BF16 peak, 40 GB HBM.
    pub fn dgx_a100() -> Self {
        Self {
            name: "dgx-a100-40gb",
            gpus_per_node: 8,
            nodes_per_rack: 1,
            intra_node_bw: 300.0 * GB,
            inter_node_bw: 12.5 * GB, // 1x HDR InfiniBand per pair of GPUs
            intra_latency: 5e-6,
            inter_latency: 15e-6,
            peak_flops: 312.0e12,
            gemm_efficiency: 0.45,
            hbm_bytes: 40 * 1_000_000_000,
            mem_bw: 1.555e12,
            vendor_moe_kernels: true,
        }
    }

    /// GPUs per rack (the congestion boundary).
    pub fn gpus_per_rack(&self) -> usize {
        self.gpus_per_node * self.nodes_per_rack
    }
}

/// Maps global ranks onto the (rack, node, local-slot) hierarchy.
///
/// Ranks are packed densely: rank `r` lives in node `r / gpus_per_node`,
/// rack `node / nodes_per_rack` — the standard SLURM block distribution the
/// paper's experiments use.
#[derive(Clone, Debug)]
pub struct ClusterTopology {
    spec: MachineSpec,
    n_ranks: usize,
}

impl ClusterTopology {
    /// Build a topology of `n_ranks` GPUs on the given machine.
    pub fn new(spec: MachineSpec, n_ranks: usize) -> Self {
        assert!(n_ranks > 0, "topology needs at least one rank");
        Self { spec, n_ranks }
    }

    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Node index of a global rank.
    pub fn node_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.n_ranks);
        rank / self.spec.gpus_per_node
    }

    /// Rack index of a global rank.
    pub fn rack_of(&self, rank: usize) -> usize {
        self.node_of(rank) / self.spec.nodes_per_rack
    }

    /// Slot of the rank within its node.
    pub fn local_index(&self, rank: usize) -> usize {
        rank % self.spec.gpus_per_node
    }

    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    pub fn same_rack(&self, a: usize, b: usize) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Number of nodes the ranks occupy (ceiling division).
    pub fn node_count(&self) -> usize {
        self.n_ranks.div_ceil(self.spec.gpus_per_node)
    }

    /// Number of racks the ranks occupy.
    pub fn rack_count(&self) -> usize {
        self.node_count().div_ceil(self.spec.nodes_per_rack)
    }

    /// All ranks co-resident on `rank`'s node (including itself), ascending.
    pub fn node_peers(&self, rank: usize) -> Vec<usize> {
        let node = self.node_of(rank);
        let start = node * self.spec.gpus_per_node;
        let end = (start + self.spec.gpus_per_node).min(self.n_ranks);
        (start..end).collect()
    }

    /// Link class between two ranks.
    pub fn link_class(&self, a: usize, b: usize) -> LinkClass {
        if a == b {
            LinkClass::Local
        } else if self.same_node(a, b) {
            LinkClass::IntraNode
        } else if self.same_rack(a, b) {
            LinkClass::InterNode
        } else {
            LinkClass::CrossRack
        }
    }
}

/// Classes of communication path, ordered from cheapest to most expensive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkClass {
    /// Same GPU (no transfer).
    Local,
    /// Same node: Infinity Fabric / NVLink.
    IntraNode,
    /// Different node, same rack: Slingshot / InfiniBand.
    InterNode,
    /// Different rack: Slingshot through the dragonfly global links,
    /// subject to congestion from co-scheduled jobs.
    CrossRack,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_spec_matches_paper_numbers() {
        let s = MachineSpec::frontier();
        assert_eq!(s.gpus_per_node, 8);
        assert_eq!(s.gpus_per_rack(), 256);
        assert!((s.intra_node_bw / GB - 200.0).abs() < 1e-9);
        assert!((s.inter_node_bw / GB - 25.0).abs() < 1e-9);
        assert!((s.peak_flops - 191.5e12).abs() < 1e6);
    }

    #[test]
    fn rank_mapping_is_block_distributed() {
        let t = ClusterTopology::new(MachineSpec::frontier(), 64);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(7), 0);
        assert_eq!(t.node_of(8), 1);
        assert_eq!(t.local_index(13), 5);
        assert!(t.same_node(0, 7));
        assert!(!t.same_node(7, 8));
        assert_eq!(t.node_count(), 8);
    }

    #[test]
    fn rack_boundaries_at_256_gpus_on_frontier() {
        let t = ClusterTopology::new(MachineSpec::frontier(), 1024);
        assert_eq!(t.rack_of(255), 0);
        assert_eq!(t.rack_of(256), 1);
        assert_eq!(t.rack_count(), 4);
        assert!(t.same_rack(0, 255));
        assert!(!t.same_rack(0, 256));
    }

    #[test]
    fn link_classes_ordered_by_cost() {
        let t = ClusterTopology::new(MachineSpec::frontier(), 1024);
        assert_eq!(t.link_class(3, 3), LinkClass::Local);
        assert_eq!(t.link_class(0, 1), LinkClass::IntraNode);
        assert_eq!(t.link_class(0, 8), LinkClass::InterNode);
        assert_eq!(t.link_class(0, 300), LinkClass::CrossRack);
        assert!(LinkClass::IntraNode < LinkClass::InterNode);
        assert!(LinkClass::InterNode < LinkClass::CrossRack);
    }

    #[test]
    fn node_peers_truncated_at_cluster_edge() {
        let t = ClusterTopology::new(MachineSpec::frontier(), 12);
        assert_eq!(t.node_peers(0), (0..8).collect::<Vec<_>>());
        assert_eq!(t.node_peers(9), vec![8, 9, 10, 11]);
    }

    #[test]
    fn dgx_is_single_node_per_rack() {
        let s = MachineSpec::dgx_a100();
        assert_eq!(s.gpus_per_rack(), 8);
        let t = ClusterTopology::new(s, 8);
        assert_eq!(t.node_count(), 1);
        assert!(t.same_node(0, 7));
    }
}
