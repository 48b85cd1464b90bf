//! Communication/computation cost model.
//!
//! Collectives are priced from exact per-(src, dst) byte counts using an
//! α–β (latency–bandwidth) model with per-link-class bandwidths. For an
//! all-to-all, every rank sends and receives concurrently, so the collective
//! finishes when the busiest rank drains its slowest link class:
//!
//! ```text
//! t = max over ranks r of
//!       max(send_intra_r, recv_intra_r) / bw_intra
//!     + max(send_inter_r, recv_inter_r) / bw_inter * congestion
//!     + startup(α, peers)
//! ```
//!
//! This is the standard model for NIC-bound all-to-alls and captures
//! precisely the effect X-MoE exploits: moving bytes from the `inter` term
//! (25 GB/s on Frontier) to the `intra` term (200 GB/s) or removing them
//! entirely (padding-free buffers).

use crate::{ClusterTopology, CongestionModel, LinkClass};
use xmoe_tensor::DetRng;

/// Prices communication and computation on a [`ClusterTopology`].
///
/// ```
/// use xmoe_topology::{ClusterTopology, CostModel, MachineSpec};
/// let topo = ClusterTopology::new(MachineSpec::frontier(), 16);
/// let cost = CostModel::new(topo);
/// // Intra-node Infinity Fabric vs inter-node Slingshot: ~8x.
/// let intra = cost.p2p_time(0, 1, 100_000_000);
/// let inter = cost.p2p_time(0, 8, 100_000_000);
/// assert!(inter > 6.0 * intra);
/// ```
#[derive(Clone, Debug)]
pub struct CostModel {
    topo: ClusterTopology,
    congestion: CongestionModel,
}

/// Per-rank traffic split by link class, in bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrafficSplit {
    pub intra_send: u64,
    pub intra_recv: u64,
    pub inter_send: u64,
    pub inter_recv: u64,
    pub cross_rack_send: u64,
    pub cross_rack_recv: u64,
}

impl TrafficSplit {
    pub fn total_send(&self) -> u64 {
        self.intra_send + self.inter_send + self.cross_rack_send
    }
}

impl CostModel {
    /// Build a cost model with the default congestion behaviour for the
    /// topology's scale.
    pub fn new(topo: ClusterTopology) -> Self {
        let congestion = CongestionModel::for_scale(topo.n_ranks(), topo.spec().gpus_per_rack());
        Self { topo, congestion }
    }

    /// Override the congestion model (tests use [`CongestionModel::none`]).
    pub fn with_congestion(mut self, congestion: CongestionModel) -> Self {
        self.congestion = congestion;
        self
    }

    pub fn topology(&self) -> &ClusterTopology {
        &self.topo
    }

    pub fn congestion(&self) -> &CongestionModel {
        &self.congestion
    }

    /// Point-to-point transfer time.
    pub fn p2p_time(&self, src: usize, dst: usize, bytes: u64) -> f64 {
        let spec = self.topo.spec();
        match self.topo.link_class(src, dst) {
            LinkClass::Local => 0.0,
            LinkClass::IntraNode => spec.intra_latency + bytes as f64 / spec.intra_node_bw,
            LinkClass::InterNode => spec.inter_latency + bytes as f64 / spec.inter_node_bw,
            LinkClass::CrossRack => {
                (spec.inter_latency + bytes as f64 / spec.inter_node_bw)
                    * self.congestion.mean_multiplier()
            }
        }
    }

    /// Classify the byte matrix of a (sub-)all-to-all into per-rank traffic
    /// splits. `group[i]` is the global rank at group position `i`;
    /// `bytes(i, j)` is how many bytes position `i` sends to position `j`.
    pub fn traffic_splits(
        &self,
        group: &[usize],
        bytes: &dyn Fn(usize, usize) -> u64,
    ) -> Vec<TrafficSplit> {
        let n = group.len();
        let mut splits = vec![TrafficSplit::default(); n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue; // self-sends are local memcpy, priced as compute
                }
                let b = bytes(i, j);
                if b == 0 {
                    continue;
                }
                match self.topo.link_class(group[i], group[j]) {
                    LinkClass::Local => {}
                    LinkClass::IntraNode => {
                        splits[i].intra_send += b;
                        splits[j].intra_recv += b;
                    }
                    LinkClass::InterNode => {
                        splits[i].inter_send += b;
                        splits[j].inter_recv += b;
                    }
                    LinkClass::CrossRack => {
                        splits[i].cross_rack_send += b;
                        splits[j].cross_rack_recv += b;
                    }
                }
            }
        }
        splits
    }

    /// Expected (mean-congestion) time of an uneven all-to-all described by
    /// a byte matrix over `group`.
    pub fn alltoallv_time(&self, group: &[usize], bytes: &dyn Fn(usize, usize) -> u64) -> f64 {
        self.alltoallv_time_with_multiplier(group, bytes, self.congestion.mean_multiplier())
    }

    /// `n` sampled times of one uneven all-to-all: each draws a cross-rack
    /// congestion multiplier from the outlier distribution, in order. The
    /// split table depends on the byte matrix alone, so it is built once.
    pub fn alltoallv_time_samples(
        &self,
        group: &[usize],
        bytes: &dyn Fn(usize, usize) -> u64,
        n: usize,
        rng: &mut DetRng,
    ) -> Vec<f64> {
        let splits = xmoe_tensor::untracked(|| self.traffic_splits(group, bytes));
        let draws = (0..n).map(|_| self.congestion.sample_multiplier(rng));
        draws.map(|mult| self.splits_time(&splits, mult)).collect()
    }

    fn alltoallv_time_with_multiplier(
        &self,
        group: &[usize],
        bytes: &dyn Fn(usize, usize) -> u64,
        cross_rack_mult: f64,
    ) -> f64 {
        if group.len() <= 1 {
            return 0.0;
        }
        // Pricing is simulation machinery with no malloc analog on real
        // hardware (the split table models the NIC, it isn't training
        // state), so its scratch Vec lives under the untracked counter —
        // same policy as the simulated wire in the collectives crate.
        let splits = xmoe_tensor::untracked(|| self.traffic_splits(group, bytes));
        self.splits_time(&splits, cross_rack_mult)
    }

    /// Drain of the busiest rank plus the collective's startup.
    fn splits_time(&self, splits: &[TrafficSplit], cross_rack_mult: f64) -> f64 {
        let (worst, any_intra, any_inter) = self.worst_drain(splits, cross_rack_mult);
        worst + self.startup(splits.len(), any_intra, any_inter)
    }

    /// Busiest-rank drain time over per-rank splits, plus which link
    /// classes carried traffic at all.
    fn worst_drain(&self, splits: &[TrafficSplit], cross_rack_mult: f64) -> (f64, bool, bool) {
        let spec = self.topo.spec();
        let mut worst: f64 = 0.0;
        let mut any_inter = false;
        let mut any_intra = false;
        for s in splits {
            let intra = s.intra_send.max(s.intra_recv) as f64 / spec.intra_node_bw;
            // Inter-node and cross-rack traffic share the NIC; the
            // cross-rack share is additionally stretched by congestion.
            let inter_bytes = s.inter_send.max(s.inter_recv) as f64;
            let xr_bytes = s.cross_rack_send.max(s.cross_rack_recv) as f64;
            let inter = (inter_bytes * self.congestion.spillover + xr_bytes * cross_rack_mult)
                / spec.inter_node_bw;
            worst = worst.max(intra + inter);
            any_intra |= s.intra_send > 0 || s.intra_recv > 0;
            any_inter |= s.inter_send > 0
                || s.inter_recv > 0
                || s.cross_rack_send > 0
                || s.cross_rack_recv > 0;
        }
        (worst, any_intra, any_inter)
    }

    /// Time of a *sparse* uneven all-to-all — the MoE-dispatch shape where
    /// most (src, dst) pairs carry nothing. Drains price exactly like
    /// [`alltoallv_time`](Self::alltoallv_time), but the startup term is
    /// per-message injection overhead: the busiest rank pays one α per
    /// *distinct peer it actually sends to* (at that link's latency class)
    /// instead of the dense collective's `α log₂ n` rounds. This is the
    /// term expert placement moves: packing a token's experts onto fewer
    /// nodes removes whole messages, not just bytes.
    pub fn sparse_exchange_time(
        &self,
        group: &[usize],
        bytes: &dyn Fn(usize, usize) -> u64,
    ) -> f64 {
        if group.len() <= 1 {
            return 0.0;
        }
        let spec = self.topo.spec();
        let splits = xmoe_tensor::untracked(|| self.traffic_splits(group, bytes));
        let (worst, _, _) = self.worst_drain(&splits, self.congestion.mean_multiplier());
        let n = group.len();
        let mut max_startup: f64 = 0.0;
        for i in 0..n {
            let mut startup = 0.0;
            for j in 0..n {
                if i == j || bytes(i, j) == 0 {
                    continue;
                }
                startup += match self.topo.link_class(group[i], group[j]) {
                    LinkClass::Local => 0.0,
                    LinkClass::IntraNode => spec.intra_latency,
                    LinkClass::InterNode | LinkClass::CrossRack => spec.inter_latency,
                };
            }
            max_startup = max_startup.max(startup);
        }
        worst + max_startup
    }

    /// Even all-to-all: every rank sends `bytes_per_pair` to every other.
    pub fn alltoall_even_time(&self, group: &[usize], bytes_per_pair: u64) -> f64 {
        self.alltoallv_time(group, &|_, _| bytes_per_pair)
    }

    /// Ring all-gather: each rank contributes `bytes_per_rank` and receives
    /// everyone else's contribution.
    pub fn allgather_time(&self, group: &[usize], bytes_per_rank: u64) -> f64 {
        let n = group.len();
        if n <= 1 {
            return 0.0;
        }
        let bw = self.bottleneck_bw(group);
        (n - 1) as f64 * bytes_per_rank as f64 / bw + self.startup_ring(group, n)
    }

    /// Ring all-gather with *uneven* per-rank contributions. In a ring, link
    /// `r → r+1` carries every chunk except the one that originates at
    /// `r+1`, so the bottleneck link moves `Σ bytes − min(bytes)` and the
    /// collective finishes in that link's drain time. Reduces exactly to
    /// [`allgather_time`](Self::allgather_time) when all contributions are
    /// equal; for a skewed gather (one big contributor, n−1 tiny ones) it is
    /// up to n× cheaper than pricing every rank at the max.
    pub fn allgather_time_uneven(&self, group: &[usize], bytes_per_rank: &[u64]) -> f64 {
        let n = group.len();
        assert_eq!(
            bytes_per_rank.len(),
            n,
            "allgather_time_uneven needs one byte count per group member"
        );
        if n <= 1 {
            return 0.0;
        }
        let total: u64 = bytes_per_rank.iter().sum();
        let min = bytes_per_rank.iter().copied().min().unwrap_or(0);
        let bw = self.bottleneck_bw(group);
        (total - min) as f64 / bw + self.startup_ring(group, n)
    }

    /// Ring all-reduce of `bytes` (reduce-scatter + all-gather):
    /// `2 (n-1)/n * bytes / bw`.
    pub fn allreduce_time(&self, group: &[usize], bytes: u64) -> f64 {
        let n = group.len();
        if n <= 1 {
            return 0.0;
        }
        let bw = self.bottleneck_bw(group);
        2.0 * (n - 1) as f64 / n as f64 * bytes as f64 / bw + self.startup_ring(group, n)
    }

    /// Ring reduce-scatter of `bytes` total: `(n-1)/n * bytes / bw`.
    pub fn reduce_scatter_time(&self, group: &[usize], bytes: u64) -> f64 {
        let n = group.len();
        if n <= 1 {
            return 0.0;
        }
        let bw = self.bottleneck_bw(group);
        (n - 1) as f64 / n as f64 * bytes as f64 / bw + self.startup_ring(group, n)
    }

    /// Time for a dense GEMM of `flops` floating point operations.
    pub fn compute_time(&self, flops: f64) -> f64 {
        let spec = self.topo.spec();
        flops / (spec.peak_flops * spec.gemm_efficiency)
    }

    /// Worst (most expensive) link class present between any pair of ranks
    /// in the group. This is the class a ring collective bottlenecks on, and
    /// the class link-level faults are matched against.
    pub fn group_class(&self, group: &[usize]) -> LinkClass {
        let mut class = LinkClass::Local;
        'outer: for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                class = class.max(self.topo.link_class(a, b));
                if class == LinkClass::CrossRack {
                    break 'outer;
                }
            }
        }
        class
    }

    /// Fault-induced time multiplier for a collective over `group` at
    /// training step `step`: the [`FaultPlan`]'s degradation factor for the
    /// group's bottleneck link class (1.0 when nothing is degraded).
    pub fn fault_link_multiplier(
        &self,
        group: &[usize],
        plan: &crate::fault::FaultPlan,
        step: u64,
    ) -> f64 {
        plan.link_multiplier(self.group_class(group), step)
    }

    /// Slowest link bandwidth present among any pair in the group, with mean
    /// congestion applied if the group spans racks.
    fn bottleneck_bw(&self, group: &[usize]) -> f64 {
        let spec = self.topo.spec();
        match self.group_class(group) {
            LinkClass::Local | LinkClass::IntraNode => spec.intra_node_bw,
            LinkClass::InterNode => spec.inter_node_bw / self.congestion.spillover,
            LinkClass::CrossRack => spec.inter_node_bw / self.congestion.mean_multiplier(),
        }
    }

    fn startup(&self, n: usize, any_intra: bool, any_inter: bool) -> f64 {
        let spec = self.topo.spec();
        let alpha = if any_inter {
            spec.inter_latency
        } else if any_intra {
            spec.intra_latency
        } else {
            return 0.0;
        };
        // Pairwise-exchange all-to-all: n-1 rounds, overlapped; the startup
        // term grows logarithmically in well-tuned implementations.
        alpha * (n as f64).log2().max(1.0)
    }

    fn startup_ring(&self, group: &[usize], n: usize) -> f64 {
        let spec = self.topo.spec();
        let mut crosses_nodes = false;
        for (i, &a) in group.iter().enumerate() {
            if let Some(&b) = group.get(i + 1) {
                if !self.topo.same_node(a, b) {
                    crosses_nodes = true;
                    break;
                }
            }
        }
        let alpha = if crosses_nodes {
            spec.inter_latency
        } else {
            spec.intra_latency
        };
        alpha * (n - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineSpec;

    fn frontier_model(n: usize) -> CostModel {
        CostModel::new(ClusterTopology::new(MachineSpec::frontier(), n))
            .with_congestion(CongestionModel::none())
    }

    #[test]
    fn p2p_intra_is_much_cheaper_than_inter() {
        let m = frontier_model(16);
        let bytes = 100_000_000; // 100 MB
        let intra = m.p2p_time(0, 1, bytes);
        let inter = m.p2p_time(0, 8, bytes);
        // 200 GB/s vs 25 GB/s => ~8x.
        assert!(
            inter / intra > 6.0 && inter / intra < 9.0,
            "ratio {}",
            inter / intra
        );
    }

    #[test]
    fn p2p_local_is_free() {
        let m = frontier_model(8);
        assert_eq!(m.p2p_time(3, 3, 1 << 30), 0.0);
    }

    #[test]
    fn alltoall_time_scales_with_bytes() {
        let m = frontier_model(16);
        let group: Vec<usize> = (0..16).collect();
        let t1 = m.alltoall_even_time(&group, 1_000_000);
        let t2 = m.alltoall_even_time(&group, 10_000_000);
        assert!(
            t2 > 5.0 * t1,
            "expected near-linear scaling, got {t1} -> {t2}"
        );
    }

    #[test]
    fn removing_inter_node_bytes_dominates_savings() {
        // Same total bytes; variant B routes the inter-node share intra-node.
        let m = frontier_model(16);
        let group: Vec<usize> = (0..16).collect();
        let all = m.alltoallv_time(&group, &|_i, _j| 1_000_000);
        let intra_only = m.alltoallv_time(&group, &|i, j| {
            if (group[i] < 8) != (group[j] < 8) {
                0
            } else {
                2_000_000
            }
        });
        assert!(all > 2.0 * intra_only, "inter {all} vs intra {intra_only}");
    }

    #[test]
    fn traffic_split_accounts_every_byte() {
        let m = frontier_model(16);
        let group: Vec<usize> = (0..16).collect();
        let splits = m.traffic_splits(&group, &|_, _| 10);
        for s in &splits {
            // 7 intra-node peers, 8 inter-node peers, no cross-rack at 16 GPUs.
            assert_eq!(s.intra_send, 70);
            assert_eq!(s.inter_send, 80);
            assert_eq!(s.cross_rack_send, 0);
            assert_eq!(s.intra_recv, 70);
            assert_eq!(s.inter_recv, 80);
        }
    }

    #[test]
    fn cross_rack_traffic_appears_beyond_256_frontier_gpus() {
        let m = frontier_model(512);
        let group: Vec<usize> = vec![0, 300];
        let splits = m.traffic_splits(&group, &|_, _| 5);
        assert_eq!(splits[0].cross_rack_send, 5);
        assert_eq!(splits[0].inter_send, 0);
    }

    #[test]
    fn allreduce_over_nodes_slower_than_within_node() {
        let m = frontier_model(64);
        let within: Vec<usize> = (0..8).collect(); // one node
        let across: Vec<usize> = (0..64).step_by(8).collect(); // 8 nodes
        let bytes = 1 << 28;
        assert!(m.allreduce_time(&across, bytes) > 4.0 * m.allreduce_time(&within, bytes));
    }

    #[test]
    fn allgather_linear_in_group_size() {
        let m = frontier_model(64);
        let g8: Vec<usize> = (0..8).collect();
        let g4: Vec<usize> = (0..4).collect();
        let b = 1 << 26;
        let t8 = m.allgather_time(&g8, b);
        let t4 = m.allgather_time(&g4, b);
        assert!(t8 / t4 > 2.0 && t8 / t4 < 2.7, "ratio {}", t8 / t4);
    }

    #[test]
    fn uneven_allgather_matches_even_formula_when_uniform() {
        let m = frontier_model(64);
        let g: Vec<usize> = (0..16).collect();
        let b = 1 << 22;
        let even = m.allgather_time(&g, b);
        let uneven = m.allgather_time_uneven(&g, &[b; 16]);
        assert!((even - uneven).abs() < 1e-12, "even {even} uneven {uneven}");
    }

    #[test]
    fn skewed_allgather_is_cheaper_than_max_pricing() {
        // One rank contributes everything: the ring moves ~1/n of what
        // max-based pricing assumed.
        let m = frontier_model(64);
        let g: Vec<usize> = (0..16).collect();
        let big = 1u64 << 26;
        let mut bytes = vec![0u64; 16];
        bytes[3] = big;
        let skewed = m.allgather_time_uneven(&g, &bytes);
        let max_priced = m.allgather_time(&g, big);
        assert!(
            skewed < max_priced / 8.0,
            "skewed {skewed} vs max-priced {max_priced}"
        );
    }

    #[test]
    fn singleton_collectives_are_free() {
        let m = frontier_model(8);
        assert_eq!(m.alltoall_even_time(&[2], 1 << 20), 0.0);
        assert_eq!(m.allreduce_time(&[5], 1 << 20), 0.0);
        assert_eq!(m.allgather_time(&[1], 1 << 20), 0.0);
    }

    #[test]
    fn compute_time_uses_efficiency() {
        let m = frontier_model(8);
        let t = m.compute_time(191.5e12 * 0.45);
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn group_class_finds_the_bottleneck() {
        let m = frontier_model(512);
        assert_eq!(m.group_class(&[3]), LinkClass::Local);
        assert_eq!(m.group_class(&[0, 1, 7]), LinkClass::IntraNode);
        assert_eq!(m.group_class(&[0, 1, 8]), LinkClass::InterNode);
        assert_eq!(m.group_class(&[0, 8, 300]), LinkClass::CrossRack);
    }

    #[test]
    fn fault_multiplier_matches_group_tier() {
        use crate::fault::{FaultPlan, LinkTier};
        let m = frontier_model(16);
        let plan = FaultPlan::new(0).degrade(LinkTier::Inter, 3.0, 0, 10);
        let intra: Vec<usize> = (0..8).collect();
        let spanning: Vec<usize> = (0..16).collect();
        assert_eq!(m.fault_link_multiplier(&intra, &plan, 5), 1.0);
        assert_eq!(m.fault_link_multiplier(&spanning, &plan, 5), 3.0);
        assert_eq!(m.fault_link_multiplier(&spanning, &plan, 10), 1.0);
    }

    #[test]
    fn congested_cross_rack_slower_than_clean() {
        let topo = ClusterTopology::new(MachineSpec::frontier(), 1024);
        let clean = CostModel::new(topo.clone()).with_congestion(CongestionModel::none());
        let congested = CostModel::new(topo); // default: congestion at 1024 GPUs
        let group: Vec<usize> = (0..1024).step_by(64).collect();
        let t_clean = clean.alltoall_even_time(&group, 1 << 22);
        let t_cong = congested.alltoall_even_time(&group, 1 << 22);
        assert!(
            t_cong > t_clean,
            "congestion must add time: {t_clean} vs {t_cong}"
        );
    }

    /// The batched sampler is the per-sample pricing (splits rebuilt for
    /// every draw, as `alltoallv_time_sampled` did) bit for bit, draws in
    /// the same RNG order — across a rack boundary, where draws matter, and
    /// for a group of one, which must still consume its draws.
    #[test]
    fn batched_samples_equal_per_sample_pricing() {
        for n in [1usize, 16, 512] {
            let m = frontier_model(n);
            let group: Vec<usize> = (0..n).collect();
            let bytes = |i: usize, j: usize| ((i * 31 + j * 7) % 5) as u64 * 100_000;
            let (mut a, mut b) = (DetRng::new(n as u64), DetRng::new(n as u64));
            let batched = m.alltoallv_time_samples(&group, &bytes, 50, &mut a);
            let single: Vec<f64> = (0..50)
                .map(|_| {
                    let mult = m.congestion.sample_multiplier(&mut b);
                    m.alltoallv_time_with_multiplier(&group, &bytes, mult)
                })
                .collect();
            assert_eq!(
                batched.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                single.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                "{n} ranks"
            );
            assert_eq!(a.next_u64(), b.next_u64(), "{n} ranks: same draws consumed");
        }
    }
}
