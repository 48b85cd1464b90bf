//! Randomized-but-deterministic property tests for the cluster model, cost
//! model and placement. A local splitmix64 drives the case sweep so the
//! crate needs no external dependencies and failures reproduce exactly.

use xmoe_topology::{
    build_grid, ClusterTopology, CongestionModel, CostModel, LinkClass, MachineSpec,
    PlacementPolicy,
};

const CASES: u64 = 64;

struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn rank_mapping_is_consistent() {
    let mut rng = Rng(0x21);
    for _ in 0..CASES {
        let n = 1 + rng.below(2047) as usize;
        let r = (((n - 1) as f64) * rng.f64()) as usize;
        let t = ClusterTopology::new(MachineSpec::frontier(), n);
        let node = t.node_of(r);
        let rack = t.rack_of(r);
        assert_eq!(node, r / 8);
        assert_eq!(rack, node / 32);
        // The node's ranks share it.
        for p in node * 8..(node * 8 + 8).min(n) {
            assert!(t.same_node(r, p));
        }
    }
}

#[test]
fn link_class_is_symmetric() {
    let mut rng = Rng(0x22);
    for _ in 0..CASES {
        let n = 2 + rng.below(2046) as usize;
        let t = ClusterTopology::new(MachineSpec::frontier(), n);
        let a = (((n - 1) as f64) * rng.f64()) as usize;
        let b = (((n - 1) as f64) * rng.f64()) as usize;
        assert_eq!(t.link_class(a, b), t.link_class(b, a));
        if a == b {
            assert_eq!(t.link_class(a, b), LinkClass::Local);
        }
    }
}

#[test]
fn p2p_cost_ordered_by_link_class() {
    let mut rng = Rng(0x23);
    let t = ClusterTopology::new(MachineSpec::frontier(), 1024);
    let m = CostModel::new(t);
    for _ in 0..CASES {
        let bytes = 1 + rng.below(1_000_000_000);
        let local = m.p2p_time(0, 0, bytes);
        let intra = m.p2p_time(0, 1, bytes);
        let inter = m.p2p_time(0, 8, bytes);
        let xrack = m.p2p_time(0, 300, bytes);
        assert!(local <= intra && intra < inter && inter <= xrack);
    }
}

#[test]
fn traffic_splits_conserve_bytes() {
    let mut rng = Rng(0x24);
    for _ in 0..CASES {
        let n = 1usize << (1 + rng.below(5) as usize);
        let bytes = 1 + rng.below(1_000_000);
        let t = ClusterTopology::new(MachineSpec::frontier(), n);
        let m = CostModel::new(t).with_congestion(CongestionModel::none());
        let group: Vec<usize> = (0..n).collect();
        let splits = m.traffic_splits(&group, &|_, _| bytes);
        let sent: u64 = splits
            .iter()
            .map(|s| s.intra_send + s.inter_send + s.cross_rack_send)
            .sum();
        // Every ordered pair except self-sends.
        assert_eq!(sent, bytes * (n * (n - 1)) as u64);
        // Send and receive totals balance.
        let recv: u64 = splits
            .iter()
            .map(|s| s.intra_recv + s.inter_recv + s.cross_rack_recv)
            .sum();
        assert_eq!(sent, recv);
    }
}

#[test]
fn grid_partitions_for_any_divisible_shape() {
    let mut rng = Rng(0x25);
    for _ in 0..CASES {
        let ep = 1usize << rng.below(5);
        let dp = 1usize << rng.below(5);
        let tp = 1usize << rng.below(3);
        let n = ep * dp * tp;
        let policy = if rng.below(2) == 0 {
            PlacementPolicy::EpFirst
        } else {
            PlacementPolicy::DpFirst
        };
        let g = xmoe_topology::placement::build_grid_tp(n, tp, ep, policy);
        assert_eq!(g.dp_size, dp);
        // Each leader appears exactly once in EP groups and once in DP groups.
        let mut ep_seen = std::collections::HashSet::new();
        for grp in &g.ep_groups {
            assert_eq!(grp.len(), ep);
            for &r in grp {
                assert!(ep_seen.insert(r));
                assert_eq!(r % tp, 0, "EP members must be TP leaders");
            }
        }
        let mut dp_seen = std::collections::HashSet::new();
        for grp in &g.dp_groups {
            assert_eq!(grp.len(), dp);
            for &r in grp {
                assert!(dp_seen.insert(r));
            }
        }
        assert_eq!(ep_seen.len(), n / tp);
        assert_eq!(dp_seen.len(), n / tp);
        // EP group ∩ DP group = exactly one leader.
        for eg in &g.ep_groups {
            for dg in &g.dp_groups {
                let common = eg.iter().filter(|r| dg.contains(r)).count();
                assert_eq!(common, 1);
            }
        }
        let _ = build_grid(n / tp, ep.min(n / tp), policy); // smoke the 2-D path
    }
}

#[test]
fn congestion_mean_at_least_base() {
    let mut rng = Rng(0x26);
    for _ in 0..CASES {
        let base = 1.0 + 2.0 * rng.f64();
        let prob = 0.3 * rng.f64();
        let mean = 1.0 + 59.0 * rng.f64();
        let c = CongestionModel {
            base,
            outlier_prob: prob,
            outlier_mean: mean,
            spillover: 1.0,
        };
        assert!(c.mean_multiplier() >= base - 1e-12);
        assert!(c.mean_multiplier() <= base * mean + 1e-9);
    }
}

#[test]
fn allreduce_cost_monotone_in_bytes_any_group() {
    let mut rng = Rng(0x27);
    for _ in 0..CASES {
        let n = 1usize << (1 + rng.below(6) as usize);
        let b = 1 + rng.below(100_000_000);
        let extra = 1 + rng.below(100_000_000);
        let t = ClusterTopology::new(MachineSpec::frontier(), n);
        let m = CostModel::new(t).with_congestion(CongestionModel::none());
        let group: Vec<usize> = (0..n).collect();
        assert!(m.allreduce_time(&group, b + extra) >= m.allreduce_time(&group, b));
    }
}
