//! Randomized-but-deterministic property tests over the core data
//! structures and models: PFT construction invariants, routing-kernel
//! roundtrips, redundancy bounds, cost-model monotonicity and memory-model
//! monotonicity. Cases are derived from `DetRng`, so failures reproduce
//! exactly without an external property-testing framework.

use xmoe::core::config::MoeModelConfig;
use xmoe::core::gating::{DropPolicy, GatingOutput, Router};
use xmoe::core::memory::{moe_layer_activation, MoeSystem};
use xmoe::core::pft::Pft;
use xmoe::core::rbd::{expected_redundancy_uniform, redundancy_rate};
use xmoe::tensor::{gather_rows_into, scatter_rows_scaled, sequential_gemm, DetRng, Tensor};
use xmoe::topology::{ClusterTopology, CongestionModel, CostModel, MachineSpec};

const CASES: u64 = 64;

/// Random gating output over `s` tokens, `e` experts, `k` selections.
fn arb_gating(s: usize, e: usize, k: usize, seed: u64) -> GatingOutput {
    let router = Router::new(8, e, k, seed);
    let tokens = Tensor::rand_uniform(s, 8, 1.0, seed ^ 0x55AA);
    router.gate(&tokens)
}

#[test]
fn pft_construction_invariants() {
    let mut rng = DetRng::new(0x31);
    for case in 0..CASES {
        let s = 1 + rng.next_below(79);
        let e = 1usize << (1 + rng.next_below(4));
        let seed = rng.next_below(1000) as u64;
        let cap = 1 + rng.next_below(39);
        let k = (e / 2).clamp(1, 4);
        let g = arb_gating(s, e, k, seed);
        let pft = Pft::construct(&g, e, cap, DropPolicy::CapacityOnly);
        // Structural invariants.
        pft.validate(s);
        // Conservation: retained + dropped = all routed assignments.
        assert_eq!(pft.len() + pft.dropped, s * k, "case {case}");
        // Capacity respected per expert.
        assert!(pft.tokens_per_expert.iter().all(|&c| c <= cap));
        // Each retained weight appears in the gating output for its token.
        for i in 0..pft.len() {
            let t = pft.token_ids[i];
            let e_id = pft.expert_ids[i];
            let row = &g.top_experts[t * k..(t + 1) * k];
            let j = row.iter().position(|&x| x == e_id);
            assert!(j.is_some(), "retained pair not in gating output");
            assert_eq!(
                pft.combine_weights[i],
                g.combine_weights[t * k + j.unwrap()]
            );
        }
    }
}

#[test]
fn pft_drop_policies_are_ordered() {
    let mut rng = DetRng::new(0x32);
    for case in 0..CASES {
        let s = 1 + rng.next_below(59);
        let seed = rng.next_below(500) as u64;
        let (e, k) = (8usize, 3usize);
        let g = arb_gating(s, e, k, seed);
        let x = Pft::construct(&g, e, 1_000, DropPolicy::CapacityOnly);
        let d = Pft::construct(&g, e, 1_000, DropPolicy::CapacityAndNegativeLogit);
        // The DeepSpeed policy can only retain a subset.
        assert!(d.len() <= x.len(), "case {case}");
    }
}

#[test]
fn gather_scatter_roundtrip() {
    let mut rng = DetRng::new(0x33);
    for case in 0..CASES {
        let rows = 1 + rng.next_below(39);
        let cols = 1 + rng.next_below(23);
        let src = Tensor::rand_uniform(rows, cols, 1.0, 8000 + case);
        // Random permutation of rows.
        let mut ids: Vec<usize> = (0..rows).collect();
        rng.shuffle(&mut ids);
        let mut gathered = Tensor::zeros(0, 0);
        gather_rows_into(&src, &ids, &mut gathered);
        let mut restored = Tensor::zeros(rows, cols);
        scatter_rows_scaled(&gathered, &ids, &vec![1.0; rows], &mut restored);
        assert!(restored.allclose(&src, 0.0), "case {case}");
    }
}

#[test]
fn scatter_linearity_in_weights() {
    let mut rng = DetRng::new(0x34);
    for case in 0..CASES {
        // scatter with weight w == w * scatter with weight 1.
        let rows = 1 + rng.next_below(19);
        let cols = 1 + rng.next_below(11);
        let w = rng.next_f32() * 4.0;
        let src = Tensor::rand_uniform(rows, cols, 1.0, 9000 + case);
        let ids: Vec<usize> = (0..rows).collect();
        let mut a = Tensor::zeros(rows, cols);
        scatter_rows_scaled(&src, &ids, &vec![w; rows], &mut a);
        let mut b = Tensor::zeros(rows, cols);
        scatter_rows_scaled(&src, &ids, &vec![1.0; rows], &mut b);
        xmoe::tensor::scale_assign(&mut b, w);
        assert!(a.allclose(&b, 1e-5), "case {case}");
    }
}

#[test]
fn sequential_gemm_matches_segmentwise_matmul() {
    let mut rng = DetRng::new(0x35);
    for case in 0..CASES {
        let n_segs = 1 + rng.next_below(5);
        let seg_sizes: Vec<usize> = (0..n_segs).map(|_| rng.next_below(12)).collect();
        let inner = 1 + rng.next_below(9);
        let out_dim = 1 + rng.next_below(9);
        let total: usize = seg_sizes.iter().sum();
        let input = Tensor::rand_uniform(total.max(1), inner, 1.0, 10_000 + case);
        let input = input.slice_rows(0, total);
        let ws: Vec<Tensor> = (0..seg_sizes.len())
            .map(|i| Tensor::rand_uniform(inner, out_dim, 1.0, 10_000 + case + 31 * i as u64))
            .collect();
        let out = sequential_gemm(&input, &seg_sizes, &ws);
        assert_eq!(out.shape(), (total, out_dim), "case {case}");
        let mut row = 0usize;
        for (i, &cnt) in seg_sizes.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            let seg = input.slice_rows(row, row + cnt);
            let want = xmoe::tensor::matmul(&seg, &ws[i]);
            assert!(out.slice_rows(row, row + cnt).allclose(&want, 1e-4));
            row += cnt;
        }
    }
}

#[test]
fn redundancy_rate_bounds() {
    let mut rng = DetRng::new(0x36);
    for case in 0..CASES {
        let s = 1 + rng.next_below(99);
        let nodes = 1usize << rng.next_below(4); // 1..8 nodes
        let seed = rng.next_below(500) as u64;
        let (e, k) = (16usize, 4usize);
        let g = arb_gating(s, e, k, seed);
        let pft = Pft::construct(&g, e, 10_000, DropPolicy::CapacityOnly);
        let rate = redundancy_rate(&pft, |ex| ex % nodes);
        // Bounds: 0 <= rate <= (k-1)/k (a token needs >= 1 copy per node).
        assert!(
            (0.0..=((k - 1) as f64 / k as f64) + 1e-9).contains(&rate),
            "case {case}"
        );
        if nodes == 1 {
            // One node: everything beyond the first copy is redundant.
            assert!((rate - (k - 1) as f64 / k as f64).abs() < 1e-9);
        }
    }
}

#[test]
fn expected_redundancy_monotone_in_nodes() {
    for k in 1usize..17 {
        let mut prev = f64::MAX;
        for nodes in [1usize, 2, 4, 8, 16, 64] {
            let r = expected_redundancy_uniform(k, nodes);
            assert!(
                r <= prev + 1e-12,
                "redundancy must not grow with node count"
            );
            assert!((0.0..=1.0).contains(&r));
            prev = r;
        }
    }
}

#[test]
fn alltoall_cost_monotone_in_bytes() {
    let mut rng = DetRng::new(0x37);
    for case in 0..CASES {
        let n = 1usize << (1 + rng.next_below(5));
        let b1 = 1 + rng.next_below(1_000_000) as u64;
        let extra = 1 + rng.next_below(1_000_000) as u64;
        let topo = ClusterTopology::new(MachineSpec::frontier(), n);
        let cost = CostModel::new(topo).with_congestion(CongestionModel::none());
        let group: Vec<usize> = (0..n).collect();
        let t1 = cost.alltoall_even_time(&group, b1);
        let t2 = cost.alltoall_even_time(&group, b1 + extra);
        assert!(t2 >= t1, "case {case}: more bytes cannot be faster");
        assert!(t1 > 0.0);
    }
}

#[test]
fn collective_costs_nonnegative_and_scale() {
    let mut rng = DetRng::new(0x38);
    for case in 0..CASES {
        let n = 1usize << (1 + rng.next_below(5));
        let bytes = 1 + rng.next_below(10_000_000) as u64;
        let topo = ClusterTopology::new(MachineSpec::frontier(), n);
        let cost = CostModel::new(topo).with_congestion(CongestionModel::none());
        let group: Vec<usize> = (0..n).collect();
        let ag = cost.allgather_time(&group, bytes);
        let ar = cost.allreduce_time(&group, bytes);
        let rs = cost.reduce_scatter_time(&group, bytes);
        assert!(ag >= 0.0 && ar >= 0.0 && rs >= 0.0, "case {case}");
        if n > 1 {
            // all-reduce = reduce-scatter + all-gather of shards: the ring
            // identities make it at least as expensive as reduce-scatter.
            assert!(ar >= rs);
        }
    }
}

#[test]
fn activation_memory_monotone_in_tokens() {
    let mut rng = DetRng::new(0x39);
    let cfg = MoeModelConfig::large();
    for case in 0..CASES {
        let tokens = 64 + rng.next_below(4032);
        let extra = 1 + rng.next_below(2047);
        for sys in MoeSystem::ALL {
            let a = moe_layer_activation(&cfg, sys, tokens, 1).total();
            let b = moe_layer_activation(&cfg, sys, tokens + extra, 1).total();
            assert!(
                b >= a,
                "case {case} {sys:?}: more tokens cannot shrink activations"
            );
        }
    }
}

#[test]
fn ssmb_sharding_never_increases_memory() {
    let mut rng = DetRng::new(0x3A);
    let cfg = MoeModelConfig::large();
    for case in 0..CASES {
        let tokens = 64 + rng.next_below(4032);
        let tp = 1usize << rng.next_below(4);
        let base = moe_layer_activation(&cfg, MoeSystem::XMoe, tokens, 1).total();
        let sharded = moe_layer_activation(&cfg, MoeSystem::XMoe, tokens, tp).total();
        assert!(sharded <= base, "case {case}");
    }
}

#[test]
fn xmoe_activation_never_above_padded_baselines() {
    let mut rng = DetRng::new(0x3B);
    let cfg = MoeModelConfig::large();
    for case in 0..CASES {
        // PFT stores only routed entries; the padded baselines store at
        // least the capacity-padded volume, so X-MoE is never worse.
        let tokens = 256 + rng.next_below(3840);
        let x = moe_layer_activation(&cfg, MoeSystem::XMoe, tokens, 1).total();
        let ds = moe_layer_activation(&cfg, MoeSystem::DsMoe, tokens, 1).total();
        let tutel = moe_layer_activation(&cfg, MoeSystem::Tutel, tokens, 1).total();
        assert!(x <= ds && x <= tutel, "case {case}");
    }
}
