//! Byte-level verification of the paper's traffic claims, using the
//! communicator's ground-truth traffic counters (bytes actually sent over
//! each link class, independent of the time model).

use xmoe::collectives::SimCluster;
use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::{DropPolicy, Router};
use xmoe::core::pft::Pft;
use xmoe::core::pipeline::{
    DenseDropOrder, DensePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline,
    RbdPipeline,
};
use xmoe::core::rbd::{redundancy_rate, PilotPolicy, RbdComms};
use xmoe::tensor::{DetRng, Tensor};

const WORLD: usize = 16; // 2 simulated Frontier nodes
const S: usize = 256;
const H: usize = 32;
const F: usize = 16;
const E: usize = 16;
const K: usize = 6;

fn router() -> Router {
    Router::new(H, E, K, 1301)
}

fn spec() -> MoeLayerSpec {
    MoeLayerSpec::new(E, usize::MAX / 2)
}

#[test]
fn rbd_off_node_bytes_shrink_by_the_redundancy_factor() {
    let router = router();
    let spec = spec();

    // Ground-truth redundancy of rank 0's batch across the 2 nodes.
    let tokens0 = Tensor::rand_uniform(S, H, 1.0, 1400);
    let gating = router.gate(&tokens0);
    let pft = Pft::construct(&gating, E, usize::MAX / 2, DropPolicy::CapacityOnly);
    let rho = redundancy_rate(&pft, |e| e / (E / 2));

    let plain_off_node: u64 = {
        let (router, spec) = (&router, &spec);
        SimCluster::frontier(WORLD)
            .run(move |ctx| {
                let shard = ExpertShard::for_rank(ctx.rank, WORLD, E, H, F, 1302);
                let tokens = Tensor::rand_uniform(S, H, 1.0, 1400 + ctx.rank as u64);
                let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
                PaddingFreePipeline
                    .forward(&tokens, router, &shard, spec, &mut ex)
                    .unwrap();
                ctx.world.traffic().off_node()
            })
            .iter()
            .sum()
    };
    let rbd_off_node: u64 = {
        let (router, spec) = (&router, &spec);
        SimCluster::frontier(WORLD)
            .run(move |ctx| {
                let shard = ExpertShard::for_rank(ctx.rank, WORLD, E, H, F, 1302);
                let tokens = Tensor::rand_uniform(S, H, 1.0, 1400 + ctx.rank as u64);
                let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
                let mut rng = DetRng::new(1500 + ctx.rank as u64);
                let mut ex = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
                RbdPipeline {
                    policy: PilotPolicy::Random,
                }
                .forward(&tokens, router, &shard, spec, &mut ex)
                .unwrap();
                // All inter-node bytes flow through the EP (world) comm;
                // the node sub-communicator is intra-node by construction.
                let node_off = comms.node.traffic().off_node();
                assert_eq!(node_off, 0, "node comm must never leave the node");
                ctx.world.traffic().off_node()
            })
            .iter()
            .sum()
    };

    // RBD's off-node row bytes shrink to ~(1 - rho) of the plain pipeline's
    // (metadata adds a little on top).
    let ratio = rbd_off_node as f64 / plain_off_node as f64;
    let expected = 1.0 - rho;
    assert!(
        (ratio - expected).abs() < 0.15,
        "off-node byte ratio {ratio:.3} should track 1 - redundancy = {expected:.3}"
    );
    assert!(
        ratio < 0.6,
        "with k=6 over 2 nodes RBD must cut off-node bytes deeply: {ratio:.3}"
    );
}

#[test]
fn padded_baseline_moves_more_bytes_than_padding_free() {
    let router = router();
    // Realistic capacity so padding exists.
    let cap = (1.25 * (S * K) as f64 / E as f64).ceil() as usize;
    let spec = MoeLayerSpec::new(E, cap);
    let run = |dense: bool| -> u64 {
        let (router, spec) = (&router, &spec);
        SimCluster::frontier(WORLD)
            .run(move |ctx| {
                let shard = ExpertShard::for_rank(ctx.rank, WORLD, E, H, F, 1602);
                let tokens = Tensor::rand_uniform(S, H, 1.0, 1700 + ctx.rank as u64);
                let pipe: &dyn Pipeline = if dense {
                    &DensePipeline {
                        order: DenseDropOrder::TokenOrder,
                    }
                } else {
                    &PaddingFreePipeline
                };
                let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
                pipe.forward(&tokens, router, &shard, spec, &mut ex)
                    .unwrap();
                ctx.world.traffic().total()
            })
            .iter()
            .sum()
    };
    let dense_bytes = run(true);
    let pf_bytes = run(false);
    assert!(
        dense_bytes > pf_bytes,
        "padded pipeline must move more bytes: dense {dense_bytes} vs pf {pf_bytes}"
    );
    // The padding overhead is roughly the capacity factor (1.25x) at
    // near-balanced load.
    let ratio = dense_bytes as f64 / pf_bytes as f64;
    assert!(
        (1.05..1.8).contains(&ratio),
        "padded/padding-free byte ratio {ratio:.2} out of expected band"
    );
}

#[test]
fn traffic_counters_reconcile_with_payload_sizes() {
    // A deterministic even all-to-all: every rank sends 100 f32 to every
    // other; check the exact counter values by link class.
    let out = SimCluster::frontier(16).run(|ctx| {
        let send: Vec<Vec<f32>> = (0..16).map(|_| vec![1.0; 100]).collect();
        let _ = ctx.world.all_to_all_v(send, &mut ctx.clock);
        ctx.world.traffic()
    });
    for (rank, t) in out.iter().enumerate() {
        // 7 intra-node peers, 8 inter-node peers, 400 bytes each.
        assert_eq!(t.intra_node, 7 * 400, "rank {rank} intra");
        assert_eq!(t.inter_node, 8 * 400, "rank {rank} inter");
        assert_eq!(t.cross_rack, 0);
        assert_eq!(t.total(), 15 * 400);
        assert_eq!(t.off_node(), 8 * 400);
    }
}
