//! Distributed MoE forward on a simulated two-node Frontier slice, with
//! and without Redundancy-Bypassing Dispatch.
//!
//! ```sh
//! cargo run --release --example distributed_moe
//! ```
//!
//! Spawns 16 rank threads (= 2 simulated Frontier nodes), runs the
//! padding-free expert-parallel MoE layer over real message passing, then
//! repeats with RBD and prints the per-stage simulated times and the
//! inter-node traffic saved.

use xmoe::collectives::SimCluster;
use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::{DropPolicy, Router};
use xmoe::core::pft::Pft;
use xmoe::core::pipeline::{ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline, RbdPipeline};
use xmoe::core::rbd::{expected_redundancy_uniform, redundancy_rate, PilotPolicy, RbdComms};
use xmoe::tensor::{DetRng, Tensor};

fn main() {
    let world = 16usize; // 2 Frontier nodes x 8 GCDs
    let (seq, hidden, ffn, experts, top_k) = (2048usize, 256usize, 64usize, 16usize, 6usize);
    let router = Router::new(hidden, experts, top_k, 11);
    let spec = MoeLayerSpec::new(experts, usize::MAX / 2);

    // Measure the routing redundancy this workload carries.
    let sample = Tensor::rand_uniform(seq, hidden, 1.0, 12);
    let gating = router.gate(&sample);
    let pft = Pft::construct(&gating, experts, usize::MAX / 2, DropPolicy::CapacityOnly);
    let rate = redundancy_rate(&pft, |e| e / (experts / 2)); // 2 nodes
    println!(
        "routing redundancy across 2 nodes: {:.1}% (uniform-routing expectation {:.1}%)",
        100.0 * rate,
        100.0 * expected_redundancy_uniform(top_k, 2)
    );

    // Plain uneven all-to-all dispatch.
    let plain = {
        let router = &router;
        let spec = &spec;
        SimCluster::frontier(world).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, experts, hidden, ffn, 13);
            let tokens = Tensor::rand_uniform(seq, hidden, 1.0, 100 + ctx.rank as u64);
            let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            let out = PaddingFreePipeline
                .forward(&tokens, router, &shard, spec, &mut ex)
                .unwrap();
            (out.norm(), ctx.clock.buckets().to_vec())
        })
    };

    // RBD dispatch.
    let with_rbd = {
        let router = &router;
        let spec = &spec;
        SimCluster::frontier(world).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, experts, hidden, ffn, 13);
            let tokens = Tensor::rand_uniform(seq, hidden, 1.0, 100 + ctx.rank as u64);
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
            let mut rng = DetRng::new(14 + ctx.rank as u64);
            let mut ex = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
            let out = RbdPipeline {
                policy: PilotPolicy::Random,
            }
            .forward(&tokens, router, &shard, spec, &mut ex)
            .unwrap();
            (out.norm(), ctx.clock.buckets().to_vec())
        })
    };

    // The two transports must compute identical outputs.
    for rank in 0..world {
        let d = (plain[rank].0 - with_rbd[rank].0).abs();
        assert!(d < 1e-3, "rank {rank} outputs diverge: {d}");
    }
    println!("outputs identical across transports on all {world} ranks ✓");

    println!("\nper-stage simulated time on rank 0 (microseconds):");
    println!("{:<28} {:>12} {:>12}", "stage", "plain", "RBD");
    let get = |buckets: &[(String, f64)], name: &str| {
        buckets
            .iter()
            .find(|(l, _)| l == name)
            .map_or(0.0, |(_, t)| t * 1e6)
    };
    for stage in ["gating", "buffer_dispatch", "expert", "buffer_combine"] {
        println!(
            "{:<28} {:>12.1} {:>12.1}",
            stage,
            get(&plain[0].1, stage),
            get(&with_rbd[0].1, stage)
        );
    }
    let plain_a2a = get(&plain[0].1, "dispatch_a2a") + get(&plain[0].1, "combine_a2a");
    let rbd_inter =
        get(&with_rbd[0].1, "dispatch_a2a_inter") + get(&with_rbd[0].1, "combine_a2a_inter");
    let rbd_intra =
        get(&with_rbd[0].1, "dispatch_a2a_intra") + get(&with_rbd[0].1, "combine_a2a_intra");
    println!(
        "{:<28} {:>12.1} {:>12.1}  (inter-node)",
        "all-to-all", plain_a2a, rbd_inter
    );
    println!("{:<28} {:>12} {:>12.1}  (intra-node)", "", "-", rbd_intra);
    println!(
        "\nRBD moved {:.0}% of the all-to-all cost off the slow inter-node links",
        100.0 * (1.0 - rbd_inter / plain_a2a)
    );
}
