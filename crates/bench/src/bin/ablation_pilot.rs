//! Ablation (§4.2): RBD pilot-selection policy — random vs
//! smallest-expert-id.
//!
//! The paper: "This randomized strategy helps avoid a biased distribution
//! and creates a balanced workload for alltoall communication. For
//! example, always routing tokens to the smallest expert ID within a node
//! will significantly increase the alltoall latency."
//!
//! This binary runs both policies live on a 16-rank (2-node) cluster and
//! reports the inter-node all-to-all chunk imbalance and the simulated
//! dispatch time.

use xmoe_bench::{fmt_time, print_table, shape_check};
use xmoe_collectives::SimCluster;
use xmoe_core::expert::ExpertShard;
use xmoe_core::gating::Router;
use xmoe_core::pipeline::{ExecCtx, MoeLayerSpec, Pipeline, RbdPipeline};
use xmoe_core::rbd::{PilotPolicy, RbdComms};
use xmoe_tensor::{DetRng, Tensor};

fn main() {
    let world = 16usize; // 2 simulated Frontier nodes
    let (s, h, f, e, k) = (2048usize, 128usize, 32usize, 16usize, 6usize);
    let router = Router::new(h, e, k, 3001);
    let spec = MoeLayerSpec::new(e, usize::MAX / 2);

    let run = |policy: PilotPolicy| -> (f64, f64) {
        let router = &router;
        let spec = &spec;
        let out = SimCluster::frontier(world).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 3002);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 3100 + ctx.rank as u64);
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
            let mut rng = DetRng::new(3200 + ctx.rank as u64);
            let mut ex = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
            RbdPipeline { policy }
                .forward(&tokens, router, &shard, spec, &mut ex)
                .expect("rbd forward");
            (
                ctx.clock.bucket("dispatch_a2a_inter"),
                ctx.clock.bucket("dispatch_a2a_intra"),
            )
        });
        // Simulated clocks are synchronized across ranks; take rank 0.
        out[0]
    };

    // Also measure per-rank received pilot counts (chunk imbalance) with a
    // pure planning pass: count pilots whose expert lands on each rank.
    let imbalance = |policy: PilotPolicy| -> f64 {
        let tokens = Tensor::rand_uniform(s, h, 1.0, 3100);
        let gating = router.gate(&tokens);
        let pft = xmoe_core::pft::Pft::construct(
            &gating,
            e,
            usize::MAX / 2,
            xmoe_core::gating::DropPolicy::CapacityOnly,
        );
        let e_local = e / world;
        let mut rng = DetRng::new(555);
        // Group entries by (token, node): node = expert / (e/2) (2 nodes).
        let mut keyed: Vec<(usize, usize, usize)> = (0..pft.len())
            .map(|i| (pft.token_ids[i], pft.expert_ids[i] / (e / 2), i))
            .collect();
        keyed.sort_unstable();
        let mut per_rank = vec![0usize; world];
        let mut g = 0;
        while g < keyed.len() {
            let (t, n, _) = keyed[g];
            let mut end = g + 1;
            while end < keyed.len() && keyed[end].0 == t && keyed[end].1 == n {
                end += 1;
            }
            let group: Vec<usize> = keyed[g..end].iter().map(|&(_, _, i)| i).collect();
            let pilot = match policy {
                PilotPolicy::Random => group[rng.next_below(group.len())],
                PilotPolicy::SmallestExpertId => *group.iter().min().unwrap(),
            };
            per_rank[pft.expert_ids[pilot] / e_local] += 1;
            g = end;
        }
        let max = *per_rank.iter().max().unwrap() as f64;
        let mean = per_rank.iter().sum::<usize>() as f64 / world as f64;
        max / mean
    };

    let (rand_inter, rand_intra) = run(PilotPolicy::Random);
    let (small_inter, small_intra) = run(PilotPolicy::SmallestExpertId);
    let rand_imb = imbalance(PilotPolicy::Random);
    let small_imb = imbalance(PilotPolicy::SmallestExpertId);

    print_table(
        "RBD pilot-policy ablation (16 ranks / 2 nodes, E=16, k=6)",
        &[
            "policy",
            "inter-node a2a",
            "intra-node a2a",
            "pilot-chunk max/mean",
        ],
        &[
            vec![
                "random (paper)".into(),
                fmt_time(rand_inter),
                fmt_time(rand_intra),
                format!("{rand_imb:.2}"),
            ],
            vec![
                "smallest-expert-id".into(),
                fmt_time(small_inter),
                fmt_time(small_intra),
                format!("{small_imb:.2}"),
            ],
        ],
    );

    shape_check(
        "random pilots balance the all-to-all chunks",
        rand_imb < small_imb,
        &format!("max/mean {rand_imb:.2} vs {small_imb:.2}"),
    );
    shape_check(
        "smallest-expert-id increases the inter-node all-to-all time",
        small_inter > rand_inter,
        &format!("{} vs {}", fmt_time(small_inter), fmt_time(rand_inter)),
    );
}
