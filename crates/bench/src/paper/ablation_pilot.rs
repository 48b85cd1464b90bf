//! Ablation (§4.2): RBD pilot-selection policy — random vs
//! smallest-expert-id.
//!
//! The paper: "This randomized strategy helps avoid a biased distribution
//! and creates a balanced workload for alltoall communication. For
//! example, always routing tokens to the smallest expert ID within a node
//! will significantly increase the alltoall latency."
//!
//! This experiment runs both policies live on a 16-rank (2-node) cluster
//! and reports the inter-node all-to-all chunk imbalance and the simulated
//! dispatch time.

use xmoe_collectives::SimCluster;
use xmoe_core::expert::ExpertShard;
use xmoe_core::gating::{DropPolicy, Router};
use xmoe_core::pft::Pft;
use xmoe_core::pipeline::{ExecCtx, MoeLayerSpec, Pipeline, RbdPipeline};
use xmoe_core::rbd::{PilotPolicy, RbdComms};
use xmoe_tensor::{DetRng, Tensor};

use crate::fmt_time;
use crate::spine::{
    bench, micros, print_records, row, table, tag, Check, Env, Outcome, Record, Val,
};

bench!(ablation_pilot, "Ablation: RBD pilot-selection policy");

fn run(_smoke: bool, _env: &Env) -> Outcome {
    let world = 16usize; // 2 simulated Frontier nodes
    let (s, h, f, e, k) = (2048usize, 128usize, 32usize, 16usize, 6usize);
    let router = Router::new(h, e, k, 3001);
    let spec = MoeLayerSpec::new(e, usize::MAX / 2);

    let live = |policy: PilotPolicy| -> (f64, f64) {
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
        let pft = Pft::construct(&gating, e, usize::MAX / 2, DropPolicy::CapacityOnly);
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

    let policies = [
        ("random (paper)", PilotPolicy::Random),
        ("smallest-expert-id", PilotPolicy::SmallestExpertId),
    ];
    let recs = policies.map(|(name, policy)| {
        let (inter, intra) = live(policy);
        row("pilot")
            .cfg("policy", tag(name))
            .metric("inter_node_a2a_us", micros(inter))
            .metric("intra_node_a2a_us", micros(intra))
            .metric(
                "pilot_chunk_max_over_mean",
                Val::Fixed(imbalance(policy), 6),
            )
    });
    print_records(
        "RBD pilot-policy ablation (16 ranks / 2 nodes, E=16, k=6)",
        &recs,
    );
    (recs.to_vec(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let [random, smallest] = table(recs, "pilot")?;
    let imb = |r: &Record| r.num("pilot_chunk_max_over_mean");
    let inter = |r: &Record| r.num("inter_node_a2a_us").map(|us| us / 1e6);
    Ok(vec![
        Check::new(
            "random pilots balance the all-to-all chunks",
            imb(random)? < imb(smallest)?,
            format!("max/mean {:.2} vs {:.2}", imb(random)?, imb(smallest)?),
        ),
        Check::new(
            "smallest-expert-id increases the inter-node all-to-all time",
            inter(smallest)? > inter(random)?,
            format!(
                "{} vs {}",
                fmt_time(inter(smallest)?),
                fmt_time(inter(random)?)
            ),
        ),
    ])
}
