//! End-to-end distributed training equivalence: a 4-rank data+expert-
//! parallel run (experts sharded EP=world, dense/router replicated with
//! averaged gradients, 4 all-to-alls per MoE layer per step) must follow
//! the same optimization trajectory as a single process training on the
//! concatenation of the four ranks' batches.
//!
//! This exercises the full stack — gating, PFT, routed dispatch, expert
//! FFN forward/backward, the mirrored gradient all-to-alls, gradient
//! averaging over the world, and Adam — against the hand-written
//! single-rank reference.

use std::collections::BTreeMap;

use xmoe::collectives::SimCluster;
use xmoe::core::gating::DropPolicy;
use xmoe::train::model::build_moe_layers;
use xmoe::train::{DistMoeLm, ExpertAssignment, MarkovCorpus, TrainConfig};

fn cfg() -> TrainConfig {
    let mut c = TrainConfig::fig15(DropPolicy::CapacityOnly);
    // Small but non-trivial; huge capacity so per-rank vs global capacity
    // granularity cannot change the retained set.
    c.vocab = 32;
    c.hidden = 16;
    c.ffn = 8;
    c.num_experts = 8;
    c.top_k = 2;
    c.layers = 2;
    c.seq_len = 12;
    c.batch = 2; // per rank
    c.capacity_factor = 1e6;
    c.seed = 2025;
    c
}

/// Per-rank batches for `steps` steps: rank r draws from its own corpus.
fn rank_batches(cfg: &TrainConfig, world: usize, steps: usize) -> Vec<Vec<Vec<Vec<usize>>>> {
    (0..world)
        .map(|r| {
            let mut corpus = MarkovCorpus::new(cfg.vocab, 3, 4000 + r as u64);
            (0..steps)
                .map(|_| corpus.batch(cfg.batch, cfg.seq_len))
                .collect()
        })
        .collect()
}

#[test]
fn four_rank_dp_ep_training_matches_single_process() {
    let cfg = cfg();
    let world = 4usize;
    let steps = 4usize;
    let per_rank = rank_batches(&cfg, world, steps);

    // --- Single-process reference on the concatenated batches ----------
    // (a one-rank model, reporting its local loss unrounded).
    let full_layers = build_moe_layers(&cfg);
    let (ref_losses, reference) = SimCluster::frontier(1)
        .run(|ctx| {
            let (world_1, clock) = (&ctx.world, &mut ctx.clock);
            let mut reference = DistMoeLm::new(&cfg, &full_layers, 0, 1);
            let mut ref_losses = Vec::new();
            for step in 0..steps {
                let mut concat = Vec::new();
                for rank_batches in per_rank.iter().take(world) {
                    concat.extend(rank_batches[step].clone());
                }
                let loss = reference.forward_backward(&concat, world_1, clock).unwrap();
                reference.sync_grads(world_1, clock).unwrap();
                reference.apply_update();
                ref_losses.push(loss);
            }
            let block0 = &reference.blocks[0].moe;
            let weights = (reference.head.weight.clone(), block0.gate.clone());
            (ref_losses, (weights, block0.shard.clone()))
        })
        .remove(0);
    let ((ref_head, ref_gate), ref_experts) = reference;

    // --- Distributed run ------------------------------------------------
    let dist_results = {
        let cfg = &cfg;
        let per_rank = &per_rank;
        let full_layers = &full_layers;
        SimCluster::frontier(world).run(move |ctx| {
            let mut model = DistMoeLm::new(cfg, full_layers, ctx.rank, world);
            let mut losses = Vec::new();
            for batch in per_rank[ctx.rank].iter().take(steps) {
                losses.push(model.train_step(batch, &ctx.world, &mut ctx.clock).unwrap());
            }
            // Return the replicated head weights and this rank's expert
            // shard for trajectory comparison.
            let head = model.head.weight.clone();
            let gate0 = model.blocks[0].moe.gate.clone();
            let shard0: Vec<_> = model.blocks[0].moe.shard.clone();
            (
                losses,
                head,
                gate0,
                shard0,
                model.blocks[0].moe.local_experts.clone(),
            )
        })
    };

    // Losses match step by step on every rank (they are globally averaged).
    for (rank, (losses, ..)) in dist_results.iter().enumerate() {
        for (step, (&d, &s)) in losses.iter().zip(&ref_losses).enumerate() {
            assert!(
                (d - s).abs() < 2e-3,
                "rank {rank} step {step}: dist loss {d} vs reference {s}"
            );
        }
    }

    // Replicated parameters are identical across ranks and match the
    // reference trajectory.
    let (_, head0, gate0, _, _) = &dist_results[0];
    for (rank, (_, head, gate, _, _)) in dist_results.iter().enumerate().skip(1) {
        assert!(
            head.allclose(head0, 1e-6),
            "head replicas diverged at rank {rank}"
        );
        assert!(
            gate.allclose(gate0, 1e-6),
            "gate replicas diverged at rank {rank}"
        );
    }
    assert!(
        head0.allclose(&ref_head, 5e-3),
        "head trajectory diverged: max diff {}",
        head0.max_abs_diff(&ref_head)
    );
    assert!(
        gate0.allclose(&ref_gate, 5e-3),
        "gate trajectory diverged: max diff {}",
        gate0.max_abs_diff(&ref_gate)
    );

    // Expert shards match the corresponding reference experts.
    for (_, _, _, shard, locals) in &dist_results {
        for (i, (w1, w2)) in shard.iter().enumerate() {
            let global = locals[i];
            let (ref_w1, ref_w2) = &ref_experts[global];
            assert!(
                w1.allclose(ref_w1, 5e-3),
                "expert {global} w1 diverged: {}",
                w1.max_abs_diff(ref_w1)
            );
            assert!(
                w2.allclose(ref_w2, 5e-3),
                "expert {global} w2 diverged: {}",
                w2.max_abs_diff(ref_w2)
            );
        }
    }
}

#[test]
fn distributed_training_reduces_loss() {
    // Longer distributed-only run: the loss must actually go down.
    let mut cfg = cfg();
    cfg.lr = 1e-2;
    cfg.batch = 4;
    let world = 2usize;
    let steps = 80usize;
    let per_rank = rank_batches(&cfg, world, steps);
    let full_layers = build_moe_layers(&cfg);
    let losses = {
        let cfg = &cfg;
        let per_rank = &per_rank;
        let full_layers = &full_layers;
        SimCluster::frontier(world).run(move |ctx| {
            let mut model = DistMoeLm::new(cfg, full_layers, ctx.rank, world);
            let mut l = Vec::new();
            for batch in per_rank[ctx.rank].iter().take(steps) {
                l.push(model.train_step(batch, &ctx.world, &mut ctx.clock).unwrap());
            }
            l
        })
    };
    let first = losses[0][0];
    let last = *losses[0].last().unwrap();
    assert!(
        last < first - 0.4,
        "distributed loss should decrease markedly: {first} -> {last}"
    );
}

/// Every rank's weights after `steps` train steps under `asg`, by name.
fn weights_after(
    cfg: &TrainConfig,
    asg: &ExpertAssignment,
    steps: usize,
) -> Vec<Vec<(String, Vec<u32>)>> {
    let full_layers = build_moe_layers(cfg);
    let per_rank = rank_batches(cfg, asg.n_ranks(), steps);
    SimCluster::frontier(asg.n_ranks()).run(|ctx| {
        let mut model = DistMoeLm::new_with_assignment(cfg, &full_layers, ctx.rank, asg.clone());
        for batch in &per_rank[ctx.rank] {
            model.train_step(batch, &ctx.world, &mut ctx.clock).unwrap();
        }
        let mut weights = Vec::new();
        model.visit_params(&mut |id, w, _| {
            let bits = w.as_slice().iter().map(|v| v.to_bits()).collect();
            weights.push((id.to_string(), bits));
        });
        weights
    })
}

#[test]
fn replicas_stay_bit_identical_under_clipping() {
    // Every copy of a tensor — the embedding, attention, MLP, router and
    // head weights on every rank, a replicated expert on each holder — must
    // take the same update: Adam's clip scale comes from one global norm.
    // A rank-local norm (replicated tensors + the rank's own experts) picks
    // a different scale per rank once the norm passes the clip, and this
    // config's norm does from the first step.
    let mut cfg = cfg();
    cfg.use_attention = true;
    let mut replicated = ExpertAssignment::contiguous(8, 4);
    replicated.replicate(0, 2);
    for (what, asg, copies) in [
        ("world 2", ExpertAssignment::contiguous(8, 2), 1),
        ("world 4, expert 0 on ranks 0 and 2", replicated, 2),
    ] {
        let ranks = weights_after(&cfg, &asg, 60);
        let mut first: BTreeMap<&str, (usize, &[u32], usize)> = BTreeMap::new();
        for (rank, weights) in ranks.iter().enumerate() {
            for (name, bits) in weights {
                let seen = first.entry(name).or_insert((rank, bits, 0));
                assert!(
                    seen.1 == bits.as_slice(),
                    "{what}: {name} differs between ranks {} and {rank}",
                    seen.0
                );
                seen.2 += 1;
            }
        }
        assert_eq!(first["head.weight"].2, asg.n_ranks(), "{what}");
        assert_eq!(first["block1.attn.wq"].2, asg.n_ranks(), "{what}");
        assert_eq!(first["block0.moe.expert0.w2"].2, copies, "{what}");
    }
}
