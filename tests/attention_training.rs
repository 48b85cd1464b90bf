//! The attention block earns its place: on an order-2 Markov corpus the
//! next token depends on the last *two* tokens, so a per-token model
//! (MLP + MoE only) is information-theoretically stuck above the entropy
//! floor while the transformer (attention + MLP + MoE) can mix positions
//! and descend further.

use xmoe::collectives::SimCluster;
use xmoe::core::gating::DropPolicy;
use xmoe::train::{build_moe_layers, DistMoeLm, HigherOrderCorpus, TrainConfig};

/// Per-step `(local loss, drop fraction)` of `steps` steps of the
/// single-process model (a one-rank `DistMoeLm`).
fn trajectory(cfg: &TrainConfig, steps: usize, corpus_seed: u64) -> Vec<(f64, f64)> {
    let full_layers = build_moe_layers(cfg);
    let mut out = SimCluster::frontier(1).run(|ctx| {
        let (world, clock) = (&ctx.world, &mut ctx.clock);
        let mut corpus = HigherOrderCorpus::new(cfg.vocab, 2, 2, corpus_seed);
        let mut model = DistMoeLm::new(cfg, &full_layers, 0, 1);
        let mut stats = Vec::new();
        for _ in 0..steps {
            let batch = corpus.batch(cfg.batch, cfg.seq_len);
            let loss = model.forward_backward(&batch, world, clock).unwrap();
            model.sync_grads(world, clock).unwrap();
            model.apply_update();
            stats.push((loss, model.drop_fraction()));
        }
        stats
    });
    out.remove(0)
}

fn train(cfg: TrainConfig, steps: usize, corpus_seed: u64) -> f64 {
    let mut tail = Vec::new();
    for (step, (loss, _)) in trajectory(&cfg, steps, corpus_seed).into_iter().enumerate() {
        assert!(loss.is_finite(), "loss diverged at step {step}");
        if step >= steps - 10 {
            tail.push(loss);
        }
    }
    tail.iter().sum::<f64>() / tail.len() as f64
}

#[test]
fn attention_beats_per_token_model_on_order2_corpus() {
    let steps = 500;
    let mut base = TrainConfig::fig15(DropPolicy::CapacityOnly);
    base.vocab = 32;
    base.num_experts = 8;
    base.top_k = 2;
    base.lr = 5e-3;

    let mut with_attention = base.clone();
    with_attention.use_attention = true;
    let mut without_attention = base;
    without_attention.use_attention = false;

    let attn_loss = train(with_attention, steps, 777);
    let plain_loss = train(without_attention, steps, 777);
    // Both learn something (initial loss ~ ln 32 = 3.47) but only the
    // attention model can exploit the order-2 structure.
    assert!(
        plain_loss < 3.4,
        "plain model should learn the marginal: {plain_loss}"
    );
    assert!(
        attn_loss < plain_loss - 0.15,
        "attention must beat the per-token model: {attn_loss} vs {plain_loss}"
    );
}

#[test]
fn attention_model_trains_stably_with_drops() {
    // Tight capacity + attention: stays finite and improves.
    let mut cfg = TrainConfig::transformer(DropPolicy::CapacityOnly);
    cfg.vocab = 32;
    cfg.num_experts = 8;
    cfg.top_k = 2;
    cfg.capacity_factor = 0.8; // forces drops
    let stats = trajectory(&cfg, 120, 888);
    for &(loss, drop_fraction) in &stats {
        assert!(loss.is_finite());
        assert!(drop_fraction > 0.0, "capacity 0.8 must drop tokens");
    }
    let (first, last) = (stats[0].0, stats[119].0);
    assert!(last < first - 0.3, "loss should improve: {first} -> {last}");
}
