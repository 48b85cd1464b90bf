//! Stale-buffer oracles for the per-rank step arena: nothing numeric lives
//! in it. A model whose arena was warmed on *other* batch shapes — fewer
//! rows, more rows, longer sequences — and then had every free buffer filled
//! with NaN must produce, on the next batch, the bits a freshly built model
//! produces. Debug builds already NaN-poison every for-overwrite lease; the
//! explicit poison makes a read-before-write fail in release builds too, so
//! CI runs this suite in both profiles.

use xmoe::collectives::{RankCtx, SimCluster};
use xmoe::core::gating::DropPolicy;
use xmoe::train::model::build_moe_layers;
use xmoe::train::{DistMoeLm, MarkovCorpus, TrainConfig};

fn cfg() -> TrainConfig {
    let mut c = TrainConfig::transformer(DropPolicy::CapacityOnly);
    c.vocab = 32;
    c.hidden = 16;
    c.ffn = 8;
    c.num_experts = 8;
    c.top_k = 2;
    c.layers = 2;
    c.seq_len = 12;
    c.batch = 3;
    c.seed = 2031;
    c
}

/// The batch every model is compared on, and the differently shaped ones a
/// warmed arena saw first: one sequence (fewer rows), twice the batch (a
/// step that routed more rows), and sequences of `2 * seq_len` positions
/// (attention reads them as two sequences each; other row counts again).
fn batches(cfg: &TrainConfig, rank: usize) -> (Vec<Vec<usize>>, Vec<Vec<Vec<usize>>>) {
    let mut corpus = MarkovCorpus::new(cfg.vocab, 3, 7100 + rank as u64);
    let warm = vec![
        corpus.batch(1, cfg.seq_len),
        corpus.batch(2 * cfg.batch, cfg.seq_len),
        corpus.batch(2, 2 * cfg.seq_len),
    ];
    (corpus.batch(cfg.batch, cfg.seq_len), warm)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn a_warmed_and_poisoned_arena_changes_no_bit_of_a_distributed_step() {
    let cfg = cfg();
    let full_layers = build_moe_layers(&cfg);
    let world = 2usize;
    let (cfg, full_layers) = (&cfg, &full_layers);
    SimCluster::frontier(world).run(|ctx| {
        let (next, warm) = batches(cfg, ctx.rank);
        // Loss and every gradient of one forward + backward over `next`.
        let step = |model: &mut DistMoeLm, ctx: &mut RankCtx| {
            let loss = model
                .forward_backward(&next, &ctx.world, &mut ctx.clock)
                .unwrap();
            let mut grads = Vec::new();
            model.visit_params(&mut |id, _, g| grads.push((id.to_string(), bits(g.as_slice()))));
            (loss.to_bits(), grads)
        };
        let want = step(&mut DistMoeLm::new(cfg, full_layers, ctx.rank, world), ctx);

        let mut model = DistMoeLm::new(cfg, full_layers, ctx.rank, world);
        for batch in &warm {
            model
                .forward_backward(batch, &ctx.world, &mut ctx.clock)
                .unwrap();
            model.zero_all_grads();
        }
        assert!(model.arena_stats().retained_f32 > 0, "the arena is warm");
        model.poison_arena();
        let got = step(&mut model, ctx);
        assert!(f64::from_bits(got.0).is_finite());
        assert_eq!(got.0, want.0, "rank {}: loss", ctx.rank);
        for ((name, g), (_, w)) in got.1.iter().zip(&want.1) {
            assert!(g == w, "rank {}: gradient {name} differs", ctx.rank);
        }
        // Once more, now on buffers the compared step itself recycled.
        model.zero_all_grads();
        model.poison_arena();
        assert!(
            step(&mut model, ctx) == want,
            "rank {}: second pass",
            ctx.rank
        );
    });
}

#[test]
fn a_warmed_and_poisoned_arena_changes_no_bit_of_a_single_rank_step() {
    let cfg = cfg();
    let full_layers = build_moe_layers(&cfg);
    let (next, warm) = batches(&cfg, 0);
    let (cfg, full_layers) = (&cfg, &full_layers);
    // The single-process model: one rank.
    SimCluster::frontier(1).run(|ctx| {
        // Loss of one train step over `next`, and every weight after it.
        let step = |model: &mut DistMoeLm, ctx: &mut RankCtx| {
            let loss = model
                .forward_backward(&next, &ctx.world, &mut ctx.clock)
                .unwrap();
            model.sync_grads(&ctx.world, &mut ctx.clock).unwrap();
            model.apply_update();
            let mut weights = Vec::new();
            model.visit_params(&mut |_, w, _| weights.push(bits(w.as_slice())));
            (loss.to_bits(), weights)
        };
        let want = step(&mut DistMoeLm::new(cfg, full_layers, 0, 1), ctx);
        assert!(f64::from_bits(want.0).is_finite());

        let mut model = DistMoeLm::new(cfg, full_layers, 0, 1);
        for batch in &warm {
            // Forward + backward without an update.
            model
                .forward_backward(batch, &ctx.world, &mut ctx.clock)
                .unwrap();
            model.zero_all_grads();
        }
        model.poison_arena();
        assert!(
            step(&mut model, ctx) == want,
            "warmed arena changed the step"
        );
    });
}
