//! The attention block earns its place: on an order-2 Markov corpus the
//! next token depends on the last *two* tokens, so a per-token model
//! (MLP + MoE only) is information-theoretically stuck above the entropy
//! floor while the transformer (attention + MLP + MoE) can mix positions
//! and descend further.

use xmoe::collectives::SimCluster;
use xmoe::core::gating::DropPolicy;
use xmoe::tensor::DetRng;
use xmoe::train::{build_moe_layers, DistMoeLm, TrainConfig};

/// A higher-order Markov corpus: the next-token distribution depends on
/// the last `order` tokens. Transitions are derived lazily and
/// deterministically by hashing the history with the seed, so the state
/// space can be large without precomputation.
///
/// With `order >= 2`, a per-token (bigram) model cannot reach the entropy
/// floor — predicting well requires mixing information across positions,
/// which is what the attention block is for.
struct HigherOrderCorpus {
    vocab: usize,
    branching: usize,
    seed: u64,
    rng: DetRng,
    history: Vec<usize>,
}

impl HigherOrderCorpus {
    fn new(vocab: usize, branching: usize, order: usize, seed: u64) -> Self {
        assert!(vocab >= 2 && branching >= 1 && branching <= vocab && order >= 1);
        let mut rng = DetRng::new(seed ^ 0x0D0E);
        let history = (0..order).map(|_| rng.next_below(vocab)).collect();
        Self {
            vocab,
            branching,
            seed,
            rng,
            history,
        }
    }

    /// The (deterministic) successor options for a history.
    fn options(&self, hist: &[usize]) -> (Vec<usize>, Vec<f64>) {
        let mut h = self.seed ^ 0xC0FFEE;
        for &t in hist {
            h = h.wrapping_mul(0x100_0000_01B3).wrapping_add(t as u64 + 1);
        }
        let mut state_rng = DetRng::new(h);
        let mut succ: Vec<usize> = (0..self.vocab).collect();
        state_rng.shuffle(&mut succ);
        succ.truncate(self.branching);
        let mut weights: Vec<f64> = (0..self.branching)
            .map(|_| state_rng.next_f64() + 0.1)
            .collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        (succ, weights)
    }

    fn next_token(&mut self) -> usize {
        let (succ, weights) = self.options(&self.history.clone());
        let choice = self.rng.sample_weighted(&weights);
        let t = succ[choice];
        self.history.remove(0);
        self.history.push(t);
        t
    }

    /// A batch of `batch` sequences of `seq_len + 1` tokens.
    fn batch(&mut self, batch: usize, seq_len: usize) -> Vec<Vec<usize>> {
        (0..batch)
            .map(|_| (0..=seq_len).map(|_| self.next_token()).collect())
            .collect()
    }
}

#[test]
fn higher_order_tokens_stay_in_vocab_and_deterministic() {
    let mut a = HigherOrderCorpus::new(16, 2, 2, 5);
    let mut b = HigherOrderCorpus::new(16, 2, 2, 5);
    for _ in 0..500 {
        let t = a.next_token();
        assert!(t < 16);
        assert_eq!(t, b.next_token());
    }
}

#[test]
fn higher_order_needs_full_history() {
    // The same last token with different second-to-last tokens must
    // lead to different successor sets (almost surely).
    let c = HigherOrderCorpus::new(32, 2, 2, 7);
    let (s1, _) = c.options(&[3, 10]);
    let (s2, _) = c.options(&[4, 10]);
    assert_ne!(s1, s2, "order-2 structure collapsed to order-1");
}

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
