//! The assembled MoE language model and training loop.
//!
//! Architecture per block: optional causal self-attention, residual
//! pre-norm dense MLP, residual MoE layer. The Fig 15 run disables
//! attention: a first-order Markov corpus is learnable by a per-token
//! model, so the lighter skeleton preserves exactly what the figure
//! measures (two drop policies optimizing the same objective on the same
//! data from the same initialization). The `transformer` config enables
//! attention for sequence-structured corpora
//! ([`crate::data::HigherOrderCorpus`]).

use xmoe_core::gating::DropPolicy;
use xmoe_tensor::Workspace;

use crate::adam::Adam;
use crate::attention::{Attention, AttentionCtx};
use crate::data::MarkovCorpus;
use crate::layers::{DenseMlp, DenseMlpCtx, Embedding, Head};
use crate::moe_layer::{MoeTrainScratch, TrainableMoe};

/// Model + training hyperparameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub vocab: usize,
    pub hidden: usize,
    pub ffn: usize,
    pub num_experts: usize,
    pub top_k: usize,
    pub layers: usize,
    pub seq_len: usize,
    pub batch: usize,
    pub lr: f32,
    /// GShard capacity factor over the per-batch average load.
    pub capacity_factor: f64,
    pub policy: DropPolicy,
    pub seed: u64,
    /// Include a causal self-attention mixer in every block (the full
    /// transformer skeleton). Off for the Fig 15 run, whose corpus is
    /// first-order Markov and needs no sequence mixing.
    pub use_attention: bool,
    pub n_heads: usize,
}

impl TrainConfig {
    /// The Fig 15 defaults: a miniature DeepSeek-style MoE.
    pub fn fig15(policy: DropPolicy) -> Self {
        Self {
            vocab: 64,
            hidden: 32,
            ffn: 16,
            // DeepSeek-style fine-grained routing: a large k relative to E
            // means the lowest-ranked selections often carry negative raw
            // logits — exactly the assignments DeepSpeed-MoE's policy drops
            // (§5.6), which is what separates the two curves.
            num_experts: 16,
            top_k: 6,
            layers: 2,
            seq_len: 32,
            batch: 8,
            lr: 3e-3,
            capacity_factor: 1.25,
            policy,
            seed: 1234,
            use_attention: false,
            n_heads: 4,
        }
    }

    /// A full transformer configuration (attention + MLP + MoE per block)
    /// for sequence-structured corpora.
    pub fn transformer(policy: DropPolicy) -> Self {
        let mut c = Self::fig15(policy);
        c.use_attention = true;
        c
    }

    pub(crate) fn capacity(&self) -> usize {
        let tokens = self.batch * self.seq_len;
        ((self.capacity_factor * tokens as f64 * self.top_k as f64) / self.num_experts as f64)
            .ceil()
            .max(1.0) as usize
    }
}

/// Per-step training statistics.
#[derive(Clone, Copy, Debug)]
pub struct TrainStats {
    pub loss: f64,
    /// Fraction of routed (token, expert) assignments dropped.
    pub drop_fraction: f64,
}

/// One transformer block: optional attention mixer, dense MLP, MoE layer
/// (all residual, pre-norm where applicable).
pub struct Block {
    pub attn: Option<Attention>,
    pub mlp: DenseMlp,
    pub moe: TrainableMoe,
}

/// The MoE language model.
pub struct MoeLm {
    pub cfg: TrainConfig,
    pub embed: Embedding,
    pub blocks: Vec<Block>,
    pub head: Head,
    opt: Adam,
    /// The step arena: every buffer of a step is leased from it and recycled
    /// into it, as in [`crate::dist::DistMoeLm`]. It holds buffers, never
    /// values a later step reads.
    ws: Workspace,
    /// One per block; only the saved context and the grow-once scratch are
    /// used, the layers lease from `ws`.
    moe_st: Vec<MoeTrainScratch>,
    /// The dense blocks' saves of the step in flight: pushed by the forward,
    /// popped by the backward.
    ctxs: Vec<(Option<AttentionCtx>, DenseMlpCtx)>,
    inputs: Vec<usize>,
    targets: Vec<usize>,
}

/// Build the per-layer MoE stacks for `cfg` — shared between the
/// single-rank [`MoeLm`] and the distributed
/// [`crate::dist::DistMoeLm`], so both start from identical weights.
pub fn build_moe_layers(cfg: &TrainConfig) -> Vec<TrainableMoe> {
    let cap = cfg.capacity();
    (0..cfg.layers)
        .map(|l| {
            let s = cfg.seed.wrapping_add(l as u64 * 7001);
            TrainableMoe::new(
                cfg.hidden,
                cfg.ffn,
                cfg.num_experts,
                cfg.top_k,
                cap,
                cfg.policy,
                s ^ 0xBEEF,
            )
        })
        .collect()
}

impl MoeLm {
    pub fn new(cfg: TrainConfig) -> Self {
        let moes = build_moe_layers(&cfg);
        let blocks: Vec<Block> = moes
            .into_iter()
            .enumerate()
            .map(|(l, moe)| {
                let s = cfg.seed.wrapping_add(l as u64 * 7001);
                Block {
                    attn: cfg
                        .use_attention
                        .then(|| Attention::new(cfg.hidden, cfg.n_heads, s ^ 0xA77)),
                    mlp: DenseMlp::new(cfg.hidden, cfg.hidden * 2, s),
                    moe,
                }
            })
            .collect();
        Self {
            embed: Embedding::new(cfg.vocab, cfg.hidden, cfg.seed),
            head: Head::new(cfg.hidden, cfg.vocab, cfg.seed ^ 0x4EAD),
            moe_st: blocks.iter().map(|_| MoeTrainScratch::default()).collect(),
            blocks,
            opt: Adam::new(cfg.lr),
            cfg,
            ws: Workspace::new(),
            ctxs: Vec::new(),
            inputs: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Test support: [`Workspace::poison`] on the step arena.
    #[doc(hidden)]
    pub fn poison_arena(&mut self) {
        self.ws.poison();
    }

    /// Forward + backward + update over one batch of sequences (each
    /// `seq_len + 1` tokens). Returns loss and drop statistics.
    pub fn train_step(&mut self, batch: &[Vec<usize>]) -> TrainStats {
        let (stats, _) = self.forward_backward(batch, true);
        self.apply_update();
        stats
    }

    /// Evaluate without updating (used for matched-data loss curves).
    pub fn eval_step(&mut self, batch: &[Vec<usize>]) -> TrainStats {
        let (stats, _) = self.forward_backward(batch, false);
        self.zero_grads();
        stats
    }

    fn forward_backward(&mut self, batch: &[Vec<usize>], _train: bool) -> (TrainStats, ()) {
        let Self {
            cfg,
            embed,
            blocks,
            head,
            ws,
            moe_st,
            ctxs,
            inputs,
            targets,
            ..
        } = self;
        // Flatten the batch into one token stream of (input, target) pairs.
        inputs.clear();
        targets.clear();
        for seq in batch {
            assert!(seq.len() >= 2, "sequences need at least two tokens");
            for w in seq.windows(2) {
                inputs.push(w[0]);
                targets.push(w[1]);
            }
        }

        // Each layer's input goes back to the arena as soon as its output
        // exists; what the backward needs is in the contexts.
        let mut x = embed.forward(inputs, ws);
        ctxs.clear();
        let mut dropped = 0usize;
        let mut routed_total = 0usize;
        for (block, st) in blocks.iter().zip(moe_st.iter_mut()) {
            let attn_ctx = block.attn.as_ref().map(|a| {
                let (x1, c) = a.forward(&x, cfg.seq_len, ws);
                ws.recycle(std::mem::replace(&mut x, x1));
                c
            });
            let (x1, mlp_ctx) = block.mlp.forward(&x, ws);
            ws.recycle(x);
            x = block.moe.forward_in(&x1, ws, &mut st.ctx, &mut st.route);
            ws.recycle(x1);
            dropped += st.ctx.dropped();
            routed_total += inputs.len() * cfg.top_k;
            ctxs.push((attn_ctx, mlp_ctx));
        }
        let (loss, mut d_x) = head.loss_and_backward(&x, targets, ws);
        ws.recycle(x);
        for (block, st) in blocks.iter_mut().zip(moe_st.iter_mut()).rev() {
            let (attn_ctx, mlp_ctx) = ctxs.pop().expect("one saved context per block");
            let d = block.moe.backward_with(&st.ctx, ws, &mut st.bwd, &d_x, 1.0);
            ws.recycle(std::mem::replace(&mut d_x, d));
            let d = block.mlp.backward(mlp_ctx, &d_x, ws);
            ws.recycle(std::mem::replace(&mut d_x, d));
            if let (Some(a), Some(c)) = (block.attn.as_mut(), attn_ctx) {
                let d = a.backward(c, &d_x, ws);
                ws.recycle(std::mem::replace(&mut d_x, d));
            }
        }
        embed.backward(inputs, &d_x);
        ws.recycle(d_x);
        ws.trim();

        let drop_fraction = if routed_total == 0 {
            0.0
        } else {
            dropped as f64 / routed_total as f64
        };
        (
            TrainStats {
                loss,
                drop_fraction,
            },
            (),
        )
    }

    fn apply_update(&mut self) {
        let Self {
            embed,
            blocks,
            head,
            opt,
            ..
        } = self;
        // (param, grad) pairs in a stable order for Adam.
        opt.step(|f| {
            f(&mut embed.weight, &embed.grad);
            for block in blocks.iter_mut() {
                if let Some(a) = block.attn.as_mut() {
                    a.visit_params(f);
                }
                block.mlp.visit_params(f);
                let moe = &mut block.moe;
                f(&mut moe.gate, &moe.g_gate);
                for ((w1, w2), (g1, g2)) in moe.experts.iter_mut().zip(moe.g_experts.iter()) {
                    f(w1, g1);
                    f(w2, g2);
                }
            }
            f(&mut head.weight, &head.grad);
        });
        self.zero_grads();
    }

    fn zero_grads(&mut self) {
        self.embed.grad.as_mut_slice().fill(0.0);
        self.head.grad.as_mut_slice().fill(0.0);
        for block in &mut self.blocks {
            if let Some(a) = block.attn.as_mut() {
                a.zero_grads();
            }
            block.mlp.zero_grads();
            block.moe.zero_grads();
        }
    }
}

/// Train both drop policies on identical data streams (same corpus seed)
/// and return their loss curves — the Fig 15 experiment.
pub fn loss_validation_curves(steps: usize, smooth: usize) -> (Vec<f64>, Vec<f64>) {
    let run = |policy: DropPolicy| -> Vec<f64> {
        let cfg = TrainConfig::fig15(policy);
        let mut corpus = MarkovCorpus::new(cfg.vocab, 4, 999);
        let mut model = MoeLm::new(cfg.clone());
        let mut losses = Vec::with_capacity(steps);
        for _ in 0..steps {
            let batch = corpus.batch(cfg.batch, cfg.seq_len);
            let stats = model.train_step(&batch);
            losses.push(stats.loss);
        }
        // Optional moving-average smoothing for plotting.
        if smooth > 1 {
            losses = losses
                .windows(smooth)
                .map(|w| w.iter().sum::<f64>() / w.len() as f64)
                .collect();
        }
        losses
    };
    (
        run(DropPolicy::CapacityOnly),
        run(DropPolicy::CapacityAndNegativeLogit),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_decreases_on_markov_corpus() {
        let cfg = TrainConfig::fig15(DropPolicy::CapacityOnly);
        let mut corpus = MarkovCorpus::new(cfg.vocab, 4, 7);
        let mut model = MoeLm::new(cfg.clone());
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..120 {
            let batch = corpus.batch(cfg.batch, cfg.seq_len);
            let stats = model.train_step(&batch);
            if step == 0 {
                first = stats.loss;
            }
            last = stats.loss;
            // Divergence flows through the guard's recoverable check (a
            // policy trip in production, a test failure here) instead of
            // an unconditional abort.
            assert_eq!(crate::guard::check_loss(step as u64, stats.loss), Ok(()));
        }
        assert!(
            last < first - 0.5,
            "loss should drop markedly: {first} -> {last}"
        );
        // Initial loss near uniform ln(V).
        assert!(
            (first - (cfg.vocab as f64).ln()).abs() < 0.8,
            "first loss {first}"
        );
    }

    #[test]
    fn negative_logit_policy_shows_higher_drop_rate() {
        let mk = |policy| {
            let cfg = TrainConfig::fig15(policy);
            let mut corpus = MarkovCorpus::new(cfg.vocab, 4, 17);
            let mut model = MoeLm::new(cfg.clone());
            let batch = corpus.batch(cfg.batch, cfg.seq_len);
            model.eval_step(&batch).drop_fraction
        };
        let xmoe = mk(DropPolicy::CapacityOnly);
        let ds = mk(DropPolicy::CapacityAndNegativeLogit);
        // With layer norm in the dense blocks the MoE input distribution
        // shifts and both policies see some capacity pressure; the
        // invariant is that the negative-logit pre-drop strictly adds
        // dropped assignments on top.
        assert!(
            ds > xmoe + 0.005,
            "DeepSpeed policy must drop measurably more: {ds} vs {xmoe}"
        );
    }

    #[test]
    fn fig15_curves_track_with_xmoe_at_or_below() {
        // Short version of the full experiment: both policies converge, the
        // curves track each other, and X-MoE's final loss is not higher
        // (it retains more tokens; §5.6).
        let (xmoe, ds) = loss_validation_curves(80, 1);
        let tail = 10;
        let x_end: f64 = xmoe.iter().rev().take(tail).sum::<f64>() / tail as f64;
        let d_end: f64 = ds.iter().rev().take(tail).sum::<f64>() / tail as f64;
        assert!(x_end < xmoe[0] - 0.3, "X-MoE curve must descend");
        assert!(d_end < ds[0] - 0.3, "DS curve must descend");
        assert!(x_end <= d_end + 0.05, "X-MoE end {x_end} vs DS end {d_end}");
        // Curves track: pointwise gap bounded over the tail.
        for (a, b) in xmoe.iter().zip(&ds).skip(40) {
            assert!((a - b).abs() < 1.0, "curves diverged: {a} vs {b}");
        }
    }

    #[test]
    fn eval_step_does_not_change_parameters() {
        let cfg = TrainConfig::fig15(DropPolicy::CapacityOnly);
        let mut corpus = MarkovCorpus::new(cfg.vocab, 4, 27);
        let mut model = MoeLm::new(cfg.clone());
        let batch = corpus.batch(cfg.batch, cfg.seq_len);
        let l1 = model.eval_step(&batch).loss;
        let l2 = model.eval_step(&batch).loss;
        assert_eq!(l1, l2, "eval must be side-effect free");
    }
}
