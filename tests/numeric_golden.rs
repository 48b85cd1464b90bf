//! The absolute numeric anchor: FNV-1a hashes over the f32 bits of two
//! training trajectories, of the checkpoint one of them ends in, of the
//! four forward pipelines and of one serving run, pinned as constants.
//!
//! Every other bitwise oracle in the repo is *relative* (pooled ≡ owned,
//! lanes ≡ serial, overlap ≡ serial): a kernel change that moved every path
//! by the same ulp would pass all of them. These constants were computed on
//! the commit *before* the register-tiled GEMM microkernels landed and must
//! only ever move together with a stated element-level reason (a new
//! accumulation order, a changed formula) — never be re-pinned silently.
//!
//! Like `pool_determinism`, the pool size is pinned per process, so the
//! parent test re-executes this binary at `XMOE_THREADS` ∈ {1, 2, 8} and
//! checks every child's `GOLD <name> <hex>` lines against the constants.
//! Every shape here is sized so the grouped GEMMs and the SiLU passes run
//! *above* the worker pool's cutoffs (`128^3` MACs, 16 Ki elements), with
//! widths that are no multiple of a SIMD tile: full tiles, every narrower
//! column tile and single-row edges all contribute to each hash.

use std::process::Command;

use xmoe::collectives::SimCluster;
use xmoe::core::config::MoeModelConfig;
use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::{DropPolicy, Router, RouterGuard};
use xmoe::core::pipeline::{
    BlockSparsePipeline, DenseDropOrder, DensePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline,
    Pipeline, PooledSingleState, RbdPipeline,
};
use xmoe::core::rbd::{PilotPolicy, RbdComms};
use xmoe::serve::engine::serve;
use xmoe::serve::{PlacementMode, ServeConfig, TrafficConfig};
use xmoe::tensor::{DetRng, Tensor};
use xmoe::train::model::build_moe_layers;
use xmoe::train::{DistMoeLm, MarkovCorpus, MoeTrainScratch, TrainConfig, TrainableMoe};

/// 5-step `TrainableMoe` trajectory (aux + z-loss + clamp on): outputs,
/// input gradients, final gradients and final weights. Re-pinned with the
/// next two for one reason: the combine backward moved into the expert
/// backward's `d_h` GEMM, which reassociates two sums — the combine-weight
/// gradient is `⟨d_out[t]·W2ᵀ, h_act⟩` (an F-long dot) instead of
/// `⟨d_out[t], h_act·W2⟩` (H-long), and `d_h = w·(d_out[t]·W2ᵀ)` instead of
/// `(w·d_out[t])·W2ᵀ`. The `reassociates_within_1e_5` tests in
/// `crates/train/src/moe_math.rs` hold the new gradients to the old formulas
/// (6e-7 at most was seen).
const GOLD_TRAINABLE_MOE: u64 = 0x18cc_257e_4ac0_4576;
/// 3-step 2-rank `DistMoeLm::train_step` trajectory: per-step losses and
/// every rank's final head, gate and expert-shard weights. Re-pinned with
/// the next one for two reasons, in turn: GELU's tanh formula changed from
/// libm's `tanhf` to `xmoe_tensor::ops::tanh`; then the combine backward's
/// reassociation (see [`GOLD_TRAINABLE_MOE`]).
const GOLD_DIST_MOE_LM: u64 = 0x2804_ce1d_52e0_b648;
/// The encoded `Checkpoint` every rank captures after that run: pins the
/// parameter walk's entry order and Adam's slot order (first pinned at the
/// parent of the one-walk change, before the walk landed).
const GOLD_DIST_MOE_LM_CKPT: u64 = 0x90af_a256_a565_6a89;
/// Dense, padding-free (owned and pooled), block-sparse and RBD forwards at
/// world 4: every rank's output. The dense and block-sparse slabs carry
/// whole-zero pad rows, the case the NN kernel's row-group skip exists for.
const GOLD_PIPELINES: u64 = 0xf48e_6b72_955f_26ef;
/// One seeded `serve()` run under optimized placement with skewed, drifting
/// topics: the output checksum, off-node bytes, priced dispatch seconds,
/// re-solves and migrated experts. Pinned while the engine still gated each
/// batch twice (once for its histograms, once in the forward); one gate must
/// give the same bits.
const GOLD_SERVE: u64 = 0x47b8_935b_db37_af93;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over the little-endian bytes of each element's bit pattern.
fn fnv1a(h: u64, xs: &[f32]) -> u64 {
    xs.iter()
        .fold(h, |h, v| fnv1a_bytes(h, &v.to_bits().to_le_bytes()))
}

/// 512 routed rows × 90 × 52 = 2.4 M MACs per grouped GEMM.
fn trainable_moe_trajectory() -> u64 {
    let (seq, hid, ffn, exp, topk) = (256usize, 90usize, 52usize, 8usize, 2usize);
    let mut layer = TrainableMoe::new(hid, ffn, exp, topk, 10_000, DropPolicy::CapacityOnly, 7331)
        .with_aux(0.05)
        .with_router_guard(RouterGuard {
            logit_clamp: 5.0,
            z_loss_coef: 0.01,
        });
    let mut st = MoeTrainScratch::default();
    let mut h = FNV_OFFSET;
    for step in 0..5u64 {
        let x = Tensor::rand_uniform(seq, hid, 1.0, 9900 + step);
        let probe = Tensor::rand_uniform(seq, hid, 1.0, 9950 + step);
        layer.zero_grads();
        let y = layer.forward_pooled(&x, &mut st);
        h = fnv1a(h, y.as_slice());
        let d = layer.backward_scaled_pooled(&mut st, &probe, 2.0);
        h = fnv1a(h, d.as_slice());
        st.ws.recycle(y);
        st.ws.recycle(d);
        let lr = 1e-2f32;
        let sgd = |w: &mut Tensor, g: &Tensor| {
            for (w, g) in w.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *w -= lr * g;
            }
        };
        sgd(&mut layer.gate, &layer.g_gate);
        for (w, g) in layer.experts.iter_mut().zip(&layer.g_experts) {
            sgd(&mut w.w1, &g.w1);
            sgd(&mut w.w2, &g.w2);
        }
    }
    h = fnv1a(h, layer.g_gate.as_slice());
    h = fnv1a(h, layer.gate.as_slice());
    for (w, g) in layer.experts.iter().zip(&layer.g_experts) {
        for t in [&g.w1, &g.w2, &w.w1, &w.w2] {
            h = fnv1a(h, t.as_slice());
        }
    }
    h
}

/// The trajectory hash and the checkpoint hash of one 3-step 2-rank run.
fn dist_moe_lm_trajectory() -> (u64, u64) {
    let mut cfg = TrainConfig::transformer(DropPolicy::CapacityOnly);
    cfg.vocab = 48;
    cfg.hidden = 72;
    cfg.ffn = 68;
    cfg.num_experts = 8;
    cfg.top_k = 2;
    cfg.layers = 2;
    cfg.seq_len = 48;
    cfg.batch = 8; // 384 tokens per rank: ~768 routed rows x 72 x 68 = 3.8 M MACs
    cfg.seed = 2026;
    let (world, steps) = (2usize, 3usize);
    let full_layers = build_moe_layers(&cfg);
    let results = {
        let (cfg, full_layers) = (&cfg, &full_layers);
        SimCluster::frontier(world).run(move |ctx| {
            let mut corpus = MarkovCorpus::new(cfg.vocab, 3, 5100 + ctx.rank as u64);
            let mut model = DistMoeLm::new(cfg, full_layers, ctx.rank, world);
            let mut h = FNV_OFFSET;
            for _ in 0..steps {
                let batch = corpus.batch(cfg.batch, cfg.seq_len);
                let loss = model
                    .train_step(&batch, &ctx.world, &mut ctx.clock)
                    .expect("clean 2-rank train step");
                h = fnv1a_bytes(h, &loss.to_bits().to_le_bytes());
            }
            h = fnv1a(h, model.head.weight.as_slice());
            for block in &model.blocks {
                h = fnv1a(h, block.moe.gate.as_slice());
                for w in &block.moe.shard {
                    h = fnv1a(h, w.w1.as_slice());
                    h = fnv1a(h, w.w2.as_slice());
                }
            }
            let ckpt = model
                .capture_checkpoint(steps as u64, 0, &ctx.world, &mut ctx.clock)
                .expect("clean capture");
            (h, fnv1a_bytes(FNV_OFFSET, &ckpt.encode()))
        })
    };
    let fold = |pick: fn(&(u64, u64)) -> u64| {
        results
            .iter()
            .fold(FNV_OFFSET, |h, r| fnv1a_bytes(h, &pick(r).to_le_bytes()))
    };
    (fold(|r| r.0), fold(|r| r.1))
}

/// 384 tokens per rank at top-2 over 8 experts: each rank's two experts see
/// ~768 rows x 72 x 68 = 3.8 M MACs per grouped GEMM.
fn pipeline_outputs() -> u64 {
    let (seq, hid, ffn, exp, topk, world) = (384usize, 72usize, 68usize, 8usize, 2usize, 4usize);
    let seed = 4243u64;
    let router = Router::new(hid, exp, topk, seed);
    // Mean load is 96 rows per (source rank, expert): pad rows and a few drops.
    let spec = MoeLayerSpec::new(exp, 112);
    let results = {
        let (router, spec) = (&router, &spec);
        SimCluster::frontier(world).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, exp, hid, ffn, seed + 1);
            let tokens = Tensor::rand_uniform(seq, hid, 1.0, 6200 + ctx.rank as u64);
            let mut h = FNV_OFFSET;
            let dense = DensePipeline {
                order: DenseDropOrder::WeightRanked,
            };
            let mut ep = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            let out = dense.forward(&tokens, router, &shard, spec, &mut ep);
            h = fnv1a(h, out.expect("dense forward").as_slice());
            let mut ep = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            let out = PaddingFreePipeline.forward(&tokens, router, &shard, spec, &mut ep);
            h = fnv1a(h, out.expect("pft forward").as_slice());
            let mut state = PooledSingleState::default();
            let mut ep = ExecCtx::ep(&ctx.world, &mut ctx.clock).with_state(&mut state);
            let out = PaddingFreePipeline.forward(&tokens, router, &shard, spec, &mut ep);
            h = fnv1a(h, out.expect("pooled pft forward").as_slice());
            let mut ep = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            let out =
                BlockSparsePipeline { block: 4 }.forward(&tokens, router, &shard, spec, &mut ep);
            h = fnv1a(h, out.expect("block-sparse forward").as_slice());
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).expect("rbd comms");
            let mut rng = DetRng::new(seed + 77 + ctx.rank as u64);
            let rbd = RbdPipeline {
                policy: PilotPolicy::Random,
            };
            let mut hier = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
            let out = rbd.forward(&tokens, router, &shard, spec, &mut hier);
            fnv1a(h, out.expect("rbd forward").as_slice())
        })
    };
    results
        .iter()
        .fold(FNV_OFFSET, |h, r| fnv1a_bytes(h, &r.to_le_bytes()))
}

/// 80 requests over 32 ranks at 1/16 dims: about 1,600 pooled forwards, two
/// placement solves and a topic drift mid-trace.
fn serve_report() -> u64 {
    let traffic = TrafficConfig::steady(400.0, 29)
        .with_skew(8.0, 6)
        .with_drift(0.25);
    let model = MoeModelConfig::custom("serve-golden", 2048, 2048, 1408, 64, 6, 28);
    let cfg = ServeConfig::new(model, 32, traffic)
        .with_requests(80)
        .with_placement(PlacementMode::Optimized);
    let r = serve(cfg).expect("serve config is valid");
    let h = fnv1a_bytes(FNV_OFFSET, &r.output_checksum.to_bits().to_le_bytes());
    let h = fnv1a_bytes(h, &r.off_node_bytes.to_le_bytes());
    let h = fnv1a_bytes(h, &r.dispatch_s.to_bits().to_le_bytes());
    let h = fnv1a_bytes(h, &(r.resolves as u64).to_le_bytes());
    fnv1a_bytes(h, &(r.migrated_experts as u64).to_le_bytes())
}

/// Child mode: print every hash. A no-op under a normal `cargo test` run.
#[test]
fn child_golden() {
    if std::env::var("XMOE_GOLDEN_CHILD").is_err() {
        return;
    }
    println!("GOLD trainable_moe {:016x}", trainable_moe_trajectory());
    let (dist, ckpt) = dist_moe_lm_trajectory();
    println!("GOLD dist_moe_lm {dist:016x}");
    println!("GOLD dist_moe_lm_ckpt {ckpt:016x}");
    println!("GOLD pipelines {:016x}", pipeline_outputs());
    println!("GOLD serve {:016x}", serve_report());
}

#[test]
fn trajectories_match_the_pinned_hashes_at_every_thread_count() {
    if std::env::var("XMOE_GOLDEN_CHILD").is_ok() {
        return; // re-exec guard
    }
    let exe = std::env::current_exe().expect("test binary path");
    let expected = [
        format!("GOLD trainable_moe {GOLD_TRAINABLE_MOE:016x}"),
        format!("GOLD dist_moe_lm {GOLD_DIST_MOE_LM:016x}"),
        format!("GOLD dist_moe_lm_ckpt {GOLD_DIST_MOE_LM_CKPT:016x}"),
        format!("GOLD pipelines {GOLD_PIPELINES:016x}"),
        format!("GOLD serve {GOLD_SERVE:016x}"),
    ];
    for threads in ["1", "2", "8"] {
        let out = Command::new(&exe)
            .args(["child_golden", "--exact", "--nocapture"])
            .env("XMOE_GOLDEN_CHILD", "1")
            .env("XMOE_THREADS", threads)
            .output()
            .expect("spawning child golden process");
        assert!(
            out.status.success(),
            "child at XMOE_THREADS={threads} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // libtest prints its `test ... ` prefix without a newline, so the
        // first line can share a line with it — split on the marker.
        let got: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| l.find("GOLD ").map(|i| l[i..].to_owned()))
            .collect();
        assert_eq!(
            got, expected,
            "XMOE_THREADS={threads}: a trajectory moved off its pinned hash — name \
             the element-level reason before re-pinning"
        );
    }
}
