//! Cross-thread-count determinism of the persistent worker pool: the four
//! pipelines and a pooled training trajectory must produce **bitwise
//! identical** results at `XMOE_THREADS` ∈ {1, 2, 8}.
//!
//! `worker_threads()` (and therefore the pool size) is pinned per process via
//! a `OnceLock`, so each thread count needs its own process: the parent test
//! re-executes this test binary with `XMOE_POOL_CHILD=1` and a pinned
//! `XMOE_THREADS`, the child prints `FP <name> <hex>` checksum lines for
//! every workload, and the parent asserts the full line sets are equal. At
//! `XMOE_THREADS=1` no worker is ever spawned and every kernel runs the
//! serial schedule — so equality here *is* the "bitwise identical to serial
//! at any worker count" guarantee of `xmoe_tensor::par`.

use std::process::Command;

use xmoe::collectives::SimCluster;
use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::{DropPolicy, Router, RouterGuard};
use xmoe::core::pipeline::{
    BlockSparsePipeline, DenseDropOrder, DensePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline,
    Pipeline, PooledSingleState, RbdPipeline,
};
use xmoe::core::rbd::{PilotPolicy, RbdComms};
use xmoe::tensor::{DetRng, Tensor};
use xmoe::train::{MoeTrainScratch, TrainableMoe};

/// Order-sensitive bit-exact checksum of a float buffer (the `BENCH`-style
/// fingerprint): any single-bit or ordering change flips it.
fn checksum(acc: u64, xs: &[f32]) -> u64 {
    xs.iter().fold(acc, |h, v| {
        (h.rotate_left(5) ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3)
    })
}

/// Shapes chosen so the grouped hot path crosses the parallel cutoff at
/// every stage: seq*k = 128 dispatch rows, 128·64·32 ≥ 64³ per batch.
const SEQ: usize = 64;
const HID: usize = 32;
const FFN: usize = 64;
const EXP: usize = 8;
const TOPK: usize = 2;

/// All four pipelines (dense, padding-free, block-sparse, RBD) at world 4,
/// fingerprinting every rank's output.
fn pipeline_fingerprints(out: &mut Vec<(String, u64)>) {
    let seed = 4242u64;
    let router = Router::new(HID, EXP, TOPK, seed);
    let spec = MoeLayerSpec::new(EXP, 10_000);
    let world = 4usize;
    let results = {
        let (router, spec) = (&router, &spec);
        SimCluster::frontier(world).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, EXP, HID, FFN, seed + 1);
            let tokens = Tensor::rand_uniform(SEQ, HID, 1.0, 6100 + ctx.rank as u64);
            let dense = DensePipeline {
                order: DenseDropOrder::WeightRanked,
            }
            .forward(
                &tokens,
                router,
                &shard,
                spec,
                &mut ExecCtx::ep(&ctx.world, &mut ctx.clock),
            )
            .unwrap();
            let pft = PaddingFreePipeline
                .forward(
                    &tokens,
                    router,
                    &shard,
                    spec,
                    &mut ExecCtx::ep(&ctx.world, &mut ctx.clock),
                )
                .unwrap();
            let mut state = PooledSingleState::default();
            let pft_pooled = PaddingFreePipeline
                .forward(
                    &tokens,
                    router,
                    &shard,
                    spec,
                    &mut ExecCtx::ep(&ctx.world, &mut ctx.clock).with_state(&mut state),
                )
                .unwrap();
            let bs = BlockSparsePipeline { block: 4 }
                .forward(
                    &tokens,
                    router,
                    &shard,
                    spec,
                    &mut ExecCtx::ep(&ctx.world, &mut ctx.clock),
                )
                .unwrap();
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
            let mut rng = DetRng::new(seed + 77 + ctx.rank as u64);
            let rbd = RbdPipeline {
                policy: PilotPolicy::Random,
            }
            .forward(
                &tokens,
                router,
                &shard,
                spec,
                &mut ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng),
            )
            .unwrap();
            (dense, pft, pft_pooled, bs, rbd, ctx.clock.now())
        })
    };
    let mut fps = [0u64; 5];
    let mut time = 0u64;
    for (dense, pft, pft_pooled, bs, rbd, now) in &results {
        fps[0] = checksum(fps[0], dense.as_slice());
        fps[1] = checksum(fps[1], pft.as_slice());
        fps[2] = checksum(fps[2], pft_pooled.as_slice());
        fps[3] = checksum(fps[3], bs.as_slice());
        fps[4] = checksum(fps[4], rbd.as_slice());
        time = (time.rotate_left(5) ^ now.to_bits()).wrapping_mul(0x100_0000_01b3);
    }
    for (name, fp) in ["dense", "pft", "pft_pooled", "block_sparse", "rbd"]
        .iter()
        .zip(fps)
    {
        out.push((format!("pipeline_{name}"), fp));
    }
    // Simulated time is analytic and must not move with the pool size.
    out.push(("sim_time".into(), time));
}

/// Four pooled training steps with SGD updates, aux loss, both router
/// guards and a loss scale: fingerprints losses, gradients and weights.
fn training_fingerprints(out: &mut Vec<(String, u64)>) {
    let mut layer = TrainableMoe::new(HID, FFN, EXP, TOPK, 10_000, DropPolicy::CapacityOnly, 7331)
        .with_aux(0.05)
        .with_router_guard(RouterGuard {
            logit_clamp: 5.0,
            z_loss_coef: 0.01,
        });
    let mut st = MoeTrainScratch::default();
    let mut loss_fp = 0u64;
    for step in 0..4u64 {
        let x = Tensor::rand_uniform(SEQ, HID, 1.0, 8800 + step);
        let probe = Tensor::rand_uniform(SEQ, HID, 1.0, 8850 + step);
        layer.zero_grads();
        let y = layer.forward_pooled(&x, &mut st);
        let loss: f64 = y
            .as_slice()
            .iter()
            .zip(probe.as_slice())
            .map(|(&o, &p)| (o * p) as f64)
            .sum();
        loss_fp = checksum(loss_fp, &[loss as f32]);
        let d = layer.backward_scaled_pooled(&mut st, &probe, 2.0);
        st.ws.recycle(y);
        st.ws.recycle(d);
        let lr = 1e-3f32;
        for (w, g) in layer
            .gate
            .as_mut_slice()
            .iter_mut()
            .zip(st_grad(&layer.g_gate))
        {
            *w -= lr * g;
        }
        for e in 0..EXP {
            let (g1, g2): (Vec<f32>, Vec<f32>) = (
                layer.g_experts[e].w1.as_slice().to_vec(),
                layer.g_experts[e].w2.as_slice().to_vec(),
            );
            for (w, g) in layer.experts[e].w1.as_mut_slice().iter_mut().zip(g1) {
                *w -= lr * g;
            }
            for (w, g) in layer.experts[e].w2.as_mut_slice().iter_mut().zip(g2) {
                *w -= lr * g;
            }
        }
    }
    out.push(("train_losses".into(), loss_fp));
    let mut g_fp = checksum(0, layer.g_gate.as_slice());
    let mut w_fp = checksum(0, layer.gate.as_slice());
    for w in &layer.experts {
        w_fp = checksum(w_fp, w.w1.as_slice());
        w_fp = checksum(w_fp, w.w2.as_slice());
    }
    for g in &layer.g_experts {
        g_fp = checksum(g_fp, g.w1.as_slice());
        g_fp = checksum(g_fp, g.w2.as_slice());
    }
    out.push(("train_grads".into(), g_fp));
    out.push(("train_weights".into(), w_fp));
}

fn st_grad(g: &Tensor) -> Vec<f32> {
    g.as_slice().to_vec()
}

/// Child mode: compute and print every fingerprint. A no-op under a normal
/// `cargo test` run (the parent drives it via `XMOE_POOL_CHILD=1`).
#[test]
fn child_fingerprint() {
    if std::env::var("XMOE_POOL_CHILD").is_err() {
        return;
    }
    let mut fps = Vec::new();
    pipeline_fingerprints(&mut fps);
    training_fingerprints(&mut fps);
    for (name, fp) in fps {
        println!("FP {name} {fp:016x}");
    }
}

#[test]
fn pipelines_and_training_bitwise_identical_across_thread_counts() {
    if std::env::var("XMOE_POOL_CHILD").is_ok() {
        return; // re-exec guard
    }
    let exe = std::env::current_exe().expect("test binary path");
    let run = |threads: &str| -> Vec<String> {
        let out = Command::new(&exe)
            .args(["child_fingerprint", "--exact", "--nocapture"])
            .env("XMOE_POOL_CHILD", "1")
            .env("XMOE_THREADS", threads)
            .output()
            .expect("spawning child fingerprint process");
        assert!(
            out.status.success(),
            "child at XMOE_THREADS={threads} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // libtest prints its `test ... ` prefix without a newline, so the
        // first fingerprint can share a line with it — split on the marker.
        let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| l.find("FP ").map(|i| l[i..].to_owned()))
            .collect();
        assert!(
            lines.len() >= 9,
            "child at XMOE_THREADS={threads} printed {} fingerprints",
            lines.len()
        );
        lines
    };
    let serial = run("1");
    for threads in ["2", "8"] {
        let got = run(threads);
        assert_eq!(
            serial, got,
            "XMOE_THREADS={threads} diverges bitwise from the serial schedule"
        );
    }
}
