//! `layer_fine_1r` / `layer_coarse_1r`: one MoE layer on one rank.
//!
//! One unit pushes one `[s, h]` batch through the inference path
//! (`PaddingFreePipeline::forward` under `ExecCtx::pooled`) and through the
//! training path (`TrainableMoe::forward_pooled` + `backward_pooled`). No
//! rank threads, no collectives: only the kernels, the routing code and the
//! worker pool. The two shapes have the same tokens, hidden size and FLOPs;
//! fine splits them over 64 experts at top-8, coarse over 8 at top-1.

use std::time::Instant;

use xmoe_core::gating::{DropPolicy, GateScratch, GatingOutput, Router};
use xmoe_core::pft::{Pft, PftScratch};
use xmoe_core::pipeline::{
    DenseDropOrder, DensePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline,
    PooledSingleState,
};
use xmoe_core::ExpertShard;
use xmoe_tensor::{
    gather_rows_into, gemm_grouped, gemm_grouped_transpose_a, gemm_grouped_transpose_b,
    matmul_slices, matmul_transpose_b_slices, scatter_rows_scaled, topk_rows_into, Tensor,
    Workspace, WorkspaceStats,
};
use xmoe_train::{MoeTrainScratch, TrainableMoe};

use crate::harness::{bitwise_eq, plan_units, probe_median_s, timed_units, Opts, Outcome, ROUNDS};
use crate::spans::Recorder;
use crate::{inputs, stats};

/// Layer dimensions: `s` tokens of width `h`, `e` experts of FFN width
/// `f`, top-`k` routing.
pub struct Shape {
    pub name: &'static str,
    pub s: usize,
    pub h: usize,
    pub f: usize,
    pub e: usize,
    pub k: usize,
}

/// Expert-specialized shape (paper §3.2): 8x routed rows, many small GEMMs.
pub const FINE: Shape = Shape {
    name: "layer_fine_1r",
    s: 1024,
    h: 256,
    f: 64,
    e: 64,
    k: 8,
};

/// Conventional shape with the same FLOPs: few large experts, top-1.
pub const COARSE: Shape = Shape {
    name: "layer_coarse_1r",
    s: 1024,
    h: 256,
    f: 512,
    e: 8,
    k: 1,
};

/// Distinct token batches cycled through; the warm-up visits each once so
/// every grow-only buffer has reached its fixed point before timing.
const RING: usize = 8;
const WEIGHT_SEED: u64 = 0x1A7E_0001;

impl Shape {
    /// GShard capacity at factor 1.5 over the mean load: drops stay rare,
    /// and the dense baseline's `[E, C, h]` slab stays small.
    fn capacity(&self) -> usize {
        (3 * self.s * self.k).div_ceil(2 * self.e)
    }
}

/// Everything one round sets up.
struct Rig {
    shape: &'static Shape,
    router: Router,
    experts: ExpertShard,
    spec: MoeLayerSpec,
    layer: TrainableMoe,
    batches: Vec<Tensor>,
    d_out: Tensor,
    state: PooledSingleState,
    train: MoeTrainScratch,
}

impl Rig {
    fn new(shape: &'static Shape, seed: u64) -> Self {
        let cap = shape.capacity();
        Self {
            shape,
            router: Router::new(shape.h, shape.e, shape.k, WEIGHT_SEED),
            experts: ExpertShard::full(shape.e, shape.h, shape.f, WEIGHT_SEED + 1),
            spec: MoeLayerSpec::new(shape.e, cap),
            layer: TrainableMoe::new(
                shape.h,
                shape.f,
                shape.e,
                shape.k,
                cap,
                DropPolicy::CapacityOnly,
                WEIGHT_SEED + 2,
            ),
            batches: inputs::token_ring(RING, shape.s, shape.h, seed, shape.name, 0),
            d_out: inputs::tokens(
                shape.s,
                shape.h,
                inputs::sub_seed(seed, "layer.d_out", 0, 0),
            ),
            state: PooledSingleState::default(),
            train: MoeTrainScratch::default(),
        }
    }

    /// One unit on batch `i`; `false` if the pipeline returned an error.
    fn unit(&mut self, i: usize, rec: &mut Recorder) -> bool {
        let x = &self.batches[i % RING];
        let ok = rec.scope("core.pipeline.forward", |_| {
            match PaddingFreePipeline.forward(
                x,
                &self.router,
                &self.experts,
                &self.spec,
                &mut ExecCtx::pooled(&mut self.state),
            ) {
                Ok(out) => {
                    self.state.ws.recycle(out);
                    true
                }
                Err(_) => false,
            }
        });
        self.layer.zero_grads();
        let out = rec.scope("train.moe_layer.forward", |_| {
            self.layer.forward_pooled(x, &mut self.train)
        });
        let d_x = rec.scope("train.moe_layer.backward", |_| {
            self.layer.backward_pooled(&mut self.train, &self.d_out)
        });
        self.train.ws.recycle(d_x);
        self.train.ws.recycle(out);
        ok
    }

    fn pool_stats(&self) -> [WorkspaceStats; 2] {
        [self.state.ws.stats(), self.train.ws.stats()]
    }
}

fn retained_mb(stats: &[WorkspaceStats]) -> f64 {
    stats
        .iter()
        .map(|s| (s.retained_f32 * 4 + s.retained_idx * 8 + s.retained_u64 * 8) as f64 / 1e6)
        .sum()
}

pub fn run(shape: &'static Shape, opts: &Opts) -> Outcome {
    let mut out = Outcome::new(shape.name, shape.s as f64);
    let mut rec = Recorder::new(0, Instant::now(), 1 << 16);
    rec.enabled = false;
    let mut misses = 0u64;
    let mut rig = None;

    for _round in 0..ROUNDS {
        drop(rig.take()); // one rig alive at a time, so the heap peak is one rig's
        let t0 = Instant::now();
        let r = rig.insert(Rig::new(shape, opts.seed));
        let mut warm = Vec::with_capacity(RING);
        for i in 0..RING {
            let t = Instant::now();
            out.attempted += 1;
            out.failed += u64::from(!r.unit(i, &mut rec));
            warm.push(t.elapsed().as_secs_f64());
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());

        let n = plan_units(stats::median(&warm[RING / 2..]), opts.unit_budget_s(), 10);
        let pool0 = r.pool_stats();
        let first = out.total_units();
        out.absorb(timed_units(n, opts.trace, first, &mut rec, |i, rec| {
            r.unit(i, rec)
        }));
        misses += r
            .pool_stats()
            .iter()
            .zip(&pool0)
            .map(|(b, a)| b.pool_misses - a.pool_misses)
            .sum::<u64>();
    }

    let mut rig = rig.expect("ROUNDS >= 1");
    check_outputs(&mut rig, &mut out);
    if opts.trace {
        let units = out.total_units() as f64;
        out.set("tensor.pool.misses_per_step", misses as f64 / units);
        out.set("tensor.pool.retained_mb", retained_mb(&rig.pool_stats()));
        unit_span_metrics(shape, &rec, &mut out);
        stage_replay(&mut rig, &mut rec, &mut out);
        kernel_probes(&rig, &mut out);
        dense_baseline(&rig, &mut out);
    }
    out.recorders.push(rec);
    out
}

/// Pooled paths must equal the owned ones bit for bit.
fn check_outputs(rig: &mut Rig, out: &mut Outcome) {
    let x = &rig.batches[0];
    let pooled = PaddingFreePipeline.forward(
        x,
        &rig.router,
        &rig.experts,
        &rig.spec,
        &mut ExecCtx::pooled(&mut rig.state),
    );
    let single = PaddingFreePipeline.forward(
        x,
        &rig.router,
        &rig.experts,
        &rig.spec,
        &mut ExecCtx::single(),
    );
    match (pooled, single) {
        (Ok(p), Ok(s)) => {
            out.check(
                "pipeline output is finite",
                p.as_slice().iter().all(|v| v.is_finite()),
                String::new(),
            );
            out.check(
                "pooled forward == ExecCtx::single() bitwise",
                bitwise_eq(&p, &s),
                format!("max abs diff {}", p.max_abs_diff(&s)),
            );
            rig.state.ws.recycle(p);
        }
        (p, s) => out.check(
            "pipeline forward succeeds",
            false,
            format!("pooled {:?} single {:?}", p.err(), s.err()),
        ),
    }
    let pooled = rig.layer.forward_pooled(x, &mut rig.train);
    let (owned, _ctx) = rig.layer.forward(x);
    out.check(
        "TrainableMoe forward_pooled == forward bitwise",
        bitwise_eq(&pooled, &owned),
        format!("max abs diff {}", pooled.max_abs_diff(&owned)),
    );
    rig.train.ws.recycle(pooled);
}

/// Numbers read off the spans of the traced units.
fn unit_span_metrics(shape: &Shape, rec: &Recorder, out: &mut Outcome) {
    let fwd = rec.durations_ms("core.pipeline.forward");
    let tf = rec.durations_ms("train.moe_layer.forward");
    let tb = rec.durations_ms("train.moe_layer.backward");
    out.set("core.pipeline.pft_forward_ms", stats::median(&fwd));
    out.set("train.moe_layer.forward_ms", stats::median(&tf));
    out.set("train.moe_layer.backward_ms", stats::median(&tb));
    // Traced units always exist in a traced run (ten units a round at least).
    let (f, a, b) = (
        stats::fastest(&fwd),
        stats::fastest(&tf),
        stats::fastest(&tb),
    );
    if f > 0.0 && a + b > 0.0 {
        let tokens = shape.s as f64;
        out.set("fwd_tokens_per_s", tokens / (f / 1e3));
        out.set("train_tokens_per_s", tokens / ((a + b) / 1e3));
    }
}

/// Replay the five stages `forward_single_pooled` composes, one span each,
/// on every batch of the ring; the result must equal `Pipeline::forward`.
fn stage_replay(rig: &mut Rig, rec: &mut Recorder, out: &mut Outcome) {
    const PASSES: usize = 4; // the first warms the replay's own buffers
    let (s, h) = (rig.shape.s, rig.shape.h);
    let mut gate_scratch = GateScratch::default();
    let mut gating = GatingOutput::default();
    let mut pft_scratch = PftScratch::default();
    let mut pft = Pft::default();
    let mut dispatch = Tensor::zeros(0, 0);
    let mut ws = Workspace::new();
    let mut equal = true;
    let mut dropped = 0usize;
    for pass in 0..PASSES {
        rec.enabled = pass > 0;
        for x in &rig.batches {
            let replayed = rec.scope("stage_replay", |rec| {
                rec.scope("core.gating.gate", |_| {
                    rig.router.gate_into(x, &mut gate_scratch, &mut gating)
                });
                rec.scope("core.pft.construct", |_| {
                    Pft::construct_into(
                        &gating,
                        rig.spec.num_experts,
                        rig.spec.capacity,
                        rig.spec.policy,
                        &mut pft_scratch,
                        &mut pft,
                    )
                });
                rec.scope("tensor.routing.gather", |_| {
                    gather_rows_into(x, &pft.token_ids, &mut dispatch)
                });
                let mlp = rec.scope("core.expert.forward_segments", |_| {
                    rig.experts
                        .forward_segments_pooled(&dispatch, &pft.tokens_per_expert, &mut ws)
                });
                let mut y = ws.take(s, h);
                rec.scope("tensor.routing.scatter", |_| {
                    scatter_rows_scaled(&mlp, &pft.token_ids, &pft.combine_weights, &mut y)
                });
                ws.recycle(mlp);
                y
            });
            if pass == 0 {
                dropped += pft.dropped;
                match PaddingFreePipeline.forward(
                    x,
                    &rig.router,
                    &rig.experts,
                    &rig.spec,
                    &mut ExecCtx::pooled(&mut rig.state),
                ) {
                    Ok(want) => {
                        equal &= bitwise_eq(&replayed, &want);
                        rig.state.ws.recycle(want);
                    }
                    Err(_) => equal = false,
                }
            }
            ws.recycle(replayed);
        }
    }
    rec.enabled = false;
    out.check(
        "stage replay == Pipeline::forward bitwise",
        equal,
        format!("{dropped} routed pairs dropped over the ring"),
    );

    let gate = rec.median_ms("core.gating.gate");
    let build = rec.median_ms("core.pft.construct");
    let gather = rec.median_ms("tensor.routing.gather");
    let expert = rec.median_ms("core.expert.forward_segments");
    let scatter = rec.median_ms("tensor.routing.scatter");
    out.set("core.gating.gate_ms", gate);
    out.set("core.pft.construct_ms", build);
    out.set("tensor.routing.gather_ms", gather);
    out.set("core.expert.forward_segments_ms", expert);
    out.set("tensor.routing.scatter_ms", scatter);
    // Computed bytes (each gathered row is read once and written once).
    let gathered_bytes = (2 * pft.len() * h * 4) as f64;
    if gather > 0.0 {
        out.set(
            "tensor.routing.gather_gbs",
            gathered_bytes / (gather / 1e3) / 1e9,
        );
    }
    let forward = out.layer["core.pipeline.pft_forward_ms"];
    if forward > 0.0 {
        let stages = gate + build + gather + expert + scatter;
        out.set("core.pipeline.pft_glue_ms", forward - stages);
        out.set(
            "core.pipeline.routing_share",
            (gate + build + gather + scatter) / forward,
        );
    }

    // Top-k alone, on the last batch's score matrix.
    let (mut idx, mut val, mut order) = (Vec::new(), Vec::new(), Vec::new());
    let topk = probe_median_s(20, || {
        topk_rows_into(&gating.scores, rig.shape.k, &mut idx, &mut val, &mut order)
    });
    out.set("tensor.ops.topk_ms", topk * 1e3);
}

/// Direct kernel calls at this shape: one expert's GEMMs, and the grouped
/// GEMMs over a balanced routing of the whole batch.
fn kernel_probes(rig: &Rig, out: &mut Outcome) {
    const ITERS: usize = 20;
    let Shape { s, h, f, e, k, .. } = *rig.shape;
    let rows = s * k; // routed rows
    let m = rows / e; // mean rows per expert
    let a = inputs::tokens(rows, h, 1);
    let dy = inputs::tokens(rows, f, 2);
    let counts = vec![m; e];
    let w1 = |i: usize| rig.experts.experts[i].w1.as_slice();
    let w2 = |i: usize| rig.experts.experts[i].w2.as_slice();
    let flops = 2.0 * (m * h * f) as f64;

    let mut c = vec![0.0f32; m * f];
    let t = probe_median_s(ITERS, || {
        matmul_slices(&a.as_slice()[..m * h], m, h, w1(0), f, &mut c)
    });
    out.set("tensor.ops.matmul_gflops", flops / t / 1e9);
    let t = probe_median_s(ITERS, || {
        matmul_transpose_b_slices(&a.as_slice()[..m * h], m, h, w2(0), f, &mut c)
    });
    out.set("tensor.ops.matmul_tb_gflops", flops / t / 1e9);

    let mut c = vec![0.0f32; rows * f];
    let t = probe_median_s(ITERS, || {
        gemm_grouped(a.as_slice(), &counts, h, w1, f, &mut c)
    });
    out.set("tensor.par.gemm_grouped_ms", t * 1e3);
    // The two grouped GEMMs of the expert stage alone (no leases, no SiLU).
    let mut y = vec![0.0f32; rows * h];
    let pair = probe_median_s(ITERS, || {
        gemm_grouped(a.as_slice(), &counts, h, w1, f, &mut c);
        gemm_grouped(&c, &counts, f, w2, h, &mut y);
    });
    let forward = out.layer["core.pipeline.pft_forward_ms"];
    if forward > 0.0 {
        out.set("core.pipeline.gemm_share", pair * 1e3 / forward);
    }
    let t = probe_median_s(ITERS, || {
        gemm_grouped_transpose_b(a.as_slice(), &counts, h, w2, f, &mut c)
    });
    out.set("tensor.par.gemm_grouped_tb_ms", t * 1e3);
    let mut g = vec![0.0f32; e * h * f];
    let t = probe_median_s(ITERS, || {
        gemm_grouped_transpose_a(a.as_slice(), &counts, h, dy.as_slice(), f, &mut g)
    });
    out.set("tensor.par.gemm_grouped_ta_ms", t * 1e3);
}

/// The padded GShard-style baseline on the same batch (informational: the
/// paper's padding-free claim as a ratio).
fn dense_baseline(rig: &Rig, out: &mut Outcome) {
    let dense = DensePipeline {
        order: DenseDropOrder::WeightRanked,
    };
    let t = probe_median_s(3, || {
        let _ = dense.forward(
            &rig.batches[0],
            &rig.router,
            &rig.experts,
            &rig.spec,
            &mut ExecCtx::single(),
        );
    });
    out.set("core.pipeline.dense_forward_ms", t * 1e3);
    let forward = out.layer["core.pipeline.pft_forward_ms"];
    if forward > 0.0 {
        out.set("core.pipeline.pft_vs_dense_x", t * 1e3 / forward);
    }
}
