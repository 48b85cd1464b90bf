//! `dispatch_tiny_ep2`: the 2-rank padding-free forward at tiny dimensions.
//!
//! One unit is 64 `PaddingFreePipeline::forward` calls under
//! `ExecCtx::ep(..).with_state(..)` on each of two ranks. At h=8, f=8 the
//! GEMMs are negligible (about 6 % of a forward; at the issue's h=16 they
//! were 10-13 %, so the shape was re-sized): mailbox rendezvous, route
//! building and sorting, the metadata and payload all-to-alls and
//! per-collective pricing do the work. A runtime or mailbox change must show
//! here and leave `layer_*` unmoved.

use std::time::Instant;

use xmoe_collectives::{RankCtx, SimCluster};
use xmoe_core::gating::{GateScratch, GatingOutput, Router};
use xmoe_core::pft::{Pft, PftScratch};
use xmoe_core::pipeline::{
    ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline, PipelineError, PooledSingleState,
};
use xmoe_core::ExpertShard;
use xmoe_tensor::{gather_rows_into, gemm_grouped, Tensor};

use crate::harness::{
    plan_units, probe_median_s, timed_units, LoopStats, Opts, Outcome, RoundSync, ROUNDS,
};
use crate::spans::Recorder;
use crate::workloads::sim;
use crate::{inputs, stats};

const WORLD: usize = 2;
const S: usize = 64;
const H: usize = 8;
const F: usize = 8;
const E: usize = 32;
const K: usize = 6;
const FORWARDS_PER_UNIT: usize = 64;
/// Long enough that a set-up is mostly warm units: four cold units alone
/// made `setup_s` swing by 20 % with the machine's state.
const WARMUP_UNITS: usize = 8;
const RING: usize = 8;
const WEIGHT_SEED: u64 = 0xD15B_0001;
/// No drops: every rank's output is comparable to the single-rank reference.
const CAPACITY: usize = 10_000;

struct RankRound {
    stats: LoopStats,
    rec: Recorder,
    /// One unit's forwards as a deterministic window (see `sim::Window`).
    window: sim::Window,
    /// Output of batch 0 and the batch itself, for the reference check.
    sample: Option<(Tensor, Tensor)>,
    probes: Option<Probes>,
    error: Option<PipelineError>,
}

/// Per-layer probes of the traced run (seconds).
struct Probes {
    barrier_s: f64,
    all_to_all_v_s: f64,
    price_s: f64,
    gate_s: f64,
    pft_s: f64,
    gather_s: f64,
    expert_s: f64,
    gemm_s: f64,
}

struct Forward<'a> {
    router: &'a Router,
    spec: &'a MoeLayerSpec,
    shard: ExpertShard,
    batches: Vec<Tensor>,
    state: PooledSingleState,
    calls: usize,
    error: Option<PipelineError>,
}

impl Forward<'_> {
    /// Forward batch `i` of the ring.
    fn call(&mut self, i: usize, ctx: &mut RankCtx) -> Result<Tensor, PipelineError> {
        PaddingFreePipeline.forward(
            &self.batches[i % RING],
            self.router,
            &self.shard,
            self.spec,
            &mut ExecCtx::ep(&ctx.world, &mut ctx.clock).with_state(&mut self.state),
        )
    }

    /// One unit: `FORWARDS_PER_UNIT` forwards over the batch ring.
    fn unit(&mut self, ctx: &mut RankCtx, rec: &mut Recorder) -> bool {
        let mut ok = true;
        for _ in 0..FORWARDS_PER_UNIT {
            let i = self.calls;
            let result = rec.scope("core.pipeline.ep_forward", |_| self.call(i, ctx));
            self.calls += 1;
            if let Err(e) = result {
                self.error.get_or_insert(e);
                ok = false;
            }
        }
        // Spans of finished forwards are not needed; without this the
        // clock's span list (and the heap) grows with the run length.
        ctx.clock.reset_buckets();
        ok
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let tokens_per_unit = (FORWARDS_PER_UNIT * S * WORLD) as f64;
    let mut out = Outcome::new("dispatch_tiny_ep2", tokens_per_unit);
    let router = Router::new(H, E, K, WEIGHT_SEED);
    let spec = MoeLayerSpec::new(E, CAPACITY);
    let epoch = Instant::now();
    let mut sim_forward_ms = Vec::new();
    let mut gemm_pair_ms = 0.0;

    for round in 0..ROUNDS {
        let last = round + 1 == ROUNDS;
        let sync = RoundSync::start(WORLD);
        let first_unit = out.total_units();
        let mut ranks = SimCluster::frontier(WORLD).run(|ctx| {
            let lead = ctx.rank == 0;
            let mut rec = Recorder::new(ctx.rank as u32, epoch, 1 << 15);
            rec.enabled = false;
            let mut fwd = Forward {
                router: &router,
                spec: &spec,
                shard: ExpertShard::for_rank(ctx.rank, WORLD, E, H, F, WEIGHT_SEED + 1),
                batches: inputs::token_ring(RING, S, H, opts.seed, "dispatch", ctx.rank),
                state: PooledSingleState::default(),
                calls: 0,
                error: None,
            };
            let mut warm = Vec::with_capacity(WARMUP_UNITS);
            for _ in 0..WARMUP_UNITS {
                let t = Instant::now();
                fwd.unit(ctx, &mut rec);
                warm.push(t.elapsed().as_secs_f64());
            }
            let plan = lead.then(|| {
                plan_units(
                    stats::median(&warm[WARMUP_UNITS / 2..]),
                    opts.unit_budget_s(),
                    30,
                )
            });
            let n = sync.agree(plan);

            let stats = timed_units(n, opts.trace, first_unit, &mut rec, |_, rec| {
                fwd.unit(ctx, rec)
            });

            let window = sim::window(ctx, |ctx| {
                for i in 0..FORWARDS_PER_UNIT {
                    if let Err(e) = fwd.call(i, ctx) {
                        fwd.error.get_or_insert(e);
                    }
                }
            });
            let (mut sample, mut probes) = (None, None);
            if last {
                sample = fwd.call(0, ctx).ok().map(|y| (fwd.batches[0].clone(), y));
            }
            if opts.trace && last {
                probes = Some(run_probes(&fwd, ctx));
            }
            RankRound {
                stats,
                rec,
                window,
                sample,
                probes,
                error: fwd.error,
            }
        });
        out.setup_s.push(sync.setup_s());
        out.attempted += ((WARMUP_UNITS + 1) * FORWARDS_PER_UNIT) as u64; // warm-up + window

        if let Some(e) = ranks.iter().find_map(|r| r.error.as_ref()) {
            out.check("every forward returns Ok", false, e.to_string());
        }
        if last {
            check_against_reference(&ranks, &router, &spec, &mut out);
        }
        let probes = ranks[0].probes.take();
        let mut ranks = ranks.into_iter();
        let lead = ranks.next().expect("rank 0");
        let mut windows = vec![lead.window];
        out.vol_switches += ranks
            .as_slice()
            .iter()
            .map(|r| r.stats.vol_switches)
            .sum::<u64>();
        // Units are groups of forwards; operations are forwards.
        let lead_units = lead.stats.units() as u64;
        out.absorb(lead.stats);
        out.attempted += lead_units * (FORWARDS_PER_UNIT as u64 - 1);
        out.recorders.push(lead.rec);
        for r in ranks {
            windows.push(r.window);
            out.recorders.push(r.rec);
        }
        sim_forward_ms.push(sim::window_step_ms(&windows, FORWARDS_PER_UNIT));
        if opts.trace && last {
            sim::window_metrics(&windows, FORWARDS_PER_UNIT, &mut out);
            if let Some(p) = probes {
                gemm_pair_ms = p.gemm_s * 1e3;
                probe_metrics(&p, &mut out);
            }
        }
    }

    let sim_ms = sim_forward_ms[0];
    out.check(
        "simulated time per forward is identical across rounds",
        sim_ms > 0.0
            && sim_forward_ms
                .iter()
                .all(|s| s.to_bits() == sim_ms.to_bits()),
        format!("{sim_ms} ms"),
    );
    if opts.trace {
        out.set("sim_step_ms", sim_ms);
        let mut forward_ms = Vec::new();
        for r in &out.recorders {
            forward_ms.extend(r.durations_ms("core.pipeline.ep_forward"));
        }
        let forward = stats::median(&forward_ms);
        out.set("core.pipeline.ep_forward_ms", forward);
        let skew = sim::rank_skew_ms(&out.recorders, "core.pipeline.ep_forward", |s| s.start_ns);
        out.set("core.pipeline.ep_rank_skew_ms", skew);
        if forward > 0.0 {
            let routing = out.layer["core.gating.gate_ms"]
                + out.layer["core.pft.construct_ms"]
                + out.layer["tensor.routing.gather_ms"];
            out.set("core.pipeline.gemm_share", gemm_pair_ms / forward);
            out.set("core.pipeline.routing_share", routing / forward);
        }
    }
    out
}

/// Every rank's EP output must match the single-rank reference (all experts
/// local) at the tolerance `tests/pipeline_equivalence.rs` uses.
fn check_against_reference(
    ranks: &[RankRound],
    router: &Router,
    spec: &MoeLayerSpec,
    out: &mut Outcome,
) {
    let full = ExpertShard::full(E, H, F, WEIGHT_SEED + 1);
    let mut worst = 0.0f32;
    let mut all = true;
    for r in ranks {
        let Some((x, y)) = &r.sample else {
            all = false;
            continue;
        };
        match PaddingFreePipeline.forward(x, router, &full, spec, &mut ExecCtx::single()) {
            Ok(want) => {
                worst = worst.max(y.max_abs_diff(&want));
                all &= y.allclose(&want, 2e-4);
            }
            Err(_) => all = false,
        }
    }
    out.check(
        "EP output == single-rank reference (tol 2e-4)",
        all,
        format!("max abs diff {worst}"),
    );
}

/// Bare collectives and the local stages at this workload's sizes. Both
/// ranks run the collective probes in lockstep; the local ones need none.
fn run_probes(fwd: &Forward, ctx: &mut RankCtx) -> Probes {
    const ITERS: usize = 300;
    let barrier_s = probe_median_s(ITERS, || {
        let _ = ctx.world.barrier(&mut ctx.clock);
    });
    // The dispatch payload one rank sends: its routed rows, split evenly.
    let rows_per_dst = S * K / WORLD;
    let mut xs = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let send = vec![vec![0.5f32; rows_per_dst * H]; WORLD];
        let t = Instant::now();
        let _ = ctx.world.all_to_all_v(send, &mut ctx.clock);
        xs.push(t.elapsed().as_secs_f64());
    }
    let all_to_all_v_s = stats::median(&xs);
    ctx.clock.reset_buckets();

    let group: Vec<usize> = (0..WORLD).collect();
    let bytes = (rows_per_dst * H * 4) as u64;
    let price_s = probe_median_s(ITERS, || {
        std::hint::black_box(ctx.cost().alltoallv_time(&group, &|_, _| bytes));
    });

    let x = &fwd.batches[0];
    let mut gate_scratch = GateScratch::default();
    let mut gating = GatingOutput::default();
    let mut pft_scratch = PftScratch::default();
    let mut pft = Pft::default();
    let mut dispatch = Tensor::zeros(0, 0);
    let gate_s = probe_median_s(ITERS, || {
        fwd.router.gate_into(x, &mut gate_scratch, &mut gating)
    });
    let pft_s = probe_median_s(ITERS, || {
        Pft::construct_into(
            &gating,
            E,
            CAPACITY,
            fwd.spec.policy,
            &mut pft_scratch,
            &mut pft,
        )
    });
    let gather_s = probe_median_s(ITERS, || gather_rows_into(x, &pft.token_ids, &mut dispatch));
    // What a rank's experts receive on average: S*K rows, spread evenly.
    let local = E / WORLD;
    let counts = vec![S * K / local; local];
    let rows = inputs::tokens(S * K, H, 3);
    let expert_s = probe_median_s(ITERS, || {
        std::hint::black_box(fwd.shard.forward_segments(&rows, &counts));
    });
    // The two grouped GEMMs of the expert stage alone (no leases, no SiLU).
    let w1 = |i: usize| fwd.shard.experts[i].w1.as_slice();
    let w2 = |i: usize| fwd.shard.experts[i].w2.as_slice();
    let mut hidden = vec![0.0f32; S * K * F];
    let mut y = vec![0.0f32; S * K * H];
    let gemm_s = probe_median_s(ITERS, || {
        gemm_grouped(rows.as_slice(), &counts, H, w1, F, &mut hidden);
        gemm_grouped(&hidden, &counts, F, w2, H, &mut y);
    });
    Probes {
        barrier_s,
        all_to_all_v_s,
        price_s,
        gate_s,
        pft_s,
        gather_s,
        expert_s,
        gemm_s,
    }
}

fn probe_metrics(p: &Probes, out: &mut Outcome) {
    out.set("collectives.comm.barrier_us", p.barrier_s * 1e6);
    out.set("collectives.comm.all_to_all_v_us", p.all_to_all_v_s * 1e6);
    out.set("topology.cost.alltoallv_price_us", p.price_s * 1e6);
    out.set("core.gating.gate_ms", p.gate_s * 1e3);
    out.set("core.pft.construct_ms", p.pft_s * 1e3);
    out.set("tensor.routing.gather_ms", p.gather_s * 1e3);
    out.set("core.expert.forward_segments_ms", p.expert_s * 1e3);
}
