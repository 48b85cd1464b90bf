//! `bench hotpath` — zero-allocation steady state + memory telemetry.
//!
//! Drives all four pipelines (dense, pft, blocksparse, rbd) plus the grouped
//! expert GEMM under the hosting binary's counting global allocator and
//! records, per pipeline: tokens/s, steady-state allocations per step, the
//! measured peak working set in bytes and the analytic activation bytes
//! from `core::memory`. The pft record is a full pooled training step;
//! pft, blocksparse, rbd and grouped are gated at exactly zero allocs/step
//! after warm-up, pft additionally at the analytic working-set slack. Dense
//! allocates its padded slab by design and is telemetry only. The
//! pooled-over-owned ratios of pft, blocksparse and rbd and the grouped
//! record's grouped-over-sequential ratio are recorded ungated: "owned" is
//! the pooled code on a throwaway state, so that ratio is allocation cost
//! plus run-to-run noise, and `bench gemm` owns the grouped speed gate.
//! `--smoke` shortens the timed loops.

use std::cell::RefCell;

use xmoe_collectives::SimCluster;
use xmoe_core::config::{DType, MoeModelConfig};
use xmoe_core::expert::{expert_ffn, ExpertShard};
use xmoe_core::gating::{DropPolicy, Router};
use xmoe_core::memory::{moe_layer_activation, MoeSystem};
use xmoe_core::pipeline::{
    BlockSparsePipeline, DenseDropOrder, DensePipeline, ExecCtx, MoeLayerSpec, Pipeline,
    PooledSingleState, RbdPipeline,
};
use xmoe_core::rbd::{PilotPolicy, RbdComms};
use xmoe_tensor::{thread_tracked_allocs, CountingAlloc, DetRng, Tensor, Workspace};
use xmoe_train::{MoeTrainScratch, TrainableMoe};

use crate::spine::{bench, each, int, print_records, tag, Check, Env, Record, Val};
use crate::time_interleaved;

bench!(hotpath, "zero-allocation steady state + memory telemetry");

/// Hot-path config: small enough that every kernel stays below its
/// parallelism cutoff (the serial schedule — the persistent worker pool in
/// `xmoe_tensor::par` never allocates after startup, but keeping these
/// records serial isolates the arena accounting from scheduling), large
/// enough that all experts stay populated. `b = k*s = 128` routed rows.
/// The `grouped` record is the deliberate exception: it sits *above* the
/// cutoff so the pool's grouped expert GEMM is what gets measured.
const HOT_S: usize = 32;
const HOT_H: usize = 8;
const HOT_F: usize = 4;
const HOT_E: usize = 8;
const HOT_K: usize = 2;
/// `[seq, hidden, ffn, experts, top_k]` of the four pipeline records.
const HOT_DIMS: [usize; 5] = [HOT_S, HOT_H, HOT_F, HOT_E, HOT_K];

/// Measured-over-analytic bound for the pooled PFT *training* record.
/// `memory::moe_layer_activation` counts the four forward activation buffers
/// of one X-MoE layer (dispatch, combine, intermediate, mask metadata); the
/// measured steady-state working set additionally retains the saved hidden
/// layers, the backward's `d_h` (the combine backward overwrites the saved
/// outputs with `d_y`; the expert input is read again from the layer input
/// by token id, not saved), the router state (logits, scores, top-k arrays,
/// their gradients), gradient-staging temporaries, the TN kernel's
/// per-lane segment pack and malloc size-class rounding. It reads 2.14x /
/// 2.17x / 2.27x at `XMOE_THREADS` = 1 / 2 / 8, `--smoke` and full run
/// alike; the bound is that maximum plus a tenth. Anything past it means a
/// buffer joined the steady state that the model knows nothing about. At
/// these toy dims one `[n, H]` buffer is only 2 KB: the saved input copy
/// read 2.32x–2.45x, under the bound, so `tests/arena_oracles.rs` is what
/// holds the routed-row count. (Distinct from `memory::ALLOCATOR_SLACK`,
/// which models GPU-side caching-allocator fragmentation on top of the same
/// analytic accounting.)
const TRAIN_SLACK: f64 = 2.5;

/// The analytic activation bytes of one fp32 (the tensor library's element
/// type) MoE layer of the given shape under `sys`'s accounting.
fn analytic_bytes(sys: MoeSystem, [seq, hidden, ffn, experts, top_k]: [usize; 5]) -> u64 {
    let mut cfg = MoeModelConfig::custom("hotpath", seq, hidden, ffn, experts, top_k, 1);
    cfg.dtype = DType::F32;
    moe_layer_activation(&cfg, sys, seq, 1).total()
}

fn hot_inputs(seed: u64) -> Vec<Tensor> {
    (0..4)
        .map(|i| Tensor::rand_uniform(HOT_S, HOT_H, 1.0, seed + i))
        .collect()
}

/// Step counts of one measurement: warm-up, the counted allocation window,
/// and `passes` timed loops of `timed` steps each.
struct Window {
    warm: usize,
    count: usize,
    timed: usize,
    passes: usize,
}

/// Where a measurement reads its allocation counter.
enum Meter<'a> {
    /// A single-threaded record: the process-wide counter, plus the peak
    /// of the counted window over `live0` — the live bytes read *before*
    /// the measured path's retained state existed, so the delta is exactly
    /// the steady-state working set.
    Process {
        alloc: &'a CountingAlloc,
        live0: usize,
    },
    /// One rank (= one thread) of a cluster: `thread_tracked_allocs` is
    /// exactly this rank's hot-path heap traffic, with no noise from
    /// sibling threads on the process-wide counter; `fence` (a barrier)
    /// brackets every timed loop so each rank times the cluster.
    Rank { fence: &'a dyn Fn() },
}

impl Meter<'_> {
    fn allocs(&self) -> u64 {
        match self {
            Meter::Process { alloc, .. } => alloc.stats().allocs,
            Meter::Rank { .. } => thread_tracked_allocs(),
        }
    }

    fn fence(&self) {
        if let Meter::Rank { fence } = self {
            fence();
        }
    }
}

struct Measured {
    allocs_per_step: f64,
    /// Peak bytes of the counted window (`Meter::Process` only).
    peak: usize,
    /// Fastest timed loop of `step`, seconds.
    t: f64,
    /// Fastest timed loop of the baseline, if one was given.
    t_base: Option<f64>,
}

/// The one measurement loop: warm up, count allocations over a window of
/// `step`, then time `step` against `baseline` in interleaved passes
/// (min per arm, which damps one-sided OS noise).
fn measure(
    meter: Meter,
    w: &Window,
    step: &mut dyn FnMut(usize),
    baseline: Option<&mut dyn FnMut(usize)>,
) -> Measured {
    (0..w.warm).for_each(&mut *step);
    if let Meter::Process { alloc, .. } = &meter {
        alloc.reset_peak();
    }
    let a0 = meter.allocs();
    (0..w.count).for_each(&mut *step);
    let allocs_per_step = (meter.allocs() - a0) as f64 / w.count as f64;
    let peak = match &meter {
        Meter::Process { alloc, live0 } => alloc.stats().peak_bytes.saturating_sub(*live0),
        Meter::Rank { .. } => 0,
    };
    let mut timed_step = || (0..w.timed).for_each(&mut *step);
    let mut timed_base = baseline.map(|b| move || (0..w.timed).for_each(&mut *b));
    let mut arms: Vec<&mut dyn FnMut()> = vec![&mut timed_step];
    arms.extend(timed_base.as_mut().map(|b| b as &mut dyn FnMut()));
    let best = time_interleaved(w.passes, &|| meter.fence(), &mut arms);
    Measured {
        allocs_per_step,
        peak,
        t: best[0],
        t_base: best.get(1).copied(),
    }
}

fn record(
    pipeline: &str,
    dims: [usize; 5],
    ranks: usize,
    w: &Window,
    m: &Measured,
    analytic: u64,
) -> Record {
    let keys = ["seq", "hidden", "ffn", "experts", "top_k"];
    let mut r = Record::default().cfg("pipeline", tag(pipeline));
    for (key, dim) in keys.iter().zip(dims) {
        r = r.cfg(key, int(dim));
    }
    let tokens = (ranks * dims[0] * w.timed) as f64;
    r = r
        .cfg("ranks", int(ranks))
        .cfg("steps", int(w.timed))
        .metric("tokens_per_s", Val::Fixed(tokens / m.t, 3))
        .metric(
            "steady_state_allocs_per_step",
            Val::Fixed(m.allocs_per_step, 3),
        )
        .metric("peak_bytes", int(m.peak));
    if let Some(t_base) = m.t_base {
        r = r
            .metric("unpooled_tokens_per_s", Val::Fixed(tokens / t_base, 3))
            .metric("speedup", Val::Fixed(t_base / m.t, 4));
    }
    r.metric("analytic_bytes", Val::Int(analytic))
}

/// The PFT record: a full pooled training step (zero_grads + forward +
/// backward) vs the owned-allocation baseline, same weights, same inputs,
/// same run.
fn pft(alloc: &CountingAlloc, smoke: bool) -> Record {
    let w = Window {
        warm: 12,
        count: 32,
        timed: if smoke { 80 } else { 800 },
        passes: 3,
    };
    let layer = || {
        TrainableMoe::new(
            HOT_H,
            HOT_F,
            HOT_E,
            HOT_K,
            10_000,
            DropPolicy::CapacityOnly,
            0xBE7A,
        )
    };
    let (mut pooled, mut owned) = (layer(), layer());
    let inputs = hot_inputs(0xD00D);
    let d_out = Tensor::rand_uniform(HOT_S, HOT_H, 1.0, 0xD0E0);
    let live0 = alloc.stats().live_bytes;
    let mut st = MoeTrainScratch::default();
    let m = measure(
        Meter::Process { alloc, live0 },
        &w,
        &mut |i| {
            pooled.zero_grads();
            let out = pooled.forward_pooled(&inputs[i % inputs.len()], &mut st);
            let d_x = pooled.backward_pooled(&mut st, &d_out);
            st.ws.recycle(d_x);
            st.ws.recycle(out);
        },
        Some(&mut |i| {
            owned.zero_grads();
            let (_out, ctx) = owned.forward(&inputs[i % inputs.len()]);
            let _ = owned.backward_scaled(&ctx, &d_out, 1.0);
        }),
    );
    let analytic = analytic_bytes(MoeSystem::XMoe, HOT_DIMS);
    record("pft", HOT_DIMS, 1, &w, &m, analytic)
}

/// A single-rank forward record. `pooled = false` is the dense
/// (DeepSpeed-MoE-style padded slab) baseline, which allocates its `E x C`
/// slab fresh every step by design — recorded, not gated; its
/// measured-vs-analytic ratio shows the padding waste the PFT path removes.
/// `pooled = true` runs `pipe` through a shared pooled single-rank state —
/// allocation-free once the block-padded capacities reach their fixed point
/// — against the same engine on a fresh state per call, paying every
/// allocation again.
fn single_rank(
    alloc: &CountingAlloc,
    smoke: bool,
    name: &str,
    pipe: &dyn Pipeline,
    seed: u64,
    pooled: bool,
) -> Record {
    // The dense slab is sized by the capacity factor and accounted the
    // DeepSpeed-MoE way; the pooled pipelines are dropless X-MoE layers.
    let (capacity, sys) = if pooled {
        (10_000, MoeSystem::XMoe)
    } else {
        let slab = (1.25 * (HOT_S * HOT_K) as f64 / HOT_E as f64).ceil() as usize;
        (slab, MoeSystem::DsMoe)
    };
    let w = Window {
        warm: if pooled { 12 } else { 4 },
        count: 32,
        timed: if smoke { 80 } else { 800 },
        passes: 2,
    };
    let router = Router::new(HOT_H, HOT_E, HOT_K, seed);
    let spec = MoeLayerSpec::new(HOT_E, capacity);
    let experts = ExpertShard::for_rank(0, 1, HOT_E, HOT_H, HOT_F, seed + 1);
    let inputs = hot_inputs(seed + 2);
    let live0 = alloc.stats().live_bytes;
    let meter = Meter::Process { alloc, live0 };
    let mut state = PooledSingleState::default();
    let mut owned = |i: usize| {
        let x = &inputs[i % inputs.len()];
        let _ = pipe.forward(x, &router, &experts, &spec, &mut ExecCtx::single());
    };
    let mut shared = |i: usize| {
        let x = &inputs[i % inputs.len()];
        let mut ex = ExecCtx::pooled(&mut state);
        let out = pipe.forward(x, &router, &experts, &spec, &mut ex);
        state.ws.recycle(out.expect("single-rank pooled forward"));
    };
    let m = if pooled {
        measure(meter, &w, &mut shared, Some(&mut owned))
    } else {
        measure(meter, &w, &mut owned, None)
    };
    record(name, HOT_DIMS, 1, &w, &m, analytic_bytes(sys, HOT_DIMS))
}

/// The distributed RBD forward on the threads-as-ranks runtime, pooled vs
/// the owned-allocation baseline (the unified engine run against a fresh
/// state every call). The record keeps the worst rank's allocation count
/// and, the barrier fences making every rank's elapsed ≈ the cluster's, the
/// slowest rank's times (the straggler defines wall-clock). The rng seed
/// cycle recurs (period 4) so every leased capacity reaches its fixed point
/// during warm-up. The peak spans the whole cluster run, baseline included.
fn rbd(alloc: &CountingAlloc, smoke: bool) -> Record {
    let w = Window {
        warm: 16,
        count: 16,
        timed: if smoke { 16 } else { 128 },
        passes: 2,
    };
    let ranks = 4usize;
    let router = Router::new(HOT_H, HOT_E, HOT_K, 0x4BD0);
    let spec = MoeLayerSpec::new(HOT_E, 10_000);
    let live0 = alloc.stats().live_bytes;
    alloc.reset_peak();
    let per_rank = SimCluster::frontier(ranks).run(|ctx| {
        let shard = ExpertShard::for_rank(ctx.rank, ranks, HOT_E, HOT_H, HOT_F, 0x4BD1);
        let comms = RbdComms::create(&ctx.world, &mut ctx.clock).expect("fault-free rbd comms");
        let tokens = Tensor::rand_uniform(HOT_S, HOT_H, 1.0, 0x4BD2 + ctx.rank as u64);
        let mut state = PooledSingleState::default();
        let (rank, world) = (ctx.rank, &ctx.world);
        let clock = RefCell::new(&mut ctx.clock);
        let pipe = RbdPipeline {
            policy: PilotPolicy::Random,
        };
        // One forward; `state = None` is the owned baseline.
        let forward = |step: usize, state: Option<&mut PooledSingleState>| {
            let mut rng = DetRng::new(0x4BD3 + ((step % 4) * ranks + rank) as u64);
            let mut clock = clock.borrow_mut();
            let mut ex = ExecCtx::hier(&comms, &mut clock).with_rng(&mut rng);
            ex.state = state;
            pipe.forward(&tokens, &router, &shard, &spec, &mut ex)
                .expect("fault-free rbd forward")
        };
        let fence = || {
            world
                .barrier(&mut clock.borrow_mut())
                .expect("fault-free barrier")
        };
        measure(
            Meter::Rank { fence: &fence },
            &w,
            &mut |step| {
                let out = forward(step, Some(&mut state));
                state.ws.recycle(out);
            },
            Some(&mut |step| drop(forward(step, None))),
        )
    });
    let worst = |f: fn(&Measured) -> f64| per_rank.iter().map(f).fold(0.0, f64::max);
    let m = Measured {
        allocs_per_step: worst(|m| m.allocs_per_step),
        peak: alloc.stats().peak_bytes.saturating_sub(live0),
        t: worst(|m| m.t),
        t_base: Some(worst(|m| m.t_base.expect("rbd has a baseline"))),
    };
    let analytic = analytic_bytes(MoeSystem::XMoe, HOT_DIMS) * ranks as u64;
    record("rbd", HOT_DIMS, ranks, &w, &m, analytic)
}

/// The grouped record: the whole-shard forward (`forward_segments_pooled`,
/// two grouped GEMM batches on the persistent pool) against the
/// back-to-back per-expert loop (the same body, one expert and fresh
/// buffers per call) on the same weights and segments. Many
/// small experts at fine-grained-FFN widths — the shape the pool's
/// expert-level scheduling targets; both batches sit above the 128^3
/// parallel cutoff (~512 rows x 64 -> 128 = 4.2 M MACs each).
fn grouped(alloc: &CountingAlloc, smoke: bool) -> Record {
    let (experts, hidden, ffn, rows_per_expert) = (32usize, 64usize, 128usize, 16usize);
    let w = Window {
        warm: 6,
        count: 8,
        timed: if smoke { 40 } else { 200 },
        passes: 3,
    };
    // Ragged segments (±1 around rows-per-expert), like router output.
    let counts: Vec<usize> = (0..experts)
        .map(|e| rows_per_expert - 1 + (e % 3))
        .collect();
    let total: usize = counts.iter().sum();
    let shard = ExpertShard::full(experts, hidden, ffn, 0x6E60);
    let input = Tensor::rand_uniform(total, hidden, 1.0, 0x6E61);
    let live0 = alloc.stats().live_bytes;
    let mut ws = Workspace::new();
    let m = measure(
        Meter::Process { alloc, live0 },
        &w,
        &mut |_| {
            let y = shard.forward_segments_pooled(&input, &counts, &mut ws);
            ws.recycle(y);
        },
        Some(&mut |_| {
            let mut off = 0usize;
            for (e, &cnt) in counts.iter().enumerate() {
                let x = &input.as_slice()[off * hidden..(off + cnt) * hidden];
                let (mut h_pre, mut h_act) = (vec![0.0; cnt * ffn], vec![0.0; cnt * ffn]);
                let mut xy = x.to_vec();
                let one = &shard.experts[e..=e];
                expert_ffn(one, &[cnt], &mut xy, &mut h_pre, &mut h_act);
                off += cnt;
            }
        }),
    );
    let dims = [total, hidden, ffn, experts, 1];
    let analytic = analytic_bytes(MoeSystem::XMoe, dims);
    record("grouped", dims, 1, &w, &m, analytic)
}

fn run(smoke: bool, env: &Env) -> (Vec<Record>, Vec<Check>) {
    let alloc = env.alloc;
    let before = alloc.stats().allocs;
    drop(std::hint::black_box(Box::new(0u8)));
    assert!(
        alloc.stats().allocs > before,
        "bench hotpath needs env.alloc installed as the #[global_allocator]"
    );
    println!(
        "== bench hotpath — zero-allocation steady state (s={HOT_S} h={HOT_H} f={HOT_F} \
         e={HOT_E} k={HOT_K}{}) ==",
        if smoke { ", smoke" } else { "" }
    );
    println!(
        "worker pool: {} lane(s) ({}) on {} core(s)",
        xmoe_tensor::pool_size(),
        match std::env::var("XMOE_THREADS") {
            Ok(v) => format!("XMOE_THREADS={v}"),
            Err(_) => "default".into(),
        },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let dense = DensePipeline {
        order: DenseDropOrder::TokenOrder,
    };
    let blocksparse = BlockSparsePipeline { block: 4 };
    let records = vec![
        pft(alloc, smoke),
        single_rank(alloc, smoke, "dense", &dense, 0xDE53, false),
        single_rank(alloc, smoke, "blocksparse", &blocksparse, 0xB10C, true),
        rbd(alloc, smoke),
        grouped(alloc, smoke),
    ];
    print_records("hot-path records", &records);
    (records, Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    each(recs, |r| {
        r.tag("pipeline")?;
        r.positive("tokens_per_s")?;
        r.positive("peak_bytes")?;
        r.positive("analytic_bytes")?;
        let allocs = r.num("steady_state_allocs_per_step")?;
        if allocs < 0.0 {
            return Err(format!("steady_state_allocs_per_step {allocs} is negative"));
        }
        Ok(())
    })?;
    let mut checks = Vec::new();
    // Dense is telemetry only: it must be there, nothing about it is gated.
    Record::tagged(recs, "pipeline", "dense")?;
    for (pipeline, what) in [
        ("pft", "pft pooled training step"),
        ("blocksparse", "blocksparse pooled forward"),
        ("rbd", "rbd pooled forward (worst rank)"),
        ("grouped", "grouped pooled shard forward (pool engaged)"),
    ] {
        let r = Record::tagged(recs, "pipeline", pipeline)?;
        let allocs = r.num("steady_state_allocs_per_step")?;
        checks.push(Check::new(
            &format!("{what} is allocation-free at steady state"),
            allocs == 0.0,
            format!("{allocs:.2} allocs/step after warm-up"),
        ));
        r.positive("speedup")?;
        if pipeline == "pft" {
            let (peak, analytic) = (r.num("peak_bytes")?, r.num("analytic_bytes")?);
            let ratio = peak / analytic;
            checks.push(Check::new(
                "pft measured working set within the analytic training slack",
                (1.0..=TRAIN_SLACK).contains(&ratio),
                format!(
                    "measured {peak} B / analytic {analytic} B = {ratio:.2}x \
                     (bound {TRAIN_SLACK:.1}x)"
                ),
            ));
        }
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spine::testing::{failure, set};

    /// Records shaped like a passing run. A live run cannot be a unit test:
    /// sibling tests allocate on the process-wide counter, and the speedups
    /// are wall-clock (`tests/zero_alloc.rs` holds the live 0-alloc window
    /// in a single-test binary).
    fn passing() -> Vec<Record> {
        let w = Window {
            warm: 0,
            count: 1,
            timed: 80,
            passes: 1,
        };
        let m = |allocs_per_step: f64, peak, t_base| Measured {
            allocs_per_step,
            peak,
            t: 1e-3,
            t_base,
        };
        vec![
            record("pft", HOT_DIMS, 1, &w, &m(0.0, 16993, Some(1.25e-3)), 7488),
            record("dense", HOT_DIMS, 1, &w, &m(22.0, 10560, None), 28160),
            record(
                "blocksparse",
                HOT_DIMS,
                1,
                &w,
                &m(0.0, 20368, Some(1.1e-3)),
                7488,
            ),
            record(
                "rbd",
                HOT_DIMS,
                4,
                &w,
                &m(0.0, 1067866, Some(1.6e-3)),
                29952,
            ),
            record(
                "grouped",
                [496, 64, 128, 32, 1],
                1,
                &w,
                &m(0.0, 524384, Some(0.96e-3)),
                795372,
            ),
        ]
    }

    #[test]
    fn a_passing_run_passes_and_each_gate_is_live() {
        let recs = passing();
        // grouped at 0.96x passes: `bench gemm` owns that speed gate; a
        // pooled/owned ratio under 1 is telemetry too.
        assert_eq!(failure(&BENCH, &recs), None);
        for i in [0, 3] {
            let slow = set(&recs, i, "speedup", Val::Fixed(0.9, 4));
            assert_eq!(failure(&BENCH, &slow), None, "speedup is ungated");
        }
        assert!(recs[1].num("speedup").is_err(), "dense has no baseline");

        for (i, what) in [
            (0, "pft pooled training step"),
            (2, "blocksparse"),
            (3, "rbd"),
            (4, "grouped"),
        ] {
            let leaky = set(&recs, i, "steady_state_allocs_per_step", Val::Fixed(1.0, 3));
            let why = failure(&BENCH, &leaky).expect("one alloc per step");
            assert!(
                why.contains(what) && why.contains("allocation-free"),
                "{why}"
            );
            assert!(why.contains("1.00 allocs/step"), "{why}");
        }
        let over = (TRAIN_SLACK * 7488.0) as u64 + 1;
        let bloated = set(&recs, 0, "peak_bytes", Val::Int(over));
        let why = failure(&BENCH, &bloated).expect("working set over the slack");
        assert!(why.contains("within the analytic training slack"), "{why}");

        let why = failure(&BENCH, &recs[..4]).expect("no grouped record");
        assert_eq!(why, "missing the pipeline = grouped record");
    }
}
