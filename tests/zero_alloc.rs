//! The allocation-regression gate as a tier-1 test: after warm-up, a pooled
//! MoE training step performs **zero** transient heap allocations, and the
//! single-rank pooled forwards likewise. This file is its own test binary so
//! the counting `#[global_allocator]` observes only this test's work, and it
//! holds exactly one `#[test]` so no sibling test thread allocates
//! concurrently with the counted window.
//!
//! The last window is the whole distributed train step on two ranks
//! (attention, dense MLP, MoE, head, gradient all-reduces, Adam): every
//! buffer of it is a lease of `DistMoeLm`'s per-rank arena or lives in
//! grow-once scratch, so after warm-up it allocates nothing either.
//!
//! The training/forward windows keep every kernel below its parallelism
//! threshold, gating the serial schedule; the grouped-GEMM window at the end
//! runs *above* the cutoff, gating the persistent worker pool itself: after
//! the pool's one-time startup (warmed up outside the window, like the
//! arenas) a parallel grouped step is just as allocation-free, because task
//! scheduling uses a grow-once panel arena and pool workers charge any
//! incidental heap traffic to the untracked counter.

use xmoe::collectives::SimCluster;
use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::{DropPolicy, Router};
use xmoe::core::pipeline::{
    BlockSparsePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline, PooledSingleState,
    RbdPipeline,
};
use xmoe::core::rbd::{PilotPolicy, RbdComms};
use xmoe::tensor::{gemm_grouped, CountingAlloc, DetRng, Tensor, Workspace};
use xmoe::train::{
    build_moe_layers, DistMoeLm, MarkovCorpus, MoeTrainScratch, TrainConfig, TrainableMoe,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn steady_state_pooled_hot_path_allocates_nothing() {
    let (s, h, f, e, k) = (32usize, 16usize, 8usize, 8usize, 2usize);
    let inputs: Vec<Tensor> = (0..4)
        .map(|i| Tensor::rand_uniform(s, h, 1.0, 0x2E30 + i))
        .collect();

    // -- full training step: router + PFT + experts + exact backward -----
    let mut layer = TrainableMoe::new(h, f, e, k, 10_000, DropPolicy::CapacityOnly, 0x2E20);
    let d_out = Tensor::rand_uniform(s, h, 1.0, 0x2E40);
    let mut st = MoeTrainScratch::default();
    let train_step = |layer: &mut TrainableMoe, st: &mut MoeTrainScratch, i: usize| {
        layer.zero_grads();
        let out = layer.forward_pooled(&inputs[i % inputs.len()], st);
        let d_x = layer.backward_pooled(st, &d_out);
        st.ws.recycle(d_x);
        st.ws.recycle(out);
    };
    // Warm-up: every grow-only buffer reaches its fixed point over the
    // deterministic input cycle.
    for i in 0..12 {
        train_step(&mut layer, &mut st, i);
    }
    let before = ALLOC.stats();
    for i in 0..16 {
        train_step(&mut layer, &mut st, i);
    }
    let after = ALLOC.stats();
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "steady-state pooled training step hit the heap"
    );
    assert_eq!(
        after.live_bytes, before.live_bytes,
        "steady-state live bytes drifted"
    );

    // -- single-rank pooled forwards (pft + block-sparse) ----------------
    let router = Router::new(h, e, k, 0x2E50);
    let experts = ExpertShard::full(e, h, f, 0x2E51);
    let spec = MoeLayerSpec::new(e, 10_000);
    let mut state = PooledSingleState::default();
    let fwd_step = |state: &mut PooledSingleState, i: usize| {
        let x = &inputs[i % inputs.len()];
        let a = PaddingFreePipeline
            .forward(x, &router, &experts, &spec, &mut ExecCtx::pooled(state))
            .expect("pft step");
        state.ws.recycle(a);
        let b = BlockSparsePipeline { block: 4 }
            .forward(x, &router, &experts, &spec, &mut ExecCtx::pooled(state))
            .expect("blocksparse step");
        state.ws.recycle(b);
    };
    for i in 0..12 {
        fwd_step(&mut state, i);
    }
    let before = ALLOC.stats();
    for i in 0..16 {
        fwd_step(&mut state, i);
    }
    let after = ALLOC.stats();
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "steady-state pooled single-rank forward hit the heap"
    );
    assert_eq!(
        after.live_bytes, before.live_bytes,
        "steady-state forward live bytes drifted"
    );

    // -- distributed pooled RBD forward ----------------------------------
    // Each simulated rank is one thread, so `thread_tracked_allocs` fences
    // exactly the rank's own hot path — no barriers, no cross-thread
    // harness noise on the process-wide counter. Wire plumbing a rank
    // performs on behalf of the exchange is untracked (no malloc analog on
    // real hardware); tensor/staging work a rank performs is tracked and
    // attributed to that rank. The rng seed cycle recurs (period matches
    // the input cycle) so every leased capacity reaches a fixed point
    // during warm-up — the wire buffers circulate between the ranks'
    // pools, so recurrence, not per-rank reuse, is what makes the
    // capacities converge.
    let world = 4usize;
    let router = Router::new(h, e, k, 0x2E60);
    let spec = MoeLayerSpec::new(e, 10_000);
    let counted = {
        let (router, spec) = (&router, &spec);
        SimCluster::frontier(world).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 0x2E61);
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).expect("rbd comms");
            let tokens = Tensor::rand_uniform(s, h, 1.0, 0x2E62 + ctx.rank as u64);
            let mut state = PooledSingleState::default();
            let seed_of = |step: usize| 0x2E63 + ((step % 4) * world + ctx.rank) as u64;
            let rbd_step = |state: &mut PooledSingleState,
                            clock: &mut xmoe::collectives::SimClock,
                            step: usize| {
                let mut rng = DetRng::new(seed_of(step));
                let mut ex = ExecCtx::hier(&comms, clock)
                    .with_rng(&mut rng)
                    .with_state(state);
                let out = RbdPipeline {
                    policy: PilotPolicy::Random,
                }
                .forward(&tokens, router, &shard, spec, &mut ex)
                .expect("rbd step");
                state.ws.recycle(out);
            };
            for step in 0..12 {
                rbd_step(&mut state, &mut ctx.clock, step);
            }
            let a0 = xmoe::tensor::thread_tracked_allocs();
            for step in 0..8 {
                rbd_step(&mut state, &mut ctx.clock, step);
            }
            xmoe::tensor::thread_tracked_allocs() - a0
        })
    };
    for (rank, &d) in counted.iter().enumerate() {
        assert_eq!(
            d, 0,
            "steady-state pooled RBD step hit the heap on rank {rank}"
        );
    }

    // -- the whole distributed train step, two ranks -----------------------
    // `DistMoeLm::train_step` on the transformer config (attention on):
    // forward + backward through every layer, two uneven all-to-all pairs
    // per MoE layer, 30 gradient all-reduces, Adam, the loss all-reduce. The
    // learning rate is zero and the batch is the same every step, so the
    // routed row counts the buffers are sized by recur and every capacity
    // reaches its fixed point during warm-up. (Under training a buffer
    // re-grows when its row count sets a new record, and the arena releases
    // what a step left unused; at these dims routed rows move by half from
    // batch to batch, across size classes. The benchmark's `allocs_per_step`
    // counts both on a training run: 0-3 a step.) Residue: none — the window
    // is exactly zero tracked allocations per rank, and no lease misses the
    // arena.
    let mut cfg = TrainConfig::transformer(DropPolicy::CapacityOnly);
    (cfg.vocab, cfg.hidden, cfg.ffn) = (32, 16, 8);
    (cfg.num_experts, cfg.top_k, cfg.layers) = (8, 2, 2);
    (cfg.seq_len, cfg.batch, cfg.lr) = (8, 2, 0.0);
    let full_layers = build_moe_layers(&cfg);
    let counted = {
        let (cfg, full_layers) = (&cfg, &full_layers);
        SimCluster::frontier(2).run(move |ctx| {
            let mut model = DistMoeLm::new(cfg, full_layers, ctx.rank, 2);
            let mut corpus = MarkovCorpus::new(cfg.vocab, 3, 0x2E80 + ctx.rank as u64);
            let batch = corpus.batch(cfg.batch, cfg.seq_len);
            let mut train_step = |model: &mut DistMoeLm| {
                let loss = model.train_step(&batch, &ctx.world, &mut ctx.clock);
                assert!(loss.expect("train step").is_finite());
                // The clock's span list is simulation bookkeeping that grows
                // with the run; the harness drains it like any trainer would.
                ctx.clock.reset_buckets();
            };
            for _ in 0..12 {
                train_step(&mut model);
            }
            let (a0, misses) = (
                xmoe::tensor::thread_tracked_allocs(),
                model.arena_stats().pool_misses,
            );
            for _ in 0..16 {
                train_step(&mut model);
            }
            (
                xmoe::tensor::thread_tracked_allocs() - a0,
                model.arena_stats().pool_misses - misses,
            )
        })
    };
    for (rank, &(allocs, misses)) in counted.iter().enumerate() {
        assert_eq!(
            (allocs, misses),
            (0, 0),
            "steady-state distributed train step hit the heap on rank {rank}"
        );
    }

    // -- pooled grouped expert GEMM above the parallel cutoff -------------
    // 128 rows x (64 -> 128 -> 64) across 16 experts: both grouped batches
    // exceed 64^3 total volume, so with XMOE_THREADS > 1 this runs on the
    // worker pool. Warm-up starts the pool (thread spawn allocates, once)
    // and grows the panel arena; the counted steady state must be clean.
    let (gb, gh, gf, ge) = (128usize, 64usize, 128usize, 16usize);
    let counts: Vec<usize> = (0..ge).map(|e| gb / ge + (e % 2)).collect();
    let total: usize = counts.iter().sum();
    let shard = ExpertShard::full(ge, gh, gf, 0x2E70);
    let input = Tensor::rand_uniform(total, gh, 1.0, 0x2E71);
    let mut ws = Workspace::new();
    let mut direct = Tensor::zeros(total, gf);
    let grouped_step = |ws: &mut Workspace, direct: &mut Tensor| {
        let y = shard.forward_segments_pooled(&input, &counts, ws);
        ws.recycle(y);
        direct.as_mut_slice().fill(0.0);
        gemm_grouped(
            input.as_slice(),
            &counts,
            gh,
            |e| shard.experts[e].w1.as_slice(),
            gf,
            direct.as_mut_slice(),
        );
    };
    for _ in 0..4 {
        grouped_step(&mut ws, &mut direct);
    }
    let before = ALLOC.stats();
    for _ in 0..8 {
        grouped_step(&mut ws, &mut direct);
    }
    let after = ALLOC.stats();
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "steady-state pooled grouped GEMM hit the heap"
    );
    assert_eq!(
        after.live_bytes, before.live_bytes,
        "grouped GEMM live bytes drifted"
    );
}
