//! Stale-buffer oracles for the per-rank step arena: nothing numeric lives
//! in it. A model whose arena was warmed on *other* batch shapes — fewer
//! rows, more rows, longer sequences — and then had every free buffer filled
//! with NaN must produce, on the next batch, the bits a freshly built model
//! produces. Debug builds already NaN-poison every for-overwrite lease; the
//! explicit poison makes a read-before-write fail in release builds too, so
//! CI runs this suite in both profiles.
//!
//! The high-water oracles bound what an arena holds after warm-up at a
//! fine-grained shape: the layer pass keeps no copy it does not need (a
//! local pass reads the tokens by id and combines inside its second expert
//! GEMM, and its backward reads the expert input and `d_out[t]` by token id,
//! forms `d_w` inside the `d_h` GEMM and adds `d_input` onto `d_x` inside
//! the GEMM that makes it; over a wire the experts write their outputs over
//! the rows that arrived, no layer keeps them for its backward, and the
//! backward sends `d_out[t]` straight from `d_out`), so a routed-row
//! `[n, H]` buffer more than the dataflow needs shows as a bound exceeded. Under RBD the pilots go out
//! straight from the tokens and the experts read straight from the wire, so
//! the state keeps no PFT-order rows at all. Under flat EP every wire buffer
//! comes home to the rank that filled it, so no peer's buffer lands in an
//! arena.

use xmoe::collectives::{RankCtx, SimCluster};
use xmoe::core::gating::DropPolicy;
use xmoe::core::pipeline::{
    ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline, PooledSingleState, RbdPipeline,
};
use xmoe::core::rbd::{PilotPolicy, RbdComms};
use xmoe::core::{ExpertShard, Router};
use xmoe::tensor::Workspace;
use xmoe::tensor::{DetRng, Tensor};
use xmoe::train::model::build_moe_layers;
use xmoe::train::{
    DistMoe, DistMoeLm, DistMoeScratch, MarkovCorpus, MoeTrainScratch, TrainConfig, TrainableMoe,
};

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

/// The fine-grained shape of the high-water oracles, `(s, h, f, e, k)`:
/// top-8 of 32 narrow experts, so the `n = k·s` routed rows dwarf the
/// `s`-sized buffers; capacity never drops, so `n` is the same every step.
const FINE: (usize, usize, usize, usize, usize) = (48, 32, 16, 32, 8);

/// The arena's re-grow headroom: a buffer re-grown for a longer lease gets
/// a sixteenth more than asked (`xmoe_tensor::pool`'s `GROW_SLACK`).
fn with_grow_slack(elems: usize) -> usize {
    elems + elems / 16
}

#[test]
fn a_pooled_forward_arena_holds_no_routed_row_buffer() {
    let (s, h, f, e, k) = FINE;
    let n = k * s;
    let router = Router::new(h, e, k, 61);
    let experts = ExpertShard::full(e, h, f, 62);
    let spec = MoeLayerSpec::new(e, n);
    let mut state = PooledSingleState::default();
    for step in 0..6 {
        let tokens = Tensor::rand_uniform(s, h, 1.0, 600 + step);
        let mut ctx = ExecCtx::pooled(&mut state);
        let out = PaddingFreePipeline
            .forward(&tokens, &router, &experts, &spec, &mut ctx)
            .unwrap();
        state.ws.recycle(out);
    }
    // No `[n, H]` buffer exists: the first expert GEMM reads the tokens by
    // id and the second combines into the output. The arena holds the
    // `[n, F]` hidden-layer strip (SiLU in place) and the `[s, H]` output.
    let retained = state.ws.stats().retained_f32;
    let bound = with_grow_slack(n * f + s * h);
    assert!(
        retained <= bound,
        "pooled forward arena retains {retained} f32 > strip + out = {bound} \
         (an [n, H] buffer is {})",
        n * h
    );
}

#[test]
fn a_pooled_local_forward_keeps_no_pft_order_rows() {
    let (s, h, f, e, k) = FINE;
    let n = k * s;
    let router = Router::new(h, e, k, 63);
    let experts = ExpertShard::full(e, h, f, 64);
    let spec = MoeLayerSpec::new(e, n);
    let mut state = PooledSingleState::default();
    for step in 0..6 {
        let tokens = Tensor::rand_uniform(s, h, 1.0, 640 + step);
        let mut ctx = ExecCtx::pooled(&mut state);
        let out = PaddingFreePipeline
            .forward(&tokens, &router, &experts, &spec, &mut ctx)
            .unwrap();
        state.ws.recycle(out);
    }
    // The state keeps no dispatch rows between forwards, and the arena the
    // strip and the output, which are live together while the second expert
    // GEMM combines into the output.
    let rows = state.routed_rows().capacity();
    assert_eq!(
        rows, 0,
        "a local forward keeps {rows} f32 of PFT-order rows"
    );
    let retained = state.ws.stats().retained_f32;
    let bound = with_grow_slack(n * f + s * h);
    assert!(
        retained <= bound,
        "pooled local forward arena retains {retained} f32 > [n, F] strip + [s, H] out = {bound} \
         (an [n, H] buffer is {})",
        n * h
    );
}

#[test]
fn a_pooled_ep_forward_arena_holds_no_wire_buffer() {
    let (s, h, f, e, k) = FINE;
    let router = Router::new(h, e, k, 81);
    let spec = MoeLayerSpec::new(e, k * s);
    let tokens_of = |rank: usize| Tensor::rand_uniform(s, h, 1.0, 810 + rank as u64);
    for world in [2usize, 4] {
        for overlap in [None, Some(2)] {
            let per_rank = {
                let (router, spec, tokens_of) = (&router, &spec, &tokens_of);
                SimCluster::frontier(world).run(move |ctx| {
                    let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 82);
                    let tokens = tokens_of(ctx.rank);
                    let mut state = PooledSingleState::default();
                    for _ in 0..4 {
                        let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock).with_state(&mut state);
                        ex.overlap_chunks = overlap;
                        let out = PaddingFreePipeline
                            .forward(&tokens, router, &shard, spec, &mut ex)
                            .unwrap();
                        state.ws.recycle(out);
                    }
                    // What the state holds outside the arena, less its
                    // PFT-order rows: the route's wire buffers.
                    let (held, arena) = (state.stats().retained_f32, state.ws.stats().retained_f32);
                    (held - arena - state.routed_rows().capacity(), arena)
                })
            };
            // The rows a rank's experts receive: every routed entry, of
            // every rank, to an expert it holds (contiguous, no drops).
            let mut rows_in = vec![0usize; world];
            for rank in 0..world {
                for &x in &router.gate(&tokens_of(rank)).top_experts {
                    rows_in[x / (e / world)] += 1;
                }
            }
            for (rank, (&(wire, retained), r)) in per_rank.iter().zip(&rows_in).enumerate() {
                let at = format!("{world} ranks, overlap {overlap:?}, rank {rank}");
                // The `[recv, F]` hidden-layer strip (SiLU in place), which
                // the `[s, H]` output reuses once it is recycled: the experts
                // compute in the rows that arrived, which the route keeps
                // outside the arena. A peer's wire buffer is `[rows, H]`.
                let bound = with_grow_slack(r * f);
                assert!(
                    retained <= bound,
                    "{at}: EP arena retains {retained} f32 > strip = {bound} \
                     (a [recv, H] buffer is {})",
                    r * h
                );
                // Its own buffers, home from the return leg: exactly the
                // `k·s` rows it sent.
                assert_eq!(wire, k * s * h, "{at}: wire kept outside the arena");
            }
        }
    }
}

#[test]
fn a_pooled_rbd_forward_holds_no_pft_order_rows() {
    // Sixteen ranks on two simulated nodes, two experts each, top-8: about
    // three quarters of the routed rows are replicas that never cross nodes.
    let (world, s, h, f, e, k) = (16usize, 64usize, 32usize, 8usize, 32usize, 8usize);
    let router = Router::new(h, e, k, 91);
    let spec = MoeLayerSpec::new(e, k * s * world);
    let rbd = RbdPipeline {
        policy: PilotPolicy::Random,
    };
    let tokens_of = |rank: usize| Tensor::rand_uniform(s, h, 1.0, 900 + rank as u64);
    let per_rank = {
        let (router, spec, rbd, tokens_of) = (&router, &spec, &rbd, &tokens_of);
        SimCluster::frontier(world).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 92);
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
            let tokens = tokens_of(ctx.rank);
            let mut state = PooledSingleState::default();
            for step in 0..6 {
                // A fresh pilot draw every forward: the wire sizes change,
                // the rows each rank's experts receive do not.
                let mut rng = DetRng::new(93 ^ (step * world + ctx.rank) as u64);
                let mut ex = ExecCtx::hier(&comms, &mut ctx.clock)
                    .with_state(&mut state)
                    .with_rng(&mut rng);
                let out = rbd.forward(&tokens, router, &shard, spec, &mut ex).unwrap();
                state.ws.recycle(out);
            }
            let retained = state.ws.stats().retained_f32;
            (state.routed_rows().capacity(), retained)
        })
    };
    // The rows a rank's experts receive, pilots and replicas alike: every
    // routed entry, of every rank, to an expert it holds (contiguous layout,
    // no drops).
    let mut rows_in = vec![0usize; world];
    for rank in 0..world {
        for &x in &router.gate(&tokens_of(rank)).top_experts {
            rows_in[x / (e / world)] += 1;
        }
    }
    for (rank, (&(rows, retained), r)) in per_rank.iter().zip(&rows_in).enumerate() {
        assert_eq!(
            rows,
            0,
            "rank {rank} keeps {rows} f32 of PFT-order rows (its [n, H] is {})",
            k * s * h
        );
        // The merged expert input and the `[rows_in, F]` hidden-layer strip
        // (SiLU in place), which the `[s, H]` output reuses once it is
        // recycled; no staging copy of the wire rows.
        let bound = with_grow_slack(r * h + r * f);
        assert!(
            retained <= bound,
            "rank {rank}: RBD arena retains {retained} f32 > merged input + strip = {bound} \
             (a [rows_in, H] buffer is {})",
            r * h
        );
    }
}

#[test]
fn a_trainable_moe_step_arena_holds_no_routed_row_buffer() {
    let (s, h, f, e, k) = FINE;
    let n = k * s;
    let mut layer = TrainableMoe::new(h, f, e, k, n, DropPolicy::CapacityOnly, 71);
    let mut st = MoeTrainScratch::default();
    for step in 0..6 {
        let x = Tensor::rand_uniform(s, h, 1.0, 700 + step);
        let out = layer.forward_pooled(&x, &mut st);
        let d_out = Tensor::rand_uniform(s, h, 1.0, 800 + step);
        let d_x = layer.backward_pooled(&mut st, &d_out);
        st.ws.recycle(out);
        st.ws.recycle(d_x);
        layer.zero_grads();
    }
    // No routed row has an `[n, H]` buffer: the forward combines inside its
    // second expert GEMM; the backward reads the expert input and `d_out[t]`
    // by token id, forms `d_w` inside the `d_h` GEMM, and adds `d_input` onto
    // `d_x` inside the GEMM that makes it. What is left at the backward's
    // peak is `h_pre` and `h_act` (`d_h` is written over it), the output
    // and `d_x`; the router backward's `[s, E]` pair and `[s, H]` input
    // gradient reuse the hidden layer's buffers, handed back by then.
    let retained = st.ws.stats().retained_f32;
    let bound = with_grow_slack(2 * n * f + 2 * s * h);
    assert!(
        retained <= bound,
        "train step arena retains {retained} f32 > 2·[n, F] + 2·[s, H] = {bound} \
         (an [n, H] buffer is {})",
        n * h
    );
}

#[test]
fn a_dist_moe_step_keeps_no_expert_outputs() {
    // Two MoE layers on two ranks, one arena, as a model stacks them:
    // forward, forward, backward, backward. The backward sends `d_out[t]`
    // straight from `d_out` and forms `d_w` at the experts, so no layer
    // keeps its `[n, H]` expert outputs from its forward to its backward,
    // and the second layer's forward reuses the first one's routed-row
    // buffers. A layer that kept them would hold one more `[n, H]` buffer
    // across the second forward, which the bound does not leave room for.
    let (s, h, f, e, k) = FINE;
    let (world, n) = (2usize, k * s);
    let full =
        [83u64, 84].map(|seed| TrainableMoe::new(h, f, e, k, n, DropPolicy::CapacityOnly, seed));
    let per_rank = {
        let full = &full;
        SimCluster::frontier(world).run(move |ctx| {
            let mut layers = full
                .each_ref()
                .map(|l| DistMoe::from_trainable(l, ctx.rank, world));
            let x = Tensor::rand_uniform(s, h, 1.0, 830 + ctx.rank as u64);
            let d_out = Tensor::rand_uniform(s, h, 1.0, 840 + ctx.rank as u64);
            let mut st = [DistMoeScratch::default(), DistMoeScratch::default()];
            let mut ws = Workspace::new();
            for _ in 0..4 {
                let (ep, clock) = (&ctx.world, &mut ctx.clock);
                let out0 = layers[0]
                    .forward(&x, &mut st[0], &mut ws, ep, clock)
                    .unwrap();
                let out1 = layers[1]
                    .forward(&out0, &mut st[1], &mut ws, ep, clock)
                    .unwrap();
                let d1 = layers[1]
                    .backward(&mut st[1], &d_out, &mut ws, ep, clock)
                    .unwrap();
                let d0 = layers[0]
                    .backward(&mut st[0], &d1, &mut ws, ep, clock)
                    .unwrap();
                for t in [out0, out1, d1, d0] {
                    ws.recycle(t);
                }
            }
            let per_expert = st.each_ref().map(|st| st.tokens_per_expert().to_vec());
            (ws.stats().retained_f32, per_expert)
        })
    };
    // The rows each rank's experts receive per layer: every routed entry, of
    // every rank, to an expert it holds (contiguous, no drops).
    let mut rows_in = [vec![0usize; world], vec![0usize; world]];
    for (_, per_expert) in &per_rank {
        for (rows_in, per_expert) in rows_in.iter_mut().zip(per_expert) {
            for (x, &c) in per_expert.iter().enumerate() {
                rows_in[x / (e / world)] += c;
            }
        }
    }
    for (rank, (retained, _)) in per_rank.iter().enumerate() {
        let r = [rows_in[0][rank], rows_in[1][rank]];
        // Each layer's expert saves (`[r, H]` input, `[r, F]` twice) and
        // `[s, H]` output; two routed-row buffers the layers share (the
        // dispatch and return rows, and the backward's chunk and return
        // rows), each as long as the longer of `n` and `r` rows.
        let rows = n.max(r[0]).max(r[1]);
        let saves: usize = r.iter().map(|&r| r * (h + 2 * f)).sum();
        let bound = with_grow_slack(2 * rows * h + 2 * s * h + saves);
        assert!(
            *retained <= bound,
            "rank {rank}: EP train step arena retains {retained} f32 > saves + outputs + \
             2 routed-row buffers = {bound} (an [n, H] buffer is {})",
            n * h
        );
    }
}
