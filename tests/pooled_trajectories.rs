//! Tier-1 trajectory tests for the workspace-arena hot path: every pooled
//! variant must be **bitwise** identical to the owned-allocation path it
//! replaces — not merely close. Each test runs a multi-step trajectory in
//! which the next input is derived from the previous output, so a single
//! ULP of drift compounds across steps and fails the comparison.
//!
//! Coverage per pipeline:
//! * dense — pooled gating (`Router::gate_into` with reused scratch) vs
//!   owned gating feeding the padded dispatch slab (dense has no pooled
//!   forward of its own; gating is its pooled surface);
//! * pft, blocksparse (single-rank) — `ExecCtx::pooled` vs `ExecCtx::single`;
//! * pft and blocksparse, each serial and overlapped (overlap ≡ serial),
//!   under flat EP at world 2 and 4 — `ExecCtx::ep(..).with_state(..)` vs
//!   `ExecCtx::ep(..)`, plus the arena counters proving the state is really
//!   leased from;
//! * rbd (distributed) — `ExecCtx::hier(..).with_state(..)` vs owned on the
//!   threads-as-ranks runtime;
//! * pft (training) — full pooled train steps (forward + backward + SGD
//!   update) vs the owned baseline: the *loss trajectory* and the evolved
//!   weights must match bit for bit.

use xmoe::collectives::SimCluster;
use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::{DropPolicy, GateScratch, GatingOutput, Router, RouterGuard};
use xmoe::core::pipeline::{
    self, BlockSparsePipeline, DenseDropOrder, DensePipeline, ExecCtx, MoeLayerSpec,
    PaddingFreePipeline, Pipeline, PooledSingleState, RbdPipeline,
};
use xmoe::core::rbd::{PilotPolicy, RbdComms};
use xmoe::tensor::{DetRng, Tensor};
use xmoe::train::{MoeTrainScratch, TrainableMoe};

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Next-step input: a deterministic mix of the previous output into the
/// previous input, so trajectories compound any divergence.
fn chain(out: &Tensor, x: &Tensor) -> Tensor {
    let mut nx = x.clone();
    for (a, b) in nx.as_mut_slice().iter_mut().zip(out.as_slice()) {
        *a = 0.5 * *a + 0.25 * *b;
    }
    nx
}

#[test]
fn pft_single_forward_trajectory_is_bitwise_identical() {
    let (s, h, f, e, k) = (20, 12, 10, 6, 2);
    let router = Router::new(h, e, k, 0x7A10);
    let experts = ExpertShard::full(e, h, f, 0x7A11);
    // Tight capacity so the drop path is exercised on every step.
    let spec = MoeLayerSpec::new(e, 5);
    let mut state = PooledSingleState::default();
    let mut x = Tensor::rand_uniform(s, h, 1.0, 0x7A12);
    for step in 0..5 {
        let owned = PaddingFreePipeline
            .forward(&x, &router, &experts, &spec, &mut ExecCtx::single())
            .unwrap();
        let pooled = PaddingFreePipeline
            .forward(
                &x,
                &router,
                &experts,
                &spec,
                &mut ExecCtx::pooled(&mut state),
            )
            .unwrap();
        assert_eq!(bits(&owned), bits(&pooled), "pft diverges at step {step}");
        x = chain(&pooled, &x);
        state.ws.recycle(pooled);
    }
}

#[test]
fn blocksparse_forward_trajectory_is_bitwise_identical() {
    let (s, h, f, e, k, block) = (20, 12, 10, 6, 2, 3);
    let router = Router::new(h, e, k, 0x7B10);
    let experts = ExpertShard::full(e, h, f, 0x7B11);
    let spec = MoeLayerSpec::new(e, 1000);
    let mut state = PooledSingleState::default();
    let mut x = Tensor::rand_uniform(s, h, 1.0, 0x7B12);
    for step in 0..5 {
        let pipe = BlockSparsePipeline { block };
        let owned = pipe
            .forward(&x, &router, &experts, &spec, &mut ExecCtx::single())
            .unwrap();
        let pooled = pipe
            .forward(
                &x,
                &router,
                &experts,
                &spec,
                &mut ExecCtx::pooled(&mut state),
            )
            .unwrap();
        assert_eq!(
            bits(&owned),
            bits(&pooled),
            "blocksparse diverges at step {step}"
        );
        x = chain(&pooled, &x);
        state.ws.recycle(pooled);
    }
}

/// `ctx.state` means the same thing on every transport: under flat EP the
/// pooled run is bitwise the owned run over a compounding trajectory, and
/// the arena is really leased from (it serves hits once warm) — a state
/// that is accepted but ignored would pass the bitwise half alone.
#[test]
fn ep_forward_trajectories_are_bitwise_identical_and_lease_from_the_state() {
    let (s, h, f, e, k) = (20, 12, 10, 8, 3);
    let router = Router::new(h, e, k, 0x7E10);
    // Tight capacity so the drop path is exercised on every step.
    let spec = MoeLayerSpec::new(e, 9);
    let blocksparse = BlockSparsePipeline { block: 3 };
    let cases: [(&str, &(dyn Pipeline + Sync), Option<usize>); 4] = [
        ("pft", &PaddingFreePipeline, None),
        ("pft overlap", &PaddingFreePipeline, Some(2)),
        ("blocksparse", &blocksparse, None),
        ("blocksparse overlap", &blocksparse, Some(2)),
    ];
    for world in [2usize, 4] {
        // Per pipeline, the serial run's per-rank trajectory: the overlapped
        // case that follows it must reproduce it bit for bit.
        let mut serial: Vec<Vec<Vec<u32>>> = Vec::new();
        for (name, pipe, overlap) in cases {
            let (router, spec) = (&router, &spec);
            let trajectories = SimCluster::frontier(world).run(move |ctx| {
                let mut trajectory = Vec::new();
                let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 0x7E11);
                let mut state = PooledSingleState::default();
                let mut x = Tensor::rand_uniform(s, h, 1.0, 0x7E12 + ctx.rank as u64);
                let mut warm = state.ws.stats();
                for step in 0..4 {
                    let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
                    ex.overlap_chunks = overlap;
                    let owned = pipe.forward(&x, router, &shard, spec, &mut ex).unwrap();
                    let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock).with_state(&mut state);
                    ex.overlap_chunks = overlap;
                    let pooled = pipe.forward(&x, router, &shard, spec, &mut ex).unwrap();
                    assert_eq!(
                        bits(&owned),
                        bits(&pooled),
                        "{name} world {world} rank {} diverges at step {step}",
                        ctx.rank
                    );
                    trajectory.push(bits(&pooled));
                    x = chain(&pooled, &x);
                    state.ws.recycle(pooled);
                    if step == 0 {
                        warm = state.ws.stats();
                    }
                }
                let end = state.ws.stats();
                let (takes, misses) = (
                    end.takes - warm.takes,
                    end.pool_misses - warm.pool_misses,
                );
                assert!(warm.takes > 0, "{name}: the state was never leased from");
                assert!(
                    misses < takes,
                    "{name} world {world}: no pool hits after warm-up ({misses} misses / {takes} takes)"
                );
                trajectory
            });
            match overlap {
                None => serial = trajectories,
                Some(_) => assert!(
                    serial == trajectories,
                    "{name} world {world}: overlap diverges from serial"
                ),
            }
        }
    }
}

#[test]
fn dense_dispatch_trajectory_with_pooled_gating_is_bitwise_identical() {
    let (s, h, f, e, k) = (20, 12, 10, 6, 2);
    let router = Router::new(h, e, k, 0x7C10);
    let experts = ExpertShard::full(e, h, f, 0x7C11);
    let spec = MoeLayerSpec::new(e, 5);
    let mut scratch = GateScratch::default();
    let mut gating = GatingOutput::default();
    let mut x = Tensor::rand_uniform(s, h, 1.0, 0x7C12);
    for step in 0..5 {
        let owned_gate = router.gate(&x);
        router.gate_into(&x, &mut scratch, &mut gating);
        assert_eq!(owned_gate.top_experts, gating.top_experts, "step {step}");
        assert_eq!(
            owned_gate
                .combine_weights
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            gating
                .combine_weights
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "step {step}"
        );
        assert_eq!(
            bits(&owned_gate.scores),
            bits(&gating.scores),
            "step {step}"
        );
        let d_owned = pipeline::dense::build_dense_dispatch(
            &x,
            &owned_gate,
            &spec,
            DenseDropOrder::TokenOrder,
        );
        let d_pooled =
            pipeline::dense::build_dense_dispatch(&x, &gating, &spec, DenseDropOrder::TokenOrder);
        assert_eq!(
            bits(&d_owned.buffers),
            bits(&d_pooled.buffers),
            "dense slab diverges at step {step}"
        );
        assert_eq!(d_owned.entries, d_pooled.entries, "step {step}");
        let out = DensePipeline {
            order: DenseDropOrder::TokenOrder,
        }
        .forward(&x, &router, &experts, &spec, &mut ExecCtx::single())
        .unwrap();
        x = chain(&out, &x);
    }
}

#[test]
fn rbd_forward_trajectory_is_bitwise_identical() {
    let world = 4usize;
    let (s, h, f, e, k) = (12, 12, 8, 8, 2);
    let router = Router::new(h, e, k, 0x7D10);
    let spec = MoeLayerSpec::new(e, 1000);
    let router = &router;
    let spec = &spec;
    SimCluster::frontier(world).run(move |ctx| {
        let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 0x7D11);
        let comms = RbdComms::create(&ctx.world, &mut ctx.clock).expect("comms");
        let mut state = PooledSingleState::default();
        let mut x = Tensor::rand_uniform(s, h, 1.0, 0x7D12 + ctx.rank as u64);
        for step in 0..4 {
            // Identical pilot RNG per call so both paths pick the same pilots.
            let seed = 0x7D20 + (step * world + ctx.rank) as u64;
            let mut rng_a = DetRng::new(seed);
            let mut rng_b = DetRng::new(seed);
            let pipe = RbdPipeline {
                policy: PilotPolicy::Random,
            };
            let owned = pipe
                .forward(
                    &x,
                    router,
                    &shard,
                    spec,
                    &mut ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng_a),
                )
                .expect("owned step");
            let pooled = pipe
                .forward(
                    &x,
                    router,
                    &shard,
                    spec,
                    &mut ExecCtx::hier(&comms, &mut ctx.clock)
                        .with_rng(&mut rng_b)
                        .with_state(&mut state),
                )
                .expect("pooled step");
            assert_eq!(
                bits(&owned),
                bits(&pooled),
                "rbd rank {} diverges at step {step}",
                ctx.rank
            );
            x = chain(&pooled, &x);
            state.ws.recycle(pooled);
        }
    });
}

/// Plain SGD on every parameter group: both runs apply the identical update
/// expression, so bitwise-equal gradients keep the weights bitwise equal.
fn sgd(layer: &mut TrainableMoe, lr: f32) {
    for (w, g) in layer
        .gate
        .as_mut_slice()
        .iter_mut()
        .zip(layer.g_gate.as_slice())
    {
        *w -= lr * g;
    }
    for (e, ge) in layer.experts.iter_mut().zip(layer.g_experts.iter()) {
        for (w, g) in e.w1.as_mut_slice().iter_mut().zip(ge.w1.as_slice()) {
            *w -= lr * g;
        }
        for (w, g) in e.w2.as_mut_slice().iter_mut().zip(ge.w2.as_slice()) {
            *w -= lr * g;
        }
    }
}

#[test]
fn pft_training_loss_trajectory_is_bitwise_identical() {
    let (s, h, f, e, k) = (18, 12, 10, 6, 2);
    // Aux loss + full router guard on, so every gradient term of the pooled
    // backward is compared, including the z-loss and clamp paths.
    let guard = RouterGuard {
        logit_clamp: 1.0,
        z_loss_coef: 0.1,
    };
    let mut owned = TrainableMoe::new(h, f, e, k, 7, DropPolicy::CapacityOnly, 0x7E10)
        .with_aux(0.02)
        .with_router_guard(guard);
    let mut pooled = TrainableMoe::new(h, f, e, k, 7, DropPolicy::CapacityOnly, 0x7E10)
        .with_aux(0.02)
        .with_router_guard(guard);
    let mut st = MoeTrainScratch::default();
    let probe = Tensor::rand_uniform(s, h, 1.0, 0x7E11);
    let lr = 0.05f32;
    let (mut owned_losses, mut pooled_losses) = (Vec::new(), Vec::new());
    for step in 0..6u64 {
        let x = Tensor::rand_uniform(s, h, 1.0, 0x7E20 + step);

        owned.zero_grads();
        let (out, ctx) = owned.forward(&x);
        let loss: f64 = out
            .as_slice()
            .iter()
            .zip(probe.as_slice())
            .map(|(&o, &p)| (o * p) as f64)
            .sum();
        let _ = owned.backward_scaled(&ctx, &probe, 2.0);
        sgd(&mut owned, lr);
        owned_losses.push(loss.to_bits());

        pooled.zero_grads();
        let pout = pooled.forward_pooled(&x, &mut st);
        let ploss: f64 = pout
            .as_slice()
            .iter()
            .zip(probe.as_slice())
            .map(|(&o, &p)| (o * p) as f64)
            .sum();
        let d = pooled.backward_scaled_pooled(&mut st, &probe, 2.0);
        st.ws.recycle(d);
        st.ws.recycle(pout);
        sgd(&mut pooled, lr);
        pooled_losses.push(ploss.to_bits());
    }
    assert_eq!(owned_losses, pooled_losses, "loss trajectories diverge");
    assert_eq!(
        bits(&owned.gate),
        bits(&pooled.gate),
        "gate weights diverge"
    );
    for (i, (o, p)) in owned.experts.iter().zip(pooled.experts.iter()).enumerate() {
        assert_eq!(bits(&o.w1), bits(&p.w1), "expert {i} w1 diverges");
        assert_eq!(bits(&o.w2), bits(&p.w2), "expert {i} w2 diverges");
    }
}
