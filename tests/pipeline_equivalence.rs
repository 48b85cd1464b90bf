//! Cross-crate integration tests: the four transports (single-rank
//! reference, dense padded baseline, padding-free EP, RBD, SSMB) must all
//! compute the same MoE layer, across cluster shapes that exercise every
//! link class of the simulated Frontier topology.

use xmoe::collectives::SimCluster;
use xmoe::core::expert::{Expert, ExpertShard};
use xmoe::core::gating::{DropPolicy, Router};
use xmoe::core::pipeline::{
    self, BlockSparsePipeline, DenseDropOrder, DensePipeline, ExecCtx, MoeLayerSpec,
    PaddingFreePipeline, Pipeline, PooledSingleState, RbdPipeline,
};
use xmoe::core::rbd::{PilotPolicy, RbdComms};
use xmoe::core::ssmb;
use xmoe::tensor::{DetRng, Tensor};

struct Case {
    world: usize,
    seq: usize,
    hidden: usize,
    ffn: usize,
    experts: usize,
    top_k: usize,
    capacity: usize,
    seed: u64,
}

fn reference(case: &Case, rank: usize) -> Tensor {
    let router = Router::new(case.hidden, case.experts, case.top_k, case.seed);
    let experts = ExpertShard::full(case.experts, case.hidden, case.ffn, case.seed + 1);
    let spec = MoeLayerSpec::new(case.experts, case.capacity);
    let tokens = Tensor::rand_uniform(case.seq, case.hidden, 1.0, 5000 + rank as u64);
    single(&tokens, &router, &experts, &spec)
}

/// The single-rank padding-free reference (owned buffers).
fn single(tokens: &Tensor, router: &Router, experts: &ExpertShard, spec: &MoeLayerSpec) -> Tensor {
    PaddingFreePipeline
        .forward(tokens, router, experts, spec, &mut ExecCtx::single())
        .unwrap()
}

fn check(case: &Case, outputs: &[Tensor], what: &str) {
    for (rank, out) in outputs.iter().enumerate() {
        let want = reference(case, rank);
        assert!(
            out.allclose(&want, 2e-4),
            "{what}: world {} rank {rank} diverges (max diff {})",
            case.world,
            out.max_abs_diff(&want)
        );
    }
}

/// Every distributed pipeline, on `case`, against the single-rank reference:
/// padding-free EP, the dense padded baseline (weight-ranked drops to match
/// PFT retention) and RBD — one trait call, three contexts.
fn run_case(case: &Case) {
    let router = Router::new(case.hidden, case.experts, case.top_k, case.seed);
    let spec = MoeLayerSpec::new(case.experts, case.capacity);
    let dense = DensePipeline {
        order: DenseDropOrder::WeightRanked,
    };
    let rbd = RbdPipeline {
        policy: PilotPolicy::Random,
    };
    let pipelines: [(&str, &(dyn Pipeline + Sync)); 3] = [
        ("padding-free EP", &PaddingFreePipeline),
        ("dense padded EP", &dense),
        ("RBD EP", &rbd),
    ];
    for (what, pipeline) in pipelines {
        let (router, spec) = (&router, &spec);
        let outs = SimCluster::frontier(case.world).run(move |ctx| {
            let shard = ExpertShard::for_rank(
                ctx.rank,
                case.world,
                case.experts,
                case.hidden,
                case.ffn,
                case.seed + 1,
            );
            let tokens = Tensor::rand_uniform(case.seq, case.hidden, 1.0, 5000 + ctx.rank as u64);
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
            let mut rng = DetRng::new(case.seed + 77 + ctx.rank as u64);
            let mut ex = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
            pipeline
                .forward(&tokens, router, &shard, spec, &mut ex)
                .unwrap()
        });
        check(case, &outs, what);
    }
}

/// The unified engine surface: one config pushed through all four
/// [`Pipeline`] impls in EP mode (dense via the weight-ranked drop order so
/// its retention matches PFT), each against the single-rank reference. Also
/// exercises the context axes: a pooled + overlapped EP padding-free run,
/// and the typed errors for missing or unsupported context.
#[test]
fn pipeline_trait_runs_all_four_impls_equivalently() {
    let case = Case {
        world: 4,
        seq: 24,
        hidden: 16,
        ffn: 8,
        experts: 8,
        top_k: 3,
        capacity: 10_000,
        seed: 111,
    };
    let router = Router::new(case.hidden, case.experts, case.top_k, case.seed);
    let spec = MoeLayerSpec::new(case.experts, case.capacity);
    let outs = {
        let (router, spec) = (&router, &spec);
        SimCluster::frontier(case.world).run(move |ctx| {
            let shard = ExpertShard::for_rank(
                ctx.rank,
                case.world,
                case.experts,
                case.hidden,
                case.ffn,
                case.seed + 1,
            );
            let tokens = Tensor::rand_uniform(case.seq, case.hidden, 1.0, 5000 + ctx.rank as u64);
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
            // Pooled + overlapped EP padding-free through the same trait
            // call — context properties, not new entry points.
            let mut state = PooledSingleState::default();
            let pft_pooled_overlap = PaddingFreePipeline
                .forward(
                    &tokens,
                    router,
                    &shard,
                    spec,
                    &mut ExecCtx::ep(&ctx.world, &mut ctx.clock)
                        .with_state(&mut state)
                        .with_overlap(2),
                )
                .unwrap();
            let blocksparse = BlockSparsePipeline { block: 4 }
                .forward(
                    &tokens,
                    router,
                    &shard,
                    spec,
                    &mut ExecCtx::ep(&ctx.world, &mut ctx.clock),
                )
                .unwrap();
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
            let mut rng = DetRng::new(case.seed + 77 + ctx.rank as u64);
            let rbd_pipe = RbdPipeline {
                policy: PilotPolicy::Random,
            };
            let rbd_out = rbd_pipe
                .forward(
                    &tokens,
                    router,
                    &shard,
                    spec,
                    &mut ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng),
                )
                .unwrap();
            // Context contract violations come back as typed errors.
            assert!(matches!(
                rbd_pipe.forward(&tokens, router, &shard, spec, &mut ExecCtx::single()),
                Err(pipeline::PipelineError::MissingCtx(_))
            ));
            assert!(matches!(
                DensePipeline {
                    order: DenseDropOrder::WeightRanked,
                }
                .forward(
                    &tokens,
                    router,
                    &shard,
                    spec,
                    &mut ExecCtx::ep(&ctx.world, &mut ctx.clock).with_overlap(2),
                ),
                Err(pipeline::PipelineError::Unsupported(_))
            ));
            (dense, pft, pft_pooled_overlap, blocksparse, rbd_out)
        })
    };
    let (dense, pft, pft_po, bs, rbd_out): (Vec<_>, Vec<_>, Vec<_>, Vec<_>, Vec<_>) =
        outs.into_iter().fold(
            (vec![], vec![], vec![], vec![], vec![]),
            |(mut a, mut b, mut c, mut d, mut e), t| {
                a.push(t.0);
                b.push(t.1);
                c.push(t.2);
                d.push(t.3);
                e.push(t.4);
                (a, b, c, d, e)
            },
        );
    check(&case, &dense, "trait dense EP");
    check(&case, &pft, "trait pft EP");
    check(&case, &pft_po, "trait pft EP pooled+overlap");
    check(&case, &bs, "trait blocksparse EP");
    check(&case, &rbd_out, "trait rbd EP");
    // The pooled/overlapped run must be bitwise the serial owned run, not
    // merely close.
    for (rank, (a, b)) in pft.iter().zip(&pft_po).enumerate() {
        assert!(
            a.allclose(b, 0.0),
            "rank {rank}: pooled+overlap trait run diverges bitwise from serial"
        );
    }
}

#[test]
fn transports_agree_single_node() {
    run_case(&Case {
        world: 4,
        seq: 24,
        hidden: 16,
        ffn: 8,
        experts: 8,
        top_k: 3,
        capacity: 10_000,
        seed: 101,
    });
}

#[test]
fn transports_agree_two_nodes() {
    run_case(&Case {
        world: 16,
        seq: 16,
        hidden: 12,
        ffn: 8,
        experts: 16,
        top_k: 5,
        capacity: 10_000,
        seed: 202,
    });
}

#[test]
fn transports_agree_with_tight_capacity() {
    run_case(&Case {
        world: 8,
        seq: 40,
        hidden: 12,
        ffn: 8,
        experts: 8,
        top_k: 4,
        capacity: 9,
        seed: 303,
    });
}

#[test]
fn transports_agree_top1_routing() {
    run_case(&Case {
        world: 4,
        seq: 20,
        hidden: 8,
        ffn: 4,
        experts: 4,
        top_k: 1,
        capacity: 10_000,
        seed: 404,
    });
}

#[test]
fn transports_agree_one_expert_per_rank() {
    run_case(&Case {
        world: 8,
        seq: 24,
        hidden: 12,
        ffn: 8,
        experts: 8,
        top_k: 4,
        capacity: 10_000,
        seed: 505,
    });
}

#[test]
fn transports_agree_at_eight_node_scale() {
    // 64 ranks = 8 simulated Frontier nodes: exercises many-threaded
    // mailboxes, multi-node RBD grouping and the full link-class spread.
    // Capacity is kept realistic: the dense baseline *physically
    // allocates* E x C padded rows, so an unbounded capacity would make
    // this test quadratic in disguise.
    run_case(&Case {
        world: 64,
        seq: 8,
        hidden: 8,
        ffn: 4,
        experts: 64,
        top_k: 6,
        capacity: 4,
        seed: 909,
    });
}

/// The chunked dispatch–compute overlap must be bitwise-identical to the
/// serial padding-free forward — not merely close — across routing skews:
/// skew concentrates tokens on few experts, producing empty and lopsided
/// chunks, exactly the shapes where a chunking bug would reorder rows or
/// re-associate a float.
#[test]
fn overlapped_padding_free_is_bitwise_identical_across_skews() {
    let (world, seq, hidden, ffn, experts, top_k) = (8usize, 32usize, 12usize, 8usize, 16usize, 4);
    let seed = 808u64;
    let spec = MoeLayerSpec::new(experts, 10_000);
    for &skew in &[0.0f32, 2.0, 8.0] {
        // Bias the router weight column-wise so low expert ids are hot (the
        // exponential popularity profile of `bench ablation_skew`).
        let base = Router::new(hidden, experts, top_k, seed);
        let mut w = base.weight.clone();
        for r in 0..w.rows() {
            for c in 0..w.cols() {
                let bias = skew * (-(c as f32) / experts as f32 * 4.0).exp() / hidden as f32;
                let v = w.get(r, c);
                w.set(r, c, v + bias);
            }
        }
        let router = Router::from_weight(w, top_k);
        for chunks in [2usize, 3] {
            let pairs = {
                let (router, spec) = (&router, &spec);
                SimCluster::frontier(world).run(move |ctx| {
                    let shard =
                        ExpertShard::for_rank(ctx.rank, world, experts, hidden, ffn, seed + 1);
                    let tokens = Tensor::rand_uniform(seq, hidden, 1.0, 7000 + ctx.rank as u64);
                    let serial = PaddingFreePipeline
                        .forward(
                            &tokens,
                            router,
                            &shard,
                            spec,
                            &mut ExecCtx::ep(&ctx.world, &mut ctx.clock),
                        )
                        .unwrap();
                    let overlapped = PaddingFreePipeline
                        .forward(
                            &tokens,
                            router,
                            &shard,
                            spec,
                            &mut ExecCtx::ep(&ctx.world, &mut ctx.clock).with_overlap(chunks),
                        )
                        .unwrap();
                    (serial, overlapped)
                })
            };
            for (rank, (serial, overlapped)) in pairs.iter().enumerate() {
                assert!(
                    serial.allclose(overlapped, 0.0),
                    "skew {skew} chunks {chunks} rank {rank}: overlap diverges bitwise \
                     (max diff {})",
                    serial.max_abs_diff(overlapped)
                );
            }
        }
    }
}

#[test]
fn ssmb_matches_reference_over_tp_dp_grid() {
    // TP=2, DP=2, EP=4 over 4 ranks: SSMB shards the sequence then
    // restores it; results must match the single-rank reference of the
    // DP group's sequence.
    let (seq, hidden, ffn, experts, top_k) = (16usize, 12usize, 8usize, 8usize, 3usize);
    let seed = 606u64;
    let router = Router::new(hidden, experts, top_k, seed);
    let spec = MoeLayerSpec::new(experts, 10_000);
    let out = {
        let (router, spec) = (&router, &spec);
        SimCluster::frontier(4).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 4, experts, hidden, ffn, seed + 1);
            let dp_group = ctx.rank / 2;
            let tokens = Tensor::rand_uniform(seq, hidden, 1.0, 9000 + dp_group as u64);
            let tp = ctx.world.split(dp_group, &mut ctx.clock).unwrap();
            let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            ssmb::forward_ssmb(
                &PaddingFreePipeline,
                &tokens,
                router,
                &shard,
                spec,
                &tp,
                &mut ex,
            )
            .unwrap()
        })
    };
    let full_experts = ExpertShard::full(experts, hidden, ffn, seed + 1);
    for (rank, got) in out.iter().enumerate() {
        let dp_group = rank / 2;
        let tokens = Tensor::rand_uniform(seq, hidden, 1.0, 9000 + dp_group as u64);
        let want = single(&tokens, &router, &full_experts, &spec);
        assert!(
            got.allclose(&want, 2e-4),
            "SSMB rank {rank} diverges, max diff {}",
            got.max_abs_diff(&want)
        );
    }
}

#[test]
fn drop_policies_differ_only_in_retention() {
    // Same batch under both policies: the X-MoE output restricted to
    // entries both retained must match is hard to observe from outputs, but
    // the DS policy output must equal an X-MoE run whose router zeroes the
    // dropped entries. We verify the weaker, still-sharp property: with no
    // negative logits the two policies coincide exactly.
    let (seq, hidden, ffn, experts, top_k) = (24usize, 12usize, 8usize, 8usize, 3usize);
    let router = Router::new(hidden, experts, top_k, 707);
    let experts_full = ExpertShard::full(experts, hidden, ffn, 708);
    // Shift tokens so all gate logits are comfortably positive.
    let mut tokens = Tensor::rand_uniform(seq, hidden, 0.05, 709);
    // Build a rank-1 direction that yields positive logits for every expert.
    let probe = Tensor::full(1, hidden, 1.0);
    let logits = xmoe::tensor::matmul(&probe, &router.weight);
    if logits.as_slice().iter().all(|&v| v > 0.0) {
        for r in 0..tokens.rows() {
            for c in 0..tokens.cols() {
                let v = tokens.get(r, c);
                tokens.set(r, c, v + 1.0);
            }
        }
        let g = router.gate(&tokens);
        if g.top_logits.iter().all(|&l| l > 0.0) {
            let spec_x = MoeLayerSpec::new(experts, 10_000).with_policy(DropPolicy::CapacityOnly);
            let spec_d = MoeLayerSpec::new(experts, 10_000)
                .with_policy(DropPolicy::CapacityAndNegativeLogit);
            let out_x = single(&tokens, &router, &experts_full, &spec_x);
            let out_d = single(&tokens, &router, &experts_full, &spec_d);
            assert!(
                out_x.allclose(&out_d, 1e-6),
                "policies must coincide with no negatives"
            );
        }
    }
    // If the random direction did not give all-positive logits, the
    // property is vacuous for this seed; the unit tests cover the
    // differing-retention side.
}

/// A forward handed the wrong expert shard is a typed context error at
/// transport entry, not a panic or silently wrong numbers: single-rank with
/// one rank's shard (it needs a communicator to reach the other experts),
/// flat EP and RBD with another rank's shard or the full set. RBD on an
/// expert count the EP size does not divide computes what flat EP does.
#[test]
fn single_rank_forward_with_a_partial_shard_is_a_typed_error() {
    let (hidden, ffn, experts, top_k) = (12usize, 8usize, 8usize, 3usize);
    let router = Router::new(hidden, experts, top_k, 811);
    let spec = MoeLayerSpec::new(experts, 10_000);
    let partial = ExpertShard::for_rank(1, 4, experts, hidden, ffn, 812);
    let tokens = Tensor::rand_uniform(16, hidden, 1.0, 813);
    let wrong_shard = |err: &pipeline::PipelineError| matches!(err, pipeline::PipelineError::MissingCtx(what) if what.contains("full expert set"));
    let pipelines: [&dyn Pipeline; 2] = [&PaddingFreePipeline, &BlockSparsePipeline { block: 4 }];
    for pipeline in pipelines {
        let mut state = PooledSingleState::default();
        for ctx in [ExecCtx::single(), ExecCtx::pooled(&mut state)] {
            let mut ctx = ctx;
            let err = pipeline
                .forward(&tokens, &router, &partial, &spec, &mut ctx)
                .unwrap_err();
            assert!(wrong_shard(&err), "{}: {err}", pipeline.name());
        }
    }

    // Two ranks, each handed the other's shard, then each the full set.
    let world = 2;
    let shards = [
        |rank: usize| ExpertShard::for_rank(1 - rank, 2, 8, 12, 8, 812),
        |_: usize| ExpertShard::full(8, 12, 8, 812),
    ];
    for (case, shard_of) in shards.iter().enumerate() {
        let errs = SimCluster::frontier(world).run(|ctx| {
            let shard = shard_of(ctx.rank);
            let mut errs = Vec::new();
            let flat: [&dyn Pipeline; 2] =
                [&PaddingFreePipeline, &BlockSparsePipeline { block: 4 }];
            for pipeline in flat {
                for overlap in [None, Some(2)] {
                    let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
                    ex.overlap_chunks = overlap;
                    let out = pipeline.forward(&tokens, &router, &shard, &spec, &mut ex);
                    errs.push((pipeline.name(), out.err()));
                }
            }
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
            let mut rng = DetRng::new(814);
            let rbd = RbdPipeline {
                policy: PilotPolicy::Random,
            };
            let mut ex = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
            let out = rbd.forward(&tokens, &router, &shard, &spec, &mut ex);
            errs.push((rbd.name(), out.err()));
            errs
        });
        for (rank, errs) in errs.iter().enumerate() {
            for (name, err) in errs {
                assert!(
                    err.as_ref().is_some_and(wrong_shard),
                    "case {case} rank {rank} {name}: {err:?}"
                );
            }
        }
    }

    // RBD over a ragged layout (3 experts on 2 ranks): right shards, and it
    // routes by the same contiguous layout as flat EP.
    rbd_matches_flat_ep_ragged(world, 3, 2, 815);

    // One expert on two ranks leaves rank 0 an empty block: unsupported on
    // either transport, not a panic in the layout.
    let router = Router::new(hidden, 1, 1, 818);
    let spec = MoeLayerSpec::new(1, 10_000);
    let errs = SimCluster::frontier(world).run(|ctx| {
        let shard = ExpertShard {
            first_expert: 0,
            experts: (0..ctx.rank)
                .map(|_| Expert::new(hidden, ffn, 819))
                .collect(),
        };
        let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
        let flat = PaddingFreePipeline.forward(&tokens, &router, &shard, &spec, &mut ex);
        let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
        let mut rng = DetRng::new(820);
        let mut ex = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
        let rbd = RbdPipeline {
            policy: PilotPolicy::Random,
        };
        [
            flat.err(),
            rbd.forward(&tokens, &router, &shard, &spec, &mut ex).err(),
        ]
    });
    for (rank, errs) in errs.iter().enumerate() {
        for err in errs {
            let unsupported = matches!(err, Some(pipeline::PipelineError::Unsupported(_)));
            assert!(unsupported, "rank {rank}: {err:?}");
        }
    }
}

/// RBD against flat EP on the contiguous layout of `experts` over `world`
/// ranks when `world` does not divide `experts` (rank `r` holds
/// `[r·E/W, (r+1)·E/W)`): the same layer, up to RBD's per-(token, node)
/// summation order.
fn rbd_matches_flat_ep_ragged(world: usize, experts: usize, top_k: usize, seed: u64) {
    let (seq, hidden, ffn) = (16usize, 12usize, 8usize);
    let router = Router::new(hidden, experts, top_k, seed);
    let spec = MoeLayerSpec::new(experts, 10_000);
    let outs = SimCluster::frontier(world).run(|ctx| {
        let block = ctx.rank * experts / world..(ctx.rank + 1) * experts / world;
        let shard = ExpertShard {
            first_expert: block.start,
            experts: block
                .map(|e| Expert::new(hidden, ffn, seed + 1 + e as u64))
                .collect(),
        };
        let tokens = Tensor::rand_uniform(seq, hidden, 1.0, seed + 2 + ctx.rank as u64);
        let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
        let flat = PaddingFreePipeline
            .forward(&tokens, &router, &shard, &spec, &mut ex)
            .unwrap();
        let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
        let mut rng = DetRng::new(seed + 3 + ctx.rank as u64);
        let mut ex = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
        let rbd = RbdPipeline {
            policy: PilotPolicy::Random,
        };
        (
            flat,
            rbd.forward(&tokens, &router, &shard, &spec, &mut ex)
                .unwrap(),
        )
    });
    for (rank, (flat, rbd)) in outs.iter().enumerate() {
        assert!(
            rbd.allclose(flat, 2e-4),
            "{experts} experts on {world} ranks, rank {rank}: max diff {}",
            rbd.max_abs_diff(flat)
        );
    }
}

/// RBD's pilot and replica routing on a ragged layout across two nodes.
#[test]
fn rbd_matches_flat_ep_on_a_ragged_two_node_layout() {
    rbd_matches_flat_ep_ragged(16, 40, 6, 821);
}
