//! X-MoE's padding-free MoE layer (paper §4.1, Listing 1).
//!
//! Stage labels charged to the [`SimClock`] match the Fig 11 breakdown:
//! `gating`, `buffer_dispatch`, `dispatch_a2a`, `expert`, `combine_a2a`,
//! `buffer_combine`.
//!
//! There is one forward (`forward`, reached through
//! [`crate::pipeline::Pipeline`]) for the whole PFT family. Its two
//! orthogonal arguments are the `Transport` (single-rank, or the uneven
//! exchange of a flat EP group — [`crate::route::EpRoute`], which alone
//! decides between the serial and the chunk-pipelined schedule) and the
//! `ExpertKernel` (plain segments or Megablocks-style block padding); every
//! transport × kernel pair runs. The prefix (`gate_and_gather`) is shared
//! with the RBD transport in [`crate::rbd`].

use xmoe_collectives::{Communicator, SimClock};
use xmoe_tensor::{gather_rows_into, scatter_rows_scaled, Tensor, Workspace};
use xmoe_topology::ExpertAssignment;

use crate::expert::ExpertShard;
use crate::gating::{GateScratch, GatingOutput, Router};
use crate::pft::{Pft, PftScratch};
use crate::pipeline::block_sparse::forward_block_padded;
use crate::pipeline::{MoeLayerSpec, PipelineError};
use crate::price::{self, Meter, F32};
use crate::route::EpRoute;

/// Persistent state for every pooled pipeline: the workspace arena plus
/// every buffer the pipelines reuse across steps. One instance per rank,
/// reused for the lifetime of the layer. The padding-free, block-sparse and
/// RBD paths all lease from the same state, so a rank running several
/// pipelines still converges to one arena high-water mark.
#[derive(Default)]
pub struct PooledSingleState {
    /// The arena backing transient leases (dispatch, MLP scratch, output).
    pub ws: Workspace,
    pub(crate) gate_scratch: GateScratch,
    pub(crate) gating: GatingOutput,
    pub(crate) pft_scratch: PftScratch,
    pub(crate) pft: Pft,
    pub(crate) dispatch_in: Tensor,
    /// The contiguous `(E, W)` layout the flat-EP transport routes by,
    /// rebuilt only when the shape changes.
    assignment: Option<ExpertAssignment>,
    /// The flat-EP transport's route, re-planned in place every forward.
    route: EpRoute,
    /// RBD-specific plan/staging scratch (see [`crate::rbd`]).
    pub(crate) rbd: crate::rbd::RbdScratch,
}

/// How dispatched rows reach their experts and come back.
pub(crate) enum Transport<'a> {
    /// All experts local: `call` in Listing 1 minus the all-to-alls. No
    /// communication, no clock, no copy.
    Local,
    /// Uneven all-to-alls over a flat EP group ([`EpRoute::exchange`]); with
    /// `overlap_chunks` the exchanges are pipelined against the expert GEMMs
    /// per chunk expert range — bitwise the same output, a shorter simulated
    /// timeline.
    Ep {
        comm: &'a Communicator,
        clock: &'a mut SimClock,
        overlap_chunks: Option<usize>,
    },
}

impl Transport<'_> {
    fn meter(&mut self) -> Meter<'_> {
        match self {
            Transport::Local => Meter::default(),
            Transport::Ep { comm, clock, .. } => Meter::new(comm, clock),
        }
    }
}

/// What runs on the expert-major buffer.
#[derive(Clone, Copy)]
pub(crate) enum ExpertKernel {
    /// Sequential GEMM over the exact per-expert segments (§4.1).
    Plain,
    /// Each segment zero-padded to a multiple of the tile size first
    /// ([`crate::pipeline::block_sparse`]).
    BlockPadded(usize),
}

/// The prefix every PFT-family forward shares, flat EP and RBD alike:
/// gate → PFT construction → gather into the dispatch matrix, all in
/// `state`'s grow-once buffers, charging `gating` (router GEMM plus PFT
/// construction) and `buffer_dispatch` once.
pub(crate) fn gate_and_gather(
    tokens: &Tensor,
    router: &Router,
    spec: &MoeLayerSpec,
    state: &mut PooledSingleState,
    mut meter: Meter,
) {
    let hidden = tokens.cols();
    router.gate_into(tokens, &mut state.gate_scratch, &mut state.gating);
    Pft::construct_into(
        &state.gating,
        spec.num_experts,
        spec.capacity,
        spec.policy,
        &mut state.pft_scratch,
        &mut state.pft,
    );
    let (s, e, k) = (tokens.rows() as f64, spec.num_experts, state.gating.k());
    meter.charge("gating", |c| price::gating(c, s, hidden, e, k));
    gather_rows_into(tokens, &state.pft.token_ids, &mut state.dispatch_in);
    let rows = state.pft.len();
    meter.charge("buffer_dispatch", |c| price::gather(c, rows, hidden));
}

/// Run `kernel` over an expert-major `[rows, H]` buffer split by `counts`;
/// the output is leased from `ws`. Charges `expert` (and the block kernel's
/// pad/strip copies).
fn run_experts(
    experts: &ExpertShard,
    input: &Tensor,
    counts: &[usize],
    kernel: ExpertKernel,
    ws: &mut Workspace,
    mut meter: Meter,
) -> Tensor {
    match kernel {
        ExpertKernel::Plain => {
            let out = experts.forward_segments_pooled(input, counts, ws);
            let (rows, h, f) = (input.rows() as f64, input.cols(), experts.ffn());
            meter.charge("expert", |c| price::expert_seq(c, rows, h, f, F32));
            out
        }
        ExpertKernel::BlockPadded(block) => {
            forward_block_padded(experts, input, counts, block, ws, meter)
        }
    }
}

/// The padding-free MoE forward (paper §4.1, Listing 1), written once:
/// [`gate_and_gather`] → `transport` out → `kernel` → `transport` back →
/// weighted scatter. Every buffer it can lease comes from `state` (callers
/// wanting the owned baseline pass a throwaway one), and the returned
/// `[S, H]` output is itself leased from `state.ws` — recycle it there when
/// done. After warm-up neither transport performs a transient heap
/// allocation on the serial schedule: the EP route leases its wire buffers
/// from `state.ws` too.
pub(crate) fn forward(
    tokens: &Tensor,
    router: &Router,
    experts: &ExpertShard,
    spec: &MoeLayerSpec,
    mut transport: Transport,
    kernel: ExpertKernel,
    state: &mut PooledSingleState,
) -> Result<Tensor, PipelineError> {
    if matches!(transport, Transport::Local) && experts.len() != spec.num_experts {
        return Err(PipelineError::MissingCtx(
            "single-rank forward needs the full expert set; provide a communicator",
        ));
    }
    let hidden = tokens.cols();
    gate_and_gather(tokens, router, spec, state, transport.meter());
    let PooledSingleState {
        ws,
        pft,
        dispatch_in,
        assignment,
        route,
        ..
    } = state;

    // PFT-ordered rows in, PFT-ordered expert outputs back, leased from `ws`.
    let combine_in = match &mut transport {
        Transport::Local => run_experts(
            experts,
            dispatch_in,
            &pft.tokens_per_expert,
            kernel,
            ws,
            Meter::default(),
        ),
        Transport::Ep {
            comm,
            clock,
            overlap_chunks,
        } => {
            let comm: &Communicator = comm;
            let shape = (spec.num_experts, comm.size());
            let assignment = match assignment {
                Some(a) if (a.n_experts(), a.n_ranks()) == shape => a,
                stale => stale.insert(ExpertAssignment::contiguous(shape.0, shape.1)),
            };
            // The route owns the PFT while it lives (a failed collective
            // drops both; the next forward rebuilds the PFT anyway). The
            // count-exchange metadata all-to-all is charged separately from
            // the token payload so payload comparisons across pipelines stay
            // apples to apples.
            route.pft = std::mem::take(pft);
            route.rebuild(assignment, comm, clock)?;
            clock.commit("dispatch_a2a_meta");
            let counts = &route.tokens_per_local_expert;
            let combine_in = route.exchange(
                std::mem::take(dispatch_in),
                *overlap_chunks,
                ("dispatch_a2a", "expert", "combine_a2a"),
                comm,
                clock,
                ws,
                |plan, chunk_in, clock, ws| {
                    // A full-length count vector zeroed outside the chunk
                    // walks exactly the whole shard's row slices for
                    // experts [e0, e1).
                    let (e0, e1) = plan.experts;
                    let mut chunk_counts = ws.take_idx(counts.len());
                    chunk_counts[e0..e1].copy_from_slice(&counts[e0..e1]);
                    let meter = Meter::new(comm, clock);
                    let out = run_experts(experts, &chunk_in, &chunk_counts, kernel, ws, meter);
                    ws.recycle_idx(chunk_counts);
                    ws.recycle(chunk_in);
                    out
                },
            )?;
            *pft = std::mem::take(&mut route.pft);
            combine_in
        }
    };

    // Buffer combine: weighted scatter back to sequence order.
    let mut out = ws.take(tokens.rows(), hidden);
    scatter_rows_scaled(&combine_in, &pft.token_ids, &pft.combine_weights, &mut out);
    let rows = pft.len();
    transport
        .meter()
        .charge("buffer_combine", |c| price::gather(c, rows, hidden));
    if matches!(transport, Transport::Local) {
        ws.recycle(combine_in);
    } else {
        // The route recycled the dispatch matrix it was handed; the rows it
        // returned, the same shape, take its place in `state`.
        *dispatch_in = combine_in;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gating::DropPolicy;
    use crate::pipeline::{ExecCtx, PaddingFreePipeline, Pipeline};
    use xmoe_collectives::{RankCtx, SimCluster, Span};

    fn single(t: &Tensor, router: &Router, experts: &ExpertShard, sp: &MoeLayerSpec) -> Tensor {
        PaddingFreePipeline
            .forward(t, router, experts, sp, &mut ExecCtx::single())
            .unwrap()
    }

    /// Flat-EP forward on this rank, serial or overlapped.
    fn ep(
        t: &Tensor,
        router: &Router,
        shard: &ExpertShard,
        sp: &MoeLayerSpec,
        overlap: Option<usize>,
        ctx: &mut RankCtx,
    ) -> Tensor {
        let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
        ex.overlap_chunks = overlap;
        PaddingFreePipeline
            .forward(t, router, shard, sp, &mut ex)
            .unwrap()
    }

    fn spec(e: usize, cap: usize) -> MoeLayerSpec {
        MoeLayerSpec::new(e, cap).with_policy(DropPolicy::CapacityOnly)
    }

    /// Call `run(name, assignment, per-rank PFTs)` for the four world-4
    /// layouts every route property must hold on: uniform; one expert
    /// migrated (at E = 4 its old rank is left holding nothing); the hottest
    /// expert replicated onto the next rank; ragged (E = 10). Each rank's
    /// PFT comes from its own seeded `[s, h]` batch, top-`k`.
    fn for_each_layout(
        seed: u64,
        (s, h, k): (usize, usize, usize),
        run: impl Fn(&str, &ExpertAssignment, &[Pft]),
    ) {
        for (name, e) in [
            ("uniform", 8),
            ("migrated", 4),
            ("replicated", 8),
            ("ragged", 10),
        ] {
            let router = Router::new(h, e, k, seed);
            let pfts: Vec<Pft> = (0..4)
                .map(|r| {
                    let tokens = Tensor::rand_uniform(s, h, 1.0, seed + 100 + r);
                    Pft::construct(&router.gate(&tokens), e, 1000, DropPolicy::CapacityOnly)
                })
                .collect();
            let mut asg = ExpertAssignment::contiguous(e, 4);
            match name {
                "migrated" => asg.migrate(3, 0),
                "replicated" => {
                    let load =
                        |g: usize| pfts.iter().map(|p| p.tokens_per_expert[g]).sum::<usize>();
                    let hot = (0..e).max_by_key(|&g| load(g)).unwrap();
                    asg.replicate(hot, (asg.primary(hot) + 1) % 4);
                }
                _ => {}
            }
            run(name, &asg, &pfts);
        }
    }

    #[test]
    fn single_rank_output_is_weighted_expert_mix() {
        // One token, one expert, top-1: output must equal w * expert(x).
        let router = Router::new(8, 2, 1, 3);
        let experts = ExpertShard::full(2, 8, 16, 4);
        let tokens = Tensor::rand_uniform(1, 8, 1.0, 5);
        let out = single(&tokens, &router, &experts, &spec(2, 100));
        let g = router.gate(&tokens);
        let e = g.top_experts[0];
        let w = g.combine_weights[0];
        let mut expected = experts.experts[e].forward(&tokens);
        xmoe_tensor::scale_assign(&mut expected, w);
        assert!(out.allclose(&expected, 1e-5));
    }

    #[test]
    fn pooled_single_rank_is_bitwise_identical_across_steps() {
        let (s, h, f, e, k) = (24, 16, 8, 8, 3);
        let router = Router::new(h, e, k, 31);
        let experts = ExpertShard::full(e, h, f, 32);
        let sp = spec(e, 7); // tight capacity: drops exercised too
        let mut state = PooledSingleState::default();
        for step in 0..4 {
            let tokens = Tensor::rand_uniform(s, h, 1.0, 100 + step);
            let expected = single(&tokens, &router, &experts, &sp);
            let out = PaddingFreePipeline
                .forward(
                    &tokens,
                    &router,
                    &experts,
                    &sp,
                    &mut ExecCtx::pooled(&mut state),
                )
                .unwrap();
            assert!(out.allclose(&expected, 0.0), "step {step} diverged");
            state.ws.recycle(out);
        }
        // Warm-up allocates two arena buffers (the recycled MLP scratch is
        // reused for the combine output); subsequent steps only reuse.
        assert_eq!(state.ws.stats().pool_misses, 2);
    }

    #[test]
    fn distributed_matches_single_rank_reference() {
        let (s, h, f, e, k) = (24, 16, 8, 8, 3);
        let seed = 11;
        for world in [2usize, 4, 8] {
            let reference = {
                let router = Router::new(h, e, k, seed);
                let experts = ExpertShard::full(e, h, f, seed + 1);
                let sp = spec(e, 10_000);
                SimCluster::frontier(world).run(|ctx| {
                    // Every rank gets a *different* local batch.
                    let tokens = Tensor::rand_uniform(s, h, 1.0, 100 + ctx.rank as u64);
                    single(&tokens, &router, &experts, &sp)
                })
            };
            let distributed = {
                let router = Router::new(h, e, k, seed);
                let sp = spec(e, 10_000);
                SimCluster::frontier(world).run(|ctx| {
                    let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, seed + 1);
                    let tokens = Tensor::rand_uniform(s, h, 1.0, 100 + ctx.rank as u64);
                    ep(&tokens, &router, &shard, &sp, None, ctx)
                })
            };
            for (r, (a, b)) in reference.iter().zip(&distributed).enumerate() {
                assert!(
                    a.allclose(b, 1e-4),
                    "world {world} rank {r}: max diff {}",
                    a.max_abs_diff(b)
                );
            }
        }
    }

    #[test]
    fn distributed_charges_all_pipeline_stages() {
        let (s, h, f, e, k) = (16, 8, 4, 4, 2);
        let router = Router::new(h, e, k, 21);
        let sp = spec(e, 1000);
        let buckets = SimCluster::frontier(4).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 4, e, h, f, 22);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 23);
            let _ = ep(&tokens, &router, &shard, &sp, None, ctx);
            ctx.clock.buckets().to_vec()
        });
        for labels in &buckets {
            let names: Vec<&str> = labels.iter().map(|(l, _)| l.as_str()).collect();
            for want in [
                "gating",
                "buffer_dispatch",
                "dispatch_a2a",
                "expert",
                "combine_a2a",
                "buffer_combine",
            ] {
                assert!(names.contains(&want), "missing stage {want}: {names:?}");
            }
            assert!(labels.iter().all(|(_, t)| *t >= 0.0));
            // On the uniform layout the route charges, to the bit, what the
            // uniform-only `EpRoute` it replaced charged for this seeded case
            // (pinned at that commit; every rank sees the same byte matrix).
            let bits = |want: &str| {
                let (_, t) = labels.iter().find(|(l, _)| l == want).unwrap();
                t.to_bits()
            };
            assert_eq!(bits("dispatch_a2a_meta"), 0x3ef0c6ffdfc5e21b);
            assert_eq!(bits("dispatch_a2a"), 0x3ef0c8417b3423aa);
            assert_eq!(bits("combine_a2a"), 0x3ef0c8417b3423aa);
        }
    }

    #[test]
    fn capacity_drops_do_not_break_distributed_equivalence() {
        // Tight capacity: both paths must drop the same entries.
        let (s, h, f, e, k) = (32, 8, 4, 4, 2);
        let router = Router::new(h, e, k, 31);
        let experts_full = ExpertShard::full(e, h, f, 32);
        let sp = spec(e, 5); // tight
        let tokens = Tensor::rand_uniform(s, h, 1.0, 33);
        let reference = single(&tokens, &router, &experts_full, &sp);
        let distributed = SimCluster::frontier(4).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 4, e, h, f, 32);
            ep(&tokens, &router, &shard, &sp, None, ctx)
        });
        for d in &distributed {
            assert!(
                d.allclose(&reference, 1e-4),
                "max diff {}",
                d.max_abs_diff(&reference)
            );
        }
    }

    #[test]
    fn route_roundtrip_restores_pft_order() {
        // Out and back must return every row to its original position (the
        // property backward relies on), on every layout and schedule, and in
        // between the rows must sit expert-major: local expert ascending,
        // then source rank, then source PFT order.
        let h = 6usize;
        for_each_layout(41, (20, h, 3), |name, asg, pfts| {
            SimCluster::frontier(4).run(|ctx| {
                let pft = pfts[ctx.rank].clone();
                // Each row names its expert, its source and its PFT index.
                let payload = Tensor::from_fn(pft.len(), h, |i, c| match c {
                    0 => pft.expert_ids[i] as f32,
                    1 => ctx.rank as f32,
                    2 => i as f32,
                    _ => (c * 1000 + i) as f32,
                });
                let route = EpRoute::build(pft, asg, &ctx.world, &mut ctx.clock).unwrap();
                let locals = asg.experts_on(ctx.rank);
                // One arena for every schedule, twice over: each rank sends
                // and receives one buffer per peer per direction, so after
                // the first pass nothing is allocated.
                let mut ws = Workspace::new();
                let mut first_pass = 0;
                let schedules = [None, Some(1usize), Some(2), Some(3)];
                for (i, chunks) in schedules.into_iter().chain(schedules).enumerate() {
                    if i == schedules.len() {
                        first_pass = ws.stats().pool_misses;
                    }
                    let back = route
                        .exchange(
                            payload.clone(),
                            chunks,
                            ("out", "check", "back"),
                            &ctx.world,
                            &mut ctx.clock,
                            &mut ws,
                            |plan, chunk, _, _| {
                                let (e0, e1) = plan.experts;
                                let counts = &route.tokens_per_local_expert[e0..e1];
                                let mut row = 0;
                                for (&g, &n) in locals[e0..e1].iter().zip(counts) {
                                    let mut last = (-1.0f32, -1.0f32);
                                    for _ in 0..n {
                                        let r = chunk.row(row);
                                        assert_eq!(r[0], g as f32, "{name}: expert");
                                        assert!((r[1], r[2]) > last, "{name}: source order");
                                        last = (r[1], r[2]);
                                        row += 1;
                                    }
                                }
                                assert_eq!(row, chunk.rows(), "{name}: chunk rows");
                                chunk
                            },
                        )
                        .unwrap();
                    assert!(back.allclose(&payload, 0.0), "{name} {chunks:?}");
                    ws.recycle(back);
                }
                assert_eq!(ws.stats().pool_misses, first_pass, "{name}: arena");
            });
        });
    }

    #[test]
    fn overlap_forward_is_bitwise_identical_to_serial() {
        let (s, h, f, e, k) = (24, 16, 8, 8, 3);
        for world in [2usize, 4] {
            let serial = {
                let router = Router::new(h, e, k, 61);
                let sp = spec(e, 10_000);
                SimCluster::frontier(world).run(|ctx| {
                    let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 62);
                    let tokens = Tensor::rand_uniform(s, h, 1.0, 500 + ctx.rank as u64);
                    ep(&tokens, &router, &shard, &sp, None, ctx)
                })
            };
            for chunks in [1usize, 2, 4, 9] {
                let router = Router::new(h, e, k, 61);
                let sp = spec(e, 10_000);
                let overlapped = SimCluster::frontier(world).run(|ctx| {
                    let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 62);
                    let tokens = Tensor::rand_uniform(s, h, 1.0, 500 + ctx.rank as u64);
                    ep(&tokens, &router, &shard, &sp, Some(chunks), ctx)
                });
                for (r, (a, b)) in serial.iter().zip(&overlapped).enumerate() {
                    assert!(
                        a.allclose(b, 0.0),
                        "world {world} chunks {chunks} rank {r}: not bitwise identical \
                         (max diff {})",
                        a.max_abs_diff(b)
                    );
                }
            }
        }
    }

    #[test]
    fn overlap_hides_time_and_tracks_stay_exact() {
        // The overlapped schedule must never be slower than its own serial
        // work sum, and the per-track spans must sum exactly.
        let (s, h, f, e, k) = (48, 16, 8, 8, 4);
        let router = Router::new(h, e, k, 71);
        let sp = spec(e, 10_000);
        let world = 4;
        let reports = SimCluster::frontier(world).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 72);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 600 + ctx.rank as u64);
            let _ = ep(&tokens, &router, &shard, &sp, Some(4), ctx);
            ctx.clock.flush();
            let wall = ctx.clock.now();
            let work: f64 = ctx.clock.buckets().iter().map(|(_, t)| t).sum();
            let spans = ctx.clock.spans().to_vec();
            (wall, work, spans)
        });
        for (wall, work, spans) in reports {
            // Overlap hides time: total work strictly exceeds the wall
            // clock whenever both tracks did anything.
            assert!(work >= wall - 1e-12, "work {work} < wall {wall}");
            // Per-track exactness: within each track, spans are
            // back-to-back (sum == cursor advance over the track).
            for track in ["comm", "compute"] {
                let mut t: Vec<&Span> = spans
                    .iter()
                    .filter(|sp| sp.track.as_deref() == Some(track))
                    .collect();
                t.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
                for w in t.windows(2) {
                    assert!(
                        (w[0].start + w[0].dur - w[1].start).abs() < 1e-9,
                        "gap inside track {track}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_plans_partition_the_route() {
        for_each_layout(81, (32, 6, 3), |name, asg, pfts| {
            let max_local = (0..4).map(|r| asg.experts_on(r).len()).max().unwrap();
            SimCluster::frontier(4).run(|ctx| {
                let pft = pfts[ctx.rank].clone();
                let route = &EpRoute::build(pft, asg, &ctx.world, &mut ctx.clock).unwrap();
                let whole = route.chunk_plans(1)[0];
                for chunks in [1usize, 2, 3, 100] {
                    let plans = route.chunk_plans(chunks);
                    // The same count on every rank, whatever it holds.
                    assert_eq!(plans.len(), chunks.clamp(1, max_local), "{name}");
                    // Expert and row ranges tile the local shard's buffer.
                    assert_eq!((plans[0].experts.0, plans[0].rows.0), (0, 0));
                    let last = plans.last().unwrap();
                    assert_eq!(last.experts.1, asg.experts_on(ctx.rank).len());
                    assert_eq!(last.rows.1, route.recv_total());
                    for w in plans.windows(2) {
                        assert_eq!(w[0].experts.1, w[1].experts.0);
                        assert_eq!(w[0].rows.1, w[1].rows.0);
                    }
                    // The chunks' sent segments tile the PFT, and what they
                    // receive from each source sums to the whole route's.
                    let mut sent: Vec<(usize, usize)> = plans
                        .iter()
                        .flat_map(|&p| (0..4).flat_map(move |d| route.source_blocks(p, d)))
                        .filter(|&(_, n)| n > 0)
                        .collect();
                    sent.sort_unstable();
                    let mut row = 0;
                    for (start, n) in sent {
                        assert_eq!(start, row, "{name}: a PFT row sent twice or never");
                        row += n;
                    }
                    assert_eq!(row, route.pft.len());
                    for src in 0..4 {
                        let rows = |p| route.expert_blocks(p, src).map(|(_, n)| n).sum::<usize>();
                        let chunked: usize = plans.iter().map(|&p| rows(p)).sum();
                        assert_eq!(chunked, rows(whole), "{name} chunks {chunks} src {src}");
                    }
                }
            });
        });
    }

    #[test]
    fn route_counts_are_consistent() {
        for_each_layout(51, (16, 6, 2), |name, asg, pfts| {
            let per_rank = SimCluster::frontier(4).run(|ctx| {
                let pft = pfts[ctx.rank].clone();
                let route = EpRoute::build(pft, asg, &ctx.world, &mut ctx.clock).unwrap();
                let whole = route.chunk_plans(1)[0];
                let rows = |blocks: &dyn Fn(usize) -> usize| (0..4).map(blocks).collect::<Vec<_>>();
                let sent = rows(&|d| route.source_blocks(whole, d).map(|(_, n)| n).sum());
                let recv = rows(&|s| route.expert_blocks(whole, s).map(|(_, n)| n).sum());
                assert_eq!(sent.iter().sum::<usize>(), route.pft.len(), "{name}");
                assert_eq!(recv.iter().sum::<usize>(), route.recv_total(), "{name}");
                let expert_total: usize = route.tokens_per_local_expert.iter().sum();
                assert_eq!(expert_total, route.recv_total(), "{name}");
                (sent, recv)
            });
            // What `s` sends `d` is what `d` receives from `s`.
            for (s, (sent, _)) in per_rank.iter().enumerate() {
                for (d, (_, recv)) in per_rank.iter().enumerate() {
                    assert_eq!(sent[d], recv[s], "{name}: {s} -> {d}");
                }
            }
        });
    }
}
