//! X-MoE's padding-free MoE layer (paper §4.1, Listing 1).
//!
//! Stage labels charged to the [`SimClock`] match the Fig 11 breakdown:
//! `gating`, `buffer_dispatch`, `dispatch_a2a`, `expert`, `combine_a2a`,
//! `buffer_combine`.
//!
//! [`forward`] is the one MoE layer pass — the PFT-family pipelines (RBD
//! included), serving and both training layers of `xmoe-train` run it — over
//! two orthogonal arguments: the [`Transport`] (local, a flat EP group's
//! [`EpRoute`] serial or chunk-pipelined, or RBD's hierarchical dispatch and
//! combine, [`crate::rbd`]), which the training backward travels in reverse
//! over the first two, and the [`ExpertKernel`].

use xmoe_collectives::{CommError, Communicator, SimClock};
use xmoe_tensor::{
    gather_rows_into, scatter_rows_scaled, DetRng, RowSink, RowSource, Tensor, Workspace,
    WorkspaceStats,
};
use xmoe_topology::ExpertAssignment;

use crate::expert::{expert_ffn, widths, Expert, FfnRows};
use crate::gating::{gate_rows, GateScratch, GatingOutput};
use crate::pft::{Pft, PftScratch};
use crate::pipeline::block_sparse::forward_block_padded;
use crate::pipeline::MoeLayerSpec;
use crate::price::{self, Meter, F32};
use crate::rbd::{PilotPolicy, RbdComms};
use crate::route::{Chunk, ChunkPlan, EpRoute, Payload};

/// Persistent state for every pooled pipeline: the workspace arena plus
/// every buffer the pipelines reuse across steps. One instance per rank,
/// reused for the lifetime of the layer. Every transport leases from the
/// same state, so a rank running several pipelines still converges to one
/// arena high-water mark.
#[derive(Default)]
pub struct PooledSingleState {
    /// The arena backing transient leases (dispatch, MLP scratch, output).
    pub ws: Workspace,
    pub(crate) layer: LayerState,
    /// The contiguous `(E, W)` layout flat EP and RBD route by, rebuilt only
    /// when the shape changes.
    pub(crate) assignment: Option<ExpertAssignment>,
}

impl PooledSingleState {
    /// The arena's counters, with the buffers this state holds between
    /// forwards outside the arena counted as retained: the PFT-order rows
    /// `Ep` forwards keep, and the route's wire buffers (flat EP's and
    /// RBD's), which return to the rank that filled them. They are this
    /// rank's memory too.
    pub fn stats(&self) -> WorkspaceStats {
        let mut s = self.ws.stats();
        let (f32s, u64s) = self.layer.route.wire_capacity();
        s.retained_f32 += self.layer.rows.capacity() + f32s;
        s.retained_u64 += u64s;
        s
    }

    /// The PFT-order `[n, H]` rows this state keeps between forwards:
    /// grown by `Ep` forwards only. A `Local` forward reads the tokens by id
    /// and combines inside its second expert GEMM; RBD packs its pilots
    /// straight from the tokens.
    pub fn routed_rows(&self) -> &Tensor {
        &self.layer.rows
    }

    /// The last forward's routing decisions: the gate's scores and top-k.
    pub fn gating(&self) -> &GatingOutput {
        &self.layer.gating
    }
}

/// What one MoE layer's [`forward`] keeps, rebuilt in place by every call
/// (one per layer per rank). `route.pft` is the PFT under every transport.
#[derive(Clone, Default)]
pub struct LayerState {
    /// The gate's scratch (its clamped logits) and output (`[S, E]` scores).
    pub gate_scratch: GateScratch,
    pub gating: GatingOutput,
    /// How many logits the gate's clamp limited.
    pub logits_clamped: usize,
    pft_scratch: PftScratch,
    pub route: EpRoute,
    /// PFT-order rows, for the one transport that sends them (`Ep`): the
    /// dispatch rows going out and, after a bare call, the expert outputs
    /// computed over them in place, which the next call gathers into.
    /// `Local` never grows them (its experts read the tokens by id), nor
    /// does RBD (its S0 packs the pilots straight from the tokens).
    pub(crate) rows: Tensor,
}

/// What a training [`forward`] keeps for its backward, leased from the
/// call's arena (the backward hands each back), all expert-major: each row's
/// input and the FFN's hidden layer before and after the SiLU. No transport
/// keeps the expert outputs: the backward forms each combine-weight gradient
/// as `⟨d_out[t]·W2ᵀ, h_act⟩` at the experts, so the source sends out
/// `d_out[t]` and needs no `y`. Under `Local` only the hidden layer is kept —
/// two `[n, F]` buffers, no `[n, H]` one.
#[derive(Clone, Default)]
pub struct ExpertSaves {
    /// The rows the experts received, as they arrived over the wire; empty
    /// under `Local`, whose rows are the tokens' own: the backward reads
    /// them again by the PFT's token ids.
    pub input: Tensor,
    pub h_pre: Tensor,
    /// The activations, whose buffer the backward then writes `d_act` (and
    /// `d_h`) over.
    pub h_act: Tensor,
}

/// How dispatched rows reach their experts and come back: the one thing
/// that varies between MoE layer passes.
pub enum Transport<'a> {
    /// All experts local: `call` in Listing 1 minus the all-to-alls. The
    /// whole PFT is one chunk, its rows the tokens read by id; no
    /// communication, no clock, no copy.
    Local,
    /// Uneven all-to-alls over a flat EP group ([`EpRoute::exchange`]) under
    /// `assignment`; with `overlap_chunks` the exchanges are pipelined against
    /// the expert GEMMs per chunk expert range — bitwise the same output, a
    /// shorter simulated timeline.
    Ep {
        comm: &'a Communicator,
        clock: &'a mut SimClock,
        overlap_chunks: Option<usize>,
        assignment: &'a ExpertAssignment,
    },
    /// RBD (paper §4.2, [`crate::rbd`]) under the contiguous `assignment`:
    /// pilots picked by `policy` from `rng` cross nodes, replicas travel
    /// intra-node, one weighted partial per (token, node) comes back;
    /// `overlap_chunks` pipelines the pilot exchange. Forward only: sealed to
    /// this crate (`non_exhaustive`), so a training pass cannot pair it with
    /// saves.
    #[non_exhaustive]
    Rbd {
        comms: &'a RbdComms,
        clock: &'a mut SimClock,
        rng: &'a mut DetRng,
        policy: PilotPolicy,
        overlap_chunks: Option<usize>,
        assignment: &'a ExpertAssignment,
    },
}

impl Transport<'_> {
    /// The meter this transport's stages charge: the rank's clock under
    /// `Ep` and `Rbd`, nowhere under `Local`.
    pub fn meter(&mut self) -> Meter<'_> {
        match self {
            Transport::Local => Meter::default(),
            Transport::Ep { comm, clock, .. } => Meter::new(comm, clock),
            Transport::Rbd { comms, clock, .. } => Meter::new(&comms.ep, clock),
        }
    }

    /// Plan `route` for the PFT now in it and return the rows the local
    /// experts receive: under `Ep` one metadata all-to-all, charged apart
    /// from the token payload (so payload comparisons across pipelines stay
    /// apples to apples); under `Local` every PFT row. `Rbd` picks its pilots
    /// and packs them straight from `tokens` (S0), and returns 0: its rows
    /// are known only once they arrive.
    fn plan(&mut self, route: &mut EpRoute, tokens: &Tensor) -> Result<usize, CommError> {
        match self {
            Transport::Local => Ok(route.pft.len()),
            Transport::Ep {
                comm,
                clock,
                assignment,
                ..
            } => {
                route.rebuild(assignment, comm, clock)?;
                clock.commit("dispatch_a2a_meta");
                Ok(route.recv_total())
            }
            Transport::Rbd {
                comms,
                clock,
                rng,
                policy,
                assignment,
                ..
            } => {
                let (pft, rbd) = (&route.pft, &mut route.rbd);
                let meter = Meter::new(&comms.ep, clock);
                rbd.plan((pft, tokens), (comms, assignment), *policy, rng, meter);
                Ok(0)
            }
        }
    }

    /// The one expert exchange, forward activations and backward gradients
    /// alike: `outbound`'s PFT-order payload (and its side scalars, one per row,
    /// which `compute` may overwrite) to the experts, `compute` per chunk, back
    /// in PFT order (see [`EpRoute::exchange`] for the closure's contract;
    /// here it also gets a PFT, below). `Local` is `compute` over the whole
    /// PFT, which it passes: its `token_ids` name the token behind each row,
    /// so a caller that keeps the tokens reads a row by id instead of
    /// gathering or saving a copy, and its `combine_weights` let a forward
    /// combine where its outputs are made; the payload's rows pass through
    /// as the chunk (empty, or a lease for the outputs; none for
    /// [`Payload::Tokens`]), and so do the side scalars. The other transports
    /// pass `None`: their rows arrive over a wire. `Ep` is the route's
    /// exchange, serial or chunked, under `labels = (dispatch, compute,
    /// combine)`. `Rbd` (forward only: no side scalars) sends the pilots
    /// its `plan` packed and runs `compute` once, under its own labels; the
    /// per-(token, node) partials that come back stay in the route for the
    /// combine, and the rows (no PFT-order rows: empty unless the state last
    /// served another transport) return unchanged.
    pub fn exchange<F>(
        &mut self,
        route: &mut EpRoute,
        outbound: (Payload, Option<&mut [f32]>),
        labels: (&str, &str, &str),
        ws: &mut Workspace,
        mut compute: F,
    ) -> Result<Tensor, CommError>
    where
        F: FnMut(&ChunkPlan, &[usize], Option<&Pft>, Chunk<'_>, Meter, &mut Workspace) -> Tensor,
    {
        // What a transport whose rows arrive over a wire runs.
        let mut wired =
            |plan: &ChunkPlan, counts: &[usize], chunk: Chunk<'_>, meter: Meter<'_>, ws: &mut _| {
                compute(plan, counts, None, chunk, meter, ws)
            };
        let rows = |payload| match payload {
            Payload::Rows(rows) => rows,
            Payload::Tokens(_) => Tensor::default(),
        };
        match self {
            Transport::Local => {
                let pft = &route.pft;
                let counts = &pft.tokens_per_expert;
                let whole = ChunkPlan {
                    experts: (0, counts.len()),
                    rows: (0, pft.len()),
                    chunk: (0, 1),
                };
                let (payload, side) = outbound;
                let (chunk, meter) = ((rows(payload), side.unwrap_or_default()), Meter::default());
                Ok(compute(&whole, counts, Some(pft), chunk, meter, ws))
            }
            Transport::Ep {
                comm,
                clock,
                overlap_chunks,
                ..
            } => route.exchange(outbound, *overlap_chunks, labels, comm, clock, ws, wired),
            Transport::Rbd {
                comms,
                clock,
                overlap_chunks,
                assignment,
                ..
            } => {
                let (payload, side) = outbound;
                assert!(side.is_none(), "RBD carries no side scalars");
                let (layout, chunks) = ((*comms, *assignment), *overlap_chunks);
                route.rbd.exchange(layout, chunks, clock, ws, &mut wired)?;
                Ok(rows(payload))
            }
        }
    }

    /// The pass's last stage, into `out`: `Ep` scatters the PFT-order expert
    /// outputs `rows`, weighted, to their tokens; `Rbd` adds the
    /// per-(token, node) partials that came back (weighted at the experts);
    /// `Local` has nothing left to do — its second expert GEMM combined.
    fn combine(&self, route: &mut EpRoute, rows: &Tensor, out: &mut Tensor) {
        let pft = &route.pft;
        match self {
            Transport::Local => {}
            Transport::Ep { .. } => {
                scatter_rows_scaled(rows, &pft.token_ids, &pft.combine_weights, out)
            }
            Transport::Rbd { .. } => route.rbd.combine(pft, out),
        }
    }
}

/// What runs on the expert-major buffer.
#[derive(Clone, Copy)]
pub enum ExpertKernel {
    /// Sequential GEMM over the exact per-expert segments (§4.1).
    Plain,
    /// Each segment zero-padded to a multiple of the tile size first
    /// ([`crate::pipeline::block_sparse`]).
    BlockPadded(usize),
}

/// The pass's prefix: the gate ([`gate_rows`] with `gate = (weight, top_k,
/// logit_clamp)`; clamp 0 is none) → PFT construction into `state.route` →
/// for the transport that sends PFT-order rows (`Ep`), `state.rows` leased
/// from `lease`, if given, as `[n, H]` and the gather into them, all in
/// `state`'s grow-once buffers. Charges `gating` (router GEMM plus PFT
/// construction) and `buffer_dispatch` once, under every transport: `Local`'s
/// first expert GEMM reads the tokens by id instead, RBD's S0 copies the
/// pilot rows from the tokens.
pub(crate) fn gate_and_gather(
    tokens: &Tensor,
    (gate, top_k, clamp): (&Tensor, usize, f32),
    spec: &MoeLayerSpec,
    state: &mut LayerState,
    lease: Option<&mut Workspace>,
    transport: &mut Transport,
) {
    let hidden = tokens.cols();
    let LayerState {
        gate_scratch,
        gating,
        logits_clamped,
        pft_scratch,
        route,
        rows,
    } = state;
    *logits_clamped = gate_rows(gate, top_k, clamp, tokens, gate_scratch, gating);
    let (e, cap, policy) = (spec.num_experts, spec.capacity, spec.policy);
    Pft::construct_into(gating, e, cap, policy, pft_scratch, &mut route.pft);
    // `Local` reads the tokens by id; RBD's S0 packs its pilots from them.
    let gather = matches!(transport, Transport::Ep { .. });
    let (s, mut meter) = (tokens.rows() as f64, transport.meter());
    meter.charge("gating", |c| price::gating(c, s, hidden, e, top_k));
    let n = route.pft.len();
    if gather {
        if let Some(ws) = lease {
            // For-overwrite: the gather fills it.
            *rows = ws.take_for_overwrite(n, hidden);
        }
        gather_rows_into(tokens, &route.pft.token_ids, rows);
    }
    meter.charge("buffer_dispatch", |c| price::gather(c, n, hidden));
}

/// The expert stage, written once: `kernel` over expert-major rows split by
/// `counts`, segment `e` through `experts[e]`, reading and writing where
/// `rows` says ([`FfnRows`]: in place, or read by id and written to a
/// buffer or combined into the layer output). The FFN's hidden layer goes to
/// `saves` (training keeps it) or to one leased `[rows, ffn]` strip with the
/// SiLU in place. Charges `expert` (and the block kernel's copies).
pub(crate) fn run_experts(
    experts: &[Expert],
    counts: &[usize],
    rows: FfnRows,
    kernel: ExpertKernel,
    saves: Option<(&mut [f32], &mut [f32])>,
    ws: &mut Workspace,
    mut meter: Meter,
) {
    if let ExpertKernel::BlockPadded(block) = kernel {
        return forward_block_padded(experts, rows, counts, block, ws, meter);
    }
    let (n, (hidden, ffn)) = (counts.iter().sum(), widths(experts));
    // For-overwrite: `expert_ffn`'s first product writes it whole.
    let mut strip = None;
    let (h_pre, h_act) = match saves {
        Some((h_pre, h_act)) => (h_pre, Some(h_act)),
        None => (
            strip.insert(ws.take_for_overwrite(n, ffn)).as_mut_slice(),
            None,
        ),
    };
    expert_ffn(experts, counts, rows, h_pre, h_act);
    if let Some(strip) = strip {
        ws.recycle(strip);
    }
    meter.charge("expert", |c| {
        price::expert_seq(c, n as f64, hidden, ffn, F32)
    });
}

/// The MoE layer pass (paper §4.1, Listing 1), written once:
/// [`gate_and_gather`] → `transport` out → `kernel` → `transport` back →
/// the weighted combine into the `[S, H]` tensor `out` leases (zeroed, or a
/// copy of the input for a residual layer), which it returns.
///
/// Every buffer comes from `state` or `ws`; after warm-up no transport
/// allocates on the serial schedule. No stage adds an `[n, H]` buffer:
/// - Under `Ep` the experts compute in place over the rows that arrived
///   ([`run_experts`]) and the outputs come back into `state.rows` — or,
///   with `saves` (training, plain kernel), into a lease of `ws` (as were
///   the dispatch rows), recycled right after the combine. `out` is leased
///   after the exchange, so it can reuse the expert scratch.
/// - `Local` gathers nothing and keeps no routed row: the first expert GEMM
///   reads the tokens by the PFT's ids, `out` is leased first and the
///   second GEMM combines straight into it, saves or not. The saves are the
///   hidden layer alone (`saves.input` stays empty): a training caller
///   keeps `tokens`.
/// - `Rbd` gathers no PFT-order rows: its pilots go out straight from
///   `tokens`, the weighted partials come back into its wire buffers, and
///   `state.rows` stays as it was.
#[allow(clippy::too_many_arguments)]
pub fn forward(
    tokens: &Tensor,
    gate: (&Tensor, usize, f32),
    experts: &[Expert],
    spec: &MoeLayerSpec,
    mut transport: Transport,
    kernel: ExpertKernel,
    state: &mut LayerState,
    ws: &mut Workspace,
    out: impl FnOnce(&mut Workspace) -> Tensor,
    mut saves: Option<&mut ExpertSaves>,
) -> Result<Tensor, CommError> {
    let (hidden, lease) = (tokens.cols(), saves.is_some().then_some(&mut *ws));
    gate_and_gather(tokens, gate, spec, state, lease, &mut transport);
    let LayerState { route, rows, .. } = state;
    let (total, (_, ffn)) = (transport.plan(route, tokens)?, widths(experts));
    if let Some(saves) = saves.as_deref_mut() {
        // For-overwrite: the chunks tile all three. Under `Local` the
        // backward reads each row's input again from the tokens.
        if !matches!(transport, Transport::Local) {
            saves.input = ws.take_for_overwrite(total, hidden);
        }
        saves.h_pre = ws.take_for_overwrite(total, ffn);
        saves.h_act = ws.take_for_overwrite(total, ffn);
    }
    // `Local` leases `out` first: its second expert GEMM combines into it.
    let local = matches!(transport, Transport::Local);
    let mut out = if local { Ok(out(ws)) } else { Err(out) };
    let labels = ("dispatch_a2a", "expert", "combine_a2a");
    let combine_in = transport.exchange(
        route,
        (Payload::Rows(std::mem::take(rows)), None),
        labels,
        ws,
        |plan, counts, pft, (mut chunk, _), meter, ws| {
            // Local experts [e0, e1): rows [r0, r1) of the saved buffers.
            let ((e0, e1), (r0, r1)) = (plan.experts, plan.rows);
            let act = saves.as_deref_mut().map(|s| {
                if pft.is_none() {
                    let input = &mut s.input.as_mut_slice()[r0 * hidden..r1 * hidden];
                    input.copy_from_slice(chunk.as_slice());
                }
                let h_pre = &mut s.h_pre.as_mut_slice()[r0 * ffn..r1 * ffn];
                (h_pre, &mut s.h_act.as_mut_slice()[r0 * ffn..r1 * ffn])
            });
            let io = match (pft, &mut out) {
                (Some(pft), Ok(out)) => {
                    let ids = &pft.token_ids;
                    let x = RowSource::Gathered {
                        src: tokens.as_slice(),
                        ids,
                        scale: None,
                    };
                    let weights = Some(pft.combine_weights.as_slice());
                    let out = out.as_mut_slice();
                    FfnRows::Apart(x, RowSink::Combine { out, ids, weights })
                }
                _ => FfnRows::InPlace(chunk.as_mut_slice()),
            };
            run_experts(&experts[e0..e1], counts, io, kernel, act, ws, meter);
            chunk
        },
    )?;

    // Buffer combine: weighted, back to sequence order.
    let mut out = out.unwrap_or_else(|out| out(ws));
    transport.combine(route, &combine_in, &mut out);
    let (n, mut meter) = (route.pft.len(), transport.meter());
    meter.charge("buffer_combine", |c| price::gather(c, n, hidden));
    // A training pass keeps no expert outputs: its backward needs none.
    match saves {
        Some(_) => ws.recycle(combine_in),
        None => *rows = combine_in,
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::ExpertShard;
    use crate::gating::{DropPolicy, Router};
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
        // Warm-up allocates two arena buffers: the output, leased first
        // because the second expert GEMM combines into it, and the
        // hidden-layer strip beside it. No PFT-order rows exist: the first
        // GEMM reads the tokens by id. Subsequent steps only reuse.
        assert_eq!(state.ws.stats().pool_misses, 2);
        assert_eq!(state.routed_rows().capacity(), 0);
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
        // then source rank, then source PFT order. Each row's side scalar
        // rides with it, and what the experts write in its place comes back
        // to the row's PFT position.
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
                let rows = pft.len();
                let mut route = EpRoute::build(pft, asg, &ctx.world, &mut ctx.clock).unwrap();
                let locals = asg.experts_on(ctx.rank);
                // One arena and one route for every schedule, twice over:
                // every wire buffer comes home on the return leg, so after
                // the first pass neither grows.
                let mut ws = Workspace::new();
                let mut first_pass = (0, (0, 0));
                let schedules = [None, Some(1usize), Some(2), Some(3)];
                for (i, chunks) in schedules.into_iter().chain(schedules).enumerate() {
                    if i == schedules.len() {
                        first_pass = (ws.stats().pool_misses, route.wire_capacity());
                    }
                    let mut side: Vec<f32> = (0..rows).map(|i| i as f32).collect();
                    let back = route
                        .exchange(
                            (Payload::Rows(payload.clone()), Some(&mut side)),
                            chunks,
                            ("out", "check", "back"),
                            &ctx.world,
                            &mut ctx.clock,
                            &mut ws,
                            |plan, counts, (chunk, side), _, _| {
                                let (e0, e1) = plan.experts;
                                let mut row = 0;
                                for (&g, &n) in locals[e0..e1].iter().zip(counts) {
                                    let mut last = (-1.0f32, -1.0f32);
                                    for _ in 0..n {
                                        let r = chunk.row(row);
                                        assert_eq!(r[0], g as f32, "{name}: expert");
                                        assert!((r[1], r[2]) > last, "{name}: source order");
                                        assert_eq!(side[row], r[2], "{name}: side scalar");
                                        side[row] = -r[2] - 1.0;
                                        last = (r[1], r[2]);
                                        row += 1;
                                    }
                                }
                                assert_eq!(row, chunk.rows(), "{name}: chunk rows");
                                assert_eq!(side.len(), row, "{name}: side scalars");
                                chunk
                            },
                        )
                        .unwrap();
                    assert!(back.allclose(&payload, 0.0), "{name} {chunks:?}");
                    for (i, &v) in side.iter().enumerate() {
                        assert_eq!(v, -(i as f32) - 1.0, "{name} {chunks:?}: side back");
                    }
                    ws.recycle(back);
                }
                let second_pass = (ws.stats().pool_misses, route.wire_capacity());
                assert_eq!(second_pass, first_pass, "{name}: arena and wire");
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
