//! X-MoE's padding-free MoE layer (paper §4.1, Listing 1).
//!
//! Stage labels charged to the [`SimClock`] match the Fig 11 breakdown:
//! `gating`, `buffer_dispatch`, `dispatch_a2a`, `expert`, `combine_a2a`,
//! `buffer_combine`.
//!
//! The uneven exchange is factored into a reusable [`EpRoute`]: built once
//! per batch from the PFT's per-expert counts, it can push any row payload
//! along the dispatch direction ([`EpRoute::to_experts`]) or back along the
//! combine direction ([`EpRoute::to_source`]). The training backward pass
//! reuses the same route in reverse — gradients travel the exact same two
//! all-to-alls mirrored (the paper's 4 all-to-alls per layer per step).
//!
//! There is one forward (`forward`, reached through
//! [`crate::pipeline::Pipeline`]) for the whole PFT family. Its two
//! orthogonal arguments are the `Transport` (single-rank, flat EP, flat EP
//! with dispatch–compute overlap) and the `ExpertKernel` (plain segments or
//! Megablocks-style block padding); the prefix (`gate_and_gather`) is shared
//! with the RBD transport in [`crate::rbd`].

use xmoe_collectives::{CommError, Communicator, SimClock};
use xmoe_tensor::{gather_rows, gather_rows_into, scatter_rows_scaled, Tensor, Workspace};
use xmoe_topology::CostModel;

use crate::expert::ExpertShard;
use crate::gating::{GateScratch, GatingOutput, Router};
use crate::pft::{Pft, PftScratch};
use crate::pipeline::block_sparse::forward_block_padded;
use crate::pipeline::{rows_to_vec, vecs_to_tensor, MoeLayerSpec, PipelineError};

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
    /// RBD-specific plan/staging scratch (see [`crate::rbd`]).
    pub(crate) rbd: crate::rbd::RbdScratch,
}

/// How dispatched rows reach their experts and come back.
pub(crate) enum Transport<'a> {
    /// All experts local: `call` in Listing 1 minus the all-to-alls. No
    /// communication, no clock, no copy.
    Local,
    /// Uneven all-to-alls over a flat EP group ([`EpRoute`]); with
    /// `overlap_chunks` the exchanges are pipelined against the expert GEMMs
    /// per chunk expert range ([`EpRoute::exchange_overlap`]) — bitwise the
    /// same output, a shorter simulated timeline.
    Ep {
        comm: &'a Communicator,
        clock: &'a mut SimClock,
        overlap_chunks: Option<usize>,
    },
}

impl Transport<'_> {
    fn meter(&mut self) -> Meter<'_> {
        match self {
            Transport::Local => None,
            Transport::Ep { comm, clock, .. } => Some((comm.cost(), clock)),
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

/// Where a stage's simulated cost lands: a priced clock on distributed
/// transports, nowhere on the clockless single-rank path.
pub(crate) type Meter<'a> = Option<(&'a CostModel, &'a mut SimClock)>;

pub(crate) fn charge(meter: &mut Meter, label: &str, secs: impl FnOnce(&CostModel) -> f64) {
    if let Some((cost, clock)) = meter {
        clock.charge(label, secs(cost));
    }
}

/// Memory-bound time to read and write `rows` f32 rows of width `hidden`.
pub(crate) fn copy_time(cost: &CostModel, rows: usize, hidden: usize) -> f64 {
    cost.mem_bound_time(2.0 * (rows * hidden * 4) as f64)
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
    charge(&mut meter, "gating", |cost| {
        let gate_flops = 2.0 * tokens.rows() as f64 * hidden as f64 * spec.num_experts as f64;
        let pft_bytes = (tokens.rows() * state.gating.k()) as f64 * 32.0;
        cost.compute_time(gate_flops) + cost.mem_bound_time(pft_bytes)
    });
    gather_rows_into(tokens, &state.pft.token_ids, &mut state.dispatch_in);
    charge(&mut meter, "buffer_dispatch", |cost| {
        copy_time(cost, state.pft.len(), hidden)
    });
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
            charge(&mut meter, "expert", |cost| {
                cost.compute_time(expert_flops(experts, input.rows(), input.cols()))
            });
            out
        }
        ExpertKernel::BlockPadded(block) => {
            forward_block_padded(experts, input, counts, block, ws, meter)
        }
    }
}

/// FLOPs of the two-matrix FFN over `rows` rows.
pub(crate) fn expert_flops(experts: &ExpertShard, rows: usize, hidden: usize) -> f64 {
    let ffn = experts.experts.first().map_or(0, |e| e.w1.cols());
    4.0 * rows as f64 * hidden as f64 * ffn as f64
}

/// The padding-free MoE forward (paper §4.1, Listing 1), written once:
/// [`gate_and_gather`] → `transport` out → `kernel` → `transport` back →
/// weighted scatter. Every buffer it can lease comes from `state` (callers
/// wanting the owned baseline pass a throwaway one), and the returned
/// `[S, H]` output is itself leased from `state.ws` — recycle it there when
/// done. After warm-up the `Local` transport performs zero transient heap
/// allocations; the EP transports still own their wire buffers.
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
        ..
    } = state;

    // PFT-ordered rows in, PFT-ordered expert outputs back; `leased` says
    // whether the result came out of `ws` (wire buffers are owned).
    let (combine_in, leased) = match &mut transport {
        Transport::Local => {
            let out = run_experts(
                experts,
                dispatch_in,
                &pft.tokens_per_expert,
                kernel,
                ws,
                None,
            );
            (out, true)
        }
        Transport::Ep {
            comm,
            clock,
            overlap_chunks,
        } => {
            let cost = comm.cost();
            // The route owns the PFT while it lives (a failed collective
            // drops both; the next forward rebuilds the PFT anyway). The
            // count-exchange metadata all-to-all is charged separately from
            // the token payload so payload comparisons across pipelines stay
            // apples to apples.
            let route = EpRoute::build(std::mem::take(pft), spec, comm, clock)?;
            clock.commit("dispatch_a2a_meta");
            let counts = &route.tokens_per_local_expert;
            let combine_in = match *overlap_chunks {
                None => {
                    let expert_input = route.to_experts(dispatch_in, comm, clock)?;
                    clock.commit("dispatch_a2a");
                    let meter = Some((cost, &mut **clock));
                    let mlp_out = run_experts(experts, &expert_input, counts, kernel, ws, meter);
                    let combine_in = route.to_source(&mlp_out, comm, clock)?;
                    clock.commit("combine_a2a");
                    ws.recycle(mlp_out);
                    combine_in
                }
                Some(chunks) => route.exchange_overlap(
                    dispatch_in,
                    chunks,
                    ("dispatch_a2a", "expert", "combine_a2a"),
                    comm,
                    clock,
                    |_c, plan, chunk_in, clock| {
                        // A full-length count vector zeroed outside the
                        // chunk walks exactly the serial schedule's row
                        // slices for experts [e0, e1).
                        let (e0, e1) = plan.experts;
                        let mut chunk_counts = ws.take_idx(counts.len());
                        chunk_counts[e0..e1].copy_from_slice(&counts[e0..e1]);
                        let meter = Some((cost, clock));
                        let out = run_experts(experts, chunk_in, &chunk_counts, kernel, ws, meter);
                        ws.recycle_idx(chunk_counts);
                        out
                    },
                )?,
            };
            *pft = route.pft;
            (combine_in, false)
        }
    };

    // Buffer combine: weighted scatter back to sequence order.
    let mut out = ws.take(tokens.rows(), hidden);
    scatter_rows_scaled(&combine_in, &pft.token_ids, &pft.combine_weights, &mut out);
    charge(&mut transport.meter(), "buffer_combine", |cost| {
        copy_time(cost, pft.len(), hidden)
    });
    if leased {
        ws.recycle(combine_in);
    }
    Ok(out)
}

/// The routing plan of one uneven EP exchange, reusable for forward
/// activations and backward gradients.
///
/// Wire layout: rows travel grouped by destination rank (the PFT is
/// expert-sorted, so per-destination slices are contiguous); on arrival
/// they are regrouped expert-major for the sequential GEMM via `perm`.
pub struct EpRoute {
    /// The PFT this route was built from (source-side ERI arrays).
    pub pft: Pft,
    /// Per-destination-rank entry counts on the send side.
    pub send_per_dst: Vec<usize>,
    /// Entry counts received from each source rank.
    pub recv_per_src: Vec<usize>,
    /// Entry counts per local expert after the expert-major regroup.
    pub tokens_per_local_expert: Vec<usize>,
    /// `perm[i]` = wire position of expert-major position `i`.
    perm: Vec<usize>,
    /// Inverse of `perm`.
    inv_perm: Vec<usize>,
    /// `tpe_recv[src][e]` = rows inbound from `src` for local expert `e`
    /// (the raw count exchange), kept to derive per-chunk sub-routes.
    tpe_recv: Vec<Vec<u64>>,
}

/// One chunk of an [`EpRoute`]: the sub-route covering a contiguous range of
/// local experts, used to pipeline the uneven exchange against the expert
/// GEMMs. Concatenating the chunks' expert-major buffers in order
/// reconstructs the full route's expert-major buffer exactly.
pub struct ChunkPlan {
    /// Local-expert range `[e0, e1)` this chunk covers (on every rank —
    /// chunking is by expert index, which is uniform across ranks).
    pub experts: (usize, usize),
    /// Send rows `[start, end)` in PFT order, per destination rank (the
    /// PFT is expert-sorted, so each destination's chunk slice is
    /// contiguous).
    pub send_ranges: Vec<(usize, usize)>,
    /// Rows received from each source rank in this chunk.
    pub recv_per_src: Vec<usize>,
    /// Chunk-local wire→expert-major permutation.
    perm: Vec<usize>,
    /// Inverse of `perm`.
    inv_perm: Vec<usize>,
}

impl ChunkPlan {
    /// Rows on the expert side of this chunk.
    pub fn recv_total(&self) -> usize {
        self.perm.len()
    }
}

/// The wire→expert-major regroup for local experts `[e0, e1)` of a count
/// exchange `tpe_recv[src][e]`: wire order is (src, local_expert), the
/// sequential GEMM needs (local_expert, src). Returns the rows received per
/// source, `perm` (`perm[i]` = wire position of expert-major position `i`)
/// and its inverse.
fn regroup(tpe_recv: &[Vec<u64>], e0: usize, e1: usize) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let recv_per_src: Vec<usize> = tpe_recv
        .iter()
        .map(|r| r[e0..e1].iter().sum::<u64>() as usize)
        .collect();
    let mut src_base = vec![0usize; tpe_recv.len()];
    for s in 1..tpe_recv.len() {
        src_base[s] = src_base[s - 1] + recv_per_src[s - 1];
    }
    let total: usize = recv_per_src.iter().sum();
    let mut perm = Vec::with_capacity(total);
    for e in e0..e1 {
        for (src, counts) in tpe_recv.iter().enumerate() {
            let before: usize = counts[e0..e].iter().map(|&c| c as usize).sum();
            let cnt = counts[e] as usize;
            let start = src_base[src] + before;
            perm.extend(start..start + cnt);
        }
    }
    let mut inv_perm = vec![0usize; total];
    for (expert_major, &wire) in perm.iter().enumerate() {
        inv_perm[wire] = expert_major;
    }
    (recv_per_src, perm, inv_perm)
}

impl EpRoute {
    /// Collectively build the route: exchanges `tokens_per_expert` so every
    /// destination knows its inbound segment sizes (Listing 1 line 44).
    pub fn build(
        pft: Pft,
        spec: &MoeLayerSpec,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<EpRoute, CommError> {
        let w = ep.size();
        assert_eq!(spec.num_experts % w, 0, "experts must divide EP size");
        let e_local = spec.num_experts / w;
        let tpe_send: Vec<Vec<u64>> = (0..w)
            .map(|dst| {
                pft.tokens_per_expert[dst * e_local..(dst + 1) * e_local]
                    .iter()
                    .map(|&c| c as u64)
                    .collect()
            })
            .collect();
        let tpe_recv = ep.all_to_all_v(tpe_send, clock)?;

        let send_per_dst = pft.counts_per_shard(w);
        let mut tokens_per_local_expert = vec![0usize; e_local];
        for r in &tpe_recv {
            for (e, &c) in r.iter().enumerate() {
                tokens_per_local_expert[e] += c as usize;
            }
        }
        let (recv_per_src, perm, inv_perm) = regroup(&tpe_recv, 0, e_local);
        Ok(EpRoute {
            pft,
            send_per_dst,
            recv_per_src,
            tokens_per_local_expert,
            perm,
            inv_perm,
            tpe_recv,
        })
    }

    /// Split the route into (up to) `chunks` sub-routes over contiguous
    /// local-expert ranges, for the pipelined dispatch–compute overlap.
    ///
    /// The chunk boundaries are pure functions of uniform quantities
    /// (`chunks`, the local expert count), so every rank derives the same
    /// plan and the chunked collectives stay in SPMD order.
    pub fn chunk_plans(&self, chunks: usize) -> Vec<ChunkPlan> {
        let e_local = self.tokens_per_local_expert.len();
        let w = self.send_per_dst.len();
        let k = chunks.clamp(1, e_local.max(1));
        // Global prefix over the PFT's per-expert counts: the PFT is sorted
        // by global expert id, so rows destined for dst `d`'s local experts
        // [e0, e1) are exactly PFT rows [gpre[d*e_local+e0], gpre[d*e_local+e1]).
        let n_exp = self.pft.tokens_per_expert.len();
        let mut gpre = vec![0usize; n_exp + 1];
        for (e, &c) in self.pft.tokens_per_expert.iter().enumerate() {
            gpre[e + 1] = gpre[e] + c;
        }
        let mut plans = Vec::with_capacity(k);
        for c in 0..k {
            let e0 = c * e_local / k;
            let e1 = (c + 1) * e_local / k;
            let send_ranges: Vec<(usize, usize)> = (0..w)
                .map(|d| (gpre[d * e_local + e0], gpre[d * e_local + e1]))
                .collect();
            let (recv_per_src, perm, inv_perm) = regroup(&self.tpe_recv, e0, e1);
            plans.push(ChunkPlan {
                experts: (e0, e1),
                send_ranges,
                recv_per_src,
                perm,
                inv_perm,
            });
        }
        plans
    }

    /// Rows received on this rank (the expert-side buffer length).
    pub fn recv_total(&self) -> usize {
        self.perm.len()
    }

    /// Pipelined `to_experts → compute → to_source`: the route is split into
    /// `chunks` expert-contiguous sub-routes, every dispatch chunk is issued
    /// up front (a NIC send queue), and chunk `i`'s expert compute runs on
    /// the `compute` overlap track while chunk `i+1`'s payload is still in
    /// flight on the `comm` track (paper §4.1's dispatch–compute overlap).
    ///
    /// Three tracks model a full-duplex NIC: dispatch chunks drain
    /// back-to-back on `comm` (inbound), expert GEMMs run on `compute`, and
    /// combine chunks drain on `comm_out` (outbound) — a combine transfer
    /// cannot start before its own GEMM finished (enforced per chunk via
    /// `advance_to_op`) but does not block dispatch chunks still in flight
    /// the other way.
    ///
    /// `labels = (dispatch, compute, combine)` name the stage buckets.
    /// `compute(c, plan, chunk_in, clock)` gets chunk `c`'s expert-major
    /// `[rows_c, H]` buffer, must return the same-shaped output, and charges
    /// its own compute time (any leftover pending time is committed under the
    /// compute label). Concatenating the chunk buffers in order reproduces
    /// the full route's expert-major buffer exactly, so the overlapped result
    /// is bitwise identical to the serial schedule — only the simulated
    /// timeline differs.
    pub fn exchange_overlap<F>(
        &self,
        rows: &Tensor,
        chunks: usize,
        labels: (&str, &str, &str),
        ep: &Communicator,
        clock: &mut SimClock,
        mut compute: F,
    ) -> Result<Tensor, CommError>
    where
        F: FnMut(usize, &ChunkPlan, &Tensor, &mut SimClock) -> Tensor,
    {
        let (dispatch_label, compute_label, combine_label) = labels;
        let hidden = rows.cols();
        debug_assert_eq!(rows.rows(), self.pft.len(), "payload must be in PFT order");
        let plans = self.chunk_plans(chunks);

        clock.begin_overlap("dispatch_compute");
        clock.set_track("comm");
        // Issue every dispatch chunk before waiting on any: the sends sit in
        // the FIFO per-(src,dst) mailboxes like a NIC send queue, and the comm
        // track serializes their priced transfer times as the waits drain.
        // Issuing never blocks, so the interleaved schedule cannot deadlock.
        let mut dispatch_pending = Vec::with_capacity(plans.len());
        for plan in &plans {
            let send: Vec<Vec<f32>> = plan
                .send_ranges
                .iter()
                .map(|&(s0, s1)| rows_to_vec(rows, s0, s1))
                .collect();
            dispatch_pending.push(ep.issue_all_to_all_v(send, clock)?);
        }

        let mut out = Tensor::zeros(self.pft.len(), hidden);
        let mut combine_pending = Vec::with_capacity(plans.len());
        let mut gemm_done_at = Vec::with_capacity(plans.len());
        for (c, (plan, pending)) in plans.iter().zip(dispatch_pending).enumerate() {
            clock.set_track("comm");
            let recv = pending.wait(clock)?;
            clock.commit(dispatch_label);
            let arrived = clock.track_time("comm").expect("comm track exists");

            let wire = vecs_to_tensor(recv, hidden);
            debug_assert_eq!(wire.rows(), plan.recv_total());
            let chunk_in = gather_rows(&wire, &plan.perm);

            clock.set_track("compute");
            // Honest cross-track dependency: the GEMM cannot start before
            // its chunk has arrived.
            clock.advance_to_op(compute_label, arrived);
            let chunk_out = compute(c, plan, &chunk_in, clock);
            clock.commit(compute_label);
            assert_eq!(
                chunk_out.rows(),
                plan.recv_total(),
                "compute must map chunk rows 1:1"
            );
            let gemm_done = clock.track_time("compute").expect("compute track exists");
            gemm_done_at.push(gemm_done);

            // Issue the combine send from the compute track: injection is
            // free, and the message carries the `gemm_done` stamp so peers
            // cannot see chunk c's rows earlier than its GEMM finished.
            // Transfer time is priced on the outbound track in the drain
            // loop below.
            let wire_order = gather_rows(&chunk_out, &plan.inv_perm);
            let mut send = Vec::with_capacity(plan.recv_per_src.len());
            let mut offset = 0usize;
            for &cnt in &plan.recv_per_src {
                send.push(rows_to_vec(&wire_order, offset, offset + cnt));
                offset += cnt;
            }
            combine_pending.push(ep.issue_all_to_all_v(send, clock)?);
        }

        // Drain the combine exchanges in issue order on the outbound track;
        // each chunk's rows return to the PFT positions they were dispatched
        // from. The per-chunk `advance_to_op` pins the transfer start at the
        // chunk's own GEMM completion; `wait` then maxes in the peers'
        // injection stamps.
        clock.set_track("comm_out");
        for ((plan, pending), gemm_done) in plans.iter().zip(combine_pending).zip(gemm_done_at) {
            clock.advance_to_op(combine_label, gemm_done);
            let recv = pending.wait(clock)?;
            clock.commit(combine_label);
            for (src, data) in recv.into_iter().enumerate() {
                let (s0, s1) = plan.send_ranges[src];
                debug_assert_eq!(data.len(), (s1 - s0) * hidden);
                out.as_mut_slice()[s0 * hidden..s1 * hidden].copy_from_slice(&data);
            }
        }
        clock.end_overlap();
        Ok(out)
    }

    /// Push `rows` (PFT order, `[B, H]`) along the dispatch direction;
    /// returns the expert-major `[B_exp, H]` buffer on the receiving side.
    pub fn to_experts(
        &self,
        rows: &Tensor,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        let hidden = rows.cols();
        debug_assert_eq!(rows.rows(), self.pft.len(), "payload must be in PFT order");
        let mut offset = 0usize;
        let send: Vec<Vec<f32>> = self
            .send_per_dst
            .iter()
            .map(|&cnt| {
                let v = rows_to_vec(rows, offset, offset + cnt);
                offset += cnt;
                v
            })
            .collect();
        let recv = ep.all_to_all_v(send, clock)?;
        let wire = vecs_to_tensor(recv, hidden);
        debug_assert_eq!(wire.rows(), self.recv_total());
        Ok(gather_rows(&wire, &self.perm))
    }

    /// Push `rows` (expert-major, `[B_exp, H]`) back to their source
    /// ranks; returns `[B, H]` in the sender's original PFT order.
    pub fn to_source(
        &self,
        rows: &Tensor,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        let hidden = rows.cols();
        debug_assert_eq!(
            rows.rows(),
            self.recv_total(),
            "payload must be expert-major"
        );
        let wire_order = gather_rows(rows, &self.inv_perm);
        let mut send: Vec<Vec<f32>> = Vec::with_capacity(self.recv_per_src.len());
        let mut offset = 0usize;
        for &cnt in &self.recv_per_src {
            send.push(rows_to_vec(&wire_order, offset, offset + cnt));
            offset += cnt;
        }
        let recv = ep.all_to_all_v(send, clock)?;
        // Chunks arrive per destination in the order dispatch rows were
        // sent, so plain concatenation restores PFT order.
        Ok(vecs_to_tensor(recv, hidden))
    }
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
        // to_experts followed by to_source must return every row to its
        // original position (the property backward relies on).
        let (s, h, e, k) = (20usize, 6usize, 8usize, 3usize);
        let router = Router::new(h, e, k, 41);
        let sp = spec(e, 1000);
        let ok = SimCluster::frontier(4).run(|ctx| {
            let tokens = Tensor::rand_uniform(s, h, 1.0, 200 + ctx.rank as u64);
            let gating = router.gate(&tokens);
            let pft = Pft::construct(&gating, e, sp.capacity, sp.policy);
            let payload = Tensor::rand_uniform(pft.len(), h, 1.0, 300 + ctx.rank as u64);
            let route = EpRoute::build(pft, &sp, &ctx.world, &mut ctx.clock).unwrap();
            let there = route
                .to_experts(&payload, &ctx.world, &mut ctx.clock)
                .unwrap();
            let back = route.to_source(&there, &ctx.world, &mut ctx.clock).unwrap();
            back.allclose(&payload, 0.0)
        });
        assert!(ok.iter().all(|&b| b), "route roundtrip failed: {ok:?}");
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
        let (s, h, e, k) = (32usize, 6usize, 8usize, 3usize);
        let router = Router::new(h, e, k, 81);
        let sp = spec(e, 1000);
        let world = 4;
        let ok = SimCluster::frontier(world).run(|ctx| {
            let tokens = Tensor::rand_uniform(s, h, 1.0, 700 + ctx.rank as u64);
            let gating = router.gate(&tokens);
            let pft = Pft::construct(&gating, e, sp.capacity, sp.policy);
            let route = EpRoute::build(pft, &sp, &ctx.world, &mut ctx.clock).unwrap();
            for chunks in [1usize, 2, 3, 100] {
                let plans = route.chunk_plans(chunks);
                // Expert ranges tile [0, e_local).
                let e_local = route.tokens_per_local_expert.len();
                assert_eq!(plans[0].experts.0, 0);
                assert_eq!(plans.last().unwrap().experts.1, e_local);
                for w in plans.windows(2) {
                    assert_eq!(w[0].experts.1, w[1].experts.0);
                }
                // Per-destination send ranges tile each destination's PFT
                // slice, and recv counts sum to the full route's.
                for d in 0..world {
                    for w in plans.windows(2) {
                        assert_eq!(w[0].send_ranges[d].1, w[1].send_ranges[d].0);
                    }
                }
                let sent: usize = plans
                    .iter()
                    .flat_map(|p| p.send_ranges.iter().map(|&(a, b)| b - a))
                    .sum();
                assert_eq!(sent, route.pft.len());
                for src in 0..world {
                    let recv: usize = plans.iter().map(|p| p.recv_per_src[src]).sum();
                    assert_eq!(recv, route.recv_per_src[src]);
                }
            }
            true
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn route_counts_are_consistent() {
        let (s, h, e, k) = (16usize, 6usize, 4usize, 2usize);
        let router = Router::new(h, e, k, 51);
        let sp = spec(e, 1000);
        let checks = SimCluster::frontier(4).run(|ctx| {
            let tokens = Tensor::rand_uniform(s, h, 1.0, 400 + ctx.rank as u64);
            let gating = router.gate(&tokens);
            let pft = Pft::construct(&gating, e, sp.capacity, sp.policy);
            let b = pft.len();
            let route = EpRoute::build(pft, &sp, &ctx.world, &mut ctx.clock).unwrap();
            let send_total: usize = route.send_per_dst.iter().sum();
            let recv_total: usize = route.recv_per_src.iter().sum();
            let expert_total: usize = route.tokens_per_local_expert.iter().sum();
            (
                send_total == b,
                recv_total == route.recv_total(),
                expert_total == route.recv_total(),
            )
        });
        for (a, b, c) in checks {
            assert!(a && b && c);
        }
    }
}
