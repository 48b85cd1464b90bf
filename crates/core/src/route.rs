//! The expert route: the one uneven all-to-all pair of the padding-free
//! layer (paper §4.1, Listing 1), planned from the PFT's
//! `tokens_per_expert` for **any** expert→rank map and travelled in reverse
//! by the backward pass (§4.3: four all-to-alls per layer per step).
//!
//! An [`EpRoute`] is built once per batch from `(Pft, &ExpertAssignment)`
//! with one metadata all-to-all, and then pushes any PFT-ordered row
//! payload out to the experts and back through [`EpRoute::exchange`] —
//! forward activations and backward gradients alike, since dispatch and
//! combine are adjoint row relocations:
//!
//! ```text
//! forward:  dispatch_in --> expert_input -> y           --> combine_in
//! backward: d_combine   --> d_y          -> d_expert_in --> d_dispatch
//! ```
//!
//! **Wire layout.** A source sends each destination one buffer: the PFT
//! segments of the experts that destination holds *and* this source routes
//! there (its stripe of a replicated expert may land on another holder), in
//! ascending expert order. The PFT is expert-sorted, so on the contiguous
//! layout that is one PFT slice per destination. The receiver regroups
//! expert-major — local expert ascending, source rank ascending, source PFT
//! order — so the expert GEMM order never depends on which rank serves which
//! copy. Both regroupings are fused into the wire copy: rows are gathered
//! straight from their PFT (or expert-major) positions into the per-peer
//! buffers and scattered straight out of them on arrival, one pass over the
//! payload per side per direction.
//!
//! **Schedule.** `exchange(.., chunks, ..)` is the only place that knows
//! whether a step is serial (`None`: all-to-all → compute → all-to-all) or
//! chunk-pipelined (`Some(k)`: dispatch chunks, expert compute and combine
//! chunks on three overlapping clock tracks). The output is bitwise the same
//! either way; only the simulated timeline differs.
//!
//! **Chunking rule.** Every rank cuts *its own* local-expert list into the
//! same number of chunks `k = chunks.clamp(1, max local experts of any
//! rank)` at `c·L/k` — a pure function of the assignment, so all ranks
//! issue the same `2k` collectives in the same order. A sender derives each
//! destination's cut from that destination's list; a rank holding fewer
//! than `k` experts (or none, after a migration) simply has empty chunks.
//! On the uniform layout `L = E/W` everywhere and the rule is the classic
//! `chunks.clamp(1, E/W)` over contiguous PFT slices.

use xmoe_collectives::{CommError, Communicator, SimClock};
use xmoe_tensor::{cumsum, Tensor};
use xmoe_topology::ExpertAssignment;

use crate::pft::Pft;

/// The routing plan of one uneven expert exchange, reusable for forward
/// activations and backward gradients. See the module docs.
pub struct EpRoute {
    /// The PFT this route was built from (source-side ERI arrays).
    pub pft: Pft,
    /// Rows landing on this rank per local expert (ascending global id).
    pub tokens_per_local_expert: Vec<usize>,
    /// Source side, one slot per (destination, destination-local expert) in
    /// wire order: the PFT row range this rank sends there — empty where its
    /// stripe of a replicated expert lands on another holder.
    send_segs: Vec<(usize, usize)>,
    /// Destination `d` owns slots `send_segs[dst_base[d]..dst_base[d + 1]]`.
    dst_base: Vec<usize>,
    /// Expert side: the block of (local expert `j`, source `s`) is rows
    /// `block_start[j·W + s]..block_start[j·W + s + 1]` of the expert-major
    /// buffer.
    block_start: Vec<usize>,
    /// Largest local-expert count of any rank: the chunk-count cap.
    max_local: usize,
}

/// One chunk of an [`EpRoute`]: a contiguous range of this rank's local
/// experts and the rows they occupy. Concatenating the chunks' expert-major
/// buffers in order reconstructs the full route's buffer exactly; the serial
/// schedule is the single chunk covering everything.
#[derive(Clone, Copy, Debug)]
pub struct ChunkPlan {
    /// Local experts `[e0, e1)` of this rank's shard.
    pub experts: (usize, usize),
    /// Their rows `[r0, r1)` in the route's full expert-major buffer.
    pub rows: (usize, usize),
    /// Chunk `c` of `k`.
    chunk: (usize, usize),
}

/// Chunk `c` of `k` over a list of `len` entries.
fn cut(len: usize, (c, k): (usize, usize)) -> (usize, usize) {
    (c * len / k, (c + 1) * len / k)
}

/// A `[rows, cols]` tensor whose every row the caller writes next
/// (NaN-poisoned in debug builds, like the workspace's for-overwrite leases).
fn for_overwrite(rows: usize, cols: usize) -> Tensor {
    let mut t = Tensor::default();
    t.resize_for_overwrite(rows, cols);
    t
}

/// Gather one wire buffer per peer out of `local`: `blocks(peer)` lists the
/// `(first row, rows)` runs bound for that peer, in wire order.
fn pack<I: Iterator<Item = (usize, usize)>>(
    local: &Tensor,
    peers: usize,
    blocks: impl Fn(usize) -> I,
) -> Vec<Vec<f32>> {
    let (h, data) = (local.cols(), local.as_slice());
    (0..peers)
        .map(|peer| {
            let rows: usize = blocks(peer).map(|(_, n)| n).sum();
            let mut wire = Vec::with_capacity(rows * h);
            for (r, n) in blocks(peer) {
                wire.extend_from_slice(&data[r * h..(r + n) * h]);
            }
            wire
        })
        .collect()
}

/// Inverse of [`pack`]: scatter each peer's wire buffer to its runs of
/// `local`.
fn unpack<I: Iterator<Item = (usize, usize)>>(
    wire: Vec<Vec<f32>>,
    local: &mut Tensor,
    blocks: impl Fn(usize) -> I,
) {
    let h = local.cols();
    let data = local.as_mut_slice();
    for (peer, buf) in wire.into_iter().enumerate() {
        let mut at = 0;
        for (r, n) in blocks(peer) {
            data[r * h..(r + n) * h].copy_from_slice(&buf[at..at + n * h]);
            at += n * h;
        }
        assert_eq!(at, buf.len(), "peer {peer} sent a payload off the route");
    }
}

impl EpRoute {
    /// Collectively build the route: exchanges per-(destination, expert)
    /// counts so every destination knows its inbound segment sizes (Listing
    /// 1 line 44). One `u64` all-to-all — claim it with
    /// `clock.commit("dispatch_a2a_meta")`; the rest is O(E + local·W).
    pub fn build(
        pft: Pft,
        assignment: &ExpertAssignment,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<EpRoute, CommError> {
        let (w, me) = (ep.size(), ep.rank());
        assert_eq!(assignment.n_ranks(), w, "assignment world != communicator");
        assert_eq!(
            pft.tokens_per_expert.len(),
            assignment.n_experts(),
            "PFT expert count mismatch"
        );
        // The PFT is sorted by global expert id: expert g's rows end at
        // `seg_end[g]`.
        let seg_end = cumsum(&pft.tokens_per_expert);
        let mut send_segs = Vec::new();
        let mut dst_base = Vec::with_capacity(w + 1);
        let mut tpe_send: Vec<Vec<u64>> = Vec::with_capacity(w);
        for d in 0..w {
            dst_base.push(send_segs.len());
            send_segs.extend(assignment.experts_on(d).iter().map(|&g| {
                let start = seg_end[g] - pft.tokens_per_expert[g];
                let routed_here = assignment.serving_rank(g, me) == d;
                (start, if routed_here { seg_end[g] } else { start })
            }));
            let counts = send_segs[dst_base[d]..].iter();
            tpe_send.push(counts.map(|&(a, b)| (b - a) as u64).collect());
        }
        dst_base.push(send_segs.len());
        debug_assert_eq!(
            send_segs.iter().map(|&(a, b)| b - a).sum::<usize>(),
            pft.len(),
            "every PFT row routes once"
        );
        let tpe_recv = ep.all_to_all_v(tpe_send, clock)?;

        let e_local = assignment.experts_on(me).len();
        let mut block_start = Vec::with_capacity(e_local * w + 1);
        let mut tokens_per_local_expert = Vec::with_capacity(e_local);
        let mut at = 0usize;
        for j in 0..e_local {
            for counts in &tpe_recv {
                block_start.push(at);
                at += counts[j] as usize;
            }
            tokens_per_local_expert.push(at - block_start[j * w]);
        }
        block_start.push(at);
        let max_local = (0..w).map(|r| assignment.experts_on(r).len()).max();
        Ok(EpRoute {
            pft,
            tokens_per_local_expert,
            send_segs,
            dst_base,
            block_start,
            max_local: max_local.unwrap_or(0),
        })
    }

    fn world(&self) -> usize {
        self.dst_base.len() - 1
    }

    /// Rows received on this rank (the expert-side buffer length).
    pub fn recv_total(&self) -> usize {
        self.block_start[self.block_start.len() - 1]
    }

    /// Split the route into chunks over contiguous local-expert ranges (the
    /// module docs' chunking rule): the same count on every rank, so the
    /// chunked collectives stay in SPMD order.
    pub fn chunk_plans(&self, chunks: usize) -> Vec<ChunkPlan> {
        let k = chunks.clamp(1, self.max_local.max(1));
        (0..k).map(|c| self.chunk_plan(c, k)).collect()
    }

    /// Chunk `c` of `k`; `(0, 1)` is the whole route.
    fn chunk_plan(&self, c: usize, k: usize) -> ChunkPlan {
        let w = self.world();
        let (e0, e1) = cut(self.tokens_per_local_expert.len(), (c, k));
        ChunkPlan {
            experts: (e0, e1),
            rows: (self.block_start[e0 * w], self.block_start[e1 * w]),
            chunk: (c, k),
        }
    }

    /// `(first PFT row, rows)` of every segment `plan` sends to `dst`, in
    /// wire order.
    pub(crate) fn source_blocks(
        &self,
        plan: ChunkPlan,
        dst: usize,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let base = self.dst_base[dst];
        let (lo, hi) = cut(self.dst_base[dst + 1] - base, plan.chunk);
        self.send_segs[base + lo..base + hi]
            .iter()
            .map(|&(a, b)| (a, b - a))
    }

    /// `(first row of the chunk buffer, rows)` of every block `plan`
    /// receives from `src`, in wire order.
    pub(crate) fn expert_blocks(
        &self,
        plan: ChunkPlan,
        src: usize,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let w = self.world();
        (plan.experts.0..plan.experts.1).map(move |j| {
            let (start, end) = (
                self.block_start[j * w + src],
                self.block_start[j * w + src + 1],
            );
            (start - plan.rows.0, end - start)
        })
    }

    /// `rows` (PFT order, `[B, H]`) → experts → `compute` → back: returns the
    /// `[B, H]` result in the sender's PFT order.
    ///
    /// `compute(plan, chunk_in, clock)` runs once per chunk. It is handed
    /// the chunk's expert-major `[r1 - r0, H]` input **by value** and returns
    /// the same-shaped output, which the route consumes — a swap, so a
    /// caller leasing the output from an arena recycles the input there and
    /// stays balanced. `plan` says which local experts and which rows of the
    /// full expert-major buffer the chunk is. The closure charges its own
    /// compute time.
    ///
    /// `labels = (dispatch, compute, combine)` name the stage buckets.
    ///
    /// * `chunks == None` — serial: one all-to-all out (committed under
    ///   `dispatch`), `compute` over the whole buffer, one all-to-all back
    ///   (committed under `combine`).
    /// * `chunks == Some(k)` — pipelined (paper §4.1's dispatch–compute
    ///   overlap): every dispatch chunk is issued up front (a NIC send
    ///   queue), and chunk `i`'s compute runs while chunk `i+1`'s payload is
    ///   still in flight. Three clock tracks model a full-duplex NIC:
    ///   dispatch chunks drain back-to-back on `comm` (inbound), compute
    ///   runs on `compute` (leftover pending time is committed under the
    ///   compute label), and combine chunks drain on `comm_out` (outbound)
    ///   — a combine transfer cannot start before its own compute finished
    ///   (`advance_to_op` per chunk) but does not block dispatch chunks
    ///   still in flight the other way.
    pub fn exchange<F>(
        &self,
        rows: &Tensor,
        chunks: Option<usize>,
        labels: (&str, &str, &str),
        ep: &Communicator,
        clock: &mut SimClock,
        mut compute: F,
    ) -> Result<Tensor, CommError>
    where
        F: FnMut(&ChunkPlan, Tensor, &mut SimClock) -> Tensor,
    {
        let (dispatch_label, compute_label, combine_label) = labels;
        let (hidden, w) = (rows.cols(), self.world());
        assert_eq!(rows.rows(), self.pft.len(), "payload must be in PFT order");
        let to_experts = |plan: ChunkPlan| pack(rows, w, |dst| self.source_blocks(plan, dst));
        let at_experts = |plan: ChunkPlan, wire: Vec<Vec<f32>>| {
            let mut chunk_in = for_overwrite(plan.rows.1 - plan.rows.0, hidden);
            unpack(wire, &mut chunk_in, |src| self.expert_blocks(plan, src));
            chunk_in
        };
        let to_source = |plan: ChunkPlan, chunk_out: Tensor| {
            assert_eq!(
                chunk_out.shape(),
                (plan.rows.1 - plan.rows.0, hidden),
                "compute must map chunk rows 1:1"
            );
            pack(&chunk_out, w, |src| self.expert_blocks(plan, src))
        };
        // Every PFT row belongs to exactly one sent segment, so the returning
        // chunks write each row of `out` exactly once.
        let mut out = for_overwrite(self.pft.len(), hidden);
        let mut at_source = |plan: ChunkPlan, wire: Vec<Vec<f32>>| {
            unpack(wire, &mut out, |dst| self.source_blocks(plan, dst));
        };

        let Some(chunks) = chunks else {
            let plan = self.chunk_plan(0, 1);
            let wire = ep.all_to_all_v(to_experts(plan), clock)?;
            clock.commit(dispatch_label);
            let chunk_out = compute(&plan, at_experts(plan, wire), clock);
            let wire = ep.all_to_all_v(to_source(plan, chunk_out), clock)?;
            clock.commit(combine_label);
            at_source(plan, wire);
            return Ok(out);
        };

        let plans = self.chunk_plans(chunks);
        clock.begin_overlap("dispatch_compute");
        clock.set_track("comm");
        // Issue every dispatch chunk before waiting on any: the sends sit in
        // the FIFO per-(src,dst) mailboxes like a NIC send queue, and the comm
        // track serializes their priced transfer times as the waits drain.
        // Issuing never blocks, so the interleaved schedule cannot deadlock.
        let mut dispatch_pending = Vec::with_capacity(plans.len());
        for &plan in &plans {
            dispatch_pending.push(ep.issue_all_to_all_v(to_experts(plan), clock)?);
        }

        let mut combine_pending = Vec::with_capacity(plans.len());
        for (&plan, pending) in plans.iter().zip(dispatch_pending) {
            clock.set_track("comm");
            let wire = pending.wait(clock)?;
            clock.commit(dispatch_label);
            let arrived = clock.track_time("comm").expect("comm track exists");

            clock.set_track("compute");
            // Honest cross-track dependency: the GEMM cannot start before
            // its chunk has arrived.
            clock.advance_to_op(compute_label, arrived);
            let chunk_out = compute(&plan, at_experts(plan, wire), clock);
            clock.commit(compute_label);
            let gemm_done = clock.track_time("compute").expect("compute track exists");

            // Issue the combine send from the compute track: injection is
            // free, and the message carries the `gemm_done` stamp so peers
            // cannot see this chunk's rows earlier than its GEMM finished.
            // Transfer time is priced on the outbound track in the drain
            // loop below.
            let pending = ep.issue_all_to_all_v(to_source(plan, chunk_out), clock)?;
            combine_pending.push((pending, gemm_done));
        }

        // Drain the combine exchanges in issue order on the outbound track;
        // each chunk's rows return to the PFT positions they were dispatched
        // from. The per-chunk `advance_to_op` pins the transfer start at the
        // chunk's own GEMM completion; `wait` then maxes in the peers'
        // injection stamps.
        clock.set_track("comm_out");
        for (&plan, (pending, gemm_done)) in plans.iter().zip(combine_pending) {
            clock.advance_to_op(combine_label, gemm_done);
            let wire = pending.wait(clock)?;
            clock.commit(combine_label);
            at_source(plan, wire);
        }
        clock.end_overlap();
        Ok(out)
    }
}
