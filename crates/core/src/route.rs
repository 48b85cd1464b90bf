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
//! forward:  dispatch_in --> expert_input => y           --> combine_in
//! backward: combine_in  => d_combine     --> d_y        -> d_expert_in --> d_dispatch
//! ```
//!
//! (`-->` is the route, `=>` a step computed in place: the expert outputs
//! overwrite their input rows, and the combine backward overwrites the saved
//! outputs with their gradient.)
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
//! **Buffers.** A route is rebuilt in place every step
//! ([`EpRoute::rebuild`]): its index arrays and the shells of its count
//! exchange keep their capacity. [`EpRoute::exchange`] leases every buffer it
//! touches — the per-peer wire buffers, both wire shells, the expert-major
//! chunk and the returned rows — from the caller's [`Workspace`], and
//! recycles what arrives over the wire into it: every rank sends and receives
//! one buffer per peer per direction, so the buffers circulate between the
//! ranks' arenas and none is allocated or freed at steady state.
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
use xmoe_tensor::{Tensor, Workspace};
use xmoe_topology::ExpertAssignment;

use crate::pft::Pft;
use crate::price::Meter;

/// The routing plan of one uneven expert exchange, reusable for forward
/// activations and backward gradients. See the module docs.
#[derive(Clone, Default)]
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
    /// `seg_end[g]`: where global expert `g`'s rows end in the PFT.
    seg_end: Vec<usize>,
    /// Wire shells of the count exchange; what one build receives the next
    /// one sends.
    counts_send: Vec<Vec<u64>>,
    counts_recv: Vec<Vec<u64>>,
    /// RBD's pilot plan and wire buffers over the same PFT, used only when
    /// the layer pass runs over `Transport::Rbd`.
    pub(crate) rbd: crate::rbd::RbdScratch,
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
    pub(crate) chunk: (usize, usize),
}

/// Chunk `c` of `k` over a list of `len` entries.
fn cut(len: usize, (c, k): (usize, usize)) -> (usize, usize) {
    (c * len / k, (c + 1) * len / k)
}

/// Gather one wire buffer per peer out of `local` into the (emptied) shell
/// `wire`, each leased from `ws`: `blocks(peer)` lists the `(first row, rows)`
/// runs bound for that peer, in wire order.
fn pack<I: Iterator<Item = (usize, usize)>>(
    local: &Tensor,
    wire: &mut [Vec<f32>],
    ws: &mut Workspace,
    blocks: impl Fn(usize) -> I,
) {
    let (h, data) = (local.cols(), local.as_slice());
    for (peer, slot) in wire.iter_mut().enumerate() {
        let rows: usize = blocks(peer).map(|(_, n)| n).sum();
        // A peer that gets no rows still gets a buffer: each rank recycles as
        // many as it leases, whatever the routing.
        let mut buf = ws.take_f32(rows * h);
        for (r, n) in blocks(peer) {
            buf.extend_from_slice(&data[r * h..(r + n) * h]);
        }
        *slot = buf;
    }
}

/// Inverse of [`pack`]: scatter each peer's wire buffer to its runs of
/// `local` and recycle it into `ws`, leaving the shell empty.
fn unpack<I: Iterator<Item = (usize, usize)>>(
    wire: &mut [Vec<f32>],
    local: &mut Tensor,
    ws: &mut Workspace,
    blocks: impl Fn(usize) -> I,
) {
    let h = local.cols();
    let data = local.as_mut_slice();
    for (peer, slot) in wire.iter_mut().enumerate() {
        let buf = std::mem::take(slot);
        let mut at = 0;
        for (r, n) in blocks(peer) {
            data[r * h..(r + n) * h].copy_from_slice(&buf[at..at + n * h]);
            at += n * h;
        }
        assert_eq!(at, buf.len(), "peer {peer} sent a payload off the route");
        ws.recycle_f32(buf);
    }
}

impl EpRoute {
    /// Collectively build the route of `pft` from scratch; see
    /// [`EpRoute::rebuild`].
    pub fn build(
        pft: Pft,
        assignment: &ExpertAssignment,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<EpRoute, CommError> {
        let mut route = EpRoute {
            pft,
            ..EpRoute::default()
        };
        route.rebuild(assignment, ep, clock)?;
        Ok(route)
    }

    /// Collectively re-plan the route for the PFT now in `self.pft`, in
    /// place: exchanges per-(destination, expert) counts so every
    /// destination knows its inbound segment sizes (Listing 1 line 44). One
    /// `u64` all-to-all — claim it with `clock.commit("dispatch_a2a_meta")`;
    /// the rest is O(E + local·W). After an `Err` the route is unusable until
    /// the next successful rebuild.
    pub fn rebuild(
        &mut self,
        assignment: &ExpertAssignment,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<(), CommError> {
        let (w, me) = (ep.size(), ep.rank());
        let tpe = &self.pft.tokens_per_expert;
        assert_eq!(assignment.n_ranks(), w, "assignment world != communicator");
        assert_eq!(
            tpe.len(),
            assignment.n_experts(),
            "PFT expert count mismatch"
        );
        // The PFT is sorted by global expert id: expert g's rows end at
        // `seg_end[g]`.
        let mut end = 0;
        self.seg_end.clear();
        self.seg_end.extend(tpe.iter().map(|&n| {
            end += n;
            end
        }));
        let seg_end = &self.seg_end;
        std::mem::swap(&mut self.counts_send, &mut self.counts_recv);
        self.counts_send.resize_with(w, Vec::new);
        self.counts_recv.resize_with(w, Vec::new);
        self.send_segs.clear();
        self.dst_base.clear();
        for (d, counts) in self.counts_send.iter_mut().enumerate() {
            self.dst_base.push(self.send_segs.len());
            self.send_segs
                .extend(assignment.experts_on(d).iter().map(|&g| {
                    let start = seg_end[g] - tpe[g];
                    let routed_here = assignment.serving_rank(g, me) == d;
                    (start, if routed_here { seg_end[g] } else { start })
                }));
            counts.clear();
            let segs = self.send_segs[self.dst_base[d]..].iter();
            counts.extend(segs.map(|&(a, b)| (b - a) as u64));
        }
        self.dst_base.push(self.send_segs.len());
        debug_assert_eq!(
            self.send_segs.iter().map(|&(a, b)| b - a).sum::<usize>(),
            self.pft.len(),
            "every PFT row routes once"
        );
        ep.all_to_all_v_into(&mut self.counts_send, &mut self.counts_recv, clock)?;

        let e_local = assignment.experts_on(me).len();
        self.block_start.clear();
        self.tokens_per_local_expert.clear();
        let mut at = 0usize;
        for j in 0..e_local {
            for counts in &self.counts_recv {
                self.block_start.push(at);
                at += counts[j] as usize;
            }
            self.tokens_per_local_expert
                .push(at - self.block_start[j * w]);
        }
        self.block_start.push(at);
        let max_local = (0..w).map(|r| assignment.experts_on(r).len()).max();
        self.max_local = max_local.unwrap_or(0);
        Ok(())
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
    /// `[B, H]` result in the sender's PFT order. `rows` is a lease of `ws`,
    /// taken by value and recycled as soon as it is on the wire.
    ///
    /// `compute(plan, counts, chunk_in, meter, ws)` runs once per chunk. It is
    /// handed the chunk's expert-major `[r1 - r0, H]` input **by value**,
    /// leased from `ws` — its to recycle there — and returns the same-shaped
    /// output (the layer pass's expert stage returns the input itself,
    /// overwritten), which the route sends back and recycles into `ws`.
    /// `plan` says which local experts and which rows of the full
    /// expert-major buffer the chunk is, `counts` the chunk's rows per local
    /// expert. The closure
    /// charges its own compute time to `meter`. The returned rows are a lease
    /// from `ws` too.
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
    #[allow(clippy::too_many_arguments)]
    pub fn exchange<F>(
        &self,
        rows: Tensor,
        chunks: Option<usize>,
        labels: (&str, &str, &str),
        ep: &Communicator,
        clock: &mut SimClock,
        ws: &mut Workspace,
        mut compute: F,
    ) -> Result<Tensor, CommError>
    where
        F: FnMut(&ChunkPlan, &[usize], Tensor, Meter, &mut Workspace) -> Tensor,
    {
        let (dispatch_label, compute_label, combine_label) = labels;
        let counts = |p: ChunkPlan| &self.tokens_per_local_expert[p.experts.0..p.experts.1];
        let (hidden, w) = (rows.cols(), self.world());
        assert_eq!(rows.rows(), self.pft.len(), "payload must be in PFT order");
        // One send and one receive shell serve every collective of the call:
        // issuing drains the first, unpacking drains the second.
        let (mut send, mut recv) = (ws.take_shell(w), ws.take_shell(w));
        let at_experts = |plan: ChunkPlan, wire: &mut [Vec<f32>], ws: &mut Workspace| {
            // For-overwrite: the arriving blocks tile the chunk.
            let mut chunk_in = ws.take_for_overwrite(plan.rows.1 - plan.rows.0, hidden);
            unpack(wire, &mut chunk_in, ws, |src| self.expert_blocks(plan, src));
            chunk_in
        };
        let to_source =
            |plan: ChunkPlan, chunk_out: Tensor, wire: &mut [Vec<f32>], ws: &mut Workspace| {
                assert_eq!(
                    chunk_out.shape(),
                    (plan.rows.1 - plan.rows.0, hidden),
                    "compute must map chunk rows 1:1"
                );
                pack(&chunk_out, wire, ws, |src| self.expert_blocks(plan, src));
                ws.recycle(chunk_out);
            };

        let Some(chunks) = chunks else {
            let plan = self.chunk_plan(0, 1);
            pack(&rows, &mut send, ws, |dst| self.source_blocks(plan, dst));
            ws.recycle(rows);
            ep.all_to_all_v_into(&mut send, &mut recv, clock)?;
            clock.commit(dispatch_label);
            let chunk_in = at_experts(plan, &mut recv, ws);
            let chunk_out = compute(&plan, counts(plan), chunk_in, Meter::new(ep, clock), ws);
            to_source(plan, chunk_out, &mut send, ws);
            ep.all_to_all_v_into(&mut send, &mut recv, clock)?;
            clock.commit(combine_label);
            // For-overwrite: every PFT row belongs to exactly one sent
            // segment, so the returning rows write each row of `out` once.
            let mut out = ws.take_for_overwrite(self.pft.len(), hidden);
            unpack(&mut recv, &mut out, ws, |dst| self.source_blocks(plan, dst));
            ws.recycle_shell(send);
            ws.recycle_shell(recv);
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
            pack(&rows, &mut send, ws, |dst| self.source_blocks(plan, dst));
            dispatch_pending.push(ep.issue_all_to_all_v_into(&mut send, clock)?);
        }
        ws.recycle(rows);

        let mut combine_pending = Vec::with_capacity(plans.len());
        for (&plan, pending) in plans.iter().zip(dispatch_pending) {
            clock.set_track("comm");
            pending.wait_into(&mut recv, clock)?;
            clock.commit(dispatch_label);
            let arrived = clock.track_time("comm").expect("comm track exists");

            clock.set_track("compute");
            // Honest cross-track dependency: the GEMM cannot start before
            // its chunk has arrived.
            clock.advance_to_op(compute_label, arrived);
            let chunk_in = at_experts(plan, &mut recv, ws);
            let chunk_out = compute(&plan, counts(plan), chunk_in, Meter::new(ep, clock), ws);
            clock.commit(compute_label);
            let gemm_done = clock.track_time("compute").expect("compute track exists");

            // Issue the combine send from the compute track: injection is
            // free, and the message carries the `gemm_done` stamp so peers
            // cannot see this chunk's rows earlier than its GEMM finished.
            // Transfer time is priced on the outbound track in the drain
            // loop below.
            to_source(plan, chunk_out, &mut send, ws);
            let pending = ep.issue_all_to_all_v_into(&mut send, clock)?;
            combine_pending.push((pending, gemm_done));
        }

        // Drain the combine exchanges in issue order on the outbound track;
        // each chunk's rows return to the PFT positions they were dispatched
        // from (every PFT row belongs to exactly one sent segment, so the
        // chunks write each row of the for-overwrite `out` exactly once). The
        // per-chunk `advance_to_op` pins the transfer start at the chunk's
        // own GEMM completion; `wait_into` then maxes in the peers' injection
        // stamps.
        let mut out = ws.take_for_overwrite(self.pft.len(), hidden);
        clock.set_track("comm_out");
        for (&plan, (pending, gemm_done)) in plans.iter().zip(combine_pending) {
            clock.advance_to_op(combine_label, gemm_done);
            pending.wait_into(&mut recv, clock)?;
            clock.commit(combine_label);
            unpack(&mut recv, &mut out, ws, |dst| self.source_blocks(plan, dst));
        }
        clock.end_overlap();
        ws.recycle_shell(send);
        ws.recycle_shell(recv);
        Ok(out)
    }
}
