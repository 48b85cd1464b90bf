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
//! forward:  dispatch_in --> expert_input => y       --> combine_in
//! backward: d_out[t], w --> d_out rows   => d_input --> d_dispatch, d_w
//! ```
//!
//! (`-->` is the route, `=>` a step computed in place: the expert outputs
//! overwrite their input rows, the expert backward writes `d_input` over the
//! `d_out` rows, and each row's *side* scalar `w` rides after the rows in
//! the same wire buffers and comes back as `d_w`: 4 bytes per row per leg.)
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
//! ([`EpRoute::rebuild`]): its index arrays, the shells of its count exchange
//! and its payload's wire buffers keep their capacity. The expert side packs
//! the outputs into the very buffers that arrived (same peer, same rows), so
//! every wire buffer, the self slot included, comes home on the return leg:
//! none is allocated or freed at steady state. The expert-major chunk and the
//! returned rows are leases of the caller's [`Workspace`].
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

/// The rows an [`EpRoute::exchange`] sends, in PFT order: `[B, H]` rows
/// leased from the caller's arena (recycled once on the wire), or row
/// `pft.token_ids[i]` of an `[S, H]` tensor read straight into the wire
/// (a backward's `d_out[t]`, with no `[B, H]` copy).
pub enum Payload<'a> {
    Rows(Tensor),
    Tokens(&'a Tensor),
}

/// A chunk as the experts get it: its expert-major rows, and their side
/// scalars (empty without any).
pub type Chunk<'s> = (Tensor, &'s mut [f32]);

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
    /// The payload's wire: this rank's buffers, one shell per chunk in
    /// flight, and the shell the peers' pass through (empty between calls).
    wire_out: Vec<Vec<Vec<f32>>>,
    wire_in: Vec<Vec<f32>>,
    /// The side scalars of the chunk at the experts.
    side_in: Vec<f32>,
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

/// Gather one wire buffer per peer out of `local` into `wire`, refilling
/// each slot's buffer in place (grown to exactly its rows when they are a
/// record): `blocks(peer)` lists the `(first row, rows)` runs bound for that
/// peer, in wire order (row `r` is row `ids[r]` of `local`, with `ids`);
/// `side`'s scalars, one per row, follow the rows in the same buffer.
fn pack<I: Iterator<Item = (usize, usize)>>(
    (local, ids, side): (&Tensor, Option<&[usize]>, Option<&[f32]>),
    wire: &mut [Vec<f32>],
    blocks: impl Fn(usize) -> I,
) {
    let (h, data) = (local.cols(), local.as_slice());
    for (peer, buf) in wire.iter_mut().enumerate() {
        let rows: usize = blocks(peer).map(|(_, n)| n).sum();
        buf.clear();
        buf.reserve_exact(rows * (h + usize::from(side.is_some())));
        for (r, n) in blocks(peer) {
            match ids {
                None => buf.extend_from_slice(&data[r * h..(r + n) * h]),
                Some(ids) => {
                    for &t in &ids[r..r + n] {
                        buf.extend_from_slice(&data[t * h..(t + 1) * h]);
                    }
                }
            }
        }
        if let Some(side) = side {
            for (r, n) in blocks(peer) {
                buf.extend_from_slice(&side[r..r + n]);
            }
        }
    }
}

/// Inverse of [`pack`]: scatter each peer's wire buffer to its runs of
/// `local` (and of `side`). The buffers stay in `wire`.
fn unpack<I: Iterator<Item = (usize, usize)>>(
    wire: &[Vec<f32>],
    (local, mut side): (&mut Tensor, Option<&mut [f32]>),
    blocks: impl Fn(usize) -> I,
) {
    let h = local.cols();
    let data = local.as_mut_slice();
    for (peer, buf) in wire.iter().enumerate() {
        let mut at = 0;
        for (r, n) in blocks(peer) {
            data[r * h..(r + n) * h].copy_from_slice(&buf[at..at + n * h]);
            at += n * h;
        }
        if let Some(side) = side.as_deref_mut() {
            for (r, n) in blocks(peer) {
                side[r..r + n].copy_from_slice(&buf[at..at + n]);
                at += n;
            }
        }
        assert_eq!(at, buf.len(), "peer {peer} sent a payload off the route");
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

    /// `(f32, u64)` element capacities of the wire buffers this route keeps
    /// between calls, flat EP's (with its side scalars) and RBD's.
    pub fn wire_capacity(&self) -> (usize, usize) {
        let (f32s, u64s) = self.rbd.wire_capacity();
        let ep: usize = self.wire_out.iter().flatten().map(Vec::capacity).sum();
        (f32s + ep + self.side_in.capacity(), u64s)
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

    /// `payload` (PFT order, `[B, H]`) → experts → `compute` → back: returns
    /// the `[B, H]` result in the sender's PFT order; `side`'s scalars, one
    /// per row, go and come back with their rows.
    ///
    /// `compute(plan, counts, (chunk_in, side), meter, ws)` runs once per
    /// chunk. It is handed the chunk's expert-major `[r1 - r0, H]` input
    /// **by value**, leased from `ws` — its to recycle there — and returns
    /// the same-shaped output (the layer pass's expert stage returns the
    /// input itself, overwritten), which the route sends back and recycles
    /// into `ws`; the chunk's side scalars it may overwrite. `plan` says
    /// which local experts and which rows of the full expert-major buffer
    /// the chunk is, `counts` the chunk's rows per local expert. The closure
    /// charges its own compute time to `meter`. The returned rows are a
    /// lease from `ws` too.
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
        &mut self,
        (payload, mut side): (Payload, Option<&mut [f32]>),
        chunks: Option<usize>,
        labels: (&str, &str, &str),
        ep: &Communicator,
        clock: &mut SimClock,
        ws: &mut Workspace,
        mut compute: F,
    ) -> Result<Tensor, CommError>
    where
        F: FnMut(&ChunkPlan, &[usize], Chunk<'_>, Meter, &mut Workspace) -> Tensor,
    {
        let (dispatch_label, compute_label, combine_label) = labels;
        let (rows, ids) = match &payload {
            Payload::Rows(rows) => (rows, None),
            Payload::Tokens(src) => (*src, Some(&self.pft.token_ids[..])),
        };
        let in_order = ids.is_some() || rows.rows() == self.pft.len();
        let sided = side.is_some();
        assert!(in_order, "payload must be in PFT order");
        let (hidden, w) = (rows.cols(), self.world());
        let plans = chunks.map(|k| self.chunk_plans(k));
        let in_flight = plans.as_ref().map_or(1, Vec::len);
        // Out of `self` for the call, so the plan lookups below can borrow it.
        let mut homes = std::mem::take(&mut self.wire_out);
        let mut inbound = std::mem::take(&mut self.wire_in);
        let mut side_in = std::mem::take(&mut self.side_in);
        homes.resize_with(in_flight, Vec::new);
        for shell in homes.iter_mut().chain([&mut inbound]) {
            shell.resize_with(w, Vec::new);
        }
        let counts = |p: ChunkPlan| &self.tokens_per_local_expert[p.experts.0..p.experts.1];
        let at_experts =
            |plan: ChunkPlan, wire: &[Vec<f32>], side_in: &mut Vec<f32>, ws: &mut Workspace| {
                let rows = plan.rows.1 - plan.rows.0;
                // For-overwrite: the arriving blocks tile the chunk (and
                // its side scalars, if any).
                let mut chunk_in = ws.take_for_overwrite(rows, hidden);
                side_in.resize(rows * usize::from(sided), 0.0);
                let dst = (&mut chunk_in, sided.then_some(&mut side_in[..]));
                unpack(wire, dst, |src| self.expert_blocks(plan, src));
                chunk_in
            };
        // The outputs go back in the buffers their inputs came in.
        let to_source = |plan: ChunkPlan,
                         (chunk_out, side_out): (Tensor, &[f32]),
                         wire: &mut [Vec<f32>],
                         ws: &mut Workspace| {
            assert_eq!(
                chunk_out.shape(),
                (plan.rows.1 - plan.rows.0, hidden),
                "compute must map chunk rows 1:1"
            );
            let side = sided.then_some(side_out);
            pack((&chunk_out, None, side), wire, |src| {
                self.expert_blocks(plan, src)
            });
            ws.recycle(chunk_out);
        };

        let Some(plans) = plans else {
            let (plan, home) = (self.chunk_plan(0, 1), &mut homes[0]);
            pack((rows, ids, side.as_deref()), home, |dst| {
                self.source_blocks(plan, dst)
            });
            if let Payload::Rows(rows) = payload {
                ws.recycle(rows);
            }
            ep.all_to_all_v_into(home, &mut inbound, clock)?;
            clock.commit(dispatch_label);
            let chunk_in = at_experts(plan, &inbound, &mut side_in, ws);
            let meter = Meter::new(ep, clock);
            let chunk_out = compute(&plan, counts(plan), (chunk_in, &mut side_in), meter, ws);
            to_source(plan, (chunk_out, &side_in), &mut inbound, ws);
            ep.all_to_all_v_into(&mut inbound, home, clock)?;
            clock.commit(combine_label);
            // For-overwrite: every PFT row belongs to exactly one sent
            // segment, so the returning rows write each row of `out` once.
            let mut out = ws.take_for_overwrite(self.pft.len(), hidden);
            unpack(home, (&mut out, side), |dst| self.source_blocks(plan, dst));
            (self.wire_out, self.wire_in, self.side_in) = (homes, inbound, side_in);
            return Ok(out);
        };

        clock.begin_overlap("dispatch_compute");
        clock.set_track("comm");
        // Issue every dispatch chunk before waiting on any: the sends sit in
        // the FIFO per-(src,dst) mailboxes like a NIC send queue, and the comm
        // track serializes their priced transfer times as the waits drain.
        // Issuing never blocks, so the interleaved schedule cannot deadlock.
        let mut dispatch_pending = Vec::with_capacity(plans.len());
        for (&plan, home) in plans.iter().zip(&mut homes) {
            pack((rows, ids, side.as_deref()), home, |dst| {
                self.source_blocks(plan, dst)
            });
            dispatch_pending.push(ep.issue_all_to_all_v_into(home, clock)?);
        }
        if let Payload::Rows(rows) = payload {
            ws.recycle(rows);
        }

        let mut combine_pending = Vec::with_capacity(plans.len());
        for (&plan, pending) in plans.iter().zip(dispatch_pending) {
            clock.set_track("comm");
            pending.wait_into(&mut inbound, clock)?;
            clock.commit(dispatch_label);
            let arrived = clock.track_time("comm").expect("comm track exists");

            clock.set_track("compute");
            // Honest cross-track dependency: the GEMM cannot start before
            // its chunk has arrived.
            clock.advance_to_op(compute_label, arrived);
            let chunk_in = at_experts(plan, &inbound, &mut side_in, ws);
            let meter = Meter::new(ep, clock);
            let chunk_out = compute(&plan, counts(plan), (chunk_in, &mut side_in), meter, ws);
            clock.commit(compute_label);
            let gemm_done = clock.track_time("compute").expect("compute track exists");

            // Issue the combine send from the compute track: injection is
            // free, and the message carries the `gemm_done` stamp so peers
            // cannot see this chunk's rows earlier than its GEMM finished.
            // Transfer time is priced on the outbound track in the drain
            // loop below.
            to_source(plan, (chunk_out, &side_in), &mut inbound, ws);
            let pending = ep.issue_all_to_all_v_into(&mut inbound, clock)?;
            combine_pending.push((pending, gemm_done));
        }

        // Drain the combine exchanges in issue order on the outbound track:
        // mailboxes are FIFO per pair, so each chunk's buffers come home to
        // the shell they left from, and its rows return to the PFT positions
        // they were dispatched from (every PFT row belongs to exactly one
        // sent segment, so the chunks write each row of the for-overwrite
        // `out` exactly once). The per-chunk `advance_to_op` pins the
        // transfer start at the chunk's own GEMM completion; `wait_into`
        // then maxes in the peers' injection stamps.
        let mut out = ws.take_for_overwrite(self.pft.len(), hidden);
        clock.set_track("comm_out");
        let returns = plans.iter().zip(combine_pending).zip(&mut homes);
        for ((&plan, (pending, gemm_done)), home) in returns {
            clock.advance_to_op(combine_label, gemm_done);
            pending.wait_into(home, clock)?;
            clock.commit(combine_label);
            let side = side.as_deref_mut();
            unpack(home, (&mut out, side), |dst| self.source_blocks(plan, dst));
        }
        clock.end_overlap();
        (self.wire_out, self.wire_in, self.side_in) = (homes, inbound, side_in);
        Ok(out)
    }
}
