//! Hierarchical Redundancy-Bypassing Dispatch — RBD (paper §4.2, Fig 7).
//!
//! With large top-k routing, several of a token's k destination experts
//! often live on the **same node**. A plain all-to-all then ships identical
//! copies of the token across the slow inter-node links, once per expert.
//! RBD instead:
//!
//! * **S0 — pilot selection**: among a token's routed entries sharing one
//!   destination node, pick one at random as the *pilot*; the rest become
//!   *local replicas*. Random choice balances the all-to-all load (always
//!   picking the smallest expert id would skew it).
//! * **S1 — inter-node exchange**: only pilot rows (plus lightweight
//!   replica metadata) cross nodes, in one uneven all-to-all over the EP
//!   group. Arriving pilots are copied into replica rows for the other GPUs
//!   of the node.
//! * **S2 — intra-node exchange**: reconstructed replicas travel over the
//!   fast intra-node links; each rank merges pilots and replicas ordered by
//!   local expert and runs its experts padding-free.
//!
//! The combine stage reverses the route: expert outputs are weight-scaled,
//! replica outputs return intra-node to their pilot's holder and are summed
//! into the pilot's accumulator, and a single partial sum per (token, node)
//! crosses back inter-node. The final scatter adds per-node partials — the
//! same value as the plain pipeline's per-entry weighted sum.
//!
//! # A transport of the one layer pass
//!
//! RBD is not a MoE layer of its own: the one layer pass,
//! [`padding_free::forward`](crate::pipeline::padding_free::forward), over
//! [`Transport::Rbd`](crate::pipeline::padding_free::Transport::Rbd) gates,
//! builds the PFT, gathers and runs its experts exactly as over flat EP.
//! Only the dispatch and combine live here, as three steps on
//! [`RbdScratch`]: S0 ([`RbdScratch::plan`]); S1/S2, the pass's experts and
//! the return legs ([`RbdScratch::exchange`]); the add of the partials
//! ([`RbdScratch::combine`]). No row is copied that does not travel or feed
//! an expert: S0 packs each destination's pilot rows straight from the
//! tokens (the pass gathers no PFT-order rows for RBD), and the merge copies
//! each inbound row straight from the wire buffer it arrived in into the
//! expert-major input. The plan arrays and every wire buffer stay in that
//! grow-once scratch and make a round trip (see there); the merged expert
//! input is the one exact-size lease from the pass's [`Workspace`], so at
//! steady state a serial step allocates nothing. The replica-merge and
//! combine accumulations use the 8-lane elementwise kernels
//! ([`xmoe_tensor::axpy_slice`] and friends), bitwise identical to the
//! scalar loops they replace.

use xmoe_collectives::{CommError, Communicator, SimClock};
use xmoe_tensor::{add_assign_slice, axpy_slice, scaled_extend, DetRng, Tensor, Workspace};
use xmoe_topology::ExpertAssignment;

use crate::pft::Pft;
use crate::price::{self, Meter};
use crate::route::{Chunk, ChunkPlan};

/// The two communicators RBD needs: the EP group and its node-local
/// subgroup, plus the precomputed position maps the hot path would
/// otherwise rebuild (and heap-allocate) every step. Create once and reuse
/// across layers/steps.
pub struct RbdComms {
    pub ep: Communicator,
    /// EP ranks co-resident on this rank's node.
    pub node: Communicator,
    /// Physical node index of each EP position.
    node_of_ep_pos: Vec<usize>,
    /// Node-communicator position of each EP position on *this* rank's
    /// node; `None` for positions living on other nodes.
    node_pos_of_ep_pos: Vec<Option<usize>>,
}

impl RbdComms {
    /// Collectively split the EP group by physical node.
    pub fn create(ep: &Communicator, clock: &mut SimClock) -> Result<Self, CommError> {
        let node_id = ep.cost().topology().node_of(ep.global_rank());
        let node_of_ep_pos: Vec<usize> = {
            let topo = ep.cost().topology();
            ep.group_ranks().iter().map(|&g| topo.node_of(g)).collect()
        };
        let node = ep.split(node_id, clock)?;
        let mut node_pos_of_ep_pos = vec![None; ep.size()];
        for (i, &g) in node.group_ranks().iter().enumerate() {
            if let Some(pos) = ep.group_ranks().iter().position(|&eg| eg == g) {
                node_pos_of_ep_pos[pos] = Some(i);
            }
        }
        Ok(Self {
            ep: ep.clone(),
            node,
            node_of_ep_pos,
            node_pos_of_ep_pos,
        })
    }
}

// ---------------------------------------------------------------------
// Redundancy analytics (paper Fig 4)
// ---------------------------------------------------------------------

/// Measured redundancy rate of a routed batch: the fraction of routed
/// entries whose token data need **not** cross to its destination node
/// because a co-routed entry (same token, same node) already carries it.
///
/// `rate = 1 - distinct(token, dst_node) / total_entries`.
pub fn redundancy_rate(pft: &Pft, expert_node: impl Fn(usize) -> usize) -> f64 {
    if pft.is_empty() {
        return 0.0;
    }
    let mut pairs: Vec<(usize, usize)> = pft
        .token_ids
        .iter()
        .zip(&pft.expert_ids)
        .map(|(&t, &e)| (t, expert_node(e)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    1.0 - pairs.len() as f64 / pft.len() as f64
}

/// Expected redundancy under uniform routing of k experts over `nodes`
/// equally loaded nodes: `1 - N (1 - (1 - 1/N)^k) / k`.
///
/// ```
/// use xmoe_core::rbd::expected_redundancy_uniform;
/// // The paper's Fig 4 peak: k=8 over 2 nodes is ~75.1% redundant.
/// let r = expected_redundancy_uniform(8, 2);
/// assert!((r - 0.751).abs() < 0.01);
/// ```
pub fn expected_redundancy_uniform(k: usize, nodes: usize) -> f64 {
    if nodes == 0 || k == 0 {
        return 0.0;
    }
    let n = nodes as f64;
    let distinct = n * (1.0 - (1.0 - 1.0 / n).powi(k as i32));
    (1.0 - distinct / k as f64).max(0.0)
}

// ---------------------------------------------------------------------
// Plan scratch
// ---------------------------------------------------------------------

/// Sentinel `peer` marking an expert-input row as a pilot (stays local on
/// the combine path) rather than a replica returned to a node peer.
const PILOT: usize = usize::MAX;

/// One selected pilot: the PFT entry it wraps, its destination EP rank and
/// its replica range in [`RbdScratch::replicas`].
#[derive(Clone, Copy, Debug, Default)]
struct PilotEntry {
    dst: usize,
    /// PFT entry index of the pilot (expert/token/weight live in the PFT).
    idx: usize,
    /// Replica range `[rep0, rep1)` in the flat replica array.
    rep0: usize,
    rep1: usize,
}

/// One expert-input row on the receiving side: where it came from and how
/// its output returns (`peer == PILOT` accumulates locally; otherwise the
/// weighted output travels intra-node back to `peer`).
#[derive(Clone, Copy, Debug)]
struct EntryRec {
    local_expert: usize,
    weight: f32,
    peer: usize,
    /// Source EP rank the pilot arrived from.
    src: usize,
    /// Pilot index within that source's chunk.
    idx: usize,
    /// The row's index in the buffer it arrived in: `rows_recv[src]` for a
    /// pilot (its `idx`), `rep_rows_recv[peer]` for a replica.
    row: usize,
}

/// Grow-once plan and wire scratch of the RBD transport. Lives in the
/// layer's [`EpRoute`](crate::route::EpRoute); every `Vec` here keeps its
/// capacity across steps, so after warm-up the planning phase is
/// allocation-free. The send/recv
/// shells hold the wire buffers themselves, never the workspace: each one
/// makes a round trip and comes back to the rank that filled it. An inbound
/// dispatch buffer is the combine leg's send buffer (`rows_recv[src]` goes
/// back to `src`, `rep_rows_recv[p]` and `rep_meta_recv[p]` to node peer
/// `p`), and what comes back is the next forward's send buffer
/// (`back_recv` → `rows_send`, `crep_*_recv` → `rep_*_send`). The pilot
/// metadata streams take the other direction's place (`meta_recv` →
/// `meta_send`).
#[derive(Clone, Default)]
pub(crate) struct RbdScratch {
    /// `(token, dst_node, pft_idx)` sort keys for pilot grouping.
    keyed: Vec<(usize, usize, usize)>,
    pilots: Vec<PilotEntry>,
    /// Flat `(expert, weight_bits)` replica pairs referenced by range.
    replicas: Vec<(usize, u32)>,
    /// Pilot ranges per destination: dst `d` owns `pilots[dst_off[d]..dst_off[d+1]]`.
    dst_off: Vec<usize>,
    /// Row width of the pilots [`RbdScratch::plan`] packed.
    hidden: usize,
    entries: Vec<EntryRec>,
    // Persistent wire shells and the buffers in them.
    rows_send: Vec<Vec<f32>>,
    meta_send: Vec<Vec<u64>>,
    rows_recv: Vec<Vec<f32>>,
    meta_recv: Vec<Vec<u64>>,
    rep_rows_send: Vec<Vec<f32>>,
    rep_meta_send: Vec<Vec<u64>>,
    rep_rows_recv: Vec<Vec<f32>>,
    rep_meta_recv: Vec<Vec<u64>>,
    crep_rows_recv: Vec<Vec<f32>>,
    crep_meta_recv: Vec<Vec<u64>>,
    back_recv: Vec<Vec<f32>>,
    /// The overlapped S1's chunk shells: what a rank outside a chunk's
    /// source group sends (nothing), and where each chunk lands. Empty
    /// between uses.
    s1_rows: Vec<Vec<f32>>,
    s1_meta: Vec<Vec<u64>>,
}

impl RbdScratch {
    /// `(f32, u64)` element capacities of the wire buffers parked here
    /// between forwards.
    pub(crate) fn wire_capacity(&self) -> (usize, usize) {
        fn cap<T>(shells: &[&Vec<Vec<T>>]) -> usize {
            shells.iter().copied().flatten().map(Vec::capacity).sum()
        }
        let rows = [&self.rows_send, &self.rows_recv, &self.rep_rows_send];
        let back = [&self.rep_rows_recv, &self.crep_rows_recv, &self.back_recv];
        let meta = [&self.meta_send, &self.meta_recv, &self.rep_meta_send];
        let meta_back = [&self.rep_meta_recv, &self.crep_meta_recv];
        (cap(&rows) + cap(&back), cap(&meta) + cap(&meta_back))
    }
}

// ---------------------------------------------------------------------
// The RBD transport
// ---------------------------------------------------------------------

/// How the pilot is chosen within a (token, destination-node) group.
///
/// The paper uses [`PilotPolicy::Random`] and notes that "always routing
/// tokens to the smallest expert ID within a node will significantly
/// increase the alltoall latency" — the deterministic policy funnels every
/// pilot to one GPU per node, skewing the all-to-all chunk sizes. The
/// `ablation_pilot` bench quantifies this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PilotPolicy {
    /// Uniformly random group member (the paper's choice).
    Random,
    /// The group's smallest expert id (the strawman the paper warns about).
    SmallestExpertId,
}

/// Pick the pilot's PFT index from one `(token, node)` group of `keyed`
/// triples; an empty group has none.
fn select_pilot(
    group: &[(usize, usize, usize)],
    policy: PilotPolicy,
    rng: &mut DetRng,
) -> Option<usize> {
    let &(_, _, first) = group.first()?;
    Some(match policy {
        PilotPolicy::Random => group[rng.next_below(group.len())].2,
        // Entries are expert-sorted within the PFT, so the smallest
        // pft index in the group has the smallest expert id.
        PilotPolicy::SmallestExpertId => group.iter().fold(first, |m, &(_, _, i)| m.min(i)),
    })
}

/// RBD's three steps of the one layer pass (see the module docs).
/// `assignment` is the contiguous `(E, W)` layout: an expert's owner is its
/// primary holder, its local index its offset from the rank's first expert.
impl RbdScratch {
    /// S0 — pilot selection, charged as `rbd_plan`: group `pft`'s routed
    /// entries by (token, destination node), pick a pilot per group by
    /// `policy` and attach the rest as its replicas (a flat range in
    /// `replicas`, not a per-pilot Vec). Then pack S1's payload: each
    /// destination's pilot rows, copied straight from `tokens` (the rows
    /// `pft` routes), and their metadata.
    pub(crate) fn plan(
        &mut self,
        (pft, tokens): (&Pft, &Tensor),
        (comms, assignment): (&RbdComms, &ExpertAssignment),
        policy: PilotPolicy,
        rng: &mut DetRng,
        mut meter: Meter,
    ) {
        let owner_of = |e: usize| assignment.primary(e);
        let (keyed, pilots, replicas) = (&mut self.keyed, &mut self.pilots, &mut self.replicas);
        keyed.clear();
        keyed.extend((0..pft.len()).map(|i| {
            let node = comms.node_of_ep_pos[owner_of(pft.expert_ids[i])];
            (pft.token_ids[i], node, i)
        }));
        keyed.sort_unstable();
        pilots.clear();
        replicas.clear();
        for group in keyed.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let Some(pilot) = select_pilot(group, policy, rng) else {
                continue;
            };
            let rep0 = replicas.len();
            for &(_, _, i) in group.iter().filter(|&&(_, _, i)| i != pilot) {
                replicas.push((pft.expert_ids[i], pft.combine_weights[i].to_bits()));
            }
            pilots.push(PilotEntry {
                dst: owner_of(pft.expert_ids[pilot]),
                idx: pilot,
                rep0,
                rep1: replicas.len(),
            });
        }
        // Deterministic per-destination order (by expert, then token): one
        // global in-place sort — the (dst, expert, token) keys are unique, so
        // every destination's slice comes out exactly as per-dst stable
        // sorts would produce it, without per-dst index/reorder scratch.
        pilots.sort_unstable_by_key(|p| (p.dst, pft.expert_ids[p.idx], pft.token_ids[p.idx]));
        self.dst_off.clear();
        let (w, dst_off) = (comms.ep.size(), &mut self.dst_off);
        dst_off.extend((0..=w).map(|d| pilots.partition_point(|p| p.dst < d)));

        // Wire format per pilot: expert, weight bits, n_rep, then (expert,
        // weight bits) per replica — all inline in one u64 stream per dst.
        self.hidden = tokens.cols();
        let (rows_send, meta_send) = (&mut self.rows_send, &mut self.meta_send);
        rows_send.resize_with(w, Vec::new);
        meta_send.resize_with(w, Vec::new);
        for d in 0..w {
            let (out, meta) = (&mut rows_send[d], &mut meta_send[d]);
            out.clear();
            meta.clear();
            for p in &pilots[dst_off[d]..dst_off[d + 1]] {
                out.extend_from_slice(tokens.row(pft.token_ids[p.idx]));
                meta.push(pft.expert_ids[p.idx] as u64);
                meta.push(pft.combine_weights[p.idx].to_bits() as u64);
                meta.push((p.rep1 - p.rep0) as u64);
                for &(e, wbits) in &replicas[p.rep0..p.rep1] {
                    meta.push(e as u64);
                    meta.push(wbits as u64);
                }
            }
        }
        let routed = pft.len() as f64;
        meter.charge("rbd_plan", |c| price::rbd_plan(c, routed));
    }

    /// S1 and S2 out (the payload [`RbdScratch::plan`] packed), `compute`
    /// once over the merged expert-major buffer (one whole [`ChunkPlan`]),
    /// then the weighted intra-node and inter-node return legs.
    /// `overlap_chunks` pipelines S1 (see its arm). What comes back are
    /// per-(token, node) partial sums in pilot order, which stay here for
    /// [`RbdScratch::combine`].
    pub(crate) fn exchange<F>(
        &mut self,
        (comms, assignment): (&RbdComms, &ExpertAssignment),
        overlap_chunks: Option<usize>,
        clock: &mut SimClock,
        ws: &mut Workspace,
        mut compute: F,
    ) -> Result<(), CommError>
    where
        F: FnMut(&ChunkPlan, &[usize], Chunk<'_>, Meter, &mut Workspace) -> Tensor,
    {
        let (ep, node) = (&comms.ep, &comms.node);
        let (w, hidden) = (ep.size(), self.hidden);
        let owner_of = |e: usize| assignment.primary(e);
        let locals = assignment.experts_on(ep.rank());
        let (first_expert, e_local) = (locals.first().copied().unwrap_or_default(), locals.len());
        let (entries, back_recv) = (&mut self.entries, &mut self.back_recv);
        let (rows_send, rows_recv) = (&mut self.rows_send, &mut self.rows_recv);
        let (meta_send, meta_recv) = (&mut self.meta_send, &mut self.meta_recv);
        let (rep_rows_send, rep_meta_send) = (&mut self.rep_rows_send, &mut self.rep_meta_send);
        let (rep_rows_recv, rep_meta_recv) = (&mut self.rep_rows_recv, &mut self.rep_meta_recv);
        let (crep_rows_recv, crep_meta_recv) = (&mut self.crep_rows_recv, &mut self.crep_meta_recv);
        let (s1_rows, s1_meta) = (&mut self.s1_rows, &mut self.s1_meta);

        // --- S1: inter-node exchange of pilots + metadata -------------------
        rows_recv.resize_with(w, Vec::new);
        meta_recv.resize_with(w, Vec::new);
        back_recv.resize_with(w, Vec::new);

        // --- S1.5 state: entry list + replica queues -------------------------
        let node_n = node.size();
        rep_rows_send.resize_with(node_n, Vec::new);
        rep_meta_send.resize_with(node_n, Vec::new);
        rep_rows_recv.resize_with(node_n, Vec::new);
        rep_meta_recv.resize_with(node_n, Vec::new);
        crep_rows_recv.resize_with(node_n, Vec::new);
        crep_meta_recv.resize_with(node_n, Vec::new);
        rep_rows_send.iter_mut().for_each(Vec::clear);
        rep_meta_send.iter_mut().for_each(Vec::clear);
        entries.clear();
        let npos = &comms.node_pos_of_ep_pos;
        // Parse one source's pilots: append their entries, queue replica copies
        // for node peers, return the replica rows copied. Sources must be
        // processed in ascending rank order — the entry order (and hence the
        // bitwise result) depends on it.
        let mut process_src = |src: usize, rows: &[f32], meta: &[u64]| -> usize {
            let mut replica_rows = 0;
            let mut idx = 0usize; // pilot index within this source's chunk
            let mut i = 0usize;
            while i < meta.len() {
                let expert = meta[i] as usize;
                let weight = f32::from_bits(meta[i + 1] as u32);
                let n_rep = meta[i + 2] as usize;
                i += 3;
                let row_data = &rows[idx * hidden..(idx + 1) * hidden];
                entries.push(EntryRec {
                    local_expert: expert - first_expert,
                    weight,
                    peer: PILOT,
                    src,
                    idx,
                    row: idx,
                });
                for _ in 0..n_rep {
                    let rep_expert = meta[i] as usize;
                    let rep_weight_bits = meta[i + 1];
                    i += 2;
                    let peer = npos[owner_of(rep_expert)]
                        .expect("replica target must be on the pilot's node");
                    rep_rows_send[peer].extend_from_slice(row_data);
                    rep_meta_send[peer].extend_from_slice(&[
                        rep_expert as u64,
                        rep_weight_bits,
                        src as u64,
                        idx as u64,
                    ]);
                    replica_rows += 1;
                }
                idx += 1;
            }
            replica_rows
        };

        match overlap_chunks {
            None => {
                ep.all_to_all_v_into(rows_send, rows_recv, clock)?;
                clock.commit("dispatch_a2a_inter");
                ep.all_to_all_v_into(meta_send, meta_recv, clock)?;
                clock.commit("dispatch_a2a_meta");
                let mut replica_rows = 0;
                for src in 0..w {
                    replica_rows += process_src(src, &rows_recv[src], &meta_recv[src]);
                }
                Meter::new(ep, clock).charge("rbd_replica_reconstruct", |c| {
                    price::gather(c, replica_rows, hidden)
                });
            }
            Some(chunks) => {
                // Chunk the S1 exchange by contiguous source-rank groups: chunk
                // `c` carries only group `c`'s payload (other ranks send the
                // empty chunk shells), so group `c`'s replica reconstruction
                // overlaps with group `c+1`'s transfer. All chunks are issued
                // before any wait (a NIC send queue), which also rules out
                // deadlock. Each chunk lands in the chunk shells, and its
                // group's buffers move on into `rows_recv` / `meta_recv`.
                let k = chunks.clamp(1, w);
                let me = ep.rank();
                s1_rows.resize_with(w, Vec::new);
                s1_meta.resize_with(w, Vec::new);
                clock.begin_overlap("rbd_dispatch_compute");
                clock.set_track("comm");
                let mut pend = Vec::with_capacity(k);
                for c in 0..k {
                    let (s0, s1) = (c * w / k, (c + 1) * w / k);
                    let (rows_out, meta_out) = if (s0..s1).contains(&me) {
                        (&mut rows_send[..], &mut meta_send[..])
                    } else {
                        (&mut s1_rows[..], &mut s1_meta[..])
                    };
                    let rows_p = ep.issue_all_to_all_v_into(rows_out, clock)?;
                    let meta_p = ep.issue_all_to_all_v_into(meta_out, clock)?;
                    pend.push(((s0, s1), rows_p, meta_p));
                }
                for ((s0, s1), rows_p, meta_p) in pend {
                    clock.set_track("comm");
                    rows_p.wait_into(s1_rows, clock)?;
                    clock.commit("dispatch_a2a_inter");
                    meta_p.wait_into(s1_meta, clock)?;
                    clock.commit("dispatch_a2a_meta");
                    let arrived = clock.track_time("comm").expect("comm track exists");
                    clock.set_track("compute");
                    clock.advance_to_op("rbd_replica_reconstruct", arrived);
                    let mut replica_rows = 0;
                    for src in s0..s1 {
                        replica_rows += process_src(src, &s1_rows[src], &s1_meta[src]);
                        rows_recv[src] = std::mem::take(&mut s1_rows[src]);
                        meta_recv[src] = std::mem::take(&mut s1_meta[src]);
                    }
                    Meter::new(ep, clock).charge("rbd_replica_reconstruct", |c| {
                        price::gather(c, replica_rows, hidden)
                    });
                }
                clock.end_overlap();
            }
        }
        // The metadata that came in is the next forward's outbound stream.
        std::mem::swap(meta_send, meta_recv);

        // --- S2: intra-node exchange of replicas ------------------------------
        node.all_to_all_v_into(rep_rows_send, rep_rows_recv, clock)?;
        clock.commit("dispatch_a2a_intra");
        node.all_to_all_v_into(rep_meta_send, rep_meta_recv, clock)?;
        clock.commit("dispatch_a2a_meta_intra");
        for (peer, meta) in rep_meta_recv.iter().enumerate() {
            for (row, quad) in meta.chunks_exact(4).enumerate() {
                entries.push(EntryRec {
                    local_expert: quad[0] as usize - first_expert,
                    weight: f32::from_bits(quad[1] as u32),
                    peer,
                    src: quad[2] as usize,
                    idx: quad[3] as usize,
                    row,
                });
            }
        }

        // --- Merge ordered by local expert; the pass's experts --------------
        // Counting sort over the entries (pilots by source, then replicas by
        // peer): stable by construction (equal experts keep arrival order)
        // and allocation-free. Each row is copied straight from the wire
        // buffer it arrived in to its expert-major position.
        let n_rows = entries.len();
        let mut counts = ws.take_idx(e_local);
        for e in entries.iter() {
            counts[e.local_expert] += 1;
        }
        let mut cursor = ws.take_idx(e_local);
        let mut run = 0usize;
        for e in 0..e_local {
            cursor[e] = run;
            run += counts[e];
        }
        let mut order = ws.take_idx(n_rows);
        for (i, e) in entries.iter().enumerate() {
            order[cursor[e.local_expert]] = i;
            cursor[e.local_expert] += 1;
        }
        // For-overwrite: `order` is a permutation of every entry.
        let mut expert_input = ws.take_for_overwrite(n_rows, hidden);
        for (pos, &ei) in order.iter().enumerate() {
            let e = &entries[ei];
            let wire = if e.peer == PILOT {
                &rows_recv[e.src]
            } else {
                &rep_rows_recv[e.peer]
            };
            let row = &wire[e.row * hidden..(e.row + 1) * hidden];
            expert_input.row_mut(pos).copy_from_slice(row);
        }
        let whole = ChunkPlan {
            experts: (0, e_local),
            rows: (0, n_rows),
            chunk: (0, 1),
        };
        let chunk = (expert_input, &mut [][..]);
        let mlp_out = compute(&whole, &counts, chunk, Meter::new(ep, clock), ws);

        // --- Combine: reverse route -------------------------------------------
        // Scale outputs by their combine weights, then split by provenance. The
        // buffers the rows arrived in carry them back: a source's pilot partials
        // accumulate in place in its inbound pilot buffer, and replica outputs
        // return to their node peer in its inbound replica buffers.
        rows_recv.iter_mut().for_each(|v| v.fill(0.0));
        rep_rows_recv.iter_mut().for_each(Vec::clear);
        rep_meta_recv.iter_mut().for_each(Vec::clear);
        for (pos, &ei) in order.iter().enumerate() {
            let e = &entries[ei];
            let out_row = mlp_out.row(pos);
            if e.peer == PILOT {
                let acc = &mut rows_recv[e.src][e.idx * hidden..(e.idx + 1) * hidden];
                axpy_slice(acc, e.weight, out_row);
            } else {
                scaled_extend(&mut rep_rows_recv[e.peer], e.weight, out_row);
                rep_meta_recv[e.peer].extend_from_slice(&[e.src as u64, e.idx as u64]);
            }
        }
        ws.recycle(mlp_out);
        node.all_to_all_v_into(rep_rows_recv, crep_rows_recv, clock)?;
        clock.commit("combine_a2a_intra");
        node.all_to_all_v_into(rep_meta_recv, crep_meta_recv, clock)?;
        clock.commit("combine_a2a_meta");
        for (peer, meta) in crep_meta_recv.iter().enumerate() {
            for (j, pair) in meta.chunks_exact(2).enumerate() {
                let (src, idx) = (pair[0] as usize, pair[1] as usize);
                let row = &crep_rows_recv[peer][j * hidden..(j + 1) * hidden];
                add_assign_slice(&mut rows_recv[src][idx * hidden..(idx + 1) * hidden], row);
            }
        }
        // Our replica buffers are back: the next forward's replica queues.
        std::mem::swap(rep_rows_send, crep_rows_recv);
        std::mem::swap(rep_meta_send, crep_meta_recv);

        // Inter-node return of per-(token, node) partial sums, each in the
        // buffer its pilots came in.
        ep.all_to_all_v_into(rows_recv, back_recv, clock)?;
        clock.commit("combine_a2a_inter");

        ws.recycle_idx(order);
        ws.recycle_idx(cursor);
        ws.recycle_idx(counts);
        Ok(())
    }

    /// The last stage: add the per-(token, node) partials that came back
    /// (weights already applied) into `out`, by the pilot order each
    /// destination was sent. The buffers they came in are the next forward's
    /// pilot rows.
    pub(crate) fn combine(&mut self, pft: &Pft, out: &mut Tensor) {
        let hidden = out.cols();
        for (dst, chunk) in self.back_recv.iter().enumerate() {
            let (p0, p1) = (self.dst_off[dst], self.dst_off[dst + 1]);
            debug_assert_eq!(chunk.len(), (p1 - p0) * hidden);
            for (j, p) in self.pilots[p0..p1].iter().enumerate() {
                let t = pft.token_ids[p.idx];
                add_assign_slice(out.row_mut(t), &chunk[j * hidden..(j + 1) * hidden]);
            }
        }
        std::mem::swap(&mut self.rows_send, &mut self.back_recv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::ExpertShard;
    use crate::gating::{DropPolicy, Router};
    use crate::pipeline::{
        ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline, PooledSingleState, RbdPipeline,
    };
    use xmoe_collectives::{RankCtx, SimCluster};

    /// One owned RBD forward on this rank, through the trait.
    #[allow(clippy::too_many_arguments)]
    fn rbd_forward(
        tokens: &Tensor,
        router: &Router,
        shard: &ExpertShard,
        spec: &MoeLayerSpec,
        policy: PilotPolicy,
        overlap: Option<usize>,
        rng_seed: u64,
        ctx: &mut RankCtx,
    ) -> Tensor {
        let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
        let mut rng = DetRng::new(rng_seed);
        let mut ex = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
        ex.overlap_chunks = overlap;
        RbdPipeline { policy }
            .forward(tokens, router, shard, spec, &mut ex)
            .unwrap()
    }

    fn plain_forward(
        tokens: &Tensor,
        router: &Router,
        shard: &ExpertShard,
        spec: &MoeLayerSpec,
        ctx: &mut RankCtx,
    ) -> Tensor {
        PaddingFreePipeline
            .forward(
                tokens,
                router,
                shard,
                spec,
                &mut ExecCtx::ep(&ctx.world, &mut ctx.clock),
            )
            .unwrap()
    }

    #[test]
    fn expected_redundancy_matches_paper_points() {
        // Paper §5.4.2: 32 GPUs (4 Frontier nodes), k=8 -> 54.8% measured.
        let r4 = expected_redundancy_uniform(8, 4);
        assert!((r4 - 0.548).abs() < 0.03, "4 nodes k=8: {r4}");
        // Fig 4's peak ~75.1% corresponds to 2 nodes, k=8.
        let r2 = expected_redundancy_uniform(8, 2);
        assert!((r2 - 0.751).abs() < 0.01, "2 nodes k=8: {r2}");
        // Single node: everything but one copy is redundant.
        assert!((expected_redundancy_uniform(8, 1) - 0.875).abs() < 1e-9);
        // As many nodes as k: low redundancy.
        assert!(expected_redundancy_uniform(8, 64) < 0.06);
    }

    #[test]
    fn measured_redundancy_tracks_uniform_expectation() {
        // Router with uniform-ish logits over many tokens.
        let (s, h, e, k) = (512, 16, 32, 8);
        let router = Router::new(h, e, k, 5);
        let tokens = Tensor::rand_uniform(s, h, 1.0, 6);
        let g = router.gate(&tokens);
        let pft = Pft::construct(&g, e, usize::MAX / 2, DropPolicy::CapacityOnly);
        // 32 experts over 4 nodes (8 experts per node).
        let rate = redundancy_rate(&pft, |ex| ex / 8);
        let expected = expected_redundancy_uniform(k, 4);
        assert!(
            (rate - expected).abs() < 0.12,
            "measured {rate} vs uniform expectation {expected}"
        );
    }

    #[test]
    fn redundancy_zero_when_k1() {
        let g = Router::new(8, 4, 1, 7).gate(&Tensor::rand_uniform(64, 8, 1.0, 8));
        let pft = Pft::construct(&g, 4, 1000, DropPolicy::CapacityOnly);
        assert_eq!(redundancy_rate(&pft, |e| e), 0.0);
    }

    #[test]
    fn empty_pilot_group_is_an_error_not_a_panic() {
        // Both policies used to panic on an empty group (`min().unwrap()` /
        // `next_below(0)`); now an empty group has no pilot.
        let mut rng = DetRng::new(7);
        assert_eq!(
            select_pilot(&[], PilotPolicy::SmallestExpertId, &mut rng),
            None
        );
        assert_eq!(select_pilot(&[], PilotPolicy::Random, &mut rng), None);
        // Non-empty groups still select normally.
        let group = [(0usize, 0usize, 5usize), (0, 0, 2)];
        assert_eq!(
            select_pilot(&group, PilotPolicy::SmallestExpertId, &mut rng),
            Some(2)
        );
    }

    #[test]
    fn zero_routed_tokens_forward_is_ok_under_both_policies() {
        // Capacity 0 drops every routed entry: no pilot groups exist at
        // all, and the forward must return zeros instead of panicking.
        let (world, s, e, k, h, f) = (4usize, 8usize, 8usize, 2usize, 12usize, 8usize);
        let router = Router::new(h, e, k, 99);
        let spec = MoeLayerSpec::new(e, 0);
        for policy in [PilotPolicy::Random, PilotPolicy::SmallestExpertId] {
            let outs = SimCluster::frontier(world).run(|ctx| {
                let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 98);
                let tokens = Tensor::rand_uniform(s, h, 1.0, 900 + ctx.rank as u64);
                let seed = 97 + ctx.rank as u64;
                rbd_forward(&tokens, &router, &shard, &spec, policy, None, seed, ctx)
            });
            for (r, o) in outs.iter().enumerate() {
                assert_eq!(o.shape(), (s, h), "rank {r}");
                assert!(
                    o.as_slice().iter().all(|&v| v == 0.0),
                    "rank {r}: dropped-everything forward must be zero"
                );
            }
        }
    }

    fn rbd_vs_plain(world: usize, s: usize, e: usize, k: usize, cap: usize, seed: u64) {
        let (h, f) = (12, 8);
        let router = Router::new(h, e, k, seed);
        let spec = MoeLayerSpec::new(e, cap);
        let plain = SimCluster::frontier(world).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, seed + 1);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 200 + ctx.rank as u64);
            plain_forward(&tokens, &router, &shard, &spec, ctx)
        });
        let rbd = SimCluster::frontier(world).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, seed + 1);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 200 + ctx.rank as u64);
            let rng_seed = seed + ctx.rank as u64;
            let policy = PilotPolicy::Random;
            rbd_forward(&tokens, &router, &shard, &spec, policy, None, rng_seed, ctx)
        });
        for (r, (a, b)) in plain.iter().zip(&rbd).enumerate() {
            assert!(
                a.allclose(b, 1e-4),
                "world {world} rank {r}: RBD diverges from plain dispatch, max diff {}",
                a.max_abs_diff(b)
            );
        }
    }

    #[test]
    fn rbd_matches_plain_dispatch_multi_node() {
        // 16 ranks = 2 Frontier nodes; high k -> heavy redundancy exercised.
        rbd_vs_plain(16, 12, 16, 6, 10_000, 41);
    }

    #[test]
    fn rbd_matches_plain_dispatch_single_node() {
        rbd_vs_plain(4, 16, 8, 3, 10_000, 43);
    }

    #[test]
    fn rbd_matches_plain_with_capacity_drops() {
        rbd_vs_plain(8, 24, 8, 4, 6, 47);
    }

    #[test]
    fn rbd_overlap_is_bitwise_identical_to_serial() {
        let (world, s, e, k, h, f) = (16usize, 12usize, 16usize, 6usize, 12usize, 8usize);
        let router = Router::new(h, e, k, 91);
        let spec = MoeLayerSpec::new(e, 10_000);
        let serial = SimCluster::frontier(world).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 92);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 400 + ctx.rank as u64);
            let seed = 93 + ctx.rank as u64;
            let policy = PilotPolicy::Random;
            rbd_forward(&tokens, &router, &shard, &spec, policy, None, seed, ctx)
        });
        for chunks in [1usize, 2, 4, 16] {
            let overlapped = SimCluster::frontier(world).run(|ctx| {
                let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 92);
                let tokens = Tensor::rand_uniform(s, h, 1.0, 400 + ctx.rank as u64);
                let seed = 93 + ctx.rank as u64;
                let policy = PilotPolicy::Random;
                rbd_forward(
                    &tokens,
                    &router,
                    &shard,
                    &spec,
                    policy,
                    Some(chunks),
                    seed,
                    ctx,
                )
            });
            for (r, (a, b)) in serial.iter().zip(&overlapped).enumerate() {
                assert!(
                    a.allclose(b, 0.0),
                    "chunks {chunks} rank {r}: RBD overlap not bitwise identical \
                     (max diff {})",
                    a.max_abs_diff(b)
                );
            }
        }
    }

    #[test]
    fn rbd_pooled_is_bitwise_identical_and_stops_missing() {
        let (world, s, e, k, h, f) = (8usize, 12usize, 16usize, 4usize, 12usize, 8usize);
        let router = Router::new(h, e, k, 71);
        let spec = MoeLayerSpec::new(e, 10_000);
        let baseline = SimCluster::frontier(world).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 72);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 500 + ctx.rank as u64);
            let seed = 73 + ctx.rank as u64;
            let policy = PilotPolicy::Random;
            rbd_forward(&tokens, &router, &shard, &spec, policy, None, seed, ctx)
        });
        let pooled = SimCluster::frontier(world).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 72);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 500 + ctx.rank as u64);
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
            let mut state = PooledSingleState::default();
            let mut last = Tensor::zeros(0, 0);
            let mut warm_misses = 0;
            for step in 0..6 {
                // Fresh rng per step: identical pilot draws, so every step
                // must reproduce the baseline bitwise.
                let mut rng = DetRng::new(73 + ctx.rank as u64);
                let out = RbdPipeline {
                    policy: PilotPolicy::Random,
                }
                .forward(
                    &tokens,
                    &router,
                    &shard,
                    &spec,
                    &mut ExecCtx::hier(&comms, &mut ctx.clock)
                        .with_rng(&mut rng)
                        .with_state(&mut state),
                )
                .unwrap();
                state.ws.recycle(std::mem::replace(&mut last, out));
                if step == 2 {
                    warm_misses = state.ws.stats().pool_misses;
                }
            }
            let misses = state.ws.stats().pool_misses;
            (last, warm_misses, misses)
        });
        for (r, (a, (b, warm, end))) in baseline.iter().zip(&pooled).enumerate() {
            assert!(
                a.allclose(b, 0.0),
                "rank {r}: pooled RBD not bitwise identical (max diff {})",
                a.max_abs_diff(b)
            );
            // The free lists reach their fixed point during warm-up; every
            // later step is served entirely from recycled buffers.
            assert_eq!(
                warm, end,
                "rank {r}: pool misses kept growing after warm-up"
            );
        }
    }

    #[test]
    fn rbd_charges_are_pinned_to_the_bit() {
        // RBD's twin of padding_free's `distributed_charges_all_pipeline_stages`:
        // a seeded 2-node forward, serial and overlapped, must charge every
        // RBD stage exactly what the standalone RBD forward this transport
        // replaced charged (pinned at that commit). Per label, every rank's
        // bucket bits are folded in rank order (FNV-1a over the u64s).
        let (world, s, h, f, e, k) = (16usize, 16usize, 8usize, 4usize, 16usize, 6usize);
        let router = Router::new(h, e, k, 21);
        let spec = MoeLayerSpec::new(e, 1000);
        let labels = [
            "rbd_plan",
            "dispatch_a2a_inter",
            "dispatch_a2a_intra",
            "combine_a2a_intra",
            "combine_a2a_inter",
            "rbd_replica_reconstruct",
            "expert",
            "buffer_combine",
        ];
        let serial: [u64; 8] = [
            0xa8190b1ad8fd7725,
            0xe3c9f9cbea5590a5,
            0xddafeb55d8920635,
            0xddafeb55d8920635,
            0xe3c9f9cbea5590a5,
            0xe7761cc4efeece98,
            0xdf9ab0ee7a8464f6,
            0x1c7d485596ed5355,
        ];
        let mut overlapped = serial;
        overlapped[1] = 0xe9ecf62654d8ecd5;
        overlapped[5] = 0x8f114a438f5208ff;
        for (overlap, pins) in [(None, serial), (Some(4), overlapped)] {
            let buckets = SimCluster::frontier(world).run(|ctx| {
                let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 22);
                let tokens = Tensor::rand_uniform(s, h, 1.0, 23 + ctx.rank as u64);
                let (policy, seed) = (PilotPolicy::Random, 24 + ctx.rank as u64);
                let _ = rbd_forward(&tokens, &router, &shard, &spec, policy, overlap, seed, ctx);
                ctx.clock.buckets().to_vec()
            });
            for (label, pin) in labels.into_iter().zip(pins) {
                let fold = buckets.iter().fold(0xcbf29ce484222325u64, |acc, b| {
                    let (_, t) = b.iter().find(|(l, _)| l == label).unwrap();
                    (acc ^ t.to_bits()).wrapping_mul(0x100000001b3)
                });
                assert_eq!(fold, pin, "{label} under overlap {overlap:?}: {fold:#018x}");
            }
        }
    }

    #[test]
    fn rbd_reduces_inter_node_dispatch_bytes() {
        // 2 nodes, k=6 over 16 experts: expected redundancy ~68%; RBD's
        // inter-node all-to-all must be much cheaper than the plain one.
        // Token buffers are sized so the all-to-alls are bandwidth-bound
        // (at tiny messages the startup latency hides the effect).
        let (world, s, e, k, h, f) = (16usize, 1024usize, 16usize, 6usize, 256usize, 8usize);
        let router = Router::new(h, e, k, 51);
        let spec = MoeLayerSpec::new(e, 10_000);
        let plain_t = SimCluster::frontier(world).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 52);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 300 + ctx.rank as u64);
            let _ = plain_forward(&tokens, &router, &shard, &spec, ctx);
            ctx.clock.bucket("dispatch_a2a") + ctx.clock.bucket("combine_a2a")
        });
        let rbd_t = SimCluster::frontier(world).run(|ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 52);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 300 + ctx.rank as u64);
            let seed = 53 + ctx.rank as u64;
            let policy = PilotPolicy::Random;
            let _ = rbd_forward(&tokens, &router, &shard, &spec, policy, None, seed, ctx);
            ctx.clock.bucket("dispatch_a2a_inter") + ctx.clock.bucket("combine_a2a_inter")
        });
        assert!(
            rbd_t[0] < 0.7 * plain_t[0],
            "RBD inter-node time {} should be well under plain {}",
            rbd_t[0],
            plain_t[0]
        );
    }
}
