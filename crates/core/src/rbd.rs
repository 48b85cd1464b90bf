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
//! # Allocation discipline
//!
//! There is exactly **one** forward implementation, and it always runs
//! against a [`PooledSingleState`]: the plan arrays live in a grow-once
//! [`RbdScratch`], every staging row buffer and metadata stream is leased
//! from the state's [`Workspace`](xmoe_tensor::Workspace) flat-buffer API,
//! and the collectives reuse persistent send/recv shells via the `*_into`
//! variants. At steady state (recurring batch shapes) a pooled step
//! performs zero transient heap allocations; an owned run (`ctx.state = None`)
//! is the same code against a throwaway state, so it is bitwise identical by
//! construction. The overlap schedule keeps per-chunk owned wire buffers
//! (issuing a chunk moves its payload) and is exempt from the zero-alloc
//! gate. The replica-merge and combine accumulations use the 8-lane
//! elementwise kernels ([`xmoe_tensor::axpy_slice`] and friends), which are
//! bitwise identical to the scalar loops they replace.

use xmoe_collectives::{CommError, Communicator, SimClock};
use xmoe_tensor::{add_assign_slice, axpy_slice, gather_rows_into, scaled_extend, DetRng, Tensor};

use crate::expert::ExpertShard;
use crate::gating::Router;
use crate::pft::Pft;
use crate::pipeline::padding_free::gate_and_gather;
use crate::pipeline::{MoeLayerSpec, PipelineError, PooledSingleState};
use crate::price::{self, Meter, F32};

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
}

/// Grow-once plan and shell scratch for the RBD forward. Lives inside
/// [`PooledSingleState`]; every `Vec` here keeps its capacity across steps,
/// so after warm-up the planning phase is allocation-free. The inner
/// buffers of the send/recv shells are leased from (and recycled back to)
/// the state's workspace each step — the shells only hold the outer
/// `Vec<Vec<_>>` spines.
#[derive(Default)]
pub(crate) struct RbdScratch {
    /// `(token, dst_node, pft_idx)` sort keys for pilot grouping.
    keyed: Vec<(usize, usize, usize)>,
    pilots: Vec<PilotEntry>,
    /// Flat `(expert, weight_bits)` replica pairs referenced by range.
    replicas: Vec<(usize, u32)>,
    /// Pilot ranges per destination: dst `d` owns `pilots[dst_off[d]..dst_off[d+1]]`.
    dst_off: Vec<usize>,
    entries: Vec<EntryRec>,
    pilots_from_src: Vec<usize>,
    /// Flat-accumulator row offset per source rank (prefix of `pilots_from_src`).
    acc_off: Vec<usize>,
    // Persistent wire shells (outer spines only).
    rows_send: Vec<Vec<f32>>,
    meta_send: Vec<Vec<u64>>,
    rows_recv: Vec<Vec<f32>>,
    meta_recv: Vec<Vec<u64>>,
    rep_rows_send: Vec<Vec<f32>>,
    rep_meta_send: Vec<Vec<u64>>,
    rep_rows_recv: Vec<Vec<f32>>,
    rep_meta_recv: Vec<Vec<u64>>,
    crep_rows_send: Vec<Vec<f32>>,
    crep_meta_send: Vec<Vec<u64>>,
    crep_rows_recv: Vec<Vec<f32>>,
    crep_meta_recv: Vec<Vec<u64>>,
    back_send: Vec<Vec<f32>>,
    back_recv: Vec<Vec<f32>>,
}

/// Size a wire shell's outer spine (inner buffers untouched elsewhere).
fn ensure_shell<T>(shell: &mut Vec<Vec<T>>, n: usize) {
    if shell.len() != n {
        shell.clear();
        shell.resize_with(n, Vec::new);
    }
}

// ---------------------------------------------------------------------
// The RBD forward pass
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
/// triples. An empty group is a routing-plan contract violation — reported
/// as [`PipelineError::EmptyPilotGroup`] instead of the panic the
/// `min().unwrap()` / `next_below(0)` paths used to hit.
fn select_pilot(
    group: &[(usize, usize, usize)],
    policy: PilotPolicy,
    rng: &mut DetRng,
) -> Result<usize, PipelineError> {
    if group.is_empty() {
        return Err(PipelineError::EmptyPilotGroup);
    }
    Ok(match policy {
        PilotPolicy::Random => group[rng.next_below(group.len())].2,
        // Entries are expert-sorted within the PFT, so the smallest
        // pft index in the group has the smallest expert id.
        PilotPolicy::SmallestExpertId => group.iter().map(|&(_, _, i)| i).min().unwrap_or_default(),
    })
}

/// Distributed padding-free MoE layer with RBD dispatch and combine: the
/// forward [`crate::pipeline::RbdPipeline`] runs.
///
/// Functionally identical to the flat-EP padding-free forward (same
/// [`gate_and_gather`] prefix, same experts); only the transport differs.
/// `rng` drives pilot selection under [`PilotPolicy::Random`]. With
/// `overlap_chunks` the S1 inter-node pilot exchange is split into that many
/// contiguous source-rank groups and pipelined against replica
/// reconstruction: while group `c+1`'s pilot rows are in flight on the
/// `comm` track, group `c`'s replicas are reconstructed on the `compute`
/// track. Source groups are processed in ascending rank order, so the
/// staging buffer and entry list are built in exactly the serial order and
/// the output stays bitwise identical to the serial schedule.
///
/// Every staging buffer — dispatch rows, pilot and replica wire payloads,
/// metadata streams, merged expert input, MLP scratch, combine accumulator
/// and the output — is leased from `state`; the returned output tensor is
/// itself leased: recycle it back into `state.ws` once consumed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_ep_rbd_impl(
    tokens: &Tensor,
    router: &Router,
    shard: &ExpertShard,
    spec: &MoeLayerSpec,
    comms: &RbdComms,
    rng: &mut DetRng,
    clock: &mut SimClock,
    policy: PilotPolicy,
    overlap_chunks: Option<usize>,
    state: &mut PooledSingleState,
) -> Result<Tensor, PipelineError> {
    let ep = &comms.ep;
    let node = &comms.node;
    let w = ep.size();
    assert_eq!(spec.num_experts % w, 0, "experts must divide EP size");
    let e_local = spec.num_experts / w;
    let hidden = tokens.cols();
    let owner_of = |e: usize| e / e_local;
    let first_expert = shard.first_expert;

    // --- Gating + PFT + dispatch gather (shared with flat EP) --------------
    gate_and_gather(tokens, router, spec, state, Meter::new(ep, clock));

    let PooledSingleState {
        ws,
        pft,
        dispatch_in,
        rbd: sc,
        ..
    } = state;
    let RbdScratch {
        keyed,
        pilots,
        replicas,
        dst_off,
        entries,
        pilots_from_src,
        acc_off,
        rows_send,
        meta_send,
        rows_recv,
        meta_recv,
        rep_rows_send,
        rep_meta_send,
        rep_rows_recv,
        rep_meta_recv,
        crep_rows_send,
        crep_meta_send,
        crep_rows_recv,
        crep_meta_recv,
        back_send,
        back_recv,
    } = sc;

    // --- S0: pilot selection --------------------------------------------
    // Group this rank's routed entries by (token, destination node); pick a
    // random pilot per group, attach the rest as replicas (a flat range in
    // `replicas` instead of a per-pilot Vec).
    keyed.clear();
    keyed.extend((0..pft.len()).map(|i| {
        (
            pft.token_ids[i],
            comms.node_of_ep_pos[owner_of(pft.expert_ids[i])],
            i,
        )
    }));
    keyed.sort_unstable();
    pilots.clear();
    replicas.clear();
    let mut g = 0;
    while g < keyed.len() {
        let (t, n, _) = keyed[g];
        let mut end = g + 1;
        while end < keyed.len() && keyed[end].0 == t && keyed[end].1 == n {
            end += 1;
        }
        let pilot = select_pilot(&keyed[g..end], policy, rng)?;
        let dst = owner_of(pft.expert_ids[pilot]);
        let rep0 = replicas.len();
        for &(_, _, i) in &keyed[g..end] {
            if i != pilot {
                replicas.push((pft.expert_ids[i], pft.combine_weights[i].to_bits()));
            }
        }
        pilots.push(PilotEntry {
            dst,
            idx: pilot,
            rep0,
            rep1: replicas.len(),
        });
        g = end;
    }
    // Deterministic per-destination order (by expert, then token): one
    // global in-place sort — the (dst, expert, token) keys are unique, so
    // every destination's slice comes out exactly as the old per-dst
    // stable sorts produced it, without per-dst index/reorder scratch.
    pilots.sort_unstable_by_key(|p| (p.dst, pft.expert_ids[p.idx], pft.token_ids[p.idx]));
    dst_off.clear();
    dst_off.resize(w + 1, 0);
    for p in pilots.iter() {
        dst_off[p.dst + 1] += 1;
    }
    let mut run = 0usize;
    for off in dst_off.iter_mut() {
        run += *off;
        *off = run;
    }
    let routed = pft.len() as f64;
    Meter::new(ep, clock).charge("rbd_plan", |c| price::rbd_plan(c, routed));

    // --- S1: inter-node exchange of pilots + metadata -------------------
    // Wire format per pilot: expert, weight bits, n_rep, then (expert,
    // weight bits) per replica — all inline in one u64 stream per dst.
    ensure_shell(rows_send, w);
    ensure_shell(meta_send, w);
    ensure_shell(rows_recv, w);
    ensure_shell(meta_recv, w);
    for d in 0..w {
        let (p0, p1) = (dst_off[d], dst_off[d + 1]);
        let mut rows = ws.take_f32((p1 - p0) * hidden);
        let mut meta = ws.take_u64((p1 - p0) * 4);
        for p in &pilots[p0..p1] {
            rows.extend_from_slice(dispatch_in.row(p.idx));
            meta.push(pft.expert_ids[p.idx] as u64);
            meta.push(pft.combine_weights[p.idx].to_bits() as u64);
            meta.push((p.rep1 - p.rep0) as u64);
            for &(e, wbits) in &replicas[p.rep0..p.rep1] {
                meta.push(e as u64);
                meta.push(wbits as u64);
            }
        }
        rows_send[d] = rows;
        meta_send[d] = meta;
    }

    // --- S1.5 state: staging buffer + replica queues ---------------------
    let node_n = node.size();
    ensure_shell(rep_rows_send, node_n);
    ensure_shell(rep_meta_send, node_n);
    ensure_shell(rep_rows_recv, node_n);
    ensure_shell(rep_meta_recv, node_n);
    for peer in 0..node_n {
        rep_rows_send[peer] = ws.take_f32(0);
        rep_meta_send[peer] = ws.take_u64(0);
    }
    entries.clear();
    pilots_from_src.clear();
    pilots_from_src.resize(w, 0);
    let mut staging = ws.take_f32(0);
    let npos = &comms.node_pos_of_ep_pos;
    // Parse one source's pilots: append to the staging buffer, queue replica
    // copies for node peers, return the replica rows copied. Sources must be
    // processed in ascending rank order — the staging/entry order (and hence
    // the bitwise result) depends on it.
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
            assert!(
                expert >= first_expert && expert < first_expert + e_local,
                "pilot arrived at the wrong rank"
            );
            staging.extend_from_slice(row_data);
            entries.push(EntryRec {
                local_expert: expert - first_expert,
                weight,
                peer: PILOT,
                src,
                idx,
            });
            for _ in 0..n_rep {
                let rep_expert = meta[i] as usize;
                let rep_weight_bits = meta[i + 1];
                i += 2;
                let peer =
                    npos[owner_of(rep_expert)].expect("replica target must be on the pilot's node");
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
        pilots_from_src[src] = idx;
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
            for v in rows_recv.iter_mut() {
                ws.recycle_f32(std::mem::take(v));
            }
            for v in meta_recv.iter_mut() {
                ws.recycle_u64(std::mem::take(v));
            }
        }
        Some(chunks) => {
            // Chunk the S1 exchange by contiguous source-rank groups: chunk
            // `c` carries only group `c`'s payload (other ranks send empty
            // buffers), so group `c`'s replica reconstruction overlaps with
            // group `c+1`'s transfer. All chunks are issued before any wait
            // (a NIC send queue), which also rules out deadlock. The owned
            // per-chunk wire buffers keep this arm outside the zero-alloc
            // steady state.
            let k = chunks.clamp(1, w);
            let me = ep.rank();
            clock.begin_overlap("rbd_dispatch_compute");
            clock.set_track("comm");
            let mut pend = Vec::with_capacity(k);
            for c in 0..k {
                let (s0, s1) = (c * w / k, (c + 1) * w / k);
                let (r, m) = if (s0..s1).contains(&me) {
                    (
                        rows_send.iter_mut().map(std::mem::take).collect(),
                        meta_send.iter_mut().map(std::mem::take).collect(),
                    )
                } else {
                    (vec![Vec::new(); w], vec![Vec::new(); w])
                };
                let rows_p = ep.issue_all_to_all_v(r, clock)?;
                let meta_p = ep.issue_all_to_all_v(m, clock)?;
                pend.push(((s0, s1), rows_p, meta_p));
            }
            for ((s0, s1), rows_p, meta_p) in pend {
                clock.set_track("comm");
                let chunk_rows = rows_p.wait(clock)?;
                clock.commit("dispatch_a2a_inter");
                let chunk_meta = meta_p.wait(clock)?;
                clock.commit("dispatch_a2a_meta");
                let arrived = clock.track_time("comm").expect("comm track exists");
                clock.set_track("compute");
                clock.advance_to_op("rbd_replica_reconstruct", arrived);
                let mut replica_rows = 0;
                for src in s0..s1 {
                    replica_rows += process_src(src, &chunk_rows[src], &chunk_meta[src]);
                }
                Meter::new(ep, clock).charge("rbd_replica_reconstruct", |c| {
                    price::gather(c, replica_rows, hidden)
                });
                for v in chunk_rows {
                    if v.capacity() > 0 {
                        ws.recycle_f32(v);
                    }
                }
                for v in chunk_meta {
                    if v.capacity() > 0 {
                        ws.recycle_u64(v);
                    }
                }
            }
            clock.end_overlap();
        }
    }

    // --- S2: intra-node exchange of replicas ------------------------------
    node.all_to_all_v_into(rep_rows_send, rep_rows_recv, clock)?;
    clock.commit("dispatch_a2a_intra");
    node.all_to_all_v_into(rep_meta_send, rep_meta_recv, clock)?;
    clock.commit("dispatch_a2a_meta_intra");
    for (peer, meta) in rep_meta_recv.iter().enumerate() {
        for (j, quad) in meta.chunks_exact(4).enumerate() {
            let rep_expert = quad[0] as usize;
            let weight = f32::from_bits(quad[1] as u32);
            let src = quad[2] as usize;
            let idx = quad[3] as usize;
            staging.extend_from_slice(&rep_rows_recv[peer][j * hidden..(j + 1) * hidden]);
            entries.push(EntryRec {
                local_expert: rep_expert - first_expert,
                weight,
                peer,
                src,
                idx,
            });
        }
    }
    for v in rep_rows_recv.iter_mut() {
        ws.recycle_f32(std::mem::take(v));
    }
    for v in rep_meta_recv.iter_mut() {
        ws.recycle_u64(std::mem::take(v));
    }
    let n_rows = entries.len();
    let staging = Tensor::from_vec(n_rows, hidden, staging);

    // --- Merge ordered by local expert; run experts padding-free ---------
    // Counting sort: stable by construction (equal experts keep arrival
    // order), identical to the old stable sort_by_key without its
    // temporary allocation. Entry row i is staging row i, so the sorted
    // entry order doubles as the gather permutation.
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
    let mut expert_input = ws.take(0, 0);
    gather_rows_into(&staging, &order, &mut expert_input);
    ws.recycle(staging);
    let mlp_out = shard.forward_segments_pooled(&expert_input, &counts, ws);
    let (rows, f) = (expert_input.rows() as f64, shard.ffn());
    Meter::new(ep, clock).charge("expert", |c| price::expert_seq(c, rows, hidden, f, F32));
    ws.recycle(expert_input);

    // --- Combine: reverse route -------------------------------------------
    // Scale outputs by their combine weights, then split by provenance.
    // One flat accumulator holds every source's pilot rows contiguously at
    // `acc_off[src]` (the old code allocated one tensor per source).
    acc_off.clear();
    acc_off.resize(w + 1, 0);
    let mut total_pilots = 0usize;
    for src in 0..w {
        acc_off[src] = total_pilots;
        total_pilots += pilots_from_src[src];
    }
    acc_off[w] = total_pilots;
    let mut acc = ws.take(total_pilots, hidden);
    ensure_shell(crep_rows_send, node_n);
    ensure_shell(crep_meta_send, node_n);
    ensure_shell(crep_rows_recv, node_n);
    ensure_shell(crep_meta_recv, node_n);
    for peer in 0..node_n {
        crep_rows_send[peer] = ws.take_f32(0);
        crep_meta_send[peer] = ws.take_u64(0);
    }
    for (pos, &ei) in order.iter().enumerate() {
        let e = &entries[ei];
        let out_row = mlp_out.row(pos);
        if e.peer == PILOT {
            axpy_slice(acc.row_mut(acc_off[e.src] + e.idx), e.weight, out_row);
        } else {
            scaled_extend(&mut crep_rows_send[e.peer], e.weight, out_row);
            crep_meta_send[e.peer].extend_from_slice(&[e.src as u64, e.idx as u64]);
        }
    }
    ws.recycle(mlp_out);
    node.all_to_all_v_into(crep_rows_send, crep_rows_recv, clock)?;
    clock.commit("combine_a2a_intra");
    node.all_to_all_v_into(crep_meta_send, crep_meta_recv, clock)?;
    clock.commit("combine_a2a_meta");
    for (peer, meta) in crep_meta_recv.iter().enumerate() {
        for (j, pair) in meta.chunks_exact(2).enumerate() {
            let (src, idx) = (pair[0] as usize, pair[1] as usize);
            let row = &crep_rows_recv[peer][j * hidden..(j + 1) * hidden];
            add_assign_slice(acc.row_mut(acc_off[src] + idx), row);
        }
    }
    for v in crep_rows_recv.iter_mut() {
        ws.recycle_f32(std::mem::take(v));
    }
    for v in crep_meta_recv.iter_mut() {
        ws.recycle_u64(std::mem::take(v));
    }

    // Inter-node return of per-(token, node) partial sums: each source's
    // accumulator block is contiguous, so staging is one slice copy.
    ensure_shell(back_send, w);
    ensure_shell(back_recv, w);
    for src in 0..w {
        let cnt = pilots_from_src[src];
        let mut v = ws.take_f32(cnt * hidden);
        v.extend_from_slice(&acc.as_slice()[acc_off[src] * hidden..(acc_off[src] + cnt) * hidden]);
        back_send[src] = v;
    }
    ws.recycle(acc);
    ep.all_to_all_v_into(back_send, back_recv, clock)?;
    clock.commit("combine_a2a_inter");

    // Scatter the partials (weights already applied) by the pilot order we
    // originally sent to each destination.
    // The output is leased: the caller recycles it once consumed.
    let mut out = ws.take(tokens.rows(), hidden);
    for dst in 0..w {
        let chunk = &back_recv[dst];
        let (p0, p1) = (dst_off[dst], dst_off[dst + 1]);
        debug_assert_eq!(chunk.len(), (p1 - p0) * hidden);
        for (j, p) in pilots[p0..p1].iter().enumerate() {
            let t = pft.token_ids[p.idx];
            add_assign_slice(out.row_mut(t), &chunk[j * hidden..(j + 1) * hidden]);
        }
    }
    for v in back_recv.iter_mut() {
        ws.recycle_f32(std::mem::take(v));
    }
    let rows = pft.len();
    Meter::new(ep, clock).charge("buffer_combine", |c| price::gather(c, rows, hidden));
    ws.recycle_idx(order);
    ws.recycle_idx(cursor);
    ws.recycle_idx(counts);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gating::DropPolicy;
    use crate::pipeline::{ExecCtx, PaddingFreePipeline, Pipeline, RbdPipeline};
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
        // `next_below(0)`); now it is a typed PipelineError.
        let mut rng = DetRng::new(7);
        assert_eq!(
            select_pilot(&[], PilotPolicy::SmallestExpertId, &mut rng),
            Err(PipelineError::EmptyPilotGroup)
        );
        assert_eq!(
            select_pilot(&[], PilotPolicy::Random, &mut rng),
            Err(PipelineError::EmptyPilotGroup)
        );
        // Non-empty groups still select normally.
        let group = [(0usize, 0usize, 5usize), (0, 0, 2)];
        assert_eq!(
            select_pilot(&group, PilotPolicy::SmallestExpertId, &mut rng),
            Ok(2)
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
