//! Distributed expert-parallel training: the full forward **and backward**
//! of the padding-free MoE layer across an EP group, with exactly the
//! paper's communication pattern — two uneven all-to-alls forward and two
//! mirrored ones backward (4 per layer per step, §4.3).
//!
//! The layer runs the one MoE layer pass and the one backward
//! (`moe_math`) over [`Transport::Ep`]: activations and gradients both
//! travel the one expert route ([`xmoe_core::route::EpRoute`]), built per
//! forward from the layer's [`ExpertAssignment`] — contiguous, ragged,
//! migrated or replicated alike. Dispatch and combine are adjoint row
//! relocations, so the backward pushes its gradients through the route the
//! forward saved:
//!
//! ```text
//! forward:  dispatch_in --> expert_input => y       --> combine_in
//! backward: d_out[t], w --> d_out rows   => d_input --> d_dispatch, d_w
//! ```
//!
//! (`-->` is the route, `=>` a step computed in place: the expert outputs
//! overwrite their input rows, the expert backward writes `d_input` over the
//! `d_out` rows and each combine-weight gradient over its weight.) No layer
//! keeps `y`: the combine backward runs in the experts' `d_h` GEMM.
//!
//! Whether a step runs serially or chunk-pipelined is the route's business
//! ([`xmoe_core::route::EpRoute::exchange`]); this module remembers the
//! chunk count so the backward mirrors the forward.
//!
//! **Memory.** Every activation, saved tensor, temporary and wire buffer
//! of a step is a lease from one [`Workspace`] per rank (held by
//! [`DistMoeLm`]; a bare [`DistMoe`] takes the caller's), and each layer's
//! routing state is rebuilt in place in its [`DistMoeScratch`], so a step
//! hands the allocator nothing back but the buffers [`Workspace::trim`]
//! finds it no longer uses. The arena holds buffers, never values a later
//! step reads: every model constructor — checkpoint restore, join and
//! rebalance included — starts with an empty one.
//!
//! Dense/router/embedding parameters are replicated across ranks and
//! synchronized by averaging gradients (ZeRO-0-style DP); an expert's
//! weights live on its holders only (one rank unless replicated) and their
//! gradients are already global because every rank's tokens were
//! dispatched to them.

use xmoe_collectives::{CommError, Communicator, SimClock};
use xmoe_core::gating::{DropPolicy, RouterGuard};
use xmoe_core::pipeline::padding_free::Transport;
use xmoe_core::pipeline::MoeLayerSpec;
use xmoe_core::price;
use xmoe_core::Expert;
use xmoe_tensor::{scale_assign, Tensor, Workspace, WorkspaceStats};

use crate::adam::Adam;
use crate::attention::{Attention, AttentionCtx};
use crate::checkpoint::Checkpoint;
use crate::elastic::ExpertAssignment;
use crate::guard::sq_norm;
use crate::layers::{DenseMlp, DenseMlpCtx, Embedding, Head};
use crate::moe_layer::{MoeCtx, TrainableMoe};
use crate::moe_math::{self, zero_grad, RouterParams};

/// A trainable MoE layer whose experts are sharded across an EP group.
#[derive(Clone, Debug)]
pub struct DistMoe {
    /// Replicated router `[H, E]`.
    pub gate: Tensor,
    pub g_gate: Tensor,
    /// This rank's experts (`w1 [H,F]`, `w2 [F,H]`), one per entry of
    /// `local_experts`, and their gradients.
    pub shard: Vec<Expert>,
    pub g_shard: Vec<Expert>,
    /// Global ids of this rank's local experts, ascending — under the
    /// classic layout a contiguous range, under an elastic assignment any
    /// subset (including replicas of experts other ranks also hold).
    pub local_experts: Vec<usize>,
    /// The full expert→holders map this layer routes by.
    pub assignment: ExpertAssignment,
    /// This rank's dense index in the EP group.
    pub dense_rank: usize,
    /// Expert FFN dimensions, kept explicitly so empty shards (a rank
    /// holding no expert of this layer) stay well-formed.
    pub hidden: usize,
    pub ffn: usize,
    pub num_experts: usize,
    pub top_k: usize,
    pub capacity: usize,
    pub policy: DropPolicy,
}

/// Per-layer persistent state of a [`DistMoe`] step: the one training
/// layer state, whose expert saves are leases of the step's arena that the
/// backward recycles.
pub type DistMoeScratch = MoeCtx;

impl DistMoe {
    /// Shard a single-rank [`TrainableMoe`] across `world` ranks under the
    /// balanced contiguous assignment (rank `r` takes experts
    /// `[r·E/W, (r+1)·E/W)` — the classic layout when the shape divides,
    /// a ragged `{⌊E/W⌋, ⌈E/W⌉}`-per-rank split when it does not);
    /// everyone replicates the router. Used to check the distributed path
    /// against the single-rank one.
    pub fn from_trainable(full: &TrainableMoe, rank: usize, world: usize) -> Self {
        let assignment = ExpertAssignment::contiguous(full.num_experts(), world);
        Self::from_trainable_with_assignment(full, rank, assignment)
    }

    /// Shard a single-rank [`TrainableMoe`] under an arbitrary
    /// [`ExpertAssignment`]: this rank takes a full copy of every expert
    /// the assignment lists it as holding (replicas included).
    pub fn from_trainable_with_assignment(
        full: &TrainableMoe,
        rank: usize,
        assignment: ExpertAssignment,
    ) -> Self {
        let e = full.num_experts();
        assert_eq!(
            assignment.n_experts(),
            e,
            "assignment expert count mismatch"
        );
        assert!(rank < assignment.n_ranks(), "rank outside the assignment");
        // The distributed router runs with inert aux/guard values; sharding
        // a layer that has them on would silently train a different model.
        assert!(
            full.aux_alpha == 0.0,
            "DistMoe does not implement the auxiliary loss: aux_alpha must be 0"
        );
        assert!(
            full.router_guard.logit_clamp <= 0.0 && full.router_guard.z_loss_coef == 0.0,
            "DistMoe does not implement router guards: router_guard must be inert"
        );
        let local_experts = assignment.experts_on(rank).to_vec();
        let shard: Vec<Expert> = local_experts
            .iter()
            .map(|&g| full.experts[g].clone())
            .collect();
        let g_shard = shard.iter().map(zero_grad).collect();
        let (hidden, ffn) = full.experts[0].w1.shape();
        Self {
            gate: full.gate.clone(),
            g_gate: Tensor::zeros(full.gate.rows(), full.gate.cols()),
            shard,
            g_shard,
            local_experts,
            dense_rank: rank,
            assignment,
            hidden,
            ffn,
            num_experts: e,
            top_k: full.top_k,
            capacity: full.capacity,
            policy: full.policy,
        }
    }

    fn router_params(&self) -> RouterParams {
        RouterParams {
            spec: MoeLayerSpec::new(self.num_experts, self.capacity).with_policy(self.policy),
            top_k: self.top_k,
            aux_alpha: 0.0,
            guard: RouterGuard::default(),
        }
    }

    /// Distributed forward: `out = x + combine(experts(dispatch(x)))`. The
    /// forward state is saved in `st`; the output, like every buffer of the
    /// call, is a lease from `ws` (a caller without an arena passes a
    /// throwaway one).
    pub fn forward(
        &self,
        x: &Tensor,
        st: &mut DistMoeScratch,
        ws: &mut Workspace,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        self.forward_with(x, None, st, ws, ep, clock)
    }

    /// Chunked-overlap distributed forward: bitwise-identical numerics to
    /// [`forward`](Self::forward) on any assignment, with the dispatch and
    /// combine all-to-alls split into `chunks` expert-major chunks pipelined
    /// against the per-expert FFNs, whose priced GEMMs hide behind the
    /// chunks still in flight. [`backward`](Self::backward) mirrors the
    /// chunked schedule.
    pub fn forward_overlap(
        &self,
        x: &Tensor,
        chunks: usize,
        st: &mut DistMoeScratch,
        ws: &mut Workspace,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        self.forward_with(x, Some(chunks), st, ws, ep, clock)
    }

    /// Both forwards: the one layer pass over this layer's route, serial or
    /// in `chunks`, each stage charging its [`xmoe_core::price`] under its
    /// Fig-11 label as the pipelines do.
    fn forward_with(
        &self,
        x: &Tensor,
        chunks: Option<usize>,
        st: &mut DistMoeScratch,
        ws: &mut Workspace,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        let transport = Transport::Ep {
            comm: ep,
            clock,
            overlap_chunks: chunks,
            assignment: &self.assignment,
        };
        let p = self.router_params();
        let out = moe_math::forward(&p, &self.gate, &self.shard, x, transport, st, ws)?;
        st.chunks = chunks;
        Ok(out)
    }

    /// Distributed backward: the one layer backward over the route and
    /// schedule the forward ran; accumulates local grads, returns `d_x` (a
    /// lease from `ws`) and recycles the saves the forward left in `st`.
    /// The chain has the forward's shape — dispatch-direction all-to-all,
    /// expert GEMMs, combine-direction all-to-all.
    pub fn backward(
        &mut self,
        st: &mut DistMoeScratch,
        d_out: &Tensor,
        ws: &mut Workspace,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        let p = self.router_params();
        let transport = Transport::Ep {
            comm: ep,
            clock,
            overlap_chunks: st.chunks,
            assignment: &self.assignment,
        };
        moe_math::backward(
            &p,
            (&self.gate, &mut self.g_gate),
            (&self.shard, &mut self.g_shard),
            st,
            transport,
            1.0,
            ws,
            d_out,
        )
    }

    /// Checkpointed forward: compute the output and discard the activation
    /// saves; the layer input, which the caller keeps, is the checkpoint.
    /// The §4.3 trade-off made executable — the backward pass must
    /// recompute the forward, *including its two all-to-alls*, so a
    /// checkpointed MoE layer costs 6 all-to-alls per step instead of 4.
    pub fn forward_ckpt(
        &self,
        x: &Tensor,
        st: &mut DistMoeScratch,
        ws: &mut Workspace,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        let out = self.forward(x, st, ws, ep, clock)?;
        st.release_expert_saves(ws);
        Ok(out)
    }

    /// Backward for a checkpointed layer: recompute forward from the layer
    /// input `forward_ckpt` saw (2 extra all-to-alls, labelled
    /// `dispatch_a2a`/`combine_a2a` again), then run the normal backward
    /// (2 more).
    pub fn backward_ckpt(
        &mut self,
        saved_input: &Tensor,
        st: &mut DistMoeScratch,
        d_out: &Tensor,
        ws: &mut Workspace,
        ep: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Tensor, CommError> {
        let out = self.forward(saved_input, st, ws, ep, clock)?;
        ws.recycle(out);
        self.backward(st, d_out, ws, ep, clock)
    }
}

/// Mutable hook over an activation buffer — the chaos engine's `site=act`
/// injection point in [`DistMoeLm::forward_backward_hooked`].
pub type ActHook<'a> = &'a mut dyn FnMut(&mut [f32]);

/// One distributed transformer block.
pub struct DistBlock {
    pub attn: Option<Attention>,
    pub mlp: DenseMlp,
    pub moe: DistMoe,
}

/// The site of a block's router in [`ParamId::Dense`].
const GATE: &str = "moe.gate";

/// Which parameter of a [`DistMoeLm`] the walk is at: the one identity that
/// gradient sync, Adam's moment slots, the guard and the checkpoint share.
/// [`Display`](std::fmt::Display) is the parameter's checkpoint name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamId {
    /// `embed.weight`.
    Embed,
    /// A replicated tensor of block `block`; `site` names it within the
    /// block (`attn.wq`, `mlp.gamma`, `moe.gate`, ...).
    Dense { block: usize, site: &'static str },
    /// Matrix `w1` (`w == 1`) or `w2` of global expert `expert` in block
    /// `block`, held by this rank.
    Expert { block: usize, expert: usize, w: u8 },
    /// `head.weight`.
    Head,
}

impl ParamId {
    /// Replicated on every rank and all-reduced by
    /// [`DistMoeLm::sync_grads`], rather than an expert held by a few.
    pub fn is_replicated(self) -> bool {
        !matches!(self, ParamId::Expert { .. })
    }
}

impl std::fmt::Display for ParamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ParamId::Embed => f.write_str("embed.weight"),
            ParamId::Dense { block, site } => write!(f, "block{block}.{site}"),
            ParamId::Expert { block, expert, w } => {
                write!(f, "block{block}.moe.expert{expert}.w{w}")
            }
            ParamId::Head => f.write_str("head.weight"),
        }
    }
}

/// The parameter walk: every `(id, weight, grad)` of one rank's replica, in
/// the one order — `embed`, then per block attention, MLP, router and the
/// rank's experts ascending (`w1`, `w2` each), then `head`.
fn walk(
    embed: &mut Embedding,
    blocks: &mut [DistBlock],
    head: &mut Head,
    f: &mut dyn FnMut(ParamId, &mut Tensor, &mut Tensor),
) {
    f(ParamId::Embed, &mut embed.weight, &mut embed.grad);
    for (block, b) in blocks.iter_mut().enumerate() {
        let mut dense =
            |site, w: &mut Tensor, g: &mut Tensor| f(ParamId::Dense { block, site }, w, g);
        if let Some(a) = b.attn.as_mut() {
            a.visit_params(&mut dense);
        }
        b.mlp.visit_params(&mut dense);
        let moe = &mut b.moe;
        dense(GATE, &mut moe.gate, &mut moe.g_gate);
        let shard = moe.shard.iter_mut().zip(&mut moe.g_shard);
        for (&expert, (w, g)) in moe.local_experts.iter().zip(shard) {
            let id = |w| ParamId::Expert { block, expert, w };
            f(id(1), &mut w.w1, &mut g.w1);
            f(id(2), &mut w.w2, &mut g.w2);
        }
    }
    f(ParamId::Head, &mut head.weight, &mut head.grad);
}

/// A data+expert-parallel MoE language model: one rank's replica of the
/// dense stack plus its expert shards, with gradient synchronization over
/// the world communicator. On a one-rank world it is the single-process
/// model.
pub struct DistMoeLm {
    pub embed: Embedding,
    pub blocks: Vec<DistBlock>,
    pub head: Head,
    opt: Adam,
    /// The expert assignment every block routes by.
    assignment: ExpertAssignment,
    world_size: usize,
    seq_len: usize,
    /// When set, every step appends each token's route (this rank's dense
    /// index + the chosen global experts) — the rebalance histogram feed.
    track_routes: bool,
    route_samples: Vec<(u32, Vec<u16>)>,
    /// The step arena: every buffer of a step is leased from it and recycled
    /// into it (see the module docs).
    ws: Workspace,
    /// Forward + backward passes completed: the steps the arena served.
    steps: u64,
    /// One per block.
    moe_st: Vec<DistMoeScratch>,
    /// The dense blocks' saves of the step in flight: pushed by the forward,
    /// popped by the backward.
    ctxs: Vec<(Option<AttentionCtx>, DenseMlpCtx)>,
    inputs: Vec<usize>,
    targets: Vec<usize>,
    /// Squared global norm of the synced gradients, the same on every rank:
    /// the clip norm of the next [`Self::apply_update`].
    grad_sq: f64,
    /// Send and receive shells of the norm exchange, kept so that it
    /// allocates nothing at steady state.
    norm_wire: [Vec<Vec<f64>>; 2],
}

impl DistMoeLm {
    /// Shard a single-rank reference model (the [`TrainableMoe`] stacks of
    /// [`crate::model::build_moe_layers`]) across `world` ranks under the
    /// balanced contiguous expert assignment. All replicated parameters
    /// start identical; `world == 1` is the single-process model.
    pub fn new(
        cfg: &crate::model::TrainConfig,
        full_layers: &[TrainableMoe],
        rank: usize,
        world: usize,
    ) -> Self {
        let assignment = ExpertAssignment::contiguous(cfg.num_experts, world);
        Self::new_with_assignment(cfg, full_layers, rank, assignment)
    }

    /// [`Self::new`] under an arbitrary [`ExpertAssignment`] (the layout a
    /// rebalance decision produced, or a solved placement).
    pub fn new_with_assignment(
        cfg: &crate::model::TrainConfig,
        full_layers: &[TrainableMoe],
        rank: usize,
        assignment: ExpertAssignment,
    ) -> Self {
        let blocks: Vec<DistBlock> = full_layers
            .iter()
            .enumerate()
            .map(|(l, full)| {
                let s = cfg.seed.wrapping_add(l as u64 * 7001);
                DistBlock {
                    attn: cfg
                        .use_attention
                        .then(|| Attention::new(cfg.hidden, cfg.n_heads, s ^ 0xA77)),
                    mlp: DenseMlp::new(cfg.hidden, cfg.hidden * 2, s),
                    moe: DistMoe::from_trainable_with_assignment(full, rank, assignment.clone()),
                }
            })
            .collect();
        Self {
            embed: Embedding::new(cfg.vocab, cfg.hidden, cfg.seed),
            head: Head::new(cfg.hidden, cfg.vocab, cfg.seed ^ 0x4EAD),
            moe_st: blocks.iter().map(|_| DistMoeScratch::default()).collect(),
            blocks,
            opt: Adam::new(cfg.lr),
            world_size: assignment.n_ranks(),
            assignment,
            seq_len: cfg.seq_len,
            track_routes: false,
            route_samples: Vec::new(),
            ws: Workspace::new(),
            steps: 0,
            ctxs: Vec::new(),
            inputs: Vec::new(),
            targets: Vec::new(),
            grad_sq: 0.0,
            norm_wire: Default::default(),
        }
    }

    /// Test support: [`Workspace::poison`] on the step arena.
    #[doc(hidden)]
    pub fn poison_arena(&mut self) {
        self.ws.poison();
    }

    /// Counters of the step arena: leases served, leases that had to
    /// allocate, and the capacity it retains between steps, with the wire
    /// buffers each MoE layer's route keeps outside it counted as retained.
    pub fn arena_stats(&self) -> WorkspaceStats {
        let mut s = self.ws.stats();
        for st in &self.moe_st {
            let (f32s, u64s) = st.layer.route.wire_capacity();
            s.retained_f32 += f32s;
            s.retained_u64 += u64s;
        }
        s
    }

    /// Forward + backward passes this model has completed: the steps its
    /// arena's counters cover.
    pub fn steps_run(&self) -> u64 {
        self.steps
    }

    /// The expert assignment every block routes by.
    pub fn assignment(&self) -> &ExpertAssignment {
        &self.assignment
    }

    /// Enable/disable per-step route collection for the rebalance
    /// histogram (off by default; costs one pass over each block's PFT).
    pub fn set_route_tracking(&mut self, on: bool) {
        self.track_routes = on;
        if !on {
            self.route_samples.clear();
        }
    }

    /// Drain the routes collected since the last call: `(src dense rank,
    /// global experts chosen)` per routed token, in step order.
    pub fn take_route_samples(&mut self) -> Vec<(u32, Vec<u16>)> {
        std::mem::take(&mut self.route_samples)
    }

    /// Add `delta` to the router logit column of `expert` in every block —
    /// the deterministic skew injector benches and tests drive hot-expert
    /// scenarios with. The bias lives in the (replicated, checkpointed)
    /// gate weights, so trajectories stay comparable across restores.
    pub fn bias_router(&mut self, expert: usize, delta: f32) {
        for block in &mut self.blocks {
            let gate = &mut block.moe.gate;
            for r in 0..gate.rows() {
                let v = gate.get(r, expert);
                gate.set(r, expert, v + delta);
            }
        }
    }

    /// Fraction of this rank's routed (token, expert) assignments the last
    /// forward dropped, over every block — the quantity §5.6 attributes the
    /// Fig 15 loss gap to.
    pub fn drop_fraction(&self) -> f64 {
        let (mut dropped, mut routed) = (0, 0);
        for (block, st) in self.blocks.iter().zip(&self.moe_st) {
            dropped += st.pft().dropped;
            routed += st.tokens() * block.moe.top_k;
        }
        if routed == 0 {
            0.0
        } else {
            dropped as f64 / routed as f64
        }
    }

    /// The parameter walk: `f` is called with every `(id, weight, grad)` of
    /// this rank's replica, in the one order Adam's moment slots and the
    /// checkpoint layout are indexed by — `embed`, the blocks, `head`.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(ParamId, &mut Tensor, &mut Tensor)) {
        walk(&mut self.embed, &mut self.blocks, &mut self.head, f);
    }

    /// One training step over this rank's local batch, with gradient
    /// averaging across the world and a local Adam update (replicated
    /// parameters stay bitwise-identical across ranks because they see
    /// identical averaged gradients and one global clip norm).
    ///
    /// Composed from the phase methods below in the canonical order; the
    /// guarded chaos step composes the same phases with detection and
    /// injection hooks in between, so both paths share one set of float
    /// operations and the unguarded trajectory is bitwise-unchanged. A
    /// one-rank caller that wants the loss unrounded runs the first three
    /// phases and keeps [`Self::forward_backward`]'s.
    pub fn train_step(
        &mut self,
        batch: &[Vec<usize>],
        world: &Communicator,
        clock: &mut SimClock,
    ) -> Result<f64, CommError> {
        let local_loss = self.forward_backward(batch, world, clock)?;
        self.sync_grads(world, clock)?;
        self.apply_update();
        self.reduce_loss(local_loss, world, clock)
    }

    /// Phase 1: forward + backward over the local batch, accumulating
    /// gradients. Returns the local mean loss.
    pub fn forward_backward(
        &mut self,
        batch: &[Vec<usize>],
        world: &Communicator,
        clock: &mut SimClock,
    ) -> Result<f64, CommError> {
        self.forward_backward_hooked(batch, 1.0, None, world, clock)
    }

    /// Phase 1 with guard hooks: `loss_scale` multiplies the head gradient
    /// (a power of two keeps scaling bitwise-invertible), and `act_hook`
    /// — when present — runs over the pre-head activation buffer, which is
    /// where the chaos engine injects `site=act` corruption.
    pub fn forward_backward_hooked(
        &mut self,
        batch: &[Vec<usize>],
        loss_scale: f32,
        act_hook: Option<ActHook<'_>>,
        world: &Communicator,
        clock: &mut SimClock,
    ) -> Result<f64, CommError> {
        let Self {
            embed,
            blocks,
            head,
            ws,
            steps,
            moe_st,
            ctxs,
            inputs,
            targets,
            ..
        } = self;
        inputs.clear();
        targets.clear();
        for seq in batch {
            assert!(seq.len() >= 2, "sequences need at least two tokens");
            for w in seq.windows(2) {
                inputs.push(w[0]);
                targets.push(w[1]);
            }
        }
        // Each layer's input goes back to the arena as soon as its output
        // exists; what the backward needs is in the contexts.
        let mut x = embed.forward(inputs, ws);
        ctxs.clear();
        for (block, st) in blocks.iter().zip(moe_st.iter_mut()) {
            let attn_ctx = block.attn.as_ref().map(|a| {
                let (x1, c) = a.forward(&x, self.seq_len, ws);
                ws.recycle(std::mem::replace(&mut x, x1));
                c
            });
            let (x1, c1) = block.mlp.forward(&x, ws);
            ws.recycle(x);
            x = block.moe.forward(&x1, st, ws, world, clock)?;
            ws.recycle(x1);
            ctxs.push((attn_ctx, c1));
        }
        if self.track_routes {
            // Regroup each block's expert-major PFT back into per-token
            // routes (expert ids come out ascending per token —
            // deterministic), tagged with this rank's dense index.
            let me = world.rank() as u32;
            for st in moe_st.iter() {
                let pft = st.pft();
                let mut per_tok: Vec<Vec<u16>> = vec![Vec::new(); inputs.len()];
                for (i, &t) in pft.token_ids.iter().enumerate() {
                    per_tok[t].push(pft.expert_ids[i] as u16);
                }
                for experts in per_tok {
                    if !experts.is_empty() {
                        self.route_samples.push((me, experts));
                    }
                }
            }
        }
        if let Some(hook) = act_hook {
            hook(x.as_mut_slice());
        }
        // The scale enters inside the head backward, at `d_logits`, so the
        // head's own weight gradient carries it like every other gradient
        // (scaling the returned `d_x` here would leave `head.grad`
        // unscaled and the later exact unscale would shrink it).
        let (local_loss, mut d_x) = head.loss_and_backward_scaled(&x, targets, loss_scale, ws);
        ws.recycle(x);
        // The forward pushed one saved context per block.
        let saved = ctxs.drain(..).rev();
        for ((block, st), (ca, c1)) in blocks.iter_mut().zip(moe_st.iter_mut()).rev().zip(saved) {
            let d = block.moe.backward(st, &d_x, ws, world, clock)?;
            ws.recycle(std::mem::replace(&mut d_x, d));
            let d = block.mlp.backward(c1, &d_x, ws);
            ws.recycle(std::mem::replace(&mut d_x, d));
            if let (Some(a), Some(c)) = (block.attn.as_mut(), ca) {
                let d = a.backward(c, &d_x, ws);
                ws.recycle(std::mem::replace(&mut d_x, d));
            }
        }
        embed.backward(inputs, &d_x);
        ws.recycle(d_x);
        *steps += 1;
        Ok(local_loss)
    }

    /// Phase 2: gradient synchronization, then the global gradient norm.
    ///
    /// Global loss is the average of per-rank means (equal token counts),
    /// so every gradient carries a 1/W factor; replicated parameters
    /// additionally all-reduce. Expert grads are already global (every
    /// rank's tokens were dispatched there); they only need the scaling.
    ///
    /// The clip norm is the *whole model's*: each rank sums, over the walk
    /// and in `f64`, the squares of the tensors it is canonical for — the
    /// replicated ones on dense rank 0, each expert on its primary holder —
    /// and one bit-exact exchange of those partials, summed in rank order,
    /// gives every rank the same norm and hence the same clip scale for
    /// the same replicated tensor. On one rank it is exactly the sum over
    /// the whole walk.
    pub fn sync_grads(
        &mut self,
        world: &Communicator,
        clock: &mut SimClock,
    ) -> Result<(), CommError> {
        let inv = 1.0 / self.world_size as f32;
        let Self {
            embed,
            blocks,
            head,
            assignment,
            ws,
            grad_sq,
            norm_wire: [send, recv],
            ..
        } = self;
        // Replicated experts: each holder accumulated only its stripe of
        // the expert's tokens, so the partials must merge. Every rank joins
        // the reduce for every replicated expert (w1 then w2, experts
        // ascending — canonical group-index order; non-holders contribute
        // zeros), so all holders end with the bitwise-identical merged
        // gradient, identical Adam updates, and replicas that never drift
        // apart.
        for moe in blocks.iter_mut().map(|b| &mut b.moe) {
            for g in moe.assignment.replicated_experts() {
                match moe.local_experts.iter().position(|&x| x == g) {
                    Some(i) => {
                        let g = &mut moe.g_shard[i];
                        for t in [&mut g.w1, &mut g.w2] {
                            world.all_reduce_sum_f32(t.as_mut_slice(), clock)?;
                        }
                    }
                    None => {
                        for _ in 0..2 {
                            let mut zeros = ws.take(moe.hidden, moe.ffn);
                            world.all_reduce_sum_f32(zeros.as_mut_slice(), clock)?;
                            ws.recycle(zeros);
                        }
                    }
                }
            }
        }
        let me = world.rank();
        let (mut sq, mut res) = (0.0f64, Ok(()));
        walk(embed, blocks, head, &mut |id, _, g| {
            if res.is_err() {
                return;
            }
            scale_assign(g, inv);
            if id.is_replicated() {
                res = world.all_reduce_sum_f32(g.as_mut_slice(), clock);
            }
            let canonical = match id {
                ParamId::Expert { expert, .. } => assignment.primary(expert) == me,
                _ => me == 0,
            };
            if canonical {
                sq += sq_norm(g.as_slice());
            }
        });
        res?;
        // The partials travel as `f64` (an `f32` all-reduce would round
        // them); last exchange's receives are this one's send buffers.
        std::mem::swap(send, recv);
        for wire in [&mut *send, &mut *recv] {
            wire.resize_with(world.size(), Vec::new);
        }
        for v in send.iter_mut() {
            v.clear();
            v.push(sq);
        }
        world.all_to_all_v_into(send, recv, clock)?;
        *grad_sq = recv.iter().fold(0.0, |acc, v| acc + v[0]);
        clock.commit("grad_allreduce");
        Ok(())
    }

    /// Multiply every gradient by `k` — the guard's unscale and clip —
    /// rescaling the global norm [`Self::sync_grads`] derived to match.
    pub fn scale_grads(&mut self, k: f32) {
        self.visit_params(&mut |_, _, g| scale_assign(g, k));
        self.grad_sq *= f64::from(k) * f64::from(k);
    }

    /// Phase 3: local Adam update over the walk, clipped by the global norm
    /// of the last [`Self::sync_grads`], zeroing each gradient as Adam
    /// consumes it.
    pub fn apply_update(&mut self) {
        let Self {
            embed,
            blocks,
            head,
            opt,
            grad_sq,
            ..
        } = self;
        opt.step(*grad_sq, |f| {
            walk(embed, blocks, head, &mut |_, w, g| {
                f(w, g);
                g.as_mut_slice().fill(0.0);
            })
        });
    }

    /// Zero every gradient buffer — also the whole of a skipped step's
    /// cleanup (discarding a poisoned gradient without touching params).
    pub fn zero_all_grads(&mut self) {
        self.visit_params(&mut |_, _, g| g.as_mut_slice().fill(0.0));
    }

    /// Average the local loss across ranks for the global curve.
    pub fn reduce_loss(
        &self,
        local_loss: f64,
        world: &Communicator,
        clock: &mut SimClock,
    ) -> Result<f64, CommError> {
        let mut l = [local_loss as f32];
        world.all_reduce_sum_f32(&mut l, clock)?;
        clock.commit("loss_allreduce");
        Ok((l[0] / self.world_size as f32) as f64)
    }

    /// Snapshot the *canonical full model* into a [`Checkpoint`]: replicated
    /// parameters are taken locally (they are bitwise-identical on every
    /// rank), expert shards and their Adam moments are all-gathered so every
    /// rank ends up holding the complete expert set under global names.
    /// Because the result is rank-agnostic, a checkpoint captured at world
    /// size W restores onto any world size up to the expert count (ragged
    /// splits included) and onto any [`ExpertAssignment`] — the substrate
    /// of elastic recovery, rank join and live migration.
    ///
    /// `step` is the number of *completed* training steps; `rng_state` is
    /// the data-stream RNG state at that point (see
    /// [`crate::chaos`]). Collective time is charged under `checkpoint`.
    pub fn capture_checkpoint(
        &mut self,
        step: u64,
        rng_state: u64,
        world: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Checkpoint, CommError> {
        let Self {
            embed,
            blocks,
            head,
            opt,
            assignment,
            ..
        } = self;
        let (mm, vv) = opt.moments();
        let moment = |idx: usize, t: &Tensor, bufs: &[Vec<f32>]| -> Tensor {
            match bufs.get(idx) {
                Some(b) => Tensor::from_vec(t.rows(), t.cols(), b.clone()),
                // Adam initializes moment slots lazily; before the first
                // step they are implicitly zero.
                None => Tensor::zeros(t.rows(), t.cols()),
            }
        };
        // The walk is Adam's slot order: each replicated tensor becomes its
        // `[m, v, weight]` entries, each block's experts one flat blob of
        // `w1 | m | v | w2 | m | v` per local expert for the all-gather.
        let mut replicated: Vec<(ParamId, [Tensor; 3])> = Vec::new();
        let mut blobs = vec![Vec::new(); blocks.len()];
        let mut idx = 0usize;
        walk(embed, blocks, head, &mut |id, w, _| {
            let (m, v) = (moment(idx, w, mm), moment(idx, w, vv));
            idx += 1;
            match id {
                ParamId::Expert { block, .. } => {
                    for t in [&*w, &m, &v] {
                        blobs[block].extend_from_slice(t.as_slice());
                    }
                }
                _ => replicated.push((id, [m, v, w.clone()])),
            }
        });
        let mut ckpt = Checkpoint::new(step, rng_state, opt.step_count());
        let push = |ckpt: &mut Checkpoint, id: ParamId, [m, v, w]: [Tensor; 3]| {
            ckpt.push(format!("adam.m.{id}"), m);
            ckpt.push(format!("adam.v.{id}"), v);
            ckpt.push(id.to_string(), w);
        };
        for (id, entry) in replicated {
            push(&mut ckpt, id, entry);
            let ParamId::Dense { block, site: GATE } = id else {
                continue;
            };
            // Every global expert of the block follows its router, read
            // from its *primary* holder's blob (replicas are bitwise-
            // identical, so the primary copy is canonical) at its position
            // in that holder's ascending local order.
            let (h, f) = (blocks[block].moe.hidden, blocks[block].moe.ffn);
            let gathered = world.all_gather(std::mem::take(&mut blobs[block]), clock)?;
            for expert in 0..assignment.n_experts() {
                let owner = assignment.primary(expert);
                let s = assignment
                    .experts_on(owner)
                    .iter()
                    .position(|&x| x == expert)
                    .expect("primary holder does not list its own expert");
                let part = |k: usize, rows: usize, cols: usize| {
                    let start = (6 * s + k) * h * f;
                    Tensor::from_vec(rows, cols, gathered[owner][start..start + h * f].to_vec())
                };
                let id = |w| ParamId::Expert { block, expert, w };
                // Each triple is `[m, v, weight]`, the replicated order.
                push(&mut ckpt, id(1), [1, 2, 0].map(|k| part(k, h, f)));
                push(&mut ckpt, id(2), [4, 5, 3].map(|k| part(k, f, h)));
            }
        }

        // Charge the serialization as a bandwidth-bound write and claim the
        // gathers under one stage label.
        let bytes: usize = ckpt
            .entries()
            .iter()
            .map(|(n, t)| n.len() + 20 + t.len() * 4)
            .sum();
        let t_io = price::membound(world.cost(), bytes as f64, 1.0);
        clock.charge("checkpoint", t_io);
        clock.commit("checkpoint");
        Ok(ckpt)
    }

    /// Rebuild a model at `(rank, world)` from a canonical [`Checkpoint`]:
    /// construct the skeleton, overwrite every parameter by name, slice
    /// this rank's contiguous expert share (balanced even when the world
    /// does not divide the expert count) out of the global expert set,
    /// and restore the Adam moments in this rank's visitation order.
    ///
    /// Restoring a 16-rank checkpoint at world size 8 is exactly the elastic
    /// recovery path: survivors each adopt twice the experts, with optimizer
    /// state intact, and the subsequent loss trajectory is bitwise identical
    /// to a fresh 8-rank run resumed from the same bytes.
    pub fn from_checkpoint(
        cfg: &crate::model::TrainConfig,
        ckpt: &Checkpoint,
        rank: usize,
        world: usize,
    ) -> Self {
        let assignment = ExpertAssignment::contiguous(cfg.num_experts, world);
        Self::from_checkpoint_with_assignment(cfg, ckpt, rank, assignment)
    }

    /// [`Self::from_checkpoint`] restoring into an arbitrary
    /// [`ExpertAssignment`] — the migration commit path: the canonical
    /// global-expert-id keying means any layout (ragged, migrated,
    /// replicated) loads from the same bytes.
    pub fn from_checkpoint_with_assignment(
        cfg: &crate::model::TrainConfig,
        ckpt: &Checkpoint,
        rank: usize,
        assignment: ExpertAssignment,
    ) -> Self {
        let full_layers = crate::model::build_moe_layers(cfg);
        let mut model = Self::new_with_assignment(cfg, &full_layers, rank, assignment);
        let (mut m, mut v) = (Vec::new(), Vec::new());
        model.visit_params(&mut |id, w, _| {
            let name = id.to_string();
            let src = ckpt
                .tensor(&name)
                .unwrap_or_else(|| panic!("checkpoint missing entry {name}"));
            assert_eq!(
                src.shape(),
                w.shape(),
                "checkpoint entry {name} has the wrong shape"
            );
            w.as_mut_slice().copy_from_slice(src.as_slice());
            let grab = |prefix: &str| -> Vec<f32> {
                ckpt.tensor(&format!("{prefix}.{name}"))
                    .map(|t| t.as_slice().to_vec())
                    .unwrap_or_else(|| vec![0.0; src.len()])
            };
            m.push(grab("adam.m"));
            v.push(grab("adam.v"));
        });
        model.opt.restore(ckpt.adam_step, m, v);
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmoe_collectives::{RankCtx, SimCluster};
    use xmoe_core::gating::Router;
    use xmoe_core::pft::Pft;
    use xmoe_core::pipeline::{BlockSparsePipeline, ExecCtx, PaddingFreePipeline, Pipeline};
    use xmoe_core::ExpertShard;
    use xmoe_tensor::add_assign;

    fn tiny_full(seed: u64) -> TrainableMoe {
        // 8 experts over H=8, F=6, top-2, ample capacity.
        TrainableMoe::new(8, 6, 8, 2, 100_000, DropPolicy::CapacityOnly, seed)
    }

    /// Forward+backward of one rank's layer on that rank's seeded batch of
    /// `tokens` rows, serial (`chunks == None`) or chunked; both go through
    /// the one `backward`, which mirrors whichever schedule the forward ran.
    fn fwd_bwd_at(
        layer: &mut DistMoe,
        tokens: usize,
        chunks: Option<usize>,
        ctx: &mut RankCtx,
    ) -> (Tensor, Tensor) {
        let h = layer.hidden;
        let x = Tensor::rand_uniform(tokens, h, 1.0, 810 + ctx.rank as u64);
        let d_out = Tensor::rand_uniform(tokens, h, 1.0, 910 + ctx.rank as u64);
        let (st, ws) = (&mut DistMoeScratch::default(), &mut Workspace::new());
        let out = match chunks {
            None => layer.forward(&x, st, ws, &ctx.world, &mut ctx.clock),
            Some(n) => layer.forward_overlap(&x, n, st, ws, &ctx.world, &mut ctx.clock),
        }
        .unwrap();
        let d_x = layer
            .backward(st, &d_out, ws, &ctx.world, &mut ctx.clock)
            .unwrap();
        (out, d_x)
    }

    /// [`fwd_bwd_at`] on the 12-token batches most tests use.
    fn fwd_bwd(layer: &mut DistMoe, chunks: Option<usize>, ctx: &mut RankCtx) -> (Tensor, Tensor) {
        fwd_bwd_at(layer, 12, chunks, ctx)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn shard_bits(g: &[Expert]) -> Vec<(Vec<u32>, Vec<u32>)> {
        g.iter().map(|e| (bits(&e.w1), bits(&e.w2))).collect()
    }

    /// Serial ≡ chunked on one layout over `tokens`-row batches: outputs,
    /// `d_x`, `g_gate`, `g_shard` bitwise, and the same bytes on the wire
    /// per rank. Returns each rank's simulated `(serial, chunked)` time of
    /// the forward + backward at 2 chunks.
    fn assert_overlap_matches_serial(
        name: &str,
        full: &TrainableMoe,
        asg: &ExpertAssignment,
        tokens: usize,
    ) -> Vec<(f64, f64)> {
        let mut clocks = Vec::new();
        for chunks in [1usize, 2, 3] {
            let per_rank = SimCluster::frontier(asg.n_ranks()).run(|ctx| {
                let mut run = |chunks: Option<usize>| {
                    let mut layer =
                        DistMoe::from_trainable_with_assignment(full, ctx.rank, asg.clone());
                    ctx.world.reset_traffic();
                    ctx.clock = SimClock::new();
                    let (out, d_x) = fwd_bwd_at(&mut layer, tokens, chunks, ctx);
                    let grads = (bits(&layer.g_gate), shard_bits(&layer.g_shard));
                    let sent = ctx.world.traffic().total();
                    (bits(&out), bits(&d_x), grads, sent, ctx.clock.now())
                };
                let (serial, over) = (run(None), run(Some(chunks)));
                let at = format!("{name} chunks {chunks} rank {}", ctx.rank);
                assert!(serial.0 == over.0, "{at}: forward outputs differ");
                assert!(serial.1 == over.1, "{at}: input grads differ");
                assert!(serial.2 == over.2, "{at}: weight grads differ");
                assert_eq!(serial.3, over.3, "{at}: bytes sent differ");
                (serial.4, over.4)
            });
            if chunks == 2 {
                clocks = per_rank;
            }
        }
        clocks
    }

    #[test]
    fn overlapped_forward_backward_is_bitwise_identical_to_serial() {
        let world = 4;
        let full = tiny_full(77);
        let uniform = ExpertAssignment::contiguous(8, world);
        assert_overlap_matches_serial("uniform", &full, &uniform, 12);
        // The overlap is priced: where the all-to-alls carry enough bytes to
        // hide, two chunks finish the forward + backward strictly earlier on
        // the simulated clock (at 12 tokens a second chunk's startup latency
        // outweighs all it hides).
        let wide = TrainableMoe::new(128, 64, 8, 2, 100_000, DropPolicy::CapacityOnly, 77);
        let clocks = assert_overlap_matches_serial("uniform wide", &wide, &uniform, 4096);
        for (rank, (serial, chunked)) in clocks.into_iter().enumerate() {
            assert!(
                chunked < serial,
                "rank {rank}: 2 chunks {chunked} s, serial {serial} s"
            );
        }

        let mut migrated = uniform.clone();
        migrated.migrate(1, 2);
        assert_overlap_matches_serial("migrated", &full, &migrated, 12);

        // The expert the four seeded batches route the most tokens to.
        let mut load = [0usize; 8];
        for rank in 0..world {
            let x = Tensor::rand_uniform(12, 8, 1.0, 810 + rank as u64);
            let (_, c) = full.forward(&x);
            for (l, n) in load.iter_mut().zip(c.tokens_per_expert()) {
                *l += n;
            }
        }
        let hot = (0..8).max_by_key(|&e| load[e]).unwrap();
        let mut replicated = uniform.clone();
        replicated.replicate(hot, (uniform.primary(hot) + 1) % world);
        assert_overlap_matches_serial("replicated", &full, &replicated, 12);

        let ragged_full = TrainableMoe::new(8, 6, 10, 2, 100_000, DropPolicy::CapacityOnly, 77);
        let ragged = ExpertAssignment::contiguous(10, world);
        assert_overlap_matches_serial("ragged", &ragged_full, &ragged, 12);
    }

    #[test]
    fn world_one_is_bitwise_identical_to_trainable_moe() {
        // One rank holds every expert, so the exchanges are identities and
        // the layer must reproduce `TrainableMoe` bit for bit on every
        // schedule: serial, and chunked at 1, 2 and 3 chunks.
        let full = tiny_full(55);
        let x = Tensor::rand_uniform(12, 8, 1.0, 810);
        let d_out = Tensor::rand_uniform(12, 8, 1.0, 910);
        let mut want = full.clone();
        let (out_w, c) = want.forward(&x);
        let dx_w = want.backward(&c, &d_out);
        for chunks in [None, Some(1usize), Some(2), Some(3)] {
            let got = SimCluster::frontier(1).run(|ctx| {
                let mut layer = DistMoe::from_trainable(&full, 0, 1);
                let (out, d_x) = fwd_bwd(&mut layer, chunks, ctx);
                (out, d_x, layer.g_gate, layer.g_shard)
            });
            let (out, d_x, g_gate, g_shard) = &got[0];
            assert_eq!(bits(out), bits(&out_w), "{chunks:?}: forward differs");
            assert_eq!(bits(d_x), bits(&dx_w), "{chunks:?}: d_x differs");
            assert_eq!(bits(g_gate), bits(&want.g_gate), "{chunks:?}: g_gate");
            assert_eq!(
                shard_bits(g_shard),
                shard_bits(&want.g_experts),
                "{chunks:?}: g_shard differs"
            );
        }
    }

    #[test]
    fn local_transport_is_a_one_rank_route_bitwise() {
        // `Transport::Local`'s arm of the one exchange is the identity route:
        // the single-rank pipelines must equal the same pipelines over a
        // one-rank EP group bit for bit, serial and at 1, 2 and 3 chunks,
        // with capacity drops.
        let (s, h, f, e, k, cap) = (24, 8, 6, 8, 3, 6);
        let pipelines: [&(dyn Pipeline + Sync); 2] =
            [&PaddingFreePipeline, &BlockSparsePipeline { block: 4 }];
        for seed in [5u64, 6] {
            let router = Router::new(h, e, k, seed);
            let experts = ExpertShard::full(e, h, f, seed + 1);
            let spec = MoeLayerSpec::new(e, cap);
            let tokens = Tensor::rand_uniform(s, h, 1.0, seed + 2);
            let pft = Pft::construct(&router.gate(&tokens), e, cap, spec.policy);
            assert!(pft.dropped > 0, "seed {seed}: no capacity drops");
            for pipeline in pipelines {
                let local = pipeline
                    .forward(&tokens, &router, &experts, &spec, &mut ExecCtx::single())
                    .unwrap();
                for chunks in [None, Some(1usize), Some(2), Some(3)] {
                    let routed = SimCluster::frontier(1).run(|ctx| {
                        let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
                        ex.overlap_chunks = chunks;
                        pipeline
                            .forward(&tokens, &router, &experts, &spec, &mut ex)
                            .unwrap()
                    });
                    let at = format!("seed {seed} {} {chunks:?}", pipeline.name());
                    assert_eq!(bits(&routed[0]), bits(&local), "{at}: outputs differ");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "aux_alpha must be 0")]
    fn sharding_a_layer_with_aux_loss_is_rejected() {
        let _ = DistMoe::from_trainable(&tiny_full(3).with_aux(0.5), 0, 1);
    }

    #[test]
    #[should_panic(expected = "router_guard must be inert")]
    fn sharding_a_layer_with_router_guards_is_rejected() {
        let guard = RouterGuard {
            logit_clamp: 1.0,
            z_loss_coef: 0.0,
        };
        let _ = DistMoe::from_trainable(&tiny_full(3).with_router_guard(guard), 0, 1);
    }

    #[test]
    fn distributed_forward_matches_single_rank() {
        let full = tiny_full(61);
        let world = 4;
        let outs = SimCluster::frontier(world).run(|ctx| {
            let layer = DistMoe::from_trainable(&full, ctx.rank, world);
            let x = Tensor::rand_uniform(10, 8, 1.0, 700 + ctx.rank as u64);
            let (st, ws) = (&mut DistMoeScratch::default(), &mut Workspace::new());
            layer
                .forward(&x, st, ws, &ctx.world, &mut ctx.clock)
                .unwrap()
        });
        for rank in 0..world {
            let x = Tensor::rand_uniform(10, 8, 1.0, 700 + rank as u64);
            let (want, _) = full.forward(&x);
            assert!(
                outs[rank].allclose(&want, 1e-4),
                "rank {rank} fwd diff {}",
                outs[rank].max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn distributed_backward_matches_single_rank_gradients() {
        let full = tiny_full(71);
        let world = 4;
        // Each rank runs fwd+bwd on its own batch with its own upstream
        // gradient; the distributed per-expert grads must equal the sum of
        // single-rank per-batch grads (experts see every rank's tokens).
        let dist = SimCluster::frontier(world).run(|ctx| {
            let mut layer = DistMoe::from_trainable(&full, ctx.rank, world);
            let x = Tensor::rand_uniform(12, 8, 1.0, 800 + ctx.rank as u64);
            let d_out = Tensor::rand_uniform(12, 8, 1.0, 900 + ctx.rank as u64);
            let (st, ws) = (&mut DistMoeScratch::default(), &mut Workspace::new());
            let _ = layer
                .forward(&x, st, ws, &ctx.world, &mut ctx.clock)
                .unwrap();
            let d_x = layer
                .backward(st, &d_out, ws, &ctx.world, &mut ctx.clock)
                .unwrap();
            (layer.g_shard.clone(), layer.g_gate.clone(), d_x)
        });

        // Single-rank reference: accumulate over the same four batches.
        let mut reference = full.clone();
        let mut ref_dx = Vec::new();
        for rank in 0..world {
            let x = Tensor::rand_uniform(12, 8, 1.0, 800 + rank as u64);
            let d_out = Tensor::rand_uniform(12, 8, 1.0, 900 + rank as u64);
            let (_, c) = reference.forward(&x);
            ref_dx.push(reference.backward(&c, &d_out));
        }

        // Expert grads: distributed rank r's shard e_local corresponds to
        // global expert r*2 + e_local.
        for rank in 0..world {
            let (g_shard, _, _) = &dist[rank];
            for (e_local, g) in g_shard.iter().enumerate() {
                let global = rank * 2 + e_local;
                let want = &reference.g_experts[global];
                assert!(
                    g.w1.allclose(&want.w1, 1e-3),
                    "dW1 expert {global}: diff {}",
                    g.w1.max_abs_diff(&want.w1)
                );
                assert!(
                    g.w2.allclose(&want.w2, 1e-3),
                    "dW2 expert {global}: diff {}",
                    g.w2.max_abs_diff(&want.w2)
                );
            }
        }
        // Router grads: distributed per-rank g_gate covers only the local
        // batch; the sum over ranks must equal the reference accumulation.
        let mut summed = Tensor::zeros(8, 8);
        for (_, g_gate, _) in &dist {
            add_assign(&mut summed, g_gate);
        }
        assert!(
            summed.allclose(&reference.g_gate, 1e-3),
            "router grad diff {}",
            summed.max_abs_diff(&reference.g_gate)
        );
        // Input gradients per rank match the per-batch reference.
        for rank in 0..world {
            assert!(
                dist[rank].2.allclose(&ref_dx[rank], 1e-3),
                "d_x rank {rank} diff {}",
                dist[rank].2.max_abs_diff(&ref_dx[rank])
            );
        }
    }

    #[test]
    fn checkpointed_layer_matches_and_costs_six_alltoalls() {
        // §4.3 executable: checkpointing reproduces identical gradients but
        // pays 6 all-to-alls per layer per step (2 fwd + 2 recompute +
        // 2 bwd) versus 4 without.
        let full = tiny_full(97);
        let world = 2;
        let results = SimCluster::frontier(world).run(|ctx| {
            let x = Tensor::rand_uniform(6, 8, 1.0, 970 + ctx.rank as u64);
            let d_out = Tensor::rand_uniform(6, 8, 1.0, 980 + ctx.rank as u64);
            // Plain path.
            let mut plain = DistMoe::from_trainable(&full, ctx.rank, world);
            let (st, ws) = (&mut DistMoeScratch::default(), &mut Workspace::new());
            let out_a = plain
                .forward(&x, st, ws, &ctx.world, &mut ctx.clock)
                .unwrap();
            let dx_a = plain
                .backward(st, &d_out, ws, &ctx.world, &mut ctx.clock)
                .unwrap();
            let plain_a2a = ctx.clock.bucket("dispatch_a2a")
                + ctx.clock.bucket("combine_a2a")
                + ctx.clock.bucket("bwd_dispatch_a2a")
                + ctx.clock.bucket("bwd_combine_a2a");
            ctx.clock.reset_buckets();
            // Checkpointed path.
            let mut ckpt = DistMoe::from_trainable(&full, ctx.rank, world);
            let out_b = ckpt
                .forward_ckpt(&x, st, ws, &ctx.world, &mut ctx.clock)
                .unwrap();
            let dx_b = ckpt
                .backward_ckpt(&x, st, &d_out, ws, &ctx.world, &mut ctx.clock)
                .unwrap();
            let ckpt_a2a = ctx.clock.bucket("dispatch_a2a")
                + ctx.clock.bucket("combine_a2a")
                + ctx.clock.bucket("bwd_dispatch_a2a")
                + ctx.clock.bucket("bwd_combine_a2a");
            let grads_equal = plain
                .g_shard
                .iter()
                .zip(&ckpt.g_shard)
                .all(|(a, b)| a.w1.allclose(&b.w1, 1e-5) && a.w2.allclose(&b.w2, 1e-5));
            (
                out_a.allclose(&out_b, 1e-6),
                dx_a.allclose(&dx_b, 1e-5),
                grads_equal,
                ckpt_a2a / plain_a2a,
            )
        });
        for (rank, (out_eq, dx_eq, g_eq, a2a_ratio)) in results.iter().enumerate() {
            assert!(out_eq, "rank {rank}: outputs differ");
            assert!(dx_eq, "rank {rank}: input grads differ");
            assert!(g_eq, "rank {rank}: expert grads differ");
            // 6 a2as vs 4: ratio ~1.5 in simulated time.
            assert!(
                (1.3..1.7).contains(a2a_ratio),
                "rank {rank}: a2a time ratio {a2a_ratio} (expected ~1.5)"
            );
        }
    }

    #[test]
    fn backward_charges_two_more_alltoalls() {
        let full = tiny_full(81);
        let world = 2;
        let buckets = SimCluster::frontier(world).run(|ctx| {
            let mut layer = DistMoe::from_trainable(&full, ctx.rank, world);
            let x = Tensor::rand_uniform(6, 8, 1.0, 810 + ctx.rank as u64);
            let (st, ws) = (&mut DistMoeScratch::default(), &mut Workspace::new());
            let out = layer
                .forward(&x, st, ws, &ctx.world, &mut ctx.clock)
                .unwrap();
            let _ = layer
                .backward(st, &out, ws, &ctx.world, &mut ctx.clock)
                .unwrap();
            ctx.clock.buckets().to_vec()
        });
        for b in &buckets {
            let names: Vec<&str> = b.iter().map(|(l, _)| l.as_str()).collect();
            for want in [
                "dispatch_a2a",
                "combine_a2a",
                "bwd_combine_a2a",
                "bwd_dispatch_a2a",
            ] {
                assert!(names.contains(&want), "missing {want} in {names:?}");
            }
        }
    }
}
