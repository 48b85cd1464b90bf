//! One execution engine for every MoE pipeline.
//!
//! *Which algorithm* runs is the [`Pipeline`] impl; *how* it runs — pooled or
//! owned, single-rank or distributed, serial or dispatch–compute overlapped
//! — is a property of the execution context ([`ExecCtx`]) it runs under.
//! There are no per-variant entry points: this trait method is the one door.
//!
//! * `ctx.state = Some(..)` leases every staging buffer the forward controls
//!   from the shared [`PooledSingleState`] arena, on every transport;
//!   `None` runs the owned baseline — the same code against a throwaway
//!   state, so the two are bitwise identical by construction. On the serial
//!   schedule every transport is allocation-free at steady state.
//! * `ctx.comm` selects single-rank (`None`), expert-parallel
//!   ([`CommCtx::Ep`]) or the hierarchical comms RBD needs
//!   ([`CommCtx::Hier`]).
//! * `ctx.overlap_chunks = Some(k)` pipelines dispatch against compute on
//!   every distributed transport of the PFT family (padding-free,
//!   block-sparse, RBD); the dense baseline and the single-rank reference
//!   report [`PipelineError::Unsupported`] instead of silently ignoring it.
//!
//! The padding-free, block-sparse and RBD pipelines are three argument
//! mappings onto the one layer pass, `padding_free::forward` (transport ×
//! expert kernel): RBD is its third transport. Every transport first checks
//! its shard against the contiguous layout (`check_shard`).

use std::fmt;

use xmoe_collectives::{CommError, Communicator, SimClock};
use xmoe_tensor::{DetRng, Tensor};
use xmoe_topology::ExpertAssignment;

use crate::expert::ExpertShard;
use crate::gating::Router;
use crate::pipeline::dense::DenseDropOrder;
use crate::pipeline::padding_free::{ExpertKernel, Transport};
use crate::pipeline::{dense, padding_free, MoeLayerSpec, PooledSingleState};
use crate::rbd::{PilotPolicy, RbdComms};

/// Everything that can go wrong inside a pipeline forward.
///
/// Communication faults are wrapped (`?` on any collective converts via
/// `From`); the remaining variants are pipeline-level contract violations
/// that used to be panics or silent misconfigurations.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// A collective failed (dead rank, fault injection, ...).
    Comm(CommError),
    /// The execution context is missing a capability the pipeline needs
    /// (e.g. RBD without hierarchical comms or a pilot rng).
    MissingCtx(&'static str),
    /// The context requested a mode this pipeline does not implement
    /// (e.g. dispatch–compute overlap on the dense baseline).
    Unsupported(&'static str),
}

impl From<CommError> for PipelineError {
    fn from(e: CommError) -> Self {
        PipelineError::Comm(e)
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Comm(e) => write!(f, "communication failure: {e}"),
            PipelineError::MissingCtx(what) => write!(f, "missing execution context: {what}"),
            PipelineError::Unsupported(what) => write!(f, "unsupported execution mode: {what}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Comm(e) => Some(e),
            _ => None,
        }
    }
}

/// The transport a distributed forward runs over.
pub enum CommCtx<'a> {
    /// A flat expert-parallel group (one uneven all-to-all each way).
    Ep(&'a Communicator),
    /// The hierarchical EP + node-local pair RBD dispatches over.
    Hier(&'a RbdComms),
}

impl CommCtx<'_> {
    /// The flat EP communicator view of this transport.
    pub fn ep(&self) -> &Communicator {
        match self {
            CommCtx::Ep(c) => c,
            CommCtx::Hier(h) => &h.ep,
        }
    }
}

/// The execution context a [`Pipeline`] runs under: pooling, transport,
/// clock, rng and overlap are *orthogonal properties of the run*, not baked
/// into per-variant entry points.
#[derive(Default)]
pub struct ExecCtx<'a> {
    /// Pooled state: `Some` leases staging from the shared arena, `None`
    /// runs owned (identical code against a throwaway state).
    pub state: Option<&'a mut PooledSingleState>,
    /// Transport: `None` = single-rank reference.
    pub comm: Option<CommCtx<'a>>,
    /// Simulated clock; required whenever `comm` is set.
    pub clock: Option<&'a mut SimClock>,
    /// Pilot-selection rng; required by RBD.
    pub rng: Option<&'a mut DetRng>,
    /// Dispatch–compute overlap chunking, where supported.
    pub overlap_chunks: Option<usize>,
}

impl<'a> ExecCtx<'a> {
    /// Single-rank, owned buffers.
    pub fn single() -> Self {
        Self::default()
    }

    /// Single-rank, pooled.
    pub fn pooled(state: &'a mut PooledSingleState) -> Self {
        Self {
            state: Some(state),
            ..Self::default()
        }
    }

    /// Distributed over a flat EP group.
    pub fn ep(comm: &'a Communicator, clock: &'a mut SimClock) -> Self {
        Self {
            comm: Some(CommCtx::Ep(comm)),
            clock: Some(clock),
            ..Self::default()
        }
    }

    /// Distributed over hierarchical (EP + node) comms.
    pub fn hier(comms: &'a RbdComms, clock: &'a mut SimClock) -> Self {
        Self {
            comm: Some(CommCtx::Hier(comms)),
            clock: Some(clock),
            ..Self::default()
        }
    }

    /// Attach a pooled state (builder style).
    pub fn with_state(mut self, state: &'a mut PooledSingleState) -> Self {
        self.state = Some(state);
        self
    }

    /// Attach a pilot rng (builder style).
    pub fn with_rng(mut self, rng: &'a mut DetRng) -> Self {
        self.rng = Some(rng);
        self
    }

    /// Request dispatch–compute overlap in `chunks` pieces (builder style).
    pub fn with_overlap(mut self, chunks: usize) -> Self {
        self.overlap_chunks = Some(chunks);
        self
    }
}

fn require_clock<'c>(
    clock: &'c mut Option<&mut SimClock>,
) -> Result<&'c mut SimClock, PipelineError> {
    clock.as_deref_mut().ok_or(PipelineError::MissingCtx(
        "distributed forward needs a clock",
    ))
}

/// A MoE forward algorithm, runnable under any [`ExecCtx`].
pub trait Pipeline {
    /// Stable short name (matches the CLI / benchmark record names).
    fn name(&self) -> &'static str;

    /// Run one forward pass of `tokens` under `ctx`.
    fn forward(
        &self,
        tokens: &Tensor,
        router: &Router,
        experts: &ExpertShard,
        spec: &MoeLayerSpec,
        ctx: &mut ExecCtx,
    ) -> Result<Tensor, PipelineError>;
}

/// The GShard-style dense baseline (`[S, E, C]` dispatch mask, padded
/// buffers, even all-to-alls). Deliberately allocation-heavy — it is the
/// thing the paper improves on — so it ignores `ctx.state`.
pub struct DensePipeline {
    pub order: DenseDropOrder,
}

impl Pipeline for DensePipeline {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(
        &self,
        tokens: &Tensor,
        router: &Router,
        experts: &ExpertShard,
        spec: &MoeLayerSpec,
        ctx: &mut ExecCtx,
    ) -> Result<Tensor, PipelineError> {
        if ctx.overlap_chunks.is_some() {
            return Err(PipelineError::Unsupported(
                "dense pipeline has no dispatch-compute overlap",
            ));
        }
        let ExecCtx { comm, clock, .. } = ctx;
        match comm {
            None => Ok(dense::forward_single_dense(
                tokens, router, experts, spec, self.order,
            )),
            Some(comm) => {
                let clock = require_clock(clock)?;
                Ok(dense::forward_ep_dense(
                    tokens,
                    router,
                    experts,
                    spec,
                    self.order,
                    comm.ep(),
                    clock,
                )?)
            }
        }
    }
}

/// Run `f` against the context's pooled state, or against a throwaway one:
/// "owned" is the pooled code on a state nobody keeps.
fn with_state<R>(
    state: &mut Option<&mut PooledSingleState>,
    f: impl FnOnce(&mut PooledSingleState) -> R,
) -> R {
    match state.as_deref_mut() {
        Some(state) => f(state),
        None => f(&mut PooledSingleState::default()),
    }
}

/// The one shard check at transport entry, single-rank, flat EP and RBD
/// alike: `experts` must be this rank's block of the contiguous `(E, W)`
/// layout, `[r·E/W, (r+1)·E/W)` as [`ExpertAssignment::contiguous`] cuts it
/// (the full set on one rank), and that block may not be empty.
fn check_shard(
    experts: &ExpertShard,
    spec: &MoeLayerSpec,
    ep: Option<&Communicator>,
) -> Result<(), PipelineError> {
    let (w, r) = ep.map_or((1, 0), |c| (c.size(), c.rank()));
    let e = spec.num_experts;
    if e < w {
        return Err(PipelineError::Unsupported(
            "fewer experts than EP ranks: every rank must host one",
        ));
    }
    let block = (r * e / w, (r + 1) * e / w);
    if (experts.first_expert, experts.first_expert + experts.len()) != block {
        return Err(PipelineError::MissingCtx(
            "the expert shard is not this rank's contiguous block \
             (a single-rank forward needs the full expert set)",
        ));
    }
    Ok(())
}

/// The contiguous `(e, w)` layout flat EP routes by, cached in `slot` and
/// rebuilt only on a new shape.
fn contiguous(slot: &mut Option<ExpertAssignment>, e: usize, w: usize) -> &ExpertAssignment {
    match slot.take() {
        Some(a) if (a.n_experts(), a.n_ranks()) == (e, w) => slot.insert(a),
        _ => slot.insert(ExpertAssignment::contiguous(e, w)),
    }
}

/// Map an [`ExecCtx`] onto the one layer pass ([`padding_free::forward`]):
/// `comm` picks the transport — RBD's when the pipeline brings a pilot
/// policy, which needs hierarchical comms and a pilot rng — `state` the
/// arena; `kernel` is the caller's.
fn forward_pft_family(
    tokens: &Tensor,
    router: &Router,
    experts: &ExpertShard,
    spec: &MoeLayerSpec,
    (kernel, pilots): (ExpertKernel, Option<PilotPolicy>),
    ctx: &mut ExecCtx,
) -> Result<Tensor, PipelineError> {
    use PipelineError::MissingCtx;
    let ExecCtx {
        state,
        comm,
        clock,
        rng,
        overlap_chunks,
    } = ctx;
    let overlap_chunks = *overlap_chunks;
    if comm.is_none() && overlap_chunks.is_some() {
        return Err(PipelineError::Unsupported(
            "single-rank forward has no dispatch-compute overlap",
        ));
    }
    let ep = comm.as_ref().map(CommCtx::ep);
    check_shard(experts, spec, ep)?;
    with_state(state, |state| {
        let (layout, e) = (&mut state.assignment, spec.num_experts);
        let transport = match (ep, &*comm, pilots) {
            (None, _, None) => Transport::Local,
            (Some(comm), _, None) => Transport::Ep {
                comm,
                clock: require_clock(clock)?,
                overlap_chunks,
                assignment: contiguous(layout, e, comm.size()),
            },
            (Some(ep), Some(CommCtx::Hier(comms)), Some(policy)) => Transport::Rbd {
                comms,
                clock: require_clock(clock)?,
                rng: rng
                    .as_deref_mut()
                    .ok_or(MissingCtx("rbd needs a pilot rng"))?,
                policy,
                overlap_chunks,
                assignment: contiguous(layout, e, ep.size()),
            },
            _ => return Err(MissingCtx("rbd needs hierarchical comms (CommCtx::Hier)")),
        };
        let (s, h) = tokens.shape();
        let gate = (&router.weight, router.top_k, 0.0);
        Ok(padding_free::forward(
            tokens,
            gate,
            &experts.experts,
            spec,
            transport,
            kernel,
            &mut state.layer,
            &mut state.ws,
            |ws| ws.take(s, h),
            None,
        )?)
    })
}

/// X-MoE's padding-free pipeline (§4.1).
#[derive(Default)]
pub struct PaddingFreePipeline;

impl Pipeline for PaddingFreePipeline {
    fn name(&self) -> &'static str {
        "pft"
    }

    fn forward(
        &self,
        tokens: &Tensor,
        router: &Router,
        experts: &ExpertShard,
        spec: &MoeLayerSpec,
        ctx: &mut ExecCtx,
    ) -> Result<Tensor, PipelineError> {
        let plain = (ExpertKernel::Plain, None);
        forward_pft_family(tokens, router, experts, spec, plain, ctx)
    }
}

/// The block-sparse kernel baseline: padding-free routing with each expert
/// segment zero-padded to a tile multiple before the GEMM.
pub struct BlockSparsePipeline {
    pub block: usize,
}

impl Pipeline for BlockSparsePipeline {
    fn name(&self) -> &'static str {
        "blocksparse"
    }

    fn forward(
        &self,
        tokens: &Tensor,
        router: &Router,
        experts: &ExpertShard,
        spec: &MoeLayerSpec,
        ctx: &mut ExecCtx,
    ) -> Result<Tensor, PipelineError> {
        let kernel = (ExpertKernel::BlockPadded(self.block), None);
        forward_pft_family(tokens, router, experts, spec, kernel, ctx)
    }
}

/// Hierarchical redundancy-bypassing dispatch (§4.2): the one layer pass
/// over RBD's transport. Requires [`CommCtx::Hier`] comms and a pilot rng;
/// pooling and overlap come from the context like everywhere else.
pub struct RbdPipeline {
    pub policy: PilotPolicy,
}

impl Pipeline for RbdPipeline {
    fn name(&self) -> &'static str {
        "rbd"
    }

    fn forward(
        &self,
        tokens: &Tensor,
        router: &Router,
        experts: &ExpertShard,
        spec: &MoeLayerSpec,
        ctx: &mut ExecCtx,
    ) -> Result<Tensor, PipelineError> {
        let rbd = (ExpertKernel::Plain, Some(self.policy));
        forward_pft_family(tokens, router, experts, spec, rbd, ctx)
    }
}
