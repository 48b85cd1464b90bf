//! Chaos harness: fault-injected distributed training with deterministic
//! checkpoint/restore, elastic recovery, and a silent-fault defense layer.
//!
//! [`run_chaos_rank`] is the per-rank body for
//! [`xmoe_collectives::SimCluster::run`]: it trains a [`DistMoeLm`] under a
//! [`xmoe_topology::FaultPlan`], periodically capturing canonical
//! checkpoints, and when a peer dies it re-forms the group from the
//! survivors, reloads the last checkpoint and continues at the reduced
//! world size.
//!
//! On top of the fail-stop machinery sits the SDC defense
//! ([`crate::guard`]): when [`crate::guard::GuardConfig::enabled`] is set,
//! every step runs scaled by the dynamic loss scale, injected `bitflip:` /
//! `noise:` events corrupt activations, gradients or checkpoint bytes,
//! the synced gradients are scanned (non-finite count + global norm, made
//! rank-consistent by a tiny status all-reduce charged as `guard:*`
//! spans), then unscaled by the exact inverse scale — and, when
//! [`GuardConfig::max_grad_norm`] is set, global-norm clipped — before
//! Adam consumes them, and anomalies walk the policy ladder `skip_step` →
//! `backoff_loss_scale` → `rollback_to_checkpoint`.
//!
//! Determinism properties:
//!
//! * The training data stream is stateless per step: a harness
//!   [`DetRng`] draws one `step_seed` per step (the same on every rank,
//!   and its state is part of the checkpoint), and [`step_batch`] derives
//!   each rank's batch from `step_seed` and the rank's *dense* index in
//!   the current group. Survivors at dense ranks `0..N` therefore see
//!   exactly the tokens a fresh `N`-rank run would see.
//! * Checkpoints are rank-agnostic and bitwise exact
//!   ([`crate::checkpoint`]), so restoring onto the survivors yields the
//!   same parameters a fresh `N`-rank run restoring the same bytes would
//!   hold — and from identical parameters, data and RNG state, the loss
//!   trajectory is bitwise identical.
//! * SDC events are one-shot per `(step, site)`: a replay after rollback
//!   does *not* re-fire an injection it already delivered (real bit flips
//!   are transient), so a rollback replays clean and the post-rollback
//!   trajectory is bitwise identical to an uninjected run's.
//! * Every guard decision derives from rank-consistent statistics
//!   (all-reduced status vector, global loss), so policies fire in
//!   lockstep across the group and no rank deadlocks in a collective.
//!
//! When the failure lands exactly on a checkpoint boundary no steps are
//! replayed and MTTR reduces to detect + restore time.

use std::collections::BTreeSet;

use xmoe_collectives::{CommError, Communicator, RankCtx, RecoveryStats, SimClock};
use xmoe_core::memory::expert_replica_bytes;
use xmoe_tensor::{DetRng, WorkspaceStats};
use xmoe_topology::{build_grid_excluding, FaultPlan, PlacementPolicy, RoutingHistogram, SdcSite};

use crate::checkpoint::Checkpoint;
use crate::data::MarkovCorpus;
use crate::dist::DistMoeLm;
use crate::elastic::{
    assignment_cost, ExpertAssignment, RebalanceConfig, RebalanceDecision, RebalancePolicy,
};
use crate::guard::{
    self, GuardConfig, GuardEvent, LossScale, PolicyAction, PolicyEngine, SpikeDetector, Verdict,
};
use crate::model::{build_moe_layers, TrainConfig};

/// Seed tweak separating the data-stream RNG from weight-init streams.
const DATA_STREAM_SALT: u64 = 0xC4A0_5EED;

/// Cap on retained route samples per rebalance window (loads keep
/// counting past it; pricing rescales — see [`RoutingHistogram`]).
const MAX_ROUTE_SAMPLES: usize = 4096;

/// Knobs of one chaos run (the model itself comes from [`TrainConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Training steps to attempt.
    pub steps: u64,
    /// Capture a checkpoint after every `ckpt_every` completed steps
    /// (0 disables checkpointing — recovery then restarts from scratch).
    pub ckpt_every: u64,
    /// Silent-fault defense knobs; `guard.enabled = false` reproduces the
    /// pre-guard step (and its simulated timeline) exactly.
    pub guard: GuardConfig,
    /// Live expert-rebalance knobs; `None` (the default) disables route
    /// tracking and reproduces the pre-elastic step exactly.
    pub rebalance: Option<RebalanceConfig>,
    /// Deterministic skew injector: `(a, b, delta)` adds `delta` to the
    /// gate columns of experts `a` and `b` at model build, making the pair
    /// co-hot on every rank (with `top_k = 2` every token routes to both).
    /// The bias lives in the checkpointed gate weights, so every restore
    /// carries it automatically.
    pub hot_bias: Option<(usize, usize, f32)>,
}

impl ChaosConfig {
    /// Legacy-equivalent configuration: fail-stop chaos only, no guard.
    pub fn new(steps: u64, ckpt_every: u64) -> Self {
        Self {
            steps,
            ckpt_every,
            guard: GuardConfig {
                enabled: false,
                ..GuardConfig::default()
            },
            rebalance: None,
            hot_bias: None,
        }
    }

    /// Enable the silent-fault defense with the given knobs.
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// Enable histogram-driven live expert rebalance.
    pub fn with_rebalance(mut self, rb: RebalanceConfig) -> Self {
        self.rebalance = Some(rb);
        self
    }

    /// Bias two experts' router columns by `delta` to manufacture skew.
    pub fn with_hot_bias(mut self, a: usize, b: usize, delta: f32) -> Self {
        self.hot_bias = Some((a, b, delta));
        self
    }
}

/// One completed join rendezvous, as seen by a participating rank.
#[derive(Clone, Debug)]
pub struct JoinStats {
    /// Ranks that (re)joined the run at this rendezvous.
    pub joined_ranks: Vec<usize>,
    /// Step the grown group resumed training at.
    pub at_step: u64,
    /// Simulated seconds from rendezvous start to training resumption on
    /// this rank: live capture + grow + scatter broadcast + rebuild I/O.
    /// On a joining rank the interval starts at its frozen pre-join clock,
    /// so its value also counts the time it sat out; read join MTTR from
    /// an incumbent's report.
    pub mttr: f64,
    /// Group size after the join.
    pub world_after: usize,
}

/// What one rank experienced during a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// This rank's immutable global id.
    pub global_rank: usize,
    /// `(step, loss)` for every step in the *final* trajectory: entries
    /// invalidated by a rollback are pruned, so survivors' vectors read as
    /// one uninterrupted curve.
    pub losses: Vec<(u64, f64)>,
    /// `Some(step)` if the fault plan killed this rank at `step`.
    pub exited_at: Option<u64>,
    /// One entry per failure this rank recovered from (fail-stop *and*
    /// guard rollbacks; the latter have empty `failed_ranks`).
    pub recoveries: Vec<RecoveryStats>,
    /// Encoded bytes of the last checkpoint captured (also the restore
    /// source for the determinism tests).
    pub last_ckpt: Option<Vec<u8>>,
    /// Group size when the rank finished (or exited).
    pub final_world: usize,
    /// Guard timeline: every detection, policy action and checkpoint
    /// rejection, in step order.
    pub guard_events: Vec<GuardEvent>,
    /// Guard trips not attributable to any injected SDC event (must stay
    /// 0 on clean runs — the no-false-positive contract).
    pub guard_false_positives: u64,
    /// Clean steps whose gradients global-norm clipping rescaled (0 when
    /// [`GuardConfig::max_grad_norm`] is disabled or never exceeded).
    pub grad_clips: u64,
    /// Loss scale at the end of the run (init value when the guard is
    /// off or never backed off).
    pub final_loss_scale: f32,
    /// One entry per join rendezvous this rank participated in.
    pub joins: Vec<JoinStats>,
    /// One entry per committed live rebalance (empty when
    /// [`ChaosConfig::rebalance`] is `None` or the policy never fired).
    pub rebalances: Vec<RebalanceDecision>,
    /// The expert assignment the rank finished (or exited) under.
    pub final_assignment: ExpertAssignment,
    /// Encoded live snapshot taken at the most recent rebalance commit —
    /// together with [`ChaosReport::final_assignment`] it lets a verifier
    /// launch a fresh run in the post-migration configuration and demand
    /// bitwise agreement.
    pub rebalance_ckpt: Option<Vec<u8>>,
    /// Counters of the final model's step arena (every restore, join and
    /// rebalance starts a fresh one).
    pub arena: WorkspaceStats,
}

/// The batch rank `dense_rank` trains on at the step identified by
/// `step_seed`. Stateless: the corpus is rebuilt from the seed each step,
/// so the stream depends only on `(step_seed, dense_rank)` — the property
/// elastic recovery's determinism rests on.
pub fn step_batch(cfg: &TrainConfig, step_seed: u64, dense_rank: usize) -> Vec<Vec<usize>> {
    let salt = (dense_rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    MarkovCorpus::new(cfg.vocab, 3, step_seed ^ salt).batch(cfg.batch, cfg.seq_len)
}

/// Flip one bit of the `target`-th gradient element (global index across
/// the parameter walk).
fn inject_grad_flip(model: &mut DistMoeLm, target: usize, bit: u32) {
    let mut seen = 0usize;
    model.visit_params(&mut |_, _, g| {
        let xs = g.as_mut_slice();
        if target >= seen && target < seen + xs.len() {
            guard::flip_bit_f32(xs, target - seen, bit);
        }
        seen += xs.len();
    });
}

/// What the detectors concluded about one guarded step.
struct StepVerdict {
    global_loss: f64,
    /// `(site, detector, value)` of the highest-priority anomaly, if any.
    anomaly: Option<(&'static str, &'static str, f64)>,
    /// Whether global grad-norm clipping rescaled this step's gradients.
    clipped: bool,
}

/// Detector state carried across steps of a guarded run.
struct GuardState {
    loss_scale: LossScale,
    norm_det: SpikeDetector,
    loss_det: SpikeDetector,
    policy: PolicyEngine,
    /// `(step, site)` pairs whose injection already fired — SDC events
    /// are one-shot, so replays after rollback stay clean.
    applied: BTreeSet<(u64, u8)>,
}

impl GuardState {
    fn new(g: &GuardConfig) -> Self {
        Self {
            loss_scale: LossScale::new(g.loss_scale),
            norm_det: SpikeDetector::new(g.spike_factor, g.spike_window, g.spike_min_history),
            loss_det: SpikeDetector::new(g.spike_factor, g.spike_window, g.spike_min_history),
            policy: PolicyEngine::new(g.policy),
            applied: BTreeSet::new(),
        }
    }

    fn mark(&mut self, step: u64, site: SdcSite) {
        self.applied.insert((step, site as u8));
    }

    fn is_applied(&self, step: u64, site: SdcSite) -> bool {
        self.applied.contains(&(step, site as u8))
    }
}

/// One guarded training step: scaled forward/backward with `site=act`
/// injection, `site=grad` injection, gradient sync, the guard scan +
/// status all-reduce, loss reduction, and anomaly detection. The optimizer
/// update is *not* applied here — the caller applies or discards it
/// according to the policy decision. All guard work is charged under
/// `guard:*` span labels, so the span-exactness invariant keeps holding.
#[allow(clippy::too_many_arguments)]
fn guarded_step(
    g: &GuardConfig,
    model: &mut DistMoeLm,
    plan: Option<&FaultPlan>,
    my_global: usize,
    step: u64,
    batch: &[Vec<usize>],
    comm: &Communicator,
    clock: &mut SimClock,
    gs: &mut GuardState,
) -> Result<StepVerdict, CommError> {
    // --- site=act injection hook (runs on the pre-head activations) ----
    let mut act_flips: Vec<(u64, u32)> = Vec::new();
    let mut act_noise: Option<(u64, f64)> = None;
    if let Some(p) = plan {
        if !gs.is_applied(step, SdcSite::Act) {
            for fl in p.bitflips(my_global, step, SdcSite::Act) {
                act_flips.push((fl.element_hash, fl.bit));
            }
            let amp = p.noise_amp(my_global, step, SdcSite::Act);
            if amp > 0.0 {
                act_noise = Some((p.sdc_stream_seed(my_global, step, SdcSite::Act), amp));
            }
        }
    }
    let inject_act = !act_flips.is_empty() || act_noise.is_some();
    let mut hook = |xs: &mut [f32]| {
        for &(h, bit) in &act_flips {
            let elem = (h % xs.len().max(1) as u64) as usize;
            guard::flip_bit_f32(xs, elem, bit);
        }
        if let Some((seed, amp)) = act_noise {
            guard::apply_noise(xs, seed, amp);
        }
    };
    let act_hook: Option<crate::dist::ActHook<'_>> =
        if inject_act { Some(&mut hook) } else { None };

    let local_loss =
        model.forward_backward_hooked(batch, gs.loss_scale.scale(), act_hook, comm, clock)?;
    if inject_act {
        gs.mark(step, SdcSite::Act);
    }

    // --- site=grad injection (pre-sync, so corruption propagates through
    // the all-reduce exactly like real device-memory SDC) ---------------
    if let Some(p) = plan {
        if !gs.is_applied(step, SdcSite::Grad) {
            let mut fired = false;
            let flips = p.bitflips(my_global, step, SdcSite::Grad);
            if !flips.is_empty() {
                let mut total = 0;
                model.visit_params(&mut |_, _, g| total += g.len());
                for fl in &flips {
                    inject_grad_flip(model, fl.element(total), fl.bit);
                }
                fired = true;
            }
            let amp = p.noise_amp(my_global, step, SdcSite::Grad);
            if amp > 0.0 {
                let base = p.sdc_stream_seed(my_global, step, SdcSite::Grad);
                let mut i = 0u64;
                model.visit_params(&mut |_, _, g| {
                    let seed = base.wrapping_add(i.wrapping_mul(0x9E37));
                    guard::apply_noise(g.as_mut_slice(), seed, amp);
                    i += 1;
                });
                fired = true;
            }
            if fired {
                gs.mark(step, SdcSite::Grad);
            }
        }
    }

    model.sync_grads(comm, clock)?;

    // --- guard scan: one mem-bound pass over every gradient ------------
    // Post-sync, replicated grads are bitwise-identical on every rank;
    // expert-shard stats are local and must be all-reduced before any
    // rank acts on them, or policies would fire out of lockstep.
    let mut rep_nonfin = 0usize;
    let mut shard_nonfin = 0usize;
    let mut rep_sq = 0.0f64;
    let mut shard_sq = 0.0f64;
    let mut total_elems = 0usize;
    model.visit_params(&mut |id, _, g| {
        let xs = g.as_slice();
        total_elems += xs.len();
        let nf = guard::count_non_finite(xs);
        let sq = guard::sq_norm(xs);
        if id.is_replicated() {
            rep_nonfin += nf;
            rep_sq += sq;
        } else {
            shard_nonfin += nf;
            shard_sq += sq;
        }
    });
    if g.bf16_grads {
        // Simulated-bf16 device gradients over f32 master weights: the
        // synced (still loss-scaled) gradient is what low-precision
        // hardware would hand the optimizer.
        model.visit_params(&mut |_, _, g| guard::bf16_round_slice(g.as_mut_slice()));
        clock.charge(
            "guard:bf16",
            comm.cost().mem_bound_time(4.0 * total_elems as f64),
        );
    }
    // Unscale: the whole backward ran multiplied by the loss scale, so the
    // synced (and bf16-rounded) gradients still carry it. Divide it back
    // out *before* the optimizer ever sees them — Adam must always consume
    // gradients at their true magnitude, or its m/v buffers would mix
    // scales across growth/backoff transitions. Exact: scales are powers
    // of two, so the clip norm `sync_grads` derived rescales exactly too.
    // (The scan statistics above were taken pre-unscale; the detector's
    // norm applies `inv_scale` to them below, so both views agree. The
    // bf16 rounding does not move the clip norm: it is the synced one.)
    let unscale = gs.loss_scale.inv_scale();
    if unscale != 1.0 {
        model.scale_grads(unscale);
        clock.charge(
            "guard:unscale",
            comm.cost().mem_bound_time(4.0 * total_elems as f64),
        );
    }
    clock.charge(
        "guard:scan",
        comm.cost().mem_bound_time(4.0 * total_elems as f64),
    );
    // Guard status rides the loss all-reduce: one merged collective
    // carries [loss, shard_nonfinite, shard_sq_norm], so the per-step
    // guard traffic costs only its marginal bytes (charged as
    // `guard:reduce`), not an extra latency-bound collective. Element 0
    // sums in the same canonical order `reduce_loss` uses, so the global
    // loss is bitwise what the unmerged path would produce.
    let mut status = [local_loss as f32, shard_nonfin as f32, shard_sq as f32];
    comm.all_reduce_sum_f32(&mut status, clock)?;
    clock.commit("loss_allreduce");
    clock.charge(
        "guard:reduce",
        comm.cost().mem_bound_time((status.len() - 1) as f64 * 4.0),
    );
    let global_loss = (status[0] / comm.size() as f32) as f64;
    let nonfinite = rep_nonfin as f64 + status[1] as f64;
    // Norm of the *unscaled* gradient: undo the loss scale (exact — the
    // scale is a power of two) so the spike baseline is scale-invariant.
    let inv = gs.loss_scale.inv_scale() as f64;
    let grad_norm = (rep_sq + status[2] as f64).sqrt() * inv;

    // --- detection ladder: non-finite first, then relative spikes ------
    let anomaly = if nonfinite > 0.0 {
        Some(("grad", "nonfinite", nonfinite))
    } else if !global_loss.is_finite() {
        Some(("loss", "nonfinite", 1.0))
    } else {
        match gs.norm_det.observe(grad_norm) {
            Verdict::Spike { ratio } => Some(("grad", "spike", ratio)),
            Verdict::NonFinite => Some(("grad", "nonfinite", 1.0)),
            Verdict::Clean => match gs.loss_det.observe(global_loss) {
                Verdict::Spike { ratio } => Some(("loss", "spike", ratio)),
                Verdict::NonFinite => Some(("loss", "nonfinite", 1.0)),
                Verdict::Clean => None,
            },
        }
    };

    // --- global grad-norm clipping (clean steps only: anomalous steps are
    // discarded by the policy, so conditioning them would be wasted work).
    // The factor derives from the all-reduced unscaled norm, so every rank
    // rescales identically and replicated grads stay bitwise-identical.
    let mut clipped = false;
    if anomaly.is_none() && g.max_grad_norm > 0.0 {
        let factor = guard::clip_factor(grad_norm, g.max_grad_norm);
        if factor != 1.0 {
            model.scale_grads(factor);
            clock.charge(
                "guard:clip",
                comm.cost().mem_bound_time(4.0 * total_elems as f64),
            );
            clipped = true;
        }
    }
    Ok(StepVerdict {
        global_loss,
        anomaly,
        clipped,
    })
}

/// Decode the newest intact checkpoint: `last` if its CRCs verify, else
/// `prev` (the fallback), else `None`. On fallback the corrupt `last`
/// image is discarded and the intact `prev` bytes are promoted into its
/// slot, so later recoveries never re-decode a known-corrupt image.
/// Returns the decoded checkpoint paired with the byte length actually
/// restored (for the I/O time charge), whether the fallback was taken,
/// and the decode error that forced it.
fn restore_source(
    last: &mut Option<Vec<u8>>,
    prev: &mut Option<Vec<u8>>,
) -> (Option<(Checkpoint, usize)>, bool, Option<String>) {
    let err = match last.as_ref() {
        None => return (None, false, None),
        Some(bytes) => match Checkpoint::decode(bytes) {
            Ok(c) => return (Some((c, bytes.len())), false, None),
            Err(e) => e.to_string(),
        },
    };
    *last = None;
    let fb = prev.take().and_then(|b| match Checkpoint::decode(&b) {
        Ok(c) => {
            let n = b.len();
            *last = Some(b);
            Some((c, n))
        }
        Err(_) => None,
    });
    (fb, true, Some(err))
}

/// Per-rank chaos-run body. Returns `Err` only for faults the harness does
/// not model (a poisoned lock, a peer's panic, SPMD divergence); planned rank
/// deaths and recoveries are part of the `Ok` report.
pub fn run_chaos_rank(
    cfg: &TrainConfig,
    chaos: &ChaosConfig,
    ctx: &mut RankCtx,
) -> Result<ChaosReport, CommError> {
    let plan = ctx.fault_plan().cloned();
    let world0 = ctx.n_ranks();
    let my_global = ctx.world.global_rank();
    let mut comm = ctx.world.clone();
    let mut dead_so_far: Vec<usize> = Vec::new();
    // Ranks whose first scheduled event is a join sit out from step 0:
    // the incumbents split into the present subset so the opening group
    // matches the plan, and the dark ranks idle until their rendezvous.
    if let Some(p) = &plan {
        let absent0: Vec<usize> = (0..world0)
            .filter(|&r| !p.is_present(r, 0) && !p.is_dead(r, 0))
            .collect();
        if !absent0.is_empty() {
            ctx.set_step(0);
            comm.set_step(0);
            if !p.is_dead(my_global, 0) {
                let color = usize::from(absent0.contains(&my_global));
                comm = comm.split(color, &mut ctx.clock)?;
                ctx.clock.commit("elastic_join");
            }
            dead_so_far = absent0;
        }
    }
    let full_layers = build_moe_layers(cfg);
    let mut model = DistMoeLm::new(cfg, &full_layers, comm.rank(), comm.size());
    if let Some((a, b, delta)) = chaos.hot_bias {
        model.bias_router(a, delta);
        model.bias_router(b, delta);
    }
    let mut rng = DetRng::new(cfg.seed ^ DATA_STREAM_SALT);
    let guard_on = chaos.guard.enabled;
    let mut gs = GuardState::new(&chaos.guard);
    let mut policy = chaos.rebalance.map(RebalancePolicy::new);
    if policy.is_some() {
        model.set_route_tracking(true);
    }
    let mut report = ChaosReport {
        global_rank: my_global,
        losses: Vec::new(),
        exited_at: None,
        recoveries: Vec::new(),
        last_ckpt: None,
        final_world: comm.size(),
        guard_events: Vec::new(),
        guard_false_positives: 0,
        grad_clips: 0,
        final_loss_scale: gs.loss_scale.scale(),
        joins: Vec::new(),
        rebalances: Vec::new(),
        final_assignment: model.assignment().clone(),
        rebalance_ckpt: None,
        arena: WorkspaceStats::default(),
    };
    let mut prev_ckpt: Option<Vec<u8>> = None;
    // Join steps whose rendezvous already ran: a rollback replay that
    // crosses a join step must not re-grow a group that already holds the
    // joined ranks.
    let mut joins_done: BTreeSet<u64> = BTreeSet::new();
    // `(recovery index, clock at failure)` until the replay catches back up.
    let mut catch_up: Option<(usize, f64)> = None;

    let mut step = 0u64;
    while step < chaos.steps {
        // ---- elastic join rendezvous: dark ranks come (back) online ----
        if let Some(p) = &plan {
            let joiners: Vec<usize> = p
                .joining_at(step)
                .into_iter()
                .filter(|&r| r < world0 && step > 0 && !p.is_present(r, step - 1))
                .collect();
            if !joiners.is_empty() && !joins_done.contains(&step) && p.is_present(my_global, step) {
                let members: Vec<usize> = (0..world0).filter(|&r| p.is_present(r, step)).collect();
                let i_join = joiners.contains(&my_global);
                let t0 = ctx.clock.now();
                ctx.set_step(step);
                comm.set_step(step);
                // Incumbents snapshot the live model collectively before
                // the group changes; the image is rank-agnostic, so any
                // single incumbent can scatter it to the grown group.
                let scatter = if i_join {
                    None
                } else {
                    let ckpt =
                        model.capture_checkpoint(step, rng.state(), &comm, &mut ctx.clock)?;
                    Some(ckpt.encode())
                };
                // Rendezvous: every present rank meets in the grown
                // communicator; clocks align on the slowest member.
                let new_comm = ctx.world.grow(&members, &mut ctx.clock)?;
                ctx.clock.commit("elastic_join");
                // Checkpoint-free scatter: the lowest incumbent broadcasts
                // the in-memory image and every member rebuilds its shard
                // from the canonical global-expert-id keying.
                let root_global = *members
                    .iter()
                    .find(|r| !joiners.contains(r))
                    .expect("a join rendezvous needs at least one incumbent rank");
                let root = members.iter().position(|&r| r == root_global).unwrap();
                let bytes = new_comm.broadcast(root, scatter, &mut ctx.clock)?;
                ctx.clock.commit("elastic_scatter");
                ctx.clock.charge(
                    "elastic_scatter",
                    ctx.cost().mem_bound_time(bytes.len() as f64),
                );
                let ckpt = Checkpoint::decode(&bytes).expect("live scatter image failed its CRC");
                model = DistMoeLm::from_checkpoint(cfg, &ckpt, new_comm.rank(), new_comm.size());
                rng = DetRng::from_state(ckpt.rng_state);
                // The scattered image is the newest group-consistent
                // checkpoint; adopting it everywhere keeps later restores
                // rank-consistent (a joiner's stale copy must never win).
                prev_ckpt = None;
                report.last_ckpt = Some(bytes);
                if i_join {
                    // Pre-death entries belong to a trajectory the group
                    // replayed past while this rank was dark.
                    report.losses.clear();
                }
                // Detector/policy state restarts rank-consistently: a
                // joiner has no window history, so everyone drops theirs.
                // One-shot SDC delivery memory is per-rank and survives.
                let applied = std::mem::take(&mut gs.applied);
                gs = GuardState::new(&chaos.guard);
                gs.applied = applied;
                policy = chaos.rebalance.map(RebalancePolicy::new);
                if policy.is_some() {
                    model.set_route_tracking(true);
                }
                dead_so_far = (0..world0).filter(|&r| !p.is_present(r, step)).collect();
                joins_done.insert(step);
                report.joins.push(JoinStats {
                    joined_ranks: joiners,
                    at_step: step,
                    mttr: ctx.clock.now() - t0,
                    world_after: new_comm.size(),
                });
                comm = new_comm;
            }
        }
        if let Some(p) = &plan {
            if !p.is_present(my_global, step) {
                if report.exited_at.is_none() && p.is_dead(my_global, step) {
                    report.exited_at = Some(step);
                }
                if p.joins_of(my_global).iter().any(|&s| s > step) {
                    // Scheduled to (re)join later: idle without advancing
                    // the simulated clock; the rendezvous aligns it.
                    step += 1;
                    continue;
                }
                report.final_world = comm.size();
                report.final_loss_scale = gs.loss_scale.scale();
                report.final_assignment = model.assignment().clone();
                report.arena = model.arena_stats();
                return Ok(report);
            }
        }
        if let Some((i, t_err)) = catch_up {
            if step >= report.recoveries[i].failed_at_step {
                let r = &mut report.recoveries[i];
                r.mttr = r.detect_time + (ctx.clock.now() - t_err);
                catch_up = None;
            }
        }
        ctx.set_step(step);
        comm.set_step(step);
        let step_seed = rng.next_u64();
        let batch = step_batch(cfg, step_seed, comm.rank());

        // ---- execute one step (guarded or legacy) ----------------------
        let outcome: Result<Option<f64>, CommError> = if guard_on {
            match guarded_step(
                &chaos.guard,
                &mut model,
                plan.as_deref(),
                my_global,
                step,
                &batch,
                &comm,
                &mut ctx.clock,
                &mut gs,
            ) {
                Ok(v) => {
                    if let Some((site, detector, value)) = v.anomaly {
                        // All ranks saw identical statistics, so every rank
                        // reaches the identical decision here — policies
                        // fire in lockstep with no extra coordination.
                        let action = gs.policy.decide();
                        // A trip is a true positive iff the plan injected
                        // *anything* at or before this step. The plan is the
                        // harness oracle, identical on every rank, so the
                        // classification is rank-consistent even though the
                        // victim rank is not the detecting rank.
                        let injected_at =
                            plan.as_deref().and_then(|p| p.last_sdc_at_or_before(step));
                        if injected_at.is_none() {
                            report.guard_false_positives += 1;
                        }
                        let latency = injected_at.map_or(0, |s| step - s);
                        report.guard_events.push(GuardEvent {
                            step,
                            site: site.into(),
                            detector: detector.into(),
                            action: action.name().into(),
                            value,
                            detail: String::new(),
                        });
                        match action {
                            PolicyAction::SkipStep => {
                                model.zero_all_grads();
                                step += 1;
                            }
                            PolicyAction::BackoffLossScale => {
                                model.zero_all_grads();
                                gs.loss_scale.on_overflow();
                                step += 1;
                            }
                            PolicyAction::RollbackToCheckpoint => {
                                model.zero_all_grads();
                                let t_trip = ctx.clock.now();
                                let (src, fell_back, err) =
                                    restore_source(&mut report.last_ckpt, &mut prev_ckpt);
                                if fell_back {
                                    report.guard_events.push(GuardEvent {
                                        step,
                                        site: "ckpt".into(),
                                        detector: "crc".into(),
                                        action: "fallback_prev_ckpt".into(),
                                        value: 1.0,
                                        // The section-naming decode error,
                                        // kept for postmortems.
                                        detail: err.unwrap_or_default(),
                                    });
                                }
                                let resumed = if let Some((ckpt, bytes)) = src {
                                    ctx.clock.charge(
                                        "ckpt_restore",
                                        ctx.cost().mem_bound_time(bytes as f64),
                                    );
                                    model = DistMoeLm::from_checkpoint(
                                        cfg,
                                        &ckpt,
                                        comm.rank(),
                                        comm.size(),
                                    );
                                    rng = DetRng::from_state(ckpt.rng_state);
                                    ckpt.step
                                } else {
                                    model =
                                        DistMoeLm::new(cfg, &full_layers, comm.rank(), comm.size());
                                    if let Some((a, b, delta)) = chaos.hot_bias {
                                        model.bias_router(a, delta);
                                        model.bias_router(b, delta);
                                    }
                                    rng = DetRng::new(cfg.seed ^ DATA_STREAM_SALT);
                                    0
                                };
                                if policy.is_some() {
                                    model.set_route_tracking(true);
                                }
                                report.losses.retain(|&(s, _)| s < resumed);
                                let t_done = ctx.clock.now();
                                report.recoveries.push(RecoveryStats {
                                    failed_ranks: Vec::new(),
                                    failed_at_step: step,
                                    resumed_from_step: resumed,
                                    steps_replayed: step - resumed,
                                    detect_time: 0.0,
                                    restore_time: t_done - t_trip,
                                    mttr: t_done - t_trip,
                                    detect_latency_steps: latency,
                                    false_positives: report.guard_false_positives,
                                    steps_lost_to_rollback: step - resumed,
                                });
                                catch_up = Some((report.recoveries.len() - 1, t_trip));
                                step = resumed;
                            }
                        }
                        continue;
                    }
                    gs.policy.on_clean();
                    gs.loss_scale.on_clean();
                    if v.clipped {
                        report.grad_clips += 1;
                    }
                    model.apply_update();
                    Ok(Some(v.global_loss))
                }
                Err(e) => Err(e),
            }
        } else {
            model.train_step(&batch, &comm, &mut ctx.clock).map(Some)
        };

        match outcome {
            Ok(Some(loss)) => {
                report.losses.push((step, loss));
                if chaos.ckpt_every > 0 && (step + 1).is_multiple_of(chaos.ckpt_every) {
                    let ckpt =
                        model.capture_checkpoint(step + 1, rng.state(), &comm, &mut ctx.clock)?;
                    let mut bytes = ckpt.encode();
                    if guard_on {
                        // The per-section CRC pass is guard work.
                        ctx.clock
                            .charge("guard:crc", ctx.cost().mem_bound_time(bytes.len() as f64));
                    }
                    // site=ckpt injection: corrupt this rank's copy of the
                    // freshly captured image.
                    if let Some(p) = &plan {
                        if !gs.is_applied(step, SdcSite::Ckpt) {
                            let flips = p.bitflips(my_global, step, SdcSite::Ckpt);
                            if !flips.is_empty() {
                                let len = bytes.len();
                                for fl in &flips {
                                    guard::flip_bit_bytes(&mut bytes, fl.element(len), fl.bit);
                                }
                                gs.mark(step, SdcSite::Ckpt);
                            }
                        }
                    }
                    if guard_on {
                        // Capture-time integrity vote: every rank checks its
                        // copy's CRCs and the group keeps the capture only if
                        // *all* copies verify. A corrupt copy on any rank
                        // discards the capture everywhere, so later restores
                        // agree on the bytes — rank-consistent by
                        // construction.
                        let ok = Checkpoint::decode(&bytes).is_ok();
                        let mut flag = [if ok { 1.0f32 } else { 0.0 }];
                        comm.all_reduce_sum_f32(&mut flag, &mut ctx.clock)?;
                        ctx.clock.commit("guard:reduce");
                        if flag[0] as usize == comm.size() {
                            prev_ckpt = report.last_ckpt.take();
                            report.last_ckpt = Some(bytes);
                        } else {
                            let injected =
                                plan.as_deref().and_then(|p| p.last_sdc_at_or_before(step));
                            if injected.is_none() {
                                report.guard_false_positives += 1;
                            }
                            report.guard_events.push(GuardEvent {
                                step,
                                site: "ckpt".into(),
                                detector: "crc".into(),
                                action: "discard_corrupt_ckpt".into(),
                                value: comm.size() as f64 - flag[0] as f64,
                                detail: String::new(),
                            });
                        }
                    } else {
                        prev_ckpt = report.last_ckpt.take();
                        report.last_ckpt = Some(bytes);
                    }
                }
                // ---- live expert rebalance: close a profiling window ---
                if let Some(pol) = policy.as_mut() {
                    let rcfg = *pol.config();
                    if rcfg.every > 0 && (step + 1).is_multiple_of(rcfg.every) {
                        // Merge the window's routes in dense-rank order:
                        // every rank sees the identical histogram, so the
                        // (deterministic) policy reaches the identical
                        // decision with no extra agreement round.
                        let mine = model.take_route_samples();
                        let gathered = comm.all_gather(mine, &mut ctx.clock)?;
                        ctx.clock.commit("elastic_histogram");
                        let mut hist =
                            RoutingHistogram::new(cfg.num_experts, comm.size(), MAX_ROUTE_SAMPLES);
                        for per_src in &gathered {
                            for (src, experts) in per_src {
                                let experts: Vec<usize> =
                                    experts.iter().map(|&e| e as usize).collect();
                                hist.observe(*src as usize, &experts);
                            }
                        }
                        let replica_cost = expert_replica_bytes(cfg.hidden, cfg.ffn, cfg.layers);
                        let old = model.assignment().clone();
                        if let Some((new_asg, kind)) =
                            pol.observe_window(&hist, &old, comm.cost(), replica_cost)
                        {
                            // Commit: snapshot the live state (weights +
                            // Adam moments, rank-agnostic keying), price
                            // the expert transfers, and rebuild every rank
                            // under the new assignment. Replicas are
                            // bitwise copies of their primary, so the run
                            // continues exactly as a fresh run launched in
                            // this layout from the same image would.
                            let ckpt = model.capture_checkpoint(
                                step + 1,
                                rng.state(),
                                &comm,
                                &mut ctx.clock,
                            )?;
                            let moved = old.changed_experts(&new_asg);
                            let grp = comm.group_ranks();
                            // Per expert per layer: w1|m|v and w2|m|v.
                            let per_expert =
                                6 * cfg.hidden as u64 * cfg.ffn as u64 * 4 * cfg.layers as u64;
                            let mut migration_bytes = 0u64;
                            let mut t_mig = 0.0f64;
                            for &g in &moved {
                                let src = grp[old.primary(g)];
                                for &h in new_asg.holders(g) {
                                    if !old.holders(g).contains(&h) {
                                        migration_bytes += per_expert;
                                        t_mig += comm.cost().p2p_time(src, grp[h], per_expert);
                                    }
                                }
                            }
                            ctx.clock.charge("elastic_migrate", t_mig);
                            let bpt = rcfg.bytes_per_token;
                            let before = assignment_cost(&old, &hist, comm.cost(), bpt);
                            let after = assignment_cost(&new_asg, &hist, comm.cost(), bpt);
                            model = DistMoeLm::from_checkpoint_with_assignment(
                                cfg,
                                &ckpt,
                                comm.rank(),
                                new_asg,
                            );
                            model.set_route_tracking(true);
                            rng = DetRng::from_state(ckpt.rng_state);
                            report.rebalance_ckpt = Some(ckpt.encode());
                            report.rebalances.push(RebalanceDecision {
                                step: step + 1,
                                kind,
                                moved_experts: moved,
                                dispatch_before: before.dispatch_time,
                                dispatch_after: after.dispatch_time,
                                migration_bytes,
                            });
                        }
                    }
                }
                step += 1;
            }
            Ok(None) => unreachable!("anomaly outcomes continue the loop directly"),
            Err(CommError::DeadPeer { .. }) => {
                // `check_dead` already charged `fault_detect` before erring,
                // so `t_err` marks the end of detection.
                let t_err = ctx.clock.now();
                let p = plan
                    .as_ref()
                    .expect("DeadPeer reported without a fault plan");
                let newly_dead: Vec<usize> = comm
                    .group_ranks()
                    .iter()
                    .copied()
                    .filter(|&g| p.is_dead(g, step))
                    .collect();
                assert!(
                    !newly_dead.is_empty(),
                    "DeadPeer error but the plan lists no dead group member"
                );
                dead_so_far.extend(newly_dead.iter().copied());
                dead_so_far.sort_unstable();
                dead_so_far.dedup();
                let survivors = comm.size() - newly_dead.len();
                assert!(survivors > 0, "no survivors to recover onto");
                // Ragged re-sharding handles any survivor count up to the
                // expert count (floor-boundary contiguous split).
                assert!(
                    cfg.num_experts >= survivors,
                    "cannot re-shard {} experts over {survivors} survivors: \
                     every rank must host at least one expert",
                    cfg.num_experts
                );

                // Re-form the group: every survivor joins color 0. The
                // placement grid rebuilt without the dead ranks must agree
                // with what the collective layer produced.
                let new_comm = comm.split(0, &mut ctx.clock)?;
                let grid =
                    build_grid_excluding(world0, &dead_so_far, survivors, PlacementPolicy::EpFirst);
                assert_eq!(
                    grid.ep_groups[0].as_slice(),
                    new_comm.group_ranks(),
                    "recovered communicator disagrees with the placement grid"
                );

                // Restore from the newest intact checkpoint; a corrupt
                // `last` falls back to `prev` (both CRC-verified on decode).
                let (src, fell_back, err) = restore_source(&mut report.last_ckpt, &mut prev_ckpt);
                if fell_back {
                    report.guard_events.push(GuardEvent {
                        step,
                        site: "ckpt".into(),
                        detector: "crc".into(),
                        action: "fallback_prev_ckpt".into(),
                        value: 1.0,
                        detail: err.unwrap_or_default(),
                    });
                }
                let resumed = if let Some((ckpt, bytes)) = src {
                    let t_io = ctx.cost().mem_bound_time(bytes as f64);
                    ctx.clock.charge("ckpt_restore", t_io);
                    model =
                        DistMoeLm::from_checkpoint(cfg, &ckpt, new_comm.rank(), new_comm.size());
                    rng = DetRng::from_state(ckpt.rng_state);
                    ckpt.step
                } else {
                    model = DistMoeLm::new(cfg, &full_layers, new_comm.rank(), new_comm.size());
                    if let Some((a, b, delta)) = chaos.hot_bias {
                        model.bias_router(a, delta);
                        model.bias_router(b, delta);
                    }
                    rng = DetRng::new(cfg.seed ^ DATA_STREAM_SALT);
                    0
                };
                if policy.is_some() {
                    model.set_route_tracking(true);
                }
                report.losses.retain(|&(s, _)| s < resumed);
                let t_done = ctx.clock.now();
                report.recoveries.push(RecoveryStats {
                    failed_ranks: newly_dead,
                    failed_at_step: step,
                    resumed_from_step: resumed,
                    steps_replayed: step - resumed,
                    detect_time: p.detect_timeout,
                    restore_time: t_done - t_err,
                    mttr: p.detect_timeout + (t_done - t_err),
                    detect_latency_steps: 0,
                    false_positives: report.guard_false_positives,
                    steps_lost_to_rollback: 0,
                });
                catch_up = Some((report.recoveries.len() - 1, t_err));
                comm = new_comm;
                step = resumed;
            }
            Err(e) => return Err(e),
        }
    }
    report.final_world = comm.size();
    report.final_loss_scale = gs.loss_scale.scale();
    report.final_assignment = model.assignment().clone();
    report.arena = model.arena_stats();
    Ok(report)
}
