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
//! The run's mutable state (model, data stream, guard detectors, rebalance
//! policy, report, fallback image) lives in one `Run`, and one `load`
//! builds the model: at the start, after a guard rollback or a fail-stop
//! restore (both through one `Run::restore`) and at a join. A rebalance
//! commits through [`RebalancePolicy::close_window`], the same call
//! `bench elastic` makes.
//!
//! On top of the fail-stop machinery sits the SDC defense
//! ([`crate::guard`]): when [`ChaosConfig::guard`] is set,
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
use xmoe_core::price;
use xmoe_tensor::{DetRng, WorkspaceStats};
use xmoe_topology::{build_grid_excluding, FaultPlan, PlacementPolicy, SdcSite};

use crate::checkpoint::Checkpoint;
use crate::data::MarkovCorpus;
use crate::dist::DistMoeLm;
use crate::elastic::{ExpertAssignment, RebalanceConfig, RebalanceDecision, RebalancePolicy};
use crate::guard::{
    self, GuardConfig, GuardEvent, LossScale, PolicyAction, PolicyEngine, SpikeDetector, Verdict,
};
use crate::model::{build_moe_layers, TrainConfig};

/// Seed tweak separating the data-stream RNG from weight-init streams.
const DATA_STREAM_SALT: u64 = 0xC4A0_5EED;

/// Knobs of one chaos run (the model itself comes from [`TrainConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Training steps to attempt.
    pub steps: u64,
    /// Capture a checkpoint after every `ckpt_every` completed steps
    /// (0 disables checkpointing — recovery then restarts from scratch).
    pub ckpt_every: u64,
    /// Silent-fault defense knobs; `None` (the default) runs the plain
    /// train step and its simulated timeline exactly.
    pub guard: Option<GuardConfig>,
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
    /// Fail-stop chaos only: no guard, no rebalance, no skew.
    pub fn new(steps: u64, ckpt_every: u64) -> Self {
        Self {
            steps,
            ckpt_every,
            guard: None,
            rebalance: None,
            hot_bias: None,
        }
    }

    /// Enable the silent-fault defense with the given knobs.
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = Some(guard);
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
    /// The steps the final model ran: what `arena` counts over.
    pub arena_steps: u64,
}

/// The batch rank `dense_rank` trains on at the step identified by
/// `step_seed`. Stateless: the corpus is rebuilt from the seed each step,
/// so the stream depends only on `(step_seed, dense_rank)` — the property
/// elastic recovery's determinism rests on.
pub fn step_batch(cfg: &TrainConfig, step_seed: u64, dense_rank: usize) -> Vec<Vec<usize>> {
    let salt = (dense_rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    MarkovCorpus::new(cfg.vocab, 3, step_seed ^ salt).batch(cfg.batch, cfg.seq_len)
}

/// What the detectors concluded about one guarded step.
#[derive(Default)]
struct StepVerdict {
    global_loss: f64,
    /// `(site, detector, value)` of the highest-priority anomaly, if any.
    anomaly: Option<(&'static str, &'static str, f64)>,
    /// Whether global grad-norm clipping rescaled this step's gradients.
    clipped: bool,
}

/// The guard's spike detectors over the global grad norm and the loss: a
/// sample above `SPIKE_FACTOR` × the median of the last `SPIKE_WINDOW`
/// clean samples, once `SPIKE_MIN_HISTORY` are in, is a spike.
const SPIKE_FACTOR: f64 = 25.0;
const SPIKE_WINDOW: usize = 8;
const SPIKE_MIN_HISTORY: usize = 3;

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
            norm_det: SpikeDetector::new(SPIKE_FACTOR, SPIKE_WINDOW, SPIKE_MIN_HISTORY),
            loss_det: SpikeDetector::new(SPIKE_FACTOR, SPIKE_WINDOW, SPIKE_MIN_HISTORY),
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
/// status all-reduce, loss reduction, and anomaly detection. A clean step
/// ends with the optimizer update; an anomalous one leaves its gradients
/// for the policy to discard. All guard work is charged under `guard:*`
/// span labels, so the span-exactness invariant keeps holding.
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
    let act = plan.filter(|_| !gs.is_applied(step, SdcSite::Act));
    let act_flips = act.map_or(Vec::new(), |p| p.bitflips(my_global, step, SdcSite::Act));
    let act_noise = act
        .map(|p| {
            let seed = p.sdc_stream_seed(my_global, step, SdcSite::Act);
            (seed, p.noise_amp(my_global, step, SdcSite::Act))
        })
        .filter(|&(_, amp)| amp > 0.0);
    let inject_act = !act_flips.is_empty() || act_noise.is_some();
    let mut hook = |xs: &mut [f32]| {
        for fl in &act_flips {
            guard::flip_bit_f32(xs, fl.element(xs.len()), fl.bit);
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
    if let Some(p) = plan.filter(|_| !gs.is_applied(step, SdcSite::Grad)) {
        let flips = p.bitflips(my_global, step, SdcSite::Grad);
        if !flips.is_empty() {
            // Each flip hits one element of the whole parameter walk.
            let (mut total, mut seen) = (0, 0);
            model.visit_params(&mut |_, _, g| total += g.len());
            model.visit_params(&mut |_, _, g| {
                for fl in &flips {
                    let t = fl.element(total);
                    if (seen..seen + g.len()).contains(&t) {
                        guard::flip_bit_f32(g.as_mut_slice(), t - seen, fl.bit);
                    }
                }
                seen += g.len();
            });
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
        }
        if !flips.is_empty() || amp > 0.0 {
            gs.mark(step, SdcSite::Grad);
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
    // One bandwidth-bound pass over every gradient, charged plainly rather
    // than through a `Meter`: a `slow:` clause stretches compute, not this.
    let pass = price::membound(comm.cost(), 4.0 * total_elems as f64, 1.0);
    // Unscale: the whole backward ran multiplied by the loss scale, so the
    // synced gradients still carry it. Divide it back out *before* the
    // optimizer ever sees them — Adam must always consume gradients at their
    // true magnitude, or its m/v buffers would mix scales across
    // growth/backoff transitions. Exact: scales are powers
    // of two, so the clip norm `sync_grads` derived rescales exactly too.
    // (The scan statistics above were taken pre-unscale; the detector's
    // norm applies `inv_scale` to them below, so both views agree.)
    let unscale = gs.loss_scale.inv_scale();
    if unscale != 1.0 {
        model.scale_grads(unscale);
        clock.charge("guard:unscale", pass);
    }
    clock.charge("guard:scan", pass);
    // Guard status rides the loss all-reduce: one merged collective
    // carries [loss, shard_nonfinite, shard_sq_norm], so the per-step
    // guard traffic costs only its marginal bytes (charged as
    // `guard:reduce`), not an extra latency-bound collective. Element 0
    // sums in the same canonical order `reduce_loss` uses, so the global
    // loss is bitwise what the unmerged path would produce.
    let mut status = [local_loss as f32, shard_nonfin as f32, shard_sq as f32];
    comm.all_reduce_sum_f32(&mut status, clock)?;
    clock.commit("loss_allreduce");
    let marginal = (status.len() - 1) as f64 * 4.0;
    clock.charge("guard:reduce", price::membound(comm.cost(), marginal, 1.0));
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
            clock.charge("guard:clip", pass);
            clipped = true;
        }
    }
    if anomaly.is_none() {
        gs.policy.on_clean();
        gs.loss_scale.on_clean();
        model.apply_update();
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

/// Build this rank's model on `comm` and the data stream that goes with it:
/// from `image` when there is one, else fresh with the configured skew bias
/// (which then lives in the gate weights, so every image carries it). Route
/// tracking is on whenever the run rebalances. The start, every restore and
/// every join build through here; a rebalance rebuilds inside
/// [`RebalancePolicy::close_window`].
fn load(
    cfg: &TrainConfig,
    chaos: &ChaosConfig,
    image: Option<&Checkpoint>,
    comm: &Communicator,
) -> (DistMoeLm, DetRng) {
    let (rank, world) = (comm.rank(), comm.size());
    let (mut model, rng) = match image {
        Some(ckpt) => (
            DistMoeLm::from_checkpoint(cfg, ckpt, rank, world),
            DetRng::from_state(ckpt.rng_state),
        ),
        None => {
            let mut model = DistMoeLm::new(cfg, &build_moe_layers(cfg), rank, world);
            if let Some((a, b, delta)) = chaos.hot_bias {
                model.bias_router(a, delta);
                model.bias_router(b, delta);
            }
            (model, DetRng::new(cfg.seed ^ DATA_STREAM_SALT))
        }
    };
    model.set_route_tracking(chaos.rebalance.is_some());
    (model, rng)
}

/// One rank's mutable run state — what a rollback, a fail-stop restore, a
/// join and a rebalance rebuild — and the report it accumulates.
struct Run<'a> {
    cfg: &'a TrainConfig,
    chaos: &'a ChaosConfig,
    model: DistMoeLm,
    /// The data stream; its state is part of every checkpoint.
    rng: DetRng,
    gs: GuardState,
    policy: Option<RebalancePolicy>,
    report: ChaosReport,
    /// The image captured before `report.last_ckpt`: the CRC fallback.
    prev_ckpt: Option<Vec<u8>>,
    /// `(recovery index, clock at failure)` until the replay catches back up.
    catch_up: Option<(usize, f64)>,
}

impl<'a> Run<'a> {
    fn new(cfg: &'a TrainConfig, chaos: &'a ChaosConfig, comm: &Communicator) -> Self {
        let (model, rng) = load(cfg, chaos, None, comm);
        let gs = GuardState::new(&chaos.guard.unwrap_or_default());
        let report = ChaosReport {
            global_rank: comm.global_rank(),
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
            arena_steps: 0,
        };
        Self {
            cfg,
            chaos,
            model,
            rng,
            gs,
            policy: chaos.rebalance.map(RebalancePolicy::new),
            report,
            prev_ckpt: None,
            catch_up: None,
        }
    }

    /// The encoded image of the live state after `step` completed steps.
    fn capture(
        &mut self,
        step: u64,
        comm: &Communicator,
        clock: &mut SimClock,
    ) -> Result<Vec<u8>, CommError> {
        let ckpt = self
            .model
            .capture_checkpoint(step, self.rng.state(), comm, clock)?;
        Ok(ckpt.encode())
    }

    /// Log a guard trip; return the step of the last SDC injection at or
    /// before it. Without one the trip is a false positive. The plan is the
    /// harness oracle, identical on every rank, so this is rank-consistent
    /// even though the victim rank is not the detecting rank.
    fn trip(&mut self, plan: Option<&FaultPlan>, ev: GuardEvent) -> Option<u64> {
        let injected_at = plan.and_then(|p| p.last_sdc_at_or_before(ev.step));
        self.report.guard_false_positives += u64::from(injected_at.is_none());
        self.report.guard_events.push(ev);
        injected_at
    }

    /// Walk the policy ladder for one anomalous step and return the step
    /// to continue at. Every rank saw identical statistics, so every rank
    /// takes the identical action with no extra coordination.
    fn on_anomaly(
        &mut self,
        (site, detector, value): (&'static str, &'static str, f64),
        step: u64,
        plan: Option<&FaultPlan>,
        comm: &Communicator,
        clock: &mut SimClock,
    ) -> u64 {
        let action = self.gs.policy.decide();
        let ev = GuardEvent::new(step, site, detector, action.name(), value);
        let injected_at = self.trip(plan, ev);
        self.model.zero_all_grads();
        match action {
            PolicyAction::SkipStep => step + 1,
            PolicyAction::BackoffLossScale => {
                self.gs.loss_scale.on_overflow();
                step + 1
            }
            PolicyAction::RollbackToCheckpoint => {
                let rec = RecoveryStats {
                    detect_latency_steps: injected_at.map_or(0, |s| step - s),
                    ..RecoveryStats::default()
                };
                let t_trip = clock.now();
                self.restore(step, comm, clock, t_trip, rec)
            }
        }
    }

    /// Resume on `comm` from the newest intact checkpoint (a fresh model if
    /// none), record the recovery and arm its catch-up; returns the step to
    /// resume at. A guard rollback and a fail-stop restore differ only in
    /// `rec` (failed ranks, detect time and latency) and `t_fail`.
    fn restore(
        &mut self,
        step: u64,
        comm: &Communicator,
        clock: &mut SimClock,
        t_fail: f64,
        rec: RecoveryStats,
    ) -> u64 {
        // A corrupt `last` falls back to `prev` (both CRC-verified on decode).
        let (src, fell_back, err) = restore_source(&mut self.report.last_ckpt, &mut self.prev_ckpt);
        if fell_back {
            self.report.guard_events.push(GuardEvent {
                // The section-naming decode error, kept for postmortems.
                detail: err.unwrap_or_default(),
                ..GuardEvent::new(step, "ckpt", "crc", "fallback_prev_ckpt", 1.0)
            });
        }
        let image = src.map(|(ckpt, bytes)| {
            let t_io = price::membound(comm.cost(), bytes as f64, 1.0);
            clock.charge("ckpt_restore", t_io);
            ckpt
        });
        (self.model, self.rng) = load(self.cfg, self.chaos, image.as_ref(), comm);
        let resumed = image.map_or(0, |c| c.step);
        self.report.losses.retain(|&(s, _)| s < resumed);
        let restore_time = clock.now() - t_fail;
        let replayed = step - resumed;
        // A guard rollback is the recovery with no failed rank.
        let rollback = rec.failed_ranks.is_empty();
        self.report.recoveries.push(RecoveryStats {
            failed_at_step: step,
            resumed_from_step: resumed,
            steps_replayed: replayed,
            restore_time,
            mttr: rec.detect_time + restore_time,
            false_positives: self.report.guard_false_positives,
            steps_lost_to_rollback: if rollback { replayed } else { 0 },
            ..rec
        });
        self.catch_up = Some((self.report.recoveries.len() - 1, t_fail));
        resumed
    }

    /// Close the report at the rank's last step (or its exit).
    fn finish(mut self, comm: &Communicator) -> ChaosReport {
        self.report.final_world = comm.size();
        self.report.final_loss_scale = self.gs.loss_scale.scale();
        self.report.final_assignment = self.model.assignment().clone();
        self.report.arena = self.model.arena_stats();
        self.report.arena_steps = self.model.steps_run();
        self.report
    }
}

/// Per-rank chaos-run body. Returns `Err` only for faults the harness does
/// not model (a poisoned lock, a peer's panic, SPMD divergence, a dead peer
/// without a fault plan); planned rank deaths and recoveries are part of
/// the `Ok` report.
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
    let mut run = Run::new(cfg, chaos, &comm);
    // Join steps whose rendezvous already ran: a rollback replay that
    // crosses a join step must not re-grow a group that already holds the
    // joined ranks.
    let mut joins_done: BTreeSet<u64> = BTreeSet::new();

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
                let scatter = (!i_join)
                    .then(|| run.capture(step, &comm, &mut ctx.clock))
                    .transpose()?;
                // Rendezvous: every present rank meets in the grown
                // communicator; clocks align on the slowest member.
                let new_comm = ctx.world.grow(&members, &mut ctx.clock)?;
                ctx.clock.commit("elastic_join");
                // Checkpoint-free scatter: the lowest incumbent broadcasts
                // the in-memory image and every member rebuilds its shard
                // from the canonical global-expert-id keying.
                let root = members
                    .iter()
                    .position(|r| !joiners.contains(r))
                    .expect("a join rendezvous needs at least one incumbent rank");
                let bytes = new_comm.broadcast(root, scatter, &mut ctx.clock)?;
                ctx.clock.commit("elastic_scatter");
                let t_io = price::membound(ctx.cost(), bytes.len() as f64, 1.0);
                ctx.clock.charge("elastic_scatter", t_io);
                let ckpt = Checkpoint::decode(&bytes).expect("live scatter image failed its CRC");
                (run.model, run.rng) = load(cfg, chaos, Some(&ckpt), &new_comm);
                // The scattered image is the newest group-consistent
                // checkpoint; adopting it everywhere keeps later restores
                // rank-consistent (a joiner's stale copy must never win).
                run.prev_ckpt = None;
                run.report.last_ckpt = Some(bytes);
                if i_join {
                    // Pre-death entries belong to a trajectory the group
                    // replayed past while this rank was dark.
                    run.report.losses.clear();
                }
                // Detector/policy state restarts rank-consistently: a
                // joiner has no window history, so everyone drops theirs.
                // One-shot SDC delivery memory is per-rank and survives.
                run.gs = GuardState {
                    applied: std::mem::take(&mut run.gs.applied),
                    ..GuardState::new(&chaos.guard.unwrap_or_default())
                };
                run.policy = chaos.rebalance.map(RebalancePolicy::new);
                dead_so_far = (0..world0).filter(|&r| !p.is_present(r, step)).collect();
                joins_done.insert(step);
                run.report.joins.push(JoinStats {
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
                if run.report.exited_at.is_none() && p.is_dead(my_global, step) {
                    run.report.exited_at = Some(step);
                }
                if p.joins_of(my_global).iter().any(|&s| s > step) {
                    // Scheduled to (re)join later: idle without advancing
                    // the simulated clock; the rendezvous aligns it.
                    step += 1;
                    continue;
                }
                return Ok(run.finish(&comm));
            }
        }
        if let Some((i, t_err)) = run.catch_up {
            let r = &mut run.report.recoveries[i];
            if step >= r.failed_at_step {
                r.mttr = r.detect_time + (ctx.clock.now() - t_err);
                run.catch_up = None;
            }
        }
        ctx.set_step(step);
        comm.set_step(step);
        let step_seed = run.rng.next_u64();
        let batch = step_batch(cfg, step_seed, comm.rank());

        // ---- execute one step (guarded or plain) -----------------------
        let verdict = match &chaos.guard {
            Some(g) => guarded_step(
                g,
                &mut run.model,
                plan.as_deref(),
                my_global,
                step,
                &batch,
                &comm,
                &mut ctx.clock,
                &mut run.gs,
            ),
            None => run
                .model
                .train_step(&batch, &comm, &mut ctx.clock)
                .map(|global_loss| StepVerdict {
                    global_loss,
                    ..StepVerdict::default()
                }),
        };

        match verdict {
            Ok(StepVerdict {
                anomaly: Some(anomaly),
                ..
            }) => step = run.on_anomaly(anomaly, step, plan.as_deref(), &comm, &mut ctx.clock),
            Ok(v) => {
                run.report.grad_clips += u64::from(v.clipped);
                run.report.losses.push((step, v.global_loss));
                if chaos.ckpt_every > 0 && (step + 1).is_multiple_of(chaos.ckpt_every) {
                    let mut bytes = run.capture(step + 1, &comm, &mut ctx.clock)?;
                    // site=ckpt injection: corrupt this rank's copy of the
                    // freshly captured image.
                    let fresh = plan
                        .as_deref()
                        .filter(|_| !run.gs.is_applied(step, SdcSite::Ckpt));
                    if let Some(p) = fresh {
                        let flips = p.bitflips(my_global, step, SdcSite::Ckpt);
                        let len = bytes.len();
                        for fl in &flips {
                            guard::flip_bit_bytes(&mut bytes, fl.element(len), fl.bit);
                        }
                        if !flips.is_empty() {
                            run.gs.mark(step, SdcSite::Ckpt);
                        }
                    }
                    // Capture-time integrity vote (guarded runs): every rank
                    // checks its copy's CRCs and the group keeps the capture
                    // only if *all* copies verify. A corrupt copy on any rank
                    // discards the capture everywhere, so later restores
                    // agree on the bytes — rank-consistent by construction.
                    let mut votes = [comm.size() as f32];
                    if chaos.guard.is_some() {
                        // The per-section CRC pass is guard work.
                        let t_crc = price::membound(ctx.cost(), bytes.len() as f64, 1.0);
                        ctx.clock.charge("guard:crc", t_crc);
                        let ok = Checkpoint::decode(&bytes).is_ok();
                        votes = [if ok { 1.0 } else { 0.0 }];
                        comm.all_reduce_sum_f32(&mut votes, &mut ctx.clock)?;
                        ctx.clock.commit("guard:reduce");
                    }
                    if votes[0] as usize == comm.size() {
                        run.prev_ckpt = run.report.last_ckpt.take();
                        run.report.last_ckpt = Some(bytes);
                    } else {
                        let bad = comm.size() as f64 - votes[0] as f64;
                        let ev = GuardEvent::new(step, "ckpt", "crc", "discard_corrupt_ckpt", bad);
                        run.trip(plan.as_deref(), ev);
                    }
                }
                // ---- live expert rebalance: close a profiling window ---
                if let Some(pol) = run.policy.as_mut() {
                    let rng_state = run.rng.state();
                    let (model, clock) = (&mut run.model, &mut ctx.clock);
                    if let Some((decision, image)) =
                        pol.close_window(model, cfg, step + 1, rng_state, &comm, clock)?
                    {
                        run.report.rebalance_ckpt = Some(image.encode());
                        run.report.rebalances.push(decision);
                    }
                }
                step += 1;
            }
            Err(e @ CommError::DeadPeer { .. }) => {
                // `check_dead` already charged `fault_detect` before erring,
                // so `t_err` marks the end of detection.
                let t_err = ctx.clock.now();
                let Some(p) = plan.as_deref() else {
                    return Err(e);
                };
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
                // Re-form the group: every survivor joins color 0. The
                // placement grid rebuilt without the dead ranks must agree
                // with what the collective layer produced. Restore re-shards
                // any survivor count raggedly (floor-boundary contiguous
                // split); this rank survived, so there is at least one.
                comm = comm.split(0, &mut ctx.clock)?;
                let grid =
                    build_grid_excluding(world0, &dead_so_far, survivors, PlacementPolicy::EpFirst);
                assert_eq!(
                    grid.ep_groups[0].as_slice(),
                    comm.group_ranks(),
                    "recovered communicator disagrees with the placement grid"
                );
                let rec = RecoveryStats {
                    failed_ranks: newly_dead,
                    detect_time: p.detect_timeout,
                    ..RecoveryStats::default()
                };
                step = run.restore(step, &comm, &mut ctx.clock, t_err, rec);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(run.finish(&comm))
}
