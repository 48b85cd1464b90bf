//! The trainable MoE layer: forward and exact hand-written backward.
//!
//! Forward is the padding-free pipeline of `xmoe-core` (gating → PFT →
//! gather → per-expert FFN → weighted scatter) with a residual connection.
//! Backward propagates through every path, including the router: the
//! combine weight `w_i = scores[t, e_i]` carries gradient
//! `d_w_i = <d_out[t], y_i>` back into the gating softmax, which is the
//! standard top-k MoE router gradient (dropped assignments receive none).

use xmoe_core::gating::{z_loss_value, DropPolicy, RouterGuard};
use xmoe_core::pft::Pft;
use xmoe_tensor::{gather_rows_into, scatter_rows_scaled, scatter_rows_unit, Tensor, Workspace};

use crate::moe_math::{
    combine_backward, expert_ffn_backward, expert_ffn_forward, load_fractions, route,
    router_backward, BwdScratch, RouteScratch, RouterParams, RouterSave,
};

/// A trainable MoE layer (all experts local — the loss-validation
/// experiment runs single-process, mirroring the paper's 16-GPU run whose
/// *numerics* are data-parallel-invariant).
#[derive(Clone, Debug)]
pub struct TrainableMoe {
    /// Router projection `[H, E]`.
    pub gate: Tensor,
    pub g_gate: Tensor,
    /// Expert weights `(w1 [H,F], w2 [F,H])`.
    pub experts: Vec<(Tensor, Tensor)>,
    pub g_experts: Vec<(Tensor, Tensor)>,
    pub top_k: usize,
    pub capacity: usize,
    pub policy: DropPolicy,
    /// Switch-Transformer-style load-balancing auxiliary loss coefficient
    /// (`0.0` disables it): `L_aux = alpha * E * sum_e f_e * P_e`, where
    /// `f_e` is the fraction of routed assignments expert `e` received and
    /// `P_e` the mean gate probability it was given. Gradient flows through
    /// `P_e` only (`f_e` is piecewise constant), the standard treatment.
    pub aux_alpha: f32,
    /// Router numerical-health guards: logit clamping + ST-MoE z-loss.
    /// Defaults are inert (`0.0`/`0.0`), so existing numerics are
    /// bit-for-bit unchanged unless a guard is explicitly enabled.
    pub router_guard: RouterGuard,
}

/// Saved forward state.
#[derive(Clone, Default)]
pub struct MoeCtx {
    router: RouterSave,
    pft: Pft,
    dispatch_in: Tensor,
    h_pre: Tensor,
    h_act: Tensor,
    y: Tensor,
}

impl MoeCtx {
    /// Routed assignments dropped during this forward.
    pub fn dropped(&self) -> usize {
        self.pft.dropped
    }

    /// Retained routed assignments.
    pub fn routed(&self) -> usize {
        self.pft.len()
    }

    /// Per-expert retained token counts of this forward.
    pub fn tokens_per_expert(&self) -> &[usize] {
        &self.pft.tokens_per_expert
    }

    /// Logits limited by the clamp guard during this forward (0 when the
    /// guard is off or nothing was out of range) — a router-health signal.
    pub fn logits_clamped(&self) -> usize {
        self.router.logits_clamped
    }
}

/// Reusable scratch for the pooled training step: the workspace arena plus
/// every persistent staging buffer [`TrainableMoe::forward_pooled`] and
/// [`TrainableMoe::backward_scaled_pooled`] need. One instance per layer
/// per rank; after warm-up every lease is served from warm memory and a
/// steady-state step performs no transient heap allocation.
#[derive(Default)]
pub struct MoeTrainScratch {
    /// Arena leasing step-lifetime tensors. The tensors the pooled methods
    /// *return* (forward output, input gradient) are leased from here too —
    /// recycle them once consumed to keep the steady state allocation-free.
    pub ws: Workspace,
    /// Saved forward state, rebuilt in place each step.
    pub ctx: MoeCtx,
    pub(crate) route: RouteScratch,
    pub(crate) bwd: BwdScratch,
}

impl TrainableMoe {
    pub fn new(
        hidden: usize,
        ffn: usize,
        num_experts: usize,
        top_k: usize,
        capacity: usize,
        policy: DropPolicy,
        seed: u64,
    ) -> Self {
        let experts: Vec<(Tensor, Tensor)> = (0..num_experts)
            .map(|e| {
                let s = seed.wrapping_add(e as u64 * 101);
                (
                    Tensor::rand_init(hidden, ffn, hidden, s),
                    Tensor::rand_init(ffn, hidden, ffn, s ^ 0xF0F0),
                )
            })
            .collect();
        let g_experts = experts
            .iter()
            .map(|(a, b)| {
                (
                    Tensor::zeros(a.rows(), a.cols()),
                    Tensor::zeros(b.rows(), b.cols()),
                )
            })
            .collect();
        Self {
            gate: Tensor::rand_init(hidden, num_experts, hidden, seed ^ 0x51DE),
            g_gate: Tensor::zeros(hidden, num_experts),
            experts,
            g_experts,
            top_k,
            capacity,
            policy,
            aux_alpha: 0.0,
            router_guard: RouterGuard::default(),
        }
    }

    /// Enable the load-balancing auxiliary loss.
    pub fn with_aux(mut self, alpha: f32) -> Self {
        self.aux_alpha = alpha;
        self
    }

    /// Enable router health guards (logit clamp + z-loss).
    pub fn with_router_guard(mut self, guard: RouterGuard) -> Self {
        self.router_guard = guard;
        self
    }

    /// Value of the auxiliary loss for a saved forward context.
    pub fn aux_loss(&self, ctx: &MoeCtx) -> f64 {
        if self.aux_alpha == 0.0 {
            return 0.0;
        }
        let e_count = self.num_experts();
        let (x, scores) = (&ctx.router.x, &ctx.router.scores);
        let s = x.rows().max(1);
        let mut f = Vec::new();
        load_fractions(&ctx.pft, &mut f);
        let mut acc = 0.0f64;
        for e in 0..e_count {
            let mut p_mean = 0.0f64;
            for t in 0..x.rows() {
                p_mean += scores.get(t, e) as f64;
            }
            p_mean /= s as f64;
            acc += f[e] as f64 * p_mean;
        }
        self.aux_alpha as f64 * e_count as f64 * acc
    }

    /// Value of the z-loss term for a saved forward context (0 when the
    /// guard is off).
    pub fn z_loss(&self, ctx: &MoeCtx) -> f64 {
        if self.router_guard.z_loss_coef == 0.0 {
            return 0.0;
        }
        self.router_guard.z_loss_coef as f64 * z_loss_value(&ctx.router.lse)
    }

    pub fn num_experts(&self) -> usize {
        self.experts.len()
    }

    /// Fraction of routed assignments dropped in the most recent forward —
    /// the quantity §5.6 attributes the loss gap to.
    pub fn last_drop_fraction(ctx: &MoeCtx, top_k: usize) -> f64 {
        let total = ctx.router.x.rows() * top_k;
        if total == 0 {
            return 0.0;
        }
        ctx.pft.dropped as f64 / total as f64
    }

    fn router_params(&self) -> RouterParams {
        RouterParams {
            num_experts: self.num_experts(),
            top_k: self.top_k,
            capacity: self.capacity,
            policy: self.policy,
            aux_alpha: self.aux_alpha,
            guard: self.router_guard,
        }
    }

    /// `(hidden, ffn)` of the expert blocks.
    fn dims(&self) -> (usize, usize) {
        self.experts[0].0.shape()
    }

    /// Forward: `out = x + combine(experts(dispatch(x)))`. The pooled
    /// forward against a throwaway scratch, so the two are equal by
    /// construction.
    pub fn forward(&self, x: &Tensor) -> (Tensor, MoeCtx) {
        let mut st = MoeTrainScratch::default();
        let out = self.forward_pooled(x, &mut st);
        (out, st.ctx)
    }

    /// Backward: accumulates `g_gate` / `g_experts`, returns `d_x`.
    pub fn backward(&mut self, ctx: &MoeCtx, d_out: &Tensor) -> Tensor {
        self.backward_scaled(ctx, d_out, 1.0)
    }

    /// Backward under a dynamic loss scale: `d_out` already carries
    /// `loss_scale` (the caller multiplied the head gradient), so the
    /// locally-generated aux and z-loss gradients are multiplied by the
    /// same scale here — every term of the router gradient shares one
    /// scale, and unscaling restores the exact unscaled mix. Power-of-two
    /// scales keep this bitwise-invertible. The pooled backward over a
    /// throwaway scratch holding a copy of `ctx`.
    pub fn backward_scaled(&mut self, ctx: &MoeCtx, d_out: &Tensor, loss_scale: f32) -> Tensor {
        let mut st = MoeTrainScratch {
            ctx: ctx.clone(),
            ..MoeTrainScratch::default()
        };
        self.backward_scaled_pooled(&mut st, d_out, loss_scale)
    }

    /// [`Self::forward`] with every step-lifetime buffer reused from `st`.
    /// The saved forward state lands in `st.ctx`; the returned output is
    /// leased from `st.ws` — recycle it once consumed.
    pub fn forward_pooled(&self, x: &Tensor, st: &mut MoeTrainScratch) -> Tensor {
        let (h, f) = self.dims();
        let MoeTrainScratch {
            ws, ctx, route: sc, ..
        } = st;
        route(
            &self.router_params(),
            &self.gate,
            x,
            sc,
            &mut ctx.router,
            &mut ctx.pft,
        );
        gather_rows_into(x, &ctx.pft.token_ids, &mut ctx.dispatch_in);
        let b = ctx.pft.len();
        // For-overwrite: `expert_ffn_forward` writes all three whole.
        ctx.h_pre.resize_for_overwrite(b, f);
        ctx.h_act.resize_for_overwrite(b, f);
        ctx.y.resize_for_overwrite(b, h);
        expert_ffn_forward(
            &self.experts,
            &ctx.pft.tokens_per_expert,
            (h, f),
            ctx.dispatch_in.as_slice(),
            ctx.h_pre.as_mut_slice(),
            ctx.h_act.as_mut_slice(),
            ctx.y.as_mut_slice(),
        );
        // For-overwrite: the residual copy fills it.
        let mut out = ws.take_for_overwrite(x.rows(), h);
        out.as_mut_slice().copy_from_slice(x.as_slice());
        scatter_rows_scaled(
            &ctx.y,
            &ctx.pft.token_ids,
            &ctx.pft.combine_weights,
            &mut out,
        );
        out
    }

    /// Pooled [`Self::backward`]: consumes the forward state saved in
    /// `st.ctx` by [`Self::forward_pooled`].
    pub fn backward_pooled(&mut self, st: &mut MoeTrainScratch, d_out: &Tensor) -> Tensor {
        self.backward_scaled_pooled(st, d_out, 1.0)
    }

    /// Pooled [`Self::backward_scaled`]. The returned input gradient is
    /// leased from `st.ws`.
    pub fn backward_scaled_pooled(
        &mut self,
        st: &mut MoeTrainScratch,
        d_out: &Tensor,
        loss_scale: f32,
    ) -> Tensor {
        let dims = self.dims();
        let MoeTrainScratch { ws, ctx, bwd, .. } = st;
        // For-overwrite: the residual-path copy fills it.
        let mut d_x = ws.take_for_overwrite(d_out.rows(), d_out.cols());
        d_x.as_mut_slice().copy_from_slice(d_out.as_slice());
        let d_y = combine_backward(&ctx.pft, &ctx.y, d_out, bwd, ws);
        let d_dispatch = expert_ffn_backward(
            &self.experts,
            &mut self.g_experts,
            &ctx.pft.tokens_per_expert,
            dims,
            ctx.dispatch_in.as_slice(),
            ctx.h_pre.as_slice(),
            ctx.h_act.as_slice(),
            d_y,
            ws,
        );
        // Scatter dispatch grads back to token positions (gather transpose).
        scatter_rows_unit(&d_dispatch, &ctx.pft.token_ids, &mut d_x);
        ws.recycle(d_dispatch);
        router_backward(
            &self.router_params(),
            &self.gate,
            &mut self.g_gate,
            &ctx.router,
            &ctx.pft,
            loss_scale,
            bwd,
            ws,
            &mut d_x,
        );
        d_x
    }

    /// Zero all gradients.
    pub fn zero_grads(&mut self) {
        self.g_gate.as_mut_slice().fill(0.0);
        for (g1, g2) in &mut self.g_experts {
            g1.as_mut_slice().fill(0.0);
            g2.as_mut_slice().fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: DropPolicy, capacity: usize, seed: u64) -> TrainableMoe {
        TrainableMoe::new(6, 5, 4, 2, capacity, policy, seed)
    }

    /// Scalar probe loss: fixed random projection of the output.
    fn probe_loss(layer: &TrainableMoe, x: &Tensor, probe: &Tensor) -> f64 {
        let (out, _) = layer.forward(x);
        out.as_slice()
            .iter()
            .zip(probe.as_slice())
            .map(|(&o, &p)| (o * p) as f64)
            .sum()
    }

    #[test]
    fn forward_shapes_and_residual() {
        let layer = tiny(DropPolicy::CapacityOnly, 100, 1);
        let x = Tensor::rand_uniform(7, 6, 1.0, 2);
        let (out, ctx) = layer.forward(&x);
        assert_eq!(out.shape(), (7, 6));
        assert_eq!(ctx.pft.len(), 7 * 2);
        // With zeroed expert w2, output would equal x; with real weights it
        // must differ (the MoE contributes).
        assert!(!out.allclose(&x, 1e-6));
    }

    #[test]
    fn expert_gradients_match_finite_difference_under_topk() {
        // Expert weights do not influence routing, so their gradients are
        // exactly differentiable even with k < E.
        let base = tiny(DropPolicy::CapacityOnly, 100, 11);
        let x = Tensor::rand_uniform(5, 6, 1.0, 12);
        let probe = Tensor::rand_uniform(5, 6, 1.0, 13);
        let mut layer = base.clone();
        let (_, ctx) = layer.forward(&x);
        let _ = layer.backward(&ctx, &probe);

        let eps = 1e-2f32;
        let rel_ok = |fd: f64, an: f64| (fd - an).abs() < 3e-2 * (1.0 + an.abs().max(fd.abs()));
        for &(e, r, c) in &[(0usize, 0usize, 0usize), (1, 2, 3), (3, 5, 1)] {
            let w0 = base.experts[e].0.get(r, c);
            let fd = {
                let mut up = base.clone();
                up.experts[e].0.set(r, c, w0 + eps);
                let mut dn = base.clone();
                dn.experts[e].0.set(r, c, w0 - eps);
                (probe_loss(&up, &x, &probe) - probe_loss(&dn, &x, &probe)) / (2.0 * eps as f64)
            };
            let an = layer.g_experts[e].0.get(r, c) as f64;
            assert!(rel_ok(fd, an), "dW1[{e}][{r},{c}] fd {fd} an {an}");
        }
        for &(e, r, c) in &[(0usize, 1usize, 2usize), (2, 4, 5)] {
            let w0 = base.experts[e].1.get(r, c);
            let fd = {
                let mut up = base.clone();
                up.experts[e].1.set(r, c, w0 + eps);
                let mut dn = base.clone();
                dn.experts[e].1.set(r, c, w0 - eps);
                (probe_loss(&up, &x, &probe) - probe_loss(&dn, &x, &probe)) / (2.0 * eps as f64)
            };
            let an = layer.g_experts[e].1.get(r, c) as f64;
            assert!(rel_ok(fd, an), "dW2[{e}][{r},{c}] fd {fd} an {an}");
        }
    }

    #[test]
    fn router_and_input_gradients_match_fd_with_full_k() {
        // With k = E every expert is selected, so there is no selection
        // boundary and the router/input gradients are exact.
        let mut base = tiny(DropPolicy::CapacityOnly, 100, 51);
        base.top_k = base.num_experts();
        let x = Tensor::rand_uniform(5, 6, 1.0, 52);
        let probe = Tensor::rand_uniform(5, 6, 1.0, 53);
        let mut layer = base.clone();
        let (_, ctx) = layer.forward(&x);
        let d_x = layer.backward(&ctx, &probe);

        let eps = 1e-2f32;
        let rel_ok = |fd: f64, an: f64| (fd - an).abs() < 3e-2 * (1.0 + an.abs().max(fd.abs()));
        for &(r, c) in &[(0usize, 0usize), (3, 2), (5, 3)] {
            let w0 = base.gate.get(r, c);
            let fd = {
                let mut up = base.clone();
                up.gate.set(r, c, w0 + eps);
                let mut dn = base.clone();
                dn.gate.set(r, c, w0 - eps);
                (probe_loss(&up, &x, &probe) - probe_loss(&dn, &x, &probe)) / (2.0 * eps as f64)
            };
            let an = layer.g_gate.get(r, c) as f64;
            assert!(rel_ok(fd, an), "dGate[{r},{c}] fd {fd} an {an}");
        }
        for &(r, c) in &[(0usize, 0usize), (2, 4)] {
            let v0 = x.get(r, c);
            let fd = {
                let mut up = x.clone();
                up.set(r, c, v0 + eps);
                let mut dn = x.clone();
                dn.set(r, c, v0 - eps);
                (probe_loss(&base, &up, &probe) - probe_loss(&base, &dn, &probe))
                    / (2.0 * eps as f64)
            };
            let an = d_x.get(r, c) as f64;
            assert!(rel_ok(fd, an), "dX[{r},{c}] fd {fd} an {an}");
        }
    }

    #[test]
    fn z_loss_gradient_matches_fd_with_full_k() {
        // Total loss = probe projection + z-loss; with k = E the router
        // gradient is exact, so FD over gate weights must match backward
        // including the z term.
        let mut base = tiny(DropPolicy::CapacityOnly, 100, 61);
        base.top_k = base.num_experts();
        let base = base.with_router_guard(RouterGuard {
            logit_clamp: 0.0,
            z_loss_coef: 0.1,
        });
        let x = Tensor::rand_uniform(5, 6, 1.0, 62);
        let probe = Tensor::rand_uniform(5, 6, 1.0, 63);
        let total_loss = |layer: &TrainableMoe| -> f64 {
            let (out, ctx) = layer.forward(&x);
            let p: f64 = out
                .as_slice()
                .iter()
                .zip(probe.as_slice())
                .map(|(&o, &q)| (o * q) as f64)
                .sum();
            p + layer.z_loss(&ctx)
        };
        let mut layer = base.clone();
        let (_, ctx) = layer.forward(&x);
        assert!(layer.z_loss(&ctx) > 0.0);
        let _ = layer.backward(&ctx, &probe);

        let eps = 1e-2f32;
        let rel_ok = |fd: f64, an: f64| (fd - an).abs() < 3e-2 * (1.0 + an.abs().max(fd.abs()));
        for &(r, c) in &[(0usize, 0usize), (3, 2), (5, 3)] {
            let w0 = base.gate.get(r, c);
            let fd = {
                let mut up = base.clone();
                up.gate.set(r, c, w0 + eps);
                let mut dn = base.clone();
                dn.gate.set(r, c, w0 - eps);
                (total_loss(&up) - total_loss(&dn)) / (2.0 * eps as f64)
            };
            let an = layer.g_gate.get(r, c) as f64;
            assert!(rel_ok(fd, an), "dGate[{r},{c}] fd {fd} an {an}");
        }
    }

    #[test]
    fn scaled_backward_scales_aux_and_z_terms_with_the_main_loss() {
        // Under a dynamic loss scale every router-gradient term — main
        // loss (via d_out), aux load-balancing loss, and z-loss — must
        // carry the same scale, or unscaling would change the effective
        // aux/z weighting by 1/scale. Power-of-two scaling commutes
        // bitwise with every float op in backward, so the scaled run must
        // equal scale × the unscaled run exactly.
        let scale = 4.0f32;
        let base = tiny(DropPolicy::CapacityOnly, 100, 81)
            .with_aux(0.05)
            .with_router_guard(RouterGuard {
                logit_clamp: 0.0,
                z_loss_coef: 0.1,
            });
        let x = Tensor::rand_uniform(5, 6, 1.0, 82);
        let probe = Tensor::rand_uniform(5, 6, 1.0, 83);
        let mut probe_scaled = probe.clone();
        for v in probe_scaled.as_mut_slice() {
            *v *= scale;
        }

        let mut plain = base.clone();
        let (_, ctx) = plain.forward(&x);
        let d_x = plain.backward(&ctx, &probe);

        let mut scaled = base.clone();
        let (_, ctx_s) = scaled.forward(&x);
        let d_x_s = scaled.backward_scaled(&ctx_s, &probe_scaled, scale);

        let eq = |a: &Tensor, b: &Tensor| {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(&p, &s)| (p * scale).to_bits() == s.to_bits())
        };
        assert!(eq(&plain.g_gate, &scaled.g_gate), "router grad not scaled");
        for (e, ((p1, p2), (s1, s2))) in plain.g_experts.iter().zip(&scaled.g_experts).enumerate() {
            assert!(eq(p1, s1) && eq(p2, s2), "expert {e} grads not scaled");
        }
        assert!(eq(&d_x, &d_x_s), "input grad not scaled");
    }

    #[test]
    fn logit_clamp_bounds_scores_and_reports_hits() {
        let mut hot = tiny(DropPolicy::CapacityOnly, 100, 71);
        // Blow up the router projection so raw logits leave [-1, 1].
        for v in hot.gate.as_mut_slice() {
            *v *= 100.0;
        }
        let x = Tensor::rand_uniform(6, 6, 1.0, 72);
        let unguarded = hot.clone();
        let (_, ctx_raw) = unguarded.forward(&x);
        assert_eq!(ctx_raw.logits_clamped(), 0);
        let guarded = hot.with_router_guard(RouterGuard {
            logit_clamp: 1.0,
            z_loss_coef: 0.0,
        });
        let (out, ctx) = guarded.forward(&x);
        assert!(ctx.logits_clamped() > 0);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        // With all logits in [-1, 1] no softmax score can exceed
        // e^2 / (E - 1 + e^2) < 1; the router can no longer saturate.
        let scores = &ctx.router.scores;
        let e = scores.cols() as f32;
        let cap = (2.0f32).exp() / (e - 1.0 + (2.0f32).exp());
        for t in 0..scores.rows() {
            for j in 0..scores.cols() {
                assert!(scores.get(t, j) <= cap + 1e-6);
            }
        }
    }

    #[test]
    fn dropped_tokens_receive_no_expert_gradient() {
        // Capacity 1: most assignments drop; gradients must remain finite
        // and the drop fraction visible.
        let layer = tiny(DropPolicy::CapacityOnly, 1, 21);
        let x = Tensor::rand_uniform(8, 6, 1.0, 22);
        let (out, ctx) = layer.forward(&x);
        assert!(ctx.pft.dropped > 0);
        let frac = TrainableMoe::last_drop_fraction(&ctx, 2);
        assert!(frac > 0.0 && frac < 1.0);
        let mut l2 = layer.clone();
        let d = Tensor::full(out.rows(), out.cols(), 1.0);
        let d_x = l2.backward(&ctx, &d);
        // The guard's non-finite scan is the recoverable path production
        // runs use (a Divergence trips a policy instead of aborting); a
        // clean backward must report no anomaly through it.
        assert_eq!(crate::guard::check_finite("d_x", d_x.as_slice()), Ok(()));
    }

    #[test]
    fn negative_logit_policy_drops_more() {
        let x = Tensor::rand_uniform(16, 6, 1.0, 31);
        let cap = 100;
        let (_, ctx_x) = tiny(DropPolicy::CapacityOnly, cap, 30).forward(&x);
        let (_, ctx_d) = tiny(DropPolicy::CapacityAndNegativeLogit, cap, 30).forward(&x);
        assert!(ctx_d.pft.dropped >= ctx_x.pft.dropped);
        assert!(ctx_d.pft.len() <= ctx_x.pft.len());
    }

    #[test]
    fn pooled_step_is_bitwise_identical_to_owned() {
        // Aux loss, both router guards, capacity drops, and a loss scale
        // all on at once: the pooled step must still reproduce the owned
        // step bit for bit, and after warm-up the arena must serve every
        // lease from its free lists.
        let base = tiny(DropPolicy::CapacityOnly, 4, 91)
            .with_aux(0.05)
            .with_router_guard(RouterGuard {
                logit_clamp: 1.0,
                z_loss_coef: 0.1,
            });
        let mut owned = base.clone();
        let mut pooled = base.clone();
        let mut st = MoeTrainScratch::default();
        let scale = 2.0f32;
        for step in 0..4u64 {
            let x = Tensor::rand_uniform(9, 6, 1.0, 900 + step);
            let probe = Tensor::rand_uniform(9, 6, 1.0, 950 + step);
            let (out_o, ctx) = owned.forward(&x);
            let d_o = owned.backward_scaled(&ctx, &probe, scale);
            let out_p = pooled.forward_pooled(&x, &mut st);
            let d_p = pooled.backward_scaled_pooled(&mut st, &probe, scale);
            assert!(out_o.allclose(&out_p, 0.0), "step {step}: forward diverged");
            assert!(d_o.allclose(&d_p, 0.0), "step {step}: d_x diverged");
            assert_eq!(ctx.dropped(), st.ctx.dropped(), "step {step}: drops");
            st.ws.recycle(out_p);
            st.ws.recycle(d_p);
        }
        assert!(
            owned.g_gate.allclose(&pooled.g_gate, 0.0),
            "g_gate diverged"
        );
        for (e, ((a1, a2), (b1, b2))) in owned.g_experts.iter().zip(&pooled.g_experts).enumerate() {
            assert!(
                a1.allclose(b1, 0.0) && a2.allclose(b2, 0.0),
                "expert {e} grads diverged"
            );
        }
        let before = st.ws.stats().pool_misses;
        let x = Tensor::rand_uniform(9, 6, 1.0, 990);
        let probe = Tensor::rand_uniform(9, 6, 1.0, 991);
        let out = pooled.forward_pooled(&x, &mut st);
        let d = pooled.backward_scaled_pooled(&mut st, &probe, scale);
        st.ws.recycle(out);
        st.ws.recycle(d);
        assert_eq!(
            st.ws.stats().pool_misses,
            before,
            "warm step missed the pool"
        );
    }

    #[test]
    fn zero_grads_clears_everything() {
        let mut layer = tiny(DropPolicy::CapacityOnly, 100, 41);
        let x = Tensor::rand_uniform(4, 6, 1.0, 42);
        let (out, ctx) = layer.forward(&x);
        let d = Tensor::full(out.rows(), out.cols(), 1.0);
        let _ = layer.backward(&ctx, &d);
        assert!(layer.g_gate.norm() > 0.0);
        layer.zero_grads();
        assert_eq!(layer.g_gate.norm(), 0.0);
        assert!(layer
            .g_experts
            .iter()
            .all(|(a, b)| a.norm() == 0.0 && b.norm() == 0.0));
    }
}
