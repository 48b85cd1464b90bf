//! The trainable MoE layer: forward and exact hand-written backward.
//!
//! Both are thin callers: forward is `xmoe-core`'s one padding-free layer
//! pass (gating → PFT → gather → per-expert FFN → weighted scatter) over the
//! local transport, with a residual connection, and backward is the one
//! layer backward of `moe_math`. It propagates through every path,
//! including the router: the combine weight `w_i = scores[t, e_i]` carries
//! gradient `d_w_i = <d_out[t], y_i>` back into the gating softmax, the
//! standard top-k MoE router gradient (dropped assignments receive none).

use xmoe_collectives::CommError;
use xmoe_core::gating::{row_logsumexp, z_loss_value, DropPolicy, RouterGuard};
use xmoe_core::pipeline::padding_free::Transport;
use xmoe_core::pipeline::MoeLayerSpec;
use xmoe_core::Expert;
use xmoe_tensor::{Tensor, Workspace};

pub use crate::moe_math::MoeCtx;
use crate::moe_math::{self, load_fractions, zero_grad, RouterParams};

/// A trainable MoE layer (all experts local — the loss-validation
/// experiment runs single-process, mirroring the paper's 16-GPU run whose
/// *numerics* are data-parallel-invariant).
#[derive(Clone, Debug)]
pub struct TrainableMoe {
    /// Router projection `[H, E]`.
    pub gate: Tensor,
    pub g_gate: Tensor,
    /// Expert weights (`w1 [H,F]`, `w2 [F,H]`) and their gradients.
    pub experts: Vec<Expert>,
    pub g_experts: Vec<Expert>,
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
        let experts: Vec<Expert> = (0..num_experts)
            .map(|e| {
                let s = seed.wrapping_add(e as u64 * 101);
                Expert {
                    w1: Tensor::rand_init(hidden, ffn, hidden, s),
                    w2: Tensor::rand_init(ffn, hidden, ffn, s ^ 0xF0F0),
                }
            })
            .collect();
        let g_experts = experts.iter().map(zero_grad).collect();
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
        let (x, scores) = (&ctx.x, &ctx.layer.gating.scores);
        let s = x.rows().max(1);
        let mut f = Vec::new();
        load_fractions(ctx.pft(), &mut f);
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
        let lse = row_logsumexp(ctx.layer.gate_scratch.logits());
        self.router_guard.z_loss_coef as f64 * z_loss_value(&lse)
    }

    pub fn num_experts(&self) -> usize {
        self.experts.len()
    }

    fn router_params(&self) -> RouterParams {
        RouterParams {
            spec: MoeLayerSpec::new(self.num_experts(), self.capacity).with_policy(self.policy),
            top_k: self.top_k,
            aux_alpha: self.aux_alpha,
            guard: self.router_guard,
        }
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
        let MoeTrainScratch { ws, ctx } = st;
        let p = self.router_params();
        local(moe_math::forward(
            &p,
            &self.gate,
            &self.experts,
            x,
            Transport::Local,
            ctx,
            ws,
        ))
    }

    /// Pooled [`Self::backward`]: consumes the forward state saved in
    /// `st.ctx` by [`Self::forward_pooled`].
    pub fn backward_pooled(&mut self, st: &mut MoeTrainScratch, d_out: &Tensor) -> Tensor {
        self.backward_scaled_pooled(st, d_out, 1.0)
    }

    /// Pooled [`Self::backward_scaled`]. The returned input gradient is
    /// leased from `st.ws`, and the expert saves go back there.
    pub fn backward_scaled_pooled(
        &mut self,
        st: &mut MoeTrainScratch,
        d_out: &Tensor,
        loss_scale: f32,
    ) -> Tensor {
        let p = self.router_params();
        let MoeTrainScratch { ws, ctx } = st;
        local(moe_math::backward(
            &p,
            (&self.gate, &mut self.g_gate),
            (&self.experts, &mut self.g_experts),
            ctx,
            Transport::Local,
            loss_scale,
            ws,
            d_out,
        ))
    }

    /// Zero all gradients.
    pub fn zero_grads(&mut self) {
        self.g_gate.as_mut_slice().fill(0.0);
        for g in &mut self.g_experts {
            g.w1.as_mut_slice().fill(0.0);
            g.w2.as_mut_slice().fill(0.0);
        }
    }
}

/// A pass over [`Transport::Local`] has no collective, so it cannot fail.
fn local(pass: Result<Tensor, CommError>) -> Tensor {
    pass.unwrap_or_else(|e| unreachable!("a local MoE pass has no collective: {e}"))
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
        assert_eq!(ctx.routed(), 7 * 2);
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
            let w0 = base.experts[e].w1.get(r, c);
            let fd = {
                let mut up = base.clone();
                up.experts[e].w1.set(r, c, w0 + eps);
                let mut dn = base.clone();
                dn.experts[e].w1.set(r, c, w0 - eps);
                (probe_loss(&up, &x, &probe) - probe_loss(&dn, &x, &probe)) / (2.0 * eps as f64)
            };
            let an = layer.g_experts[e].w1.get(r, c) as f64;
            assert!(rel_ok(fd, an), "dW1[{e}][{r},{c}] fd {fd} an {an}");
        }
        for &(e, r, c) in &[(0usize, 1usize, 2usize), (2, 4, 5)] {
            let w0 = base.experts[e].w2.get(r, c);
            let fd = {
                let mut up = base.clone();
                up.experts[e].w2.set(r, c, w0 + eps);
                let mut dn = base.clone();
                dn.experts[e].w2.set(r, c, w0 - eps);
                (probe_loss(&up, &x, &probe) - probe_loss(&dn, &x, &probe)) / (2.0 * eps as f64)
            };
            let an = layer.g_experts[e].w2.get(r, c) as f64;
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
        for (e, (p, s)) in plain.g_experts.iter().zip(&scaled.g_experts).enumerate() {
            assert!(
                eq(&p.w1, &s.w1) && eq(&p.w2, &s.w2),
                "expert {e} grads not scaled"
            );
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
        let scores = &ctx.layer.gating.scores;
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
        // Capacity 1: most, not all, assignments drop; gradients must
        // remain finite.
        let layer = tiny(DropPolicy::CapacityOnly, 1, 21);
        let x = Tensor::rand_uniform(8, 6, 1.0, 22);
        let (out, ctx) = layer.forward(&x);
        assert!(ctx.dropped() > 0);
        assert!(ctx.dropped() < x.rows() * 2, "not every assignment drops");
        let mut l2 = layer.clone();
        let d = Tensor::full(out.rows(), out.cols(), 1.0);
        let d_x = l2.backward(&ctx, &d);
        // The guard's non-finite scan must find nothing in a clean backward.
        assert_eq!(crate::guard::count_non_finite(d_x.as_slice()), 0);
    }

    #[test]
    fn negative_logit_policy_drops_more() {
        let x = Tensor::rand_uniform(16, 6, 1.0, 31);
        let cap = 100;
        let (_, ctx_x) = tiny(DropPolicy::CapacityOnly, cap, 30).forward(&x);
        let (_, ctx_d) = tiny(DropPolicy::CapacityAndNegativeLogit, cap, 30).forward(&x);
        assert!(ctx_d.dropped() >= ctx_x.dropped());
        assert!(ctx_d.routed() <= ctx_x.routed());
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
        for (e, (a, b)) in owned.g_experts.iter().zip(&pooled.g_experts).enumerate() {
            assert!(
                a.w1.allclose(&b.w1, 0.0) && a.w2.allclose(&b.w2, 0.0),
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
            .all(|g| g.w1.norm() == 0.0 && g.w2.norm() == 0.0));
    }
}
