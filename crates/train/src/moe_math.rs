//! The padding-free MoE layer's training half (paper §4.1 Listing 1). The
//! forward is core's one layer pass, [`padding_free::forward`], run by
//! [`forward`] with the residual and the saves; the backward is written once
//! here, [`backward`]. [`crate::moe_layer::TrainableMoe`] runs both over
//! [`Transport::Local`] and [`crate::dist::DistMoe`] over [`Transport::Ep`];
//! nothing else differs, so they agree bit for bit by construction.

use xmoe_collectives::CommError;
use xmoe_core::expert::FfnRows;
use xmoe_core::gating::{row_logsumexp_into, RouterGuard};
use xmoe_core::pft::Pft;
use xmoe_core::pipeline::padding_free::{self, ExpertKernel, ExpertSaves, LayerState, Transport};
use xmoe_core::pipeline::MoeLayerSpec;
use xmoe_core::price::{self, backward as bwd, F32};
use xmoe_core::route::Payload;
use xmoe_core::Expert;
use xmoe_tensor::{
    add_assign, gemm_grouped_transpose_a_blocks, gemm_grouped_transpose_b, matmul_transpose_a_add,
    matmul_transpose_b_slices, scatter_rows_unit, silu_grad_slice, RowSink, RowSource, Tensor,
    Workspace,
};

/// Router hyper-parameters of one layer.
#[derive(Clone, Copy)]
pub(crate) struct RouterParams {
    pub spec: MoeLayerSpec,
    pub top_k: usize,
    pub aux_alpha: f32,
    pub guard: RouterGuard,
}

/// Everything one MoE layer's training step keeps, rebuilt in place by
/// every [`forward`]: the layer pass's own state (gate output, route and
/// PFT), its saves — leases the backward hands back — the router's saves
/// and the backward's grow-once scratch. One per layer per rank.
#[derive(Clone, Default)]
pub struct MoeCtx {
    pub(crate) layer: LayerState,
    pub(crate) experts: ExpertSaves,
    /// The layer input `[S, H]`.
    pub(crate) x: Tensor,
    /// Per-token `logsumexp` of the clamped logits: the z-loss backward's.
    lse: Vec<f32>,
    /// The schedule an EP forward ran and its backward mirrors (`None` =
    /// serial, `Some(k)` = `k` pipelined chunks).
    pub(crate) chunks: Option<usize>,
    /// The combine-weight gradients and load fractions of the backward.
    d_w: Vec<f32>,
    aux_f: Vec<f32>,
}

impl MoeCtx {
    /// PFT of this forward (global expert ids, source order).
    pub fn pft(&self) -> &Pft {
        &self.layer.route.pft
    }

    /// Rows of the input this forward saw.
    pub fn tokens(&self) -> usize {
        self.x.rows()
    }

    /// Routed assignments dropped during this forward.
    pub fn dropped(&self) -> usize {
        self.pft().dropped
    }

    /// Retained routed assignments.
    pub fn routed(&self) -> usize {
        self.pft().len()
    }

    /// Per-expert retained token counts of this forward.
    pub fn tokens_per_expert(&self) -> &[usize] {
        &self.pft().tokens_per_expert
    }

    /// Logits limited by the clamp guard during this forward (0 when the
    /// guard is off or nothing was out of range) — a router-health signal.
    pub fn logits_clamped(&self) -> usize {
        self.layer.logits_clamped
    }

    /// Hand the expert-side saves back to the arena they were leased from.
    pub(crate) fn release_expert_saves(&mut self, ws: &mut Workspace) {
        let s = &mut self.experts;
        for t in [&mut s.input, &mut s.h_pre, &mut s.h_act] {
            ws.recycle(std::mem::take(t));
        }
    }
}

/// A zero gradient shaped like `e`.
pub(crate) fn zero_grad(e: &Expert) -> Expert {
    Expert {
        w1: Tensor::zeros(e.w1.rows(), e.w1.cols()),
        w2: Tensor::zeros(e.w2.rows(), e.w2.cols()),
    }
}

/// The training forward: core's layer pass with the logit clamp, the
/// residual (`out = x + combine(..)`, leased from `ws`) and the saves, then
/// the router's: the input (the clamped logits stay in the gate scratch).
pub(crate) fn forward(
    p: &RouterParams,
    gate: &Tensor,
    experts: &[Expert],
    x: &Tensor,
    transport: Transport,
    ctx: &mut MoeCtx,
    ws: &mut Workspace,
) -> Result<Tensor, CommError> {
    let residual = |ws: &mut Workspace| {
        // For-overwrite: the residual copy fills it.
        let mut out = ws.take_for_overwrite(x.rows(), x.cols());
        out.as_mut_slice().copy_from_slice(x.as_slice());
        out
    };
    let out = padding_free::forward(
        x,
        (gate, p.top_k, p.guard.logit_clamp),
        experts,
        &p.spec,
        transport,
        ExpertKernel::Plain,
        &mut ctx.layer,
        ws,
        residual,
        Some(&mut ctx.experts),
    )?;
    // For-overwrite: the copy fills it.
    ctx.x.resize_for_overwrite(x.rows(), x.cols());
    ctx.x.as_mut_slice().copy_from_slice(x.as_slice());
    Ok(out)
}

/// The MoE layer backward, written once, over the transport (and chunking)
/// the forward ran: the exchange of the expert-FFN backward → dispatch
/// transpose → router backward. Accumulates `g_gate` and `g_experts`,
/// returns `d_x` (leased from `ws`) and hands the expert saves back. Each
/// routed entry's `d_out[t]` goes to its expert unscaled with its combine
/// weight `w`; the combine backward runs there, inside the `d_h` GEMM
/// (`⟨d_out[t], act·W2⟩ = ⟨d_out[t]·W2ᵀ, act⟩`), so no transport keeps `y`.
/// Over a wire (`Ep`) the route reads the `d_out[t]` rows by token id into
/// its buffers with `w` after them, and `d_input` comes back in their place
/// with `d_w` in `w`'s, to be scattered onto `d_x`. `Local` reads `d_out[t]`
/// and the expert input by the PFT's token ids, and the last GEMM adds
/// `d_input` straight onto `d_x` — every value the bits of the `Ep`
/// schedule. `d_out` carries `loss_scale`, which the aux and z-loss terms
/// take on too. Each compute stage charges [`price::backward`] of its forward
/// price under `bwd_*`, as [`price::StageTimes`] lists the backward.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward(
    p: &RouterParams,
    (gate, g_gate): (&Tensor, &mut Tensor),
    (experts, g_experts): (&[Expert], &mut [Expert]),
    ctx: &mut MoeCtx,
    mut transport: Transport,
    loss_scale: f32,
    ws: &mut Workspace,
    d_out: &Tensor,
) -> Result<Tensor, CommError> {
    let (h, f) = (d_out.cols(), ctx.experts.h_pre.cols());
    // For-overwrite: the residual-path copy fills it.
    let mut d_x = ws.take_for_overwrite(d_out.rows(), h);
    d_x.as_mut_slice().copy_from_slice(d_out.as_slice());

    let MoeCtx {
        layer,
        experts: saves,
        x,
        d_w,
        ..
    } = &mut *ctx;
    let local = matches!(transport, Transport::Local);
    let n = layer.route.pft.len();
    // Each entry's combine weight goes out; its gradient comes back.
    d_w.clear();
    d_w.extend_from_slice(&layer.route.pft.combine_weights);
    let mut meter = transport.meter();
    meter.charge("bwd_buffer_combine", |c| bwd(price::gather(c, n, h)));
    let labels = ("bwd_combine_a2a", "bwd_expert", "bwd_dispatch_a2a");
    let d_dispatch = transport.exchange(
        &mut layer.route,
        (Payload::Tokens(d_out), Some(d_w)),
        labels,
        ws,
        |plan, counts, pft, (mut chunk, w), mut meter, _| {
            let ((e0, e1), (r0, r1)) = (plan.experts, plan.rows);
            let n = (r1 - r0) as f64;
            meter.charge("bwd_expert", |c| bwd(price::expert_seq(c, n, h, f, F32)));
            let (experts, grads) = (&experts[e0..e1], &mut g_experts[e0..e1]);
            let h_pre = &saves.h_pre.as_slice()[r0 * f..r1 * f];
            let h_act = &mut saves.h_act.as_mut_slice()[r0 * f..r1 * f];
            let (input, rows) = match pft {
                None => {
                    let input = &saves.input.as_slice()[r0 * h..r1 * h];
                    (input.into(), FfnRows::InPlace(chunk.as_mut_slice()))
                }
                Some(pft) => {
                    let (ids, src, scale) = (&pft.token_ids, d_out.as_slice(), None);
                    let d_out = RowSource::Gathered { src, ids, scale };
                    let (out, weights) = (d_x.as_mut_slice(), None);
                    let d_input = RowSink::Combine { out, ids, weights };
                    let src = x.as_slice();
                    let input = RowSource::Gathered { src, ids, scale };
                    (input, FfnRows::Apart(d_out, d_input))
                }
            };
            let acts = (h_pre, h_act, w);
            expert_ffn_backward(experts, grads, counts, (h, f), input, acts, rows);
            chunk
        },
    )?;
    ctx.release_expert_saves(ws);
    // Scatter dispatch grads back to token positions (gather transpose);
    // `Local`'s last expert GEMM added them onto `d_x` already.
    if !local {
        scatter_rows_unit(&d_dispatch, &ctx.pft().token_ids, &mut d_x);
    }
    ws.recycle(d_dispatch);
    let mut meter = transport.meter();
    meter.charge("bwd_buffer_dispatch", |c| bwd(price::gather(c, n, h)));

    router_backward(p, gate, g_gate, ctx, loss_scale, ws, &mut d_x);
    let (s, e, k) = (ctx.x.rows() as f64, p.spec.num_experts, p.top_k);
    let mut meter = transport.meter();
    meter.charge("bwd_gating", |c| bwd(price::gating(c, s, h, e, k)));
    Ok(d_x)
}

/// Backward of [`expert_ffn`](xmoe_core::expert::expert_ffn) over the same
/// segments, from each row's output gradient `d_out` (read where `rows`
/// says, [`FfnRows`]: the rows that came over a wire, or by token id) and
/// its combine weight in `w`: adds `dW2_e = act_e^T·(w·d_out)_e` (the TN
/// scales each row as it packs it), then the `d_h` NT's rows
/// `g = d_out·W2^T` give `d_w = ⟨g, act⟩` into `w` and `d_act = w·g` over
/// `h_act` ([`RowSink::DotScale`]); then SiLU', `dW1_e = x_e^T·d_h_e` and
/// `d_input = d_h·W1^T`, put where `rows` says (over the rows that came over
/// a wire, or added onto the layer's `d_x`). `input` gives the rows `x_e`:
/// saved, or gathered from the layer input by token id, which the TN kernel
/// packs one expert at a time, so no `[rows, h]` copy exists. Each expert's
/// product is summed on its own and then added to its gradient tensor in one
/// step (the TN kernel's AddFresh store) — accumulating the terms straight
/// into `grads` would reassociate the float sums — with no staging block and
/// no transpose materialised (the transpose-A kernel keeps the accumulation
/// order of transpose-then-matmul).
fn expert_ffn_backward(
    experts: &[Expert],
    grads: &mut [Expert],
    counts: &[usize],
    (h, f): (usize, usize),
    input: RowSource<'_>,
    (h_pre, h_act, w): (&[f32], &mut [f32], &mut [f32]),
    rows: FfnRows,
) {
    let d_out = rows.source();
    let dw2 = grads.iter_mut().map(|g| g.w2.as_mut_slice());
    let d_y = d_out.scaled(w);
    gemm_grouped_transpose_a_blocks(RowSource::Contiguous(h_act), counts, f, d_y, h, dw2);
    // d_w = <d_out·W2^T, act>, then d_act = w·(d_out·W2^T), over the
    // activations' buffer; then through SiLU.
    let w2 = |e: usize| experts[e].w2.as_slice();
    let d_act = RowSink::DotScale { act: h_act, w };
    gemm_grouped_transpose_b(d_out, counts, h, w2, f, d_act);
    let d_h = h_act;
    silu_grad_slice(d_h, h_pre);
    let dw1 = grads.iter_mut().map(|g| g.w1.as_mut_slice());
    gemm_grouped_transpose_a_blocks(input, counts, h, &*d_h, f, dw1);
    let w1 = |e: usize| experts[e].w1.as_slice();
    gemm_grouped_transpose_b(&*d_h, counts, f, w1, h, rows.sink());
}

/// Router backward: combine-weight grads scattered to the retained `(t, e)`
/// score entries → aux load-balancing term → softmax backward → z-loss on
/// the logits, then `g_gate += x^T·d_logits` and `d_x += d_logits·gate^T`.
/// The locally generated aux and z-loss terms carry `loss_scale` so every
/// term of the router gradient shares the scale `d_out` already has.
#[allow(clippy::too_many_arguments)]
fn router_backward(
    p: &RouterParams,
    gate: &Tensor,
    g_gate: &mut Tensor,
    ctx: &mut MoeCtx,
    loss_scale: f32,
    ws: &mut Workspace,
    d_x: &mut Tensor,
) {
    let MoeCtx {
        layer,
        x,
        lse,
        d_w,
        aux_f,
        ..
    } = ctx;
    let (pft, scores) = (&layer.route.pft, &layer.gating.scores);
    let (s, h) = x.shape();
    let e_count = p.spec.num_experts;
    let mut d_scores = ws.take(s, e_count);
    for i in 0..pft.len() {
        let (t, e) = (pft.token_ids[i], pft.expert_ids[i]);
        d_scores.set(t, e, d_scores.get(t, e) + d_w[i]);
    }
    // dL_aux/dscores[t, e] = alpha·E·f_e/S (gradient flows through P_e
    // only; the load fraction f_e is piecewise constant).
    if p.aux_alpha != 0.0 {
        load_fractions(pft, aux_f);
        let coef = p.aux_alpha * e_count as f32 * (1.0 / s.max(1) as f32) * loss_scale;
        for t in 0..s {
            for (d, &f) in d_scores.row_mut(t).iter_mut().zip(aux_f.iter()) {
                *d += coef * f;
            }
        }
    }
    // For-overwrite: the row loop writes every element.
    let mut d_logits = ws.take_for_overwrite(s, e_count);
    for t in 0..s {
        let s_row = scores.row(t);
        let ds_row = d_scores.row(t);
        let inner: f32 = s_row.iter().zip(ds_row).map(|(s, d)| s * d).sum();
        let dl_row = d_logits.row_mut(t);
        for j in 0..e_count {
            dl_row[j] = s_row[j] * (ds_row[j] - inner);
        }
    }
    // dL_z/dl[t, j] = coef·(2/S)·z_t·scores[t, j], straight onto the logits.
    if p.guard.z_loss_coef != 0.0 {
        row_logsumexp_into(layer.gate_scratch.logits(), lse);
        let coef = p.guard.z_loss_coef * 2.0 * loss_scale / s.max(1) as f32;
        for t in 0..s {
            let z = lse[t];
            let s_row = scores.row(t);
            let dl_row = d_logits.row_mut(t);
            for j in 0..e_count {
                dl_row[j] += coef * z * s_row[j];
            }
        }
    }
    ws.recycle(d_scores);
    // g_gate += x^T·d_logits: the bits of transpose + matmul + add, with no
    // transpose, product tensor or add pass (row-panelled on the pool above
    // `PAR_CUTOFF`).
    matmul_transpose_a_add(x, &d_logits, g_gate);
    // For-overwrite: `d_x_gate` is one GEMM's whole output.
    let mut d_x_gate = ws.take_for_overwrite(s, h);
    matmul_transpose_b_slices(
        d_logits.as_slice(),
        s,
        e_count,
        gate.as_slice(),
        h,
        d_x_gate.as_mut_slice(),
    );
    add_assign(d_x, &d_x_gate);
    ws.recycle(d_x_gate);
    ws.recycle(d_logits);
}

/// Per-expert fractions `f_e` of the retained assignments.
pub(crate) fn load_fractions(pft: &Pft, out: &mut Vec<f32>) {
    let total: usize = pft.tokens_per_expert.iter().sum();
    let denom = total.max(1) as f32;
    out.clear();
    out.extend(pft.tokens_per_expert.iter().map(|&c| c as f32 / denom));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{DistMoe, DistMoeScratch};
    use crate::moe_layer::{MoeTrainScratch, TrainableMoe};
    use xmoe_collectives::SimCluster;
    use xmoe_core::gating::DropPolicy;
    use xmoe_tensor::{matmul, matmul_transpose_b};

    /// How far (relative to the largest magnitude of each gradient) the
    /// backward may sit from the formulas it reassociated.
    const REL: f32 = 1e-5;

    /// A step's gradients: the combine weights', the input's, the router's
    /// and the experts'.
    struct Grads {
        d_w: Vec<f32>,
        d_x: Tensor,
        g_gate: Tensor,
        g_experts: Vec<Expert>,
    }

    fn router_params(l: &TrainableMoe) -> RouterParams {
        RouterParams {
            spec: MoeLayerSpec::new(l.num_experts(), l.capacity).with_policy(l.policy),
            top_k: l.top_k,
            aux_alpha: l.aux_alpha,
            guard: l.router_guard,
        }
    }

    /// The backward as it was before the combine backward moved into the
    /// experts, written out from a `Local` forward's saves in `ctx` with
    /// plain per-expert ops: `y = h_act·W2`, `d_w = ⟨d_out[t], y⟩` (an H-long
    /// dot) and `d_h = (w·d_out[t])·W2ᵀ`; the router backward is the one
    /// both share.
    fn parent_backward(
        layer: &TrainableMoe,
        ctx: &mut MoeCtx,
        d_out: &Tensor,
        loss_scale: f32,
    ) -> Grads {
        let (pft, x) = (ctx.pft().clone(), ctx.x.clone());
        let (h, f) = (d_out.cols(), ctx.experts.h_pre.cols());
        let mut g_experts: Vec<Expert> = layer.experts.iter().map(zero_grad).collect();
        let (mut d_x, mut d_w) = (d_out.clone(), vec![0.0f32; pft.len()]);
        let mut row = 0;
        for (e, &cnt) in pft.tokens_per_expert.iter().enumerate() {
            let (w1, w2) = (&layer.experts[e].w1, &layer.experts[e].w2);
            let act = ctx.experts.h_act.slice_rows(row, row + cnt);
            let y = matmul(&act, w2);
            let (mut d_y, mut x_e) = (Tensor::zeros(cnt, h), Tensor::zeros(cnt, h));
            for j in 0..cnt {
                let (i, t) = (row + j, pft.token_ids[row + j]);
                let dot = d_out.row(t).iter().zip(y.row(j));
                d_w[i] = dot.fold(0.0, |s, (g, v)| s + g * v);
                for (d, &g) in d_y.row_mut(j).iter_mut().zip(d_out.row(t)) {
                    *d = pft.combine_weights[i] * g;
                }
                x_e.row_mut(j).copy_from_slice(x.row(t));
            }
            add_assign(&mut g_experts[e].w2, &matmul(&act.transpose(), &d_y));
            let mut d_h = matmul_transpose_b(&d_y, w2);
            let h_pre = &ctx.experts.h_pre.as_slice()[row * f..(row + cnt) * f];
            silu_grad_slice(d_h.as_mut_slice(), h_pre);
            add_assign(&mut g_experts[e].w1, &matmul(&x_e.transpose(), &d_h));
            let d_input = matmul_transpose_b(&d_h, w1);
            for j in 0..cnt {
                let t = pft.token_ids[row + j];
                for (d, &v) in d_x.row_mut(t).iter_mut().zip(d_input.row(j)) {
                    *d += v;
                }
            }
            row += cnt;
        }
        ctx.d_w.clone_from(&d_w);
        let mut g_gate = Tensor::zeros(layer.gate.rows(), layer.gate.cols());
        let (p, ws) = (router_params(layer), &mut Workspace::new());
        router_backward(&p, &layer.gate, &mut g_gate, ctx, loss_scale, ws, &mut d_x);
        Grads {
            d_w,
            d_x,
            g_gate,
            g_experts,
        }
    }

    /// One `Local` step of `layer`: the parent's formulas, and the backward.
    fn local_step(layer: &TrainableMoe, x: &Tensor, d_out: &Tensor, scale: f32) -> [Grads; 2] {
        let mut new = layer.clone();
        let mut st = MoeTrainScratch::default();
        let _ = new.forward_pooled(x, &mut st);
        let want = parent_backward(layer, &mut st.ctx.clone(), d_out, scale);
        let d_x = new.backward_scaled_pooled(&mut st, d_out, scale);
        let got = Grads {
            d_w: st.ctx.d_w.clone(),
            d_x,
            g_gate: new.g_gate,
            g_experts: new.g_experts,
        };
        [got, want]
    }

    /// `max |got - want| / max |want|`.
    fn rel(got: &[f32], want: &[f32]) -> f32 {
        let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let diff = got
            .iter()
            .zip(want)
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
        diff / scale
    }

    fn assert_close(at: &str, name: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{at}: {name} length");
        let r = rel(got, want);
        assert!(r <= REL, "{at}: {name} is {r:e} off the parent's formulas");
    }

    #[test]
    fn the_combine_backward_reassociates_within_1e_5_of_the_parent_formulas_locally() {
        // `numeric_golden`'s `TrainableMoe` shape, aux loss and router guards.
        let (s, h, f, e, k) = (256usize, 90usize, 52usize, 8usize, 2usize);
        let layer = TrainableMoe::new(h, f, e, k, 10_000, DropPolicy::CapacityOnly, 7331)
            .with_aux(0.05)
            .with_router_guard(RouterGuard {
                logit_clamp: 5.0,
                z_loss_coef: 0.01,
            });
        let x = Tensor::rand_uniform(s, h, 1.0, 9900);
        let d_out = Tensor::rand_uniform(s, h, 1.0, 9950);
        let [got, want] = local_step(&layer, &x, &d_out, 2.0);
        assert_close("Local", "d_w", &got.d_w, &want.d_w);
        assert_close("Local", "d_x", got.d_x.as_slice(), want.d_x.as_slice());
        assert_close(
            "Local",
            "g_gate",
            got.g_gate.as_slice(),
            want.g_gate.as_slice(),
        );
        for (e, (g, w)) in got.g_experts.iter().zip(&want.g_experts).enumerate() {
            assert_close(
                "Local",
                &format!("dW1 {e}"),
                g.w1.as_slice(),
                w.w1.as_slice(),
            );
            assert_close(
                "Local",
                &format!("dW2 {e}"),
                g.w2.as_slice(),
                w.w2.as_slice(),
            );
        }
    }

    #[test]
    fn the_combine_backward_reassociates_within_1e_5_of_the_parent_formulas_over_ep() {
        // `numeric_golden`'s `DistMoeLm` layer shape on two ranks; a sharded
        // layer trains with no aux loss and inert guards. Each rank's `d_w`,
        // `d_x` and router gradient come from its own batch; its experts'
        // gradients from every rank's.
        let (s, h, f, e, k, world) = (384usize, 72usize, 68usize, 8usize, 2usize, 2usize);
        let full = TrainableMoe::new(h, f, e, k, 10_000, DropPolicy::CapacityOnly, 2026);
        let batch = |rank: usize| {
            let x = Tensor::rand_uniform(s, h, 1.0, 5100 + rank as u64);
            (x, Tensor::rand_uniform(s, h, 1.0, 5200 + rank as u64))
        };
        let got = SimCluster::frontier(world).run(|ctx| {
            let mut layer = DistMoe::from_trainable(&full, ctx.rank, world);
            let (x, d_out) = batch(ctx.rank);
            let (mut st, mut ws) = (DistMoeScratch::default(), Workspace::new());
            let (ep, clock) = (&ctx.world, &mut ctx.clock);
            let _ = layer.forward(&x, &mut st, &mut ws, ep, clock).unwrap();
            let d_x = layer.backward(&mut st, &d_out, &mut ws, ep, clock).unwrap();
            let (g_gate, g_experts) = (layer.g_gate, layer.g_shard);
            let d_w = st.d_w.clone();
            Grads {
                d_w,
                d_x,
                g_gate,
                g_experts,
            }
        });
        let want: Vec<Grads> = (0..world)
            .map(|rank| {
                let (x, d_out) = batch(rank);
                let [_, want] = local_step(&full, &x, &d_out, 1.0);
                want
            })
            .collect();
        for (rank, (got, mine)) in got.iter().zip(&want).enumerate() {
            let at = format!("Ep rank {rank}");
            assert_close(&at, "d_w", &got.d_w, &mine.d_w);
            assert_close(&at, "d_x", got.d_x.as_slice(), mine.d_x.as_slice());
            assert_close(&at, "g_gate", got.g_gate.as_slice(), mine.g_gate.as_slice());
            let per = e / world;
            for (j, g) in got.g_experts.iter().enumerate() {
                let global = rank * per + j;
                let mut w = zero_grad(g);
                for batch in &want {
                    add_assign(&mut w.w1, &batch.g_experts[global].w1);
                    add_assign(&mut w.w2, &batch.g_experts[global].w2);
                }
                assert_close(
                    &at,
                    &format!("dW1 {global}"),
                    g.w1.as_slice(),
                    w.w1.as_slice(),
                );
                assert_close(
                    &at,
                    &format!("dW2 {global}"),
                    g.w2.as_slice(),
                    w.w2.as_slice(),
                );
            }
        }
    }
}
