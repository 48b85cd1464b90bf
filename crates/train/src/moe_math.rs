//! The padding-free MoE layer's training half (paper §4.1 Listing 1). The
//! forward is core's one layer pass, [`padding_free::forward`], run by
//! [`forward`] with the residual and the saves; the backward is written once
//! here, [`backward`]. [`crate::moe_layer::TrainableMoe`] runs both over
//! [`Transport::Local`] and [`crate::dist::DistMoe`] over [`Transport::Ep`];
//! nothing else differs, so they agree bit for bit by construction.

use xmoe_collectives::CommError;
use xmoe_core::expert::{expert_ffn_out, FfnRows};
use xmoe_core::gating::{row_logsumexp_into, RouterGuard};
use xmoe_core::pft::Pft;
use xmoe_core::pipeline::padding_free::{self, ExpertKernel, ExpertSaves, LayerState, Transport};
use xmoe_core::pipeline::MoeLayerSpec;
use xmoe_core::price::{self, BWD_COMPUTE_FACTOR as BWD, F32};
use xmoe_core::Expert;
use xmoe_tensor::{
    add_assign, combine_backward_rows, gemm_grouped_transpose_a_blocks, gemm_grouped_transpose_b,
    matmul_transpose_a_add, matmul_transpose_b_slices, scatter_rows_unit, silu_grad_slice, RowSink,
    RowSource, Tensor, Workspace,
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
/// the forward ran: combine backward → the exchange of the expert-FFN
/// backward → dispatch transpose → router backward. Accumulates `g_gate`
/// and `g_experts`, returns `d_x` (leased from `ws`) and hands the expert
/// saves back. Over a wire (`Ep`) the combine backward turns the saved
/// outputs into `d_y` rows, which travel to the experts, come back as
/// `d_input` in the same buffer and are scattered onto `d_x`. `Local` keeps
/// no such rows: at the expert stage the combine-weight gradients dot a
/// recomputed `y = h_act·W2` against `d_out` (each row dropped once dotted),
/// `d_y = w·d_out[t]` is read by the PFT's token ids, the expert input is
/// the layer input read again by id, and the last GEMM adds `d_input`
/// straight onto `d_x` — every value the bits of the `Ep` schedule. `d_out`
/// carries `loss_scale`, which the aux and z-loss terms take on too. Each
/// stage charges `BWD_COMPUTE_FACTOR`× its forward price under `bwd_*`, as
/// [`xmoe_core::perf::PerfModel::step`] prices a backward.
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

    // Source side, over a wire: d_combine rows (PFT order) and
    // combine-weight grads. `Local` has no rows to send.
    let MoeCtx {
        layer,
        experts: saves,
        x,
        d_w,
        ..
    } = &mut *ctx;
    let local = matches!(transport, Transport::Local);
    let mut d_combine = std::mem::take(&mut saves.combine_in);
    if !local {
        combine_backward(&layer.route.pft, &mut d_combine, d_out, d_w);
    }
    let n = layer.route.pft.len();
    let mut meter = transport.meter();
    meter.charge("bwd_buffer_combine", |c| BWD * price::gather(c, n, h));
    let labels = ("bwd_combine_a2a", "bwd_expert", "bwd_dispatch_a2a");
    let d_dispatch = transport.exchange(
        &mut layer.route,
        d_combine,
        labels,
        ws,
        |plan, counts, pft, mut chunk, mut meter, _| {
            let ((e0, e1), (r0, r1)) = (plan.experts, plan.rows);
            let n = (r1 - r0) as f64;
            meter.charge("bwd_expert", |c| BWD * price::expert_seq(c, n, h, f, F32));
            let (experts, grads) = (&experts[e0..e1], &mut g_experts[e0..e1]);
            let h_pre = &saves.h_pre.as_slice()[r0 * f..r1 * f];
            let h_act = &mut saves.h_act.as_mut_slice()[r0 * f..r1 * f];
            let (input, rows) = match pft {
                None => {
                    let input = &saves.input.as_slice()[r0 * h..r1 * h];
                    (input.into(), FfnRows::InPlace(chunk.as_mut_slice()))
                }
                Some(pft) => {
                    let ids = &pft.token_ids;
                    // d_w_i = <d_out[t_i], y_i>, with y_i = h_act_i·W2 made
                    // again and dropped once dotted.
                    d_w.clear();
                    d_w.resize(ids.len(), 0.0);
                    let grad = d_out.as_slice();
                    expert_ffn_out(experts, counts, h_act, RowSink::Dot { grad, ids, d_w });
                    let scale = Some(pft.combine_weights.as_slice());
                    let d_y = RowSource::Gathered {
                        src: grad,
                        ids,
                        scale,
                    };
                    let (src, scale) = (x.as_slice(), None);
                    let (out, weights) = (d_x.as_mut_slice(), None);
                    let d_input = RowSink::Combine { out, ids, weights };
                    let input = RowSource::Gathered { src, ids, scale };
                    (input, FfnRows::Apart(d_y, d_input))
                }
            };
            expert_ffn_backward(experts, grads, counts, (h, f), input, h_pre, h_act, rows);
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
    meter.charge("bwd_buffer_dispatch", |c| BWD * price::gather(c, n, h));

    router_backward(p, gate, g_gate, ctx, loss_scale, ws, &mut d_x);
    let (s, e, k) = (ctx.x.rows() as f64, p.spec.num_experts, p.top_k);
    let mut meter = transport.meter();
    meter.charge("bwd_gating", |c| BWD * price::gating(c, s, h, e, k));
    Ok(d_x)
}

/// Backward of [`expert_ffn`](xmoe_core::expert::expert_ffn) over the same
/// segments: adds `dW2_e = act_e^T·dy_e` and `dW1_e = x_e^T·d_h_e` onto
/// `grads`, reading `dy` and putting `d_input` where `rows` says
/// ([`FfnRows`]: `d_input` over the `dy` rows that came over a wire, or `dy`
/// read by id and `d_input` added onto the layer's `d_x`). `input` gives the
/// rows `x_e`: saved, or gathered from the layer input by token id, which
/// the TN kernel packs one expert at a time, so no `[rows, h]` copy exists.
/// `d_h` is written over `h_act` once the `dW2` product has read it. Each
/// expert's product is summed on its own and then added to its gradient
/// tensor in one step (the TN kernel's AddFresh store) — accumulating the
/// terms straight into `grads` would reassociate the float sums — with no
/// staging block and no transpose materialised (the transpose-A kernel
/// keeps the accumulation order of transpose-then-matmul).
#[allow(clippy::too_many_arguments)]
fn expert_ffn_backward(
    experts: &[Expert],
    grads: &mut [Expert],
    counts: &[usize],
    (h, f): (usize, usize),
    input: RowSource<'_>,
    h_pre: &[f32],
    h_act: &mut [f32],
    rows: FfnRows,
) {
    let d_y = rows.source();
    let dw2 = grads.iter_mut().map(|g| g.w2.as_mut_slice());
    gemm_grouped_transpose_a_blocks(RowSource::Contiguous(h_act), counts, f, d_y, h, dw2);
    // d_act = dy·W2^T over the activations' buffer, then through SiLU.
    let w2 = |e: usize| experts[e].w2.as_slice();
    gemm_grouped_transpose_b(d_y, counts, h, w2, f, &mut *h_act);
    let d_h = h_act;
    silu_grad_slice(d_h, h_pre);
    let dw1 = grads.iter_mut().map(|g| g.w1.as_mut_slice());
    gemm_grouped_transpose_a_blocks(input, counts, h, &*d_h, f, dw1);
    let w1 = |e: usize| experts[e].w1.as_slice();
    gemm_grouped_transpose_b(&*d_h, counts, f, w1, h, rows.sink());
}

/// Source-side combine backward over a wire, in place: records the
/// combine-weight gradients `d_w_i = <d_out[t_i], y_i>` in `d_w` for
/// [`router_backward`], then overwrites each expert output row `y_i` with
/// `d_y[i] = w_i · d_out[t_i]` (PFT order), turning the forward's saved
/// outputs into the exchange's gradient rows with no new lease.
fn combine_backward(pft: &Pft, y: &mut Tensor, d_out: &Tensor, d_w: &mut Vec<f32>) {
    let (ids, w) = (&pft.token_ids, &pft.combine_weights);
    combine_backward_rows(d_out, ids, y, w, d_w);
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
