//! The one copy of the padding-free MoE training math (paper §4.1
//! Listing 1): route, expert-FFN forward, expert-FFN backward and router
//! backward, written once over slices plus a [`Workspace`].
//!
//! [`crate::moe_layer::TrainableMoe`] (owned and pooled) and
//! [`crate::dist::DistMoe`] (serial and chunked-overlap) differ only in
//! where the buffers come from and whether an all-to-all sits between the
//! stages; every float operation of all four paths is in this file, so
//! they agree bit for bit by construction. A per-stage timer or span needs
//! exactly these insertion points.

use xmoe_core::gating::{clamp_logits, row_logsumexp_into, DropPolicy, GatingOutput, RouterGuard};
use xmoe_core::pft::{Pft, PftScratch};
use xmoe_tensor::{
    add_assign, combine_backward_rows, gemm_grouped, gemm_grouped_transpose_a_blocks,
    gemm_grouped_transpose_b, matmul_into, matmul_transpose_a_add, matmul_transpose_b_slices,
    silu_grad_slice, silu_into, softmax_rows, topk_rows_into, Tensor, Workspace,
};

/// One layer's `(w1 [H,F], w2 [F,H])` expert blocks, or their gradients.
pub(crate) type ExpertWeights = [(Tensor, Tensor)];

/// Router hyper-parameters of one layer.
#[derive(Clone, Copy)]
pub(crate) struct RouterParams {
    pub num_experts: usize,
    pub top_k: usize,
    pub capacity: usize,
    pub policy: DropPolicy,
    pub aux_alpha: f32,
    pub guard: RouterGuard,
}

/// What [`route`] saves for [`router_backward`].
#[derive(Clone, Default)]
pub(crate) struct RouterSave {
    /// The layer input `[S, H]`.
    pub x: Tensor,
    /// Full softmax scores `[S, E]`.
    pub scores: Tensor,
    /// Per-token `logsumexp(logits)`; empty unless the z-loss is on.
    pub lse: Vec<f32>,
    /// How many logits the clamp guard limited.
    pub logits_clamped: usize,
}

/// Grow-once scratch of [`route`].
#[derive(Default)]
pub(crate) struct RouteScratch {
    logits: Tensor,
    order: Vec<usize>,
    gating: GatingOutput,
    pft: PftScratch,
}

/// Grow-once scratch of [`combine_backward`] and [`router_backward`].
#[derive(Default)]
pub(crate) struct BwdScratch {
    d_w: Vec<f32>,
    aux_f: Vec<f32>,
}

/// Route: gate GEMM → clamp → logsumexp → softmax → top-k → PFT.
pub(crate) fn route(
    p: &RouterParams,
    gate: &Tensor,
    x: &Tensor,
    sc: &mut RouteScratch,
    save: &mut RouterSave,
    pft: &mut Pft,
) {
    let (s, e) = (x.rows(), p.num_experts);
    // For-overwrite leases below: each is filled whole by the next call
    // (`matmul_into`'s Overwrite store, or a `copy_from_slice`).
    sc.logits.resize_for_overwrite(s, e);
    matmul_into(x, gate, &mut sc.logits);
    save.logits_clamped = clamp_logits(&mut sc.logits, p.guard.logit_clamp);
    if p.guard.z_loss_coef != 0.0 {
        row_logsumexp_into(&sc.logits, &mut save.lse);
    } else {
        save.lse.clear();
    }
    save.scores.resize_for_overwrite(s, e);
    save.scores
        .as_mut_slice()
        .copy_from_slice(sc.logits.as_slice());
    softmax_rows(&mut save.scores);
    let g = &mut sc.gating;
    topk_rows_into(
        &save.scores,
        p.top_k,
        &mut g.top_experts,
        &mut g.combine_weights,
        &mut sc.order,
    );
    let logits = &sc.logits;
    g.top_logits.clear();
    g.top_logits.extend(
        g.top_experts
            .iter()
            .enumerate()
            .map(|(i, &ex)| logits.get(i / p.top_k, ex)),
    );
    g.k = p.top_k;
    g.scores.resize_for_overwrite(s, e);
    g.scores
        .as_mut_slice()
        .copy_from_slice(save.scores.as_slice());
    Pft::construct_into(g, e, p.capacity, p.policy, &mut sc.pft, pft);
    save.x.resize_for_overwrite(s, x.cols());
    save.x.as_mut_slice().copy_from_slice(x.as_slice());
}

/// Expert FFN over the expert-major segments `counts` of `input`:
/// `h_pre = input·W1`, `h_act = silu(h_pre)`, `y = h_act·W2`. `experts`
/// is the matching expert range. All three outputs are overwritten whole
/// (every row belongs to exactly one segment — which is also why the
/// whole-buffer SiLU equals the per-segment one), so they may arrive as
/// for-overwrite leases.
pub(crate) fn expert_ffn_forward(
    experts: &ExpertWeights,
    counts: &[usize],
    (h, f): (usize, usize),
    input: &[f32],
    h_pre: &mut [f32],
    h_act: &mut [f32],
    y: &mut [f32],
) {
    gemm_grouped(input, counts, h, |e| experts[e].0.as_slice(), f, h_pre);
    silu_into(h_pre, h_act);
    gemm_grouped(h_act, counts, f, |e| experts[e].1.as_slice(), h, y);
}

/// Backward of [`expert_ffn_forward`] over the same segments: adds
/// `dW2_e = act_e^T·dy_e` and `dW1_e = x_e^T·d_h_e` onto `grads` and returns
/// `d_input` (leased from `ws`). `d_y` is a lease of `ws` too, taken by value
/// and recycled after its last read, so `d_input` can have its buffer. Each expert's product is summed on its own
/// and then added to its gradient tensor in one step (the TN kernel's
/// AddFresh store) — accumulating the terms straight into `grads` would
/// reassociate the float sums — with no staging block and no transpose
/// materialised (the transpose-A kernel keeps the accumulation order of
/// transpose-then-matmul).
#[allow(clippy::too_many_arguments)]
pub(crate) fn expert_ffn_backward(
    experts: &ExpertWeights,
    grads: &mut ExpertWeights,
    counts: &[usize],
    (h, f): (usize, usize),
    input: &[f32],
    h_pre: &[f32],
    h_act: &[f32],
    d_y: Tensor,
    ws: &mut Workspace,
) -> Tensor {
    let rows = counts.iter().sum::<usize>();
    let dw2 = grads.iter_mut().map(|g| g.1.as_mut_slice());
    gemm_grouped_transpose_a_blocks(h_act, counts, f, d_y.as_slice(), h, dw2);
    // d_act = dy·W2^T, then through SiLU. For-overwrite: the grouped NT
    // writes every row of `d_h` (and of `d_input` below).
    let mut d_h = ws.take_for_overwrite(rows, f);
    let w2 = |e: usize| experts[e].1.as_slice();
    gemm_grouped_transpose_b(d_y.as_slice(), counts, h, w2, f, d_h.as_mut_slice());
    ws.recycle(d_y);
    silu_grad_slice(d_h.as_mut_slice(), h_pre);
    let dw1 = grads.iter_mut().map(|g| g.0.as_mut_slice());
    gemm_grouped_transpose_a_blocks(input, counts, h, d_h.as_slice(), f, dw1);
    let mut d_input = ws.take_for_overwrite(rows, h);
    let w1 = |e: usize| experts[e].0.as_slice();
    gemm_grouped_transpose_b(d_h.as_slice(), counts, f, w1, h, d_input.as_mut_slice());
    ws.recycle(d_h);
    d_input
}

/// Source-side combine backward: returns `d_y[i] = w_i · d_out[t_i]` in PFT
/// order (leased from `ws`) and records the combine-weight gradients
/// `d_w_i = <d_out[t_i], y_i>` in `sc` for [`router_backward`].
pub(crate) fn combine_backward(
    pft: &Pft,
    y: &Tensor,
    d_out: &Tensor,
    sc: &mut BwdScratch,
    ws: &mut Workspace,
) -> Tensor {
    // For-overwrite: `combine_backward_rows` fills it whole.
    let mut d_y = ws.take_for_overwrite(y.rows(), y.cols());
    combine_backward_rows(
        d_out,
        &pft.token_ids,
        y,
        &pft.combine_weights,
        &mut d_y,
        &mut sc.d_w,
    );
    d_y
}

/// Router backward: combine-weight grads scattered to the retained `(t, e)`
/// score entries → aux load-balancing term → softmax backward → z-loss on
/// the logits, then `g_gate += x^T·d_logits` and `d_x += d_logits·gate^T`.
/// The locally generated aux and z-loss terms carry `loss_scale` so every
/// term of the router gradient shares the scale `d_out` already has.
#[allow(clippy::too_many_arguments)]
pub(crate) fn router_backward(
    p: &RouterParams,
    gate: &Tensor,
    g_gate: &mut Tensor,
    save: &RouterSave,
    pft: &Pft,
    loss_scale: f32,
    sc: &mut BwdScratch,
    ws: &mut Workspace,
    d_x: &mut Tensor,
) {
    let (s, h) = save.x.shape();
    let e_count = p.num_experts;
    let mut d_scores = ws.take(s, e_count);
    for i in 0..pft.len() {
        let (t, e) = (pft.token_ids[i], pft.expert_ids[i]);
        d_scores.set(t, e, d_scores.get(t, e) + sc.d_w[i]);
    }
    // dL_aux/dscores[t, e] = alpha·E·f_e/S (gradient flows through P_e
    // only; the load fraction f_e is piecewise constant).
    if p.aux_alpha != 0.0 {
        load_fractions(pft, &mut sc.aux_f);
        let coef = p.aux_alpha * e_count as f32 * (1.0 / s.max(1) as f32) * loss_scale;
        for t in 0..s {
            for (d, &f) in d_scores.row_mut(t).iter_mut().zip(&sc.aux_f) {
                *d += coef * f;
            }
        }
    }
    // For-overwrite: the row loop writes every element.
    let mut d_logits = ws.take_for_overwrite(s, e_count);
    for t in 0..s {
        let s_row = save.scores.row(t);
        let ds_row = d_scores.row(t);
        let inner: f32 = s_row.iter().zip(ds_row).map(|(s, d)| s * d).sum();
        let dl_row = d_logits.row_mut(t);
        for j in 0..e_count {
            dl_row[j] = s_row[j] * (ds_row[j] - inner);
        }
    }
    // dL_z/dl[t, j] = coef·(2/S)·z_t·scores[t, j], straight onto the logits.
    if p.guard.z_loss_coef != 0.0 {
        let coef = p.guard.z_loss_coef * 2.0 * loss_scale / s.max(1) as f32;
        for t in 0..s {
            let z = save.lse[t];
            let s_row = save.scores.row(t);
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
    matmul_transpose_a_add(&save.x, &d_logits, g_gate);
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
