//! Multi-head causal self-attention with a hand-written backward pass.
//!
//! The paper's transformer blocks are attention + MoE; this module
//! completes the training stack's dense block. The implementation handles
//! a batch of independent sequences packed row-wise (`batch * seq_len`
//! rows): attention is block-diagonal over sequences with a causal mask
//! inside each.
//!
//! # Six products on the tile family, same bits as the scalar loops
//!
//! Per (sequence, head) the forward is `S = Q·Kᵀ`, a row softmax and
//! `O = P·V`; the backward is `dP = dO·Vᵀ`, `dV = Pᵀ·dO`, the softmax
//! backward and `dQ = dS·K`, `dK = dSᵀ·Q`. All six products run on
//! [`xmoe_tensor::gemm_view`] — the register tiles of every other GEMM in
//! the workspace, reading each head's `hd` columns in place from the
//! `[n, hidden]` activations (`ld = hidden`) and pruned by a
//! [`Causal`] bound; the softmax rows, `inner` and `dS` stay scalar. They
//! replaced per-head scalar loops (kept verbatim as this module's test
//! oracle) without moving a bit of any output. The argument, once:
//!
//! * **Order.** A tile sums each `C` element's products in ascending
//!   reduction order from a `+0.0` accumulator. That is the order of the old
//!   loops: `O`/`dQ` walked `j = 0..=i`, `dV`/`dK` received row `i`'s
//!   contribution for `i = j, j + 1, ..` in turn, all into zeroed tensors;
//!   `S`/`dP` were `Iterator::sum` dot products over `d = 0..hd`. `S` and
//!   `dP` use the NN tile over a transposed `[hidden, n]` copy of `K` / `V`
//!   (one per call; a head's panel is a strided view of it) and *not* the NT
//!   kernel, whose eight position-determined lanes are a different sum.
//! * **Extra terms are `±0.0`.** Bounds are per row group, and the old
//!   backward skipped `dS == 0.0` terms, so next to the diagonal a tile adds
//!   terms the loops did not: `0.0 * v` for masked `P`/`dS` entries (both
//!   are written as `0.0` above the diagonal) and `±0.0 * k`. A sum that
//!   starts at `+0.0` is never `-0.0` (`x + -x` is `+0.0`), and adding
//!   `±0.0` to anything but `-0.0` returns it unchanged — as long as the
//!   other factor is finite; see below.
//! * **Sign of an exact zero inside `S`/`dP`.** `Iterator::sum` starts at
//!   `-0.0`, the tile at `+0.0`, so a dot product that is exactly zero may
//!   differ in sign. No output bit can: `S` only meets `s - max` and `exp`
//!   (`exp(±0.0)` is `1`, `x - ±0.0` is `x`), `dP` only `p * dP` inside
//!   `inner` and `dP - inner`, whose zero sign reaches `dS` as a zero sign
//!   and then the rule above.
//!
//! **Non-finite activations.** With a NaN/Inf in row `j` of `Q`/`K`/`V`/`dO`
//! the masked `0.0 * x` terms are NaN, so up to [`Causal`]'s `MR - 1` rows
//! above `j` in the same row group — same sequence, same head — can turn
//! non-finite where the loops stopped exactly at the diagonal. Row `j` and
//! every later row of that sequence are poisoned either way, no other
//! sequence ever is, and the step's loss is non-finite in both: what the
//! guard detects and the chaos engine rolls back is unchanged (pinned by
//! `non_finite_row_poisons_its_own_sequence_only`).

use xmoe_tensor::{
    add_assign, gemm_view, matmul_transpose_a_add, Causal, Tensor, View, ViewMut, Workspace,
};

use crate::layers::{project, project_t, LayerNorm, LayerNormCtx, ParamVisitor};

/// Pre-norm residual multi-head causal attention:
/// `y = x + Attn(LN(x)) Wo`.
#[derive(Clone, Debug)]
pub struct Attention {
    pub norm: LayerNorm,
    pub wq: Tensor,
    pub wk: Tensor,
    pub wv: Tensor,
    pub wo: Tensor,
    pub gq: Tensor,
    pub gk: Tensor,
    pub gv: Tensor,
    pub go: Tensor,
    pub n_heads: usize,
}

/// Saved forward state: leases from the forward's [`Workspace`], recycled by
/// [`Attention::backward`].
pub struct AttentionCtx {
    ln: LayerNormCtx,
    x_norm: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// The post-softmax probability matrices, stacked: (sequence `b`, head
    /// `h`) is rows `(b * n_heads + h) * seq_len..` of a
    /// `[batch * n_heads * seq_len, seq_len]` tensor, `0.0` above the diagonal.
    probs: Tensor,
    /// Concatenated head outputs before the output projection.
    attn_out: Tensor,
    seq_len: usize,
}

/// `t` transposed into a for-overwrite lease.
fn transposed(t: &Tensor, ws: &mut Workspace) -> Tensor {
    let mut out = ws.take_for_overwrite(t.cols(), t.rows());
    t.transpose_into(&mut out);
    out
}

impl Attention {
    pub fn new(hidden: usize, n_heads: usize, seed: u64) -> Self {
        assert!(
            hidden.is_multiple_of(n_heads),
            "heads must divide the hidden dim"
        );
        let w = |s: u64| Tensor::rand_init(hidden, hidden, hidden, s);
        Self {
            norm: LayerNorm::new(hidden),
            wq: w(seed),
            wk: w(seed ^ 0x1111),
            wv: w(seed ^ 0x2222),
            wo: w(seed ^ 0x3333),
            gq: Tensor::zeros(hidden, hidden),
            gk: Tensor::zeros(hidden, hidden),
            gv: Tensor::zeros(hidden, hidden),
            go: Tensor::zeros(hidden, hidden),
            n_heads,
        }
    }

    /// Forward over `x` = `batch * seq_len` packed rows. Every tensor it
    /// makes is a lease from `ws`; the context's are recycled by
    /// [`Self::backward`], the returned output by the caller.
    pub fn forward(
        &self,
        x: &Tensor,
        seq_len: usize,
        ws: &mut Workspace,
    ) -> (Tensor, AttentionCtx) {
        let (n, hidden) = x.shape();
        assert_eq!(n % seq_len, 0, "rows must be a whole number of sequences");
        let hd = hidden / self.n_heads;
        let scale = 1.0 / (hd as f32).sqrt();

        let (x_norm, ln) = self.norm.forward(x, ws);
        let q = project(&x_norm, &self.wq, ws);
        let k = project(&x_norm, &self.wk, ws);
        let v = project(&x_norm, &self.wv, ws);

        let kt = transposed(&k, ws);
        // For-overwrite: the head loop tiles both — each head's `[seq, hd]`
        // block of `attn_out` is one product's whole output; each row of a
        // `probs` block is the score product up to the diagonal (softmaxed
        // in place) and the `0.0` fill above it.
        let mut attn_out = ws.take_for_overwrite(n, hidden);
        let mut probs = ws.take_for_overwrite(n * self.n_heads, seq_len);
        for head in heads(self.n_heads, seq_len, n, hidden) {
            let p = &mut probs.as_mut_slice()[head.block.clone()];
            // scores[i][j] = <q_i, k_j> for j <= i; scaled in the softmax pass.
            let dims = (seq_len, hd, seq_len);
            gemm_view(
                false,
                head.rows(&q),
                head.panel(&kt),
                (p, seq_len),
                dims,
                Causal::LowerC,
            );
            for (i, row) in p.chunks_exact_mut(seq_len).enumerate() {
                let (row, masked) = row.split_at_mut(i + 1);
                let mut max = f32::NEG_INFINITY;
                for s in row.iter_mut() {
                    *s *= scale;
                    max = max.max(*s);
                }
                // Causal softmax over j <= i.
                let mut sum = 0.0;
                for s in row.iter_mut() {
                    *s = (*s - max).exp();
                    sum += *s;
                }
                let inv = 1.0 / sum;
                for s in row.iter_mut() {
                    *s *= inv;
                }
                masked.fill(0.0);
            }
            // attn_out rows = P @ V_head.
            let dims = (seq_len, seq_len, hd);
            gemm_view(
                false,
                (p, seq_len),
                head.rows(&v),
                head.rows_mut(&mut attn_out),
                dims,
                Causal::LowerA,
            );
        }
        ws.recycle(kt);
        let mut y = project(&attn_out, &self.wo, ws);
        add_assign(&mut y, x); // residual
        (
            y,
            AttentionCtx {
                ln,
                x_norm,
                q,
                k,
                v,
                probs,
                attn_out,
                seq_len,
            },
        )
    }

    /// Backward: accumulates all projection grads, returns `d_x` (a lease).
    pub fn backward(&mut self, ctx: AttentionCtx, d_y: &Tensor, ws: &mut Workspace) -> Tensor {
        let (n, hidden) = d_y.shape();
        let seq_len = ctx.seq_len;
        let hd = hidden / self.n_heads;
        let scale = 1.0 / (hd as f32).sqrt();

        // Output projection.
        matmul_transpose_a_add(&ctx.attn_out, d_y, &mut self.go);
        ws.recycle(ctx.attn_out);
        let d_attn = project_t(d_y, &self.wo, ws);

        let vt = transposed(&ctx.v, ws);
        // For-overwrite: each head's `[seq, hd]` block of the three is one
        // product's whole output.
        let mut d_q = ws.take_for_overwrite(n, hidden);
        let mut d_k = ws.take_for_overwrite(n, hidden);
        let mut d_v = ws.take_for_overwrite(n, hidden);
        // One head's d_p, turned into d_s in place; written whole per head
        // like a `probs` block.
        let mut d_s = ws.take_for_overwrite(seq_len, seq_len);
        // (rows, reduction steps, columns) of the [seq, seq] and [seq, hd] products.
        let (to_seq, to_hd) = ((seq_len, hd, seq_len), (seq_len, seq_len, hd));
        for head in heads(self.n_heads, seq_len, n, hidden) {
            let d_s = d_s.as_mut_slice();
            let p: View<'_> = (&ctx.probs.as_slice()[head.block.clone()], seq_len);
            let d_o = head.rows(&d_attn);
            // d_p[i][j] = <d_attn[i], v[j]>; d_v[j] = sum_i p[i][j] * d_attn[i].
            let d_p: ViewMut<'_> = (d_s, seq_len);
            gemm_view(false, d_o, head.panel(&vt), d_p, to_seq, Causal::LowerC);
            let d_v = head.rows_mut(&mut d_v);
            gemm_view(true, p, d_o, d_v, to_hd, Causal::LowerAt);
            // Softmax backward per row: d_s = p * (d_p - sum(d_p * p)) * scale.
            for (i, (ds_row, p_row)) in d_s
                .chunks_exact_mut(seq_len)
                .zip(p.0.chunks_exact(seq_len))
                .enumerate()
            {
                let (ds_row, masked) = ds_row.split_at_mut(i + 1);
                let inner: f32 = (0..=i).map(|j| p_row[j] * ds_row[j]).sum();
                for (ds, pv) in ds_row.iter_mut().zip(p_row) {
                    *ds = pv * (*ds - inner) * scale;
                }
                masked.fill(0.0);
            }
            // d_q[i] = sum_j d_s[i][j] * k[j]; d_k[j] = sum_i d_s[i][j] * q[i].
            let d_s: View<'_> = (d_s, seq_len);
            let d_q = head.rows_mut(&mut d_q);
            gemm_view(false, d_s, head.rows(&ctx.k), d_q, to_hd, Causal::LowerA);
            let d_k = head.rows_mut(&mut d_k);
            gemm_view(true, d_s, head.rows(&ctx.q), d_k, to_hd, Causal::LowerAt);
        }
        for t in [d_s, vt, d_attn, ctx.probs, ctx.q, ctx.k, ctx.v] {
            ws.recycle(t);
        }

        // Projection weight grads and the gradient into the norm.
        matmul_transpose_a_add(&ctx.x_norm, &d_q, &mut self.gq);
        matmul_transpose_a_add(&ctx.x_norm, &d_k, &mut self.gk);
        matmul_transpose_a_add(&ctx.x_norm, &d_v, &mut self.gv);
        ws.recycle(ctx.x_norm);
        let mut d_norm = project_t(&d_q, &self.wq, ws);
        for (d, w) in [(d_k, &self.wk), (d_v, &self.wv)] {
            let part = project_t(&d, w, ws);
            add_assign(&mut d_norm, &part);
            ws.recycle(part);
            ws.recycle(d);
        }
        ws.recycle(d_q);
        let mut d_x = self.norm.backward(ctx.ln, &d_norm, ws);
        ws.recycle(d_norm);
        add_assign(&mut d_x, d_y); // residual
        d_x
    }

    /// This mixer's part of the model's parameter walk (see
    /// `DenseMlp::visit_params`).
    pub(crate) fn visit_params(&mut self, f: ParamVisitor<'_>) {
        f("attn.wq", &mut self.wq, &mut self.gq);
        f("attn.wk", &mut self.wk, &mut self.gk);
        f("attn.wv", &mut self.wv, &mut self.gv);
        f("attn.wo", &mut self.wo, &mut self.go);
        f("attn.gamma", &mut self.norm.gamma, &mut self.norm.g_gamma);
        f("attn.beta", &mut self.norm.beta, &mut self.norm.g_beta);
    }
}

/// Where one (sequence, head) lives in the tensors of a call: each accessor
/// is the [`View`] a [`gemm_view`] product reads or writes in place.
struct Head {
    /// Its first element in a row-major `[n, hidden]` activation.
    rows_at: usize,
    hidden: usize,
    /// Its first element in a transposed `[hidden, n]` panel.
    panel_at: usize,
    n: usize,
    /// Its `[seq_len, seq_len]` block of the stacked probabilities.
    block: std::ops::Range<usize>,
}

/// Every (sequence, head) of `n` packed rows, sequence-major.
fn heads(n_heads: usize, seq_len: usize, n: usize, hidden: usize) -> impl Iterator<Item = Head> {
    let (hd, block) = (hidden / n_heads, seq_len * seq_len);
    (0..n / seq_len * n_heads).map(move |i| {
        let (b, h) = (i / n_heads, i % n_heads);
        Head {
            rows_at: b * seq_len * hidden + h * hd,
            hidden,
            panel_at: h * hd * n + b * seq_len,
            n,
            block: i * block..(i + 1) * block,
        }
    })
}

impl Head {
    /// The head's `[seq_len, hd]` rows of an `[n, hidden]` activation.
    fn rows<'a>(&self, t: &'a Tensor) -> View<'a> {
        (&t.as_slice()[self.rows_at..], self.hidden)
    }

    fn rows_mut<'a>(&self, t: &'a mut Tensor) -> ViewMut<'a> {
        (&mut t.as_mut_slice()[self.rows_at..], self.hidden)
    }

    /// The head's `[hd, seq_len]` panel of a transposed `[hidden, n]` tensor.
    fn panel<'a>(&self, t: &'a Tensor) -> View<'a> {
        (&t.as_slice()[self.panel_at..], self.n)
    }
}

/// The forward and backward the tile products replaced — scalar per-head
/// loops, transpose + matmul + add weight gradients — kept verbatim as the
/// bit-for-bit reference.
#[cfg(test)]
mod oracle {
    use super::*;
    use xmoe_tensor::{matmul, matmul_transpose_b};

    pub struct Ctx {
        pub ln: LayerNormCtx,
        pub x_norm: Tensor,
        pub q: Tensor,
        pub k: Tensor,
        pub v: Tensor,
        pub probs: Vec<Tensor>,
        pub attn_out: Tensor,
        pub seq_len: usize,
    }

    /// Forward over `x` = `batch * seq_len` packed rows.
    pub fn forward(attn: &Attention, x: &Tensor, seq_len: usize) -> (Tensor, Ctx) {
        let (n, hidden) = x.shape();
        assert_eq!(n % seq_len, 0, "rows must be a whole number of sequences");
        let batch = n / seq_len;
        let hd = hidden / attn.n_heads;
        let scale = 1.0 / (hd as f32).sqrt();

        let (x_norm, ln) = attn.norm.forward(x, &mut Workspace::new());
        let q = matmul(&x_norm, &attn.wq);
        let k = matmul(&x_norm, &attn.wk);
        let v = matmul(&x_norm, &attn.wv);

        let mut attn_out = Tensor::zeros(n, hidden);
        let mut probs = Vec::with_capacity(batch * attn.n_heads);
        for b in 0..batch {
            let base = b * seq_len;
            for h in 0..attn.n_heads {
                let col0 = h * hd;
                // scores[i][j] = <q_i, k_j> * scale for j <= i.
                let mut p = Tensor::zeros(seq_len, seq_len);
                for i in 0..seq_len {
                    let qi = &q.row(base + i)[col0..col0 + hd];
                    let row = p.row_mut(i);
                    let mut max = f32::NEG_INFINITY;
                    for j in 0..=i {
                        let kj = &k.row(base + j)[col0..col0 + hd];
                        let s: f32 = qi.iter().zip(kj).map(|(a, b)| a * b).sum::<f32>() * scale;
                        row[j] = s;
                        max = max.max(s);
                    }
                    // Causal softmax over j <= i.
                    let mut sum = 0.0;
                    for j in 0..=i {
                        row[j] = (row[j] - max).exp();
                        sum += row[j];
                    }
                    let inv = 1.0 / sum;
                    for j in 0..=i {
                        row[j] *= inv;
                    }
                }
                // attn_out rows = P @ V_head.
                for i in 0..seq_len {
                    let prow = p.row(i);
                    let out_row = attn_out.row_mut(base + i);
                    for j in 0..=i {
                        let vj = &v.row(base + j)[col0..col0 + hd];
                        let w = prow[j];
                        for (o, vv) in out_row[col0..col0 + hd].iter_mut().zip(vj) {
                            *o += w * vv;
                        }
                    }
                }
                probs.push(p);
            }
        }
        let mut y = matmul(&attn_out, &attn.wo);
        add_assign(&mut y, x); // residual
        (
            y,
            Ctx {
                ln,
                x_norm,
                q,
                k,
                v,
                probs,
                attn_out,
                seq_len,
            },
        )
    }

    /// Backward: accumulates all projection grads, returns `d_x`.
    pub fn backward(attn: &mut Attention, ctx: Ctx, d_y: &Tensor) -> Tensor {
        let (n, hidden) = d_y.shape();
        let seq_len = ctx.seq_len;
        let batch = n / seq_len;
        let hd = hidden / attn.n_heads;
        let scale = 1.0 / (hd as f32).sqrt();

        // Output projection.
        let dwo = matmul(&ctx.attn_out.transpose(), d_y);
        add_assign(&mut attn.go, &dwo);
        let d_attn = matmul_transpose_b(d_y, &attn.wo);

        let mut d_q = Tensor::zeros(n, hidden);
        let mut d_k = Tensor::zeros(n, hidden);
        let mut d_v = Tensor::zeros(n, hidden);
        for b in 0..batch {
            let base = b * seq_len;
            for h in 0..attn.n_heads {
                let col0 = h * hd;
                let p = &ctx.probs[b * attn.n_heads + h];
                // d_v[j] += sum_i p[i][j] * d_attn[i]; d_p[i][j] = <d_attn[i], v[j]>.
                let mut d_p = Tensor::zeros(seq_len, seq_len);
                for i in 0..seq_len {
                    let da = &d_attn.row(base + i)[col0..col0 + hd];
                    let prow = p.row(i);
                    let dprow = d_p.row_mut(i);
                    for j in 0..=i {
                        let vj = &ctx.v.row(base + j)[col0..col0 + hd];
                        dprow[j] = da.iter().zip(vj).map(|(a, b)| a * b).sum();
                    }
                    for j in 0..=i {
                        let w = prow[j];
                        let dv = &mut d_v.row_mut(base + j)[col0..col0 + hd];
                        for (d, a) in dv.iter_mut().zip(da) {
                            *d += w * a;
                        }
                    }
                }
                // Softmax backward per row: d_s = p * (d_p - sum(d_p * p)).
                for i in 0..seq_len {
                    let prow = p.row(i);
                    let dprow = d_p.row(i);
                    let inner: f32 = (0..=i).map(|j| prow[j] * dprow[j]).sum();
                    // d_q[i] += sum_j d_s[i][j] * scale * k[j];
                    // d_k[j] += d_s[i][j] * scale * q[i].
                    let qi = &ctx.q.row(base + i)[col0..col0 + hd];
                    let dq = &mut d_q.row_mut(base + i)[col0..col0 + hd];
                    for j in 0..=i {
                        let ds = prow[j] * (dprow[j] - inner) * scale;
                        if ds == 0.0 {
                            continue;
                        }
                        let kj = &ctx.k.row(base + j)[col0..col0 + hd];
                        for (d, kv) in dq.iter_mut().zip(kj) {
                            *d += ds * kv;
                        }
                        let dk = &mut d_k.row_mut(base + j)[col0..col0 + hd];
                        for (d, qv) in dk.iter_mut().zip(qi) {
                            *d += ds * qv;
                        }
                    }
                }
            }
        }

        // Projection weight grads and the gradient into the norm.
        let xn_t = ctx.x_norm.transpose();
        add_assign(&mut attn.gq, &matmul(&xn_t, &d_q));
        add_assign(&mut attn.gk, &matmul(&xn_t, &d_k));
        add_assign(&mut attn.gv, &matmul(&xn_t, &d_v));
        let mut d_norm = matmul_transpose_b(&d_q, &attn.wq);
        add_assign(&mut d_norm, &matmul_transpose_b(&d_k, &attn.wk));
        add_assign(&mut d_norm, &matmul_transpose_b(&d_v, &attn.wv));
        let mut d_x = attn.norm.backward(ctx.ln, &d_norm, &mut Workspace::new());
        add_assign(&mut d_x, d_y); // residual
        d_x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_residual_path() {
        let attn = Attention::new(8, 2, 1);
        let x = Tensor::rand_uniform(12, 8, 1.0, 2); // 2 sequences of 6
        let (y, _) = attn.forward(&x, 6, &mut Workspace::new());
        assert_eq!(y.shape(), (12, 8));
        assert!(!y.allclose(&x, 1e-6), "attention must contribute");
    }

    #[test]
    fn causality_first_token_sees_only_itself() {
        // Changing a later token must not affect an earlier output.
        let attn = Attention::new(8, 2, 3);
        let x1 = Tensor::rand_uniform(6, 8, 1.0, 4);
        let mut x2 = x1.clone();
        for c in 0..8 {
            x2.set(5, c, -x1.get(5, c)); // perturb the last token
        }
        let (y1, _) = attn.forward(&x1, 6, &mut Workspace::new());
        let (y2, _) = attn.forward(&x2, 6, &mut Workspace::new());
        for t in 0..5 {
            for c in 0..8 {
                assert!(
                    (y1.get(t, c) - y2.get(t, c)).abs() < 1e-6,
                    "token {t} leaked future information"
                );
            }
        }
        // The perturbed position itself must change.
        assert!((y1.get(5, 0) - y2.get(5, 0)).abs() > 1e-6);
    }

    #[test]
    fn sequences_are_independent() {
        // Two packed sequences: editing sequence 1 leaves sequence 0's
        // outputs untouched.
        let attn = Attention::new(8, 2, 5);
        let x1 = Tensor::rand_uniform(8, 8, 1.0, 6); // 2 sequences of 4
        let mut x2 = x1.clone();
        for t in 4..8 {
            for c in 0..8 {
                x2.set(t, c, 0.5 - x1.get(t, c));
            }
        }
        let (y1, _) = attn.forward(&x1, 4, &mut Workspace::new());
        let (y2, _) = attn.forward(&x2, 4, &mut Workspace::new());
        assert!(y1.slice_rows(0, 4).allclose(&y2.slice_rows(0, 4), 1e-6));
        assert!(!y1.slice_rows(4, 8).allclose(&y2.slice_rows(4, 8), 1e-4));
    }

    #[test]
    fn gradients_match_finite_difference() {
        let (s, hidden, heads) = (5usize, 6usize, 2usize);
        let x = Tensor::rand_uniform(s, hidden, 0.7, 7);
        let probe = Tensor::rand_uniform(s, hidden, 1.0, 8);
        let base = Attention::new(hidden, heads, 9);
        let loss_of = |a: &Attention, x: &Tensor| -> f64 {
            let (y, _) = a.forward(x, s, &mut Workspace::new());
            y.as_slice()
                .iter()
                .zip(probe.as_slice())
                .map(|(&v, &p)| (v * p) as f64)
                .sum()
        };
        let mut attn = base.clone();
        let ws = &mut Workspace::new();
        let (_, ctx) = attn.forward(&x, s, ws);
        let d_x = attn.backward(ctx, &probe, ws);

        let eps = 1e-3f32;
        let rel_ok = |fd: f64, an: f64| (fd - an).abs() < 2e-2 * (1.0 + an.abs().max(fd.abs()));
        // One entry from each projection.
        type Get = fn(&Attention) -> &Tensor;
        type GetMut = fn(&mut Attention) -> &mut Tensor;
        let checks: [(&str, Get, GetMut, Get); 4] = [
            ("wq", |a| &a.wq, |a| &mut a.wq, |a| &a.gq),
            ("wk", |a| &a.wk, |a| &mut a.wk, |a| &a.gk),
            ("wv", |a| &a.wv, |a| &mut a.wv, |a| &a.gv),
            ("wo", |a| &a.wo, |a| &mut a.wo, |a| &a.go),
        ];
        for (name, get, get_mut, grad) in checks {
            for &(r, c) in &[(0usize, 0usize), (3, 5)] {
                let w0 = get(&base).get(r, c);
                let fd = {
                    let mut up = base.clone();
                    get_mut(&mut up).set(r, c, w0 + eps);
                    let mut dn = base.clone();
                    get_mut(&mut dn).set(r, c, w0 - eps);
                    (loss_of(&up, &x) - loss_of(&dn, &x)) / (2.0 * eps as f64)
                };
                let an = grad(&attn).get(r, c) as f64;
                assert!(rel_ok(fd, an), "d{name}[{r},{c}] fd {fd} an {an}");
            }
        }
        for &(r, c) in &[(0usize, 1usize), (2, 4), (4, 0)] {
            let v0 = x.get(r, c);
            let fd = {
                let mut up = x.clone();
                up.set(r, c, v0 + eps);
                let mut dn = x.clone();
                dn.set(r, c, v0 - eps);
                (loss_of(&base, &up) - loss_of(&base, &dn)) / (2.0 * eps as f64)
            };
            let an = d_x.get(r, c) as f64;
            assert!(rel_ok(fd, an), "dX[{r},{c}] fd {fd} an {an}");
        }
    }

    #[test]
    fn zero_grads_clears() {
        // Zeroing through the walk reaches every gradient the backward wrote.
        let mut attn = Attention::new(8, 2, 11);
        let x = Tensor::rand_uniform(4, 8, 1.0, 12);
        let ws = &mut Workspace::new();
        let (y, ctx) = attn.forward(&x, 4, ws);
        let _ = attn.backward(ctx, &y, ws);
        assert!(attn.gq.norm() > 0.0);
        attn.visit_params(&mut |_, _, g| g.as_mut_slice().fill(0.0));
        let grads = [&attn.gq, &attn.gk, &attn.gv, &attn.go];
        let norms = [&attn.norm.g_gamma, &attn.norm.g_beta];
        assert!(grads.iter().chain(&norms).all(|g| g.norm() == 0.0));
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Forward + backward through the tile products and through the oracle,
    /// on one input; `(y, d_x)` of each, the two trained copies, and the
    /// saved head outputs and probabilities the backwards consumed.
    struct Both {
        attn: Attention,
        attn_out: Tensor,
        probs: Tensor,
        y: Tensor,
        d_x: Tensor,
        want: Attention,
        want_attn_out: Tensor,
        want_probs: Vec<Tensor>,
        want_y: Tensor,
        want_d_x: Tensor,
    }

    fn run_both(base: &Attention, x: &Tensor, d_y: &Tensor, seq_len: usize) -> Both {
        let (mut attn, mut want) = (base.clone(), base.clone());
        // One arena for the pair, so the backward runs on recycled buffers.
        let ws = &mut Workspace::new();
        let (y, ctx) = attn.forward(x, seq_len, ws);
        let (attn_out, probs) = (ctx.attn_out.clone(), ctx.probs.clone());
        let d_x = attn.backward(ctx, d_y, ws);
        let (want_y, want_ctx) = oracle::forward(&want, x, seq_len);
        let (want_attn_out, want_probs) = (want_ctx.attn_out.clone(), want_ctx.probs.clone());
        let want_d_x = oracle::backward(&mut want, want_ctx, d_y);
        Both {
            attn,
            attn_out,
            probs,
            y,
            d_x,
            want,
            want_attn_out,
            want_probs,
            want_y,
            want_d_x,
        }
    }

    #[test]
    fn tile_products_match_the_scalar_loops_bitwise() {
        // Sequence lengths around every row-group height (4, 8), head widths
        // around every tile width down to the 1-wide edge.
        for seq_len in [1usize, 7, 8, 9, 33, 64] {
            for hd in [1usize, 4, 8, 16, 24] {
                for heads in [1usize, 4] {
                    for batch in [1usize, 3] {
                        let (n, hidden) = (batch * seq_len, heads * hd);
                        let tag = format!("seq {seq_len} hd {hd} heads {heads} batch {batch}");
                        let seed = (seq_len * 1009 + hd * 31 + heads * 7 + batch) as u64;
                        let mut base = Attention::new(hidden, heads, seed);
                        // Non-zero gradients going in: the weight gradients
                        // accumulate, they do not overwrite.
                        base.gq = Tensor::rand_uniform(hidden, hidden, 1.0, seed ^ 0x61);
                        base.go = Tensor::rand_uniform(hidden, hidden, 1.0, seed ^ 0x62);
                        let mut x = Tensor::rand_uniform(n, hidden, 1.0, seed ^ 0x63);
                        // An all-zero token: LN maps it to `beta`, i.e. zero
                        // rows of Q/K/V and exact-zero scores.
                        x.row_mut(n / 2).fill(0.0);
                        let d_y = Tensor::rand_uniform(n, hidden, 1.0, seed ^ 0x64);
                        let r = run_both(&base, &x, &d_y, seq_len);

                        assert_eq!(bits(r.y.as_slice()), bits(r.want_y.as_slice()), "y, {tag}");
                        assert_eq!(
                            bits(r.attn_out.as_slice()),
                            bits(r.want_attn_out.as_slice()),
                            "attn_out, {tag}"
                        );
                        // The saved probabilities: equal on the lower triangle
                        // (all the backward reads), zero above it.
                        for (blk, want) in r.want_probs.iter().enumerate() {
                            for i in 0..seq_len {
                                let got = r.probs.row(blk * seq_len + i);
                                assert_eq!(
                                    bits(&got[..=i]),
                                    bits(&want.row(i)[..=i]),
                                    "probs block {blk} row {i}, {tag}"
                                );
                                assert!(got[i + 1..].iter().all(|p| p.to_bits() == 0));
                            }
                        }
                        assert_eq!(
                            bits(r.d_x.as_slice()),
                            bits(r.want_d_x.as_slice()),
                            "d_x, {tag}"
                        );
                        for (name, got, want) in [
                            ("gq", &r.attn.gq, &r.want.gq),
                            ("gk", &r.attn.gk, &r.want.gk),
                            ("gv", &r.attn.gv, &r.want.gv),
                            ("go", &r.attn.go, &r.want.go),
                            ("g_gamma", &r.attn.norm.g_gamma, &r.want.norm.g_gamma),
                            ("g_beta", &r.attn.norm.g_beta, &r.want.norm.g_beta),
                        ] {
                            assert_eq!(
                                bits(got.as_slice()),
                                bits(want.as_slice()),
                                "{name}, {tag}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_row_poisons_its_own_sequence_only() {
        // Three sequences of 20; token 13 of the middle one is NaN. Row groups
        // are at most 8 rows and start at multiples of their height, so the
        // tile products may spread the NaN to rows 8..13 of that sequence
        // (masked `0.0 * NaN` terms) where the scalar loops stop at row 13.
        let (seq_len, hidden, heads) = (20usize, 16usize, 2usize);
        let (bad_seq, bad_row) = (1usize, 13usize);
        let base = Attention::new(hidden, heads, 21);
        let clean = Tensor::rand_uniform(3 * seq_len, hidden, 1.0, 22);
        let d_y = Tensor::rand_uniform(3 * seq_len, hidden, 1.0, 23);
        let mut x = clean.clone();
        x.row_mut(bad_seq * seq_len + bad_row).fill(f32::NAN);
        let r = run_both(&base, &x, &d_y, seq_len);
        let ok = run_both(&base, &clean, &d_y, seq_len);

        let finite = |t: &Tensor, row: usize| t.row(row).iter().all(|v| v.is_finite());
        for (what, y, d_x) in [("tiles", &r.y, &r.d_x), ("oracle", &r.want_y, &r.want_d_x)] {
            for row in 0..3 * seq_len {
                let (seq, i) = (row / seq_len, row % seq_len);
                if seq != bad_seq {
                    // Another sequence: the clean run's bits.
                    assert_eq!(y.row(row), ok.y.row(row), "{what}: y row {row}");
                    assert_eq!(d_x.row(row), ok.d_x.row(row), "{what}: d_x row {row}");
                } else if i >= bad_row {
                    // The forward poisons the row and everything after it.
                    assert!(!finite(y, row), "{what}: y row {row} stayed finite");
                } else if i < bad_row - bad_row % 8 {
                    // Before the NaN's row group: untouched in the forward.
                    assert_eq!(y.row(row), ok.y.row(row), "{what}: y row {row}");
                }
            }
            // What the guard sees: a loss over the outputs is non-finite.
            let loss: f32 = y.as_slice().iter().sum();
            assert!(!loss.is_finite(), "{what}: loss {loss}");
        }
    }
}
