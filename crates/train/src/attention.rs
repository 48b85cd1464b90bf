//! Multi-head causal self-attention with a hand-written backward pass.
//!
//! The paper's transformer blocks are attention + MoE; this module
//! completes the training stack's dense block. The implementation handles
//! a batch of independent sequences packed row-wise (`batch * seq_len`
//! rows): attention is block-diagonal over sequences with a causal mask
//! inside each.

use xmoe_tensor::{add_assign, matmul, matmul_transpose_b, Tensor};

use crate::layers::{LayerNorm, LayerNormCtx};

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

/// Saved forward state.
pub struct AttentionCtx {
    ln: LayerNormCtx,
    x_norm: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Per (sequence, head): the post-softmax probability matrix.
    probs: Vec<Tensor>,
    /// Concatenated head outputs before the output projection.
    attn_out: Tensor,
    seq_len: usize,
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

    /// Forward over `x` = `batch * seq_len` packed rows.
    pub fn forward(&self, x: &Tensor, seq_len: usize) -> (Tensor, AttentionCtx) {
        let (n, hidden) = x.shape();
        assert_eq!(n % seq_len, 0, "rows must be a whole number of sequences");
        let batch = n / seq_len;
        let hd = hidden / self.n_heads;
        let scale = 1.0 / (hd as f32).sqrt();

        let (x_norm, ln) = self.norm.forward(x);
        let q = matmul(&x_norm, &self.wq);
        let k = matmul(&x_norm, &self.wk);
        let v = matmul(&x_norm, &self.wv);

        let mut attn_out = Tensor::zeros(n, hidden);
        let mut probs = Vec::with_capacity(batch * self.n_heads);
        for b in 0..batch {
            let base = b * seq_len;
            for h in 0..self.n_heads {
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
        let mut y = matmul(&attn_out, &self.wo);
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

    /// Backward: accumulates all projection grads, returns `d_x`.
    pub fn backward(&mut self, ctx: &AttentionCtx, d_y: &Tensor) -> Tensor {
        let (n, hidden) = d_y.shape();
        let seq_len = ctx.seq_len;
        let batch = n / seq_len;
        let hd = hidden / self.n_heads;
        let scale = 1.0 / (hd as f32).sqrt();

        // Output projection.
        let dwo = matmul(&ctx.attn_out.transpose(), d_y);
        add_assign(&mut self.go, &dwo);
        let d_attn = matmul_transpose_b(d_y, &self.wo);

        let mut d_q = Tensor::zeros(n, hidden);
        let mut d_k = Tensor::zeros(n, hidden);
        let mut d_v = Tensor::zeros(n, hidden);
        for b in 0..batch {
            let base = b * seq_len;
            for h in 0..self.n_heads {
                let col0 = h * hd;
                let p = &ctx.probs[b * self.n_heads + h];
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
        add_assign(&mut self.gq, &matmul(&xn_t, &d_q));
        add_assign(&mut self.gk, &matmul(&xn_t, &d_k));
        add_assign(&mut self.gv, &matmul(&xn_t, &d_v));
        let mut d_norm = matmul_transpose_b(&d_q, &self.wq);
        add_assign(&mut d_norm, &matmul_transpose_b(&d_k, &self.wk));
        add_assign(&mut d_norm, &matmul_transpose_b(&d_v, &self.wv));
        let mut d_x = self.norm.backward(&ctx.ln, &d_norm);
        add_assign(&mut d_x, d_y); // residual
        d_x
    }

    pub fn zero_grads(&mut self) {
        for t in [&mut self.gq, &mut self.gk, &mut self.gv, &mut self.go] {
            for v in t.as_mut_slice() {
                *v = 0.0;
            }
        }
        for v in self.norm.g_gamma.as_mut_slice() {
            *v = 0.0;
        }
        for v in self.norm.g_beta.as_mut_slice() {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_residual_path() {
        let attn = Attention::new(8, 2, 1);
        let x = Tensor::rand_uniform(12, 8, 1.0, 2); // 2 sequences of 6
        let (y, _) = attn.forward(&x, 6);
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
        let (y1, _) = attn.forward(&x1, 6);
        let (y2, _) = attn.forward(&x2, 6);
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
        let (y1, _) = attn.forward(&x1, 4);
        let (y2, _) = attn.forward(&x2, 4);
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
            let (y, _) = a.forward(x, s);
            y.as_slice()
                .iter()
                .zip(probe.as_slice())
                .map(|(&v, &p)| (v * p) as f64)
                .sum()
        };
        let mut attn = base.clone();
        let (_, ctx) = attn.forward(&x, s);
        let d_x = attn.backward(&ctx, &probe);

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
        let mut attn = Attention::new(8, 2, 11);
        let x = Tensor::rand_uniform(4, 8, 1.0, 12);
        let (y, ctx) = attn.forward(&x, 4);
        let _ = attn.backward(&ctx, &y);
        assert!(attn.gq.norm() > 0.0);
        attn.zero_grads();
        assert_eq!(
            attn.gq.norm() + attn.gk.norm() + attn.gv.norm() + attn.go.norm(),
            0.0
        );
    }
}
