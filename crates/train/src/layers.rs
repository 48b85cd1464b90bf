//! Dense layers with hand-written backward passes: embedding, a GELU MLP
//! block, and the fused softmax-cross-entropy head.
//!
//! Every activation, saved-context tensor and temporary is a lease from the
//! caller's [`Workspace`] — for-overwrite wherever the next call writes it
//! whole. A `forward` returns its saves in a context, the matching `backward`
//! takes that context **by value** and recycles each tensor right after its
//! last read, so the backward's temporaries reuse the forward's saves. The
//! tensors a layer *returns* are leases too: recycle them once consumed. A
//! caller without an arena passes a throwaway `Workspace`.

use xmoe_tensor::{
    add_assign, gelu_val_grad, matmul_into, matmul_transpose_a_add, matmul_transpose_b_into,
    Tensor, Workspace,
};

/// A layer's part of the parameter walk: called once per `(site, param,
/// grad)`, `site` naming the tensor within its block (`"mlp.w1"`).
pub(crate) type ParamVisitor<'a> = &'a mut dyn FnMut(&'static str, &mut Tensor, &mut Tensor);

/// `a @ b` into a for-overwrite lease (the GEMM's Overwrite store fills it).
pub(crate) fn project(a: &Tensor, b: &Tensor, ws: &mut Workspace) -> Tensor {
    let mut c = ws.take_for_overwrite(a.rows(), b.cols());
    matmul_into(a, b, &mut c);
    c
}

/// `a @ b^T` into a for-overwrite lease.
pub(crate) fn project_t(a: &Tensor, b: &Tensor, ws: &mut Workspace) -> Tensor {
    let mut c = ws.take_for_overwrite(a.rows(), b.rows());
    matmul_transpose_b_into(a, b, &mut c);
    c
}

/// Token embedding table `[V, H]`.
#[derive(Clone, Debug)]
pub struct Embedding {
    pub weight: Tensor,
    pub grad: Tensor,
}

impl Embedding {
    pub fn new(vocab: usize, hidden: usize, seed: u64) -> Self {
        Self {
            weight: Tensor::rand_uniform(vocab, hidden, 0.1, seed),
            grad: Tensor::zeros(vocab, hidden),
        }
    }

    /// Look up `tokens`, producing `[n, H]`.
    pub fn forward(&self, tokens: &[usize], ws: &mut Workspace) -> Tensor {
        // For-overwrite: one row copy per token fills it.
        let mut out = ws.take_for_overwrite(tokens.len(), self.weight.cols());
        for (i, &t) in tokens.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.weight.row(t));
        }
        out
    }

    /// Accumulate `d_out` rows into the embedding gradient.
    pub fn backward(&mut self, tokens: &[usize], d_out: &Tensor) {
        for (i, &t) in tokens.iter().enumerate() {
            let g = self.grad.row_mut(t);
            for (gv, dv) in g.iter_mut().zip(d_out.row(i)) {
                *gv += dv;
            }
        }
    }
}

/// Row-wise layer normalization with learnable scale/shift:
/// `y = gamma * (x - mean) / sqrt(var + eps) + beta`.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    pub gamma: Tensor,
    pub beta: Tensor,
    pub g_gamma: Tensor,
    pub g_beta: Tensor,
    pub eps: f32,
}

/// Saved forward state of a layer norm.
pub struct LayerNormCtx {
    /// Normalized activations `x_hat`.
    x_hat: Tensor,
    /// Per-row `1 / sqrt(var + eps)`, `[n, 1]`.
    inv_std: Tensor,
}

impl LayerNorm {
    pub fn new(hidden: usize) -> Self {
        Self {
            gamma: Tensor::full(1, hidden, 1.0),
            beta: Tensor::zeros(1, hidden),
            g_gamma: Tensor::zeros(1, hidden),
            g_beta: Tensor::zeros(1, hidden),
            eps: 1e-5,
        }
    }

    pub fn forward(&self, x: &Tensor, ws: &mut Workspace) -> (Tensor, LayerNormCtx) {
        let (n, h) = x.shape();
        // For-overwrite: the row loop writes every element of all three.
        let mut x_hat = ws.take_for_overwrite(n, h);
        let mut out = ws.take_for_overwrite(n, h);
        let mut inv_std = ws.take_for_overwrite(n, 1);
        let g = self.gamma.row(0);
        let b = self.beta.row(0);
        for r in 0..n {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / h as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / h as f32;
            let is = 1.0 / (var + self.eps).sqrt();
            inv_std.as_mut_slice()[r] = is;
            let xh = x_hat.row_mut(r);
            let o = out.row_mut(r);
            for c in 0..h {
                xh[c] = (row[c] - mean) * is;
                o[c] = g[c] * xh[c] + b[c];
            }
        }
        (out, LayerNormCtx { x_hat, inv_std })
    }

    /// Backward: accumulates `g_gamma`/`g_beta`, returns `d_x`.
    pub fn backward(&mut self, ctx: LayerNormCtx, d_y: &Tensor, ws: &mut Workspace) -> Tensor {
        let (n, h) = d_y.shape();
        // For-overwrite: the row loop writes every element.
        let mut d_x = ws.take_for_overwrite(n, h);
        let g = self.gamma.row(0);
        let inv_std = ctx.inv_std.as_slice();
        for r in 0..n {
            let dy = d_y.row(r);
            let xh = ctx.x_hat.row(r);
            // Parameter grads.
            {
                let gg = self.g_gamma.row_mut(0);
                let gb = self.g_beta.row_mut(0);
                for c in 0..h {
                    gg[c] += dy[c] * xh[c];
                    gb[c] += dy[c];
                }
            }
            // d_xhat = dy * gamma; dx via the standard LN backward.
            let mut sum_dxh = 0.0f32;
            let mut sum_dxh_xh = 0.0f32;
            for c in 0..h {
                let dxh = dy[c] * g[c];
                sum_dxh += dxh;
                sum_dxh_xh += dxh * xh[c];
            }
            let inv_h = 1.0 / h as f32;
            let dx = d_x.row_mut(r);
            for c in 0..h {
                let dxh = dy[c] * g[c];
                dx[c] = inv_std[r] * (dxh - inv_h * sum_dxh - xh[c] * inv_h * sum_dxh_xh);
            }
        }
        ws.recycle(ctx.x_hat);
        ws.recycle(ctx.inv_std);
        d_x
    }
}

/// A pre-norm residual two-matrix GELU MLP:
/// `y = x + gelu(LN(x) W1) W2`.
#[derive(Clone, Debug)]
pub struct DenseMlp {
    pub norm: LayerNorm,
    pub w1: Tensor,
    pub w2: Tensor,
    pub g1: Tensor,
    pub g2: Tensor,
}

/// Saved forward state for the backward pass.
pub struct DenseMlpCtx {
    ln: LayerNormCtx,
    x_norm: Tensor,
    /// `gelu'(x_norm W1)`, written over the pre-activation by the forward
    /// pass: value and derivative share one in-repo `tanh` (the pair costs
    /// ≈ 2.3 ns an element on a 2.1 GHz Xeon, against ≈ 19 ns with libm's
    /// `tanhf`), so the backward is a plain multiply and the pre-activation
    /// itself is not kept.
    h_grad: Tensor,
    h_act: Tensor,
}

impl DenseMlp {
    pub fn new(hidden: usize, inner: usize, seed: u64) -> Self {
        Self {
            norm: LayerNorm::new(hidden),
            w1: Tensor::rand_init(hidden, inner, hidden, seed),
            w2: Tensor::rand_init(inner, hidden, inner, seed ^ 0xABCD),
            g1: Tensor::zeros(hidden, inner),
            g2: Tensor::zeros(inner, hidden),
        }
    }

    pub fn forward(&self, x: &Tensor, ws: &mut Workspace) -> (Tensor, DenseMlpCtx) {
        let (x_norm, ln) = self.norm.forward(x, ws);
        let mut h_grad = project(&x_norm, &self.w1, ws);
        // For-overwrite: the GELU pass writes every element.
        let mut h_act = ws.take_for_overwrite(h_grad.rows(), h_grad.cols());
        for (g, v) in h_grad.as_mut_slice().iter_mut().zip(h_act.as_mut_slice()) {
            (*v, *g) = gelu_val_grad(*g);
        }
        let mut y = project(&h_act, &self.w2, ws);
        add_assign(&mut y, x); // residual
        (
            y,
            DenseMlpCtx {
                ln,
                x_norm,
                h_grad,
                h_act,
            },
        )
    }

    /// Backward: returns `d_x`; accumulates weight grads.
    pub fn backward(&mut self, ctx: DenseMlpCtx, d_y: &Tensor, ws: &mut Workspace) -> Tensor {
        // dW2 += h_act^T d_y
        matmul_transpose_a_add(&ctx.h_act, d_y, &mut self.g2);
        ws.recycle(ctx.h_act);
        // d_h_act = d_y W2^T
        let mut d_h = project_t(d_y, &self.w2, ws);
        // Through GELU.
        for (d, &g) in d_h.as_mut_slice().iter_mut().zip(ctx.h_grad.as_slice()) {
            *d *= g;
        }
        ws.recycle(ctx.h_grad);
        // dW1 += x_norm^T d_h
        matmul_transpose_a_add(&ctx.x_norm, &d_h, &mut self.g1);
        ws.recycle(ctx.x_norm);
        // Through the layer norm, then add the residual path.
        let d_norm_in = project_t(&d_h, &self.w1, ws);
        ws.recycle(d_h);
        let mut d_x = self.norm.backward(ctx.ln, &d_norm_in, ws);
        ws.recycle(d_norm_in);
        add_assign(&mut d_x, d_y);
        d_x
    }

    /// This block's part of the model's parameter walk: every `(site,
    /// param, grad)`, in the order the optimizer and the checkpoint know
    /// them by.
    pub(crate) fn visit_params(&mut self, f: ParamVisitor<'_>) {
        f("mlp.w1", &mut self.w1, &mut self.g1);
        f("mlp.w2", &mut self.w2, &mut self.g2);
        f("mlp.gamma", &mut self.norm.gamma, &mut self.norm.g_gamma);
        f("mlp.beta", &mut self.norm.beta, &mut self.norm.g_beta);
    }
}

/// Output head with fused softmax cross-entropy.
#[derive(Clone, Debug)]
pub struct Head {
    /// `[H, V]`.
    pub weight: Tensor,
    pub grad: Tensor,
}

impl Head {
    pub fn new(hidden: usize, vocab: usize, seed: u64) -> Self {
        Self {
            weight: Tensor::rand_init(hidden, vocab, hidden, seed),
            grad: Tensor::zeros(hidden, vocab),
        }
    }

    /// Mean cross-entropy of `targets` under `softmax(x W)`, plus `d_x`, with
    /// the loss multiplied by `loss_scale` — mixed-precision loss scaling, 1.0
    /// for none. The weight gradient accumulates into `self.grad`. The scale
    /// enters at `d_logits`, *before* the weight gradient is formed, so
    /// `self.grad` and the returned `d_x` carry it consistently. A
    /// power-of-two scale is folded in as an exact multiply on the `1/n`
    /// factor, so every gradient is the bitwise-scaled image of the unscaled
    /// run's.
    pub fn loss_and_backward_scaled(
        &mut self,
        x: &Tensor,
        targets: &[usize],
        loss_scale: f32,
        ws: &mut Workspace,
    ) -> (f64, Tensor) {
        assert_eq!(x.rows(), targets.len());
        let n = targets.len().max(1);
        // Logits, then probabilities, then `d_logits`, in place: each row's
        // target entry is read for the loss and only then turned into `p - 1`.
        let mut d_logits = project(x, &self.weight, ws);
        xmoe_tensor::softmax_rows(&mut d_logits);
        let mut loss = 0.0f64;
        for (i, &t) in targets.iter().enumerate() {
            let p = d_logits.get(i, t);
            loss -= (p.max(1e-12) as f64).ln();
            d_logits.set(i, t, p - 1.0);
        }
        xmoe_tensor::scale_assign(&mut d_logits, (1.0 / n as f32) * loss_scale);
        // dW += x^T d_logits
        matmul_transpose_a_add(x, &d_logits, &mut self.grad);
        let d_x = project_t(&d_logits, &self.weight, ws);
        ws.recycle(d_logits);
        (loss / n as f64, d_x)
    }
}

/// Finite-difference helper used by gradient tests across the crate:
/// perturb `param[idx]` by ±eps around its current value and report the
/// centered difference of `loss_fn`.
#[cfg(test)]
pub(crate) fn central_diff(mut loss_fn: impl FnMut(f32) -> f64, base: f32, eps: f32) -> f64 {
    let up = loss_fn(base + eps);
    let down = loss_fn(base - eps);
    (up - down) / (2.0 * eps as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmoe_tensor::matmul;

    #[test]
    fn embedding_forward_and_grad() {
        let mut e = Embedding::new(4, 3, 1);
        let out = e.forward(&[2, 0, 2], &mut Workspace::new());
        assert_eq!(out.row(0), e.weight.row(2));
        let d = Tensor::full(3, 3, 1.0);
        e.backward(&[2, 0, 2], &d);
        // Token 2 appears twice.
        assert!(e.grad.row(2).iter().all(|&g| (g - 2.0).abs() < 1e-6));
        assert!(e.grad.row(0).iter().all(|&g| (g - 1.0).abs() < 1e-6));
        assert!(e.grad.row(1).iter().all(|&g| g == 0.0));
    }

    #[test]
    fn head_loss_matches_manual_ce() {
        let mut h = Head::new(2, 3, 2);
        let x = Tensor::from_vec(1, 2, vec![0.5, -0.25]);
        let (loss, _) = h.loss_and_backward_scaled(&x, &[1], 1.0, &mut Workspace::new());
        // Manual computation.
        let logits = matmul(&x, &h.weight);
        let mut p = logits.clone();
        xmoe_tensor::softmax_rows(&mut p);
        let expect = -(p.get(0, 1) as f64).ln();
        assert!((loss - expect).abs() < 1e-6);
    }

    #[test]
    fn head_gradients_match_finite_difference() {
        let hidden = 3;
        let vocab = 4;
        let x = Tensor::rand_uniform(2, hidden, 1.0, 3);
        let targets = [1usize, 3];
        let base = Head::new(hidden, vocab, 4);
        let mut h = base.clone();
        let (_, d_x) = h.loss_and_backward_scaled(&x, &targets, 1.0, &mut Workspace::new());
        let eps = 1e-3;
        // Check a few weight entries.
        for &(r, c) in &[(0usize, 0usize), (1, 2), (2, 3)] {
            let w0 = base.weight.get(r, c);
            let fd = central_diff(
                |v| {
                    let mut hh = base.clone();
                    hh.weight.set(r, c, v);
                    hh.loss_and_backward_scaled(&x, &targets, 1.0, &mut Workspace::new())
                        .0
                },
                w0,
                eps,
            );
            let an = h.grad.get(r, c) as f64;
            assert!((fd - an).abs() < 1e-3, "dW[{r},{c}] fd {fd} vs an {an}");
        }
        // Check an input entry.
        let fd = central_diff(
            |v| {
                let mut xx = x.clone();
                xx.set(0, 1, v);
                base.clone()
                    .loss_and_backward_scaled(&xx, &targets, 1.0, &mut Workspace::new())
                    .0
            },
            x.get(0, 1),
            eps,
        );
        assert!((fd - d_x.get(0, 1) as f64).abs() < 1e-3);
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Tensor::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.0, 1.0, 10.0]);
        let (y, _) = ln.forward(&x, &mut Workspace::new());
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_gamma_beta_affine() {
        let mut ln = LayerNorm::new(3);
        ln.gamma = Tensor::from_vec(1, 3, vec![2.0, 2.0, 2.0]);
        ln.beta = Tensor::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let x = Tensor::from_vec(1, 3, vec![0.0, 1.0, 2.0]);
        let (y, _) = ln.forward(&x, &mut Workspace::new());
        // Normalized row is symmetric around 0; gamma/beta shift it.
        let mean: f32 = y.row(0).iter().sum::<f32>() / 3.0;
        assert!((mean - 1.0).abs() < 1e-5);
    }

    #[test]
    fn layernorm_gradients_match_finite_difference() {
        let (n, h) = (3usize, 5usize);
        let x = Tensor::rand_uniform(n, h, 1.0, 71);
        let probe = Tensor::rand_uniform(n, h, 1.0, 72);
        let mut base = LayerNorm::new(h);
        base.gamma = Tensor::rand_uniform(1, h, 0.5, 73);
        for v in base.gamma.as_mut_slice() {
            *v += 1.0;
        }
        base.beta = Tensor::rand_uniform(1, h, 0.5, 74);

        let loss_of = |ln: &LayerNorm, x: &Tensor| -> f64 {
            let (y, _) = ln.forward(x, &mut Workspace::new());
            y.as_slice()
                .iter()
                .zip(probe.as_slice())
                .map(|(&a, &p)| (a * p) as f64)
                .sum()
        };

        let mut ln = base.clone();
        let (_, ctx) = ln.forward(&x, &mut Workspace::new());
        let d_x = ln.backward(ctx, &probe, &mut Workspace::new());
        let eps = 1e-3f32;
        let rel_ok = |fd: f64, an: f64| (fd - an).abs() < 2e-2 * (1.0 + an.abs().max(fd.abs()));

        for c in [0usize, 2, 4] {
            let g0 = base.gamma.get(0, c);
            let fd = {
                let mut up = base.clone();
                up.gamma.set(0, c, g0 + eps);
                let mut dn = base.clone();
                dn.gamma.set(0, c, g0 - eps);
                (loss_of(&up, &x) - loss_of(&dn, &x)) / (2.0 * eps as f64)
            };
            assert!(rel_ok(fd, ln.g_gamma.get(0, c) as f64), "dGamma[{c}]");
            let b0 = base.beta.get(0, c);
            let fd_b = {
                let mut up = base.clone();
                up.beta.set(0, c, b0 + eps);
                let mut dn = base.clone();
                dn.beta.set(0, c, b0 - eps);
                (loss_of(&up, &x) - loss_of(&dn, &x)) / (2.0 * eps as f64)
            };
            assert!(rel_ok(fd_b, ln.g_beta.get(0, c) as f64), "dBeta[{c}]");
        }
        for &(r, c) in &[(0usize, 0usize), (1, 3), (2, 4)] {
            let v0 = x.get(r, c);
            let fd = {
                let mut up = x.clone();
                up.set(r, c, v0 + eps);
                let mut dn = x.clone();
                dn.set(r, c, v0 - eps);
                (loss_of(&base, &up) - loss_of(&base, &dn)) / (2.0 * eps as f64)
            };
            assert!(
                rel_ok(fd, d_x.get(r, c) as f64),
                "dX[{r},{c}] fd {fd} an {}",
                d_x.get(r, c)
            );
        }
    }

    #[test]
    fn dense_mlp_gradients_match_finite_difference() {
        let (n, h, inner) = (3usize, 4usize, 5usize);
        let x = Tensor::rand_uniform(n, h, 0.5, 5);
        let base = DenseMlp::new(h, inner, 6);
        // Scalar loss: sum of outputs.
        let loss_of = |mlp: &DenseMlp, x: &Tensor| -> f64 {
            let (y, _) = mlp.forward(x, &mut Workspace::new());
            y.as_slice().iter().map(|&v| v as f64).sum()
        };
        let mut mlp = base.clone();
        let (y, ctx) = mlp.forward(&x, &mut Workspace::new());
        let d_y = Tensor::full(y.rows(), y.cols(), 1.0);
        let d_x = mlp.backward(ctx, &d_y, &mut Workspace::new());
        let eps = 1e-3;
        for &(r, c) in &[(0usize, 0usize), (2, 3)] {
            let w0 = base.w1.get(r, c);
            let fd = central_diff(
                |v| {
                    let mut m = base.clone();
                    m.w1.set(r, c, v);
                    loss_of(&m, &x)
                },
                w0,
                eps,
            );
            let an = mlp.g1.get(r, c) as f64;
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                "dW1[{r},{c}] fd {fd} an {an}"
            );
        }
        let fd = central_diff(
            |v| {
                let mut xx = x.clone();
                xx.set(1, 2, v);
                loss_of(&base, &xx)
            },
            x.get(1, 2),
            eps,
        );
        assert!(
            (fd - d_x.get(1, 2) as f64).abs() < 2e-2 * (1.0 + fd.abs()),
            "dx fd {fd}"
        );
    }
}
