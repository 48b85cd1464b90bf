//! MoE gating: the top-k softmax router (paper Listing 1, `gating`), plus
//! the token-drop policy distinction of §5.6.
//!
//! §5.6 traces the small loss-curve gap between DeepSpeed-MoE and X-MoE to
//! token dropping: DeepSpeed-MoE drops a (token, expert) assignment whenever
//! its routing score is negative, *regardless* of capacity, while X-MoE only
//! drops on capacity overflow. [`DropPolicy`] encodes both behaviours so the
//! loss-validation experiment (Fig 15) can reproduce the gap.

use xmoe_tensor::{matmul_into, softmax_rows, topk_rows_into, Tensor};

/// When is a routed (token, expert) pair eligible to be dropped before
/// capacity is even considered?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropPolicy {
    /// X-MoE: drop only on expert-capacity overflow.
    CapacityOnly,
    /// DeepSpeed-MoE: additionally drop pairs whose *raw gate logit* is
    /// negative, independent of capacity (§5.6).
    CapacityAndNegativeLogit,
}

/// Output of the gating function for a local batch of `S` tokens.
///
/// The per-token arrays are stored *flat* — length `S*k`, token `t`'s slot
/// `j` at index `t*k + j` — so one gating call costs a constant number of
/// allocations instead of the `2S+` a `Vec<Vec<_>>` layout incurs, and the
/// buffers can be leased from a `Workspace`.
#[derive(Clone, Debug)]
pub struct GatingOutput {
    /// Flat `[S*k]` expert indices, per token by descending score.
    pub top_experts: Vec<usize>,
    /// Flat `[S*k]` softmax scores of the selected experts.
    pub combine_weights: Vec<f32>,
    /// Flat `[S*k]` raw (pre-softmax) logits of the selected experts —
    /// consumed by [`DropPolicy::CapacityAndNegativeLogit`].
    pub top_logits: Vec<f32>,
    /// Routing factor `k` (stride of the flat arrays).
    pub k: usize,
    /// Full `[S, E]` softmax scores (the training backward needs them).
    pub scores: Tensor,
}

impl GatingOutput {
    /// Number of tokens gated.
    pub fn tokens(&self) -> usize {
        self.scores.rows()
    }

    /// Routing factor `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Token `t`'s selected experts (`k` of them, by descending score).
    pub fn experts_of(&self, t: usize) -> &[usize] {
        &self.top_experts[t * self.k..(t + 1) * self.k]
    }

    /// Token `t`'s combine weights, aligned with [`Self::experts_of`].
    pub fn weights_of(&self, t: usize) -> &[f32] {
        &self.combine_weights[t * self.k..(t + 1) * self.k]
    }
}

impl Default for GatingOutput {
    /// An empty gating output, ready to be filled by [`Router::gate_into`].
    fn default() -> Self {
        Self {
            top_experts: Vec::new(),
            combine_weights: Vec::new(),
            top_logits: Vec::new(),
            k: 0,
            scores: Tensor::zeros(0, 0),
        }
    }
}

/// Reusable scratch for [`gate_rows`]: the logits tensor and the top-k
/// selection order. Grow-only, like every pooled scratch.
#[derive(Clone, Debug, Default)]
pub struct GateScratch {
    logits: Tensor,
    order: Vec<usize>,
}

impl GateScratch {
    /// The `[S, E]` logits of the last [`gate_rows`] call, after its clamp
    /// (the training z-loss reads them).
    pub fn logits(&self) -> &Tensor {
        &self.logits
    }
}

/// The one gating body (Listing 1 lines 1–8): `logits = tokens · weight`,
/// clamped into `[-logit_clamp, logit_clamp]` ([`clamp_logits`]; `0` is a
/// no-op), their row softmax into `out.scores`, the top-`top_k` experts per
/// token and their clamped logits. Logits stay in `scratch`; returns how
/// many the clamp limited. With warm buffers it performs no heap allocation.
pub fn gate_rows(
    weight: &Tensor,
    top_k: usize,
    logit_clamp: f32,
    tokens: &Tensor,
    scratch: &mut GateScratch,
    out: &mut GatingOutput,
) -> usize {
    assert_eq!(tokens.cols(), weight.rows(), "token hidden dim mismatch");
    let (s, e) = (tokens.rows(), weight.cols());
    // For-overwrite: the GEMM's Overwrite store fills `logits`, the copy
    // fills `scores`.
    let logits = &mut scratch.logits;
    logits.resize_for_overwrite(s, e);
    matmul_into(tokens, weight, logits);
    let clamped = clamp_logits(logits, logit_clamp);
    out.scores.resize_for_overwrite(s, e);
    out.scores.as_mut_slice().copy_from_slice(logits.as_slice());
    softmax_rows(&mut out.scores);
    topk_rows_into(
        &out.scores,
        top_k,
        &mut out.top_experts,
        &mut out.combine_weights,
        &mut scratch.order,
    );
    out.top_logits.clear();
    out.top_logits.extend(
        out.top_experts
            .iter()
            .enumerate()
            .map(|(i, &ex)| logits.get(i / top_k, ex)),
    );
    out.k = top_k;
    clamped
}

/// The learned router of one MoE layer: a single `[H, E]` projection.
#[derive(Clone, Debug)]
pub struct Router {
    /// Gate projection `H x E`.
    pub weight: Tensor,
    /// Experts activated per token.
    pub top_k: usize,
}

impl Router {
    /// Randomly initialized router.
    pub fn new(hidden: usize, num_experts: usize, top_k: usize, seed: u64) -> Self {
        assert!(
            top_k >= 1 && top_k <= num_experts,
            "top_k {top_k} out of range"
        );
        Self {
            weight: Tensor::rand_init(hidden, num_experts, hidden, seed),
            top_k,
        }
    }

    /// Router with explicit weights (tests, training).
    pub fn from_weight(weight: Tensor, top_k: usize) -> Self {
        Self { weight, top_k }
    }

    pub fn num_experts(&self) -> usize {
        self.weight.cols()
    }

    /// Run gating over `tokens` (`[S, H]`): compute logits, softmax, select
    /// top-k experts per token — [`Self::gate_into`] on fresh buffers.
    pub fn gate(&self, tokens: &Tensor) -> GatingOutput {
        let mut out = GatingOutput::default();
        self.gate_into(tokens, &mut GateScratch::default(), &mut out);
        out
    }

    /// [`gate_rows`] with this router's weight and `top_k`, unclamped: logits
    /// land in the scratch tensor, scores/top-k arrays in the reused `out`.
    pub fn gate_into(&self, tokens: &Tensor, scratch: &mut GateScratch, out: &mut GatingOutput) {
        gate_rows(&self.weight, self.top_k, 0.0, tokens, scratch, out);
    }
}

/// Router numerical-health guards. Large-scale MoE reports (Megatron Core
/// MoE, ST-MoE) single out router logit blow-up as a first-order stability
/// hazard: softmax saturates, one expert captures everything, and the
/// z = logsumexp of the logits drifts until bf16 overflows. Two standard
/// countermeasures, both exact and deterministic:
/// * clamp logits into `[-limit, limit]` before the softmax;
/// * penalize `z` with the ST-MoE z-loss `L_z = (1/S) * sum_t z_t^2`.
#[derive(Clone, Copy, Debug)]
pub struct RouterGuard {
    /// Symmetric logit clamp bound (`0.0` disables clamping).
    pub logit_clamp: f32,
    /// Coefficient of the z-loss term (`0.0` disables it).
    pub z_loss_coef: f32,
}

impl Default for RouterGuard {
    fn default() -> Self {
        Self {
            logit_clamp: 0.0,
            z_loss_coef: 0.0,
        }
    }
}

impl RouterGuard {
    /// Is either guard active?
    pub fn enabled(&self) -> bool {
        self.logit_clamp != 0.0 || self.z_loss_coef != 0.0
    }
}

/// Clamp every logit into `[-limit, limit]`; returns how many were clamped
/// (a health signal the guard timeline can surface). `limit <= 0` is a
/// no-op. Non-finite logits are left for the non-finite scan to report.
pub fn clamp_logits(logits: &mut Tensor, limit: f32) -> usize {
    if limit <= 0.0 {
        return 0;
    }
    let mut clamped = 0usize;
    for v in logits.as_mut_slice() {
        if *v > limit {
            *v = limit;
            clamped += 1;
        } else if *v < -limit {
            *v = -limit;
            clamped += 1;
        }
    }
    clamped
}

/// Numerically stable per-row `log(sum(exp(logits)))` — the router's
/// z-statistic. The max is subtracted before exponentiation so finite
/// logits always produce a finite z.
pub fn row_logsumexp(logits: &Tensor) -> Vec<f32> {
    let mut out = Vec::new();
    row_logsumexp_into(logits, &mut out);
    out
}

/// [`row_logsumexp`] into a caller-owned buffer (cleared first) — the
/// warm-buffer variant used by pooled training steps.
pub fn row_logsumexp_into(logits: &Tensor, out: &mut Vec<f32>) {
    out.clear();
    out.extend((0..logits.rows()).map(|t| {
        let row = logits.row(t);
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let sum: f32 = row.iter().map(|&v| (v - m).exp()).sum();
        m + sum.ln()
    }));
}

/// Value of the z-loss for the given per-row z statistics:
/// `(1/S) * sum_t z_t^2`. The gradient with respect to logit `(t, j)` is
/// `(2/S) * z_t * softmax(t, j)` — callers add it straight onto
/// `d_logits`, bypassing the softmax backward, since z is a direct
/// function of the logits.
pub fn z_loss_value(lse: &[f32]) -> f64 {
    if lse.is_empty() {
        return 0.0;
    }
    lse.iter().map(|&z| (z as f64) * (z as f64)).sum::<f64>() / lse.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmoe_tensor::{matmul, topk_rows};

    #[test]
    fn gate_selects_k_distinct_experts_per_token() {
        let router = Router::new(16, 8, 3, 42);
        let tokens = Tensor::rand_uniform(10, 16, 1.0, 7);
        let g = router.gate(&tokens);
        assert_eq!(g.tokens(), 10);
        assert_eq!(g.k(), 3);
        assert_eq!(g.top_experts.len(), 30);
        for t in 0..g.tokens() {
            let mut e = g.experts_of(t).to_vec();
            e.sort_unstable();
            e.dedup();
            assert_eq!(e.len(), 3, "duplicate expert selected");
        }
    }

    #[test]
    fn combine_weights_are_descending_softmax_scores() {
        let router = Router::new(8, 6, 4, 1);
        let tokens = Tensor::rand_uniform(5, 8, 1.0, 2);
        let g = router.gate(&tokens);
        for t in 0..g.tokens() {
            let w = g.weights_of(t);
            for i in 1..w.len() {
                assert!(w[i - 1] >= w[i], "weights not descending");
            }
            for (j, &e) in g.experts_of(t).iter().enumerate() {
                assert_eq!(g.scores.get(t, e), w[j]);
            }
            // Scores are softmax outputs: positive, <= 1.
            assert!(w.iter().all(|&x| x > 0.0 && x <= 1.0));
        }
    }

    #[test]
    fn forced_routing_with_identity_like_gate() {
        // A gate that strongly prefers expert = argmax of the first two dims.
        let mut w = Tensor::zeros(4, 2);
        w.set(0, 0, 10.0);
        w.set(1, 1, 10.0);
        let router = Router::from_weight(w, 1);
        let tokens = Tensor::from_vec(2, 4, vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let g = router.gate(&tokens);
        assert_eq!(g.experts_of(0)[0], 0);
        assert_eq!(g.experts_of(1)[0], 1);
    }

    #[test]
    fn top_logits_are_pre_softmax() {
        let router = Router::new(8, 4, 2, 3);
        let tokens = Tensor::rand_uniform(4, 8, 1.0, 4);
        let g = router.gate(&tokens);
        let logits = matmul(&tokens, &router.weight);
        for t in 0..4 {
            for j in 0..2 {
                assert_eq!(g.top_logits[t * 2 + j], logits.get(t, g.experts_of(t)[j]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "top_k")]
    fn rejects_topk_larger_than_expert_count() {
        let _ = Router::new(8, 4, 5, 1);
    }

    #[test]
    fn gate_into_matches_owned_gate_bitwise() {
        // The fused body on reused buffers against the unfused owned ops
        // (GEMM, clamp, softmax on a copy, top-k), with and without a clamp.
        let router = Router::new(16, 8, 3, 42);
        let mut scratch = GateScratch::default();
        let mut pooled = GatingOutput::default();
        // Reuse across differently-sized batches: results must stay equal.
        for (s, seed, clamp) in [(10usize, 7u64, 0.0f32), (4, 8, 0.5), (25, 9, 0.0)] {
            let tokens = Tensor::rand_uniform(s, 16, 1.0, seed);
            let mut logits = matmul(&tokens, &router.weight);
            let want_clamped = clamp_logits(&mut logits, clamp);
            let mut scores = logits.clone();
            softmax_rows(&mut scores);
            let (top_experts, combine_weights) = topk_rows(&scores, 3);
            let clamped = gate_rows(&router.weight, 3, clamp, &tokens, &mut scratch, &mut pooled);
            assert_eq!(clamped, want_clamped);
            assert_eq!(pooled.top_experts, top_experts);
            assert_eq!(pooled.combine_weights, combine_weights);
            for (i, &e) in top_experts.iter().enumerate() {
                assert_eq!(pooled.top_logits[i], logits.get(i / 3, e));
            }
            assert_eq!(pooled.k, 3);
            assert!(pooled.scores.allclose(&scores, 0.0));
            assert!(scratch.logits().allclose(&logits, 0.0));
            assert_eq!(clamp > 0.0, clamped > 0, "the clamp case must clamp");
        }
    }

    #[test]
    fn clamp_limits_logits_and_counts_hits() {
        let mut t = Tensor::from_vec(2, 3, vec![-9.0, 0.5, 9.0, 2.0, -2.0, 30.0]);
        let n = clamp_logits(&mut t, 2.0);
        assert_eq!(n, 3);
        assert_eq!(t.as_slice(), &[-2.0, 0.5, 2.0, 2.0, -2.0, 2.0]);
        // limit 0 disables.
        let mut u = Tensor::from_vec(1, 2, vec![100.0, -100.0]);
        assert_eq!(clamp_logits(&mut u, 0.0), 0);
        assert_eq!(u.as_slice(), &[100.0, -100.0]);
    }

    #[test]
    fn logsumexp_is_stable_and_exact_on_known_rows() {
        // Row of equal logits c: lse = c + ln(E).
        let t = Tensor::from_vec(
            2,
            4,
            vec![1.0; 4].into_iter().chain(vec![500.0; 4]).collect(),
        );
        let lse = row_logsumexp(&t);
        assert!((lse[0] - (1.0 + 4.0f32.ln())).abs() < 1e-6);
        // Huge logits stay finite thanks to max subtraction.
        assert!(lse[1].is_finite());
        assert!((lse[1] - (500.0 + 4.0f32.ln())).abs() < 1e-3);
        let z = z_loss_value(&lse);
        assert!(z.is_finite() && z > 0.0);
        assert_eq!(z_loss_value(&[]), 0.0);
    }

    #[test]
    fn router_guard_defaults_are_inert() {
        let g = RouterGuard::default();
        assert!(!g.enabled());
        assert!(RouterGuard {
            logit_clamp: 8.0,
            z_loss_coef: 0.0
        }
        .enabled());
    }
}
