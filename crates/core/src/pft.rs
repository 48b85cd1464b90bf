//! PFT — the Padding-Free Token buffer (paper §4.1.1, Listing 1,
//! Appendix B.2).
//!
//! Instead of fixed-capacity zero-padded expert buffers (`[E, C, H]`) driven
//! by a dense `[S, E, C]` dispatch mask, a PFT stores only the routed token
//! entries plus four small **ERI-arrays** (Expert Routing Information):
//!
//! * `token_ids[i]` — which input token occupies position `i` of the
//!   dispatch matrix;
//! * `expert_ids[i]` — which expert entry `i` is routed to (ascending, so
//!   every expert's segment is contiguous);
//! * `tokens_per_expert[e]` — segment length per expert;
//! * `combine_weights[i]` — the gating score the combine stage scales
//!   entry `i`'s expert output by.
//!
//! Construction follows Listing 1: flatten the `[S, k]` assignments, keep
//! each expert's `capacity` highest-weighted entries (dropping the
//! lowest-scored overflow), then emit expert-sorted ERI-arrays. The
//! [`DropPolicy`] pre-filter reproduces DeepSpeed-MoE's negative-logit
//! dropping for the §5.6 comparison.

use crate::gating::{DropPolicy, GatingOutput};
use xmoe_tensor::select_top_desc;

/// Reusable scratch for [`Pft::construct_into`]: the flattened assignment
/// arrays, the counting-sort tables that bucket them by expert and the
/// selection order of one overflowing bucket. All buffers are grow-only, so
/// a scratch reused across steps makes PFT construction allocation-free
/// after warm-up.
#[derive(Clone, Debug, Default)]
pub struct PftScratch {
    flat_tokens: Vec<usize>,
    flat_experts: Vec<usize>,
    flat_weights: Vec<f32>,
    /// Flat indices grouped by expert, ascending within each bucket.
    buckets: Vec<usize>,
    /// `[E + 1]` bucket boundaries in `buckets`.
    offsets: Vec<usize>,
    cursor: Vec<usize>,
    /// One overflowing bucket while its top `capacity` is selected.
    order: Vec<usize>,
}

/// The ERI-arrays of one local batch (the token buffer `x` travels
/// separately through the pipeline stages).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pft {
    /// `[B]` original token index of each routed entry.
    pub token_ids: Vec<usize>,
    /// `[B]` destination expert of each entry; non-decreasing.
    pub expert_ids: Vec<usize>,
    /// `[E]` entries routed to each expert.
    pub tokens_per_expert: Vec<usize>,
    /// `[B]` gating score each entry's expert output is scaled by.
    pub combine_weights: Vec<f32>,
    /// Routed (token, expert) pairs dropped during construction.
    pub dropped: usize,
}

impl Pft {
    /// Number of retained routed entries `B`.
    pub fn len(&self) -> usize {
        self.token_ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.token_ids.is_empty()
    }

    /// Construct the PFT from gating output (Listing 1,
    /// `PFT_construction`).
    ///
    /// `capacity` is `max_token_count`, the per-expert retention limit: an
    /// expert over it keeps its `capacity` highest combine weights (ties to
    /// the earlier assignment), so overflow drops the lowest-confidence
    /// assignments. `policy` optionally applies DeepSpeed-MoE's
    /// negative-logit pre-drop.
    ///
    /// ```
    /// use xmoe_core::gating::{DropPolicy, Router};
    /// use xmoe_core::pft::Pft;
    /// use xmoe_tensor::Tensor;
    ///
    /// let router = Router::new(16, 8, 2, 42);
    /// let tokens = Tensor::rand_uniform(10, 16, 1.0, 7);
    /// let gating = router.gate(&tokens);
    /// let pft = Pft::construct(&gating, 8, 100, DropPolicy::CapacityOnly);
    /// assert_eq!(pft.len(), 10 * 2);          // no drops at this capacity
    /// assert_eq!(pft.tokens_per_expert.len(), 8);
    /// pft.validate(10);                        // structural invariants hold
    /// ```
    pub fn construct(
        gating: &GatingOutput,
        num_experts: usize,
        capacity: usize,
        policy: DropPolicy,
    ) -> Pft {
        let mut out = Pft {
            token_ids: Vec::new(),
            expert_ids: Vec::new(),
            tokens_per_expert: Vec::new(),
            combine_weights: Vec::new(),
            dropped: 0,
        };
        let mut scratch = PftScratch::default();
        Self::construct_into(
            gating,
            num_experts,
            capacity,
            policy,
            &mut scratch,
            &mut out,
        );
        out
    }

    /// [`Pft::construct`] writing into a reused `out` and `scratch` — the
    /// same algorithm on caller-owned grow-only buffers, producing results
    /// identical to the owned variant. With warm buffers the call performs no
    /// heap allocation.
    pub fn construct_into(
        gating: &GatingOutput,
        num_experts: usize,
        capacity: usize,
        policy: DropPolicy,
        scratch: &mut PftScratch,
        out: &mut Pft,
    ) {
        let s = gating.tokens();
        let k = gating.k();

        // Step 1: flatten the [S, k] assignments (Listing 1 lines 20-21),
        // applying the policy pre-filter.
        let flat_tokens = &mut scratch.flat_tokens;
        let flat_experts = &mut scratch.flat_experts;
        let flat_weights = &mut scratch.flat_weights;
        flat_tokens.clear();
        flat_experts.clear();
        flat_weights.clear();
        let mut prefiltered = 0usize;
        for t in 0..s {
            for j in 0..k {
                if policy == DropPolicy::CapacityAndNegativeLogit
                    && gating.top_logits[t * k + j] < 0.0
                {
                    prefiltered += 1;
                    continue;
                }
                flat_tokens.push(t);
                flat_experts.push(gating.top_experts[t * k + j]);
                flat_weights.push(gating.combine_weights[t * k + j]);
            }
        }

        // Step 2: bucket the flat indices by expert with a counting pass
        // (O(B + E), no comparison sort); flat order — token order — is kept
        // within each bucket.
        let offsets = &mut scratch.offsets;
        offsets.clear();
        offsets.resize(num_experts + 1, 0);
        for &e in flat_experts.iter() {
            assert!(e < num_experts, "expert id {e} out of range {num_experts}");
            offsets[e + 1] += 1;
        }
        for e in 0..num_experts {
            offsets[e + 1] += offsets[e];
        }
        let cursor = &mut scratch.cursor;
        cursor.clear();
        cursor.extend_from_slice(&offsets[..num_experts]);
        let buckets = &mut scratch.buckets;
        buckets.clear();
        buckets.resize(flat_experts.len(), 0);
        for (i, &e) in flat_experts.iter().enumerate() {
            buckets[cursor[e]] = i;
            cursor[e] += 1;
        }

        // Step 3: keep the top `capacity` of each expert (lines 24-33) and
        // emit the ERI-arrays expert by expert, token order preserved within
        // each segment (lines 34-40), which makes each EP destination's
        // slice of the dispatch buffer contiguous. The global weight ranking
        // of Listing 1 restricted to one expert is that expert's own ranking
        // (weight descending, flat index ascending, so ties are
        // deterministic), so only an overflowing bucket is ranked at all —
        // by an O(len) selection, then its survivors go back to flat order.
        out.token_ids.clear();
        out.expert_ids.clear();
        out.combine_weights.clear();
        out.tokens_per_expert.clear();
        let mut dropped = prefiltered;
        for e in 0..num_experts {
            let mut kept = &buckets[offsets[e]..offsets[e + 1]];
            if kept.len() > capacity {
                dropped += kept.len() - capacity;
                let order = &mut scratch.order;
                order.clear();
                order.extend_from_slice(kept);
                select_top_desc(flat_weights, order, capacity);
                order.truncate(capacity);
                order.sort_unstable();
                kept = order;
            }
            out.token_ids.extend(kept.iter().map(|&i| flat_tokens[i]));
            out.expert_ids.extend(kept.iter().map(|_| e));
            out.combine_weights
                .extend(kept.iter().map(|&i| flat_weights[i]));
            out.tokens_per_expert.push(kept.len());
        }
        out.dropped = dropped;
    }

    /// Internal consistency checks (used by tests and debug assertions).
    pub fn validate(&self, num_tokens: usize) {
        assert_eq!(self.token_ids.len(), self.expert_ids.len());
        assert_eq!(self.token_ids.len(), self.combine_weights.len());
        let total: usize = self.tokens_per_expert.iter().sum();
        assert_eq!(
            total,
            self.token_ids.len(),
            "tokens_per_expert sum mismatch"
        );
        // expert_ids non-decreasing and consistent with tokens_per_expert.
        let mut idx = 0;
        for (e, &cnt) in self.tokens_per_expert.iter().enumerate() {
            for _ in 0..cnt {
                assert_eq!(
                    self.expert_ids[idx], e,
                    "expert segment out of order at {idx}"
                );
                idx += 1;
            }
        }
        assert!(
            self.token_ids.iter().all(|&t| t < num_tokens),
            "token id out of range"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gating::Router;
    use xmoe_tensor::Tensor;

    fn gate(s: usize, h: usize, e: usize, k: usize, seed: u64) -> GatingOutput {
        let router = Router::new(h, e, k, seed);
        let tokens = Tensor::rand_uniform(s, h, 1.0, seed + 1000);
        router.gate(&tokens)
    }

    /// Listing 1 as written — and as [`Pft::construct_into`] did it before the
    /// per-expert selection: one global descending argsort of every
    /// assignment's weight, a greedy walk keeping the first `capacity` per
    /// expert, then the expert-major emission. The oracle of the test below.
    fn construct_by_global_argsort(
        g: &GatingOutput,
        num_experts: usize,
        capacity: usize,
        policy: DropPolicy,
    ) -> Pft {
        let k = g.k();
        let (mut tokens, mut experts, mut weights) = (Vec::new(), Vec::new(), Vec::new());
        let mut dropped = 0usize;
        for i in 0..g.tokens() * k {
            if policy == DropPolicy::CapacityAndNegativeLogit && g.top_logits[i] < 0.0 {
                dropped += 1;
                continue;
            }
            tokens.push(i / k);
            experts.push(g.top_experts[i]);
            weights.push(g.combine_weights[i]);
        }
        let mut taken = vec![0usize; num_experts];
        let mut retained = vec![false; tokens.len()];
        for i in xmoe_tensor::argsort_desc_by(&weights) {
            if taken[experts[i]] < capacity {
                taken[experts[i]] += 1;
                retained[i] = true;
            } else {
                dropped += 1;
            }
        }
        let mut out = Pft {
            tokens_per_expert: taken,
            dropped,
            ..Pft::default()
        };
        for e in 0..num_experts {
            for i in (0..tokens.len()).filter(|&i| retained[i] && experts[i] == e) {
                out.token_ids.push(tokens[i]);
                out.expert_ids.push(e);
                out.combine_weights.push(weights[i]);
            }
        }
        out
    }

    #[test]
    fn per_expert_selection_equals_the_global_argsort_construction() {
        let (s, e, k) = (96usize, 8usize, 3usize);
        let mean = s * k / e;
        let mut scratch = PftScratch::default();
        let mut got = Pft::default();
        for seed in 0..6u64 {
            let mut g = gate(s, 16, e, k, 40 + seed);
            if seed % 2 == 1 {
                // Heavy ties: a handful of distinct weights, so the index
                // tie-break decides most overflow drops.
                for w in &mut g.combine_weights {
                    *w = (*w * 6.0).round() / 6.0;
                }
            }
            if seed == 5 {
                g.combine_weights[7] = f32::NAN; // ranks last, never panics
            }
            for capacity in [0, 1, mean / 2, mean, 2 * mean] {
                for policy in [
                    DropPolicy::CapacityOnly,
                    DropPolicy::CapacityAndNegativeLogit,
                ] {
                    Pft::construct_into(&g, e, capacity, policy, &mut scratch, &mut got);
                    let want = construct_by_global_argsort(&g, e, capacity, policy);
                    // Bits, not `==`: the NaN weight must land in the same slot.
                    let bits = |p: &Pft| -> Vec<u32> {
                        p.combine_weights.iter().map(|w| w.to_bits()).collect()
                    };
                    assert_eq!(got.token_ids, want.token_ids, "seed {seed} cap {capacity}");
                    assert_eq!(
                        got.expert_ids, want.expert_ids,
                        "seed {seed} cap {capacity}"
                    );
                    assert_eq!(bits(&got), bits(&want), "seed {seed} cap {capacity}");
                    assert_eq!(got.tokens_per_expert, want.tokens_per_expert);
                    assert_eq!(got.dropped, want.dropped, "seed {seed} cap {capacity}");
                    got.validate(s);
                }
            }
        }
    }

    #[test]
    fn no_drops_with_ample_capacity() {
        let g = gate(32, 16, 8, 3, 1);
        let pft = Pft::construct(&g, 8, 1_000, DropPolicy::CapacityOnly);
        pft.validate(32);
        assert_eq!(pft.len(), 32 * 3);
        assert_eq!(pft.dropped, 0);
    }

    #[test]
    fn expert_segments_are_contiguous_and_sorted() {
        let g = gate(64, 16, 8, 4, 2);
        let pft = Pft::construct(&g, 8, 1_000, DropPolicy::CapacityOnly);
        pft.validate(64);
        for w in pft.expert_ids.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn capacity_limits_each_expert() {
        let g = gate(128, 16, 4, 2, 3);
        let cap = 10;
        let pft = Pft::construct(&g, 4, cap, DropPolicy::CapacityOnly);
        pft.validate(128);
        assert!(pft.tokens_per_expert.iter().all(|&c| c <= cap));
        assert_eq!(pft.len() + pft.dropped, 128 * 2);
    }

    #[test]
    fn overflow_keeps_highest_weight_entries() {
        // Force every token to expert 0 with distinct weights.
        let g = GatingOutput {
            top_experts: vec![0, 0, 0, 0],
            combine_weights: vec![0.1, 0.9, 0.5, 0.7],
            top_logits: vec![1.0; 4],
            k: 1,
            scores: Tensor::zeros(4, 1),
        };
        let pft = Pft::construct(&g, 1, 2, DropPolicy::CapacityOnly);
        assert_eq!(pft.len(), 2);
        // Tokens 1 (0.9) and 3 (0.7) survive; segment preserves token order.
        assert_eq!(pft.token_ids, vec![1, 3]);
        assert_eq!(pft.combine_weights, vec![0.9, 0.7]);
        assert_eq!(pft.dropped, 2);
    }

    #[test]
    fn negative_logit_policy_prefilters() {
        let g = GatingOutput {
            top_experts: vec![0, 1, 1, 0],
            combine_weights: vec![0.6, 0.4, 0.8, 0.2],
            top_logits: vec![1.0, -0.5, 0.3, -0.1],
            k: 2,
            scores: Tensor::zeros(2, 2),
        };
        let xmoe = Pft::construct(&g, 2, 100, DropPolicy::CapacityOnly);
        let dsmoe = Pft::construct(&g, 2, 100, DropPolicy::CapacityAndNegativeLogit);
        assert_eq!(xmoe.len(), 4);
        assert_eq!(dsmoe.len(), 2, "negative-logit entries must be dropped");
        assert_eq!(dsmoe.dropped, 2);
        // X-MoE retains strictly more tokens (the §5.6 observation).
        assert!(xmoe.len() > dsmoe.len());
    }

    #[test]
    fn construction_is_deterministic() {
        let g = gate(40, 16, 8, 3, 9);
        let a = Pft::construct(&g, 8, 7, DropPolicy::CapacityOnly);
        let b = Pft::construct(&g, 8, 7, DropPolicy::CapacityOnly);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_batch_yields_empty_pft() {
        let g = GatingOutput {
            top_experts: vec![],
            combine_weights: vec![],
            top_logits: vec![],
            k: 2,
            scores: Tensor::zeros(0, 4),
        };
        let pft = Pft::construct(&g, 4, 10, DropPolicy::CapacityOnly);
        assert!(pft.is_empty());
        assert_eq!(pft.tokens_per_expert, vec![0; 4]);
    }

    #[test]
    fn construct_into_matches_owned_across_reuse() {
        let mut scratch = PftScratch::default();
        let mut pooled = Pft {
            token_ids: Vec::new(),
            expert_ids: Vec::new(),
            tokens_per_expert: Vec::new(),
            combine_weights: Vec::new(),
            dropped: 0,
        };
        // Reuse the same scratch + output across differently-shaped batches
        // and both drop policies: results must equal the owned constructor.
        for (seed, cap, policy) in [
            (11, 1_000, DropPolicy::CapacityOnly),
            (12, 5, DropPolicy::CapacityOnly),
            (13, 7, DropPolicy::CapacityAndNegativeLogit),
            (11, 3, DropPolicy::CapacityAndNegativeLogit),
        ] {
            let g = gate(40, 16, 8, 3, seed);
            Pft::construct_into(&g, 8, cap, policy, &mut scratch, &mut pooled);
            assert_eq!(pooled, Pft::construct(&g, 8, cap, policy));
        }
    }
}
