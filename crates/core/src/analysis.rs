//! Routing analytics: the observability layer over gating decisions.
//!
//! Everything the paper's motivation sections quantify about routing —
//! expert load distribution (§3.1's capacity mismatch), the dispatch
//! redundancy structure (§3.3), expert specialization (§2's argument for
//! fine-grained experts) — computed from live [`Pft`]s.

use crate::pft::Pft;

/// Summary statistics of one routed batch.
#[derive(Clone, Debug)]
pub struct RoutingReport {
    /// Retained routed entries.
    pub routed: usize,
    /// Dropped (capacity/policy) entries.
    pub dropped: usize,
    /// Per-expert retained counts.
    pub loads: Vec<usize>,
    /// max(load) / mean(load); 1.0 = perfectly balanced.
    pub load_imbalance: f64,
    /// Shannon entropy of the load distribution in nats; `ln(E)` =
    /// perfectly uniform.
    pub load_entropy: f64,
    /// Fraction of experts that received zero tokens.
    pub idle_fraction: f64,
    /// Mean retained combine weight (router confidence).
    pub mean_weight: f64,
}

/// Compute the routing report for a PFT.
pub fn routing_report(pft: &Pft) -> RoutingReport {
    let e = pft.tokens_per_expert.len().max(1);
    let routed = pft.len();
    let mean = routed as f64 / e as f64;
    let max = pft.tokens_per_expert.iter().copied().max().unwrap_or(0) as f64;
    let load_imbalance = if mean > 0.0 { max / mean } else { 1.0 };
    let load_entropy = if routed > 0 {
        -pft.tokens_per_expert
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / routed as f64;
                p * p.ln()
            })
            .sum::<f64>()
    } else {
        0.0
    };
    let idle = pft.tokens_per_expert.iter().filter(|&&c| c == 0).count();
    let mean_weight = if routed > 0 {
        pft.combine_weights.iter().map(|&w| w as f64).sum::<f64>() / routed as f64
    } else {
        0.0
    };
    RoutingReport {
        routed,
        dropped: pft.dropped,
        loads: pft.tokens_per_expert.clone(),
        load_imbalance,
        load_entropy,
        idle_fraction: idle as f64 / e as f64,
        mean_weight,
    }
}

/// Number of distinct expert combinations observed (per-token expert sets).
/// The paper's §2 argument: fine-grained experts expand the reachable
/// combination space combinatorially.
pub fn distinct_combinations(pft: &Pft) -> usize {
    let mut per_token: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for (&t, &ex) in pft.token_ids.iter().zip(&pft.expert_ids) {
        per_token.entry(t).or_default().push(ex);
    }
    let mut combos: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
    for experts in per_token.values_mut() {
        experts.sort_unstable();
        combos.insert(experts.clone());
    }
    combos.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gating::{DropPolicy, Router};
    use xmoe_tensor::Tensor;

    fn pft_for(s: usize, e: usize, k: usize, seed: u64) -> Pft {
        let router = Router::new(16, e, k, seed);
        let tokens = Tensor::rand_uniform(s, 16, 1.0, seed + 1);
        Pft::construct(
            &router.gate(&tokens),
            e,
            usize::MAX / 2,
            DropPolicy::CapacityOnly,
        )
    }

    #[test]
    fn report_conserves_counts() {
        let pft = pft_for(64, 8, 3, 1);
        let r = routing_report(&pft);
        assert_eq!(r.routed, 64 * 3);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.loads.iter().sum::<usize>(), r.routed);
        assert!(r.load_imbalance >= 1.0);
        assert!(r.load_entropy <= (8f64).ln() + 1e-9);
        assert!((0.0..=1.0).contains(&r.idle_fraction));
        assert!(r.mean_weight > 0.0 && r.mean_weight <= 1.0);
    }

    #[test]
    fn uniform_loads_give_max_entropy_and_unit_imbalance() {
        // Hand-build a perfectly balanced PFT.
        let pft = Pft {
            token_ids: vec![0, 1, 2, 3],
            expert_ids: vec![0, 1, 2, 3],
            tokens_per_expert: vec![1, 1, 1, 1],
            combine_weights: vec![0.5; 4],
            dropped: 0,
        };
        let r = routing_report(&pft);
        assert!((r.load_imbalance - 1.0).abs() < 1e-12);
        assert!((r.load_entropy - (4f64).ln()).abs() < 1e-12);
        assert_eq!(r.idle_fraction, 0.0);
    }

    #[test]
    fn distinct_combinations_bounded_by_tokens_and_grows_with_granularity() {
        let coarse = pft_for(128, 4, 2, 5);
        let fine = pft_for(128, 32, 2, 5);
        let dc = distinct_combinations(&coarse);
        let df = distinct_combinations(&fine);
        assert!(dc <= 128 && df <= 128);
        // C(4,2)=6 possible coarse combos; fine-grained has C(32,2)=496.
        assert!(dc <= 6);
        assert!(
            df > dc,
            "finer experts must realize more combinations: {df} vs {dc}"
        );
    }
}
