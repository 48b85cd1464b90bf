//! Ablation: routing skew. Real routers are not uniform — popular experts
//! receive far more tokens. Skew stresses exactly the machinery the paper
//! builds:
//!
//! * the dense baseline's fixed capacity `C = c*S*k/E` simultaneously
//!   drops tokens at hot experts and pads cold ones;
//! * the PFT is load-adaptive: its buffer is exactly the retained volume;
//! * redundancy (and thus RBD's benefit) *rises* with skew, because a
//!   token's k choices concentrate on fewer nodes.

use xmoe_core::gating::{DropPolicy, GatingOutput, Router};
use xmoe_core::pft::Pft;
use xmoe_core::rbd::redundancy_rate;
use xmoe_tensor::Tensor;

use crate::spine::{
    bench, column, int, print_records, row, table, Check, Env, Outcome, Record, Val,
};

bench!(
    ablation_skew,
    "Ablation: routing skew vs load balance and padding"
);

/// Gate with a per-expert bias of strength `skew` favouring low expert ids
/// (an exponential popularity profile).
fn skewed_gating(s: usize, h: usize, e: usize, k: usize, skew: f32, seed: u64) -> GatingOutput {
    let router = Router::new(h, e, k, seed);
    let tokens = Tensor::rand_uniform(s, h, 1.0, seed + 1);
    // Add a fixed bias column-wise by shifting the gate weight's effect:
    // easier to bias the logits via an extra rank-1 term in the weight.
    let mut w = router.weight.clone();
    for r in 0..w.rows() {
        for c in 0..w.cols() {
            let bias = skew * (-(c as f32) / e as f32 * 4.0).exp() / h as f32;
            let v = w.get(r, c);
            // tokens are ~uniform in [-1,1]; adding a constant direction
            // per column biases every token's logit for that expert.
            w.set(r, c, v + bias);
        }
    }
    Router::from_weight(w, k).gate(&tokens)
}

fn run(_smoke: bool, _env: &Env) -> Outcome {
    let (s, h, e, k) = (4096usize, 64usize, 64usize, 6usize);
    let cap = ((1.25 * (s * k) as f64) / e as f64).ceil() as usize;
    let experts_per_node = e / 8; // 8-node view for redundancy

    let recs = [0.0f32, 2.0, 4.0, 8.0].map(|skew| {
        let gating = skewed_gating(s, h, e, k, skew, 9001);
        // Unlimited capacity view for load statistics.
        let free = Pft::construct(&gating, e, usize::MAX / 2, DropPolicy::CapacityOnly);
        let max_load = *free.tokens_per_expert.iter().max().unwrap() as f64;
        let mean_load = free.len() as f64 / e as f64;
        // Capacity-limited view for drop statistics.
        let capped = Pft::construct(&gating, e, cap, DropPolicy::CapacityOnly);
        let drop = capped.dropped as f64 / (s * k) as f64;
        let red = redundancy_rate(&free, |ex| ex / experts_per_node);
        row("skew")
            .cfg("skew", Val::Fixed(skew as f64, 1))
            .metric("load_max_over_mean", Val::Fixed(max_load / mean_load, 6))
            .metric("dropped_at_c1.25", Val::Fixed(drop, 8))
            .metric("redundancy_8_nodes", Val::Fixed(red, 6))
            .metric("pft_entries", int(capped.len()))
    });
    print_records(
        "routing-skew sweep (E=64, k=6, S=4096, c=1.25, 8-node view)",
        &recs,
    );
    println!(
        "\nnote: the PFT buffer (last column) shrinks as drops rise — X-MoE's memory\n\
         adapts to the real load, while the dense baseline's E*C allocation is\n\
         invariant to skew (it pays for the hot experts' drops AND the cold\n\
         experts' padding at the same time)."
    );
    (recs.to_vec(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let rows: &[Record; 4] = table(recs, "skew")?;
    let imbalances = column(rows, "load_max_over_mean")?;
    let drops = column(rows, "dropped_at_c1.25")?;
    let redundancies = column(rows, "redundancy_8_nodes")?;
    Ok(vec![
        Check::new(
            "skew increases expert load imbalance",
            imbalances.windows(2).all(|w| w[1] >= w[0] - 0.05) && imbalances[3] > 1.5,
            format!("{imbalances:.2?}"),
        ),
        Check::new(
            "skew increases capacity drops under the fixed GShard capacity",
            drops[3] > drops[0],
            format!("{drops:.3?}"),
        ),
        Check::new(
            "skew increases inter-node redundancy (RBD's opportunity grows)",
            redundancies[3] > redundancies[0],
            format!("{redundancies:.3?}"),
        ),
    ])
}
