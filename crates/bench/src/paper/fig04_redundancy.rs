//! Fig 4 (§3.3): redundancy rate of dispatched tokens vs EP size, for the
//! DeepSeek-style Large configuration (256 experts, top-8) on Frontier
//! (8 GPUs per node).
//!
//! Two estimates are reported: the closed-form rate under uniform routing
//! and a live measurement over real gated batches (random router, the
//! §3.3 setting measures an untrained DeepSpeed-MoE run).

use xmoe_core::gating::{DropPolicy, Router};
use xmoe_core::pft::Pft;
use xmoe_core::rbd::{expected_redundancy_uniform, redundancy_rate};
use xmoe_tensor::Tensor;

use crate::sparkline;
use crate::spine::{
    bench, column, int, print_records, row, table, Check, Env, Outcome, Record, Val,
};

bench!(fig04_redundancy, "Fig 4: dispatch redundancy vs EP size");

fn run(_smoke: bool, _env: &Env) -> Outcome {
    let (e, k) = (256usize, 8usize);
    let gpus_per_node = 8usize;
    // Live measurement at reduced hidden dim (routing statistics do not
    // depend on H).
    let (s, h) = (4096usize, 64usize);
    let router = Router::new(h, e, k, 20250706);
    let tokens = Tensor::rand_uniform(s, h, 1.0, 42);
    let gating = router.gate(&tokens);
    let pft = Pft::construct(&gating, e, usize::MAX / 2, DropPolicy::CapacityOnly);

    let recs = [8usize, 16, 32, 64, 128, 256].map(|ep| {
        let nodes = ep.div_ceil(gpus_per_node);
        let experts_per_node = e / nodes;
        let measured = redundancy_rate(&pft, |ex| ex / experts_per_node);
        row("fig4")
            .cfg("ep", int(ep))
            .cfg("nodes", int(nodes))
            .metric("measured", Val::Fixed(measured, 6))
            .metric(
                "uniform_analytic",
                Val::Fixed(expected_redundancy_uniform(k, nodes), 6),
            )
    });
    print_records(
        "Fig 4: redundancy rate of all dispatched tokens (Large cfg: E=256, k=8)",
        &recs,
    );
    let series = column(&recs, "measured").expect("just written");
    println!("measured trend over EP size: {}", sparkline(&series));
    (recs.to_vec(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    // Paper anchors: up to 75.1% (2 nodes) and 54.8% at EP=32 (§5.4.2).
    let rows: &[Record; 6] = table(recs, "fig4")?;
    let series = column(rows, "measured")?;
    let (at16, at32) = (series[1], series[2]);
    Ok(vec![
        Check::new(
            "peak redundancy ~75.1% at EP=16 (2 nodes)",
            (at16 - 0.751).abs() < 0.04,
            format!("measured {:.1}%", 100.0 * at16),
        ),
        Check::new(
            "redundancy ~54.8% at EP=32 (4 nodes)",
            (at32 - 0.548).abs() < 0.04,
            format!("measured {:.1}%", 100.0 * at32),
        ),
        Check::new(
            "redundancy decreases monotonically with EP size",
            series.windows(2).all(|w| w[0] >= w[1]),
            format!("{series:.3?}"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spine::testing::{env, failure, set};

    #[test]
    fn the_ordering_gate_is_live() {
        let (recs, live) = run(false, &env());
        assert!(live.is_empty());
        assert_eq!(failure(&BENCH, &recs), None);

        // Redundancy rising again from EP=32 to EP=64.
        let bump = set(&recs, 3, "measured", Val::Fixed(0.6, 6));
        let why = failure(&BENCH, &bump).expect("a non-monotone series");
        assert!(
            why.contains("decreases monotonically with EP size"),
            "{why}"
        );
        assert!(why.contains("0.547, 0.600, 0.182"), "{why}");
    }
}
