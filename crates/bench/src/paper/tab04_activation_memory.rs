//! Table 4 (§5.4.1): per-MoE-layer activation memory for the Large model
//! on 256 GPUs with EP=64 — DeepSpeed-MoE vs Tutel vs X-MoE vs the
//! theoretical minimum.
//!
//! Paper values (GiB): 2.81 / 1.95 / 1.21 / 1.125.

use xmoe_core::config::MoeModelConfig;
use xmoe_core::memory::{
    allocator_slack, moe_layer_activation, theoretical_activation, MoeSystem, GIB,
};

use crate::spine::{bench, column, print_records, row, table, tag, Check, Outcome, Record, Val};

bench!(tab04_activation_memory, "Table 4: activation memory");

fn run(_smoke: bool) -> Outcome {
    let cfg = MoeModelConfig::large();
    let tokens = cfg.seq_len; // micro-batch 1, matching the paper's run
    let systems = [
        ("DS-MoE", MoeSystem::DsMoe),
        ("Tutel", MoeSystem::Tutel),
        ("X-MoE", MoeSystem::XMoe),
    ];
    let acts = systems.map(|(name, sys)| (name, sys, moe_layer_activation(&cfg, sys, tokens, 1)));
    let [ds, tutel, x] = acts.map(|(_, sys, a)| a.total() as f64 * allocator_slack(sys) / GIB);
    let totals = [
        ("DS-MoE", 2.81, ds),
        ("Tutel", 1.95, tutel),
        ("X-MoE", 1.21, x),
        (
            "Theoretical",
            1.125,
            theoretical_activation(&cfg, tokens) as f64 / GIB,
        ),
    ]
    .map(|(name, paper, ours)| {
        row("totals")
            .cfg("system", tag(name))
            .metric("paper_gib", Val::Fixed(paper, 3))
            .metric("this_repo_gib", Val::Fixed(ours, 6))
    });
    print_records(
        "Table 4: activation memory per MoE layer, Large @256 GPUs EP=64 (GiB)",
        &totals,
    );

    // Component view for the narrative.
    let components = acts.map(|(name, _, a)| {
        row("components")
            .cfg("system", tag(name))
            .metric("A_dispatch", Val::Int(a.dispatch))
            .metric("A_combine", Val::Int(a.combine))
            .metric("A_interm", Val::Int(a.interm))
            .metric("mask/meta", Val::Int(a.mask_meta))
    });
    print_records("component breakdown (bytes)", &components);
    ([&totals[..], &components[..]].concat(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let totals: &[Record; 4] = table(recs, "totals")?;
    let ours = column(totals, "this_repo_gib")?;
    let mut checks = Vec::new();
    for (r, o) in totals.iter().zip(&ours) {
        let p = r.num("paper_gib")?;
        checks.push(Check::new(
            &format!("{} within 10% of the paper value", r.tag("system")?),
            (o - p).abs() / p < 0.10,
            format!("{o:.3} vs {p:.3} GiB"),
        ));
    }
    checks.push(Check::new(
        "ordering DS-MoE > Tutel > X-MoE >= theoretical",
        ours[0] > ours[1] && ours[1] > ours[2] && ours[2] >= ours[3],
        format!("{ours:.3?}"),
    ));
    Ok(checks)
}
