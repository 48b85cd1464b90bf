//! Appendix C.1: EP-first vs DP-first process placement.
//!
//! The tension: EP-first packs a full expert set into each node (cheap
//! token-routing all-to-all, expensive cross-node gradient sync); DP-first
//! co-locates replicas of the same experts (cheap gradient sync, cross-node
//! all-to-all). The paper: "For small MoEs, locality-aware EP may win...
//! For relatively large MoEs, replica-aware DP actually becomes more
//! appealing, because DP needs to synchronize data volume linear with
//! respect to the number of parameters."
//!
//! This experiment prices both placements for the Table 3 models and shows
//! the crossover.

use xmoe_core::config::{MoeModelConfig, ParallelConfig};
use xmoe_core::memory::MoeSystem;
use xmoe_core::perf::{PerfModel, PerfOpts};
use xmoe_topology::PlacementPolicy;

use crate::spine::{bench, int, print_records, row, table, tag, Check, Outcome, Record, Val};

bench!(
    appc_placement,
    "Appendix C.1: EP-first vs DP-first placement"
);

fn run(_smoke: bool) -> Outcome {
    // (model, world, EP size, global batch). The third case is exactly the
    // appendix's concrete example regime: 64 GPUs (8 nodes x 8), EP=8,
    // DP=8 — DP-first co-locates each expert's 8 replicas on one node
    // (gradient sync over Infinity Fabric) while EP-first replicates the
    // expert set per node and pays cross-node gradient sync. With a
    // parameter-heavy model the gradient volume dominates and DP-first
    // wins; for the Small model the token all-to-all dominates and
    // EP-first wins.
    let cases = [
        (MoeModelConfig::small(), 256usize, 8usize, 1024usize),
        (MoeModelConfig::medium(), 256, 64, 1024),
        (MoeModelConfig::large(), 64, 8, 64),
    ];
    let recs = cases.map(|(cfg, world, ep, batch)| {
        let pm = PerfModel::frontier_clean(world);
        let par = ParallelConfig::new(world, ep)
            .with_ssmb(true)
            .with_batch(1, batch);
        let rec = row("appc")
            .cfg("model", tag(&cfg.name))
            .cfg("gpus", int(world))
            .cfg("ep", int(ep))
            .cfg("global_batch", int(batch));
        let placements = [
            ("ep_first", PlacementPolicy::EpFirst),
            ("dp_first", PlacementPolicy::DpFirst),
        ];
        placements.iter().fold(rec, |rec, &(name, placement)| {
            let mut o = PerfOpts::xmoe();
            o.placement = placement;
            let step = pm.step(&cfg, &par, MoeSystem::XMoe, &o);
            rec.metric(&format!("{name}_step_s"), Val::Fixed(step.step_time, 6))
                .metric(
                    &format!("{name}_a2a_ms"),
                    Val::Fixed(step.moe_stages.a2a() * 1e3, 6),
                )
                .metric(&format!("{name}_dp_sync_s"), Val::Fixed(step.dp_sync, 6))
        })
    });
    print_records("Appendix C.1: EP-first vs DP-first step time", &recs);

    // Component view: where does each placement spend its time?
    println!(
        "\nmechanism: EP-first keeps the token all-to-all on intra-node links but\n\
         replicates each expert once per node, so the gradient all-reduce crosses\n\
         nodes; DP-first inverts the trade. The crossover follows the ratio of\n\
         per-step token bytes (~ k*S*H) to parameter bytes (~ E*H*H_FFN / EP)."
    );
    (recs.to_vec(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let [small, _medium, large] = table(recs, "appc")?;
    let winner = |r: &Record| -> Result<&str, String> {
        let ep_wins = r.num("ep_first_step_s")? <= r.num("dp_first_step_s")?;
        Ok(if ep_wins { "EP-first" } else { "DP-first" })
    };
    Ok(vec![
        Check::new(
            "small MoE favours locality-aware EP-first placement",
            winner(small)? == "EP-first",
            format!("{}: {}", small.tag("model")?, winner(small)?),
        ),
        Check::new(
            "large MoE favours replica-aware DP-first placement",
            winner(large)? == "DP-first",
            format!("{}: {}", large.tag("model")?, winner(large)?),
        ),
    ])
}
