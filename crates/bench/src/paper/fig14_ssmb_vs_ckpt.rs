//! Fig 14 (§5.4.4): throughput of SSMB versus activation checkpointing at
//! matched memory savings, Large model on 256 GPUs.
//!
//! Checkpointing the MoE block requires recomputing its forward during the
//! backward pass, including 2 extra all-to-alls per layer (6 instead of 4,
//! §4.3); SSMB gets its savings structurally.

use xmoe_core::config::{MoeModelConfig, ParallelConfig};
use xmoe_core::memory::{total_per_gpu, MoeSystem};
use xmoe_core::perf::{PerfModel, PerfOpts};

use crate::fmt_gib;
use crate::spine::{bench, int, print_records, row, table, tag, Check, Env, Outcome, Record, Val};

bench!(
    fig14_ssmb_vs_ckpt,
    "Fig 14: SSMB vs activation checkpointing"
);

fn run(_smoke: bool, _env: &Env) -> Outcome {
    let pm = PerfModel::frontier_clean(256);
    let cfg = MoeModelConfig::large();
    let par = |ssmb: bool| {
        ParallelConfig::new(256, 64)
            .with_tp(2)
            .with_ssmb(ssmb)
            .with_batch(1, 1024)
    };

    let ssmb = pm.step(&cfg, &par(true), MoeSystem::XMoe, &PerfOpts::xmoe());
    let ssmb_mem = total_per_gpu(&cfg, &par(true), MoeSystem::XMoe);

    let mut ckpt_opts = PerfOpts::xmoe();
    ckpt_opts.checkpointing = true;
    let ckpt = pm.step(&cfg, &par(false), MoeSystem::XMoe, &ckpt_opts);
    // Checkpointing retains only the layer inputs; model the saved memory
    // as the MoE activations shrinking to the per-layer inputs.
    let ckpt_mem_full = total_per_gpu(&cfg, &par(false), MoeSystem::XMoe);
    let layer_inputs = (cfg.num_layers * cfg.seq_len * cfg.hidden) as u64 * 2;
    let ckpt_total = ckpt_mem_full.total() - ckpt_mem_full.moe_activations + layer_inputs;

    let recs = [
        ("X-MoE + SSMB", ssmb, ssmb_mem.total(), 4),
        ("X-MoE + ckpt (+recompute)", ckpt, ckpt_total, 6),
    ]
    .map(|(variant, step, mem, a2as)| {
        row("fig14")
            .cfg("variant", tag(variant))
            .metric("tflops_per_gpu", Val::Fixed(step.tflops_per_gpu, 6))
            .metric("per_gpu_memory", Val::Int(mem))
            .metric("alltoalls_per_layer", int(a2as))
    });
    print_records(
        "Fig 14: SSMB vs activation checkpointing, Large @256 GPUs (TP=2)",
        &recs,
    );
    (recs.to_vec(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let [ssmb, ckpt] = table(recs, "fig14")?;
    let tf = |r: &Record| r.num("tflops_per_gpu");
    let mem = |r: &Record| r.num("per_gpu_memory").map(|b| b as u64);
    Ok(vec![
        Check::new(
            "SSMB achieves higher throughput than checkpointing",
            tf(ssmb)? > tf(ckpt)?,
            format!("{:.1} vs {:.1} TFLOP/s", tf(ssmb)?, tf(ckpt)?),
        ),
        // Raw-bytes comparison: the point is that the two techniques buy
        // comparable headroom, not strict trainability margins.
        Check::new(
            "both variants fit the 64 GB budget (comparable savings)",
            mem(ssmb)? < 64_000_000_000 && mem(ckpt)? < 64_000_000_000,
            format!("{} vs {}", fmt_gib(mem(ssmb)?), fmt_gib(mem(ckpt)?)),
        ),
    ])
}
