//! Fig 3 + Tables 1/2 (§3.2): the memory-bottleneck shift from expert
//! intermediates to dispatch/combine activations in expert-specialized
//! MoEs.
//!
//! Reproduces the paper's setting: size-equivalent `M_conv` (e=16 large
//! experts, top-1) vs `M_spec` (e*m=128 fine-grained experts, top-8) built
//! from a GPT-3 6.7B-style base (H=4096, H_FFN=16384), trained with ZeRO-1
//! DP + EP on 256 GPUs with EP size = number of experts.

use xmoe_core::config::{MoeModelConfig, ParallelConfig};
use xmoe_core::memory::{self, MoeSystem};

use crate::fmt_gib;
use crate::spine::{bench, int, print_records, row, table, tag, Check, Outcome, Record, Val};

bench!(fig03_memory, "Tables 1-2 + Fig 3: memory-bottleneck shift");

fn run(_smoke: bool) -> Outcome {
    let pair = [
        MoeModelConfig::conv_pair(4096, 16384, 16, 28),
        MoeModelConfig::spec_pair(4096, 16384, 16, 8, 28),
    ];
    let configs = pair.each_ref().map(|c| {
        row("configs")
            .cfg("model", tag(&c.name))
            .metric("E", int(c.num_experts))
            .metric("H", int(c.hidden))
            .metric("H_FFN", int(c.ffn_hidden))
            .metric("k", int(c.top_k))
            .metric("params", Val::Int(c.total_params()))
            .metric("activated", Val::Int(c.activated_params()))
    });
    print_records("Table 1: size-equivalent model configurations", &configs);

    // Table 2 (per-layer activation tensor sizes per rank, tokens = 2048)
    // beside Fig 3's per-GPU model-state share of the same layer with
    // ZeRO-1 + EP on 256 GPUs (EP = number of experts).
    let tokens = 2048usize;
    let fig3 = pair.each_ref().map(|cfg| {
        let par = ParallelConfig::new(256, cfg.num_experts.min(256)).with_zero(1);
        let states = memory::model_states_per_gpu(cfg, &par, MoeSystem::XMoe);
        // Per-layer share of model states.
        let per_layer = |v: u64| Val::Int(v / cfg.num_layers as u64);
        let act = memory::moe_layer_activation(cfg, MoeSystem::XMoe, tokens, 1);
        row("fig3")
            .cfg("model", tag(&cfg.name))
            .metric("params", per_layer(states.params))
            .metric("opt+grads", per_layer(states.optimizer + states.grads))
            .metric("A_dispatch", Val::Int(act.dispatch))
            .metric("A_combine", Val::Int(act.combine))
            .metric("A_interm", Val::Int(act.interm))
    });
    print_records(
        "Table 2 + Fig 3: per-GPU bytes of one MoE layer (tokens=2048; 256 GPUs, ZeRO-1 + EP)",
        &fig3,
    );
    ([configs, fig3].concat(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let bytes = |r: &Record| -> Result<[u64; 3], String> {
        let b = |key| r.num(key).map(|v| v as u64);
        Ok([b("A_dispatch")?, b("A_combine")?, b("A_interm")?])
    };
    let [conv, spec] = table(recs, "fig3")?;
    let ([cd, cc, ci], [sd, sc, si]) = (bytes(conv)?, bytes(spec)?);
    let growth = sd as f64 / cd as f64;
    let interm_ratio = si as f64 / ci as f64;
    Ok(vec![
        Check::new(
            "M_conv: intermediates dominate the activations",
            ci > cd + cc,
            format!(
                "interm {} vs dispatch+combine {}",
                fmt_gib(ci),
                fmt_gib(cd + cc)
            ),
        ),
        Check::new(
            "M_spec: dispatch/combine dominate (bottleneck shift)",
            sd + sc > si,
            format!(
                "dispatch+combine {} vs interm {}",
                fmt_gib(sd + sc),
                fmt_gib(si)
            ),
        ),
        Check::new(
            "A_dispatch grows m-fold (m=8) from M_conv to M_spec",
            (growth - 8.0).abs() < 0.5,
            format!("growth {growth:.2}x"),
        ),
        Check::new(
            "A_interm stays constant across the pair",
            (interm_ratio - 1.0).abs() < 0.05,
            format!("ratio {interm_ratio:.3}"),
        ),
    ])
}
