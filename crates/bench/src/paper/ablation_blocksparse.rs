//! Ablation (§2 Related Work): block-sparse (Megablocks-style) padding on
//! expert-specialized workloads.
//!
//! Megablocks avoids token dropping by padding each expert's segment to a
//! multiple of its GEMM tile size (128). The paper's critique: with
//! hundreds of fine-grained experts, the per-expert remainder paddings
//! become "serious". This bench sweeps the fine-grained factor m over
//! size-equivalent models and measures the waste on live routed batches,
//! against PFT's zero padding.

use xmoe_core::config::MoeModelConfig;
use xmoe_core::gating::{DropPolicy, Router};
use xmoe_core::pft::Pft;
use xmoe_core::pipeline::block_sparse::{block_padding_waste, expected_block_waste};
use xmoe_tensor::Tensor;

use crate::spine::{
    bench, column, int, print_records, row, table, tag, Check, Outcome, Record, Val,
};

bench!(
    ablation_blocksparse,
    "Ablation: block-sparse (Megablocks-style) padding"
);

fn run(_smoke: bool) -> Outcome {
    // One GPU's micro-batch (the buffers Megablocks pads are per rank).
    let tokens = 2048usize;
    let block = 128usize;
    let h_probe = 64usize; // routing statistics are H-independent

    let configs = [
        MoeModelConfig::mixtral_8x7b(), // coarse: 8 experts, top-2
        MoeModelConfig::small(),        // 64 experts, top-6
        MoeModelConfig::medium(),       // 128 experts, top-6
        MoeModelConfig::large(),        // DeepSeek-style: 256 experts, top-8
    ];
    let rows = configs.iter().enumerate().map(|(i, cfg)| {
        let router = Router::new(h_probe, cfg.num_experts, cfg.top_k, 4200 + i as u64);
        let batch = Tensor::rand_uniform(tokens, h_probe, 1.0, 4300 + i as u64);
        let gating = router.gate(&batch);
        let pft = Pft::construct(
            &gating,
            cfg.num_experts,
            usize::MAX / 2,
            DropPolicy::CapacityOnly,
        );
        let measured = block_padding_waste(&pft.tokens_per_expert, block);
        let analytic = expected_block_waste(tokens, cfg.top_k, cfg.num_experts, block);
        row("blocksparse")
            .cfg("model", tag(&cfg.name))
            .cfg("E", int(cfg.num_experts))
            .cfg("k", int(cfg.top_k))
            .metric(
                "avg_tokens_per_expert",
                int(tokens * cfg.top_k / cfg.num_experts),
            )
            .metric("measured_waste", Val::Fixed(measured, 6))
            .metric("balanced_routing_analytic", Val::Fixed(analytic, 6))
    });
    let recs: Vec<Record> = rows.collect();
    print_records(
        "block-sparse padding waste (tile = 128 rows, per-GPU S = 2048; the PFT pads nothing)",
        &recs,
    );
    (recs, Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    // Rows run coarse (Mixtral) to fine (the DeepSeek-style Large).
    let rows: &[Record; 4] = table(recs, "blocksparse")?;
    let wastes = column(rows, "measured_waste")?;
    let (coarse, fine) = (wastes[0], wastes[3]);
    Ok(vec![
        Check::new(
            "waste grows as experts get finer (fewer tokens per expert per tile)",
            wastes.windows(2).all(|w| w[1] >= w[0] - 0.02),
            format!("{wastes:.3?}"),
        ),
        Check::new(
            "waste is serious for DeepSeek-style granularity (Large: 64 tokens/expert vs 128-tile)",
            fine > 0.30,
            format!("{:.1}%", 100.0 * fine),
        ),
        // An untrained random router leaves ~13% variance-driven waste even on
        // Mixtral; the comparative claim is that fine-grained experts multiply
        // it several-fold.
        Check::new(
            "coarse experts waste a small fraction of what fine-grained ones do",
            coarse < fine / 2.0,
            format!("{:.1}% vs {:.1}%", 100.0 * coarse, 100.0 * fine),
        ),
    ])
}
