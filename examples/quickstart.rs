//! Quickstart: run one padding-free MoE layer end to end on a single rank.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a DeepSeek-style fine-grained MoE layer (32 experts, top-6),
//! routes a batch of tokens through gating → PFT construction → dispatch →
//! per-expert FFN → weighted combine, and compares the result against the
//! dense zero-padded baseline pipeline to show they agree.

use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::Router;
use xmoe::core::pft::Pft;
use xmoe::core::pipeline::{
    DenseDropOrder, DensePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline,
};
use xmoe::tensor::Tensor;

fn main() {
    // A small expert-specialized layer: H=64, 32 experts of width 32, top-6.
    let (seq, hidden, ffn, experts, top_k) = (128usize, 64usize, 32usize, 32usize, 6usize);
    let router = Router::new(hidden, experts, top_k, 7);
    let shard = ExpertShard::full(experts, hidden, ffn, 8);
    let tokens = Tensor::rand_uniform(seq, hidden, 1.0, 9);

    // Capacity per the GShard rule with factor 1.25.
    let capacity = (1.25 * (seq * top_k) as f64 / experts as f64).ceil() as usize;
    let spec = MoeLayerSpec::new(experts, capacity);

    // Inspect the routing: gate, then build the padding-free token buffer.
    let gating = router.gate(&tokens);
    let pft = Pft::construct(&gating, experts, capacity, spec.policy);
    println!(
        "routed entries : {} ({} tokens x top-{top_k})",
        pft.len(),
        seq
    );
    println!(
        "dropped entries: {} (capacity {} per expert)",
        pft.dropped, capacity
    );
    let max_load = pft.tokens_per_expert.iter().max().unwrap();
    let min_load = pft.tokens_per_expert.iter().min().unwrap();
    println!("expert load    : min {min_load}, max {max_load} tokens");

    // Padding-free forward: the algorithm is the `Pipeline`, how it runs
    // (here: one rank, owned buffers) is the `ExecCtx`.
    let out_pf = PaddingFreePipeline
        .forward(&tokens, &router, &shard, &spec, &mut ExecCtx::single())
        .expect("single-rank forward");
    println!(
        "\npadding-free output: {:?}, norm {:.4}",
        out_pf.shape(),
        out_pf.norm()
    );

    // Dense zero-padded baseline forward (same drop decisions).
    let out_dense = DensePipeline {
        order: DenseDropOrder::WeightRanked,
    }
    .forward(&tokens, &router, &shard, &spec, &mut ExecCtx::single())
    .expect("single-rank forward");
    let diff = out_pf.max_abs_diff(&out_dense);
    println!(
        "dense baseline output norm {:.4}; max |diff| vs padding-free = {diff:.2e}",
        out_dense.norm()
    );
    assert!(diff < 1e-4, "the two pipelines must agree");

    // Show the memory the padding avoided: the dense pipeline allocated
    // E * C slots but only B were real tokens.
    let padded_slots = experts * capacity;
    println!(
        "\nbuffer utilisation: dense pipeline allocated {padded_slots} slots for {} real entries ({:.0}% padding)",
        pft.len(),
        100.0 * (1.0 - pft.len() as f64 / padded_slots as f64)
    );
    println!("quickstart OK");
}
