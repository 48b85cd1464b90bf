//! Live scale: the paper's scale axis starts where the thread-per-rank
//! runtime was assumed to stop. 128 rank threads run one padding-free EP
//! forward at reduced dims — every rank owns one expert, so the dispatch and
//! combine all-to-alls touch all 128 × 127 links — and each rank's output
//! must equal the single-rank reference over the full expert set bit for bit.

use std::sync::mpsc;
use std::time::Duration;

use xmoe::collectives::SimCluster;
use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::Router;
use xmoe::core::pipeline::{ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline};
use xmoe::tensor::Tensor;

const WORLD: usize = 128;
const SEQ: usize = 8;
const HIDDEN: usize = 16;
const FFN: usize = 8;
const EXPERTS: usize = WORLD;
const TOP_K: usize = 4;

fn tokens(rank: usize) -> Tensor {
    Tensor::rand_uniform(SEQ, HIDDEN, 1.0, 9000 + rank as u64)
}

#[test]
fn padding_free_ep_forward_at_128_ranks_is_bitwise_the_single_rank_reference() {
    let router = Router::new(HIDDEN, EXPERTS, TOP_K, 4242);
    let spec = MoeLayerSpec::new(EXPERTS, usize::MAX / 2);

    // On a helper thread: a runtime that hangs at this scale must fail the
    // test, not tier-1.
    let (tx, rx) = mpsc::channel();
    let live_router = router.clone();
    std::thread::spawn(move || {
        let (router, spec) = (&live_router, &spec);
        let outs = SimCluster::frontier(WORLD).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, WORLD, EXPERTS, HIDDEN, FFN, 4243);
            let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            PaddingFreePipeline
                .forward(&tokens(ctx.rank), router, &shard, spec, &mut ex)
                .unwrap()
        });
        let _ = tx.send(outs);
    });
    let outs = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the 128-rank forward hung or a rank panicked");

    let full = ExpertShard::full(EXPERTS, HIDDEN, FFN, 4243);
    assert_eq!(outs.len(), WORLD);
    for (rank, out) in outs.iter().enumerate() {
        let want = PaddingFreePipeline
            .forward(&tokens(rank), &router, &full, &spec, &mut ExecCtx::single())
            .unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(out), bits(&want), "rank {rank} diverges");
    }
}
