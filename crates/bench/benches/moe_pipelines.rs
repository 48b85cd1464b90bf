//! Benchmarks over the live MoE pipelines at reduced dimensions: PFT
//! construction, single-rank dense vs padding-free forward, and the
//! distributed variants (plain uneven all-to-all vs RBD) on the
//! threads-as-ranks runtime. Self-contained timing harness.

use std::time::{Duration, Instant};

use xmoe_collectives::SimCluster;
use xmoe_core::expert::ExpertShard;
use xmoe_core::gating::{DropPolicy, Router};
use xmoe_core::pft::Pft;
use xmoe_core::pipeline::{
    DenseDropOrder, DensePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline,
    RbdPipeline,
};
use xmoe_core::rbd::{PilotPolicy, RbdComms};
use xmoe_tensor::{DetRng, Tensor};

const DENSE: DensePipeline = DensePipeline {
    order: DenseDropOrder::TokenOrder,
};

fn bench(name: &str, mut f: impl FnMut()) {
    f(); // warmup
    let budget = Duration::from_millis(300);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget && iters < 10_000 {
        f();
        iters += 1;
    }
    let per = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<44} {:>12.3} us/iter  ({iters} iters)", per * 1e6);
}

fn bench_pft_construction() {
    for &(s, e, k) in &[(1024usize, 64usize, 6usize), (4096, 256, 8)] {
        let router = Router::new(64, e, k, 1);
        let tokens = Tensor::rand_uniform(s, 64, 1.0, 2);
        let gating = router.gate(&tokens);
        let cap = (s * k * 2) / e;
        bench(&format!("pft_construction/s{s}_e{e}_k{k}"), || {
            std::hint::black_box(Pft::construct(&gating, e, cap, DropPolicy::CapacityOnly));
        });
    }
}

fn bench_single_rank_pipelines() {
    let (s, h, f, e, k) = (512usize, 128usize, 64usize, 16usize, 4usize);
    let router = Router::new(h, e, k, 3);
    let experts = ExpertShard::full(e, h, f, 4);
    let tokens = Tensor::rand_uniform(s, h, 1.0, 5);
    let cap = (s * k * 5 / 4) / e;
    let spec = MoeLayerSpec::new(e, cap);
    bench("single_rank_forward/padding_free", || {
        std::hint::black_box(
            PaddingFreePipeline
                .forward(&tokens, &router, &experts, &spec, &mut ExecCtx::single())
                .unwrap(),
        );
    });
    bench("single_rank_forward/dense_padded", || {
        std::hint::black_box(
            DENSE
                .forward(&tokens, &router, &experts, &spec, &mut ExecCtx::single())
                .unwrap(),
        );
    });
}

fn bench_distributed_pipelines() {
    let (s, h, f, e) = (256usize, 64usize, 32usize, 16usize);
    let world = 8usize;
    let router = Router::new(h, e, 4, 6);
    let spec = MoeLayerSpec::new(e, 10_000);

    bench("distributed_forward_8rank/padding_free_ep", || {
        let router = &router;
        let spec = &spec;
        let norms = SimCluster::frontier(world).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 7);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 8 + ctx.rank as u64);
            let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            PaddingFreePipeline
                .forward(&tokens, router, &shard, spec, &mut ex)
                .unwrap()
                .norm()
        });
        std::hint::black_box(norms);
    });
    bench("distributed_forward_8rank/dense_ep", || {
        let router = &router;
        let spec = &spec;
        let norms = SimCluster::frontier(world).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 7);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 8 + ctx.rank as u64);
            let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            DENSE
                .forward(&tokens, router, &shard, spec, &mut ex)
                .unwrap()
                .norm()
        });
        std::hint::black_box(norms);
    });
    bench("distributed_forward_8rank/rbd_ep", || {
        let router = &router;
        let spec = &spec;
        let norms = SimCluster::frontier(world).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 7);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 8 + ctx.rank as u64);
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
            let mut rng = DetRng::new(9 + ctx.rank as u64);
            let mut ex = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
            RbdPipeline {
                policy: PilotPolicy::Random,
            }
            .forward(&tokens, router, &shard, spec, &mut ex)
            .unwrap()
            .norm()
        });
        std::hint::black_box(norms);
    });
}

fn main() {
    bench_pft_construction();
    bench_single_rank_pipelines();
    bench_distributed_pipelines();
}
