//! RBD's footprint does not grow with run length. Sixteen ranks on two
//! simulated nodes run pooled RBD forwards, serial and overlapped, each with
//! a fresh pilot seed, so every wire buffer's size changes from forward to
//! forward. Each wire buffer returns to the rank that filled it, so once
//! every buffer has reached the largest size it is asked for, the process
//! peak stops rising. This file is its own test binary with one `#[test]`:
//! the counting allocator's peak is process-wide.

use xmoe::collectives::SimCluster;
use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::Router;
use xmoe::core::pipeline::{ExecCtx, MoeLayerSpec, Pipeline, PooledSingleState, RbdPipeline};
use xmoe::core::rbd::{PilotPolicy, RbdComms};
use xmoe::tensor::{CountingAlloc, DetRng, Tensor};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn rbd_peak_heap_stops_growing() {
    let (world, s, h, f, e, k) = (16usize, 64usize, 32usize, 8usize, 32usize, 8usize);
    let (warm, total) = (16usize, 64usize);
    let router = Router::new(h, e, k, 0xF007);
    let spec = MoeLayerSpec::new(e, 100_000);
    let rbd = RbdPipeline {
        policy: PilotPolicy::Random,
    };
    let peaks = {
        let (router, spec) = (&router, &spec);
        SimCluster::frontier(world).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, world, e, h, f, 0xF008);
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).expect("rbd comms");
            let tokens = Tensor::rand_uniform(s, h, 1.0, 0xF009 + ctx.rank as u64);
            let mut state = PooledSingleState::default();
            let mut peak_at_warm = 0;
            for i in 0..total {
                // The spans a forward records are the trace's memory, not
                // the pipeline's: clear them, keeping the time.
                ctx.clock.reset_buckets();
                for overlap in [None, Some(4)] {
                    let mut rng = DetRng::new(0xF00A ^ (i * world + ctx.rank) as u64);
                    let mut ex = ExecCtx::hier(&comms, &mut ctx.clock)
                        .with_state(&mut state)
                        .with_rng(&mut rng);
                    ex.overlap_chunks = overlap;
                    let out = rbd
                        .forward(&tokens, router, &shard, spec, &mut ex)
                        .expect("rbd forward");
                    state.ws.recycle(out);
                }
                if i + 1 == warm {
                    // Every rank has finished its first `warm` forwards and
                    // none has started the next.
                    ctx.world.barrier(&mut ctx.clock).expect("barrier");
                    peak_at_warm = ALLOC.stats().peak_bytes;
                    ctx.world.barrier(&mut ctx.clock).expect("barrier");
                }
            }
            peak_at_warm
        })
    };
    let (warm_peak, end_peak) = (peaks[0], ALLOC.stats().peak_bytes);
    let mb = |b: usize| b as f64 / 1e6;
    assert!(
        end_peak as f64 <= 1.1 * warm_peak as f64,
        "peak heap grew from {:.1} MB after {warm} forwards to {:.1} MB after {total}",
        mb(warm_peak),
        mb(end_peak)
    );
}
