//! Fig 12 (§5.4.2): dispatching time breakdown with and without RBD, for
//! one Large-model MoE layer on 32 GPUs with EP=32 (4 Frontier nodes),
//! PFT pipeline enabled in both cases.
//!
//! Analytic view at paper dims plus a live 32-rank run at reduced dims
//! whose simulated clocks split the stages the same way.

use xmoe_bench::{fmt_time, print_table, shape_check};
use xmoe_collectives::{RankTrace, SimCluster, StepReport};
use xmoe_core::config::{MoeModelConfig, ParallelConfig};
use xmoe_core::expert::ExpertShard;
use xmoe_core::gating::Router;
use xmoe_core::memory::MoeSystem;
use xmoe_core::perf::{PerfModel, PerfOpts};
use xmoe_core::pipeline::{ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline, RbdPipeline};
use xmoe_core::rbd::{expected_redundancy_uniform, PilotPolicy, RbdComms};
use xmoe_tensor::{DetRng, Tensor};

fn main() {
    // ---- Analytic at paper dims ---------------------------------------
    let pm = PerfModel::frontier_clean(32);
    let large = MoeModelConfig::large();
    let par = ParallelConfig::new(32, 32);
    let plain = pm.moe_stage_times(&large, MoeSystem::XMoe, &par, &PerfOpts::default());
    let rbd_opts = PerfOpts {
        rbd: true,
        ..PerfOpts::default()
    };
    let with_rbd = pm.moe_stage_times(&large, MoeSystem::XMoe, &par, &rbd_opts);
    print_table(
        "Fig 12: dispatch path time, Large layer, 32 GPUs EP=32 (analytic)",
        &[
            "variant",
            "buffer dispatch",
            "dispatch a2a",
            "total dispatch path",
        ],
        &[
            vec![
                "PFT (no RBD)".into(),
                fmt_time(plain.buffer_dispatch),
                fmt_time(plain.dispatch_a2a),
                fmt_time(plain.buffer_dispatch + plain.dispatch_a2a),
            ],
            vec![
                "PFT + RBD".into(),
                fmt_time(with_rbd.buffer_dispatch),
                fmt_time(with_rbd.dispatch_a2a),
                fmt_time(with_rbd.buffer_dispatch + with_rbd.dispatch_a2a),
            ],
        ],
    );
    let redundancy = expected_redundancy_uniform(large.top_k, 4);
    let speedup = (plain.buffer_dispatch + plain.dispatch_a2a)
        / (with_rbd.buffer_dispatch + with_rbd.dispatch_a2a);
    let a2a_cut = 1.0 - with_rbd.dispatch_a2a / plain.dispatch_a2a;
    shape_check(
        "redundancy rate ~54.8% in this setting",
        (redundancy - 0.548).abs() < 0.03,
        &format!("{:.1}%", 100.0 * redundancy),
    );
    shape_check(
        "RBD cuts the (inter-node dominated) dispatch a2a roughly in half (paper: 52.5%)",
        (0.30..0.65).contains(&a2a_cut),
        &format!("{:.1}%", 100.0 * a2a_cut),
    );
    shape_check(
        "overall dispatch speedup ~1.55x (paper)",
        (1.2..2.1).contains(&speedup),
        &format!("{speedup:.2}x"),
    );

    // ---- Live 32-rank run at reduced dims ------------------------------
    println!("\n== Fig 12 live companion: 32 ranks (4 simulated nodes), reduced dims ==");
    let (s, h, f, e, k) = (512usize, 128usize, 32usize, 32usize, 8usize);
    let router = Router::new(h, e, k, 121);
    let spec = MoeLayerSpec::new(e, usize::MAX / 2);
    let plain_report = {
        let router = &router;
        let spec = &spec;
        let traces = SimCluster::frontier(32).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 32, e, h, f, 122);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 1000 + ctx.rank as u64);
            let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            PaddingFreePipeline
                .forward(&tokens, router, &shard, spec, &mut ex)
                .expect("flat EP forward");
            RankTrace::capture(ctx.rank, &mut ctx.clock, ctx.world.traffic())
        });
        StepReport::from_ranks(&traces)
    };
    let rbd_report = {
        let router = &router;
        let spec = &spec;
        let traces = SimCluster::frontier(32).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 32, e, h, f, 122);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 1000 + ctx.rank as u64);
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
            let mut rng = DetRng::new(123 + ctx.rank as u64);
            let mut ex = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
            RbdPipeline {
                policy: PilotPolicy::Random,
            }
            .forward(&tokens, router, &shard, spec, &mut ex)
            .expect("rbd forward");
            RankTrace::capture(ctx.rank, &mut ctx.clock, ctx.world.traffic())
        });
        StepReport::from_ranks(&traces)
    };
    let plain_a2a = (
        plain_report.mean("dispatch_a2a"),
        plain_report.mean("combine_a2a"),
    );
    let rbd_a2a = (
        rbd_report.mean("dispatch_a2a_inter") + rbd_report.mean("dispatch_a2a_intra"),
        rbd_report.mean("combine_a2a_inter") + rbd_report.mean("combine_a2a_intra"),
    );
    print_table(
        "live all-to-all time per layer (reduced dims, mean over 32 ranks)",
        &["variant", "dispatch a2a", "combine a2a", "off-node GiB"],
        &[
            vec![
                "PFT (no RBD)".into(),
                fmt_time(plain_a2a.0),
                fmt_time(plain_a2a.1),
                format!(
                    "{:.3}",
                    plain_report.total_traffic().off_node() as f64 / (1u64 << 30) as f64
                ),
            ],
            vec![
                "PFT + RBD".into(),
                fmt_time(rbd_a2a.0),
                fmt_time(rbd_a2a.1),
                format!(
                    "{:.3}",
                    rbd_report.total_traffic().off_node() as f64 / (1u64 << 30) as f64
                ),
            ],
        ],
    );
    shape_check(
        "live: RBD reduces total a2a time at 4-node scale",
        rbd_a2a.0 + rbd_a2a.1 < plain_a2a.0 + plain_a2a.1,
        &format!(
            "RBD {} vs plain {}",
            fmt_time(rbd_a2a.0 + rbd_a2a.1),
            fmt_time(plain_a2a.0 + plain_a2a.1)
        ),
    );
    shape_check(
        "live: RBD cuts off-node traffic",
        rbd_report.total_traffic().off_node() < plain_report.total_traffic().off_node(),
        &format!(
            "RBD {} vs plain {} bytes",
            rbd_report.total_traffic().off_node(),
            plain_report.total_traffic().off_node()
        ),
    );
}
