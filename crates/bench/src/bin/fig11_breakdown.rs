//! Fig 11 (§5.4.1): forward MoE-layer time breakdown, DeepSpeed-MoE vs
//! X-MoE, for the Small model (EP=8) and the Large model (EP=64) on 256
//! Frontier GPUs, RBD disabled to isolate the PFT contribution.
//!
//! Two views:
//! 1. the analytic model at paper dimensions (the numbers to compare with
//!    the figure), and
//! 2. a live run of both pipelines on the threads-as-ranks runtime at
//!    reduced dimensions, whose simulated clocks produce the same stage
//!    labels from actual message sizes.

use xmoe_bench::{fmt_time, print_table, shape_check};
use xmoe_collectives::{RankTrace, SimCluster, StepReport};
use xmoe_core::config::{MoeModelConfig, ParallelConfig};
use xmoe_core::expert::ExpertShard;
use xmoe_core::gating::Router;
use xmoe_core::memory::MoeSystem;
use xmoe_core::perf::{PerfModel, PerfOpts, StageTimes};
use xmoe_core::pipeline::{
    DenseDropOrder, DensePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline,
};
use xmoe_tensor::Tensor;

fn print_breakdown(title: &str, ds: &StageTimes, x: &StageTimes) {
    let rows: Vec<Vec<String>> = ds
        .entries()
        .iter()
        .zip(x.entries().iter())
        .map(|((label, d), (_, xv))| {
            vec![
                label.to_string(),
                fmt_time(*d),
                fmt_time(*xv),
                if *xv > 0.0 {
                    format!("{:.1}x", d / xv)
                } else {
                    "-".into()
                },
            ]
        })
        .collect();
    let mut rows = rows;
    rows.push(vec![
        "TOTAL".into(),
        fmt_time(ds.total()),
        fmt_time(x.total()),
        format!("{:.2}x", ds.total() / x.total()),
    ]);
    print_table(
        title,
        &["stage", "DeepSpeed-MoE", "X-MoE", "speedup"],
        &rows,
    );
}

fn main() {
    let pm = PerfModel::frontier_clean(256);
    let no_rbd = PerfOpts::default();

    // ---- Analytic at paper dimensions --------------------------------
    let small = MoeModelConfig::small();
    let par8 = ParallelConfig::new(256, 8);
    let ds_s = pm.moe_stage_times(&small, MoeSystem::DsMoe, &par8, &no_rbd);
    let x_s = pm.moe_stage_times(&small, MoeSystem::XMoe, &par8, &no_rbd);
    print_breakdown("Fig 11 (Small, EP=8) — analytic at paper dims", &ds_s, &x_s);

    let large = MoeModelConfig::large();
    let par64 = ParallelConfig::new(256, 64);
    let ds_l = pm.moe_stage_times(&large, MoeSystem::DsMoe, &par64, &no_rbd);
    let x_l = pm.moe_stage_times(&large, MoeSystem::XMoe, &par64, &no_rbd);
    print_breakdown(
        "Fig 11 (Large, EP=64) — analytic at paper dims",
        &ds_l,
        &x_l,
    );

    // Shape checks against the quoted numbers.
    let reduction = 1.0 - x_s.total() / ds_s.total();
    shape_check(
        "Small: overall MoE layer time reduced substantially (paper: 62.3%)",
        reduction > 0.35,
        &format!("{:.1}%", 100.0 * reduction),
    );
    shape_check(
        "Small: gating much faster under PFT (paper: 5.7x)",
        ds_s.gating / x_s.gating > 3.0,
        &format!("{:.1}x", ds_s.gating / x_s.gating),
    );
    shape_check(
        "Small: buffer dispatch much faster (paper: 35.7x)",
        ds_s.buffer_dispatch / x_s.buffer_dispatch > 8.0,
        &format!("{:.1}x", ds_s.buffer_dispatch / x_s.buffer_dispatch),
    );
    shape_check(
        "Small: buffer combine much faster (paper: 8.1x)",
        ds_s.buffer_combine / x_s.buffer_combine > 3.0,
        &format!("{:.1}x", ds_s.buffer_combine / x_s.buffer_combine),
    );
    shape_check(
        "Small: X-MoE expert stage slightly slower (sequential-GEMM transforms)",
        x_s.expert > 0.9 * ds_s.expert,
        &format!("X {} vs DS {}", fmt_time(x_s.expert), fmt_time(ds_s.expert)),
    );
    let a2a_cut = 1.0 - x_l.a2a() / ds_l.a2a();
    shape_check(
        "Large: all-to-all time reduced by removing padding (paper: 50.7%)",
        a2a_cut > 0.05,
        &format!(
            "{:.1}% (padding share of the even all-to-all)",
            100.0 * a2a_cut
        ),
    );

    // ---- Live run at reduced dimensions -------------------------------
    // 8 ranks (one simulated Frontier node, matching EP=8), small tensors;
    // the simulated clocks charge the same stage labels.
    println!("\n== Fig 11 live companion: 8-rank run at reduced dims (simulated clocks) ==");
    let (s, h, f, e, k) = (1024usize, 256usize, 128usize, 8usize, 6usize);
    let router = Router::new(h, e, k, 777);
    // GShard capacity rule at the live dimensions.
    let capacity = (1.25 * (s * k) as f64 / e as f64).ceil() as usize;
    let spec = MoeLayerSpec::new(e, capacity);
    let live = |dense: bool| -> StepReport {
        let router = &router;
        let spec = &spec;
        let traces = SimCluster::frontier(8).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 8, e, h, f, 778);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 900 + ctx.rank as u64);
            let pipe: &dyn Pipeline = if dense {
                &DensePipeline {
                    order: DenseDropOrder::TokenOrder,
                }
            } else {
                &PaddingFreePipeline
            };
            let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
            pipe.forward(&tokens, router, &shard, spec, &mut ex)
                .expect("live forward");
            RankTrace::capture(ctx.rank, &mut ctx.clock, ctx.world.traffic())
        });
        StepReport::from_ranks(&traces)
    };
    let ds_live = live(true);
    let x_live = live(false);
    let labels = [
        "gating",
        "buffer_dispatch",
        "dispatch_a2a",
        "expert",
        "combine_a2a",
        "buffer_combine",
    ];
    let rows: Vec<Vec<String>> = labels
        .iter()
        .map(|&l| {
            let straggler = x_live.stage(l).map_or(0, |st| st.straggler);
            vec![
                l.to_string(),
                fmt_time(ds_live.mean(l)),
                fmt_time(x_live.mean(l)),
                fmt_time(x_live.max(l)),
                format!("r{straggler}"),
            ]
        })
        .collect();
    print_table(
        "live stage times (reduced dims, mean over 8 ranks)",
        &[
            "stage",
            "DS-MoE mean",
            "X-MoE mean",
            "X-MoE max",
            "X straggler",
        ],
        &rows,
    );
    println!(
        "  sync-wait (mean per rank): DS {}  X {}  | off-node bytes: DS {}  X {}",
        fmt_time(ds_live.total_mean_wait()),
        fmt_time(x_live.total_mean_wait()),
        ds_live.total_traffic().off_node(),
        x_live.total_traffic().off_node(),
    );
    shape_check(
        "live: X-MoE layer faster end to end at reduced dims too",
        x_live.total_mean_work() + x_live.total_mean_wait()
            < ds_live.total_mean_work() + ds_live.total_mean_wait(),
        &format!(
            "X {} vs DS {}",
            fmt_time(x_live.total_mean_work() + x_live.total_mean_wait()),
            fmt_time(ds_live.total_mean_work() + ds_live.total_mean_wait())
        ),
    );
}
