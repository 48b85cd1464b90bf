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

use xmoe_collectives::{RankTrace, SimCluster, StepReport};
use xmoe_core::config::{MoeModelConfig, ParallelConfig};
use xmoe_core::expert::ExpertShard;
use xmoe_core::gating::Router;
use xmoe_core::memory::MoeSystem;
use xmoe_core::perf::{PerfModel, PerfOpts};
use xmoe_core::pipeline::{
    DenseDropOrder, DensePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline,
};
use xmoe_core::price::StageTimes;
use xmoe_tensor::Tensor;

use crate::fmt_time;
use crate::spine::{bench, int, micros, print_records, row, table, tag, Check, Outcome, Record};

bench!(fig11_breakdown, "Fig 11: MoE layer time breakdown");

/// One record per stage plus a `TOTAL` row, both systems in microseconds.
fn breakdown(name: &str, title: &str, ds: &StageTimes, x: &StageTimes) -> Vec<Record> {
    let stages = ds.entries().into_iter().zip(x.entries());
    let rows = stages.map(|((label, d), (_, xv))| (label, d, xv)).chain([(
        "TOTAL",
        ds.total(),
        x.total(),
    )]);
    let recs: Vec<Record> = rows
        .map(|(label, d, xv)| {
            row(name)
                .cfg("stage", tag(label))
                .metric("dsmoe_us", micros(d))
                .metric("xmoe_us", micros(xv))
        })
        .collect();
    print_records(title, &recs);
    recs
}

fn run(_smoke: bool) -> Outcome {
    let pm = PerfModel::frontier_clean(256);
    let no_rbd = PerfOpts::default();

    // ---- Analytic at paper dimensions --------------------------------
    let small = MoeModelConfig::small();
    let par8 = ParallelConfig::new(256, 8);
    let ds_s = pm.moe_stage_times(&small, MoeSystem::DsMoe, &par8, &no_rbd);
    let x_s = pm.moe_stage_times(&small, MoeSystem::XMoe, &par8, &no_rbd);
    let mut recs = breakdown(
        "small",
        "Fig 11 (Small, EP=8): analytic at paper dims",
        &ds_s,
        &x_s,
    );

    let large = MoeModelConfig::large();
    let par64 = ParallelConfig::new(256, 64);
    let ds_l = pm.moe_stage_times(&large, MoeSystem::DsMoe, &par64, &no_rbd);
    let x_l = pm.moe_stage_times(&large, MoeSystem::XMoe, &par64, &no_rbd);
    recs.extend(breakdown(
        "large",
        "Fig 11 (Large, EP=64): analytic at paper dims",
        &ds_l,
        &x_l,
    ));

    // ---- Live run at reduced dimensions -------------------------------
    // 8 ranks (one simulated Frontier node, matching EP=8), small tensors;
    // the simulated clocks charge the same stage labels.
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
    let mut live_rows: Vec<Record> = x_s
        .entries()
        .iter()
        .map(|&(l, _)| {
            row("live")
                .cfg("stage", tag(l))
                .metric("dsmoe_mean_us", micros(ds_live.mean(l)))
                .metric("xmoe_mean_us", micros(x_live.mean(l)))
                .metric("xmoe_max_us", micros(x_live.max(l)))
                .metric(
                    "xmoe_straggler",
                    int(x_live.stage(l).map_or(0, |st| st.straggler)),
                )
        })
        .collect();
    let end_to_end = |r: &StepReport| micros(r.total_mean_work() + r.total_mean_wait());
    live_rows.push(
        row("live")
            .cfg("stage", tag("work+wait"))
            .metric("dsmoe_mean_us", end_to_end(&ds_live))
            .metric("xmoe_mean_us", end_to_end(&x_live)),
    );
    print_records(
        "Fig 11 live companion: 8-rank run at reduced dims (simulated clocks, mean over ranks)",
        &live_rows,
    );
    println!(
        "  sync-wait (mean per rank): DS {}  X {}  | off-node bytes: DS {}  X {}",
        fmt_time(ds_live.total_mean_wait()),
        fmt_time(x_live.total_mean_wait()),
        ds_live.total_traffic().off_node(),
        x_live.total_traffic().off_node(),
    );
    recs.extend(live_rows);
    (recs, Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    // (DS-MoE, X-MoE) seconds of one row; rows are the six stages in
    // pipeline order, then the total.
    let pair = |r: &Record, ds: &str, x: &str| Ok::<_, String>((r.num(ds)? / 1e6, r.num(x)? / 1e6));
    let small: &[Record; 7] = table(recs, "small")?;
    let large: &[Record; 7] = table(recs, "large")?;
    let live: &[Record; 7] = table(recs, "live")?;
    let at = |t: &[Record; 7], i: usize| pair(&t[i], "dsmoe_us", "xmoe_us");
    let speedup = |i: usize| at(small, i).map(|(ds, x)| ds / x);
    let (ds_total, x_total) = at(small, 6)?;
    let reduction = 1.0 - x_total / ds_total;
    let (ds_expert, x_expert) = at(small, 3)?;
    let (dispatch, combine) = (at(large, 2)?, at(large, 4)?);
    let a2a_cut = 1.0 - (dispatch.1 + combine.1) / (dispatch.0 + combine.0);
    let (ds_live, x_live) = pair(&live[6], "dsmoe_mean_us", "xmoe_mean_us")?;
    Ok(vec![
        Check::new(
            "Small: overall MoE layer time reduced substantially (paper: 62.3%)",
            reduction > 0.35,
            format!("{:.1}%", 100.0 * reduction),
        ),
        Check::new(
            "Small: gating much faster under PFT (paper: 5.7x)",
            speedup(0)? > 3.0,
            format!("{:.1}x", speedup(0)?),
        ),
        Check::new(
            "Small: buffer dispatch much faster (paper: 35.7x)",
            speedup(1)? > 8.0,
            format!("{:.1}x", speedup(1)?),
        ),
        Check::new(
            "Small: buffer combine much faster (paper: 8.1x)",
            speedup(5)? > 3.0,
            format!("{:.1}x", speedup(5)?),
        ),
        Check::new(
            "Small: X-MoE expert stage slightly slower (sequential-GEMM transforms)",
            x_expert > 0.9 * ds_expert,
            format!("X {} vs DS {}", fmt_time(x_expert), fmt_time(ds_expert)),
        ),
        Check::new(
            "Large: all-to-all time reduced by removing padding (paper: 50.7%)",
            a2a_cut > 0.05,
            format!(
                "{:.1}% (padding share of the even all-to-all)",
                100.0 * a2a_cut
            ),
        ),
        Check::new(
            "live: X-MoE layer faster end to end at reduced dims too",
            x_live < ds_live,
            format!("X {} vs DS {}", fmt_time(x_live), fmt_time(ds_live)),
        ),
    ])
}
