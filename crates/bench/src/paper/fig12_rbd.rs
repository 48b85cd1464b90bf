//! Fig 12 (§5.4.2): dispatching time breakdown with and without RBD, for
//! one Large-model MoE layer on 32 GPUs with EP=32 (4 Frontier nodes),
//! PFT pipeline enabled in both cases.
//!
//! Analytic view at paper dims plus a live 32-rank run at reduced dims
//! whose simulated clocks split the stages the same way.

use xmoe_collectives::{RankTrace, SimCluster, StepReport};
use xmoe_core::config::{MoeModelConfig, ParallelConfig};
use xmoe_core::expert::ExpertShard;
use xmoe_core::gating::Router;
use xmoe_core::memory::MoeSystem;
use xmoe_core::perf::{PerfModel, PerfOpts};
use xmoe_core::pipeline::{ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline, RbdPipeline};
use xmoe_core::rbd::{expected_redundancy_uniform, PilotPolicy, RbdComms};
use xmoe_tensor::{DetRng, Tensor};

use crate::fmt_time;
use crate::spine::{bench, micros, print_records, row, table, tag, Check, Outcome, Record, Val};

bench!(fig12_rbd, "Fig 12: RBD dispatch breakdown");

const VARIANTS: [&str; 2] = ["PFT (no RBD)", "PFT + RBD"];

fn run(_smoke: bool) -> Outcome {
    // ---- Analytic at paper dims ---------------------------------------
    let pm = PerfModel::frontier_clean(32);
    let large = MoeModelConfig::large();
    let par = ParallelConfig::new(32, 32);
    let redundancy = expected_redundancy_uniform(large.top_k, 4);
    let analytic = [false, true].map(|rbd| {
        let opts = PerfOpts {
            rbd,
            ..PerfOpts::default()
        };
        let t = pm.moe_stage_times(&large, MoeSystem::XMoe, &par, &opts);
        row("analytic")
            .cfg("variant", tag(VARIANTS[rbd as usize]))
            .cfg("uniform_redundancy", Val::Fixed(redundancy, 6))
            .metric("buffer_dispatch_us", micros(t.buffer_dispatch))
            .metric("dispatch_a2a_us", micros(t.dispatch_a2a))
    });
    print_records(
        "Fig 12: dispatch path time, Large layer, 32 GPUs EP=32 (analytic)",
        &analytic,
    );

    // ---- Live 32-rank run at reduced dims ------------------------------
    let (s, h, f, e, k) = (512usize, 128usize, 32usize, 32usize, 8usize);
    let router = Router::new(h, e, k, 121);
    let spec = MoeLayerSpec::new(e, usize::MAX / 2);
    let live = |rbd: bool| -> StepReport {
        let (router, spec) = (&router, &spec);
        let traces = SimCluster::frontier(32).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, 32, e, h, f, 122);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 1000 + ctx.rank as u64);
            if rbd {
                let comms = RbdComms::create(&ctx.world, &mut ctx.clock).unwrap();
                let mut rng = DetRng::new(123 + ctx.rank as u64);
                let mut ex = ExecCtx::hier(&comms, &mut ctx.clock).with_rng(&mut rng);
                let pipe = RbdPipeline {
                    policy: PilotPolicy::Random,
                };
                pipe.forward(&tokens, router, &shard, spec, &mut ex)
                    .expect("rbd forward");
            } else {
                let mut ex = ExecCtx::ep(&ctx.world, &mut ctx.clock);
                PaddingFreePipeline
                    .forward(&tokens, router, &shard, spec, &mut ex)
                    .expect("flat EP forward");
            }
            RankTrace::capture(ctx.rank, &mut ctx.clock, ctx.world.traffic())
        });
        StepReport::from_ranks(&traces)
    };
    let live_rows = [false, true].map(|rbd| {
        let report = live(rbd);
        // Flat EP charges one stage per all-to-all, RBD an inter-node and
        // an intra-node one; a stage a pipeline never charged reads 0.
        let a2a = |stage: &str| {
            let part = |suffix: &str| report.mean(&format!("{stage}{suffix}"));
            micros(part("") + part("_inter") + part("_intra"))
        };
        row("live")
            .cfg("variant", tag(VARIANTS[rbd as usize]))
            .metric("dispatch_a2a_us", a2a("dispatch_a2a"))
            .metric("combine_a2a_us", a2a("combine_a2a"))
            .metric(
                "off_node_bytes",
                Val::Int(report.total_traffic().off_node()),
            )
    });
    print_records(
        "Fig 12 live companion: 32 ranks (4 simulated nodes), reduced dims, mean a2a time per layer",
        &live_rows,
    );
    ([analytic, live_rows].concat(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let [plain, with_rbd] = table(recs, "analytic")?;
    let redundancy = with_rbd.num("uniform_redundancy")?;
    let a2a = |r: &Record| r.num("dispatch_a2a_us");
    let path = |r: &Record| Ok::<_, String>(r.num("buffer_dispatch_us")? + a2a(r)?);
    let speedup = path(plain)? / path(with_rbd)?;
    let a2a_cut = 1.0 - a2a(with_rbd)? / a2a(plain)?;

    let [plain, with_rbd] = table(recs, "live")?;
    let total = |r: &Record| Ok::<_, String>((a2a(r)? + r.num("combine_a2a_us")?) / 1e6);
    let off_node = |r: &Record| r.num("off_node_bytes");
    Ok(vec![
        Check::new(
            "redundancy rate ~54.8% in this setting",
            (redundancy - 0.548).abs() < 0.03,
            format!("{:.1}%", 100.0 * redundancy),
        ),
        Check::new(
            "RBD cuts the (inter-node dominated) dispatch a2a roughly in half (paper: 52.5%)",
            (0.30..0.65).contains(&a2a_cut),
            format!("{:.1}%", 100.0 * a2a_cut),
        ),
        Check::new(
            "overall dispatch speedup ~1.55x (paper)",
            (1.2..2.1).contains(&speedup),
            format!("{speedup:.2}x"),
        ),
        Check::new(
            "live: RBD reduces total a2a time at 4-node scale",
            total(with_rbd)? < total(plain)?,
            format!(
                "RBD {} vs plain {}",
                fmt_time(total(with_rbd)?),
                fmt_time(total(plain)?)
            ),
        ),
        Check::new(
            "live: RBD cuts off-node traffic",
            off_node(with_rbd)? < off_node(plain)?,
            format!(
                "RBD {} vs plain {} bytes",
                off_node(with_rbd)?,
                off_node(plain)?
            ),
        ),
    ])
}
