//! `xmoe-cli step` — one live forward step of a pipeline on the
//! threads-as-ranks runtime, or (`--pp`) the 1F1B pipeline schedule.

use std::path::Path;

use xmoe::bench::flags::{Arity, Cmd, Flag, UsageError};
use xmoe::collectives::{trace, RankTrace, SimCluster, StepReport};
use xmoe::core::config::MoeModelConfig;
use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::{DropPolicy, Router};
use xmoe::core::memory::GIB;
use xmoe::core::perf::PerfModel;
use xmoe::core::pipeline::{
    bubble_fraction, rank_work, reference_forward, run_1f1b, BlockSparsePipeline, DenseDropOrder,
    DensePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline, PipelineError,
    PooledSingleState, RbdPipeline, StageChunk,
};
use xmoe::core::plan::price_mapping;
use xmoe::core::rbd::{PilotPolicy, RbdComms};
use xmoe::tensor::{DetRng, Tensor, WorkspaceStats};
use xmoe::topology::{
    AttnFold, ClusterTopology, CongestionModel, CostModel, MachineSpec, MoeFold, ParallelMapping,
};
use xmoe::train::{StagePartition, TrainConfig};

pub static CMD: Cmd = Cmd {
    name: "step",
    positionals: "<dense|pft|blocksparse|rbd> [ranks]",
    flags: &[
        Flag {
            name: "--overlap",
            arity: Arity::OptCount("chunks"),
            doc: "pipeline the dispatch all-to-all against expert compute (pft and rbd; default 4 chunks)",
        },
        Flag {
            name: "--trace",
            arity: Arity::Value("<path>"),
            doc: "write a Chrome trace-event JSON (open in Perfetto)",
        },
        Flag {
            name: "--csv",
            arity: Arity::Value("<path>"),
            doc: "write the raw per-rank spans",
        },
    ],
};

/// `step --pp <stages>`: `--pp` selects this command line and its value is
/// the one required positional of what remains.
pub static CMD_PP: Cmd = Cmd {
    name: "step --pp",
    positionals: "<stages>",
    flags: &[
        Flag {
            name: "--vpp",
            arity: Arity::Value("<chunks>"),
            doc: "virtual chunks per stage, > 1 interleaves (default 1)",
        },
        Flag {
            name: "--microbatches",
            arity: Arity::Value("<m>"),
            doc: "microbatches per step (default 8)",
        },
    ],
};

pub fn run(args: &[String]) -> Result<(), UsageError> {
    // `--pp` switches from the single-layer pipelines to the 1F1B
    // pipeline-parallel driver (no pipeline-name positional there).
    if let Some(at) = args.iter().position(|a| a == "--pp") {
        let mut rest = args.to_vec();
        rest.remove(at);
        return run_1f1b_schedule(&rest);
    }
    let p = CMD.parse(args)?;
    let name = p.req::<String>(0)?.to_ascii_lowercase();
    let ranks: usize = p.arg(1)?.unwrap_or(8);
    let trace_path: Option<String> = p.flag("--trace")?;
    let csv_path: Option<String> = p.flag("--csv")?;
    // Optional chunk count; defaults to 4 pipeline chunks.
    let overlap: Option<usize> = match p.flag("--overlap")? {
        None if p.has("--overlap") => Some(4),
        chunks => chunks,
    };
    // Reduced-dimension live step: experts divide the EP size; every rank
    // carries a different local batch.
    let (s, h, f) = (256usize, 64usize, 32usize);
    let e = ranks * 2;
    let k = 4usize.min(e);
    let router = Router::new(h, e, k, 0x57E9);
    let spec = MoeLayerSpec::new(e, 10_000);
    let pipe: Box<dyn Pipeline + Sync> = match name.as_str() {
        "dense" => Box::new(DensePipeline {
            order: DenseDropOrder::TokenOrder,
        }),
        "pft" | "padding_free" => Box::new(PaddingFreePipeline),
        "blocksparse" | "block_sparse" => Box::new(BlockSparsePipeline { block: 128 }),
        "rbd" => Box::new(RbdPipeline {
            policy: PilotPolicy::Random,
        }),
        other => return Err(CMD.error(format!("unknown pipeline '{other}'"))),
    };
    let per_rank: Vec<Result<(RankTrace, WorkspaceStats), PipelineError>> = {
        let (router, spec, pipe) = (&router, &spec, pipe.as_ref());
        SimCluster::frontier(ranks).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, ranks, e, h, f, 0x57EA);
            let tokens = Tensor::rand_uniform(s, h, 1.0, 0x57EB + ctx.rank as u64);
            // Only RBD pays for (and traces) the node-local split.
            let hier = match pipe.name() {
                "rbd" => Some(RbdComms::create(&ctx.world, &mut ctx.clock)?),
                _ => None,
            };
            let mut rng = DetRng::new(0x57EC + ctx.rank as u64);
            let mut state = PooledSingleState::default();
            let mut ex = match &hier {
                Some(hier) => ExecCtx::hier(hier, &mut ctx.clock).with_rng(&mut rng),
                None => ExecCtx::ep(&ctx.world, &mut ctx.clock),
            }
            .with_state(&mut state);
            ex.overlap_chunks = overlap;
            let out = pipe.forward(&tokens, router, &shard, spec, &mut ex)?;
            state.ws.recycle(out);
            let trace = RankTrace::capture(ctx.rank, &mut ctx.clock, ctx.world.traffic());
            Ok((trace, state.stats()))
        })
    };
    let per_rank: Vec<(RankTrace, WorkspaceStats)> = match per_rank.into_iter().collect() {
        Ok(per_rank) => per_rank,
        Err(e) => {
            eprintln!("step {name}: {e}");
            std::process::exit(1);
        }
    };
    let arena = per_rank[0].1;
    let traces: Vec<RankTrace> = per_rank.into_iter().map(|(t, _)| t).collect();
    let report = StepReport::from_ranks(&traces);
    let mode = match overlap {
        Some(c) => format!(" (overlap, {c} chunks)"),
        None => String::new(),
    };
    println!(
        "{name} pipeline{mode}, one forward step, {ranks} simulated Frontier ranks (reduced dims):"
    );
    println!(
        "{:<28} {:>11} {:>11} {:>11} {:>10} {:>6}",
        "stage", "min", "mean", "max", "imbalance", "worst"
    );
    for st in &report.stages {
        println!(
            "{:<28} {:>9.1}us {:>9.1}us {:>9.1}us {:>9.2}x {:>6}",
            st.label,
            st.min * 1e6,
            st.mean * 1e6,
            st.max * 1e6,
            st.imbalance(),
            format!("r{}", st.straggler)
        );
    }
    let tr = report.total_traffic();
    println!(
        "step time {:.1}us | work {:.1}us + sync-wait {:.1}us (mean/rank) | \
         bytes intra {} inter {} cross-rack {}",
        report.step_time * 1e6,
        report.total_mean_work() * 1e6,
        report.total_mean_wait() * 1e6,
        tr.intra_node,
        tr.inter_node,
        tr.cross_rack
    );
    println!("{} (rank 0)", crate::arena_line(&arena, 1));
    if let Some(p) = trace_path {
        trace::write_chrome_trace(Path::new(&p), &traces).expect("write trace file");
        println!("wrote Chrome trace to {p} (open at https://ui.perfetto.dev)");
    }
    if let Some(p) = csv_path {
        trace::write_spans_csv(Path::new(&p), &traces).expect("write csv file");
        println!("wrote span CSV to {p}");
    }
    Ok(())
}

/// `xmoe-cli step --pp`: the (interleaved) 1F1B schedule live on the
/// threads-as-ranks runtime — one reduced-dimension MoE layer per virtual
/// stage — checked bitwise against the unpipelined reference and compared
/// to the analytic bubble and the planner's priced view of the same fold.
fn run_1f1b_schedule(args: &[String]) -> Result<(), UsageError> {
    let p = CMD_PP.parse(args)?;
    let pp: usize = p.req(0)?;
    let vpp: usize = p.flag("--vpp")?.unwrap_or(1);
    let m: usize = p.flag("--microbatches")?.unwrap_or(8);
    // Reduced-dimension stack, one layer per virtual stage. Shape errors
    // (pp 0, layers not splitting, interleaved m % pp != 0) are config
    // errors: diagnostic + exit 1, not a panic.
    let mut cfg = TrainConfig::fig15(DropPolicy::CapacityOnly);
    cfg.vocab = 64;
    cfg.hidden = 16;
    cfg.ffn = 8;
    cfg.num_experts = 4;
    cfg.top_k = 2;
    cfg.layers = pp * vpp;
    cfg.seq_len = 8;
    cfg.batch = 2;
    cfg.capacity_factor = 1e6;
    let part = match StagePartition::new(&cfg, pp, vpp, m) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("step --pp: {e}");
            std::process::exit(1);
        }
    };
    let inputs = part.microbatch_inputs(&cfg);
    let stages = part.reference_stages();
    let refs: Vec<&dyn StageChunk> = stages.iter().map(|s| s as &dyn StageChunk).collect();
    let want = reference_forward(&refs, &inputs);

    // Uniform slow compute: every stage op costs the same and dwarfs the
    // boundary hops, so the measured bubble converges to the analytic
    // fill/drain ramp instead of the network's noise.
    let mut spec = MachineSpec::frontier();
    spec.peak_flops = 1e8;
    spec.gemm_efficiency = 1.0;
    let topo = ClusterTopology::new(spec, pp);
    let cluster = SimCluster::new(CostModel::new(topo).with_congestion(CongestionModel::none()));
    let per_rank = {
        let (part, inputs) = (&part, &inputs);
        cluster.run(move |ctx| {
            let chunks = part.rank_chunks(ctx.rank);
            let refs: Vec<&dyn StageChunk> = chunks.iter().map(|c| c as &dyn StageChunk).collect();
            let outs = run_1f1b(&part.spec, &refs, inputs, &ctx.world, &mut ctx.clock);
            (outs, ctx.clock.now(), rank_work(&ctx.clock))
        })
    };
    let mut totals: Vec<(f64, f64)> = Vec::with_capacity(pp);
    let mut outputs: Vec<Tensor> = Vec::new();
    for (rank, (res, now, work)) in per_rank.into_iter().enumerate() {
        match res {
            Ok(o) => {
                if rank == pp - 1 {
                    outputs = o;
                }
                totals.push((now, work));
            }
            Err(e) => {
                eprintln!("step --pp: rank {rank}: {e}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "1f1b schedule: pp={pp} v={vpp} m={m} | {} layers ({} per virtual stage) | \
         {} rows/microbatch on {pp} simulated uniform-compute ranks",
        cfg.layers,
        part.layers_per_stage,
        cfg.batch * cfg.seq_len
    );
    let bitwise = outputs.len() == want.len()
        && outputs
            .iter()
            .zip(&want)
            .all(|(g, w)| g.as_slice() == w.as_slice());
    if !bitwise {
        eprintln!("DEVIATION pipelined outputs diverge from the unpipelined reference");
        std::process::exit(1);
    }
    println!(
        "PASS      pipelined outputs match the unpipelined reference bitwise ({m} microbatches)"
    );
    let measured = bubble_fraction(&totals);
    let analytic = part.spec.analytic_bubble();
    let off = if analytic > 0.0 {
        100.0 * (measured - analytic) / analytic
    } else {
        0.0
    };
    println!(
        "bubble: measured {measured:.4} vs analytic (p-1)/(v*m+p-1) = {analytic:.4} ({off:+.1}%)"
    );

    // The planner's priced view of the same fold (per-stage ranks collapse
    // to 1, so this prices the schedule itself: ramps, hops, sync).
    let mapping = ParallelMapping {
        pp,
        virtual_chunks: vpp,
        microbatches: m,
        attn: AttnFold { tp: 1, dp: 1 },
        moe: MoeFold {
            ep: 1,
            tp: 1,
            dp: 1,
        },
    };
    let model = MoeModelConfig::custom(
        "staged-cli",
        cfg.seq_len,
        cfg.hidden,
        cfg.ffn,
        cfg.num_experts,
        cfg.top_k,
        cfg.layers,
    );
    let plan = price_mapping(&PerfModel::frontier_clean(pp), &model, &mapping, cfg.batch);
    println!(
        "priced as {}: step {:.3} ms | {:.3} TF/GPU | boundary hop {:.1} us | {:.3} GiB/GPU ({})",
        plan.mapping.label(),
        plan.step_time * 1e3,
        plan.tflops_per_gpu,
        plan.p2p_time * 1e6,
        plan.mem.total() as f64 / GIB,
        if plan.fits { "fits" } else { "OOM" }
    );
    Ok(())
}
