//! `xmoe-cli` — query the X-MoE models from the command line.
//!
//! ```text
//! xmoe-cli plan <small|medium|large|super> [gpus]
//!     Memory-plan the model on a Frontier slice: per-system trainability,
//!     best parallel configuration and modelled throughput.
//!
//! xmoe-cli redundancy <experts> <topk> [gpus-per-node]
//!     Dispatch redundancy rate per EP size (the Fig 4 table).
//!
//! xmoe-cli throughput <small|medium|large|super> <gpus>
//!     Modelled TFLOP/s per GPU for all four systems.
//!
//! xmoe-cli alltoall <gpus> <mbytes-per-rank>
//!     Cost-model estimate of one uneven all-to-all at that scale.
//!
//! xmoe-cli analyze <experts> <topk> [tokens]
//!     Routing analytics for a random router: load balance, entropy,
//!     expert co-activation and realized combination count.
//!
//! xmoe-cli step <dense|pft|blocksparse|rbd> [ranks] [--overlap [chunks]]
//!               [--trace <path>] [--csv <path>]
//!     Run one live forward step of the chosen pipeline on the
//!     threads-as-ranks runtime and print the cross-rank stage report
//!     (min/mean/max/straggler per stage, sync-wait split out).
//!     `--overlap` (pft and rbd) pipelines the dispatch all-to-all against
//!     the expert compute in `chunks` pieces (default 4); the Chrome trace
//!     then shows separate comm/compute tracks per rank; on dense and
//!     blocksparse it exits 1 with the pipeline's "unsupported execution
//!     mode" error instead of running serial under an overlap header.
//!     `--trace` writes a Chrome trace-event JSON (open in Perfetto);
//!     `--csv` writes the raw per-rank spans.
//!
//! xmoe-cli step --pp <stages> [--vpp <chunks>] [--microbatches <m>]
//!     Run the (interleaved) 1F1B pipeline schedule live: one MoE layer
//!     per virtual stage on `<stages>` simulated ranks with uniform
//!     compute, checked bitwise against the unpipelined reference, then
//!     the measured bubble fraction against the analytic
//!     `(p-1)/(v·m+p-1)` ramp and the auto-mapping planner's priced view
//!     of the same fold. Illegal shapes (layers not splitting into
//!     `pp·vpp` stages, interleaved `m` not divisible by `pp`) exit 1
//!     with a diagnostic.
//!
//! xmoe-cli chaos [ranks] [--faults <spec>] [--ckpt-every N] [--steps N] [--seed S]
//!               [--guard] [--max-grad-norm X] [--rebalance <threshold>]
//!     Fault-injected distributed training with checkpoint/restore and
//!     elastic recovery. `<spec>` is a semicolon-separated fault schedule,
//!     e.g. `slow:rank=2,x=4,from=1,until=3;kill:rank=6,at=4`, and may
//!     include silent-data-corruption events such as
//!     `bitflip:rank=2,at=5,site=grad,bit=30` or
//!     `noise:rank=1,site=act,amp=0.5,from=3,until=5` (see
//!     `FaultPlan::parse`); a malformed spec prints which segment and key
//!     failed and exits 1. `join:rank=R,at=S` brings rank `R` (back)
//!     online at step `S`: the survivors rendezvous with the joiner,
//!     re-grow the communicator and scatter the live model state without
//!     touching disk. SDC events switch on the numerical guard
//!     (loss scaling with exact unscale before Adam, grad scan, spike
//!     detection, policy recovery); `--guard` forces it on for clean runs
//!     too, and `--max-grad-norm X` additionally clips the unscaled
//!     global grad norm to `X`. `--rebalance <threshold>` turns on
//!     histogram-driven live expert migration: when window skew
//!     (max-over-mean expert load) reaches the threshold and a priced
//!     candidate strictly improves dispatch, expert weights and Adam
//!     moments move mid-run. Prints the loss trajectory, the guard-event
//!     timeline (step, site, detector, policy action), every recovery
//!     (failed ranks, replayed steps, MTTR), joins, rebalances and the
//!     final world size.
//!
//! xmoe-cli serve [ranks] [--placement naive|optimized] [--arrival steady|bursty|diurnal]
//!               [--requests N] [--rate R] [--skew S] [--drift T] [--seed S]
//!     Deterministic inference-serving simulation of the Small model:
//!     continuous batching (prefill/decode, KV-ledger admission control,
//!     deadline-risk preemption) over the padding-free pipeline, pricing
//!     each step's dispatch/combine on the Frontier cost model. With
//!     `--placement optimized` the engine profiles per-expert routing
//!     histograms and re-solves expert→rank placement when the skew
//!     detector flags drift (`--drift T` moves the hot topics at T
//!     seconds). Prints latency percentiles, goodput, deadline misses,
//!     off-node traffic and placement-solve counts. Degenerate values
//!     (`--requests 0`, `--rate 0`, rank counts that do not divide the
//!     expert count) are config errors: a one-line diagnostic and exit 1,
//!     never a panic or a hang.
//!
//! xmoe-cli bench hotpath [--smoke] [--out <path>] [--validate <path>]
//!     Zero-allocation steady-state benchmark of the MoE hot path under a
//!     counting global allocator. Runs all four pipelines (dense, pft,
//!     blocksparse, rbd) on a reduced hot-path config and writes a
//!     self-validated `BENCH_hotpath.json` with, per record: tokens/s,
//!     steady-state allocations per step, the measured peak working set in
//!     bytes and the analytic activation bytes from `core::memory`. The
//!     pft record is a full pooled training step and is gated: zero
//!     allocs/step after warm-up and >= 1.2x over the owned-allocation
//!     baseline measured in the same run. `--validate` re-checks an
//!     existing file (schema + allocation-regression gate) and is what CI
//!     runs; `--smoke` shortens the timed loops.
//!
//! xmoe-cli bench mapping [--smoke] [--out <path>] [--validate <path>]
//!     Auto-mapping planner benchmark: enumerate every legal 4D folding
//!     (PP x virtual chunks, attention TP x DP, MoE EP x TP x DP) of a
//!     32-expert model over 16 clean-frontier GCDs, price each with the
//!     analytic cost + memory models, and write a self-validated
//!     `BENCH_mapping.json`. The gate requires >= 8 legal foldings
//!     including pipelined (pp > 1) and interleaved (vpp > 1) points,
//!     records sorted by step time, and a non-empty (step time, memory)
//!     Pareto frontier with memory non-increasing along it. `--smoke` is
//!     accepted for CI symmetry (the planner is analytic and already
//!     instant); `--validate` re-checks an existing file.
//!
//! xmoe-cli bench elastic [--smoke] [--out <path>] [--validate <path>]
//!     Elasticity benchmark. (1) Join MTTR: kill one of four ranks, let it
//!     rejoin mid-run through the grow rendezvous + live scatter, and
//!     report the incumbents' rendezvous time. (2) Live migration: bias
//!     two co-located experts hot, profile a skewed phase, commit the
//!     histogram-driven rebalance and run the same number of steps in the
//!     migrated layout. The written `BENCH_elastic.json` self-validates:
//!     full world restored with positive MTTR, rebalanced step time
//!     strictly below the skewed baseline, priced dispatch improved, and
//!     a nonzero migration transfer.
//! ```

use std::path::Path;
use std::time::Instant;

use xmoe::bench::report;
use xmoe::collectives::{trace, RankTrace, SimClock, SimCluster, StepReport};
use xmoe::core::analysis::{distinct_combinations, routing_report};
use xmoe::core::config::{DType, MoeModelConfig};
use xmoe::core::expert::ExpertShard;
use xmoe::core::gating::{DropPolicy, Router};
use xmoe::core::memory::{
    best_trainable_config, expert_replica_bytes, moe_layer_activation, total_per_gpu, MoeSystem,
    GIB,
};
use xmoe::core::perf::PerfModel;
use xmoe::core::pft::Pft;
use xmoe::core::pipeline::{
    bubble_fraction, rank_work, reference_forward, run_1f1b, BlockSparsePipeline, DenseDropOrder,
    DensePipeline, ExecCtx, MoeLayerSpec, PaddingFreePipeline, Pipeline, PipelineError,
    PooledSingleState, RbdPipeline, StageChunk,
};
use xmoe::core::plan::{plan_mappings, price_mapping, MappingPlan};
use xmoe::core::rbd::{expected_redundancy_uniform, PilotPolicy, RbdComms};
use xmoe::tensor::{CountingAlloc, DetRng, Tensor, Workspace};
use xmoe::topology::{
    AttnFold, ClusterTopology, CongestionModel, CostModel, FaultPlan, MachineSpec, MoeFold,
    ParallelMapping, RoutingHistogram,
};
use xmoe::train::{
    assignment_cost, build_moe_layers, run_chaos_rank, step_batch, ChaosConfig, DistMoeLm,
    GuardConfig, MoeTrainScratch, RebalanceConfig, RebalancePolicy, StagePartition, TrainConfig,
    TrainableMoe,
};

/// Counting allocator: the `bench hotpath` telemetry source. Forwards to the
/// system allocator with three relaxed atomics per call — negligible for the
/// other subcommands, and the library itself never pays it (only binaries
/// that opt in declare the `#[global_allocator]`).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn model_by_name(name: &str) -> Option<MoeModelConfig> {
    match name.to_ascii_lowercase().as_str() {
        "small" => Some(MoeModelConfig::small()),
        "medium" => Some(MoeModelConfig::medium()),
        "large" => Some(MoeModelConfig::large()),
        "super" => Some(MoeModelConfig::super_()),
        _ => None,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  xmoe-cli plan <small|medium|large|super> [gpus]\n  \
         xmoe-cli redundancy <experts> <topk> [gpus-per-node]\n  \
         xmoe-cli throughput <small|medium|large|super> <gpus>\n  \
         xmoe-cli alltoall <gpus> <mbytes-per-rank>\n  \
         xmoe-cli analyze <experts> <topk> [tokens]\n  \
         xmoe-cli step <dense|pft|blocksparse|rbd> [ranks] [--overlap [chunks]] [--trace <path>] [--csv <path>]\n  \
         \u{20}   (--overlap applies to pft and rbd; dense and blocksparse reject it)\n  \
         xmoe-cli step --pp <stages> [--vpp <chunks>] [--microbatches <m>]\n  \
         xmoe-cli chaos [ranks] [--faults <spec>] [--ckpt-every N] [--steps N] [--seed S] [--guard] [--max-grad-norm X] [--rebalance <threshold>]\n  \
         xmoe-cli serve [ranks] [--placement naive|optimized] [--arrival steady|bursty|diurnal] [--requests N] [--rate R] [--skew S] [--drift T] [--seed S]\n  \
         xmoe-cli bench hotpath [--smoke] [--out <path>] [--validate <path>]\n  \
         xmoe-cli bench mapping [--smoke] [--out <path>] [--validate <path>]\n  \
         xmoe-cli bench elastic [--smoke] [--out <path>] [--validate <path>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("plan") => cmd_plan(&args[1..]),
        Some("redundancy") => cmd_redundancy(&args[1..]),
        Some("throughput") => cmd_throughput(&args[1..]),
        Some("alltoall") => cmd_alltoall(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("step") => cmd_step(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        _ => usage(),
    }
}

fn cmd_chaos(args: &[String]) {
    let mut ranks = 4usize;
    let mut faults = String::new();
    let mut ckpt_every = 2u64;
    let mut steps = 8u64;
    let mut seed = 0u64;
    let mut force_guard = false;
    let mut max_grad_norm = 0.0f64;
    let mut rebalance_threshold: Option<f64> = None;
    let mut i = 0usize;
    while i < args.len() {
        let flag_val = |i: usize| {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--faults" => {
                faults = flag_val(i).to_string();
                i += 2;
            }
            "--ckpt-every" => {
                ckpt_every = flag_val(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--steps" => {
                steps = flag_val(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--seed" => {
                seed = flag_val(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--guard" => {
                force_guard = true;
                i += 1;
            }
            "--max-grad-norm" => {
                max_grad_norm = flag_val(i).parse().unwrap_or_else(|_| usage());
                force_guard = true;
                i += 2;
            }
            "--rebalance" => {
                rebalance_threshold = Some(flag_val(i).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            s => {
                ranks = s.parse().unwrap_or_else(|_| usage());
                i += 1;
            }
        }
    }
    // A malformed schedule is a config error (the message already names
    // the offending segment and key), not a usage error: exit 1.
    let plan = FaultPlan::parse(seed, &faults).unwrap_or_else(|e| {
        eprintln!("bad --faults spec: {e}");
        std::process::exit(1);
    });

    // Reduced-dimension training config; experts divide the rank count so
    // elastic recovery can re-shard onto survivors.
    let mut cfg = TrainConfig::fig15(DropPolicy::CapacityOnly);
    cfg.vocab = 64;
    cfg.hidden = 16;
    cfg.ffn = 8;
    cfg.num_experts = 2 * ranks;
    cfg.top_k = 2;
    cfg.layers = 2;
    cfg.seq_len = 12;
    cfg.batch = 2;
    cfg.capacity_factor = 1e6;
    cfg.seed = seed ^ 0xC805;
    let guard_on = force_guard || plan.has_sdc();
    let mut chaos = ChaosConfig::new(steps, ckpt_every);
    if guard_on {
        chaos = chaos.with_guard(GuardConfig {
            max_grad_norm,
            ..GuardConfig::default()
        });
    }
    if let Some(threshold) = rebalance_threshold {
        chaos = chaos.with_rebalance(RebalanceConfig {
            threshold,
            every: 4,
            ..RebalanceConfig::default()
        });
    }

    println!(
        "chaos run: {ranks} simulated Frontier ranks, {steps} steps, checkpoint every {} | \
         faults: {} | guard: {} | rebalance: {}",
        if ckpt_every == 0 {
            "never".to_string()
        } else {
            ckpt_every.to_string()
        },
        if faults.is_empty() { "none" } else { &faults },
        if guard_on { "on" } else { "off" },
        rebalance_threshold.map_or("off".to_string(), |t| format!("skew >= {t}"))
    );
    let outcomes = {
        let cfg = &cfg;
        let chaos = &chaos;
        SimCluster::frontier(ranks)
            .with_faults(plan)
            .run(move |ctx| (run_chaos_rank(cfg, chaos, ctx), ctx.clock.now()))
    };
    // A comm fault past the recovery policy's reach is an operational
    // outcome, not a bug: report it and exit nonzero instead of panicking.
    let mut reports = Vec::with_capacity(outcomes.len());
    for (rank, (outcome, now)) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(report) => reports.push((report, now)),
            Err(e) => {
                eprintln!("chaos run failed: rank {rank} hit an unrecoverable comm fault: {e}");
                std::process::exit(1);
            }
        }
    }

    let Some((survivor, end_time)) = reports.iter().find(|(r, _)| r.exited_at.is_none()) else {
        eprintln!("chaos run failed: every rank exited before the schedule completed");
        std::process::exit(1);
    };
    for (step, loss) in &survivor.losses {
        println!("  step {step:>3}  loss {loss:.6}");
    }
    for (r, _) in &reports {
        if let Some(at) = r.exited_at {
            println!("rank {} killed at step {at}", r.global_rank);
        }
    }
    if !survivor.guard_events.is_empty() {
        println!("guard events:");
        for ev in &survivor.guard_events {
            println!("  {}", ev.line());
        }
    }
    if guard_on {
        println!(
            "guard summary: {} trips | {} false positives | {} grad clips | final loss scale {}",
            survivor.guard_events.len(),
            survivor.guard_false_positives,
            survivor.grad_clips,
            survivor.final_loss_scale
        );
    }
    for rec in &survivor.recoveries {
        println!(
            "recovery: ranks {:?} died at step {} | resumed from {} ({} replayed) | \
             detect {:.2}ms restore {:.2}ms mttr {:.2}ms",
            rec.failed_ranks,
            rec.failed_at_step,
            rec.resumed_from_step,
            rec.steps_replayed,
            rec.detect_time * 1e3,
            rec.restore_time * 1e3,
            rec.mttr * 1e3
        );
    }
    for j in &survivor.joins {
        println!(
            "join: ranks {:?} came online at step {} | world {} | rendezvous {:.2}ms",
            j.joined_ranks,
            j.at_step,
            j.world_after,
            j.mttr * 1e3
        );
    }
    for d in &survivor.rebalances {
        println!(
            "rebalance: {} experts {:?} at step {} | dispatch {:.3}ms -> {:.3}ms | \
             transferred {} bytes",
            d.kind,
            d.moved_experts,
            d.step,
            d.dispatch_before * 1e3,
            d.dispatch_after * 1e3,
            d.migration_bytes
        );
    }
    println!(
        "final world {} of {ranks} | last checkpoint {} bytes | simulated time {:.2}ms",
        survivor.final_world,
        survivor.last_ckpt.as_ref().map_or(0, Vec::len),
        end_time * 1e3
    );
}

/// `xmoe-cli serve` — one deterministic serving simulation on the Small
/// model: continuous batching over the padding-free pipeline with
/// KV-ledger admission control, optionally re-solving expert placement
/// from live routing histograms.
fn cmd_serve(args: &[String]) {
    use xmoe::serve::{serve, ArrivalProcess, PlacementMode, ServeConfig, TrafficConfig};

    let mut ranks = 32usize;
    let mut placement = PlacementMode::Optimized;
    let mut arrival = ArrivalProcess::Steady;
    let mut requests = 200usize;
    let mut rate = 400.0f64;
    let mut skew = 8.0f64;
    let mut drift: Option<f64> = None;
    let mut seed = 42u64;
    let mut i = 0usize;
    if let Some(first) = args.first() {
        if let Ok(r) = first.parse::<usize>() {
            ranks = r;
            i = 1;
        }
    }
    while i < args.len() {
        let value = |j: usize| args.get(j).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--placement" => {
                placement = match value(i + 1).as_str() {
                    "naive" => PlacementMode::Naive,
                    "optimized" => PlacementMode::Optimized,
                    _ => usage(),
                };
                i += 2;
            }
            "--arrival" => {
                arrival = match value(i + 1).as_str() {
                    "steady" => ArrivalProcess::Steady,
                    "bursty" => ArrivalProcess::Bursty {
                        on_s: 0.05,
                        off_s: 0.3,
                        burst_mult: 10.0,
                    },
                    "diurnal" => ArrivalProcess::Diurnal {
                        period_s: 0.5,
                        amplitude: 0.8,
                    },
                    _ => usage(),
                };
                i += 2;
            }
            "--requests" => {
                requests = value(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--rate" => {
                rate = value(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--skew" => {
                skew = value(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--drift" => {
                drift = Some(value(i + 1).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--seed" => {
                seed = value(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            _ => usage(),
        }
    }

    let model = MoeModelConfig::small();
    let mut traffic = TrafficConfig::steady(rate, seed).with_arrival(arrival);
    if skew > 0.0 {
        traffic = traffic.with_skew(skew, 6);
    }
    if let Some(t) = drift {
        traffic = traffic.with_drift(t);
    }
    println!(
        "serve: {} on {ranks} simulated Frontier ranks | {} arrivals at {rate} req/s, \
         skew {skew} | {} placement | {requests} requests, seed {seed}",
        model.name,
        arrival.name(),
        placement.name()
    );
    // Degenerate flags (`--requests 0`, `--rate 0`, ranks that don't
    // divide the experts) come back as clean config errors, not panics.
    let rep = serve(
        ServeConfig::new(model, ranks, traffic)
            .with_requests(requests)
            .with_placement(placement),
    )
    .unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(1);
    });
    println!(
        "completed {}/{} ({} rejected, {} preemptions) in {:.3}s simulated, {} steps",
        rep.completed, rep.requests, rep.rejected, rep.preemptions, rep.duration_s, rep.steps
    );
    println!(
        "latency p50 {:.2}ms p99 {:.2}ms mean {:.2}ms | goodput {:.0} tok/s \
         (throughput {:.0}) | deadline miss {:.1}%",
        rep.p50_s * 1e3,
        rep.p99_s * 1e3,
        rep.mean_s * 1e3,
        rep.goodput_tps,
        rep.throughput_tps,
        100.0 * rep.deadline_miss_rate
    );
    println!(
        "routing skew {:.2} | off-node {:.1} MB | a2a time {:.1}ms | \
         {} placement solves, {} experts migrated",
        rep.skew,
        rep.off_node_bytes as f64 / 1e6,
        rep.dispatch_s * 1e3,
        rep.resolves,
        rep.migrated_experts
    );
    if !rep.ledger_ok {
        eprintln!("serve: KV-ledger cross-check FAILED — accounting bug");
        std::process::exit(1);
    }
    println!("kv ledger: every windowed cross-check passed");
}

fn cmd_step(args: &[String]) {
    // `--pp` switches from the single-layer pipelines to the 1F1B
    // pipeline-parallel driver (no pipeline-name positional there).
    if args.iter().any(|a| a == "--pp") {
        return cmd_step_pipeline(args);
    }
    let pipeline_name = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let mut ranks = 8usize;
    let mut trace_path: Option<&str> = None;
    let mut csv_path: Option<&str> = None;
    let mut overlap: Option<usize> = None;
    let mut i = 1usize;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => {
                trace_path = Some(
                    args.get(i + 1)
                        .map(String::as_str)
                        .unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            "--csv" => {
                csv_path = Some(
                    args.get(i + 1)
                        .map(String::as_str)
                        .unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            "--overlap" => {
                // Optional chunk count; defaults to 4 pipeline chunks.
                match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    Some(c) => {
                        overlap = Some(c);
                        i += 2;
                    }
                    None => {
                        overlap = Some(4);
                        i += 1;
                    }
                }
            }
            s => {
                ranks = s.parse().unwrap_or_else(|_| usage());
                i += 1;
            }
        }
    }
    // Reduced-dimension live step: experts divide the EP size; every rank
    // carries a different local batch.
    let (s, h, f) = (256usize, 64usize, 32usize);
    let e = ranks * 2;
    let k = 4usize.min(e);
    let router = Router::new(h, e, k, 0x57E9);
    let spec = MoeLayerSpec::new(e, 10_000);
    let name = pipeline_name.to_ascii_lowercase();
    let pipe: Box<dyn Pipeline + Sync> = match name.as_str() {
        "dense" => Box::new(DensePipeline {
            order: DenseDropOrder::TokenOrder,
        }),
        "pft" | "padding_free" => Box::new(PaddingFreePipeline),
        "blocksparse" | "block_sparse" => Box::new(BlockSparsePipeline { block: 128 }),
        "rbd" => Box::new(RbdPipeline {
            policy: PilotPolicy::Random,
        }),
        _ => usage(),
    };
    let per_rank: Vec<Result<RankTrace, PipelineError>> = {
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
            let mut ex = match &hier {
                Some(hier) => ExecCtx::hier(hier, &mut ctx.clock).with_rng(&mut rng),
                None => ExecCtx::ep(&ctx.world, &mut ctx.clock),
            };
            ex.overlap_chunks = overlap;
            pipe.forward(&tokens, router, &shard, spec, &mut ex)?;
            Ok(RankTrace::capture(
                ctx.rank,
                &mut ctx.clock,
                ctx.world.traffic(),
            ))
        })
    };
    let traces: Vec<RankTrace> = match per_rank.into_iter().collect() {
        Ok(traces) => traces,
        Err(e) => {
            eprintln!("step {name}: {e}");
            std::process::exit(1);
        }
    };
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
    if let Some(p) = trace_path {
        trace::write_chrome_trace(Path::new(p), &traces).expect("write trace file");
        println!("wrote Chrome trace to {p} (open at https://ui.perfetto.dev)");
    }
    if let Some(p) = csv_path {
        trace::write_spans_csv(Path::new(p), &traces).expect("write csv file");
        println!("wrote span CSV to {p}");
    }
}

/// `xmoe-cli step --pp`: the (interleaved) 1F1B schedule live on the
/// threads-as-ranks runtime — one reduced-dimension MoE layer per virtual
/// stage — checked bitwise against the unpipelined reference and compared
/// to the analytic bubble and the planner's priced view of the same fold.
fn cmd_step_pipeline(args: &[String]) {
    let mut pp = 2usize;
    let mut vpp = 1usize;
    let mut m = 8usize;
    let mut i = 0usize;
    while i < args.len() {
        let value = |j: usize| args.get(j).map(String::as_str).unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--pp" => {
                pp = value(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--vpp" => {
                vpp = value(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--microbatches" => {
                m = value(i + 1).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            _ => usage(),
        }
    }
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
}

fn cmd_plan(args: &[String]) {
    let cfg = args
        .first()
        .and_then(|n| model_by_name(n))
        .unwrap_or_else(|| usage());
    let gpus: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(256);
    let hbm = 64_000_000_000u64;
    println!(
        "{} ({:.1}B params, {:.1}B activated) on {gpus} Frontier GCDs:",
        cfg.name,
        cfg.total_params() as f64 / 1e9,
        cfg.activated_params() as f64 / 1e9
    );
    let pm = PerfModel::frontier(gpus);
    for sys in MoeSystem::ALL {
        match best_trainable_config(&cfg, gpus, sys, hbm) {
            Some(par) => {
                let mem = total_per_gpu(&cfg, &par, sys);
                let tf = pm
                    .best_throughput(&cfg, gpus, sys, 1024)
                    .map_or("-".into(), |r| format!("{:.1} TF/GPU", r.tflops_per_gpu));
                println!(
                    "  {:14} EP={:<3} TP={} ZeRO-{} SSMB={:<5} {:6.1} GiB/GPU  {tf}",
                    sys.name(),
                    par.ep,
                    par.tp,
                    par.zero_stage,
                    par.ssmb,
                    mem.total() as f64 / GIB
                );
            }
            None => println!("  {:14} OOM in every swept configuration", sys.name()),
        }
    }
}

fn cmd_redundancy(args: &[String]) {
    let experts: usize = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let topk: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let gpn: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    println!("redundancy for E={experts}, k={topk}, {gpn} GPUs/node (uniform routing):");
    println!("{:>8} {:>7} {:>12}", "EP size", "nodes", "redundancy");
    let mut ep = gpn;
    while ep <= experts.max(gpn) && ep <= 1024 {
        let nodes = ep.div_ceil(gpn);
        let r = expected_redundancy_uniform(topk, nodes);
        println!("{ep:>8} {nodes:>7} {:>11.1}%", 100.0 * r);
        ep *= 2;
    }
}

fn cmd_throughput(args: &[String]) {
    let cfg = args
        .first()
        .and_then(|n| model_by_name(n))
        .unwrap_or_else(|| usage());
    let gpus: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let pm = PerfModel::frontier(gpus);
    println!("{} on {gpus} Frontier GCDs (global batch 1024):", cfg.name);
    for sys in MoeSystem::ALL {
        match pm.best_throughput(&cfg, gpus, sys, 1024) {
            Some(r) => println!(
                "  {:14} {:6.1} TF/GPU  ({:.2} PF aggregate, step {:.2} s)",
                sys.name(),
                r.tflops_per_gpu,
                r.aggregate_pflops,
                r.step_time
            ),
            None => println!("  {:14} OOM", sys.name()),
        }
    }
}

fn cmd_alltoall(args: &[String]) {
    let gpus: usize = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let mb: f64 = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let topo = ClusterTopology::new(MachineSpec::frontier(), gpus);
    let cost = CostModel::new(topo);
    let group: Vec<usize> = (0..gpus).collect();
    let per_pair = ((mb * 1e6) / gpus as f64) as u64;
    let t = cost.alltoall_even_time(&group, per_pair);
    println!(
        "even all-to-all over {gpus} GCDs, {mb} MB/rank: {:.2} ms (expected, incl. congestion at this scale)",
        t * 1e3
    );
}

fn cmd_analyze(args: &[String]) {
    let experts: usize = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let topk: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let tokens: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2048);
    let router = Router::new(64, experts, topk, 0xA11CE);
    let batch = Tensor::rand_uniform(tokens, 64, 1.0, 0xB0B);
    let capacity = ((1.25 * (tokens * topk) as f64) / experts as f64).ceil() as usize;
    let pft = Pft::construct(
        &router.gate(&batch),
        experts,
        capacity,
        DropPolicy::CapacityOnly,
    );
    let r = routing_report(&pft);
    println!("routing analytics (random router, E={experts}, k={topk}, {tokens} tokens, c=1.25):");
    println!("  routed entries   : {} ({} dropped)", r.routed, r.dropped);
    println!("  load imbalance   : {:.3} (max/mean)", r.load_imbalance);
    println!(
        "  load entropy     : {:.3} nats (uniform = {:.3})",
        r.load_entropy,
        (experts as f64).ln()
    );
    println!("  idle experts     : {:.1}%", 100.0 * r.idle_fraction);
    println!("  mean gate weight : {:.4}", r.mean_weight);
    println!(
        "  expert combos    : {} realized of C({experts},{topk}) possible",
        distinct_combinations(&pft)
    );
}

// ---------------------------------------------------------------------------
// bench hotpath — zero-allocation steady state + memory telemetry
// ---------------------------------------------------------------------------

/// Hot-path config: small enough that every kernel stays below its
/// parallelism cutoff (the serial schedule — the persistent worker pool in
/// `xmoe_tensor::par` never allocates after startup, but keeping these
/// records serial isolates the arena accounting from scheduling), large
/// enough that all experts stay populated. `b = k*s = 128` routed rows.
/// The `grouped` record is the deliberate exception: it sits *above* the
/// cutoff so the pool's grouped expert GEMM is what gets measured.
const HOT_S: usize = 32;
const HOT_H: usize = 8;
const HOT_F: usize = 4;
const HOT_E: usize = 8;
const HOT_K: usize = 2;

/// Measured-over-analytic bound for the pooled PFT *training* record.
/// `memory::moe_layer_activation` counts the four forward activation buffers
/// of one X-MoE layer (dispatch, combine, intermediate, mask metadata); the
/// measured steady-state working set additionally retains the backward
/// staging mirrors (`d_y`, `d_dispatch`, `d_h`), the router state (logits,
/// scores, top-k arrays, their gradients), gradient-staging temporaries
/// (`dW1`/`dW2`/`dGate`, `x^T`) and malloc size-class rounding — roughly a
/// 3x multiple of the forward-only analytic figure. Anything past this bound
/// means a buffer joined the steady state that the model knows nothing
/// about. (Distinct from `memory::ALLOCATOR_SLACK`, which models GPU-side
/// caching-allocator fragmentation on top of the same analytic accounting.)
const HOTPATH_TRAIN_SLACK: f64 = 4.0;

/// The analytic activation bytes for the hot-path config under the given
/// system's accounting, fp32 (the tensor library's element type).
fn hot_analytic_bytes(sys: MoeSystem) -> u64 {
    let mut cfg = MoeModelConfig::custom("hotpath", HOT_S, HOT_H, HOT_F, HOT_E, HOT_K, 1);
    cfg.dtype = DType::F32;
    moe_layer_activation(&cfg, sys, HOT_S, 1).total()
}

fn hot_inputs(n: usize, seed: u64) -> Vec<Tensor> {
    (0..n)
        .map(|i| Tensor::rand_uniform(HOT_S, HOT_H, 1.0, seed + i as u64))
        .collect()
}

/// PASS/DEVIATION line mirroring `bench`'s `shape_check`; folds into the
/// process exit code instead of exiting on first failure.
fn hot_check(claim: &str, ok: bool, detail: &str, all_ok: &mut bool) {
    println!(
        "{} {claim} — {detail}",
        if ok { "PASS     " } else { "DEVIATION" }
    );
    *all_ok &= ok;
}

struct HotRecord {
    pipeline: &'static str,
    /// Per-record shape (the grouped record uses wider dims than HOT_*).
    seq: usize,
    hidden: usize,
    ffn: usize,
    experts: usize,
    top_k: usize,
    ranks: usize,
    steps: usize,
    tokens_per_s: f64,
    allocs_per_step: f64,
    peak_bytes: usize,
    analytic_bytes: u64,
    /// 0.0 = record has no unpooled baseline (dense only: its padded slab
    /// is allocation-heavy by design, so there is nothing to compare).
    unpooled_tokens_per_s: f64,
    speedup: f64,
    /// Whether this record's speedup bound was enforced (the grouped
    /// record's >= 1.3x gate needs >= 2 pool lanes on >= 2 cores).
    gate_active: bool,
}

/// The PFT record: a full pooled training step (zero_grads + forward +
/// backward) vs the owned-allocation baseline, same weights, same inputs,
/// same run. This is the record the CI gate reads: steady-state allocs per
/// step must be exactly zero.
fn bench_hot_pft(smoke: bool, all_ok: &mut bool) -> HotRecord {
    let time_steps = if smoke { 80 } else { 800 };
    let (count_steps, warm) = (32, 12);
    let mut pooled = TrainableMoe::new(
        HOT_H,
        HOT_F,
        HOT_E,
        HOT_K,
        10_000,
        DropPolicy::CapacityOnly,
        0xBE7A,
    );
    let mut owned = TrainableMoe::new(
        HOT_H,
        HOT_F,
        HOT_E,
        HOT_K,
        10_000,
        DropPolicy::CapacityOnly,
        0xBE7A,
    );
    let inputs = hot_inputs(4, 0xD00D);
    let d_out = Tensor::rand_uniform(HOT_S, HOT_H, 1.0, 0xD0E0);
    let pooled_step = |layer: &mut TrainableMoe, st: &mut MoeTrainScratch, i: usize| {
        layer.zero_grads();
        let out = layer.forward_pooled(&inputs[i % inputs.len()], st);
        let d_x = layer.backward_pooled(st, &d_out);
        st.ws.recycle(d_x);
        st.ws.recycle(out);
    };

    // Retained-state baseline *before* the scratch exists, so the live-bytes
    // delta after warm-up is exactly the steady-state working set.
    let live0 = ALLOC.stats().live_bytes;
    let mut st = MoeTrainScratch::default();
    for i in 0..warm {
        pooled_step(&mut pooled, &mut st, i);
    }
    ALLOC.reset_peak();
    let a0 = ALLOC.stats().allocs;
    for i in 0..count_steps {
        pooled_step(&mut pooled, &mut st, i);
    }
    let stats = ALLOC.stats();
    let allocs_per_step = (stats.allocs - a0) as f64 / count_steps as f64;
    let peak = stats.peak_bytes.saturating_sub(live0);

    // Interleaved min-of-3 timing passes damp one-sided OS noise.
    let (mut t_pool, mut t_own) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let t0 = Instant::now();
        for i in 0..time_steps {
            pooled_step(&mut pooled, &mut st, i);
        }
        t_pool = t_pool.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for i in 0..time_steps {
            owned.zero_grads();
            let (out, ctx) = owned.forward(&inputs[i % inputs.len()]);
            let _ = owned.backward_scaled(&ctx, &d_out, 1.0);
            drop(out);
        }
        t_own = t_own.min(t0.elapsed().as_secs_f64());
    }
    let tokens_per_s = (HOT_S * time_steps) as f64 / t_pool;
    let unpooled_tokens_per_s = (HOT_S * time_steps) as f64 / t_own;
    let speedup = tokens_per_s / unpooled_tokens_per_s;
    let analytic = hot_analytic_bytes(MoeSystem::XMoe);
    let ratio = peak as f64 / analytic as f64;

    hot_check(
        "pft pooled training step is allocation-free at steady state",
        allocs_per_step == 0.0,
        &format!("{allocs_per_step:.2} allocs/step after warm-up"),
        all_ok,
    );
    hot_check(
        "pft pooled step beats the owned-allocation baseline by >= 1.2x",
        speedup >= 1.2,
        &format!("{speedup:.2}x ({tokens_per_s:.0} vs {unpooled_tokens_per_s:.0} tokens/s)"),
        all_ok,
    );
    hot_check(
        "pft measured working set within the analytic training slack",
        (1.0..=HOTPATH_TRAIN_SLACK).contains(&ratio),
        &format!("measured {peak} B / analytic {analytic} B = {ratio:.2}x (bound {HOTPATH_TRAIN_SLACK:.1}x)"),
        all_ok,
    );
    HotRecord {
        pipeline: "pft",
        seq: HOT_S,
        hidden: HOT_H,
        ffn: HOT_F,
        experts: HOT_E,
        top_k: HOT_K,
        ranks: 1,
        steps: time_steps,
        tokens_per_s,
        allocs_per_step,
        peak_bytes: peak,
        analytic_bytes: analytic,
        unpooled_tokens_per_s,
        speedup,
        gate_active: true,
    }
}

/// The dense (DeepSpeed-MoE-style padded slab) baseline forward. Allocates
/// its `E x C` slab fresh every step by design — recorded, not gated; its
/// measured-vs-analytic ratio shows the padding waste the PFT path removes.
fn bench_hot_dense(smoke: bool, _all_ok: &mut bool) -> HotRecord {
    let time_steps = if smoke { 80 } else { 800 };
    let (count_steps, warm) = (32, 4);
    let router = Router::new(HOT_H, HOT_E, HOT_K, 0xDE53);
    let capacity = (1.25 * (HOT_S * HOT_K) as f64 / HOT_E as f64).ceil() as usize;
    let spec = MoeLayerSpec::new(HOT_E, capacity);
    let experts = ExpertShard::for_rank(0, 1, HOT_E, HOT_H, HOT_F, 0xDE54);
    let inputs = hot_inputs(4, 0xDE55);
    let dense = DensePipeline {
        order: DenseDropOrder::TokenOrder,
    };
    let step = |i: usize| {
        let x = &inputs[i % inputs.len()];
        let _ = dense.forward(x, &router, &experts, &spec, &mut ExecCtx::single());
    };

    let live0 = ALLOC.stats().live_bytes;
    for i in 0..warm {
        step(i);
    }
    ALLOC.reset_peak();
    let a0 = ALLOC.stats().allocs;
    for i in 0..count_steps {
        step(i);
    }
    let stats = ALLOC.stats();
    let allocs_per_step = (stats.allocs - a0) as f64 / count_steps as f64;
    let peak = stats.peak_bytes.saturating_sub(live0);
    let mut t_best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        for i in 0..time_steps {
            step(i);
        }
        t_best = t_best.min(t0.elapsed().as_secs_f64());
    }
    HotRecord {
        pipeline: "dense",
        seq: HOT_S,
        hidden: HOT_H,
        ffn: HOT_F,
        experts: HOT_E,
        top_k: HOT_K,
        ranks: 1,
        steps: time_steps,
        tokens_per_s: (HOT_S * time_steps) as f64 / t_best,
        allocs_per_step,
        peak_bytes: peak,
        analytic_bytes: hot_analytic_bytes(MoeSystem::DsMoe),
        unpooled_tokens_per_s: 0.0,
        speedup: 0.0,
        gate_active: false,
    }
}

/// The block-sparse forward through the shared pooled single-rank state:
/// also allocation-free once the block-padded capacities reach their fixed
/// point, checked here and recorded.
fn bench_hot_blocksparse(smoke: bool, all_ok: &mut bool) -> HotRecord {
    let time_steps = if smoke { 80 } else { 800 };
    let (count_steps, warm, block) = (32, 12, 4);
    let router = Router::new(HOT_H, HOT_E, HOT_K, 0xB10C);
    let spec = MoeLayerSpec::new(HOT_E, 10_000);
    let experts = ExpertShard::for_rank(0, 1, HOT_E, HOT_H, HOT_F, 0xB10D);
    let inputs = hot_inputs(4, 0xB10E);

    let live0 = ALLOC.stats().live_bytes;
    let mut state = PooledSingleState::default();
    let pipe = BlockSparsePipeline { block };
    let step = |state: &mut PooledSingleState, i: usize| {
        let x = &inputs[i % inputs.len()];
        let out = pipe
            .forward(x, &router, &experts, &spec, &mut ExecCtx::pooled(state))
            .expect("single-rank blocksparse forward");
        state.ws.recycle(out);
    };
    for i in 0..warm {
        step(&mut state, i);
    }
    ALLOC.reset_peak();
    let a0 = ALLOC.stats().allocs;
    for i in 0..count_steps {
        step(&mut state, i);
    }
    let stats = ALLOC.stats();
    let allocs_per_step = (stats.allocs - a0) as f64 / count_steps as f64;
    let peak = stats.peak_bytes.saturating_sub(live0);
    // Interleaved pooled-vs-owned passes (owned = the same engine against a
    // fresh state per call, paying every allocation again).
    let (mut t_pool, mut t_own) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        let t0 = Instant::now();
        for i in 0..time_steps {
            step(&mut state, i);
        }
        t_pool = t_pool.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for i in 0..time_steps {
            let x = &inputs[i % inputs.len()];
            let _ = pipe.forward(x, &router, &experts, &spec, &mut ExecCtx::single());
        }
        t_own = t_own.min(t0.elapsed().as_secs_f64());
    }
    hot_check(
        "blocksparse pooled forward is allocation-free at steady state",
        allocs_per_step == 0.0,
        &format!("{allocs_per_step:.2} allocs/step after warm-up"),
        all_ok,
    );
    let tokens_per_s = (HOT_S * time_steps) as f64 / t_pool;
    let unpooled_tokens_per_s = (HOT_S * time_steps) as f64 / t_own;
    HotRecord {
        pipeline: "blocksparse",
        seq: HOT_S,
        hidden: HOT_H,
        ffn: HOT_F,
        experts: HOT_E,
        top_k: HOT_K,
        ranks: 1,
        steps: time_steps,
        tokens_per_s,
        allocs_per_step,
        peak_bytes: peak,
        analytic_bytes: hot_analytic_bytes(MoeSystem::XMoe),
        unpooled_tokens_per_s,
        speedup: tokens_per_s / unpooled_tokens_per_s,
        gate_active: false,
    }
}

/// The distributed RBD forward on the threads-as-ranks runtime, pooled vs
/// the owned-allocation baseline (the unified engine run against a fresh
/// state every call). Each simulated rank is one thread, so the counted
/// window reads `thread_tracked_allocs` — exactly that rank's hot-path
/// heap traffic, with no fences and no noise from sibling threads on the
/// process-wide counter; the record keeps the worst rank. The rng seed
/// cycle recurs (period 4) so every leased capacity reaches its fixed
/// point during warm-up; like the pft record, this one is gated: zero
/// steady-state allocs/step and >= 1.2x pooled speedup.
fn bench_hot_rbd(smoke: bool, all_ok: &mut bool) -> HotRecord {
    let time_steps = if smoke { 16 } else { 128 };
    let (count_steps, warm) = (16usize, 16usize);
    let ranks = 4usize;
    let router = Router::new(HOT_H, HOT_E, HOT_K, 0x4BD0);
    let spec = MoeLayerSpec::new(HOT_E, 10_000);
    let live0 = ALLOC.stats().live_bytes;
    ALLOC.reset_peak();
    let per_rank: Vec<Result<(f64, f64, u64), String>> = {
        let router = &router;
        let spec = &spec;
        SimCluster::frontier(ranks).run(move |ctx| {
            let shard = ExpertShard::for_rank(ctx.rank, ranks, HOT_E, HOT_H, HOT_F, 0x4BD1);
            let comms = RbdComms::create(&ctx.world, &mut ctx.clock).map_err(|e| e.to_string())?;
            let tokens = Tensor::rand_uniform(HOT_S, HOT_H, 1.0, 0x4BD2 + ctx.rank as u64);
            let mut state = PooledSingleState::default();
            let rank = ctx.rank;
            let pipe = RbdPipeline {
                policy: PilotPolicy::Random,
            };
            // One forward; `state = None` is the owned baseline.
            let forward =
                |step: usize, clock: &mut SimClock, state: Option<&mut PooledSingleState>| {
                    let mut rng = DetRng::new(0x4BD3 + ((step % 4) * ranks + rank) as u64);
                    let mut ex = ExecCtx::hier(&comms, clock).with_rng(&mut rng);
                    ex.state = state;
                    pipe.forward(&tokens, router, &shard, spec, &mut ex)
                        .map_err(|e| e.to_string())
                };
            for step in 0..warm {
                let out = forward(step, &mut ctx.clock, Some(&mut state))?;
                state.ws.recycle(out);
            }
            // Per-rank allocation window: this thread's tracked allocs only.
            let a0 = xmoe::tensor::thread_tracked_allocs();
            for step in 0..count_steps {
                let out = forward(step, &mut ctx.clock, Some(&mut state))?;
                state.ws.recycle(out);
            }
            let counted = xmoe::tensor::thread_tracked_allocs() - a0;
            // Interleaved barrier-fenced timing passes, min per arm.
            let (mut t_pool, mut t_own) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..2 {
                ctx.world
                    .barrier(&mut ctx.clock)
                    .map_err(|e| e.to_string())?;
                let t0 = Instant::now();
                for step in 0..time_steps {
                    let out = forward(step, &mut ctx.clock, Some(&mut state))?;
                    state.ws.recycle(out);
                }
                ctx.world
                    .barrier(&mut ctx.clock)
                    .map_err(|e| e.to_string())?;
                t_pool = t_pool.min(t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                for step in 0..time_steps {
                    let _ = forward(step, &mut ctx.clock, None)?;
                }
                ctx.world
                    .barrier(&mut ctx.clock)
                    .map_err(|e| e.to_string())?;
                t_own = t_own.min(t0.elapsed().as_secs_f64());
            }
            Ok((t_pool, t_own, counted))
        })
    };
    let stats = ALLOC.stats();
    let (mut t_pool, mut t_own, mut counted) = (0.0f64, 0.0f64, 0u64);
    let mut failed = false;
    for (rank, res) in per_rank.iter().enumerate() {
        match res {
            // Barrier fences make every rank's elapsed ≈ the cluster's;
            // take the max (the straggler defines wall-clock). The alloc
            // count likewise keeps the worst rank.
            Ok((tp, to, c)) => {
                t_pool = t_pool.max(*tp);
                t_own = t_own.max(*to);
                counted = counted.max(*c);
            }
            Err(e) => {
                hot_check(
                    "rbd forward step completed on every rank",
                    false,
                    &format!("rank {rank}: {e}"),
                    all_ok,
                );
                failed = true;
            }
        }
    }
    if failed {
        // Dead record: keeps the JSON schema intact while the DEVIATION
        // above fails the run.
        return HotRecord {
            pipeline: "rbd",
            seq: HOT_S,
            hidden: HOT_H,
            ffn: HOT_F,
            experts: HOT_E,
            top_k: HOT_K,
            ranks,
            steps: time_steps,
            tokens_per_s: f64::NAN,
            allocs_per_step: f64::NAN,
            peak_bytes: 0,
            analytic_bytes: hot_analytic_bytes(MoeSystem::XMoe) * ranks as u64,
            unpooled_tokens_per_s: 0.0,
            speedup: 0.0,
            gate_active: true,
        };
    }
    let allocs_per_step = counted as f64 / count_steps as f64;
    let tokens_per_s = (ranks * HOT_S * time_steps) as f64 / t_pool;
    let unpooled_tokens_per_s = (ranks * HOT_S * time_steps) as f64 / t_own;
    let speedup = tokens_per_s / unpooled_tokens_per_s;
    hot_check(
        "rbd pooled forward is allocation-free at steady state",
        allocs_per_step == 0.0,
        &format!("{allocs_per_step:.2} allocs/step after warm-up (worst rank)"),
        all_ok,
    );
    hot_check(
        "rbd pooled step beats the owned-allocation baseline by >= 1.2x",
        speedup >= 1.2,
        &format!("{speedup:.2}x ({tokens_per_s:.0} vs {unpooled_tokens_per_s:.0} tokens/s)"),
        all_ok,
    );
    HotRecord {
        pipeline: "rbd",
        seq: HOT_S,
        hidden: HOT_H,
        ffn: HOT_F,
        experts: HOT_E,
        top_k: HOT_K,
        ranks,
        steps: time_steps,
        tokens_per_s,
        allocs_per_step,
        peak_bytes: stats.peak_bytes.saturating_sub(live0),
        analytic_bytes: hot_analytic_bytes(MoeSystem::XMoe) * ranks as u64,
        unpooled_tokens_per_s,
        speedup,
        gate_active: true,
    }
}

/// Grouped-GEMM shape: many small experts at fine-grained-FFN widths, the
/// shape the persistent pool's expert-level scheduling targets. Both grouped
/// batches sit well above the 64^3 parallel cutoff (~496 rows x 64 -> 128).
const GRP_E: usize = 32;
const GRP_H: usize = 64;
const GRP_F: usize = 128;
const GRP_RPE: usize = 16;

/// The grouped record: the whole-shard forward (`forward_segments_pooled`,
/// two grouped GEMM batches on the persistent pool) against the
/// back-to-back per-expert loop on the same weights and segments. The 1.3x
/// tokens/s gate binds only when real concurrency exists (at least 2 pool
/// lanes on 2+ hardware threads); with one lane the grouped path *is* the
/// sequential loop, and oversubscribed lanes cannot beat one core. Either
/// way the record lands in `BENCH_hotpath.json` (`gate_active` says whether
/// the bound was enforced) and the steady state must stay allocation-free.
fn bench_hot_grouped(smoke: bool, all_ok: &mut bool) -> HotRecord {
    let time_steps = if smoke { 40 } else { 200 };
    let (count_steps, warm) = (8usize, 6usize);
    // Ragged segments (±1 around rows-per-expert), like router output.
    let counts: Vec<usize> = (0..GRP_E).map(|e| GRP_RPE - 1 + (e % 3)).collect();
    let total: usize = counts.iter().sum();
    let shard = ExpertShard::full(GRP_E, GRP_H, GRP_F, 0x6E60);
    let input = Tensor::rand_uniform(total, GRP_H, 1.0, 0x6E61);

    let live0 = ALLOC.stats().live_bytes;
    let mut ws = Workspace::new();
    let grouped_step = |ws: &mut Workspace| {
        let y = shard.forward_segments_pooled(&input, &counts, ws);
        ws.recycle(y);
    };
    let seq_step = || {
        let mut off = 0usize;
        for (e, &cnt) in counts.iter().enumerate() {
            let y = shard.experts[e].forward(&input.slice_rows(off, off + cnt));
            off += cnt;
            drop(y);
        }
    };
    for _ in 0..warm {
        grouped_step(&mut ws);
    }
    ALLOC.reset_peak();
    let a0 = ALLOC.stats().allocs;
    for _ in 0..count_steps {
        grouped_step(&mut ws);
    }
    let stats = ALLOC.stats();
    let allocs_per_step = (stats.allocs - a0) as f64 / count_steps as f64;
    let peak = stats.peak_bytes.saturating_sub(live0);

    let (mut t_grp, mut t_seq) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..time_steps {
            grouped_step(&mut ws);
        }
        t_grp = t_grp.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for _ in 0..time_steps {
            seq_step();
        }
        t_seq = t_seq.min(t0.elapsed().as_secs_f64());
    }
    let tokens_per_s = (total * time_steps) as f64 / t_grp;
    let unpooled_tokens_per_s = (total * time_steps) as f64 / t_seq;
    let speedup = tokens_per_s / unpooled_tokens_per_s;

    hot_check(
        "grouped pooled shard forward is allocation-free at steady state",
        allocs_per_step == 0.0,
        &format!("{allocs_per_step:.2} allocs/step after warm-up (pool engaged)"),
        all_ok,
    );
    let lanes = xmoe::tensor::pool_size();
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gate_active = lanes >= 2 && hw >= 2;
    if gate_active {
        hot_check(
            "grouped GEMM beats the sequential per-expert loop by >= 1.3x",
            speedup >= 1.3,
            &format!(
                "{speedup:.2}x ({tokens_per_s:.0} vs {unpooled_tokens_per_s:.0} tokens/s, \
                 {lanes} lanes on {hw} cores)"
            ),
            all_ok,
        );
    } else {
        println!(
            "SKIP      grouped >= 1.3x gate — needs >= 2 pool lanes on >= 2 cores \
             (have {lanes} lane(s), {hw} core(s)); measured {speedup:.2}x, recorded ungated"
        );
    }
    let analytic = {
        let mut cfg = MoeModelConfig::custom("grouped", total, GRP_H, GRP_F, GRP_E, 1, 1);
        cfg.dtype = DType::F32;
        moe_layer_activation(&cfg, MoeSystem::XMoe, total, 1).total()
    };
    HotRecord {
        pipeline: "grouped",
        seq: total,
        hidden: GRP_H,
        ffn: GRP_F,
        experts: GRP_E,
        top_k: 1,
        ranks: 1,
        steps: time_steps,
        tokens_per_s,
        allocs_per_step,
        peak_bytes: peak,
        analytic_bytes: analytic,
        unpooled_tokens_per_s,
        speedup,
        gate_active,
    }
}

fn render_hotpath_json(recs: &[HotRecord]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in recs.iter().enumerate() {
        s.push_str("  {\n");
        s.push_str(&format!(
            "    \"config\": {{\"pipeline\": \"{}\", \"seq\": {}, \"hidden\": {}, \
             \"ffn\": {}, \"experts\": {}, \"top_k\": {}, \"ranks\": {}, \
             \"steps\": {}, {}}},\n",
            report::json_safe(r.pipeline),
            r.seq,
            r.hidden,
            r.ffn,
            r.experts,
            r.top_k,
            r.ranks,
            r.steps,
            report::worker_fields()
        ));
        s.push_str(&format!("    \"gate_active\": {},\n", r.gate_active as u8));
        s.push_str(&format!("    \"tokens_per_s\": {:.3},\n", r.tokens_per_s));
        s.push_str(&format!(
            "    \"steady_state_allocs_per_step\": {:.3},\n",
            r.allocs_per_step
        ));
        s.push_str(&format!("    \"peak_bytes\": {},\n", r.peak_bytes));
        if r.speedup > 0.0 {
            s.push_str(&format!(
                "    \"unpooled_tokens_per_s\": {:.3},\n    \"speedup\": {:.4},\n",
                r.unpooled_tokens_per_s, r.speedup
            ));
        }
        s.push_str(&format!("    \"analytic_bytes\": {}\n", r.analytic_bytes));
        s.push_str(if i + 1 == recs.len() {
            "  }\n"
        } else {
            "  },\n"
        });
    }
    s.push_str("]\n");
    s
}

/// Structural + semantic validation of a `BENCH_hotpath.json`. This is the
/// CI allocation-regression gate: the PFT record must report exactly zero
/// steady-state allocations per training step and a pooled speedup >= 1x,
/// the RBD record likewise zero allocs/step across the whole cluster and a
/// pooled speedup >= 1.2x, and the grouped record zero allocs/step with a
/// 1.3x-or-better grouped-over-sequential speedup whenever its gate was
/// active (2+ pool lanes on 2+ cores when the file was written). Every
/// config block must stamp the worker thread count it was measured under.
fn validate_hotpath(text: &str) -> Result<usize, String> {
    let objs = report::split_records(text)?;
    let mut seen: Vec<&str> = Vec::new();
    for obj in &objs {
        if !obj.contains("\"config\"") || !obj.contains("\"pipeline\"") {
            return Err("record lacks a config.pipeline tag".into());
        }
        let threads = report::positive_scalar(obj, "worker_threads")?;
        if threads.fract() != 0.0 || threads > 64.0 {
            return Err(format!(
                "worker_threads {threads} is not an integer in 1..=64"
            ));
        }
        report::positive_scalar(obj, "tokens_per_s")?;
        let allocs = report::scalar(obj, "steady_state_allocs_per_step")?;
        if !allocs.is_finite() || allocs < 0.0 {
            return Err(format!("steady_state_allocs_per_step {allocs} invalid"));
        }
        report::positive_scalar(obj, "peak_bytes")?;
        report::positive_scalar(obj, "analytic_bytes")?;
        for name in ["dense", "pft", "blocksparse", "rbd", "grouped"] {
            if obj.contains(&format!("\"pipeline\": \"{name}\"")) {
                seen.push(name);
            }
        }
        if obj.contains("\"pipeline\": \"grouped\"") {
            if allocs != 0.0 {
                return Err(format!(
                    "allocation regression: grouped pooled forward reports {allocs} \
                     steady-state allocs/step (must be exactly 0)"
                ));
            }
            let speedup = report::scalar(obj, "speedup")?;
            let gated = report::scalar(obj, "gate_active")? != 0.0;
            if gated && (!speedup.is_finite() || speedup < 1.3) {
                return Err(format!(
                    "grouped-GEMM regression: speedup {speedup:.3} < 1.3 with the gate active"
                ));
            }
            if !speedup.is_finite() || speedup <= 0.0 {
                return Err(format!("grouped speedup {speedup:.3} not positive"));
            }
        }
        if obj.contains("\"pipeline\": \"pft\"") {
            if allocs != 0.0 {
                return Err(format!(
                    "allocation regression: pft training step reports {allocs} \
                     steady-state allocs/step (must be exactly 0)"
                ));
            }
            let speedup = report::scalar(obj, "speedup")?;
            if !speedup.is_finite() || speedup < 1.0 {
                return Err(format!("pft pooled speedup {speedup:.3} < 1.0"));
            }
        }
        if obj.contains("\"pipeline\": \"rbd\"") {
            if allocs != 0.0 {
                return Err(format!(
                    "allocation regression: rbd pooled forward reports {allocs} \
                     steady-state allocs/step across the cluster (must be exactly 0)"
                ));
            }
            let speedup = report::scalar(obj, "speedup")?;
            if !speedup.is_finite() || speedup < 1.2 {
                return Err(format!("rbd pooled speedup {speedup:.3} < 1.2"));
            }
        }
    }
    for required in ["dense", "pft", "blocksparse", "rbd", "grouped"] {
        if !seen.contains(&required) {
            return Err(format!("missing pipeline record: {required}"));
        }
    }
    Ok(objs.len())
}

fn cmd_bench(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("hotpath") => cmd_bench_hotpath(&args[1..]),
        Some("mapping") => cmd_bench_mapping(&args[1..]),
        Some("elastic") => cmd_bench_elastic(&args[1..]),
        _ => usage(),
    }
}

fn cmd_bench_hotpath(args: &[String]) {
    let mut smoke = false;
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut validate_only: Option<String> = None;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--out" => {
                out_path = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            "--validate" => {
                validate_only = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            _ => usage(),
        }
    }
    if let Some(p) = validate_only {
        let text = std::fs::read_to_string(&p).unwrap_or_else(|e| {
            eprintln!("{p}: INVALID — read failed: {e}");
            std::process::exit(1);
        });
        match validate_hotpath(&text) {
            Ok(n) => println!("{p}: {n} records, schema + allocation gate OK"),
            Err(e) => {
                eprintln!("{p}: INVALID — {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!(
        "== bench hotpath — zero-allocation steady state (s={HOT_S} h={HOT_H} f={HOT_F} \
         e={HOT_E} k={HOT_K}{}) ==",
        if smoke { ", smoke" } else { "" }
    );
    println!(
        "worker pool: {} lane(s) ({})",
        xmoe::tensor::pool_size(),
        match std::env::var("XMOE_THREADS") {
            Ok(v) => format!("XMOE_THREADS={v}"),
            Err(_) => "default".into(),
        }
    );
    let mut all_ok = true;
    let records = vec![
        bench_hot_pft(smoke, &mut all_ok),
        bench_hot_dense(smoke, &mut all_ok),
        bench_hot_blocksparse(smoke, &mut all_ok),
        bench_hot_rbd(smoke, &mut all_ok),
        bench_hot_grouped(smoke, &mut all_ok),
    ];
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>14} {:>9}",
        "pipeline", "tokens/s", "allocs/step", "peak bytes", "analytic bytes", "speedup"
    );
    for r in &records {
        println!(
            "{:<12} {:>12.0} {:>12.2} {:>12} {:>14} {:>9}",
            r.pipeline,
            r.tokens_per_s,
            r.allocs_per_step,
            r.peak_bytes,
            r.analytic_bytes,
            if r.speedup > 0.0 {
                format!("{:.2}x", r.speedup)
            } else {
                "-".to_string()
            }
        );
    }
    match report::write_validated(&out_path, &render_hotpath_json(&records), validate_hotpath) {
        Ok(n) => println!("wrote {out_path} ({n} records, self-validated)"),
        Err(e) => {
            eprintln!("{out_path}: self-validation failed — {e}");
            all_ok = false;
        }
    }
    if !all_ok {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// bench mapping — auto-mapping planner over every legal 4D folding
// ---------------------------------------------------------------------------

/// Search shape for `bench mapping`: a 32-expert / 8-layer model over 16
/// clean-frontier GCDs yields a rich legal frontier — pipelined,
/// interleaved and flat foldings — while the purely analytic pricing
/// keeps the whole enumeration instant.
const MAP_WORLD: usize = 16;
const MAP_MICRO_BATCH: usize = 1;
const MAP_MICROBATCHES: usize = 8;

fn mapping_model() -> MoeModelConfig {
    MoeModelConfig::custom("plan-demo", 2048, 1024, 704, 32, 4, 8)
}

fn render_mapping_json(plans: &[MappingPlan]) -> String {
    let mut s = String::from("[\n");
    for (i, p) in plans.iter().enumerate() {
        let m = &p.mapping;
        s.push_str("  {\n");
        s.push_str(&format!(
            "    \"config\": {{\"label\": \"{}\", \"world\": {MAP_WORLD}, \"pp\": {}, \
             \"vpp\": {}, \"microbatches\": {}, \"attn_tp\": {}, \"attn_dp\": {}, \
             \"moe_ep\": {}, \"moe_tp\": {}, \"moe_dp\": {}, {}}},\n",
            report::json_safe(&m.label()),
            m.pp,
            m.virtual_chunks,
            m.microbatches,
            m.attn.tp,
            m.attn.dp,
            m.moe.ep,
            m.moe.tp,
            m.moe.dp,
            report::worker_fields()
        ));
        s.push_str(&format!("    \"step_time_s\": {:.9},\n", p.step_time));
        s.push_str(&format!(
            "    \"tflops_per_gpu\": {:.4},\n",
            p.tflops_per_gpu
        ));
        s.push_str(&format!("    \"bubble\": {:.6},\n", p.bubble));
        s.push_str(&format!("    \"p2p_s\": {:.9},\n", p.p2p_time));
        s.push_str(&format!("    \"dp_sync_s\": {:.9},\n", p.dp_sync));
        s.push_str(&format!("    \"mem_bytes\": {},\n", p.mem.total()));
        s.push_str(&format!("    \"fits\": {},\n", p.fits as u8));
        s.push_str(&format!("    \"pareto\": {}\n", p.pareto as u8));
        s.push_str(if i + 1 == plans.len() {
            "  }\n"
        } else {
            "  },\n"
        });
    }
    s.push_str("]\n");
    s
}

/// Structural + semantic validation of a `BENCH_mapping.json`. The gate
/// checks the planner's contract, not just the schema: at least 8 legal
/// foldings with pipelined (pp > 1) and interleaved (vpp > 1) points,
/// records sorted by step time, only fitting plans on the Pareto
/// frontier, and memory non-increasing along it (time ascending and
/// memory ascending at once would mean a dominated plan was marked).
fn validate_mapping(text: &str) -> Result<usize, String> {
    let objs = report::split_records(text)?;
    if objs.len() < 8 {
        return Err(format!(
            "mapping frontier too thin: {} legal foldings (need >= 8)",
            objs.len()
        ));
    }
    let mut prev_time = 0.0f64;
    let mut prev_pareto_mem = f64::INFINITY;
    let mut any_pp = false;
    let mut any_vpp = false;
    let mut pareto_count = 0usize;
    for obj in &objs {
        if !obj.contains("\"config\"") || !obj.contains("\"label\"") {
            return Err("record lacks a config.label tag".into());
        }
        let t = report::positive_scalar(obj, "step_time_s")?;
        report::positive_scalar(obj, "tflops_per_gpu")?;
        let mem = report::positive_scalar(obj, "mem_bytes")?;
        let bubble = report::scalar(obj, "bubble")?;
        if !(0.0..1.0).contains(&bubble) {
            return Err(format!("bubble {bubble} outside [0, 1)"));
        }
        let pp = report::scalar(obj, "pp")?;
        if pp < 1.0 {
            return Err(format!("pp {pp} < 1"));
        }
        if pp > 1.0 {
            any_pp = true;
        } else if bubble != 0.0 {
            return Err(format!(
                "unpipelined plan reports a nonzero bubble {bubble}"
            ));
        }
        if report::scalar(obj, "vpp")? > 1.0 {
            any_vpp = true;
        }
        let fits = report::scalar(obj, "fits")?;
        let pareto = report::scalar(obj, "pareto")?;
        for (key, v) in [("fits", fits), ("pareto", pareto)] {
            if v != 0.0 && v != 1.0 {
                return Err(format!("{key} = {v} is not a 0/1 flag"));
            }
        }
        if pareto == 1.0 && fits != 1.0 {
            return Err("a non-fitting plan is marked Pareto-optimal".into());
        }
        if t < prev_time {
            return Err("records are not sorted by step_time_s".into());
        }
        prev_time = t;
        if pareto == 1.0 {
            pareto_count += 1;
            if mem > prev_pareto_mem {
                return Err(format!(
                    "Pareto frontier not monotone: memory rises {prev_pareto_mem} -> {mem} \
                     as step time grows (a dominated plan is marked optimal)"
                ));
            }
            prev_pareto_mem = mem;
        }
    }
    if !any_pp {
        return Err("no pipelined (pp > 1) folding in the enumeration".into());
    }
    if !any_vpp {
        return Err("no interleaved (vpp > 1) folding in the enumeration".into());
    }
    if pareto_count == 0 {
        return Err("no plan on the Pareto frontier".into());
    }
    Ok(objs.len())
}

fn cmd_bench_mapping(args: &[String]) {
    let mut out_path = "BENCH_mapping.json".to_string();
    let mut validate_only: Option<String> = None;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            // Accepted for CI symmetry with `bench hotpath`: the planner
            // is analytic, so there is no long loop to shorten.
            "--smoke" => {
                i += 1;
            }
            "--out" => {
                out_path = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            "--validate" => {
                validate_only = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            _ => usage(),
        }
    }
    if let Some(p) = validate_only {
        let text = std::fs::read_to_string(&p).unwrap_or_else(|e| {
            eprintln!("{p}: INVALID — read failed: {e}");
            std::process::exit(1);
        });
        match validate_mapping(&text) {
            Ok(n) => println!("{p}: {n} records, schema + planner gate OK"),
            Err(e) => {
                eprintln!("{p}: INVALID — {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let cfg = mapping_model();
    let perf = PerfModel::frontier_clean(MAP_WORLD);
    let plans = plan_mappings(&perf, &cfg, MAP_MICRO_BATCH, MAP_MICROBATCHES);
    let fitting = plans.iter().filter(|p| p.fits).count();
    let pareto = plans.iter().filter(|p| p.pareto).count();
    println!(
        "== bench mapping — auto-mapping planner ({} on {MAP_WORLD} clean-frontier GCDs, \
         micro-batch {MAP_MICRO_BATCH}, {MAP_MICROBATCHES} microbatches) ==",
        cfg.name
    );
    println!(
        "{} legal foldings priced | {fitting} fit in HBM | {pareto} on the (time, memory) \
         Pareto frontier:",
        plans.len()
    );
    println!(
        "{:<46} {:>9} {:>8} {:>7} {:>9}",
        "mapping", "step ms", "TF/GPU", "bubble", "GiB/GPU"
    );
    for p in plans.iter().filter(|p| p.pareto) {
        println!(
            "{:<46} {:>9.2} {:>8.2} {:>7.3} {:>9.2}",
            p.mapping.label(),
            p.step_time * 1e3,
            p.tflops_per_gpu,
            p.bubble,
            p.mem.total() as f64 / GIB
        );
    }
    println!(
        "({} dominated / non-fitting plans omitted from the table; all are in the JSON)",
        plans.len() - pareto
    );
    match report::write_validated(&out_path, &render_mapping_json(&plans), validate_mapping) {
        Ok(n) => println!("wrote {out_path} ({n} records, self-validated)"),
        Err(e) => {
            eprintln!("{out_path}: self-validation failed — {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------------
// bench elastic — join MTTR + skewed-vs-rebalanced live migration
// ---------------------------------------------------------------------------

/// `bench elastic` world: 8 experts over 4 ranks, two per rank.
const EL_WORLD: usize = 4;
const EL_EXPERTS: usize = 8;

/// Frontier GCDs repacked three per node, so the 4-rank world spans two
/// asymmetric nodes (ranks 0-2 on node 0, rank 3 alone on node 1) and
/// expert dispatch crosses a real NIC — on a single node the RBD
/// node-dedup discipline makes every placement free and a rebalance has
/// nothing to win.
fn elastic_cluster() -> SimCluster {
    let mut spec = MachineSpec::frontier();
    spec.gpus_per_node = 3;
    let topo = ClusterTopology::new(spec, EL_WORLD);
    SimCluster::new(CostModel::new(topo).with_congestion(CongestionModel::none()))
}

fn elastic_train_cfg() -> TrainConfig {
    let mut c = TrainConfig::fig15(DropPolicy::CapacityOnly);
    c.vocab = 64;
    c.hidden = 32;
    c.ffn = 16;
    c.num_experts = EL_EXPERTS;
    c.top_k = 2;
    c.layers = 2;
    c.seq_len = 24;
    c.batch = 4;
    c.capacity_factor = 1e6;
    c.seed = 0xE1A5;
    c
}

struct ElasticJoin {
    steps: u64,
    kill_rank: usize,
    kill_at: u64,
    join_at: u64,
    join_mttr_s: f64,
    scatter_bytes: usize,
    world_after: usize,
}

struct ElasticRebalance {
    phase_steps: u64,
    kind: &'static str,
    moved_experts: usize,
    migration_bytes: u64,
    skewed_step_s: f64,
    rebalanced_step_s: f64,
    dispatch_before_s: f64,
    dispatch_after_s: f64,
}

/// Kill one rank mid-run and let it rejoin two steps later; the join MTTR
/// (grow rendezvous + live scatter + rebuild) is read off an incumbent's
/// report, where the interval excludes the joiner's sat-out time.
fn bench_elastic_join(smoke: bool) -> ElasticJoin {
    let cfg = elastic_train_cfg();
    let steps: u64 = if smoke { 6 } else { 10 };
    let (kill_rank, kill_at, join_at) = (EL_WORLD - 1, 2u64, 4u64);
    let spec = format!("kill:rank={kill_rank},at={kill_at};join:rank={kill_rank},at={join_at}");
    let plan = FaultPlan::parse(cfg.seed, &spec).expect("bench join spec parses");
    let chaos = ChaosConfig::new(steps, 2);
    let reports = {
        let cfg = &cfg;
        let chaos = &chaos;
        elastic_cluster()
            .with_faults(plan)
            .run(move |ctx| run_chaos_rank(cfg, chaos, ctx).expect("bench join run"))
    };
    let incumbent = &reports[0];
    assert_eq!(
        incumbent.final_world, EL_WORLD,
        "join must restore the full world"
    );
    let join = incumbent.joins.first().expect("join rendezvous recorded");
    ElasticJoin {
        steps,
        kill_rank,
        kill_at,
        join_at,
        join_mttr_s: join.mttr,
        scatter_bytes: incumbent.last_ckpt.as_ref().map_or(0, Vec::len),
        world_after: join.world_after,
    }
}

/// Bias two co-located experts hot, profile a skewed phase, commit the
/// histogram-driven rebalance exactly as the chaos engine does, then run
/// the same number of steps in the migrated layout. Both phase averages
/// come off the simulated clock, so the comparison is deterministic.
fn bench_elastic_rebalance(_smoke: bool) -> ElasticRebalance {
    let cfg = elastic_train_cfg();
    // The skew phase is the same length in smoke mode: the histogram a
    // four-step window collects is not yet dominated by the biased pair
    // (the router trains away from the overload from step one), and the
    // never-worse gate would correctly decline the marginal candidate.
    // Ten steps on this toy model cost well under a second, so smoke
    // mode only shortens the join sub-bench.
    let phase: u64 = 10;
    let full_layers = build_moe_layers(&cfg);
    let mut results = {
        let cfg = &cfg;
        let full_layers = &full_layers;
        elastic_cluster().run(move |ctx| {
            let comm = ctx.world.clone();
            let mut model = DistMoeLm::new(cfg, full_layers, ctx.rank, EL_WORLD);
            // Experts 6 and 7 — both on rank 3, the lone rank of node 1 —
            // are made co-hot: every top-2 decision floods that NIC from
            // all three node-0 sources. Pulling the co-activated pair onto
            // node 0 cuts the off-node copies from three sources to one
            // and unloads the straggler, exactly the migration the solver
            // exists to find.
            model.bias_router(6, 6.0);
            model.bias_router(7, 6.0);
            model.set_route_tracking(true);
            let mut rng = DetRng::new(cfg.seed ^ 0x51E3);
            let t0 = ctx.clock.now();
            for step in 0..phase {
                ctx.set_step(step);
                comm.set_step(step);
                let batch = step_batch(cfg, rng.next_u64(), comm.rank());
                model
                    .train_step(&batch, &comm, &mut ctx.clock)
                    .expect("skewed phase step");
            }
            let skewed = (ctx.clock.now() - t0) / phase as f64;

            // Close the profiling window the way the chaos engine does.
            let mine = model.take_route_samples();
            let gathered = comm
                .all_gather(mine, &mut ctx.clock)
                .expect("histogram all-gather");
            ctx.clock.commit("elastic_histogram");
            let mut hist = RoutingHistogram::new(cfg.num_experts, EL_WORLD, 4096);
            for per_src in &gathered {
                for (src, experts) in per_src {
                    let experts: Vec<usize> = experts.iter().map(|&e| e as usize).collect();
                    hist.observe(*src as usize, &experts);
                }
            }
            let rcfg = RebalanceConfig {
                threshold: 1.05,
                every: phase,
                ..RebalanceConfig::default()
            };
            let mut pol = RebalancePolicy::new(rcfg);
            let old = model.assignment().clone();
            let replica = expert_replica_bytes(cfg.hidden, cfg.ffn, cfg.layers);
            let (new_asg, kind) = pol
                .observe_window(&hist, &old, comm.cost(), replica)
                .expect("manufactured skew must trigger a rebalance");
            let ckpt = model
                .capture_checkpoint(phase, rng.state(), &comm, &mut ctx.clock)
                .expect("live snapshot");
            let moved = old.changed_experts(&new_asg);
            let grp: Vec<usize> = comm.group_ranks().to_vec();
            let per_expert = 6 * cfg.hidden as u64 * cfg.ffn as u64 * 4 * cfg.layers as u64;
            let mut migration_bytes = 0u64;
            let mut t_mig = 0.0f64;
            for &g in &moved {
                let src = grp[old.primary(g)];
                for &h in new_asg.holders(g) {
                    if !old.holders(g).contains(&h) {
                        migration_bytes += per_expert;
                        t_mig += comm.cost().p2p_time(src, grp[h], per_expert);
                    }
                }
            }
            ctx.clock.charge("elastic_migrate", t_mig);
            let before = assignment_cost(&old, &hist, comm.cost(), rcfg.bytes_per_token);
            let after = assignment_cost(&new_asg, &hist, comm.cost(), rcfg.bytes_per_token);
            let mut model =
                DistMoeLm::from_checkpoint_with_assignment(cfg, &ckpt, comm.rank(), new_asg);
            let mut rng = DetRng::from_state(ckpt.rng_state);
            let t1 = ctx.clock.now();
            for step in phase..2 * phase {
                ctx.set_step(step);
                comm.set_step(step);
                let batch = step_batch(cfg, rng.next_u64(), comm.rank());
                model
                    .train_step(&batch, &comm, &mut ctx.clock)
                    .expect("rebalanced phase step");
            }
            let rebalanced = (ctx.clock.now() - t1) / phase as f64;
            (
                skewed,
                rebalanced,
                kind,
                moved.len(),
                migration_bytes,
                before.dispatch_time,
                after.dispatch_time,
            )
        })
    };
    let (skewed, rebalanced, kind, moved, migration_bytes, db, da) = results.remove(0);
    ElasticRebalance {
        phase_steps: phase,
        kind,
        moved_experts: moved,
        migration_bytes,
        skewed_step_s: skewed,
        rebalanced_step_s: rebalanced,
        dispatch_before_s: db,
        dispatch_after_s: da,
    }
}

fn render_elastic_json(join: &ElasticJoin, reb: &ElasticRebalance) -> String {
    let mut s = String::from("[\n  {\n");
    s.push_str(&format!(
        "    \"config\": {{\"label\": \"join\", \"world\": {EL_WORLD}, \"experts\": \
         {EL_EXPERTS}, \"steps\": {}, \"kill_rank\": {}, \"kill_at\": {}, \"join_at\": {}, \
         {}}},\n",
        join.steps,
        join.kill_rank,
        join.kill_at,
        join.join_at,
        report::worker_fields()
    ));
    s.push_str(&format!("    \"join_mttr_s\": {:.9},\n", join.join_mttr_s));
    s.push_str(&format!("    \"world_after\": {},\n", join.world_after));
    s.push_str(&format!("    \"scatter_bytes\": {}\n", join.scatter_bytes));
    s.push_str("  },\n  {\n");
    s.push_str(&format!(
        "    \"config\": {{\"label\": \"rebalance\", \"world\": {EL_WORLD}, \"experts\": \
         {EL_EXPERTS}, \"phase_steps\": {}, \"kind\": \"{}\", {}}},\n",
        reb.phase_steps,
        report::json_safe(reb.kind),
        report::worker_fields()
    ));
    s.push_str(&format!(
        "    \"skewed_step_s\": {:.9},\n",
        reb.skewed_step_s
    ));
    s.push_str(&format!(
        "    \"rebalanced_step_s\": {:.9},\n",
        reb.rebalanced_step_s
    ));
    s.push_str(&format!(
        "    \"speedup\": {:.6},\n",
        reb.skewed_step_s / reb.rebalanced_step_s
    ));
    s.push_str(&format!("    \"moved_experts\": {},\n", reb.moved_experts));
    s.push_str(&format!(
        "    \"migration_bytes\": {},\n",
        reb.migration_bytes
    ));
    s.push_str(&format!(
        "    \"dispatch_before_s\": {:.9},\n",
        reb.dispatch_before_s
    ));
    s.push_str(&format!(
        "    \"dispatch_after_s\": {:.9}\n",
        reb.dispatch_after_s
    ));
    s.push_str("  }\n]\n");
    s
}

/// Structural + semantic validation of a `BENCH_elastic.json`. The gate is
/// the elasticity contract itself: the join record must show the full
/// world restored with a positive rendezvous MTTR, and the rebalance
/// record must show the migrated layout strictly beating the skewed
/// baseline — measured step time and priced dispatch both — with a
/// nonzero priced transfer.
fn validate_elastic(text: &str) -> Result<usize, String> {
    let objs = report::split_records(text)?;
    let mut saw_join = false;
    let mut saw_reb = false;
    for obj in &objs {
        if obj.contains("\"label\": \"join\"") {
            saw_join = true;
            report::positive_scalar(obj, "join_mttr_s")?;
            let world = report::scalar(obj, "world")?;
            let after = report::scalar(obj, "world_after")?;
            if after != world {
                return Err(format!("join restored world {after}, expected {world}"));
            }
            report::positive_scalar(obj, "scatter_bytes")?;
        } else if obj.contains("\"label\": \"rebalance\"") {
            saw_reb = true;
            let skewed = report::positive_scalar(obj, "skewed_step_s")?;
            let reb = report::positive_scalar(obj, "rebalanced_step_s")?;
            if reb >= skewed {
                return Err(format!(
                    "rebalanced step time {reb} not strictly below the skewed baseline {skewed}"
                ));
            }
            let speedup = report::positive_scalar(obj, "speedup")?;
            if speedup <= 1.0 {
                return Err(format!("speedup {speedup} <= 1"));
            }
            report::positive_scalar(obj, "moved_experts")?;
            report::positive_scalar(obj, "migration_bytes")?;
            let db = report::positive_scalar(obj, "dispatch_before_s")?;
            let da = report::positive_scalar(obj, "dispatch_after_s")?;
            if da >= db {
                return Err(format!(
                    "priced dispatch {da} not improved from {db} (never-worse violated)"
                ));
            }
        } else {
            return Err("record lacks a join/rebalance label".into());
        }
    }
    if !saw_join {
        return Err("missing the join record".into());
    }
    if !saw_reb {
        return Err("missing the rebalance record".into());
    }
    Ok(objs.len())
}

fn cmd_bench_elastic(args: &[String]) {
    let mut smoke = false;
    let mut out_path = "BENCH_elastic.json".to_string();
    let mut validate_only: Option<String> = None;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--out" => {
                out_path = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            "--validate" => {
                validate_only = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            _ => usage(),
        }
    }
    if let Some(p) = validate_only {
        let text = std::fs::read_to_string(&p).unwrap_or_else(|e| {
            eprintln!("{p}: INVALID — read failed: {e}");
            std::process::exit(1);
        });
        match validate_elastic(&text) {
            Ok(n) => println!("{p}: {n} records, schema + elasticity gate OK"),
            Err(e) => {
                eprintln!("{p}: INVALID — {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!(
        "== bench elastic — rank join + live expert migration (world={EL_WORLD} \
         experts={EL_EXPERTS}{}) ==",
        if smoke { ", smoke" } else { "" }
    );
    let join = bench_elastic_join(smoke);
    println!(
        "join: rank {} killed at step {}, rejoined at step {} | rendezvous {:.3}ms | \
         world {} restored | snapshot {} bytes",
        join.kill_rank,
        join.kill_at,
        join.join_at,
        join.join_mttr_s * 1e3,
        join.world_after,
        join.scatter_bytes
    );
    let reb = bench_elastic_rebalance(smoke);
    println!(
        "rebalance: {} moved {} expert(s), {} bytes | step {:.4}ms -> {:.4}ms (-{:.3}%) | \
         priced dispatch {:.1}us -> {:.1}us ({:.2}x)",
        reb.kind,
        reb.moved_experts,
        reb.migration_bytes,
        reb.skewed_step_s * 1e3,
        reb.rebalanced_step_s * 1e3,
        (1.0 - reb.rebalanced_step_s / reb.skewed_step_s) * 1e2,
        reb.dispatch_before_s * 1e6,
        reb.dispatch_after_s * 1e6,
        reb.dispatch_before_s / reb.dispatch_after_s
    );
    match report::write_validated(
        &out_path,
        &render_elastic_json(&join, &reb),
        validate_elastic,
    ) {
        Ok(n) => println!("wrote {out_path} ({n} records, self-validated)"),
        Err(e) => {
            eprintln!("{out_path}: self-validation failed — {e}");
            std::process::exit(1);
        }
    }
}
