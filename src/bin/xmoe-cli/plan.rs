//! The analytic queries: `plan`, `redundancy`, `throughput`, `alltoall`,
//! `analyze`.

use xmoe::bench::flags::{Cmd, UsageError};
use xmoe::core::analysis::{distinct_combinations, routing_report};
use xmoe::core::config::MoeModelConfig;
use xmoe::core::gating::{DropPolicy, Router};
use xmoe::core::memory::{best_trainable_config, total_per_gpu, MoeSystem, GIB};
use xmoe::core::perf::PerfModel;
use xmoe::core::pft::Pft;
use xmoe::core::rbd::expected_redundancy_uniform;
use xmoe::tensor::Tensor;
use xmoe::topology::{ClusterTopology, CostModel, MachineSpec};

pub static PLAN: Cmd = Cmd {
    name: "plan",
    positionals: "<small|medium|large|super> [gpus]",
    flags: &[],
};
pub static REDUNDANCY: Cmd = Cmd {
    name: "redundancy",
    positionals: "<experts> <topk> [gpus-per-node]",
    flags: &[],
};
pub static THROUGHPUT: Cmd = Cmd {
    name: "throughput",
    positionals: "<small|medium|large|super> <gpus>",
    flags: &[],
};
pub static ALLTOALL: Cmd = Cmd {
    name: "alltoall",
    positionals: "<gpus> <mbytes-per-rank>",
    flags: &[],
};
pub static ANALYZE: Cmd = Cmd {
    name: "analyze",
    positionals: "<experts> <topk> [tokens]",
    flags: &[],
};

fn model(cmd: &Cmd, name: String) -> Result<MoeModelConfig, UsageError> {
    match name.to_ascii_lowercase().as_str() {
        "small" => Ok(MoeModelConfig::small()),
        "medium" => Ok(MoeModelConfig::medium()),
        "large" => Ok(MoeModelConfig::large()),
        "super" => Ok(MoeModelConfig::super_()),
        _ => Err(cmd.error(format!("unknown model '{name}'"))),
    }
}

pub fn plan(args: &[String]) -> Result<(), UsageError> {
    let p = PLAN.parse(args)?;
    let cfg = model(&PLAN, p.req(0)?)?;
    let gpus: usize = p.arg(1)?.unwrap_or(256);
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
    Ok(())
}

pub fn redundancy(args: &[String]) -> Result<(), UsageError> {
    let p = REDUNDANCY.parse(args)?;
    let (experts, topk): (usize, usize) = (p.req(0)?, p.req(1)?);
    let gpn: usize = p.arg(2)?.unwrap_or(8);
    println!("redundancy for E={experts}, k={topk}, {gpn} GPUs/node (uniform routing):");
    println!("{:>8} {:>7} {:>12}", "EP size", "nodes", "redundancy");
    let mut ep = gpn;
    while ep <= experts.max(gpn) && ep <= 1024 {
        let nodes = ep.div_ceil(gpn);
        let r = expected_redundancy_uniform(topk, nodes);
        println!("{ep:>8} {nodes:>7} {:>11.1}%", 100.0 * r);
        ep *= 2;
    }
    Ok(())
}

pub fn throughput(args: &[String]) -> Result<(), UsageError> {
    let p = THROUGHPUT.parse(args)?;
    let cfg = model(&THROUGHPUT, p.req(0)?)?;
    let gpus: usize = p.req(1)?;
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
    Ok(())
}

pub fn alltoall(args: &[String]) -> Result<(), UsageError> {
    let p = ALLTOALL.parse(args)?;
    let (gpus, mb): (usize, f64) = (p.req(0)?, p.req(1)?);
    let topo = ClusterTopology::new(MachineSpec::frontier(), gpus);
    let cost = CostModel::new(topo);
    let group: Vec<usize> = (0..gpus).collect();
    let per_pair = ((mb * 1e6) / gpus as f64) as u64;
    let t = cost.alltoall_even_time(&group, per_pair);
    println!(
        "even all-to-all over {gpus} GCDs, {mb} MB/rank: {:.2} ms (expected, incl. congestion at this scale)",
        t * 1e3
    );
    Ok(())
}

pub fn analyze(args: &[String]) -> Result<(), UsageError> {
    let p = ANALYZE.parse(args)?;
    let (experts, topk): (usize, usize) = (p.req(0)?, p.req(1)?);
    let tokens: usize = p.arg(2)?.unwrap_or(2048);
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
    Ok(())
}
