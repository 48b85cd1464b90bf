//! `xmoe-cli chaos` — fault-injected distributed training.

use xmoe::bench::flags::{Arity, Cmd, Flag, UsageError};
use xmoe::collectives::SimCluster;
use xmoe::core::gating::DropPolicy;
use xmoe::topology::{FaultEvent, FaultPlan};
use xmoe::train::{run_chaos_rank, ChaosConfig, GuardConfig, RebalanceConfig, TrainConfig};

pub static CMD: Cmd = Cmd {
    name: "chaos",
    positionals: "[ranks]",
    flags: &[
        Flag {
            name: "--faults",
            arity: Arity::Value("<spec>"),
            doc: "semicolon-separated fault schedule, e.g. degrade:tier=inter,x=3,from=1,until=3;kill:rank=6,at=4",
        },
        Flag {
            name: "--ckpt-every",
            arity: Arity::Value("N"),
            doc: "checkpoint interval in steps, 0 = never (default 2)",
        },
        Flag {
            name: "--steps",
            arity: Arity::Value("N"),
            doc: "training steps (default 8)",
        },
        Flag {
            name: "--seed",
            arity: Arity::Value("S"),
            doc: "seed of the model and the fault plan (default 0)",
        },
        Flag {
            name: "--guard",
            arity: Arity::Switch,
            doc: "force the numerical guard on for a clean run (SDC faults switch it on)",
        },
        Flag {
            name: "--max-grad-norm",
            arity: Arity::Value("X"),
            doc: "guard on, and clip the unscaled global grad norm to X",
        },
        Flag {
            name: "--rebalance",
            arity: Arity::Value("<threshold>"),
            doc: "live expert migration once window skew (max/mean load) reaches the threshold",
        },
    ],
};

pub fn run(args: &[String]) -> Result<(), UsageError> {
    let p = CMD.parse(args)?;
    let ranks: usize = p.arg(0)?.unwrap_or(4);
    let faults: String = p.flag("--faults")?.unwrap_or_default();
    let ckpt_every: u64 = p.flag("--ckpt-every")?.unwrap_or(2);
    let steps: u64 = p.flag("--steps")?.unwrap_or(8);
    let seed: u64 = p.flag("--seed")?.unwrap_or(0);
    let max_grad_norm: Option<f64> = p.flag("--max-grad-norm")?;
    let force_guard = p.has("--guard") || max_grad_norm.is_some();
    let max_grad_norm = max_grad_norm.unwrap_or(0.0);
    let rebalance_threshold: Option<f64> = p.flag("--rebalance")?;
    // A malformed schedule is a config error (the message already names
    // the offending segment and key), not a usage error: exit 1.
    let plan = FaultPlan::parse(seed, &faults).unwrap_or_else(|e| {
        eprintln!("bad --faults spec: {e}");
        std::process::exit(1);
    });
    // A slowdown only stretches compute the rank charges, and the train step
    // charges none yet: a `slow:` run would print a clean run's numbers.
    if plan
        .events
        .iter()
        .any(|e| matches!(e, FaultEvent::Slowdown { .. }))
    {
        eprintln!(
            "--faults: chaos does not support slow: clauses yet — the train step charges no \
             simulated compute, so a slowdown would change nothing (ROADMAP item 2, the price list)"
        );
        std::process::exit(1);
    }

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
    println!("{}", crate::arena_line(&survivor.arena));
    println!(
        "final world {} of {ranks} | last checkpoint {} bytes | simulated time {:.2}ms",
        survivor.final_world,
        survivor.last_ckpt.as_ref().map_or(0, Vec::len),
        end_time * 1e3
    );
    Ok(())
}
