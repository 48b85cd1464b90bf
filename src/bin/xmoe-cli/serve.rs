//! `xmoe-cli serve` — one deterministic serving simulation on the Small
//! model: continuous batching over the padding-free pipeline with
//! KV-ledger admission control, optionally re-solving expert placement
//! from live routing histograms.

use xmoe::bench::flags::{Arity, Cmd, Flag, UsageError};
use xmoe::core::config::MoeModelConfig;
use xmoe::serve::{serve, ArrivalProcess, PlacementMode, ServeConfig, TrafficConfig};

pub static CMD: Cmd = Cmd {
    name: "serve",
    positionals: "[ranks]",
    flags: &[
        Flag {
            name: "--placement",
            arity: Arity::Value("naive|optimized"),
            doc: "round-robin, or re-solved from live routing histograms (default optimized)",
        },
        Flag {
            name: "--arrival",
            arity: Arity::Value("steady|bursty|diurnal"),
            doc: "arrival process of the request trace (default steady)",
        },
        Flag {
            name: "--requests",
            arity: Arity::Value("N"),
            doc: "trace length (default 200)",
        },
        Flag {
            name: "--rate",
            arity: Arity::Value("R"),
            doc: "mean arrival rate, requests/s (default 400)",
        },
        Flag {
            name: "--skew",
            arity: Arity::Value("S"),
            doc: "topic skew of the routing, 0 = uniform (default 8)",
        },
        Flag {
            name: "--drift",
            arity: Arity::Value("T"),
            doc: "move the hot topics at T simulated seconds",
        },
        Flag {
            name: "--seed",
            arity: Arity::Value("S"),
            doc: "trace seed (default 42)",
        },
    ],
};

pub fn run(args: &[String]) -> Result<(), UsageError> {
    let p = CMD.parse(args)?;
    let ranks: usize = p.arg(0)?.unwrap_or(32);
    let placement = match p.flag::<String>("--placement")?.as_deref() {
        None | Some("optimized") => PlacementMode::Optimized,
        Some("naive") => PlacementMode::Naive,
        Some(other) => return Err(CMD.error(format!("bad value '{other}' for --placement"))),
    };
    let arrival = match p.flag::<String>("--arrival")?.as_deref() {
        None | Some("steady") => ArrivalProcess::Steady,
        Some("bursty") => ArrivalProcess::Bursty {
            on_s: 0.05,
            off_s: 0.3,
            burst_mult: 10.0,
        },
        Some("diurnal") => ArrivalProcess::Diurnal {
            period_s: 0.5,
            amplitude: 0.8,
        },
        Some(other) => return Err(CMD.error(format!("bad value '{other}' for --arrival"))),
    };
    let requests: usize = p.flag("--requests")?.unwrap_or(200);
    let rate: f64 = p.flag("--rate")?.unwrap_or(400.0);
    let skew: f64 = p.flag("--skew")?.unwrap_or(8.0);
    let drift: Option<f64> = p.flag("--drift")?;
    let seed: u64 = p.flag("--seed")?.unwrap_or(42);

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
    Ok(())
}
