//! Checkpoint-interval vs recovery-overhead sweep for the chaos engine.
//!
//! Kills half the ranks mid-run and measures, per checkpoint interval:
//! the steady-state checkpointing overhead (simulated time spent in the
//! `checkpoint` stage), the number of steps replayed after the failure,
//! and the MTTR (detect + re-group + restore + replay). The classic
//! trade-off: frequent checkpoints cost steady-state time but bound the
//! replay; rare checkpoints are cheap until something dies.

use xmoe_collectives::{RankTrace, SimCluster};
use xmoe_core::gating::DropPolicy;
use xmoe_topology::FaultPlan;
use xmoe_train::{run_chaos_rank, ChaosConfig, ChaosReport, TrainConfig};

use crate::spine::{bench, column, micros, print_records, row, table, Check, Outcome, Record, Val};

bench!(recovery, "checkpoint interval vs recovery overhead");

const WORLD: usize = 8;
const STEPS: u64 = 12;
const KILL_AT: u64 = 9;

fn cfg() -> TrainConfig {
    let mut c = TrainConfig::fig15(DropPolicy::CapacityOnly);
    c.vocab = 64;
    c.hidden = 16;
    c.ffn = 8;
    c.num_experts = 2 * WORLD;
    c.top_k = 2;
    c.layers = 2;
    c.seq_len = 12;
    c.batch = 2;
    c.capacity_factor = 1e6;
    c.seed = 0xBE2C;
    c
}

fn sweep_point(ckpt_every: u64) -> (ChaosReport, f64, f64) {
    let c = cfg();
    // Kill the upper half of the ranks at KILL_AT.
    let mut plan = FaultPlan::new(1);
    for r in WORLD / 2..WORLD {
        plan = plan.kill(r, KILL_AT);
    }
    let chaos = ChaosConfig::new(STEPS, ckpt_every);
    let c = &c;
    let out = SimCluster::frontier(WORLD)
        .with_faults(plan)
        .run(move |ctx| {
            let report = run_chaos_rank(c, &chaos, ctx).expect("unrecoverable comm fault");
            let trace = RankTrace::capture(ctx.rank, &mut ctx.clock, ctx.world.traffic());
            (report, trace)
        });
    let (report, trace) = &out[0];
    let ckpt_time: f64 = trace
        .bucket_totals()
        .iter()
        .filter(|(l, _)| l == "checkpoint" || l == "ckpt_restore")
        .map(|(_, v)| v)
        .sum::<f64>()
        .max(0.0); // empty float sums yield -0.0
    (report.clone(), ckpt_time, trace.end)
}

fn run(_smoke: bool) -> Outcome {
    println!(
        "elastic recovery sweep: {WORLD} Frontier ranks, {STEPS} steps, \
         ranks {}..{WORLD} killed at step {KILL_AT}",
        WORLD / 2
    );
    // An interval of 0 never checkpoints.
    let recs = [0u64, 1, 2, 3, 6].map(|ckpt_every| {
        let (report, ckpt_time, total) = sweep_point(ckpt_every);
        let rec = report
            .recoveries
            .first()
            .expect("survivor must have recovered");
        let ckpt_bytes = report.last_ckpt.as_ref().map_or(0, std::vec::Vec::len);
        row("recovery")
            .cfg("ckpt_every", Val::Int(ckpt_every))
            .cfg("kill_at", Val::Int(KILL_AT))
            .metric("replayed", Val::Int(rec.steps_replayed))
            .metric("ckpt+restore_us", micros(ckpt_time))
            .metric("mttr_ms", Val::Fixed(rec.mttr * 1e3, 6))
            .metric("total_ms", Val::Fixed(total * 1e3, 6))
            .metric("ckpt_bytes", Val::Int(ckpt_bytes as u64))
    });
    print_records("checkpoint interval vs recovery overhead", &recs);
    println!(
        "\nMTTR = detect + re-group + restore + replay; the checkpoint column is\n\
         simulated time spent serializing/gathering checkpoints plus reloading one."
    );
    (recs.to_vec(), Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let rows: &[Record; 5] = table(recs, "recovery")?;
    let every = column(rows, "ckpt_every")?;
    let replayed = column(rows, "replayed")?;
    let kill_at = rows[0].num("kill_at")?;
    // Steps since the last checkpoint at or before the kill; all of them
    // when there is none.
    let expected: Vec<f64> = every
        .iter()
        .map(|&e| if e == 0.0 { kill_at } else { kill_at % e })
        .collect();
    // In order of growing interval, "never" last.
    let mut overhead = column(rows, "ckpt+restore_us")?;
    overhead.rotate_left(1);
    Ok(vec![
        Check::new(
            "replayed steps = kill step - last checkpoint before it",
            replayed == expected,
            format!("replayed {replayed:.0?} at intervals {every:.0?} (0 = never)"),
        ),
        Check::new(
            "checkpoint overhead is non-increasing in the interval",
            overhead.windows(2).all(|w| w[1] <= w[0]),
            format!("{overhead:.2?} us at intervals 1, 2, 3, 6, never"),
        ),
    ])
}
