//! Fig 15 (§5.6): loss validation — X-MoE vs DeepSpeed-MoE training
//! curves on identical data from identical initialization, differing only
//! in token-drop policy (capacity-only vs negative-logit + capacity).
//!
//! Real training with hand-written backprop on a synthetic Markov corpus
//! (see `xmoe-train`); the paper's observation is that the curves track
//! closely with X-MoE slightly lower because it retains more tokens.

use xmoe_collectives::SimCluster;
use xmoe_core::gating::DropPolicy;
use xmoe_train::model::loss_validation_curves;
use xmoe_train::{build_moe_layers, DistMoeLm, MarkovCorpus, TrainConfig};

use crate::sparkline;
use crate::spine::{
    bench, column, int, print_records, row, table, Check, Env, Outcome, Record, Val,
};

bench!(fig15_loss, "Fig 15: loss validation");

const STEPS: usize = 300;
const SMOOTH: usize = 10;
/// Points on each smoothed curve: one per full window.
const POINTS: usize = STEPS - SMOOTH + 1;

fn run(_smoke: bool, _env: &Env) -> Outcome {
    println!("training both drop policies for {STEPS} steps (smoothing window {SMOOTH})...");
    let (xmoe, ds) = loss_validation_curves(STEPS, SMOOTH);
    let mut recs: Vec<Record> = (0..POINTS)
        .map(|i| {
            row("curves")
                .cfg("step", int(i))
                .metric("xmoe_loss", Val::Fixed(xmoe[i], 6))
                .metric("dsmoe_loss", Val::Fixed(ds[i], 6))
        })
        .collect();
    let shown: Vec<Record> = recs.iter().step_by(POINTS / 15).cloned().collect();
    print_records("Fig 15: training loss curves (every 19th step)", &shown);
    println!("\nX-MoE curve: {}", sparkline(&xmoe));
    println!("DS-MoE curve: {}", sparkline(&ds));

    // Drop-rate evidence for the §5.6 explanation.
    let drop_rate = |policy| {
        let cfg = TrainConfig::fig15(policy);
        let batch = MarkovCorpus::new(cfg.vocab, 4, 999).batch(cfg.batch, cfg.seq_len);
        let full_layers = build_moe_layers(&cfg);
        let drops = SimCluster::frontier(1).run(|ctx| {
            let mut m = DistMoeLm::new(&cfg, &full_layers, 0, 1);
            let fwd = m.forward_backward(&batch, &ctx.world, &mut ctx.clock);
            fwd.expect("a one-rank world has no peer to fail");
            m.drop_fraction()
        });
        Val::Fixed(drops[0], 8)
    };
    let drops = row("initial drop rate")
        .metric("xmoe", drop_rate(DropPolicy::CapacityOnly))
        .metric("dsmoe", drop_rate(DropPolicy::CapacityAndNegativeLogit));
    print_records("initial drop rate", std::slice::from_ref(&drops));
    recs.push(drops);
    (recs, Vec::new())
}

fn gates(recs: &[Record]) -> Result<Vec<Check>, String> {
    let curves: &[Record; POINTS] = table(recs, "curves")?;
    let (xmoe, ds) = (column(curves, "xmoe_loss")?, column(curves, "dsmoe_loss")?);
    let [drops] = table(recs, "initial drop rate")?;
    let (x_drop, d_drop) = (drops.num("xmoe")?, drops.num("dsmoe")?);

    let tail = POINTS / 5;
    let x_end = xmoe.iter().rev().take(tail).sum::<f64>() / tail as f64;
    let d_end = ds.iter().rev().take(tail).sum::<f64>() / tail as f64;
    let max_gap = xmoe
        .iter()
        .zip(&ds)
        .skip(POINTS / 2)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    Ok(vec![
        Check::new(
            "both curves converge (loss well below the initial value)",
            x_end < xmoe[0] - 0.5 && d_end < ds[0] - 0.5,
            format!(
                "X {:.3} -> {:.3}; DS {:.3} -> {:.3}",
                xmoe[0], x_end, ds[0], d_end
            ),
        ),
        Check::new(
            "curves closely track each other in the second half",
            max_gap < 0.5,
            format!("max |gap| {max_gap:.3}"),
        ),
        Check::new(
            "X-MoE's final loss is at or slightly below DeepSpeed-MoE's (§5.6)",
            x_end <= d_end + 0.03,
            format!("X {x_end:.4} vs DS {d_end:.4}"),
        ),
        Check::new(
            "DeepSpeed-MoE drops more tokens (the §5.6 mechanism)",
            d_drop > x_drop,
            format!("{:.2}% vs {:.2}%", 100.0 * d_drop, 100.0 * x_drop),
        ),
    ])
}
