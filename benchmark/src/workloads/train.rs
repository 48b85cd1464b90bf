//! `train_fine_ep2`: the paper's full training step on two simulated ranks.
//!
//! One unit is one `DistMoeLm::train_step` (batch from the corpus, gate →
//! PFT → a2a → expert fwd/bwd → a2a → grad sync → Adam → loss reduce) on
//! `SimCluster::frontier(2)`. At hidden 64 the step is glue- and
//! overhead-bound, which is where runtime, pooling and mailbox work shows.
//! Traced units call the four public phases `train_step` composes, one span
//! each; untraced units call `train_step` itself.

use std::time::Instant;

use xmoe_collectives::{CommError, RankCtx, SimCluster};
use xmoe_core::gating::DropPolicy;
use xmoe_train::{build_moe_layers, DistMoeLm, MarkovCorpus, TrainConfig};

use crate::harness::{
    plan_units, probe_median_s, timed_units, LoopStats, Opts, Outcome, RoundSync, ROUNDS,
};
use crate::spans::Recorder;
use crate::workloads::sim;
use crate::{inputs, stats};

const WORLD: usize = 2;
const WARMUP_STEPS: usize = 20;
/// Steps of the deterministic window (see `sim::Window`) the traced run
/// takes right after warm-up, where the model's state depends on the seed
/// only.
const SIM_WINDOW: usize = 8;

fn config() -> TrainConfig {
    let mut c = TrainConfig::transformer(DropPolicy::CapacityOnly);
    c.hidden = 64;
    c.ffn = 32;
    c.num_experts = 32;
    c.top_k = 6;
    c.layers = 2;
    c.seq_len = 64;
    c.batch = 4;
    c
}

/// What one rank thread hands back from one round.
struct RankRound {
    losses: Vec<f64>,
    stats: LoopStats,
    rec: Recorder,
    window: Option<sim::Window>,
    all_reduce_s: f64,
    error: Option<CommError>,
}

struct Step<'a> {
    cfg: &'a TrainConfig,
    model: DistMoeLm,
    corpus: MarkovCorpus,
    losses: Vec<f64>,
    error: Option<CommError>,
}

impl Step<'_> {
    /// One training step; traced units time the four phases separately.
    fn run(&mut self, ctx: &mut RankCtx, rec: &mut Recorder) -> bool {
        let (cfg, model, corpus) = (self.cfg, &mut self.model, &mut self.corpus);
        let result = if rec.enabled {
            rec.scope("train.step", |rec| {
                let batch = rec.scope("train.data.batch", |_| corpus.batch(cfg.batch, cfg.seq_len));
                let local = rec.scope("train.dist.forward_backward", |_| {
                    model.forward_backward(&batch, &ctx.world, &mut ctx.clock)
                })?;
                rec.scope("train.dist.sync_grads", |_| {
                    model.sync_grads(&ctx.world, &mut ctx.clock)
                })?;
                rec.scope("train.dist.apply_update", |_| model.apply_update());
                rec.scope("train.dist.reduce_loss", |_| {
                    model.reduce_loss(local, &ctx.world, &mut ctx.clock)
                })
            })
        } else {
            let batch = corpus.batch(cfg.batch, cfg.seq_len);
            model.train_step(&batch, &ctx.world, &mut ctx.clock)
        };
        match result {
            Ok(loss) => {
                self.losses.push(loss);
                true
            }
            Err(e) => {
                self.error.get_or_insert(e);
                false
            }
        }
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let cfg = config();
    let tokens_per_step = (cfg.batch * cfg.seq_len * WORLD) as f64;
    let mut out = Outcome::new("train_fine_ep2", tokens_per_step);
    let full_layers = build_moe_layers(&cfg);
    let epoch = Instant::now();
    let mut round_losses: Vec<Vec<f64>> = Vec::new();
    let mut sim_step_ms = Vec::new();

    for round in 0..ROUNDS {
        let last = round + 1 == ROUNDS;
        let sync = RoundSync::start(WORLD);
        let first_unit = out.total_units();
        let mut ranks = SimCluster::frontier(WORLD).run(|ctx| {
            let lead = ctx.rank == 0;
            let mut rec = Recorder::new(ctx.rank as u32, epoch, 1 << 14);
            rec.enabled = false;
            let mut step = Step {
                cfg: &cfg,
                model: DistMoeLm::new(&cfg, &full_layers, ctx.rank, WORLD),
                corpus: MarkovCorpus::new(
                    cfg.vocab,
                    3,
                    inputs::sub_seed(opts.seed, "train.corpus", ctx.rank as u64, 0),
                ),
                losses: Vec::new(),
                error: None,
            };
            let mut warm = Vec::with_capacity(WARMUP_STEPS);
            for _ in 0..WARMUP_STEPS {
                let t = Instant::now();
                step.run(ctx, &mut rec);
                warm.push(t.elapsed().as_secs_f64());
                ctx.clock.reset_buckets();
            }
            let window = opts.trace.then(|| {
                sim::window(ctx, |ctx| {
                    for _ in 0..SIM_WINDOW {
                        step.run(ctx, &mut rec);
                    }
                })
            });
            let plan = lead.then(|| {
                plan_units(
                    stats::median(&warm[WARMUP_STEPS / 2..]),
                    opts.unit_budget_s(),
                    30,
                )
            });
            let n = sync.agree(plan);

            let stats = timed_units(n, opts.trace, first_unit, &mut rec, |_, rec| {
                let ok = step.run(ctx, rec);
                // Spans of finished steps are not needed; without this the
                // clock's span list (and the heap) grows with the run length.
                ctx.clock.reset_buckets();
                ok
            });

            let mut all_reduce_s = 0.0;
            if opts.trace && last {
                // One all-reduce the size of the commonest gradient tensor.
                let mut grad = vec![0.0f32; cfg.hidden * cfg.hidden];
                all_reduce_s = probe_median_s(200, || {
                    let _ = ctx.world.all_reduce_sum_f32(&mut grad, &mut ctx.clock);
                });
            }
            RankRound {
                losses: step.losses,
                stats,
                rec,
                window,
                all_reduce_s,
                error: step.error,
            }
        });
        out.setup_s.push(sync.setup_s());

        let steps = ranks[0].losses.len();
        out.attempted += (WARMUP_STEPS + if opts.trace { SIM_WINDOW } else { 0 }) as u64;
        if let Some(e) = ranks.iter().find_map(|r| r.error.as_ref()) {
            out.check("every step returns Ok", false, e.to_string());
        }
        out.check(
            "loss is rank-consistent",
            ranks.iter().all(|r| r.losses == ranks[0].losses),
            format!("{steps} steps"),
        );
        if opts.trace {
            let windows: Vec<sim::Window> =
                ranks.iter_mut().filter_map(|r| r.window.take()).collect();
            sim_step_ms.push(sim::window_step_ms(&windows, SIM_WINDOW));
            if last {
                sim::window_metrics(&windows, SIM_WINDOW, &mut out);
                out.set(
                    "collectives.comm.all_reduce_us",
                    ranks[0].all_reduce_s * 1e6,
                );
            }
        }
        for r in ranks.iter().skip(1) {
            out.vol_switches += r.stats.vol_switches;
        }
        let mut ranks = ranks.into_iter();
        let lead = ranks.next().expect("rank 0");
        round_losses.push(lead.losses);
        out.absorb(lead.stats);
        out.recorders.push(lead.rec);
        out.recorders.extend(ranks.map(|r| r.rec));
    }

    check_losses(&round_losses, &mut out);
    if opts.trace {
        let sim_ms = sim_step_ms[0];
        out.check(
            "simulated step time is identical across rounds",
            sim_ms > 0.0 && sim_step_ms.iter().all(|s| s.to_bits() == sim_ms.to_bits()),
            format!("{sim_ms} ms"),
        );
        out.set("sim_step_ms", sim_ms);
        span_metrics(&mut out);
        let spawn = probe_median_s(20, || {
            SimCluster::frontier(WORLD).run(|_| ());
        });
        out.set("collectives.runtime.spawn_join_ms", spawn * 1e3);
    }
    out
}

/// Finite, decreasing, and — same seed, same corpus — the same trajectory
/// in every round.
fn check_losses(rounds: &[Vec<f64>], out: &mut Outcome) {
    let finite = rounds.iter().flatten().all(|l| l.is_finite());
    out.check("loss is finite", finite, String::new());
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let decreasing = rounds.iter().all(|l| {
        let w = 10.min(l.len());
        mean(&l[l.len() - w..]) < mean(&l[..w])
    });
    let first = &rounds[0];
    out.check(
        "loss decreases over a round",
        decreasing,
        format!(
            "{:.4} -> {:.4}",
            first.first().copied().unwrap_or(f64::NAN),
            first.last().copied().unwrap_or(f64::NAN)
        ),
    );
    let common = rounds.iter().map(Vec::len).min().unwrap_or(0);
    let identical = rounds.iter().all(|l| {
        l[..common]
            .iter()
            .zip(&first[..common])
            .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    out.check(
        "loss trajectory is identical across rounds",
        identical,
        format!("{common} common steps"),
    );
}

/// Per-phase medians over both ranks' spans, and how far apart the ranks
/// reach the loss all-reduce (the time the earlier one waits there).
fn span_metrics(out: &mut Outcome) {
    let phase = |out: &Outcome, name: &str| {
        let per_rank: Vec<f64> = out.recorders.iter().map(|r| r.median_ms(name)).collect();
        per_rank.iter().sum::<f64>() / per_rank.len().max(1) as f64
    };
    for (metric, span) in [
        (
            "train.dist.forward_backward_ms",
            "train.dist.forward_backward",
        ),
        ("train.dist.sync_grads_ms", "train.dist.sync_grads"),
        ("train.dist.apply_update_ms", "train.dist.apply_update"),
        ("train.dist.reduce_loss_ms", "train.dist.reduce_loss"),
    ] {
        let v = phase(out, span);
        out.set(metric, v);
    }
    let batch_us = phase(out, "train.data.batch") * 1e3;
    out.set("train.data.batch_us", batch_us);
    let skew = sim::rank_skew_ms(&out.recorders, "train.dist.apply_update", |s| s.end_ns);
    out.set("train.dist.rank_skew_ms", skew);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_follows_the_seed_and_the_rank() {
        let batch = |seed, rank| {
            MarkovCorpus::new(64, 3, inputs::sub_seed(seed, "train.corpus", rank, 0)).batch(2, 16)
        };
        assert_eq!(batch(3, 0), batch(3, 0));
        assert_ne!(batch(3, 0), batch(4, 0));
        assert_ne!(batch(3, 0), batch(3, 1));
    }
}
